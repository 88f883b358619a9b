"""One `netlearn simulate` pass in this fresh process, timed in two phases.

    python3 bench/simulate_once.py CONFIG [--trace]

Runs the real command, ``netlearn.cli.main(["simulate", "--config",
CONFIG])``, with one worker.  Set-up is importing netlearn and everything
the command does before it enters ``dynamics.run_ensemble``: parsing,
``load_config`` and building the graph, signal model and profile.  The run
is the rest of the command: the ensemble, the report JSON and, when the
config names one, the trace CSV.  After the command, the pass times the
host-speed probe (``probe.py``).  Prints one JSON line with the timings, the
probe's time, the process's peak RSS, a digest of the report and, with
``--trace``, the aggregated spans.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import sys
import time

import probe
from tracer import Tracer


def _held_bytes(obj, seen=None) -> int:
    """Bytes of the numpy arrays reachable from an object's attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(_held_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_held_bytes(v, seen) for v in obj)
    if hasattr(obj, "__dict__") and not isinstance(obj, type):
        return _held_bytes(vars(obj), seen)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    tracer = Tracer() if args.trace else None

    t0 = time.perf_counter()
    from netlearn import cli, config, dynamics, strategies
    if tracer:
        tracer.install()

    # entering run_ensemble ends set-up; the ensemble's arguments are kept
    # for the computed per-layer figures
    seen = {}
    run_ensemble = dynamics.run_ensemble

    @functools.wraps(run_ensemble)
    def marked(g, m, profile, sim, *a, **kw):
        seen.update(enter=time.perf_counter(), g=g, profile=profile, sim=sim)
        try:
            return run_ensemble(g, m, profile, sim, *a, **kw)
        finally:
            seen["leave"] = time.perf_counter()

    dynamics.run_ensemble = marked
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["simulate", "--config", args.config,
                       "--format", "summary"])
    t2 = time.perf_counter()
    if rc != 0 or "enter" not in seen:
        print(f"netlearn simulate exited {rc}", file=sys.stderr)
        return 1

    run_cfg = config.load_config(args.config)
    with open(run_cfg.report_json, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    t1 = seen["enter"]
    out = {
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "replicates": seen["sim"].replicates,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_sha256": digest,
    }
    if tracer:
        csv_s = tracer.spans.get("dynamics.write_trace_csv", [0, 0.0])[1]
        g, prof = seen["g"], seen["profile"]
        out.update(
            spans=tracer.spans,
            absent=tracer.absent,
            # what the command does after the ensemble, CSV aside: report
            # serialisation and writing
            report_write_s=t2 - seen["leave"] - csv_s,
            n_agents=g.n,
            horizon=seen["sim"].horizon,
            gossip_held_bytes=(
                _held_bytes(prof)
                if isinstance(prof, strategies.GossipProfile) else 0),
        )
        if run_cfg.trace_csv:
            out["csv_bytes"] = os.path.getsize(run_cfg.trace_csv)
            with open(run_cfg.trace_csv) as f:
                out["csv_rows"] = sum(1 for _ in f) - 1
    # last, so that the probe counts in neither the pass's times nor its RSS
    out["probe_s"] = probe.probe_s(t2 - t0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
