"""netlearn benchmark: one workload at one seed, for a fixed time.

    python3 bench/run.py --workload royal-herding --seed 1 --seconds 25 \\
        --trace 0

Run from the repository root.  The seed generates the workload's INI
config; each pass then runs ``bench/simulate_once.py`` on that config in a
fresh process, one at a time (closed loop, one caller, no workers), until
``--seconds`` have passed.  Each pass also times the host-speed probe
(``probe.py``); its set-up, run and wall times are scaled by
``probe.REF_PROBE_S / probe_s`` to a host of fixed speed.  Every metric is
the median over the passes of the pass's own figure; the measured, unscaled
medians are in the manifest.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and prints the per-layer metrics, including the
tracing overhead.  Either way the outputs are checked afterwards (see
``checks.py``); the last stdout line is the result JSON and the line before
it the run's manifest.  Everything is written under ``.bench_out/``.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
sources are missing or the arguments are wrong.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import workloads

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150

END_TO_END = {"replicates_per_s": "1/s", "wall_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "config.load_s": "s",
    "graphs.generate_s": "s",
    "graphs.all_pairs_distances_s": "s",
    "signals.sample_atoms_s": "s",
    "signals.sample_atoms_calls": "count",
    "dynamics.replicate_rng_s": "s",
    "dynamics.replicate_rng_calls": "count",
    "dynamics.run_trace_self_s": "s",
    "dynamics.tally_s": "s",
    "dynamics.report_s": "s",
    "dynamics.write_trace_csv_s": "s",
    "dynamics.csv_rows": "count",
    "dynamics.csv_bytes": "bytes",
    "strategies.trace_actions_self_s": "s",
    "strategies.action_calls": "count",
    "strategies.action_self_s": "s",
    "strategies.gossip_mask_bytes": "bytes-computed",
    "strategies.gossip_bytes_per_replicate": "bytes-computed",
    "strategies.myopic_cache_hit_ratio": "ratio",
    "beliefs.views_solved": "count",
    "beliefs.exact_posterior_self_s": "s",
    "beliefs.assignments_replayed": "count",
    "beliefs.simulate_actions_self_s": "s",
    "beliefs.history_of_calls": "count",
    "beliefs.history_of_self_s": "s",
    "stats.wilson_interval_calls": "count",
    "checks.report_tie_events": "count",
    "checks.oracle_tie_events": "count",
    "failed_share": "ratio",
    "trace_overhead": "ratio",
}


class ChildFailed(RuntimeError):
    pass


class Tally:
    """Output checks of one run: attempted, failed and the tie counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.report_tie_events = 0   # Trace.tie_count summed over the sample
        self.oracle_tie_events = 0   # the oracle's ties on the same sample
        self.sizes = {}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def fail_all(self, why):
        """An exception fails every check, counted or not."""
        self.attempted = max(self.attempted, 1)
        self.failed = self.attempted
        self.failures.append(why)


def _run_child(cfg, env, *flags):
    cmd = [sys.executable, str(HERE / "simulate_once.py"), str(cfg), *flags]
    t0 = time.perf_counter()
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"pass exceeded {CHILD_TIMEOUT_S} s") from None
    if p.returncode != 0:
        raise ChildFailed(p.stderr.strip()[-2000:])
    res = json.loads(p.stdout.strip().splitlines()[-1])
    res["process_s"] = time.perf_counter() - t0
    return res


def _layer_metrics(p):
    """Per-layer numbers of one traced pass, from its aggregated spans."""
    spans = p["spans"]

    def pick(name, field, suffix=False):
        idx = {"calls": 0, "total": 1, "self": 2}[field]
        if suffix:
            return sum(v[idx] for k, v in spans.items()
                       if k.startswith("strategies.") and k.endswith(name))
        return spans[name][idx] if name in spans else 0

    action_calls = pick(".action", "calls", suffix=True)
    myopic_calls = pick("strategies.MyopicExactProfile.action", "calls")
    views = pick("beliefs.exact_posterior", "calls")
    held = p["gossip_held_bytes"]
    return {
        "config.load_s": pick("config.load_config", "total"),
        "graphs.generate_s": pick("graphs.generate", "total"),
        "graphs.all_pairs_distances_s":
            pick("graphs.all_pairs_distances", "total"),
        "signals.sample_atoms_s": pick("signals.sample_atoms", "total"),
        "signals.sample_atoms_calls": pick("signals.sample_atoms", "calls"),
        "dynamics.replicate_rng_s": pick("dynamics.replicate_rng", "total"),
        "dynamics.replicate_rng_calls":
            pick("dynamics.replicate_rng", "calls"),
        "dynamics.run_trace_self_s": pick("dynamics.run_trace", "self"),
        "dynamics.tally_s": pick("dynamics.add_trace", "total"),
        "dynamics.report_s": pick("dynamics.report_from_tally", "total")
        + p["report_write_s"],
        "dynamics.write_trace_csv_s":
            pick("dynamics.write_trace_csv", "total"),
        "dynamics.csv_rows": p.get("csv_rows", 0),
        "dynamics.csv_bytes": p.get("csv_bytes", 0),
        "strategies.trace_actions_self_s":
            pick(".trace_actions", "self", suffix=True),
        "strategies.action_calls": action_calls,
        "strategies.action_self_s": pick(".action", "self", suffix=True),
        # computed, not measured: bytes of the arrays the gossip profile
        # holds, each read once per replicate, plus one float64 total per
        # agent and round
        "strategies.gossip_mask_bytes": held,
        "strategies.gossip_bytes_per_replicate":
            held + 8 * p["n_agents"] * p["horizon"] if held else 0,
        "strategies.myopic_cache_hit_ratio":
            1.0 - views / myopic_calls if myopic_calls else 0.0,
        "beliefs.views_solved": views,
        "beliefs.exact_posterior_self_s":
            pick("beliefs.exact_posterior", "self"),
        "beliefs.assignments_replayed":
            pick("beliefs.simulate_actions", "calls"),
        "beliefs.simulate_actions_self_s":
            pick("beliefs.simulate_actions", "self"),
        "beliefs.history_of_calls": pick("beliefs.history_of", "calls"),
        "beliefs.history_of_self_s": pick("beliefs.history_of", "self"),
        "stats.wilson_interval_calls": pick("stats.wilson_interval", "calls"),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            l3 = f.read().strip()
    except OSError:
        l3 = None
    return {"cores": os.cpu_count(), "cpu_model": cpu, "l3_cache": l3,
            "python": platform.python_version()}


def _source_identity(root):
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for f in sorted((root / "src" / "netlearn").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return {"commit": commit, "source_sha256": h.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full",
                    help="'tiny' is for the smoke test")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "netlearn" / "__init__.py").is_file():
        print(f"error: {src / 'netlearn'} not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    out_dir = (root / ".bench_out" /
               f"{args.workload}-{args.scale}-seed{args.seed}"
               f"-trace{args.trace}")
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = out_dir / "run.cfg"
    workloads.write_ini(
        workloads.sections(args.workload, args.seed, args.scale,
                           str(out_dir)), cfg)
    # netlearn reads NETLEARN_* overrides from the environment; the config
    # alone must define the workload
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NETLEARN_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)

    untraced, traced, failure = [], [], None
    start = time.perf_counter()

    def time_left():
        """Whether one more pass of typical length ends within --seconds."""
        typical = _median([p["process_s"] for p in untraced + traced])
        return time.perf_counter() - start + typical <= args.seconds

    try:
        while (not untraced or (args.trace and not traced) or time_left()):
            if args.trace and len(traced) < len(untraced):
                traced.append(_run_child(cfg, env, "--trace"))
            else:
                untraced.append(_run_child(cfg, env))
    except ChildFailed as e:
        failure = f"pass failed: {e}"

    sys.path.insert(0, str(src))
    import numpy
    tally = Tally()
    try:
        import checks
        checks.run(args.workload, cfg, args.seed, untraced + traced, tally)
    except Exception as e:  # a crash fails every check; report, not raise
        tally.fail_all(f"checks raised {e!r}")
    if failure:
        tally.fail_all(failure)

    def scaled(p, key):
        """A pass's time scaled to a host where the probe takes
        REF_PROBE_S; the probe ran in the same process just after."""
        return p[key] * probe.REF_PROBE_S / p["probe_s"]

    def wall(p):
        return scaled(p, "setup_s") + scaled(p, "run_s")

    if args.trace:
        # median_low: every figure is one pass's own, so counts stay whole
        layers = [_layer_metrics(p) for p in traced]
        values = {k: statistics.median_low([lm[k] for lm in layers])
                  for k in PER_LAYER if layers and k in layers[0]}
        values["checks.report_tie_events"] = tally.report_tie_events
        values["checks.oracle_tie_events"] = tally.oracle_tie_events
        values["failed_share"] = tally.failed / tally.attempted
        if traced and untraced:
            values["trace_overhead"] = (_median([wall(p) for p in traced])
                                        / _median([wall(p) for p in untraced]))
        units = PER_LAYER
    else:
        values = {
            "replicates_per_s": _median([p["replicates"] / scaled(p, "run_s")
                                         for p in untraced]),
            "wall_s": _median([wall(p) for p in untraced]),
            "setup_s": _median([scaled(p, "setup_s") for p in untraced]),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in untraced]),
        }
        units = END_TO_END
    metrics = {k: {"value": values.get(k, 0.0), "unit": u}
               for k, u in units.items()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    manifest = {
        **_source_identity(root), "workload": args.workload,
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "trace": args.trace, "sizes": tally.sizes, **_machine(),
        "numpy": numpy.__version__,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        # medians of the measured times, before scaling to the probe
        "measured": {
            "probe_s": _median([p["probe_s"] for p in untraced]),
            "ref_probe_s": probe.REF_PROBE_S,
            "setup_s": _median([p["setup_s"] for p in untraced]),
            "run_s": _median([p["run_s"] for p in untraced]),
            "wall_s": _median([p["setup_s"] + p["run_s"] for p in untraced]),
        },
        "absent_boundaries": traced[0]["absent"] if traced else [],
    }
    with open(out_dir / "result.json", "w") as f:
        json.dump({"manifest": manifest, "result": result,
                   "check_failures": tally.failures,
                   "passes": untraced + traced}, f, indent=1)
    for why in tally.failures:
        print(f"check failed: {why}", file=sys.stderr)
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
