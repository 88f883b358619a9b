"""Command-line harness.

Subcommands:
  check-topology    connectivity / L-connectivity / diameter of a graph
  graph-distance    dyadic rooted-ball distance between two rooted graphs
  simulate          run an ensemble from a config file
  verify-invariants run the built-in invariant suites

A graph argument is a ``graphs.generate`` spec such as ``dicycle(6)`` or an
edge-list file.  ``simulate`` runs every ensemble through
``dynamics.run_ensemble`` with at most ``--workers`` processes (and no more
than the replicates or the usable CPUs); the report and the trace CSV, whose
roles come from ``graphs.role_names``, do not depend on it.  A setting
ranks default < file < NETLEARN_* variable < flag (``--seed``, ``--out``,
``--trace-csv``).  Seeds run from 0 to 2**64 - 1.

Exit codes: 0 success, 1 check failed (e.g. invariant violation), 2 usage or
input error (e.g. graph not strongly connected where required, ``--workers``
below 1, an unknown config section or key, a config value that does not
parse, a seed that is negative or 2**64 or more, an output path that is a
directory, an input file, in a missing directory or not writable, a report
and a trace CSV that are one file, or a run the exact engine's budget
cannot hold), found before any replicate runs;
``verify-invariants`` checks its scope and its seed before any suite runs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, dynamics, graphs, strategies
from .config import load_config

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _load_graph(arg: str):
    """A family spec like ``dicycle(6)`` or a path to an edge-list file.  An
    argument that ends in ``)`` and names no file is a spec, so a bad one
    fails with what is wrong with it rather than as a missing file."""
    if arg.endswith(")") and not os.path.exists(arg):
        return graphs.generate(arg)
    with open(arg) as f:
        return graphs.from_edge_list_text(f.read())


def _check_writable(path: str):
    """Raise ValueError unless ``path`` opens for writing.  A file this
    creates is removed again and an existing one is not changed, so a run
    that fails later leaves no file behind."""
    try:
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            os.close(os.open(path, os.O_WRONLY))
        else:
            os.remove(path)
    except OSError as e:
        raise ValueError(f"cannot write output file {path!r}: "
                         f"{e.strerror}") from None


def cmd_check_topology(args) -> int:
    try:
        g = _load_graph(args.graph)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    from . import topology
    sc = topology.is_strongly_connected(g)
    out = {"n": g.n, "edges": len(g.indices), "strongly_connected": sc}
    if sc:
        out["l_connectivity"], out["diameter"] = \
            topology.l_connectivity_and_diameter(g)
        out["max_out_degree"] = topology.out_degree_bound(g)
    print(json.dumps(out, indent=2))
    return EXIT_OK if sc else EXIT_USAGE


def cmd_graph_distance(args) -> int:
    from . import topology
    try:
        g1 = _load_graph(args.graph1)
        g2 = _load_graph(args.graph2)
        value, truncated = topology.rooted_distance(
            g1, args.root1, g2, args.root2, args.r_max)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps({"distance": value, "truncated": truncated,
                      "r_max": args.r_max}, indent=2))
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        if args.workers < 1:
            raise ValueError("--workers must be >= 1")
        rc = load_config(args.config, {
            "sim": {"seed": args.seed},
            "output": {"report_json": args.out, "trace_csv": args.trace_csv}})
        out_json, csv_path = rc.report_json, rc.trace_csv
        inputs = {os.path.realpath(p) for p in (args.config, rc.graph_file)
                  if p}
        for path in (out_json, csv_path):
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"no directory for output file {path!r}")
            if path and os.path.isdir(path):
                raise ValueError(f"output file {path!r} is a directory")
            if path and os.path.realpath(path) in inputs:
                raise ValueError(f"output file {path!r} is an input file")
            if path:
                _check_writable(path)
        if (out_json and csv_path
                and os.path.realpath(out_json) == os.path.realpath(csv_path)):
            raise ValueError(f"the report and the trace CSV are one file, "
                             f"{csv_path!r}")
        g = rc.build_graph()
        m = rc.build_signal_model()
        prof = rc.build_profile(g, m)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report, actions = dynamics.run_ensemble(
            g, m, prof, rc.sim, keep_actions=bool(csv_path),
            workers=args.workers)
    except (strategies.BudgetExceededError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    payload = report.to_dict()
    payload["version"] = __version__
    text = json.dumps(payload, indent=2)
    if out_json:
        with open(out_json, "w") as f:
            f.write(text + "\n")
    if args.format == "json" or not out_json:
        print(text)
    else:
        print(f"learning_freq={report.learning_freq:.4f} "
              f"agreement_freq={report.agreement_freq:.4f} "
              f"replicates={report.replicates}")
    if csv_path:
        dynamics.write_trace_csv(csv_path, actions, graphs.role_names(g))
    return EXIT_OK


def cmd_verify_invariants(args) -> int:
    try:
        dynamics.check_seed(args.seed)
    except ValueError as e:  # "seed must be ...": name the flag
        print(f"error: --{e}", file=sys.stderr)
        return EXIT_USAGE
    # imported here, so that no other command loads the suites; run_scope
    # rejects an unknown scope before it runs any
    from .invariants import run_scope
    try:
        results = run_scope(args.scope, args.seed)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    failures = 0
    for name, ok, detail in results:
        mark = "ok  " if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{mark} {name}{suffix}")
        failures += not ok
    print(f"{len(results) - failures}/{len(results)} invariants hold")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="netlearn",
        description="Simulators and diagnostics for repeated learning games "
                    "on directed networks.")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check-topology",
                       help="connectivity and L-connectivity report")
    c.add_argument("graph", help="family spec like 'dicycle(6)' or an "
                                 "edge-list file path")
    c.set_defaults(fn=cmd_check_topology)

    d = sub.add_parser("graph-distance",
                       help="dyadic rooted-ball distance between two graphs")
    d.add_argument("graph1")
    d.add_argument("root1", type=int)
    d.add_argument("graph2")
    d.add_argument("root2", type=int)
    d.add_argument("--r-max", type=int, default=8)
    d.set_defaults(fn=cmd_graph_distance)

    s = sub.add_parser("simulate", help="run an ensemble from a config file")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int, default=None,
                   help="override the config's master seed")
    s.add_argument("--workers", type=int, default=1,
                   help="worker processes; the result does not depend on it")
    s.add_argument("--out", default=None, help="report JSON path")
    s.add_argument("--trace-csv", default=None,
                   help="also write per-round actions to CSV")
    s.add_argument("--format", choices=("json", "summary"), default="json",
                   help="stdout: the report JSON, or with summary one "
                        "'learning_freq=... agreement_freq=... "
                        "replicates=N' line; summary applies only when the "
                        "report goes to a file (--out or [output] "
                        "report_json), otherwise the JSON is printed")
    s.set_defaults(fn=cmd_simulate)

    v = sub.add_parser("verify-invariants",
                       help="run built-in invariant suites")
    v.add_argument("--scope", default="all",
                   help="one invariant suite, or all; an unknown name "
                        "is answered with the list")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_verify_invariants)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
