"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 bench/spread.py [--workload NAME ...] [--runs 10]
                            [--write bench/baseline.json]

Run from the repository root.  Runs ``bench/run.py --trace 0`` for seeds 1,
2, ... at BENCHMARK.json's ``run_seconds``, then prints for each workload and
end-to-end metric the median, the quartiles and the spread (Q3 - Q1) /
median next to the metric's bound in BENCHMARK.json.  With ``--write`` it
also records those figures, a traced run per workload and the manifest as
the baseline file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(workload, seed, seconds, trace):
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True,
        timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}\n"
                           f"{p.stderr[-2000:]}")
    return json.loads(lines[-2])["manifest"], json.loads(lines[-1])


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--write", metavar="PATH")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline, worst = {}, 0.0
    for w in args.workload or names:
        runs = [_run(w, seed, bench["run_seconds"], 0)
                for seed in range(1, args.runs + 1)]
        entry = {"runs": args.runs, "seeds": [m["seed"] for m, _ in runs],
                 "manifest": runs[0][0], "end_to_end": {}}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for _, r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bound)
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "unit": runs[0][1]["metrics"][name]["unit"],
                "values": vals}
            print(f"{w:14s} {name:17s} median {med:12.6g}  "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.3f}  "
                  f"bound {bound}", flush=True)
        print(f"{w:14s} checks: {sum(r['attempted'] for _, r in runs)} "
              f"attempted, {sum(r['failed'] for _, r in runs)} failed",
              flush=True)
        if args.write:
            _, traced = _run(w, 1, bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
        baseline[w] = entry
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.write:
        Path(args.write).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
