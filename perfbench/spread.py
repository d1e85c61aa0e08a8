"""Runs the benchmark on a range of seeds and reports, per metric, the median
and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.

    python3 perfbench/spread.py --workload memory --seeds 1 10 [--trace 1]

Run from the repository root. Runs are made one after another. With
``--out FILE`` the medians, quartiles and every run's values are written as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", required=True, type=int, nargs=2,
                    metavar=("FIRST", "LAST"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    runs = []
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=300, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}"
                                           for k, v in runs[-1].items()),
              file=sys.stderr)

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    summary = {}
    print(f"{'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in bounds:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        spread = (q3 - q1) / abs(med) if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": values}
        bound = bounds[name]
        print(f"{name:36s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              + (f"{bound:6.3f}" + ("" if spread < bound / 3 else "  WIDE")
                 if bound is not None else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds,
             "trace": args.trace, "metrics": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
