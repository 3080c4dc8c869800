"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 benchmark/steadiness.py [--first-seed 1]

Runs run.py once per seed (first-seed, first-seed + 1, ..., RUNS seeds) on
every workload in BENCHMARK.json, one run at a time, and prints for every end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next
to the metric's bound. A spread above a third of the bound is flagged, and
so is any run whose outputs were wrong or whose share of failed operations
differs from the others'. The last line is a JSON object of every value, so
two sets of runs can be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    values: dict[str, dict[str, list[float]]] = {}
    steady = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = [run_once(workload, seed, SPEC["run_seconds"])
                   for seed in range(args.first_seed, args.first_seed + RUNS)]
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        wrong = sum(not r["correct"] for r in results)
        print(f"{workload}: {RUNS} runs, attempted "
              f"{min(r['attempted'] for r in results)}-{max(r['attempted'] for r in results)}, "
              f"failed share {' '.join(map(str, sorted(shares)))}, wrong outputs in {wrong} runs")
        steady = steady and wrong == 0 and len(shares) == 1
        values[workload] = {}
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bound / 3 else "  <- above bound/3"
            if spread > bound:
                flag = "  <- ABOVE BOUND"
                steady = False
            print(f"  {name:<12} {metric['unit']:>6}  median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}"
                  f"  spread {spread:.4f}  bound {bound}{flag}")
            values[workload][name] = vals
    print(json.dumps(values))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
