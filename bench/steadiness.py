"""Run the benchmark repeatedly on one commit and report how steady it is.

    python3 bench/steadiness.py --workload plan crosscheck cold_cli --runs 10

Each run gets its own seed (first-seed, first-seed + 1, ...).  For each
metric on each workload it prints the median, the quartiles and the
quartile spread (q3 - q1) / median, as statistics.quantiles(n=4) gives
them, next to the metric's bound in BENCHMARK.json.  A spread above a
third of its bound is flagged: the bounds are chosen from these
figures.  Raw results go to bench/out/steadiness-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    flagged = 0
    for workload in args.workload:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        with open(os.path.join(ROOT, "bench", "out", f"steadiness-{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)

        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, rel = spread(values)
            bound = bounds[name]
            mark = ""
            if name != "setup_s" and rel > bound / 3:
                mark = "  > bound/3"
                flagged += 1
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:34} {median:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} "
                  f"{bound:>6}{mark}  {unit}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  failed share: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
