"""Steadiness check: how much the end-to-end metrics move between runs.

Usage, from the root of a checkout:

    python3 bench/steady.py --runs 10 [--workloads regions,cli]
                            [--first-seed 1000] [--seconds S]

Runs every workload --runs times through bench/run.py, each run with its
own seed, alternating the workload order between passes. For each
workload and end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the quartile spread as a
share of the median, and that spread against the metric's bound in
BENCHMARK.json. A spread is flagged when it exceeds a third of its bound.
The figures also go to bench/results/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--first-seed", type=int, default=1000)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()
    chosen = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in chosen}
    shares = {w: set() for w in chosen}
    for i in range(args.runs):
        order = chosen if i % 2 == 0 else chosen[::-1]
        for workload in order:
            seed = args.first_seed + i
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
            took = time.monotonic() - start
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {proc.returncode})", flush=True)
                return 1
            result = json.loads(lines[-1])
            for metric, entry in result["metrics"].items():
                values[workload][metric].append(entry["value"])
            shares[workload].add((result["failed"], result["attempted"]))
            print(f"{workload} seed {seed}: {took:.1f} s, correct "
                  f"{result['correct']}, " + ", ".join(
                      f"{k} {v['value']:.4g}"
                      for k, v in result["metrics"].items()), flush=True)

    summary = {}
    worst = 0.0
    print(f"\n{'workload':10s} {'metric':12s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for workload in chosen:
        failed_shares = sorted({f / a for f, a in shares[workload]})
        for metric, vals in values[workload].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            bound = bounds[metric]
            flag = "" if spread <= bound / 3 else "  > bound/3"
            if metric != "setup_s":
                worst = max(worst, spread / bound)
            summary.setdefault(workload, {})[metric] = {
                "values": vals, "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound}
            print(f"{workload:10s} {metric:12s} {med:10.4g} {q1:10.4g} "
                  f"{q3:10.4g} {spread:7.3f} {bound:6.2f}{flag}")
        print(f"{workload:10s} failed share(s): {failed_shares}")
    print(f"\nlargest spread/bound outside setup_s: {worst:.2f}")
    out = ROOT / "bench" / "results" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
