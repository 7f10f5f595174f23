"""Spread of the end-to-end metrics over the kept runs of one workload.

    python3 perfbench/spread.py validate-2d 1 2 3 4 5 6 7 8 9 10

Reads ``perfbench/out/<workload>/seed-<n>/result.json`` of untraced runs
and prints, for each end-to-end metric of BENCHMARK.json, the median over
the seeds and the spread (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def main(argv):
    if len(argv) < 3:
        sys.exit("usage: python3 perfbench/spread.py <workload> <seed>...")
    workload, seeds = argv[1], argv[2:]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    results = [json.loads((HERE / "out" / workload / f"seed-{s}" / "result.json").read_text())
               for s in seeds]
    print(f"{workload}: {len(results)} runs, seeds {' '.join(seeds)}")
    for m in spec["end_to_end"]:
        values = [r["values"][m["name"]] for r in results]
        q1, _, q3 = quantiles(values, n=4)
        mid = median(values)
        spread = (q3 - q1) / mid
        print(f"  {m['name']:12s} median {mid:12.6g} {m['unit']:3s} min {min(values):12.6g} "
              f"max {max(values):12.6g} spread {spread:.3f} bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
