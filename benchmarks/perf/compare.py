"""Compare two benchmark records written by ``run.py --out``.

    python3 benchmarks/perf/compare.py A.json B.json [--layers]

A is the parent, B the change.  For every workload and end-to-end metric
it prints each side's median and quartiles, B's median against A's as a
signed share of A's, the metric's bound from BENCHMARK.json, and a verdict:

  better      every B run beats every A run, or B's median beats A's by
              more than the bound while both spreads are within it
  worse       B's median is worse than A's by more than the bound
  unresolved  a side's spread (p75 - p25 as a share of its median) is
              wider than the bound, so the difference cannot be read
  unchanged   otherwise

``--layers`` adds the per-layer medians of traced runs, without verdicts:
they attribute a change, they do not gate it.  Any seed whose
``sim_fingerprint`` differs, between the records or within one, is
flagged: a change to the simulator's speed must leave every simulated
result identical.  Exits 1 if any metric is worse or unresolved or any
fingerprint differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """(signed change of B's median, verdict) for one metric."""
    change = (b["median"] - a["median"]) / a["median"]
    gain = -change if better == "lower" else change

    def beats(x: float, y: float) -> bool:
        return x < y if better == "lower" else x > y

    spread = max((side["p75"] - side["p25"]) / side["median"]
                 for side in (a, b))
    if all(beats(x, y) for x in b["values"] for y in a["values"]):
        return change, "better"
    if gain < -bound:
        return change, "worse"
    if spread > bound:
        return change, "unresolved"
    if gain > bound:
        return change, "better"
    return change, "unchanged"


def _cell(row: dict) -> str:
    return f"{row['median']:.4g} [{row['p25']:.4g}, {row['p75']:.4g}]"


def fingerprint_problems(name: str, a: dict, b: dict) -> list[str]:
    seen = defaultdict(set)
    for record in (a, b):
        for seed, fingerprint in record.get("fingerprints", []):
            seen[seed].add(fingerprint)
    return [f"{name} seed {seed}: sim_fingerprint differs "
            f"({', '.join(sorted(fps))})"
            for seed, fps in sorted(seen.items()) if len(fps) > 1]


def compare(a: dict, b: dict, spec: dict, layers: bool) -> int:
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    failing = 0
    print(f"A: {a['git_sha']}  ({a['repeat']} seeds, {a['seconds']} s runs, "
          f"nproc {a['nproc']})")
    print(f"B: {b['git_sha']}  ({b['repeat']} seeds, {b['seconds']} s runs, "
          f"nproc {b['nproc']})")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"\n{name}: missing from B")
            failing += 1
            continue
        side_a, side_b = a["workloads"][name], b["workloads"][name]
        print(f"\n{name}")
        print(f"  {'metric':<16} {'A median [p25, p75]':>32} "
              f"{'B median [p25, p75]':>32} {'change':>8} {'bound':>6}  "
              "verdict")
        for metric, spec_row in metrics.items():
            ra = side_a["end_to_end"][metric]
            rb = side_b["end_to_end"][metric]
            change, result = verdict(ra, rb, spec_row["better"],
                                     spec_row["bound"])
            failing += result in ("worse", "unresolved")
            print(f"  {metric:<16} {_cell(ra):>32} {_cell(rb):>32} "
                  f"{change:>+8.1%} {spec_row['bound']:>6.0%}  {result}")
        for problem in fingerprint_problems(name, side_a, side_b):
            failing += 1
            print(f"  FINGERPRINT: {problem}")
        if layers and "per_layer" in side_a and "per_layer" in side_b:
            print(f"  {'per-layer metric':<40} {'A median':>12} "
                  f"{'B median':>12} {'change':>8}")
            for metric, ra in side_a["per_layer"].items():
                rb = side_b["per_layer"].get(metric)
                if rb is None or not (ra["median"] or rb["median"]):
                    continue
                change = ((rb["median"] - ra["median"]) / ra["median"]
                          if ra["median"] else float("inf"))
                print(f"  {metric:<40} {ra['median']:>12.4g} "
                      f"{rb['median']:>12.4g} {change:>+8.1%}")
    return 1 if failing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="record of the parent")
    parser.add_argument("b", help="record of the change")
    parser.add_argument("--layers", action="store_true",
                        help="also print per-layer medians")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    return compare(a, b, spec, args.layers)


if __name__ == "__main__":
    sys.exit(main())
