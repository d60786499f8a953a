"""Compare two sets of benchmark results, per workload and end-to-end metric.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds result records written by bench/run.py with --trace 0
(bench/out/<workload>-seed<n>-trace0.json), ideally ten seeds per workload
and the same seeds on both sides.  For every workload and every end-to-end
metric in BENCHMARK.json the report gives both medians, each side's spread
(quartile distance over median) and a verdict under the metric's bound:

  regressed    the new median is worse than the base median by more than the bound
  unresolved   a side's spread exceeds the bound, so the bound cannot be applied,
               unless every new run beats every base run
  improved     the new side wins at least 9 in 10 same-seed pairs and the medians
               differ by more than the base spread
  unchanged    none of the above

It also reports fail_frac on the seeds both sides ran, and any new run whose
output check failed.  The exit code is 1 when any metric regressed, any new
run was incorrect, or the new side fails a larger share of units on the
common seeds.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """{workload: {seed: record}} for the untraced records in a directory."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def spread(values: list[float]) -> float:
    """Quartile distance over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: dict[int, float], new: dict[int, float], bound: float, lower_better: bool) -> tuple[str, float]:
    sign = 1.0 if lower_better else -1.0
    b_med = statistics.median(base.values())
    n_med = statistics.median(new.values())
    worse = sign * (n_med - b_med) / b_med  # > 0 means the new side is worse
    if worse > bound:
        return "regressed", worse
    if max(spread(list(base.values())), spread(list(new.values()))) > bound:
        if all(sign * (n - b) < 0 for n in new.values() for b in base.values()):
            return "improved", worse
        return "unresolved", worse
    pairs = [(base[s], new[s]) for s in base.keys() & new.keys()]
    wins = sum(sign * (n - b) < 0 for b, n in pairs)
    base_iqr = spread(list(base.values())) * b_med
    if pairs and wins >= 0.9 * len(pairs) and abs(n_med - b_med) > base_iqr:
        return "improved", worse
    return "unchanged", worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    status = 0
    for workload in sorted(base.keys() | new.keys()):
        if workload not in base or workload not in new:
            print(f"{workload}: results on one side only")
            status = 1
            continue
        b_runs, n_runs = base[workload], new[workload]
        print(f"{workload}  (base {len(b_runs)} runs, new {len(n_runs)} runs)")
        print(f"  {'metric':14s}{'base median':>14s}{'spread':>9s}{'new median':>14s}{'spread':>9s}"
              f"{'worse by':>10s}{'bound':>8s}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = {s: r["metrics"][name]["value"] for s, r in b_runs.items()}
            n = {s: r["metrics"][name]["value"] for s, r in n_runs.items()}
            result, worse = verdict(b, n, metric["bound"], metric["better"] == "lower")
            status |= result == "regressed"
            print(f"  {name:14s}{statistics.median(b.values()):14.6g}{spread(list(b.values())):9.3f}"
                  f"{statistics.median(n.values()):14.6g}{spread(list(n.values())):9.3f}"
                  f"{worse:10.3f}{metric['bound']:8.2f}  {result}")
        # failures are compared on the seeds both sides ran: other seeds draw other inputs
        common = sorted(b_runs.keys() & n_runs.keys())
        if common:
            b_fail, n_fail = (
                sum(runs[s]["failed"] for s in common) / sum(runs[s]["attempted"] for s in common)
                for runs in (b_runs, n_runs)
            )
            print(f"  fail_frac on {len(common)} common seeds: base {b_fail:.3g}, new {n_fail:.3g}")
            status |= n_fail > b_fail
        else:
            print("  fail_frac: no common seeds, not compared")
        bad = sorted(s for s, r in n_runs.items() if not r["correct"])
        if bad:
            print(f"  output check failed on new seeds {bad}")
        status |= bool(bad)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
