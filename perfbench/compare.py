"""Compare two result sets written by collect.py.

    python3 perfbench/compare.py perfbench/results/parent.json perfbench/results/change.json

For every workload and metric it prints each side's median and quartiles,
the ratio of the medians (change / base), the pairs the change won, and a
verdict.  Untraced runs give the end-to-end metrics, traced runs the
per-layer ones.  Runs pair up by repeat number.  The verdict follows the
pairing rule of the benchmark's method:

* improved      the change wins at least 9/10 of all pairs (ties count for
                neither), at least ten pairs were run, the medians differ in
                the better direction by more than the base's quartile
                spread, and the change failed no more operations than the base;
* unresolved    the base's own quartile spread is wider than the bound and
                not every change run beats every base run;
* worse         the change's median is worse than the base's by more than
                the bound;
* within bound  otherwise.  Per-layer metrics have no bound: they are
                either improved or "no bound".
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict[int, float], change: dict[int, float], bound: float | None,
            higher_better: bool, base_failed: int, change_failed: int) -> tuple[str, str]:
    sign = 1.0 if higher_better else -1.0
    pairs = [(base[k], change[k]) for k in base.keys() & change.keys()]
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    c_med = statistics.median(change.values())
    gain = sign * (c_med - b_med)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > b_q3 - b_q1 and change_failed <= base_failed):
        return "improved", f"{wins}/{len(pairs)}"
    if bound is None:
        return "no bound", f"{wins}/{len(pairs)}"
    every_run_better = min(sign * c for c in change.values()) > max(sign * b for b in base.values())
    if b_q3 - b_q1 > bound * abs(b_med) and not every_run_better:
        return "unresolved", f"{wins}/{len(pairs)}"
    if gain < -bound * abs(b_med):
        return "worse", f"{wins}/{len(pairs)}"
    return "within bound", f"{wins}/{len(pairs)}"


def values_by_repeat(result_set: dict, workload: str, metric: str, traced: int) -> dict[int, float]:
    return {run["repeat"]: run["metrics"][metric]["value"] for run in result_set["runs"]
            if run["workload"] == workload and run["trace"] == traced
            and metric in run["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, change = (json.loads(p.read_text(encoding="utf-8")) for p in (args.base, args.change))
    failed = [sum(r["failed"] for r in s["runs"]) for s in (base, change)]
    for label, result_set in (("base", base), ("change", change)):
        for problem in result_set["problems"]:
            print(f"{label} set problem: {problem}")
    print(f"failed operations: base {failed[0]}, change {failed[1]}")
    header = (f"{'workload':15s} {'metric':38s} {'unit':9s} {'base median [q1, q3]':32s} "
              f"{'change median [q1, q3]':32s} {'ratio':>7s} {'wins':>6s}  verdict")
    print(header)
    metrics = [(m, 0) for m in spec["end_to_end"]] + [(m, 1) for m in spec["per_layer"]]
    for workload in (w["name"] for w in spec["workloads"]):
        for metric, traced in metrics:
            b = values_by_repeat(base, workload, metric["name"], traced)
            c = values_by_repeat(change, workload, metric["name"], traced)
            if not b or not c:
                continue
            bq, cq = quartiles(list(b.values())), quartiles(list(c.values()))
            ratio = cq[1] / bq[1] if bq[1] else float("nan")
            word, wins = verdict(b, c, metric.get("bound"), metric["better"] == "higher",
                                 *failed)
            b_text = f"{bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]"
            c_text = f"{cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]"
            print(f"{workload:15s} {metric['name']:38s} {metric['unit']:9s} {b_text:32s} "
                  f"{c_text:32s} {ratio:7.3f} {wins:>6s}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
