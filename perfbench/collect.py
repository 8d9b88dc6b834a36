"""Run a result set: every workload ten times untraced and once traced, each
run in a fresh process.

    python3 perfbench/collect.py                       # this checkout, seed 0
    python3 perfbench/collect.py --seed 1              # the confirmation seed
    python3 perfbench/collect.py parent=../parent change=.   # alternate two trees

Each SIDE is ``label=ROOT``: the source tree ROOT (its ``src/``) is measured
with this directory's benchmark code, so both sides of a comparison run the
same benchmark.  With two sides the runs alternate and the side that goes
first swaps on every repeat.  Each side's set is written to
``perfbench/results/<label>.json``; compare two sets with compare.py.

A set checks that every run was correct and that ``best_val_loss`` is
bit-identical across all runs of one workload, traced runs included.  It
also reports each workload's tracing overhead: the median traced ``fit_s``
less the median untraced one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import MIN_PAIRS

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN_TIMEOUT_S = 900


def run_once(root: Path, workload: str, seed: int, trace: int, record: Path) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace), "--root", str(root), "--record", str(record)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        returncode, output = proc.returncode, proc.stdout + proc.stderr
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        returncode, output = None, f"timed out after {exc.timeout} s\n"
    if returncode != 0 or not record.is_file():
        sys.stderr.write(output)
        return {"workload": workload, "seed": seed, "trace": trace, "correct": False,
                "attempted": 1, "failed": 1, "metrics": {}, "returncode": returncode}
    run = json.loads(record.read_text(encoding="utf-8"))
    record.unlink()
    return run


def set_problems(runs: list[dict]) -> list[str]:
    problems = [f"{r['workload']} trace={r['trace']}: run not correct"
                for r in runs if not r["correct"]]
    for workload in WORKLOADS:
        losses = {repr(r["best_val_loss"]) for r in runs
                  if r["workload"] == workload and "best_val_loss" in r}
        if len(losses) > 1:
            problems.append(f"{workload}: best_val_loss differs between runs: {sorted(losses)}")
    return problems


def trace_overhead_s(runs: list[dict], workload: str) -> float | None:
    def fit_times(trace, metric):
        return [r["metrics"][metric]["value"] for r in runs
                if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]]

    traced, untraced = fit_times(1, "trace.fit_s"), fit_times(0, "fit_s")
    if not traced or not untraced:
        return None
    return statistics.median(traced) - statistics.median(untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="*", default=[f"current={BENCH_DIR.parent}"],
                        metavar="LABEL=ROOT")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sides = {}
    for item in args.sides:
        label, _, root = item.partition("=")
        if not label or not root or not (Path(root) / "src").is_dir():
            parser.error(f"side {item!r} must be LABEL=ROOT with ROOT/src present")
        sides[label] = Path(root).resolve()
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    runs: dict[str, list[dict]] = {label: [] for label in sides}
    # enough untraced pairs for compare.py to call a change improved, and one traced run
    plan = [(r, 0) for r in range(MIN_PAIRS)] + [(0, 1)]
    for repeat, trace in plan:
        order = list(sides) if repeat % 2 == 0 else list(reversed(sides))
        for workload in WORKLOADS:
            for label in order:
                started = time.perf_counter()
                run = run_once(sides[label], workload, args.seed, trace,
                               results_dir / f".{label}-{workload}.json")
                run["repeat"] = repeat
                runs[label].append(run)
                print(f"{label} {workload} trace={trace} repeat={repeat} "
                      f"correct={run['correct']} {time.perf_counter() - started:.1f}s", flush=True)

    status = 0
    for label, side_runs in runs.items():
        problems = set_problems(side_runs)
        overhead = {w: trace_overhead_s(side_runs, w) for w in WORKLOADS}
        for workload, seconds in overhead.items():
            if seconds is not None:
                print(f"{label} {workload}: tracing overhead {seconds:+.3f} s of fit_s")
        out = results_dir / f"{label}.json"
        out.write_text(json.dumps({"label": label, "root": str(sides[label]), "seed": args.seed,
                                   "run_seconds": SPEC["run_seconds"], "problems": problems,
                                   "trace_overhead_s": overhead, "runs": side_runs},
                                  indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out}: {len(side_runs)} runs, "
              + ("all checks passed" if not problems else "; ".join(problems)))
        status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
