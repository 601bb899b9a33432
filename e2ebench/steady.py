"""Steadiness check: repeated runs of every workload, two sets compared.

    python3 e2ebench/steady.py --runs 10                # 2 sets of 5 runs
    python3 e2ebench/steady.py --runs 6 --workloads serve_infer

Each run is ``run.py --workload W --seed S`` in its own process, with a
different seed every run.  For every end-to-end metric and workload it
prints the median and quartiles over all runs, the interquartile spread
as a share of the median, and the shift between the medians of the first
and second half of the runs, each next to the metric's bound.  A spread
at or above a third of the bound, or a shift above the bound, is marked.
Results are also written to e2ebench/out/steady.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent))

from e2ebench import spec  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(_HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload, split into two sets")
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    args = parser.parse_args(argv)
    if args.runs < 4:
        raise SystemExit("--runs must be >= 4")
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, args.seconds)
            runs.append(result)
            print(f"{workload} seed {args.first_seed + i}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
                + f" correct={result['correct']} failed={result['failed']}"
                  f"/{result['attempted']}", flush=True)
        half = args.runs // 2
        rows = {}
        for metric, (unit, better, bound) in spec.END_TO_END.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            row = summarize(values)
            first = statistics.median(values[:half])
            second = statistics.median(values[half:])
            worse = (second - first) if better == "lower" else (first - second)
            row.update(first_median=first, second_median=second,
                       shift=worse / first, bound=bound, unit=unit,
                       values=values)
            row["steady"] = (row["shift"] <= bound
                             and (metric == "setup_s"
                                  or row["spread"] < bound / 3))
            ok &= row["steady"]
            rows[metric] = row
        shares = {r["failed"] / r["attempted"] for r in runs}
        report[workload] = {
            "metrics": rows, "correct": all(r["correct"] for r in runs),
            "failed_shares": sorted(shares)}
        ok &= report[workload]["correct"] and len(shares) == 1
    print()
    print(f"{'workload':24s} {'metric':18s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'set1':>12s} {'set2':>12s} "
          f"{'shift':>7s} {'bound':>6s}")
    for workload, doc in report.items():
        for metric, row in doc["metrics"].items():
            flag = "" if row["steady"] else "  <-- unsteady"
            print(f"{workload:24s} {metric:18s} {row['median']:12.4f} "
                  f"{row['q1']:12.4f} {row['q3']:12.4f} "
                  f"{row['spread']:7.1%} {row['first_median']:12.4f} "
                  f"{row['second_median']:12.4f} {row['shift']:+7.1%} "
                  f"{row['bound']:6.2f}{flag}")
        print(f"{workload:24s} correct={doc['correct']} failed shares="
              f"{doc['failed_shares']}")
    out = _HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
