"""End-to-end and per-layer benchmark of the climate-segmentation stack.

    python3 e2ebench/run.py --workload train_tiramisu --seed 1 --seconds 15
    python3 e2ebench/run.py --workload all --seconds 15         # every workload
    python3 e2ebench/run.py --workload serve_infer --trace 1    # per-layer

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See e2ebench/README.md.
"""
import time

_T0 = time.perf_counter()   # set-up time is measured from here

import os  # noqa: E402

# One BLAS thread: steadier than two on a shared 2-CPU host, and the same
# on every run.  Must be set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from e2ebench import spec  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_for(workload, seconds: float, rec) -> None:
    """Whole rounds until ``seconds`` have passed (and the minimum ran)."""
    start = time.perf_counter()
    rounds = 0
    while (rounds < workload.min_rounds
           or time.perf_counter() - start < seconds):
        workload.run_round(rec)
        rounds += 1


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, warm up, time (and trace) one workload; returns the result."""
    from e2ebench import tracing
    from e2ebench.workloads import WORKLOADS

    from repro.framework.ops import plan_cache_stats

    out_dir = _HERE / "out" / f"{name}-seed{seed}"
    scratch = _HERE / "out" / f"scratch-{os.getpid()}"
    try:
        workload = WORKLOADS[name](seed, scratch)
        workload.setup()
        setup_s = time.perf_counter() - _T0
        workload.warmup()
        phase_s = seconds / 2.0 if trace else seconds
        workload.begin_phase()
        _run_for(workload, phase_s, None)
        e2e = workload.e2e()
        e2e["setup_s"] = setup_s
        e2e["peak_rss_mb"] = _peak_rss_mb()
        tail_ms = workload.tail_ms()
        layers = None
        if trace:
            rec = tracing.Recorder()
            rec.install(workload.targets())
            try:
                plans0 = plan_cache_stats()
                workload.begin_phase()
                _run_for(workload, phase_s, rec)
                plans1 = plan_cache_stats()
            finally:
                rec.uninstall()
            traced = workload.e2e()
            layers = {n: 0.0 for n in spec.PER_LAYER}
            layers.update(workload.layers(rec))
            layers.update(workload.setup_ms)
            hits = plans1["hits"] - plans0["hits"]
            lookups = hits + plans1["misses"] - plans0["misses"]
            layers["ops.plan_cache_hit_ratio"] = (hits / lookups
                                                  if lookups else 0.0)
            layers["serve.latency_ms_p99"] = tail_ms
            layers["trace.overhead_pct"] = 100.0 * (
                traced["latency_ms_p50"] / e2e["latency_ms_p50"] - 1.0)
            out_dir.mkdir(parents=True, exist_ok=True)
            rec.write_chrome_trace(out_dir / "trace.json")
            (out_dir / "layers.json").write_text(json.dumps({
                "workload": name, "seed": seed, "seconds": seconds,
                "metrics": layers, "untraced": e2e, "traced": traced,
                "spans": rec.table(), "dropped_spans": rec.dropped},
                indent=1, sort_keys=True))
        failures = workload.check()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if trace:
        metrics = {n: {"value": layers[n], "unit": spec.PER_LAYER[n][0]}
                   for n in spec.PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": spec.END_TO_END[n][0]}
                   for n in spec.END_TO_END}
    return {"correct": not failures, "attempted": int(workload.attempted),
            "failed": int(workload.failed), "metrics": metrics,
            "failures": failures}


def _print_table(name: str, result: dict) -> None:
    print(f"== {name}: attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {result['correct']}")
    for metric, m in result["metrics"].items():
        print(f"   {metric:32s} {m['value']:14.4f} {m['unit']}")
    for failure in result.get("failures", [])[:20]:
        print(f"   CHECK FAILED: {failure}")


def _run_all(args) -> dict:
    """Each workload in its own process (own set-up time and peak RSS)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        _print_table(name, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = _run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        _print_table(args.workload, result)
        result.pop("failures")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
