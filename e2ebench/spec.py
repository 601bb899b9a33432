"""Metric and workload definitions; ``python3 e2ebench/spec.py`` prints
the BENCHMARK.json these definitions describe."""
from __future__ import annotations

import json

RUN_SECONDS = 15

WORKLOADS = {
    "train_tiramisu":
        "fp32 Tiramisu steps with checkpoint saves: stride-1 convs, "
        "BatchNorm and DenseBlock concat dominate; no gradient exchange",
    "train_deeplab_fp16_dp":
        "FP16 DeepLabv3+ over 4 simulated ranks: strided, dilated and "
        "transposed convs, casts, loss scaling and the ring all-reduce",
    "serve_infer":
        "open-loop Poisson requests through InferenceServer on the fused "
        "Tiramisu: forward only, micro-batching and the tile cache",
    "fleet_replay":
        "diurnal-plus-burst replay through the autoscaled two-cell fleet: "
        "event loop, hash ring, autoscaler, telemetry; no model compute",
}

# name: (unit, better, bound)
END_TO_END = {
    "latency_ms_p50": ("ms", "lower", 0.25),
    "throughput_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

# name: (unit, better)
PER_LAYER = {
    "trainer.forward_ms": ("ms", "lower"),
    "trainer.backward_ms": ("ms", "lower"),
    "trainer.optimizer_ms": ("ms", "lower"),
    "input.wait_ms": ("ms", "lower"),
    "ops.conv_fwd_ms": ("ms", "lower"),
    "ops.conv_wgrad_ms": ("ms", "lower"),
    "ops.conv_dgrad_ms": ("ms", "lower"),
    "ops.batchnorm_fwd_ms": ("ms", "lower"),
    "ops.batchnorm_bwd_ms": ("ms", "lower"),
    "ops.concat_ms": ("ms", "lower"),
    "ops.pool_ms": ("ms", "lower"),
    "ops.upsample_ms": ("ms", "lower"),
    "ops.cast_ms": ("ms", "lower"),
    "ops.unattributed_ms": ("ms", "lower"),
    "ops.conv_gflops_per_s": ("GFLOP/s", "higher"),
    "ops.plan_cache_hit_ratio": ("ratio", "higher"),
    "precision.unscale_ms": ("ms", "lower"),
    "precision.skipped_steps": ("count", "lower"),
    "comm.exchange_ms": ("ms", "lower"),
    "comm.bytes_per_step": ("B", "lower"),
    "comm.messages_per_step": ("count", "lower"),
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    "serve.latency_ms_p99": ("ms", "lower"),
    "serve.loop_self_ms": ("ms", "lower"),
    "serve.execute_ms": ("ms", "lower"),
    "serve.queue_wait_ms_p50": ("ms", "lower"),
    "serve.mean_batch_size": ("count", "higher"),
    "serve.cache_ms": ("ms", "lower"),
    "serve.cache_hit_ratio": ("ratio", "higher"),
    "inference.forward_windows_ms": ("ms", "lower"),
    "inference.windows_per_request": ("count", "lower"),
    "fusion.freeze_ms": ("ms", "lower"),
    "fleet.run_self_ms": ("ms", "lower"),
    "fleet.hashring_assign_ms": ("ms", "lower"),
    "fleet.hashring_assign_calls": ("count", "lower"),
    "fleet.autoscaler_ms": ("ms", "lower"),
    "fleet.cache_ms": ("ms", "lower"),
    "telemetry.streaming_ms": ("ms", "lower"),
    "telemetry.health_ms": ("ms", "lower"),
    "fleet.summarize_ms": ("ms", "lower"),
    "loadgen.replay_build_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, (u, b, x) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b) in PER_LAYER.items()],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
