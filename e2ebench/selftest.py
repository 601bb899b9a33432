"""Self-test of the output checks at smoke size (a few seconds).

    python3 e2ebench/selftest.py

Every check must pass on the program's real output and trip on a wrong
one: a perturbed gradient, a dropped response, a flipped checkpoint byte,
a replica with one altered parameter, a lost fleet request, and more.
Exits 1 if any check fails to do either.
"""
from __future__ import annotations

import copy
import os
import shutil
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE.parent)]

import numpy as np  # noqa: E402

from e2ebench import checks  # noqa: E402
from e2ebench.workloads import (FleetReplay,  # noqa: E402
                                TrainDeepLabFP16DP, TrainTiramisu)

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, good: list[str], bad: list[str]) -> None:
    """``good`` must be empty (check passes), ``bad`` non-empty (trips)."""
    ok = not good and bool(bad)
    RESULTS.append((name, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {name}: passes={not good}, "
          f"trips={bool(bad)}" + (f" {good[:2]}" if good else ""))


def _tiny_tiramisu(seed: int):
    from repro.core.networks import Tiramisu, TiramisuConfig

    return Tiramisu(TiramisuConfig(in_channels=4, base_filters=8, growth=4,
                                   down_layers=(1,), bottleneck_layers=1,
                                   kernel=3, dropout=0.0),
                    rng=np.random.default_rng(seed))


def _tiny_data():
    from repro.climate import ClimateDataset, Grid, class_frequencies

    ds = ClimateDataset.synthesize(Grid(16, 24), num_samples=6, seed=3,
                                   channels=4)
    return ds, class_frequencies(ds.labels)


def test_training(scratch: Path) -> None:
    from repro.core import Trainer, TrainConfig
    from repro.core.checkpoint import CheckpointManager

    ds, freqs = _tiny_data()
    config = TrainConfig(lr=0.1, optimizer="larc")
    trainer = Trainer(_tiny_tiramisu(0), config, freqs)
    x, y = ds.images[:2], ds.labels[:2]
    losses = [trainer.train_step(x, y).loss for _ in range(6)]
    expect("loss trend", checks.losses_fall(losses),
           checks.losses_fall(losses[::-1])
           + checks.losses_fall(losses[:-1] + [float("nan")]))

    grads = TrainTiramisu.loss_gradient(trainer, x, y)
    wrong = {n: g * 1.1 for n, g in grads.items()}
    expect("directional derivative vs perturbed gradient",
           TrainTiramisu.directional_check(trainer, x, y, grads, 0, 1e-2),
           TrainTiramisu.directional_check(trainer, x, y, wrong, 0, 1e-2))

    manager = CheckpointManager(scratch / "ckpt")
    manager.save(trainer)
    good = TrainTiramisu.restore_check(
        manager, trainer, Trainer(_tiny_tiramisu(9), config, freqs), (x, y))
    path = manager.save(trainer)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    bad = TrainTiramisu.restore_check(
        manager, trainer, Trainer(_tiny_tiramisu(9), config, freqs), (x, y))
    expect("checkpoint round trip vs flipped byte", good, bad)


def test_data_parallel() -> None:
    from repro.core import DistributedTrainer, TrainConfig

    ds, freqs = _tiny_data()
    dist = DistributedTrainer(lambda: _tiny_tiramisu(0), 2,
                              TrainConfig(lr=0.05, optimizer="larc",
                                          precision="fp16"), freqs)
    batches = [(ds.images[[i]], ds.labels[[i]]) for i in range(2)]
    copies = copy.deepcopy(dist.trainers)
    result = dist.train_step(batches)
    assert not result.skipped
    applied = [{p.name: np.asarray(p.grad) for p in t.model.parameters()
                if p.grad is not None} for t in dist.trainers]
    per_rank = [TrainDeepLabFP16DP.rank_gradient(t, bx, by)
                for t, (bx, by) in zip(copies, batches)]
    wrong = copy.deepcopy(applied)
    name = sorted(wrong[1])[0]
    wrong[1][name] = wrong[1][name] * 1.01
    expect("gradient average vs perturbed gradient",
           checks.gradient_average(per_rank, applied),
           checks.gradient_average(per_rank, wrong))

    params = TrainDeepLabFP16DP.replica_params(dist)
    altered = copy.deepcopy(params)
    altered[1][name] = altered[1][name].copy()
    altered[1][name].flat[0] += np.float32(1e-3)
    expect("replicas identical vs one altered parameter",
           checks.replicas_identical(params),
           checks.replicas_identical(altered))

    grad_bytes = sum(4 * p.size for p in dist.model.parameters())
    reported = int(result.exchange.data_bytes)
    expect("ring all-reduce bytes",
           checks.ring_bytes([reported], 2, grad_bytes),
           checks.ring_bytes([reported + 4], 2, grad_bytes))


def test_serving() -> None:
    from repro.core.inference import sliding_window_logits
    from repro.serve import (InferenceServer, ServeConfig, WorkloadConfig,
                             synth_workload)

    model = _tiny_tiramisu(0)
    frozen = model.freeze_for_inference()
    stream = synth_workload(WorkloadConfig(num_requests=6, rate_rps=20.0,
                                           image_hw=(16, 16), channels=4,
                                           seed=1))
    server = InferenceServer(lambda: frozen, ServeConfig(
        window_hw=(8, 8), stride_hw=(4, 4), max_wait_s=0.0, freeze=False))
    responses = server.serve(stream)
    statuses = [r.status for r in responses]
    expect("offered = served vs dropped response",
           checks.all_served(len(stream), statuses),
           checks.all_served(len(stream), statuses[:-1]))

    model.train(False)
    logits = sliding_window_logits(model, stream[0].image, (8, 8), (4, 4))
    ref = np.argmax(logits, axis=0)
    served = responses[0].class_map
    flipped = served.copy()
    gap = np.sort(logits, axis=0)
    widest = np.unravel_index(np.argmax(gap[-1] - gap[-2]), ref.shape)
    flipped[widest] = (flipped[widest] + 1) % logits.shape[0]
    expect("class map vs flipped pixel",
           checks.class_maps_match(ref, logits, served),
           checks.class_maps_match(ref, logits, flipped))


def test_fleet() -> None:
    from repro.serve import FleetConfig, ReplayConfig, replay_workload
    from repro.serve.fleet import AutoscalerConfig
    from repro.serve.fleet import fleet as fleet_mod
    from repro.telemetry import SimulatedClock

    cells = ("east", "west")
    replay = replay_workload(ReplayConfig(
        num_requests=3000, duration_s=20.0, cells=cells,
        bursts=((6.0, 4.0, 2.5),), snapshot_pool=500, seed=2))
    config = FleetConfig(cells=cells, initial_replicas=2,
                         autoscaler=AutoscalerConfig(min_replicas=1,
                                                     max_replicas=8))
    outcomes = []
    for _ in range(2):
        server = fleet_mod.FleetServer(config, clock=SimulatedClock())
        result = server.run(replay)
        outcomes.append(FleetReplay.outcome(result))
    lost = outcomes[0]["status"].copy()
    lost[np.flatnonzero(lost == checks.STATUS_SERVED)[0]] = 0
    expect("fleet accounting vs lost request",
           checks.fleet_accounting(outcomes[0]["status"], len(replay)),
           checks.fleet_accounting(lost, len(replay)))
    changed = dict(outcomes[1], status=lost)
    expect("replay determinism vs changed outcome",
           checks.outcomes_identical(outcomes[0], outcomes[1]),
           checks.outcomes_identical(outcomes[0], changed))
    events = FleetReplay.remap_events(server, replay)
    expect("remap bound vs a whole-ring remap",
           checks.remap_bounded(events),
           checks.remap_bounded(events + [("everything moved", 1.0, 4)]))


def main() -> int:
    scratch = _HERE / "out" / f"selftest-{os.getpid()}"
    try:
        test_training(scratch)
        test_data_parallel()
        test_serving()
        test_fleet()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)}/{len(RESULTS)} checks pass on real "
          "output and trip on wrong output")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
