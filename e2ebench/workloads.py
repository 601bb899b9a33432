"""The four workloads, each driven through the program's public API.

A workload builds its inputs and program objects in ``setup``, runs one
*round* of its operations per ``run_round`` call, summarises the current
phase with ``e2e`` (untraced) or ``layers`` (traced), and verifies its
outputs in ``check``.  Rounds are whole: every run attempts the same
operations per round, whatever its length.
"""
from __future__ import annotations

import contextlib
import copy
import time
from pathlib import Path

import numpy as np

from . import checks, tracing

_now = time.perf_counter


def _median_ms(seconds) -> float:
    return float(np.median(seconds)) * 1e3


def _per(total_s: float, count: float) -> float:
    return total_s * 1e3 / count if count else 0.0


def _no_span(name):
    return contextlib.nullcontext()


class Workload:
    """Shared bookkeeping: operations attempted and per-phase records."""

    name = ""
    min_rounds = 2

    def __init__(self, seed: int, scratch: Path):
        self.seed = int(seed)
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.setup_ms: dict[str, float] = {}

    def begin_phase(self) -> None:
        raise NotImplementedError

    def targets(self) -> list:
        raise NotImplementedError

    def tail_ms(self) -> float:
        """p99 latency where the workload has one (only serve_infer)."""
        return 0.0


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


class _TrainWorkload(Workload):
    """Common step loop of the two training workloads."""

    warmup_steps = 2
    steps_per_round = 4

    def begin_phase(self) -> None:
        self.step_s: list[float] = []
        self.wait_s: list[float] = []
        self.round_s: list[float] = []
        self.samples = 0
        self.skipped = 0
        self.exchange_bytes: list[int] = []
        self.exchange_messages: list[int] = []

    def warmup(self) -> None:
        self.begin_phase()
        for _ in range(self.warmup_steps):
            self._step()

    def run_round(self, rec: tracing.Recorder | None) -> None:
        t0 = _now()
        for _ in range(self.steps_per_round):
            if rec is not None:
                rec.op_id += 1
            self._step(rec)
        self._end_round(rec)
        self.round_s.append(_now() - t0)

    def _end_round(self, rec) -> None:
        pass

    def _step(self, rec=None) -> None:
        span = rec.span if rec is not None else _no_span
        t0 = _now()
        with span("input.wait"):
            batch = self._fetch()
        t1 = _now()
        with span("step"):
            result = self._train(batch)
        self.step_s.append(_now() - t1)
        self.wait_s.append(t1 - t0)
        self._count(batch, result)
        self.skipped += bool(result.skipped)
        self.attempted += 1

    def e2e(self) -> dict:
        return {"latency_ms_p50": _median_ms(self.step_s),
                "throughput_per_s": self.samples / sum(self.round_s)}

    def _train_layers(self, rec: tracing.Recorder, conv_flops: float
                      ) -> dict:
        steps = len(self.step_s)
        t = rec.total_s
        s = rec.self_s
        conv_s = s["ops.conv_fwd"] + s["ops.conv_wgrad"] + s["ops.conv_dgrad"]
        out = {
            "trainer.forward_ms": _per(t["trainer.forward"], steps),
            "trainer.backward_ms": _per(t["trainer.backward"], steps),
            "trainer.optimizer_ms": _per(t["trainer.optimizer"], steps),
            "input.wait_ms": _per(t["input.wait"], steps),
            "ops.conv_fwd_ms": _per(s["ops.conv_fwd"], steps),
            "ops.conv_wgrad_ms": _per(s["ops.conv_wgrad"], steps),
            "ops.conv_dgrad_ms": _per(s["ops.conv_dgrad"], steps),
            "ops.batchnorm_fwd_ms": _per(s["ops.batchnorm_fwd"], steps),
            "ops.batchnorm_bwd_ms": _per(s["ops.batchnorm_bwd"], steps),
            "ops.concat_ms": _per(s["ops.concat"], steps),
            "ops.pool_ms": _per(s["ops.pool"], steps),
            "ops.upsample_ms": _per(s["ops.upsample"], steps),
            "ops.cast_ms": _per(s["ops.cast"], steps),
            # Step time that no layer span claims: the self time of the
            # step, forward and backward containers.
            "ops.unattributed_ms": _per(s["step"] + s["trainer.forward"]
                                        + s["trainer.backward"], steps),
            "ops.conv_gflops_per_s": (conv_flops * steps / conv_s / 1e9
                                      if conv_s else 0.0),
            "precision.unscale_ms": _per(t["precision.unscale"], steps),
            "precision.skipped_steps": float(self.skipped),
            "comm.exchange_ms": _per(t["comm.exchange"], steps),
            "comm.bytes_per_step": (float(np.mean(self.exchange_bytes))
                                    if self.exchange_bytes else 0.0),
            "comm.messages_per_step": (float(np.mean(self.exchange_messages))
                                       if self.exchange_messages else 0.0),
            "checkpoint.save_ms": _per(t["checkpoint.save"], steps),
        }
        return out

    @staticmethod
    def _conv_flops(analysis) -> float:
        """Conv FLOPs of one traced step, transposed convs excluded (they
        are timed as upsampling)."""
        return float(sum(r.flops for r in analysis.records
                         if r.category in ("conv_fwd", "conv_bwd")
                         and not r.name.startswith("deconv")))


def _cycle_batches(dataset, indices, batch_size, rng):
    """Endless epochs of ``ClimateDataset.batches`` over ``indices``."""
    while True:
        yield from dataset.batches(indices, batch_size, rng)


class TrainTiramisu(_TrainWorkload):
    """fp32 Tiramisu, one process, LARC, periodic checkpoint saves."""

    name = "train_tiramisu"
    grid_hw = (96, 144)
    channels = 8
    batch = 2
    samples = 20
    config = dict(in_channels=8, base_filters=16, growth=8,
                  down_layers=(2, 2), bottleneck_layers=2, kernel=3,
                  dropout=0.0)

    def setup(self) -> None:
        from repro.climate import ClimateDataset, Grid, class_frequencies
        from repro.core import TrainConfig, Trainer
        from repro.core.checkpoint import CheckpointManager

        self.dataset = ClimateDataset.synthesize(
            Grid(*self.grid_hw), num_samples=self.samples, seed=self.seed,
            channels=self.channels)
        self.freqs = class_frequencies(self.dataset.labels)
        self.train_config = TrainConfig(lr=0.1, optimizer="larc",
                                        weighting="inverse_sqrt")
        self.trainer = Trainer(self._model(self.seed), self.train_config,
                               self.freqs)
        self.ckpt = CheckpointManager(self.scratch / "ckpt", keep_last=2)
        self.batches = _cycle_batches(
            self.dataset, self.dataset.splits.train, self.batch,
            np.random.default_rng(self.seed + 1))
        self.losses: list[float] = []

    def _model(self, seed):
        from repro.core.networks import Tiramisu, TiramisuConfig

        return Tiramisu(TiramisuConfig(**self.config),
                        rng=np.random.default_rng(seed))

    def targets(self):
        return tracing.ops_targets() + tracing.trainer_targets()

    def _fetch(self):
        return next(self.batches)

    def _train(self, batch):
        return self.trainer.train_step(*batch)

    def _count(self, batch, result) -> None:
        self.samples += len(batch[0])
        self.losses.append(result.loss)

    def _end_round(self, rec) -> None:
        self.ckpt.save(self.trainer)

    def layers(self, rec) -> dict:
        analysis = self.trainer.model.analyze(
            (self.channels, *self.grid_hw), batch=self.batch)
        out = self._train_layers(rec, self._conv_flops(analysis))
        latest = self.ckpt.latest()
        out["checkpoint.bytes"] = float(latest.stat().st_size) if latest else 0.0
        return out

    # -- checks --------------------------------------------------------------

    def check(self) -> list[str]:
        out = checks.losses_fall(self.losses)
        out += self._check_checkpoint()
        out += self._check_gradient()
        return out

    def _check_checkpoint(self) -> list[str]:
        """A fresh trainer loaded from the last checkpoint matches."""
        from repro.core import Trainer

        fresh = Trainer(self._model(self.seed + 7), self.train_config,
                        self.freqs)
        return self.restore_check(self.ckpt, self.trainer, fresh,
                                  next(self.batches))

    @staticmethod
    def restore_check(manager, original, fresh, batch) -> list[str]:
        """Load the latest checkpoint into ``fresh``; it must match
        ``original`` bit for bit and take the same next step."""
        try:
            manager.load(fresh)
        except Exception as exc:          # any decode failure trips the check
            return [f"checkpoint load: {exc!r}"]
        out = checks.states_identical(original.model.state_dict(),
                                      fresh.model.state_dict(),
                                      "checkpoint parameters")
        if original.optimizer.steps != fresh.optimizer.steps:
            out.append("checkpoint: optimizer step count differs")
        images, labels = batch
        a = original.train_step(images, labels).loss
        b = fresh.train_step(images, labels).loss
        out += checks.same_value(a, b, "checkpoint next-step loss")
        # The update just taken used the restored momentum buffers.
        out += checks.states_identical(original.model.state_dict(),
                                       fresh.model.state_dict(),
                                       "checkpoint optimizer state")
        return out

    def _check_gradient(self, eps: float = 1e-2) -> list[str]:
        trainer = self.trainer
        images, labels = next(self.batches)
        grads = self.loss_gradient(trainer, images, labels)
        return self.directional_check(trainer, images, labels, grads,
                                      self.seed, eps)

    @staticmethod
    def loss_gradient(trainer, images, labels) -> dict:
        model = trainer.model
        model.train(True)
        model.zero_grad()
        trainer.compute_loss(images, labels).backward()
        return {p.name: np.asarray(p.grad, dtype=np.float64)
                for p in model.parameters() if p.grad is not None}

    @staticmethod
    def directional_check(trainer, images, labels, grads, seed, eps
                          ) -> list[str]:
        """Central difference of the loss along a seeded random direction.

        The direction is a seeded random unit vector plus the unit
        gradient: a purely random one is nearly orthogonal to the gradient
        late in training, and its projection then drowns in the float32
        noise of the loss.  A gradient that is wrong in scale or direction
        still changes the projection the finite difference is held to.
        """
        params = [p for p in trainer.model.parameters() if p.name in grads]
        rng = np.random.default_rng(seed + 11)
        noise = {p.name: rng.standard_normal(p.data.shape) for p in params}
        noise_norm = np.sqrt(sum(float((d * d).sum())
                                 for d in noise.values()))
        grad_norm = np.sqrt(sum(float((grads[n] * grads[n]).sum())
                                for n in noise))
        direction = {n: d / noise_norm + grads[n] / grad_norm
                     for n, d in noise.items()}
        norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        projection = sum(float((grads[n] * d).sum()) / norm
                         for n, d in direction.items())
        saved = {p.name: p.data.copy() for p in params}
        losses = []
        for sign in (1.0, -1.0):
            for p in params:
                p.data = (saved[p.name].astype(np.float64)
                          + sign * eps * direction[p.name] / norm
                          ).astype(saved[p.name].dtype)
            losses.append(TrainTiramisu.loss64(trainer, images, labels))
        for p in params:
            p.data = saved[p.name]
        return checks.directional_derivative(losses[0], losses[1], eps,
                                             projection)

    @staticmethod
    def loss64(trainer, images, labels) -> float:
        """The weighted cross-entropy, recomputed in float64 from logits."""
        from repro.framework import Tensor

        z = trainer.model(Tensor(images.astype(np.float32))).data
        z = z.astype(np.float64)
        z = z - z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        nll = -np.take_along_axis(
            logp, labels[:, None].astype(np.int64), axis=1)[:, 0]
        weights = trainer.class_weight_table.astype(np.float64)[labels]
        return float((weights * nll).sum() / weights.sum())


class TrainDeepLabFP16DP(_TrainWorkload):
    """FP16 DeepLabv3+ with dynamic loss scaling over 4 simulated ranks."""

    name = "train_deeplab_fp16_dp"
    grid_hw = (48, 72)
    channels = 8
    world = 4
    batch = 1                   # per rank
    samples = 24
    steps_per_round = 2

    def setup(self) -> None:
        from repro.climate import ClimateDataset, Grid, class_frequencies
        from repro.core import DistributedTrainer, TrainConfig

        self.dataset = ClimateDataset.synthesize(
            Grid(*self.grid_hw), num_samples=self.samples, seed=self.seed,
            channels=self.channels)
        freqs = class_frequencies(self.dataset.labels)
        config = TrainConfig(lr=0.05, optimizer="larc", precision="fp16",
                             weighting="inverse_sqrt")
        self.dist = DistributedTrainer(self._model, self.world, config,
                                       freqs)
        rng = np.random.default_rng(self.seed + 1)
        train = self.dataset.splits.train
        self.rank_batches = [
            _cycle_batches(self.dataset,
                           self.dataset.shard_indices(train, r, self.world),
                           self.batch,
                           np.random.default_rng(rng.integers(2**63)))
            for r in range(self.world)]

    def _model(self):
        from repro.core.networks import DeepLabConfig, DeepLabV3Plus

        return DeepLabV3Plus(
            DeepLabConfig(in_channels=self.channels, width=0.125,
                          aspp_dilations=(2, 4, 6)),
            rng=np.random.default_rng(self.seed))

    def targets(self):
        return tracing.ops_targets() + tracing.trainer_targets()

    def _fetch(self):
        return [next(it) for it in self.rank_batches]

    def _train(self, batches):
        return self.dist.train_step(batches)

    def _count(self, batches, result) -> None:
        self.samples += sum(len(x) for x, _ in batches)
        if result.exchange is not None:
            self.exchange_bytes.append(int(result.exchange.data_bytes))
            self.exchange_messages.append(
                int(result.exchange.data_messages))

    def layers(self, rec) -> dict:
        analysis = self.dist.model.analyze(
            (self.channels, *self.grid_hw), batch=self.batch,
            precision="fp16")
        return self._train_layers(rec,
                                  self.world * self._conv_flops(analysis))

    # -- checks --------------------------------------------------------------

    def grad_bytes(self) -> int:
        return int(sum(4 * p.size for p in self.dist.model.parameters()))

    def check(self) -> list[str]:
        out = checks.ring_bytes(self.exchange_bytes, self.world,
                                self.grad_bytes())
        out += self._check_average()
        out += checks.replicas_identical(self.replica_params(self.dist))
        return out

    @staticmethod
    def replica_params(dist) -> list[dict]:
        return [{name: p.master_value() for name, p in
                 t.model.named_parameters()} for t in dist.trainers]

    def _check_average(self, tries: int = 4) -> list[str]:
        """On a check step, every replica applied the mean gradient."""
        for _ in range(tries):
            copies = copy.deepcopy(self.dist.trainers)
            batches = self._fetch()
            result = self.dist.train_step(batches)
            if result.skipped:
                continue            # loss-scale overflow: no exchange
            applied = [{p.name: np.asarray(p.grad) for p in
                        t.model.parameters() if p.grad is not None}
                       for t in self.dist.trainers]
            per_rank = [self.rank_gradient(t, x, y)
                        for t, (x, y) in zip(copies, batches)]
            return checks.gradient_average(per_rank, applied)
        return ["gradient average: every check step overflowed"]

    @staticmethod
    def rank_gradient(trainer, images, labels) -> dict:
        """One replica's unscaled local gradient, recomputed on a copy."""
        model = trainer.model
        model.train(True)
        model.zero_grad()
        scale = trainer.scaler.scale if trainer.scaler is not None else 1.0
        (trainer.compute_loss(images, labels) * scale).backward()
        return {p.name: np.asarray(p.grad, dtype=np.float64) / scale
                for p in model.parameters() if p.grad is not None}


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


class ServeInfer(Workload):
    """Seeded open-loop Poisson stream through InferenceServer."""

    name = "serve_infer"
    min_rounds = 2              # >= 1000 latency samples for the p99
    requests = 640
    warmup_requests = 40
    rate_rps = 20.0
    image_hw = (32, 32)
    window = 16
    stride = 8
    channels = 8

    def setup(self) -> None:
        from repro.core.networks import Tiramisu, TiramisuConfig
        from repro.serve import ServeConfig, WorkloadConfig, synth_workload

        self.stream = synth_workload(WorkloadConfig(
            num_requests=self.requests, rate_rps=self.rate_rps,
            image_hw=self.image_hw, channels=self.channels,
            repeat_fraction=0.25, seed=self.seed))
        self.model = Tiramisu(TiramisuConfig(**TrainTiramisu.config),
                              rng=np.random.default_rng(self.seed))
        t0 = _now()
        self.frozen = self.model.freeze_for_inference()
        self.setup_ms["fusion.freeze_ms"] = (_now() - t0) * 1e3
        # Replicas share the frozen model: the server is built per pass
        # (fresh cache and queues), the fusion happened once above.
        # max_wait_s=0 dispatches at once: the batcher's age trigger can
        # round below its deadline and strand the last request (see
        # CHANGES.md), so batches form only while both replicas are busy.
        # One request's windows per model call keeps every call the same
        # shape, so the layers' plan workspaces (and peak RSS) do not
        # depend on how the measured service times happened to batch.
        self.serve_config = ServeConfig(
            window_hw=(self.window, self.window),
            stride_hw=(self.stride, self.stride), num_replicas=2,
            max_batch_size=8, max_wait_s=0.0, forward_batch=self.windows,
            max_depth=1 << 20, slo_s=(), cache_budget_bytes=64 << 20,
            freeze=False)
        self.maps: list[list[np.ndarray]] = []
        self.statuses: list[list[str]] = []

    def targets(self):
        return tracing.ops_targets() + tracing.serve_targets(
            self._on_execute)

    def _on_execute(self, args, kwargs, result) -> None:
        _, batch, now = args
        self.queue_wait_s.extend(now - r.arrival_s for r in batch)

    def begin_phase(self) -> None:
        self.pass_s: list[float] = []
        self.latency_s: list[float] = []
        self.queue_wait_s: list[float] = []
        self.served = 0
        self.reports = []

    @property
    def windows(self) -> int:
        """Tiles per request: a 3x3 grid of 16x16 windows at stride 8."""
        rows = (self.image_hw[0] - self.window) // self.stride + 1
        cols = (self.image_hw[1] - self.window) // self.stride + 1
        return rows * cols

    def warmup(self) -> None:
        """A prefix of the stream builds the plans; it is not timed."""
        from repro.serve import InferenceServer

        frozen = self.frozen
        server = InferenceServer(lambda: frozen, self.serve_config)
        server.serve(self.stream[:self.warmup_requests])
        self.attempted += self.warmup_requests
        self.begin_phase()

    def run_round(self, rec) -> None:
        if rec is not None:
            rec.op_id += 1
        self._pass()

    def _pass(self) -> None:
        from repro.serve import InferenceServer, summarize

        frozen = self.frozen
        t0 = _now()
        server = InferenceServer(lambda: frozen, self.serve_config,
                                 model_key=f"tiramisu-{self.seed}")
        responses = server.serve(self.stream)
        report = summarize(responses, server)
        self.pass_s.append(_now() - t0)
        self.attempted += len(self.stream)
        self.statuses.append([r.status for r in responses])
        self.maps.append([None if r.class_map is None
                          else r.class_map.astype(np.int8)
                          for r in responses])
        self.latency_s += [r.latency_s for r in responses
                           if r.status == "served"]
        self.served += report.served
        self.reports.append(report)

    def e2e(self) -> dict:
        return {"latency_ms_p50": float(np.median(self.latency_s)) * 1e3,
                "throughput_per_s": self.served / sum(self.pass_s)}

    def tail_ms(self) -> float:
        """p99 latency, or 0 with fewer than 10 samples beyond it."""
        if len(self.latency_s) < 1000:
            return 0.0
        return float(np.percentile(self.latency_s, 99)) * 1e3

    def layers(self, rec) -> dict:
        n = self.served
        t, s = rec.total_s, rec.self_s
        hits = sum(r.cache["hits"] for r in self.reports)
        misses = sum(r.cache["misses"] for r in self.reports)
        analysis = self.frozen.analyze(
            (self.channels, self.window, self.window), batch=1,
            include_backward=False)
        window_flops = float(sum(r.flops for r in analysis.records
                                 if r.category == "conv_fwd"))
        conv_s = s["ops.conv_fwd"]
        return {
            "ops.conv_fwd_ms": _per(conv_s, n),
            "ops.concat_ms": _per(s["ops.concat"], n),
            "ops.pool_ms": _per(s["ops.pool"], n),
            "ops.upsample_ms": _per(s["ops.upsample"], n),
            "ops.unattributed_ms": _per(s["inference.forward_windows"], n),
            "ops.conv_gflops_per_s": (window_flops * misses / conv_s / 1e9
                                      if conv_s else 0.0),
            "serve.loop_self_ms": _per(s["serve.loop"], n),
            "serve.execute_ms": _per(t["serve.execute"], n),
            "serve.queue_wait_ms_p50": float(np.median(self.queue_wait_s))
            * 1e3 if self.queue_wait_s else 0.0,
            "serve.mean_batch_size": float(np.mean(
                [r.mean_batch_size for r in self.reports])),
            "serve.cache_ms": _per(s["cache"], n),
            "serve.cache_hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "inference.forward_windows_ms": _per(
                t["inference.forward_windows"], n),
            "inference.windows_per_request": misses / n if n else 0.0,
        }

    # -- checks --------------------------------------------------------------

    def check(self) -> list[str]:
        from repro.core.inference import sliding_window_logits

        out = []
        for statuses in self.statuses:
            out += checks.all_served(len(self.stream), statuses)
        window = (self.window, self.window)
        stride = (self.stride, self.stride)
        self.model.train(False)
        reference: dict[int, tuple] = {}
        for i, req in enumerate(self.stream):
            key = id(req.image)
            if key not in reference:
                # predict_tiled's own path: unfrozen model, one window per
                # forward, no cache, no batching.
                logits = sliding_window_logits(self.model, req.image,
                                               window, stride)
                reference[key] = (np.argmax(logits, axis=0), logits)
            ref, logits = reference[key]
            for maps in self.maps:
                out += checks.class_maps_match(ref, logits, maps[i])
        return out


# ---------------------------------------------------------------------------
# Fleet replay
# ---------------------------------------------------------------------------


class FleetReplay(Workload):
    """Diurnal-plus-burst replay through the autoscaled, sharded fleet."""

    name = "fleet_replay"
    tapes = 4                   # distinct tapes per round, from the seed
    requests = 30_000
    duration_s = 187.5
    cells = ("east", "west")

    def setup(self) -> None:
        from repro.serve import FleetConfig, ReplayConfig, replay_workload
        from repro.serve.fleet import AutoscalerConfig

        t0 = _now()
        self.replays = [replay_workload(ReplayConfig(
            num_requests=self.requests, duration_s=self.duration_s,
            cells=self.cells, bursts=((65.0, 30.0, 2.5),),
            snapshot_pool=5000, windows=4, seed=self.seed * self.tapes + j))
            for j in range(self.tapes)]
        self.setup_ms["loadgen.replay_build_ms"] = (_now() - t0) * 1e3
        self.fleet_config = FleetConfig(
            cells=self.cells, initial_replicas=2,
            cache_budget_bytes=2 << 20, sharded=True, spillover=True,
            autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=8))
        self.first: dict[int, tuple] = {}     # tape -> (outcome, server)
        self.failures: list[str] = []

    def targets(self):
        return tracing.fleet_targets()

    def begin_phase(self) -> None:
        self.replay_s: list[float] = []
        self.round_s: list[float] = []

    def warmup(self) -> None:
        self.begin_phase()
        self._replay(0)

    def run_round(self, rec) -> None:
        """One replay of every tape; the tapes differ in their chaotic
        autoscaling and spillover work, so a round averages them."""
        t0 = _now()
        for j in range(self.tapes):
            if rec is not None:
                rec.op_id += 1
            self._replay(j)
        self.round_s.append((_now() - t0) / self.tapes)

    def _replay(self, j: int) -> None:
        from repro.serve.fleet import fleet as fleet_mod
        from repro.telemetry import SimulatedClock

        replay = self.replays[j]
        t0 = _now()
        server = fleet_mod.FleetServer(self.fleet_config,
                                       clock=SimulatedClock())
        result = server.run(replay)
        fleet_mod.summarize_fleet(result, server, replay)
        self.replay_s.append(_now() - t0)
        self.attempted += 1
        self.failures += checks.fleet_accounting(result.status, len(replay))
        outcome = self.outcome(result)
        if j not in self.first:
            self.first[j] = (outcome, server)
        else:
            self.failures += checks.outcomes_identical(self.first[j][0],
                                                       outcome)

    @staticmethod
    def outcome(result) -> dict:
        return {k: getattr(result, k).copy() for k in
                ("status", "completed_s", "replica", "served_cell",
                 "spilled", "shed_reason")}

    def e2e(self) -> dict:
        # Median over rounds of the mean replay time across the tapes.
        return {"latency_ms_p50": _median_ms(self.round_s),
                "throughput_per_s":
                    self.requests * len(self.replay_s) / sum(self.replay_s)}

    def layers(self, rec) -> dict:
        k = self.requests * len(self.replay_s) / 1000.0
        t, s = rec.total_s, rec.self_s
        return {
            "fleet.run_self_ms": _per(s["fleet.run"], k),
            "fleet.hashring_assign_ms": _per(s["fleet.hashring_assign"], k),
            "fleet.hashring_assign_calls":
                rec.calls["fleet.hashring_assign"] / k,
            "fleet.autoscaler_ms": _per(s["fleet.autoscaler"], k),
            "fleet.cache_ms": _per(s["cache"], k),
            "telemetry.streaming_ms": _per(s["telemetry.streaming"], k),
            "telemetry.health_ms": _per(s["telemetry.health"], k),
            "fleet.summarize_ms": _per(t["fleet.summarize"], k),
        }

    # -- checks --------------------------------------------------------------

    def check(self) -> list[str]:
        out = list(self.failures)
        for j, (_, server) in sorted(self.first.items()):
            out += checks.remap_bounded(
                self.remap_events(server, self.replays[j]))
        return out

    @staticmethod
    def remap_events(server, replay) -> list[tuple]:
        """Recompute each scale event's key movement on fresh rings."""
        from repro.serve.fleet import HashRing

        vnodes = server.config.vnodes
        members = {c: sorted(r.replica_id for r in server.replicas.values()
                             if r.cell == c and r.added_s == float("-inf"))
                   for c in replay.cells}
        keys = {c: np.unique(replay.key[replay.cell == i]).tolist()
                for i, c in enumerate(replay.cells)}
        events = []
        for e in server.scale_events:
            before = members[e.cell]
            after = (sorted(before + [e.replica]) if e.kind == "grow"
                     else [r for r in before if r != e.replica])
            ring_a = HashRing(before, vnodes=vnodes, salt=e.cell)
            ring_b = HashRing(after, vnodes=vnodes, salt=e.cell)
            sample = keys[e.cell]
            moved = sum(ring_a.assign(k) != ring_b.assign(k) for k in sample)
            events.append((f"{e.kind} {e.cell} @{e.t:.0f}s",
                           moved / max(len(sample), 1),
                           max(len(before), len(after))))
            members[e.cell] = after
        return events


WORKLOADS = {w.name: w for w in (TrainTiramisu, TrainDeepLabFP16DP,
                                 ServeInfer, FleetReplay)}
