"""Span recorder and the wrappers the traced run installs around public APIs.

Untraced runs import this module but install nothing.  The traced run
calls :meth:`Recorder.install`, which replaces each target (a module-level
function where its caller looks the name up, or a method on its class)
with a timing wrapper, and :meth:`Recorder.uninstall` puts the originals
back.

A span's *self time* is its duration minus the durations of the wrapped
calls nested directly inside it.  Some spans *absorb* their children:
wrapped calls nested inside them run unwrapped, so the whole duration is
charged to the outer span (a transposed convolution is one "upsample"
span even though it runs conv plan methods inside).

Spans stay in memory (up to ``max_spans`` records; totals are always
exact) and are written at the end as a Chrome trace.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0


class Recorder:
    """Collects spans: per-name call counts, inclusive and self time."""

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.op_id = 0              # the step / pass / replay being run
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.events: list[tuple] = []   # (name, start, dur, op_id, depth)
        self.dropped = 0
        self._stack: list[_Frame] = []
        self._absorbing = False     # inside an absorbing span
        self._installed: list[tuple] = []
        self._epoch = _now()

    # -- recording -----------------------------------------------------------

    def span(self, name: str):
        """Context manager recording one span from the benchmark's code."""
        return _SpanContext(self, name)

    def _enter(self, name):
        frame = _Frame(name, _now())
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = _now()
        self._stack.pop()
        self._record(frame.name, frame.start, end - frame.start, frame.child)

    def _record(self, name, start, dur, child):
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1].child += dur
        if len(self.events) < self.max_spans:
            self.events.append((name, start, dur, self.op_id,
                                len(self._stack)))
        else:
            self.dropped += 1

    def _wrap(self, fn, name, absorb, observe):
        rec = self

        if absorb:
            # A leaf: no frame, nested wrapped calls run unwrapped.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if rec._absorbing:
                    return fn(*args, **kwargs)
                rec._absorbing = True
                start = _now()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec._absorbing = False
                    rec._record(name, start, _now() - start, 0.0)
                if observe is not None:
                    observe(args, kwargs, out)
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if rec._absorbing:
                    return fn(*args, **kwargs)
                frame = rec._enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec._exit(frame)
                if observe is not None:
                    observe(args, kwargs, out)
                return out

        return wrapper

    # -- installing wrappers ---------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every ``(dotted_owner, attr, span_name, absorb, observe)``.

        ``dotted_owner`` is ``"pkg.module"`` for a module-level function or
        ``"pkg.module:Class"`` for a method.
        """
        for owner_path, attr, name, absorb, observe in targets:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, absorb, observe))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output ----------------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": "e2ebench"}}]
        for name, start, dur, op_id, depth in self.events:
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (start - self._epoch) * 1e6, "dur": dur * 1e6,
                "pid": 1, "tid": 1, "args": {"op": op_id, "depth": depth}})
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms",
                                    "otherData": {"dropped": self.dropped}}))

    def table(self) -> dict:
        return {name: {"calls": self.calls[name],
                       "total_ms": self.total_s[name] * 1e3,
                       "self_ms": self.self_s[name] * 1e3}
                for name in sorted(self.calls)}


class _SpanContext:
    __slots__ = ("rec", "name", "frame")

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        self.frame = self.rec._enter(self.name)
        return self

    def __exit__(self, *exc):
        self.rec._exit(self.frame)
        return False


def _resolve(path: str):
    module_name, _, cls = path.partition(":")
    obj = importlib.import_module(module_name)
    for part in cls.split(".") if cls else ():
        obj = getattr(obj, part)
    return obj


# ---------------------------------------------------------------------------
# The targets, by layer.  A function imported with ``from x import f`` is
# wrapped in the module that calls it, since that is where the name is
# looked up at call time.
# ---------------------------------------------------------------------------

_PLAN_METHODS = ("im2col", "forward_from_cols", "forward",
                 "backward_weight_from_cols", "backward_weight",
                 "backward_input")
_PLAN_SPAN = {"im2col": "ops.conv_fwd", "forward_from_cols": "ops.conv_fwd",
              "forward": "ops.conv_fwd",
              "backward_weight_from_cols": "ops.conv_wgrad",
              "backward_weight": "ops.conv_wgrad",
              "backward_input": "ops.conv_dgrad"}


def ops_targets():
    """framework.ops: conv plans, BatchNorm, concat, pooling, upsampling,
    casts.  Every op span absorbs, so nested plan calls are not double
    counted."""
    out = []
    for cls in ("ConvPlan", "DepthwiseConvPlan"):
        for meth in _PLAN_METHODS:
            out.append((f"repro.framework.ops.plan:{cls}", meth,
                        _PLAN_SPAN[meth], True, None))
    out += [
        ("repro.framework.layers.norm:BatchNorm2D", "forward",
         "ops.batchnorm_fwd", True, None),
        ("repro.framework.layers.norm", "batchnorm_backward",
         "ops.batchnorm_bwd", True, None),
        ("repro.framework.functional", "concat", "ops.concat", True, None),
    ]
    for fn in ("maxpool2d_forward", "maxpool2d_backward",
               "avgpool2d_forward", "avgpool2d_backward"):
        out.append(("repro.framework.layers.pool", fn, "ops.pool", True, None))
    # Transposed convolutions are the networks' learned upsampling; the
    # three kernels below are called by ConvTranspose2D only.
    for fn in ("conv2d_backward_input", "conv2d_forward",
               "conv2d_backward_weight"):
        out.append(("repro.framework.layers.conv", fn, "ops.upsample",
                    True, None))
    for fn in ("bilinear_upsample_forward", "bilinear_upsample_backward"):
        out.append(("repro.framework.layers.upsample", fn, "ops.upsample",
                    True, None))
    out += [
        ("repro.framework.tensor:Tensor", "astype", "ops.cast", True, None),
        ("repro.framework.parameter:Parameter", "cast_", "ops.cast", True,
         None),
    ]
    return out


def trainer_targets():
    """core.trainer, framework.precision, comm and core.checkpoint."""
    return [
        ("repro.core.trainer:Trainer", "compute_loss", "trainer.forward",
         False, None),
        ("repro.framework.tensor:Tensor", "backward", "trainer.backward",
         False, None),
        ("repro.core.optim.base:Optimizer", "step", "trainer.optimizer",
         False, None),
        ("repro.framework.precision:LossScaler", "step", "precision.unscale",
         False, None),
        ("repro.core.distributed", "allreduce_gradients", "comm.exchange",
         False, None),
        ("repro.core.checkpoint:CheckpointManager", "save", "checkpoint.save",
         False, None),
    ]


def serve_targets(on_execute=None):
    """serve and core.inference (plus the shared TileCache)."""
    return [
        ("repro.serve.server:InferenceServer", "serve", "serve.loop",
         False, None),
        ("repro.serve.replica:ReplicaPool", "execute", "serve.execute",
         False, on_execute),
        ("repro.serve.replica", "forward_windows", "inference.forward_windows",
         False, None),
    ] + cache_targets()


def cache_targets():
    return [("repro.serve.cache:TileCache", meth, "cache", True, None)
            for meth in ("key", "get", "put")]


def fleet_targets():
    """serve.fleet, telemetry and the fleet's report."""
    return [
        ("repro.serve.fleet.fleet:FleetServer", "run", "fleet.run",
         False, None),
        ("repro.serve.fleet.hashring:HashRing", "assign",
         "fleet.hashring_assign", True, None),
        ("repro.serve.fleet.autoscaler:Autoscaler", "observe",
         "fleet.autoscaler", True, None),
        ("repro.serve.fleet.autoscaler:Autoscaler", "decide",
         "fleet.autoscaler", True, None),
        ("repro.telemetry.streaming:StreamingAggregator", "tick",
         "telemetry.streaming", True, None),
        ("repro.telemetry.streaming:StreamingAggregator", "advance",
         "telemetry.streaming", True, None),
        ("repro.telemetry.health:HealthEngine", "evaluate",
         "telemetry.health", True, None),
        ("repro.serve.fleet.fleet", "summarize_fleet", "fleet.summarize",
         False, None),
    ] + cache_targets()
