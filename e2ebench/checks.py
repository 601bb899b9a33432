"""Output checks, computed apart from the code they check.

Each check returns a list of failure messages (empty means it passed), so
a workload can report every problem at once and the self-test can show
that each check trips on a wrong input.
"""
from __future__ import annotations

import numpy as np

# -- train_tiramisu ------------------------------------------------------------


def directional_derivative(loss_plus: float, loss_minus: float, eps: float,
                           projection: float, rtol: float = 1e-2
                           ) -> list[str]:
    """Central difference (L(θ+εd) - L(θ-εd)) / 2ε against g·d.

    ReLU and max-pool kinks limit the agreement to ~1e-3 at ε = 1e-2, so
    the default tolerance is 1%; a 10% gradient error trips it.
    """
    fd = (loss_plus - loss_minus) / (2.0 * eps)
    err = abs(fd - projection) / max(abs(fd), abs(projection), 1e-12)
    if not np.isfinite(err) or err > rtol:
        return [f"gradient check: finite difference {fd:.6g} vs "
                f"gradient projection {projection:.6g} (rel err {err:.2e})"]
    return []


def losses_fall(losses) -> list[str]:
    """Every loss is finite and the last third averages below the first."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size < 3:
        return [f"loss trend: only {losses.size} losses"]
    if not np.isfinite(losses).all():
        return ["loss trend: non-finite loss"]
    k = losses.size // 3
    head, tail = losses[:k].mean(), losses[-k:].mean()
    if not tail < head:
        return [f"loss trend: first third {head:.4f}, last third {tail:.4f}"]
    return []


def states_identical(expected: dict, actual: dict, what: str) -> list[str]:
    """Bit-identical arrays under the same keys."""
    out = []
    if set(expected) != set(actual):
        out.append(f"{what}: keys differ "
                   f"({sorted(set(expected) ^ set(actual))[:3]})")
    for key in sorted(set(expected) & set(actual)):
        a, b = np.asarray(expected[key]), np.asarray(actual[key])
        if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
            out.append(f"{what}: {key} differs")
    return out


def same_value(expected: float, actual: float, what: str) -> list[str]:
    if not np.float64(expected).tobytes() == np.float64(actual).tobytes():
        return [f"{what}: {expected!r} vs {actual!r}"]
    return []


# -- train_deeplab_fp16_dp -------------------------------------------------------


def gradient_average(per_rank: list[dict], applied: list[dict],
                     rtol: float = 1e-5) -> list[str]:
    """Each replica's applied gradient equals the NumPy mean over ranks.

    ``per_rank`` holds gradients recomputed on copies of the replicas; the
    tolerance covers only the summation order of the all-reduce.
    """
    out = []
    names = sorted(per_rank[0])
    ref = {n: np.mean([g[n].astype(np.float64) for g in per_rank], axis=0)
           for n in names}
    for r, grads in enumerate(applied):
        if sorted(grads) != names:
            out.append(f"gradient average: rank {r} has other tensors")
            continue
        for n in names:
            got = grads[n].astype(np.float64)
            scale = float(np.max(np.abs(ref[n]))) or 1.0
            if got.shape != ref[n].shape:
                out.append(f"gradient average: rank {r} {n} shape")
            elif float(np.max(np.abs(got - ref[n]))) > rtol * scale:
                out.append(f"gradient average: rank {r} {n} off by "
                           f"{float(np.max(np.abs(got - ref[n]))):.3g}")
    return out


def replicas_identical(replica_params: list[dict]) -> list[str]:
    out = []
    ref = replica_params[0]
    for r, params in enumerate(replica_params[1:], start=1):
        out += states_identical(ref, params, f"replica {r} parameters")
    return out


def ring_bytes(reported: list[int], world: int, grad_bytes: int
               ) -> list[str]:
    """A ring all-reduce moves 2(N-1)·B bytes per step."""
    want = 2 * (world - 1) * grad_bytes
    bad = [b for b in reported if b != want]
    if bad or not reported:
        return [f"comm bytes: {bad[:3] or reported} per step, ring needs "
                f"2({world}-1)*{grad_bytes} = {want}"]
    return []


# -- serve_infer -------------------------------------------------------------------


def all_served(offered: int, statuses: list[str]) -> list[str]:
    served = sum(1 for s in statuses if s == "served")
    if len(statuses) != offered or served != offered:
        return [f"serve: offered {offered}, responses {len(statuses)}, "
                f"served {served}"]
    return []


def class_maps_match(reference: np.ndarray, logits: np.ndarray,
                     served: np.ndarray, tie_tol: float = 1e-3
                     ) -> list[str]:
    """Served map equals the reference argmax except at near-tie pixels.

    ``logits`` are the reference (K, H, W) logits; a pixel may differ only
    where its top two logits lie within ``tie_tol`` of each other.
    """
    if served is None or served.shape != reference.shape:
        return ["class map: missing or wrong shape"]
    diff = served != reference
    if not diff.any():
        return []
    top2 = np.sort(logits, axis=0)[-2:]
    gap = top2[1] - top2[0]
    if (gap[diff] > tie_tol).any():
        return [f"class map: {int(diff.sum())} pixels differ, widest "
                f"logit gap {float(gap[diff].max()):.3g}"]
    return []


# -- fleet_replay -----------------------------------------------------------------

STATUS_PENDING, STATUS_SERVED, STATUS_SHED, STATUS_FAILED = 0, 1, 2, 3


def fleet_accounting(status: np.ndarray, tape_len: int) -> list[str]:
    out = []
    counts = np.bincount(status.astype(np.int64), minlength=4)
    served, shed, failed = (int(counts[STATUS_SERVED]),
                            int(counts[STATUS_SHED]),
                            int(counts[STATUS_FAILED]))
    if len(status) != tape_len or served + shed + failed != tape_len:
        out.append(f"fleet: served {served} + shed {shed} + failed "
                   f"{failed} != tape {tape_len}")
    if counts[STATUS_PENDING]:
        out.append(f"fleet: {int(counts[STATUS_PENDING])} admitted "
                   "requests lost")
    if failed:
        out.append(f"fleet: {failed} requests failed")
    return out


def remap_bounded(events: list[tuple], limit: float = 1.5) -> list[str]:
    """Each ``(label, moved_fraction, ring_size)`` moves <= limit/N keys."""
    out = []
    for label, moved, n in events:
        if moved > limit / n:
            out.append(f"remap: {label} moved {moved:.3f} of keys, "
                       f"bound {limit}/{n} = {limit / n:.3f}")
    return out


def outcomes_identical(a: dict, b: dict) -> list[str]:
    out = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b or not np.array_equal(
                a[key], b[key], equal_nan=a[key].dtype.kind == "f"):
            out.append(f"replay determinism: {key} differs")
    return out
