"""Adaptive Gauss-Kronrod quadrature on finite intervals.

The integrand is evaluated on whole batches of nodes at once, so callables
passed in must accept a 1-d numpy array and return an array of the same
shape. Narrow features the initial rule cannot see should be announced via
``breakpoints`` (one row of cut points per integral in the batch form);
the worklist then starts from intervals split there and refines around
them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "QuadratureError",
    "adaptive_quadrature",
    "adaptive_quadrature_batch",
    "gauss_kronrod_panel",
]


class QuadratureError(Exception):
    """Raised when the requested absolute tolerance was not reached.

    Attributes:
        value: best available estimate of the integral.
        achieved: error estimate at the point of failure.
    """

    def __init__(self, message, value=float("nan"), achieved=float("inf")):
        super().__init__(message)
        self.value = value
        self.achieved = achieved


# 15-point Kronrod nodes (positive half, descending) with the embedded
# 7-point Gauss rule sitting on nodes 1, 3, 5, 7.
_XGK_HALF = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
])
_WGK_HALF = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_WG_HALF = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK_HALF[:7], _XGK_HALF[::-1]])
_WK = np.concatenate([_WGK_HALF[:7], _WGK_HALF[::-1]])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])
_ROUNDOFF = 50.0 * np.finfo(float).eps


def gauss_kronrod_panel(fn, lo, hi):
    """Evaluate the 15-point rule on a batch of intervals.

    ``lo`` and ``hi`` are equal-length arrays of interval ends. Returns
    per-interval value and error estimate (Kronrod minus Gauss).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
    # Non-finite integrand values propagate into val and are diagnosed by
    # the caller; the inf - inf here is expected, not an anomaly.
    with np.errstate(invalid="ignore", over="ignore"):
        val = half * (y @ _WK)
        val_g = half * (y[:, _GAUSS_IDX] @ _WG)
        return val, np.abs(val - val_g)


def adaptive_quadrature(fn, a, b, *, abs_tol=1e-10, max_levels=40, breakpoints=()):
    """Integrate ``fn`` over [a, b] to absolute tolerance ``abs_tol``.

    Bisects the worklist of intervals until the summed error estimate
    drops below the tolerance, up to ``max_levels`` rounds of bisection.
    Raises QuadratureError (carrying the achieved residual) if the cap is
    hit first.
    """
    values, _ = adaptive_quadrature_batch(
        lambda x, owner: fn(x), [a], [b], abs_tol=abs_tol,
        max_levels=max_levels, breakpoints=[breakpoints])
    return float(values[0])


def adaptive_quadrature_batch(fn, a, b, *, abs_tol=1e-10, max_levels=40, breakpoints=None):
    """Integrate many integrals over [a[k], b[k]] in one worklist.

    ``a`` and ``b`` are equal-length sequences of finite limits.
    ``fn(x, owner)`` evaluates every integrand on a flat batch of nodes;
    ``owner[i]`` is the index k of the integral node ``x[i]`` belongs to.
    ``breakpoints``, if given, is a 2-d array with one row of cut points
    per integral; NaN pads a row, and cuts not strictly between an
    integral's ends are ignored. Each integral gets the first worklist and
    the bisection, settling and convergence tests of a lone call, and leaves
    the worklist once converged; its bits need not match a lone call, as the
    BLAS panel sum ``y @ _WK`` rounds a row by its place in the batch.
    Returns arrays of values and error estimates. Raises QuadratureError for
    the first integral still short of ``abs_tol`` after ``max_levels``
    rounds of bisection.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"limits must be equal-length 1-d sequences, got {a.shape} and {b.shape}")
    n = a.size
    bad = ~(np.isfinite(a) & np.isfinite(b))
    if bad.any():
        k = int(np.argmax(bad))
        raise QuadratureError(
            f"integration limits must be finite, got [{float(a[k])!r}, {float(b[k])!r}]",
            value=float("nan"), achieved=float("inf"))
    swap = b < a
    sign, lo, hi = np.where(swap, -1.0, 1.0), np.where(swap, b, a), np.where(swap, a, b)
    span = hi - lo
    # Each row [lo, cuts strictly inside, hi] sorted, NaN last; its strictly
    # increasing neighbour pairs are the integral's first intervals.
    cuts = np.empty((n, 0)) if breakpoints is None else np.asarray(breakpoints, dtype=float)
    inside = (cuts > lo[:, None]) & (cuts < hi[:, None])
    edges = np.sort(np.column_stack([lo, np.where(inside, cuts, np.nan), hi]), axis=1)
    first = edges[:, 1:] > edges[:, :-1]
    lo, hi, owner = edges[:, :-1][first], edges[:, 1:][first], np.nonzero(first)[0]
    values, errors, done_val, done_err = np.zeros((4, n))
    running = span > 0.0
    remaining = np.count_nonzero(running)
    if not remaining:
        return values, errors

    for level in range(max_levels + 1):
        node_owner = owner.repeat(_NODES.size)
        val, err = gauss_kronrod_panel(lambda x: fn(x, node_owner), lo, hi)
        if not np.isfinite(val).all():
            bad = float(lo[~np.isfinite(val)][0])
            raise QuadratureError(
                f"integrand returned non-finite values near x={bad!r}",
                value=float("nan"), achieved=float("inf"))
        # Retire intervals that are individually negligible, stuck at the
        # roundoff floor of their own value, or unsplittable. Without the
        # floor, an integrable singularity keeps every nearby panel alive
        # and the worklist doubles each level.
        width = hi - lo
        own_span = span[owner]
        settled = (
            (err <= abs_tol * 1e-3 * width / own_span)
            | (err <= _ROUNDOFF * np.abs(val))
            | (width <= own_span * 2.0 ** -50)
        )
        split = ~settled
        # One bincount per quantity sums each integral's settled terms into
        # slots [0, n) and its terms left to split into [n, 2n), in
        # worklist order. Intervals left to split have positive error, so
        # an integral with nothing left to split has zero open error.
        slot = owner + n * split
        val_sums = np.bincount(slot, val, 2 * n)
        err_sums = np.bincount(slot, err, 2 * n)
        done_val += val_sums[:n]
        done_err += err_sums[:n]
        open_err = err_sums[n:]
        live_err = done_err + open_err
        finished = running & ((live_err <= abs_tol) | (open_err == 0.0))
        n_finished = np.count_nonzero(finished)
        live_val = done_val + val_sums[n:]
        if n_finished:
            values[finished] = live_val[finished]
            errors[finished] = live_err[finished]
            remaining -= n_finished
            if not remaining:
                return sign * values, errors
            running &= ~finished
            split &= running[owner]
        if level == max_levels:
            k = np.flatnonzero(running)[0]
            raise QuadratureError(
                f"quadrature did not converge: achieved {live_err[k]:.3e} "
                f"> tolerance {abs_tol:.3e} after {max_levels} levels",
                value=float(sign[k] * live_val[k]), achieved=float(live_err[k]))
        lo, hi, owner = lo[split], hi[split], owner[split]
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        owner = np.concatenate([owner, owner])
    raise AssertionError("unreachable")
