"""Adaptive Gauss-Kronrod quadrature on finite intervals.

The integrand is evaluated on whole batches of nodes at once, so callables
passed in must accept a 1-d numpy array and return an array of the same
shape, or an (m, nodes) array of m components: a vector integrand, whose
components share the node evaluations of one worklist while each is
refined on a panel tree of its own. Narrow features the initial rule cannot
see should be announced via ``breakpoints`` (one row of cut points per
integral in the batch form); the worklist then starts from intervals split
there and refines around them. A panel's sums depend on its 15 values
alone, so an integral's bits do not depend on what shares its worklist.
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
_WG = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])
_ROUNDOFF = 50.0 * np.finfo(float).eps


def gauss_kronrod_panel(fn, lo, hi):
    """Evaluate the 15-point rule on a batch of intervals.

    ``lo`` and ``hi`` are equal-length 1-d arrays of interval ends. ``fn``
    maps the flat array of nodes to one value per node, or to an (m, nodes)
    array of m components. Returns per-interval value and error estimate
    (Kronrod minus Gauss), of shape (len(lo),) or (m, len(lo)). A row's
    sums depend on its 15 values alone, not on the other rows or
    components of the batch nor on the layout ``fn`` returned.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError(f"lo and hi must be equal-length 1-d arrays, got {lo.shape}, {hi.shape}")
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    y = np.ascontiguousarray(fn(nodes.ravel()), dtype=float)
    y = y.reshape(y.shape[:-1] + nodes.shape)
    # Non-finite integrand values propagate into val and are diagnosed by
    # the caller; the inf - inf here is expected, not an anomaly. einsum
    # without ``optimize`` sums each row in its own loop, where a BLAS
    # matrix-vector product rounds a row by its place in the batch.
    with np.errstate(invalid="ignore", over="ignore"):
        val = np.einsum("...j,j->...", y, _WK) * half
        err = np.abs(val - np.einsum("...j,j->...", y[..., 1::2], _WG) * half)
    return val, err


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
    It returns one value per node, or an (m, nodes) array when each
    integral has m components. ``breakpoints``, if given, is a 2-d array
    with one row of cut points per integral; NaN pads a row, and cuts not
    strictly between an integral's ends are ignored. ``max_levels`` must
    not be negative.

    Each component of each integral gets the first worklist and the
    bisection, settling and convergence tests of a lone call, on a panel
    tree of its own: a panel stays in the shared worklist while any
    component still splits it, a component sums only the panels of its own
    tree, in the order a lone call would, and an integral leaves the
    worklist once all of its components have converged. As the panel sum
    of a row depends on that row alone, each integral, and each component
    of it, equals its lone call bit for bit.
    Returns arrays of values and error estimates, of shape (n,) or (m, n);
    to learn m when every integral has zero span, ``fn`` is called once on
    empty arrays. Raises QuadratureError for the first component and
    integral still short of ``abs_tol`` after ``max_levels`` rounds of
    bisection.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"limits must be equal-length 1-d sequences, got {a.shape} and {b.shape}")
    n = a.size
    cuts = np.empty((n, 0)) if breakpoints is None else np.asarray(breakpoints, dtype=float)
    if cuts.ndim != 2 or len(cuts) != n:
        raise ValueError(f"breakpoints must be a 2-d array of one row per integral ({n}), "
                         f"got shape {cuts.shape}")
    if max_levels < 0:
        raise ValueError(f"max_levels must not be negative, got {max_levels!r}")
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
    inside = (cuts > lo[:, None]) & (cuts < hi[:, None])
    edges = np.sort(np.column_stack([lo, np.where(inside, cuts, np.nan), hi]), axis=1)
    first = edges[:, 1:] > edges[:, :-1]
    lo, hi, owner = edges[:, :-1][first], edges[:, 1:][first], np.nonzero(first)[0]
    # The loop's arrays carry one row per component until the call returns,
    # a 1-d integrand's values being the one row of one component. tree[i]
    # marks the intervals of component i's panel tree: the halves of those
    # it split last level, left halves first; its tree over an integral it
    # has finished is empty. The intervals outside it get value and error
    # 0: they settle and add +0.0, which leaves every sum's bits as they are.
    tree = True

    for level in range(max_levels + 1):
        node_owner = owner.repeat(_NODES.size)
        val, err = gauss_kronrod_panel(lambda x: fn(x, node_owner), lo, hi)
        if not level:
            # The first panels tell the m components apart.
            shape = val.shape[:-1] + (n,)
            m = len(val) if val.ndim > 1 else 1
            values, errors, done_val, done_err = np.zeros((4, m, n))
            running = np.tile(span > 0.0, (m, 1))
            if not running.any():
                return values.reshape(shape), errors.reshape(shape)
            base = n * np.arange(m)[:, None]
        val = np.where(tree, val.reshape(m, lo.size), 0.0)
        err = np.where(tree, err.reshape(m, lo.size), 0.0)
        if not np.isfinite(val).all():
            bad = float(lo[np.nonzero(~np.isfinite(val))[1][0]])
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
        # One bincount per quantity sums component i's settled terms of
        # integral k into slot in + k and its terms left to split into
        # mn + in + k, in worklist order. Intervals left to split have
        # positive error, so an integral with nothing left to split has
        # zero open error.
        slot = (owner + base + m * n * split).ravel()
        val_sums = np.bincount(slot, val.ravel(), 2 * m * n).reshape(2, m, n)
        err_sums = np.bincount(slot, err.ravel(), 2 * m * n).reshape(2, m, n)
        done_val += val_sums[0]
        done_err += err_sums[0]
        open_err = err_sums[1]
        live_err = done_err + open_err
        finished = running & ((live_err <= abs_tol) | (open_err == 0.0))
        live_val = done_val + val_sums[1]
        values[finished] = live_val[finished]
        errors[finished] = live_err[finished]
        running &= ~finished
        if not running.any():
            return (sign * values).reshape(shape), errors.reshape(shape)
        split &= running.take(owner, axis=1)
        if level == max_levels:
            i, k = np.argwhere(running)[0]
            where = f" (component {i}, integral {k})" if len(shape) > 1 else ""
            raise QuadratureError(
                f"quadrature did not converge: achieved {live_err[i, k]:.3e} "
                f"> tolerance {abs_tol:.3e} after {max_levels} levels{where}",
                value=float(sign[k] * live_val[i, k]), achieved=float(live_err[i, k]))
        keep = np.logical_or.reduce(split)
        tree, lo, hi, owner = split.compress(keep, axis=1), lo[keep], hi[keep], owner[keep]
        mid = 0.5 * (lo + hi)
        tree = np.concatenate([tree, tree], axis=1)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        owner = np.concatenate([owner, owner])
