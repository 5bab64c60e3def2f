"""Adaptive Gauss-Kronrod quadrature on finite intervals.

The integrand is evaluated on whole batches of nodes at once, so callables
passed in must accept a 1-d numpy array and return an array of the same
shape, or an (m, nodes) array of m components: a vector integrand, whose
components share the node evaluations of one worklist while each is
refined on a panel tree of its own. Narrow features the initial rule cannot
see should be announced via ``breakpoints`` (one row of cut points per
integral in the batch form); the worklist then starts from intervals split
there and refines around them.
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

    ``lo`` and ``hi`` are equal-length 1-d arrays of interval ends. ``fn``
    maps the flat array of nodes to one value per node, or to an (m, nodes)
    array of m components. Returns per-interval value and error estimate
    (Kronrod minus Gauss), of shape (len(lo),) or (m, len(lo)).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError(f"lo and hi must be equal-length 1-d arrays, got {lo.shape}, {hi.shape}")
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(fn(nodes.ravel()), dtype=float)
    # A 1-d return is one component's row, a view in the layout fn gave it.
    rows = y.reshape(len(y) if y.ndim > 1 else 1, *nodes.shape)
    val, err = np.empty((2, len(rows), len(half)))
    # Non-finite integrand values propagate into val and are diagnosed by
    # the caller; the inf - inf here is expected, not an anomaly.
    with np.errstate(invalid="ignore", over="ignore"):
        # One 2-d panel sum per row, the call a lone integrand gets: numpy
        # may round a stacked matmul's rows otherwise.
        for c in range(len(rows)):
            _rule(rows[c], half, val[c], err[c])
    shape = y.shape[:-1] + half.shape
    return val.reshape(shape), err.reshape(shape)


def _rule(y, half, val, err):
    """Value and error estimate of node values y, shape (len(half), 15), written to val, err."""
    np.matmul(y, _WK, val)
    np.multiply(val, half, val)
    np.matmul(y[:, _GAUSS_IDX], _WG, err)
    np.multiply(err, half, err)
    np.subtract(val, err, err)
    return val, np.absolute(err, err)


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
    worklist once all of its components have converged. A component's bits
    are those of the same batch with that component alone; an integral's
    need not match a lone call, as the BLAS panel sum ``y @ _WK`` rounds a
    row by its place in the batch.
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
    # The loop's arrays carry one row per running component, a 1-d
    # integrand's values being the one row of one component; comps holds
    # the running components' indices and mc their count. whole[i] says
    # whether running component i's panel tree is the whole worklist; where
    # it is not, live[i] says which intervals split last level are in its
    # tree, the worklist now holding their halves, left halves first. live
    # is None while every tree is the whole worklist. rows picks the
    # integrand rows of the whole trees, which gauss_kronrod_panel sums.
    live, rows = None, slice(None)

    for level in range(max_levels + 1):
        evaluated = []
        node_owner = owner.repeat(_NODES.size)

        def evaluate(x):
            y = np.asarray(fn(x, node_owner), dtype=float)
            # numpy sums a contiguous row's panels with BLAS and a strided
            # one's in its own loop. A 1-d return keeps its own layout, as a
            # view; an (m, nodes) return is made C-contiguous, so each row
            # is summed alike however it is picked.
            evaluated[:] = y.shape, np.ascontiguousarray(y) if y.ndim > 1 else y[None]
            return evaluated[1][rows]

        val, err = gauss_kronrod_panel(evaluate, lo, hi)
        if not level:
            # The first panels tell the m components apart.
            shape = evaluated[0][:-1] + (n,)
            m = mc = len(evaluated[1])
            values, errors, done_val, done_err = np.zeros((4, m, n))
            running = np.tile(span > 0.0, (m, 1))
            remaining = np.count_nonzero(running)
            if not remaining:
                return values.reshape(shape), errors.reshape(shape)
            comps = np.arange(m)
            base = n * comps[:, None]
        if live is not None:
            # BLAS rounds the last len % 4 rows of a panel sum apart from the
            # rest, so a component whose tree is only part of the worklist
            # sums its own intervals alone, for the bits of a lone call. The
            # intervals outside its tree get value and error 0: they settle
            # and add +0.0, which leaves every sum's bits as they are.
            whole_val, whole_err = val, err
            val, err = np.zeros((2, mc, lo.size))
            val[whole], err[whole] = whole_val, whole_err
            y = evaluated[1].reshape(m, -1, _NODES.size)
            half = 0.5 * (hi - lo)
            with np.errstate(invalid="ignore", over="ignore"):
                for i in np.flatnonzero(~whole):
                    tree = np.concatenate([live[i], live[i]])
                    val[i][tree], err[i][tree] = _rule(
                        y[comps[i]].compress(tree, axis=0), half.compress(tree),
                        *np.empty((2, np.count_nonzero(tree))))
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
        # One bincount per quantity sums running component i's settled terms
        # of integral k into slot in + k and its terms left to split into
        # mc n + in + k, in worklist order. Intervals left to split have
        # positive error, so an integral with nothing left to split has
        # zero open error.
        slot = (owner + base[:mc] + mc * n * split).ravel()
        val_sums = np.bincount(slot, val.ravel(), 2 * mc * n).reshape(2, mc, n)
        err_sums = np.bincount(slot, err.ravel(), 2 * mc * n).reshape(2, mc, n)
        done_val += val_sums[0]
        done_err += err_sums[0]
        open_err = err_sums[1]
        live_err = done_err + open_err
        finished = running & ((live_err <= abs_tol) | (open_err == 0.0))
        n_finished = np.count_nonzero(finished)
        live_val = done_val + val_sums[1]
        if n_finished:
            at = np.nonzero(finished)
            at_values = comps[at[0]], at[1]
            values[at_values] = live_val[at]
            errors[at_values] = live_err[at]
            remaining -= n_finished
            if not remaining:
                return (sign * values).reshape(shape), errors.reshape(shape)
            running &= ~finished
            split &= running.take(owner, axis=1)
            still = np.logical_or.reduce(running, axis=1)
            if np.count_nonzero(still) < mc:
                # A component whose integrals have all converged leaves the
                # loop's arrays; the integrand's row for it is dropped.
                comps = comps[still]
                mc = comps.size
                running, split = running[still], split[still]
                done_val, done_err = done_val[still], done_err[still]
                live_val, live_err = live_val[still], live_err[still]
        if level == max_levels:
            i, k = np.argwhere(running)[0]
            where = f" (component {comps[i]}, integral {k})" if len(shape) > 1 else ""
            raise QuadratureError(
                f"quadrature did not converge: achieved {live_err[i, k]:.3e} "
                f"> tolerance {abs_tol:.3e} after {max_levels} levels{where}",
                value=float(sign[k] * live_val[i, k]), achieved=float(live_err[i, k]))
        keep = np.logical_or.reduce(split)
        live = None
        # Each row of split lies within keep, so every tree is the whole
        # worklist exactly when the rows hold mc times keep's count.
        if np.count_nonzero(split) != mc * np.count_nonzero(keep):
            live = split.compress(keep, axis=1)
            whole = live.all(axis=1)
        picked = comps if live is None else comps[whole]
        # Neighbouring rows go to the panel as a view, others as a copy.
        neighbours = picked.size and picked[-1] - picked[0] < picked.size
        rows = slice(picked[0], picked[-1] + 1) if neighbours else picked
        lo, hi, owner = lo[keep], hi[keep], owner[keep]
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        owner = np.concatenate([owner, owner])
