"""Host speed gauge: a fixed kernel timed between ops, so times can be scaled.

The benchmark's host is a share of a busy machine whose speed drifts and
jumps: the same loop takes 13 ms in one minute and 22 ms in the next, and a
state can last a whole run. The kernel below is benchmark-owned code that
never changes and never calls ``anisolab``: small-array GK-style panel
recursion (Python call overhead, as in the condition check), a 256-cell 1-d
and a 64x64 2-d finite-volume update. It is timed once before the first op
and once after every op. A run's speed factor is ``REFERENCE_S`` over the
median kernel time; the parent multiplies set-up time by it, and op times on
the workloads of ``workloads.SCALED``, so those read as seconds on a host
where the kernel takes ``REFERENCE_S``. A change in the program moves its
ops but not the kernel, so it shows in full.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the 2-core Xeon box the bounds were set on.
REFERENCE_S = 0.020
WARM_UP = 3  # the first calls in a fresh process run slow; they are discarded

_NODES = np.linspace(-1.0, 1.0, 15)
_WEIGHTS = np.full(15, 2.0 / 15)
_CELLS_1D = np.linspace(0.0, 1.0, 256, endpoint=False)
_CELLS_2D = np.add.outer(_CELLS_1D[::4], _CELLS_1D[::4])


def _panel(lo, hi):
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES
    return 0.5 * (hi - lo) * float(np.dot(_WEIGHTS, np.abs(np.sin(3.0 * x)) * x * x))


def _adaptive(lo, hi, tol, depth):
    mid = 0.5 * (lo + hi)
    whole, left, right = _panel(lo, hi), _panel(lo, mid), _panel(mid, hi)
    if depth == 0 or abs(left + right - whole) < tol:
        return left + right
    return _adaptive(lo, mid, 0.5 * tol, depth - 1) + _adaptive(mid, hi, 0.5 * tol, depth - 1)


def _upwind(u, steps, axes):
    total = 0.0
    for _ in range(steps):
        flux = 0.5 * u * u
        for axis in axes:
            u = (u - 0.1 * (flux - np.roll(flux, 1, axis))
                 + 0.05 * (np.roll(u, 1, axis) - 2.0 * u + np.roll(u, -1, axis)))
        total += float(np.max(np.abs(u)))
    return total


def kernel():
    """The fixed work; returns a checksum so nothing is optimised away."""
    total = 0.0
    for k in range(6):
        total += _adaptive(-2.0 - 0.1 * k, 2.0, 1e-9, 5)
    total += _upwind(np.sin(2.0 * np.pi * _CELLS_1D), 120, (0,))
    total += _upwind(np.sin(2.0 * np.pi * _CELLS_2D), 40, (0, 1))
    return total


def sample():
    """Seconds for one kernel call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start

