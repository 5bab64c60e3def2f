"""Exact entropy solutions at finite times as convergence-order oracles.

Burgers (f = u^2/2, A = 0) from any data, by Lax-Oleinik: with U0 the
primitive of u0, W(x, t) = min over y of [U0(y) + (x - y)^2 / (2t)] and
u = dW/dx, so a cell's exact average is (W(x_{i+1/2}) - W(x_{i-1/2})) / h.
The minimiser lies within |x - y| <= t max|u0|, so each face needs one
bounded 1-d minimisation: a dense scan, then finer scans around its best
point. A scan's error in y enters W squared, so three scans of 801 points
leave W correct far below the scheme's error.
"""

import numpy as np
import pytest

from anisolab.model import preset
from anisolab.solver import PeriodicGrid, SchemeConfig, run


def _sin_primitive(y):
    """U0 for u0 = sin 2 pi y: the primitive (1 - cos 2 pi y) / (2 pi), zero at y = 0."""
    return (1.0 - np.cos(2.0 * np.pi * y)) / (2.0 * np.pi)


def lax_oleinik_averages(primitive, reach, n, t, points=801, scans=3):
    """Exact cell averages at time t on n cells of [0, 1] of the Burgers solution whose
    initial data has ``primitive`` U0 and sup norm ``reach``."""
    faces = np.arange(n + 1) / n
    lo, hi = faces - reach * t, faces + reach * t
    for _ in range(scans):
        y = np.linspace(lo, hi, points, axis=1)
        cost = primitive(y) + (faces[:, None] - y) ** 2 / (2.0 * t)
        best = np.argmin(cost, axis=1)
        w = cost[np.arange(n + 1), best]
        step = (hi - lo) / (points - 1)
        centre = y[np.arange(n + 1), best]
        lo, hi = centre - step, centre + step
    return np.diff(w) * n


@pytest.mark.parametrize("t,errors,band", [
    # Before the shock, which forms at t = 1 / (2 pi), and well after it.
    (0.1, (5.5e-3, 5.9e-3), (0.95, 1.01)),
    (0.5, (4.7e-3, 5.1e-3), (0.95, 1.01)),
])
def test_burgers_converges_at_first_order_to_the_lax_oleinik_solution(t, errors, band):
    # The L1 error (the mean |u_h - exact| over cells) halves with h, through the
    # shock too; at N = 256 it stays within its band.
    model, sizes, err = preset("burgers"), (64, 128, 256, 512, 1024), []
    for n in sizes:
        grid = PeriodicGrid.make([1.0], [n])
        traj = run(model, grid, lambda x: np.sin(2.0 * np.pi * x), SchemeConfig(t_end=t))
        exact = lax_oleinik_averages(_sin_primitive, 1.0, n, t)
        err.append(float(np.abs(traj.final.values - exact).mean()))
    orders = np.log2(np.array(err[:-1]) / np.array(err[1:]))
    assert errors[0] <= err[sizes.index(256)] <= errors[1], err
    assert ((band[0] <= orders) & (orders <= band[1])).all(), orders


def test_lax_oleinik_averages_are_the_smooth_solution_before_the_shock():
    # Before the shock u(x, t) = u0(x - t u): fixed-point iteration of the
    # characteristics at each face and centre gives the averages by Simpson's rule,
    # whose error is O(h^4), far below the scheme's error at this N.
    n, t = 256, 0.1
    x = np.arange(2 * n + 1) / (2 * n)
    u = np.sin(2.0 * np.pi * x)
    for _ in range(200):
        u = np.sin(2.0 * np.pi * (x - t * u))
    simpson = (u[0:-1:2] + 4.0 * u[1::2] + u[2::2]) / 6.0
    exact = lax_oleinik_averages(_sin_primitive, 1.0, n, t)
    assert np.abs(exact - simpson).max() < 1e-6
