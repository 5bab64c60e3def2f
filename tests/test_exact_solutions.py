"""Exact entropy solutions at finite times as convergence-order oracles.

Burgers (f = u^2/2, A = 0) from any data, by Lax-Oleinik: with U0 the
primitive of u0, W(x, t) = min over y of [U0(y) + (x - y)^2 / (2t)] and
u = dW/dx, so a cell's exact average is (W(x_{i+1/2}) - W(x_{i-1/2})) / h.
The minimiser lies within |x - y| <= t max|u0|, so each face needs one
bounded 1-d minimisation: a dense scan, then finer scans around its best
point. A scan's error in y enters W squared, so three scans of 801 points
leave W correct far below the scheme's error.

Linear advection (f = u, A = 0) of a square wave: the exact averages at t are
those of the data shifted by t, from the primitive of the square wave. A
monotone scheme converges at order exactly 1/2 on a jump (Kuznetsov's bound
is sharp there; Tang & Teng 1995).

The porous-medium Barenblatt solution (u_t = (u |u|)_xx, m = 2),
u = t^(-1/3) (C - x^2 / (12 t^(2/3)))_+, is exact on the periodic box while
its support, of half-width sqrt(12 C) t^(1/3), stays inside the period
cell; its averages come from its cubic primitive.
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


def _square_wave_primitive(x):
    """The primitive of the square wave sign(sin 2 pi x), zero at x = 0: periodic, as
    the wave has mean zero."""
    x = np.mod(x, 1.0)
    return np.where(x < 0.5, x, 1.0 - x)


def _barenblatt_primitive(x, t, c):
    """The primitive of the Barenblatt profile at time t, zero at x = 0."""
    reach = np.sqrt(12.0 * c) * t ** (1.0 / 3.0)
    x = np.clip(x, -reach, reach)
    return t ** (-1.0 / 3.0) * (c * x - x ** 3 / (36.0 * t ** (2.0 / 3.0)))


def _errors(name, sizes, primitive, t_end):
    """The mean |u_h - exact| per size, of a run on n cells of [0, 1] from the cell
    averages of the solution whose primitive at time t is primitive(x, t), and the
    orders between sizes."""
    err = []
    for n in sizes:
        faces = np.arange(n + 1) / n
        traj = run(preset(name), PeriodicGrid.make([1.0], [n]),
                   np.diff(primitive(faces, 0.0)) * n, SchemeConfig(t_end=t_end))
        exact = np.diff(primitive(faces, t_end)) * n
        err.append(float(np.abs(traj.final.values - exact).mean()))
    return err, np.log2(np.array(err[:-1]) / np.array(err[1:]))


def test_square_wave_advection_converges_at_order_one_half():
    # Measured: 0.2815, 0.1993, 0.1410 at N = 64, 128, 256; orders 0.498, 0.499.
    err, orders = _errors("linear-advection", (64, 128, 256),
                          lambda x, t: _square_wave_primitive(x - t), 0.5)
    assert 0.139 <= err[-1] <= 0.143, err
    assert ((0.48 <= orders) & (orders <= 0.52)).all(), orders


def test_porous_medium_converges_at_second_order_to_the_barenblatt_solution():
    # From t = 0.1 to t = 1 (run time 0.9), centred at x = 1/2. Measured: 5.12e-6,
    # 1.38e-6, 3.26e-7 at N = 64, 128, 256; orders 1.89, 2.08.
    c, t0, t1 = 0.015, 0.1, 1.0
    # The formula is the periodic solution only while the support stays in the cell.
    assert np.sqrt(12.0 * c) * t1 ** (1.0 / 3.0) < 0.45
    err, orders = _errors("porous-medium", (64, 128, 256),
                          lambda x, t: _barenblatt_primitive(x - 0.5, t0 + t, c), t1 - t0)
    assert 3.1e-7 <= err[-1] <= 3.4e-7, err
    assert ((1.8 <= orders) & (orders <= 2.2)).all(), orders
