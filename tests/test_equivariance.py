"""Exact symmetries of the scheme on a periodic grid, checked to the bit.

Translation by whole cells: the stencils read each cell's neighbours through
periodic ghosts and the wave bounds and time step come from the field's range,
so shifting the data shifts every field the scheme makes, step for step. A
2-d field constant in y, under a model without y-flux, has no y-difference
to act on: each of its columns is the 1-d scheme's field. Data constant on
each diagonal i - j stay so under a model whose two axes are alike, as the
shift by (1, 1) maps them to themselves: a wrap or index error at the grid's
edge shows there. These catch index, shift and axis errors that bit-parity
with an earlier tree cannot. Rows and lockstep distances are left out: their
reductions sum the cells in another order.
"""

import numpy as np
import pytest

from anisolab.model import polynomial_model, preset
from anisolab.solver import PeriodicGrid, SchemeConfig, init_field, run, run_lockstep, step

# (preset, cells, shift in cells per axis)
TRANSLATION_CASES = [("burgers-degenerate", (64,), (5,)), ("porous-medium", (64,), (5,)),
                     ("anisotropic-2d", (24, 20), (3, 7))]
STEPS, DT = 20, 1e-4


def _case(name, cells, seed=0):
    grid = PeriodicGrid.make([1.0] * len(cells), list(cells))
    return preset(name), grid, np.random.default_rng(seed).uniform(-0.9, 0.9, cells)


def _shift(values, shift):
    return np.roll(values, shift, axis=tuple(range(-len(shift), 0)))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _steps(model, grid, values, scheme, steps=STEPS, dt=DT):
    fld = init_field(grid, values)
    for _ in range(steps):
        fld = step(fld, model, grid, scheme, dt=dt)
    return fld.values


@pytest.mark.parametrize("integrator", ["euler", "ssp-rk2"])
@pytest.mark.parametrize("name,cells,shift", TRANSLATION_CASES)
def test_translation_commutes_with_step(name, cells, shift, integrator):
    model, grid, u0 = _case(name, cells)
    scheme = SchemeConfig(t_end=1.0, integrator=integrator)
    moved = _steps(model, grid, _shift(u0, shift), scheme)
    assert _same_bits(moved, _shift(_steps(model, grid, u0, scheme), shift))


@pytest.mark.parametrize("name,cells,shift", TRANSLATION_CASES)
def test_translation_commutes_with_runs_fields(name, cells, shift):
    model, grid, u0 = _case(name, cells)
    scheme = SchemeConfig(t_end=6e-3, output_every=1.5e-3, snapshot_every=3e-3)
    base, moved = run(model, grid, u0, scheme), run(model, grid, _shift(u0, shift), scheme)
    assert moved.stats.steps == base.stats.steps >= 10
    assert _same_bits(moved.final.values, _shift(base.final.values, shift))
    assert len(moved.snapshots) == len(base.snapshots) == 3
    for a, b in zip(moved.snapshots, base.snapshots):
        assert a.time == b.time and _same_bits(a.values, _shift(b.values, shift))


@pytest.mark.parametrize("name,cells,shift", TRANSLATION_CASES)
def test_translation_commutes_with_lockstep(name, cells, shift):
    model, grid, u0 = _case(name, cells)
    v0 = _case(name, cells, seed=1)[2]
    scheme = SchemeConfig(t_end=2e-3, output_every=5e-4)
    times, _, a, b = run_lockstep(model, grid, u0, v0, scheme)
    moved_times, _, ma, mb = run_lockstep(model, grid, _shift(u0, shift), _shift(v0, shift),
                                          scheme)
    assert moved_times == times and a.time == ma.time
    assert _same_bits(ma.values, _shift(a.values, shift))
    assert _same_bits(mb.values, _shift(b.values, shift))


@pytest.mark.parametrize("integrator", ["euler", "ssp-rk2"])
def test_a_y_constant_field_is_the_1d_scheme_in_each_column(integrator):
    # f = (u^2/2, 0), A_00 = u^2 on 24 x 8 cells against f = u^2/2, A = u^2 on 24.
    flux, diffusion = (0.0, 0.0, 0.5), {(0, 0): (0.0, 0.0, 1.0)}
    plane = polynomial_model("bd-2d", [flux, (0.0,)], diffusion, 2, 1.0)
    line = polynomial_model("bd-1d", [flux], diffusion, 1, 1.0)
    g1 = np.random.default_rng(2).uniform(-0.9, 0.9, 24)
    scheme = SchemeConfig(t_end=1.0, integrator=integrator)
    got = _steps(plane, PeriodicGrid.make([1.0, 1.0], [24, 8]), np.repeat(g1[:, None], 8, 1),
                 scheme)
    want = _steps(line, PeriodicGrid.make([1.0], [24]), g1, scheme)
    assert not _same_bits(want, g1)
    assert all(_same_bits(got[:, j], want) for j in range(8))


@pytest.mark.parametrize("integrator", ["euler", "ssp-rk2"])
def test_data_constant_on_each_diagonal_stay_so(integrator):
    # f = (u^2/2, u^2/2), A = 0 on 32^2 from G[(i - j) mod 32]: 50 steps of 2e-4.
    n = 32
    model = polynomial_model("diagonal-burgers", [(0.0, 0.0, 0.5)] * 2, {}, 2, 1.0)
    g = np.random.default_rng(3).uniform(-0.9, 0.9, n)
    i = np.arange(n)[:, None]
    u0 = g[(i - i.T) % n]
    got = _steps(model, PeriodicGrid.make([1.0, 1.0], [n, n]), u0,
                 SchemeConfig(t_end=1.0, integrator=integrator), steps=50, dt=2e-4)
    # Column k of by_diagonal holds diagonal k, the cells (i, i - k).
    by_diagonal = got[i, (i - i.T) % n]
    assert np.abs(got - u0).max() > 0.1
    assert (by_diagonal == by_diagonal[:1]).all()
