"""Tests for the finite-volume scheme and time integration."""

import gc
import math
import re
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisolab.diagnostics import audit, l1_to_constant, l2_energy, mean, parabolic_dissipation
from anisolab import solver as solver_mod
from anisolab.model import (
    ModelError, ModelSpec, model_table, polynomial_model, preset, validate_model)
from anisolab.solver import (
    BlowUpError,
    CellField,
    ConfigurationError,
    PeriodicGrid,
    SchemeConfig,
    diffusion_div,
    hyperbolic_div,
    init_field,
    run,
    run_lockstep,
    stable_dt,
    step,
)
from anisolab.solver import _Stencils

HEAT = polynomial_model("heat", [(0.0,)], {(0, 0): (1.0,)}, 1, 1.0)


def sin_profile(x):
    return np.sin(2.0 * np.pi * x)


# --- grid and fields ---------------------------------------------------------

def test_grid_construction_and_geometry():
    g = PeriodicGrid.make([1.0], [64])
    assert g.dimension == 1
    assert g.spacings == pytest.approx([1.0 / 64])
    assert g.cell_volume == pytest.approx(1.0 / 64)
    assert g.total_measure == pytest.approx(1.0)
    centers = g.centers(0)
    assert centers[0] == pytest.approx(0.5 / 64)
    assert centers.shape == (64,)

    g2 = PeriodicGrid.make([1.0, 2.0], [8, 16])
    assert g2.dimension == 2
    assert g2.cell_volume == pytest.approx((1.0 / 8) * (2.0 / 16))
    assert g2.total_measure == pytest.approx(2.0)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        PeriodicGrid.make([1.0], [2])  # too few cells
    with pytest.raises(ConfigurationError):
        PeriodicGrid.make([1.0, 1.0], [8])  # length mismatch
    with pytest.raises(ConfigurationError):
        PeriodicGrid.make([-1.0], [8])  # nonpositive period
    with pytest.raises(ConfigurationError):
        PeriodicGrid.make([1.0, 1.0, 1.0], [8, 8, 8])  # dimension > 2


def test_grid_rejects_fractional_cell_counts():
    # 10.5 cells would make h = 1/10.5 and a box longer than its period;
    # make used to truncate 10.7 to 10.
    for build in (lambda: PeriodicGrid(1, (1.0,), (10.5,)),
                  lambda: PeriodicGrid.make([1.0], [10.7]),
                  lambda: PeriodicGrid.make([1.0, 1.0], [8, np.inf])):
        with pytest.raises(ConfigurationError, match="cells must be integers"):
            build()
    for cells in ((10,), (np.int64(10),), (10.0,)):
        for grid in (PeriodicGrid(1, (1.0,), cells), PeriodicGrid.make([1.0], list(cells))):
            assert grid.cells == (10,) and type(grid.cells[0]) is int
            assert grid.spacings == (0.1,)
    assert PeriodicGrid.make([1.0, 2.0], np.array([8, 16])).cells == (8, 16)


def test_init_field_constant_and_mean():
    g = PeriodicGrid.make([1.0], [128])
    const = init_field(g, lambda x: np.full_like(x, 0.7))
    assert np.allclose(const.values, 0.7, atol=1e-15)
    sine = init_field(g, sin_profile)
    assert abs(sine.values.mean()) < 1e-14


def test_init_field_cell_average_second_order():
    # Cell averages differ from center values at O(h^2); the deviation
    # must shrink by 4x per refinement.
    devs = []
    for n in (64, 128):
        g = PeriodicGrid.make([1.0], [n])
        fld = init_field(g, sin_profile)
        devs.append(np.abs(fld.values - sin_profile(g.centers(0))).max())
    assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.05)


def test_init_field_accepts_matching_array():
    g = PeriodicGrid.make([1.0], [16])
    raw = np.linspace(-1.0, 1.0, 16)
    fld = init_field(g, raw)
    assert np.array_equal(fld.values, raw)
    with pytest.raises(ConfigurationError):
        init_field(g, np.zeros(17))


def test_init_field_2d_separable_product():
    g = PeriodicGrid.make([1.0, 1.0], [32, 32])
    fld = init_field(g, lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    assert fld.values.shape == (32, 32)
    assert abs(fld.values.mean()) < 1e-14
    assert fld.values.max() == pytest.approx(0.987, abs=5e-3)


@pytest.mark.parametrize("one,full", [
    (lambda x, y: np.sin(2 * np.pi * x), lambda x, y: np.sin(2 * np.pi * x) + 0 * y),
    (lambda x, y: np.cos(2 * np.pi * y), lambda x, y: np.cos(2 * np.pi * y) + 0 * x),
], ids=["x-only", "y-only"])
def test_init_field_broadcasts_a_profile_of_one_coordinate(one, full):
    # The values are broadcast to the (n_0, n_1, 3, 3) quadrature shape, so a
    # profile of one coordinate fills the grid with the bits of the full one.
    g = PeriodicGrid.make([1.0, 1.0], [4, 6])
    fld = init_field(g, one)
    assert fld.values.shape == (4, 6)
    assert fld.values.tobytes() == init_field(g, full).values.tobytes()


@pytest.mark.parametrize("cells", [(8,), (4, 6)])
def test_init_field_broadcasts_a_scalar_constant(cells):
    g = PeriodicGrid.make([1.0] * len(cells), list(cells))
    const = init_field(g, lambda *xs: 0.5)
    full = init_field(g, lambda *xs: 0.5 + sum(0 * x for x in xs))
    assert const.values.shape == cells
    assert const.values.tobytes() == full.values.tobytes()


def test_run_of_a_one_coordinate_profile_keeps_the_grid_shape():
    g = PeriodicGrid.make([1.0, 1.0], [4, 6])
    scheme = SchemeConfig(t_end=0.01)
    traj = run(preset("anisotropic-2d"), g, lambda x, y: np.sin(2 * np.pi * x), scheme)
    want = run(preset("anisotropic-2d"), g, lambda x, y: np.sin(2 * np.pi * x) + 0 * y, scheme)
    assert traj.final.values.shape == (4, 6)
    assert traj.final.values.tobytes() == want.final.values.tobytes()


@pytest.mark.parametrize("cells,profile,got,shape", [
    ((8,), lambda x: x[:, :2], "(8, 2)", "(8, 3)"),
    ((4, 6), lambda x, y: (x + y)[..., :2], "(4, 6, 3, 2)", "(4, 6, 3, 3)"),
])
def test_init_field_rejects_values_that_do_not_broadcast(cells, profile, got, shape):
    g = PeriodicGrid.make([1.0] * len(cells), list(cells))
    with pytest.raises(ConfigurationError, match=re.escape(
            f"profile values of shape {got} do not broadcast to the quadrature shape {shape}")):
        init_field(g, profile)


# --- spatial operators -------------------------------------------------------

def test_llf_flux_values():
    # Burgers on (1, 1, 0, 0), so alpha = 1: the faces
    # 0.5 (f(u_i) + f(u_i+1)) - 0.5 alpha (u_i+1 - u_i) are 0.5, 0.75, 0.0
    # and, across the wrap, -0.25.
    g = PeriodicGrid.make([1.0], [4])
    got = hyperbolic_div(preset("burgers"), CellField(np.array([1.0, 1.0, 0.0, 0.0]), 0.0), g)
    face = np.array([0.5, 0.75, 0.0, -0.25])
    assert got == pytest.approx((face - np.roll(face, 1)) / 0.25, abs=1e-15)


def test_hyperbolic_div_constant_is_zero():
    g = PeriodicGrid.make([1.0], [32])
    fld = CellField(np.full(32, 0.4), 0.0)
    assert np.all(hyperbolic_div(preset("burgers"), fld, g) == 0.0)


def test_hyperbolic_div_conserves_mass():
    g = PeriodicGrid.make([1.0], [64])
    vals = np.zeros(64)
    vals[10] = 1.0
    div = hyperbolic_div(preset("linear-advection"), CellField(vals, 0.0), g)
    assert abs(div.sum() * g.cell_volume) < 1e-15


def test_hyperbolic_div_first_order_accurate():
    m = preset("burgers")
    errs = []
    for n in (256, 512):
        g = PeriodicGrid.make([1.0], [n])
        x = g.centers(0)
        u = np.sin(2 * np.pi * x)
        div = hyperbolic_div(m, CellField(u, 0.0), g)
        exact = u * (2 * np.pi) * np.cos(2 * np.pi * x)
        errs.append(np.abs(div - exact).max())
    assert errs[0] < 0.1
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.3)


def test_diffusion_div_constant_is_zero():
    g = PeriodicGrid.make([1.0], [32])
    fld = CellField(np.full(32, -0.3), 0.0)
    assert np.all(diffusion_div(preset("porous-medium"), fld, g) == 0.0)


def test_diffusion_div_heat_second_order():
    errs = []
    for n in (64, 128):
        g = PeriodicGrid.make([1.0], [n])
        x = g.centers(0)
        u = np.sin(2 * np.pi * x)
        div = diffusion_div(HEAT, CellField(u, 0.0), g)
        errs.append(np.abs(div + (2 * np.pi) ** 2 * u).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_diffusion_div_porous_matches_manual_stencil():
    # For u >= 0, B(u) = u|u| = u^2; the operator must agree with a direct
    # second difference of u^2 to rounding.
    g = PeriodicGrid.make([1.0], [64])
    x = g.centers(0)
    u = 0.5 + 0.4 * np.sin(2 * np.pi * x)
    div = diffusion_div(preset("porous-medium"), CellField(u, 0.0), g)
    b = u * np.abs(u)
    h = g.spacings[0]
    manual = (np.roll(b, -1) - 2 * b + np.roll(b, 1)) / h**2
    assert np.abs(div - manual).max() < 1e-10


def test_diffusion_div_mixed_term_second_order():
    # Constant SPD matrix with coupling: div(A grad u) picks up a cross
    # derivative that only the corner stencil can produce.
    m = polynomial_model(
        "coupled",
        [(0.0,), (0.0,)],
        {(0, 0): (2.0,), (0, 1): (1.0,), (1, 1): (2.0,)},
        2,
        1.0,
    )
    errs = []
    for n in (32, 64):
        g = PeriodicGrid.make([1.0, 1.0], [n, n])
        xx, yy = np.meshgrid(g.centers(0), g.centers(1), indexing="ij")
        u = np.sin(2 * np.pi * xx) * np.sin(2 * np.pi * yy)
        div = diffusion_div(m, CellField(u, 0.0), g)
        w = 2 * np.pi
        exact = (
            -2.0 * w**2 * u
            - 2.0 * w**2 * u
            + 2.0 * 1.0 * w**2 * np.cos(w * xx) * np.cos(w * yy)
        )
        errs.append(np.abs(div - exact).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


# The slice kernels must equal these whole-array np.roll forms of the
# stencils bit for bit.

def roll_hyperbolic(values, model, grid, alphas):
    f = model.flux(values)
    d = grid.dimension
    out = np.zeros_like(values)
    for k in range(d):
        fa = f[..., k]
        up = np.roll(values, -1, axis=k - d)
        interface = 0.5 * (fa + np.roll(fa, -1, axis=k - d)) - 0.5 * alphas[k] * (up - values)
        out += (interface - np.roll(interface, 1, axis=k - d)) / grid.spacings[k]
    return out


def roll_diffusion(values, grid, tables):
    d = grid.dimension
    out = np.zeros_like(values)
    hs = grid.spacings
    for i in range(d):
        if tables.b.get((i, i)) is not None:
            bb = tables.b.get((i, i))(values)
            out += (np.roll(bb, -1, axis=i - d) - 2.0 * bb + np.roll(bb, 1, axis=i - d)) / hs[i] ** 2
    if d == 2 and tables.b.get((0, 1)) is not None:
        bb = tables.b.get((0, 1))(values)
        pp = np.roll(np.roll(bb, -1, axis=-2), -1, axis=-1)
        pm = np.roll(np.roll(bb, -1, axis=-2), 1, axis=-1)
        mp = np.roll(np.roll(bb, 1, axis=-2), -1, axis=-1)
        mm = np.roll(np.roll(bb, 1, axis=-2), 1, axis=-1)
        out += 2.0 * (pp - pm - mp + mm) / (4.0 * hs[0] * hs[1])
    return out


def roll_dissipation(values, grid, tables):
    d = grid.dimension
    total = 0.0
    for k in range(d):
        acc = None
        for i in range(d):
            if tables.beta.get((i, k)) is None:
                continue
            bb = tables.beta.get((i, k))(values)
            grad = (np.roll(bb, -1, axis=i - d) - np.roll(bb, 1, axis=i - d)) / (2.0 * grid.spacings[i])
            acc = grad if acc is None else acc + grad
        if acc is not None:
            total += float(np.vdot(acc, acc).real)
    return total * grid.cell_volume


COUPLED_2D = polynomial_model(
    "coupled-cubic", [(0.0, 0.5, 0.2), (0.0, -0.4, 0.0, 0.3)],
    {(0, 0): (0.4, 0.0, 0.3), (0, 1): (0.05, 0.0, 0.02), (1, 1): (0.3, 0.1)}, 2, 1.0)

def _whole_burgers_degenerate():
    """burgers-degenerate as a hand-built ModelSpec: every callable whole, sliced per entry."""
    bd = preset("burgers-degenerate")
    return ModelSpec(dimension=1, state_bound=1.0, name="whole-burgers-degenerate",
                     **{name: lambda u, fn=getattr(bd, name): fn(u) for name in (
                         "flux", "speed", "diffusion", "sqrt_factor", "b_primitive",
                         "beta_primitive")})


INTERIOR_1D = polynomial_model(
    "interior", [(0.0, 1.0, 0.0, -1.0)], {(0, 0): (0.05, 0.0, 0.1)}, 1, 1.0)
# Without the analytic B primitive every entry is a spline table.
STENCIL_MODELS = {
    "coupled-cubic": COUPLED_2D,
    "coupled-spline": replace(COUPLED_2D, b_primitive=None, name="coupled-spline"),
    "interior-spline": replace(INTERIOR_1D, b_primitive=None, name="interior-spline"),
    "whole-burgers-degenerate": _whole_burgers_degenerate(),
    # No flux entry but a speed: the stage's flux part is not skipped.
    "viscous-only": ModelSpec(dimension=1, state_bound=1.0, name="viscous-only",
                              flux=lambda u: np.zeros(np.shape(u) + (1,)),
                              speed=lambda u: np.asarray(u, dtype=float)[..., None],
                              diffusion=lambda u: np.full(np.shape(u) + (1, 1), 0.1)),
}

# The kernels read frames, the field padded by a ghost cell at each end of
# every axis; the rows from burgers-degenerate at 4 cells on cover them where
# the ghosts are a large share of the frame, with spline and whole-callable
# entries evaluated on it.
STENCIL_CASES = [
    ("burgers-degenerate", (1.0,), (), (32,)),
    ("porous-medium", (2.5,), (2,), (20,)),
    ("anisotropic-2d", (1.0, 1.0), (), (12, 16)),
    ("anisotropic-2d", (1.0, 2.0), (2,), (12, 16)),
    ("coupled-cubic", (1.0, 1.0), (), (10, 14)),
    ("coupled-cubic", (1.0, 3.0), (2,), (10, 14)),
    ("coupled-spline", (1.0, 1.0), (2,), (10, 14)),
    ("burgers-degenerate", (1.0,), (), (4,)),
    ("burgers-degenerate", (1.0,), (2,), (4,)),
    ("interior-spline", (1.0,), (), (9,)),
    ("interior-spline", (2.5,), (2,), (5,)),
    ("whole-burgers-degenerate", (1.0,), (), (4,)),
    ("whole-burgers-degenerate", (1.5,), (2,), (11,)),
    # On 4 and 5 cells the ghosts, corners included, are most of the 2-d frame.
    ("coupled-cubic", (1.0, 3.0), (2,), (4, 5)),
    ("coupled-cubic", (2.0, 0.5), (2,), (5, 4)),
    # h, h^2, 2h and 4 h_0 h_1 are powers of two: every scaling is a multiply.
    ("coupled-cubic", (1.0, 2.0), (), (8, 16)),
    ("viscous-only", (1.0,), (), (16,)),
]


@pytest.mark.parametrize("name,periods,batch,cells", STENCIL_CASES)
def test_slice_kernels_equal_roll_reference_bit_for_bit(name, periods, batch, cells):
    m = STENCIL_MODELS[name] if name in STENCIL_MODELS else preset(name)
    g = PeriodicGrid.make(list(periods), list(cells))
    rng = np.random.default_rng(7)
    values = rng.uniform(-0.9, 0.9, batch + cells)
    tables = model_table(m)
    stencils = _Stencils(m, g, values.shape)

    def check(v):
        alphas, _ = tables.bounds(float(v.min()), float(v.max()))
        # A stage (one load, one entry program for B and f) fills both parts;
        # without flux entries and alphas it skips the flux part, zero here.
        diff, hyp = np.empty_like(v), np.zeros_like(v)
        assert stencils.tendency(v, alphas, diff, hyp) is (hyp if tables.f or any(alphas)
                                                          else None)
        assert hyp.tobytes() == roll_hyperbolic(v, m, g, alphas).tobytes()
        assert diff.tobytes() == roll_diffusion(v, g, tables).tobytes()
        assert stencils.dissipation(v) == roll_dissipation(v, g, tables)
        return alphas

    # The second call reuses the work arrays and buffers; a second field,
    # then the first one changed in place (twice, the second time straight
    # after a call on it), must not read stale entries.
    check(values)
    check(values)
    check(rng.uniform(-0.9, 0.9, values.shape))
    for lo in (-0.6, -0.8):
        values[...] = rng.uniform(lo, 0.8, values.shape)
        alphas = check(values)
    if not batch:
        fld = CellField(values, 0.0)
        assert hyperbolic_div(m, fld, g).tobytes() == roll_hyperbolic(values, m, g, alphas).tobytes()
        assert diffusion_div(m, fld, g).tobytes() == roll_diffusion(values, g, tables).tobytes()


@pytest.mark.parametrize("batch", [(), (2,)])
@pytest.mark.parametrize("name,cells", [("burgers-degenerate", (16,)), ("anisotropic-2d", (6, 5)),
                                        ("coupled-cubic", (5, 4))])
def test_every_term_is_one_step_on_flat_ranges(name, cells, batch, monkeypatch):
    # One layout in 1-d and 2-d: every term of _TERMS and row of _MIXED binds
    # one ufunc step, and each of its operands is a contiguous range of the
    # flat last axis of a stencil-owned array (batch axes passing through).
    bound, ran = [], []

    def recording(ufunc, plan, x, y, out):
        bound.append((plan, real(ufunc, plan, x, y, out)))
        return bound[-1][1]

    def recording_run(program):
        ran.extend(program)
        real_run(program)

    real, real_run = solver_mod._term, solver_mod._run
    monkeypatch.setattr(solver_mod, "_term", recording)
    monkeypatch.setattr(solver_mod, "_run", recording_run)
    m = STENCIL_MODELS.get(name) or preset(name)
    g = PeriodicGrid.make([1.0] * len(cells), list(cells))
    values = np.random.default_rng(5).uniform(-0.9, 0.9, batch + cells)
    stencils = _Stencils(m, g, values.shape)
    alphas, _ = stencils.bounds(float(values.min()), float(values.max()))
    stencils.tendency(values, alphas, np.empty_like(values), np.empty_like(values))
    stencils.dissipation(values)

    d, b = len(cells), stencils.b_entries
    mixed = (0, 1) in b
    assert len(bound) == (3 * d + 2 * sum((i, i) in b for i in range(d)) + 3 * mixed
                          + len(model_table(m).beta))
    used = {term for plans in stencils.plans for term, plan in plans.items()
            if any(plan is p for p, _ in bound)}
    assert used == set(solver_mod._TERMS)
    assert sum(any(row is p for p, _ in bound) for row in stencils.mixed) == 3 * mixed
    for _, (fn, args) in bound:
        assert fn in (np.add, np.subtract) and len(args) == 3
        for arr in args:
            root = arr if arr.base is None else arr.base
            assert root.base is None and root.ndim == len(batch) + 1
            assert arr.shape == batch + args[2].shape[-1:] and arr.strides == root.strides
    # Every bound step's output (terms, entry steps, scalings) starts on a
    # 64-byte line, in every batch row.
    assert len(ran) > len(bound)
    for fn, args in ran:
        out = fn.__self__ if isinstance(getattr(fn, "__self__", None), np.ndarray) else args[-1]
        assert all(out[row].ctypes.data % 64 == 0 for row in np.ndindex(batch)), (fn, args)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_subnormal=True), min_size=1, max_size=8),
       st.integers(-1074, 1022), st.sampled_from([1.0, 1.5, 1.1]))
def test_power_of_two_scaling_multiplies_with_the_bits_of_the_division(xs, k, m):
    # x / 2^k and x * 2^-k round the same real number, subnormal and huge x
    # included; any other divisor, or one whose reciprocal overflows, divides.
    c, xs = m * 2.0 ** k, xs + [5e-324, -2.2e-308, 1.7e308, -math.inf]
    x = np.array(xs)
    fn, args = solver_mod._scale(x, c)
    assert (fn is np.multiply) == (m == 1.0 and k > -1024)
    with np.errstate(over="ignore", under="ignore"):
        fn(*args)
        assert x.tobytes() == np.divide(xs, c).tobytes()


def test_a_stage_evaluates_each_distinct_entry_once(monkeypatch):
    # anisotropic-2d's f_1 and B_00 are one object, u^3/3: one Euler step
    # (one stage) divides by its 3 once.
    ran = []

    def recording_run(program):
        ran.extend(program)
        real_run(program)

    real_run = solver_mod._run
    monkeypatch.setattr(solver_mod, "_run", recording_run)
    m = preset("anisotropic-2d")
    assert model_table(m).f[(1,)] is model_table(m).b[(0, 0)]
    g = PeriodicGrid.make([1.0, 1.0], [8, 8])
    fld = CellField(np.random.default_rng(2).uniform(-0.9, 0.9, (8, 8)))
    step(fld, m, g, SchemeConfig(t_end=1.0, integrator="euler"))
    assert sum(fn is np.divide and args[1] == 3.0 for fn, args in ran
               if isinstance(args[1], float)) == 1


def test_a_runs_stencils_are_freed_by_reference_counting(monkeypatch):
    # Nothing the stencils hold refers back to them, so run, run_lockstep
    # and step free them with their last reference, with gc disabled.
    made = []

    class Recording(_Stencils):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(solver_mod, "_Stencils", Recording)
    m, g = preset("anisotropic-2d"), PeriodicGrid.make([1.0, 1.0], [8, 8])
    fld = CellField(np.random.default_rng(4).uniform(-0.9, 0.9, (8, 8)))
    scheme = SchemeConfig(t_end=0.01, output_every=0.005)
    gc.collect()
    gc.disable()
    try:
        run(m, g, fld, scheme)
        run_lockstep(m, g, fld, fld, scheme)
        step(fld, m, g, scheme)
        alive = [ref() is not None for ref in made]
    finally:
        gc.enable()
    assert alive == [False] * 3


def _arrays(obj):
    """Every ndarray held by obj, through lists, tuples, dicts and partials."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _arrays(x)
    elif isinstance(obj, dict):
        yield from _arrays(list(obj.values()))
    elif isinstance(obj, partial):
        yield from _arrays([*obj.args, *obj.keywords.values()])


@pytest.mark.parametrize("name,cells", [("burgers-degenerate", (16,)), ("porous-medium", (9,)),
                                        ("anisotropic-2d", (6, 5)), ("coupled-cubic", (5, 4))])
def test_returned_arrays_share_no_memory_with_stencil_buffers(name, cells, monkeypatch):
    # The stencils own the stage field, the entry buffers and the work
    # arrays; nothing step, run, run_lockstep or a one-shot operator
    # returns may alias them.
    made = []

    class Recording(_Stencils):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(solver_mod, "_Stencils", Recording)
    m = STENCIL_MODELS.get(name) or preset(name)
    g = PeriodicGrid.make([1.0] * len(cells), list(cells))
    fld = CellField(np.random.default_rng(3).uniform(-0.9, 0.9, cells), 0.0)
    scheme = SchemeConfig(t_end=0.01, output_every=0.005)
    returned = [step(fld, m, g, scheme).values, run(m, g, fld, scheme).final.values,
                *(f.values for f in run_lockstep(m, g, fld, fld, scheme)[2:]),
                hyperbolic_div(m, fld, g), diffusion_div(m, fld, g)]
    assert len(made) == 5
    buffers = [a for s in made for a in _arrays(vars(s))]
    assert len(buffers) > 5 * len(made)
    for out in returned:
        assert not any(np.shares_memory(out, b) for b in buffers)


def test_flux_free_hyperbolic_div_is_zero_on_a_non_finite_field():
    # Without flux entries and alphas the stage skips the flux part, so inf
    # and NaN cells give zeros, not NaN from inf * 0.
    g = PeriodicGrid.make([1.0], [8])
    values = np.array([np.inf, -np.inf, np.nan, 0.5, 0.0, 0.0, 0.0, 0.0])
    with np.errstate(invalid="ignore"):
        got = hyperbolic_div(preset("porous-medium"), CellField(values, 0.0), g)
    assert got.tobytes() == np.zeros(8).tobytes()


def test_flux_stencil_and_step_size_need_no_psd_diffusion():
    # No stencil except the dissipation reads sigma or beta, and B needs no
    # PSD A; a model whose A is not PSD (validate_model flags it) still has a
    # flux divergence and a stable step.
    m = polynomial_model("negative", [(0.0, 0.0, 0.5)], {(0, 0): (-1.0,)}, 1, 1.0)
    g = PeriodicGrid.make([1.0], [16])
    fld = init_field(g, sin_profile)
    want = hyperbolic_div(preset("burgers"), fld, g)
    assert hyperbolic_div(m, fld, g).tobytes() == want.tobytes()
    assert stable_dt(m, fld, g) > 0.0

    def unread(u):
        raise AssertionError("sigma or beta was read")

    bd = preset("burgers-degenerate")
    m = replace(bd, sqrt_factor=unread, beta_primitive=unread)
    for op in (hyperbolic_div, diffusion_div):
        assert op(m, fld, g).tobytes() == op(bd, fld, g).tobytes()
    cfg = SchemeConfig(t_end=1.0)
    assert step(fld, m, g, cfg).values.tobytes() == step(fld, bd, g, cfg).values.tobytes()


def test_one_entry_program_serves_every_stencil_but_the_dissipation(monkeypatch):
    # One _entries call over B and f gives the program that tendency loads,
    # for a stage and for each one-shot; the dissipation makes the other call.
    calls, loaded = [], []
    real_entries, real_load = _Stencils._entries, _Stencils.load

    def entries(self, table, axes=()):
        calls.append((list(table), list(axes)))
        return real_entries(self, table, axes)

    def load(self, values, program=()):
        loaded.append(program)
        return real_load(self, values, program)

    monkeypatch.setattr(_Stencils, "_entries", entries)
    monkeypatch.setattr(_Stencils, "load", load)
    m, g = preset("anisotropic-2d"), PeriodicGrid.make([1.0, 1.0], [6, 5])
    values = np.random.default_rng(8).uniform(-0.9, 0.9, (6, 5))
    stencils = _Stencils(m, g, values.shape)
    alphas, _ = stencils.bounds(float(values.min()), float(values.max()))
    for _ in range(2):
        stencils.tendency(values, alphas, np.empty_like(values), np.empty_like(values))
        stencils.dissipation(values)
    assert calls == [([(0, 0), (0,), (1,)], [(0,), (1,)]), ([(0, 0)], [])]
    stage = loaded[0]
    assert [p is stage for p in loaded] == [True, False] * 2
    # f_1 and B_00 are one object, u^3/3: one buffer and one evaluation.
    assert sum(fn is np.divide for fn, _ in stage) == 1


@pytest.mark.parametrize("name", ["burgers", "linear-advection"])
def test_dissipation_without_beta_is_zero_and_loads_nothing(name, monkeypatch):
    loaded = []
    monkeypatch.setattr(_Stencils, "load", lambda self, *args: loaded.append(args))
    g = PeriodicGrid.make([1.0], [16])
    stencils = _Stencils(preset(name), g, (16,))
    assert stencils.dissipation(init_field(g, sin_profile).values) == 0.0
    assert loaded == []


def test_rows_report_dissipation_wherever_beta_entries_exist():
    # A hand-built model with a beta primitive but no diffusion is
    # inconsistent (validate_model flags it); its rows still report the
    # dissipation of that beta, as every model with beta entries does.
    bd = preset("burgers-degenerate")
    m = ModelSpec(dimension=1, state_bound=1.0, name="beta-only", flux=bd.flux,
                  diffusion=lambda u: np.zeros(np.shape(u) + (1, 1)),
                  beta_primitive=bd.beta_primitive)
    assert not validate_model(m).overall_pass
    g = PeriodicGrid.make([1.0], [32])
    traj = run(m, g, sin_profile, SchemeConfig(t_end=0.02, output_every=0.01))
    assert traj.rows[0].dissipation_resolved == 0.0
    assert all(row.dissipation_resolved > 0.0 for row in traj.rows[1:])
    assert model_table(m).b == {}


# --- stable_dt ---------------------------------------------------------------

def test_stable_dt_advection():
    g = PeriodicGrid.make([1.0], [64])
    fld = init_field(g, sin_profile)
    got = stable_dt(preset("linear-advection"), fld, g, cfl=0.5)
    assert got == pytest.approx(0.0078125, abs=1e-15)


def test_stable_dt_heat():
    g = PeriodicGrid.make([1.0], [64])
    fld = init_field(g, sin_profile)
    # Parabolic restriction: cfl / (2 * Lambda / h^2) = 0.5 / 8192.
    got = stable_dt(HEAT, fld, g, cfl=0.5)
    assert got == pytest.approx(0.5 / 8192.0, abs=1e-18)


def test_stable_dt_zero_dynamics():
    zero = polynomial_model("still", [(0.0,)], {}, 1, 1.0)
    g = PeriodicGrid.make([1.0], [16])
    fld = init_field(g, sin_profile)
    assert stable_dt(zero, fld, g) == np.inf
    assert stable_dt(zero, fld, g, output_every=0.1) == pytest.approx(0.1)


def test_stable_dt_rejects_bad_input():
    g = PeriodicGrid.make([1.0], [16])
    bad = CellField(np.full(16, np.nan), 0.0)
    # A non-finite field is a ValueError here as in run() and step().
    with pytest.raises(ValueError):
        stable_dt(preset("burgers"), bad, g)


@pytest.mark.parametrize("cadence", [-1.0, 0.0, np.nan, np.inf])
def test_stable_dt_rejects_a_cadence_that_is_not_positive(cadence):
    # Without dynamics the cadence would be the step itself.
    still = polynomial_model("still", [(0.0,)], {}, 1, 1.0)
    g = PeriodicGrid.make([1.0], [16])
    with pytest.raises(ConfigurationError, match=f"output_every must be positive, got {cadence}"):
        stable_dt(still, init_field(g, sin_profile), g, output_every=cadence)


@pytest.mark.parametrize("shape", [(128,), (2, 128), (64, 32), (4,)])
def test_one_shot_operators_reject_a_field_of_another_grid(shape):
    m, g = preset("porous-medium"), PeriodicGrid.make([1.0], [64])
    fld = CellField(np.linspace(-0.5, 0.5, int(np.prod(shape))).reshape(shape), 0.0)
    norms = (lambda m, f, g: mean(f, g), lambda m, f, g: l2_energy(f, g),
             lambda m, f, g: l1_to_constant(f, g, 0.0))
    for op in (hyperbolic_div, diffusion_div, stable_dt, parabolic_dissipation, *norms):
        with pytest.raises(ConfigurationError, match="does not match grid"):
            op(m, fld, g)


def test_one_shot_operators_take_batched_fields():
    m, g = preset("porous-medium"), PeriodicGrid.make([1.0], [64])
    one = np.sin(2.0 * np.pi * (np.arange(64) + 0.5) / 64)
    batch = CellField(np.stack([one, 0.5 * one]), 0.0)
    for op in (hyperbolic_div, diffusion_div):
        got = op(m, batch, g)
        assert got.shape == (2, 64)
        assert np.array_equal(got[0], op(m, CellField(one, 0.0), g))
    assert stable_dt(m, batch, g) == stable_dt(m, CellField(one, 0.0), g)
    assert parabolic_dissipation(m, batch, g) > parabolic_dissipation(m, one, g)
    # The norms take one field; a stack of ones and zeros is not folded into
    # one mean of 0.5.
    stack = np.stack([np.ones(64), np.zeros(64)])
    for norm in (mean, l2_energy, lambda f, g: l1_to_constant(f, g, 0.0)):
        with pytest.raises(ConfigurationError, match="batch"):
            norm(stack, g)


# --- stepping ----------------------------------------------------------------

def test_scheme_config_validation():
    with pytest.raises(ConfigurationError):
        SchemeConfig(t_end=0.0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(t_end=1.0, cfl=0.0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(t_end=1.0, integrator="rk4")
    with pytest.raises(ConfigurationError):
        SchemeConfig(t_end=1.0, output_every=-0.1)


def test_step_keeps_constants_fixed():
    g = PeriodicGrid.make([1.0], [32])
    cfg = SchemeConfig(t_end=1.0)
    state = CellField(np.full(32, 0.25), 0.0)
    for m in (preset("burgers"), preset("porous-medium"), HEAT):
        out = step(state, m, g, cfg)
        assert np.array_equal(out.values, state.values)
        assert out.time > 0.0


def test_step_conserves_mean():
    g = PeriodicGrid.make([1.0], [64])
    cfg = SchemeConfig(t_end=1.0)
    for name in ("linear-advection", "burgers", "burgers-degenerate", "porous-medium"):
        m = preset(name)
        state = init_field(g, lambda x: 0.2 + 0.5 * np.sin(2 * np.pi * x))
        before = state.values.mean()
        for _ in range(20):
            state = step(state, m, g, cfg)
        assert abs(state.values.mean() - before) < 1e-13, name


# The blow-up tests turn RuntimeWarnings into errors: floating-point
# warnings are silenced once per step, run or run_lockstep call, and
# overflow on the way to a blow-up must surface as BlowUpError alone,
# at the pinned time and peak.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_detects_blow_up():
    g = PeriodicGrid.make([1.0], [64])
    m = preset("burgers")
    state = init_field(g, sin_profile)
    cfg = SchemeConfig(t_end=10.0, cfl=2.0)
    with pytest.raises(BlowUpError) as info:
        for _ in range(20000):
            state = step(state, m, g, cfg)
    assert repr(info.value.time) == "0.9777873512810838"
    assert info.value.max_abs == np.inf


@pytest.mark.parametrize("dt", [-0.001, 0.0, np.nan, np.inf])
def test_step_rejects_a_dt_that_is_not_positive(dt):
    # A negative step ran backwards in time and broke the maximum principle.
    g = PeriodicGrid.make([1.0], [64])
    state = init_field(g, sin_profile)
    with pytest.raises(ConfigurationError, match=f"dt must be positive, got {dt}"):
        step(state, preset("burgers-degenerate"), g, SchemeConfig(t_end=1.0), dt=dt)


def test_step_lengths_are_python_floats():
    g = PeriodicGrid.make([1.0], [64])
    m = preset("burgers")
    state = init_field(g, sin_profile)
    assert type(stable_dt(m, state, g)) is float
    assert type(step(state, m, g, SchemeConfig(t_end=1.0)).time) is float
    assert type(run(m, g, sin_profile, SchemeConfig(t_end=0.05)).stats.dt_min) is float
    with pytest.raises(BlowUpError) as info:
        run(m, g, sin_profile, SchemeConfig(t_end=10.0, cfl=2.0))
    assert type(info.value.time) is float


@pytest.mark.parametrize("entry", ["run", "step", "run_lockstep"])
def test_cell_fields_are_checked_against_the_grid(entry):
    m, g = preset("burgers"), PeriodicGrid.make([1.0], [64])
    scheme = SchemeConfig(t_end=0.1)
    call = {"run": lambda f: run(m, g, f, scheme),
            "step": lambda f: step(f, m, g, scheme),
            "run_lockstep": lambda f: run_lockstep(m, g, sin_profile, f, scheme)}[entry]
    twice = init_field(PeriodicGrid.make([1.0], [128]), sin_profile)
    with pytest.raises(ConfigurationError, match="does not match grid"):
        call(twice)
    with pytest.raises(ValueError, match="non-finite"):
        call(CellField(np.full(64, np.nan)))
    with pytest.raises(ValueError, match="non-finite"):
        call(CellField(np.where(np.arange(64) == 5, np.inf, 0.1)))


def test_checked_cell_fields_run_as_their_arrays():
    m, g = preset("burgers-degenerate"), PeriodicGrid.make([1.0], [64])
    values = init_field(g, sin_profile).values
    scheme = SchemeConfig(t_end=0.05)
    got, ref = run(m, g, CellField(values, 0.3), scheme), run(m, g, values, scheme)
    assert got.final.values.tobytes() == ref.final.values.tobytes()
    out = step(CellField(values, 0.3), m, g, scheme, dt=1e-3)
    assert out.time == 0.3 + 1e-3
    # The one-shot operators still take a batch of fields.
    pair = CellField(np.stack([values, 0.5 * values]))
    assert hyperbolic_div(m, pair, g).shape == diffusion_div(m, pair, g).shape == (2, 64)


def test_explicit_dt_is_honored():
    g = PeriodicGrid.make([1.0], [64])
    m = preset("linear-advection")
    state = init_field(g, sin_profile)
    out = step(state, m, g, SchemeConfig(t_end=1.0), dt=1e-3)
    assert out.time == pytest.approx(1e-3, abs=1e-18)


# --- full runs ---------------------------------------------------------------

def test_run_zero_data_stays_zero():
    g = PeriodicGrid.make([1.0], [32])
    traj = run(preset("burgers"), g, lambda x: np.zeros_like(x),
               SchemeConfig(t_end=0.5, output_every=0.1))
    assert all(row.l1_to_mean == 0.0 for row in traj.rows)
    assert all(row.l2_energy == 0.0 for row in traj.rows)
    assert traj.rows[0].t == 0.0
    assert traj.rows[-1].t == pytest.approx(0.5, abs=1e-12)


def test_run_row_and_snapshot_cadence():
    g = PeriodicGrid.make([1.0], [64])
    traj = run(preset("burgers"), g, sin_profile,
               SchemeConfig(t_end=1.0, output_every=0.3, snapshot_every=0.5))
    times = [row.t for row in traj.rows]
    assert times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0], abs=1e-9)
    snap_times = [s.time for s in traj.snapshots]
    assert snap_times == pytest.approx([0.0, 0.5, 1.0], abs=1e-9)


def test_run_is_deterministic():
    g = PeriodicGrid.make([1.0], [64])
    cfg = SchemeConfig(t_end=0.4, output_every=0.1)
    a = run(preset("burgers-degenerate"), g, sin_profile, cfg)
    b = run(preset("burgers-degenerate"), g, sin_profile, cfg)
    assert np.array_equal(a.final.values, b.final.values)
    assert [r.l2_energy for r in a.rows] == [r.l2_energy for r in b.rows]


def test_run_stats_respect_monotone_bounds():
    g = PeriodicGrid.make([1.0], [128])
    traj = run(preset("burgers-degenerate"), g, sin_profile,
               SchemeConfig(t_end=1.0, output_every=0.25))
    s = traj.stats
    assert s.max_principle_violation <= 1e-10
    assert s.energy_max_step_jump <= 1e-12
    assert abs(s.mean_drift) <= 1e-12
    # Distances to fixed constants, recorded per row, must never grow.
    ladder = np.asarray(s.contraction_l1)
    jumps = np.diff(ladder, axis=0)
    assert jumps.max(initial=0.0) <= 1e-12
    assert s.contraction_max_step_jump <= 1e-12
    energies = [row.l2_energy for row in traj.rows]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_run_contraction_jump_is_taken_per_step():
    # With a cadence finer than the CFL step every step ends on a row, so
    # the per-step rise equals the largest rise between rows exactly.
    g = PeriodicGrid.make([1.0], [64])
    traj = run(preset("burgers-degenerate"), g, sin_profile,
               SchemeConfig(t_end=1e-3, output_every=1e-5))
    s = traj.stats
    assert s.steps == len(traj.rows) - 1
    jumps = np.diff(np.asarray(s.contraction_l1), axis=0)
    assert s.contraction_max_step_jump == max(0.0, float(jumps.max()))
    # Every step was cut, so the dt extremes are those of the cut steps.
    assert s.truncated_steps == s.steps
    assert s.dt_min == pytest.approx(1e-5, rel=1e-9)
    assert s.dt_max == pytest.approx(1e-5, rel=1e-9)


def test_audit_reads_the_per_step_contraction():
    g = PeriodicGrid.make([1.0], [32])
    traj = run(preset("burgers"), g, sin_profile, SchemeConfig(t_end=0.1, output_every=0.05))
    assert audit(traj).passed
    traj.stats.contraction_max_step_jump = 1e-9
    report = audit(traj)
    assert report.contraction_violation == 1e-9
    assert not report.passed


def test_audit_still_checks_the_contraction_between_rows():
    # Sub-tolerance rises on every step can add up to a rise between rows.
    g = PeriodicGrid.make([1.0], [32])
    traj = run(preset("burgers"), g, sin_profile, SchemeConfig(t_end=0.1, output_every=0.05))
    traj.stats.contraction_max_step_jump = 0.0
    traj.stats.contraction_l1[-1][0] = traj.stats.contraction_l1[-2][0] + 1e-9
    report = audit(traj)
    assert report.contraction_violation == pytest.approx(1e-9, rel=1e-6)
    assert not report.passed


def test_run_dt_extremes_of_a_model_without_dynamics():
    # Every step is the idle step at the output cadence.
    zero = polynomial_model("still", [(0.0,)], {}, 1, 1.0)
    g = PeriodicGrid.make([1.0], [16])
    s = run(zero, g, sin_profile, SchemeConfig(t_end=0.1, output_every=0.025)).stats
    assert s.steps == s.truncated_steps == 4
    assert s.dt_min == pytest.approx(0.025) and s.dt_max == pytest.approx(0.025)


def test_run_dt_extremes_exclude_truncated_steps():
    # Linear advection has the same CFL step for every field, so only the
    # steps cut to land on a row can differ from it.
    g = PeriodicGrid.make([1.0], [64])
    m = preset("linear-advection")
    traj = run(m, g, sin_profile, SchemeConfig(t_end=0.1, output_every=0.013))
    s = traj.stats
    cfl_dt = stable_dt(m, init_field(g, sin_profile), g, cfl=0.4)
    assert s.dt_min == s.dt_max == cfl_dt
    assert s.truncated_steps == len(traj.rows) - 1
    assert s.steps > s.truncated_steps


def test_run_porous_energy_strictly_decreasing():
    g = PeriodicGrid.make([1.0], [64])
    traj = run(preset("porous-medium"), g, sin_profile,
               SchemeConfig(t_end=0.2, output_every=0.05))
    energies = [row.l2_energy for row in traj.rows]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_run_advection_one_period_error():
    # One full revolution returns the exact profile; what is left is the
    # numerical dissipation of the first-order flux. Regression bounds
    # were measured on this build and include ~2% headroom.
    bounds = {256: 0.048, 512: 0.0245}
    errs = {}
    for n, bound in bounds.items():
        g = PeriodicGrid.make([1.0], [n])
        f0 = init_field(g, sin_profile)
        traj = run(preset("linear-advection"), g, sin_profile, SchemeConfig(t_end=1.0))
        err = np.abs(traj.final.values - f0.values).sum() * g.cell_volume
        assert err <= bound, (n, err)
        errs[n] = err
    assert errs[256] / errs[512] == pytest.approx(2.0, abs=0.3)


def test_run_hooks_see_every_row():
    g = PeriodicGrid.make([1.0], [32])
    seen = []

    def hook(fld, row):
        seen.append((row.t, fld.values.copy()))

    traj = run(preset("burgers"), g, sin_profile,
               SchemeConfig(t_end=0.5, output_every=0.25), hooks=(hook,))
    assert [t for t, _ in seen] == [row.t for row in traj.rows]
    assert np.array_equal(seen[-1][1], traj.final.values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_blow_up_carries_partial_trajectory():
    # No output cadence: boundary-capped short steps would lower the
    # effective step ratio and can mask the instability.
    g = PeriodicGrid.make([1.0], [64])
    with pytest.raises(BlowUpError) as info:
        run(preset("burgers"), g, sin_profile,
            SchemeConfig(t_end=10.0, cfl=2.0))
    assert repr(info.value.time) == "1.1798067276564785"
    assert info.value.max_abs == np.inf
    partial = info.value.trajectory
    assert partial is not None
    assert partial.rows[0].t == 0.0
    assert len(partial.rows) >= 1


@pytest.mark.parametrize("profile", [
    sin_profile,
    lambda x: np.zeros_like(x),
    lambda x: -0.6 - 0.3 * np.sin(2.0 * np.pi * x),
], ids=["sine", "zero", "negative"])
def test_rows_equal_the_public_helpers_bit_for_bit(profile):
    # Rows reuse the step loop's reductions and the stepper's range; each
    # column must still be what the public helper gives on the same field.
    g = PeriodicGrid.make([1.0], [48])
    scheme = SchemeConfig(t_end=0.2, output_every=0.05, snapshot_every=0.05)
    traj = run(preset("burgers-degenerate"), g, profile, scheme)
    assert len(traj.rows) == len(traj.snapshots) == 5
    for row, snap in zip(traj.rows, traj.snapshots):
        assert row.t == snap.time
        assert repr(row.mean) == repr(mean(snap, g))
        assert repr(row.l2_energy) == repr(l2_energy(snap, g))
        assert repr(row.l1_to_mean) == repr(l1_to_constant(snap, g, row.mean))
        assert repr(row.linf) == repr(float(np.abs(snap.values).max()))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_blow_up_to_nan_reports_time_and_peak():
    # The flux is undefined (NaN) beyond |u| = 1.2, so the unstable run
    # turns cells NaN, not infinite; the range test must still catch it.
    def flux(u):
        return np.where(np.abs(u) <= 1.2, 0.5 * u * u, np.nan)[..., None]

    m = ModelSpec(dimension=1, flux=flux, diffusion=lambda u: np.zeros(np.shape(u) + (1, 1)),
                  state_bound=1.0, name="nan-beyond", speed=lambda u: np.asarray(u)[..., None])
    g = PeriodicGrid.make([1.0], [32])
    with pytest.raises(BlowUpError) as info:
        run(m, g, sin_profile, SchemeConfig(t_end=10.0, cfl=2.0))
    # Recorded from a whole-field np.isfinite scan of the same run.
    assert repr(float(info.value.time)) == "2.0"
    assert repr(info.value.max_abs) == "1.2333037121119146"
    partial = info.value.trajectory
    assert partial.stats.steps == 22
    assert np.isfinite(partial.final.values).all()


def test_run_rejects_a_whole_flux_not_finite_on_its_probe():
    # NaN beyond |u| = 1.05 lies inside the entries' probe (1.05 state_bound
    # at state_bound 2): the flux must be rejected, not read as zero there.
    m = ModelSpec(dimension=1, state_bound=2.0, name="nan-past",
                  flux=lambda u: np.where(np.abs(u) <= 1.05, 0.5 * u * u, np.nan)[..., None],
                  diffusion=lambda u: np.zeros(np.shape(u) + (1, 1)),
                  speed=lambda u: np.asarray(u)[..., None])
    with pytest.raises(ModelError, match=r"flux entry \(0,\) is not finite at u=-2.1"):
        run(m, PeriodicGrid.make([1.0], [32]), sin_profile, SchemeConfig(t_end=0.1))


def test_run_lockstep_distances_non_increasing():
    g = PeriodicGrid.make([1.0], [128])

    def bump_a(x):
        return np.exp(-200.0 * (x - 0.4) ** 2)

    def bump_b(x):
        return np.exp(-200.0 * (x - 0.4) ** 2) + 0.3 * np.exp(-400.0 * (x - 0.7) ** 2)

    times, dists, fa, fb = run_lockstep(
        preset("burgers-degenerate"), g, bump_a, bump_b,
        SchemeConfig(t_end=0.5, output_every=0.1))
    assert len(times) == len(dists)
    assert dists[0] > 0.0
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    assert fa.time == pytest.approx(0.5, abs=1e-9)
    l1_final = np.abs(fa.values - fb.values).sum() * g.cell_volume
    assert l1_final == pytest.approx(dists[-1], abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_lockstep_blow_up_reports_the_peak_run_reports():
    g = PeriodicGrid.make([1.0], [32])
    m = preset("burgers")
    scheme = SchemeConfig(t_end=10.0, cfl=2.0)
    with pytest.raises(BlowUpError) as single:
        run(m, g, sin_profile, scheme)
    with pytest.raises(BlowUpError) as pair:
        run_lockstep(m, g, sin_profile, sin_profile, scheme)
    assert repr(single.value.time) == "2.0417820054225144"
    assert repr(single.value.max_abs) == "3.0056420635322e+153"
    assert pair.value.time == single.value.time
    assert pair.value.max_abs == single.value.max_abs


# Data so large that a wave bound overflows: max |A| of burgers-degenerate
# (A = u^2, whose critical point 0 is inside the range) passes 1e308 at
# 1e160, and porous-medium's sampled max |A| = 2|u| at 1e308 is inf. The
# CFL step is then 0, a blow-up at the current time, never "no dynamics".
OVERFLOWING = [("burgers-degenerate", 1e160), ("porous-medium", 1e308)]


@pytest.mark.parametrize("name,amplitude", OVERFLOWING)
def test_an_overflowed_wave_bound_is_a_blow_up_at_the_current_time(name, amplitude):
    m, g = preset(name), PeriodicGrid.make([1.0], [32])
    with np.errstate(over="ignore", invalid="ignore"):
        fld = init_field(g, lambda x: amplitude * np.sin(2 * np.pi * x))
        peak = float(np.abs(fld.values).max())
        with pytest.raises(ConfigurationError, match="stable step is not positive"):
            stable_dt(m, fld, g)
        with pytest.raises(BlowUpError) as stepped:
            step(fld, m, g, SchemeConfig(t_end=1.0))
        with pytest.raises(BlowUpError) as ran:
            run(m, g, fld, SchemeConfig(t_end=1.0, output_every=0.5))
    for info in (stepped, ran):
        assert info.value.time == 0.0 and info.value.max_abs == peak
    partial = ran.value.trajectory
    assert [row.t for row in partial.rows] == [0.0] and partial.stats.steps == 0
    assert partial.final.values.tobytes() == fld.values.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_of_overflowing_data_warns_nothing_before_its_blow_up():
    # run's first measure, the initial energy and dissipation, overflows too;
    # it runs as quietly as the steps, so the blow-up is the only outcome.
    m, g = preset("burgers-degenerate"), PeriodicGrid.make([1.0], [64])
    fld = init_field(g, lambda x: 1e160 * np.sin(2 * np.pi * x))
    with pytest.raises(BlowUpError) as info:
        run(m, g, fld, SchemeConfig(t_end=1.0))
    assert info.value.time == 0.0
    assert [row.l2_energy for row in info.value.trajectory.rows] == [math.inf]


@pytest.mark.parametrize("name,cells,profile", [
    ("burgers-degenerate", [64], sin_profile),
    ("anisotropic-2d", [12, 16],
     lambda x, y: np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)),
])
def test_run_lockstep_of_equal_data_is_run(name, cells, profile):
    # Lockstep is a batch of two on the same stepper as run, so twin data
    # must stay at distance exactly 0 and end on run's field bit for bit.
    g = PeriodicGrid.make([1.0] * len(cells), cells)
    m = preset(name)
    scheme = SchemeConfig(t_end=0.1, output_every=0.025)
    times, dists, fa, fb = run_lockstep(m, g, profile, profile, scheme)
    single = run(m, g, profile, scheme)
    assert times == [row.t for row in single.rows]
    assert dists == [0.0] * len(times)
    assert fa.values.shape == tuple(cells)
    assert fa.values.tobytes() == single.final.values.tobytes()
    assert fb.values.tobytes() == single.final.values.tobytes()
    assert fa.time == single.final.time


# --- measurement windows -----------------------------------------------------

def _run_outcome(model, grid, profile, scheme):
    """Rows, stats, snapshots and final field of a run, with its error if it blew up."""
    try:
        traj, error = run(model, grid, profile, scheme), None
    except BlowUpError as exc:
        traj, error = exc.trajectory, (str(exc), repr(exc.time), repr(exc.max_abs))
    return (error, [repr(vars(r)) for r in traj.rows], repr(vars(traj.stats)),
            [(repr(s.time), s.values.tobytes()) for s in traj.snapshots],
            repr(traj.final.time), traj.final.values.tobytes())


# (preset, cells): default windows of 32, 16, 32 and 8 fields.
WINDOW_GRIDS = [("burgers-degenerate", (256,)), ("porous-medium", (512,)),
                ("anisotropic-2d", (16, 16)), ("anisotropic-2d", (32, 32))]


@st.composite
def _window_case(draw):
    """A run whose stops fall before, at and past the default window's cap, or a blow-up."""
    integrator = draw(st.sampled_from(["euler", "ssp-rk2"]))
    if draw(st.booleans()):
        # cfl 2 blows burgers up near t = 0.19 after about 240 steps, several windows
        # of 32 fields after its last stop.
        m, g = preset("burgers"), PeriodicGrid.make([1.0], [256])
        return m, g, sin_profile, SchemeConfig(
            t_end=10.0, cfl=2.0, integrator=integrator,
            output_every=draw(st.sampled_from([10.0, 0.1, 0.05, 0.013])),
            snapshot_every=draw(st.sampled_from([None, 0.07, 0.03])))
    name, cells = draw(st.sampled_from(WINDOW_GRIDS))
    m, g = preset(name), PeriodicGrid.make([1.0] * len(cells), list(cells))
    profile = (sin_profile if len(cells) == 1 else
               lambda x, y: 0.9 * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y))
    cap = solver_mod._WINDOW_BYTES // (8 * math.prod(cells))
    t_end = draw(st.integers(cap // 2, 3 * cap)) * stable_dt(m, init_field(g, profile), g)
    return m, g, profile, SchemeConfig(
        t_end=t_end, integrator=integrator, output_every=t_end / draw(st.integers(1, 6)),
        snapshot_every=draw(st.sampled_from([None, t_end / 3, t_end / 7])))


# linear-advection steps by a constant 1/640 on 256 cells: every window holds
# exactly the cap of 32 fields, so the cap's flush and the stop's coincide.
@example((preset("linear-advection"), PeriodicGrid.make([1.0], [256]), sin_profile,
          SchemeConfig(t_end=0.1, output_every=0.05, snapshot_every=0.05)))
@settings(max_examples=40, deadline=None)
@given(_window_case())
def test_measuring_per_window_leaves_no_trace_in_the_outputs(case):
    # Windows of one field measure each step as it comes; the default windows,
    # cut by the stops and by their cap, must give the same bits everywhere.
    model, grid, profile, scheme = case
    default = _run_outcome(model, grid, profile, scheme)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_mod, "_WINDOW_BYTES", 1)
        single = _run_outcome(model, grid, profile, scheme)
    assert default == single


def test_a_step_runs_30_bound_steps_in_1d_and_42_in_2d(monkeypatch):
    # u^3/3's first Horner step reads u (B, and f_1 in 2-d), once per stage.
    counted = []
    real_run = solver_mod._run

    def counting(program):
        program = tuple(program)
        counted.append(len(program))
        real_run(program)

    monkeypatch.setattr(solver_mod, "_run", counting)
    for name, cells, want in (("burgers-degenerate", [16], 30), ("anisotropic-2d", [6, 5], 42)):
        g = PeriodicGrid.make([1.0] * len(cells), cells)
        fld = init_field(g, np.random.default_rng(3).uniform(-0.9, 0.9, cells))
        counted.clear()
        step(fld, preset(name), g, SchemeConfig(t_end=1.0))
        assert sum(counted) == want


@pytest.mark.parametrize("name,cells", [("burgers-degenerate", [64]), ("anisotropic-2d", [8, 8])])
def test_run_measures_each_window_with_one_ladder_reduction(name, cells, monkeypatch):
    # Both grids make windows of 128 fields: in 1-d the cap cuts some, in 2-d only
    # the stops do. The ladder subtract runs once per window, plus the initial one.
    subtracts = []
    real_subtract = solver_mod.np.subtract

    class CountingNumpy:
        def __getattr__(self, attr):
            return getattr(np, attr)

        @staticmethod
        def subtract(x, y, *args, **kwargs):
            if kwargs.get("out") is not None and kwargs["out"].ndim == len(cells) + 2:
                subtracts.append(len(kwargs["out"]))
            return real_subtract(x, y, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "np", CountingNumpy())
    g = PeriodicGrid.make([1.0] * len(cells), cells)
    profile = sin_profile if len(cells) == 1 else lambda x, y: np.sin(2.0 * np.pi * (x + y))
    traj = run(preset(name), g, profile, SchemeConfig(t_end=0.02, output_every=0.01))
    cap, steps = solver_mod._WINDOW_BYTES // (8 * math.prod(cells)), traj.stats.steps
    first, *windows = subtracts
    assert first == 1 and sum(windows) == steps and max(windows) <= cap
    assert len(windows) <= steps // cap + len(traj.rows) - 1
