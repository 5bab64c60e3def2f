"""Tests for the finite-volume scheme and time integration."""

from dataclasses import replace

import numpy as np
import pytest

from anisolab.diagnostics import audit, l1_to_constant, l2_energy, mean
from anisolab.model import ModelError, ModelSpec, polynomial_model, preset, primitive_tables
from anisolab.solver import (
    BlowUpError,
    CellField,
    ConfigurationError,
    PeriodicGrid,
    SchemeConfig,
    diffusion_div,
    hyperbolic_div,
    init_field,
    numerical_flux_llf,
    run,
    run_lockstep,
    stable_dt,
    step,
)
from anisolab.solver import _Stencils, _wave_bounds

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


# --- spatial operators -------------------------------------------------------

def test_llf_flux_values():
    m = preset("burgers")
    assert numerical_flux_llf(m, 1.0, 1.0, 0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert numerical_flux_llf(m, 1.0, 0.0, 0, 1.0) == pytest.approx(0.75, abs=1e-15)
    assert numerical_flux_llf(m, 0.0, 0.0, 0, 1.0) == 0.0


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
}

# In 1-d the kernels read a ghost-cell copy of the field; the rows from
# burgers-degenerate at 4 cells on cover it where the ghosts are a large
# share of the field, with spline and whole-callable entries evaluated on it.
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
]


@pytest.mark.parametrize("name,periods,batch,cells", STENCIL_CASES)
def test_slice_kernels_equal_roll_reference_bit_for_bit(name, periods, batch, cells):
    m = STENCIL_MODELS[name] if name in STENCIL_MODELS else preset(name)
    g = PeriodicGrid.make(list(periods), list(cells))
    values = np.random.default_rng(7).uniform(-0.9, 0.9, batch + cells)
    tables = primitive_tables(m)
    alphas, _ = _wave_bounds(m, float(values.min()), float(values.max()))
    stencils = _Stencils(m, g, values.shape)
    for _ in range(2):  # the second call reuses the work arrays
        hyp = stencils.hyperbolic(values, alphas, np.empty_like(values))
        assert hyp.tobytes() == roll_hyperbolic(values, m, g, alphas).tobytes()
        diff = stencils.diffusion(values, np.empty_like(values))
        assert diff.tobytes() == roll_diffusion(values, g, tables).tobytes()
        assert stencils.dissipation(values) == roll_dissipation(values, g, tables)
    if not batch:
        fld = CellField(values, 0.0)
        assert hyperbolic_div(m, fld, g).tobytes() == roll_hyperbolic(values, m, g, alphas).tobytes()
        assert diffusion_div(m, fld, g).tobytes() == roll_diffusion(values, g, tables).tobytes()


def test_flux_stencil_and_step_size_need_no_psd_diffusion():
    # Only the diffusion stencil reads sigma and the primitives; a model
    # whose A is not PSD (validate_model flags it) still has a flux
    # divergence and a stable step.
    m = polynomial_model("negative", [(0.0, 0.0, 0.5)], {(0, 0): (-1.0,)}, 1, 1.0)
    g = PeriodicGrid.make([1.0], [16])
    fld = init_field(g, sin_profile)
    want = hyperbolic_div(preset("burgers"), fld, g)
    assert hyperbolic_div(m, fld, g).tobytes() == want.tobytes()
    assert stable_dt(m, fld, g) > 0.0


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
    with pytest.raises(ConfigurationError):
        stable_dt(preset("burgers"), bad, g)


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
