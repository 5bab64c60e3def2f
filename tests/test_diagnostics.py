"""Tests for norms, audits, decay summaries, and refinement studies."""

import numpy as np
import pytest

from anisolab.diagnostics import (
    AuditTolerances,
    DiagnosticsRow,
    Trajectory,
    audit,
    decay_summary,
    l1_to_constant,
    l2_energy,
    mean,
    parabolic_dissipation,
    refinement_study,
)
from anisolab.model import ModelSpec, polynomial_model, preset
from anisolab.solver import CellField, PeriodicGrid, SchemeConfig, init_field, run

HEAT = polynomial_model("heat", [(0.0,)], {(0, 0): (1.0,)}, 1, 1.0)


def sin_profile(x):
    return np.sin(2.0 * np.pi * x)


# --- norms -------------------------------------------------------------------

def test_mean_examples():
    g = PeriodicGrid.make([1.0], [4])
    assert mean(CellField(np.array([1.0, 2.0, 3.0, 4.0]), 0.0), g) == pytest.approx(2.5)
    assert mean(np.full(4, -0.3), g) == pytest.approx(-0.3, abs=1e-15)


def test_mean_weights_by_cell_volume():
    g = PeriodicGrid.make([2.0], [8])
    # Mean is the integral divided by the domain measure, so the value of
    # a constant is recovered regardless of the period.
    assert mean(np.full(8, 1.5), g) == pytest.approx(1.5, abs=1e-15)


def test_l1_examples():
    g = PeriodicGrid.make([1.0], [4])
    alternating = np.array([1.0, -1.0, 1.0, -1.0])
    assert l1_to_constant(alternating, g, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert l1_to_constant(np.full(4, 0.7), g, 0.7) == 0.0


def test_l1_sine_matches_integral():
    g = PeriodicGrid.make([1.0], [4096])
    fld = init_field(g, sin_profile)
    assert l1_to_constant(fld, g, 0.0) == pytest.approx(2.0 / np.pi, abs=1e-3)


def test_l2_energy_examples():
    g = PeriodicGrid.make([1.0], [16])
    assert l2_energy(np.zeros(16), g) == 0.0
    assert l2_energy(np.full(16, 2.0), g) == pytest.approx(4.0, abs=1e-14)
    g2 = PeriodicGrid.make([3.0], [16])
    assert l2_energy(np.full(16, 2.0), g2) == pytest.approx(12.0, abs=1e-13)


def test_l2_energy_sine():
    g = PeriodicGrid.make([1.0], [4096])
    fld = init_field(g, sin_profile)
    assert l2_energy(fld, g) == pytest.approx(0.5, abs=1e-3)


# --- dissipation -------------------------------------------------------------

def test_parabolic_dissipation_constant_and_hyperbolic():
    g = PeriodicGrid.make([1.0], [64])
    assert parabolic_dissipation(HEAT, CellField(np.full(64, 0.4), 0.0), g) == 0.0
    fld = init_field(g, sin_profile)
    assert parabolic_dissipation(preset("burgers"), fld, g) == 0.0


def test_parabolic_dissipation_heat_sine():
    # For A = 1 the entropy dissipation integrand is |grad u|^2 and the
    # sine profile integrates to 2 pi^2.
    g = PeriodicGrid.make([1.0], [128])
    fld = init_field(g, sin_profile)
    got = parabolic_dissipation(HEAT, fld, g)
    assert got == pytest.approx(2.0 * np.pi**2, rel=0.02)


# --- audit -------------------------------------------------------------------

def test_audit_requires_two_rows():
    g = PeriodicGrid.make([1.0], [16])
    traj = Trajectory("m", g, SchemeConfig(t_end=1.0),
                      rows=[DiagnosticsRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)],
                      snapshots=[], stats=None)
    with pytest.raises(ValueError, match="2 diagnostic rows"):
        audit(traj)


def test_audit_constant_run_is_clean():
    g = PeriodicGrid.make([1.0], [32])
    traj = run(preset("burgers"), g, lambda x: np.full_like(x, 0.3),
               SchemeConfig(t_end=0.5, output_every=0.1))
    report = audit(traj)
    assert report.passed
    assert report.max_principle_violation == 0.0
    assert report.energy_monotonicity_violation == 0.0
    assert report.mean_drift == 0.0
    assert report.budget_violations == 0
    # Constant data is already at its mean: decay holds from t = 0.
    assert report.decay_achieved and report.decay_time == 0.0


def test_audit_positive_control_porous():
    g = PeriodicGrid.make([1.0], [64])
    traj = run(preset("porous-medium"), g, sin_profile,
               SchemeConfig(t_end=1.0, output_every=0.05))
    report = audit(traj)
    assert report.passed
    assert report.per_step
    assert report.decay_achieved
    assert 0.0 < report.decay_time <= 1.0
    assert report.total_budget > 0.0
    assert report.telescope_gap <= report.telescope_tolerance
    assert any("overall: PASS" in line for line in report.lines())
    d = report.as_dict()
    assert d["passed"] is True and d["budget_violations"] == 0


def _row_only_trajectory(rows):
    g = PeriodicGrid.make([1.0], [16])
    return Trajectory("hand-built", g, SchemeConfig(t_end=1.0),
                      rows=rows, snapshots=[], stats=None, final=None)


def test_audit_flags_energy_growth():
    rows = [
        DiagnosticsRow(0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0),
        DiagnosticsRow(1.0, 0.0, 0.5, 1.3, 1.0, 0.0, -0.15),
    ]
    report = audit(_row_only_trajectory(rows))
    assert not report.per_step
    assert report.energy_monotonicity_violation == pytest.approx(0.3)
    assert not report.passed


def test_audit_flags_budget_excess():
    # Resolved dissipation exceeding the window budget by more than the
    # scaled slack must be counted.
    rows = [
        DiagnosticsRow(0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0),
        DiagnosticsRow(1.0, 0.0, 0.4, 0.8, 1.0, 0.5, 0.1),
    ]
    report = audit(_row_only_trajectory(rows))
    assert report.budget_violations == 1
    assert report.budget_max_excess == pytest.approx(0.4)
    assert not report.passed


def test_audit_flags_a_nan_budget_window():
    rows = [
        DiagnosticsRow(0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0),
        DiagnosticsRow(0.5, 0.0, 0.45, 0.9, 1.0, float("nan"), 0.05),
        DiagnosticsRow(1.0, 0.0, 0.4, 0.8, 1.0, 0.04, 0.05),
    ]
    report = audit(_row_only_trajectory(rows))
    assert report.budget_violations == 1
    assert np.isnan(report.budget_max_excess)
    assert not report.passed
    assert "VIOLATED" in next(line for line in report.lines() if "budget windows" in line)


def test_audit_fails_a_run_whose_dissipation_is_nan():
    # burgers-degenerate's callables with a beta primitive that is NaN
    # beyond |u| = 1.1: data reaching 1.15 gives one NaN dissipation row.
    bd = preset("burgers-degenerate")
    m = ModelSpec(
        dimension=1, state_bound=1.0, name="nan-beta",
        **{name: lambda u, fn=getattr(bd, name): fn(u)
           for name in ("flux", "speed", "diffusion", "sqrt_factor", "b_primitive")},
        beta_primitive=lambda u: np.where(np.abs(u)[..., None, None] <= 1.1,
                                          bd.beta_primitive(u), np.nan))
    traj = run(m, PeriodicGrid.make([1.0], [64]), lambda x: 1.15 * sin_profile(x),
               SchemeConfig(t_end=0.05, output_every=0.01))
    assert np.isnan(traj.rows[1].dissipation_resolved)
    report = audit(traj)
    assert report.budget_violations >= 1
    assert not report.passed
    assert "VIOLATED" in next(line for line in report.lines() if "budget windows" in line)


def test_audit_global_budget_excess_keeps_a_nan():
    rows = [
        DiagnosticsRow(0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0),
        DiagnosticsRow(1.0, 0.0, 0.4, 0.8, 1.0, 0.05, float("nan")),
    ]
    report = audit(_row_only_trajectory(rows))
    assert np.isnan(report.global_budget_excess)
    assert not report.passed


def _violated(report):
    return {line.split("  ")[1].strip() for line in report.lines() if "VIOLATED" in line}


def test_row_only_audit_fails_on_a_nan_row():
    nan = float("nan")
    rows = [
        DiagnosticsRow(0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0),
        DiagnosticsRow(0.5, 0.0, nan, nan, nan, 0.05, 0.05),
        DiagnosticsRow(1.0, 0.0, 0.4, 0.8, 1.0, 0.05, 0.05),
    ]
    report = audit(_row_only_trajectory(rows))
    assert np.isnan(report.max_principle_violation)
    assert np.isnan(report.energy_monotonicity_violation)
    assert np.isnan(report.contraction_violation)
    assert _violated(report) == {"max principle", "energy monotonicity", "L1 contraction"}
    assert report.lines()[-1] == "  overall: FAIL"


def test_row_only_audit_fails_on_a_nan_mean():
    rows = [
        DiagnosticsRow(0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0),
        DiagnosticsRow(0.5, float("nan"), 0.45, 0.9, 1.0, 0.05, 0.05),
        DiagnosticsRow(1.0, 0.0, 0.4, 0.8, 1.0, 0.05, 0.05),
    ]
    report = audit(_row_only_trajectory(rows))
    assert np.isnan(report.mean_drift)
    assert _violated(report) == {"mean conservation"}
    assert report.lines()[-1] == "  overall: FAIL"


def test_audit_row_mode_max_principle():
    rows = [
        DiagnosticsRow(0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0),
        DiagnosticsRow(1.0, 0.0, 0.5, 1.0, 1.2, 0.0, 0.0),
    ]
    report = audit(_row_only_trajectory(rows))
    assert report.max_principle_violation == pytest.approx(0.2)
    assert not report.passed


def test_audit_tolerances_are_adjustable():
    rows = [
        DiagnosticsRow(0.0, 0.0, 0.5, 1.0, 1.0, 0.0, 0.0),
        DiagnosticsRow(1.0, 0.0, 0.5, 1.0, 1.2, 0.0, 0.5),
    ]
    loose = AuditTolerances(max_principle=0.5, telescope=10.0, global_budget=1.0)
    report = audit(_row_only_trajectory(rows), loose)
    assert report.passed


# --- decay summary -----------------------------------------------------------

def test_decay_summary_constant_data():
    g = PeriodicGrid.make([1.0], [32])
    traj = run(preset("burgers"), g, lambda x: np.full_like(x, 0.3),
               SchemeConfig(t_end=0.5, output_every=0.1))
    ds = decay_summary(traj)
    assert all(t == 0.0 for t in ds.times)


def test_decay_summary_porous_threshold_times_ordered():
    g = PeriodicGrid.make([1.0], [64])
    traj = run(preset("porous-medium"), g, sin_profile,
               SchemeConfig(t_end=1.0, output_every=0.02))
    ds = decay_summary(traj)
    reached = [t for t in ds.times if t is not None]
    assert len(reached) >= 3
    assert all(a <= b for a, b in zip(reached, reached[1:]))
    assert ds.tail_slope is not None and ds.tail_slope < 0.0
    assert any("of initial" in line for line in ds.lines())


def test_decay_summary_never_reached():
    g = PeriodicGrid.make([1.0], [64])
    traj = run(preset("linear-advection"), g, sin_profile,
               SchemeConfig(t_end=0.2, output_every=0.1))
    ds = decay_summary(traj, thresholds=(0.01,))
    assert ds.times == (None,)


# --- refinement study --------------------------------------------------------

def test_refinement_study_heat_checkpoint_oracle():
    # Linear heat flow damps the first mode by exp(-4 pi^2 t); the L1
    # norm of the sine is 2/pi times the damping factor.
    scheme = SchemeConfig(t_end=0.05)
    grids = [PeriodicGrid.make([1.0], [n]) for n in (64, 128, 256)]
    table = refinement_study(HEAT, sin_profile, scheme, grids)
    oracle = np.exp(-4.0 * np.pi**2 * 0.05) * (2.0 / np.pi)
    for g_idx in range(3):
        assert table.values[g_idx][0] == pytest.approx(oracle, abs=1e-3), g_idx
    assert table.checkpoints == (0.05,)
    assert any("h->0" in line for line in table.lines())
    dicts = table.as_dicts()
    assert dicts[-1]["checkpoints"] == [0.05]


def test_refinement_study_validates_ladder():
    scheme = SchemeConfig(t_end=0.1)
    with pytest.raises(ValueError, match="at least 2"):
        refinement_study(HEAT, sin_profile, scheme,
                         [PeriodicGrid.make([1.0], [32])])
    with pytest.raises(ValueError, match="common ratio"):
        refinement_study(HEAT, sin_profile, scheme,
                         [PeriodicGrid.make([1.0], [32]),
                          PeriodicGrid.make([1.0], [48]),
                          PeriodicGrid.make([1.0], [64])])
    with pytest.raises(ValueError, match="share dimension"):
        refinement_study(HEAT, sin_profile, scheme,
                         [PeriodicGrid.make([1.0], [32]),
                          PeriodicGrid.make([2.0], [64])])
    with pytest.raises(ValueError, match="checkpoint"):
        refinement_study(HEAT, sin_profile, scheme,
                         [PeriodicGrid.make([1.0], [32]),
                          PeriodicGrid.make([1.0], [64])],
                         checkpoints=(0.5,))


def test_refinement_study_missing_row_raises():
    scheme = SchemeConfig(t_end=0.1, output_every=0.05)
    with pytest.raises(ValueError, match="no diagnostic row"):
        refinement_study(HEAT, sin_profile, scheme,
                         [PeriodicGrid.make([1.0], [32]),
                          PeriodicGrid.make([1.0], [64])],
                         checkpoints=(0.037,))
