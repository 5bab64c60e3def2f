"""Quantities tracked along a run and the audits over them.

A Trajectory carries one DiagnosticsRow per output time: the mean, the L1
distance to the mean, the L2 energy I(t), the sup norm, and the parabolic
dissipation pair (resolved estimate over the window vs the energy-drop
budget). audit() turns those plus the per-step extremes recorded by the
solver into a pass/fail report; decay_summary() and refinement_study()
answer how fast the field approaches its mean and how much of that
survives grid refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .solver import (ConfigurationError, DiagnosticsRow, Trajectory, _grid_values, _squares,
                     _Stencils, run)

__all__ = [
    "AuditTolerances",
    "AuditReport",
    "DecaySummary",
    "RefinementTable",
    "mean",
    "l1_to_constant",
    "l2_energy",
    "parabolic_dissipation",
    "audit",
    "decay_summary",
    "refinement_study",
]

DECAY_THRESHOLDS = (0.5, 0.1, 0.05, 0.01)


def _one_field(field, grid):
    """One field's values, checked against the grid; a batch of fields is rejected."""
    v = _grid_values(field, grid)
    if v.ndim > grid.dimension:
        raise ConfigurationError(f"expected one field, got a batch of shape {v.shape}")
    return v


def mean(field, grid):
    """Cell-average mean, equal to the integral divided by the measure."""
    v = _one_field(field, grid)
    return float(v.sum()) / v.size


def l1_to_constant(field, grid, c):
    """Integral of |u - c| over the box (cell quadrature)."""
    v = _one_field(field, grid)
    return float(np.abs(v - float(c)).sum()) * grid.cell_volume


def l2_energy(field, grid):
    """Integral of u^2 over the box: the dot np.vdot computes, as one _squares row."""
    v = _one_field(field, grid)
    return _squares(v.reshape(1, -1))[0] * grid.cell_volume


def parabolic_dissipation(model, field, grid):
    """Discrete dissipation sum_k (sum_i D_i beta_ik(u))^2 integrated in x.

    Nonnegative by construction; zero whenever the diffusion vanishes. A
    batch of fields (leading axes) gives the sum over the batch.
    """
    values = _grid_values(field, grid).reshape((-1,) + grid.cells)
    return _Stencils(model, grid, values.shape).dissipations(values, groups=1)[0]


@dataclass(frozen=True)
class AuditTolerances:
    """Pass thresholds for audit(). Budget slack is scale*|box|*max|u0|^2."""

    max_principle: float = 1e-10
    energy: float = 1e-12
    contraction: float = 1e-12
    mean_conservation: float = 1e-12
    telescope: float = 1e-12
    budget_scale: float = 1e-8
    global_budget: float = 1e-12
    decay_threshold: float = 0.05


@dataclass
class AuditReport:
    """Violation statistics for one trajectory; pass iff all within tolerance.

    One table of gated checks (_gates) drives passed and lines(); as_dict()
    lists the dataclass fields and passed. The decay fields are
    informational and never gate `passed`: slow decay is a finding, not a
    defect of the scheme.
    """

    max_principle_violation: float
    energy_monotonicity_violation: float
    contraction_violation: float
    mean_drift: float
    budget_violations: int
    budget_max_excess: float
    budget_tolerance: float
    telescope_gap: float
    total_budget: float
    global_budget_bound: float
    global_budget_excess: float
    decay_achieved: bool
    decay_threshold: float
    decay_time: Optional[float]
    tolerances: AuditTolerances
    per_step: bool

    def _gates(self):
        """The gated checks as (label, value, bound) rows; each holds iff value <= bound."""
        tol = self.tolerances
        return [("max principle", self.max_principle_violation, tol.max_principle),
                ("energy monotonicity", self.energy_monotonicity_violation, tol.energy),
                ("L1 contraction", self.contraction_violation, tol.contraction),
                ("mean conservation", self.mean_drift, tol.mean_conservation),
                ("budget windows", self.budget_violations, 0),
                ("budget telescoping", self.telescope_gap, self.telescope_tolerance),
                ("global budget bound", self.global_budget_excess, tol.global_budget)]

    @property
    def passed(self):
        return all(value <= bound for _, value, bound in self._gates())

    @property
    def telescope_tolerance(self):
        return self.tolerances.telescope * max(1.0, abs(self.total_budget) * 2.0,
                                               self.global_budget_bound * 2.0)

    def as_dict(self):
        record = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "tolerances"}
        return {**record, "passed": self.passed}

    def lines(self):
        granularity = "per step" if self.per_step else "per output row"
        out = [f"audit ({granularity}):"]
        for label, value, bound in self._gates():
            # The budget windows gate a count; their slack is per window.
            shown = (f"{value} violation(s)  (slack {self.budget_tolerance:.1e})"
                     if label == "budget windows" else f"{value:.3e}  (tol {bound:.1e})")
            out.append(f"  {label:<22} {shown}  {'ok' if value <= bound else 'VIOLATED'}")
        if self.decay_achieved:
            out.append(f"  decay to {self.decay_threshold:g} of initial L1: "
                       f"reached at t={self.decay_time:.6g}")
        else:
            out.append(f"  decay to {self.decay_threshold:g} of initial L1: not reached")
        out.append(f"  overall: {'PASS' if self.passed else 'FAIL'}")
        return out


def _first_crossing(rows, target):
    """Time of the first row whose l1_to_mean is at or below ``target``, or None."""
    return next((r.t for r in rows if r.l1_to_mean <= target), None)


def _max_positive_jump(series):
    """Largest rise between neighbours of series, at least 0.0; NaN if any value is."""
    return float(np.max(np.diff(series), initial=0.0))


def audit(trajectory, tolerances=None):
    """Check the trajectory against the scheme's structural guarantees.

    With per-step statistics present (any solver-produced trajectory) the
    extremes are per step; a hand-built trajectory without stats is audited
    at row granularity from the columns alone. Requires at least 2 rows.
    """
    tol = tolerances if tolerances is not None else AuditTolerances()
    rows = trajectory.rows
    if len(rows) < 2:
        raise ValueError(f"audit needs at least 2 diagnostic rows, got {len(rows)}")
    measure = trajectory.grid.total_measure
    stats = trajectory.stats

    if stats is not None:
        m_inf = max(abs(stats.initial_min), abs(stats.initial_max))
        mp_violation = stats.max_principle_violation
        energy_violation = stats.energy_max_step_jump
        mean_drift = stats.mean_drift
        # Per-step rise, plus the rise between rows so that a drift of
        # many sub-tolerance steps still shows.
        contraction = stats.contraction_max_step_jump
        for column in zip(*stats.contraction_l1):
            contraction = max(contraction, _max_positive_jump(column))
    else:
        # numpy maxima keep a NaN row, which then fails its gate.
        linf, energy, mean, l1 = np.array(
            [(r.linf, r.l2_energy, r.mean, r.l1_to_mean) for r in rows]).T
        m_inf = rows[0].linf
        mp_violation = float(np.maximum(0.0, linf.max() - linf[0]))
        energy_violation = _max_positive_jump(energy)
        mean_drift = float(np.abs(mean - mean[0]).max())
        contraction = _max_positive_jump(l1)

    # A NaN window counts as a violation and reaches the excesses.
    budget_tol = tol.budget_scale * measure * (m_inf * m_inf)
    excess = [r.dissipation_resolved - r.dissipation_budget for r in rows[1:]]
    violations = sum(not e <= budget_tol for e in excess)
    max_excess = float(np.maximum(0.0, np.max(excess)))
    total_budget = 0.0
    for r in rows[1:]:
        total_budget += r.dissipation_budget

    telescope_gap = abs(total_budget - 0.5 * (rows[0].l2_energy - rows[-1].l2_energy))
    global_bound = 0.5 * measure * (m_inf * m_inf)
    global_excess = float(np.maximum(0.0, total_budget - global_bound))

    decay_time = _first_crossing(rows, tol.decay_threshold * rows[0].l1_to_mean)

    return AuditReport(
        max_principle_violation=mp_violation,
        energy_monotonicity_violation=energy_violation,
        contraction_violation=contraction,
        mean_drift=mean_drift,
        budget_violations=violations,
        budget_max_excess=max_excess,
        budget_tolerance=budget_tol,
        telescope_gap=telescope_gap,
        total_budget=total_budget,
        global_budget_bound=global_bound,
        global_budget_excess=global_excess,
        decay_achieved=decay_time is not None,
        decay_threshold=tol.decay_threshold,
        decay_time=decay_time,
        tolerances=tol,
        per_step=stats is not None,
    )


@dataclass
class DecaySummary:
    """First-crossing times for a ladder of L1 fractions plus a tail fit."""

    initial_l1: float
    thresholds: tuple
    times: tuple
    tail_slope: Optional[float]
    tail_samples: int

    def as_dicts(self):
        out = []
        for theta, t in zip(self.thresholds, self.times):
            out.append({"threshold": theta, "reached": t is not None, "time": t})
        out.append({"tail_slope": self.tail_slope, "tail_samples": self.tail_samples})
        return out

    def lines(self):
        out = [f"decay summary (initial L1 to mean = {self.initial_l1:.6g}):"]
        for theta, t in zip(self.thresholds, self.times):
            if t is None:
                out.append(f"  {theta:>5g} of initial: not reached")
            else:
                out.append(f"  {theta:>5g} of initial: t = {t:.6g}")
        if self.tail_slope is None:
            out.append("  tail slope: not available")
        else:
            out.append(f"  tail slope: {self.tail_slope:.3f} "
                       f"(log-log fit over {self.tail_samples} samples)")
        return out


def decay_summary(trajectory, thresholds=DECAY_THRESHOLDS):
    """First time l1_to_mean falls to each fraction of its initial value.

    Also fits a log-log slope of l1_to_mean against t over the last half
    of the positive samples, as an observed-rate report.
    """
    rows = trajectory.rows
    if not rows:
        raise ValueError("decay_summary needs at least one diagnostic row")
    initial = rows[0].l1_to_mean
    times = [_first_crossing(rows, theta * initial) for theta in thresholds]

    samples = [(r.t, r.l1_to_mean) for r in rows if r.t > 0 and r.l1_to_mean > 0]
    tail = samples[len(samples) // 2:]
    slope = None
    if len(tail) >= 2 and tail[0][0] < tail[-1][0]:
        ts = np.log([p[0] for p in tail])
        vs = np.log([p[1] for p in tail])
        slope = float(np.polyfit(ts, vs, 1)[0])
    return DecaySummary(initial_l1=initial, thresholds=tuple(thresholds),
                        times=tuple(times), tail_slope=slope, tail_samples=len(tail))


@dataclass
class RefinementTable:
    """l1_to_mean at fixed checkpoints across a grid ladder.

    observed_order and extrapolated are per checkpoint; the order needs at
    least 3 grids with a consistent refinement ratio, otherwise first order
    is assumed for the extrapolation and observed_order stays None.
    """

    checkpoints: tuple
    cells: tuple
    initial_l1: tuple
    values: tuple
    observed_order: tuple
    extrapolated: tuple

    def as_dicts(self):
        out = []
        for g, cell in enumerate(self.cells):
            out.append({"cells": list(cell), "initial_l1": self.initial_l1[g],
                        "l1": list(self.values[g])})
        out.append({"checkpoints": list(self.checkpoints),
                    "observed_order": list(self.observed_order),
                    "extrapolated": list(self.extrapolated)})
        return out

    def lines(self):
        header = "  cells      " + "".join(f"  l1(t={c:g})" for c in self.checkpoints)
        out = ["refinement study:", header]
        for g, cell in enumerate(self.cells):
            label = "x".join(str(n) for n in cell)
            out.append(f"  {label:<10}" + "".join(f"  {v:.6e}" for v in self.values[g]))
        orders = "".join(
            f"  {o:.2f}" if o is not None else "  n/a" for o in self.observed_order)
        extr = "".join(f"  {v:.6e}" for v in self.extrapolated)
        out.append(f"  order     {orders}")
        out.append(f"  h->0      {extr}")
        return out


def _row_at(traj, t, scale):
    for r in traj.rows:
        if abs(r.t - t) <= 1e-9 * max(1.0, scale):
            return r
    raise ValueError(
        f"no diagnostic row at checkpoint t={t:g}; align output_every with it")


def refinement_study(model, profile, scheme, grid_ladder, checkpoints=None):
    """Run one profile over increasingly fine grids and extrapolate.

    The profile must be a function of the coordinates so every grid sees
    the same initial data. Checkpoints default to t_end (always a row).
    """
    grids = list(grid_ladder)
    if len(grids) < 2:
        raise ValueError("refinement_study needs at least 2 grids")
    dim = grids[0].dimension
    for g in grids:
        if g.dimension != dim or g.periods != grids[0].periods:
            raise ValueError("all grids must share dimension and periods")
    ratios = set()
    for coarse, fine in zip(grids, grids[1:]):
        ratios.update(fine.cells[i] / coarse.cells[i] for i in range(dim))
    if len(ratios) != 1 or min(ratios) <= 1.0:
        raise ValueError("grid ladder must refine every axis by one common ratio")
    checkpoints = tuple(checkpoints) if checkpoints is not None else (scheme.t_end,)
    for c in checkpoints:
        if not (0.0 <= c <= scheme.t_end):
            raise ValueError(f"checkpoint {c:g} outside [0, t_end]")

    values = []
    initial = []
    for g in grids:
        traj = run(model, g, profile, scheme)
        initial.append(traj.rows[0].l1_to_mean)
        values.append(tuple(_row_at(traj, c, scheme.t_end).l1_to_mean
                            for c in checkpoints))

    ratio = grids[-1].cells[0] / grids[-2].cells[0]
    orders = []
    extrapolated = []
    for k in range(len(checkpoints)):
        col = [v[k] for v in values]
        order = None
        if len(col) >= 3:
            e_coarse = col[-3] - col[-2]
            e_fine = col[-2] - col[-1]
            prev_ratio = grids[-2].cells[0] / grids[-3].cells[0]
            if e_fine != 0.0 and e_coarse / e_fine > 0.0:
                order = math.log(e_coarse / e_fine) / math.log(prev_ratio)
                order = min(max(order, 0.1), 8.0)
        p = order if order is not None else 1.0
        extrapolated.append(col[-1] + (col[-1] - col[-2]) / (ratio ** p - 1.0))
        orders.append(order)

    return RefinementTable(
        checkpoints=checkpoints,
        cells=tuple(tuple(g.cells) for g in grids),
        initial_l1=tuple(initial),
        values=tuple(tuple(v) for v in values),
        observed_order=tuple(orders),
        extrapolated=tuple(extrapolated),
    )
