"""Compare the outputs of two anisolab source trees, case by case.

    python tools/compare_outputs.py OLD_SRC NEW_SRC [--only SUBSTRING]

Each tree is imported in its own child interpreter (``PYTHONPATH=<tree>``),
which runs the fixed case list below and pickles one bytes value per case.
The parent prints every case whose bytes differ, with a short description
of the difference, and exits 1 if any case differs. The cases are:

- the public callables of every preset and of a few polynomial models on a
  fixed set of states (``callables/...``);
- hand-built copies of the presets and of coupled-cubic that supply their
  callables whole, once with every callable the model has (``whole/...``)
  and once with only flux and diffusion (``bare/...``), plus one preset
  changed with dataclasses.replace (``replaced/...``); they go through the
  callable, bound, run and validate cases like the models they copy;
- wave bounds and stable steps on fields with and without interior extrema
  of the speed (``bounds/...``);
- solver runs: diagnostic rows, run statistics and the final field
  (``run/...``), plus one lockstep pair; five steps with the stable dt and
  five with an explicit dt from the run's initial field (``step/...``);
  the same run, step and lockstep cases on 4 and 5 cells, where the ghost
  cells of the stencils' padded frame are a large share of it, for
  burgers-degenerate, porous-medium and bare/burgers-degenerate
  (``run/cells-4/...``, ``step/cells-5/...``, ``run/lockstep/cells-4/...``);
  the same three on 4x5 and 5x4 cells for coupled-cubic, whose
  off-diagonal entry runs the mixed stencil, which reads the frame's corner
  ghosts (``run/cells-4x5/coupled-cubic``, ``step/cells-5x4/coupled-cubic``,
  ``run/lockstep/cells-4x5/coupled-cubic``), and on 4x4 cells, the smallest
  2-d frame, for anisotropic-2d, whose hand-written beta entry is evaluated
  on it (``run/cells-4x4/anisotropic-2d``, ...); the same three on 8x16
  cells for coupled-cubic, where h, h^2, 2h and 4 h_0 h_1 are powers of two,
  so the stencils scale by multiplying (``run/cells-8x16/coupled-cubic``,
  ...), and a run of anisotropic-2d on 16x16 cells, whose every scaling is a
  multiply and whose flux and B share the entry u^3/3
  (``run/cells-16x16/anisotropic-2d``); a lockstep pair on 7 cells, where each
  batch row of the frame is exactly two 64-byte lines with no tail between the
  rows (``run/lockstep/cells-7/burgers-degenerate``); a run (with stable_dt
  and one step) and a lockstep pair of burgers-degenerate on 8 cells from
  data whose minimum is both 0.0 and -0.0, where np.minimum.reduce and the
  first minimum disagree on the zero's sign (``run/signed-zero-min/1d``,
  ``run/signed-zero-min/lockstep``);
  and the run and step cases under the one-stage Euler integrator for
  burgers-degenerate and porous-medium (64 cells) and anisotropic-2d
  (16x12) (``run/euler/...``, ``step/euler/...``);
- the one-shot operators hyperbolic_div, diffusion_div and
  parabolic_dissipation on the run cases' initial field, for every preset,
  coupled-cubic, a copy of coupled-cubic whose primitives are spline tables
  (``oneshot/spline/coupled-cubic``) and whole/burgers-degenerate, plus one
  batched pair of coupled-cubic fields (``oneshot/batch/coupled-cubic``) and
  batches of three fields (the field, its negative and its half) on 5 cells
  and on 4x6 cells (``oneshot/batch-3/burgers-degenerate``,
  ``oneshot/batch-3/cells-4x6/anisotropic-2d``), and a batch of two random
  fields on 256 cells (``oneshot/batch-2/cells-256/burgers-degenerate``),
  whose dissipation, one dot per axis over the whole batch, differs in its
  last bits from a sum of the two fields' dissipations;
  the one-shot and step cases of a hand-built 1-d model with a zero flux and
  a nonzero speed, whose zero flux still binds the stage's flux terms
  (``oneshot/viscous-only``, ``step/viscous-only``);
- runs that blow up, to infinity (burgers) and to NaN (a hand-built flux
  undefined beyond |u| = 1.2): message, time, peak, partial rows and
  statistics (``blow-up/...``);
- runs whose fields ``run`` measures in windows, with their snapshots and
  what every hook call receives; first in windows of many fields, each with a
  single output window: burgers-degenerate on 64 cells (windows of 128
  fields), where the cap cuts several windows (``run/window/burgers-degenerate``),
  and anisotropic-2d on 8x8 cells (``run/window/cells-8x8/anisotropic-2d``);
  the same single-window run for porous-medium on 64 cells, flux-free and with
  a hand-written beta that is copied in (``run/window/porous-medium``), and for
  whole/burgers-degenerate, whose entries are sliced and whose bounds are
  sampled (``run/window/whole/burgers-degenerate``); burgers-degenerate on 256
  cells with a row every four or so steps, so that several rows queue in each
  of the meter's windows of 32 fields (``run/window/short/burgers-degenerate``);
  anisotropic-2d on 72x72 cells and burgers-degenerate on 4,100 cells, whose
  windows hold one field (cap 1), so the stage stencils measure them: some 35
  steps each, with a row every five or so steps falling between step times
  and snapshots at t = 0 and mid-run
  (``run/window/cap-1/cells-72x72/anisotropic-2d``,
  ``run/window/cap-1/cells-4100/burgers-degenerate``);
  and a burgers blow-up on 256 cells (windows of 32 fields) that lands some
  240 steps after its last stop, at t = 0 (``blow-up/window/burgers``);
- the audit and decay reports of a hand-built row-only trajectory with
  max-principle, energy, contraction, mean, budget-window and telescoping
  violations and decay not reached (``audit/row-only``), and of a run of
  burgers-degenerate's callables whose beta primitive is NaN beyond
  |u| = 1.1, from data reaching 1.15 (``audit/nan-dissipation``); and the
  CLI ``run`` of linear-advection from a sine of amplitude 1e160, whose
  every energy is inf, so its audit's energy line reads NaN
  (``audit/overflow/linear-advection``);
- validate_model reports (``validate/...``), and the scalar evaluator at a
  few states, one beyond the 1.05 state_bound span of a spline primitive:
  flux, speed, diffusion and sqrt_factor whole, and the beta and B
  primitives at every index (``scalar/...``);
- symbol_denominator at a few states and degeneracy_set_measure at two
  tolerances, for a few frequencies (``symbol/...``); omega_at at four
  frequencies, one of them resonant, and two lambdas, plus the value and
  witness of the one-lambda check_condition under the reduced plan
  (``omega/...``); the (tau, kappa) rows of the
  default plan, the reduced plan and the lattice plan of the configured
  grid's periods at delta 1, so that a plan edit shows as its points and
  not only as a point count (``plan/...``); and check_condition under the
  reduced plan, for the hand-built copies as they are (``check/whole/...``,
  ``check/bare/...``) and for the other models with blocks of 3 points, so
  that value ties cross block edges (``check/...``);
- inputs the solver and the condition checker must reject: run, step and
  run_lockstep on a CellField of twice the grid's cells and on an all-NaN
  one (``inputs/cell-fields``), a SamplingPlan with an infinite r_max,
  n_dir 0 or 4.5, n_resonant 1 or 2.5 or a zero lattice period (and its
  whole float counts n_dir 16.0 and n_resonant 3.0, which it keeps as
  int), and a FrequencyPoint with a NaN or infinite tau
  (``inputs/sampling-plan``); check_condition,
  omega_at and the one-lambda check_condition with a NaN or infinite lambda
  (``inputs/lambdas``); shell_radii with a NaN, zero or too large delta and
  check_condition with a NaN delta (``inputs/delta``); PeriodicGrid with
  fractional, float and numpy integer cell counts (``inputs/grid-cells``);
  init_field of profiles of one coordinate on 4x6 cells, of a scalar
  constant in 1-d and 2-d and of an (n, 2) return, and the final shape of a
  run from the x-only profile (``inputs/profiles``); make_initial of a
  directly built config with an unknown profile (``inputs/unknown-profile``);
  and data so large that
  a wave bound overflows: Poly.max_abs past 1e154, stable_dt, step and run
  of burgers-degenerate at 1e160 and of porous-medium at 1e308, and the
  CLI ``run`` at amplitude 1e160 (``inputs/overflow``);
- one adaptive_quadrature_batch call on NaN-padded cut rows (cuts outside
  the ends, at the ends, duplicated, -0.0 with 0.0) with reversed and
  zero-span limits, and one whose limits are all zero-span
  (``quadrature/batch-cuts``); the same two calls with a two-component
  integrand whose second component is a narrow peak, so the components
  refine different panels (``quadrature/vector``), and with the first
  integrand returned as a column view of an (nodes, 2) array, a strided 1-d
  return: a layout guard, as the panel sums must not depend on the layout
  the integrand returns (``quadrature/strided``);
- entropy_from_kinetic and entropy_flux_from_kinetic for a quadratic and a
  Kruzhkov entropy at a few states, zero among them, for a 1-d preset and
  two 2-d models (``entropy/...``);
- the bodies of the CLI ``run`` and ``check-condition`` artifacts, with the
  ``# generated`` time-stamp line dropped (``cli/...``). check-condition runs
  under the default plan, under a reduced plan (two lambdas, 64
  directions in 2-d) and under the lattice plan of a configured grid
  (unequal periods in 2-d), for every preset and for an inline 2-d model
  with an off-diagonal diffusion entry (coupled-cubic) on the default and
  lattice plans. ``cli/run/zero/...`` runs every preset from zero
  amplitude. ``cli/run/profile/<profile>/<1d|2d>`` runs each initial profile
  with snapshots at t = 0, mid-run and the end, on 12 cells of period 0.5 in
  1-d and on 12x10 cells with periods (1.0, 0.5) in 2-d, so that a swapped
  axis shows in the profile and in the snapshot CSVs. ``cli/run/off-diagonal-bump`` runs an inline 2-d model with
  an off-diagonal diffusion entry at 16x12 from a narrow Gaussian bump
  (patched in for the configured profile, which has no such option); its
  audit fails per step with VIOLATED lines. ``cli/sweep/...`` runs a cfl
  sweep with a blow-up row, a cells sweep in 2-d, an amplitude sweep and a
  lambda_floor sweep, keeping the exit code, stderr and stdout (the artifact
  directory masked).
"""

from __future__ import annotations

import ast
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

POLY_MODELS = {
    # a = 1 - 3u^2 has an interior extremum at u = 0.
    "poly-interior": ([(0.0, 1.0, 0.0, -1.0)], {(0, 0): (0.05, 0.0, 0.1)}, 1),
    "poly-bd": ([(0.0, 0.0, 0.5)], {(0, 0): (0.0, 0.0, 1.0)}, 1),
    "coupled-cubic": ([(0.0, 0.5, 0.2), (0.0, -0.4, 0.0, 0.3)],
                      {(0, 0): (0.4, 0.0, 0.3), (0, 1): (0.05, 0.0, 0.02),
                       (1, 1): (0.3, 0.1)}, 2),
}
CALLABLES = ("flux", "speed", "diffusion", "sqrt_factor", "b_primitive", "beta_primitive")
INLINE_CONFIG = """[model]
name = inline-interior
dimension = 1
f1 = 0, 1, 0, -1
A11 = 0.05, 0, 0.1
[grid]
cells = 96
[initial]
profile = multi-sine
amplitude = 0.9
[scheme]
t_end = 0.05
output_every = 0.01
"""
INLINE_2D_MODEL = """[model]
name = inline-coupled-cubic
dimension = 2
f1 = 0, 0.5, 0.2
f2 = 0, -0.4, 0, 0.3
A11 = 0.4, 0, 0.3
A12 = 0.05, 0, 0.02
A22 = 0.3, 0.1
"""
OFF_DIAGONAL_CONFIG = """[model]
name = off-diagonal
dimension = 2
f1 = 0, 0.5, 0.2
f2 = 0, -0.4
A11 = 0.4, 0, 0.3
A12 = 0.05, 0, 0.02
A22 = 0.3, 0.1
[grid]
cells = 16, 12
[scheme]
t_end = 1.0
"""


def _states():
    import numpy as np
    u = np.random.default_rng(11).uniform(-1.2, 1.2, 2001)
    u[:9] = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, -1e-300, 1.25)
    return u


def _whole(model, attrs):
    """A hand-built copy of ``model`` that supplies the callables ``attrs`` whole."""
    from anisolab.model import ModelSpec
    return ModelSpec(dimension=model.dimension, state_bound=model.state_bound, name=model.name,
                     **{attr: lambda u, fn=getattr(model, attr): fn(u)
                        for attr in attrs if getattr(model, attr) is not None})


def _models():
    from dataclasses import replace
    from anisolab.model import list_presets, polynomial_model, preset
    out = {name: preset(name) for name in list_presets()}
    for name, (flux, diff, d) in POLY_MODELS.items():
        out[name] = polynomial_model(name, flux, diff, d, 1.0)
    for name in list_presets() + ["coupled-cubic"]:
        out[f"whole/{name}"] = _whole(out[name], CALLABLES)
        out[f"bare/{name}"] = _whole(out[name], ("flux", "diffusion"))
    bd = out["burgers-degenerate"]
    out["replaced/burgers-degenerate"] = replace(bd, flux=lambda u: bd.flux(u),
                                                 beta_primitive=None)
    return out


def _run_setup(model, cells=None):
    import numpy as np
    from anisolab.solver import PeriodicGrid
    if model.dimension == 1:
        grid = PeriodicGrid.make([1.0], [cells or 64])
        profile = lambda x: 0.3 + 0.6 * np.sin(2 * np.pi * x)  # noqa: E731
    else:
        grid = PeriodicGrid.make([1.0, 1.0], list(cells or (16, 12)))
        profile = lambda x, y: 0.3 + 0.6 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)  # noqa: E731
    return grid, profile


def _trajectory_record(traj):
    return ([repr(vars(r)) for r in traj.rows], repr(vars(traj.stats)),
            traj.final.values.tobytes())


def _oneshot_case(model, batch=1, cells=None, seed=None):
    """hyperbolic_div, diffusion_div and parabolic_dissipation on the run cases' field;
    a ``batch`` of 2 stacks it with its negative, one of 3 with its half too. With a
    ``seed``, the batch is uniform on [-0.9, 0.9] from default_rng(seed) instead."""
    import numpy as np
    from anisolab.diagnostics import parabolic_dissipation
    from anisolab.solver import diffusion_div, hyperbolic_div, init_field
    grid, profile = _run_setup(model, cells)
    if seed is not None:
        values = np.random.default_rng(seed).uniform(-0.9, 0.9, (batch,) + grid.cells)
    else:
        values = init_field(grid, profile).values
        values = np.stack([values, -values, 0.5 * values][:batch]) if batch > 1 else values
    return pickle.dumps([_outcome(lambda op=op: op(model, values, grid).tobytes())
                         for op in (hyperbolic_div, diffusion_div)]
                        + [_outcome(lambda: parabolic_dissipation(model, values, grid))])


def _run_case(model, cells=None, integrator="ssp-rk2"):
    from anisolab.solver import SchemeConfig, run
    grid, profile = _run_setup(model, cells)
    traj = run(model, grid, profile,
               SchemeConfig(t_end=0.05, output_every=0.01, integrator=integrator))
    return pickle.dumps(_trajectory_record(traj))


def _step_case(model, cells=None, integrator="ssp-rk2"):
    from anisolab.solver import SchemeConfig, init_field, step
    grid, profile = _run_setup(model, cells)
    state = init_field(grid, profile)
    out = []
    for dt in [None] * 5 + [1e-4] * 5:
        state = step(state, model, grid, SchemeConfig(t_end=1.0, integrator=integrator), dt=dt)
        out.append((repr(state.time), state.values.tobytes()))
    return pickle.dumps(out)


def _lockstep_case(model, cells):
    """A lockstep pair on ``cells``, an int in 1-d or a pair of ints in 2-d."""
    import numpy as np
    from anisolab.solver import PeriodicGrid, SchemeConfig, run_lockstep
    if isinstance(cells, int):
        grid = PeriodicGrid.make([1.0], [cells])
        a, b = lambda x: np.sin(2 * np.pi * x), lambda x: 0.5 * np.cos(2 * np.pi * x)
    else:
        grid = PeriodicGrid.make([1.0, 1.0], list(cells))
        a = lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)  # noqa: E731
        b = lambda x, y: 0.5 * np.cos(2 * np.pi * (x + y))  # noqa: E731
    times, dists, fa, fb = run_lockstep(model, grid, a, b, SchemeConfig(t_end=0.03))
    return pickle.dumps((times, dists, fa.values.tobytes(), fb.values.tobytes()))


def _signed_zero_min():
    """The first 8 values drawn from default_rng(0) whose minimum, a zero, has one sign
    by np.minimum.reduce and the other at its first occurrence."""
    import numpy as np
    rng, levels = np.random.default_rng(0), np.array([0.0, -0.0, 0.25, 0.5, 0.75])
    while True:
        values = rng.choice(levels, 8)
        if np.signbit(np.minimum.reduce(values)) != np.signbit(values[values.argmin()]):
            return values


def _signed_zero_min_case(model, lockstep=False):
    """A run, stable_dt and one step, or a lockstep pair with the reversed data, of a
    1-d model from _signed_zero_min's data."""
    from anisolab.solver import PeriodicGrid, SchemeConfig, run, run_lockstep, stable_dt, step
    grid, values = PeriodicGrid.make([1.0], [8]), _signed_zero_min()
    scheme = SchemeConfig(t_end=0.05, output_every=0.01)
    if lockstep:
        times, dists, fa, fb = run_lockstep(model, grid, values, values[::-1].copy(), scheme)
        return pickle.dumps((times, dists, fa.values.tobytes(), fb.values.tobytes()))
    traj = run(model, grid, values, scheme)
    state = step(traj.final, model, grid, scheme)
    return pickle.dumps((_trajectory_record(traj), repr(stable_dt(model, values, grid)),
                         repr(state.time), state.values.tobytes()))


def _nan_beyond_model():
    """Burgers flux that is NaN beyond |u| = 1.2, so an unstable run turns cells NaN."""
    import numpy as np
    from anisolab.model import ModelSpec
    return ModelSpec(
        dimension=1, state_bound=1.0, name="nan-beyond",
        flux=lambda u: np.where(np.abs(u) <= 1.2, 0.5 * u * u, np.nan)[..., None],
        diffusion=lambda u: np.zeros(np.shape(u) + (1, 1)),
        speed=lambda u: np.asarray(u)[..., None])


def _viscous_only_model():
    """Zero flux with a nonzero speed and constant diffusion: no flux entry but speed
    entries, so the stage binds its flux terms and their alphas are not zero."""
    import numpy as np
    from anisolab.model import ModelSpec
    return ModelSpec(
        dimension=1, state_bound=1.0, name="viscous-only",
        flux=lambda u: np.zeros(np.shape(u) + (1,)),
        diffusion=lambda u: np.full(np.shape(u) + (1, 1), 0.05),
        speed=lambda u: np.asarray(u, dtype=float)[..., None])


def _window_run_case(model, cells, t_end, output_every=None, snapshot_every=None):
    """A run from t = 0 to t_end with rows every ``output_every``, by default one window:
    its record, its snapshots and the (t, field, row) of every hook call."""
    from anisolab.solver import SchemeConfig, run
    grid, profile = _run_setup(model, cells)
    calls = []
    traj = run(model, grid, profile, SchemeConfig(
        t_end=t_end, output_every=output_every or t_end, snapshot_every=snapshot_every),
        hooks=[lambda fld, row: calls.append((repr(fld.time), fld.values.tobytes(),
                                              repr(vars(row))))])
    snaps = [(repr(s.time), s.values.tobytes()) for s in traj.snapshots]
    return pickle.dumps((_trajectory_record(traj), snaps, calls))


def _blow_up_case(model, cells=32, output_every=None):
    import numpy as np
    from anisolab.solver import BlowUpError, PeriodicGrid, SchemeConfig, run
    try:
        run(model, PeriodicGrid.make([1.0], [cells]), lambda x: np.sin(2 * np.pi * x),
            SchemeConfig(t_end=10.0, cfl=2.0, output_every=output_every))
    except BlowUpError as exc:
        return pickle.dumps((str(exc), repr(exc.time), repr(exc.max_abs),
                             _trajectory_record(exc.trajectory)))
    return b"no blow-up"


def _row_only_audit_case():
    from anisolab.diagnostics import audit, decay_summary
    from anisolab.solver import DiagnosticsRow, PeriodicGrid, SchemeConfig, Trajectory
    # (t, mean, l1_to_mean, l2_energy, linf, dissipation_resolved, dissipation_budget)
    rows = [DiagnosticsRow(0.0, 0.1, 0.5, 0.4, 0.9, 0.0, 0.0),
            DiagnosticsRow(0.5, 0.1, 0.45, 0.3, 0.95, 0.2, 0.05),
            DiagnosticsRow(1.0, 0.1 + 1e-9, 0.47, 0.32, 0.8, 0.0, -0.01),
            DiagnosticsRow(1.5, 0.1, 0.3, 0.2, 0.7, 0.07, 0.07)]
    traj = Trajectory("hand-built", PeriodicGrid.make([1.0], [16]), SchemeConfig(t_end=1.5),
                      rows=rows, snapshots=[], stats=None)
    report, summary = audit(traj), decay_summary(traj)
    return pickle.dumps((report.lines(), json.dumps(report.as_dict()), repr(report.as_dict()),
                         summary.lines(), json.dumps(summary.as_dicts())))


def _nan_dissipation_audit_case():
    from dataclasses import replace
    import numpy as np
    from anisolab.diagnostics import audit
    from anisolab.model import preset
    from anisolab.solver import PeriodicGrid, SchemeConfig, run
    bd = preset("burgers-degenerate")
    model = replace(_whole(bd, CALLABLES), beta_primitive=lambda u: np.where(
        np.abs(u)[..., None, None] <= 1.1, bd.beta_primitive(u), np.nan))
    traj = run(model, PeriodicGrid.make([1.0], [64]), lambda x: 1.15 * np.sin(2 * np.pi * x),
               SchemeConfig(t_end=0.05, output_every=0.01))
    report = audit(traj)
    return pickle.dumps((_trajectory_record(traj), report.lines(), repr(report.as_dict())))


def _bounds_case(model):
    import numpy as np
    from anisolab.model import model_table
    from anisolab.solver import PeriodicGrid, stable_dt, CellField
    out = []
    for lo, hi in ((-0.3, 0.9), (-1.0, 1.0), (0.2, 0.7), (-1.1, -0.4)):
        alphas, lams = model_table(model).bounds(lo, hi)
        cells = [33] * model.dimension
        values = np.linspace(lo, hi, int(np.prod(cells))).reshape(cells)
        grid = PeriodicGrid.make([1.0] * model.dimension, cells)
        dt = stable_dt(model, CellField(values, 0.0), grid, output_every=1.0)
        out.append((np.asarray(alphas).tolist(), np.asarray(lams).tolist(), repr(dt)))
    return repr(out).encode()


def _scalar_case(model):
    from anisolab.model import evaluate
    d = model.dimension
    out = []
    for u in (-0.6, 0.0, 0.35, 0.9, 1.2):
        out.append([_outcome(lambda q=q: evaluate(model, q, u).tolist())
                    for q in ("flux", "speed", "diffusion", "sqrt_factor")])
        out.append([(evaluate(model, "beta_primitive", u, (i, j)),
                     evaluate(model, "b_primitive", u, (i, j)))
                    for i in range(d) for j in range(d)])
    return repr(out).encode()


def _symbol_case(model):
    from anisolab.kinetic import FrequencyPoint, degeneracy_set_measure, symbol_denominator
    out = []
    for tau, kappa in ((0.0, (1.0, 0.5)), (-1.0, (1.0, -1.0)), (0.3, (-2.5, 4.0)),
                       (2.0, (0.0, 0.0))):
        fp = FrequencyPoint(tau, kappa[:model.dimension])
        out.append([symbol_denominator(model, fp, xi, lam)
                    for xi in (-0.9, 0.0, 0.37, 1.0) for lam in (1e-6, 0.1)])
        out.append((degeneracy_set_measure(model, fp),
                    degeneracy_set_measure(model, fp, tol=0.05, n_samples=2001)))
    return repr(out).encode()


def _reduced_plan(model):
    from anisolab.kinetic import SamplingPlan
    return SamplingPlan(n_dir=64 if model.dimension == 2 else None)


def _omega_case(model):
    import numpy as np
    from anisolab.kinetic import FrequencyPoint, check_condition, omega_at
    from anisolab.model import speed_vector
    d = model.dimension
    kappa = (1.0, -0.5)[:d]
    # tau + a(xi).kappa vanishes at xi = 0.3 on the last frequency.
    resonant = -float(np.dot(speed_vector(model, 0.3), kappa))
    out = [repr(omega_at(model, FrequencyPoint(tau, kap[:d]), lam))
           for tau, kap in ((0.0, (1.0, 0.5)), (0.3, (-2.5, 4.0)), (2.0, (0.0, 0.0)),
                            (resonant, kappa))
           for lam in (0.1, 1e-5)]
    report = check_condition(model, 1.0, [1e-4], _reduced_plan(model))
    return repr((out, report.omegas[0], report.witnesses[0])).encode()


def _check_case(model):
    from anisolab.kinetic import check_condition
    report = check_condition(model, lambdas=[0.1, 1e-6], sampling=_reduced_plan(model))
    return pickle.dumps((report.lines(), repr(report.omegas), repr(report.witnesses),
                         report.points, repr(report.max_error_estimate)))


def _plan_case(model):
    """The (tau, kappa) rows of the default, reduced and lattice plans at delta 1."""
    from anisolab.kinetic import SamplingPlan
    periods = (1.0, 0.5) if model.dimension == 2 else (1.0,)
    plans = (SamplingPlan(), _reduced_plan(model), SamplingPlan(lattice=True, periods=periods))
    return repr([[(fp.tau, fp.kappa) for fp in plan.frequency_points(model, 1.0)]
                 for plan in plans]).encode()


def _blocked_check_case(model):
    with mock.patch("anisolab.kinetic.OMEGA_BLOCK", 3):
        return _check_case(model)


def _batch_cuts_case(form="scalar"):
    """The batch-cuts calls; a "vector" form's second component is a narrow peak."""
    import numpy as np
    from anisolab.quadrature import adaptive_quadrature_batch
    nan = np.nan
    kinks = np.array([0.3, 0.0, 1.5, 0.5, 0.1, 0.0, -0.3])

    def fn(x, owner):
        return np.sqrt(np.abs(x - kinks[owner])) + np.cos(3.0 * owner * x)

    def peak(x, owner):
        return np.exp(-x * x) / (0.01 + (x - kinks[owner]) ** 2)

    def both(x, owner):
        return np.stack([fn(x, owner), peak(x, owner)])

    def strided(x, owner):
        return np.column_stack([fn(x, owner), peak(x, owner)])[:, 0]

    integrand = {"scalar": fn, "vector": both, "strided": strided}[form]
    a = [-1.0, 1.0, 1.5, 0.0, 2.0, 0.5, -0.3]
    b = [1.0, -1.0, 1.5, 1.0, -0.5, -0.25, -0.3]
    cuts = np.array([[0.3, nan, nan, nan], [-0.0, 0.0, 0.5, 0.5], [1.5, nan, nan, nan],
                     [-3.0, 0.0, 1.0, 0.5], [0.1, 9.0, 0.1, nan], [0.0, -0.0, nan, -0.25],
                     [-0.3, nan, nan, nan]])
    out = [adaptive_quadrature_batch(integrand, a, b, abs_tol=1e-11, breakpoints=cuts),
           adaptive_quadrature_batch(integrand, [1.0, -2.0], [1.0, -2.0], breakpoints=cuts[:2])]
    return pickle.dumps([(v.tobytes(), e.tobytes(), v.shape) for v, e in out])


def _entropy_case(model):
    import numpy as np
    from anisolab.kinetic import entropy_flux_from_kinetic, entropy_from_kinetic
    kink = 0.3
    out = []
    for s_prime, cuts in ((lambda xi: 2.0 * xi, ()), (lambda xi: np.sign(xi - kink), (kink,))):
        for u in (-0.8, 0.0, 0.45, 0.9):
            out.append((entropy_from_kinetic(s_prime, u, breakpoints=cuts),
                        entropy_flux_from_kinetic(s_prime, u, model, breakpoints=cuts).tolist()))
    return repr(out).encode()


def _sweep_case(config_text):
    import contextlib
    import io
    from anisolab.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "case.cfg"
        cfg.write_text(config_text, encoding="utf-8")
        out, stdout, stderr = Path(tmp) / "out", io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        return pickle.dumps((code, stdout.getvalue().replace(str(out), "<out>"),
                             stderr.getvalue(), _artifacts(out)))


def _artifacts(directory):
    parts = []
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            body = "".join(l for l in lines if not l.startswith("# generated"))
            parts.append((str(path.relative_to(directory)), body))
    return pickle.dumps(parts)


def _bump_initial(cfg, grid):
    import numpy as np
    from anisolab.solver import init_field
    return init_field(grid, lambda x, y: np.exp(-100.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2)))


def _cli_case(args, config_text=None):
    from anisolab.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(args)
        if config_text is not None:
            cfg = Path(tmp) / "case.cfg"
            cfg.write_text(config_text, encoding="utf-8")
            argv += ["--config", str(cfg)]
        out = Path(tmp) / "out"
        code = main(argv + ["--out", str(out), "--quiet"])
        return pickle.dumps((code, _artifacts(out)))


def _run_config(name, dimension, amplitude=0.95):
    cells, t_end = ("128", "0.02") if dimension == 1 else ("24, 24", "0.005")
    return (f"[model]\npreset = {name}\n[grid]\ncells = {cells}\n[initial]\n"
            f"profile = multi-sine\namplitude = {amplitude}\n[scheme]\nt_end = {t_end}\n"
            f"output_every = {float(t_end) / 4!r}\n")


def _profile_config(profile, dimension):
    name, grid = (("burgers-degenerate", "cells = 12\nperiods = 0.5\n") if dimension == 1
                  else ("anisotropic-2d", "cells = 12, 10\nperiods = 1.0, 0.5\n"))
    return (f"[model]\npreset = {name}\n[grid]\n{grid}[initial]\nprofile = {profile}\n"
            "amplitude = 0.9\nseed = 7\n[scheme]\nt_end = 0.002\nsnapshot_every = 0.001\n")


def _unknown_profile_case():
    from anisolab.config import ExperimentConfig, make_grid, make_initial
    cfg = ExperimentConfig(profile="triangle", cells=(8,))
    return _outcome(lambda: make_initial(cfg, make_grid(cfg))).encode()


def _reduced_plan_config(name, dimension):
    text = f"[model]\npreset = {name}\n[grid]\ncells = {'64, 64' if dimension == 2 else '256'}\n"
    text += "[condition]\nlambdas = 0.1, 1e-06\n"
    return text + ("n_dir = 64\n" if dimension == 2 else "")


def _lattice_grid(dimension):
    grid = "cells = 48, 40\nperiods = 1.0, 0.5\n" if dimension == 2 else "cells = 256\n"
    return f"[grid]\n{grid}[condition]\nlattice = true\n"


def _outcome(fn):
    """repr of what fn returns, or the error it raises."""
    try:
        return repr(fn())
    except Exception as exc:  # a raised error is an outcome like any other
        return f"raised {type(exc).__name__}: {exc}"


def _cell_field_case():
    import numpy as np
    from anisolab.model import preset
    from anisolab.solver import CellField, PeriodicGrid, SchemeConfig, run, run_lockstep, step
    m, grid, scheme = preset("burgers"), PeriodicGrid.make([1.0], [64]), SchemeConfig(t_end=0.05)
    out = []
    for values in (np.sin(2 * np.pi * (np.arange(128) + 0.5) / 128), np.full(64, np.nan)):
        fld = CellField(values)
        out += [_outcome(lambda: run(m, grid, fld, scheme).stats.steps),
                _outcome(lambda: step(fld, m, grid, scheme).values.shape),
                _outcome(lambda: run_lockstep(m, grid, fld, fld, scheme)[1][-1])]
    return repr(out).encode()


def _sampling_plan_case():
    import math
    from anisolab.kinetic import FrequencyPoint, SamplingPlan
    from anisolab.model import preset
    zero_period = dict(lattice=True, periods=(0.0,))
    out = [_outcome(lambda f=f: SamplingPlan(**f))
           for f in (dict(r_max=math.inf), dict(n_dir=0), dict(n_resonant=1), zero_period,
                     dict(n_dir=4.5), dict(n_dir=16.0), dict(n_resonant=2.5),
                     dict(n_resonant=3.0))]
    out.append(_outcome(lambda: len(
        SamplingPlan(**zero_period).frequency_points(preset("burgers"), 1.0))))
    out += [_outcome(lambda t=t: FrequencyPoint(t, (1.0,))) for t in (math.nan, math.inf)]
    return repr(out).encode()


def _lambdas_case():
    import math
    from anisolab.kinetic import FrequencyPoint, check_condition, omega_at
    from anisolab.model import preset
    m = preset("burgers")
    plan = _reduced_plan(m)
    out = [_outcome(lambda l=l: check_condition(m, lambdas=l, sampling=plan).omegas)
           for l in ((0.1, math.nan), (math.inf, 0.1))]
    for lam in (math.nan, math.inf):
        out += [_outcome(lambda: omega_at(m, FrequencyPoint(1.0, (1.0,)), lam)),
                _outcome(lambda: check_condition(m, 1.0, [lam], plan).omegas[0])]
    return repr(out).encode()


def _delta_case():
    import math
    from anisolab.kinetic import SamplingPlan, check_condition
    from anisolab.model import preset
    out = [_outcome(lambda d=d: SamplingPlan().shell_radii(d)) for d in (math.nan, 0.0, 2e3)]
    out.append(_outcome(lambda: check_condition(preset("burgers"), delta=math.nan).omegas))
    return repr(out).encode()


def _grid_cells_case():
    import numpy as np
    from anisolab.solver import PeriodicGrid
    builds = (lambda: PeriodicGrid(1, (1.0,), (10.5,)), lambda: PeriodicGrid.make([1.0], [10.7]),
              lambda: PeriodicGrid(1, (1.0,), (10.0,)), lambda: PeriodicGrid.make([1.0], [10]),
              lambda: PeriodicGrid.make([1.0, 2.0], np.array([8, 16], dtype=np.int64)))
    return repr([_outcome(b) for b in builds]).encode()


def _profiles_case():
    import numpy as np
    from anisolab.model import preset
    from anisolab.solver import PeriodicGrid, SchemeConfig, init_field, run
    line, box = PeriodicGrid.make([1.0], [8]), PeriodicGrid.make([1.0, 1.0], [4, 6])
    out = [_outcome(lambda g=g, p=p: init_field(g, p).values.tobytes()) for g, p in (
        (box, lambda x, y: np.sin(2 * np.pi * x)), (box, lambda x, y: np.cos(2 * np.pi * y)),
        (line, lambda x: 0.5), (box, lambda x, y: 0.5), (line, lambda x: x[:, :2]))]
    out.append(_outcome(lambda: run(preset("anisotropic-2d"), box, lambda x, y: np.sin(
        2 * np.pi * x), SchemeConfig(t_end=0.01)).final.values.shape))
    return repr(out).encode()


def _overflow_case():
    import contextlib
    import io
    import numpy as np
    from anisolab.model import Poly, preset
    from anisolab.solver import PeriodicGrid, SchemeConfig, init_field, run, stable_dt, step
    grid = PeriodicGrid.make([1.0], [32])
    out = [_outcome(lambda: Poly((0.0, 0.0, 1.0)).max_abs(-1e160, 1e160))]
    with np.errstate(over="ignore", invalid="ignore"):
        for name, amplitude in (("burgers-degenerate", 1e160), ("porous-medium", 1e308)):
            m = preset(name)
            fld = init_field(grid, lambda x, a=amplitude: a * np.sin(2 * np.pi * x))
            out += [_outcome(lambda: stable_dt(m, fld, grid)),
                    _outcome(lambda: step(fld, m, grid, SchemeConfig(t_end=1.0)).time),
                    _outcome(lambda: run(m, grid, fld, SchemeConfig(
                        t_end=1.0, output_every=0.5)).stats.steps)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            out.append(_outcome(lambda: _cli_case(
                ["run"], _run_config("burgers-degenerate", 1, 1e160))))
    return repr(out + [stderr.getvalue()]).encode()


def cases():
    """(name, thunk) pairs; each thunk returns bytes."""
    from dataclasses import replace
    import numpy as np
    from anisolab.model import list_presets, validate_model
    u = _states()
    models = _models()
    for name, model in models.items():
        for attr in CALLABLES:
            fn = getattr(model, attr)
            yield (f"callables/{name}/{attr}",
                   lambda fn=fn: b"None" if fn is None else np.asarray(fn(u)).tobytes())
        yield f"bounds/{name}", lambda m=model: _bounds_case(m)
        yield f"run/{name}", lambda m=model: _run_case(m)
        yield f"step/{name}", lambda m=model: _step_case(m)
        yield f"validate/{name}", lambda m=model: "\n".join(validate_model(m).lines()).encode()
        yield f"scalar/{name}", lambda m=model: _scalar_case(m)
        yield f"symbol/{name}", lambda m=model: _symbol_case(m)
        yield f"omega/{name}", lambda m=model: _omega_case(m)
        yield f"plan/{name}", lambda m=model: _plan_case(m)
        if name.startswith(("whole/", "bare/")):
            yield f"check/{name}", lambda m=model: _check_case(m)
        elif "/" not in name:
            yield f"check/{name}", lambda m=model: _blocked_check_case(m)
        if name in POLY_MODELS or "/" in name:
            continue
        yield (f"cli/run/{name}",
               lambda n=name, d=model.dimension: _cli_case(["run"], _run_config(n, d)))
        yield (f"cli/run/zero/{name}",
               lambda n=name, d=model.dimension: _cli_case(["run"], _run_config(n, d, 0.0)))
        yield (f"cli/check-condition/default/{name}",
               lambda n=name: _cli_case(["check-condition", "--model", n]))
        yield (f"cli/check-condition/reduced/{name}",
               lambda n=name, d=model.dimension: _cli_case(
                   ["check-condition"], _reduced_plan_config(n, d)))
        yield (f"cli/check-condition/lattice/{name}",
               lambda n=name, d=model.dimension: _cli_case(
                   ["check-condition"], f"[model]\npreset = {n}\n" + _lattice_grid(d)))

    yield ("run/lockstep/burgers-degenerate",
           lambda: _lockstep_case(models["burgers-degenerate"], 48))
    yield ("run/lockstep/cells-7/burgers-degenerate",
           lambda: _lockstep_case(models["burgers-degenerate"], 7))
    yield "run/signed-zero-min/1d", lambda: _signed_zero_min_case(models["burgers-degenerate"])
    yield ("run/signed-zero-min/lockstep",
           lambda: _signed_zero_min_case(models["burgers-degenerate"], lockstep=True))
    for name in ("burgers-degenerate", "porous-medium", "bare/burgers-degenerate"):
        for n in (4, 5):
            model = models[name]
            yield f"run/cells-{n}/{name}", lambda m=model, n=n: _run_case(m, n)
            yield f"step/cells-{n}/{name}", lambda m=model, n=n: _step_case(m, n)
            yield f"run/lockstep/cells-{n}/{name}", lambda m=model, n=n: _lockstep_case(m, n)
    for name, cells in (("coupled-cubic", (4, 5)), ("coupled-cubic", (5, 4)),
                        ("anisotropic-2d", (4, 4)), ("coupled-cubic", (8, 16))):
        tag, model = "x".join(map(str, cells)), models[name]
        yield f"run/cells-{tag}/{name}", lambda m=model, c=cells: _run_case(m, c)
        yield f"step/cells-{tag}/{name}", lambda m=model, c=cells: _step_case(m, c)
        yield f"run/lockstep/cells-{tag}/{name}", lambda m=model, c=cells: _lockstep_case(m, c)
    yield ("run/cells-16x16/anisotropic-2d",
           lambda: _run_case(models["anisotropic-2d"], (16, 16)))
    for name in ("burgers-degenerate", "porous-medium", "anisotropic-2d"):
        model = models[name]
        yield f"run/euler/{name}", lambda m=model: _run_case(m, integrator="euler")
        yield f"step/euler/{name}", lambda m=model: _step_case(m, integrator="euler")
    coupled = models["coupled-cubic"]
    oneshot = {name: models[name] for name in (*list_presets(), "coupled-cubic",
                                               "whole/burgers-degenerate")}
    oneshot["spline/coupled-cubic"] = replace(coupled, b_primitive=None, beta_primitive=None)
    for name, model in oneshot.items():
        yield f"oneshot/{name}", lambda m=model: _oneshot_case(m)
    yield "oneshot/batch/coupled-cubic", lambda: _oneshot_case(coupled, batch=2)
    yield ("oneshot/batch-3/burgers-degenerate",
           lambda: _oneshot_case(models["burgers-degenerate"], batch=3, cells=5))
    yield ("oneshot/batch-3/cells-4x6/anisotropic-2d",
           lambda: _oneshot_case(models["anisotropic-2d"], batch=3, cells=(4, 6)))
    yield ("oneshot/batch-2/cells-256/burgers-degenerate",
           lambda: _oneshot_case(models["burgers-degenerate"], batch=2, cells=256, seed=0))
    viscous = _viscous_only_model()
    yield "oneshot/viscous-only", lambda: _oneshot_case(viscous)
    yield "step/viscous-only", lambda: _step_case(viscous)
    yield "cli/run/inline-interior", lambda: _cli_case(["run"], INLINE_CONFIG)
    for profile in ("sine", "multi-sine", "square-wave", "random"):
        for d in (1, 2):
            yield (f"cli/run/profile/{profile}/{d}d",
                   lambda p=profile, d=d: _cli_case(["run"], _profile_config(p, d)))
    yield "blow-up/burgers", lambda: _blow_up_case(models["burgers"])
    yield "blow-up/nan-beyond", lambda: _blow_up_case(_nan_beyond_model())
    yield ("run/window/burgers-degenerate",
           lambda: _window_run_case(models["burgers-degenerate"], 64, 0.05))
    yield ("run/window/cells-8x8/anisotropic-2d",
           lambda: _window_run_case(models["anisotropic-2d"], (8, 8), 0.2))
    yield ("run/window/porous-medium",
           lambda: _window_run_case(models["porous-medium"], 64, 0.01))
    yield ("run/window/whole/burgers-degenerate",
           lambda: _window_run_case(models["whole/burgers-degenerate"], 64, 0.05))
    yield ("run/window/short/burgers-degenerate",
           lambda: _window_run_case(models["burgers-degenerate"], 256, 6e-4, 1.5e-5))
    yield ("run/window/cap-1/cells-72x72/anisotropic-2d", lambda: _window_run_case(
        models["anisotropic-2d"], (72, 72), 0.0014, 0.0002, 0.00071))
    yield ("run/window/cap-1/cells-4100/burgers-degenerate", lambda: _window_run_case(
        models["burgers-degenerate"], 4100, 4.4e-7, 6.3e-8, 2.2e-7))
    yield "blow-up/window/burgers", lambda: _blow_up_case(models["burgers"], 256, 10.0)
    yield "audit/overflow/linear-advection", lambda: _outcome(lambda: _cli_case(
        ["run"], "[model]\npreset = linear-advection\n[grid]\ncells = 64\n[initial]\n"
        "profile = sine\namplitude = 1e160\n[scheme]\nt_end = 0.05\n")).encode()
    yield "audit/row-only", _row_only_audit_case
    yield "audit/nan-dissipation", _nan_dissipation_audit_case

    def off_diagonal_bump():
        with mock.patch("anisolab.cli.make_initial", _bump_initial):
            return _cli_case(["run"], OFF_DIAGONAL_CONFIG)
    yield "cli/run/off-diagonal-bump", off_diagonal_bump
    yield ("cli/check-condition/default/inline-coupled-cubic",
           lambda: _cli_case(["check-condition"], INLINE_2D_MODEL))
    yield ("cli/check-condition/lattice/inline-coupled-cubic",
           lambda: _cli_case(["check-condition"], INLINE_2D_MODEL + _lattice_grid(2)))
    yield "quadrature/batch-cuts", _batch_cuts_case
    yield "quadrature/vector", lambda: _batch_cuts_case("vector")
    yield "quadrature/strided", lambda: _batch_cuts_case("strided")
    for name in ("burgers", "anisotropic-2d", "coupled-cubic"):
        yield f"entropy/{name}", lambda m=models[name]: _entropy_case(m)
    yield "inputs/cell-fields", _cell_field_case
    yield "inputs/sampling-plan", _sampling_plan_case
    yield "inputs/lambdas", _lambdas_case
    yield "inputs/delta", _delta_case
    yield "inputs/grid-cells", _grid_cells_case
    yield "inputs/profiles", _profiles_case
    yield "inputs/unknown-profile", _unknown_profile_case
    yield "inputs/overflow", _overflow_case
    yield ("cli/sweep/cfl", lambda: _sweep_case(
        "[model]\npreset = burgers\n[grid]\ncells = 32\n[scheme]\nt_end = 10.0\n"
        "[sweep]\naxis = cfl\nvalues = 0.4, 2.0\n"))
    yield ("cli/sweep/cells", lambda: _sweep_case(
        "[model]\npreset = anisotropic-2d\n[scheme]\nt_end = 0.002\n"
        "[sweep]\naxis = cells\nvalues = 8, 12\n"))
    yield ("cli/sweep/amplitude", lambda: _sweep_case(
        "[model]\npreset = burgers-degenerate\n[grid]\ncells = 32\n[scheme]\nt_end = 0.01\n"
        "[sweep]\naxis = amplitude\nvalues = 0.5, 0.9\n"))
    yield ("cli/sweep/lambda_floor", lambda: _sweep_case(
        "[model]\npreset = burgers\n[condition]\nn_dir = 8\nr_max = 4.0\n"
        "[sweep]\naxis = lambda_floor\nvalues = 0.01, 1e-05\n"))


def child(result_path, only):
    results = {}
    for name, thunk in cases():
        if only and only not in name:
            continue
        try:
            results[name] = thunk()
        except Exception as exc:  # a raised error is an output like any other
            results[name] = f"raised {type(exc).__name__}: {exc}".encode()
    with open(result_path, "wb") as fh:
        pickle.dump(results, fh)


# A number in a text: the texts of two cases whose other characters agree
# differ only in these, which are then compared as numbers.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b)")


def _differing_leaves(old, new, path=""):
    """(path, old, new) for every leaf at which two case values differ.

    Lists and tuples of one length are walked; bytes are unpickled, read as
    a Python literal (a repr'd list), decoded as text or read as a float
    array (each element a leaf); texts whose non-numeric parts agree are
    compared number by number, other texts line by line. Anything else is
    one leaf, compared by its repr.
    """
    if isinstance(old, (list, tuple)) and isinstance(new, (list, tuple)) and len(old) == len(new):
        for k, (a, b) in enumerate(zip(old, new)):
            yield from _differing_leaves(a, b, f"{path}[{k}]")
    elif isinstance(old, bytes) and isinstance(new, bytes):
        if old != new:
            yield from _bytes_leaves(old, new, path)
    elif isinstance(old, str) and isinstance(new, str):
        if old != new:
            yield from _text_leaves(old, new, path)
    elif repr(old) != repr(new):
        yield path, old, new


def _bytes_leaves(old, new, path):
    for loads in (pickle.loads, lambda raw: ast.literal_eval(raw.decode("utf-8")),
                  lambda raw: raw.decode("utf-8")):
        try:
            a, b = loads(old), loads(new)
        except Exception:  # not that encoding; try the next one
            continue
        yield from _differing_leaves(a, b, path)
        return
    if len(old) == len(new) and len(old) % 8 == 0:
        import numpy as np
        a, b = np.frombuffer(old, float), np.frombuffer(new, float)
        for k in np.flatnonzero(a.view(np.int64) != b.view(np.int64)):
            yield f"{path}[{k}]", float(a[k]), float(b[k])
    else:
        yield path, f"{len(old)} bytes", f"{len(new)} bytes"


def _text_leaves(old, new, path):
    a, b = _NUMBER.split(old), _NUMBER.split(new)
    if len(a) == len(b) and a[::2] == b[::2]:
        for k in range(1, len(a), 2):
            if a[k] != b[k]:
                yield f"{path} number {k // 2 + 1}", float(a[k]), float(b[k])
        return
    a, b = old.splitlines(), new.splitlines()
    for k in range(max(len(a), len(b))):
        x, y = (a[k] if k < len(a) else None), (b[k] if k < len(b) else None)
        if x != y:
            yield f"{path} line {k + 1}", x, y


def _describe(old, new):
    """A one-line account of how two case values differ: how many leaves,
    the largest absolute and relative change among the numeric ones, and
    the first leaf."""
    leaves = list(_differing_leaves(old, new))
    if not leaves:
        return "the same values in other bytes"
    changes = []
    for path, a, b in leaves:
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            change = abs(a - b)
            scale = max(abs(a), abs(b))
            changes.append((change, change / scale if scale else change, path))
    path, a, b = leaves[0]
    text = f"{len(leaves)} differing leaves, {len(changes)} numeric"
    if changes:
        # NaN changes rank lowest.
        big = max(changes, key=lambda c: (c[0] == c[0], c[0]))
        rel = max(changes, key=lambda c: (c[1] == c[1], c[1]))
        text += (f"; largest change {big[0]:.3g} absolute at {big[2].strip()}, "
                 f"{rel[1]:.3g} relative at {rel[2].strip()}")
    return f"{text}; first at {path.strip()}: {str(a)[:100]!r} -> {str(b)[:100]!r}"


def main(argv):
    if argv[:1] == ["--child"]:
        child(argv[1], argv[2] if len(argv) > 2 else "")
        return 0
    only = ""
    if "--only" in argv:
        k = argv.index("--only")
        only = argv[k + 1]
        argv = argv[:k] + argv[k + 2:]
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        procs = []
        for k, src in enumerate(argv):
            path = os.path.join(tmp, f"tree{k}.pkl")
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            procs.append((path, subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--child", path, only], env=env)))
        for path, proc in procs:
            if proc.wait() != 0:
                print(f"child for {path} failed", file=sys.stderr)
                return 2
            with open(path, "rb") as fh:
                results.append(pickle.load(fh))
    old, new = results
    differ = 0
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        if a != b:
            differ += 1
            what = "missing on one side" if a is None or b is None else _describe(a, b)
            print(f"DIFF {name}: {what}")
    print(f"{differ} of {len(set(old) | set(new))} cases differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
