"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test prints a single verdict line (visible with -s or in captured
output) naming the criterion, the measured quantity, and the bound.
The heavy preset runs are shared through module-scoped fixtures; the
whole module is a few minutes of compute, dominated by the t_end=5
integrations and the decay controls.
"""

import math
import time

import numpy as np
import pytest

from anisolab.config import lcg_values
from anisolab.diagnostics import audit, decay_summary, refinement_study
from anisolab.kinetic import (
    FrequencyPoint,
    check_condition,
    entropy_from_kinetic,
    omega_at,
)
from anisolab.model import (
    ModelSpec,
    polynomial_model,
    preset,
    validate_model,
)
from anisolab.solver import PeriodicGrid, SchemeConfig, run, run_lockstep

PRESET_NAMES = (
    "linear-advection",
    "burgers",
    "burgers-degenerate",
    "porous-medium",
    "anisotropic-2d",
)

HEAT = polynomial_model("heat", [(0.0,)], {(0, 0): (1.0,)}, 1, 1.0)


def _report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {verdict} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def sin1(x):
    return np.sin(2.0 * np.pi * x)


def sin2(x, y):
    return np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)


@pytest.fixture(scope="module")
def preset_runs():
    """The five standard runs: sin data, N=256 / 128 x 128, t_end = 5."""
    runs = {}
    for name in PRESET_NAMES:
        model = preset(name)
        if model.dimension == 1:
            grid = PeriodicGrid.make([1.0], [256])
            profile = sin1
        else:
            grid = PeriodicGrid.make([1.0, 1.0], [128, 128])
            profile = sin2
        runs[name] = run(model, grid, profile,
                         SchemeConfig(t_end=5.0, output_every=0.25))
    return runs


@pytest.fixture(scope="module")
def decay_runs():
    """Positive decay controls at two resolutions each."""
    out = {}
    for name, t_end, cadence in (("burgers", 10.0, 0.02),
                                 ("porous-medium", 2.0, 0.005)):
        model = preset(name)
        for n in (256, 512):
            grid = PeriodicGrid.make([1.0], [n])
            out[(name, n)] = run(model, grid, sin1,
                                 SchemeConfig(t_end=t_end, output_every=cadence))
    return out


# -- criterion 1: omega against the arctan closed form -------------------------

def test_criterion_01_omega_matches_arctan_oracle():
    model = preset("burgers")
    big = model.state_bound
    worst = 0.0
    t0 = time.perf_counter()
    for lam in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6):
        root = math.sqrt(lam)
        for tau in (-2.0, -0.5, 0.0, 0.7, 1.5):
            for kap in (0.25, 0.5, 1.0, 2.0, 4.0):
                got = omega_at(model, FrequencyPoint(tau, (kap,)), lam)
                want = (root / kap) * (
                    math.atan((tau + kap * big) / root)
                    - math.atan((tau - kap * big) / root))
                worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    _report(1, "arctan oracle 5x5x5", worst <= 1e-8 and elapsed < 1.0,
            f"worst |err| {worst:.2e} <= 1e-08, {elapsed:.2f}s < 1s")


# -- criterion 2: condition verdicts -------------------------------------------

def test_criterion_02_condition_verdicts():
    t0 = time.perf_counter()
    adv = check_condition(preset("linear-advection"))
    t_adv = time.perf_counter() - t0
    t0 = time.perf_counter()
    bur = check_condition(preset("burgers"))
    t_bur = time.perf_counter() - t0
    t0 = time.perf_counter()
    por = check_condition(preset("porous-medium"))
    t_por = time.perf_counter() - t0

    witness = adv.witnesses[-1]
    resonant = abs(witness.tau + witness.kappa[0]) < 1e-9
    ok = (
        adv.verdict == "fail"
        and all(om >= 2.0 - 1e-6 for om in adv.omegas)
        and resonant
        and bur.verdict == "pass" and bur.omegas[-1] < 0.05 * 2.0
        and por.verdict == "pass" and por.omegas[-1] < 0.05 * 2.0
        and max(t_adv, t_bur, t_por) < 30.0
    )
    _report(2, "condition verdicts",
            ok,
            f"advection fail (min omega {min(adv.omegas):.6f} >= 2-1e-6, "
            f"resonant witness), burgers {bur.omegas[-1]:.2e} and porous "
            f"{por.omegas[-1]:.2e} < 1e-1; slowest {max(t_adv, t_bur, t_por):.1f}s < 30s")


# -- criteria 3, 4, 6, 7: structural guarantees on the preset runs -------------

def test_criterion_03_maximum_principle(preset_runs):
    worst = {n: t.stats.max_principle_violation for n, t in preset_runs.items()}
    peak = max(worst.values())
    _report(3, "maximum principle", peak <= 1e-10,
            f"worst violation {peak:.2e} <= 1e-10 across {len(worst)} presets")


def test_criterion_04_energy_monotonicity(preset_runs):
    worst = {n: t.stats.energy_max_step_jump for n, t in preset_runs.items()}
    peak = max(worst.values())
    _report(4, "energy monotone per step", peak <= 1e-12,
            f"worst step jump {peak:.2e} <= 1e-12")


def test_criterion_05_l1_contraction_lockstep():
    grid = PeriodicGrid.make([1.0], [128])

    def bump_a(x):
        return 0.8 * np.exp(-100.0 * (x - 0.3) ** 2) \
            - 0.5 * np.exp(-150.0 * (x - 0.7) ** 2)

    def bump_b(x):
        # Sign-changing perturbation: the distance must strictly shrink,
        # not just stay constant by mass conservation.
        return bump_a(x) + 0.4 * np.exp(-200.0 * (x - 0.5) ** 2) \
            - 0.3 * np.exp(-200.0 * (x - 0.85) ** 2)

    times, dists, _, _ = run_lockstep(
        preset("burgers-degenerate"), grid, bump_a, bump_b,
        SchemeConfig(t_end=2.0, output_every=0.1))
    jumps = [b - a for a, b in zip(dists, dists[1:])]
    worst = max(jumps) if jumps else 0.0
    shrank = dists[-1] < dists[0]
    _report(5, "L1 contraction", worst <= 1e-12 and shrank,
            f"worst jump {worst:.2e} <= 1e-12 over {len(times)} output times, "
            f"distance {dists[0]:.4f} -> {dists[-1]:.4f}")


def test_criterion_06_mean_conservation(preset_runs):
    worst = max(abs(t.stats.mean_drift) for t in preset_runs.values())
    _report(6, "mean conservation", worst <= 1e-12,
            f"worst |mean drift| {worst:.2e} <= 1e-12")


def test_criterion_07_dissipation_budget(preset_runs):
    worst_gap = 0.0
    violations = 0
    worst_global = 0.0
    for traj in preset_runs.values():
        report = audit(traj)
        worst_gap = max(worst_gap, report.telescope_gap)
        violations += report.budget_violations
        worst_global = max(worst_global, report.global_budget_excess)
    ok = worst_gap <= 1e-12 and violations == 0 and worst_global <= 1e-12
    _report(7, "dissipation budget", ok,
            f"telescope gap {worst_gap:.2e} <= 1e-12, window violations "
            f"{violations} == 0, global excess {worst_global:.2e} <= 1e-12")


# -- criterion 8: decay positive controls --------------------------------------

def test_criterion_08_decay_positive_controls(decay_runs):
    details = []
    ok = True
    for name in ("burgers", "porous-medium"):
        reach = {}
        for n in (256, 512):
            traj = decay_runs[(name, n)]
            ds = decay_summary(traj, thresholds=(0.05,))
            reach[n] = ds.times[0]
            if ds.times[0] is None:
                ok = False
        if ok and reach[256] is not None and reach[512] is not None:
            rel = abs(reach[512] - reach[256]) / reach[512]
            ok = ok and rel <= 0.10
            details.append(f"{name} reached at t={reach[512]:.3f} "
                           f"(grid shift {100 * rel:.1f}% <= 10%)")
        else:
            details.append(f"{name} did not reach 0.05 of initial")
    _report(8, "decay positive controls", ok, "; ".join(details))


# -- criterion 9: advection negative control -----------------------------------

def test_criterion_09_advection_negative_control():
    exact = 2.0 / math.pi
    grids = [PeriodicGrid.make([1.0], [n]) for n in (128, 256, 512)]
    table = refinement_study(preset("linear-advection"), sin1,
                             SchemeConfig(t_end=1.0), grids)
    l1 = {g[0]: v[0] for g, v in zip(table.cells, table.values)}
    deficit_256 = (exact - l1[256]) / exact
    deficit_512 = (exact - l1[512]) / exact
    extrapolated_decay = exact - table.extrapolated[0]
    ok = (deficit_256 <= 0.15 and deficit_512 <= 0.08
          and abs(extrapolated_decay) < 1e-2)
    _report(9, "advection keeps its L1 norm", ok,
            f"deficit {100 * deficit_256:.1f}% <= 15% at N=256, "
            f"{100 * deficit_512:.1f}% <= 8% at N=512, extrapolated decay "
            f"{extrapolated_decay:.2e} < 1e-2")


# -- criterion 10: heat equation oracle ----------------------------------------

def test_criterion_10_heat_oracle():
    grid = PeriodicGrid.make([1.0], [512])
    traj = run(HEAT, grid, sin1, SchemeConfig(t_end=0.05))
    got = traj.rows[-1].l1_to_mean
    want = math.exp(-4.0 * math.pi ** 2 * 0.05) * (2.0 / math.pi)
    err = abs(got - want)
    _report(10, "heat Fourier decay oracle", err <= 1e-3,
            f"|l1(0.05) - {want:.6f}| = {err:.2e} <= 1e-3 at N=512")


# -- criterion 11: kinetic entropy oracles --------------------------------------

def test_criterion_11_entropy_oracles():
    worst = 0.0

    # S'(xi) = 2 xi integrates chi to u^2.
    big = 3.0
    us = big * (2.0 * lcg_values(101, 100) - 1.0)
    for u in us:
        got = entropy_from_kinetic(lambda xi: 2.0 * xi, u)
        worst = max(worst, abs(got - u * u))

    # Kruzhkov family: S(u) = |u - v| - |v| at v = 0.5.
    v = 0.5
    us = 2.0 * lcg_values(202, 100) - 1.0
    for u in us:
        got = entropy_from_kinetic(
            lambda xi: np.sign(xi - v), u, breakpoints=(v,))
        worst = max(worst, abs(got - (abs(u - v) - abs(v))))

    # S'(xi) = xi^3 integrates to u^4 / 4.
    big = 2.0
    us = big * (2.0 * lcg_values(303, 100) - 1.0)
    for u in us:
        got = entropy_from_kinetic(lambda xi: xi ** 3, u)
        worst = max(worst, abs(got - 0.25 * u ** 4))

    _report(11, "entropy closed forms", worst <= 1e-9,
            f"worst |err| {worst:.2e} <= 1e-9 over 300 random states")


# -- criterion 12: model validation --------------------------------------------

def test_criterion_12_model_validation():
    worst = 0.0
    all_pass = True
    for name in PRESET_NAMES:
        report = validate_model(preset(name))
        worst = max(worst, report.worst_residual)
        all_pass = all_pass and report.overall_pass

    def asym(u):
        out = np.zeros(np.shape(u) + (2, 2))
        out[..., 0, 1] = 1.0
        return out

    broken_sym = validate_model(ModelSpec(
        dimension=2, flux=lambda u: np.zeros(np.shape(u) + (2,)),
        diffusion=asym, state_bound=1.0, name="asymmetric"))
    broken_psd = validate_model(polynomial_model(
        "negative", [(0.0,)], {(0, 0): (-1.0,)}, 1, 1.0))

    ok = (all_pass and worst < 1e-10
          and not broken_sym.checks["symmetry"].passed
          and not broken_psd.checks["psd"].passed)
    _report(12, "model validation", ok,
            f"presets worst residual {worst:.2e} < 1e-10; asymmetric fails "
            f"symmetry, negative fails psd")
