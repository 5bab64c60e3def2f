"""Per-layer micro-benchmarks on a workload's own config, at its own size.

Each timing is the median per-call time over batches run for a fixed time
budget, after one warm-up call so caches are full. The cold numbers
(primitive tables, initial field) clear or bypass the caches on purpose.
Only the layers a workload's ops call are measured; the others read 0.
"""

from __future__ import annotations

import math
import statistics
import time

from anisolab.config import make_grid, make_initial, make_model, make_scheme, parse_config
from anisolab.diagnostics import parabolic_dissipation
from anisolab.kinetic import FrequencyPoint, omega_at
from anisolab.model import preset, primitive_tables, speed_vector
from anisolab.quadrature import gauss_kronrod_panel
from anisolab.solver import diffusion_div, hyperbolic_div, stable_dt, step

BUDGET_S = 0.25
ARCTAN_TOL = 1e-8


def per_call_us(fn, budget=BUDGET_S):
    fn()
    batch = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        took = time.perf_counter() - t0
        if took >= 0.005:
            break
        batch *= 2
    samples = [took / batch]
    deadline = time.perf_counter() + budget
    while time.perf_counter() < deadline or len(samples) < 5:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples) * 1e6


def _cold_s(fn, repeats=5):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _arctan_grid():
    """Criterion-1 grid: omega_at on burgers against its arctan closed form."""
    model = preset("burgers")
    big = model.state_bound
    worst = 0.0
    calls = 0
    for lam in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6):
        root = math.sqrt(lam)
        for tau in (-2.0, -0.5, 0.0, 0.7, 1.5):
            for kap in (0.25, 0.5, 1.0, 2.0, 4.0):
                got = omega_at(model, FrequencyPoint(tau, (kap,)), lam)
                want = (root / kap) * (math.atan((tau + kap * big) / root)
                                       - math.atan((tau - kap * big) / root))
                worst = max(worst, abs(got - want))
                calls += 1
    return worst, calls


def _panel_case(model):
    """One 32-interval GK15 batch of the omega integrand, as check-condition builds it."""
    kappa = [1.0] + [0.5] * (model.dimension - 1)
    fp = FrequencyPoint(0.3, tuple(kappa))
    k = fp.kappa_array
    lam = 1e-3

    def integrand(xi):
        adv = fp.tau + speed_vector(model, xi) @ k
        mats = model.diffusion(xi)
        quad = (mats @ k) @ k
        return lam / (lam + adv ** 2 + quad ** 2)

    edges = [-model.state_bound + 2.0 * model.state_bound * j / 32 for j in range(33)]
    return integrand, edges[:-1], edges[1:]


RUN_METRICS = ("solver.step_us", "solver.stable_dt_us", "solver.hyperbolic_div_us",
               "solver.diffusion_div_us", "diagnostics.parabolic_dissipation_us",
               "model.primitive_tables_s", "config.make_initial_s")
CHECK_METRICS = ("quadrature.gk_panel_us", "kinetic.omega_at_us")


def _run_layers(configs):
    """Solver, diagnostics and set-up numbers on the first op's field."""
    cfg = parse_config(configs[0])
    model = make_model(cfg)
    grid = make_grid(cfg, model.dimension)
    fld = make_initial(cfg, grid)
    scheme = make_scheme(cfg)
    out = {
        "solver.step_us": per_call_us(lambda: step(fld, model, grid, scheme)),
        "solver.stable_dt_us": per_call_us(lambda: stable_dt(model, fld, grid, scheme.cfl)),
        "solver.hyperbolic_div_us": per_call_us(lambda: hyperbolic_div(model, fld, grid)),
        "solver.diffusion_div_us": per_call_us(lambda: diffusion_div(model, fld, grid)),
        "diagnostics.parabolic_dissipation_us": per_call_us(
            lambda: parabolic_dissipation(model, fld, grid)),
    }

    def cold_tables():
        primitive_tables.cache_clear()
        primitive_tables(make_model(cfg))
    out["model.primitive_tables_s"] = _cold_s(cold_tables)

    parsed = [parse_config(text) for text in configs]
    pairs = [(c, make_grid(c, make_model(c).dimension)) for c in parsed]

    def initial_fields():
        for c, g in pairs:
            make_initial(c, g)
    out["config.make_initial_s"] = _cold_s(initial_fields, repeats=3)
    return out, []


def _check_layers(configs):
    """Quadrature and kinetic numbers; the panel time is the mean over the presets."""
    models = sorted((make_model(parse_config(text)) for text in configs), key=lambda m: m.name)
    panel_us = [per_call_us(lambda: gauss_kronrod_panel(integrand, lo, hi))
                for integrand, lo, hi in map(_panel_case, models)]
    out = {"quadrature.gk_panel_us": statistics.fmean(panel_us)}

    grid_s = []
    worst = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        err, calls = _arctan_grid()
        grid_s.append(time.perf_counter() - t0)
        worst = max(worst, err)
    out["kinetic.omega_at_us"] = statistics.median(grid_s) / calls * 1e6
    problems = []
    if not worst <= ARCTAN_TOL:
        problems.append(f"arctan grid error {worst:.3e} > {ARCTAN_TOL:g}")
    return out, problems


def run_all(kind, configs):
    """Micro metrics for one round's configs; ``kind`` is the ops' kind, run or check."""
    out = dict.fromkeys(RUN_METRICS + CHECK_METRICS, 0.0)
    measured, problems = (_run_layers if kind == "run" else _check_layers)(configs)
    out.update(measured)
    return out, problems
