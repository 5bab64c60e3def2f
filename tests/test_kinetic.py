"""Tests for kinetic representations and the nondegeneracy functional."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisolab import kinetic
from anisolab.kinetic import (
    FrequencyPoint,
    SamplingPlan,
    _verdict,
    check_condition,
    chi,
    degeneracy_set_measure,
    entropy_flux_from_kinetic,
    entropy_from_kinetic,
    omega_at,
    symbol_denominator,
)
from anisolab.model import ModelSpec, _vector, polynomial_model, preset

# Small deterministic plan so condition checks stay fast in unit tests.
FAST_PLAN = SamplingPlan(n_dir=8, r_max=4.0, n_resonant=5)


# --- kinetic indicator -------------------------------------------------------

def test_chi_examples():
    assert chi(0.5, 1.0) == 1
    assert chi(-0.3, -1.0) == -1
    assert chi(2.0, 1.0) == 0
    assert chi(0.3, 0.0) == 0
    assert chi(0.0, 1.0) == 0  # open interval: endpoints excluded


def test_chi_odd_symmetry():
    for xi in np.linspace(-2.0, 2.0, 17):
        for u in (-1.5, -0.4, 0.0, 0.7, 1.2):
            assert chi(xi, u) == -chi(-xi, -u)


def test_chi_integrates_to_state():
    for u in (-1.5, -0.2, 0.0, 0.9, 2.0):
        got = entropy_from_kinetic(lambda xi: np.ones_like(xi), u)
        assert got == pytest.approx(u, abs=1e-10)


# --- entropies ---------------------------------------------------------------

def test_entropy_square():
    got = entropy_from_kinetic(lambda xi: 2.0 * xi, 2.0)
    assert got == pytest.approx(4.0, abs=1e-10)
    assert entropy_from_kinetic(lambda xi: 2.0 * xi, 0.0) == 0.0


def test_entropy_kruzhkov():
    # S(u) = |u - v| - |v| for S'(xi) = sign(xi - v); at v = 0.5, u = 1 the
    # two halves cancel exactly.
    v = 0.5
    got = entropy_from_kinetic(
        lambda xi: np.sign(xi - v), 1.0, breakpoints=(v,)
    )
    assert got == pytest.approx(0.0, abs=1e-10)
    for u in (-0.8, 0.2, 0.9):
        got = entropy_from_kinetic(
            lambda xi: np.sign(xi - v), u, breakpoints=(v,)
        )
        assert got == pytest.approx(abs(u - v) - abs(v), abs=1e-9), u


def test_entropy_flux_burgers_square():
    got = entropy_flux_from_kinetic(lambda xi: 2.0 * xi, 1.0, preset("burgers"))
    assert got == pytest.approx([2.0 / 3.0], abs=1e-10)
    zero = entropy_flux_from_kinetic(lambda xi: 2.0 * xi, 0.0, preset("burgers"))
    assert zero == pytest.approx([0.0], abs=0)


def test_entropy_flux_linear_advection():
    m = preset("linear-advection", state_bound=2.0)
    got = entropy_flux_from_kinetic(lambda xi: np.ones_like(xi), 2.0, m)
    assert got == pytest.approx([2.0], abs=1e-10)


# --- symbol ------------------------------------------------------------------

def test_frequency_point_rejects_origin():
    with pytest.raises(ValueError, match="tau"):
        FrequencyPoint(tau=0.0, kappa=(0.0,))


@pytest.mark.parametrize("tau,kappa", [
    (math.nan, (1.0,)), (math.inf, (0.0,)), (1.0, (-math.inf,)), (0.5, (1.0, math.nan))])
def test_frequency_point_rejects_non_finite_values(tau, kappa):
    with pytest.raises(ValueError, match="must have finite"):
        FrequencyPoint(tau=tau, kappa=kappa)


def test_symbol_denominator_burgers_resonance():
    m = preset("burgers")
    fp = FrequencyPoint(tau=-1.0, kappa=(1.0,))
    # a(1) = 1 cancels tau exactly; only lam is left.
    assert symbol_denominator(m, fp, 1.0, 0.01) == pytest.approx(0.01, abs=1e-15)


def test_symbol_denominator_zero_kappa():
    m = preset("burgers")
    fp = FrequencyPoint(tau=2.0, kappa=(0.0,))
    assert symbol_denominator(m, fp, 0.3, 1.0) == pytest.approx(5.0, abs=1e-12)


def test_symbol_denominator_anisotropic():
    m = preset("anisotropic-2d")
    fp = FrequencyPoint(tau=0.0, kappa=(1.0, 0.0))
    # At xi = 2: a = (2, 4), A = diag(4, 0); the diffusion part enters squared.
    got = symbol_denominator(m, fp, 2.0, 0.01)
    assert got == pytest.approx(0.01 + 4.0 + 16.0, abs=1e-12)


# --- omega at one frequency --------------------------------------------------

def _burgers_omega_exact(tau, kappa, lam, big):
    root = math.sqrt(lam)
    return (root / kappa) * (
        math.atan((tau + kappa * big) / root) - math.atan((tau - kappa * big) / root)
    )


def test_omega_at_matches_arctan_oracle():
    m = preset("burgers")
    for lam in (1e-1, 1e-3, 1e-6):
        for tau in (-1.0, 0.0, 0.7):
            for kap in (0.5, 1.0, 2.0):
                fp = FrequencyPoint(tau=tau, kappa=(kap,))
                got = omega_at(m, fp, lam)
                want = _burgers_omega_exact(tau, kap, lam, 1.0)
                assert got == pytest.approx(want, abs=1e-8), (lam, tau, kap)


def test_omega_at_bounded_by_interval_length():
    m = preset("burgers")
    for fp in (FrequencyPoint(1.0, (0.5,)), FrequencyPoint(-0.3, (2.0,))):
        assert omega_at(m, fp, 0.5) <= 2.0 + 1e-9


def test_omega_at_monotone_in_lambda():
    m = preset("porous-medium")
    fp = FrequencyPoint(tau=0.4, kappa=(1.1,))
    vals = [omega_at(m, fp, lam) for lam in (1e-6, 1e-4, 1e-2, 1.0)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_omega_at_advection_resonance_saturates():
    m = preset("linear-advection")
    fp = FrequencyPoint(tau=-0.5, kappa=(0.5,))
    # tau + a kappa = 0 for every state: the integrand is identically 1.
    assert omega_at(m, fp, 1e-6) == pytest.approx(2.0, abs=1e-8)


def test_omega_at_rejects_nonpositive_lambda():
    with pytest.raises(ValueError, match="lam"):
        omega_at(preset("burgers"), FrequencyPoint(1.0, (1.0,)), 0.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_omega_at_rejects_non_finite_lambda(lam):
    # Not a quadrature failure on a NaN integrand: the ladder is refused.
    with pytest.raises(ValueError, match=f"lam must be positive, got {lam}"):
        omega_at(preset("burgers"), FrequencyPoint(1.0, (1.0,)), lam)


def test_omega_at_anisotropic_2d_decays():
    m = preset("anisotropic-2d")
    fp = FrequencyPoint(tau=0.0, kappa=(1.0, 0.0))
    val = omega_at(m, fp, 1e-6)
    assert 0.0 < val < 0.1


# --- sampled supremum --------------------------------------------------------

def test_shell_radii_ladder():
    plan = SamplingPlan(r_max=1e3)
    radii = plan.shell_radii(1.0)
    assert radii[0] == 1.0
    assert radii[:4] == [1.0, 2.0, 4.0, 8.0]
    assert radii[-1] == 1e3
    with pytest.raises(ValueError, match="delta"):
        plan.shell_radii(0.0)


def test_shell_radii_reject_delta_above_r_max():
    assert SamplingPlan(r_max=1e3).shell_radii(1e3) == [1e3]
    with pytest.raises(ValueError, match="delta must not exceed r_max"):
        SamplingPlan(r_max=1e3).shell_radii(2000.0)


def test_frequency_points_respect_delta_and_dedupe():
    # Free points lie on the delta-shell itself; lattice points walk the
    # shells out to r_max and only stay at or above delta.
    delta = 1.5
    for model in (preset("burgers"), preset("anisotropic-2d")):
        for lattice in (False, True):
            plan = SamplingPlan(n_dir=16, r_max=8.0, n_resonant=7, lattice=lattice,
                                periods=(1.0,) * model.dimension)
            pts = plan.frequency_points(model, delta)
            assert len(pts) > 0
            keys = set()
            for fp in pts:
                radius = abs(fp.tau) + math.hypot(*fp.kappa)
                if lattice:
                    assert radius >= delta - 1e-9
                else:
                    assert radius == pytest.approx(delta, rel=1e-12, abs=0.0), fp
                # omega(-p) = omega(p), so no point is a twin or an antipode
                # of an earlier one at 12 decimals of delta.
                row = np.array([fp.tau, *fp.kappa]) / delta
                twins = {tuple(np.round(s * row, 12) + 0.0) for s in (1.0, -1.0)}
                assert not twins & keys, fp
                keys |= twins
            if lattice:
                assert max(abs(fp.tau) + math.hypot(*fp.kappa) for fp in pts) > 2.0 * delta


def test_frequency_points_include_resonant_ray():
    plan = SamplingPlan(n_dir=8, r_max=2.0, n_resonant=3)
    pts = plan.frequency_points(preset("linear-advection"), 1.0)
    hits = [fp for fp in pts if abs(fp.tau + fp.kappa[0]) < 1e-9 and fp.kappa[0] > 0]
    assert hits, "no resonant ray sampled"


def test_the_1d_direction_circle_has_exact_quarter_turns():
    # In floats cos(pi/2) is 6.1e-17 and sin(pi) 1.2e-16; the circle's axis
    # points are exact, so a witness on an axis reads tau = 0, free and on
    # the lattice (where 2 pi times 3.9e-17 read 2.4e-16).
    vecs = SamplingPlan()._directions(1)
    assert {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)} <= set(map(tuple, vecs.tolist()))
    assert not ((np.abs(vecs) > 0.0) & (np.abs(vecs) < 1e-15)).any()
    model = preset("burgers-degenerate")
    for plan in (SamplingPlan(), SamplingPlan(lattice=True, periods=(1.0,))):
        witness = check_condition(model, lambdas=[0.1, 1e-6], sampling=plan).witnesses[-1]
        assert witness.tau == 0.0 and witness.kappa[0] > 0.0, witness


def test_lattice_mode_snaps_kappa():
    plan = SamplingPlan(n_dir=16, r_max=32.0, n_resonant=5, lattice=True, periods=(1.0,))
    pts = plan.frequency_points(preset("burgers"), 1.0)
    unit = 2.0 * math.pi
    assert pts
    for fp in pts:
        for c in fp.kappa:
            assert abs(c / unit - round(c / unit)) < 1e-9, fp


@pytest.mark.parametrize("fields,message", [
    (dict(r_max=math.inf), "r_max must be positive"),
    (dict(r_max=math.nan), "r_max must be positive"),
    (dict(r_max=0.0), "r_max must be positive"),
    (dict(n_dir=0), "n_dir must be at least 4"),
    (dict(n_dir=3), "n_dir must be at least 4"),
    (dict(n_resonant=0), "n_resonant must be at least 2"),
    (dict(n_resonant=1), "n_resonant must be at least 2"),
    (dict(lattice=True, periods=(0.0,)), "periods must be positive"),
    (dict(periods=(1.0, math.inf)), "periods must be positive"),
    (dict(periods=(-1.0,)), "periods must be positive"),
    (dict(n_dir=4.5), "n_dir must be a whole number, got 4.5"),
    (dict(n_dir=math.inf), "n_dir must be a whole number"),
    (dict(n_resonant=2.5), "n_resonant must be a whole number, got 2.5"),
])
def test_sampling_plan_applies_the_config_rules(fields, message):
    # The rules of the [condition] keys and [grid] periods in a config
    # file; an infinite r_max would walk the shell ladder without end and
    # a zero period would leave the lattice plan empty; n_dir 4.5 built a
    # plan on a 5-point sphere.
    with pytest.raises(ValueError, match=message):
        SamplingPlan(**fields)


def test_sampling_plan_stores_whole_counts_as_int():
    # As PeriodicGrid stores cell counts: 3.0 would reach np.linspace as a
    # float, which raises TypeError.
    plan = SamplingPlan(n_dir=np.int64(8), n_resonant=3.0)
    assert (plan.n_dir, plan.n_resonant) == (8, 3)
    assert type(plan.n_dir) is int and type(plan.n_resonant) is int
    assert plan.frequency_points(preset("burgers"), 1.0) == SamplingPlan(
        n_dir=8, n_resonant=3).frequency_points(preset("burgers"), 1.0)


def test_lattice_mode_requires_periods():
    plan = SamplingPlan(lattice=True)
    with pytest.raises(ValueError, match="period"):
        plan.frequency_points(preset("burgers"), 1.0)


def test_lattice_mode_rejects_periods_of_another_dimension():
    plan = SamplingPlan(lattice=True, periods=(1.0,))
    with pytest.raises(ValueError, match="periods has 1 axis value"):
        plan.frequency_points(preset("anisotropic-2d"), 1.0)


# --- the array plan against the per-candidate reference ---------------------

def _reference_frequency_points(plan, model, delta):
    """The plan built one candidate at a time, as before it worked on arrays."""
    def snap(kappa):
        return np.asarray([2.0 * math.pi / p * round(c / (2.0 * math.pi / p))
                           for c, p in zip(kappa, plan.periods)])

    d = model.dimension
    speeds = kinetic.speed_vector(
        model, np.linspace(-model.state_bound, model.state_bound, plan.n_resonant))
    points, seen = [], set()

    def push(tau, kappa):
        kappa = np.asarray(kappa, dtype=float)
        if plan.lattice:
            kappa = snap(kappa)
        if abs(tau) + np.linalg.norm(kappa) < delta * (1.0 - 1e-12):
            return
        # omega(-p) = omega(p): p and -p are one point, keyed at 12
        # decimals of delta with the first nonzero entry made positive.
        row = np.round(np.array([tau, *kappa]) / delta, 12)
        key = tuple(row * np.sign(row[np.nonzero(row)[0][0]]) + 0.0)
        if key in seen:
            return
        seen.add(key)
        points.append(FrequencyPoint(tau=float(tau), kappa=tuple(float(c) for c in kappa)))

    for r in plan.shell_radii(delta) if plan.lattice else [delta]:
        for vec in plan._directions(d):
            push(r * vec[0], r * vec[1:])
        for axis in range(d):
            for a_val in speeds[:, axis]:
                scale = r / (abs(a_val) + 1.0)
                kappa = np.zeros(d)
                kappa[axis] = scale
                if plan.lattice:
                    kappa = snap(kappa)
                    if np.linalg.norm(kappa) == 0.0:
                        continue
                    push(-a_val * kappa[axis], kappa)
                else:
                    push(-a_val * scale, kappa)
    return points


def _reference_breakpoints(xs, adv, quad):
    """The cut points of one frequency, as found point by point before."""
    pts = []
    sign = np.sign(adv)
    for idx in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        x0, x1 = xs[idx], xs[idx + 1]
        y0, y1 = adv[idx], adv[idx + 1]
        pts.append(x0 - y0 * (x1 - x0) / (y1 - y0))
    den = adv ** 2 + quad ** 2
    interior = np.nonzero((den[1:-1] <= den[:-2]) & (den[1:-1] <= den[2:]))[0] + 1
    order = np.argsort(den[interior], kind="stable")
    pts.extend(xs[interior[order[:16]]])
    return [float(p) for p in pts[:24]]


_coeff = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
_diag = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)


@st.composite
def _models(draw):
    d = draw(st.sampled_from([1, 2]))
    flux = [draw(st.lists(_coeff, min_size=1, max_size=4)) for _ in range(d)]
    diff = {}
    for i in range(d):
        if draw(st.booleans()):
            diff[(i, i)] = draw(_diag)
    if d == 2 and draw(st.booleans()):
        diff[(0, 1)] = draw(st.lists(st.floats(-0.1, 0.1), min_size=1, max_size=3))
    return polynomial_model("random", flux, diff, d, draw(st.floats(0.5, 2.0)))


@settings(max_examples=40, deadline=None)
@given(model=_models(), lattice=st.booleans(), delta=st.floats(0.3, 1.0),
       periods=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
       n_dir=st.integers(4, 24), n_resonant=st.integers(2, 9), r_max=st.floats(1.0, 40.0))
def test_array_plan_and_breakpoints_match_per_point_reference(
        model, lattice, delta, periods, n_dir, n_resonant, r_max):
    plan = SamplingPlan(n_dir=n_dir, r_max=r_max, n_resonant=n_resonant, lattice=lattice,
                        periods=periods[:model.dimension])
    got = plan.frequency_points(model, delta)
    assert list(map(repr, got)) == list(map(repr, _reference_frequency_points(plan, model, delta)))
    # Every shell has the pure-time direction and snapping moves only kappa,
    # so no plan is empty: the first point is (delta, 0, ...).
    assert got[0] == FrequencyPoint(tau=delta, kappa=(0.0,) * model.dimension)

    big = model.state_bound
    scan = np.linspace(-big, big, kinetic.RESONANCE_SCAN)
    taus = np.array([fp.tau for fp in got])
    kappas = np.array([fp.kappa for fp in got])
    rows = kinetic._resonance_breakpoints(
        scan, *kinetic._symbol_parts(model, taus[:, None], kappas[:, None], scan))
    assert len(rows) == len(got)
    for row, tau, kappa in zip(rows, taus, kappas):
        assert row[~np.isnan(row)].tolist() == _reference_breakpoints(
            scan, *kinetic._symbol_parts(model, tau, kappa, scan))


@settings(max_examples=40, deadline=None)
@given(model=_models(), delta=st.floats(0.3, 1.0), n_dir=st.integers(4, 16),
       n_resonant=st.integers(2, 6), r_max=st.floats(1.0, 40.0))
def test_delta_shell_sup_bounds_the_shell_ladder(model, delta, n_dir, n_resonant, r_max):
    # omega(s p; lam) <= omega(p; lam) for s >= 1, so the free plan's one
    # shell reaches the sup of every shell of the ladder out to r_max, up to
    # quadrature error: the inequality holds for the exact integrals, and
    # the outer shells' points are other integrals than the inner shell's,
    # each within the quadrature tolerance of its own exact value.
    plan = SamplingPlan(n_dir=n_dir, r_max=r_max, n_resonant=n_resonant)
    lambdas = [1e-1, 1e-3, 1e-6]
    ladder = [fp for r in plan.shell_radii(delta) for fp in plan.frequency_points(model, r)]
    table, _ = kinetic._omega_table(model, ladder, lambdas)
    report = check_condition(model, delta, lambdas, plan)
    for got, best in zip(report.omegas, table.max(axis=0)):
        assert got >= best - kinetic.KINETIC_QUAD_TOL


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), levels=st.integers(1, 6))
def test_block_breakpoints_match_per_point_reference_on_rough_rows(seed, levels):
    # Few distinct values give many sign flips (past the cap of 24), zeros,
    # plateaus and tied minima, which smooth symbols rarely do.
    rng = np.random.default_rng(seed)
    xs = np.linspace(-1.0, 1.0, kinetic.RESONANCE_SCAN)
    # Rows shifted up by levels or more have no flips, so minima fill them.
    shift = rng.integers(0, 2 * levels + 1, (6, 1))
    adv = (rng.integers(-levels, levels + 1, (6, xs.size)) + shift) * 0.5
    quad = rng.integers(0, levels + 1, (6, xs.size)) * 0.25
    rows = kinetic._resonance_breakpoints(xs, adv, quad)
    assert [row[~np.isnan(row)].tolist() for row in rows] == [
        _reference_breakpoints(xs, a, q) for a, q in zip(adv, quad)]


def _dense_symbol_parts(model, tau, kappa, xi):
    """The symbol contracted over dense a(xi) and A(xi) arrays, as it was evaluated before."""
    mats = _vector(model, "diffusion", xi)
    return (tau + np.einsum("...i,...i->...", kinetic.speed_vector(model, xi), kappa),
            np.einsum("...i,...ij,...j->...", kappa, mats, kappa))


def _whole_copy(model, with_speed):
    """A hand-built copy that supplies flux, diffusion and maybe speed as whole callables."""
    return ModelSpec(dimension=model.dimension, state_bound=model.state_bound, name="whole",
                     flux=lambda u: model.flux(u), diffusion=lambda u: model.diffusion(u),
                     speed=(lambda u: model.speed(u)) if with_speed else None)


@st.composite
def _coupled_models(draw):
    """2-d models with every A entry nonzero, where the order of the terms shows in the sum."""
    diag = st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3)
    off = st.lists(st.floats(0.001, 0.1) | st.floats(-0.1, -0.001), min_size=1, max_size=3)
    flux = [draw(st.lists(_coeff, min_size=1, max_size=4)) for _ in range(2)]
    diff = {(0, 0): draw(diag), (0, 1): draw(off), (1, 1): draw(diag)}
    return polynomial_model("coupled", flux, diff, 2, draw(st.floats(0.5, 2.0)))


@settings(max_examples=60, deadline=None)
@given(model=st.one_of(_models(), _coupled_models()),
       whole=st.sampled_from([None, "speed", "bare"]), seed=st.integers(0, 2 ** 32 - 1))
def test_symbol_parts_equal_the_dense_contraction_bit_for_bit(model, whole, seed):
    if whole is not None:
        model = _whole_copy(model, whole == "speed")
    rng = np.random.default_rng(seed)
    d, big = model.dimension, model.state_bound
    scale = 10.0 ** rng.uniform(-1.0, 3.0, (40, 1))
    taus, kappas = rng.normal(size=40) * scale[:, 0], rng.normal(size=(40, d)) * scale
    scan = np.linspace(-big, big, kinetic.RESONANCE_SCAN)
    owner = rng.integers(0, 40, 300)
    xi = rng.uniform(-big, big, 300)
    # One frequency per node (the omega integrand), and a block against the scan.
    for args in ((taus[owner], kappas[owner], xi), (taus[:, None], kappas[:, None], scan)):
        got = kinetic._symbol_parts(model, *args)
        want = _dense_symbol_parts(model, *args)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_fallback_speed_keeps_an_entry_that_rounds_to_zero_on_the_probe():
    # f_2(u) = 1 + 2.76e-13 u: its centered difference is 0 at every probe
    # state but not at this xi, so a probe-sliced speed entry was dropped.
    coupled = polynomial_model("coupled", [(0.0,), (1.0, 2.759141393075708e-13)],
                               {(0, 0): (1.0,), (0, 1): (0.0625,), (1, 1): (1.0,)}, 2, 1.0)
    model = _whole_copy(coupled, with_speed=False)
    xi = np.array([-0.35389261378836423])
    tau = np.array([-0.8857122021403384])
    kappa = np.array([[-3.5726870452226684, 0.9194335861346761]])
    assert kinetic.speed_vector(model, xi)[0, 1] != 0.0
    for g, w in zip(kinetic._symbol_parts(model, tau, kappa, xi),
                    _dense_symbol_parts(model, tau, kappa, xi)):
        assert g.tobytes() == w.tobytes()


def test_omega_delta_advection_witness_is_resonant():
    # The sampled sup of omega over |tau| + |kappa| >= delta is the one-lambda report.
    report = check_condition(preset("linear-advection"), 1.0, [1e-4], FAST_PLAN)
    fp = report.witnesses[0]
    assert report.omegas[0] >= 2.0 - 1e-6
    assert abs(fp.tau + fp.kappa[0]) < 1e-9


def test_omega_delta_dominates_kappa_zero_slice():
    # (tau, kappa) = (delta, 0) is always in the plan; there the integrand
    # is the constant lam / (lam + delta^2).
    m = preset("burgers")
    for lam in (1e-1, 1e-2):
        val = check_condition(m, 1.0, [lam], FAST_PLAN).omegas[0]
        assert val >= 2.0 * lam / (lam + 1.0) - 1e-9


# --- degeneracy measure ------------------------------------------------------

def test_degeneracy_measure_advection_ray():
    m = preset("linear-advection")
    fp = FrequencyPoint(tau=-1.0, kappa=(1.0,))
    assert degeneracy_set_measure(m, fp) == pytest.approx(2.0, abs=0)


def test_degeneracy_measure_burgers_thin_set():
    m = preset("burgers")
    fp = FrequencyPoint(tau=0.0, kappa=(1.0,))
    got = degeneracy_set_measure(m, fp, tol=1e-3)
    assert got == pytest.approx(2e-3, abs=2e-4)


def test_degeneracy_measure_uniformly_parabolic_is_zero():
    heat = polynomial_model("heat", [(0.0,)], {(0, 0): (1.0,)}, 1, 1.0)
    fp = FrequencyPoint(tau=0.0, kappa=(1.0,))
    assert degeneracy_set_measure(heat, fp) == 0.0


# --- condition verdicts ------------------------------------------------------

def test_check_condition_validates_ladder():
    m = preset("burgers")
    with pytest.raises(ValueError, match="positive"):
        check_condition(m, lambdas=[1e-1, -1e-2], sampling=FAST_PLAN)
    with pytest.raises(ValueError, match="decreasing"):
        check_condition(m, lambdas=[1e-2, 1e-1], sampling=FAST_PLAN)
    with pytest.raises(ValueError, match="positive"):
        check_condition(m, lambdas=[], sampling=FAST_PLAN)


@pytest.mark.parametrize("lambdas", [(0.1, math.nan), (math.inf, 0.1)])
def test_check_condition_rejects_non_finite_lambda(lambdas):
    with pytest.raises(ValueError, match="lambda ladder must be positive"):
        check_condition(preset("burgers"), lambdas=lambdas, sampling=FAST_PLAN)


def test_nan_delta_is_not_positive():
    with pytest.raises(ValueError, match="delta must be positive, got nan"):
        SamplingPlan().shell_radii(math.nan)
    with pytest.raises(ValueError, match="delta must be positive, got nan"):
        check_condition(preset("burgers"), delta=math.nan, sampling=FAST_PLAN)


def test_check_condition_burgers_passes():
    report = check_condition(preset("burgers"), sampling=FAST_PLAN)
    assert report.verdict == "pass"
    assert report.omegas[-1] < report.pass_threshold
    assert report.trend_ratio < 1.0
    assert any("verdict: pass" in line for line in report.lines())


def test_check_condition_advection_fails():
    report = check_condition(preset("linear-advection"), sampling=FAST_PLAN)
    assert report.verdict == "fail"
    # The resonant ray saturates omega at the full interval length for
    # every lambda on the ladder.
    assert all(om >= 2.0 - 1e-6 for om in report.omegas)


def test_verdict_flags_non_monotone_ladder():
    assert _verdict([0.1, 0.5], 0.2) == "inconclusive"
    assert _verdict([0.5, 0.1, 0.01], 0.2) == "pass"
    assert _verdict([1.9, 1.9, 1.9], 0.2) == "fail"


# --- batched omega loop --------------------------------------------------------

_points = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.1, 4.0)), min_size=1, max_size=9)


@settings(max_examples=25, deadline=None)
@given(pairs=_points, lam=st.floats(1e-6, 1.0))
def test_batched_omega_matches_omega_at_and_arctan(pairs, lam):
    m = preset("burgers")
    pts = [FrequencyPoint(tau=tau, kappa=(kap,)) for tau, kap in pairs]
    # Small blocks so one example spans several worklists.
    with mock.patch.object(kinetic, "OMEGA_BLOCK", 4):
        got = kinetic._omega_table(m, pts, [lam])[0][:, 0]
    assert got.shape == (len(pts),)
    for val, fp, (tau, kap) in zip(got, pts, pairs):
        assert val == omega_at(m, fp, lam)
        assert val == pytest.approx(_burgers_omega_exact(tau, kap, lam, 1.0), abs=1e-8)


_PRESETS = ("burgers", "linear-advection", "burgers-degenerate", "porous-medium",
            "anisotropic-2d")


@st.composite
def _ladder_cases(draw):
    model = draw(st.one_of(st.sampled_from(_PRESETS).map(preset), _models()))
    d = model.dimension
    rows = draw(st.lists(st.tuples(st.floats(-4.0, 4.0), *[st.floats(-4.0, 4.0)] * d),
                         min_size=1, max_size=9))
    points = [FrequencyPoint(tau=row[0], kappa=row[1:]) for row in rows
              if abs(row[0]) + math.hypot(*row[1:]) > 0.0]
    ladder = sorted(draw(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=6, unique=True)),
                    reverse=True)
    return model, points, ladder


@settings(max_examples=30, deadline=None)
@given(case=_ladder_cases())
def test_omega_table_columns_equal_one_lambda_tables(case):
    # One worklist serves the whole ladder, each lam on its own panel tree:
    # every column is the one-lam table bit for bit, its error estimate too.
    model, points, ladder = case
    with mock.patch.object(kinetic, "OMEGA_BLOCK", 4):
        table, worst = kinetic._omega_table(model, points, ladder)
        alone = [kinetic._omega_table(model, points, [lam]) for lam in ladder]
    assert table.shape == (len(points), len(ladder))
    for k, (column, _) in enumerate(alone):
        assert table[:, k].tobytes() == column[:, 0].tobytes(), ladder[k]
    assert worst == max(err for _, err in alone)


def test_check_condition_blocks_keep_first_witness():
    # Ties go to the first point, across block boundaries as within one.
    for name in ("linear-advection", "burgers"):
        m = preset(name)
        whole = check_condition(m, sampling=FAST_PLAN)
        with mock.patch.object(kinetic, "OMEGA_BLOCK", 3):
            split = check_condition(m, sampling=FAST_PLAN)
        assert split.omegas == whole.omegas
        assert split.witnesses == whole.witnesses
        points = FAST_PLAN.frequency_points(m, 1.0)
        for lam, om, fp in zip(whole.lambdas, whole.omegas, whole.witnesses):
            first = next(p for p in points if omega_at(m, p, lam) == om)
            assert fp == first


def _negated(points):
    return [FrequencyPoint(tau=-fp.tau, kappa=tuple(-c for c in fp.kappa)) for fp in points]


@settings(max_examples=20, deadline=None)
@given(model=_models(), lattice=st.booleans(), whole=st.sampled_from([None, "speed", "bare"]),
       periods=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)))
def test_omega_is_even_bit_for_bit(model, lattice, whole, periods):
    # Negating (tau, kappa) negates tau + a.kappa exactly and leaves
    # kappa^T A kappa as it is, so the scan, the cut points and every
    # integral are the same: the plan keeps one point of each pair p, -p.
    plan = SamplingPlan(n_dir=12, r_max=4.0, n_resonant=5, lattice=lattice,
                        periods=periods[:model.dimension])
    points = plan.frequency_points(model, 1.0)
    if whole is not None:
        model = _whole_copy(model, whole == "speed")
    lambdas = [1e-1, 1e-3, 1e-6]
    table, worst = kinetic._omega_table(model, points, lambdas)
    mirrored, mirrored_worst = kinetic._omega_table(model, _negated(points), lambdas)
    assert mirrored.tobytes() == table.tobytes()
    assert mirrored_worst == worst


@pytest.mark.parametrize("name", _PRESETS)
def test_reported_omega_is_the_max_over_the_plan_and_its_antipodes(name):
    # The plan drops -p, so the reported omega must still be the column max
    # over both, and omega_at at the witness must give its bits back.
    m = preset(name)
    lambdas = [1e-1, 1e-3, 1e-6]
    for plan in (SamplingPlan(n_dir=64), SamplingPlan(
            lattice=True, r_max=16.0, periods=(1.0, 0.5)[:m.dimension])):
        points = plan.frequency_points(m, 1.0)
        both, _ = kinetic._omega_table(m, points + _negated(points), lambdas)
        report = check_condition(m, lambdas=lambdas, sampling=plan)
        assert np.array(report.omegas).tobytes() == both.max(axis=0).tobytes()
        for lam, om, fp in zip(lambdas, report.omegas, report.witnesses):
            assert omega_at(m, fp, lam) == om


@pytest.mark.parametrize("model, lam, tau, kappa", [
    # a is odd, so omega is even in tau; the mirror points differ by 0.84 eps.
    (preset("burgers"), 1e-5, 15.0 / 31.0, 16.0 / 31.0),
    # The mirror of the old witness (0.232744, -0.767256) comes first.
    (_whole_copy(preset("porous-medium"), True), 0.1, 0.23274443202460413, 0.7672555679753958),
], ids=["burgers", "whole/porous-medium"])
def test_witness_is_the_first_point_within_rounding_of_the_max(model, lam, tau, kappa):
    report = check_condition(model, lambdas=[lam])
    fp, om = report.witnesses[0], report.omegas[0]
    assert (fp.tau, fp.kappa[0]) == pytest.approx((tau, kappa), rel=1e-12)
    assert omega_at(model, fp, lam) == om
    points = SamplingPlan().frequency_points(model, 1.0)
    column = kinetic._omega_table(model, points, [lam])[0][:, 0]
    within = column >= column.max() * (1.0 - 4.0 * np.finfo(float).eps)
    assert points.index(fp) == np.argmax(within)


_COUPLED_CUBIC = polynomial_model(
    "coupled-cubic", [(0.0, 0.5, 0.2), (0.0, -0.4, 0.0, 0.3)],
    {(0, 0): (0.4, 0.0, 0.3), (0, 1): (0.05, 0.0, 0.02), (1, 1): (0.3, 0.1)}, 2, 1.0)


@pytest.mark.parametrize("model", [
    preset("burgers"), preset("burgers-degenerate"), preset("porous-medium"),
    preset("anisotropic-2d"), _COUPLED_CUBIC], ids=lambda m: m.name)
def test_omega_does_not_depend_on_its_block_or_neighbours(model):
    points = SamplingPlan(n_dir=64).frequency_points(model, 1.0)
    lambdas = [1e-1, 1e-3, 1e-6]
    table, worst = kinetic._omega_table(model, points, lambdas)
    with mock.patch.object(kinetic, "OMEGA_BLOCK", 3):
        small, small_worst = kinetic._omega_table(model, points, lambdas)
    reversed_table, reversed_worst = kinetic._omega_table(model, points[::-1], lambdas)
    assert small.tobytes() == table.tobytes()
    assert reversed_table[::-1].tobytes() == table.tobytes()
    assert small_worst == reversed_worst == worst


@pytest.mark.parametrize("name, kappa", [("burgers", (1.0, 5.0)), ("burgers", ()),
                                         ("anisotropic-2d", (1.0,))])
def test_omega_at_rejects_kappa_of_another_dimension(name, kappa):
    with pytest.raises(ValueError, match="kappa must have"):
        omega_at(preset(name), FrequencyPoint(tau=1.0, kappa=kappa), 0.1)


@pytest.mark.parametrize("name, kappa", [("burgers", (1.0, 5.0)), ("anisotropic-2d", (1.0,))])
def test_symbol_denominator_rejects_kappa_of_another_dimension(name, kappa):
    with pytest.raises(ValueError, match="kappa must have"):
        symbol_denominator(preset(name), FrequencyPoint(tau=1.0, kappa=kappa), 0.3, 0.1)


@pytest.mark.parametrize("name, kappa", [("burgers", (0.0, 1.0)), ("anisotropic-2d", (1.0,))])
def test_degeneracy_set_measure_rejects_kappa_of_another_dimension(name, kappa):
    # At tau = 0 a burgers symbol that dropped kappa_1 would vanish at every
    # state and flag the whole interval.
    with pytest.raises(ValueError, match="kappa must have"):
        degeneracy_set_measure(preset(name), FrequencyPoint(tau=0.0, kappa=kappa))


def test_check_condition_reports_points_and_error_estimate():
    m = preset("burgers")
    report = check_condition(m, sampling=FAST_PLAN)
    assert report.points == len(FAST_PLAN.frequency_points(m, 1.0))
    assert 0.0 < report.max_error_estimate <= kinetic.KINETIC_QUAD_TOL
