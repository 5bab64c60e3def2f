"""Tests for model construction, evaluation, and structural validation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from anisolab import model as model_mod
from anisolab.model import (
    QUAD_LEVELS,
    ModelError,
    ModelSpec,
    NotPSDError,
    Poly,
    evaluate,
    list_presets,
    model_table,
    polynomial_model,
    preset,
    validate_model,
    _spline_primitive,
)
from anisolab.quadrature import adaptive_quadrature
from anisolab.solver import PeriodicGrid, SchemeConfig, run

PRESET_NAMES = [
    "anisotropic-2d",
    "burgers",
    "burgers-degenerate",
    "linear-advection",
    "porous-medium",
]


def test_preset_listing_is_sorted_and_complete():
    assert list_presets() == PRESET_NAMES


def test_unknown_preset_raises():
    with pytest.raises(KeyError, match="unknown preset"):
        preset("kdv")


def test_state_bound_must_be_positive():
    with pytest.raises(ValueError, match="state_bound"):
        preset("burgers", state_bound=-1.0)


# --- pointwise evaluations ---------------------------------------------------

def test_flux_burgers():
    m = preset("burgers")
    assert evaluate(m, "flux", 2.0) == pytest.approx([2.0], abs=1e-15)
    assert evaluate(m, "flux", 0.0) == pytest.approx([0.0], abs=0)


def test_flux_anisotropic_2d():
    m = preset("anisotropic-2d")
    assert evaluate(m, "flux", 1.0) == pytest.approx([0.5, 1.0 / 3.0], abs=1e-15)
    assert evaluate(m, "flux", 1.0, (1,)) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_speed_burgers_and_advection():
    assert evaluate(preset("burgers"), "speed", 3.0) == pytest.approx([3.0], abs=1e-15)
    assert evaluate(preset("linear-advection"), "speed", -0.7) == pytest.approx([1.0], abs=0)


def test_speed_fd_fallback_matches_derivative():
    m = ModelSpec(
        dimension=1,
        flux=lambda u: np.stack([0.5 * np.asarray(u, dtype=float) ** 2], axis=-1),
        diffusion=lambda u: np.zeros(np.shape(u) + (1, 1)),
        state_bound=2.0,
        name="fd-fallback",
    )
    assert evaluate(m, "speed", 1.0) == pytest.approx([1.0], abs=1e-9)
    assert evaluate(m, "speed", -1.3) == pytest.approx([-1.3], abs=1e-8)


def test_speed_fallback_agrees_with_analytic_on_presets():
    for name in PRESET_NAMES:
        m = preset(name)
        stripped = ModelSpec(
            dimension=m.dimension,
            flux=m.flux,
            diffusion=m.diffusion,
            state_bound=m.state_bound,
            name=m.name + "-fd",
        )
        for u in (-0.9, -0.4, 0.3, 0.8):
            assert evaluate(stripped, "speed", u) == pytest.approx(
                evaluate(m, "speed", u), abs=1e-8
            ), f"{name} at u={u}"


def test_diffusion_porous_and_advection():
    assert np.allclose(
        evaluate(preset("porous-medium"), "diffusion", -0.5), [[1.0]], atol=1e-15
    )
    assert np.array_equal(
        evaluate(preset("linear-advection"), "diffusion", 0.6), [[0.0]]
    )


def test_diffusion_anisotropic_2d():
    got = evaluate(preset("anisotropic-2d"), "diffusion", 2.0)
    assert np.allclose(got, [[4.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_sqrt_factor_diagonal_case():
    got = evaluate(preset("anisotropic-2d"), "sqrt_factor", 2.0)
    assert np.allclose(got, [[2.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_sqrt_factor_reconstructs_full_matrix():
    # Constant SPD matrix with off-diagonal coupling.
    m = polynomial_model(
        "coupled",
        flux_coeffs=[(0.0,), (0.0,)],
        diffusion_coeffs={(0, 0): (2.0,), (0, 1): (1.0,), (1, 1): (2.0,)},
        dimension=2,
        state_bound=1.0,
    )
    sig = evaluate(m, "sqrt_factor", 0.5)
    recon = sig @ sig.T
    assert np.abs(recon - np.array([[2.0, 1.0], [1.0, 2.0]])).max() < 1e-12


def test_sqrt_factor_rejects_negative_diffusion():
    m = polynomial_model(
        "negative", [(0.0,)], {(0, 0): (-1.0,)}, dimension=1, state_bound=1.0
    )
    with pytest.raises(NotPSDError):
        evaluate(m, "sqrt_factor", 0.3)


def test_beta_examples():
    def beta(name, u):
        return evaluate(preset(name), "beta_primitive", u, (0, 0))
    assert beta("burgers-degenerate", 1.0) == pytest.approx(0.5, abs=1e-12)
    assert beta("linear-advection", 0.8) == 0.0
    # A = 2|u| gives sigma = sqrt(2|u|) and primitive (2 sqrt 2 / 3) |u|^1.5 sign(u).
    assert beta("porous-medium", 1.0) == pytest.approx(2.0 * np.sqrt(2.0) / 3.0, abs=1e-12)


def test_bprimitive_examples():
    def b(name, u):
        return evaluate(preset(name), "b_primitive", u, (0, 0))
    assert b("burgers-degenerate", 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert b("linear-advection", -0.4) == 0.0
    # A = 2|u| integrates to u|u|; at u = -1 that is -1.
    assert b("porous-medium", -1.0) == pytest.approx(-1.0, abs=1e-12)


def test_primitive_component_out_of_range():
    with pytest.raises(IndexError):
        evaluate(preset("burgers"), "beta_primitive", 0.5, (0, 1))
    with pytest.raises(IndexError):
        evaluate(preset("burgers"), "b_primitive", 0.5, (1, 0))


def test_fd_derivative_of_primitives_matches_integrands():
    # Centered differences of the primitives must recover sigma and A at
    # points away from the |u| kinks; the FD step sets the error scale.
    h = 1e-6
    for name in ("burgers-degenerate", "porous-medium"):
        m = preset(name)
        for u in np.linspace(-0.87, 0.91, 13):
            if abs(u) < 0.05:
                continue
            d_beta, d_b = (
                (evaluate(m, q, u + h, (0, 0)) - evaluate(m, q, u - h, (0, 0))) / (2 * h)
                for q in ("beta_primitive", "b_primitive"))
            assert abs(d_beta - evaluate(m, "sqrt_factor", u)[0, 0]) < 10 * h, (name, u)
            assert abs(d_b - evaluate(m, "diffusion", u)[0, 0]) < 10 * h, (name, u)


# --- polynomial models -------------------------------------------------------

def _bare(m):
    """A hand-built copy of ``m`` that supplies only flux and diffusion, whole."""
    return ModelSpec(dimension=m.dimension, state_bound=m.state_bound, name=m.name + "-bare",
                     flux=lambda u: m.flux(u), diffusion=lambda u: m.diffusion(u))


@pytest.mark.parametrize("bare", [False, True])
def test_scalar_primitives_read_the_table_entries_bit_for_bit(bare):
    # A missing primitive has one stand-in, the table's spline, inside and
    # beyond the 1.05 state_bound span it is fitted on.
    m = polynomial_model("coupled", [(0.0, 0.5, 0.2), (0.0, -0.4)],
                         {(0, 0): (0.4, 0.0, 0.3), (0, 1): (0.05, 0.0, 0.02),
                          (1, 1): (0.3, 0.1)}, 2, 1.0)
    m = _bare(m) if bare else m
    table = model_table(m)
    us = np.array([-1.3, -1.05, -0.6, 0.0, 0.35, 0.9, 1.2])
    for attr, name in (("beta", "beta_primitive"), ("b", "b_primitive")):
        for i, j in np.ndindex(2, 2):
            want = getattr(table, attr).get((i, j), np.zeros_like)(us)
            assert [evaluate(m, name, u, (i, j)) for u in us] == want.tolist(), (attr, i, j)


def test_validate_model_reads_the_spline_table(monkeypatch):
    m = _bare(preset("burgers-degenerate"))
    assert validate_model(m).checks["primitive_beta"].passed
    spline = model_table(m).beta[(0, 0)]
    monkeypatch.setitem(model_table(m).beta, (0, 0), lambda u: spline(u) + 1e-6)
    assert not validate_model(m).checks["primitive_beta"].passed
    assert validate_model(m).checks["primitive_b"].passed
    # A primitive that is NaN at a sample state fails its check too.
    nan_beta = replace(preset("burgers-degenerate"), beta_primitive=lambda u: np.where(
        np.asarray(u)[..., None, None] == 0.5, np.nan, model_mod._half_u_abs_u(u)[..., None, None]))
    assert not validate_model(nan_beta).checks["primitive_beta"].passed


def test_polynomial_model_matches_preset_burgers_degenerate():
    m = polynomial_model(
        "poly-bd",
        flux_coeffs=[(0.0, 0.0, 0.5)],
        diffusion_coeffs={(0, 0): (0.0, 0.0, 1.0)},
        dimension=1,
        state_bound=1.0,
    )
    ref = preset("burgers-degenerate")
    for u in (-0.8, -0.2, 0.4, 1.0):
        assert evaluate(m, "flux", u) == pytest.approx(evaluate(ref, "flux", u), abs=1e-14)
        assert evaluate(m, "diffusion", u) == pytest.approx(
            evaluate(ref, "diffusion", u), abs=1e-14)
        assert evaluate(m, "b_primitive", u, (0, 0)) == pytest.approx(
            evaluate(ref, "b_primitive", u, (0, 0)), abs=1e-12
        )
    assert evaluate(m, "speed", 0.7) == pytest.approx([0.7], abs=1e-14)


def test_polynomial_model_rejects_bad_shapes():
    with pytest.raises(ValueError, match="flux component"):
        polynomial_model("bad", [(0.0,), (0.0,)], {}, dimension=1, state_bound=1.0)
    with pytest.raises(ValueError, match="upper-triangle"):
        polynomial_model(
            "bad", [(0.0,), (0.0,)], {(1, 0): (1.0,)}, dimension=2, state_bound=1.0
        )


def test_model_error_on_wrong_flux_shape():
    m = ModelSpec(
        dimension=2,
        flux=lambda u: np.stack([np.asarray(u, dtype=float)], axis=-1),
        diffusion=lambda u: np.zeros(np.shape(u) + (2, 2)),
        state_bound=1.0,
        name="short-flux",
    )
    with pytest.raises(ModelError, match="shape"):
        evaluate(m, "flux", 0.5)


SKEWED = ModelSpec(dimension=2, flux=lambda u: np.zeros(np.shape(u) + (2,)),
                   diffusion=lambda u: np.broadcast_to([[1.0, 0.5], [0.0, 1.0]], np.shape(u) + (2, 2)),
                   state_bound=1.0, name="skewed")
NAN_FLUX = ModelSpec(dimension=1, flux=lambda u: np.full(np.shape(u) + (1,), np.nan),
                     diffusion=lambda u: np.zeros(np.shape(u) + (1, 1)), state_bound=1.0,
                     name="nan-flux")


@pytest.mark.parametrize("calls,error,match", [
    ([(SKEWED, "diffusion", ())], ModelError, "not symmetric"),
    ([(NAN_FLUX, "flux", ())], ModelError, "not finite"),
    # A ModelSpec field that is not a quantity is not called.
    ([(preset("burgers"), "name", ())], ValueError, "unknown model quantity"),
    # Out of range, and one component too few or too many for the quantity.
    ([(preset("anisotropic-2d"), "flux", (2,)), (preset("anisotropic-2d"), "diffusion", (0,)),
      (preset("anisotropic-2d"), "speed", (0, 0))], IndexError, "component"),
], ids=["skewed-diffusion", "nan-flux", "unknown-name", "bad-index"])
def test_evaluate_rejects_bad_values_and_inputs(calls, error, match):
    for model, name, index in calls:
        with pytest.raises(error, match=match):
            evaluate(model, name, 0.3, index)


# --- primitive tables --------------------------------------------------------

def test_primitive_tables_mark_zero_entries():
    adv = model_table(preset("linear-advection"))
    assert adv.f
    assert adv.b.get((0, 0)) is None

    por = model_table(preset("porous-medium"))
    assert not por.f
    assert por.b.get((0, 0)) is not None


def test_primitive_tables_spline_fallback_accuracy():
    # No analytic primitive supplied: the table must be built by quadrature
    # and still reproduce u^3/3 tightly over the state interval.
    m = ModelSpec(
        dimension=1,
        flux=lambda u: np.zeros(np.shape(u) + (1,)),
        diffusion=lambda u: (np.asarray(u, dtype=float) ** 2)[..., None, None],
        state_bound=1.0,
        name="spline-check",
    )
    tables = model_table(m)
    us = np.linspace(-1.0, 1.0, 401)
    got = tables.b.get((0, 0))(us)
    assert np.abs(got - us**3 / 3.0).max() < 1e-8



def test_spline_primitive_matches_gap_by_gap_accumulation():
    # Reference: one adaptive_quadrature call per knot gap, accumulated
    # outward from the middle knot. The batched build sums the same gaps,
    # so the knots agree to the rounding of 512 additions.
    def f(v):
        v = np.asarray(v, dtype=float)
        return np.abs(v) ** 1.5 * np.cos(3.0 * v)

    span = 1.05
    nodes = np.linspace(-span, span, 1025)
    ref = np.zeros_like(nodes)
    i0 = nodes.size // 2
    for idx in range(i0 + 1, nodes.size):
        ref[idx] = ref[idx - 1] + adaptive_quadrature(
            f, nodes[idx - 1], nodes[idx], abs_tol=1e-13, max_levels=QUAD_LEVELS)
    for idx in range(i0 - 1, -1, -1):
        ref[idx] = ref[idx + 1] - adaptive_quadrature(
            f, nodes[idx], nodes[idx + 1], abs_tol=1e-13, max_levels=QUAD_LEVELS)
    got = _spline_primitive(f, span)(nodes)
    assert np.abs(got - ref).max() <= 512 * np.finfo(float).eps * np.abs(ref).max()


@pytest.mark.parametrize("name,cubic", [
    ("anisotropic-2d", lambda m, u: m.flux(u)[..., 1]),
    ("anisotropic-2d", lambda m, u: m.b_primitive(u)[..., 0, 0]),
    ("burgers-degenerate", lambda m, u: m.b_primitive(u)[..., 0, 0]),
])
def test_preset_cubics_match_closed_form(name, cubic):
    # Written as u*u*u, not with numpy's power; a few ulp from u**3/3.
    m = preset(name)
    u = np.random.default_rng(3).uniform(-1.0, 1.0, 4001)
    u[:3] = (-1.0, 0.0, 1.0)
    np.testing.assert_allclose(cubic(m, u), u ** 3 / 3.0, rtol=4 * np.finfo(float).eps, atol=0.0)
    assert cubic(m, -0.5) == pytest.approx(-0.125 / 3.0, rel=4 * np.finfo(float).eps)
    assert validate_model(m).overall_pass


# --- validation --------------------------------------------------------------

def test_validate_model_passes_on_degenerate_preset():
    report = validate_model(preset("burgers-degenerate"))
    assert report.overall_pass
    assert report.worst_residual < 1e-10
    assert sorted(report.checks) == [
        "chain_rule",
        "factorization",
        "primitive_b",
        "primitive_beta",
        "psd",
        "symmetry",
    ]
    assert any("pass" in line for line in report.lines())


def test_validate_model_samples_a_fixed_number_of_states():
    # The sample count is the module constant VALIDATION_SAMPLES, not a knob.
    report = validate_model(preset("burgers"))
    assert report.samples == model_mod.VALIDATION_SAMPLES == 101
    assert report.lines()[-1] == "pass  overall (101 samples)"
    with pytest.raises(TypeError):
        validate_model(preset("burgers"), samples=1)


def test_validate_model_flags_asymmetric_diffusion():
    def asym(u):
        out = np.zeros(np.shape(u) + (2, 2))
        out[..., 0, 1] = 1.0
        return out

    m = ModelSpec(
        dimension=2,
        flux=lambda u: np.zeros(np.shape(u) + (2,)),
        diffusion=asym,
        state_bound=1.0,
        name="asymmetric",
    )
    report = validate_model(m)
    assert not report.overall_pass
    assert not report.checks["symmetry"].passed


def test_validate_model_flags_negative_diffusion():
    m = polynomial_model(
        "negative", [(0.0,)], {(0, 0): (-1.0,)}, dimension=1, state_bound=1.0
    )
    report = validate_model(m)
    assert not report.overall_pass
    assert not report.checks["psd"].passed


def test_validate_model_fails_psd_on_a_nan_diffusion_matrix():
    # Python's max drops a NaN; the psd line must keep it and fail.
    m = ModelSpec(
        dimension=1,
        flux=lambda u: np.zeros(np.shape(u) + (1,)),
        diffusion=lambda u: np.where(np.asarray(u) > 0.5, np.nan, 1.0)[..., None, None],
        state_bound=1.0,
        name="nan-above-half",
    )
    psd = validate_model(m).checks["psd"]
    assert np.isnan(psd.residual) and not psd.passed


# --- entries and exact bounds ------------------------------------------------

def _states():
    u = np.random.default_rng(5).uniform(-1.2, 1.2, 2001)
    u[:10] = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, -1e-300, 1.25, -1.25)
    return u


def _sqr(u):
    return np.square(u)


def _cube_third(u):
    return u * u * u / 3.0


def _half_u_abs(u):
    return 0.5 * u * np.abs(u)


# Reference: the preset callables as closed-form numpy expressions, in the
# operation order the presets have always used: (flux components, speed
# components, {(i, j): entry} for diffusion, sqrt_factor, b_primitive and
# beta_primitive).
EARLIER_PRESETS = {
    "linear-advection": ([lambda u: u], [np.ones_like], {}, {}, {}, {}),
    "burgers": ([lambda u: 0.5 * _sqr(u)], [lambda u: u], {}, {}, {}, {}),
    "burgers-degenerate": ([lambda u: 0.5 * _sqr(u)], [lambda u: u], {(0, 0): _sqr},
                           {(0, 0): np.abs}, {(0, 0): _cube_third}, {(0, 0): _half_u_abs}),
    "porous-medium": ([np.zeros_like], [np.zeros_like], {(0, 0): lambda u: 2.0 * np.abs(u)},
                      {(0, 0): lambda u: np.sqrt(2.0 * np.abs(u))},
                      {(0, 0): lambda u: u * np.abs(u)},
                      {(0, 0): lambda u: np.sqrt(2.0) * (2.0 / 3.0) * np.sign(u)
                       * np.abs(u) ** 1.5}),
    "anisotropic-2d": ([lambda u: 0.5 * u ** 2, _cube_third], [lambda u: u, lambda u: u ** 2],
                       {(0, 0): _sqr}, {(0, 0): np.abs}, {(0, 0): _cube_third},
                       {(0, 0): _half_u_abs}),
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_callables_return_the_earlier_arrays_bit_for_bit(name):
    m = preset(name)
    u = _states()
    flux, speed, *mats = EARLIER_PRESETS[name]
    for attr, comps in (("flux", flux), ("speed", speed)):
        want = np.stack([c(u) for c in comps], axis=-1)
        got = getattr(m, attr)(u)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), attr
    for attr, entries in zip(("diffusion", "sqrt_factor", "b_primitive", "beta_primitive"), mats):
        want = np.zeros(u.shape + (m.dimension, m.dimension))
        for (i, j), fn in entries.items():
            want[..., i, j] = fn(u)
        got = getattr(m, attr)(u)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), attr
    # Scalars keep the (d,) and (d, d) shapes.
    assert m.flux(0.5).shape == (m.dimension,)
    assert m.diffusion(0.5).shape == (m.dimension, m.dimension)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_bounds_equal_the_129_point_sample(name):
    # Every preset extremum of |a| and |A| sits at an end of the range, so
    # the exact bounds reproduce the sampled ones and keep the step counts.
    m = preset(name)
    for lo, hi in ((-0.93, 0.97), (-1.0, 1.0), (0.1, 0.8), (-1.2, -0.3), (-0.4, 1.25)):
        alphas, lams = model_table(m).bounds(lo, hi)
        us = np.linspace(lo, hi, 129)
        assert alphas == np.abs(m.speed(us)).max(axis=0).tolist()
        assert lams == np.abs(m.diffusion(us)).max(axis=0).tolist()


def _polished_max(fn, xs):
    """max |fn| over [xs[0], xs[-1]], refined once around each run of consecutive
    local maxima of a sample (a constant's samples are one run, refined once)."""
    vals = np.abs(fn(xs))
    padded = np.concatenate(([-1.0], vals, [-1.0]))
    peak = np.concatenate(([False], (vals >= padded[:-2]) & (vals >= padded[2:]), [False]))
    first = np.nonzero(peak[1:] & ~peak[:-1])[0]
    last = np.nonzero(peak[:-1] & ~peak[1:])[0] - 1
    best = vals.max()
    for a, b in zip(first, last):
        near = np.linspace(xs[max(a - 1, 0)], xs[min(b + 1, xs.size - 1)], 10001)
        best = max(best, np.abs(fn(near)).max())
    return best


_coeff = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def _poly_case(draw):
    flux = draw(st.lists(_coeff, min_size=2, max_size=5))
    diff = draw(st.lists(_coeff, min_size=1, max_size=4))
    lo = draw(st.floats(-1.5, 1.4))
    hi = min(1.5, lo + draw(st.floats(0.05, 2.0)))
    return flux, diff, lo, hi


@example(([0.0, 1.0, 0.0, -1.0], [0.1, 0.0, -0.3], -0.3, 0.9))  # a = 1 - 3u^2
@example(([0.0, 0.4, -0.6, 0.0, 0.5], [0.2, -1.0, 0.0, 2.0], -1.1, 0.55))
@settings(max_examples=80, deadline=None)
@given(_poly_case())
def test_exact_bounds_of_random_polynomial_models(case):
    flux, diff, lo, hi = case
    m = polynomial_model("random", [flux], {(0, 0): diff}, 1, 1.0)
    alphas, lams = model_table(m).bounds(lo, hi)
    big = max(abs(lo), abs(hi))
    dense = np.linspace(lo, hi, 10001)
    poly = np.polynomial.polynomial
    for got, fn, coeffs in (
            (alphas[0], lambda u: m.speed(u)[..., 0], poly.polyder(flux)),
            (lams[0][0], lambda u: m.diffusion(u)[..., 0, 0], diff)):
        assert got >= np.abs(fn(dense)).max()
        assert got >= np.abs(fn(np.linspace(lo, hi, 129))).max()
        # A dense grid misses an interior extremum by up to |p''| h^2 / 8
        # (about 1e-8 here), so the match within 1e-12 is against the
        # dense maximum refined around its peaks. The rounding allowance of
        # Poly.max_abs scales with sum |c_n| |u|^n, which bounds the rest.
        scale = poly.polyval(big, np.abs(coeffs))
        top = _polished_max(fn, dense)
        assert got - top <= 1e-12 * max(top, scale)


def test_interior_extremum_raises_the_speed_bound_over_the_sample():
    # a = 1 - 3u^2 on [-0.31, 0.5]: the 129-point grid misses u = 0.
    m = polynomial_model("interior", [(0.0, 1.0, 0.0, -1.0)], {}, 1, 1.0)
    sampled = np.abs(m.speed(np.linspace(-0.31, 0.5, 129))).max()
    alphas, _ = model_table(m).bounds(-0.31, 0.5)
    assert sampled < 1.0 <= alphas[0] <= 1.0 + 1e-14


@pytest.mark.parametrize("lo,hi", [(-1e160, 1e160), (-1e300, 2.0), (-1.0, 1e200)])
def test_max_abs_is_inf_once_its_rounding_bound_overflows(lo, hi):
    # u^2 has its critical point 0 inside; |u|^2 past 1e308 is inf, not an
    # OverflowError.
    assert Poly((0.0, 0.0, 1.0)).max_abs(lo, hi) == float("inf")
    assert model_table(preset("burgers-degenerate")).bounds(lo, hi)[1] == [[float("inf")]]


_COUPLED = polynomial_model("coupled", [(0.0, 1.0, 0.25), (0.0, 0.5)],
                            {(0, 0): (0.3, 0.1), (0, 1): (0.02, 0.01), (1, 1): (0.2, 0.05)}, 2, 1.0)
_INTERIOR = polynomial_model("interior", [(0.0, 1.0, 0.0, -1.0)], {(0, 0): (0.1, 0.0, -0.3)}, 1, 1.0)
# name -> (model, whether every bound entry is a Poly and so exact)
_BOUND_MODELS = {
    **{name: (preset(name), None) for name in PRESET_NAMES},
    "interior": (_INTERIOR, True),
    "coupled": (_COUPLED, True),
    "bare/coupled": (_bare(_COUPLED), False),
    "bare/burgers-degenerate": (_bare(preset("burgers-degenerate")), False),
}


@pytest.mark.parametrize("name", sorted(_BOUND_MODELS))
def test_bounds_are_python_float_lists(name):
    # The stepper reads the bounds as they come: d floats and a d x d
    # nested list of floats, exact (Poly) or sampled alike.
    m, exact = _BOUND_MODELS[name]
    table, d = model_table(m), m.dimension
    if exact is not None:
        assert {isinstance(e, Poly) for e in (*table.speed.values(), *table.a.values())} == {exact}
    for lo, hi in ((-0.31, 0.5), (-1.0, 1.0), (0.2, 0.2), (-1.2, -0.3)):
        alphas, lams = table.bounds(lo, hi)
        assert type(alphas) is list and len(alphas) == d
        assert type(lams) is list and [(type(row), len(row)) for row in lams] == [(list, d)] * d
        assert all(type(x) is float for x in (*alphas, *(x for row in lams for x in row)))


# The wave bounds as first written, through p(lo), p(hi) and per-entry calls:
# Poly.max_abs and ModelTable.bounds must keep their bits.

def _reference_max_abs(p, lo, hi):
    top = max(abs(p(lo)), abs(p(hi)))
    inner = [v for r, v in p._critical_abs if lo < r < hi]
    if inner:
        m = max(abs(lo), abs(hi))
        try:
            scale = sum(c * m ** n for n, c in p._abs_terms) / p._abs_div
        except OverflowError:
            return float("inf")
        top = max(top, max(inner) + p._rounding * scale)
    return float(top)


def _reference_bounds(table, lo, hi):
    def bound(e):
        if isinstance(e, Poly):
            return _reference_max_abs(e, lo, hi)
        return float(np.abs(e(np.linspace(lo, hi, model_mod.SAMPLED_BOUND_POINTS))).max())

    d = table.model.dimension
    alphas, lams = [0.0] * d, [[0.0] * d for _ in range(d)]
    for (k,), e in table.speed.items():
        alphas[k] = bound(e)
    for (i, j), e in table.a.items():
        lams[i][j] = bound(e)
    return alphas, lams


def _bits(xs):
    """float.hex of every float in a float or nested list: equal hexes, equal bits."""
    return [_bits(x) for x in xs] if isinstance(xs, list) else xs.hex()


_HUGE = st.floats(1e199, 1e201)


@st.composite
def _bound_range(draw, critical=()):
    """[lo, hi]: one point, a range around a critical point or missing them, or ends
    near +-1e200, where the rounding scale overflows."""
    kind = draw(st.sampled_from(["point", "around", "random", "huge"]))
    if kind == "point":
        lo = hi = draw(st.floats(-2.0, 2.0))
    elif kind == "around" and critical:
        r = draw(st.sampled_from(critical))
        lo, hi = r - draw(st.floats(0.0, 1.0)), r + draw(st.floats(0.0, 1.0))
    elif kind == "huge":
        lo = draw(st.one_of(st.floats(-2.0, 2.0), _HUGE.map(lambda x: -x)))
        hi = draw(st.one_of(st.floats(-2.0, 2.0), _HUGE))
    else:
        lo, hi = sorted(draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)))
    return lo, hi


@st.composite
def _bound_poly_case(draw):
    """A Poly of degree 0 to 5, with zero coefficients and maybe a leading 1, and a range."""
    coeffs = draw(st.lists(st.one_of(st.just(0.0), _coeff), min_size=1, max_size=6))
    if len(coeffs) > 1 and draw(st.booleans()):
        coeffs[-1] = 1.0
    p = Poly(coeffs, div=draw(st.sampled_from([1.0, 3.0, 7.0])))
    return p, draw(_bound_range(p.critical))


@example((Poly((2.5,), div=7.0), (-1.0, 1.0)))
@example((Poly((0.0, -1.0, 0.0, 1.0)), (-0.7, -0.7)))
@example((Poly((0.0, -1.0, 0.0, 1.0)), (-1.0, 1.0)))
@example((Poly((0.0, 0.0, 1.0), div=3.0), (-1e200, 1e200)))
@example((Poly((0.5, 0.0, 0.0, 0.0, 0.0, 1.0)), (-1e200, 3.0)))
@settings(max_examples=200, deadline=None)
@given(_bound_poly_case())
def test_max_abs_keeps_the_bits_of_the_reference(case):
    p, (lo, hi) = case
    assert _bits(p.max_abs(lo, hi)) == _bits(_reference_max_abs(p, lo, hi))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_BOUND_MODELS)), _bound_range())
def test_bounds_keep_the_bits_of_the_reference(name, bounds_range):
    # Every preset, polynomial models, and whole callables whose entries are
    # sliced and sampled (bare/...), as are porous-medium's hand-written A.
    table = model_table(_BOUND_MODELS[name][0])
    lo, hi = bounds_range
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(list(table.bounds(lo, hi))) == _bits(list(_reference_bounds(table, lo, hi)))


def test_poly_entry_evaluates_the_same_on_floats_and_arrays():
    p = Poly((0.25, -1.0, 0.0, 0.5), div=3)
    us = np.linspace(-1.3, 1.1, 97)
    assert [float(p(float(u))) for u in us] == p(us).tolist()
    assert Poly((0.0, 0.0)).coeffs == (0.0,)
    assert Poly((2.0,)).derivative().coeffs == (0.0,)
    assert Poly((0, 0, 3), div=3).derivative().coeffs == (0.0, 2.0)
    assert Poly((1.0, 0.0, -3.0)).critical == (0.0,)


@st.composite
def _poly_out_case(draw):
    """A Poly with interior and trailing zeros (or a constant), and an input u of one kind."""
    coeffs = draw(st.lists(st.one_of(st.just(0.0), st.just(1.0), _coeff), min_size=1, max_size=5))
    coeffs += [0.0] * draw(st.integers(0, 2))
    p = Poly(coeffs, div=draw(st.sampled_from([1.0, 3.0, -0.7])))
    kind = draw(st.sampled_from(["float", "vector", "batch", "column"]))
    n = draw(st.integers(1, 9))
    values = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n, max_size=2 * n)))
    u = {"float": float(values[0]), "vector": values[:n], "batch": values.reshape(2, n),
         "column": values.reshape(n, 2)[:, 1]}[kind]
    return p, u


@example((Poly((0.0, 1.0)), np.linspace(-1.0, 1.0, 5)))
@example((Poly((0.0, 1.0), div=3.0), np.linspace(-1.0, 1.0, 5)))
@example((Poly((0.5, 0.0, 1.0)), np.linspace(-1.0, 1.0, 12).reshape(4, 3)[:, 2]))
@example((Poly((0.0, 1.5, 0.0, 0.0, -0.5, 0.0)), np.linspace(-1.0, 1.0, 5)))
@example((Poly((2.0,), div=3.0), np.linspace(-1.0, 1.0, 12).reshape(4, 3)[:, 2]))
@settings(max_examples=80, deadline=None)
@given(_poly_out_case())
def test_poly_out_gives_the_bits_of_the_allocating_call(case):
    # Poly.steps, run into a fresh buffer and into a strided view, give the
    # bits of the allocating call.
    p, u = case
    want = np.asarray(p(u))
    for buf in (np.full(want.shape, np.nan), np.full(want.shape + (2,), np.nan)[..., 0]):
        for fn, args in p.steps(u, buf):
            fn(*args)
        assert buf.tobytes() == want.tobytes()


def test_a_leading_one_skips_its_multiply():
    # u^3/3 binds u u, then u and /3: its first step reads u itself. A lone u
    # keeps its one step.
    u, out = np.linspace(-1.0, 1.0, 7), np.empty(7)
    steps = Poly((0, 0, 0, 1), div=3).steps(u, out)
    assert [(fn, args[0] is u, args[-1] is out) for fn, args in steps] == [
        (np.multiply, True, True), (np.multiply, False, True), (np.divide, False, True)]
    (fn, args), = Poly((0.0, 1.0)).steps(u, out)
    assert fn is np.multiply and args[1:] == (u, out) and args[0] == 1.0


def test_max_abs_keeps_its_overflow_path_with_cached_critical_values():
    p = Poly((0.0, -1.0, 0.0, 1.0))
    assert p.max_abs(-1.0, 1.0) == p.max_abs(-1.0, 1.0) > abs(p(1.0 / np.sqrt(3.0)))
    assert Poly((0.0, 0.0, 1.0)).max_abs(-1e160, 1e160) == np.inf


def test_replaced_callables_are_used_and_keep_sampled_bounds():
    # A ModelSpec changed with dataclasses.replace no longer carries the
    # assembled callables, so its table slices the callables it was given.
    m = preset("burgers-degenerate")
    calls = {"flux": 0, "b_primitive": 0}

    def counted(name):
        def fn(u):
            calls[name] += 1
            return getattr(m, name)(u)
        return fn

    wrapped = replace(m, flux=counted("flux"), b_primitive=counted("b_primitive"),
                      speed=lambda u: m.speed(u), diffusion=lambda u: m.diffusion(u))
    grid = PeriodicGrid.make([1.0], [48])
    scheme = SchemeConfig(t_end=0.02, output_every=0.005)
    profile = lambda x: 0.2 + 0.7 * np.sin(2 * np.pi * x)  # noqa: E731
    ref, got = run(m, grid, profile, scheme), run(wrapped, grid, profile, scheme)
    assert calls["flux"] > 0 and calls["b_primitive"] > 0
    assert got.stats.steps == ref.stats.steps
    assert got.final.values.tobytes() == ref.final.values.tobytes()
    assert model_table(wrapped).bounds(-0.5, 0.9)[0] == [0.9]

    # Hand-built 2-d twins, every callable supplied whole. Their |a| and |A|
    # extrema sit at the ends of the field's range, where the 129-state
    # sample meets the exact polynomial bound, so each run is bit-identical.
    offdiag = polynomial_model("offdiag", [(0.0, 1.0, 0.25), (0.0, 0.5)],
                               {(0, 0): (0.3, 0.1), (0, 1): (0.02, 0.01), (1, 1): (0.2, 0.05)},
                               2, 1.0)
    grid = PeriodicGrid.make([1.0, 1.0], [12, 10])
    scheme = SchemeConfig(t_end=0.03, output_every=0.01)
    profile = lambda x, y: 0.2 + 0.6 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)  # noqa: E731
    for m, steps in ((preset("anisotropic-2d"), 11), (offdiag, 15)):
        twin = ModelSpec(
            dimension=2, state_bound=m.state_bound, name=m.name,
            **{name: (None if getattr(m, name) is None
                      else lambda u, fn=getattr(m, name): fn(u))
               for name in ("flux", "speed", "diffusion", "sqrt_factor",
                            "b_primitive", "beta_primitive")})
        ref, got = run(m, grid, profile, scheme), run(twin, grid, profile, scheme)
        assert ref.stats.steps == steps
        assert [repr(vars(r)) for r in got.rows] == [repr(vars(r)) for r in ref.rows]
        assert repr(vars(got.stats)) == repr(vars(ref.stats))
        assert got.final.values.tobytes() == ref.final.values.tobytes()


def test_validate_model_makes_one_primitive_call_per_quantity(monkeypatch):
    # model.py imports only the batched rule, so counting its calls counts
    # every integration validate_model starts.
    calls = {"batch": 0}
    batch = model_mod.adaptive_quadrature_batch

    def count_batch(*args, **kwargs):
        calls["batch"] += 1
        return batch(*args, **kwargs)

    monkeypatch.setattr(model_mod, "adaptive_quadrature_batch", count_batch)
    # burgers-degenerate has both primitives; the polynomial model lacks
    # beta, whose spline table is built in one batch.
    prims = {"b": 0, "beta": 0}
    m = preset("burgers-degenerate")

    def counted(name, fn):
        def wrapped(u):
            prims[name] += 1
            return fn(u)
        return wrapped

    m = replace(m, b_primitive=counted("b", m.b_primitive),
                beta_primitive=counted("beta", m.beta_primitive))
    assert validate_model(m).overall_pass
    assert prims == {"b": 1, "beta": 1}
    # One batch each for the beta and B gaps and one for the chain rule.
    assert calls == {"batch": 3}
    calls["batch"] = 0
    assert validate_model(polynomial_model("p", [(0.0, 0.0, 0.5)], {(0, 0): (0.1, 0.0, 1.0)},
                                           1, 1.0)).overall_pass
    assert calls == {"batch": 4}
