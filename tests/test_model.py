"""Tests for model construction, evaluation, and structural validation."""

import numpy as np
import pytest

from anisolab.model import (
    QUAD_LEVELS,
    ModelError,
    ModelSpec,
    NotPSDError,
    beta_eval,
    bprimitive_eval,
    diffusion_eval,
    flux_eval,
    list_presets,
    polynomial_model,
    preset,
    primitive_tables,
    speed_eval,
    sqrt_factor_eval,
    validate_model,
    _spline_primitive,
)
from anisolab.quadrature import adaptive_quadrature

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
    assert flux_eval(m, 2.0) == pytest.approx([2.0], abs=1e-15)
    assert flux_eval(m, 0.0) == pytest.approx([0.0], abs=0)


def test_flux_anisotropic_2d():
    m = preset("anisotropic-2d")
    assert flux_eval(m, 1.0) == pytest.approx([0.5, 1.0 / 3.0], abs=1e-15)


def test_speed_burgers_and_advection():
    assert speed_eval(preset("burgers"), 3.0) == pytest.approx([3.0], abs=1e-15)
    assert speed_eval(preset("linear-advection"), -0.7) == pytest.approx([1.0], abs=0)


def test_speed_fd_fallback_matches_derivative():
    m = ModelSpec(
        dimension=1,
        flux=lambda u: np.stack([0.5 * np.asarray(u, dtype=float) ** 2], axis=-1),
        diffusion=lambda u: np.zeros(np.shape(u) + (1, 1)),
        state_bound=2.0,
        name="fd-fallback",
    )
    assert speed_eval(m, 1.0) == pytest.approx([1.0], abs=1e-9)
    assert speed_eval(m, -1.3) == pytest.approx([-1.3], abs=1e-8)


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
            assert speed_eval(stripped, u) == pytest.approx(
                speed_eval(m, u), abs=1e-8
            ), f"{name} at u={u}"


def test_diffusion_porous_and_advection():
    assert np.allclose(
        diffusion_eval(preset("porous-medium"), -0.5), [[1.0]], atol=1e-15
    )
    assert np.array_equal(
        diffusion_eval(preset("linear-advection"), 0.6), [[0.0]]
    )


def test_diffusion_anisotropic_2d():
    got = diffusion_eval(preset("anisotropic-2d"), 2.0)
    assert np.allclose(got, [[4.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_sqrt_factor_diagonal_case():
    got = sqrt_factor_eval(preset("anisotropic-2d"), 2.0)
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
    sig = sqrt_factor_eval(m, 0.5)
    recon = sig @ sig.T
    assert np.abs(recon - np.array([[2.0, 1.0], [1.0, 2.0]])).max() < 1e-12


def test_sqrt_factor_rejects_negative_diffusion():
    m = polynomial_model(
        "negative", [(0.0,)], {(0, 0): (-1.0,)}, dimension=1, state_bound=1.0
    )
    with pytest.raises(NotPSDError):
        sqrt_factor_eval(m, 0.3)


def test_beta_examples():
    assert beta_eval(preset("burgers-degenerate"), 1.0, 0, 0) == pytest.approx(
        0.5, abs=1e-12
    )
    assert beta_eval(preset("linear-advection"), 0.8, 0, 0) == 0.0
    # A = 2|u| gives sigma = sqrt(2|u|) and primitive (2 sqrt 2 / 3) |u|^1.5 sign(u).
    assert beta_eval(preset("porous-medium"), 1.0, 0, 0) == pytest.approx(
        2.0 * np.sqrt(2.0) / 3.0, abs=1e-12
    )


def test_bprimitive_examples():
    assert bprimitive_eval(preset("burgers-degenerate"), 1.0, 0, 0) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )
    assert bprimitive_eval(preset("linear-advection"), -0.4, 0, 0) == 0.0
    # A = 2|u| integrates to u|u|; at u = -1 that is -1.
    assert bprimitive_eval(preset("porous-medium"), -1.0, 0, 0) == pytest.approx(
        -1.0, abs=1e-12
    )


def test_primitive_component_out_of_range():
    with pytest.raises(IndexError):
        beta_eval(preset("burgers"), 0.5, 0, 1)
    with pytest.raises(IndexError):
        bprimitive_eval(preset("burgers"), 0.5, 1, 0)


def test_fd_derivative_of_primitives_matches_integrands():
    # Centered differences of the primitives must recover sigma and A at
    # points away from the |u| kinks; the FD step sets the error scale.
    h = 1e-6
    for name in ("burgers-degenerate", "porous-medium"):
        m = preset(name)
        for u in np.linspace(-0.87, 0.91, 13):
            if abs(u) < 0.05:
                continue
            d_beta = (beta_eval(m, u + h, 0, 0) - beta_eval(m, u - h, 0, 0)) / (2 * h)
            d_b = (
                bprimitive_eval(m, u + h, 0, 0) - bprimitive_eval(m, u - h, 0, 0)
            ) / (2 * h)
            assert abs(d_beta - sqrt_factor_eval(m, u)[0, 0]) < 10 * h, (name, u)
            assert abs(d_b - diffusion_eval(m, u)[0, 0]) < 10 * h, (name, u)


# --- polynomial models -------------------------------------------------------

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
        assert flux_eval(m, u) == pytest.approx(flux_eval(ref, u), abs=1e-14)
        assert diffusion_eval(m, u) == pytest.approx(diffusion_eval(ref, u), abs=1e-14)
        assert bprimitive_eval(m, u, 0, 0) == pytest.approx(
            bprimitive_eval(ref, u, 0, 0), abs=1e-12
        )
    assert speed_eval(m, 0.7) == pytest.approx([0.7], abs=1e-14)


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
        flux_eval(m, 0.5)


# --- primitive tables --------------------------------------------------------

def test_primitive_tables_mark_zero_entries():
    adv = primitive_tables(preset("linear-advection"))
    assert not adv.has_diffusion
    assert not adv.flux_is_zero
    assert all(entry is None for row in adv.b for entry in row)

    por = primitive_tables(preset("porous-medium"))
    assert por.flux_is_zero
    assert por.has_diffusion
    assert por.b[0][0] is not None


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
    tables = primitive_tables(m)
    us = np.linspace(-1.0, 1.0, 401)
    got = tables.b[0][0](us)
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
