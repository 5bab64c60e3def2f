"""Tests for the adaptive Gauss-Kronrod integrator."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisolab.quadrature import (
    QuadratureError,
    adaptive_quadrature,
    adaptive_quadrature_batch,
    gauss_kronrod_panel,
)


def test_cubic_is_exact():
    val = adaptive_quadrature(lambda x: x**3, 0.0, 1.0)
    assert val == pytest.approx(0.25, abs=1e-14)


def test_sine_over_half_period():
    val = adaptive_quadrature(np.sin, 0.0, np.pi, abs_tol=1e-12)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_reversed_limits_flip_sign():
    fwd = adaptive_quadrature(lambda x: x**2, 0.0, 2.0)
    rev = adaptive_quadrature(lambda x: x**2, 2.0, 0.0)
    assert rev == pytest.approx(-fwd, abs=1e-13)


def test_empty_interval_is_zero():
    assert adaptive_quadrature(np.exp, 1.5, 1.5) == 0.0


def test_abs_kink_with_breakpoint():
    val = adaptive_quadrature(np.abs, -1.0, 1.0, abs_tol=1e-12, breakpoints=(0.0,))
    assert val == pytest.approx(1.0, abs=1e-12)


def test_sqrt_abs_integrable_singularity():
    # d/dx is unbounded at 0; adaptivity has to dig in around the cusp.
    val = adaptive_quadrature(
        lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, abs_tol=1e-10, breakpoints=(0.0,)
    )
    assert val == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_oscillatory_integrand():
    val = adaptive_quadrature(lambda x: np.sin(40.0 * x), 0.0, 1.0, abs_tol=1e-12)
    exact = (1.0 - np.cos(40.0)) / 40.0
    assert val == pytest.approx(exact, abs=1e-12)


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureError, match="non-finite"):
        adaptive_quadrature(lambda x: np.where(x > 0.25, 1.0, np.inf), 0.0, 1.0)


def test_divergent_integrand_reports_nonconvergence():
    # 1/x is finite at every node but not integrable; the worklist must
    # terminate at the level cap instead of growing without bound.
    with pytest.raises(QuadratureError, match="did not converge"):
        adaptive_quadrature(lambda x: 1.0 / x, 0.0, 1.0, abs_tol=1e-10)


def test_level_cap_raises_with_achieved():
    # A hard cusp with no breakpoint hint and an absurd tolerance cannot
    # converge in two bisection rounds.
    with pytest.raises(QuadratureError) as info:
        adaptive_quadrature(
            lambda x: np.sqrt(np.abs(x - 0.3141)), 0.0, 1.0,
            abs_tol=1e-16, max_levels=2,
        )
    err = info.value
    assert np.isfinite(err.value)
    assert err.achieved > 1e-16


def test_breakpoints_outside_interval_are_ignored():
    val = adaptive_quadrature(lambda x: x, 0.0, 1.0, breakpoints=(-5.0, 7.0))
    assert val == pytest.approx(0.5, abs=1e-13)


def test_panel_batch_matches_loop():
    lo = np.array([0.0, 1.0, -2.0])
    hi = np.array([1.0, 3.0, -0.5])
    vals, errs = gauss_kronrod_panel(np.cos, lo, hi)
    assert vals.shape == (3,) and errs.shape == (3,)
    for k in range(3):
        v, e = gauss_kronrod_panel(np.cos, lo[k : k + 1], hi[k : k + 1])
        # A row's sums depend on its own 15 values alone.
        assert vals[k : k + 1].tobytes() == v.tobytes(), k
        assert errs[k : k + 1].tobytes() == e.tobytes(), k
    exact = np.sin(hi) - np.sin(lo)
    assert np.allclose(vals, exact, atol=1e-12)


def test_panel_requires_batch_callable():
    # Integrands must vectorize: a scalar-only callable fails loudly rather
    # than silently producing garbage.
    def scalar_only(x):
        return float(x)

    with pytest.raises(TypeError):
        adaptive_quadrature(scalar_only, 0.0, 1.0)



@pytest.mark.parametrize("lo, hi", [([0.0, 0.5], [1.0]), ([[0.0, 0.5]], [[1.0, 1.5]]), (0.0, 1.0)])
def test_panel_ends_must_be_equal_length_1d(lo, hi):
    with pytest.raises(ValueError, match="equal-length 1-d"):
        gauss_kronrod_panel(np.cos, lo, hi)
    with pytest.raises(ValueError, match="limits must be equal-length 1-d"):
        adaptive_quadrature_batch(np.cos, lo, hi)


def test_negative_max_levels_is_rejected():
    with pytest.raises(ValueError, match="max_levels"):
        adaptive_quadrature(np.cos, 0.0, 1.0, max_levels=-1)
    with pytest.raises(ValueError, match="max_levels"):
        adaptive_quadrature_batch(lambda x, owner: np.cos(x), [0.0], [1.0], max_levels=-1)
    # Level 0 is the first panels alone: a cubic converges there.
    assert adaptive_quadrature(lambda x: x**3, 0.0, 1.0, max_levels=0) == pytest.approx(0.25)

# --- many integrals in one worklist -------------------------------------------

_OWNER_FUNCS = (
    lambda x: np.abs(x - 0.3),
    lambda x: np.sqrt(np.abs(x)),
    np.exp,
    lambda x: np.sin(40.0 * x),
    lambda x: x**3,
)


def _by_owner(funcs):
    def fn(x, owner):
        out = np.empty_like(x)
        for k, f in enumerate(funcs):
            sel = owner == k
            out[sel] = f(x[sel])
        return out
    return fn


def test_batch_owners_match_standalone_calls():
    # A reversed interval (b < a), a zero-width interval and NaN-padded cut
    # rows: cuts outside the ends, at the ends, duplicated, and -0.0 with 0.0.
    nan = np.nan
    a = [-1.0, 1.0, 1.5, 0.0, 2.0]
    b = [1.0, -1.0, 1.5, 1.0, -0.5]
    cuts = np.array([[0.3, nan, nan, nan],
                     [-0.0, 0.0, 0.5, 0.5],
                     [1.5, nan, nan, nan],
                     [-3.0, 0.0, 1.0, 2.0],
                     [0.1, 9.0, 0.1, nan]])
    vals, errs = adaptive_quadrature_batch(
        _by_owner(_OWNER_FUNCS), a, b, abs_tol=1e-12, breakpoints=cuts)
    assert vals.shape == errs.shape == (5,)
    for k, f in enumerate(_OWNER_FUNCS):
        row = cuts[k][~np.isnan(cuts[k])]
        alone = adaptive_quadrature(f, a[k], b[k], abs_tol=1e-12, breakpoints=tuple(row))
        # Bit for bit the lone call, whatever else shares the worklist.
        assert vals[k] == alone, k
        # A padded row starts the same worklist as its plain cut list.
        assert adaptive_quadrature(f, a[k], b[k], abs_tol=1e-12, breakpoints=cuts[k]) == alone
        # Each owner stops refining when it converges, not when all do.
        _, err_alone = adaptive_quadrature_batch(
            lambda x, owner: f(x), [a[k]], [b[k]], abs_tol=1e-12, breakpoints=[row])
        assert errs[k] == err_alone[0], k
    assert vals[1] == pytest.approx(-4.0 / 3.0, abs=1e-12)
    assert vals[2] == 0.0 and errs[2] == 0.0
    assert np.all(errs <= 1e-12)


def test_batch_nonconverging_owner_raises_with_achieved():
    funcs = (np.cos, lambda x: 1.0 / x, np.exp)
    with pytest.raises(QuadratureError, match="did not converge") as info:
        adaptive_quadrature_batch(_by_owner(funcs), [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(QuadratureError) as alone:
        adaptive_quadrature(funcs[1], 0.0, 1.0)
    assert info.value.achieved > 1e-10
    assert info.value.achieved == pytest.approx(alone.value.achieved, rel=1e-12)
    assert info.value.value == pytest.approx(alone.value.value, rel=1e-12)
    assert str(info.value) == str(alone.value)


def test_batch_non_finite_integrand_names_its_x():
    funcs = (np.cos, lambda x: np.where(x > 2.5, np.inf, 1.0))
    with pytest.raises(QuadratureError, match="non-finite") as info:
        adaptive_quadrature_batch(_by_owner(funcs), [0.0, 2.0], [1.0, 3.0])
    x = float(re.search(r"near x=([-+0-9.e]+)", str(info.value)).group(1))
    assert 2.0 <= x <= 3.0
    assert info.value.achieved == float("inf")



@pytest.mark.parametrize("n, cuts", [
    (3, [[0.5]]),                        # one row for three integrals
    (2, [0.3, 0.5]),                     # a flat row for two integrals
    (2, [[0.3], [0.5], [0.7]]),          # a row too many
    (1, [[[0.5]]]),                      # a 3-d array
    (1, 0.5),
])
def test_breakpoints_need_one_row_per_integral(n, cuts):
    with pytest.raises(ValueError, match="one row per integral"):
        adaptive_quadrature_batch(
            lambda x, owner: np.cos(x), [0.0] * n, [1.0] * n, breakpoints=cuts)

@pytest.mark.parametrize("a, b", [(np.nan, 1.0), (0.0, np.nan), (-np.inf, 1.0), (0.0, np.inf)])
def test_non_finite_limits_raise(a, b):
    with pytest.raises(QuadratureError, match="limits must be finite"):
        adaptive_quadrature(np.exp, a, b)
    with pytest.raises(QuadratureError, match="limits must be finite"):
        adaptive_quadrature_batch(lambda x, owner: np.exp(x), [0.0, a], [1.0, b])


# --- vector integrands: m components, each on its own panel tree --------------

# Two components whose trees differ: a smooth one and a narrow peak at 0.
_COMPONENTS = (np.cos, lambda x: 1.0 / (1e-4 + x * x))


def _stacked(funcs):
    return lambda x, owner: np.stack([f(x) for f in funcs])


def test_vector_components_match_their_scalar_calls():
    nan = np.nan
    a = [-1.0, 1.0, 1.5, 0.0, 2.0]
    b = [1.0, -1.0, 1.5, 1.0, -0.5]
    cuts = np.array([[0.3, nan, nan, nan],
                     [-0.0, 0.0, 0.5, 0.5],
                     [1.5, nan, nan, nan],
                     [-3.0, 0.0, 1.0, 2.0],
                     [0.1, 9.0, 0.1, nan]])
    vals, errs = adaptive_quadrature_batch(
        _stacked(_COMPONENTS), a, b, abs_tol=1e-12, breakpoints=cuts)
    assert vals.shape == errs.shape == (2, 5)
    for c, f in enumerate(_COMPONENTS):
        # Bit for bit the batch of this component alone.
        alone_vals, alone_errs = adaptive_quadrature_batch(
            lambda x, owner: f(x), a, b, abs_tol=1e-12, breakpoints=cuts)
        assert vals[c].tobytes() == alone_vals.tobytes(), c
        assert errs[c].tobytes() == alone_errs.tobytes(), c
        for k in range(5):
            row = cuts[k][~np.isnan(cuts[k])]
            lone = adaptive_quadrature(f, a[k], b[k], abs_tol=1e-12, breakpoints=tuple(row))
            assert vals[c, k] == lone, (c, k)
    assert vals[:, 2].tolist() == [0.0, 0.0] and errs[:, 2].tolist() == [0.0, 0.0]
    assert vals[0, 1] == pytest.approx(-2.0 * np.sin(1.0), abs=1e-12)
    assert vals[1, 0] == pytest.approx(200.0 * np.arctan(100.0), abs=1e-10)


def test_vector_components_with_no_whole_tree_match_their_scalar_calls():
    # Peaks on either side of the cut: from level 3 on neither component's
    # tree is the whole worklist, so the panel sums no row at all.
    funcs = (lambda x: 1.0 / (1e-4 + (x + 0.5) ** 2), lambda x: 1.0 / (1e-4 + (x - 0.5) ** 2))
    a, b, cuts = [-1.0, -1.0], [1.0, 0.9], [[0.0], [0.0]]
    vals, errs = adaptive_quadrature_batch(_stacked(funcs), a, b, abs_tol=1e-12, breakpoints=cuts)
    for c, f in enumerate(funcs):
        alone_vals, alone_errs = adaptive_quadrature_batch(
            lambda x, owner: f(x), a, b, abs_tol=1e-12, breakpoints=cuts)
        assert vals[c].tobytes() == alone_vals.tobytes(), c
        assert errs[c].tobytes() == alone_errs.tobytes(), c

@st.composite
def _peak_batches(draw):
    """Widths, centres, NaN-padded cut rows or None, and 1 to 6 width scales.

    Component i of integral k is the peak of width widths[k] * scales[i], so
    the components' trees differ and finish at different levels, as the
    rows of a lam ladder do.
    """
    n = draw(st.integers(2, 40))
    widths = draw(st.lists(st.floats(1e-5, 1.0), min_size=n, max_size=n))
    centres = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    cuts = None
    if draw(st.booleans()):
        cut = st.one_of(st.just(np.nan), st.floats(-1.2, 1.2))
        cuts = draw(st.lists(st.lists(cut, min_size=2, max_size=2), min_size=n, max_size=n))
    scales = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6))
    return np.array(widths), np.array(centres), cuts, np.array(scales)


@settings(max_examples=30, deadline=None)
@given(batch=_peak_batches())
def test_batched_peaks_equal_their_lone_calls_bit_for_bit(batch):
    # Peaks 1/(w s + (x - c)^2), one component per scale s, alternately
    # mirrored, so each integral's tree differs from its neighbours' in the
    # worklist and each component's from the others'.
    widths, centres, cuts, scales = batch

    def peaks(w, c, s):
        def fn(x, owner):
            y = [1.0 / (w[owner] * si + (x - (-1.0) ** i * c[owner]) ** 2)
                 for i, si in enumerate(s)]
            return np.stack(y) if len(s) > 1 else y[0]
        return fn

    n = len(widths)
    vals, errs = adaptive_quadrature_batch(
        peaks(widths, centres, scales), [-1.0] * n, [1.0] * n, breakpoints=cuts)
    vals, errs = vals.reshape(-1, n), errs.reshape(-1, n)
    for k in range(n):
        for i in range(len(scales)):
            # Bit for bit the one-component call on this integral alone.
            alone = adaptive_quadrature_batch(
                peaks(widths[k:k + 1], (-1.0) ** i * centres[k:k + 1], scales[i:i + 1]),
                [-1.0], [1.0], breakpoints=None if cuts is None else cuts[k:k + 1])
            assert vals[i, k:k + 1].tobytes() == alone[0].tobytes(), (i, k)
            assert errs[i, k:k + 1].tobytes() == alone[1].tobytes(), (i, k)


def test_vector_zero_span_limits_keep_the_component_axis():
    vals, errs = adaptive_quadrature_batch(_stacked(_COMPONENTS), [1.0, -2.0], [1.0, -2.0])
    assert vals.shape == errs.shape == (2, 2)
    assert not vals.any() and not errs.any()


def test_one_component_behaves_as_the_scalar_form():
    a, b = [-1.0, 0.0, 3.0], [1.0, 2.0, 1.0]
    scalar = adaptive_quadrature_batch(
        lambda x, owner: np.sqrt(np.abs(x - 0.25 * owner)), a, b, abs_tol=1e-11)
    vector = adaptive_quadrature_batch(
        lambda x, owner: np.sqrt(np.abs(x - 0.25 * owner))[None], a, b, abs_tol=1e-11)
    for got, want in zip(vector, scalar):
        assert got.shape == (1, 3)
        assert got[0].tobytes() == want.tobytes()


def test_vector_nonconvergence_names_component_and_integral():
    def fn(x, owner):
        return np.stack([np.cos(x), np.where(owner == 1, 1.0 / x, np.exp(x))])

    with pytest.raises(QuadratureError, match=r"component 1, integral 1\)") as info:
        adaptive_quadrature_batch(fn, [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(QuadratureError) as alone:
        adaptive_quadrature(lambda x: 1.0 / x, 0.0, 1.0)
    assert info.value.achieved > 1e-10
    assert info.value.achieved == pytest.approx(alone.value.achieved, rel=1e-12)
    assert info.value.value == pytest.approx(alone.value.value, rel=1e-12)
    assert str(alone.value) in str(info.value)

    # Three components where only the middle one fails: the message gives
    # its row, not its place among the components still running.
    def three(x, owner):
        return np.stack([np.cos(x), np.where(owner == 1, 1.0 / x, np.exp(x)), np.sin(x)])

    with pytest.raises(QuadratureError, match=r"component 1, integral 1\)$") as info:
        adaptive_quadrature_batch(three, [0.0, 0.0], [1.0, 1.0])
    assert info.value.achieved == alone.value.achieved
    assert info.value.value == alone.value.value


def test_vector_non_finite_integrand_names_its_x():
    def fn(x, owner):
        return np.stack([np.cos(x), np.where(x > 2.5, np.inf, 1.0)])

    with pytest.raises(QuadratureError, match="non-finite") as info:
        adaptive_quadrature_batch(fn, [0.0, 2.0], [1.0, 3.0])
    x = float(re.search(r"near x=([-+0-9.e]+)", str(info.value)).group(1))
    assert 2.0 <= x <= 3.0
    assert info.value.achieved == float("inf")


def test_one_component_nonconvergence_names_component_zero():
    # A 1-d integrand and its one-row vector form take the same path; only
    # the vector form's message names the component.
    with pytest.raises(QuadratureError, match="did not converge") as scalar:
        adaptive_quadrature_batch(lambda x, owner: 1.0 / x, [1.0, 0.0], [2.0, 1.0])
    with pytest.raises(QuadratureError, match=r" \(component 0, integral 1\)$") as vector:
        adaptive_quadrature_batch(lambda x, owner: (1.0 / x)[None], [1.0, 0.0], [2.0, 1.0])
    assert "component" not in str(scalar.value)
    assert str(vector.value).startswith(str(scalar.value))
    assert vector.value.achieved == scalar.value.achieved > 1e-10
    assert vector.value.value == scalar.value.value
