"""Model descriptions for scalar conservation laws with degenerate diffusion.

A model bundles everything the solver and the condition checker need about

    d/dt u + div f(u) = div (A(u) grad u)

on a periodic box: the flux ``f``, its speed ``a = f'``, the symmetric
positive semidefinite diffusion matrix ``A``, a square-root factor
``sigma`` with ``sigma sigma^T = A``, and the primitives

    beta_ik(u) = integral of sigma_ik from 0 to u
    B_ij(u)   = integral of A_ij from 0 to u

whose discrete differences drive the diffusion stencil and the resolved
dissipation estimate.

Callable convention: every model callable is vectorized. For an input of
shape S, ``flux`` and ``speed`` return shape S + (d,), while ``diffusion``,
``sqrt_factor`` and the optional primitives return shape S + (d, d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .quadrature import QuadratureError, adaptive_quadrature, adaptive_quadrature_batch

__all__ = [
    "ModelError",
    "NotPSDError",
    "ModelSpec",
    "ModelValidationReport",
    "CheckResult",
    "flux_eval",
    "speed_eval",
    "diffusion_eval",
    "sqrt_factor_eval",
    "beta_eval",
    "bprimitive_eval",
    "validate_model",
    "preset",
    "list_presets",
    "polynomial_model",
    "primitive_tables",
    "speed_vector",
]

TOL_PSD = 1e-12
TOL_FACTOR = 1e-10
TOL_SYMMETRY = 1e-12
TOL_PRIMITIVE = 1e-9
TOL_CHAIN = 1e-10
H_FD_SCALE = 1e-6
QUAD_TOL = 1e-10
QUAD_LEVELS = 40


class ModelError(Exception):
    """A model callable misbehaved (non-finite value, bad shape, ...)."""


class NotPSDError(ModelError):
    """The diffusion matrix has an eigenvalue below -TOL_PSD."""


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Complete description of one equation.

    ``speed``, ``sqrt_factor``, ``beta_primitive`` and ``b_primitive`` are
    optional. Missing ``speed`` falls back to centered differences of the
    flux, missing ``sqrt_factor`` to an eigendecomposition square root, and
    missing primitives to adaptive quadrature (cached as spline tables for
    field-sized evaluations). Supplied primitives must vanish at u = 0.
    """

    dimension: int
    flux: Callable
    diffusion: Callable
    state_bound: float
    name: str
    speed: Optional[Callable] = None
    sqrt_factor: Optional[Callable] = None
    beta_primitive: Optional[Callable] = None
    b_primitive: Optional[Callable] = None

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if not (np.isfinite(self.state_bound) and self.state_bound > 0):
            raise ValueError(f"state_bound must be positive, got {self.state_bound}")


def _as_components(out, u_shape, d, what):
    arr = np.asarray(out, dtype=float)
    want = tuple(u_shape) + (d,)
    if arr.shape != want:
        raise ModelError(f"{what} returned shape {arr.shape}, expected {want}")
    return arr


def _as_matrix(out, u_shape, d, what):
    arr = np.asarray(out, dtype=float)
    want = tuple(u_shape) + (d, d)
    if arr.shape != want:
        raise ModelError(f"{what} returned shape {arr.shape}, expected {want}")
    return arr


def flux_eval(model, u):
    """Flux vector f(u) as a (d,) array; rejects non-finite output."""
    u = float(u)
    out = _as_components(model.flux(u), (), model.dimension, "flux")
    if not np.isfinite(out).all():
        raise ModelError(f"flux({u!r}) is not finite: {out}")
    return out


def speed_eval(model, u):
    """Speed a(u) = f'(u); centered-difference fallback when not supplied."""
    u = float(u)
    if model.speed is not None:
        out = _as_components(model.speed(u), (), model.dimension, "speed")
    else:
        h = H_FD_SCALE * max(1.0, abs(u))
        out = (flux_eval(model, u + h) - flux_eval(model, u - h)) / (2.0 * h)
    if not np.isfinite(out).all():
        raise ModelError(f"speed({u!r}) is not finite: {out}")
    return out


def speed_vector(model, u):
    """Vectorized speed: input shape S, output shape S + (d,)."""
    u = np.asarray(u, dtype=float)
    if model.speed is not None:
        return _as_components(model.speed(u), u.shape, model.dimension, "speed")
    h = H_FD_SCALE * np.maximum(1.0, np.abs(u))
    f_hi = _as_components(model.flux(u + h), u.shape, model.dimension, "flux")
    f_lo = _as_components(model.flux(u - h), u.shape, model.dimension, "flux")
    return (f_hi - f_lo) / (2.0 * h[..., None])


def diffusion_eval(model, u):
    """Diffusion matrix A(u) as a (d, d) array; must be symmetric."""
    u = float(u)
    out = _as_matrix(model.diffusion(u), (), model.dimension, "diffusion")
    if not np.isfinite(out).all():
        raise ModelError(f"diffusion({u!r}) is not finite")
    skew = np.abs(out - out.T).max()
    if skew > TOL_SYMMETRY * (1.0 + np.abs(out).max()):
        raise ModelError(f"diffusion({u!r}) is not symmetric (skew {skew:.3e})")
    return out


def _sqrt_psd(mats):
    """Symmetric PSD square root of a stack of symmetric matrices."""
    w, v = np.linalg.eigh(mats)
    if w.min() < -TOL_PSD:
        raise NotPSDError(
            f"diffusion matrix has eigenvalue {w.min():.3e} below -{TOL_PSD:g}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


def sqrt_factor_vector(model, u):
    """Vectorized sigma(u) with sigma sigma^T = A(u); eigen fallback."""
    u = np.asarray(u, dtype=float)
    if model.sqrt_factor is not None:
        return _as_matrix(model.sqrt_factor(u), u.shape, model.dimension, "sqrt_factor")
    mats = _as_matrix(model.diffusion(u), u.shape, model.dimension, "diffusion")
    return _sqrt_psd(mats)


def sqrt_factor_eval(model, u):
    """sigma(u) as a (d, d) array. Raises NotPSDError when A(u) is not PSD."""
    out = sqrt_factor_vector(model, float(u))
    if not np.isfinite(out).all():
        raise ModelError(f"sqrt_factor({u!r}) is not finite")
    return out


def beta_eval(model, u, i, k, *, abs_tol=QUAD_TOL):
    """beta_ik(u), the primitive of sigma_ik from 0 to u."""
    u = float(u)
    d = model.dimension
    if not (0 <= i < d and 0 <= k < d):
        raise IndexError(f"component ({i},{k}) out of range for dimension {d}")
    if model.beta_primitive is not None:
        return float(_as_matrix(model.beta_primitive(u), (), d, "beta_primitive")[i, k])
    return adaptive_quadrature(
        lambda v: sqrt_factor_vector(model, v)[..., i, k],
        0.0, u, abs_tol=abs_tol, max_levels=QUAD_LEVELS)


def bprimitive_eval(model, u, i, j, *, abs_tol=QUAD_TOL):
    """B_ij(u), the primitive of A_ij from 0 to u."""
    u = float(u)
    d = model.dimension
    if not (0 <= i < d and 0 <= j < d):
        raise IndexError(f"component ({i},{j}) out of range for dimension {d}")
    if model.b_primitive is not None:
        return float(_as_matrix(model.b_primitive(u), (), d, "b_primitive")[i, j])
    return adaptive_quadrature(
        lambda v: _as_matrix(model.diffusion(v), v.shape, d, "diffusion")[..., i, j],
        0.0, u, abs_tol=abs_tol, max_levels=QUAD_LEVELS)


# --- preset gallery ---------------------------------------------------------

def _stack(u, comps):
    u = np.asarray(u, dtype=float)
    cols = [np.broadcast_to(np.asarray(c, dtype=float), u.shape) for c in comps]
    return np.stack(cols, axis=-1)


def _matrix(u, entries, d):
    """Build S+(d,d) from a dict {(i,j): array}; entries are symmetric."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape + (d, d))
    for (i, j), val in entries.items():
        arr = np.broadcast_to(np.asarray(val, dtype=float), u.shape)
        out[..., i, j] = arr
        if i != j:
            out[..., j, i] = arr
    return out


def _cube(u):
    """u**3 as u*u*u: numpy's power takes a slow path on sign-changing data."""
    u = np.asarray(u, dtype=float)
    return u * u * u


def _linear_advection(state_bound=1.0):
    return ModelSpec(
        dimension=1,
        flux=lambda u: _stack(u, [np.asarray(u, dtype=float)]),
        speed=lambda u: _stack(u, [np.ones_like(np.asarray(u, dtype=float))]),
        diffusion=lambda u: _matrix(u, {}, 1),
        sqrt_factor=lambda u: _matrix(u, {}, 1),
        beta_primitive=lambda u: _matrix(u, {}, 1),
        b_primitive=lambda u: _matrix(u, {}, 1),
        state_bound=state_bound,
        name="linear-advection",
    )


def _burgers(state_bound=1.0):
    return ModelSpec(
        dimension=1,
        flux=lambda u: _stack(u, [0.5 * np.square(np.asarray(u, dtype=float))]),
        speed=lambda u: _stack(u, [np.asarray(u, dtype=float)]),
        diffusion=lambda u: _matrix(u, {}, 1),
        sqrt_factor=lambda u: _matrix(u, {}, 1),
        beta_primitive=lambda u: _matrix(u, {}, 1),
        b_primitive=lambda u: _matrix(u, {}, 1),
        state_bound=state_bound,
        name="burgers",
    )


def _burgers_degenerate(state_bound=1.0):
    def beta(u):
        u = np.asarray(u, dtype=float)
        return _matrix(u, {(0, 0): 0.5 * u * np.abs(u)}, 1)

    return ModelSpec(
        dimension=1,
        flux=lambda u: _stack(u, [0.5 * np.square(np.asarray(u, dtype=float))]),
        speed=lambda u: _stack(u, [np.asarray(u, dtype=float)]),
        diffusion=lambda u: _matrix(u, {(0, 0): np.square(np.asarray(u, dtype=float))}, 1),
        sqrt_factor=lambda u: _matrix(u, {(0, 0): np.abs(np.asarray(u, dtype=float))}, 1),
        beta_primitive=beta,
        b_primitive=lambda u: _matrix(u, {(0, 0): _cube(u) / 3.0}, 1),
        state_bound=state_bound,
        name="burgers-degenerate",
    )


def _porous_medium(state_bound=1.0, m=2):
    if m != 2:
        raise ValueError("only the quadratic porous-medium preset is wired in")

    def beta(u):
        u = np.asarray(u, dtype=float)
        val = np.sqrt(2.0) * (2.0 / 3.0) * np.sign(u) * np.abs(u) ** 1.5
        return _matrix(u, {(0, 0): val}, 1)

    return ModelSpec(
        dimension=1,
        flux=lambda u: _stack(u, [np.zeros_like(np.asarray(u, dtype=float))]),
        speed=lambda u: _stack(u, [np.zeros_like(np.asarray(u, dtype=float))]),
        diffusion=lambda u: _matrix(u, {(0, 0): 2.0 * np.abs(np.asarray(u, dtype=float))}, 1),
        sqrt_factor=lambda u: _matrix(
            u, {(0, 0): np.sqrt(2.0 * np.abs(np.asarray(u, dtype=float)))}, 1),
        beta_primitive=beta,
        b_primitive=lambda u: _matrix(
            u, {(0, 0): np.asarray(u, dtype=float) * np.abs(np.asarray(u, dtype=float))}, 1),
        state_bound=state_bound,
        name="porous-medium",
    )


def _anisotropic_2d(state_bound=1.0):
    def flux(u):
        u = np.asarray(u, dtype=float)
        return _stack(u, [0.5 * u ** 2, _cube(u) / 3.0])

    def speed(u):
        u = np.asarray(u, dtype=float)
        return _stack(u, [u, u ** 2])

    return ModelSpec(
        dimension=2,
        flux=flux,
        speed=speed,
        diffusion=lambda u: _matrix(u, {(0, 0): np.square(np.asarray(u, dtype=float))}, 2),
        sqrt_factor=lambda u: _matrix(u, {(0, 0): np.abs(np.asarray(u, dtype=float))}, 2),
        beta_primitive=lambda u: _matrix(
            u, {(0, 0): 0.5 * np.asarray(u, dtype=float) * np.abs(np.asarray(u, dtype=float))}, 2),
        b_primitive=lambda u: _matrix(u, {(0, 0): _cube(u) / 3.0}, 2),
        state_bound=state_bound,
        name="anisotropic-2d",
    )


_PRESETS = {
    "linear-advection": _linear_advection,
    "burgers": _burgers,
    "burgers-degenerate": _burgers_degenerate,
    "porous-medium": _porous_medium,
    "anisotropic-2d": _anisotropic_2d,
}


def list_presets():
    return sorted(_PRESETS)


def preset(name, state_bound=1.0):
    """Instantiate a gallery model by name."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}") from None
    return factory(state_bound=state_bound)


def polynomial_model(name, flux_coeffs, diffusion_coeffs, dimension, state_bound):
    """Build a model from polynomial coefficient lists (constant term first).

    ``flux_coeffs`` holds one coefficient list per flux component and
    ``diffusion_coeffs`` maps upper-triangle indexes (i, j) with i <= j to
    coefficient lists. Speed and the B primitive come from exact
    differentiation and integration of the polynomials.
    """
    poly = np.polynomial.polynomial
    d = int(dimension)
    if len(flux_coeffs) != d:
        raise ValueError(f"need {d} flux component(s), got {len(flux_coeffs)}")
    fcs = [np.asarray(c, dtype=float) for c in flux_coeffs]
    acs = {}
    for (i, j), c in diffusion_coeffs.items():
        if not (0 <= i <= j < d):
            raise ValueError(f"diffusion index ({i},{j}) must be upper-triangle in dimension {d}")
        acs[(i, j)] = np.asarray(c, dtype=float)
    dcs = [poly.polyder(c) if len(c) > 1 else np.zeros(1) for c in fcs]
    bcs = {ij: poly.polyint(c) for ij, c in acs.items()}

    def flux(u):
        return _stack(u, [poly.polyval(np.asarray(u, dtype=float), c) for c in fcs])

    def speed(u):
        return _stack(u, [poly.polyval(np.asarray(u, dtype=float), c) for c in dcs])

    def diffusion(u):
        uu = np.asarray(u, dtype=float)
        return _matrix(uu, {ij: poly.polyval(uu, c) for ij, c in acs.items()}, d)

    def b_primitive(u):
        uu = np.asarray(u, dtype=float)
        return _matrix(uu, {ij: poly.polyval(uu, c) for ij, c in bcs.items()}, d)

    return ModelSpec(
        dimension=d,
        flux=flux,
        speed=speed,
        diffusion=diffusion,
        b_primitive=b_primitive,
        state_bound=float(state_bound),
        name=name,
    )


# --- fast primitive tables for field-sized evaluation -----------------------

@dataclass
class PrimitiveTables:
    """Vectorized B_ij and beta_ik evaluators; ``None`` marks a zero entry."""

    b: list
    beta: list
    flux_is_zero: bool

    @property
    def has_diffusion(self):
        return any(entry is not None for row in self.b for entry in row)


def _component_fn(primitive, i, j, d):
    def fn(u):
        u = np.asarray(u, dtype=float)
        return _as_matrix(primitive(u), u.shape, d, "primitive")[..., i, j]
    return fn


def _spline_primitive(integrand_vec, span):
    """Cumulative primitive of a vectorized integrand as a Hermite spline."""
    nodes = np.linspace(-span, span, 1025)
    segments, _ = adaptive_quadrature_batch(
        lambda v, owner: integrand_vec(v), nodes[:-1], nodes[1:],
        abs_tol=1e-13, max_levels=QUAD_LEVELS)
    # Accumulate outward from the middle node, where the primitive is 0.
    i0 = nodes.size // 2
    vals = np.empty_like(nodes)
    vals[i0] = 0.0
    vals[i0 + 1:] = np.cumsum(segments[i0:])
    vals[:i0] = -np.cumsum(segments[i0 - 1::-1])[::-1]
    slopes = integrand_vec(nodes)
    spline = CubicHermiteSpline(nodes, vals, slopes)

    def fn(u):
        return spline(np.asarray(u, dtype=float))
    return fn


@lru_cache(maxsize=64)
def primitive_tables(model):
    """Per-model cache of vectorized primitive evaluators.

    Analytic primitives are used directly when the model carries them;
    otherwise a dense Hermite spline is fitted to quadrature values once.
    Entries that are identically zero over the state interval are None so
    stencil code can skip them.
    """
    d = model.dimension
    span = 1.05 * model.state_bound
    probe = np.linspace(-span, span, 257)
    a_probe = _as_matrix(model.diffusion(probe), probe.shape, d, "diffusion")
    sig_probe = sqrt_factor_vector(model, probe)
    f_probe = _as_components(model.flux(probe), probe.shape, d, "flux")

    b_table = [[None] * d for _ in range(d)]
    beta_table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if np.abs(a_probe[..., i, j]).max() > 0.0:
                if model.b_primitive is not None:
                    b_table[i][j] = _component_fn(model.b_primitive, i, j, d)
                else:
                    b_table[i][j] = _spline_primitive(
                        lambda v, i=i, j=j: _as_matrix(
                            model.diffusion(v), np.shape(v), d, "diffusion")[..., i, j],
                        span)
            if np.abs(sig_probe[..., i, j]).max() > 0.0:
                if model.beta_primitive is not None:
                    beta_table[i][j] = _component_fn(model.beta_primitive, i, j, d)
                else:
                    beta_table[i][j] = _spline_primitive(
                        lambda v, i=i, j=j: sqrt_factor_vector(model, v)[..., i, j],
                        span)
    return PrimitiveTables(
        b=b_table,
        beta=beta_table,
        flux_is_zero=bool(np.abs(f_probe).max() == 0.0),
    )


# --- validation --------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    residual: float
    tolerance: float
    passed: bool


@dataclass
class ModelValidationReport:
    """Outcome of validate_model: one CheckResult per structural property."""

    model_name: str
    samples: int
    checks: dict = field(default_factory=dict)

    @property
    def overall_pass(self):
        return all(c.passed for c in self.checks.values())

    @property
    def worst_residual(self):
        return max(c.residual for c in self.checks.values())

    def lines(self):
        out = []
        for name, c in sorted(self.checks.items()):
            status = "pass" if c.passed else "FAIL"
            out.append(
                f"{status}  {name:<16} residual {c.residual:.3e}  tolerance {c.tolerance:.3e}")
        out.append(f"{'pass' if self.overall_pass else 'FAIL'}  overall ({self.samples} samples)")
        return out


def _check(report, name, residual, tolerance):
    residual = float(residual)
    report.checks[name] = CheckResult(residual, float(tolerance),
                                      bool(residual <= tolerance))


def validate_model(model, samples=101, *, tol_psd=TOL_PSD, tol_factor=TOL_FACTOR,
                   tol_symmetry=TOL_SYMMETRY, tol_primitive=TOL_PRIMITIVE,
                   tol_chain=TOL_CHAIN):
    """Audit the structural contracts of a model over its state interval.

    Checks symmetry and positive semidefiniteness of A, the square-root
    factorization, both primitives in integral form, and the chain rule
    d/du of the reweighted primitive of sqrt(psi) sigma against
    sqrt(psi) sigma for a fixed smooth weight psi. Failures are reported,
    never raised.
    """
    report = ModelValidationReport(model_name=model.name, samples=int(samples))
    d = model.dimension
    big = model.state_bound
    us = np.linspace(-big, big, int(samples))

    mats = _as_matrix(model.diffusion(us), us.shape, d, "diffusion")
    _check(report, "symmetry", np.abs(mats - np.swapaxes(mats, -1, -2)).max(), tol_symmetry)

    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    eigvals = np.linalg.eigvalsh(sym)
    _check(report, "psd", max(0.0, -float(eigvals.min())), tol_psd)

    try:
        sig = sqrt_factor_vector(model, us)
        recon = sig @ np.swapaxes(sig, -1, -2)
        _check(report, "factorization", np.abs(recon - mats).max(), tol_factor)
    except ModelError:
        _check(report, "factorization", float("inf"), tol_factor)

    # Primitives in integral form: primitives differenced across sample
    # gaps must match an independent quadrature of their integrand.
    pairs = np.linspace(-big, big, 17)
    worst_beta = 0.0
    worst_b = 0.0
    try:
        for i in range(d):
            for j in range(d):
                vals_beta = [beta_eval(model, u, i, j, abs_tol=1e-12) for u in pairs]
                vals_b = [bprimitive_eval(model, u, i, j, abs_tol=1e-12) for u in pairs]
                seg_beta, _ = adaptive_quadrature_batch(
                    lambda v, owner, i=i, j=j: sqrt_factor_vector(model, v)[..., i, j],
                    pairs[:-1], pairs[1:], abs_tol=1e-12, max_levels=QUAD_LEVELS)
                seg_b, _ = adaptive_quadrature_batch(
                    lambda v, owner, i=i, j=j: _as_matrix(
                        model.diffusion(v), np.shape(v), d, "diffusion")[..., i, j],
                    pairs[:-1], pairs[1:], abs_tol=1e-12, max_levels=QUAD_LEVELS)
                worst_beta = max(worst_beta, float(np.abs(np.diff(vals_beta) - seg_beta).max()))
                worst_b = max(worst_b, float(np.abs(np.diff(vals_b) - seg_b).max()))
        _check(report, "primitive_beta", worst_beta, tol_primitive)
        _check(report, "primitive_b", worst_b, tol_primitive)
    except (ModelError, QuadratureError):
        _check(report, "primitive_beta", float("inf"), tol_primitive)
        _check(report, "primitive_b", float("inf"), tol_primitive)

    # Chain rule spot check with weight psi(u) = exp(-u^2):
    # the derivative of integral sqrt(psi) sigma must equal sqrt(psi) sigma.
    spots = big * np.array([-0.9, -0.55, -0.25, 0.1, 0.35, 0.65, 0.9])
    worst_chain = 0.0
    try:
        h = H_FD_SCALE * np.maximum(1.0, np.abs(spots))
        rhs = np.exp(-0.5 * spots ** 2)[:, None, None] * sqrt_factor_vector(model, spots)
        for i in range(d):
            for k in range(d):
                seg, _ = adaptive_quadrature_batch(
                    lambda v, owner, i=i, k=k: np.exp(-0.5 * v ** 2)
                    * sqrt_factor_vector(model, v)[..., i, k],
                    spots - h, spots + h, abs_tol=1e-16, max_levels=QUAD_LEVELS)
                lhs = seg / (2.0 * h)
                worst_chain = max(worst_chain, float(np.abs(lhs - rhs[:, i, k]).max()))
        _check(report, "chain_rule", worst_chain, tol_chain)
    except (ModelError, QuadratureError):
        _check(report, "chain_rule", float("inf"), tol_chain)

    return report
