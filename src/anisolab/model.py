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

Entries: a model is one entry per component (f_k, a_k, A_ij, sigma_ik,
B_ij, beta_ik): a ``Poly`` (a polynomial that keeps its coefficients), a
hand-written vectorized function of u, or None when identically zero. An
entry with a ``steps(u, out, scratch)`` method, as a Poly and the presets'
beta = u|u|/2 have, gives the solver its own bits in place in ``out``.
Presets and ``polynomial_model`` assemble their ``ModelSpec`` callables
from entries: for an input of shape S, ``flux`` and ``speed`` return shape
S + (d,), ``diffusion``, ``sqrt_factor`` and the primitives S + (d, d). A
hand-built ``ModelSpec`` supplies whole callables of those shapes instead.
Either way the solver, the condition checker, validate_model and the scalar
evaluator ``evaluate`` read entries through one path, _entries, which the
cached ``model_table`` holds per model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .quadrature import QuadratureError, adaptive_quadrature_batch

__all__ = [
    "ModelError", "NotPSDError", "ModelSpec", "ModelTable", "ModelValidationReport",
    "CheckResult", "Poly", "evaluate", "validate_model", "preset", "list_presets",
    "polynomial_model", "model_table", "speed_vector",
]

TOL_PSD = 1e-12
TOL_FACTOR = 1e-10
TOL_SYMMETRY = 1e-12
TOL_PRIMITIVE = 1e-9
TOL_CHAIN = 1e-10
H_FD_SCALE = 1e-6
QUAD_LEVELS = 40
SAMPLED_BOUND_POINTS = 129
VALIDATION_SAMPLES = 101
_EPS = float(np.finfo(float).eps)
_RANK = dict(flux=1, speed=1, diffusion=2, sqrt_factor=2, b_primitive=2, beta_primitive=2)
# Missing quantity: (ModelTable attribute of its stand-in, of the stand-in's source).
_STAND_IN = dict(speed=("speed", "f"), b_primitive=("b", "a"), beta_primitive=("beta", "sigma"))


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
    missing primitives to Hermite spline tables of their integrands, which
    every evaluator reads. Supplied primitives must vanish at u = 0.
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


# --- evaluation --------------------------------------------------------------

def _vector(model, name, u):
    """Quantity ``name`` on an array u, with its shape S + (d,) or S + (d, d) checked.

    A missing speed or primitive is assembled from the model table's
    stand-ins (differenced flux entries, spline tables) that the solver
    steps with; a missing sqrt_factor is the PSD square root of A.
    """
    u = np.asarray(u, dtype=float)
    fn = getattr(model, name)
    if fn is None and name in _STAND_IN:
        entries = getattr(model_table(model), _STAND_IN[name][0])
        return _Assembled((model.dimension,) * _RANK[name], entries)(u)
    if fn is None and name == "sqrt_factor":
        w, v = np.linalg.eigh(_vector(model, "diffusion", u))
        if w.min() < -TOL_PSD:
            raise NotPSDError(
                f"diffusion matrix has eigenvalue {w.min():.3e} below -{TOL_PSD:g}")
        return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v, -1, -2)
    out = np.asarray(fn(u), dtype=float)
    want = u.shape + (model.dimension,) * _RANK[name]
    if out.shape != want:
        raise ModelError(f"{name} returned shape {out.shape}, expected {want}")
    return out


def speed_vector(model, u):
    """Vectorized speed: input shape S, output shape S + (d,)."""
    return _vector(model, "speed", u)


def evaluate(model, name, u, index=()):
    """Quantity ``name`` of ``model`` at the scalar u, checked finite.

    ``name`` is a ModelSpec quantity (flux, speed, diffusion, sqrt_factor,
    b_primitive or beta_primitive); a missing one is its stand-in (see
    _vector). Returns the (d,) or (d, d) array, or with an ``index`` of one
    component per axis that entry as a float. Raises ValueError for an
    unknown name, IndexError for a bad index, ModelError for a non-finite
    value or a non-symmetric A, and NotPSDError for a non-PSD A under the
    sqrt_factor fallback.
    """
    if name not in _RANK:
        raise ValueError(f"unknown model quantity {name!r}; expected one of {sorted(_RANK)}")
    u, d, index = float(u), model.dimension, tuple(index)
    if index and (len(index) != _RANK[name] or not all(0 <= i < d for i in index)):
        raise IndexError(f"component {index} out of range for {name} in dimension {d}")
    out = _vector(model, name, u)
    if not np.isfinite(out).all():
        raise ModelError(f"{name}({u!r}) is not finite: {out}")
    skew = np.abs(out - out.T).max() if name == "diffusion" else 0.0
    if skew > TOL_SYMMETRY * (1.0 + np.abs(out).max()):
        raise ModelError(f"diffusion({u!r}) is not symmetric (skew {skew:.3e})")
    return float(out[index]) if index else out


# --- entries -----------------------------------------------------------------

class Poly:
    """The polynomial entry (sum_n coeffs[n] u^n) / div, constant term first.

    It is evaluated by Horner's rule, skipping zero coefficients, on an
    array or a float alike; ``div`` keeps an exact divisor such as the 3 of
    u^3/3 out of the coefficients. ``steps`` gives the same Horner steps in
    place in a buffer, for the solver to bind once per run; they give the
    bits of ``p(u)``, as c u and u c round alike.
    """

    def __init__(self, coeffs, div=1.0):
        c = [float(x) for x in coeffs] or [0.0]
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        self.coeffs, self.div = tuple(c), float(div)
        # Per-call constants: the Horner steps (c_n, whether to multiply by
        # u after adding it) for n from the second-highest down to 0, and
        # max_abs's (n, |c_n|) pairs of nonzero c_n, |div| and rounding factor.
        self._horner = tuple((c[n], n > 0) for n in range(len(c) - 2, -1, -1))
        self._abs_terms = tuple((n, abs(x)) for n, x in enumerate(c) if x)
        self._abs_div = abs(self.div)
        self._rounding = 4.0 * len(c) * _EPS

    def __call__(self, u):
        c = self.coeffs
        if len(c) == 1:
            return np.full(np.shape(u), c[0] / self.div)
        return self._horner_at(u)

    def _horner_at(self, u):
        """p(u) of degree 1 or more by Horner's rule, on an array or a float alike."""
        acc = self.coeffs[-1] * u
        for cn, multiply in self._horner:
            if cn:
                acc += cn
            if multiply:
                acc *= u
        if self.div != 1.0:
            acc /= self.div
        return acc

    def steps(self, u, out, scratch=None):
        """The Horner steps of p(u) in place in ``out``, as (ufunc, (x, y, out)) pairs.

        ``scratch``, a free array that in-place entry steps may overwrite, is unused.
        """
        c = self.coeffs
        if len(c) == 1:
            return ((out.fill, (c[0] / self.div,)),)
        # A leading 1 skips its multiply: the first step reads u itself, as 1.0 u is u.
        acc, steps = (u, []) if c[-1] == 1.0 else (out, [(np.multiply, (c[-1], u, out))])
        for cn, multiply in self._horner:
            if cn:
                steps.append((np.add, (acc, cn, out)))
                acc = out
            if multiply:
                steps.append((np.multiply, (acc, u, out)))
                acc = out
        if self.div != 1.0:
            steps.append((np.divide, (acc, self.div, out)))
        return tuple(steps) or ((np.multiply, (1.0, u, out)),)

    def derivative(self):
        """The derivative as a Poly."""
        return Poly([n * c / self.div for n, c in enumerate(self.coeffs)][1:])

    def integral(self):
        """The primitive vanishing at 0, as a Poly."""
        return Poly([0.0] + [c / (n + 1) / self.div for n, c in enumerate(self.coeffs)])

    @cached_property
    def critical(self):
        """Real parts of the roots of p': every interior extremum is among them.

        Leading coefficients of p' at the rounding level of the others are
        dropped; they only add roots far outside any state range.
        """
        c = list(self.derivative().coeffs)
        while len(c) > 1 and abs(c[-1]) <= _EPS * max(map(abs, c)):
            c.pop()
        return tuple(sorted({float(r.real) for r in np.roots(c[::-1])}))

    @cached_property
    def _critical_abs(self):
        """(r, |p(r)|) for each critical point r."""
        return tuple((r, abs(self(r))) for r in self.critical)

    def max_abs(self, lo, hi):
        """max |p| over [lo, hi], from the ends and the critical points inside.

        A critical point's value is raised by a bound on the rounding error
        of evaluating p, so no evaluation of p near it exceeds the result;
        a bound that overflows makes the result inf.
        """
        if len(self.coeffs) == 1:
            top = abs(self.coeffs[0] / self.div)
        else:
            top = max(abs(self._horner_at(lo)), abs(self._horner_at(hi)))
        inner = None
        for r, v in self._critical_abs:
            if lo < r < hi:
                inner = v if inner is None else max(inner, v)
        if inner is not None:
            m = max(abs(lo), abs(hi))
            try:
                scale = sum(c * m ** n for n, c in self._abs_terms) / self._abs_div
            except OverflowError:
                return float("inf")
            top = max(top, inner + self._rounding * scale)
        return float(top)


def _entry(x):
    """A coefficient list becomes a Poly; zero entries become None."""
    x = x if x is None or callable(x) else Poly(x)
    return None if isinstance(x, Poly) and x.coeffs == (0.0,) else x


class _Assembled:
    """A ModelSpec callable assembled from entries: shape S in, S + ``shape`` out.

    ``entries`` maps output indexes to entries, kept in index order; absent
    indexes are zero.
    """

    def __init__(self, shape, entries):
        self.shape = shape
        self.entries = {idx: e for idx, e in sorted(entries.items()) if e is not None}

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape + self.shape)
        for idx, entry in self.entries.items():
            out[(Ellipsis,) + idx] = entry(u)
        return out


def _entry_model(name, d, state_bound, flux, a, sigma=None, b=None, beta=None):
    """A ModelSpec whose callables are assembled from entries.

    ``flux`` holds one entry per axis; ``a`` and ``b`` map upper-triangle
    indexes (i, j) to entries, mirrored below the diagonal; ``sigma`` and
    ``beta`` map (i, k) to entries. An entry is a coefficient list, a Poly
    or a hand-written vectorized function; absent or all-zero entries are
    zero. Speed and, unless ``b`` is given, B come from exact
    differentiation and integration of the polynomial entries. ``sigma``
    left as None leaves the eigendecomposition square root, and ``beta``
    left as None a Hermite spline table of the sigma entries.
    """
    flux = {(k,): _entry(x) for k, x in enumerate(flux)}
    a = {ij: _entry(x) for ij, x in a.items()}
    b = {ij: e.integral() for ij, e in a.items() if e} if b is None else b

    def matrix(entries, symmetric=False):
        if entries is None:
            return None
        out = {ij: _entry(x) for ij, x in entries.items()}
        if symmetric:
            out.update({(j, i): e for (i, j), e in out.items()})
        return _Assembled((d, d), out)

    return ModelSpec(
        dimension=d, state_bound=state_bound, name=name, flux=_Assembled((d,), flux),
        speed=_Assembled((d,), {k: _entry(e and e.derivative()) for k, e in flux.items()}),
        diffusion=matrix(a, True), sqrt_factor=matrix(sigma),
        b_primitive=matrix(b, True), beta_primitive=matrix(beta))


# --- preset gallery ---------------------------------------------------------

_CUBE_THIRD = Poly((0, 0, 0, 1), div=3)  # u*u*u / 3


def _half_u_abs_u(u):
    return 0.5 * u * np.abs(u)


# The same bits in place, (0.5 u) |u| with |u| in the scratch array.
_half_u_abs_u.steps = lambda u, out, scratch: (
    (np.multiply, (0.5, u, out)), (np.abs, (u, scratch)), (np.multiply, (out, scratch, out)))


def _porous_beta(u):
    return np.sqrt(2.0) * (2.0 / 3.0) * np.sign(u) * np.abs(u) ** 1.5


# name: (dimension, flux, A, sigma, B, beta); porous-medium is the case m = 2.
_PRESETS = {
    "linear-advection": (1, [(0, 1)], {}, {}, {}, {}),
    "burgers": (1, [(0, 0, 0.5)], {}, {}, {}, {}),
    "burgers-degenerate": (
        1, [(0, 0, 0.5)], {(0, 0): (0, 0, 1)}, {(0, 0): np.abs},
        {(0, 0): _CUBE_THIRD}, {(0, 0): _half_u_abs_u}),
    "porous-medium": (
        1, [(0,)], {(0, 0): lambda u: 2.0 * np.abs(u)},
        {(0, 0): lambda u: np.sqrt(2.0 * np.abs(u))},
        {(0, 0): lambda u: u * np.abs(u)}, {(0, 0): _porous_beta}),
    "anisotropic-2d": (
        2, [(0, 0, 0.5), _CUBE_THIRD], {(0, 0): (0, 0, 1)}, {(0, 0): np.abs},
        {(0, 0): _CUBE_THIRD}, {(0, 0): _half_u_abs_u}),
}


def list_presets():
    return sorted(_PRESETS)


def preset(name, state_bound=1.0):
    """Instantiate a gallery model by name."""
    try:
        d, flux, a, sigma, b, beta = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}") from None
    return _entry_model(name, d, state_bound, flux, a, sigma, b, beta)


def polynomial_model(name, flux_coeffs, diffusion_coeffs, dimension, state_bound):
    """Build a model from polynomial coefficient lists (constant term first).

    ``flux_coeffs`` holds one coefficient list per flux component and
    ``diffusion_coeffs`` maps upper-triangle indexes (i, j) with i <= j to
    coefficient lists. Speed and the B primitive come from exact
    differentiation and integration of the polynomials.
    """
    d = int(dimension)
    if len(flux_coeffs) != d:
        raise ValueError(f"need {d} flux component(s), got {len(flux_coeffs)}")
    for i, j in diffusion_coeffs:
        if not (0 <= i <= j < d):
            raise ValueError(f"diffusion index ({i},{j}) must be upper-triangle in dimension {d}")
    return _entry_model(name, d, float(state_bound), flux_coeffs, diffusion_coeffs)


# --- the per-entry table -----------------------------------------------------

def _entries(model, name):
    """{index: entry} for quantity ``name`` in index order, zero entries absent.

    This is the one place that tells an assembled callable from a whole
    one. An assembled callable gives its own entries. Any other callable
    (hand-built, replaced, or the sqrt_factor fallback of _vector) is
    sliced per index, keeping the entries that are nonzero somewhere on 257
    states spanning 1.05 state_bound; a value there that is not finite
    raises ModelError. These are the only stand-ins for a missing speed or
    primitive, and _vector assembles them: a missing speed is the centered
    difference of each flux entry, so an entry that rounds to 0 on those
    states is kept with its flux entry, and a missing primitive is a Hermite
    spline table of each of its integrand entries.
    """
    fn, span = getattr(model, name), 1.05 * model.state_bound
    if isinstance(fn, _Assembled):
        return fn.entries
    if fn is None and name in _STAND_IN:
        parts = getattr(model_table(model), _STAND_IN[name][1])
        return {idx: _differenced(f) if name == "speed" else _spline_primitive(f, span)
                for idx, f in parts.items()}
    states = np.linspace(-span, span, 257)
    probe = _vector(model, name, states)
    if not np.isfinite(probe).all():
        k, *idx = np.argwhere(~np.isfinite(probe))[0].tolist()
        raise ModelError(f"{name} entry {tuple(idx)} is not finite at u={float(states[k])!r}")
    return {idx: lambda u, idx=idx: _vector(model, name, u)[(Ellipsis,) + idx]
            for idx in np.ndindex(probe.shape[1:]) if np.abs(probe[(Ellipsis,) + idx]).max() > 0.0}


class ModelTable:
    """A model's entries in the form the solver and validate_model use.

    ``f``, ``speed``, ``a``, ``sigma``, ``b`` and ``beta`` map indexes to
    vectorized entries of the flux, its speed, A, sigma, B and beta, in
    index order with zero entries absent, each built on first use.
    ``bounds(lo, hi)`` gives the wave bounds over [lo, hi] as the stepper
    reads them: max |a_k| as a list of d floats and max |A_ij| as a d x d
    nested list of floats: exact for a Poly (``Poly.max_abs``), else sampled
    (not a supremum).
    """

    def __init__(self, model):
        self.model = model

    f = cached_property(lambda self: _entries(self.model, "flux"))
    speed = cached_property(lambda self: _entries(self.model, "speed"))
    a = cached_property(lambda self: _entries(self.model, "diffusion"))
    sigma = cached_property(lambda self: _entries(self.model, "sqrt_factor"))
    b = cached_property(lambda self: _entries(self.model, "b_primitive"))
    beta = cached_property(lambda self: _entries(self.model, "beta_primitive"))

    @cached_property
    def _bound_slots(self):
        """(row, index, bound) for each speed entry, then each A entry: row 0 is alphas
        and row 1 + i is lams[i]; a Poly's bound is its max_abs, any other entry's sampled."""
        slots = [(0, k, e) for (k,), e in self.speed.items()]
        slots += [(1 + i, j, e) for (i, j), e in self.a.items()]
        return tuple((r, k, e.max_abs if isinstance(e, Poly) else partial(_max_abs, e))
                     for r, k, e in slots)

    def bounds(self, lo, hi):
        """(alphas, lams) over [lo, hi], 0.0 for an absent entry."""
        d = self.model.dimension
        alphas, lams = [0.0] * d, [[0.0] * d for _ in range(d)]
        rows = [alphas, *lams]
        for r, k, bound in self._bound_slots:
            rows[r][k] = bound(lo, hi)
        return alphas, lams


def _max_abs(entry, lo, hi):
    """max |entry| over [lo, hi] as a float, sampled: not a supremum."""
    return float(np.abs(entry(np.linspace(lo, hi, SAMPLED_BOUND_POINTS))).max())


def _integrals(fn, lo, hi, abs_tol=1e-12):
    """Integrals of a vectorized fn over [lo[k], hi[k]], in one quadrature batch."""
    return adaptive_quadrature_batch(lambda v, owner: fn(v), lo, hi,
                                     abs_tol=abs_tol, max_levels=QUAD_LEVELS)[0]


def _differenced(entry):
    """Centered differences of one flux entry: the stand-in for a missing speed entry."""
    def speed(u):
        u = np.asarray(u, dtype=float)
        h = H_FD_SCALE * np.maximum(1.0, np.abs(u))
        return (entry(u + h) - entry(u - h)) / (2 * h)
    return speed


def _spline_primitive(integrand_vec, span):
    """Cumulative primitive of a vectorized integrand as a Hermite spline."""
    from scipy.interpolate import CubicHermiteSpline  # imported here: start-up skips scipy
    nodes = np.linspace(-span, span, 1025)
    segments = _integrals(integrand_vec, nodes[:-1], nodes[1:], abs_tol=1e-13)
    # Accumulate outward from the middle node, where the primitive is 0.
    i0 = nodes.size // 2
    vals = np.empty_like(nodes)
    vals[i0] = 0.0
    vals[i0 + 1:] = np.cumsum(segments[i0:])
    vals[:i0] = -np.cumsum(segments[i0 - 1::-1])[::-1]
    slopes = integrand_vec(nodes)
    spline = CubicHermiteSpline(nodes, vals, slopes)
    return lambda u: spline(np.asarray(u, dtype=float))


@lru_cache(maxsize=64)
def model_table(model):
    """The ModelTable of a model, built once per model.

    Every entry comes from _entries: assembled callables (presets,
    polynomial_model) give their own, a callable supplied whole (a
    hand-built ModelSpec, dataclasses.replace, or a fallback) is sliced per
    index, and a missing primitive becomes a dense Hermite spline fitted to
    quadrature values of its integrand entries, which ``evaluate`` and
    validate_model read too.
    """
    return ModelTable(model)


primitive_tables = model_table  # the earlier name, kept for importers


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


def validate_model(model):
    """Audit the structural contracts of a model on VALIDATION_SAMPLES states of its interval.

    Checks symmetry and positive semidefiniteness of A, the square-root
    factorization, both primitives in integral form, and the chain rule
    d/du of the reweighted primitive of sqrt(psi) sigma against
    sqrt(psi) sigma for a fixed smooth weight psi. The tolerances are the
    module's TOL_* constants. Failures are reported, never raised.
    """
    report = ModelValidationReport(model_name=model.name, samples=VALIDATION_SAMPLES)
    d = model.dimension
    big = model.state_bound
    us = np.linspace(-big, big, VALIDATION_SAMPLES)
    table = model_table(model)

    mats = _vector(model, "diffusion", us)
    _check(report, "symmetry", np.abs(mats - np.swapaxes(mats, -1, -2)).max(), TOL_SYMMETRY)

    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    eigvals = np.linalg.eigvalsh(sym)
    lowest = float(eigvals.min())
    _check(report, "psd", 0.0 if lowest >= 0.0 else -lowest, TOL_PSD)  # NaN stays, and fails

    try:
        sig = _vector(model, "sqrt_factor", us)
        recon = sig @ np.swapaxes(sig, -1, -2)
        _check(report, "factorization", np.abs(recon - mats).max(), TOL_FACTOR)
    except ModelError:
        _check(report, "factorization", float("inf"), TOL_FACTOR)

    # Primitives in integral form: a primitive, supplied or the spline
    # table that stands in for it, must vanish at 0, and its differences
    # across sample gaps must match an independent quadrature of its
    # integrand.
    pairs = np.linspace(-big, big, 17)
    worst = {"beta_primitive": 0.0, "b_primitive": 0.0}
    try:
        for name in worst:
            integrands = getattr(table, _STAND_IN[name][1])
            prims = _vector(model, name, np.append(pairs, 0.0))
            for i, j in np.ndindex(d, d):
                f = integrands.get((i, j))
                seg = 0.0 if f is None else _integrals(f, pairs[:-1], pairs[1:])
                gaps = np.abs(np.diff(prims[:-1, i, j]) - seg)  # np.max keeps a NaN
                worst[name] = np.max([worst[name], abs(prims[-1, i, j]), gaps.max()])
    except (ModelError, QuadratureError):
        worst = dict.fromkeys(worst, float("inf"))
    _check(report, "primitive_beta", worst["beta_primitive"], TOL_PRIMITIVE)
    _check(report, "primitive_b", worst["b_primitive"], TOL_PRIMITIVE)

    # Chain rule spot check with weight psi(u) = exp(-u^2):
    # the derivative of integral sqrt(psi) sigma must equal sqrt(psi) sigma.
    spots = big * np.array([-0.9, -0.55, -0.25, 0.1, 0.35, 0.65, 0.9])
    worst_chain = 0.0
    try:
        h = H_FD_SCALE * np.maximum(1.0, np.abs(spots))
        rhs = np.exp(-0.5 * spots ** 2)[:, None, None] * _vector(model, "sqrt_factor", spots)
        for i, k in np.ndindex(d, d):
            f = table.sigma.get((i, k))
            lhs = 0.0 if f is None else _integrals(
                lambda v, f=f: np.exp(-0.5 * v ** 2) * f(v),
                spots - h, spots + h, abs_tol=1e-16) / (2.0 * h)
            worst_chain = max(worst_chain, float(np.abs(lhs - rhs[:, i, k]).max()))
        _check(report, "chain_rule", worst_chain, TOL_CHAIN)
    except (ModelError, QuadratureError):
        _check(report, "chain_rule", float("inf"), TOL_CHAIN)

    return report
