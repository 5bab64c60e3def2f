"""Kinetic state-space tools and the nondegeneracy condition checker.

The solution is unfolded along a state variable xi through the indicator

    chi(xi; u) = +1 for 0 < xi < u, -1 for u < xi < 0, 0 otherwise,

which turns entropies S into integrals of S'(xi) chi(xi; u). Decay of
periodic solutions to their mean hinges on a frequency-space functional:
for a temporal frequency tau and spatial wave vector kappa, the state
average

    omega(tau, kappa; lam) = integral over |xi| <= M of
        lam / (lam + |tau + a(xi).kappa|^2 + (kappa^T A(xi) kappa)^2)

must vanish as lam -> 0, uniformly over |tau| + |kappa| >= delta. Scaling
p = (tau, kappa) by s >= 1 multiplies X = |tau + a(xi).kappa|^2 by s^2 and
Y = (kappa^T A(xi) kappa)^2 by s^4, and the integrand grows with lam, so
omega(s p; lam) <= omega(p; lam / s^2) <= omega(p; lam): the supremum lives
on the shell |tau| + |kappa| = delta, which free sampling takes alone
(lattice points are closed only under integer scaling, so lattice sampling
walks a ladder of shells). Negating p negates tau + a(xi).kappa and keeps
kappa^T A(xi) kappa, so omega is even: omega(-p) = omega(p) bit for bit,
and a plan keeps one point of each pair p, -p and their rounding twins.
Per lam the witness is the first point within 4 eps (relative) of the
largest omega found; its omega (a lower bound for the supremum) is
reported, and the trend graded. The symbol tau + a(xi).kappa,
kappa^T A(xi) kappa has one evaluator, _symbol_parts, which reads the
speed and A entries of the model table as the solver does; the whole lam
ladder is integrated in one quadrature worklist, so the symbol is
evaluated once per node for every lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import model_table, speed_vector
from .quadrature import adaptive_quadrature, adaptive_quadrature_batch

__all__ = [
    "chi",
    "entropy_from_kinetic",
    "entropy_flux_from_kinetic",
    "FrequencyPoint",
    "SamplingPlan",
    "symbol_denominator",
    "omega_at",
    "degeneracy_set_measure",
    "ConditionReport",
    "check_condition",
]

KINETIC_QUAD_TOL = 1e-9
KINETIC_QUAD_LEVELS = 50
PASS_FRACTION = 0.05
TREND_NOISE = 0.10
R_FACTOR = 2.0
DEFAULT_LAMBDAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
# States scanned per frequency for resonance breakpoints.
RESONANCE_SCAN = 257
# Frequency points per batched worklist. The node arrays of one level grow
# with the block: on the default ladder a check peaked (tracemalloc) at 1.70
# MB in 128-point blocks against 3.79 MB in one block on the default 2-d plan
# (310 points), 2.0 against 9.7 MB on the burgers lattice plan (802) and 3.5
# against 33.3 MB on the 2-d lattice plan (2,762). Per-call overhead is
# already spread thin at 128; a preset's free plan with n_dir 64 in 2-d has
# at most 118 points, one block.
OMEGA_BLOCK = 128


def chi(xi, u):
    """Kinetic indicator of the interval between 0 and u, evaluated at xi."""
    if 0.0 < xi < u:
        return 1
    if u < xi < 0.0:
        return -1
    return 0


def entropy_from_kinetic(s_prime, u, *, breakpoints=()):
    """Reconstruct S(u) - S(0) as the state integral of S'(xi) chi(xi; u).

    chi restricts the state integral to the signed interval between 0 and
    u, which is what is integrated here.
    """
    return adaptive_quadrature(
        lambda xi: np.asarray(s_prime(xi), dtype=float),
        0.0, float(u), abs_tol=KINETIC_QUAD_TOL, max_levels=KINETIC_QUAD_LEVELS,
        breakpoints=breakpoints)


def entropy_flux_from_kinetic(s_prime, u, model, *, breakpoints=()):
    """Entropy flux q(u) with components integral of S'(xi) a_c(xi) chi.

    The d components are one integral with a vector integrand, each on the
    panel tree its own integral would get.
    """
    values, _ = adaptive_quadrature_batch(
        lambda xi, owner: np.asarray(s_prime(xi), dtype=float) * speed_vector(model, xi).T,
        [0.0], [float(u)], abs_tol=KINETIC_QUAD_TOL, max_levels=KINETIC_QUAD_LEVELS,
        breakpoints=[breakpoints])
    return values[:, 0]


@dataclass(frozen=True)
class FrequencyPoint:
    """One (tau, kappa) sample; kappa is a length-d wave vector."""

    tau: float
    kappa: tuple

    def __post_init__(self):
        if not 0.0 < abs(self.tau) + math.hypot(*self.kappa) < math.inf:  # NaN fails too
            raise ValueError("frequency point must have finite |tau| + |kappa| > 0, "
                             f"got tau={self.tau!r}, kappa={self.kappa!r}")

    @property
    def kappa_array(self):
        return np.asarray(self.kappa, dtype=float)


def _symbol_parts(model, tau, kappa, xi):
    """Advection and diffusion parts tau + a(xi).kappa and kappa^T A(xi) kappa.

    tau, kappa (last axis of length d) and xi broadcast against each other:
    one frequency against many states, or one frequency per state. The
    model table's speed entries a_c and A entries A_ij are summed from zero
    in index order, a term a_c kappa_c or (kappa_i A_ij) kappa_j each: the
    order in which np.einsum contracts dense a(xi) and A(xi) arrays over a
    batch of states, so the sums match that form bit for bit. Raises
    ValueError unless kappa's last axis has the model's d components.
    """
    if kappa.shape[-1:] != (model.dimension,):
        raise ValueError(f"kappa must have {model.dimension} component(s), one per axis, "
                         f"got {kappa.shape[-1]}")
    table, xi = model_table(model), np.asarray(xi, dtype=float)
    adv = np.zeros(np.broadcast(tau, kappa[..., 0], xi).shape)
    quad = np.zeros(adv.shape)
    for (c,), a_c in table.speed.items():
        adv += a_c(xi) * kappa[..., c]
    for (i, j), a_ij in table.a.items():
        quad += kappa[..., i] * a_ij(xi) * kappa[..., j]
    adv += tau
    return adv, quad


def symbol_denominator(model, fp, xi, lam):
    """lam + |tau + a(xi).kappa|^2 + (kappa^T A(xi) kappa)^2 at one xi."""
    adv, quad = _symbol_parts(model, fp.tau, fp.kappa_array, float(xi))
    return float(lam + adv ** 2 + quad ** 2)


def _resonance_breakpoints(xs, adv, quad):
    """Quadrature cut points where the symbol is smallest, one row per frequency.

    ``adv`` and ``quad`` hold the symbol parts of one frequency per row on
    the scan ``xs``. A row's cuts are the linear roots of its sign flips of
    ``adv``, in scan order, then its 16 lowest interior minima of
    adv^2 + quad^2 (ties to the first), at most 24 in all. Returns an
    (n, 40) array whose unused slots are NaN.
    """
    rows = np.arange(len(adv))[:, None]
    pos, neg = adv > 0, adv < 0
    flip = (pos[:, :-1] & neg[:, 1:]) | (neg[:, :-1] & pos[:, 1:])
    n_flip = np.minimum(flip.sum(axis=1, keepdims=True), 24)
    at = np.argsort(~flip, axis=1, kind="stable")[:, :24]
    y0, y1 = adv[rows, at], adv[rows, at + 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # slots past the flips
        flips = xs[at] - y0 * (xs[at + 1] - xs[at]) / (y1 - y0)
    den = adv * adv
    den += quad * quad
    mid = den[:, 1:-1]
    # All but the interior minima become NaN, which sorts last: minima first, lowest first.
    mid[~((mid <= den[:, :-2]) & (mid <= den[:, 2:]))] = np.nan
    n_min = np.minimum((~np.isnan(mid)).sum(axis=1, keepdims=True), np.minimum(16, 24 - n_flip))
    lowest = xs[1 + np.argsort(mid, axis=1, kind="stable")[:, :16]]
    keep = np.concatenate([np.arange(24) < n_flip, np.arange(16) < n_min], axis=1)
    return np.where(keep, np.concatenate([flips, lowest], axis=1), np.nan)


def _omega_table(model, points, lambdas):
    """omega at every point for every lam, and the largest error estimate.

    Returns an (len(points), len(lambdas)) array and the largest quadrature
    error estimate over it. The points become one (n, 1 + d) array of
    (tau, kappa) rows, taken OMEGA_BLOCK rows at a time: the symbol of a
    block is scanned on RESONANCE_SCAN states in one array pass, and the
    array of resonance cut points found there starts one worklist for the
    whole ladder. Its integrand has one component per lam and evaluates
    each speed and A entry once per node; each lam is refined on the panel
    tree a worklist of its own would give it, so a column equals the
    one-lam table bit for bit. As each integral equals its lone call bit
    for bit, a point's omega does not depend on its block: neither on
    OMEGA_BLOCK nor on the other points.
    """
    bad = [lam for lam in lambdas if not 0.0 < lam < math.inf]  # NaN fails too
    if bad:
        raise ValueError(f"lam must be positive, got {bad[0]}")
    big = model.state_bound
    scan = np.linspace(-big, big, RESONANCE_SCAN)
    lams = np.array(lambdas, dtype=float)[:, None]  # one component per lam
    rows = np.array([(fp.tau, *fp.kappa) for fp in points], dtype=float)
    values = np.empty((len(rows), len(lambdas)))
    worst_err = 0.0
    for start in range(0, len(rows), OMEGA_BLOCK):
        block = rows[start:start + OMEGA_BLOCK]
        taus, kappas = block[:, 0], block[:, 1:]
        cuts = _resonance_breakpoints(
            scan, *_symbol_parts(model, taus[:, None], kappas[:, None], scan))

        def integrand(xi, owner):
            adv, quad = _symbol_parts(model, taus[owner], kappas[owner], xi)
            np.square(adv, out=adv)
            np.square(quad, out=quad)
            # One row per lam: lam / ((lam + adv^2) + quad^2).
            out = lams + adv
            out += quad
            return np.divide(lams, out, out=out)

        vals, errs = adaptive_quadrature_batch(
            integrand, np.full(len(block), -big), np.full(len(block), big),
            abs_tol=KINETIC_QUAD_TOL, max_levels=KINETIC_QUAD_LEVELS, breakpoints=cuts)
        values[start:start + len(block)] = vals.T
        worst_err = max(worst_err, float(errs.max()))
    return values, worst_err


def omega_at(model, fp, lam):
    """State average of lam over the symbol denominator at one frequency."""
    return float(_omega_table(model, [fp], [lam])[0][0, 0])


def _fibonacci_sphere(n):
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.column_stack([z, r * np.cos(phi), r * np.sin(phi)])


@dataclass(frozen=True)
class SamplingPlan:
    """How the frequency half-space |tau| + |kappa| >= delta is sampled.

    Free sampling takes the shell |tau| + |kappa| = delta alone; lattice
    sampling walks shells of ratio R_FACTOR from delta up to r_max, which
    bounds lattice sampling only. Each shell has n_dir directions and the
    resonant rays (tau, kappa) = (-a_c(xi*) s, s e_c), s = r / (|a_c(xi*)|
    + 1), for n_resonant states xi* and each axis c, which hit the advective
    null set head on. Lattice kappa components snap to multiples of 2 pi /
    period, one per axis, and a ray's tau follows its snapped kappa. Rows
    below delta are dropped. omega is even, so p and -p are one point: of
    rows equal to 12 decimals of delta up to sign, the first stays.
    """

    n_dir: Optional[int] = None
    r_max: float = 1e3
    n_resonant: int = 33
    lattice: bool = False
    periods: Optional[tuple] = None

    def __post_init__(self):
        # The rules the config file applies to these keys.
        if not 0.0 < self.r_max < math.inf:
            raise ValueError(f"r_max must be positive, got {self.r_max!r}")
        if self.n_dir is not None and not self.n_dir >= 4:
            raise ValueError(f"n_dir must be at least 4, got {self.n_dir!r}")
        if not self.n_resonant >= 2:
            raise ValueError(f"n_resonant must be at least 2, got {self.n_resonant!r}")
        for key in ("n_dir", "n_resonant"):
            n = getattr(self, key)
            if n is not None:
                if not float(n).is_integer():  # inf fails too
                    raise ValueError(f"{key} must be a whole number, got {n!r}")
                object.__setattr__(self, key, int(n))
        if not all(0.0 < p < math.inf for p in self.periods or ()):
            raise ValueError(f"periods must be positive, got {self.periods!r}")

    def shell_radii(self, delta):
        if not delta > 0:  # NaN fails too
            raise ValueError(f"delta must be positive, got {delta}")
        radii = []
        r = float(delta)
        while r <= self.r_max * (1 + 1e-12):
            radii.append(r)
            r *= R_FACTOR
        if not radii:
            raise ValueError(f"delta must not exceed r_max, got {delta:g} > {self.r_max:g}")
        if radii[-1] < self.r_max:
            radii.append(float(self.r_max))
        return radii

    def _directions(self, dimension):
        n = self.n_dir or (64 if dimension == 1 else 256)
        if dimension == 1:
            theta = 2.0 * math.pi * np.arange(n) / n
            vecs = np.column_stack([np.cos(theta), np.sin(theta)])
            # Quarter turns are exact: cos(pi/2) is 6.1e-17 and sin(pi) 1.2e-16 in floats.
            vecs[np.abs(vecs) < 1e-15] = 0.0
        else:
            vecs = np.vstack([np.eye(3), _fibonacci_sphere(n)])
        norm = np.abs(vecs[:, 0]) + np.linalg.norm(vecs[:, 1:], axis=1)
        return vecs / norm[:, None]

    def _snap(self, kappa):
        """kappa (..., d) on the wave lattice when ``lattice`` is set."""
        if not self.lattice:
            return kappa
        unit = 2.0 * math.pi / np.asarray(self.periods, dtype=float)
        return unit * np.round(kappa / unit) + 0.0  # + 0.0 turns a rounded -0.0 into 0.0

    def frequency_points(self, model, delta):
        """Deterministic candidate list; first entries win value ties."""
        d = model.dimension
        if self.lattice and self.periods is None:
            raise ValueError("lattice sampling needs the grid periods")
        if self.periods is not None and len(self.periods) != d:
            raise ValueError(f"periods has {len(self.periods)} axis value(s) "
                             f"but the model dimension is {d}")
        big = model.state_bound
        radii = np.array(self.shell_radii(delta)[:None if self.lattice else 1])[:, None, None]
        speeds = speed_vector(model, np.linspace(-big, big, self.n_resonant))
        shells = radii * self._directions(d)
        shells[..., 1:] = self._snap(shells[..., 1:])
        # Column c of steps is the kappa_c of the rays along axis c.
        steps = self._snap(radii / (np.abs(speeds) + 1.0))
        rays = np.concatenate([(-speeds * steps)[..., None], steps[..., None] * np.eye(d)], axis=3)
        rows = np.concatenate([shells, rays.swapaxes(1, 2).reshape(len(radii), -1, 1 + d)],
                              axis=1).reshape(-1, 1 + d)
        rows = rows[np.abs(rows[:, 0]) + np.linalg.norm(rows[:, 1:], axis=1)
                    >= delta * (1.0 - 1e-12)]
        # One key per p, -p and their twins: to 12 decimals of delta, signed.
        key = np.round(rows / delta, 12)
        key *= np.sign(key[np.arange(len(key)), np.argmax(key != 0.0, axis=1)])[:, None]
        key += 0.0  # + 0.0 turns -0.0 into 0.0
        first = np.sort(np.unique(key, axis=0, return_index=True)[1])
        return [FrequencyPoint(tau=row[0], kappa=tuple(row[1:])) for row in rows[first].tolist()]


def degeneracy_set_measure(model, fp, tol=1e-3, n_samples=20001):
    """Estimated measure of states where the symbol parts both vanish.

    The frequency is normalized to the Euclidean unit sphere first. A
    positive result flags a resonant ray along which no decay can occur.
    """
    kappa = fp.kappa_array
    norm = math.hypot(fp.tau, *kappa)
    tau = fp.tau / norm
    kappa = kappa / norm
    big = model.state_bound
    xs = np.linspace(-big, big, int(n_samples))
    adv, quad = _symbol_parts(model, tau, kappa, xs)
    frac = float(np.mean((np.abs(adv) <= tol) & (np.abs(quad) <= tol)))
    return frac * 2.0 * big


@dataclass
class ConditionReport:
    """Sampled omega ladder with verdict for one model."""

    model_name: str
    state_bound: float
    delta: float
    lambdas: list
    omegas: list
    witnesses: list
    pass_threshold: float
    verdict: str
    trend_ratio: float
    points: int
    max_error_estimate: float

    def lines(self):
        out = [f"condition check for {self.model_name} (delta={self.delta:g})"]
        for lam, om, fp in zip(self.lambdas, self.omegas, self.witnesses):
            kap = ",".join(f"{c:.6g}" for c in fp.kappa)
            out.append(f"  lambda={lam:<10g} omega={om:.6e}  witness tau={fp.tau:.6g} kappa=({kap})")
        out.append(f"  threshold {self.pass_threshold:.6g}, trend ratio {self.trend_ratio:.3e}")
        out.append(f"  verdict: {self.verdict}")
        return out


def _verdict(omegas, threshold):
    """pass/fail on the final value, inconclusive on a non-monotone trend."""
    monotone = all(
        omegas[k + 1] <= omegas[k] * (1.0 + TREND_NOISE) + 1e-15
        for k in range(len(omegas) - 1))
    if not monotone:
        return "inconclusive"
    return "pass" if omegas[-1] < threshold else "fail"


def check_condition(model, delta=1.0, lambdas=None, sampling=None):
    """Grade the nondegeneracy condition on a decreasing lambda ladder.

    The sampled sup must shrink with lambda and end below
    PASS_FRACTION * (state interval length) to pass.
    """
    lambdas = [float(l) for l in (DEFAULT_LAMBDAS if lambdas is None else lambdas)]
    if not lambdas or not all(0.0 < l < math.inf for l in lambdas):
        raise ValueError("lambda ladder must be positive")
    if any(l2 >= l1 for l1, l2 in zip(lambdas, lambdas[1:])):
        raise ValueError("lambda ladder must be strictly decreasing")
    points = (sampling or SamplingPlan()).frequency_points(model, delta)
    values, max_err = _omega_table(model, points, lambdas)
    # Mirror points may differ in the last bits: the witness is the first
    # point within 4 eps (relative) of the column max, with its own omega.
    first = np.argmax(values >= values.max(axis=0) * (1.0 - 4.0 * np.finfo(float).eps), axis=0)
    omegas = values[first, np.arange(len(lambdas))].tolist()
    witnesses = [points[k] for k in first]

    threshold = PASS_FRACTION * 2.0 * model.state_bound
    verdict = _verdict(omegas, threshold)
    trend_ratio = omegas[-1] / omegas[0] if omegas[0] > 0 else 0.0
    return ConditionReport(
        model_name=model.name,
        state_bound=model.state_bound,
        delta=float(delta),
        lambdas=lambdas,
        omegas=omegas,
        witnesses=witnesses,
        pass_threshold=threshold,
        verdict=verdict,
        trend_ratio=trend_ratio,
        points=len(points),
        max_error_estimate=max_err,
    )
