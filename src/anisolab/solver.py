"""Finite-volume solver on periodic boxes in one and two dimensions.

The scheme is a local Lax-Friedrichs monotone flux for the convective part
plus second differences of the diffusion primitive B(u) for the parabolic
part (with the mixed second difference for off-diagonal entries). Explicit
Euler and a two-stage strong-stability-preserving Runge-Kutta integrator
are available; both are convex combinations of monotone Euler stages under
the time-step rule, so the discrete maximum principle, L1 contraction and
entropy decay hold step by step and are tracked while running. One step
function and one stop-point loop serve step, run and run_lockstep; lockstep
is a batch of two fields on that shared stepper. The step returns the new
field with its range [min u, max u], its one min/max pass: the range sets
the next step's wave bounds, tells whether the field is finite (np.min and
np.max propagate NaN), and gives run's max-principle statistic and sup norm.

The stencils are periodic slice kernels (_Stencils): each stencil term is
one loop of a ufunc over index triples (out, x, y), built once per axis
for the layout the field's dimension picks. In 1-d a stage copies the
field once into a buffer with a ghost cell at each end and evaluates the
flux, B and beta on it, so a term is one ufunc call on plain slices. In
2-d a shifted operand is read in place, split where its index wraps: a
padded 2-d layout gave the same bits but a run-2d-aniso round went from
0.45 s to 0.54 s, the 128^2 copy into the pad and the strided interior
views costing more than the calls they save. Work arrays and grid
constants are set up once per run. The kernels divide by h and h^2 rather
than multiply by reciprocals, so they match the whole-array periodic-shift
form of each stencil bit for bit; the tests keep that form as the
reference. The kernels read single entries from the model's table
(model.model_table). The per-step scalars are Python floats.

Wave bounds, max |a_k| for the flux and max |A_ij| for the time step, are
taken over the current field's range [min u, max u], not clipped to
state_bound. They are exact for polynomial entries (range ends plus the
critical points inside) and sampled at 129 states for hand-written entries
and whole callables; a sampled maximum is not a supremum.

Off-diagonal diffusion breaks the monotone structure whenever it is
nonzero: the 4-corner mixed stencil weights B_01 at two corners with a
negative sign, however strongly the diagonal dominates, so the maximum
principle and L1 contraction are no longer guaranteed. The bundled presets
are diagonal; the audit reports what an off-diagonal model violates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from . import model as model_mod
from .model import model_table

__all__ = [
    "ConfigurationError",
    "BlowUpError",
    "PeriodicGrid",
    "CellField",
    "SchemeConfig",
    "DiagnosticsRow",
    "RunStats",
    "Trajectory",
    "init_field",
    "numerical_flux_llf",
    "hyperbolic_div",
    "diffusion_div",
    "stable_dt",
    "step",
    "run",
    "run_lockstep",
]

INTEGRATORS = ("euler", "ssp-rk2")
_GAUSS3_NODES = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GAUSS3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0
# Overflow while stepping is a diagnosed outcome (BlowUpError), not a warning.
_QUIET = dict(over="ignore", invalid="ignore")


class ConfigurationError(Exception):
    """Grid or scheme parameters that cannot produce a run."""


class BlowUpError(Exception):
    """The field left the finite range; carries time and partial results."""

    def __init__(self, time, max_abs, trajectory=None):
        super().__init__(f"solution blew up at t={time:.6g} (max |u| reached {max_abs:.3e})")
        self.time = time
        self.max_abs = max_abs
        self.trajectory = trajectory


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform cell grid on a periodic box."""

    dimension: int
    periods: tuple
    cells: tuple

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ConfigurationError(f"dimension must be 1 or 2, got {self.dimension}")
        if len(self.periods) != self.dimension or len(self.cells) != self.dimension:
            raise ConfigurationError("periods and cells must match the dimension")
        if any(not (p > 0 and np.isfinite(p)) for p in self.periods):
            raise ConfigurationError(f"periods must be positive, got {self.periods}")
        if any(int(n) < 4 for n in self.cells):
            raise ConfigurationError(f"need at least 4 cells per axis, got {self.cells}")

    @staticmethod
    def make(periods, cells):
        periods = tuple(float(p) for p in np.atleast_1d(periods))
        cells = tuple(int(n) for n in np.atleast_1d(cells))
        return PeriodicGrid(dimension=len(periods), periods=periods, cells=cells)

    @property
    def spacings(self):
        return tuple(p / n for p, n in zip(self.periods, self.cells))

    @property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    @property
    def total_measure(self):
        return float(np.prod(self.periods))

    def centers(self, axis):
        h = self.spacings[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h


@dataclass
class CellField:
    """Cell-average values (row-major over the grid) at one time."""

    values: np.ndarray
    time: float = 0.0


@dataclass
class SchemeConfig:
    """Time integration parameters.

    ``cfl`` values above 1 defeat the monotonicity guarantee and exist for
    deliberate instability experiments; the stable range is (0, 0.5].
    """

    t_end: float
    cfl: float = 0.4
    integrator: str = "ssp-rk2"
    output_every: Optional[float] = None
    snapshot_every: Optional[float] = None

    def __post_init__(self):
        if not (self.t_end > 0 and np.isfinite(self.t_end)):
            raise ConfigurationError(f"t_end must be positive, got {self.t_end}")
        if not (self.cfl > 0 and np.isfinite(self.cfl)):
            raise ConfigurationError(f"cfl must be positive, got {self.cfl}")
        if self.integrator not in INTEGRATORS:
            raise ConfigurationError(
                f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}")
        for name in ("output_every", "snapshot_every"):
            val = getattr(self, name)
            if val is not None and not (val > 0 and np.isfinite(val)):
                raise ConfigurationError(f"{name} must be positive, got {val}")


@dataclass
class DiagnosticsRow:
    t: float
    mean: float
    l1_to_mean: float
    l2_energy: float
    linf: float
    dissipation_resolved: float
    dissipation_budget: float


@dataclass
class RunStats:
    """Per-step extremes accumulated while running.

    ``dt_min`` and ``dt_max`` cover the steps whose length the CFL rule
    set; when no step was (a cadence finer than the CFL step, or a model
    without dynamics) they cover the cut steps instead. ``truncated_steps``
    counts the steps cut short to land on a stop point.
    ``contraction_max_step_jump`` is the largest one-step rise of the L1
    distance to any of ``contraction_constants``; ``contraction_l1`` holds
    those distances at each output row.
    """

    steps: int = 0
    initial_min: float = 0.0
    initial_max: float = 0.0
    initial_mean: float = 0.0
    max_principle_violation: float = 0.0
    energy_max_step_jump: float = 0.0
    mean_drift: float = 0.0
    dt_min: float = math.inf
    dt_max: float = 0.0
    truncated_steps: int = 0
    contraction_constants: tuple = ()
    contraction_max_step_jump: float = 0.0
    contraction_l1: list = field(default_factory=list)


@dataclass
class Trajectory:
    """Diagnostic rows (plus optional snapshots) from one run."""

    model_name: str
    grid: PeriodicGrid
    scheme: SchemeConfig
    rows: list
    snapshots: list
    stats: Optional[RunStats]
    final: Optional[CellField] = None


def init_field(grid, profile):
    """Cell averages of a pointwise profile via 3-point Gauss per axis.

    ``profile`` takes one coordinate array per axis and must broadcast.
    An ndarray of per-cell values is accepted as-is.
    """
    if isinstance(profile, np.ndarray):
        values = np.asarray(profile, dtype=float)
        if values.shape != tuple(grid.cells):
            raise ConfigurationError(
                f"profile array shape {values.shape} does not match grid {grid.cells}")
        if not np.isfinite(values).all():
            raise ValueError("initial profile contains non-finite values")
        return CellField(values=values.copy(), time=0.0)

    if grid.dimension == 1:
        h = grid.spacings[0]
        pts = grid.centers(0)[:, None] + 0.5 * h * _GAUSS3_NODES[None, :]
        vals = np.asarray(profile(pts), dtype=float)
        values = vals @ _GAUSS3_WEIGHTS
    else:
        h1, h2 = grid.spacings
        x = grid.centers(0)[:, None] + 0.5 * h1 * _GAUSS3_NODES[None, :]
        y = grid.centers(1)[:, None] + 0.5 * h2 * _GAUSS3_NODES[None, :]
        vals = np.asarray(
            profile(x[:, None, :, None], y[None, :, None, :]), dtype=float)
        values = np.einsum("ijxy,x,y->ij", vals, _GAUSS3_WEIGHTS, _GAUSS3_WEIGHTS)
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"initial profile is non-finite near cell index {tuple(bad)}")
    return CellField(values=values, time=0.0)


def numerical_flux_llf(model, u_left, u_right, axis, alpha):
    """Local Lax-Friedrichs interface flux for one axis.

    ``alpha`` must dominate |a_axis| over the range spanned by the two
    states for the flux to be monotone.
    """
    f_l = model_mod.flux_eval(model, u_left)[axis]
    f_r = model_mod.flux_eval(model, u_right)[axis]
    return 0.5 * (f_l + f_r) - 0.5 * alpha * (float(u_right) - float(u_left))


def _wave_bounds(model, lo, hi):
    """Bounds for |a| per axis and |A| per entry over [lo, hi] (see ModelTable)."""
    return model_table(model).bounds(lo, hi)


def _range(values):
    """(min, max) of a field as floats; NaN if any value is NaN."""
    return float(values.min()), float(values.max())


@lru_cache(maxsize=256)
def _segments(n, axis, sx, sy):
    """(out, x, y) index triples that cover out[i] = op(x[i + sx], y[i + sy]).

    Indexes run mod n along the trailing axis ``axis`` (negative), so any
    leading batch axes pass straight through. There is one triple per
    stretch of i on which neither shifted index wraps.
    """
    cuts = sorted({0, n, -sx % n, -sy % n})
    tail = (slice(None),) * (-axis - 1)

    def at(lo, hi):
        return (Ellipsis, slice(lo, hi)) + tail

    return tuple((at(lo, hi), at((lo + sx) % n, (lo + sx) % n + hi - lo),
                  at((lo + sy) % n, (lo + sy) % n + hi - lo))
                 for lo, hi in zip(cuts, cuts[1:]))


def _apply(ufunc, x, y, out, plan):
    """out[i] = ufunc(x[i + sx], y[i + sy]) by one term's index triples."""
    for o, ix, iy in plan:
        ufunc(x[ix], y[iy], out=out[o])
    return out


# Stencil terms, out[i] = op(x[i + sx], y[i + sy]): name -> (sx, sy, gx, gy,
# lo). Wrapped, every array holds the n cells, or the faces i + 1/2 from
# i = 0. Padded, the output runs from i = lo (-1 for faces), and gx and gy
# are the operands' ghost offsets: the stage field, its flux, B and beta and
# the face arrays carry one entry before cell 0, the cell work arrays none.
_TERMS = {
    "face": (0, 1, 1, 1, -1),  # f(i) + f(i+1)
    "rise": (1, 0, 1, 1, -1),  # u(i+1) - u(i)
    "div": (0, -1, 1, 1, 0),  # face(i + 1/2) - face(i - 1/2)
    "b_up": (1, 0, 1, 0, 0),  # B(i+1) - 2 B(i)
    "b_down": (0, -1, 0, 1, 0),  # (B(i+1) - 2 B(i)) + B(i-1)
    "beta": (1, -1, 1, 1, 0),  # beta(i+1) - beta(i-1)
}


def _term_plans(n, axis, padded):
    """{term: index triples} along ``axis`` for one layout (padded: 1-d only)."""
    if not padded:
        return {name: _segments(n, axis, sx, sy) for name, (sx, sy, *_) in _TERMS.items()}
    return {name: (((Ellipsis,), (Ellipsis, slice(gx + sx + lo, gx + sx + n)),
                    (Ellipsis, slice(gy + sy + lo, gy + sy + n))),)
            for name, (sx, sy, gx, gy, lo) in _TERMS.items()}


class _Stencils:
    """The scheme's periodic stencils for one model and grid, on fields of one shape.

    Grid constants, the nonzero entries of the model table, the index
    plans and the work arrays are set up once; per stage only the flux and
    primitive values are new arrays. Leading batch axes of ``shape`` (a
    lockstep pair) pass through. The layout (module docstring) follows the
    dimension: padded in 1-d, wrapped in 2-d.
    """

    def __init__(self, model, grid, shape):
        self.table = table = model_table(model)
        d = grid.dimension
        self.d, self.shape = d, tuple(shape)
        self.h = grid.spacings
        self.h2 = tuple(h ** 2 for h in self.h)
        self.two_h = tuple(2.0 * h for h in self.h)
        self.four_hh = 4.0 * self.h[0] * self.h[-1]
        self.cell_volume = grid.cell_volume
        self.work = [np.empty(shape) for _ in range(3)]
        self.flux, self.bounds, self.flux_is_zero = table.flux, table.bounds, table.flux_is_zero
        # The one layout decision; the module docstring says why 2-d stays wrapped.
        self.padded = padded = d == 1
        self.plans = [_term_plans(self.shape[k - d], k - d, padded) for k in range(d)]
        if padded:
            n = self.shape[-1]
            self.ghost = np.empty(self.shape[:-1] + (n + 2,))
            self.faces = [np.empty(self.shape[:-1] + (n + 1,)) for _ in range(2)]
            self.inner = (Ellipsis, slice(1, n + 1))
        else:
            self.faces = self.work[:2]
            self.inner = (Ellipsis,)

    def pad(self, values):
        """The field the stencils read: in 2-d ``values`` itself.

        In 1-d it is ``values`` copied into the ghost-cell buffer; the
        buffer is passed back as it is, so one pad serves a whole stage.
        """
        if not self.padded or values is self.ghost:
            return values
        ghost = self.ghost
        ghost[self.inner] = values
        ghost[..., 0] = values[..., -1]
        ghost[..., -1] = values[..., 0]
        return ghost

    # The primitive entries are looked up on first use, so the flux stencil
    # alone needs no B, sigma or beta (nor a PSD diffusion matrix).
    @cached_property
    def b_entries(self):
        """The diagonal and upper off-diagonal B entries the stencil reads."""
        return {(i, j): e for (i, j), e in self.table.b.items() if i <= j}

    def hyperbolic(self, values, alphas, out):
        """Divergence of the LLF flux, summed over axes, into ``out``."""
        u = self.pad(values)
        fluxes = self.flux(u)
        face, rise = self.faces
        div = self.work[1]
        out.fill(0.0)
        for k, fa in enumerate(fluxes):
            plan = self.plans[k]
            # face = 0.5 (f[i] + f[i+1]) - 0.5 alpha (u[i+1] - u[i])
            _apply(np.add, fa, fa, face, plan["face"])
            face *= 0.5
            _apply(np.subtract, u, u, rise, plan["rise"])
            rise *= 0.5 * alphas[k]
            face -= rise
            _apply(np.subtract, face, face, div, plan["div"])
            div /= self.h[k]
            out += div
        return out

    def diffusion(self, values, out):
        """Second differences of B(u), with the mixed stencil in 2-d, into ``out``."""
        d = self.d
        u = self.pad(values)
        b = {ij: fn(u) for ij, fn in self.b_entries.items()}
        w0, w1, w2 = self.work
        out.fill(0.0)
        for i in range(d):
            if (i, i) not in b:
                continue
            bb, plan = b[i, i], self.plans[i]
            # (B[i+1] - 2 B[i]) + B[i-1]
            np.multiply(bb[self.inner], 2.0, out=w0)
            _apply(np.subtract, bb, w0, w1, plan["b_up"])
            _apply(np.add, w1, bb, w1, plan["b_down"])
            w1 /= self.h2[i]
            out += w1
        if d == 2 and (0, 1) in b:
            # ((B[i+1,j+1] - B[i+1,j-1]) - B[i-1,j+1]) + B[i-1,j-1], 2-d only (wrapped)
            bb, n0, n1 = b[0, 1], *self.shape[-2:]
            for s, w in ((1, w0), (-1, w1)):
                for o, ix, _ in _segments(n0, -2, s, 0):
                    w[o] = bb[ix]
            _apply(np.subtract, w0, w0, w2, _segments(n1, -1, 1, -1))
            _apply(np.subtract, w2, w1, w2, _segments(n1, -1, 0, 1))
            _apply(np.add, w2, w1, w2, _segments(n1, -1, 0, -1))
            w2 *= 2.0
            w2 /= self.four_hh
            out += w2
        return out

    def dissipation(self, values):
        """Discrete parabolic dissipation: sum over k of (sum_i D_i beta_ik)^2.

        D_i is the centered difference along axis i; the total is scaled
        by the cell volume.
        """
        d = self.d
        u = self.pad(values)
        beta = {ik: fn(u) for ik, fn in self.table.beta.items()}
        acc, grad = self.work[0], self.work[1]
        total = 0.0
        for k in range(d):
            terms = [(i, beta[i, k]) for i in range(d) if (i, k) in beta]
            for n, (i, bb) in enumerate(terms):
                g = grad if n else acc
                _apply(np.subtract, bb, bb, g, self.plans[i]["beta"])
                g /= self.two_h[i]
                if n:
                    acc += grad
            if terms:
                total += float(np.vdot(acc, acc).real)
        return total * self.cell_volume


def hyperbolic_div(model, fld, grid):
    """Discrete divergence of f(u); alpha from the current field range."""
    values = np.asarray(fld.values, dtype=float)
    alphas, _ = _wave_bounds(model, *_range(values))
    stencils = _Stencils(model, grid, values.shape)
    return stencils.hyperbolic(values, alphas, np.empty_like(values))


def diffusion_div(model, fld, grid):
    """Discrete divergence of A(u) grad u via primitives of A."""
    values = np.asarray(fld.values, dtype=float)
    stencils = _Stencils(model, grid, values.shape)
    return stencils.diffusion(values, np.empty_like(values))


def _cfl_dt(alphas, lams, hs, cfl):
    """cfl / (sum_i alpha_i/h_i + 2 sum_ij lambda_ij/(h_i h_j)); inf without dynamics.

    Both sums run left to right, on floats for the stepper's bound lists.
    """
    d = len(hs)
    hyp = par = 0.0
    for i in range(d):
        hyp += alphas[i] / hs[i]
        for j in range(d):
            par += lams[i][j] / (hs[i] * hs[j])
    denom = hyp + 2.0 * par
    if denom <= 0.0:
        return math.inf
    return float(cfl / denom)


def stable_dt(model, fld, grid, cfl=0.4, output_every=None):
    """Largest stable step for the current field range.

    When the model has no dynamics at all (both stability sums vanish)
    the step is capped at the output cadence if one is given, otherwise
    inf is returned and run() applies its own cadence.
    """
    if not (cfl > 0 and np.isfinite(cfl)):
        raise ConfigurationError(f"cfl must be positive, got {cfl}")
    lo, hi = _range(np.asarray(fld.values, dtype=float))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigurationError("field contains non-finite values")
    alphas, lams = _wave_bounds(model, lo, hi)
    dt = _cfl_dt(alphas, lams, grid.spacings, cfl)
    if math.isinf(dt) and output_every is not None:
        return float(output_every)
    if math.isnan(dt) or dt <= 0.0:
        raise ConfigurationError(f"stable step is not positive: {dt}")
    return dt


def _stepper(stencils, scheme):
    """The scheme map, shared by step, run and run_lockstep.

    Returns ``advance(values, rng, t, cap, idle, dt=None) -> (new_values,
    new_rng, dt, cut)`` for fields of the stencils' shape, where ``rng`` and
    ``new_rng`` are the (min, max) of ``values`` and ``new_values`` over any
    leading batch axes too. The wave bounds, and so dt, come from ``rng``;
    a ``new_rng`` that is not finite (np.min and np.max propagate NaN)
    raises BlowUpError. Without a forced ``dt`` the step is the CFL step
    capped at ``cap``, replaced by ``idle`` when that is not finite or not positive
    (a model without dynamics); ``idle=None`` then raises
    ConfigurationError. ``cut`` says the step is shorter than the CFL step
    (capped, or the ``idle`` step).
    """
    two_stage = scheme.integrator != "euler"
    tend = np.empty(stencils.shape)
    hyp = np.empty(stencils.shape)

    def tendency(v, alphas, skip_flux):
        v = stencils.pad(v)  # one pad per stage, shared by both stencils
        if stencils.b_entries:
            stencils.diffusion(v, tend)
        else:
            tend.fill(0.0)
        if not skip_flux:
            np.subtract(tend, stencils.hyperbolic(v, alphas, hyp), out=tend)
        return tend

    def advance(values, rng, t, cap, idle, dt=None):
        alphas, lams = stencils.bounds(*rng)
        alphas, lams = alphas.tolist(), lams.tolist()
        cut = False
        if dt is None:
            cfl_dt = _cfl_dt(alphas, lams, stencils.h, scheme.cfl)
            dt, cut = min(cfl_dt, cap), cap < cfl_dt
            if not (math.isfinite(dt) and dt > 0.0):
                if idle is None:
                    raise ConfigurationError(
                        "model has no dynamics; set output_every or pass dt explicitly")
                dt, cut = idle, True
        skip_flux = stencils.flux_is_zero and not any(alphas)
        inc = tendency(values, alphas, skip_flux)
        inc *= dt
        new_values = values + inc
        if two_stage:
            # 0.5 * ((u + u1) + dt * L(u1))
            inc = tendency(new_values, alphas, skip_flux)
            inc *= dt
            new_values += values
            new_values += inc
            new_values *= 0.5
        new_rng = lo, hi = _range(new_values)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            finite = new_values[np.isfinite(new_values)]
            peak = float(np.abs(finite).max()) if finite.size else math.inf
            raise BlowUpError(t + dt, peak)
        return new_values, new_rng, dt, cut

    return advance


def step(state, model, grid, config, *, dt=None):
    """Advance one step; dt defaults to the stable step for this field."""
    values = np.asarray(state.values, dtype=float)
    advance = _stepper(_Stencils(model, grid, values.shape), config)
    with np.errstate(**_QUIET):
        new_values, _, dt, _ = advance(values, _range(values), state.time, math.inf,
                                       config.output_every, dt)
    return CellField(values=new_values, time=state.time + dt)


def _contraction_constants(lo, hi, mean):
    consts = list(np.linspace(lo, hi, 5)) + [mean]
    out = []
    for c in consts:
        c = float(c)
        if all(abs(c - o) > 1e-12 for o in out):
            out.append(c)
    return out


def _boundaries(t_end, out_every, snap_every):
    """Sorted (time, is_row, is_snap) stop points, always ending at t_end."""

    def ladder(every):
        k = 0
        while every is not None and k * every <= t_end * (1 + 1e-12):
            yield k * every
            k += 1

    marks = sorted([(min(t, t_end), True, False) for t in ladder(out_every)]
                   + [(t, False, True) for t in ladder(snap_every)] + [(t_end, True, False)])
    merged = []
    for t, is_row, is_snap in marks:
        # Marks closer than the end tolerance collapse onto the earliest.
        if merged and t - merged[-1][0] <= 1e-12 * max(1.0, t_end):
            t, was_row, was_snap = merged.pop()
            is_row, is_snap = is_row or was_row, is_snap or was_snap
        merged.append((t, is_row, is_snap))
    return merged


def _march(advance, values, rng, scheme):
    """The one stop-point loop: step from t=0 through every stop to t_end.

    ``rng`` is the (min, max) of ``values``; each step returns its new
    field's range for the next step. Yields ``(t, values, rng, dt, cut, None)`` after each step and
    ``(t, values, rng, None, None, (is_row, is_snap))`` at each stop point,
    the first one at t=0. Steps are cut short to land on the stop points.
    """
    t_end = float(scheme.t_end)
    out_every = scheme.output_every if scheme.output_every is not None else t_end / 50.0
    eps_end = 1e-12 * max(1.0, t_end)
    t = 0.0
    for target, is_row, is_snap in _boundaries(t_end, out_every, scheme.snapshot_every):
        while t < target - eps_end:
            values, rng, dt, cut = advance(values, rng, t, target - t, target - t)
            t = t + dt
            yield t, values, rng, dt, cut, None
        t = target
        yield t, values, rng, None, None, (is_row, is_snap)


def run(model, grid, profile, scheme, hooks=()):
    """Integrate to t_end, tracking invariants every step.

    Returns a Trajectory with diagnostic rows at the output cadence,
    optional snapshots, and RunStats holding per-step extremes (maximum
    principle violation, largest positive energy jump, mean drift, and the
    largest rise of the L1 distance to a ladder of constants, which the
    contraction audit reads). Blow-up raises BlowUpError with the partial
    trajectory attached.
    """
    fld = profile if isinstance(profile, CellField) else init_field(grid, profile)
    values = np.asarray(fld.values, dtype=float).copy()
    stencils = _Stencils(model, grid, values.shape)
    vol = stencils.cell_volume
    ncells = values.size
    has_diff = bool(stencils.b_entries)

    def measure(v):
        """Mean, L2 energy and dissipation of v; rows and per-step stats share them."""
        return (float(v.sum()) / ncells, float(np.vdot(v, v).real) * vol,
                stencils.dissipation(v) if has_diff else 0.0)

    u0_min, u0_max = rng = _range(values)
    mean_cur, energy_cur, n_prev = measure(values)
    stats = RunStats(
        initial_min=u0_min, initial_max=u0_max, initial_mean=mean_cur,
        contraction_constants=tuple(_contraction_constants(u0_min, u0_max, mean_cur)),
    )
    consts = np.array(stats.contraction_constants).reshape((-1,) + (1,) * values.ndim)
    gaps = np.empty(consts.shape[:1] + values.shape)

    def ladder_l1(v):
        """L1 distance of v to every contraction constant, in one pass."""
        np.subtract(v, consts, out=gaps)
        np.abs(gaps, out=gaps)
        return gaps.reshape(len(consts), -1).sum(axis=1) * vol

    rows = []
    snaps = []

    def make_row(t, window_diss):
        budget = 0.5 * (rows[-1].l2_energy - energy_cur) if rows else 0.0
        row = DiagnosticsRow(
            t=t, mean=mean_cur, l1_to_mean=float(np.abs(values - mean_cur).sum()) * vol,
            l2_energy=energy_cur, linf=max(abs(rng[0]), abs(rng[1])),
            dissipation_resolved=window_diss, dissipation_budget=budget)
        rows.append(row)
        stats.contraction_l1.append(ladder_cur.tolist())
        for hook in hooks:
            hook(CellField(values=values.copy(), time=t), row)

    def trajectory():
        if stats.steps and stats.truncated_steps == stats.steps:
            stats.dt_min, stats.dt_max = cut_dt_min, cut_dt_max
        return Trajectory(model_name=model.name, grid=grid, scheme=scheme,
                          rows=rows, snapshots=snaps, stats=stats,
                          final=CellField(values=values.copy(), time=t))

    window_diss = 0.0
    ladder_cur = ladder_l1(values)
    cut_dt_min, cut_dt_max = math.inf, 0.0

    try:
        with np.errstate(**_QUIET):
            for t, new_values, rng, dt, cut, stop in _march(
                    _stepper(stencils, scheme), values, rng, scheme):
                if stop is not None:
                    is_row, is_snap = stop
                    if is_row:
                        make_row(t, window_diss)
                        window_diss = 0.0
                    if is_snap:
                        snaps.append(CellField(values=values.copy(), time=t))
                    continue
                stats.steps += 1
                if cut:
                    stats.truncated_steps += 1
                    cut_dt_min, cut_dt_max = min(cut_dt_min, dt), max(cut_dt_max, dt)
                else:
                    stats.dt_min = min(stats.dt_min, dt)
                    stats.dt_max = max(stats.dt_max, dt)
                stats.max_principle_violation = max(
                    stats.max_principle_violation, rng[1] - u0_max, u0_min - rng[0])
                new_mean, new_energy, n_new = measure(new_values)
                stats.energy_max_step_jump = max(
                    stats.energy_max_step_jump, new_energy - energy_cur)
                stats.mean_drift = max(stats.mean_drift, abs(new_mean - stats.initial_mean))
                new_ladder = ladder_l1(new_values)
                stats.contraction_max_step_jump = max(
                    stats.contraction_max_step_jump, float((new_ladder - ladder_cur).max()))
                if has_diff:
                    window_diss += 0.5 * dt * (n_prev + n_new)
                values, mean_cur, energy_cur, ladder_cur, n_prev = (
                    new_values, new_mean, new_energy, new_ladder, n_new)
    except BlowUpError as exc:
        exc.trajectory = trajectory()
        raise
    return trajectory()


def run_lockstep(model, grid, profile_a, profile_b, scheme):
    """Advance two initial data under the identical scheme map.

    Lockstep is a batch of two fields on the shared stepper: both take
    each step's dt and flux bound from the union of their ranges, which is
    exactly the setting in which the monotone scheme contracts the L1
    distance. Returns (times, distances, field_a, field_b) with distances
    sampled at the output cadence; snapshot_every is ignored.
    """
    fields = [p if isinstance(p, CellField) else init_field(grid, p)
              for p in (profile_a, profile_b)]
    values = np.stack([np.asarray(f.values, dtype=float) for f in fields])
    advance = _stepper(_Stencils(model, grid, values.shape), scheme)
    times = []
    dists = []
    # Without snapshots every stop point is an output row.
    with np.errstate(**_QUIET):
        for t, values, _, _, _, stop in _march(advance, values, _range(values),
                                               replace(scheme, snapshot_every=None)):
            if stop is not None:
                times.append(t)
                dists.append(float(np.abs(values[0] - values[1]).sum()) * grid.cell_volume)
    return times, dists, CellField(values[0], t), CellField(values[1], t)
