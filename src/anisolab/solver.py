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
field with its range [min u, max u], one argmin and one argmax: the range
sets the next step's wave bounds, tells whether the field is finite (argmin
and argmax find the first NaN), and gives run's max-principle statistic and
sup norm.
A wave bound that overflows (a CFL step of 0 or NaN) is a blow-up too.
init_field broadcasts a profile's values to its quadrature nodes, so a
profile of one coordinate, or a constant, fills every cell.

run measures the fields its steps make per window. A window ends once it
holds cap = max(1, _WINDOW_BYTES // field bytes) fields (32 at N = 256, one
at 128 x 128), at the run's end and at a blow-up, which takes the partial
trajectory after it. A row's stop queues its field and range, and the row is
written as soon as the steps before it are folded; a snapshot is copied at
its stop. The means are one row sum over the window's stacked fields, and
the L1 distances to the contraction constants one subtract, abs and row sum
in a (cap, constants, *shape) block; the energies are one batched dot
(_squares). The dissipation is one pass of the meter over all of its rows,
then one batched dot per axis over the window's. The meter is a stencil set
of cap rows, or at cap = 1 the stage stencils. The per-step statistics then
follow in step order, a NaN jump making its statistic NaN for good. Every
row, statistic and snapshot has the bits of a measure after each step.

The stencils are periodic slice kernels (_Stencils) on one layout in 1-d
and 2-d, lone or batched. Every array they own (the stage field, one buffer
per distinct flux, B and beta entry, two work arrays, the stage's diffusion
and flux parts) is a frame: one flat array on a 64-byte line, one row per
field. A row is the field padded by a ghost cell at each end of every axis
and flattened, after the few values that put its first cell on a line and
before the few that round it up to whole lines. A shift by s along axis k is
a flat offset of s times the axis's stride, so each stencil term, each row
of the mixed one included, is one ufunc call (x, y, out) on contiguous flat
ranges from the first row's first cell to the last row's last cell: face
i - 1/2 is stored at cell i. A range crosses the ghosts between grid lines
and the values between rows, computed and never read, as each row carries
its own ghosts. The views are bound once per run, as programs of (fn, args)
steps, a float operand of a ufunc step as a 0-d array (_bind). One stage
call, _Stencils.tendency, sums each term into its part's range; the stepper
writes dt (diffusion - flux) into a work array, and the one-shot operators
copy a part's cells. The dissipation has its own beta program and one
method, _Stencils.dissipations: it serves run's windows, the lone field and
parabolic_dissipation, whose batch total is one dot per axis over all of the
batch's cells. Every energy and dissipation reduces by _squares. A call
copies the field into the frame, fills the ghosts axis by axis (the corners
too), writes the entries (one buffer and one evaluation per distinct entry
object; an entry with in-place steps runs them, any other is copied in) and
runs the diffusion terms, then the flux terms, bound for a model with flux
or speed entries. 0.5 alpha_k and dt are written into 0-d arrays, so no
call of the step converts a Python float. The second stage's field is
written straight into the frame. No array handed back is a stencil buffer
or a view of one. The kernels divide by h, h^2, 2h and 4 h_0 h_1, or
multiply by the reciprocal when the divisor is a power of two (then both
round the same real number), so they match the
whole-array periodic-shift form of each stencil bit for bit; the tests keep
that form as the reference. The entries come from model.model_table.

Wave bounds, max |a_k| for the flux and max |A_ij| for the time step, are
taken over the current field's range [min u, max u], not clipped to
state_bound. One method, ModelTable.bounds, gives them as the float lists
the stepper reads. They are exact for polynomial entries (range ends plus
the critical points inside) and sampled at 129 states for hand-written
entries and whole callables; a sampled maximum is not a supremum.

Off-diagonal diffusion breaks the monotone structure whenever it is
nonzero: the 4-corner mixed stencil weights B_01 at two corners with a
negative sign, however strongly the diagonal dominates, so the maximum
principle and L1 contraction are no longer guaranteed. The bundled presets
are diagonal; the audit reports what an off-diagonal model violates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import mul
from typing import Optional

import numpy as np

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
# The bytes of fields in one of run's measurement windows (module docstring).
_WINDOW_BYTES = 2 ** 16
# The second stage's factor and a part's first addend, bound as _bind binds a
# program's floats.
_HALF = np.array(0.5)
_ZERO = np.array(0.0)


class ConfigurationError(Exception):
    """Grid or scheme parameters that cannot produce a run."""


def _check_positive(name, val):
    """Raise ConfigurationError unless ``val`` is finite and positive."""
    if not (val > 0 and np.isfinite(val)):
        raise ConfigurationError(f"{name} must be positive, got {val}")


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
        if not all(float(n).is_integer() for n in self.cells):
            raise ConfigurationError(f"cells must be integers, got {self.cells}")
        if any(n < 4 for n in self.cells):
            raise ConfigurationError(f"need at least 4 cells per axis, got {self.cells}")
        object.__setattr__(self, "cells", tuple(int(n) for n in self.cells))

    @staticmethod
    def make(periods, cells):
        periods = tuple(float(p) for p in np.atleast_1d(periods))
        cells = tuple(np.atleast_1d(cells).tolist())
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

    The stable range of ``cfl`` is (0, 1] for a diagonal A: in an Euler stage
    the coefficient of u_i is 1 - dt (sum_k alpha_k / h_k + 2 sum_k
    Lambda_kk / h_k^2), and _cfl_dt's denominator bounds that sum, so the
    coefficient is at least 1 - cfl >= 0 and the stage is monotone. Values
    above 1 defeat the monotonicity guarantee and exist for deliberate
    instability experiments. An off-diagonal A has no guarantee at any cfl
    (module docstring).
    """

    t_end: float
    cfl: float = 0.4
    integrator: str = "ssp-rk2"
    output_every: Optional[float] = None
    snapshot_every: Optional[float] = None

    def __post_init__(self):
        _check_positive("t_end", self.t_end)
        _check_positive("cfl", self.cfl)
        if self.integrator not in INTEGRATORS:
            raise ConfigurationError(
                f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}")
        for name in ("output_every", "snapshot_every"):
            if getattr(self, name) is not None:
                _check_positive(name, getattr(self, name))


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

    ``profile`` takes one coordinate array per axis, shaped to broadcast
    against each other, and its values are broadcast to the quadrature shape,
    (n, 3) in 1-d and (n_0, n_1, 3, 3) in 2-d: a profile of one coordinate,
    or a scalar constant, fills every cell. Values that do not broadcast raise
    ConfigurationError. An ndarray of per-cell values, or a CellField's
    values, is copied once its shape matches the grid and every value is
    finite.
    """
    if isinstance(profile, CellField):
        profile = np.asarray(profile.values, dtype=float)
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
        # One einsum for both dimensions would round 1-d sums otherwise than this
        # matmul does (1-2 ulp, in 79 of 424 compared cases), so 1-d keeps it.
        values = _on_nodes(profile(pts), pts.shape) @ _GAUSS3_WEIGHTS
    else:
        h1, h2 = grid.spacings
        x = grid.centers(0)[:, None] + 0.5 * h1 * _GAUSS3_NODES[None, :]
        y = grid.centers(1)[:, None] + 0.5 * h2 * _GAUSS3_NODES[None, :]
        vals = _on_nodes(profile(x[:, None, :, None], y[None, :, None, :]),
                         (len(x), len(y), 3, 3))
        values = np.einsum("ijxy,x,y->ij", vals, _GAUSS3_WEIGHTS, _GAUSS3_WEIGHTS)
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"initial profile is non-finite near cell index {tuple(bad.tolist())}")
    return CellField(values=values, time=0.0)


def _on_nodes(vals, shape):
    """A profile's values as floats broadcast to the quadrature ``shape``."""
    vals = np.asarray(vals, dtype=float)
    try:
        return np.broadcast_to(vals, shape)
    except ValueError:
        raise ConfigurationError(f"profile values of shape {vals.shape} do not broadcast "
                                 f"to the quadrature shape {shape}") from None


def _range(values):
    """(min, max) of a field as floats; NaN if any value is NaN, as argmin and argmax
    return the first NaN. A zero extreme has the sign of its first occurrence."""
    flat = values.ravel()
    return flat.item(flat.argmin()), flat.item(flat.argmax())


def _term(ufunc, plan, x, y, out):
    """The step out[i] = ufunc(x[i + sx], y[i + sy]); ``plan`` holds its flat ranges (out, x, y)."""
    o, ix, iy = plan
    return ufunc, (x[ix], y[iy], out[o])


def _scale(x, c):
    """The step x /= c, bound as x *= 1/c when c is a power of two whose reciprocal is
    finite: then 1/c is exact and both round the same real number, so the bits agree."""
    if math.frexp(c)[0] == 0.5 and math.isfinite(1.0 / c):
        return np.multiply, (x, 1.0 / c, x)
    return np.divide, (x, c, x)


def _bind(program):
    """``program`` with each float operand of a ufunc step as a 0-d float64 array: the
    same bits, without the ufunc converting the float on every call."""
    return tuple((fn, tuple(np.array(a) if isinstance(a, float) else a for a in args))
                 if isinstance(fn, np.ufunc) else (fn, args) for fn, args in program)


def _squares(rows):
    """The dot of each row of a 2-d array with itself, as floats: one np.matmul of
    (1, n) by (n, 1) pairs, each the dot np.vdot computes, so the bits are np.vdot's."""
    return np.matmul(rows[:, None, :], rows[:, :, None]).ravel().tolist()


def _run(program):
    """Run a program: each step is (fn, args), a ufunc step's args ending with its out."""
    for fn, args in program:
        fn(*args)


def _copy_into(entry, u, out):
    out[...] = entry(u)


_LINE = 8  # float64 values per 64-byte cache line


# Axis-aligned stencil terms along axis k, out[i] = op(x[i + sx], y[i + sy]):
# name -> (sx, sy, hi), shifts in cells along k. Every output range starts at
# the first cell, so on a line; faces run hi = 1 cell past the last along k:
# face i - 1/2 sits at cell i.
_TERMS = {
    "face": (-1, 0, 1),  # f(i-1) + f(i)
    "rise": (0, -1, 1),  # u(i) - u(i-1)
    "div": (1, 0, 0),  # face(i + 1/2) - face(i - 1/2)
    "b_up": (1, 0, 0),  # B(i+1) - 2 B(i)
    "b_down": (0, -1, 0),  # (B(i+1) - 2 B(i)) + B(i-1)
    "beta": (1, -1, 0),  # beta(i+1) - beta(i-1)
}
# The mixed term's rows, (sx, sy) with a shift per axis (2-d), in the order
# ((B[i+1,j+1] - B[i+1,j-1]) - B[i-1,j+1]) + B[i-1,j-1].
_MIXED = (((1, 1), (1, -1)), ((0, 0), (-1, 1)), ((0, 0), (-1, -1)))


class _Stencils:
    """The scheme's periodic stencils for one model and grid, on fields of one shape.

    Every array they own is a frame (module docstring), the stage's diffusion
    and flux parts included. Each program is bound once, on first use, over
    every row: one entry program for B and f with the flux and diffusion terms
    on its buffers, which ``tendency`` (a stage) loads, and the beta and
    difference programs of ``dissipations``, which reads the first k rows of k
    fields. So no stencil except the dissipation needs sigma, beta or a PSD
    diffusion matrix. A call loads the field, runs the entry program and each
    term's program, and adds each result's range into its part's. Leading
    batch axes of ``shape`` are the frames' rows; ``cells``, ``work_cells``
    (work[0]) and ``part_cells`` view the cells of frames in ``shape``.
    """

    def __init__(self, model, grid, shape):
        self.table = table = model_table(model)
        d = grid.dimension
        self.d, self.h = d, grid.spacings
        self.cell_volume = grid.cell_volume
        self.bounds = table.bounds
        lead, ns = tuple(shape[:-d]), tuple(shape[-d:])
        padded = tuple(n + 2 for n in ns)
        size, strides = math.prod(padded), [math.prod(padded[k + 1:]) for k in range(d)]
        # The padded field starts `pad` values into each row, so that cell (1, ..., 1)
        # falls on a line, and a row runs on to a whole number of lines.
        pad, rows = -sum(strides) % _LINE, math.prod(lead)
        row = pad + size - (pad + size) % -_LINE
        self.size, last = rows * row, pad + sum(map(mul, ns, strides))
        self.rows = rows
        self.u, *self.work = (self._frame() for _ in range(3))
        # tendency's 0.5 alpha_k, a 0-d array so the multiply converts no float
        self.half_alpha = np.array(0.0)
        # Cell (1, ..., 1) of the first row to (n_0, ..., n_last) of the last; a plan
        # is a term's (out, x, y) ranges.
        self.span = span = slice(pad + sum(strides), self.size - row + last + 1)

        def plan(sx, sy, hi=0):
            return tuple(slice(span.start + s, span.stop + hi + s) for s in (0, sx, sy))

        self.plans = [{name: plan(sx * s, sy * s, hi * s) for name, (sx, sy, hi) in _TERMS.items()}
                      for s in strides]
        self.mixed = tuple(plan(*(sum(map(mul, s, strides)) for s in shifts))
                           for shifts in _MIXED) if d == 2 else ()
        self.work_span = [w[span] for w in self.work]
        # A frame's padded fields and cells in ``shape`` (views: each reshape splits an axis).
        self._grid = lambda a: a.reshape(rows, row)[:, pad:pad + size].reshape(lead + padded)
        self._inside = inside = (Ellipsis,) + tuple(slice(1, n + 1) for n in ns)
        self.cells, self.work_cells = (self._grid(a)[inside] for a in (self.u, self.work[0]))
        # A leading axis of stacked fields, of length 1 for a lone field.
        self.stack = self.cells.reshape((lead or (1,)) + ns)
        grid = self._grid(self.u)
        self.ghosts = [pair for k, n in enumerate(ns) for g in [np.moveaxis(grid, k - d, -1)]
                       for pair in ((g[..., :1], g[..., n:n + 1]), (g[..., n + 1:], g[..., 1:2]))]

    def _frame(self):
        """A zeroed frame (module docstring): a view, on a line, of an array a line longer."""
        raw = np.zeros(self.size + _LINE)
        skip = -raw.ctypes.data // raw.itemsize % _LINE
        return raw[skip:skip + self.size]

    # The stage's diffusion and flux parts, made on first use (the dissipation reads none).
    _parts = cached_property(lambda self: (self._frame(), self._frame()))
    parts = cached_property(lambda self: tuple(p[self.span] for p in self._parts))
    part_cells = cached_property(lambda self: tuple(self._grid(p)[self._inside]
                                                    for p in self._parts))

    def load(self, values, program=()):
        """The stage field holding ``values`` (taken as it is if it is the stage
        field, so one copy serves a stage), after running ``program`` on it. A
        stack of k fields fills the first k rows; the others keep what they held."""
        if values is not self.u:
            if values.shape == self.cells.shape:
                self.cells[...] = values
            else:
                self.stack[:len(values)] = values
            self.fill_ghosts()
        _run(program)
        return self.u

    def fill_ghosts(self):
        """u[0] = u[n], u[n + 1] = u[1] axis by axis (corners too), in every row."""
        for ghost, cell in self.ghosts:
            ghost[...] = cell

    def _entries(self, entries, axes=()):
        """{index: buffer} for ``entries`` and ``axes`` (zero without an entry), and
        (entry, buffer) for each distinct entry object, whose indexes share the buffer."""
        bufs = {idx: self._frame() for idx in axes if idx not in entries}
        owned = {}
        for idx, e in entries.items():
            if id(e) not in owned:
                owned[id(e)] = e, self._frame()
            bufs[idx] = owned[id(e)][1]
        return bufs, tuple(owned.values())

    def _fills(self, owned):
        """The program of ``owned``'s entries over the whole frames: in-place steps
        (work[1] is their scratch) or a copy."""
        return _bind(step for e, buf in owned
                     for step in (e.steps(self.u, buf, self.work[1]) if hasattr(e, "steps")
                                  else ((_copy_into, (e, self.u, buf)),)))

    @cached_property
    def b_entries(self):
        """The diagonal and upper off-diagonal B entries the stencil reads."""
        return {(i, j): e for (i, j), e in self.table.b.items() if i <= j}

    @cached_property
    def _programs(self):
        """The one entry program for B and f; per axis k the flux program (before, rise
        to scale by 0.5 alpha_k, after), bound only for a model with flux or speed
        entries; and one program per diffusion term, B_ii along axis i, then B_01.
        Every term's result is work[1]'s span."""
        b, table = self.b_entries, self.table
        axes = range(self.d) if table.f or table.speed else ()
        bufs, owned = self._entries({**b, **table.f}, [(k,) for k in axes])
        u, (w0, w1), (c0, c1) = self.u, self.work, self.work_span
        flux = []
        for k, plan in zip(axes, self.plans):
            # face (w0) = 0.5 (f[i-1] + f[i]) - 0.5 alpha (u[i] - u[i-1]), the rise in w1;
            # div overwrites the rise
            fa, faces = bufs[k,], plan["face"][0]
            fc, rc = w0[faces], w1[faces]
            before = [_term(np.add, plan["face"], fa, fa, w0), (np.multiply, (fc, 0.5, fc)),
                      _term(np.subtract, plan["rise"], u, u, w1)]
            after = [(np.subtract, (fc, rc, fc)), _term(np.subtract, plan["div"], w0, w0, w1),
                     _scale(c1, self.h[k])]
            flux.append((_bind(before), rc, _bind(after)))
        # (B[i+1] - 2 B[i]) + B[i-1]
        diffusion = [((np.multiply, (bufs[i, i][self.span], 2.0, c0)),
                      _term(np.subtract, plan["b_up"], bufs[i, i], w0, w1),
                      _term(np.add, plan["b_down"], w1, bufs[i, i], w1),
                      _scale(c1, self.h[i] ** 2))
                     for i, plan in enumerate(self.plans) if (i, i) in b]
        if (0, 1) in b:
            # ((B[i+1,j+1] - B[i+1,j-1]) - B[i-1,j+1]) + B[i-1,j-1], times 2 / (4 h_0 h_1)
            bb, (first, second, third) = bufs[0, 1], self.mixed
            diffusion.append((
                _term(np.subtract, first, bb, bb, w1), _term(np.subtract, second, w1, bb, w1),
                _term(np.add, third, w1, bb, w1), (np.multiply, (c1, 2.0, c1)),
                _scale(c1, 4.0 * self.h[0] * self.h[-1])))
        return self._fills(owned), flux, [_bind(steps) for steps in diffusion]

    def tendency(self, values, alphas):
        """One stage from one load: the second differences of B(u) summed into the
        diffusion part's span, then the divergence of the LLF flux summed over axes into
        the flux part's. Only a part's own terms write it: without any (no B entries; no
        flux and speed entries) it keeps the zeros of its frame.

        B_ii is two rows along axis i; B_01 (2-d) is the three rows of
        ``_MIXED``, scaled by 2 / (4 h_0 h_1).
        """
        program, flux, diffusion = self._programs
        (diff, hyp), result, half_alpha = self.parts, self.work_span[1], self.half_alpha
        self.load(values, program)
        # The first term writes 0.0 + its result, the bits of a zero fill and an add.
        for i, steps in enumerate(diffusion):
            _run(steps)
            np.add(diff if i else _ZERO, result, diff)
        for k, (before, rise, after) in enumerate(flux):
            _run(before)
            half_alpha[()] = 0.5 * alphas[k]
            np.multiply(rise, half_alpha, rise)
            _run(after)
            np.add(hyp if k else _ZERO, result, hyp)

    _beta = cached_property(lambda self: self._entries(self.table.beta))

    @cached_property
    def _dissipation(self):
        """Over every row: the beta program, per axis k the program of sum_i D_i beta_ik
        into work[0], and work[0]'s cells, one row per field."""
        beta, owned = self._beta
        (acc, grad), (ca, cg) = self.work, self.work_span
        sums = []
        for k in range(self.d):
            steps = []
            for i, plans in enumerate(self.plans):
                if (i, k) in beta:
                    g, c = (grad, cg) if steps else (acc, ca)
                    steps.append(_term(np.subtract, plans["beta"], beta[i, k], beta[i, k], g))
                    steps.append(_scale(c, 2.0 * self.h[i]))
                    if g is grad:
                        steps.append((np.add, (ca, cg, ca)))
            if steps:
                sums.append(_bind(steps))
        cells = self.work_cells.reshape((self.rows,) + self.cells.shape[-self.d:])
        return self._fills(owned), sums, cells

    def dissipations(self, fields, groups=None):
        """Discrete parabolic dissipation, sum over k of (sum_i D_i beta_ik)^2 scaled by
        the cell volume, of the stacked ``fields`` loaded into the first rows. ``groups``
        equal runs of fields (one per field by default; 1 for a batch's total) give one
        value each.

        D_i is the centered difference along axis i. The programs run over every row
        and only the fields' rows are read (each row carries its own ghosts). Each axis
        adds one _squares row per group, a dot over all of its cells. Without beta
        entries every value is 0.0, and the fields are not loaded.
        """
        k = len(fields)
        groups = groups or k
        program, sums, cells = self._dissipation
        if not sums:
            return [0.0] * groups
        self.load(fields, program)
        totals = [0.0] * groups
        for steps in sums:
            _run(steps)
            # The reshape copies a group's cells into one row unless they are one contiguous
            # run: a 2-d field's rows are strided, and so are several 1-d fields' rows.
            totals = [t + s for t, s in zip(totals, _squares(cells[:k].reshape(groups, -1)))]
        return [total * self.cell_volume for total in totals]


def _grid_values(fld, grid):
    """A field's values as floats, checked against the grid.

    ``fld`` is a CellField or an array; leading axes beyond the grid's are a
    nonempty batch of fields, so only the trailing axes must match ``grid.cells``.
    """
    values = np.asarray(fld.values if isinstance(fld, CellField) else fld, dtype=float)
    if values.ndim < grid.dimension or values.shape[-grid.dimension:] != tuple(grid.cells):
        raise ConfigurationError(f"field shape {values.shape} does not match grid {grid.cells}")
    if not values.size:
        raise ConfigurationError(f"field shape {values.shape} holds a batch of no fields")
    return values


def hyperbolic_div(model, fld, grid):
    """Discrete divergence of f(u); alpha from the current field range."""
    values = _grid_values(fld, grid)
    stencils = _Stencils(model, grid, values.shape)
    alphas, _ = stencils.bounds(*_range(values))
    stencils.tendency(values, alphas)
    return stencils.part_cells[1].copy()


def diffusion_div(model, fld, grid):
    """Discrete divergence of A(u) grad u via primitives of A."""
    values = _grid_values(fld, grid)
    stencils = _Stencils(model, grid, values.shape)
    stencils.tendency(values, [0.0] * grid.dimension)
    return stencils.part_cells[0].copy()


def _cfl_dt(alphas, lams, hs, cfl):
    """cfl / (sum_i alpha_i/h_i + 2 sum_ij lambda_ij/(h_i h_j)); inf without dynamics.

    Both sums run left to right, on the float lists of ModelTable.bounds.
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


def stable_dt(model, fld, grid, cfl=SchemeConfig.cfl, output_every=None):
    """Largest stable step for the current field range.

    When the model has no dynamics at all (both stability sums vanish)
    the step is capped at the output cadence if one is given, otherwise
    inf is returned and run() applies its own cadence. A field that is not
    finite raises ValueError, as in run() and step(); a cfl or cadence that
    is not finite and positive raises ConfigurationError.
    """
    _check_positive("cfl", cfl)
    if output_every is not None:
        _check_positive("output_every", output_every)
    lo, hi = _range(_grid_values(fld, grid))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("field contains non-finite values")
    alphas, lams = model_table(model).bounds(lo, hi)
    dt = _cfl_dt(alphas, lams, grid.spacings, cfl)
    if math.isinf(dt) and output_every is not None:
        return float(output_every)
    if math.isnan(dt) or dt <= 0.0:
        raise ConfigurationError(f"stable step is not positive: {dt}")
    return dt


def _stepper(stencils, scheme):
    """The scheme map, shared by step, run and run_lockstep.

    A stage's increment, dt (diffusion - flux), is made in the stencils'
    work[0] over its one range and read through its cells (``inc``), so each
    part is written only by its own terms.
    Returns ``advance(values, rng, t, cap, idle, dt=None) -> (new_values,
    new_rng, dt, cut)`` for fields of the stencils' shape, where ``rng`` and
    ``new_rng`` are the (min, max) of ``values`` and ``new_values`` over any
    leading batch axes too. The wave bounds, and so dt, come from ``rng``;
    a ``new_rng`` that is not finite (_range propagates NaN)
    raises BlowUpError. Without a forced ``dt`` the step is the CFL step
    capped at ``cap``, replaced by ``idle`` when that is infinite (a model
    without dynamics); ``idle=None`` then raises ConfigurationError. A CFL
    step of 0 or NaN (an infinite or NaN wave bound) raises BlowUpError at
    ``t`` with the max |u| of ``values``. ``cut`` says the step is shorter
    than the CFL step (capped, or the ``idle`` step).
    """
    two_stage = scheme.integrator != "euler"
    (diff, hyp), out, inc = stencils.parts, stencils.work_span[0], stencils.work_cells
    # The step's dt, a 0-d array that each step writes and both stages read.
    step_dt = np.array(0.0)

    def increment(values, alphas):
        """dt (diffusion - flux) of one stage."""
        stencils.tendency(values, alphas)
        np.subtract(diff, hyp, out)
        np.multiply(out, step_dt, out)

    def advance(values, rng, t, cap, idle, dt=None):
        alphas, lams = stencils.bounds(*rng)
        cut = False
        if dt is None:
            cfl_dt = _cfl_dt(alphas, lams, stencils.h, scheme.cfl)
            if not cfl_dt > 0.0:
                raise BlowUpError(t, max(abs(rng[0]), abs(rng[1])))
            dt, cut = min(cfl_dt, cap), cap < cfl_dt
            if math.isinf(dt):
                if idle is None:
                    raise ConfigurationError(
                        "model has no dynamics; set output_every or pass dt explicitly")
                dt, cut = idle, True
        step_dt[()] = dt
        increment(values, alphas)
        if two_stage:
            # 0.5 * ((u + u1) + dt * L(u1)), u1 = u + dt L(u) written as the stage field
            np.add(values, inc, stencils.cells)
            stencils.fill_ghosts()
            increment(stencils.u, alphas)
            new_values = np.add(stencils.cells, values)
            np.add(new_values, inc, new_values)
            np.multiply(new_values, _HALF, new_values)
        else:
            new_values = np.add(values, inc)
        new_rng = lo, hi = _range(new_values)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            finite = new_values[np.isfinite(new_values)]
            peak = float(np.abs(finite).max()) if finite.size else math.inf
            raise BlowUpError(t + dt, peak)
        return new_values, new_rng, dt, cut

    return advance


def step(state, model, grid, config, *, dt=None):
    """Advance one step by dt, finite and positive, or by default by the stable
    step for this field, which init_field checks."""
    if dt is not None:
        _check_positive("dt", dt)
    values = init_field(grid, state).values
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


def _worse(stat, x):
    """max(stat, x), except that a NaN x or stat gives NaN: a NaN jump stays in the stats."""
    return x if x > stat or x != x else stat


def run(model, grid, profile, scheme, hooks=()):
    """Integrate to t_end, tracking invariants every step.

    Returns a Trajectory with diagnostic rows at the output cadence,
    optional snapshots, and RunStats holding per-step extremes (maximum
    principle violation, largest positive energy jump, mean drift, and the
    largest rise of the L1 distance to a ladder of constants, which the
    contraction audit reads). Blow-up raises BlowUpError with the partial
    trajectory attached. ``profile`` is anything init_field takes and checks.

    The fields are measured per window, which ends once it holds cap =
    max(1, _WINDOW_BYTES // field bytes) fields, at the run's end and at a
    blow-up: the means, the energies, the L1 distances to the constants and
    (by a meter of cap rows, at cap 1 the stage stencils) the dissipation in
    one pass each, all with the bits of a measure per step. A row is written,
    and its hooks run, once the steps before its stop are folded: at its stop
    when they are (always at cap 1), else at most cap steps after it, with the
    (field, row) pairs of a measure per step.
    """
    values = init_field(grid, profile).values
    stencils = _Stencils(model, grid, values.shape)
    vol = stencils.cell_volume
    ncells = values.size
    cap = max(1, _WINDOW_BYTES // values.nbytes)
    # At cap 1 the stage stencils measure: a meter of one row would only add its frames
    # to the stage's cache footprint.
    meter = _Stencils(model, grid, (cap,) + values.shape) if cap > 1 else stencils
    window = []  # (field, range, dt, cut) of each step not yet measured
    queued = []  # (steps before it in the window, t, field, range) of each row not yet written

    def energies(fields):
        return [e * vol for e in _squares(fields.reshape(len(fields), -1))]

    def ladders(fields):
        """L1 distance of each of the stacked ``fields`` to every contraction constant."""
        k = len(fields)
        gaps = np.subtract(fields[:, None], consts, out=block[:k])
        np.abs(gaps, out=gaps)
        return (gaps.reshape(k, len(consts), -1).sum(axis=2) * vol).tolist()

    def measure():
        """Fold the window's steps into the stats, in step order, writing each queued
        row once the steps before it are folded, and empty the window."""
        nonlocal mean_cur, energy_cur, ladder_cur, n_prev, window_diss, cut_dt_min, cut_dt_max
        k = len(window)
        if k:
            fields = window[0][0][None] if k == 1 else np.stack([w[0] for w in window])
            means = [s / ncells for s in fields.reshape(k, -1).sum(axis=1).tolist()]
            for j, ((_, (lo, hi), dt, cut), mean, new_energy, ladder, n_new) in enumerate(zip(
                    window, means, energies(fields), ladders(fields), meter.dissipations(fields))):
                make_rows(j)
                stats.steps += 1
                if cut:
                    stats.truncated_steps += 1
                    cut_dt_min, cut_dt_max = min(cut_dt_min, dt), max(cut_dt_max, dt)
                else:
                    stats.dt_min = min(stats.dt_min, dt)
                    stats.dt_max = max(stats.dt_max, dt)
                stats.max_principle_violation = max(
                    stats.max_principle_violation, hi - u0_max, u0_min - lo)
                stats.energy_max_step_jump = _worse(
                    stats.energy_max_step_jump, new_energy - energy_cur)
                stats.mean_drift = _worse(stats.mean_drift, abs(mean - stats.initial_mean))
                for new, cur in zip(ladder, ladder_cur):
                    stats.contraction_max_step_jump = _worse(
                        stats.contraction_max_step_jump, new - cur)
                window_diss += 0.5 * dt * (n_prev + n_new)
                energy_cur, ladder_cur, n_prev, mean_cur = new_energy, ladder, n_new, mean
            window.clear()
        make_rows(k)

    rows = []
    snaps = []

    def make_rows(folded):
        """Write each queued row whose stop came after ``folded`` of the window's steps from
        the folded state and its queued field and range, and reset the dissipation sum."""
        nonlocal window_diss
        while queued and queued[0][0] == folded:
            _, t, fld, rng = queued.pop(0)
            budget = 0.5 * (rows[-1].l2_energy - energy_cur) if rows else 0.0
            row = DiagnosticsRow(
                t=t, mean=mean_cur, l1_to_mean=float(np.abs(fld - mean_cur).sum()) * vol,
                l2_energy=energy_cur, linf=max(abs(rng[0]), abs(rng[1])),
                dissipation_resolved=window_diss, dissipation_budget=budget)
            window_diss = 0.0
            rows.append(row)
            stats.contraction_l1.append(ladder_cur)
            for hook in hooks:
                hook(CellField(values=fld.copy(), time=t), row)

    def trajectory():
        if stats.steps and stats.truncated_steps == stats.steps:
            stats.dt_min, stats.dt_max = cut_dt_min, cut_dt_max
        return Trajectory(model_name=model.name, grid=grid, scheme=scheme,
                          rows=rows, snapshots=snaps, stats=stats,
                          final=CellField(values=values.copy(), time=t))

    window_diss = 0.0
    cut_dt_min, cut_dt_max = math.inf, 0.0

    # Quiet from the first measure on: data that overflows it is a blow-up to report.
    with np.errstate(**_QUIET):
        u0_min, u0_max = rng = _range(values)
        mean_cur = float(values.sum()) / ncells
        (energy_cur,), (n_prev,) = energies(values[None]), meter.dissipations(values[None])
        stats = RunStats(
            initial_min=u0_min, initial_max=u0_max, initial_mean=mean_cur,
            contraction_constants=tuple(_contraction_constants(u0_min, u0_max, mean_cur)),
        )
        consts = np.array(stats.contraction_constants).reshape((-1,) + (1,) * values.ndim)
        block = np.empty((cap,) + consts.shape[:1] + values.shape)
        ladder_cur = ladders(values[None])[0]
        try:
            for t, values, rng, dt, cut, stop in _march(
                    _stepper(stencils, scheme), values, rng, scheme):
                if stop is None:
                    window.append((values, rng, dt, cut))
                else:
                    is_row, is_snap = stop
                    if is_row:
                        queued.append((len(window), t, values, rng))
                    if is_snap:
                        snaps.append(CellField(values=values.copy(), time=t))
                if len(window) == cap or stop and not window:
                    measure()
            measure()
        except BlowUpError as exc:
            measure()
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
    values = np.stack([init_field(grid, p).values for p in (profile_a, profile_b)])
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
