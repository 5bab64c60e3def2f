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
A wave bound that overflows (a CFL step of 0 or NaN) is a blow-up too.
init_field broadcasts a profile's values to its quadrature nodes, so a
profile of one coordinate, or a constant, fills every cell.

run measures the fields its steps make per window. A window ends at the
next stop point, or once it holds max(1, _WINDOW_BYTES // field bytes)
fields (32 at N = 256, one at 128 x 128); it is measured before a stop
writes its row or snapshot and before a blow-up takes its partial
trajectory. The means are one row sum over the window's stacked fields, and
the L1 distances to the contraction constants one subtract, abs and row sum
in a (cap, constants, *shape) block; the energy (np.vdot) and the
dissipation stay per field. The per-step statistics then follow in step
order, a NaN jump making its statistic NaN for good. Every row, statistic
and snapshot has the bits of a measure after each step.

The stencils are periodic slice kernels (_Stencils) on one layout in 1-d
and 2-d. Every array they own (the stage field, one buffer per distinct
flux, B and beta entry, two work arrays) is a frame: the field padded by a
ghost cell at each end of every axis, flattened over the axes, and preceded
by the few unused values that put its first cell on a 64-byte line. Each
frame is a slice of a slightly larger array, so its start, where an entry
program starts, is on a line too, and so is every batch row's. A shift by s
along axis k is a flat offset of s times the axis's stride, so each stencil
term, each row of the mixed one included, is one ufunc call (x, y, out) on
contiguous flat ranges, and every output range starts at the first cell:
face i - 1/2 is stored at cell i. In 2-d a range crosses the ghost cells
between rows, computed and never read. The views are bound once per run, as
programs of (fn, args) steps. One stage call, _Stencils.tendency, serves the
stepper and the one-shot operators, which return its diffusion or its flux
part; the dissipation keeps its own program for beta. A call copies the field
into the frame, fills the ghosts axis by axis (the corners too), writes the
entries (one buffer and one evaluation per distinct entry object; an entry
with in-place steps runs them, any other is copied in) and runs its term
programs, the diffusion terms, then the flux terms. 0.5 alpha_k and dt are
explicit calls on Python floats. The second stage's field is written
straight into the frame. No array handed back is a stencil buffer or a view
of one. The kernels divide
by h, h^2, 2h and 4 h_0 h_1, or multiply by the reciprocal when the divisor
is a power of two (then both round the same real number), so they match the
whole-array periodic-shift form of each stencil bit for bit; the tests keep
that form as the reference. The entries come from the table
model.model_table.

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

    ``cfl`` values above 1 defeat the monotonicity guarantee and exist for
    deliberate instability experiments; the stable range is (0, 0.5].
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
        raise ValueError(f"initial profile is non-finite near cell index {tuple(bad)}")
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
    """(min, max) of a field as floats; NaN if any value is NaN."""
    return float(np.minimum.reduce(values, None)), float(np.maximum.reduce(values, None))


def _term(ufunc, plan, x, y, out):
    """The step out[i] = ufunc(x[i + sx], y[i + sy]); ``plan`` holds its flat ranges (out, x, y)."""
    o, ix, iy = plan
    return ufunc, (x[..., ix], y[..., iy], out[..., o])


def _scale(x, c):
    """The step x /= c, bound as x *= 1/c when c is a power of two whose reciprocal is
    finite: then 1/c is exact and both round the same real number, so the bits agree."""
    if math.frexp(c)[0] == 0.5 and math.isfinite(1.0 / c):
        return np.multiply, (x, 1.0 / c, x)
    return np.divide, (x, c, x)


def _run(program):
    """Run a program: each step is (fn, args), a ufunc step's args ending with its out."""
    for fn, args in program:
        fn(*args)


def _copy_into(entry, u, out):
    out[...] = entry(u)


_LINE = 8  # float64 values per 64-byte cache line


def _on_lines(shape, lead=0):
    """A zeroed float array of ``shape`` that starts on a 64-byte line, as does each of
    its rows along the first ``lead`` axes: a view of a larger array whose rows are
    padded to whole lines, plus one. Without ``lead`` it is contiguous."""
    row = math.prod(shape[lead:])
    raw = np.zeros(shape[:lead] + (row - row % -_LINE + _LINE,))
    skip = -raw.ctypes.data // raw.itemsize % _LINE
    return raw[..., skip:skip + row].reshape(shape)  # splits the last axis: a view


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

    Every array they own is a frame (module docstring). The programs are bound
    on first use: one entry program for B and f with the flux and diffusion
    terms on its buffers, which ``tendency`` (a stage) loads, and the beta
    program of ``dissipation``. So no stencil except the dissipation needs
    sigma, beta or a PSD diffusion matrix. A call loads the field, runs the
    entry program and each term's program, and adds the cells of each result
    into its output. Leading batch axes of ``shape`` (a lockstep pair) pass
    through.
    """

    def __init__(self, model, grid, shape):
        self.table = table = model_table(model)
        d = grid.dimension
        self.d, self.shape, self.h = d, tuple(shape), grid.spacings
        self.cell_volume = grid.cell_volume
        self.bounds, self.flux_is_zero = table.bounds, table.flux_is_zero
        lead, ns = self.shape[:-d], self.shape[-d:]
        padded = tuple(n + 2 for n in ns)
        strides = [math.prod(padded[k + 1:]) for k in range(d)]
        # The padded field starts `pad` values into each frame row, so that cell
        # (1, ..., 1) falls on a line; a plan is a term's (out, x, y) ranges.
        pad = -sum(strides) % _LINE
        self.frame_shape = lead + (pad + math.prod(padded),)
        self.work = [self._frame() for _ in range(2)]
        self.u = u = self._frame()
        # Cell (1, ..., 1) to (n_0, ..., n_last).
        self.span = span = slice(pad + sum(strides), pad + sum(map(mul, ns, strides)) + 1)

        def plan(sx, sy, hi=0):
            return tuple(slice(span.start + s, span.stop + hi + s) for s in (0, sx, sy))

        self.plans = [{name: plan(sx * s, sy * s, hi * s) for name, (sx, sy, hi) in _TERMS.items()}
                      for s in strides]
        self.mixed = tuple(plan(*(sum(map(mul, s, strides)) for s in row))
                           for row in _MIXED) if d == 2 else ()
        # The work arrays' cell ranges; the cells of the field and work arrays as fields.
        self.work_span = [w[..., self.span] for w in self.work]
        grid_u, *grid_work = (a[..., pad:].reshape(lead + padded) for a in (u, *self.work))
        inside = (Ellipsis,) + tuple(slice(1, n + 1) for n in ns)
        self.cells, *self.work_cells = (a[inside] for a in (grid_u, *grid_work))
        self.ghosts = [pair for k, n in enumerate(ns) for g in [np.moveaxis(grid_u, k - d, -1)]
                       for pair in ((g[..., :1], g[..., n:n + 1]), (g[..., n + 1:], g[..., 1:2]))]

    def _frame(self):
        """A zeroed frame, each batch row on a line (module docstring)."""
        return _on_lines(self.frame_shape, len(self.shape) - self.d)

    def load(self, values, program=()):
        """The stage field holding ``values`` (taken as it is if it is the stage
        field, so one copy serves a stage), after running ``program`` on it."""
        if values is not self.u:
            self.cells[...] = values
            self.fill_ghosts()
        _run(program)
        return self.u

    def fill_ghosts(self):
        """u[0] = u[n], u[n + 1] = u[1] axis by axis over the padded extent (corners too)."""
        for ghost, cell in self.ghosts:
            ghost[...] = cell

    def _entries(self, entries, axes=()):
        """{index: buffer} for ``entries`` and ``axes`` (zero without an entry), and the
        program filling them. Entries that are one object share one buffer and one
        evaluation; an entry with in-place steps runs them (work[1] is their scratch),
        any other is copied in."""
        u, scratch = self.u, self.work[1]
        bufs = {idx: self._frame() for idx in axes if idx not in entries}
        fills = {}
        for idx, e in entries.items():
            if id(e) not in fills:
                buf = self._frame()
                fills[id(e)] = buf, (e.steps(u, buf, scratch) if hasattr(e, "steps")
                                     else ((_copy_into, (e, u, buf)),))
            bufs[idx] = fills[id(e)][0]
        return bufs, tuple(step for _, steps in fills.values() for step in steps)

    @cached_property
    def b_entries(self):
        """The diagonal and upper off-diagonal B entries the stencil reads."""
        return {(i, j): e for (i, j), e in self.table.b.items() if i <= j}

    @cached_property
    def _programs(self):
        """The one entry program for B and f; per axis k the flux program (before, rise
        to scale by 0.5 alpha_k, after), whose result is work[1]'s cells; and one
        (program, result cells) per diffusion term: B_ii along axis i, then B_01."""
        b = self.b_entries
        bufs, program = self._entries({**b, **self.table.f}, [(k,) for k in range(self.d)])
        u, (w0, w1), (c0, c1) = self.u, self.work, self.work_span
        flux = []
        for k, plan in enumerate(self.plans):
            # face (w0) = 0.5 (f[i-1] + f[i]) - 0.5 alpha (u[i] - u[i-1]), the rise in w1;
            # div overwrites the rise
            fa, faces = bufs[k,], plan["face"][0]
            fc, rc = w0[..., faces], w1[..., faces]
            before = [_term(np.add, plan["face"], fa, fa, w0), (np.multiply, (fc, 0.5, fc)),
                      _term(np.subtract, plan["rise"], u, u, w1)]
            after = [(np.subtract, (fc, rc, fc)), _term(np.subtract, plan["div"], w0, w0, w1),
                     _scale(c1, self.h[k])]
            flux.append((before, rc, after))
        # (B[i+1] - 2 B[i]) + B[i-1]
        diffusion = [(((np.multiply, (bufs[i, i][..., self.span], 2.0, c0)),
                       _term(np.subtract, plan["b_up"], bufs[i, i], w0, w1),
                       _term(np.add, plan["b_down"], w1, bufs[i, i], w1),
                       _scale(c1, self.h[i] ** 2)), self.work_cells[1])
                     for i, plan in enumerate(self.plans) if (i, i) in b]
        if (0, 1) in b:
            # ((B[i+1,j+1] - B[i+1,j-1]) - B[i-1,j+1]) + B[i-1,j-1], times 2 / (4 h_0 h_1)
            bb, (first, second, third) = bufs[0, 1], self.mixed
            diffusion.append(((
                _term(np.subtract, first, bb, bb, w0), _term(np.subtract, second, w0, bb, w0),
                _term(np.add, third, w0, bb, w0), (np.multiply, (c0, 2.0, c0)),
                _scale(c0, 4.0 * self.h[0] * self.h[-1])), self.work_cells[0]))
        return program, flux, diffusion

    def tendency(self, values, alphas, diff, hyp):
        """One stage from one load: the second differences of B(u) summed into ``diff``,
        then the divergence of the LLF flux summed over axes into ``hyp``, which is
        returned; None, with ``hyp`` untouched, without flux entries and alphas.

        B_ii is two rows along axis i; B_01 (2-d) is the three rows of
        ``_MIXED``, scaled by 2 / (4 h_0 h_1).
        """
        program, flux, diffusion = self._programs
        self.load(values, program)
        if not diffusion:
            diff.fill(0.0)
        # The first term writes 0.0 + its result, the bits of a zero fill and an add.
        for i, (steps, result) in enumerate(diffusion):
            _run(steps)
            np.add(diff if i else 0.0, result, out=diff)
        if self.flux_is_zero and not any(alphas):
            return None
        for k, (before, rise, after) in enumerate(flux):
            _run(before)
            np.multiply(rise, 0.5 * alphas[k], rise)
            _run(after)
            np.add(hyp if k else 0.0, self.work_cells[1], out=hyp)
        return hyp

    @cached_property
    def _dissipation(self):
        """The beta program, per axis k the program of sum_i D_i beta_ik into work[0], its
        cells, and the contiguous array np.vdot reads them from: the cells themselves in
        1-d, a copy in 2-d, where np.vdot would copy the strided view once per operand."""
        beta, program = self._entries(self.table.beta)
        (acc, grad), (ca, cg) = self.work, self.work_span
        sums = []
        for k in range(self.d):
            steps = []
            for i, plan in enumerate(self.plans):
                if (i, k) in beta:
                    g, c = (grad, cg) if steps else (acc, ca)
                    steps.append(_term(np.subtract, plan["beta"], beta[i, k], beta[i, k], g))
                    steps.append(_scale(c, 2.0 * self.h[i]))
                    if g is grad:
                        steps.append((np.add, (ca, cg, ca)))
            if steps:
                sums.append(steps)
        cells = self.work_cells[0]
        return program, sums, cells, cells if cells.flags.c_contiguous else np.empty(cells.shape)

    def dissipation(self, values):
        """Discrete parabolic dissipation: sum over k of (sum_i D_i beta_ik)^2.

        D_i is the centered difference along axis i; the total is scaled
        by the cell volume. Without beta entries it is 0.0, and the field is
        not loaded.
        """
        program, sums, acc, flat = self._dissipation
        if not sums:
            return 0.0
        self.load(values, program)
        total = 0.0
        for steps in sums:
            _run(steps)
            if flat is not acc:
                np.copyto(flat, acc)
            total += float(np.vdot(flat, flat).real)
        return total * self.cell_volume


def _grid_values(fld, grid):
    """A field's values as floats, checked against the grid.

    ``fld`` is a CellField or an array; leading axes beyond the grid's are
    a batch of fields, so only the trailing axes must match ``grid.cells``.
    """
    values = np.asarray(fld.values if isinstance(fld, CellField) else fld, dtype=float)
    if values.ndim < grid.dimension or values.shape[-grid.dimension:] != tuple(grid.cells):
        raise ConfigurationError(f"field shape {values.shape} does not match grid {grid.cells}")
    return values


def hyperbolic_div(model, fld, grid):
    """Discrete divergence of f(u); alpha from the current field range."""
    values = _grid_values(fld, grid)
    stencils = _Stencils(model, grid, values.shape)
    alphas, _ = stencils.bounds(*_range(values))
    hyp = np.zeros_like(values)
    stencils.tendency(values, alphas, np.empty_like(values), hyp)
    return hyp


def diffusion_div(model, fld, grid):
    """Discrete divergence of A(u) grad u via primitives of A."""
    values = _grid_values(fld, grid)
    diff = np.empty_like(values)
    _Stencils(model, grid, values.shape).tendency(values, [0.0] * grid.dimension, diff,
                                                  np.empty_like(values))
    return diff


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


def stable_dt(model, fld, grid, cfl=0.4, output_every=None):
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

    Returns ``advance(values, rng, t, cap, idle, dt=None) -> (new_values,
    new_rng, dt, cut)`` for fields of the stencils' shape, where ``rng`` and
    ``new_rng`` are the (min, max) of ``values`` and ``new_values`` over any
    leading batch axes too. The wave bounds, and so dt, come from ``rng``;
    a ``new_rng`` that is not finite (np.min and np.max propagate NaN)
    raises BlowUpError. Without a forced ``dt`` the step is the CFL step
    capped at ``cap``, replaced by ``idle`` when that is infinite (a model
    without dynamics); ``idle=None`` then raises ConfigurationError. A CFL
    step of 0 or NaN (an infinite or NaN wave bound) raises BlowUpError at
    ``t`` with the max |u| of ``values``. ``cut`` says the step is shorter
    than the CFL step (capped, or the ``idle`` step).
    """
    two_stage = scheme.integrator != "euler"
    tend, hyp = (_on_lines(stencils.shape) for _ in range(2))

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
        flux = stencils.tendency(values, alphas, tend, hyp)
        inc = tend if flux is None else np.subtract(tend, flux, out=tend)
        inc *= dt
        if two_stage:
            # 0.5 * ((u + u1) + dt * L(u1)), u1 = u + dt L(u) written as the stage field
            np.add(values, inc, out=stencils.cells)
            stencils.fill_ghosts()
            flux = stencils.tendency(stencils.u, alphas, tend, hyp)
            inc = tend if flux is None else np.subtract(tend, flux, out=tend)
            inc *= dt
            new_values = np.add(stencils.cells, values)
            new_values += inc
            new_values *= 0.5
        else:
            new_values = values + inc
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

    The fields are measured per window, which ends at the next stop point or
    at max(1, _WINDOW_BYTES // field bytes) fields: the means and the L1
    distances to the constants in one reduction each, the energy and the
    dissipation per field, all with the bits of a measure per step.
    """
    values = init_field(grid, profile).values
    stencils = _Stencils(model, grid, values.shape)
    vol = stencils.cell_volume
    ncells = values.size
    cap = max(1, _WINDOW_BYTES // values.nbytes)
    window = []  # (field, range, dt, cut) of each step not yet measured

    def energy(v):
        return float(np.vdot(v, v).real) * vol

    def ladders(fields):
        """L1 distance of each of the stacked ``fields`` to every contraction constant."""
        k = len(fields)
        gaps = np.subtract(fields[:, None], consts, out=block[:k])
        np.abs(gaps, out=gaps)
        return (gaps.reshape(k, len(consts), -1).sum(axis=2) * vol).tolist()

    def measure():
        """Fold the window's steps into the stats, in step order, and empty it."""
        nonlocal mean_cur, energy_cur, ladder_cur, n_prev, window_diss, cut_dt_min, cut_dt_max
        k = len(window)
        if not k:
            return
        fields = window[0][0][None] if k == 1 else np.stack([w[0] for w in window])
        means = [s / ncells for s in fields.reshape(k, -1).sum(axis=1).tolist()]
        for (v, (lo, hi), dt, cut), mean, ladder in zip(window, means, ladders(fields)):
            stats.steps += 1
            if cut:
                stats.truncated_steps += 1
                cut_dt_min, cut_dt_max = min(cut_dt_min, dt), max(cut_dt_max, dt)
            else:
                stats.dt_min = min(stats.dt_min, dt)
                stats.dt_max = max(stats.dt_max, dt)
            stats.max_principle_violation = max(
                stats.max_principle_violation, hi - u0_max, u0_min - lo)
            new_energy, n_new = energy(v), stencils.dissipation(v)
            stats.energy_max_step_jump = _worse(
                stats.energy_max_step_jump, new_energy - energy_cur)
            stats.mean_drift = _worse(stats.mean_drift, abs(mean - stats.initial_mean))
            for new, cur in zip(ladder, ladder_cur):
                stats.contraction_max_step_jump = _worse(
                    stats.contraction_max_step_jump, new - cur)
            window_diss += 0.5 * dt * (n_prev + n_new)
            energy_cur, ladder_cur, n_prev = new_energy, ladder, n_new
        mean_cur = means[-1]
        window.clear()

    rows = []
    snaps = []

    def make_row(t, window_diss):
        budget = 0.5 * (rows[-1].l2_energy - energy_cur) if rows else 0.0
        row = DiagnosticsRow(
            t=t, mean=mean_cur, l1_to_mean=float(np.abs(values - mean_cur).sum()) * vol,
            l2_energy=energy_cur, linf=max(abs(rng[0]), abs(rng[1])),
            dissipation_resolved=window_diss, dissipation_budget=budget)
        rows.append(row)
        stats.contraction_l1.append(ladder_cur)
        for hook in hooks:
            hook(CellField(values=values.copy(), time=t), row)

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
        energy_cur, n_prev = energy(values), stencils.dissipation(values)
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
                    if len(window) == cap:
                        measure()
                    continue
                measure()
                is_row, is_snap = stop
                if is_row:
                    make_row(t, window_diss)
                    window_diss = 0.0
                if is_snap:
                    snaps.append(CellField(values=values.copy(), time=t))
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
