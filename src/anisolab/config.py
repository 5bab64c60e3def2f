"""Flat `key = value` experiment configuration with [section] headers.

The format is line-oriented so configs diff cleanly and any language can
parse them: full-line # comments, [model] / [grid] / [initial] / [scheme]
/ [condition] / [output] / [sweep] sections, one assignment per line.
One key table, _TABLE, drives parse_config, which collects every problem
with its line number instead of stopping at the first, and serialize_config,
whose canonical form parses back to an equal config.

Random initial profiles use a 64-bit linear congruential generator fixed
here for cross-implementation reproducibility: state' = (state * 6364136223846793005
+ 1442695040888963407) mod 2^64, draw = (state' >> 11) / 2^53 in [0, 1),
cell value = amplitude * (2 * draw - 1), cells filled row-major from the
seed as the initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Optional

import numpy as np

from .kinetic import DEFAULT_DELTA, DEFAULT_LAMBDAS, SamplingPlan
from .model import list_presets, polynomial_model, preset
from .solver import INTEGRATORS, PeriodicGrid, SchemeConfig, init_field

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "default_config",
    "make_model",
    "make_grid",
    "make_scheme",
    "make_sampling",
    "make_initial",
    "lcg_values",
]

# Each profile's factor per axis, of a coordinate and the axis's period; random has none.
_PROFILE_FACTORS = {
    "sine": lambda s, period: np.sin(2.0 * np.pi * s / period),
    "multi-sine": lambda s, period: (np.sin(2.0 * np.pi * s / period)
                                     + 0.3 * np.sin(4.0 * np.pi * s / period + 0.7)),
    "square-wave": lambda s, period: np.sign(np.sin(2.0 * np.pi * s / period)),
    "random": None,
}
PROFILES = tuple(_PROFILE_FACTORS)
SWEEP_AXES = ("cells", "cfl", "amplitude", "lambda_floor")

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class ConfigError(Exception):
    """Carries the full list of problems found in a config text."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, across all subcommands."""

    # [model] -- preset name, or inline polynomial coefficients
    preset: Optional[str] = None
    model_name: Optional[str] = None
    dimension: Optional[int] = None
    flux_coeffs: Optional[tuple] = None
    diffusion_coeffs: Optional[dict] = None
    state_bound: float = 1.0
    # [grid]
    periods: Optional[tuple] = None
    cells: Optional[tuple] = None
    # [initial]
    profile: str = "sine"
    amplitude: float = 1.0
    zero_mean: bool = False
    seed: int = 0
    # [scheme]
    t_end: Optional[float] = None
    cfl: float = SchemeConfig.cfl
    integrator: str = SchemeConfig.integrator
    output_every: Optional[float] = None
    snapshot_every: Optional[float] = None
    # [condition]
    delta: float = DEFAULT_DELTA
    lambdas: tuple = DEFAULT_LAMBDAS
    n_dir: Optional[int] = None
    r_max: float = SamplingPlan.r_max
    n_resonant: int = SamplingPlan.n_resonant
    lattice: bool = False
    # [output]
    directory: Optional[str] = None
    # [sweep]
    sweep_axis: Optional[str] = None
    sweep_values: tuple = ()


# Written even when every field holds its default; the others only when one differs.
_ALWAYS_WRITTEN = ("model", "initial", "condition")
_INLINE_MODEL_KEYS = ("f1", "f2", "A11", "A12", "A22")
_DEFAULTS = ExperimentConfig()
_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}
_LISTS = ("floats", "ints")


@dataclass(frozen=True)
class _Key:
    """One config key: its value kind, its checks and the field it sets.

    ``kind`` is float, int, bool, choice, str (kept as written) or a number
    list, floats or ints. ``checks`` are (predicate, message) pairs tried in
    order on the parsed value; a message is formatted with key, raw (the
    text as written) and val. Every float must also be finite. ``field``
    defaults to the key; the inline model coefficients set no field.
    """

    key: str
    kind: str
    checks: tuple = ()
    field: Optional[str] = None


def _positive(x):
    return x > 0 and math.isfinite(x)


_POSITIVE = ((_positive, "{key} must be positive, got {raw}"),)


def _one_of(options, message):
    return ((lambda raw: raw in options, message),)


# Section by section, in the order serialize_config writes them.
_TABLE = {
    "model": (
        _Key("preset", "choice", _one_of(list_presets(), "unknown preset {raw!r}; "
                                         f"available: {', '.join(list_presets())}")),
        _Key("name", "str", field="model_name"),
        _Key("dimension", "int", ((lambda d: d in (1, 2), "{key} must be 1 or 2, got {val}"),)),
        *(_Key(key, "floats") for key in _INLINE_MODEL_KEYS),
        _Key("state_bound", "float", _POSITIVE)),
    "grid": (
        _Key("periods", "floats",
             ((lambda v: all(map(_positive, v)), "{key} must be positive, got {raw}"),)),
        _Key("cells", "ints",
             ((lambda v: min(v) >= 4, "{key} must be at least 4 per axis, got {raw}"),))),
    "initial": (
        _Key("profile", "choice", _one_of(
            PROFILES, f"unknown profile {{raw!r}}; available: {', '.join(PROFILES)}")),
        _Key("amplitude", "float"),
        _Key("zero_mean", "bool"),
        _Key("seed", "int", ((lambda n: n >= 0, "{key} must be nonnegative, got {val}"),))),
    "scheme": (
        _Key("t_end", "float", _POSITIVE),
        _Key("cfl", "float", _POSITIVE),
        _Key("integrator", "choice", _one_of(
            INTEGRATORS, f"{{key}} must be {' or '.join(INTEGRATORS)}, got {{raw!r}}")),
        _Key("output_every", "float", _POSITIVE),
        _Key("snapshot_every", "float", _POSITIVE)),
    "condition": (
        _Key("delta", "float", _POSITIVE),
        _Key("lambdas", "floats", (
            (lambda v: all(x > 0 for x in v), "{key} must all be positive"),
            (lambda v: all(b < a for a, b in zip(v, v[1:])), "{key} must be strictly decreasing"))),
        _Key("n_dir", "int", ((lambda n: n >= 4, "{key} must be at least 4, got {val}"),)),
        _Key("r_max", "float", _POSITIVE),
        _Key("n_resonant", "int", ((lambda n: n >= 2, "{key} must be at least 2, got {val}"),)),
        _Key("lattice", "bool")),
    "output": (_Key("directory", "str"),),
    "sweep": (
        _Key("axis", "choice", field="sweep_axis", checks=_one_of(
            SWEEP_AXES, f"{{key}} must be one of {', '.join(SWEEP_AXES)}, got {{raw!r}}")),
        _Key("values", "floats", field="sweep_values")),
}
_BY_NAME = {(section, spec.key): spec for section, specs in _TABLE.items() for spec in specs}

# What the sweep values on an axis must be: (predicate, description).
_SWEEP_VALUE_RULES = {
    "cells": (lambda v: v >= 4 and float(v).is_integer(), "integers of at least 4"),
    "cfl": (_positive, "positive"), "lambda_floor": (_positive, "positive")}


def _coeff_index(key):
    """Zero-based index of an inline coefficient key: f2 -> (1,), A12 -> (0, 1)."""
    return tuple(int(c) - 1 for c in key[1:])


def _read(spec, raw):
    """(value, None) for an accepted raw value, else (None, error message)."""
    key, kind = spec.key, spec.kind
    if kind in ("str", "choice"):
        val = raw
    elif kind == "bool":
        val = _BOOLEANS.get(raw.lower())
        if val is None:
            return None, f"{key}: expected true/false, got {raw!r}"
    else:
        number = float if kind.startswith("float") else int
        numbers = []
        for piece in raw.split(",") if kind in _LISTS else [raw]:
            try:
                numbers.append(number(piece.strip()))
            except ValueError:
                return None, f"{key}: malformed number {piece.strip()!r}"
        val = tuple(numbers) if kind in _LISTS else numbers[0]
    for ok, message in spec.checks:
        if not ok(val):
            return None, message.format(key=key, raw=raw, val=val)
    if kind.startswith("float") and not all(map(math.isfinite, numbers)):
        return None, f"{key} must be finite, got {raw}"
    return val, None


def _format(kind, val):
    if kind in _LISTS:
        return ", ".join(_format(kind[:-1], v) for v in val)
    if kind == "bool":
        return "true" if val else "false"
    if kind == "float":  # a numpy scalar's repr names its type; a builtin float's round-trips
        return repr(float(val))
    return str(int(val)) if kind == "int" else str(val)


def parse_config(text, required_sections=("model",)):
    """Parse and validate; raises ConfigError listing every problem found.

    Unknown sections and keys, malformed numbers and invalid values are
    reported with their line numbers; missing required sections are
    reported at the end. A rejected line leaves its field as it was.
    """
    cfg = ExperimentConfig()
    errors, lines_seen, inline = [], {}, {}

    def fail(lineno, message):
        errors.append(f"line {lineno}: {message}")

    section = None
    seen_sections = set()

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _TABLE:
                fail(lineno, f"unknown section [{name}]")
                section = None
            else:
                section = name
                seen_sections.add(name)
            continue
        if "=" not in line:
            fail(lineno, f"expected key = value, got {raw_line.strip()!r}")
            continue
        if section is None:
            fail(lineno, "assignment outside any [section]")
            continue
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        lines_seen[(section, key)] = lineno
        spec = _BY_NAME.get((section, key))
        if (section, key) == ("model", "A21"):
            fail(lineno, "A21 is not accepted; give the upper-triangle entry A12")
        elif spec is None:
            fail(lineno, f"unknown key {key!r} in [{section}]")
        else:
            val, error = _read(spec, raw)
            if error is not None:
                fail(lineno, error)
            elif key in _INLINE_MODEL_KEYS:
                inline[key] = (lineno, val)
            else:
                setattr(cfg, spec.field or key, val)

    for name in required_sections:
        if name not in seen_sections:
            errors.append(f"missing required section [{name}]")

    _cross_checks(cfg, fail, lines_seen, inline)
    if errors:
        raise ConfigError(errors)
    return cfg


def _cross_checks(cfg, fail, lines_seen, inline):
    def line_of(section, key):
        return lines_seen.get((section, key))

    if inline:
        if cfg.preset is not None:
            fail(line_of("model", "preset"),
                 "preset and inline coefficients are mutually exclusive")
        if cfg.dimension is None:
            first = min(line for line, _ in inline.values())
            fail(first, "inline model needs an explicit dimension")
        else:
            d = cfg.dimension
            flux = [None] * d
            diff = {}
            for key, (lineno, coeffs) in inline.items():
                index = _coeff_index(key)
                if index[-1] >= d:
                    fail(lineno, f"{key} given but dimension is {d}")
                elif key.startswith("f"):
                    flux[index[0]] = coeffs
                else:
                    diff[index] = coeffs
            cfg.flux_coeffs = tuple(c if c is not None else (0.0,) for c in flux)
            cfg.diffusion_coeffs = diff

    if cfg.periods is not None and cfg.cells is not None and len(cfg.periods) != len(cfg.cells):
        fail(line_of("grid", "cells"), "periods and cells must have the same number of axes")
    dim = cfg.dimension
    if cfg.preset is not None:
        dim = preset(cfg.preset).dimension
        if cfg.dimension not in (None, dim):
            fail(line_of("model", "dimension"),
                 f"dimension is {cfg.dimension} but preset {cfg.preset} has dimension {dim}")
    for key in ("cells", "periods"):
        axes = getattr(cfg, key)
        if dim is not None and axes is not None and len(axes) != dim:
            fail(line_of("grid", key),
                 f"{key} has {len(axes)} axis value(s) but the model dimension is {dim}")
    if cfg.delta > cfg.r_max:
        fail(line_of("condition", "delta") or line_of("condition", "r_max"),
             f"delta must not exceed r_max ({cfg.r_max!r}), got {cfg.delta!r}")
    # A values line that was given but rejected has its own error already.
    if cfg.sweep_axis is not None and line_of("sweep", "values") is None:
        fail(line_of("sweep", "axis"), "sweep axis set but values are empty")
    if cfg.sweep_values and cfg.sweep_axis is None:
        fail(line_of("sweep", "values"), "sweep values set but axis is missing")
    message = sweep_value_error(cfg.sweep_axis, cfg.sweep_values)
    if message is not None:
        fail(line_of("sweep", "values"), message)


def sweep_value_error(axis, values):
    """Why ``values`` cannot be swept on ``axis`` (its first bad value), or None."""
    ok, wanted = _SWEEP_VALUE_RULES.get(axis, (lambda v: True, None))
    for v in values:
        if not ok(v):
            return f"values on the {axis} axis must be {wanted}, got {_format('float', v)}"
    return None


def _value_of(cfg, spec):
    if spec.key not in _INLINE_MODEL_KEYS:
        return getattr(cfg, spec.field or spec.key)
    index = _coeff_index(spec.key)
    if spec.key.startswith("f"):
        return dict(enumerate(cfg.flux_coeffs or ())).get(index[0])
    return (cfg.diffusion_coeffs or {}).get(index)


def serialize_config(cfg):
    """Canonical text form; parse_config(serialize_config(c)) == c.

    Every key whose value is not None is written, in table order; a section
    outside _ALWAYS_WRITTEN is left out when all its fields hold defaults.
    """
    blocks = []
    for section, specs in _TABLE.items():
        if section not in _ALWAYS_WRITTEN and all(
                _value_of(cfg, s) == _value_of(_DEFAULTS, s) for s in specs):
            continue
        lines = [f"[{section}]"]
        for spec in specs:
            val = _value_of(cfg, spec)
            if val is not None:
                lines.append(f"{spec.key} = {_format(spec.kind, val)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def default_config(preset_name):
    """Ready-to-run configuration for one preset model."""
    model = preset(preset_name)
    if model.dimension == 1:
        cells = (256,)
        periods = (1.0,)
        t_end = 0.5 if preset_name == "porous-medium" else 2.0
    else:
        cells = (64, 64)
        periods = (1.0, 1.0)
        t_end = 1.0
    return ExperimentConfig(preset=preset_name, periods=periods, cells=cells,
                            t_end=t_end)


def make_model(cfg):
    if cfg.preset is not None:
        return preset(cfg.preset, state_bound=cfg.state_bound)
    if cfg.flux_coeffs is None and cfg.diffusion_coeffs is None:
        raise ConfigError(["[model] needs a preset or inline coefficients"])
    d = cfg.dimension
    flux = cfg.flux_coeffs if cfg.flux_coeffs is not None else ((0.0,),) * d
    diff = cfg.diffusion_coeffs if cfg.diffusion_coeffs is not None else {}
    name = cfg.model_name if cfg.model_name is not None else "inline"
    return polynomial_model(name, flux, diff, d, cfg.state_bound)


def make_grid(cfg, dimension=None):
    if cfg.cells is None:
        raise ConfigError(["[grid] cells is required to run"])
    periods = cfg.periods
    if periods is None:
        periods = (1.0,) * len(cfg.cells)
    grid = PeriodicGrid.make(periods, cfg.cells)
    if dimension is not None and grid.dimension != dimension:
        raise ConfigError(
            [f"grid has {grid.dimension} axis value(s) but the model dimension "
             f"is {dimension}"])
    return grid


def make_scheme(cfg):
    if cfg.t_end is None:
        raise ConfigError(["[scheme] t_end is required to run"])
    return SchemeConfig(t_end=cfg.t_end, cfl=cfg.cfl, integrator=cfg.integrator,
                        output_every=cfg.output_every,
                        snapshot_every=cfg.snapshot_every)


def make_sampling(cfg, grid=None):
    periods = None
    if cfg.lattice:
        if grid is not None:
            periods = grid.periods
        elif cfg.periods is not None:
            periods = cfg.periods
        else:
            raise ConfigError(["lattice sampling needs [grid] periods"])
    return SamplingPlan(n_dir=cfg.n_dir, r_max=cfg.r_max,
                        n_resonant=cfg.n_resonant, lattice=cfg.lattice,
                        periods=periods)


def lcg_values(seed, count):
    """The documented 64-bit LCG stream as floats in [0, 1).

    The states s[k+1] = (a s[k] + c) mod 2^64 are filled by jump-ahead
    doubling: with the first m known, s[j + m] = A_m s[j] + C_m, where
    A_m = a^m and C_m = c (a^(m-1) + ... + 1), so A_2m = A_m^2 and
    C_2m = A_m C_m + C_m. uint64 array arithmetic wraps mod 2^64.
    """
    count = int(count)
    states = np.empty(count, dtype=np.uint64)
    if count:
        states[0] = ((int(seed) & _LCG_MASK) * LCG_MULTIPLIER + LCG_INCREMENT) & _LCG_MASK
    mult, inc, m = LCG_MULTIPLIER, LCG_INCREMENT, 1
    while m < count:
        k = min(m, count - m)
        block = np.multiply(states[:k], np.uint64(mult), out=states[m:m + k])
        block += np.uint64(inc)
        mult, inc, m = mult * mult & _LCG_MASK, (mult * inc + inc) & _LCG_MASK, 2 * m
    states >>= 11
    return states / float(1 << 53)


def make_initial(cfg, grid):
    """Cell field for the configured profile on the given grid: the amplitude times
    the profile's factor on each axis, or the seeded LCG draws for random."""
    if cfg.profile not in _PROFILE_FACTORS:
        raise ConfigError([f"unknown profile {cfg.profile!r}"])
    factor = _PROFILE_FACTORS[cfg.profile]
    if factor is None:
        draws = lcg_values(cfg.seed, int(np.prod(grid.cells)))
        fld = init_field(grid, (cfg.amplitude * (2.0 * draws - 1.0)).reshape(grid.cells))
    else:
        fld = init_field(grid, lambda *xs: reduce(mul, map(factor, xs, grid.periods),
                                                  cfg.amplitude))
    if cfg.zero_mean:
        fld.values -= fld.values.sum() / fld.values.size
    return fld
