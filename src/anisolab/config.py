"""Flat `key = value` experiment configuration with [section] headers.

The format is line-oriented so configs diff cleanly and any language can
parse them: full-line # comments, [model] / [grid] / [initial] / [scheme]
/ [condition] / [output] / [sweep] sections, one assignment per line.
parse_config collects every problem it finds with its line number instead
of stopping at the first. serialize_config emits a canonical form that
parses back to an equal config.

Random initial profiles use a 64-bit linear congruential generator fixed
here for cross-implementation reproducibility: state' = (state * 6364136223846793005
+ 1442695040888963407) mod 2^64, draw = (state' >> 11) / 2^53 in [0, 1),
cell value = amplitude * (2 * draw - 1), cells filled row-major from the
seed as the initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kinetic import SamplingPlan
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

PROFILES = ("sine", "multi-sine", "square-wave", "random")
SWEEP_AXES = ("cells", "cfl", "amplitude", "lambda_floor")
DEFAULT_LAMBDAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

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
    cfl: float = 0.4
    integrator: str = "ssp-rk2"
    output_every: Optional[float] = None
    snapshot_every: Optional[float] = None
    # [condition]
    delta: float = 1.0
    lambdas: tuple = DEFAULT_LAMBDAS
    n_dir: Optional[int] = None
    r_max: float = 1e3
    n_resonant: int = 33
    lattice: bool = False
    # [output]
    directory: Optional[str] = None
    # [sweep]
    sweep_axis: Optional[str] = None
    sweep_values: tuple = ()


_SECTIONS = ("model", "grid", "initial", "scheme", "condition", "output", "sweep")
_INLINE_MODEL_KEYS = ("f1", "f2", "A11", "A12", "A22")


class _Parser:
    def __init__(self):
        self.errors = []
        self.lines_seen = {}

    def fail(self, lineno, message):
        self.errors.append(f"line {lineno}: {message}")

    def number(self, lineno, key, raw, kind=float):
        try:
            return kind(raw)
        except ValueError:
            self.fail(lineno, f"{key}: malformed number {raw!r}")
            return None

    def number_list(self, lineno, key, raw, kind=float):
        out = []
        for piece in raw.split(","):
            val = self.number(lineno, key, piece.strip(), kind)
            if val is None:
                return None
            out.append(val)
        if not out:
            self.fail(lineno, f"{key}: empty list")
            return None
        return tuple(out)

    def boolean(self, lineno, key, raw):
        low = raw.strip().lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        self.fail(lineno, f"{key}: expected true/false, got {raw!r}")
        return None


def parse_config(text, required_sections=("model",)):
    """Parse and validate; raises ConfigError listing every problem found.

    Unknown sections and keys, malformed numbers and invalid values are
    reported with their line numbers; missing required sections are
    reported at the end.
    """
    cfg = ExperimentConfig()
    p = _Parser()
    section = None
    seen_sections = set()
    inline_seen = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                p.fail(lineno, f"unknown section [{name}]")
                section = None
            else:
                section = name
                seen_sections.add(name)
            continue
        if "=" not in line:
            p.fail(lineno, f"expected key = value, got {raw_line.strip()!r}")
            continue
        if section is None:
            p.fail(lineno, "assignment outside any [section]")
            continue
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        p.lines_seen[(section, key)] = lineno
        _assign(cfg, p, section, key, raw, lineno, inline_seen)

    for name in required_sections:
        if name not in seen_sections:
            p.errors.append(f"missing required section [{name}]")

    _cross_checks(cfg, p, inline_seen)
    if p.errors:
        raise ConfigError(p.errors)
    return cfg


def _assign(cfg, p, section, key, raw, lineno, inline_seen):
    if section == "model":
        if key == "preset":
            if raw not in list_presets():
                p.fail(lineno, f"unknown preset {raw!r}; available: {', '.join(list_presets())}")
            else:
                cfg.preset = raw
        elif key == "name":
            cfg.model_name = raw
        elif key == "dimension":
            val = p.number(lineno, key, raw, int)
            if val is not None and val not in (1, 2):
                p.fail(lineno, f"dimension must be 1 or 2, got {val}")
            else:
                cfg.dimension = val
        elif key == "state_bound":
            val = p.number(lineno, key, raw)
            if val is not None and not (val > 0 and math.isfinite(val)):
                p.fail(lineno, f"state_bound must be positive, got {raw}")
            else:
                cfg.state_bound = val
        elif key == "A21":
            p.fail(lineno, "A21 is not accepted; give the upper-triangle entry A12")
        elif key in _INLINE_MODEL_KEYS:
            val = p.number_list(lineno, key, raw)
            if val is not None:
                inline_seen[key] = (lineno, val)
        else:
            p.fail(lineno, f"unknown key {key!r} in [model]")
    elif section == "grid":
        if key == "periods":
            val = p.number_list(lineno, key, raw)
            if val is not None and any(not (x > 0 and math.isfinite(x)) for x in val):
                p.fail(lineno, f"periods must be positive, got {raw}")
            else:
                cfg.periods = val
        elif key == "cells":
            val = p.number_list(lineno, key, raw, int)
            if val is not None and any(n < 4 for n in val):
                p.fail(lineno, f"cells must be at least 4 per axis, got {raw}")
            else:
                cfg.cells = val
        else:
            p.fail(lineno, f"unknown key {key!r} in [grid]")
    elif section == "initial":
        if key == "profile":
            if raw not in PROFILES:
                p.fail(lineno, f"unknown profile {raw!r}; available: {', '.join(PROFILES)}")
            else:
                cfg.profile = raw
        elif key == "amplitude":
            cfg.amplitude = p.number(lineno, key, raw)
        elif key == "zero_mean":
            val = p.boolean(lineno, key, raw)
            if val is not None:
                cfg.zero_mean = val
        elif key == "seed":
            val = p.number(lineno, key, raw, int)
            if val is not None and val < 0:
                p.fail(lineno, f"seed must be nonnegative, got {val}")
            else:
                cfg.seed = val
        else:
            p.fail(lineno, f"unknown key {key!r} in [initial]")
    elif section == "scheme":
        if key == "t_end":
            val = p.number(lineno, key, raw)
            if val is not None and not (val > 0 and math.isfinite(val)):
                p.fail(lineno, f"t_end must be positive, got {raw}")
            else:
                cfg.t_end = val
        elif key == "cfl":
            val = p.number(lineno, key, raw)
            if val is not None and not (val > 0 and math.isfinite(val)):
                p.fail(lineno, f"cfl must be positive, got {raw}")
            else:
                cfg.cfl = val
        elif key == "integrator":
            if raw not in INTEGRATORS:
                p.fail(lineno, f"integrator must be {' or '.join(INTEGRATORS)}, got {raw!r}")
            else:
                cfg.integrator = raw
        elif key in ("output_every", "snapshot_every"):
            val = p.number(lineno, key, raw)
            if val is not None and not (val > 0 and math.isfinite(val)):
                p.fail(lineno, f"{key} must be positive, got {raw}")
            else:
                setattr(cfg, key, val)
        else:
            p.fail(lineno, f"unknown key {key!r} in [scheme]")
    elif section == "condition":
        if key == "delta":
            val = p.number(lineno, key, raw)
            if val is not None and not (val > 0 and math.isfinite(val)):
                p.fail(lineno, f"delta must be positive, got {raw}")
            else:
                cfg.delta = val
        elif key == "lambdas":
            val = p.number_list(lineno, key, raw)
            if val is not None:
                if any(not (x > 0) for x in val):
                    p.fail(lineno, "lambdas must all be positive")
                elif any(b >= a for a, b in zip(val, val[1:])):
                    p.fail(lineno, "lambdas must be strictly decreasing")
                else:
                    cfg.lambdas = val
        elif key == "n_dir":
            val = p.number(lineno, key, raw, int)
            if val is not None and val < 4:
                p.fail(lineno, f"n_dir must be at least 4, got {val}")
            else:
                cfg.n_dir = val
        elif key == "r_max":
            val = p.number(lineno, key, raw)
            if val is not None and not (val > 0 and math.isfinite(val)):
                p.fail(lineno, f"r_max must be positive, got {raw}")
            else:
                cfg.r_max = val
        elif key == "n_resonant":
            val = p.number(lineno, key, raw, int)
            if val is not None and val < 2:
                p.fail(lineno, f"n_resonant must be at least 2, got {val}")
            else:
                cfg.n_resonant = val
        elif key == "lattice":
            val = p.boolean(lineno, key, raw)
            if val is not None:
                cfg.lattice = val
        else:
            p.fail(lineno, f"unknown key {key!r} in [condition]")
    elif section == "output":
        if key == "directory":
            cfg.directory = raw
        else:
            p.fail(lineno, f"unknown key {key!r} in [output]")
    elif section == "sweep":
        if key == "axis":
            if raw not in SWEEP_AXES:
                p.fail(lineno, f"axis must be one of {', '.join(SWEEP_AXES)}, got {raw!r}")
            else:
                cfg.sweep_axis = raw
        elif key == "values":
            val = p.number_list(lineno, key, raw)
            if val is not None:
                cfg.sweep_values = val
        else:
            p.fail(lineno, f"unknown key {key!r} in [sweep]")


def _cross_checks(cfg, p, inline_seen):
    def line_of(section, key):
        return p.lines_seen.get((section, key))

    if inline_seen:
        if cfg.preset is not None:
            p.errors.append(
                f"line {line_of('model', 'preset')}: preset and inline "
                "coefficients are mutually exclusive")
        if cfg.dimension is None:
            first = min(line for line, _ in inline_seen.values())
            p.errors.append(f"line {first}: inline model needs an explicit dimension")
        else:
            d = cfg.dimension
            flux = [None] * d
            diff = {}
            for key, (lineno, coeffs) in inline_seen.items():
                if key.startswith("f"):
                    comp = int(key[1]) - 1
                    if comp >= d:
                        p.fail(lineno, f"{key} given but dimension is {d}")
                    else:
                        flux[comp] = coeffs
                else:
                    i, j = int(key[1]) - 1, int(key[2]) - 1
                    if j >= d:
                        p.fail(lineno, f"{key} given but dimension is {d}")
                    else:
                        diff[(i, j)] = coeffs
            cfg.flux_coeffs = tuple(c if c is not None else (0.0,) for c in flux)
            cfg.diffusion_coeffs = diff

    if cfg.periods is not None and cfg.cells is not None:
        if len(cfg.periods) != len(cfg.cells):
            p.errors.append(
                f"line {line_of('grid', 'cells')}: periods and cells "
                "must have the same number of axes")
    dim = cfg.dimension
    if cfg.preset is not None:
        dim = preset(cfg.preset).dimension
    if dim is not None and cfg.cells is not None and len(cfg.cells) != dim:
        p.errors.append(
            f"line {line_of('grid', 'cells')}: cells has {len(cfg.cells)} "
            f"axis value(s) but the model dimension is {dim}")
    if cfg.sweep_axis is not None and not cfg.sweep_values:
        p.errors.append(
            f"line {line_of('sweep', 'axis')}: sweep axis set but values are empty")
    if cfg.sweep_values and cfg.sweep_axis is None:
        p.errors.append(
            f"line {line_of('sweep', 'values')}: sweep values set but axis is missing")


def _fmt_value(val):
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, (int, np.integer)):
        return str(int(val))
    if isinstance(val, float):
        return repr(val)
    if isinstance(val, (tuple, list)):
        return ", ".join(_fmt_value(v) for v in val)
    return str(val)


def serialize_config(cfg):
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    out = ["[model]"]
    if cfg.preset is not None:
        out.append(f"preset = {cfg.preset}")
    if cfg.model_name is not None:
        out.append(f"name = {cfg.model_name}")
    if cfg.dimension is not None and cfg.preset is None:
        out.append(f"dimension = {cfg.dimension}")
    if cfg.flux_coeffs is not None:
        for comp, coeffs in enumerate(cfg.flux_coeffs):
            out.append(f"f{comp + 1} = {_fmt_value(coeffs)}")
    if cfg.diffusion_coeffs:
        for (i, j) in sorted(cfg.diffusion_coeffs):
            out.append(f"A{i + 1}{j + 1} = {_fmt_value(cfg.diffusion_coeffs[(i, j)])}")
    out.append(f"state_bound = {_fmt_value(cfg.state_bound)}")

    if cfg.periods is not None or cfg.cells is not None:
        out.append("")
        out.append("[grid]")
        if cfg.periods is not None:
            out.append(f"periods = {_fmt_value(cfg.periods)}")
        if cfg.cells is not None:
            out.append(f"cells = {_fmt_value(cfg.cells)}")

    out.append("")
    out.append("[initial]")
    out.append(f"profile = {cfg.profile}")
    out.append(f"amplitude = {_fmt_value(cfg.amplitude)}")
    out.append(f"zero_mean = {_fmt_value(cfg.zero_mean)}")
    out.append(f"seed = {cfg.seed}")

    if cfg.t_end is not None:
        out.append("")
        out.append("[scheme]")
        out.append(f"t_end = {_fmt_value(cfg.t_end)}")
        out.append(f"cfl = {_fmt_value(cfg.cfl)}")
        out.append(f"integrator = {cfg.integrator}")
        if cfg.output_every is not None:
            out.append(f"output_every = {_fmt_value(cfg.output_every)}")
        if cfg.snapshot_every is not None:
            out.append(f"snapshot_every = {_fmt_value(cfg.snapshot_every)}")

    out.append("")
    out.append("[condition]")
    out.append(f"delta = {_fmt_value(cfg.delta)}")
    out.append(f"lambdas = {_fmt_value(cfg.lambdas)}")
    if cfg.n_dir is not None:
        out.append(f"n_dir = {cfg.n_dir}")
    out.append(f"r_max = {_fmt_value(cfg.r_max)}")
    out.append(f"n_resonant = {cfg.n_resonant}")
    out.append(f"lattice = {_fmt_value(cfg.lattice)}")

    if cfg.directory is not None:
        out.append("")
        out.append("[output]")
        out.append(f"directory = {cfg.directory}")

    if cfg.sweep_axis is not None:
        out.append("")
        out.append("[sweep]")
        out.append(f"axis = {cfg.sweep_axis}")
        out.append(f"values = {_fmt_value(cfg.sweep_values)}")

    return "\n".join(out) + "\n"


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
    """The documented 64-bit LCG stream as floats in [0, 1)."""
    state = int(seed) & _LCG_MASK
    out = np.empty(int(count))
    for idx in range(int(count)):
        state = (state * LCG_MULTIPLIER + LCG_INCREMENT) & _LCG_MASK
        out[idx] = (state >> 11) / float(1 << 53)
    return out


def _axis_factor(profile):
    if profile == "sine":
        return lambda s, period: np.sin(2.0 * np.pi * s / period)
    if profile == "multi-sine":
        return lambda s, period: (np.sin(2.0 * np.pi * s / period)
                                  + 0.3 * np.sin(4.0 * np.pi * s / period + 0.7))
    if profile == "square-wave":
        return lambda s, period: np.sign(np.sin(2.0 * np.pi * s / period))
    raise ConfigError([f"unknown profile {profile!r}"])


def make_initial(cfg, grid):
    """Cell field for the configured profile on the given grid."""
    if cfg.profile == "random":
        draws = lcg_values(cfg.seed, int(np.prod(grid.cells)))
        values = cfg.amplitude * (2.0 * draws - 1.0)
        fld = init_field(grid, values.reshape(grid.cells))
    else:
        factor = _axis_factor(cfg.profile)
        periods = grid.periods
        if grid.dimension == 1:
            fn = lambda x: cfg.amplitude * factor(x, periods[0])
        else:
            fn = lambda x, y: cfg.amplitude * factor(x, periods[0]) * factor(y, periods[1])
        fld = init_field(grid, fn)
    if cfg.zero_mean:
        fld.values -= fld.values.sum() / fld.values.size
    return fld
