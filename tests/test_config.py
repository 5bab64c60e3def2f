"""Tests for config parsing, serialization, and experiment builders."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisolab.config import (
    DEFAULT_LAMBDAS,
    PROFILES,
    ConfigError,
    ExperimentConfig,
    default_config,
    lcg_values,
    make_grid,
    make_initial,
    make_model,
    make_sampling,
    make_scheme,
    parse_config,
    serialize_config,
)
from anisolab.kinetic import SamplingPlan, check_condition
from anisolab.model import evaluate, list_presets, preset
from anisolab.solver import INTEGRATORS, SchemeConfig, stable_dt

MINIMAL = "[model]\npreset = burgers\n"

INLINE = """\
[model]
name = my-degenerate
dimension = 1
f1 = 0.0, 0.0, 0.5
A11 = 0.0, 0.0, 1.0
state_bound = 1.5

[grid]
cells = 64

[scheme]
t_end = 0.25
"""


def test_minimal_parse_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.preset == "burgers"
    assert cfg.cfl == 0.4
    assert cfg.integrator == "ssp-rk2"
    assert cfg.profile == "sine"
    assert cfg.amplitude == 1.0
    assert cfg.lambdas == DEFAULT_LAMBDAS
    assert cfg.state_bound == 1.0
    assert cfg.lattice is False


def test_full_line_comments_and_blanks_ignored():
    text = "# leading comment\n\n[model]\n# preset pick\npreset = burgers\n\n"
    assert parse_config(text).preset == "burgers"


def test_inline_model_parse():
    cfg = parse_config(INLINE)
    assert cfg.preset is None
    assert cfg.model_name == "my-degenerate"
    assert cfg.dimension == 1
    assert cfg.flux_coeffs == ((0.0, 0.0, 0.5),)
    assert cfg.diffusion_coeffs == {(0, 0): (0.0, 0.0, 1.0)}
    assert cfg.state_bound == 1.5
    assert cfg.cells == (64,)
    assert cfg.t_end == 0.25


def test_round_trip_identity_inline():
    cfg = parse_config(INLINE)
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_round_trip_identity_presets():
    for name in ("burgers", "porous-medium", "anisotropic-2d", "linear-advection",
                 "burgers-degenerate"):
        cfg = default_config(name)
        again = parse_config(serialize_config(cfg))
        assert again == cfg, name


def test_round_trip_scheme_without_t_end():
    cfg = parse_config(MINIMAL + "[scheme]\ncfl = 0.2\nintegrator = euler\n"
                       "output_every = 0.1\n")
    text = serialize_config(cfg)
    assert "[scheme]\ncfl = 0.2\nintegrator = euler\noutput_every = 0.1\n" in text
    assert parse_config(text) == cfg


def test_round_trip_dimension_matching_preset():
    cfg = parse_config(MINIMAL + "dimension = 1\n")
    assert cfg.dimension == 1
    assert "dimension = 1" in serialize_config(cfg)
    assert parse_config(serialize_config(cfg)) == cfg


def test_error_on_dimension_contradicting_preset():
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL + "dimension = 2\n")
    assert info.value.errors == ["line 3: dimension is 2 but preset burgers has dimension 1"]


def test_serialize_writes_numpy_scalars_as_plain_numbers():
    cfg = default_config("burgers")
    cfg.cfl = np.float64(0.3)
    cfg.periods = (np.float64(1.0),)
    cfg.seed = np.int64(5)
    text = serialize_config(cfg)
    assert "cfl = 0.3\n" in text
    assert "periods = 1.0\n" in text
    assert "seed = 5\n" in text
    assert parse_config(text) == cfg


@pytest.mark.parametrize("text, error", [
    (MINIMAL + "[initial]\namplitude = nan\n", "line 4: amplitude must be finite, got nan"),
    (MINIMAL + "[initial]\namplitude = inf\n", "line 4: amplitude must be finite, got inf"),
    (MINIMAL + "[condition]\nlambdas = inf, 1\n",
     "line 4: lambdas must be finite, got inf, 1"),
    ("[model]\ndimension = 1\nf1 = 0, nan\n", "line 3: f1 must be finite, got 0, nan"),
    ("[model]\ndimension = 1\nA11 = inf\n", "line 3: A11 must be finite, got inf"),
    (MINIMAL + "[sweep]\naxis = cfl\nvalues = -1, nan\n",
     "line 5: values must be finite, got -1, nan"),
    (MINIMAL + "[sweep]\naxis = cfl\nvalues = 0.2, -1\n",
     "line 5: values on the cfl axis must be positive, got -1.0"),
    (MINIMAL + "[sweep]\naxis = lambda_floor\nvalues = 1e-3, 0\n",
     "line 5: values on the lambda_floor axis must be positive, got 0.0"),
    (MINIMAL + "[sweep]\naxis = cells\nvalues = 10.5\n",
     "line 5: values on the cells axis must be integers of at least 4, got 10.5"),
    (MINIMAL + "[sweep]\naxis = cells\nvalues = 16, 2\n",
     "line 5: values on the cells axis must be integers of at least 4, got 2.0"),
], ids=["amplitude-nan", "amplitude-inf", "lambdas-inf", "f1-nan", "A11-inf",
        "cfl-values-nan", "cfl-values-negative", "lambda-floor-values-zero",
        "cells-values-fraction", "cells-values-too-few"])
def test_error_on_non_finite_and_ill_typed_values(text, error):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.errors[0] == error


@pytest.mark.parametrize("values, error", [
    ("-1, nan", "line 5: values must be finite, got -1, nan"),
    ("0.2, x", "line 5: values: malformed number 'x'"),
    ("-1, 0.5", "line 5: values on the cfl axis must be positive, got -1.0"),
])
def test_rejected_sweep_values_give_exactly_one_error(values, error):
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL + f"[sweep]\naxis = cfl\nvalues = {values}\n")
    assert info.value.errors == [error]


def test_sweep_axis_without_values_line_is_reported():
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL + "[sweep]\naxis = cfl\n")
    assert info.value.errors == ["line 4: sweep axis set but values are empty"]


def test_sweep_values_on_amplitude_axis_may_be_any_finite_number():
    cfg = parse_config(MINIMAL + "[sweep]\naxis = amplitude\nvalues = -1, 0, 2.5\n")
    assert cfg.sweep_values == (-1.0, 0.0, 2.5)


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config format", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    cfg = parse_config(block, required_sections=("model", "grid", "scheme"))
    assert cfg.preset == "burgers" and cfg.cells == (256,)
    assert cfg.output_every == 0.05 and cfg.directory == "out/run1"
    assert cfg.sweep_axis == "cells" and cfg.sweep_values == (64.0, 128.0, 256.0)


# --- round trip over random valid configs -----------------------------------

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_WORD = st.text("abcdefghijklmnopqrstuvwxyz0123456789-_./", max_size=12)
_COEFFS = st.lists(_FINITE, min_size=1, max_size=4).map(tuple)


def _optional(strategy):
    return st.none() | strategy


@st.composite
def _valid_configs(draw):
    cfg = ExperimentConfig()
    if draw(st.booleans()):
        cfg.preset = draw(st.sampled_from(list_presets()))
        dim = preset(cfg.preset).dimension
        cfg.dimension = draw(st.sampled_from((None, dim)))
    else:
        dim = cfg.dimension = draw(st.sampled_from((1, 2)))
        cfg.flux_coeffs = tuple(draw(_COEFFS) for _ in range(dim))
        entries = [(0, 0), (0, 1), (1, 1)] if dim == 2 else [(0, 0)]
        chosen = draw(st.lists(st.sampled_from(entries), unique=True))
        cfg.diffusion_coeffs = {ij: draw(_COEFFS) for ij in chosen}
    cfg.model_name = draw(_optional(_WORD))
    cfg.state_bound = draw(_POSITIVE)
    cfg.periods = draw(_optional(st.tuples(*[_POSITIVE] * dim)))
    cfg.cells = draw(_optional(st.tuples(*[st.integers(4, 4096)] * dim)))
    cfg.profile = draw(st.sampled_from(PROFILES))
    cfg.amplitude = draw(_FINITE)
    cfg.zero_mean = draw(st.booleans())
    cfg.seed = draw(st.integers(0, 2 ** 64))
    if draw(st.booleans()):
        cfg.t_end = draw(_optional(_POSITIVE))
        cfg.cfl = draw(_POSITIVE)
        cfg.integrator = draw(st.sampled_from(INTEGRATORS))
        cfg.output_every = draw(_optional(_POSITIVE))
        cfg.snapshot_every = draw(_optional(_POSITIVE))
    cfg.delta, cfg.r_max = sorted((draw(_POSITIVE), draw(_POSITIVE)))  # delta <= r_max
    lambdas = draw(st.lists(_POSITIVE, min_size=1, max_size=6, unique=True))
    cfg.lambdas = tuple(sorted(lambdas, reverse=True))
    cfg.n_dir = draw(_optional(st.integers(4, 512)))
    cfg.n_resonant = draw(st.integers(2, 200))
    cfg.lattice = draw(st.booleans())
    cfg.directory = draw(_optional(_WORD))
    if draw(st.booleans()):
        cfg.sweep_axis = draw(st.sampled_from(("cells", "cfl", "amplitude", "lambda_floor")))
        values = {"cells": st.integers(4, 4096).map(float), "amplitude": _FINITE}
        cfg.sweep_values = tuple(draw(st.lists(values.get(cfg.sweep_axis, _POSITIVE),
                                               min_size=1, max_size=5)))
    return cfg


@settings(max_examples=300, deadline=None)
@given(_valid_configs())
def test_round_trip_random_valid_configs(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


def test_errors_carry_line_numbers_and_accumulate():
    text = """\
[model]
preset = burgers
cells = 8

[gird]
foo = 1

[grid]
cells = -4
periods = abc
"""
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    msg = str(info.value)
    assert "line 3" in msg  # cells does not belong to [model]
    assert "line 5" in msg and "gird" in msg
    assert "line 9" in msg and "cells" in msg
    assert "line 10" in msg  # malformed number


def test_error_on_assignment_without_section():
    with pytest.raises(ConfigError, match="outside any"):
        parse_config("preset = burgers\n[model]\npreset = burgers\n")


def test_error_on_missing_equals():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("[model]\npreset burgers\n")


def test_error_on_missing_required_sections():
    with pytest.raises(ConfigError, match=r"missing required section \[grid\]"):
        parse_config(MINIMAL, required_sections=("model", "grid"))


def test_error_on_lower_triangle_entry():
    text = "[model]\ndimension = 2\nf1 = 0.0\nf2 = 0.0\nA21 = 1.0\n"
    with pytest.raises(ConfigError, match="A12"):
        parse_config(text)


def test_error_on_preset_with_inline_coeffs():
    text = "[model]\npreset = burgers\nf1 = 0.0, 1.0\n"
    with pytest.raises(ConfigError, match="preset"):
        parse_config(text)


def test_error_on_inline_without_dimension():
    with pytest.raises(ConfigError, match="dimension"):
        parse_config("[model]\nf1 = 0.0, 1.0\n")


def test_error_on_component_beyond_dimension():
    text = "[model]\ndimension = 1\nf1 = 0.0\nf2 = 1.0\n"
    with pytest.raises(ConfigError, match="f2"):
        parse_config(text)


def test_error_on_grid_length_mismatch():
    text = "[model]\npreset = burgers\n\n[grid]\ncells = 32\nperiods = 1.0, 2.0\n"
    with pytest.raises(ConfigError, match="periods"):
        parse_config(text)


def test_error_on_periods_vs_model_dimension():
    # Lattice sampling snaps one kappa component per period, so a short
    # periods line would drop wave-vector components.
    text = "[model]\npreset = anisotropic-2d\n\n[grid]\nperiods = 1.0\n[condition]\nlattice = true\n"
    with pytest.raises(ConfigError,
                       match=r"line 5: periods has 1 axis value\(s\) but the model dimension is 2"):
        parse_config(text)


def test_error_on_delta_above_r_max():
    # The shell ladder runs from delta up to r_max; past it there is no shell.
    text = "[model]\npreset = burgers\n[condition]\ndelta = 2000\n"
    with pytest.raises(ConfigError,
                       match=r"line 4: delta must not exceed r_max \(1000.0\), got 2000.0"):
        parse_config(text)
    with pytest.raises(ConfigError, match=r"line 4: delta must not exceed r_max \(0.5\)"):
        parse_config("[model]\npreset = burgers\n[condition]\nr_max = 0.5\n")


def test_error_on_cells_vs_model_dimension():
    text = "[model]\npreset = anisotropic-2d\n\n[grid]\ncells = 32\n"
    with pytest.raises(ConfigError, match="dimension"):
        parse_config(text)


def test_error_on_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config("[model]\npreset = kdv\n")


def test_error_on_unknown_integrator():
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL + "[scheme]\nintegrator = rk4\n")
    assert info.value.errors == ["line 4: integrator must be euler or ssp-rk2, got 'rk4'"]


def test_error_on_sweep_axis_value_pairing():
    base = "[model]\npreset = burgers\n\n[sweep]\n"
    with pytest.raises(ConfigError, match="values"):
        parse_config(base + "axis = cells\n")
    with pytest.raises(ConfigError, match="axis"):
        parse_config(base + "values = 1, 2\n")
    with pytest.raises(ConfigError, match="axis"):
        parse_config(base + "axis = viscosity\nvalues = 1, 2\n")


def test_error_on_bad_lambda_ladder():
    text = "[model]\npreset = burgers\n\n[condition]\nlambdas = 1e-3, 1e-2\n"
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config(text)


def test_serialize_canonical_shape():
    text = serialize_config(default_config("burgers"))
    assert text.startswith("[model]\npreset = burgers\n")
    assert "amplitude = 1.0" in text
    assert "zero_mean = false" in text
    assert "lambdas = 0.1, 0.01, 0.001, 0.0001, 1e-05, 1e-06" in text
    assert "cells = 256" in text


# --- builders ----------------------------------------------------------------

def test_make_model_from_preset_and_inline():
    m = make_model(parse_config(MINIMAL))
    assert m.name == "burgers"
    assert evaluate(m, "flux", 2.0) == pytest.approx([2.0])

    inline = make_model(parse_config(INLINE))
    assert inline.name == "my-degenerate"
    assert inline.state_bound == 1.5
    assert evaluate(inline, "flux", 2.0) == pytest.approx([2.0])
    assert np.allclose(evaluate(inline, "diffusion", 0.5), [[0.25]])


def test_make_model_requires_some_model():
    cfg = parse_config(MINIMAL)
    cfg.preset = None
    with pytest.raises(ConfigError, match="preset or inline"):
        make_model(cfg)


def test_experiment_config_defaults_are_the_library_defaults():
    cfg, scheme, plan = ExperimentConfig(), SchemeConfig(t_end=1.0), SamplingPlan()
    assert (cfg.cfl, cfg.integrator) == (scheme.cfl, scheme.integrator)
    assert inspect.signature(stable_dt).parameters["cfl"].default == scheme.cfl
    assert (cfg.n_dir, cfg.r_max, cfg.n_resonant, cfg.lattice) == (
        plan.n_dir, plan.r_max, plan.n_resonant, plan.lattice)
    assert cfg.delta == inspect.signature(check_condition).parameters["delta"].default
    assert cfg.lambdas == DEFAULT_LAMBDAS


def test_make_grid_defaults_periods():
    cfg = parse_config(INLINE)
    g = make_grid(cfg)
    assert g.periods == (1.0,)
    assert g.cells == (64,)
    with pytest.raises(ConfigError, match="dimension"):
        make_grid(cfg, dimension=2)
    cfg.cells = None
    with pytest.raises(ConfigError, match="cells"):
        make_grid(cfg)


def test_make_scheme_requires_t_end():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="t_end"):
        make_scheme(cfg)
    cfg.t_end = 1.0
    scheme = make_scheme(cfg)
    assert scheme.t_end == 1.0 and scheme.cfl == 0.4


def test_make_sampling_lattice_needs_periods():
    cfg = parse_config(MINIMAL)
    cfg.lattice = True
    with pytest.raises(ConfigError, match="periods"):
        make_sampling(cfg)
    cfg.periods = (1.0,)
    plan = make_sampling(cfg)
    assert plan.lattice and plan.periods == (1.0,)


# --- deterministic pseudo-random stream --------------------------------------

def test_lcg_stream_is_frozen():
    # First draws for seed 42, pinned against the documented recurrence.
    got = lcg_values(42, 5)
    want = [
        0.5682303266439076,
        0.2254634289477513,
        0.41283831882951183,
        0.6303980498395979,
        0.6801478072421157,
    ]
    assert np.allclose(got, want, rtol=0, atol=0)


def test_lcg_matches_direct_recurrence():
    # The jump-ahead fill must give the one-state-at-a-time stream exactly,
    # across the doubling block edges.
    for seed in (42, 12345, 7, 2**64 - 1, 3, 9):
        state = seed
        expect = []
        for _ in range(16384):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            expect.append((state >> 11) / float(1 << 53))
        for count in (0, 1, 5, 8, 333, 1000, 16384):
            got = lcg_values(seed, count)
            assert got.tobytes() == np.array(expect[:count]).tobytes(), (seed, count)


def test_lcg_range_and_determinism():
    a = lcg_values(7, 1000)
    b = lcg_values(7, 1000)
    c = lcg_values(8, 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() < 1.0


# --- initial profiles --------------------------------------------------------

def _grid_cfg(profile, **kw):
    cfg = parse_config(MINIMAL)
    cfg.cells = (64,)
    cfg.profile = profile
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_make_initial_sine_amplitude():
    cfg = _grid_cfg("sine", amplitude=0.5)
    fld = make_initial(cfg, make_grid(cfg))
    assert fld.values.max() == pytest.approx(0.5, abs=1e-3)
    assert abs(fld.values.mean()) < 1e-15


def test_make_initial_multi_sine_matches_formula():
    cfg = _grid_cfg("multi-sine")
    cfg.cells = (4096,)
    g = make_grid(cfg)
    fld = make_initial(cfg, g)
    x = g.centers(0)
    want = np.sin(2 * np.pi * x) + 0.3 * np.sin(4 * np.pi * x + 0.7)
    assert np.abs(fld.values - want).max() < 1e-5


def test_make_initial_square_wave_levels():
    cfg = _grid_cfg("square-wave", amplitude=0.8)
    fld = make_initial(cfg, make_grid(cfg))
    interior = np.abs(np.abs(fld.values) - 0.8) < 1e-12
    assert interior.sum() >= 60  # all but the cells straddling the jumps
    assert np.abs(fld.values).max() <= 0.8 + 1e-12


def test_make_initial_random_uses_lcg_row_major():
    cfg = _grid_cfg("random", seed=42, amplitude=0.25)
    fld = make_initial(cfg, make_grid(cfg))
    want = 0.25 * (2.0 * lcg_values(42, 64) - 1.0)
    assert np.array_equal(fld.values, want)
    assert np.abs(fld.values).max() <= 0.25


def test_make_initial_random_2d_row_major():
    cfg = parse_config("[model]\npreset = anisotropic-2d\n")
    cfg.cells = (8, 4)
    cfg.profile = "random"
    cfg.seed = 3
    g = make_grid(cfg)
    fld = make_initial(cfg, g)
    want = (2.0 * lcg_values(3, 32) - 1.0).reshape(8, 4)
    assert np.array_equal(fld.values, want)


def test_make_initial_zero_mean_flag():
    cfg = _grid_cfg("random", seed=11, zero_mean=True)
    fld = make_initial(cfg, make_grid(cfg))
    assert abs(fld.values.mean()) < 1e-15


def test_default_config_is_runnable():
    for name in ("linear-advection", "burgers", "burgers-degenerate",
                 "porous-medium", "anisotropic-2d"):
        cfg = default_config(name)
        m = make_model(cfg)
        g = make_grid(cfg, m.dimension)
        scheme = make_scheme(cfg)
        fld = make_initial(cfg, g)
        assert fld.values.shape == g.cells
        assert scheme.t_end > 0
