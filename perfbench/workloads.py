"""Seeded op plans for the three benchmark workloads.

An op is one call of ``anisolab.cli.main`` on a generated config file. A
round is a fixed list of ops that covers every op kind of a workload once;
a run repeats rounds. The number of rounds is fixed by ``--seconds`` and the
workload's nominal round time, so a run does the same work (and its tail
percentile rests on the same sample count) on every commit. For the run
workloads the seed picks, per op, the initial profile order, the amplitude
and the LCG seed; the end time of each profile is fixed so that every op
does roughly the same number of solver steps whatever the seed draws (a
random-profile field smooths out within a few steps and then takes far
longer steps than a sine). For ``check-presets`` the seed picks the order
of the five presets in each round; the condition check reads no initial
field, so the ops themselves do not depend on it.
"""

from __future__ import annotations

import random

PROFILES = ("sine", "multi-sine", "square-wave", "random")
AMPLITUDE_RANGE = (0.9, 1.0)

# Per-profile t_end: about 650 steps at N=256 and about 80 steps at 128^2
# for amplitudes in AMPLITUDE_RANGE on the unmodified solver.
_T_END = {
    "burgers-degenerate": {"sine": 0.0022, "multi-sine": 0.0015,
                           "square-wave": 0.0021, "random": 0.04},
    "anisotropic-2d": {"sine": 0.001, "multi-sine": 0.0005,
                       "square-wave": 0.001, "random": 0.002},
}
_CELLS = {"burgers-degenerate": "256", "anisotropic-2d": "128, 128"}
_OUTPUT_WINDOWS = {"burgers-degenerate": 20, "anisotropic-2d": 10}

CHECK_PRESETS = ("linear-advection", "burgers", "burgers-degenerate",
                 "porous-medium", "anisotropic-2d")
# The first and last rungs of the default ladder, and 64 instead of 256
# sphere directions for the 2-d plan, cut a round of all five presets from
# about 15 s to 4 s, so seven rounds fit into a 28 s run. The verdict rule,
# both ends of the ladder and the resonant rays that carry every witness are
# those of the default.
CHECK_LAMBDAS = (0.1, 1e-06)
CHECK_N_DIR_2D = 64

# Median round time at the seed commit on a 2-core Xeon box (numpy 2.4.6).
NOMINAL_ROUND_S = {"run-1d-degenerate": 1.2, "run-2d-aniso": 2.35,
                   "check-presets": 4.2}
WORKLOADS = tuple(NOMINAL_ROUND_S)

# Workloads whose op times are scaled by the speed gauge (calibrate.py). Their
# ops are interpreter-bound, like the gauge: unscaled, their run-to-run spreads
# were 0.10-0.14, scaled 0.03-0.09 (table in README). The ops of run-2d-aniso
# are large-array arithmetic, run by numpy's BLAS on two threads, which the
# gauge does not track: scaling raised their wall_s spread from 0.04 to 0.14,
# so their times are reported as measured. Set-up is scaled everywhere.
SCALED = frozenset({"run-1d-degenerate", "check-presets"})


def round_count(workload, seconds):
    """Rounds in a run of nominally ``seconds`` (at least one)."""
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def _initial_section(profile, amplitude, lcg_seed):
    return [
        "[initial]",
        f"profile = {profile}",
        f"amplitude = {amplitude!r}",
        f"seed = {lcg_seed}",
    ]


def _experiment(preset, profile, amplitude, lcg_seed):
    t_end = _T_END[preset][profile]
    every = t_end / _OUTPUT_WINDOWS[preset]
    lines = [
        "[model]", f"preset = {preset}",
        "[grid]", f"cells = {_CELLS[preset]}",
        *_initial_section(profile, amplitude, lcg_seed),
        "[scheme]", f"t_end = {t_end!r}", f"output_every = {every!r}",
    ]
    return "\n".join(lines) + "\n"


def _experiment_for_check(preset):
    cells = "64, 64" if preset == "anisotropic-2d" else "256"
    lines = [
        "[model]", f"preset = {preset}",
        "[grid]", f"cells = {cells}",
        "[condition]", "lambdas = " + ", ".join(repr(l) for l in CHECK_LAMBDAS),
    ]
    if preset == "anisotropic-2d":
        lines.append(f"n_dir = {CHECK_N_DIR_2D}")
    return "\n".join(lines) + "\n"


def _draw_amplitude(rng):
    return round(rng.uniform(*AMPLITUDE_RANGE), 4)


def round_ops(workload, seed, index):
    """The ops of round ``index``: dicts with kind, label, config and expectations."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "check-presets":
        order = list(CHECK_PRESETS)
        rng.shuffle(order)
        ops = []
        for name in order:
            ops.append({"kind": "check", "label": name, "preset": name,
                        "config": _experiment_for_check(name),
                        "lambdas": list(CHECK_LAMBDAS),
                        "expect_exit": 3 if name == "linear-advection" else 0,
                        "expect_verdict": "fail" if name == "linear-advection" else "pass"})
        return ops

    preset = "burgers-degenerate" if workload == "run-1d-degenerate" else "anisotropic-2d"
    order = list(PROFILES)
    rng.shuffle(order)
    ops = []
    for profile in order:
        lcg_seed = rng.randrange(2 ** 32)
        text = _experiment(preset, profile, _draw_amplitude(rng), lcg_seed)
        ops.append({"kind": "run", "label": profile, "preset": preset, "config": text,
                    "expect_exit": 0, "t_end": _T_END[preset][profile]})
    return ops

