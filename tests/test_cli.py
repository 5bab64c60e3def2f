"""End-to-end tests of the command line interface and its artifacts."""

import json
import subprocess
import sys

import numpy as np
import pytest

from anisolab.cli import cmd_sweep, main, read_trajectory_csv
from anisolab.config import ConfigError, default_config, parse_config
from anisolab.model import ModelSpec

RUN_CFG = """\
[model]
preset = burgers

[grid]
cells = 64

[scheme]
t_end = 0.3
output_every = 0.1
snapshot_every = 0.15
"""

FAST_CONDITION = """\
[condition]
n_dir = 8
r_max = 4.0
n_resonant = 5
"""

# Forward Euler just past the parabolic stability bound: the solution
# stays bounded over this horizon but oscillates, so the audit must fail.
UNSTABLE_CFG = """\
[model]
name = heat
dimension = 1
A11 = 1.0

[grid]
cells = 32

[initial]
profile = random
amplitude = 0.01
seed = 1

[scheme]
t_end = 0.02
cfl = 1.1
integrator = euler
output_every = 0.005
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def body_without_timestamps(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [l for l in lines if not l.startswith("# generated")]


# --- run ---------------------------------------------------------------------

def test_run_writes_artifacts_and_passes(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", RUN_CFG)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    for name in ("config.txt", "trajectory.csv", "audit.jsonl", "audit.txt",
                 "decay.jsonl", "decay.txt"):
        assert (out / name).exists(), name
    snaps = sorted((out / "snapshots").glob("snap-*.csv"))
    assert len(snaps) == 3  # t = 0, 0.15, 0.3
    stdout = capsys.readouterr().out
    assert "overall: PASS" in stdout
    assert "decay summary" in stdout

    report = json.loads((out / "audit.jsonl").read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert report["budget_violations"] == 0

    cols = read_trajectory_csv(out / "trajectory.csv")
    assert cols["t"][0] == 0.0
    assert cols["t"][-1] == pytest.approx(0.3, abs=1e-12)
    assert set(cols) == {"t", "mean", "l1_to_mean", "l2_energy", "linf",
                         "dissipation_resolved", "dissipation_budget"}


def test_run_quiet_suppresses_stdout(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", RUN_CFG)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_run_is_byte_stable_modulo_timestamp(tmp_path):
    cfg = write(tmp_path / "run.cfg", RUN_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    for name in ("trajectory.csv", "config.txt", "audit.jsonl", "decay.jsonl"):
        assert body_without_timestamps(out1 / name) == body_without_timestamps(
            out2 / name), name
    snaps1 = sorted((out1 / "snapshots").glob("*.csv"))
    snaps2 = sorted((out2 / "snapshots").glob("*.csv"))
    for a, b in zip(snaps1, snaps2):
        assert body_without_timestamps(a) == body_without_timestamps(b)


def test_run_blow_up_exits_1_with_partial_trajectory(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", RUN_CFG.replace(
        "t_end = 0.3\noutput_every = 0.1\nsnapshot_every = 0.15",
        "t_end = 10.0\ncfl = 2.0"))
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 1
    assert "blew up" in capsys.readouterr().err
    assert (out / "trajectory.csv").exists()


def test_run_with_an_overflowing_wave_bound_exits_1_with_partial_trajectory(tmp_path, capsys):
    # At amplitude 1e160 the bound on burgers-degenerate's A = u^2 overflows:
    # a blow-up at t = 0, not a traceback.
    cfg = write(tmp_path / "run.cfg", RUN_CFG.replace("burgers", "burgers-degenerate")
                + "\n[initial]\namplitude = 1e160\n")
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 1
    assert "error: solution blew up at t=0 " in capsys.readouterr().err
    assert read_trajectory_csv(out / "trajectory.csv")["t"].tolist() == [0.0]


def test_run_with_an_overflowing_wave_bound_prints_only_the_error_line(tmp_path):
    cfg = write(tmp_path / "run.cfg", RUN_CFG.replace("burgers", "burgers-degenerate")
                + "\n[initial]\namplitude = 1e160\n")
    proc = subprocess.run(
        [sys.executable, "-m", "anisolab.cli", "run", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: solution blew up at t=0 (max |u| reached 9.984e+159)\n"


def test_run_of_data_past_1e154_exits_2_with_a_violated_energy_line(tmp_path):
    # The run steps on with l2_energy inf; its audit fails the energy line (each
    # jump is NaN) instead of overflowing while it squares max |u0|.
    cfg = write(tmp_path / "run.cfg", "[model]\npreset = linear-advection\n[grid]\ncells = 64\n"
                "[initial]\nprofile = sine\namplitude = 1e160\n[scheme]\nt_end = 0.05\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "anisolab.cli", "run", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    report = json.loads((out / "audit.jsonl").read_text(encoding="utf-8"))
    assert np.isnan(report["energy_monotonicity_violation"]) and report["passed"] is False
    energy_line = [l for l in proc.stdout.splitlines() if "energy monotonicity" in l]
    assert energy_line and energy_line[0].split()[2:] == ["nan", "(tol", "1.0e-12)", "VIOLATED"]


def test_run_model_not_finite_on_its_probe_exits_1(tmp_path, capsys, monkeypatch):
    nan_past = ModelSpec(
        dimension=1, state_bound=2.0, name="nan-past",
        flux=lambda u: np.where(np.abs(u) <= 1.05, 0.5 * u * u, np.nan)[..., None],
        diffusion=lambda u: np.zeros(np.shape(u) + (1, 1)))
    monkeypatch.setattr("anisolab.cli.make_model", lambda cfg: nan_past)
    code = main(["run", "--config", write(tmp_path / "run.cfg", RUN_CFG),
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    assert "flux entry (0,) is not finite at u=-2.1" in capsys.readouterr().err


def test_run_unstable_audit_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", UNSTABLE_CFG)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "overall: FAIL" in capsys.readouterr().out
    report = json.loads((out / "audit.jsonl").read_text(encoding="utf-8"))
    assert report["max_principle_violation"] > 1e-10
    assert report["passed"] is False


def test_run_constant_data_decays_at_zero(tmp_path):
    cfg = write(tmp_path / "run.cfg", RUN_CFG + "\n[initial]\namplitude = 0.0\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    records = [json.loads(l) for l in
               (out / "decay.jsonl").read_text(encoding="utf-8").splitlines()]
    assert all(r["time"] == 0.0 for r in records if "threshold" in r)


def test_run_model_override_wins(tmp_path):
    cfg = write(tmp_path / "run.cfg", RUN_CFG)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--model", "linear-advection",
                 "--out", str(out), "--quiet"])
    assert code == 0
    assert "preset = linear-advection" in (out / "config.txt").read_text(
        encoding="utf-8")


def test_run_model_without_config_uses_defaults(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--model", "burgers", "--out", str(out), "--quiet"])
    assert code == 0
    text = (out / "config.txt").read_text(encoding="utf-8")
    assert "preset = burgers" in text
    assert "cells = 256" in text


# --- check-condition ---------------------------------------------------------

def test_check_condition_burgers_passes(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "[model]\npreset = burgers\n" + FAST_CONDITION)
    out = tmp_path / "out"
    code = main(["check-condition", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert "verdict: pass" in capsys.readouterr().out
    lines = (out / "condition.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "lambda,omega,tau_witness,kappa_witness_1"
    assert len(lines) == 2 + 6  # timestamp comment, header, one row per lambda


def test_check_condition_advection_fails(tmp_path):
    cfg = write(tmp_path / "c.cfg",
                "[model]\npreset = linear-advection\n" + FAST_CONDITION)
    out = tmp_path / "out"
    code = main(["check-condition", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 3
    text = (out / "condition.txt").read_text(encoding="utf-8")
    assert "verdict: fail" in text


def test_check_condition_lattice_flag(tmp_path):
    cfg = write(tmp_path / "c.cfg",
                "[model]\npreset = burgers\n\n[grid]\ncells = 32\n" + FAST_CONDITION)
    out = tmp_path / "out"
    code = main(["check-condition", "--config", cfg, "--lattice",
                 "--out", str(out), "--quiet"])
    assert code == 0
    assert (out / "condition.csv").exists()


def test_check_condition_delta_above_r_max_is_a_config_error(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "[model]\npreset = burgers\n[condition]\ndelta = 2000\n")
    code = main(["check-condition", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "line 4: delta must not exceed r_max" in capsys.readouterr().err


# --- validate-model ----------------------------------------------------------

def test_validate_model_preset_passes(tmp_path, capsys):
    cfg = write(tmp_path / "v.cfg", "[model]\npreset = burgers-degenerate\n")
    out = tmp_path / "out"
    code = main(["validate-model", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert "pass" in capsys.readouterr().out
    records = [json.loads(l) for l in
               (out / "validation.jsonl").read_text(encoding="utf-8").splitlines()]
    assert records[-1]["passed"] is True
    names = {r["check"] for r in records if "check" in r}
    assert names == {"symmetry", "psd", "factorization", "primitive_beta",
                     "primitive_b", "chain_rule"}


def test_validate_model_negative_diffusion_fails(tmp_path):
    cfg = write(tmp_path / "v.cfg",
                "[model]\nname = bad\ndimension = 1\nA11 = -1.0\n")
    out = tmp_path / "out"
    code = main(["validate-model", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 2
    records = [json.loads(l) for l in
               (out / "validation.jsonl").read_text(encoding="utf-8").splitlines()]
    by_name = {r["check"]: r for r in records if "check" in r}
    assert by_name["psd"]["passed"] is False


def test_validate_model_fails_psd_where_the_diffusion_overflows(tmp_path):
    # A11 = 1e300 u^2 overflows on |u| <= 1e10, so eigvalsh gives NaN
    # eigenvalues: the psd line keeps the NaN and fails.
    cfg = write(tmp_path / "v.cfg", "[model]\nname = overflow\ndimension = 2\n"
                "f1 = 0, 0, 0.5\nf2 = 0, 1\nA11 = 0, 0, 1e300\nA22 = 1\nstate_bound = 1e10\n")
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["validate-model", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 2
    records = [json.loads(l) for l in
               (out / "validation.jsonl").read_text(encoding="utf-8").splitlines()]
    psd = {r["check"]: r for r in records if "check" in r}["psd"]
    assert psd["passed"] is False and np.isnan(psd["residual"])


# --- sweep -------------------------------------------------------------------

SWEEP_BASE = """\
[model]
preset = linear-advection

[grid]
cells = 32

[scheme]
t_end = 0.2
output_every = 0.1

[sweep]
axis = {axis}
values = {values}
"""


def test_sweep_cells_axis(tmp_path, capsys):
    cfg = write(tmp_path / "s.cfg", SWEEP_BASE.format(axis="cells", values="16, 32"))
    out = tmp_path / "out"
    code = main(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].startswith("value,status,l1_initial")
    assert data[1].startswith("16,ok,") and data[2].startswith("32,ok,")
    assert all(l.endswith(",true") for l in data[1:])
    assert (out / "cells-16" / "trajectory.csv").exists()
    assert (out / "cells-32" / "trajectory.csv").exists()
    assert "sweep over cells: 2 row(s)" in capsys.readouterr().out


def test_sweep_cfl_blow_up_row_exits_2(tmp_path):
    cfg = write(tmp_path / "s.cfg",
                SWEEP_BASE.replace("linear-advection", "burgers").format(
                    axis="cfl", values="0.4, 2.0").replace(
                        "t_end = 0.2\noutput_every = 0.1", "t_end = 10.0"))
    out = tmp_path / "out"
    code = main(["sweep", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 2
    rows = [l for l in (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
            if not l.startswith("#") and not l.startswith("value")]
    status = {l.split(",")[0]: l.split(",")[1] for l in rows}
    assert status["0.4"] == "ok"
    assert status["2.0"] == "blow-up"


def test_sweep_rows_match_each_run_artifacts(tmp_path):
    cfg = write(tmp_path / "s.cfg", SWEEP_BASE.replace("linear-advection", "burgers").format(
        axis="amplitude", values="0.5, 1.0"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = [l.split(",") for l in (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
            if not l.startswith("#") and not l.startswith("value")]
    for row in rows:
        sub = out / f"amplitude-{float(row[0]):g}"
        cols = read_trajectory_csv(sub / "trajectory.csv")
        report = json.loads((sub / "audit.jsonl").read_text(encoding="utf-8"))
        assert row[1:] == [
            "ok", repr(float(cols["l1_to_mean"][0])), repr(float(cols["l1_to_mean"][-1])),
            repr(report["mean_drift"]), repr(report["max_principle_violation"]),
            "true" if report["passed"] else "false"]


def test_sweep_rejects_unknown_axis(tmp_path):
    with pytest.raises(ConfigError) as info:
        cmd_sweep(default_config("burgers"), tmp_path / "o", axis="dt", values=[1.0])
    assert info.value.errors == [
        "sweep axis must be cells, cfl, amplitude or lambda_floor, got 'dt'"]


@pytest.mark.parametrize("axis, values, error", [
    ("cells", [10.5], "values on the cells axis must be integers of at least 4, got 10.5"),
    ("cells", [16, 2], "values on the cells axis must be integers of at least 4, got 2.0"),
    ("cfl", [0.2, -1.0], "values on the cfl axis must be positive, got -1.0"),
    ("lambda_floor", [0.0], "values on the lambda_floor axis must be positive, got 0.0"),
])
def test_sweep_entry_applies_the_config_value_rules(tmp_path, axis, values, error):
    # The message is the config path's, without its line number.
    with pytest.raises(ConfigError) as info:
        cmd_sweep(default_config("burgers"), tmp_path / "o", axis=axis, values=values)
    assert info.value.errors == [error]
    assert not (tmp_path / "o").exists()
    text = "[model]\npreset = burgers\n[sweep]\naxis = {}\nvalues = {}\n".format(
        axis, ", ".join(map(repr, values)))
    with pytest.raises(ConfigError) as parsed:
        parse_config(text)
    assert parsed.value.errors == [f"line 5: {error}"]


def test_sweep_lambda_floor_axis(tmp_path):
    cfg = write(tmp_path / "s.cfg", "\n".join([
        "[model]", "preset = burgers", "", FAST_CONDITION,
        "[sweep]", "axis = lambda_floor", "values = 0.01, 0.0001", ""]))
    out = tmp_path / "out"
    code = main(["sweep", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    lines = [l for l in (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
             if not l.startswith("#")]
    assert lines[0] == "value,omega_final,threshold,verdict"
    assert len(lines) == 3
    verdicts = {l.split(",")[0]: l.split(",")[-1] for l in lines[1:]}
    # A floor of 0.01 truncates the ladder before omega decays below the
    # threshold; only the deep floor resolves the verdict. Both are data,
    # not sweep failures.
    assert verdicts["0.01"] == "fail"
    assert verdicts["0.0001"] == "pass"
    assert (out / "lambda_floor-0.01" / "condition.csv").exists()


# --- config and argument errors ----------------------------------------------

def test_missing_config_and_model_is_an_error(capsys):
    code = main(["run"])
    assert code == 1
    assert "config error:" in capsys.readouterr().err


def test_parse_errors_are_reported_per_line(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg",
                "[model]\npreset = nosuch\n\n[grid]\ncells = -4\n")
    code = main(["run", "--config", cfg])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("config error:") >= 2
    assert "line 2" in err and "line 5" in err


def test_run_requires_grid_and_scheme_sections(tmp_path, capsys):
    cfg = write(tmp_path / "bare.cfg", "[model]\npreset = burgers\n")
    code = main(["run", "--config", cfg])
    assert code == 1
    err = capsys.readouterr().err
    assert "[grid]" in err and "[scheme]" in err


def test_sweep_requires_sweep_section(tmp_path, capsys):
    cfg = write(tmp_path / "bare.cfg", "[model]\npreset = burgers\n")
    code = main(["sweep", "--config", cfg])
    assert code == 1
    assert "[sweep]" in capsys.readouterr().err


def test_usage_error_without_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "anisolab.cli"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr


INLINE_RUN_CFG = """\
[model]
dimension = 1
f1 = 0.0, 0.0, 0.5
A11 = 0.0, 0.0, 0.1

[grid]
cells = 32

[scheme]
t_end = 0.1
output_every = 0.05
"""

# Preset runs and condition checks leave scipy unimported; an inline model's
# beta entries are spline tables, which import it on their first build.
STARTUP_SCRIPT = """\
import sys
from anisolab.cli import main

def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]

run_cfg, check_cfg, inline_cfg, out = sys.argv[1:]
assert main(["run", "--config", run_cfg, "--out", out + "/run", "--quiet"]) == 0
assert main(["check-condition", "--config", check_cfg, "--out", out + "/check", "--quiet"]) == 0
assert not scipy_modules(), scipy_modules()
code = main(["run", "--config", inline_cfg, "--out", out + "/inline", "--quiet"])
assert scipy_modules()
sys.exit(code)
"""


def test_presets_and_checks_start_without_scipy(tmp_path):
    run_cfg = write(tmp_path / "run.cfg", "[model]\npreset = burgers-degenerate\n\n"
                    "[grid]\ncells = 32\n\n[scheme]\nt_end = 0.1\noutput_every = 0.05\n")
    check_cfg = write(tmp_path / "c.cfg", "[model]\npreset = burgers-degenerate\n"
                      + FAST_CONDITION)
    inline_cfg = write(tmp_path / "inline.cfg", INLINE_RUN_CFG)
    out = tmp_path / "fresh"
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, run_cfg, check_cfg, inline_cfg, str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert main(["run", "--config", inline_cfg, "--out", str(tmp_path / "here"),
                 "--quiet"]) == 0
    assert body_without_timestamps(out / "inline" / "trajectory.csv") == \
        body_without_timestamps(tmp_path / "here" / "trajectory.csv")


def test_console_entry_point_runs(tmp_path):
    cfg = write(tmp_path / "v.cfg", "[model]\npreset = burgers\n")
    proc = subprocess.run(
        [sys.executable, "-m", "anisolab.cli", "validate-model",
         "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0


# --- the parser --------------------------------------------------------------

COMMANDS = ("run", "check-condition", "validate-model", "sweep")


def test_help_lists_each_command_with_its_description(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["-h"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for name, text in (
            ("run", "integrate one configuration and audit the trajectory"),
            ("check-condition", "sample the nondegeneracy functional"),
            ("validate-model", "check the structural model contracts"),
            ("sweep", "repeat an experiment along one parameter axis")):
        assert any(line.split() == [name, *text.split()] for line in out.splitlines()), name


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--model", "burgers"])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("command, code", zip(COMMANDS, (1, 0, 0, 1)))
def test_every_command_accepts_all_five_options(tmp_path, capsys, command, code):
    # run and sweep stop at their missing config sections, after parsing.
    cfg = write(tmp_path / "c.cfg", "[model]\npreset = burgers\n\n[grid]\ncells = 32\n"
                + FAST_CONDITION)
    assert main([command, "--config", cfg, "--model", "burgers", "--out", str(tmp_path / "o"),
                 "--lattice", "--quiet"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" not in captured.err


@pytest.mark.parametrize("command", COMMANDS)
def test_main_calls_the_command_the_module_holds_at_call_time(tmp_path, monkeypatch, command):
    # A tracer wraps anisolab.cli.cmd_* by setting the module attribute.
    calls = []
    name = "cmd_" + command.replace("-", "_")
    monkeypatch.setattr(f"anisolab.cli.{name}",
                        lambda cfg, out_dir, quiet: calls.append((cfg.preset, out_dir)) or 7)
    assert main([command, "--model", "burgers", "--out", str(tmp_path)]) == 7
    assert calls == [("burgers", str(tmp_path))]


def test_options_may_come_before_the_command(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["--quiet", "check-condition", "--model", "burgers"]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "anisolab-out" / "condition.csv").exists()
