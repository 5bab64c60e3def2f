"""Command-line front end: run, check-condition, validate-model, sweep.

Artifacts are CSV and JSON-lines with deterministic bodies; the only
nondeterministic byte in any output is the `# generated <timestamp>`
comment line at the top of CSV files, so reruns on identical configs can
be diffed directly. Exit codes: 0 success/pass, 1 configuration or
runtime error, 2 audit or validation failure, 3 condition fails, 4
condition inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from itertools import product
from pathlib import Path

import numpy as np

from .config import (
    SWEEP_AXES,
    ConfigError,
    default_config,
    make_grid,
    make_initial,
    make_model,
    make_sampling,
    make_scheme,
    parse_config,
    serialize_config,
    sweep_value_error,
)
from .diagnostics import audit, decay_summary
from .kinetic import check_condition
from .model import ModelError, validate_model
from .quadrature import QuadratureError
from .solver import BlowUpError, ConfigurationError, run

__all__ = [
    "main",
    "app",
    "cmd_run",
    "cmd_check_condition",
    "cmd_validate_model",
    "cmd_sweep",
    "read_trajectory_csv",
]

_EXIT_BY_VERDICT = {"pass": 0, "fail": 3, "inconclusive": 4}


def _timestamp():
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _fmt(x):
    # repr of a builtin float is the shortest round-tripping form; numpy
    # scalars must be converted first or their type name leaks into the CSV.
    return repr(float(x))


def _write_text(path, text):
    """Write ``text`` to ``path``, whose directory the command has made."""
    Path(path).write_text(text, encoding="utf-8")


def _write_csv(path, header, rows, comment=None):
    lines = [f"# generated {_timestamp()}"]
    if comment is not None:
        lines.append(comment)
    lines.append(header)
    lines.extend(rows)
    _write_text(path, "\n".join(lines) + "\n")


def _write_jsonl(path, records):
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    _write_text(path, "\n".join(lines) + "\n")


def write_trajectory_csv(path, traj):
    header = "t,mean,l1_to_mean,l2_energy,linf,dissipation_resolved,dissipation_budget"
    rows = [
        ",".join(_fmt(v) for v in (r.t, r.mean, r.l1_to_mean, r.l2_energy,
                                   r.linf, r.dissipation_resolved,
                                   r.dissipation_budget))
        for r in traj.rows
    ]
    _write_csv(path, header, rows)


def write_snapshot_csv(path, snap, grid):
    """One row per cell, row-major: its center's coordinates, then its value."""
    centers = [[_fmt(c) for c in grid.centers(k)] for k in range(grid.dimension)]
    lines = [f"# t={_fmt(snap.time)}", ",".join((*"xy"[:grid.dimension], "u"))]
    lines.extend(",".join((*xs, _fmt(u)))
                 for xs, u in zip(product(*centers), snap.values.ravel().tolist()))
    _write_text(path, "\n".join(lines) + "\n")


def write_condition_csv(path, report, dimension):
    header = "lambda,omega,tau_witness," + ",".join(
        f"kappa_witness_{c + 1}" for c in range(dimension))
    rows = []
    for lam, om, fp in zip(report.lambdas, report.omegas, report.witnesses):
        cells = [_fmt(lam), _fmt(om), _fmt(fp.tau)] + [_fmt(c) for c in fp.kappa]
        rows.append(",".join(cells))
    _write_csv(path, header, rows)


def read_trajectory_csv(path):
    """Columns of a trajectory CSV as a dict of arrays."""
    body = [line for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]
    if not body:
        raise ValueError(f"{path}: no header line")
    names = body[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
    if data.size == 0:
        data = data.reshape(0, len(names))
    return {name: data[:, k] for k, name in enumerate(names)}


def _run_and_write(cfg, out):
    """Integrate, audit and summarize one config and write its artifacts.

    Returns (trajectory, audit report, decay summary), or None after a
    blow-up (reported on stderr, with the partial trajectory written).
    """
    model = make_model(cfg)
    grid = make_grid(cfg, model.dimension)
    scheme = make_scheme(cfg)
    fld = make_initial(cfg, grid)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "config.txt", serialize_config(cfg))

    try:
        traj = run(model, grid, fld, scheme)
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.trajectory is not None:
            write_trajectory_csv(out / "trajectory.csv", exc.trajectory)
        return None

    write_trajectory_csv(out / "trajectory.csv", traj)
    if traj.snapshots:
        (out / "snapshots").mkdir(exist_ok=True)
    for k, snap in enumerate(traj.snapshots):
        write_snapshot_csv(out / "snapshots" / f"snap-{k:04d}.csv", snap, grid)

    report = audit(traj)
    summary = decay_summary(traj)
    _write_jsonl(out / "audit.jsonl", [report.as_dict()])
    _write_text(out / "audit.txt", "\n".join(report.lines()) + "\n")
    _write_jsonl(out / "decay.jsonl", summary.as_dicts())
    _write_text(out / "decay.txt", "\n".join(summary.lines()) + "\n")
    return traj, report, summary


def cmd_run(cfg, out_dir, quiet=False):
    """Integrate, audit, summarize decay; write all artifacts."""
    out = Path(out_dir)
    result = _run_and_write(cfg, out)
    if result is None:
        return 1
    traj, report, summary = result
    if not quiet:
        print(f"model {traj.model_name}: {traj.stats.steps} steps to t={traj.scheme.t_end:g}")
        print("\n".join(report.lines()))
        print("\n".join(summary.lines()))
        print(f"artifacts in {out}")
    return 0 if report.passed else 2


def _check_and_write(cfg, out):
    """Check the condition for one config and write its artifacts; returns the report."""
    model = make_model(cfg)
    # A configured grid supplies the lattice periods, including the 1.0
    # per-axis default applied when only cells are given.
    grid = make_grid(cfg, model.dimension) if cfg.cells is not None else None
    report = check_condition(model, delta=cfg.delta, lambdas=list(cfg.lambdas),
                             sampling=make_sampling(cfg, grid=grid))
    out.mkdir(parents=True, exist_ok=True)
    write_condition_csv(out / "condition.csv", report, model.dimension)
    _write_text(out / "condition.txt", "\n".join(report.lines()) + "\n")
    return report


def cmd_check_condition(cfg, out_dir, quiet=False):
    """Sample the nondegeneracy functional and grade the verdict."""
    report = _check_and_write(cfg, Path(out_dir))
    if not quiet:
        print("\n".join(report.lines()))
    return _EXIT_BY_VERDICT[report.verdict]


def cmd_validate_model(cfg, out_dir, quiet=False):
    """Run the structural checks on the configured model."""
    model = make_model(cfg)
    report = validate_model(model)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = [
        {"check": name, "residual": c.residual, "tolerance": c.tolerance,
         "passed": c.passed}
        for name, c in sorted(report.checks.items())
    ]
    records.append({"model": report.model_name, "samples": report.samples,
                    "passed": report.overall_pass})
    _write_jsonl(out / "validation.jsonl", records)
    _write_text(out / "validation.txt", "\n".join(report.lines()) + "\n")
    if not quiet:
        print(f"validate {report.model_name}:")
        print("\n".join(report.lines()))
    return 0 if report.overall_pass else 2


def _sweep_run_one(cfg, axis, value, out):
    """One run row of a sweep: its CSV cells and whether it failed. The axis names the
    config field it sets; a cells value is a whole count repeated per axis."""
    value = int(value) if axis == "cells" else float(value)
    setting = (value,) * make_model(cfg).dimension if axis == "cells" else value
    result = _run_and_write(replace(cfg, **{axis: setting}), out / f"{axis}-{value:g}")
    val = repr(value)
    if result is None:
        return [val, "blow-up"] + [_fmt(float("nan"))] * 4 + ["false"], True
    traj, report, _ = result
    return [val, "ok", _fmt(traj.rows[0].l1_to_mean), _fmt(traj.rows[-1].l1_to_mean),
            _fmt(report.mean_drift), _fmt(report.max_principle_violation),
            "true" if report.passed else "false"], not report.passed


def _sweep_condition_one(cfg, floor, out):
    """One condition row of a sweep: its CSV cells; a verdict is never a failure."""
    lams = [l for l in cfg.lambdas if l > floor * (1.0 + 1e-12)] + [float(floor)]
    sub = replace(cfg, lambdas=tuple(lams))
    report = _check_and_write(sub, out / f"lambda_floor-{float(floor):g}")
    return [_fmt(floor), _fmt(report.omegas[-1]), _fmt(report.pass_threshold),
            report.verdict], False


def cmd_sweep(cfg, out_dir, quiet=False, axis=None, values=None):
    """Repeat one experiment along a numeric axis; one CSV row per value.

    Rows run one after another in the order of the requested values. Exit
    2 flags rows that blew up or failed their audit; condition verdicts are
    findings, not failures.
    """
    axis = axis if axis is not None else cfg.sweep_axis
    values = values if values is not None else cfg.sweep_values
    if axis not in SWEEP_AXES:
        raise ConfigError([f"sweep axis must be {', '.join(SWEEP_AXES[:-1])} or "
                           f"{SWEEP_AXES[-1]}, got {axis!r}"])
    values = list(values)
    error = sweep_value_error(axis, values) if values else "sweep needs a non-empty value list"
    if error is not None:
        raise ConfigError([error])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if axis == "lambda_floor":
        header = "value,omega_final,threshold,verdict"
        rows = [_sweep_condition_one(cfg, float(v), out) for v in values]
    else:
        header = ("value,status,l1_initial,l1_final,mean_drift,"
                  "max_principle_violation,audit_pass")
        rows = [_sweep_run_one(cfg, axis, v, out) for v in values]
    body = [",".join(cells) for cells, _ in rows]
    failed = any(bad for _, bad in rows)

    _write_csv(out / "sweep.csv", header, body, comment=f"# axis {axis}")
    if not quiet:
        print(f"sweep over {axis}: {len(rows)} row(s)")
        print(header)
        print("\n".join(body))
        print(f"artifacts in {out}")
    return 2 if failed else 0


# Each command's required config sections and help; main runs its cmd_ function
# (the name with - read as _).
_COMMANDS = {
    "run": (("model", "grid", "scheme"), "integrate one configuration and audit the trajectory"),
    "check-condition": (("model",), "sample the nondegeneracy functional"),
    "validate-model": (("model",), "check the structural model contracts"),
    "sweep": (("model", "sweep"), "repeat an experiment along one parameter axis"),
}


def _load_config(args):
    if args.config is None and args.model is None:
        raise ConfigError(["need --config FILE or --model PRESET"])
    if args.config is not None:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"),
                           required_sections=_COMMANDS[args.command][0])
        if args.model is not None:
            cfg.preset = args.model
            cfg.dimension = None
            cfg.flux_coeffs = None
            cfg.diffusion_coeffs = None
    else:
        cfg = default_config(args.model)
    if args.lattice:
        cfg.lattice = True
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="anisolab",
        description="Simulation laboratory for degenerate convection-diffusion "
                    "on periodic boxes.",
        epilog="commands:\n" + "".join(f"  {name:<17}{text}\n"
                                      for name, (_, text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=tuple(_COMMANDS), help="what to do (below)")
    parser.add_argument("--config", metavar="PATH", help="experiment config file")
    parser.add_argument("--model", metavar="PRESET",
                        help="preset name; with --config it overrides [model]")
    parser.add_argument("--out", metavar="DIR", help="artifact directory")
    parser.add_argument("--lattice", action="store_true",
                        help="snap condition sampling to the grid wave lattice")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout reports")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args)
        out_dir = args.out or cfg.directory or "anisolab-out"
        # Looked up at call time, so a patched module attribute (a tracer's) is the one called.
        command = globals()["cmd_" + args.command.replace("-", "_")]
        return command(cfg, out_dir, quiet=args.quiet)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    except (ConfigurationError, ModelError, QuadratureError, ValueError,
            KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def app():
    raise SystemExit(main())


if __name__ == "__main__":
    app()
