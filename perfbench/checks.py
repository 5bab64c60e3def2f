"""Output checks that read the artifacts, not the program's own audit.

Each ``read_*`` function parses one op's artifact directory into plain
data; each ``check_*`` function returns a list of problems (empty when the
output is right). Keeping the two apart lets the self-test feed a
deliberately perturbed copy of a real output through the same check.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from pathlib import Path

# Fixed points taken from the program's documented guarantees; they are not
# tuned to the benchmark data.
MEAN_TOL = 1e-12       # mean conservation (AuditTolerances.mean_conservation)
LINF_TOL = 1e-10       # maximum principle (AuditTolerances.max_principle)
MONOTONE_TOL = 1e-12   # energy and L1-to-mean steps (AuditTolerances.energy)
OMEGA_TOL = 1e-8       # ten times the kinetic quadrature tolerance
ADVECTION_OMEGA = 2.0 - 1e-6
RESONANCE_TOL = 1e-9
PASS_OMEGA = 0.1

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_trajectory(path):
    rows = _csv_rows(path)
    return {name: [float(r[name]) for r in rows]
            for name in ("t", "mean", "l1_to_mean", "l2_energy", "linf")}


def check_trajectory(traj, t_end):
    problems = []
    n = len(traj["t"])
    if n < 2:
        return [f"trajectory has {n} row(s)"]
    if any(not math.isfinite(v) for col in traj.values() for v in col):
        problems.append("trajectory holds a non-finite value")
    if abs(traj["t"][-1] - t_end) > 1e-12 * max(1.0, t_end):
        problems.append(f"last row at t={traj['t'][-1]!r}, expected {t_end!r}")
    mean0 = traj["mean"][0]
    drift = max(abs(m - mean0) for m in traj["mean"])
    if drift > MEAN_TOL:
        problems.append(f"mean drifts by {drift:.3e} > {MEAN_TOL:g}")
    linf0 = traj["linf"][0]
    growth = max(v - linf0 for v in traj["linf"])
    if growth > LINF_TOL:
        problems.append(f"linf exceeds its initial value by {growth:.3e}")
    for name in ("l2_energy", "l1_to_mean"):
        col = traj[name]
        jump = max(b - a for a, b in zip(col, col[1:]))
        if jump > MONOTONE_TOL:
            problems.append(f"{name} increases by {jump:.3e} between rows")
    return problems


def read_condition(out_dir):
    out = Path(out_dir)
    rows = _csv_rows(out / "condition.csv")
    verdict = None
    for line in (out / "condition.txt").read_text(encoding="utf-8").splitlines():
        if line.strip().startswith("verdict:"):
            verdict = line.split(":", 1)[1].strip()
    return {
        "lambdas": [float(r["lambda"]) for r in rows],
        "omegas": [float(r["omega"]) for r in rows],
        "tau": [float(r["tau_witness"]) for r in rows],
        "kappa1": [float(r["kappa_witness_1"]) for r in rows],
        "verdict": verdict,
    }


def check_condition(data, preset, expect_verdict, lambdas):
    problems = []
    if data["verdict"] != expect_verdict:
        problems.append(f"verdict {data['verdict']!r}, expected {expect_verdict!r}")
    ref = REFERENCE["omegas"][preset]
    if data["lambdas"] != list(lambdas):
        problems.append(f"lambda ladder {data['lambdas']} differs from the requested {lambdas}")
        return problems
    for lam, om in zip(data["lambdas"], data["omegas"]):
        # The sampled sup is a lower bound: more sampling may raise it only.
        if om < ref[repr(lam)] - OMEGA_TOL:
            problems.append(f"omega({lam:g}) = {om!r} below reference {ref[repr(lam)]!r}")
    if expect_verdict == "fail":
        if min(data["omegas"]) < ADVECTION_OMEGA:
            problems.append(f"min omega {min(data['omegas'])!r} < {ADVECTION_OMEGA!r}")
        if abs(data["tau"][-1] + data["kappa1"][-1]) >= RESONANCE_TOL:
            problems.append("final witness is not resonant (|tau + kappa| >= 1e-9)")
    elif data["omegas"][-1] >= PASS_OMEGA:
        problems.append(f"final omega {data['omegas'][-1]!r} >= {PASS_OMEGA}")
    return problems


def read_output(op, out_dir):
    if op["kind"] == "run":
        return read_trajectory(Path(out_dir) / "trajectory.csv")
    return read_condition(out_dir)


def check_output(op, data):
    if op["kind"] == "run":
        return check_trajectory(data, op["t_end"])
    return check_condition(data, op["preset"], op["expect_verdict"], op["lambdas"])


def perturb(op, data):
    """A copy of a passing output with one guarantee broken."""
    bad = copy.deepcopy(data)
    if op["kind"] == "run":
        bad["linf"][-1] = bad["linf"][0] + 1e-6
        what = "linf of the last trajectory row raised above its initial value"
    else:
        bad["omegas"][-1] = REFERENCE["omegas"][op["preset"]][repr(bad["lambdas"][-1])] - 1e-6
        what = "final omega lowered 1e-6 below its reference"
    return bad, what
