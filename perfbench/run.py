"""anisolab benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout. Each invocation measures one
workload (see ``workloads.WORKLOADS``) in fresh child interpreters that
import ``anisolab`` from ``src/``:

* ``--trace 0`` spawns TIMING_CHILDREN interpreters one after another; each
  prepares the first op, then times every TIMING_CHILDREN-th of the run's
  rounds (``--seconds`` divided by the workload's nominal round time, see
  ``workloads.py``). Several processes average out what one process's memory
  layout does to its speed. It prints the end-to-end metrics: ``setup_s``
  (fresh interpreter to first op ready, median over the children), ``wall_s``
  (summed latency of all the run's ops, each child's first-op one-off costs
  included), ``op_p50_s`` and ``op_tail_s`` (per-op latency), ``peak_rss_mb``
  (peak resident memory of the largest child) and ``op_failure_rate``.
  ``setup_s``, and the op times of the workloads in ``workloads.SCALED``, are
  scaled to the reference host speed by the gauge of ``calibrate.py``, timed
  between ops; the unscaled figures are printed beside them.
* ``--trace 1`` runs round 0 untraced and traced in turn, with spans from
  ``tracing.py`` around every layer, then the micro-benchmarks of
  ``micro.py``, and prints the per-layer metrics.

Every op's outputs are checked (``checks.py``); a failed check counts the op
as failed. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``. Exits non-zero without a result when the checkout has no
``src/anisolab`` or a child fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

TIMING_CHILDREN = 5
DEADLINE_S = 170.0
TAIL_BEYOND = 10

# Hand-measured per-step costs from the ROADMAP table (2-core box, sine, t=5).
ROADMAP_US_PER_STEP = {"run-1d-degenerate": ("burgers-degenerate", 452.0),
                       "run-2d-aniso": ("anisotropic-2d (128^2)", 8000.0)}


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(mode, args, work, deadline, part=0, parts=1):
    """Run one child to completion; returns (spawn time, result dict)."""
    result_path = work / f"{mode}-{time.monotonic_ns()}.json"
    argv = [sys.executable, str(HERE / "child.py"), mode, args.workload, str(args.seed),
            str(args.seconds), str(work), str(result_path), str(part), str(parts)]
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env())
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: {mode} child exceeded the {DEADLINE_S:g} s budget")
    if code != 0 or not result_path.exists():
        raise SystemExit(f"error: {mode} child exited with code {code}")
    return spawned, json.loads(result_path.read_text(encoding="utf-8"))


def _tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it.

    Below 3 * TAIL_BEYOND ops that percentile is under p67, no tail at all,
    so the maximum is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 3 * TAIL_BEYOND:
        return ordered[-1], f"max of {n} ops (fewer than {3 * TAIL_BEYOND})"
    return ordered[n - TAIL_BEYOND - 1], (
        f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n} ops, {TAIL_BEYOND} beyond")


def _provenance(args, child, ops):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "anisolab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ops": ops, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": child["versions"]["numpy"],
            "scipy": child["versions"]["scipy"], "git_commit": commit,
            "source_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not (ROOT / "src" / "anisolab" / "__init__.py").is_file():
        print(f"error: no anisolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            children = [_spawn("trace", args, work, deadline)]
        else:
            parts = min(TIMING_CHILDREN, workloads.round_count(args.workload, args.seconds))
            children = [_spawn("run", args, work, deadline, part, parts) for part in range(parts)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup = [child["ready"] - spawned for spawned, child in children]
    children = [child for _, child in children]
    child = children[0]

    records = [r for c in children for r in c["ops"]]
    latencies = [r["latency"] for r in records]
    failed = [r for r in records if not r["ok"]]
    self_tests = [c["self_test"] for c in children]
    problems = [p for c in children for p in c.get("problems", [])]
    if any(t is None or not t["counted_failed"] for t in self_tests):
        problems.append("self-test: a perturbed output was not counted as failed")

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}): {why}")
    if args.trace:
        metrics = child["per_layer"]
        notes = {"trace.overhead_frac": f"traced {statistics.median(child['traced']):.4f} s vs "
                 f"untraced {statistics.median(child['untraced']):.4f} s per round, "
                 f"{len(child['traced'])} pair(s)",
                 "quadrature.intervals_per_integral": "base: GK15 intervals per adaptive_quadrature call"}
        trace_dir = ROOT / ".perfbench-work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(child["trace"]), encoding="utf-8")
    else:
        gauge = [g for c in children for g in c["speed_samples"]]
        gauge_s = statistics.median(gauge)
        speed = calibrate.REFERENCE_S / gauge_s
        op_speed = speed if args.workload in workloads.SCALED else 1.0
        tail, tail_note = _tail(latencies)
        raw = {"setup_s": statistics.median(setup), "wall_s": sum(latencies),
               "op_p50_s": statistics.median(latencies), "op_tail_s": tail}
        metrics = {name: value * (speed if name == "setup_s" else op_speed)
                   for name, value in raw.items()}
        metrics["peak_rss_mb"] = max(c["rss_mb"] for c in children)
        notes = {"setup_s": f"median of {len(setup)} fresh interpreters",
                 "wall_s": f"sum of {len(records)} ops ({sum(c['rounds'] for c in children)} "
                           f"rounds in {len(children)} processes)",
                 "op_p50_s": f"median of {len(records)} ops", "op_tail_s": tail_note}
        for name, value in raw.items():
            notes[name] = f"{value:.4f} s unscaled; " + notes[name]
        print(f"  speed gauge: median {gauge_s * 1e3:.3f} ms of {len(gauge)} samples, "
              f"reference {calibrate.REFERENCE_S * 1e3:g} ms: set-up "
              f"scaled by {speed:.4f}, op times by {op_speed:.4f}")

    out = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"  {name:<40} {metrics[name]:>16.6g} {unit:<10} {notes.get(name, '')}")
    print(f"  {'op_failure_rate':<40} {len(failed) / len(records):>16.6g} {'fraction':<10} "
          f"{len(failed)} failed / {len(records)} attempted")
    if args.trace and args.workload in ROADMAP_US_PER_STEP:
        label, hand = ROADMAP_US_PER_STEP[args.workload]
        print(f"  solver.us_per_step {metrics['solver.us_per_step']:.1f} us beside the ROADMAP's "
              f"hand-measured {hand:g} us for {label}")
    if args.trace:
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    caught = sum(1 for t in self_tests if t is not None and t["counted_failed"])
    first = next((t for t in self_tests if t is not None), None)
    if first is not None:
        print(f"self-test ({first['kind']}): {first['perturbation']}: counted as failed in "
              f"{caught} of {len(self_tests)} processes")
    for record in failed[:5]:
        print(f"failed op {record['label']}: {'; '.join(record['problems'])}", file=sys.stderr)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("provenance: " + json.dumps(_provenance(args, child, len(records)), sort_keys=True))
    print(json.dumps({"correct": not failed and not problems, "attempted": len(records),
                      "failed": len(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
