"""Runs ops through ``anisolab.cli.main``, times them and checks their outputs."""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from pathlib import Path

import anisolab.cli as cli

import calibrate
import checks
import micro
import tracing
import workloads

COMMAND = {"run": "run", "check": "check-condition"}


def _dir_bytes(path):
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Executor:
    def __init__(self, work_dir):
        self.work = Path(work_dir)
        self.records = []
        self.self_test = None
        self.speed_samples = []
        self._count = 0

    def execute(self, op):
        """Time one op, then check what it wrote; returns its record."""
        self._count += 1
        cfg_path = self.work / f"op-{self._count}.cfg"
        out = self.work / f"op-{self._count}"
        cfg_path.write_text(op["config"], encoding="utf-8")
        argv = [COMMAND[op["kind"]], "--config", str(cfg_path), "--out", str(out), "--quiet"]
        problems = []
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = None
            problems.append(f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        if code != op["expect_exit"]:
            problems.append(f"exit code {code}, expected {op['expect_exit']}")
        data = None
        if code is not None:
            try:
                data = checks.read_output(op, out)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if data is not None:
            problems.extend(checks.check_output(op, data))
            if self.self_test is None and not problems:
                self._run_self_test(op, data)
        written = _dir_bytes(out) if out.exists() else 0
        shutil.rmtree(out, ignore_errors=True)
        cfg_path.unlink()
        record = {"label": op["label"], "latency": latency, "ok": not problems,
                  "problems": problems[:3], "bytes": written}
        self.records.append(record)
        return record

    def _run_self_test(self, op, data):
        bad, what = checks.perturb(op, data)
        caught = checks.check_output(op, bad)
        self.self_test = {"kind": op["kind"], "perturbation": what,
                          "counted_failed": bool(caught),
                          "problem": caught[0] if caught else None}

    def _round(self, ops, tracer=None, gauge=False):
        latency = 0.0
        written = 0
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = index
            record = self.execute(op)
            if gauge:
                self.speed_samples.append(calibrate.sample())
            latency += record["latency"]
            written += record["bytes"]
        return latency, written

    def _result(self, **extra):
        return {"ops": self.records, "self_test": self.self_test,
                "speed_samples": self.speed_samples,
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                **extra}

    def timed_rounds(self, workload, seed, indices):
        """The given rounds, one op at a time, the speed gauge before the first op and after each."""
        for _ in range(calibrate.WARM_UP):
            calibrate.sample()
        self.speed_samples.append(calibrate.sample())
        for index in indices:
            self._round(workloads.round_ops(workload, seed, index), gauge=True)
        return self._result(rounds=len(indices))

    def traced_rounds(self, workload, seed, pairs):
        """One warm-up op, then round 0 untraced and traced ``pairs`` times; then micro-benchmarks."""
        ops = workloads.round_ops(workload, seed, 0)
        # The first op in a fresh process pays one-off costs (0.7 s at 128^2)
        # that would land on the untraced side of the first pair.
        self.execute(ops[0])
        untraced, traced, layers, traces = [], [], [], []
        for _ in range(pairs):
            untraced.append(self._round(ops)[0])
            tracer = tracing.Tracer()
            tracer.install()
            try:
                latency, written = self._round(ops, tracer)
            finally:
                tracer.uninstall()
            traced.append(latency)
            layers.append(layer_metrics(tracer, written))
            traces.append({"spans": tracer.spans, "aggregates": [
                [name, parent, *slot] for (name, parent), slot in tracer.aggregates.items()]})

        # Counts (ints) must repeat exactly between executions of one round;
        # times and rates are medians over the executions.
        problems = []
        per_layer = dict(layers[0])
        for name, value in per_layer.items():
            if isinstance(value, int):
                if any(other[name] != value for other in layers[1:]):
                    problems.append(f"{name} differs between executions of one round")
            else:
                per_layer[name] = statistics.median(other[name] for other in layers)
        measured, micro_problems = micro.run_all(ops[0]["kind"], [op["config"] for op in ops])
        per_layer.update(measured)
        problems.extend(micro_problems)
        per_layer["trace.overhead_frac"] = (statistics.median(traced)
                                            / statistics.median(untraced) - 1.0)
        return self._result(per_layer=per_layer, problems=problems,
                            untraced=untraced, traced=traced, trace=traces)


def layer_metrics(tracer, bytes_written):
    """Per-layer numbers for one traced round (sums over the round's ops)."""
    spans = tracer.spans
    agg = tracer.aggregates

    def spans_named(name):
        return [s for s in spans if s["name"] == name]

    def duration(name):
        return sum((s["end"] - s["start"] for s in spans_named(name)), 0.0)

    def agg_sum(name, field, start=0):
        return sum((slot[field] for (n, _), slot in agg.items() if n == name), start)

    out = {}
    runs = spans_named("solver.run")
    steps = sum(s.get("steps", 0) for s in runs)
    run_s = duration("solver.run")
    out["solver.steps"] = steps
    out["solver.dt_min"] = min((s["dt_min"] for s in runs if "dt_min" in s), default=0.0)
    out["solver.dt_max"] = max((s["dt_max"] for s in runs if "dt_max" in s), default=0.0)
    out["solver.us_per_step"] = run_s / steps * 1e6 if steps else 0.0
    out["solver.cell_updates_per_s"] = (
        sum(s.get("steps", 0) * s.get("cells", 0) for s in runs) / run_s if run_s else 0.0)
    out["solver.self_s"] = sum((s["self"] for s in runs), 0.0)
    for name in tracing.MODEL_CALLABLES:
        out[f"model.{name}_calls"] = agg_sum(f"model.{name}", 0)
        out[f"model.{name}_s"] = agg_sum(f"model.{name}", 1, 0.0)

    adaptive = agg_sum("quadrature.adaptive_quadrature", 0)
    intervals = agg_sum("quadrature.gauss_kronrod_panel", 3)
    out["quadrature.adaptive_calls"] = adaptive
    out["quadrature.gk_calls"] = agg_sum("quadrature.gauss_kronrod_panel", 0)
    out["quadrature.gk_intervals"] = intervals
    out["quadrature.intervals_per_integral"] = intervals / adaptive if adaptive else 0.0
    out["quadrature.gk_s"] = agg_sum("quadrature.gauss_kronrod_panel", 1, 0.0)

    out["kinetic.points"] = sum(s.get("points", 0) for s in spans_named("kinetic.frequency_points"))
    out["kinetic.omega_evals"] = agg_sum("kinetic.omega_at", 0)
    out["kinetic.frequency_points_s"] = duration("kinetic.frequency_points")

    out["diagnostics.audit_s"] = duration("diagnostics.audit")
    out["diagnostics.decay_summary_s"] = duration("diagnostics.decay_summary")

    out["cli.write_s"] = sum((s["self"] for s in spans if s["name"].startswith("cli.")), 0.0)
    out["cli.bytes_written"] = bytes_written
    return out
