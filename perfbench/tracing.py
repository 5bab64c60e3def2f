"""Spans around calls into each anisolab layer, recorded from outside the package.

``Tracer.install`` replaces module attributes (and the callables of every
model built by ``make_model``) with timing wrappers; ``uninstall`` puts the
originals back. A span is named ``<layer>.<function>``. Coarse calls keep
one record each (name, start, end, parent span, op id); calls made
once or more per solver step or per quadrature panel are aggregated by
(name, parent name) so memory stays bounded. Self time is a span's
duration minus the time covered by its child spans. The benchmark's ops
run on one thread, so one span stack suffices.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import sys
import time

MODEL_CALLABLES = ("flux", "speed", "diffusion", "b_primitive", "beta_primitive")


def _run_stats(args, result):
    stats = result.stats
    cells = 1
    for n in result.grid.cells:
        cells *= n
    return {"steps": stats.steps, "dt_min": stats.dt_min, "dt_max": stats.dt_max,
            "cells": cells}


# (module, attribute, span name, aggregated, extra-fields callback)
_TARGETS = (
    ("anisolab.cli", "cmd_run", "cli.cmd_run", False, None),
    ("anisolab.cli", "cmd_check_condition", "cli.cmd_check_condition", False, None),
    ("anisolab.cli", "write_trajectory_csv", "cli.write_trajectory_csv", False, None),
    ("anisolab.cli", "write_condition_csv", "cli.write_condition_csv", False, None),
    ("anisolab.config", "parse_config", "config.parse_config", False, None),
    ("anisolab.config", "make_initial", "config.make_initial", False, None),
    ("anisolab.solver", "run", "solver.run", False, _run_stats),
    ("anisolab.model", "primitive_tables", "model.primitive_tables", False, None),
    ("anisolab.diagnostics", "audit", "diagnostics.audit", False, None),
    ("anisolab.diagnostics", "decay_summary", "diagnostics.decay_summary", False, None),
    ("anisolab.kinetic", "check_condition", "kinetic.check_condition", False, None),
    ("anisolab.kinetic", "omega_at", "kinetic.omega_at", True, None),
    ("anisolab.quadrature", "adaptive_quadrature", "quadrature.adaptive_quadrature", True, None),
    ("anisolab.quadrature", "gauss_kronrod_panel", "quadrature.gauss_kronrod_panel", True,
     lambda args, result: {"items": len(args[1])}),
)


class Tracer:
    """In-memory span recorder; one per traced round."""

    def __init__(self):
        self.op_id = None
        self.spans = []
        self.aggregates = {}  # (name, parent name) -> [calls, total s, self s, items]
        self._ids = itertools.count()
        self._stack = []
        self._patches = []

    def wrap(self, fn, name, aggregate=False, extra=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [name, None if aggregate else next(tracer._ids), 0.0]
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                fields = extra(args, result) if extra and result is not None else {}
                if aggregate:
                    key = (name, parent[0] if parent else None)
                    slot = tracer.aggregates.setdefault(key, [0, 0.0, 0.0, 0])
                    slot[0] += 1
                    slot[1] += dur
                    slot[2] += dur - frame[2]
                    slot[3] += fields.get("items", 0)
                else:
                    tracer.spans.append({
                        "id": frame[1], "name": name, "start": start, "end": end,
                        "self": dur - frame[2], "parent": parent[1] if parent else None,
                        "parent_name": parent[0] if parent else None,
                        "op": tracer.op_id, **fields})
        return traced

    def _wrap_model(self, make_model):
        tracer = self

        @functools.wraps(make_model)
        def traced_make_model(*args, **kwargs):
            model = make_model(*args, **kwargs)
            wrapped = {name: tracer.wrap(getattr(model, name), f"model.{name}", aggregate=True)
                       for name in MODEL_CALLABLES if getattr(model, name) is not None}
            return dataclasses.replace(model, **wrapped)
        return self.wrap(traced_make_model, "config.make_model")

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "anisolab" or n.startswith("anisolab.")) and m is not None]
        targets = [(importlib.import_module(mod), attr, *rest) for mod, attr, *rest in _TARGETS]
        replacements = {}
        for module, attr, name, aggregate, extra in targets:
            original = getattr(module, attr)
            replacements[id(original)] = (original, self.wrap(original, name, aggregate, extra))
        config = importlib.import_module("anisolab.config")
        replacements[id(config.make_model)] = (config.make_model, self._wrap_model(config.make_model))
        # A function imported by name into several modules is patched in each.
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        plan = importlib.import_module("anisolab.kinetic").SamplingPlan
        original = plan.frequency_points
        self._patches.append((plan, "frequency_points", original))
        plan.frequency_points = self.wrap(
            original, "kinetic.frequency_points",
            extra=lambda args, result: {"points": len(result)})

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
