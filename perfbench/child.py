"""One fresh interpreter per measurement: ``child.py MODE WORKLOAD SEED SECONDS WORK_DIR RESULT PART PARTS``.

Every child first prepares the first op and records when it is ready. MODE
``run`` then times its share of the run's rounds (rounds PART, PART + PARTS,
...), untraced. MODE ``trace`` (PART 0, PARTS 1) runs a warm-up op, then
untraced and traced executions of round 0, half as many pairs as the run has
rounds, then micro-benchmarks. The result is written as JSON to RESULT; the
parent turns it into metrics. Every op's outputs are checked after its timer
stops.
"""

from __future__ import annotations

import json
import sys
import time

import workloads
from anisolab.config import make_grid, make_initial, make_model, parse_config
from anisolab.model import primitive_tables

READY = time.monotonic  # cross-process clock: CLOCK_MONOTONIC on Linux


def prepare(op):
    """What the first op's command builds before its own work starts."""
    cfg = parse_config(op["config"])
    model = make_model(cfg)
    grid = make_grid(cfg, model.dimension)
    if op["kind"] == "run":
        primitive_tables(model)
        make_initial(cfg, grid)


def main(argv):
    mode, workload, seed, seconds, work_dir, result_path, part, parts = argv
    seed, seconds, part, parts = int(seed), float(seconds), int(part), int(parts)
    import anisolab.cli  # noqa: F401  the op entry point belongs to setup
    prepare(workloads.round_ops(workload, seed, 0)[0])
    ready = READY()
    import executor
    runner = executor.Executor(work_dir)
    rounds = workloads.round_count(workload, seconds)
    if mode == "run":
        result = runner.timed_rounds(workload, seed, range(part, rounds, parts))
    else:
        result = runner.traced_rounds(workload, seed, max(1, rounds // 2))
    result["ready"] = ready
    import numpy
    import scipy
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
