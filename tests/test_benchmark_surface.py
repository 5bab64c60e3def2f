"""The names the benchmark harness in perfbench/ imports, patches and traces.

perfbench/ runs ``anisolab.cli.main`` and wraps package functions by name,
so deleting or renaming one of them breaks the benchmark, not the package.
This test imports the harness modules and makes one tiny traced run.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

RUN_CFG = """\
[model]
preset = burgers-degenerate

[grid]
cells = 32

[scheme]
t_end = 0.01
output_every = 0.005
"""


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import child  # noqa: F401  imported for the names it takes from anisolab
    import executor
    import micro  # noqa: F401
    import tracing
    return executor, tracing


def test_harness_imports_and_traces_a_run(harness, tmp_path):
    executor, tracing = harness
    import anisolab.cli as cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG, encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    finally:
        tracer.uninstall()
    assert code == 0
    runs = [s for s in tracer.spans if s["name"] == "solver.run"]
    assert len(runs) == 1 and runs[0]["steps"] > 0 and runs[0]["cells"] == 32
    metrics = executor.layer_metrics(tracer, 0)
    assert metrics["solver.steps"] == runs[0]["steps"]
    assert metrics["model.flux_calls"] > 0
    # uninstall put every original back.
    assert not hasattr(cli.cmd_run, "__wrapped__")
    assert not hasattr(sys.modules["anisolab.solver"].run, "__wrapped__")
