"""Smoke tests of the scripts in tools/."""

import importlib.util
import math
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loc_totals_are_the_modules_newline_counts(capsys):
    assert _tool("loc").main([str(ROOT / "src")]) == 0
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "lines", "code", "compile_ms"]
    newlines = {f"anisolab/{p.name}": p.read_bytes().count(b"\n")
                for p in (ROOT / "src" / "anisolab").glob("*.py")}
    assert {name: int(lines) for name, lines, _, _ in rows} == newlines
    assert all(0 < int(code) < int(lines) for _, lines, code, _ in rows)
    assert total[:3] == ["total", str(sum(newlines.values())),
                         str(sum(int(code) for _, _, code, _ in rows))]
    # Each printed time is rounded to 0.01 ms, so their sum may miss the total by that much.
    times = [float(ms) for *_, ms in rows]
    assert all(ms >= 0 for ms in times)
    assert float(total[3]) == pytest.approx(sum(times), abs=0.005 * len(times) + 1e-9)


def test_loc_counts_no_comment_blank_or_docstring_line_as_code():
    text = ('"""Module\ndocstring."""\n\n# a comment\ndef f():\n    """Doc."""\n'
            '    s = """two\n    lines"""  # trailing\n    return s\n')
    assert _tool("loc").count(text) == (9, 4)


def test_compare_outputs_finds_no_difference_between_a_tree_and_itself(capsys):
    src = str(ROOT / "src")
    assert _tool("compare_outputs").main([src, src, "--only", "run/window"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and re.fullmatch(r"0 of [1-9]\d* cases differ", lines[0])


def test_compare_outputs_reports_a_planted_change_of_one_ulp(tmp_path, capsys):
    # The second stage's factor one ulp above 0.5 moves the last bits of every
    # two-stage run: the tool must name such cases and exit 1.
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "src" / "anisolab" / "solver.py"
    text = solver.read_text(encoding="utf-8")
    assert text.count("_HALF = np.array(0.5)\n") == 1
    solver.write_text(text.replace("_HALF = np.array(0.5)\n",
                                   f"_HALF = np.array({math.nextafter(0.5, 1.0)!r})\n"),
                      encoding="utf-8")
    assert _tool("compare_outputs").main(
        [str(ROOT / "src"), str(tmp_path / "src"), "--only", "run/window"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^DIFF run/window/\S+: ", out, re.M)
    assert re.search(r"^[1-9]\d* of [1-9]\d* cases differ$", out, re.M)
