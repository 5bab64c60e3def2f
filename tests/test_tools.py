"""Smoke tests of the scripts in tools/."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loc_totals_are_the_modules_newline_counts(capsys):
    assert _tool("loc").main([str(ROOT / "src")]) == 0
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "lines", "code"]
    newlines = {f"anisolab/{p.name}": p.read_bytes().count(b"\n")
                for p in (ROOT / "src" / "anisolab").glob("*.py")}
    assert {name: int(lines) for name, lines, _ in rows} == newlines
    assert all(0 < int(code) < int(lines) for _, lines, code in rows)
    assert total == ["total", str(sum(newlines.values())),
                     str(sum(int(code) for _, _, code in rows))]


def test_loc_counts_no_comment_blank_or_docstring_line_as_code():
    text = ('"""Module\ndocstring."""\n\n# a comment\ndef f():\n    """Doc."""\n'
            '    s = """two\n    lines"""  # trailing\n    return s\n')
    assert _tool("loc").count(text) == (9, 4)
