"""Count the lines and the code lines of each anisolab module.

    python tools/loc.py [SRC]

SRC is a source tree holding the ``anisolab`` package (``src`` by default).
A line is one newline-ended line of the file. A code line is a line that
holds, or lies inside, a token that is neither a comment nor a docstring:
blank lines, comment lines and the lines of module, class and function
docstrings are not code. Prints one row per module, then the totals.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text):
    """(lines, code lines) of one module's source ``text``."""
    docs = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        rows = range(tok.start[0], tok.end[0] + 1)
        if tok.type not in _LAYOUT and not docs.issuperset(rows):
            code.update(rows)
    return text.count("\n"), len(code)


def main(argv):
    src = Path(argv[0] if argv else "src")
    rows = [(path.relative_to(src).as_posix(), *count(path.read_text(encoding="utf-8")))
            for path in sorted((src / "anisolab").glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
