"""Count the lines and the code lines of each anisolab module, and time its compile.

    python tools/loc.py [SRC]

SRC is a source tree holding the ``anisolab`` package (``src`` by default).
A line is one newline-ended line of the file. A code line is a line that
holds, or lies inside, a token that is neither a comment nor a docstring:
blank lines, comment lines and the lines of module, class and function
docstrings are not code. The compile time is the least of 7 ``compile()``
calls of the module's source, in ms: what an interpreter that writes no
bytecode pays for the module on every start. Prints one row per module,
then the totals.
"""

import ast
import io
import sys
import timeit
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


def compile_ms(text):
    """Least time of 7 compile() calls of the source ``text``, in ms."""
    return 1e3 * min(timeit.repeat(lambda: compile(text, "<module>", "exec"), number=1, repeat=7))


def main(argv):
    src = Path(argv[0] if argv else "src")
    rows = []
    for path in sorted((src / "anisolab").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows.append((path.relative_to(src).as_posix(), *count(text), compile_ms(text)))
    rows.append(("total", *(sum(r[k] for r in rows) for k in (1, 2, 3))))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}  {'compile_ms':>10}")
    for name, lines, code, ms in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}  {ms:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
