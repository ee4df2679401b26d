"""Count the code lines of the package.

Usage, from the repository root:

    python3 tools/code_lines.py

A code line is a line of a module in ``src/gnystrom`` that holds at least
one token other than a comment and lies outside every docstring: the string
that opens a module, class or function body. Blank lines, comment lines and
docstrings do not count; a line of code with a trailing comment does. It
prints one line per module, ``<count> <module>``, and then the total.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gnystrom"
# Tokens that hold no code.
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source):
    """The line numbers spanned by the docstrings of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main()
