"""Count the total lines and the code lines of each Python module under a
directory, and their sums.

A code line holds at least one token outside comments and docstrings (the
first string statement of a module, class or function). Blank lines,
comment-only lines and docstring lines are not code lines. Only the
standard library is used.

Run:  python3 tools/loc.py [DIRECTORY]    (default: the repo's src/)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_starts(tree: ast.AST) -> set:
    """(row, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            starts.add((node.body[0].lineno, node.body[0].col_offset))
    return starts


def count(path: Path) -> tuple:
    """(total lines, code lines) of one module."""
    source = path.read_bytes()
    docstrings = docstring_starts(ast.parse(source))
    code_rows = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type in NOT_CODE or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        code_rows.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code_rows)


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    rows = [(str(path.relative_to(root)), *count(path)) for path in sorted(root.rglob("*.py"))]
    print(f"{'lines':>6} {'code':>6}  module")
    for name, lines, code in rows:
        print(f"{lines:6d} {code:6d}  {name}")
    print(f"{sum(r[1] for r in rows):6d} {sum(r[2] for r in rows):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
