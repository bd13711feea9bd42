"""Count the lines of src/courtnet/*.py against the code budget.

    python3 .github/count_lines.py [FILE ...]

Prints two counts over the files (by default every src/courtnet/*.py): the
non-blank lines, and the code lines, which leave out the module, class and
function docstrings (found with ast) and the lines that hold only a comment
(found with tokenize). Exits 1 when the non-blank count is above BUDGET.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

BUDGET = 2800  # ROADMAP item 7: the most non-blank lines src/courtnet/*.py may hold


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def comment_only_lines(source: str) -> set[int]:
    """The line numbers whose only token is a comment."""
    code: set[int] = set()
    comments: set[int] = set()
    skip = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return comments - code


def count(path: Path) -> tuple[int, int]:
    """(non-blank lines, code lines) of one Python file."""
    source = path.read_text(encoding="utf-8")
    non_blank = {n for n, line in enumerate(source.splitlines(), 1) if line.strip()}
    code = non_blank - docstring_lines(ast.parse(source)) - comment_only_lines(source)
    return len(non_blank), len(code)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    files = [Path(arg) for arg in argv] or sorted((root / "src" / "courtnet").glob("*.py"))
    non_blank = code = 0
    for path in files:
        file_non_blank, file_code = count(path)
        non_blank += file_non_blank
        code += file_code
    print(f"non-blank lines: {non_blank} (budget {BUDGET})")
    print(f"code lines without docstrings and comment-only lines: {code}")
    if non_blank > BUDGET:
        print(f"over budget by {non_blank - BUDGET} lines", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
