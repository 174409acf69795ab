"""Count the source lines of the qcurves package, per module and in total.

A source line is a physical line that holds code: blank lines, comment
lines and docstrings (the leading string of a module, class or function)
do not count.  Every module counts: the package holds no generated table,
since its Gauss-Legendre rules are computed on first use.  A statement
spanning several lines counts each of its lines.

Run from the repository root:

    python tools/sloc.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qcurves"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def source_lines(text: str) -> int:
    """Number of lines of ``text`` that hold a code token outside a docstring."""
    skip = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def main():
    counts = {path.name: source_lines(path.read_text())
              for path in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5,}")


if __name__ == "__main__":
    main()
