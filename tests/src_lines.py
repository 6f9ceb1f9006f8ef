"""The size of the package source, by two counts.

Prints the lines of src/mkpolar as `wc -l` counts them, the lines that
hold code: not blank, not only a comment and not part of a docstring (the
string that opens a module, class or function body), and the lines of
README.md as `wc -l` counts them. Run from the repository root:

    python tests/src_lines.py
"""

import ast
import io
import json
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "mkpolar"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The lines of text that hold a token other than a comment, outside docstrings."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main():
    texts = [path.read_text() for path in sorted(SOURCE.glob("*.py"))]
    readme = (ROOT / "README.md").read_text().count("\n")
    print(json.dumps({"wc_l": sum(text.count("\n") for text in texts), "code": sum(map(code_lines, texts)),
                      "readme": readme}))


if __name__ == "__main__":
    main()
