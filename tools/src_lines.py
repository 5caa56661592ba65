"""Print the code, docstring, comment and blank lines of each module under src/, and in total.

Run from anywhere: ``python tools/src_lines.py``.  A line inside a docstring counts as
docstring, blank or not; a comment line is one whose first non-blank character is ``#``;
a blank line outside docstrings is blank; every other line is code.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def split(path: Path) -> dict[str, int]:
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def main() -> None:
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<28}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(SRC.rglob("*.py")):
        counts = split(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        name = str(path.relative_to(SRC))
        print(f"{name:<28}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<28}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))


if __name__ == "__main__":
    main()
