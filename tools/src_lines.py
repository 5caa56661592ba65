"""Print the code, docstring, comment and blank lines of each module under src/, and in total.

Run from anywhere: ``python tools/src_lines.py``.  A line inside a docstring counts as
docstring, blank or not; a comment line is one whose first non-blank character is ``#``;
a blank line outside docstrings is blank; every other line is code.

``python tools/src_lines.py --against REF`` prints three tables: the modules at the git
revision REF (read with ``git ls-tree`` and ``git show``, nothing checked out), in the
working tree, and the change from the first to the second.  On a clean tree
``--against HEAD`` prints a change of zero everywhere.
"""

import argparse
import ast
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
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


def split(text: str) -> dict[str, int]:
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def tree_counts() -> dict[str, dict[str, int]]:
    """Each module of the working tree's src/, by its path under src/."""
    return {str(p.relative_to(SRC)): split(p.read_text()) for p in sorted(SRC.rglob("*.py"))}


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout


def revision_counts(ref: str) -> dict[str, dict[str, int]]:
    """Each module of src/ at the git revision ``ref``, by its path under src/."""
    paths = _git("ls-tree", "-r", "--name-only", ref, "--", "src").split()
    return {path[len("src/"):]: split(_git("show", f"{ref}:{path}"))
            for path in sorted(paths) if path.endswith(".py")}


def table(title: str, modules: dict[str, dict[str, int]]) -> None:
    total = dict.fromkeys(KINDS, 0)
    if title:
        print(title)
    print(f"{'module':<28}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for name, counts in modules.items():
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{name:<28}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<28}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REF",
                        help="also print src/ at this git revision, and the change from it")
    args = parser.parse_args()
    after = tree_counts()
    if args.against is None:
        table("", after)
        return
    before = revision_counts(args.against)
    zero = dict.fromkeys(KINDS, 0)
    names = sorted(set(before) | set(after))
    table(f"before ({args.against})", {n: before.get(n, zero) for n in names})
    table("\nafter (working tree)", {n: after.get(n, zero) for n in names})
    table(f"\nchange from {args.against}",
          {n: {k: after.get(n, zero)[k] - before.get(n, zero)[k] for k in KINDS} for n in names})


if __name__ == "__main__":
    main()
