"""Statement coverage of src/gpdbench under the tests, without the coverage package.

    python3 tools/line_coverage.py

Runs `pytest tests` in this process, with the library imported from src/,
under a sys.settrace tracer that records the lines executed in
src/gpdbench.  Then prints every statement that no test executed as
path:line and its first source line, and exits 1 if there is any or if
pytest failed.

A statement counts as executed when any line from its first (its first
decorator, for a decorated definition) to its last ran; a compound
statement's body cannot run without its header.  Docstrings run no code
and are not statements here.  Code that runs only as a program,
`__main__.py` and `if __name__ == "__main__":` blocks, is left out: the
tests run it in subprocesses, which the tracer does not follow.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent
PACKAGE = TREE / "src" / "gpdbench"


def _is_docstring(node: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _is_main_guard(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def statements(source: str) -> list[tuple[int, int]]:
    """The (first line, last line) of each statement in source, in order."""
    spans = []

    def visit(body):
        for i, node in enumerate(body):
            if (i == 0 and _is_docstring(node)) or _is_main_guard(node):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            spans.append((first, node.end_lineno))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, ()))
            for handler in getattr(node, "handlers", ()):
                visit(handler.body)

    visit(ast.parse(source).body)
    return sorted(spans)


def unreached(source: str, lines: set[int]) -> list[int]:
    """First lines of the statements in source with no line in lines."""
    return [first for first, last in statements(source)
            if not any(n in lines for n in range(first, last + 1))]


def main() -> int:
    import pytest

    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__main__.py"}
    hits: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(TREE / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name, path in files.items():
        text = path.read_text(encoding="utf-8")
        source_lines = text.splitlines()
        for line in unreached(text, hits[name]):
            print(f"{path.relative_to(TREE)}:{line}: {source_lines[line - 1].strip()}")
            missed += 1
    print(f"{missed} unreached statements in {PACKAGE.relative_to(TREE)}")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    raise SystemExit(main())
