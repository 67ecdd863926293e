"""List the `src/` statements that a pytest run never executes.

A stdlib line tracer (`sys.settrace`, so it runs where the `coverage` package
is not installed) records every line executed in `src/zerocycles` while pytest
runs in this process, and then prints each statement none of whose lines ran,
with a count.  A statement's lines are its header for a compound statement
(`if`, `for`, `def`, ...) and all its lines otherwise; statements that compile
to no code of their own (`try:`, docstrings of functions) are not counted.
Tracing starts before pytest imports the package, so definitions count; code
run in subprocesses (the CLI's fresh-process tests) is not seen.

    python tools/unrun.py

Pytest runs tier-1 (`-q --continue-on-collection-errors`); its output goes to
stderr and the report, ending with pytest's exit status, to stdout.  Tracing
makes the run several times slower, so tests with a wall-clock limit may fail
under it; the script exits 0 whatever pytest's status, and nonzero only when
it fails itself.
"""

from __future__ import annotations

import ast
import contextlib
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = str(SRC / "zerocycles")


def _code_lines(code) -> set:
    """Every line that some instruction of `code` or of a code object nested in it belongs to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path: Path) -> list:
    """(first line, lines) of each statement of the module that compiles to code of its own."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        body = getattr(node, "body", None)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        lines = set(range(first, max(last, node.lineno) + 1)) & executable
        if lines:
            out.append((node.lineno, lines))
    return sorted(out)


def main() -> None:
    hits = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE):
            return None
        seen = hits.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(SRC))
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries the report only
            status = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)

    total, unrun = 0, []
    for path in sorted(Path(PACKAGE).glob("*.py")):
        ran = hits.get(str(path), set())
        lines = path.read_text().splitlines()
        for lineno, statement in _statements(path):
            total += 1
            if not statement & ran:
                unrun.append(f"{path.relative_to(SRC.parent)}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{len(unrun)} of {total} src/ statements never ran")
    print("\n".join(unrun))
    print(f"pytest exit status under the tracer: {int(status)}")


if __name__ == "__main__":
    main()
