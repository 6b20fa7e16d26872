#!/usr/bin/env python3
"""List the statements of src/logfix that the tier-1 tests never run.

Runs the tier-1 suite (pytest over tests/) in this process, under a line
tracer set with `sys.settrace` and, for the threads the tests start (such as
`fix --jobs`'s worker pool), `threading.settrace`. Then it prints each
statement of src/logfix/*.py that never ran, as `path:line: text`, and a
count of the statements that did.

A statement counts when the compiler gives its first line code: `nonlocal`
and `global` declarations and docstrings have none, so they are not listed.

Code that tests run in child processes is not traced: a CLI or benchmark
run started with `subprocess` counts for nothing here, and its statements
are listed unless an in-process test reaches them as well.

No coverage package is needed. The suite runs a few times slower under the
tracer. Run from the repository root; extra arguments go to pytest:

    python3 tools/line_coverage.py
    python3 tools/line_coverage.py tests/test_parser.py
"""

from __future__ import annotations

import ast
import glob
import os
import sys
import threading
from types import CodeType

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src",
                                   "logfix"))


def code_lines(code: CodeType) -> set[int]:
    """The lines that hold bytecode in a code object and those nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def statements(path: str) -> dict[int, str]:
    """First line -> its text, for every statement that compiles to code."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, path)
    starts = {node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.stmt)}
    text = source.splitlines()
    return {line: text[line - 1].strip()
            for line in sorted(starts & code_lines(compile(tree, path, "exec")))}


def main(argv: list[str]) -> int:
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    ran: set[tuple[str, int]] = set()
    watched = set(files)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename not in watched:
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    root = os.path.dirname(os.path.dirname(SRC))
    for path in files:
        for line, text in statements(path).items():
            total += 1
            if (path, line) not in ran:
                missed += 1
                print(f"{os.path.relpath(path, root)}:{line}: {text}")
    print(f"{total - missed} of {total} statements ran, {missed} did not "
          f"(tests exited {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
