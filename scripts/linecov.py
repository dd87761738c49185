"""Line coverage of ``src/replab`` for a pytest run, with the standard library only.

An opt-in pytest plugin:

    PYTHONPATH=src:scripts python -m pytest -q -p linecov [tests ...]

From ``pytest_configure`` to the end of the session it traces every frame
whose code lives under ``src/replab`` with ``sys.settrace`` (and
``threading.settrace`` for threads started meanwhile).  After the run it
prints, grouped by module, the first line of each statement that never ran.
A statement is a simple statement or the header of a compound one (``if``,
``for``, ``except``, ``def`` with its decorators, ...), and it ran if any of
its lines did.  Docstrings and statements that compile to no code are not
counted.  A module that was never imported lists every statement.

Code that runs only in forked children, such as pool workers and the noise
producer, is traced in the child, whose record dies with it: it shows as not
run.  Tracing made the tier-1 run 10-25% slower (68 and 85 s against 62 and
67 s untraced, on a 2-vCPU x86-64 host with Python 3.11).
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading
import types

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "replab"

_hits: dict[str, set[int] | None] = {}     # co_filename -> lines run, None outside PACKAGE
_UNSEEN = object()


def _trace(frame, event, arg):
    """Global trace function: follow only frames of code under ``PACKAGE``."""
    filename = frame.f_code.co_filename
    lines = _hits.get(filename, _UNSEEN)
    if lines is _UNSEEN:
        inside = os.path.realpath(filename).startswith(str(PACKAGE) + os.sep)
        lines = _hits[filename] = set() if inside else None
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def statements(source: str, filename: str = "<source>") -> dict[int, set[int]]:
    """First line of each statement that compiles to code -> the lines it spans."""
    code_lines = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    spans = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.stmt, ast.ExceptHandler)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue        # a docstring, or a string used as a comment
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        children = [child.lineno for field in ("body", "orelse", "handlers", "finalbody")
                    for child in getattr(node, field, ())]
        last = min(children) - 1 if children else node.end_lineno
        span = set(range(first, max(first, last) + 1))
        if span & code_lines:
            spans[first] = span
    return spans


def pytest_configure(config):
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    ran: dict[str, set[int]] = {}
    for filename, lines in _hits.items():
        if lines is not None:
            ran.setdefault(os.path.realpath(filename), set()).update(lines)
    terminalreporter.write_sep("-", "linecov: statements of src/replab that never ran")
    for path in sorted(PACKAGE.glob("*.py")):
        spans = statements(path.read_text(encoding="utf-8"), str(path))
        lines = ran.get(os.path.realpath(path), set())
        missing = sorted(first for first, span in spans.items() if not span & lines)
        if missing:
            terminalreporter.write_line(f"{path.parent.name}/{path.name}: {len(missing)} of "
                                        f"{len(spans)} not run: {', '.join(map(str, missing))}")
