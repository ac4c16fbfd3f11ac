#!/usr/bin/env python3
"""Statement coverage of ``src/dsfusion`` under the test suite, standard library only.

Runs the tests in this process, less the criterion-10 sweep (two million
messages through code the rest of the suite runs too), with a line
tracer on the package's files, and writes ``COVERAGE.json`` at the repo
root: per module, the statements that never ran, and their count.

The tracer starts before ``dsfusion`` is imported, so module and class
bodies, which run at import, count like function bodies. A statement is a
line that starts an ``ast`` statement and compiles to bytecode (a
function's docstring does not); it ran if any line it owns ran. The CLI
tests that start a subprocess are not traced, so ``cli.py``'s
``__main__`` guard, which only a real process reaches, is listed as missed.

Usage: python scripts/coverage.py [--out COVERAGE.json] [pytest args...]
A whole run takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dsfusion"
SWEEP = "tests/test_acceptance.py::test_criterion_10_spoof_payload_dominance_sweep"


def _code_lines(code: types.CodeType) -> set[int]:
    # Every line some instruction of this code object, or of one nested in it, is on.
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> dict[int, int]:
    """Each line a statement owns, mapped to the statement's first line.

    A simple statement owns all its lines; a compound one (``def``, ``if``,
    ``for``, ...) its decorators and header, up to its body. Statements
    none of whose lines has bytecode are left out.
    """
    source = path.read_text(encoding="utf-8")
    code_lines = _code_lines(compile(source, str(path), "exec"))
    owner: dict[int, int] = {}
    # ast.walk visits outer statements first, so a body statement on its header's line wins.
    for node in ast.walk(ast.parse(source, str(path))):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        for line in range(first, last + 1):
            owner[line] = node.lineno
    live = {owner[line] for line in code_lines if line in owner}
    return {line: stmt for line, stmt in owner.items() if stmt in live}


def trace_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in this process with a line tracer on the package: its
    exit code, and the lines that ran, per package file."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    traced: dict[str, set[int] | None] = {}  # co_filename -> its line set, None if not ours

    def lines_of(filename: str) -> set[int] | None:
        if filename not in traced:
            path = os.path.realpath(filename)
            traced[filename] = ran.setdefault(path, set()) if path.startswith(prefix) else None
        return traced[filename]

    def on_call(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    import pytest

    class NoDeadlines:
        # Traced code runs several times slower, so no example gets a deadline. The profile
        # is registered before Hypothesis's own plugin loads it, and imports Hypothesis
        # only after pytest has set up the rewriting of its plugins' asserts.
        @pytest.hookimpl(tryfirst=True)
        def pytest_configure(self, config):
            from hypothesis import settings

            settings.register_profile("coverage", deadline=None)

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args, plugins=[NoDeadlines()])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    return int(code), ran


def report(ran: dict[str, set[int]]) -> dict:
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        owner = statements(path)
        executed = {owner[line] for line in ran.get(str(path), ()) if line in owner}
        missed = sorted(set(owner.values()) - executed)
        modules[path.relative_to(ROOT).as_posix()] = {
            "statements": len(set(owner.values())),
            "missed": missed,
        }
    return {
        "statements": sum(m["statements"] for m in modules.values()),
        "missed": sum(len(m["missed"]) for m in modules.values()),
        "excluded": [SWEEP],
        "modules": modules,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "COVERAGE.json")
    args, extra = parser.parse_known_args(argv)
    # This file's directory would shadow any installed module named "coverage".
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.realpath(p or ".") != here]
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    code, ran = trace_run([
        "-q", "-p", "no:cacheprovider", "--deselect", SWEEP,
        # A fixed seed draws the same examples on every run, so the map is reproducible.
        "--hypothesis-profile", "coverage", "--hypothesis-seed", "0",
        *extra,
    ])
    result = report(ran)
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"{result['missed']} of {result['statements']} statements never ran; wrote {args.out}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
