#!/usr/bin/env python3
"""Mutation check of the email decision code, standard library only.

Applies each mutation in ``MUTANTS`` (one token changed in
``src/dsfusion/classify.py``) to a temporary copy of the repository, runs
the email tests there, and writes ``MUTANTS.json`` at the repo root: how
many mutants the tests killed, of how many, and each survivor's
file:line. A survivor that no test can kill (the mutant behaves as the
original on every input) carries the reason in its entry; any other
survivor is a gap in the tests, and the script exits 1 until a test
closes it.

The tests run with ``--hypothesis-seed 0`` and a fresh example database
per mutant, so a rerun draws the same examples. The unmutated copy runs
first and must pass.

Usage: python scripts/mutants.py [--out MUTANTS.json]
A whole run takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = "src/dsfusion/classify.py"
TESTS = ["tests/test_classify.py", "-q", "-x", "-k", "Email", "-p", "no:cacheprovider",
         "--hypothesis-seed", "0"]
COPIED = ("src", "tests", "data", "pyproject.toml")

# (id, text found exactly once in TARGET, its replacement, why no test can kill it or None).
MUTANTS = [
    ("shortcut-threshold-none", "threshold is None or", "threshold is not None or", None),
    ("shortcut-interval-sign", "interval >= 0 and", "interval > 0 and", None),
    ("shortcut-interval-floor", "interval >= 0 and", "interval >= -1 and", None),
    ("shortcut-cutoff-strict", "threshold - interval < -LOGISTIC_SATURATION",
     "threshold - interval <= -LOGISTIC_SATURATION", None),
    ("shortcut-cutoff-sign", "threshold - interval < -LOGISTIC_SATURATION",
     "threshold - interval < LOGISTIC_SATURATION", None),
    ("shortcut-entry", "entry is not None and", "entry is None and", None),
    ("lookup-spoofed-dangerous-swapped", "by_flags[spoofed][dangerous][benign]",
     "by_flags[dangerous][spoofed][benign]", None),
    ("lookup-dangerous-benign-swapped", "by_flags[spoofed][dangerous][benign]",
     "by_flags[spoofed][benign][dangerous]", None),
    ("label-decision", 'qa > qn else "normal"', 'qa >= qn else "normal"', None),
    ("conflict-guard-strict", "qa - qt <= 2 * IDENTITY_TOL", "qa - qt < 2 * IDENTITY_TOL",
     "differs only where qn + qa - qt is exactly 2e-12, and there fuse_binary's K, "
     "1 - 2e-12, is below its bound 1 - 1e-12: the skipped call would not have raised"),
    ("conflict-guard-zero", "qa - qt <= 2 * IDENTITY_TOL", "qa - qt <= 0 * IDENTITY_TOL", None),
    ("conflict-fold-dropped", "        fuse_binary(rows)\n", "        pass\n", None),
    ("exact-guard-flipped", "abs(qa - qn) <= 2.0**-49", "abs(qa - qn) > 2.0**-49", None),
    ("exact-guard-narrow", "abs(qa - qn) <= 2.0**-49", "abs(qa - qn) <= 2.0**-60", None),
    ("exact-guard-strict", "abs(qa - qn) <= 2.0**-49", "abs(qa - qn) < 2.0**-49",
     "differs only where the gap equals the bound, which is positive and twice the floats' "
     "error bound (8 units of 2^-53 of their sum): there the floats have the exact sign"),
    ("table-suppress", "suppress(TotalConflictError)", "suppress()", None),
    ("table-interval", "(math.inf, s, d, b)", "(0.0, s, d, b)", None),
    ("table-flags-swapped", "by_flags[s][d][b] = _email_prediction",
     "by_flags[d][s][b] = _email_prediction", None),
    ("table-signal-1", "if signals[0] == 1 else None", "if signals[0] != 1 else None", None),
]


def run_tests(copy: Path) -> int:
    # The copy's pyproject.toml puts its own src/ first on the tests' import path.
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    return subprocess.run([sys.executable, "-m", "pytest", *TESTS], cwd=copy,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "MUTANTS.json")
    args = parser.parse_args(argv)
    original = (ROOT / TARGET).read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        if run_tests(copy) != 0:
            print("the unmutated copy fails its tests", file=sys.stderr)
            return 2
        survivors, killed = [], 0
        for name, old, new, equivalent in MUTANTS:
            if original.count(old) != 1:
                print(f"{name}: {old!r} occurs {original.count(old)} times in {TARGET}",
                      file=sys.stderr)
                return 2
            line = original[:original.index(old)].count("\n") + 1
            (copy / TARGET).write_text(original.replace(old, new), encoding="utf-8")
            if run_tests(copy) != 0:
                killed += 1
                print(f"killed   {name}")
                continue
            print(f"SURVIVED {name} ({TARGET}:{line})")
            survivors.append({"id": name, "where": f"{TARGET}:{line}", "from": old.strip(),
                              "to": new.strip(), "equivalent": equivalent})
    result = {"command": ["python", "-m", "pytest", *TESTS], "killed": killed,
              "total": len(MUTANTS), "survivors": survivors}
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    open_gaps = [s["id"] for s in survivors if s["equivalent"] is None]
    print(f"{killed} of {len(MUTANTS)} mutants killed; wrote {args.out}")
    if open_gaps:
        print(f"survivors no test kills yet: {', '.join(open_gaps)}", file=sys.stderr)
    return 1 if open_gaps else 0


if __name__ == "__main__":
    raise SystemExit(main())
