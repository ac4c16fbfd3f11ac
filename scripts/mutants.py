#!/usr/bin/env python3
"""Mutation check of the email and three-class decision code and of the binary
classifier's shared predictions, standard library only.

Applies each mutation in ``MUTANTS`` (one token changed in
``src/dsfusion/classify.py``) to a temporary copy of the repository, runs
the tests its entry selects there (a pytest ``-k`` expression), and writes
``MUTANTS.json`` at the repo root: how many mutants the tests killed, of
how many, and each survivor's file:line and selection. A survivor that no
test can kill (the mutant behaves as the original on every input) carries
the reason in its entry; any other survivor is a gap in the tests, and
the script exits 1 until a test closes it.

The tests run with ``--hypothesis-seed 0`` and a fresh example database
per mutant, so a rerun draws the same examples. The unmutated copy runs
first, once per selection, and must pass.

Usage: python scripts/mutants.py [--out MUTANTS.json]
A whole run takes about three minutes on a 2-core machine.
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
TESTS = ["tests/test_classify.py", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed", "0"]
COPIED = ("src", "tests", "data", "pyproject.toml")

# The -k selections: the email tests, the three-class decision tests (not the trainer's), and
# the binary classifier's tests.
EMAIL = "Email"
THREE_CLASS = "(three_class or ThreeClass) and not train"
BINARY = "classify_binary or ClassifyBinary"

# (id, -k selection, text found exactly once in TARGET, its replacement, why no test can kill
# it or None).
MUTANTS = [
    ("shortcut-threshold-none", EMAIL, "threshold is None or", "threshold is not None or", None),
    ("shortcut-interval-sign", EMAIL, "interval >= 0 and", "interval > 0 and", None),
    ("shortcut-interval-floor", EMAIL, "interval >= 0 and", "interval >= -1 and", None),
    ("shortcut-cutoff-strict", EMAIL, "threshold - interval < -LOGISTIC_SATURATION",
     "threshold - interval <= -LOGISTIC_SATURATION", None),
    ("shortcut-cutoff-sign", EMAIL, "threshold - interval < -LOGISTIC_SATURATION",
     "threshold - interval < LOGISTIC_SATURATION", None),
    ("shortcut-entry", EMAIL, "entry is not None and", "entry is None and", None),
    ("lookup-spoofed-dangerous-swapped", EMAIL, "by_flags[spoofed][dangerous][benign]",
     "by_flags[dangerous][spoofed][benign]", None),
    ("lookup-dangerous-benign-swapped", EMAIL, "by_flags[spoofed][dangerous][benign]",
     "by_flags[spoofed][benign][dangerous]", None),
    ("label-decision", EMAIL, 'qa > qn else "normal"', 'qa >= qn else "normal"', None),
    ("conflict-guard-strict", EMAIL, "qa - qt <= 2 * IDENTITY_TOL", "qa - qt < 2 * IDENTITY_TOL",
     "differs only where qn + qa - qt is exactly 2e-12, and there fuse_binary's K, "
     "1 - 2e-12, is below its bound 1 - 1e-12: the skipped call would not have raised"),
    ("conflict-guard-zero", EMAIL, "qa - qt <= 2 * IDENTITY_TOL", "qa - qt <= 0 * IDENTITY_TOL",
     None),
    ("conflict-fold-dropped", EMAIL, "        fuse_binary(rows)\n", "        pass\n", None),
    ("exact-guard-flipped", EMAIL, "abs(qa - qn) <= 2.0**-49", "abs(qa - qn) > 2.0**-49", None),
    ("exact-guard-narrow", EMAIL, "abs(qa - qn) <= 2.0**-49", "abs(qa - qn) <= 2.0**-60", None),
    ("exact-guard-strict", EMAIL, "abs(qa - qn) <= 2.0**-49", "abs(qa - qn) < 2.0**-49",
     "differs only where the gap equals the bound, which is positive and twice the floats' "
     "error bound (8 units of 2^-53 of their sum): there the floats have the exact sign"),
    ("table-suppress", EMAIL, "suppress(TotalConflictError)", "suppress()", None),
    ("table-interval", EMAIL, "(math.inf, s, d, b)", "(0.0, s, d, b)", None),
    ("table-flags-swapped", EMAIL, "by_flags[s][d][b] = _email_prediction",
     "by_flags[d][s][b] = _email_prediction", None),
    ("table-signal-1", EMAIL, "if signals[0] == 1 else None", "if signals[0] != 1 else None", None),
    ("commonality-base", THREE_CLASS, "10 ** sum(", "9 ** sum(", None),
    ("commonality-holds", THREE_CLASS, "b & s == b for s", "b & s == s for s", None),
    ("distance-factor", THREE_CLASS, "q[b] *= 5", "q[b] *= 1", None),
    ("distance-factor-off-empty-set", THREE_CLASS, "for b in (0, 1 << nearest)",
     "for b in (1 << nearest,)", None),
    ("mobius-parity", THREE_CLASS, "(-1) ** (b ^ a).bit_count()",
     "(-1) ** ((b ^ a).bit_count() + 1)", None),
    ("mobius-superset", THREE_CLASS, "if b & a == a)", "if b & a == b)", None),
    ("step1-empty-set", THREE_CLASS, "min(range(1, 8)", "min(range(8)", None),
    ("step1-tie-order", THREE_CLASS, "(-m[a], a.bit_count(), a)", "(-m[a], -a.bit_count(), -a)",
     None),
    ("share-key-first-value", BINARY, "key = get(record)", "key = get(record)[:1]", None),
    ("share-store-before-decision", BINARY,
     "        pred = _binary_prediction(record, model)\n"
     "        if len(shared) < _SHARED_BOUND:\n"
     "            shared[key] = pred\n",
     "        if len(shared) < _SHARED_BOUND:\n"
     "            shared[key] = pred\n"
     "        pred = _binary_prediction(record, model)\n", None),
    ("share-bound-strict", BINARY, "len(shared) < _SHARED_BOUND", "len(shared) <= _SHARED_BOUND",
     None),
    ("share-unhashable", BINARY, "except TypeError:  # a list record's one-value slice",
     "except KeyError:  # a list record's one-value slice", None),
]


def run_tests(copy: Path, select: str) -> int:
    # The copy's pyproject.toml puts its own src/ first on the tests' import path.
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    return subprocess.run([sys.executable, "-m", "pytest", *TESTS, "-k", select], cwd=copy,
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
        for select in dict.fromkeys(select for _, select, *_ in MUTANTS):
            if run_tests(copy, select) != 0:
                print(f"the unmutated copy fails the tests -k {select!r}", file=sys.stderr)
                return 2
        survivors, killed = [], 0
        for name, select, old, new, equivalent in MUTANTS:
            if original.count(old) != 1:
                print(f"{name}: {old!r} occurs {original.count(old)} times in {TARGET}",
                      file=sys.stderr)
                return 2
            line = original[:original.index(old)].count("\n") + 1
            (copy / TARGET).write_text(original.replace(old, new), encoding="utf-8")
            if run_tests(copy, select) != 0:
                killed += 1
                print(f"killed   {name}")
                continue
            print(f"SURVIVED {name} ({TARGET}:{line})")
            survivors.append({"id": name, "where": f"{TARGET}:{line}", "select": select,
                              "from": old.strip(), "to": new.strip(), "equivalent": equivalent})
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
