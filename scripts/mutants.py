#!/usr/bin/env python3
"""Mutation check of the decision code: email and its saturation cutoff,
three-class, the binary classifier's shared predictions, the two-label
conflict bound and the subset rule; and of the training and harness code:
the threshold walk, the feature pick's tie, the fold trainer's counts, the
fold balance and the confusion counts; and of the WBCD loader's column pass,
its per-line width check. Standard library only.

Applies each mutation in ``MUTANTS`` (one token changed in the source file
its entry's scope names) to a temporary copy of the repository, runs the
scope's test files there with its pytest ``-k`` expression, and writes
``MUTANTS.json`` at the repo root: how many mutants the tests killed, of
how many, and each survivor's file:line, test files and selection (the
``command`` is the pytest call before them). A survivor that no
test can kill (the mutant behaves as the original on every input) carries
the reason in its entry; any other survivor is a gap in the tests, and
the script exits 1 until a test closes it.

The tests run with ``--hypothesis-seed 0`` and a fresh example database
per mutant, so a rerun draws the same examples. The unmutated copy runs
first, once per scope, and must pass.

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
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PYTEST = ["-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed", "0"]
COPIED = ("src", "tests", "data", "pyproject.toml")
BPA, CLASSIFY = "src/dsfusion/bpa.py", "src/dsfusion/classify.py"
EVIDENCE, DATA = "src/dsfusion/evidence.py", "src/dsfusion/data.py"


class Scope(NamedTuple):
    """The file a mutant changes, the test files it runs, and their -k selection."""

    target: str
    tests: tuple[str, ...]
    select: str


# The email tests (on the classifier and on the saturation cutoff its table holds), the
# three-class decision tests (not the trainer's), the binary classifier's tests, the
# total-conflict tests of both fusion paths, and every entry point's subset tests.
EMAIL = Scope(CLASSIFY, ("tests/test_classify.py",), "Email")
CUTOFF = Scope(BPA, ("tests/test_classify.py",), "Email")
THREE_CLASS = Scope(CLASSIFY, ("tests/test_classify.py",),
                    "(three_class or ThreeClass) and not train")
BINARY = Scope(CLASSIFY, ("tests/test_classify.py",), "classify_binary or ClassifyBinary")
CONFLICT = Scope(EVIDENCE, ("tests/test_evidence.py", "tests/test_classify.py"),
                 "conflict or Conflict")
SUBSET = Scope(CLASSIFY, ("tests/test_data.py", "tests/test_cli.py"), "subset or Subset")
# The training helpers' tests, the fold trainers' tests, and the harness's fold and
# evaluation tests.
TRAINING = Scope(BPA, ("tests/test_bpa.py",), "Threshold or SelectFeature")
FOLDS = Scope(CLASSIFY, ("tests/test_classify.py",), "train or Train or fold")
HARNESS = Scope(DATA, ("tests/test_data.py",), "Fold or Evaluate")
# The WBCD loader's tests against the row-by-row reference.
LOADER = Scope(DATA, ("tests/test_data.py",), "load_wbcd")

# (id, scope, text found exactly once in the scope's target, its replacement, why no test can
# kill it or None).
MUTANTS = [
    ("shortcut-cutoff-none", EMAIL, "cutoff is None or", "cutoff is not None or", None),
    ("shortcut-cutoff-strict", EMAIL, "interval >= cutoff", "interval > cutoff", None),
    ("cutoff-test-strict", CUTOFF, "_float_of_bits(mid) < -LOGISTIC_SATURATION",
     "_float_of_bits(mid) <= -LOGISTIC_SATURATION", None),
    ("cutoff-test-sign", CUTOFF, "_float_of_bits(mid) < -LOGISTIC_SATURATION",
     "_float_of_bits(mid) < LOGISTIC_SATURATION", None),
    ("cutoff-negative-floats", CUTOFF, "lo, hi = -1,", "lo, hi = 0,", None),
    ("cutoff-halves-swapped", CUTOFF, "hi = mid\n        else:\n            lo = mid",
     "lo = mid\n        else:\n            hi = mid", None),
    ("cutoff-stops-early", CUTOFF, "while hi - lo > 1:", "while hi - lo > 2:", None),
    ("shortcut-entry", EMAIL, "entry is not None and", "entry is None and", None),
    ("lookup-spoofed-dangerous-swapped", EMAIL, "by_flags[spoofed][dangerous][benign]",
     "by_flags[dangerous][spoofed][benign]", None),
    ("lookup-dangerous-benign-swapped", EMAIL, "by_flags[spoofed][dangerous][benign]",
     "by_flags[spoofed][benign][dangerous]", None),
    ("label-decision", EMAIL, 'qa > qn else "normal"', 'qa >= qn else "normal"', None),
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
    ("conflict-bound-strict", CONFLICT, "if k >= 1.0 - IDENTITY_TOL:",
     "if k > 1.0 - IDENTITY_TOL:", None),
    ("conflict-bound-one", CONFLICT, "if k >= 1.0 - IDENTITY_TOL:", "if k >= 1.0:", None),
    ("conflict-theta-sign", CONFLICT, "1.0 - (q0 + q1 - qt)", "1.0 - (q0 + q1 + qt)", None),
    ("subset-bool-admitted", SUBSET, "if type(entry) is not int:",
     "if not isinstance(entry, int):", None),
    ("subset-repeat-dropped", SUBSET,
     'raise ValueError(f"{name} subset {list(subset)} repeats an entry")', "pass", None),
    ("subset-unsorted", SUBSET, "return tuple(sorted(subset))", "return tuple(subset)", None),
    ("threshold-walk-strict", TRAINING, "if k <= 0:", "if k < 0:", None),
    ("select-feature-tie-last", TRAINING, "if value < best_value:", "if value <= best_value:",
     None),
    ("fold-own-count-kept", FOLDS, "totals[v] - cells[v, fold]", "totals[v]", None),
    ("folds-extra-record", HARNESS, "1 if fold < extra else 0", "1 if fold <= extra else 0",
     None),
    ("confusion-transposed", HARNESS, "matrix[truths[i]][predicted] += 1",
     "matrix[predicted][truths[i]] += 1", None),
    ("column-pass-width-unchecked", LOADER,
     'if lines and set(map(str.count, lines, repeat(","))) == {10}:', "if lines:", None),
]


def run_tests(copy: Path, scope: Scope) -> int:
    # The copy's pyproject.toml puts its own src/ first on the tests' import path.
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    argv = [sys.executable, "-m", "pytest", *scope.tests, *PYTEST, "-k", scope.select]
    return subprocess.run(argv, cwd=copy, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "MUTANTS.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        for scope in dict.fromkeys(scope for _, scope, *_ in MUTANTS):
            if run_tests(copy, scope) != 0:
                print(f"the unmutated copy fails {' '.join(scope.tests)} -k {scope.select!r}",
                      file=sys.stderr)
                return 2
        survivors, killed = [], 0
        for name, scope, old, new, equivalent in MUTANTS:
            target = scope.target
            original = (ROOT / target).read_text(encoding="utf-8")
            if original.count(old) != 1:
                print(f"{name}: {old!r} occurs {original.count(old)} times in {target}",
                      file=sys.stderr)
                return 2
            line = original[:original.index(old)].count("\n") + 1
            (copy / target).write_text(original.replace(old, new), encoding="utf-8")
            try:
                died = run_tests(copy, scope) != 0
            finally:
                (copy / target).write_text(original, encoding="utf-8")
            if died:
                killed += 1
                print(f"killed   {name}", flush=True)
                continue
            print(f"SURVIVED {name} ({target}:{line})", flush=True)
            survivors.append({"id": name, "where": f"{target}:{line}", "tests": list(scope.tests),
                              "select": scope.select, "from": old.strip(), "to": new.strip(),
                              "equivalent": equivalent})
    result = {"command": ["python", "-m", "pytest", *PYTEST], "killed": killed,
              "total": len(MUTANTS), "survivors": survivors}
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    open_gaps = [s["id"] for s in survivors if s["equivalent"] is None]
    print(f"{killed} of {len(MUTANTS)} mutants killed; wrote {args.out}")
    if open_gaps:
        print(f"survivors no test kills yet: {', '.join(open_gaps)}", file=sys.stderr)
    return 1 if open_gaps else 0


if __name__ == "__main__":
    raise SystemExit(main())
