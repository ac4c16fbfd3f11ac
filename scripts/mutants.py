#!/usr/bin/env python3
"""Mutation check of the decision code: email and its saturation cutoff,
three-class, the binary classifier's shared predictions and its tie rule, the
two-label conflict bound and the subset rule; of the training and harness
code: the threshold's rank, clamp and walk, the feature pick's tie, the fold
trainer's counts, the fold balance and the confusion counts; of the
three-class assignments' range membership and exact re-decision of float
ties; of the binary mass builders' checks and clamp; of the WBCD loader's
column pass, its per-line width check and its cell table; of Bel, Pl, the
mass constructor's checks and the pairwise rule's normalisation; of the
readers' width, interval, finiteness and digit-count checks; of the fold
plan's checks and the report's csv and text branches; of the pairwise rule's
intersection loop; and of the CLI's feature, signal and mass spec parsers,
its --runs and --folds checks and its exit codes. Standard library only.

Applies each mutation in ``MUTANTS`` (one token changed in the source file
its entry's scope names) to a temporary copy of the repository, runs the
scope's test files there with its pytest ``-k`` expression, and writes
``MUTANTS.json`` at the repo root: how many mutants the tests killed, of
how many, and each survivor's file:line, test files and selection (the
``command`` is the pytest call before them). A survivor that no
test can kill (the mutant behaves as the original on every input) carries
the reason in its entry; any other survivor is a gap in the tests, and
the script exits 1 until a test closes it. Each killed mutant runs once
more with the Hypothesis relations (``RELATIONS``) deselected, and the
mutants that survive that run are listed as killed only by the relations.

The tests run with ``--hypothesis-seed 0`` and a fresh example database
per mutant, so a rerun draws the same examples. The unmutated copy runs
first, once per scope with and without the relations, and must pass.

Usage: python scripts/mutants.py [--out MUTANTS.json]
A whole run takes about twelve minutes on a 2-core machine.
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
CLI = "src/dsfusion/cli.py"


# The Hypothesis relations: metamorphic properties of the classifiers and of the harness.
RELATIONS = "raising or every_threshold or permuting or setting_a_flag or longer_interval"


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
# The range and nearest-mean assignments' tests, and the binary mass builders' tests with
# the model dumps' threshold checks.
RANGES = Scope(BPA, ("tests/test_bpa.py",), "Boundary or boundary or Distance")
BUILDERS = Scope(BPA, ("tests/test_bpa.py", "tests/test_classify.py"),
                 "SigmoidMass or TableMass or threshold_rejected")
# The evidence module's tests of Bel and Pl, of the mass constructor's checks, and of the
# pairwise rule; the readers' tests of the three file layouts.
BELIEF = Scope(EVIDENCE, ("tests/test_evidence.py", "tests/test_evidence_properties.py"),
               "Belief or belief or plausibility or interval")
MASSES = Scope(EVIDENCE, ("tests/test_evidence.py",), "MassConstruction")
RULE = Scope(EVIDENCE, ("tests/test_evidence.py", "tests/test_evidence_properties.py"),
             "Combine or normalization or oracle")
READERS = Scope(DATA, ("tests/test_data.py",), "Load or load or Reader or Csv")
# The CLI's tests of the --features, --signals and --mass specs, and of its exit codes.
PARSERS = Scope(CLI, ("tests/test_cli.py",), "feature or signal or digits or Combine or ablate")
EXITS = Scope(CLI, ("tests/test_cli.py",), "exit or usage")
# The report renderer's tests.
REPORTS = Scope(DATA, ("tests/test_data.py",), "Reports")

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
    ("binary-tie-strict", BINARY, 'if score > 0 else "normal"', 'if score >= 0 else "normal"',
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
    ("threshold-rank-down", TRAINING, "+ 0.5), 1), n)", "- 0.5), 1), n)", None),
    ("threshold-clamp-zero", TRAINING, "+ 0.5), 1), n)", "+ 0.5), 0), n)", None),
    ("threshold-walk-strict", TRAINING, "if k <= 0:", "if k < 0:", None),
    ("select-feature-tie-last", TRAINING, "if value < best_value:", "if value <= best_value:",
     None),
    ("boundary-range-open", RANGES, "(lo0 <= value <= hi0)", "(lo0 < value <= hi0)", None),
    ("nearest-float-tie-kept", RANGES, "if len(tied) == 1:", "if tied:", None),
    ("scaled-floor-ceiling-equal", BUILDERS, "0 <= self.floor < self.ceiling <= 1",
     "0 <= self.floor <= self.ceiling <= 1", None),
    ("scaled-floor-zero-refused", BUILDERS, "0 <= self.floor < self.ceiling",
     "0 < self.floor < self.ceiling", None),
    ("scaled-ceiling-one-refused", BUILDERS, "self.ceiling <= 1:", "self.ceiling < 1:", None),
    ("scaled-theta-zero-admitted", BUILDERS, "if not 0 < self.theta_mass < 1:",
     "if not 0 <= self.theta_mass < 1:", None),
    ("scaled-ceiling-row-unchecked", BUILDERS, 'raise ValueError(f"ceiling row: {err}") from None',
     "pass", None),
    ("scaled-threshold-unchecked", BUILDERS,
     'from None\n        if not math.isfinite(self.threshold):', "from None\n        if False:",
     None),
    ("table-row-count-open", BUILDERS, "if len(self.rows) != 2:", "if len(self.rows) < 2:", None),
    ("table-row-unchecked", BUILDERS, 'raise ValueError(f"row {value}: {err}") from None', "pass",
     None),
    ("sigmoid-finite-unchecked", BUILDERS,
     'raise ValueError(f"feature value must be finite, got {value}")\n    m_normal',
     "pass\n    m_normal", None),
    ("sigmoid-clamp-upper-dropped", BUILDERS, "min(max(m_normal, MASS_EPS), 1.0 - MASS_EPS)",
     "max(m_normal, MASS_EPS)", None),
    ("sigmoid-clamp-lower-flipped", BUILDERS, "min(max(m_normal, MASS_EPS), 1.0 - MASS_EPS)",
     "min(min(m_normal, MASS_EPS), 1.0 - MASS_EPS)", None),
    ("fold-own-count-kept", FOLDS, "totals[v] - cells[v, fold]", "totals[v]", None),
    ("folds-extra-record", HARNESS, "1 if fold < extra else 0", "1 if fold <= extra else 0",
     None),
    ("confusion-transposed", HARNESS, "matrix[truths[i]][predicted] += 1",
     "matrix[predicted][truths[i]] += 1", None),
    ("column-pass-width-unchecked", LOADER,
     'if lines and set(map(str.count, lines, repeat(","))) == {10}:', "if lines:", None),
    ("wbcd-cell-zeros-kept", READERS, 'raw.lstrip("0") if raw.isdigit()', "raw if raw.isdigit()",
     None),
    ("wbcd-cell-membership-flipped", READERS, "if cell not in _WBCD_CELLS:",
     "if cell in _WBCD_CELLS:", None),
    ("wbcd-cell-any-strip", READERS, 'raw.lstrip("0") if raw.isdigit() else raw', 'raw.lstrip("0")',
     None),
    ("belief-subset-flipped", BELIEF, "bits & ~a == 0", "bits & ~a != 0", None),
    ("plausibility-complement", BELIEF, "if bits & a)", "if bits & ~a)", None),
    ("mass-zero-kept", MASSES, "if value > 0:", "if value >= 0:", None),
    ("mass-sum-bound-inclusive", MASSES, "abs(total - 1.0) > SUM_TOL",
     "abs(total - 1.0) >= SUM_TOL",
     "differs only where |total - 1| equals SUM_TOL = 1e-9, which no float total reaches: "
     "within [0.5, 2] the difference is exact and a multiple of 2^-53, and 1e-9 is not one"),
    ("combine-norm-one-minus-k", RULE, "norm = sum(acc.values())", "norm = 1.0 - k", None),
    ("reader-width-unchecked", READERS,
     'raise DataFormatError(f"{path}:{i}: expected {width} fields, got {len(fields)}")', "pass",
     None),
    ("email-interval-zero-refused", READERS, "interval < 0", "interval <= 0", None),
    ("iris-non-finite-admitted", READERS,
     'raise DataFormatError(f"{path}:{i}: features must be finite")', "pass", None),
    ("email-digit-guard-dropped", READERS, ' and len(v.lstrip("-")) <= digits for v', " for v",
     None),
    ("email-digit-guard-strict", READERS, 'len(v.lstrip("-")) <= digits',
     'len(v.lstrip("-")) < digits', None),
    ("email-digit-guard-sign-counted", READERS, 'len(v.lstrip("-")) <= digits', "len(v) <= digits",
     None),
    ("email-digit-limit-zero-kept", READERS, "sys.get_int_max_str_digits() or math.inf",
     "sys.get_int_max_str_digits()", None),
    ("features-non-ascii-admitted", PARSERS, "if not ch.isascii() or ch.upper()", "if ch.upper()",
     None),
    ("features-unknown-letter-unrefused", PARSERS,
     'parser.error(f"unknown feature letter {ch!r} (use A-I)")', "pass", None),
    ("features-subset-error-raised", PARSERS,
     'as typed\n        parser.error(f"{spec!r}: {exc}")', "as typed\n        raise", None),
    ("signals-non-ascii-admitted", PARSERS,
     "if not (spec.isascii() and all(map(str.isdigit, spec))):",
     "if not all(map(str.isdigit, spec)):", None),
    ("signals-non-digit-unrefused", PARSERS,
     'parser.error(f"signals must be digits 1-4, got {spec!r}")', "pass", None),
    ("signals-subset-error-raised", PARSERS,
     '"signal")\n    except ValueError as exc:\n        parser.error(f"{spec!r}: {exc}")',
     '"signal")\n    except ValueError as exc:\n        raise', None),
    ("mass-entry-colon-flipped", PARSERS, 'if ":" not in part:', 'if ":" in part:', None),
    ("mass-entry-colon-unrefused", PARSERS,
     'parser.error(f"bad mass entry {part!r}, expected subset:value")', "pass", None),
    ("mass-underscore-admitted", PARSERS, 'if not value_spec.isascii() or "_" in value_spec:',
     "if not value_spec.isascii():", None),
    ("mass-non-ascii-admitted", PARSERS, 'if not value_spec.isascii() or "_" in value_spec:',
     'if "_" in value_spec:', None),
    ("mass-value-error-uncaught", PARSERS, "except (EvidenceError, ValueError) as exc:",
     "except EvidenceError as exc:", None),
    ("mass-sum-error-raised", PARSERS, 'parser.error(f"bad mass {spec!r}: {exc}")', "raise", None),
    ("exit-data-format-compute", EXITS, "except (OSError, DataFormatError) as exc:",
     "except OSError as exc:", None),
    ("exit-os-error-dropped", EXITS, "except (OSError, DataFormatError) as exc:",
     "except DataFormatError as exc:", None),
    ("exit-non-int-code-zero", EXITS, "isinstance(exc.code, int) else USAGE_EXIT",
     "isinstance(exc.code, int) else 0", None),
    ("iris-zero-runs-admitted", EXITS, "if args.runs < 1:", "if args.runs < 0:", None),
    ("wbcd-one-fold-admitted", EXITS, 'or --features")\n    if args.folds < 2:',
     'or --features")\n    if args.folds < 1:', None),
    ("iris-one-fold-admitted", EXITS, 'at least 1")\n    if args.folds < 2:',
     'at least 1")\n    if args.folds < 1:', None),
    ("report-csv-folds-from-one", REPORTS, "enumerate(report.per_fold))",
     "enumerate(report.per_fold, 1))", None),
    ("report-text-as-json", REPORTS, 'if fmt == "text":\n        return report_text(report)',
     'if fmt == "text":\n        return report_json(report) + "\\n"', None),
    ("fold-plan-k-bool-admitted", HARNESS, "if type(self.k) is not int or",
     "if not isinstance(self.k, int) or", None),
    ("fold-plan-k-zero-admitted", HARNESS, "or self.k < 1:", "or self.k < 0:", None),
    ("fold-plan-id-bool-admitted", HARNESS, "if type(g) is not int or not 0 <= g < self.k:",
     "if not isinstance(g, int) or not 0 <= g < self.k:", None),
    ("fold-plan-id-k-admitted", HARNESS, "not 0 <= g < self.k:", "not 0 <= g <= self.k:", None),
    ("fold-plan-empty-fold-admitted", HARNESS, "if min(sizes) < 1 or", "if min(sizes) < 0 or",
     None),
    ("fold-plan-unbalanced-admitted", HARNESS, "max(sizes) - min(sizes) > 1",
     "max(sizes) - min(sizes) > 2", None),
    ("combine-empty-intersection-kept", RULE, "if inter:", "if not inter:", None),
    ("combine-conflict-last-product", RULE, "k += vb * vc", "k = vb * vc", None),
]


def selection(scope: Scope, relations: bool = True) -> str:
    return scope.select if relations else f"({scope.select}) and not ({RELATIONS})"


def run_tests(copy: Path, scope: Scope, relations: bool = True) -> int:
    # The copy's pyproject.toml puts its own src/ first on the tests' import path.
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    argv = [sys.executable, "-m", "pytest", *scope.tests, *PYTEST,
            "-k", selection(scope, relations)]
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
            for relations in (True, False):
                if run_tests(copy, scope, relations) != 0:
                    print(f"the unmutated copy fails {' '.join(scope.tests)} "
                          f"-k {selection(scope, relations)!r}", file=sys.stderr)
                    return 2
        survivors, killed, relations_only = [], 0, []
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
                # A killed mutant runs again without the relations: does another test kill it?
                only_relations = died and run_tests(copy, scope, relations=False) == 0
            finally:
                (copy / target).write_text(original, encoding="utf-8")
            if died:
                killed += 1
                if only_relations:
                    relations_only.append(name)
                print(f"killed   {name}{' (only by the relations)' * only_relations}",
                      flush=True)
                continue
            print(f"SURVIVED {name} ({target}:{line})", flush=True)
            survivors.append({"id": name, "where": f"{target}:{line}", "tests": list(scope.tests),
                              "select": scope.select, "from": old.strip(), "to": new.strip(),
                              "equivalent": equivalent})
    result = {"command": ["python", "-m", "pytest", *PYTEST], "killed": killed,
              "total": len(MUTANTS), "survivors": survivors, "relations": RELATIONS,
              "killed_only_by_relations": relations_only}
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    open_gaps = [s["id"] for s in survivors if s["equivalent"] is None]
    print(f"{killed} of {len(MUTANTS)} mutants killed; wrote {args.out}")
    if open_gaps:
        print(f"survivors no test kills yet: {', '.join(open_gaps)}", file=sys.stderr)
    return 1 if open_gaps else 0


if __name__ == "__main__":
    raise SystemExit(main())
