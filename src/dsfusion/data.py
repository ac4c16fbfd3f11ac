"""Dataset ingestion, synthetic email generation, cross-validation, and
report emission.

All randomness (fold shuffles, generated intervals) is drawn up front from
a seeded Mersenne Twister (python's ``random.Random``), identified in
report configs as ``mt19937-python``, so repeated runs are reproducible
and evaluation order cannot perturb results.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
import time
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Sequence

from .classify import (
    EMAIL_SIGNALS,
    checked_subset,
    classify_binary,
    classify_email,
    classify_three_class,
    email_model_default,
    train_binary_folds,
    train_three_class_folds,
)
from .evidence import make_frame

RNG_ID = "mt19937-python"

WBCD_FEATURES = ("A", "B", "C", "D", "E", "F", "G", "H", "I")
IRIS_FEATURES = ("sepal_length", "sepal_width", "petal_length", "petal_width")
IRIS_CLASSES = ("Setosa", "Versicolour", "Virginica")
EMAIL_FEATURES = ("interval_seconds", "spoofed", "dangerous_attachment", "benign_attachment")
EMAIL_HEADER = ("id", "interval_seconds", "spoofed", "dangerous_attachment",
                "benign_attachment", "label")

_IRIS_NAME_TO_CLASS = {
    "Iris-setosa": 0,
    "Iris-versicolor": 1,
    "Iris-virginica": 2,
}


class DataFormatError(ValueError):
    """A dataset file violates its documented layout."""


# Numeric cells are plain ASCII: digits after an optional minus sign, and
# for a decimal an optional fraction and exponent (the form ``repr``
# writes). Python's int() and float() also read underscores, surrounding
# blanks and non-ASCII digits, none of which the layouts contain.
_INTEGER = re.compile(r"-?[0-9]+")
_DECIMAL = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")


@dataclass(frozen=True)
class RecordSet:
    """An ordered dataset as columns: unique ids, rows (None = missing) and label indices."""

    ids: tuple[int, ...]
    rows: tuple[tuple[float | None, ...], ...]
    labels: tuple[int, ...]
    feature_names: tuple[str, ...]
    label_names: tuple[str, ...]

    def __post_init__(self) -> None:
        n, arity, seen = len(self.ids), len(self.feature_names), set()
        classes = range(len(self.label_names))
        if len(self.rows) != n or len(self.labels) != n:
            raise DataFormatError(f"{n} ids, {len(self.rows)} rows and {len(self.labels)} labels")
        if len(set(self.ids)) != n:
            repeat = next(rid for rid in self.ids if rid in seen or seen.add(rid))
            raise DataFormatError(f"record ids must be unique, {repeat} repeats")
        if set(map(len, self.rows)) - {arity} or set(self.labels) - set(classes):
            for rid, row, label in zip(self.ids, self.rows, self.labels):
                if len(row) != arity:
                    raise DataFormatError(f"record {rid} has {len(row)} features, expected {arity}")
                if label not in classes:
                    raise DataFormatError(
                        f"record {rid} has label {label!r}, outside 0..{len(classes) - 1}"
                    )

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def records(self) -> tuple[SimpleNamespace, ...]:
        """``SimpleNamespace(id=, features=, label=)`` views, built on each read for the
        benchmark's ``wbcd`` reference; ROADMAP item 6 deletes them after item 1."""
        columns = zip(self.ids, self.rows, self.labels)
        return tuple(SimpleNamespace(id=i, features=row, label=label) for i, row, label in columns)


def _positional(rows: list, labels: list, *names: tuple[str, ...]) -> RecordSet:
    # A record set whose ids are the 1-based record positions.
    return RecordSet(tuple(range(1, len(rows) + 1)), tuple(rows), tuple(labels), *names)


def _read_text(path: str | Path) -> str:
    # The file's text, decoded as UTF-8 with a leading byte-order mark dropped.
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from None


def _read_rows(path: str | Path, width: int, header: tuple | None = None) -> list:
    """Each record line of a UTF-8 dataset file (a leading byte-order mark is
    dropped): its line number and its ``width`` comma-separated cells. Lines
    end at "\\n" alone (reading turns "\\r\\n" and "\\r" into it;
    ``str.splitlines`` would also split at "\\x0c"), whitespace-only lines
    are skipped and no line is stripped. ``header`` must equal the first
    line's cells, which are then dropped."""
    lines = enumerate(_read_text(path).split("\n"), start=1)
    rows = [(i, line.split(",")) for i, line in lines if line and not line.isspace()]
    if not rows:
        raise DataFormatError(f"{path}: empty dataset file")
    if header is not None:
        first = tuple(rows.pop(0)[1])
        if first != header:
            raise DataFormatError(f"{path}: header {first} != {header}")
        if not rows:
            raise DataFormatError(f"{path}: no records after the header")
    for i, fields in rows:
        if len(fields) != width:
            raise DataFormatError(f"{path}:{i}: expected {width} fields, got {len(fields)}")
    return rows


# The value of each of the eleven canonical WBCD cells, and of each class code, in one lookup.
_WBCD_CELLS = {"?": None, **{str(v): float(v) for v in range(1, 11)}}
_WBCD_CLASSES = {"2": 0, "4": 1}


def load_wbcd(path: str | Path) -> RecordSet:
    """Load the UCI ``breast-cancer-wisconsin.data`` layout.

    Eleven comma-separated fields per row: sample code, nine integer
    features in 1..10 ('?' for a missing cell), and the class code
    (2 = benign -> normal, 4 = malignant -> abnormal). Record ids are
    1-based row positions; the file's sample codes repeat and are dropped
    unchecked.
    """
    lines = list(filter(str.strip, _read_text(path).split("\n")))  # the lines _read_rows keeps
    if lines and set(map(str.count, lines, repeat(","))) == {10}:
        cells = ",".join(lines).split(",")
        with suppress(KeyError):  # every cell and class code canonical: one pass per column
            rows = tuple(zip(*(map(_WBCD_CELLS.__getitem__, cells[j::11]) for j in range(1, 10))))
            labels = tuple(map(_WBCD_CLASSES.__getitem__, cells[10::11]))
            return _positional(rows, labels, WBCD_FEATURES, ("normal", "abnormal"))
    # Another width, spelling or a bad value: row by row, naming the first bad line.
    rows, labels = _wbcd_rows(path, _read_rows(path, 11))
    return _positional(rows, labels, WBCD_FEATURES, ("normal", "abnormal"))


def _wbcd_rows(path: str | Path, lines: list) -> tuple[list, list]:
    # Each line's features and label by the cell and class rules, in file order.
    rows, labels = [], []
    for i, fields in lines:
        try:
            features = tuple(map(_WBCD_CELLS.__getitem__, fields[1:10]))
        except KeyError:  # another spelling: each cell by the rule, so "01" reads as 1
            for raw in fields[1:10]:
                if raw != "?" and not (raw.isascii() and raw.isdigit() and 1 <= int(raw) <= 10):
                    raise DataFormatError(f"{path}:{i}: feature {raw!r} is not an integer in 1..10")
            features = tuple(None if raw == "?" else float(raw) for raw in fields[1:10])
        label = _WBCD_CLASSES.get(fields[10])
        if label is None:
            raise DataFormatError(f"{path}:{i}: class code must be 2 or 4, got {fields[10]!r}")
        rows.append(features)
        labels.append(label)
    return rows, labels


def load_iris(path: str | Path) -> RecordSet:
    """Load the UCI ``iris.data`` layout: four decimals plus the class name.

    Ids are 1-based file positions, so 1-50 are Setosa, 51-100
    Versicolour, and 101-150 Virginica in the canonical file.
    """
    rows, labels = [], []
    for i, fields in _read_rows(path, 5):
        if not all(map(_DECIMAL.fullmatch, fields[:4])):
            raise DataFormatError(f"{path}:{i}: malformed feature in {fields[:4]}")
        features = tuple(map(float, fields[:4]))
        if any(not math.isfinite(v) for v in features):
            raise DataFormatError(f"{path}:{i}: features must be finite")
        label = _IRIS_NAME_TO_CLASS.get(fields[4])
        if label is None:
            raise DataFormatError(f"{path}:{i}: unknown class name {fields[4]!r}")
        rows.append(features)
        labels.append(label)
    return _positional(rows, labels, IRIS_FEATURES, IRIS_CLASSES)


# The synthetic email corpus: 132 messages, 90 legitimate and 42 worms.
# Worm messages (ids inside the worm blocks) carry a spoofed sender and one
# dangerous attachment; the doc ids are legitimate messages with one benign
# attachment. Burst leaders are worms sent right after legitimate traffic,
# so their send interval is drawn from a short legit-looking range.
# Intervals are in seconds, and a range is (lo, hi).
EMAIL_MESSAGES = 132
EMAIL_WORM_BLOCKS = ((39, 59), (61, 81))
EMAIL_WORM_IDS = frozenset(i for lo, hi in EMAIL_WORM_BLOCKS for i in range(lo, hi + 1))
EMAIL_DOC_IDS = (12, 101)
EMAIL_LEADER_IDS = (39, 61)
EMAIL_LEGIT_INTERVALS = (5.0, 3600.0)
EMAIL_LONG_GAP_FRACTION = 0.2
EMAIL_LONG_GAP_INTERVALS = (3600.0, 94665.0)
EMAIL_WORM_INTERVALS = (60.0, 600.0)
EMAIL_LEADER_INTERVALS = (5.0, 30.0)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def generate_email(seed: int = 42) -> RecordSet:
    """Deterministically generate the synthetic email corpus for a seed."""
    rng = random.Random(seed)
    rows, labels = [], []
    for i in range(1, EMAIL_MESSAGES + 1):
        if i in EMAIL_WORM_IDS:
            if i in EMAIL_LEADER_IDS:
                interval = _log_uniform(rng, *EMAIL_LEADER_INTERVALS)
            else:
                interval = rng.uniform(*EMAIL_WORM_INTERVALS)
            rows.append((float(round(interval)), 1.0, 1.0, 0.0))
        else:
            if rng.random() < EMAIL_LONG_GAP_FRACTION:
                interval = _log_uniform(rng, *EMAIL_LONG_GAP_INTERVALS)
            else:
                interval = _log_uniform(rng, *EMAIL_LEGIT_INTERVALS)
            rows.append((float(round(interval)), 0.0, 0.0, float(i in EMAIL_DOC_IDS)))
        labels.append(int(i in EMAIL_WORM_IDS))
    return _positional(rows, labels, EMAIL_FEATURES, ("normal", "worm"))


def write_email_csv(dataset: RecordSet, path: str | Path) -> None:
    """Write an email record set in the documented CSV layout."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EMAIL_HEADER)
        for rid, row, label in zip(dataset.ids, dataset.rows, dataset.labels):
            interval, spoofed, dangerous, benign = row
            writer.writerow(
                [rid, _plain_number(interval), int(spoofed), int(dangerous), int(benign),
                 "worm" if label == 1 else "normal"]
            )


def _plain_number(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def load_email(path: str | Path) -> RecordSet:
    """Load the email CSV layout written by :func:`write_email_csv`."""
    ids, rows, labels = [], [], []
    for i, row in _read_rows(path, 6, EMAIL_HEADER):
        if not all(map(_INTEGER.fullmatch, (row[0], *row[2:5]))):
            raise DataFormatError(f"{path}:{i}: malformed numeric field")
        interval = float(row[1]) if _DECIMAL.fullmatch(row[1]) else math.nan
        if not math.isfinite(interval) or interval < 0:
            raise DataFormatError(
                f"{path}:{i}: interval must be a finite non-negative number, got {row[1]!r}"
            )
        flags = tuple(int(v) for v in row[2:5])
        if any(flag not in (0, 1) for flag in flags):
            raise DataFormatError(f"{path}:{i}: flags must be 0 or 1, got {flags}")
        label = {"normal": 0, "worm": 1}.get(row[5])
        if label is None:
            raise DataFormatError(f"{path}:{i}: unknown label {row[5]!r}")
        ids.append(int(row[0]))
        rows.append((interval, *map(float, flags)))
        labels.append(label)
    return RecordSet(tuple(ids), tuple(rows), tuple(labels), EMAIL_FEATURES, ("normal", "worm"))


@dataclass(frozen=True)
class FoldPlan:
    """A k-way partition of record indices, from one seeded shuffle."""

    k: int
    assignment: tuple[int, ...]
    seed: int

    def __post_init__(self) -> None:
        if type(self.k) is not int or self.k < 1:
            raise ValueError(f"k must be an int of at least 1, got {self.k!r}")
        for g in self.assignment:  # each id before it is counted: True and 1.0 would count as 1
            if type(g) is not int or not 0 <= g < self.k:
                problem = f"outside 0..{self.k - 1}" if type(g) is int else "is not an int"
                raise ValueError(f"fold id {g!r} {problem}")
        counts = Counter(self.assignment)
        sizes = [counts[g] for g in range(self.k)]
        if min(sizes) < 1 or max(sizes) - min(sizes) > 1:
            raise ValueError(f"fold sizes {sizes} are not balanced")

    def test_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.assignment) if f == fold]

    def train_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.assignment) if f != fold]


def make_folds(n: int, k: int, seed: int) -> FoldPlan:
    """Shuffle n record indices with a seeded generator and cut k near-equal folds."""
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if n < k:
        raise DataFormatError(f"cannot split {n} records into {k} folds")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    assignment = [0] * n
    base, extra = divmod(n, k)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        for i in order[start:start + size]:
            assignment[i] = fold
        start += size
    return FoldPlan(k, tuple(assignment), seed)


@dataclass(frozen=True)
class EvalReport:
    """Accuracy, per-fold accuracies, confusion counts, and the error ids."""

    task: str
    config: dict
    accuracy: float
    per_fold: tuple[float, ...]
    confusion: dict
    misclassified: tuple[int, ...]
    runtime_seconds: float
    # One dict per misclassified record: its id, truth, predicted label,
    # trace and Prediction; report_text formats the mass when it renders.
    details: tuple = field(default=(), compare=False, repr=False)
    # The Prediction of every record, in the record set's order.
    predictions: tuple = field(default=(), compare=False, repr=False)

    def to_json_dict(self, include_runtime: bool = True) -> dict:
        out = {
            "task": self.task,
            "config": self.config,
            "accuracy": self.accuracy,
            "per_fold": list(self.per_fold),
            "confusion": self.confusion,
            "misclassified": list(self.misclassified),
        }
        if include_runtime:
            out["runtime_seconds"] = self.runtime_seconds
        return out


def _all_features(dataset: RecordSet) -> tuple[int, ...]:
    return tuple(range(len(dataset.feature_names)))


@dataclass(frozen=True)
class Task:
    """Everything that differs between the benchmark tasks.

    ``train(rows, labels, held_out, dataset, subset)`` prepares every
    fold's fit at once, for the feature or signal subset to fuse, so the
    model is the only place the subset is chosen: record i is held out of
    fold ``held_out[i]``, and it returns a function of a fold that trains
    on the other records' rows and labels, in index order (fold None holds
    none out). ``classify`` names the function of this module that labels
    one record with a model, ``classify(features, model)``; :func:`evaluate`
    looks it up when called. ``key`` names the subset in the report config,
    ``describe(dataset, subset)`` writes it there, and ``default(dataset)``
    is the subset used when none is given; a task with ``fixed_subset``
    accepts no other.
    """

    train: Callable
    classify: str
    key: str
    describe: Callable
    default: Callable
    cross_validates: bool
    fixed_subset: bool = False

    def fit(self, dataset: RecordSet, held_out: Sequence[int], subset: Sequence[int]) -> Callable:
        """``train`` on ``dataset``'s columns, as ``fit(fold, where)``: a fold
        the trainer cannot fit (e.g. too few records of a class) is an input
        error, raised as :class:`DataFormatError` naming it ``where``."""
        fit = self.train(dataset.rows, dataset.labels, held_out, dataset, subset)

        def fit_fold(fold: int | None, where: str):
            try:
                return fit(fold)
            except ValueError as exc:
                n = len(held_out) - held_out.count(fold)
                raise DataFormatError(
                    f"{where}: cannot train on its {n} training records: {exc}"
                ) from exc

        return fit_fold


# The entries reach the trainers and classifiers through this module's
# globals at call time, so rebinding those names (e.g. to trace them)
# reaches every task: the trainers from their lambdas, the classifiers by
# name, once per evaluate call.
TASKS = {
    "wbcd": Task(
        # Only the fused features are fitted: a one-feature run trains one threshold.
        train=lambda rows, labels, held_out, dataset, subset: train_binary_folds(
            rows, labels, held_out, subset
        ),
        classify="classify_binary",
        key="features",
        describe=lambda dataset, subset: "".join(dataset.feature_names[f] for f in subset),
        default=_all_features,
        cross_validates=True,
    ),
    "iris": Task(
        train=lambda rows, labels, held_out, dataset, subset: train_three_class_folds(
            rows, labels, held_out, make_frame(dataset.label_names)
        ),
        classify="classify_three_class",
        key="features",
        describe=lambda dataset, subset: list(subset),
        default=_all_features,
        cross_validates=True,
        # The three-class pipeline always fuses every feature.
        fixed_subset=True,
    ),
    "email": Task(
        # The email settings are expert-chosen: training only picks the signals.
        train=lambda rows, labels, held_out, dataset, subset: lambda fold: replace(
            email_model_default(), signals=frozenset(subset)
        ),
        classify="classify_email",
        key="signals",
        describe=lambda dataset, subset: "".join(str(s) for s in subset),
        default=lambda dataset: EMAIL_SIGNALS,
        cross_validates=False,
    ),
}


def evaluate(
    dataset: RecordSet,
    task: str,
    folds: FoldPlan | None = None,
    subset: Sequence[int] | None = None,
    seed: int = 0,
) -> EvalReport:
    """Run one benchmark task and collect its report.

    ``wbcd`` and ``iris`` cross-validate with the given fold plan and read
    ``subset`` as feature indices (``iris`` fuses all four, always);
    ``email`` classifies every record as one fold with the fixed default
    model and reads it as signal numbers. Each fold's model is trained for
    the evaluated subset only, so on ``wbcd`` a feature outside it needs no
    training values. A training fold the trainer cannot fit (e.g. too few
    records of a class) is an input error, raised as
    :class:`DataFormatError`; a subset that :func:`checked_subset` refuses
    for ``spec.default(dataset)``, or that the task does not take, is the
    caller's error, a plain ``ValueError`` raised before any training.
    """
    start = time.perf_counter()
    spec = TASKS.get(task)
    if spec is None:
        raise ValueError(f"unknown task {task!r}")
    if not dataset.ids:
        raise DataFormatError("the record set is empty: there are no records to evaluate")
    if not spec.cross_validates:
        if folds is not None:
            raise ValueError(f"the {task} task does not cross-validate")
        folds = FoldPlan(1, (0,) * len(dataset), seed)
    elif folds is None:
        raise ValueError(f"task {task!r} needs a fold plan")
    if len(folds.assignment) != len(dataset):
        raise ValueError("fold plan does not cover this dataset")
    default = spec.default(dataset)
    # One model, one config: the caller's order is not kept. key[:-1] names one entry.
    subset = default if subset is None else checked_subset(subset, default, spec.key[:-1])
    if spec.fixed_subset and subset != default:
        raise ValueError(f"the {task} task fuses exactly {list(default)}, got {list(subset)}")
    per_fold = []
    labels = dataset.label_names
    matrix = [[0] * len(labels) for _ in labels]
    details = []
    predictions = [None] * len(dataset)
    rows, truths = dataset.rows, dataset.labels
    tests: list[list[int]] = [[] for _ in range(folds.k)]
    for i, fold in enumerate(folds.assignment):
        tests[fold].append(i)
    # Each fold is trained when the loop reaches it, so its errors come in fold order.
    fit = spec.fit(dataset, folds.assignment, subset)
    classify = globals()[spec.classify]
    for fold, test_indices in enumerate(tests):
        model = fit(fold, f"fold {fold + 1} of {folds.k}")
        correct = 0
        for i in test_indices:
            pred = classify(rows[i], model)
            predictions[i] = pred
            predicted = pred.frame.labels.index(pred.label)
            matrix[truths[i]][predicted] += 1
            if predicted == truths[i]:
                correct += 1
            else:
                details.append({
                    "id": dataset.ids[i],
                    "truth": labels[truths[i]],
                    "predicted": pred.label,
                    "trace": dict(pred.trace),
                    "prediction": pred,
                })
        per_fold.append(correct / len(test_indices))
    config = {
        spec.key: spec.describe(dataset, subset),
        "k": folds.k,
        "seed": folds.seed,
        "rng": RNG_ID,
    }
    if len(labels) == 2:
        (tn, fp), (fn, tp) = matrix
        confusion = {"tp": tp, "tn": tn, "fp": fp, "fn": fn}
    else:
        confusion = {"labels": list(labels), "matrix": matrix}
    accuracy = (len(dataset) - len(details)) / len(dataset)
    misclassified = tuple(sorted(d["id"] for d in details))
    return EvalReport(
        task, config, accuracy, tuple(per_fold), confusion, misclassified,
        time.perf_counter() - start, tuple(details), tuple(predictions),
    )


def repeated_cv(dataset: RecordSet, task: str, runs: int, k: int, seed: int) -> list[EvalReport]:
    """Full cross-validations with seeds seed, seed+1, ..., seed+runs-1."""
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    return [
        evaluate(dataset, task, folds=make_folds(len(dataset), k, seed + i)) for i in range(runs)
    ]


def report_json(report: EvalReport, include_runtime: bool = True) -> str:
    """Canonical JSON rendering: schema key order, 2-space indent."""
    return json.dumps(report.to_json_dict(include_runtime), indent=2)


def render_report(report: EvalReport, fmt: str) -> str:
    """A report as json (canonical), csv (per-fold table, CRLF line ends), or text."""
    if fmt == "json":
        return report_json(report) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["fold", "accuracy"])
        writer.writerows([fold, repr(acc)] for fold, acc in enumerate(report.per_fold))
        return out.getvalue()
    if fmt == "text":
        return report_text(report)
    raise ValueError(f"unknown report format {fmt!r}")


def report_text(report: EvalReport) -> str:
    """Human-readable report, with mass traces for the misclassified records."""
    lines = [
        f"task: {report.task}",
        "config: " + ", ".join(f"{k}={v}" for k, v in report.config.items()),
        f"accuracy: {report.accuracy:.4f}",
        "per-fold: " + " ".join(f"{acc:.4f}" for acc in report.per_fold),
        f"confusion: {report.confusion}",
        f"misclassified ({len(report.misclassified)}): "
        + ", ".join(str(i) for i in report.misclassified),
    ]
    for detail in report.details:
        lines.append(
            f"  id {detail['id']}: {detail['truth']} classified as "
            f"{detail['predicted']} with {detail['prediction'].mass} via {detail['trace']}"
        )
    lines.append(f"runtime: {report.runtime_seconds:.3f} s")
    return "\n".join(lines) + "\n"
