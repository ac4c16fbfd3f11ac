"""Dataset ingestion, synthetic email generation, cross-validation, and
report emission.

All randomness (fold shuffles, generated intervals) is drawn up front from
a seeded Mersenne Twister (python's ``random.Random``), identified in
report configs as ``mt19937-python``, so repeated runs are reproducible
and evaluation order cannot perturb results.
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .bpa import BINARY_FRAME, mean_sd  # noqa: F401 (mean_sd is re-exported)
from .classify import (
    EMAIL_SIGNALS,
    Prediction,
    classify_binary,
    classify_email,
    classify_three_class,
    email_model_default,
    train_binary,
    train_three_class,
)
from .evidence import make_frame, vacuous_mass

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
    """A dataset file or generator config violates its documented layout."""


@dataclass(frozen=True)
class Record:
    """One data item: positional id, feature values (None = missing), label index."""

    id: int
    features: tuple[float | None, ...]
    label: int


@dataclass(frozen=True)
class RecordSet:
    """An ordered dataset with uniform feature arity and unique record ids."""

    records: tuple[Record, ...]
    feature_names: tuple[str, ...]
    label_names: tuple[str, ...]

    def __post_init__(self) -> None:
        ids = [r.id for r in self.records]
        if len(set(ids)) != len(ids):
            raise DataFormatError("record ids must be unique")
        arity = len(self.feature_names)
        for r in self.records:
            if len(r.features) != arity:
                raise DataFormatError(f"record {r.id} has {len(r.features)} features, expected {arity}")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def samples(self, indices: Sequence[int] | None = None) -> list[tuple[tuple[float | None, ...], int]]:
        """(features, label) pairs for training, optionally restricted by index."""
        records = self.records if indices is None else [self.records[i] for i in indices]
        return [(r.features, r.label) for r in records]


def _read_lines(path: str | Path) -> list[str]:
    text = Path(path).read_text(encoding="utf-8")
    return [line.strip() for line in text.splitlines() if line.strip()]


def load_wbcd(path: str | Path) -> RecordSet:
    """Load the UCI ``breast-cancer-wisconsin.data`` layout.

    Eleven comma-separated fields per row: sample code, nine integer
    features in 1..10 ('?' for a missing cell), and the class code
    (2 = benign -> normal, 4 = malignant -> abnormal). Record ids are
    1-based row positions; the file's sample codes repeat and are dropped.
    """
    lines = _read_lines(path)
    if not lines:
        raise DataFormatError(f"{path}: empty dataset file")
    records = []
    for i, line in enumerate(lines, start=1):
        fields = line.split(",")
        if len(fields) != 11:
            raise DataFormatError(f"{path}:{i}: expected 11 fields, got {len(fields)}")
        features: list[float | None] = []
        for raw in fields[1:10]:
            if raw == "?":
                features.append(None)
                continue
            try:
                value = int(raw)
            except ValueError:
                raise DataFormatError(f"{path}:{i}: non-integer feature {raw!r}") from None
            if not 1 <= value <= 10:
                raise DataFormatError(f"{path}:{i}: feature {value} outside 1..10")
            features.append(float(value))
        if fields[10] == "2":
            label = 0
        elif fields[10] == "4":
            label = 1
        else:
            raise DataFormatError(f"{path}:{i}: class code must be 2 or 4, got {fields[10]!r}")
        records.append(Record(i, tuple(features), label))
    return RecordSet(tuple(records), WBCD_FEATURES, ("normal", "abnormal"))


def load_iris(path: str | Path) -> RecordSet:
    """Load the UCI ``iris.data`` layout: four decimals plus the class name.

    Ids are 1-based file positions, so 1-50 are Setosa, 51-100
    Versicolour, and 101-150 Virginica in the canonical file.
    """
    lines = _read_lines(path)
    if not lines:
        raise DataFormatError(f"{path}: empty dataset file")
    records = []
    for i, line in enumerate(lines, start=1):
        fields = line.split(",")
        if len(fields) != 5:
            raise DataFormatError(f"{path}:{i}: expected 5 fields, got {len(fields)}")
        try:
            features = tuple(float(v) for v in fields[:4])
        except ValueError:
            raise DataFormatError(f"{path}:{i}: malformed feature in {fields[:4]}") from None
        if any(not math.isfinite(v) for v in features):
            raise DataFormatError(f"{path}:{i}: features must be finite")
        label = _IRIS_NAME_TO_CLASS.get(fields[4])
        if label is None:
            raise DataFormatError(f"{path}:{i}: unknown class name {fields[4]!r}")
        records.append(Record(i, features, label))
    return RecordSet(tuple(records), IRIS_FEATURES, IRIS_CLASSES)


@dataclass(frozen=True)
class EmailGenConfig:
    """Shape of the synthetic email corpus.

    Worm messages (ids inside ``worm_blocks``) carry a spoofed sender and
    one dangerous attachment; ``doc_ids`` are legitimate messages with one
    benign attachment. Burst leaders are worms sent right after legitimate
    traffic, so their send interval is drawn from the short legit range.
    """

    legit_count: int = 90
    worm_count: int = 42
    worm_blocks: tuple[tuple[int, int], ...] = ((39, 59), (61, 81))
    doc_ids: tuple[int, ...] = (12, 101)
    leader_ids: tuple[int, ...] = (39, 61)
    legit_interval_range: tuple[float, float] = (5.0, 3600.0)
    long_gap_fraction: float = 0.2
    long_gap_range: tuple[float, float] = (3600.0, 94665.0)
    worm_interval_range: tuple[float, float] = (60.0, 600.0)
    leader_interval_range: tuple[float, float] = (5.0, 30.0)
    seed: int = 42

    @property
    def total(self) -> int:
        return self.legit_count + self.worm_count

    def worm_ids(self) -> frozenset[int]:
        return frozenset(
            i for lo, hi in self.worm_blocks for i in range(lo, hi + 1)
        )

    def validate(self) -> None:
        worm_ids: set[int] = set()
        for lo, hi in self.worm_blocks:
            if lo > hi or lo < 1 or hi > self.total:
                raise DataFormatError(f"worm id block {lo}-{hi} outside 1..{self.total}")
            block = set(range(lo, hi + 1))
            if block & worm_ids:
                raise DataFormatError(f"worm id block {lo}-{hi} overlaps another block")
            worm_ids |= block
        if len(worm_ids) != self.worm_count:
            raise DataFormatError(
                f"worm blocks hold {len(worm_ids)} ids but worm_count is {self.worm_count}"
            )
        if set(self.doc_ids) & worm_ids:
            raise DataFormatError("doc-attachment ids overlap the worm id blocks")
        if not set(self.leader_ids) <= worm_ids:
            raise DataFormatError("burst-leader ids must be worm ids")
        for lo, hi in (self.legit_interval_range, self.long_gap_range,
                       self.worm_interval_range, self.leader_interval_range):
            if lo < 0 or lo > hi:
                raise DataFormatError(f"bad interval range ({lo}, {hi})")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def generate_email(config: EmailGenConfig = EmailGenConfig()) -> RecordSet:
    """Deterministically generate the synthetic email corpus for a config."""
    config.validate()
    rng = random.Random(config.seed)
    worm_ids = config.worm_ids()
    leaders = set(config.leader_ids)
    records = []
    for i in range(1, config.total + 1):
        if i in worm_ids:
            if i in leaders:
                interval = _log_uniform(rng, *config.leader_interval_range)
            else:
                interval = rng.uniform(*config.worm_interval_range)
            features = (float(round(interval)), 1.0, 1.0, 0.0)
            label = 1
        else:
            if rng.random() < config.long_gap_fraction:
                interval = _log_uniform(rng, *config.long_gap_range)
            else:
                interval = _log_uniform(rng, *config.legit_interval_range)
            benign = 1.0 if i in config.doc_ids else 0.0
            features = (float(round(interval)), 0.0, 0.0, benign)
            label = 0
        records.append(Record(i, features, label))
    return RecordSet(tuple(records), EMAIL_FEATURES, ("normal", "worm"))


def write_email_csv(dataset: RecordSet, path: str | Path) -> None:
    """Write an email record set in the documented CSV layout."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EMAIL_HEADER)
        for r in dataset:
            interval, spoofed, dangerous, benign = r.features
            writer.writerow(
                [r.id, _plain_number(interval), int(spoofed), int(dangerous), int(benign),
                 "worm" if r.label == 1 else "normal"]
            )


def _plain_number(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def load_email(path: str | Path) -> RecordSet:
    """Load the email CSV layout written by :func:`write_email_csv`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise DataFormatError(f"{path}: empty dataset file") from None
        if header != EMAIL_HEADER:
            raise DataFormatError(f"{path}: header {header} != {EMAIL_HEADER}")
        records = []
        for i, row in enumerate(reader, start=2):
            if len(row) != 6:
                raise DataFormatError(f"{path}:{i}: expected 6 fields, got {len(row)}")
            try:
                rid = int(row[0])
                interval = float(row[1])
                flags = tuple(int(v) for v in row[2:5])
            except ValueError:
                raise DataFormatError(f"{path}:{i}: malformed numeric field") from None
            if not math.isfinite(interval) or interval < 0:
                raise DataFormatError(
                    f"{path}:{i}: interval must be a finite non-negative number, got {interval}"
                )
            if any(flag not in (0, 1) for flag in flags):
                raise DataFormatError(f"{path}:{i}: flags must be 0 or 1, got {flags}")
            if row[5] == "worm":
                label = 1
            elif row[5] == "normal":
                label = 0
            else:
                raise DataFormatError(f"{path}:{i}: unknown label {row[5]!r}")
            records.append(Record(rid, (interval, *map(float, flags)), label))
    if not records:
        raise DataFormatError(f"{path}: no records after the header")
    return RecordSet(tuple(records), EMAIL_FEATURES, ("normal", "worm"))


@dataclass(frozen=True)
class FoldPlan:
    """A k-way partition of record indices, from one seeded shuffle."""

    k: int
    assignment: tuple[int, ...]
    seed: int

    def __post_init__(self) -> None:
        sizes = [0] * self.k
        for fold in self.assignment:
            if not 0 <= fold < self.k:
                raise ValueError(f"fold id {fold} outside 0..{self.k - 1}")
            sizes[fold] += 1
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
    details: tuple = field(default=(), compare=False, repr=False)

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


def _binary_confusion(pairs: Sequence[tuple[int, int]]) -> dict:
    tp = sum(1 for truth, pred in pairs if truth == 1 and pred == 1)
    tn = sum(1 for truth, pred in pairs if truth == 0 and pred == 0)
    fp = sum(1 for truth, pred in pairs if truth == 0 and pred == 1)
    fn = sum(1 for truth, pred in pairs if truth == 1 and pred == 0)
    return {"tp": tp, "tn": tn, "fp": fp, "fn": fn}


def _matrix_confusion(pairs: Sequence[tuple[int, int]], labels: Sequence[str]) -> dict:
    n = len(labels)
    matrix = [[0] * n for _ in range(n)]
    for truth, pred in pairs:
        matrix[truth][pred] += 1
    return {"labels": list(labels), "matrix": matrix}


def _classify_wbcd(record: Sequence[float | None], model, subset: Sequence[int]) -> Prediction:
    # A record whose selected features are all missing carries no evidence,
    # so nothing says abnormal and the tie rule classifies it normal.
    if subset and all(record[f] is None for f in subset):
        return Prediction(
            "normal", vacuous_mass(BINARY_FRAME), {"features": [], "fallback": "no-evidence"}
        )
    return classify_binary(record, model, subset)


def _all_features(dataset: RecordSet) -> tuple[int, ...]:
    return tuple(range(len(dataset.feature_names)))


@dataclass(frozen=True)
class Task:
    """Everything that differs between the benchmark tasks.

    ``train(samples, dataset, subset)`` fits a model on a fold's (features,
    label) pairs for the feature or signal subset it will be asked about;
    ``classify(features, model, subset)`` labels one record with that
    subset. ``key`` names the subset in the report config,
    ``describe(dataset, subset)`` writes it there, and ``default(dataset)``
    is the subset used when none is given.
    """

    train: Callable
    classify: Callable
    key: str
    describe: Callable
    default: Callable
    cross_validates: bool

    def fit(self, samples: Sequence, dataset: RecordSet, subset: Sequence[int], where: str):
        """Train on ``samples`` for ``subset``; a set the trainer cannot fit
        (e.g. too few records of a class) is an input error, raised as
        :class:`DataFormatError`."""
        try:
            return self.train(samples, dataset, subset)
        except ValueError as exc:
            raise DataFormatError(
                f"{where}: cannot train on its {len(samples)} training records: {exc}"
            ) from exc


# The entries reach the trainers and classifiers through this module's
# globals at call time, so rebinding those names (e.g. to trace them)
# reaches every task.
TASKS = {
    "wbcd": Task(
        # Only the fused features are fitted: a one-feature run trains one threshold.
        train=lambda samples, dataset, subset: train_binary(
            [features for features, _ in samples], [label for _, label in samples], subset
        ),
        classify=_classify_wbcd,
        key="features",
        describe=lambda dataset, subset: "".join(dataset.feature_names[f] for f in subset),
        default=_all_features,
        cross_validates=True,
    ),
    "iris": Task(
        train=lambda samples, dataset, subset: train_three_class(
            samples, make_frame(dataset.label_names)
        ),
        classify=lambda record, model, subset: classify_three_class(record, model),
        key="features",
        describe=lambda dataset, subset: list(subset),
        default=_all_features,
        cross_validates=True,
    ),
    "email": Task(
        # The email settings are expert-chosen, so there is no training phase.
        train=lambda samples, dataset, subset: email_model_default(),
        classify=lambda record, model, subset: classify_email(record, model, subset),
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
    features: Sequence[int] | None = None,
    signals: Sequence[int] | None = None,
    seed: int = 0,
) -> EvalReport:
    """Run one benchmark task and collect its report.

    ``wbcd`` and ``iris`` cross-validate with the given fold plan and read
    ``features``; ``email`` classifies every record as one fold with the
    fixed default model and reads ``signals``. Each fold's model is trained
    for the evaluated subset only, so on ``wbcd`` a feature outside it needs
    no training values. A training fold the trainer cannot fit (e.g. too
    few records of a class) is an input error, raised as
    :class:`DataFormatError`; a feature index outside the records is the
    caller's error, a plain ``ValueError`` raised before any training.
    """
    start = time.perf_counter()
    spec = TASKS.get(task)
    if spec is None:
        raise ValueError(f"unknown task {task!r}")
    if not dataset.records:
        raise DataFormatError("the record set is empty: there are no records to evaluate")
    if not spec.cross_validates:
        if folds is not None:
            raise ValueError(f"the {task} task does not cross-validate")
        folds = FoldPlan(1, (0,) * len(dataset), seed)
    elif folds is None:
        raise ValueError(f"task {task!r} needs a fold plan")
    if len(folds.assignment) != len(dataset):
        raise ValueError("fold plan does not cover this dataset")
    subset = features if spec.key == "features" else signals
    subset = spec.default(dataset) if subset is None else tuple(subset)
    if spec.key == "features":
        n_features = len(dataset.feature_names)
        for f in subset:
            if not 0 <= f < n_features:
                raise ValueError(f"feature {f} outside 0..{n_features - 1}")
    per_fold = []
    pairs = []
    misclassified = []
    details = []
    for fold in range(folds.k):
        train = dataset.samples(folds.train_indices(fold))
        model = spec.fit(train, dataset, subset, f"fold {fold + 1} of {folds.k}")
        correct = 0
        test_indices = folds.test_indices(fold)
        for i in test_indices:
            record = dataset.records[i]
            pred = spec.classify(record.features, model, subset)
            predicted = pred.mass.frame.labels.index(pred.label)
            pairs.append((record.label, predicted))
            if predicted == record.label:
                correct += 1
            else:
                misclassified.append(record.id)
                details.append(_error_detail(dataset, record, pred))
        per_fold.append(correct / len(test_indices))
    config = {
        spec.key: spec.describe(dataset, subset),
        "k": folds.k,
        "seed": folds.seed,
        "rng": RNG_ID,
    }
    confusion = (
        _binary_confusion(pairs)
        if len(dataset.label_names) == 2
        else _matrix_confusion(pairs, dataset.label_names)
    )
    accuracy = (len(dataset) - len(misclassified)) / len(dataset)
    return EvalReport(
        task, config, accuracy, tuple(per_fold), confusion, tuple(sorted(misclassified)),
        time.perf_counter() - start, tuple(details),
    )


def _error_detail(dataset: RecordSet, record: Record, pred) -> dict:
    return {
        "id": record.id,
        "truth": dataset.label_names[record.label],
        "predicted": pred.label,
        "masses": str(pred.mass),
        "trace": dict(pred.trace),
    }


def ablation(
    dataset: RecordSet,
    task: str,
    subsets: Sequence[Sequence[int]],
    folds: FoldPlan | None = None,
    seed: int = 0,
) -> list[tuple[str, float]]:
    """One evaluation per feature (or signal) subset, reusing the fold plan."""
    table = []
    for subset in subsets:
        report = evaluate(dataset, task, folds=folds, features=subset, signals=subset, seed=seed)
        table.append((report.config[TASKS[task].key], report.accuracy))
    return table


def repeated_cv(
    dataset: RecordSet, task: str, runs: int, k: int, seed: int,
    features: Sequence[int] | None = None,
) -> list[EvalReport]:
    """Full cross-validations with seeds seed, seed+1, ..., seed+runs-1."""
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    return [
        evaluate(dataset, task, folds=make_folds(len(dataset), k, seed + i), features=features)
        for i in range(runs)
    ]


def report_json(report: EvalReport, include_runtime: bool = True) -> str:
    """Canonical JSON rendering: schema key order, 2-space indent."""
    return json.dumps(report.to_json_dict(include_runtime), indent=2)


def write_report(report: EvalReport, path: str | Path, fmt: str = "json") -> None:
    """Write a report as json (canonical), csv (per-fold table), or text."""
    path = Path(path)
    if fmt == "json":
        path.write_text(report_json(report) + "\n", encoding="utf-8")
    elif fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fold", "accuracy"])
            for fold, acc in enumerate(report.per_fold):
                writer.writerow([fold, repr(acc)])
    elif fmt == "text":
        path.write_text(report_text(report), encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def load_report(path: str | Path) -> EvalReport:
    """Reload a JSON report written by :func:`write_report`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return EvalReport(
        task=data["task"],
        config=data["config"],
        accuracy=data["accuracy"],
        per_fold=tuple(data["per_fold"]),
        confusion=data["confusion"],
        misclassified=tuple(data["misclassified"]),
        runtime_seconds=data.get("runtime_seconds", 0.0),
    )


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
            f"{detail['predicted']} with {detail['masses']} via {detail['trace']}"
        )
    lines.append(f"runtime: {report.runtime_seconds:.3f} s")
    return "\n".join(lines) + "\n"
