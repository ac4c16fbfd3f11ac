"""The classifiers decide on scalars and build a prediction's mass function
only when it is read: how many masses get built, that the deferred mass
equals its reference bit for bit (for three classes, the exact fold rounded
once), and that predictions pickle and copy before and after the read."""

import copy
import math
import pickle
from dataclasses import replace
from itertools import combinations, product

import pytest

from dsfusion import (
    BINARY_FRAME,
    TableBpa,
    TotalConflictError,
    classify_binary,
    classify_email,
    classify_three_class,
    combine_binary,
    email_model_default,
    evaluate,
    generate_email,
    make_folds,
    make_frame,
    train_binary,
    train_three_class,
    vacuous_mass,
)
from dsfusion import evidence
from dsfusion.bpa import logistic
from dsfusion.classify import email_signal_row
from dsfusion.data import report_text

from test_classify import (
    _model_with_rows,
    assert_close_masses,
    exact_three_class_mass,
    generic_three_class_mass,
)
from test_data import ACCEPTANCE_SUBSETS

IRIS_FRAME = make_frame(["Setosa", "Versicolour", "Virginica"])
EMAIL_SUBSETS = [c for r in range(1, 5) for c in combinations((1, 2, 3, 4), r)]
CLONES = [lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy]
CLONE_IDS = ["pickle", "copy", "deepcopy"]


@pytest.fixture
def built(monkeypatch):
    """Counts every MassFunction built from here on: each one goes through
    the one checked constructor, whose ``__post_init__`` is counted."""
    count = [0]
    post_init = evidence.MassFunction.__post_init__

    def counting(self):
        count[0] += 1
        post_init(self)

    monkeypatch.setattr(evidence.MassFunction, "__post_init__", counting)
    return count


def email_messages(n):
    return [(float(i % 300), i % 2, (i // 2) % 2, (i // 4) % 2) for i in range(n)]


def one_of_each(wbcd_dataset, iris_dataset):
    """One prediction per classifier and per mass builder: email, binary,
    binary without evidence, and three-class decided at step 1 and step 3."""
    rows = wbcd_dataset.rows
    binary = train_binary(rows, wbcd_dataset.labels)
    three = train_three_class(iris_dataset.rows, iris_dataset.labels, IRIS_FRAME)
    iris_preds = [classify_three_class(row, three) for row in iris_dataset.rows]
    by_stage = {p.trace["decided"]: p for p in iris_preds}
    return [
        classify_email((5.0, 1, 1, 0), email_model_default()),
        classify_binary(rows[0], binary),
        classify_binary([None] * len(rows[0]), binary),
        by_stage["step1"],
        by_stage["step3"],
    ]


class TestLaziness:
    def test_classifying_builds_no_mass(self, built, wbcd_dataset, iris_dataset):
        model = email_model_default()
        start = built[0]  # building the model checks its rows as masses; classifying builds none
        for message in email_messages(1000):
            classify_email(message, model)
        rows = wbcd_dataset.rows
        binary = train_binary(rows, wbcd_dataset.labels)
        for row in rows:
            classify_binary(row, binary)
        three = train_three_class(iris_dataset.rows, iris_dataset.labels, IRIS_FRAME)
        for row in iris_dataset.rows:
            classify_three_class(row, three)
        assert (len(rows), len(iris_dataset.rows)) == (699, 150)
        assert built[0] == start

    def test_first_read_builds_one_mass_and_keeps_it(self, built, wbcd_dataset, iris_dataset):
        for pred in one_of_each(wbcd_dataset, iris_dataset):
            before = built[0]
            mass = pred.mass
            assert built[0] == before + 1
            assert pred.mass is mass
            assert built[0] == before + 1

    def test_evaluate_builds_the_misclassified_masses_only(self, built, wbcd_dataset):
        # evaluate builds none; the text report builds one per distinct prediction it prints,
        # as errors with equal fitted values in one fold share their model's one prediction.
        folds = make_folds(len(wbcd_dataset), 10, 42)
        report = evaluate(wbcd_dataset, "wbcd", folds=folds)
        assert report.misclassified
        assert built[0] == 0
        report_text(report)
        assert built[0] == len({id(detail["prediction"]) for detail in report.details})


class TestSharedSaturatedPrediction:
    """Past the interval's cutoff (threshold + 709) a message gets its table entry's one
    prediction: shared by every message with equal flags, and its mass built once."""

    FLAGS = list(product((0, 1), repeat=3))

    def test_equal_flags_share_one_prediction(self):
        model = email_model_default()
        shared = {}
        for flags in self.FLAGS:
            spellings = [(1e3, *flags), (5e5, *map(float, flags)), (math.inf, *map(bool, flags))]
            first, *others = [classify_email(m, model) for m in spellings]
            assert all(other is first for other in others)
            shared[flags] = first
        assert len({id(pred) for pred in shared.values()}) == len(self.FLAGS)

    def test_classifying_builds_no_mass_and_reading_one_per_entry(self, built):
        model = email_model_default()
        model.table  # built once per model, before the messages
        start = built[0]
        messages = [(740.0 + i, *self.FLAGS[i % 8]) for i in range(1000)]
        preds = [classify_email(m, model) for m in messages]
        assert built[0] == start
        for pred in preds:
            pred.mass
        assert len({id(pred) for pred in preds}) == 8
        assert built[0] == start + 8

    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
    def test_shared_prediction_pickles_copies_and_replaces(self, clone, read_first):
        model = email_model_default()
        shared = classify_email((1e3, 1, 1, 0), model)
        if read_first:
            shared.mass
        other = clone(shared)
        assert other is not shared and other == shared
        assert list(other.mass._masses.items()) == list(shared.mass._masses.items())
        relabelled = replace(shared, label="normal")
        assert relabelled is not shared and relabelled.label == "normal"
        assert relabelled.mass == shared.mass
        assert classify_email((2e3, 1, 1, 0), model) is shared
        assert shared.label == "abnormal"


class TestCachedMass:
    """A prediction keeps the mass that its first read builds; ``replace`` starts without it."""

    def test_replace_after_the_read_builds_its_own_mass(self, built, wbcd_dataset):
        # The bench's planted fault relabels with replace; new args must give a new mass.
        model = train_binary(wbcd_dataset.rows, wbcd_dataset.labels)
        pred = classify_binary(wbcd_dataset.rows[0], model)
        (score,) = pred.args
        mass = pred.mass
        start = built[0]
        flipped = replace(pred, label="abnormal", args=(-score,))
        relabelled = replace(pred, label="abnormal")
        assert built[0] == start
        row = (logistic(score), logistic(-score), 0.0)
        assert flipped.mass == combine_binary(BINARY_FRAME, [row])
        assert flipped.mass != mass
        assert relabelled.mass == mass and relabelled.mass is not mass
        assert built[0] == start + 3  # flipped's, the reference's and relabelled's

    @pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
    def test_a_clone_keeps_the_mass_as_it_was(self, built, wbcd_dataset, iris_dataset, clone):
        for pred in one_of_each(wbcd_dataset, iris_dataset):
            unread = clone(pred)
            mass = pred.mass
            read = clone(pred)
            start = built[0]
            assert read == pred and read.mass == mass
            assert built[0] == start
            assert unread == pred
            assert built[0] == start + 1


def test_binary_records_share_their_model_trace(wbcd_dataset):
    # Every record that sums in one fsum gets its model's one trace; evaluate keeps no copy.
    rows = wbcd_dataset.rows
    model = train_binary(rows, wbcd_dataset.labels, (0, 3, 8))
    first, second = (classify_binary(row, model) for row in rows[:2])
    assert first is not second and first.args != second.args
    assert first.trace is second.trace and first.trace == {"features": [0, 3, 8]}
    other = train_binary(rows, wbcd_dataset.labels, (0, 3, 8))
    assert classify_binary(rows[0], other).trace is not first.trace
    missing = classify_binary((None, *rows[0][1:]), model)
    assert missing.trace == {"features": [3, 8]}
    report = evaluate(wbcd_dataset, "wbcd", folds=make_folds(len(rows), 10, 42))
    assert report.details
    text = report_text(report)
    for detail in report.details:
        assert "trace" not in detail
        assert f"via {detail['prediction'].trace}" in text


class TestDeferredMassIsExact:
    """The deferred mass equals its reference: for the binary frame the mass
    the classifiers used to build eagerly, the same floats under the same keys
    in the same order; for three classes the exact fold, each mass rounded once."""

    def test_wbcd_acceptance_subsets(self, wbcd_dataset):
        folds = make_folds(len(wbcd_dataset), 10, 42)
        checked = 0
        for subset in ACCEPTANCE_SUBSETS:
            for fold in range(folds.k):
                train = folds.train_indices(fold)
                model = train_binary([wbcd_dataset.rows[i] for i in train],
                                     [wbcd_dataset.labels[i] for i in train], subset)
                for i in folds.test_indices(fold):
                    record = wbcd_dataset.rows[i]
                    pred = classify_binary(record, model)
                    used = [f for f in subset if record[f] is not None]
                    score = math.fsum(
                        x for f in used for x in (record[f], -model.bpas[f].threshold)
                    )
                    row = (logistic(-score), logistic(score), 0.0)
                    eager = (combine_binary(BINARY_FRAME, [row]) if used
                             else vacuous_mass(BINARY_FRAME))
                    assert list(pred.mass._masses.items()) == list(eager._masses.items())
                    checked += 1
        assert checked == 12 * len(wbcd_dataset)

    def test_email_signal_subsets(self):
        model = email_model_default()
        for seed in range(10):
            dataset = generate_email(seed)
            for signals in EMAIL_SUBSETS:
                subset_model = replace(model, signals=frozenset(signals))
                for record in dataset.rows:
                    pred = classify_email(record, subset_model)
                    rows = [email_signal_row(record, s, model) for s in signals]
                    eager = combine_binary(BINARY_FRAME, rows)
                    assert list(pred.mass._masses.items()) == list(eager._masses.items())

    def test_iris_thousand_folds(self, iris_dataset):
        rows, labels = iris_dataset.rows, iris_dataset.labels
        for seed in range(42, 142):
            folds = make_folds(len(rows), 10, seed)
            for fold in range(folds.k):
                train = folds.train_indices(fold)
                model = train_three_class([rows[i] for i in train], [labels[i] for i in train],
                                          IRIS_FRAME)
                for i in folds.test_indices(fold):
                    pred = classify_three_class(rows[i], model)
                    exact = exact_three_class_mass(rows[i], model, pred.trace)
                    assert dict(pred.mass.items()) == exact
                    eager = generic_three_class_mass(rows[i], model, pred.trace)
                    assert_close_masses(pred.mass, eager)


class TestPortability:
    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
    def test_prediction_round_trip(self, wbcd_dataset, iris_dataset, clone, read_first):
        for pred in one_of_each(wbcd_dataset, iris_dataset):
            if read_first:
                pred.mass
            other = clone(pred)
            assert (other.label, other.frame, dict(other.trace)) == (
                pred.label, pred.frame, dict(pred.trace)
            )
            assert list(other.mass._masses.items()) == list(pred.mass._masses.items())
            assert other == pred


@pytest.mark.parametrize("focal_sets, nearest, decided", [
    ((4, 6, 7, 4), 1, "step1"),  # a vacuous feature among singletons
    ((7, 7, 7, 7), 0, "step3"),  # every feature vacuous
    ((3, 6, 5, 7), 2, "step1"),  # every pair and a vacuous feature
    ((6, 7, 6, 6), 2, "step3"),  # a pair and a vacuous feature
    ((3, 7, 3), 2, "step3"),  # three features; the nearest class is outside the pair
], ids=["step1-vacuous", "step3-all-vacuous", "step1-pairs", "step3-pair", "step3-three"])
@pytest.mark.parametrize("clone", CLONES, ids=CLONE_IDS)
def test_three_class_mass_rebuilt_from_focal_sets(focal_sets, nearest, decided, clone):
    # The prediction keeps each feature's focal set and the nearest class; the mass rebuilt
    # from them after a round trip is the exact fold, rounded once, and near the generic fold.
    model = _model_with_rows(focal_sets, nearest)
    record = (0,) * len(focal_sets)
    pred = classify_three_class(record, model)
    assert pred.trace["decided"] == decided
    assert pred.args == (focal_sets, nearest if decided == "step3" else None)
    rebuilt = clone(pred).mass
    assert dict(rebuilt.items()) == exact_three_class_mass(record, model, pred.trace)
    assert_close_masses(rebuilt, generic_three_class_mass(record, model, pred.trace))


def test_total_conflict_raises_when_classifying():
    # Two certain signals that contradict each other: K = 1.
    model = replace(
        email_model_default(),
        spoofed_bpa=TableBpa(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))),
        dangerous_bpa=TableBpa(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))),
        signals=frozenset({2, 3}),
    )
    with pytest.raises(TotalConflictError):
        classify_email((50.0, 1, 0, 0), model)
    assert classify_email((50.0, 1, 1, 0), model).label == "abnormal"

