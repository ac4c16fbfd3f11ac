"""Unit tests for the three fusion classifiers."""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfusion import (
    BINARY_FRAME,
    BoundaryModel,
    EmailModel,
    SigmoidBpa,
    ThreeClassModel,
    boundary_mass,
    classifier_from_dict,
    classifier_to_dict,
    classify_binary,
    classify_email,
    classify_three_class,
    combine,
    combine_all,
    distance_mass,
    email_model_default,
    make_folds,
    make_frame,
    sigmoid_mass,
    train_binary,
    train_three_class,
)
from dsfusion.classify import BinaryModel, email_signal_row

from conftest import (
    exact_binary_fold,
    mass_to_frozensets,
    oracle_combine,
    oracle_three_class,
    reference_three_class,
)

IRIS_FRAME = make_frame(["Setosa", "Versicolour", "Virginica"])

# Published per-class training ranges used for the item-86 walkthrough.
TRAINING_BOUNDS = (
    ((4.3, 5.8), (4.9, 6.9), (4.9, 7.9)),
    ((2.3, 4.4), (2.0, 3.3), (2.2, 3.8)),
    ((1.0, 1.9), (3.3, 5.1), (4.5, 6.7)),
    ((0.1, 0.6), (1.0, 1.7), (1.4, 2.5)),
)


def three_class_model(bounds=TRAINING_BOUNDS):
    # means/selection chosen arbitrarily; step-1 walkthroughs never use them
    means = ((5.0, 5.9, 6.6), (3.4, 2.8, 3.0), (1.5, 4.3, 5.6), (0.2, 1.3, 2.0))
    selected = {0b011: 3, 0b101: 3, 0b110: 3, 0b111: 3}
    return ThreeClassModel(IRIS_FRAME, BoundaryModel(bounds), means, selected)


class TestTrainBinary:
    def test_thresholds_fit_per_feature(self):
        rows = [(float(i), float(100 - i)) for i in range(10)]
        labels = [0] * 5 + [1] * 5
        model = train_binary(rows, labels)
        assert model.n_features == 2
        assert model.normal_fraction == 0.5
        assert model.bpas[0].threshold == 4.0

    def test_missing_cells_skipped_with_scaled_rank(self):
        rows = [(float(i),) for i in range(10)]
        rows[3] = (None,)
        rows[7] = (None,)
        labels = [0] * 5 + [1] * 5
        model = train_binary(rows, labels)
        values = sorted(v[0] for v in rows if v[0] is not None)
        assert model.bpas[0].threshold == values[round(8 * 0.5) - 1]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_binary([(1.0,), (2.0,)], [0, 0])

    def test_all_missing_feature_rejected(self):
        with pytest.raises(ValueError):
            train_binary([(1.0, None), (2.0, None)], [0, 1])

    def test_only_listed_features_fitted(self):
        rows = [(float(i), float(100 - i), None) for i in range(10)]
        labels = [0] * 5 + [1] * 5
        model = train_binary(rows, labels, (1,))
        assert model.n_features == 3
        assert model.bpas[0] is None and model.bpas[2] is None
        assert model.bpas[1] == train_binary([row[:2] for row in rows], labels).bpas[1]
        assert model.normal_fraction == 0.5

    @pytest.mark.parametrize("feature", [1, 5, -1])
    def test_feature_outside_row_rejected(self, feature):
        with pytest.raises(ValueError, match=f"feature {feature} outside 0..0"):
            train_binary([(1.0,), (2.0,)], [0, 1], (feature,))

    @pytest.mark.parametrize(
        "rows",
        [
            [(math.nan,), (1.0,), (2.0,), (3.0,)],
            [(1.0,), (math.nan,), (2.0,), (3.0,)],
            [(3.0,), (2.0,), (1.0,), (math.nan,)],
            [(1.0,), (math.inf,), (2.0,), (3.0,)],
        ],
    )
    def test_non_finite_training_value_rejected(self, rows):
        # A sort that meets NaN orders the column by row position, so no
        # threshold taken from it would be well defined.
        with pytest.raises(ValueError, match="feature value must be finite"):
            train_binary(rows, [0, 0, 1, 1])

    def test_non_finite_value_outside_the_fitted_features_ignored(self):
        rows = [(1.0, math.nan), (2.0, 1.0), (3.0, 2.0), (4.0, 3.0)]
        assert train_binary(rows, [0, 0, 1, 1], (0,)).bpas[0].threshold == 2.0


class TestClassifyBinary:
    MODEL = BinaryModel(tuple(SigmoidBpa(3.0) for _ in range(9)), 0.655)

    def test_low_values_normal(self):
        record = tuple(1.0 for _ in range(9))
        pred = classify_binary(record, self.MODEL)
        assert pred.label == "normal"

    def test_high_values_abnormal(self):
        record = tuple(9.0 for _ in range(9))
        assert classify_binary(record, self.MODEL).label == "abnormal"

    def test_tie_classifies_normal(self):
        model = BinaryModel((SigmoidBpa(5.0),), 0.5)
        pred = classify_binary((5.0,), model)
        assert pred.mass.mass_bits(1) == 0.5
        assert pred.label == "normal"

    def test_exact_zero_sum_tie_classifies_normal(self):
        # WBCD record 556 under its fold's thresholds (fold seed 42): the nine
        # v - t sum to exactly 0, yet pairwise float fusion leaves abnormal
        # ahead of normal by about 1e-15, which once labelled it abnormal.
        record = (4.0, 3.0, 1.0, 1.0, 2.0, 1.0, 4.0, 8.0, 1.0)
        thresholds = (5.0, 3.0, 3.0, 2.0, 3.0, 3.0, 3.0, 2.0, 1.0)
        model = BinaryModel(tuple(SigmoidBpa(t) for t in thresholds), 0.5)
        from dsfusion import sigmoid_mass

        masses = [mass_to_frozensets(sigmoid_mass(v, b)) for v, b in zip(record, model.bpas)]
        fused = reduce(lambda a, b: oracle_combine(a, b)[0], masses)
        assert fused[frozenset({1})] > fused[frozenset({0})]
        pred = classify_binary(record, model)
        assert pred.label == "normal"
        assert pred.mass.mass_bits(2) == pytest.approx(pred.mass.mass_bits(1), abs=1e-12)

    def test_unfitted_feature_rejected(self):
        model = BinaryModel((SigmoidBpa(3.0), None), 0.5)
        assert classify_binary((5.0, 5.0), model, (0,)).label == "abnormal"
        for features in ((0, 1), None):
            with pytest.raises(ValueError, match="feature 1 has no fitted threshold"):
                classify_binary((5.0, 5.0), model, features)
        # A missing value does not excuse an unfitted selected feature.
        with pytest.raises(ValueError, match="feature 1 has no fitted threshold"):
            classify_binary((5.0, None), model, (0, 1))

    def test_missing_feature_equivalence(self):
        record = (2.0, None, 8.0, 1.0, None, 6.0, 1.0, 1.0, 1.0)
        full = classify_binary(record, self.MODEL)
        reduced = classify_binary(record, self.MODEL, (0, 2, 3, 5, 6, 7, 8))
        assert full.label == reduced.label
        assert mass_to_frozensets(full.mass) == mass_to_frozensets(reduced.mass)

    def test_missing_feature_matches_oracle_recombination(self):
        record = (2.0, None, 8.0)
        model = BinaryModel(tuple(SigmoidBpa(3.0) for _ in range(3)), 0.5)
        pred = classify_binary(record, model)
        from dsfusion import sigmoid_mass

        masses = [
            mass_to_frozensets(sigmoid_mass(record[f], model.bpas[f])) for f in (0, 2)
        ]
        expected, _ = oracle_combine(masses[0], masses[1])
        assert mass_to_frozensets(pred.mass) == pytest.approx(expected, abs=1e-12)

    def test_feature_permutation_invariance(self):
        record = (2.0, 7.0, 4.0, 1.0, 9.0, 6.0, 1.0, 3.0, 5.0)
        labels = {
            classify_binary(record, self.MODEL, perm).label
            for perm in permutations((1, 4, 5))
        }
        assert len(labels) == 1

    def test_all_selected_missing_rejected(self):
        record = (None, 5.0, None, None, None, None, None, None, None)
        with pytest.raises(ValueError):
            classify_binary(record, self.MODEL, (0, 2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, bad):
        record = (1.0, bad, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="feature value must be finite"):
            classify_binary(record, self.MODEL)

    def test_saturated_log_odds_tie_gets_an_answer(self):
        # Alone, each feature saturates its sigmoid. Clamped per-feature
        # masses fused pairwise put K within 2e-15 of 1, which raised
        # TotalConflictError for what is a plain tie of the log-odds.
        model = BinaryModel((SigmoidBpa(0.0), SigmoidBpa(0.0)), 0.5)
        pred = classify_binary((40.0, -40.0), model)
        assert pred.label == "normal"
        assert (pred.mass.mass_bits(1), pred.mass.mass_bits(2)) == (0.5, 0.5)

    @pytest.mark.parametrize("letters", ["ABCDEFGHI", "ADI", "BCF", "A"])
    def test_masses_match_exact_fold_on_wbcd(self, wbcd_dataset, letters):
        model = train_binary([r.features for r in wbcd_dataset], [r.label for r in wbcd_dataset])
        features = ["ABCDEFGHI".index(ch) for ch in letters]
        for record in wbcd_dataset:
            rows = []
            for f in features:
                if record.features[f] is not None:
                    m = sigmoid_mass(record.features[f], model.bpas[f])
                    rows.append((m.mass_bits(1), m.mass_bits(2), 0.0))
            (normal, abnormal, _), _ = exact_binary_fold(rows)
            pred = classify_binary(record.features, model, features)
            assert abs(pred.mass.mass_bits(1) - float(normal)) <= 1e-14
            assert abs(pred.mass.mass_bits(2) - float(abnormal)) <= 1e-14

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            classify_binary((1.0,) * 9, self.MODEL, ())


_feature_value = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300)
@given(pairs=st.lists(st.tuples(_feature_value, _feature_value), min_size=1, max_size=9))
def test_classify_binary_answers_every_finite_record(pairs):
    # pairs of (value, threshold); the label is the exact sign of the
    # log-odds sum, ties to normal, however saturated the features are.
    model = BinaryModel(tuple(SigmoidBpa(t) for _, t in pairs), 0.5)
    pred = classify_binary(tuple(v for v, _ in pairs), model)
    score = sum(Fraction(v) - Fraction(t) for v, t in pairs)
    assert pred.label == ("abnormal" if score > 0 else "normal")
    normal, abnormal = pred.mass.mass_bits(1), pred.mass.mass_bits(2)
    assert abs(normal + abnormal - 1.0) <= 1e-15
    assert abnormal >= normal if score > 0 else normal >= abnormal


class TestClassifyThreeClass:
    def test_unambiguous_record_decides_step1(self):
        model = three_class_model()
        pred = classify_three_class((5.0, 4.0, 1.5, 0.3), model)
        assert pred.label == "Setosa"
        assert pred.trace["decided"] == "step1"

    def test_item_86_walkthrough(self):
        model = three_class_model()
        pred = classify_three_class((6.0, 3.4, 4.5, 1.6), model)
        assert pred.trace["decided"] == "step1"
        assert pred.label == "Virginica"
        m = pred.mass
        assert m.mass_bits(0b100) == pytest.approx(0.8991, abs=1e-9)
        assert m.mass_bits(0b110) == pytest.approx(0.0999, abs=1e-9)
        assert m.mass_bits(0b101) == pytest.approx(0.0009, abs=1e-9)
        assert m.mass_bits(0b111) == pytest.approx(0.0001, abs=1e-9)

    def test_full_overlap_falls_through_to_distance(self):
        bounds = tuple(((0.0, 10.0), (0.0, 10.0), (0.0, 10.0)) for _ in range(4))
        means = ((1.0, 5.0, 9.0),) * 4
        model = ThreeClassModel(
            IRIS_FRAME, BoundaryModel(bounds), means, {0b011: 0, 0b101: 0, 0b110: 0, 0b111: 0}
        )
        pred = classify_three_class((5.2, 5.2, 5.2, 5.2), model)
        assert pred.trace["decided"] == "step3"
        assert pred.label == "Versicolour"

    def test_exact_step1_tie_goes_to_lower_bitmask(self):
        # Every value lies below every range. Features 0 and 2 point to the
        # nearest range's class Setosa, features 1 and 3 to Versicolour, so
        # their masses tie exactly; the float fold puts Versicolour one ulp ahead.
        bounds = (((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)), ((0.5, 0.5), (0.0, 0.0), (0.0, 0.0))) * 2
        model = ThreeClassModel(
            IRIS_FRAME, BoundaryModel(bounds), ((0.0, 0.0, 0.0),) * 4,
            {0b011: 0, 0b101: 0, 0b110: 0, 0b111: 0},
        )
        pred = classify_three_class((-1.0, -1.0, -1.0, -1.0), model)
        assert pred.mass.mass_bits(0b010) > pred.mass.mass_bits(0b001)
        assert (pred.label, pred.trace) == ("Setosa", {"decided": "step1"})

    def test_pair_candidate_uses_group_feature(self):
        model = three_class_model()
        # all four features inside the versicolour/virginica overlap
        pred = classify_three_class((5.5, 2.5, 4.8, 1.5), model)
        assert pred.trace["decided"] == "step3"
        assert pred.trace["feature"] == 3
        assert pred.label in ("Versicolour", "Virginica")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mean_rejected(self, bad):
        means = ((5.0, 5.9, 6.6), (3.4, bad, 3.0), (1.5, 4.3, 5.6), (0.2, 1.3, 2.0))
        with pytest.raises(ValueError, match="finite"):
            ThreeClassModel(IRIS_FRAME, BoundaryModel(TRAINING_BOUNDS), means, {0b111: 1})

    def test_model_without_features_rejected_from_json(self):
        data = classifier_to_dict(three_class_model())
        data["boundaries"]["bounds"], data["means"] = [], []
        with pytest.raises(ValueError, match="at least one feature"):
            classifier_from_dict(data)

    def test_non_finite_mean_rejected_from_json(self):
        data = classifier_to_dict(three_class_model())
        data["means"][2][0] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            classifier_from_dict(json.loads(json.dumps(data)))

    def test_train_three_class_covers_groups(self, iris_dataset):
        model = train_three_class(iris_dataset.samples(), IRIS_FRAME)
        assert set(model.selected) == {0b011, 0b101, 0b110, 0b111}
        assert len(model.boundaries.bounds) == 4
        assert len(model.means) == 4

    def test_step1_never_runs_steps_2_3(self, iris_dataset):
        model = train_three_class(iris_dataset.samples(), IRIS_FRAME)
        for record in iris_dataset:
            pred = classify_three_class(record.features, model)
            if pred.trace["decided"] == "step1":
                assert "feature" not in pred.trace


def test_train_three_class_matches_per_sample_reference_on_iris(iris_dataset):
    records = iris_dataset.records
    for seed in range(42, 52):
        folds = make_folds(len(records), 10, seed)
        for fold in range(folds.k):
            samples = [(records[i].features, records[i].label) for i in folds.train_indices(fold)]
            model = train_three_class(samples, IRIS_FRAME)
            expected = reference_three_class(samples, IRIS_FRAME)
            assert classifier_to_dict(model) == classifier_to_dict(expected)


@st.composite
def _small_three_class_samples(draw):
    # Few records over few distinct values, so that degenerate features,
    # one-record classes and fsv ties between features all occur.
    n_features = draw(st.integers(min_value=1, max_value=4))
    row = st.tuples(*[st.sampled_from((0.0, 1.0, 2.0, 4.0))] * n_features)
    samples = [
        (draw(row), c) for c in range(3) for _ in range(draw(st.integers(min_value=1, max_value=6)))
    ]
    return draw(st.permutations(samples))


@settings(max_examples=300)
@given(samples=_small_three_class_samples())
def test_train_three_class_matches_per_sample_reference(samples):
    try:
        expected = reference_three_class(samples, IRIS_FRAME)
    except ValueError as exc:
        with pytest.raises(type(exc)):
            train_three_class(samples, IRIS_FRAME)
        return
    assert classifier_to_dict(train_three_class(samples, IRIS_FRAME)) == classifier_to_dict(expected)


def generic_three_class_mass(record, model: ThreeClassModel, trace):
    """The mass ``classify_three_class`` reports, through the generic evidence
    algebra: ``combine_all`` of the public ``boundary_mass`` builders, then,
    for a step-3 decision, ``combine`` with ``distance_mass`` on the traced
    feature."""
    frame = model.frame
    step1 = combine_all(
        [boundary_mass(v, bounds, frame) for v, bounds in zip(record, model.boundaries.bounds)]
    )
    if trace["decided"] == "step1":
        return step1
    feature = trace["feature"]
    return combine(step1, distance_mass(record[feature], model.means[feature], frame))


def _assert_three_class_exact(record, model):
    pred = classify_three_class(record, model)
    assert (pred.label, dict(pred.trace)) == oracle_three_class(record, model)
    generic = generic_three_class_mass(record, model, pred.trace)
    # ==, not approx: the same products, summed and divided in the same order.
    assert list(pred.mass.items()) == list(generic.items())


def test_three_class_matches_exact_oracle_and_generic_fold_on_iris(iris_dataset):
    records = iris_dataset.records
    decisions = 0
    for seed in range(42, 52):
        folds = make_folds(len(records), 10, seed)
        for fold in range(folds.k):
            samples = [(records[i].features, records[i].label) for i in folds.train_indices(fold)]
            model = train_three_class(samples, IRIS_FRAME)
            for i in folds.test_indices(fold):
                _assert_three_class_exact(records[i].features, model)
                decisions += 1
    assert decisions == 1500


_GRID = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 3.0))


@st.composite
def _three_class_cases(draw):
    # Ranges, means and values on a coarse grid, so that records sit on
    # range edges, in no range or every range, and halfway between means.
    n_features = draw(st.integers(min_value=1, max_value=4))
    bounds = tuple(
        tuple(tuple(sorted((draw(_GRID), draw(_GRID)))) for _ in range(3))
        for _ in range(n_features)
    )
    means = tuple(tuple(draw(_GRID) for _ in range(3)) for _ in range(n_features))
    feature = st.integers(min_value=0, max_value=n_features - 1)
    selected = {bits: draw(feature) for bits in (0b011, 0b101, 0b110, 0b111)}
    model = ThreeClassModel(IRIS_FRAME, BoundaryModel(bounds), means, selected)
    value = st.sampled_from((-1.0, 0.0, 0.25, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0))
    records = draw(st.lists(st.tuples(*[value] * n_features), min_size=1, max_size=8))
    return model, records


@settings(max_examples=300, deadline=None)
@given(case=_three_class_cases())
def test_three_class_matches_exact_oracle_and_generic_fold(case):
    model, records = case
    for record in records:
        _assert_three_class_exact(record, model)


class TestEmailModel:
    def test_default_constants(self):
        model = email_model_default()
        assert model.interval_bpa.threshold == 30.0
        assert model.interval_bpa.floor == 0.3
        assert model.interval_bpa.ceiling == 0.7
        assert model.spoofed_bpa.rows == ((0.9, 0.09, 0.01), (0.1, 0.89, 0.01))
        assert model.dangerous_bpa.rows == ((0.8, 0.19, 0.01), (0.2, 0.79, 0.01))
        assert model.benign_bpa.rows == ((0.6, 0.39, 0.01), (0.4, 0.59, 0.01))
        assert model.signals == frozenset({1, 2, 3, 4})

    def test_invalid_signal_set_rejected(self):
        with pytest.raises(ValueError):
            EmailModel(
                email_model_default().interval_bpa,
                email_model_default().spoofed_bpa,
                email_model_default().dangerous_bpa,
                email_model_default().benign_bpa,
                frozenset({5}),
            )


class TestClassifyEmail:
    MODEL = email_model_default()

    def test_worm_pattern_abnormal(self):
        pred = classify_email((500.0, 1, 1, 0), self.MODEL)
        assert pred.label == "abnormal"
        assert pred.mass.mass_bits(2) > 0.89

    def test_short_interval_worm_still_abnormal(self):
        pred = classify_email((5.0, 1, 1, 0), self.MODEL)
        assert pred.label == "abnormal"
        assert pred.mass.mass_bits(2) == pytest.approx(0.896, abs=2e-3)

    def test_legit_pattern_normal(self):
        pred = classify_email((20.0, 0, 0, 0), self.MODEL)
        assert pred.label == "normal"
        assert pred.mass.mass_bits(1) > 0.9

    def test_spoofed_only_normal(self):
        pred = classify_email((5.0, 1, 0, 0), self.MODEL)
        assert pred.label == "normal"
        assert pred.mass.mass_bits(1) == pytest.approx(0.641, abs=1e-3)

    def test_matches_oracle_fold(self):
        from dsfusion.classify import email_signal_mass

        message = (45.0, 1, 0, 1)
        masses = [
            mass_to_frozensets(email_signal_mass(message, s, self.MODEL)) for s in (1, 2, 3, 4)
        ]
        expected = masses[0]
        for m in masses[1:]:
            expected, _ = oracle_combine(expected, m)
        pred = classify_email(message, self.MODEL)
        actual = mass_to_frozensets(pred.mass)
        assert set(actual) == set(expected)
        for key, value in expected.items():
            assert actual[key] == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("flags", list(product((0, 1), repeat=3)))
    def test_masses_match_exact_fold(self, flags):
        subsets = [c for r in range(1, 5) for c in combinations((1, 2, 3, 4), r)]
        for interval in (0.0, 5.0, 29.5, 30.0, 45.0, 300.0, 1e6):
            message = (interval, *flags)
            for signals in subsets:
                rows = [email_signal_row(message, s, self.MODEL) for s in signals]
                exact, _ = exact_binary_fold(rows)
                pred = classify_email(message, self.MODEL, signals)
                for bits, value in zip((1, 2, 3), exact):
                    assert abs(pred.mass.mass_bits(bits) - float(value)) <= 1e-14
                if abs(exact[1] - exact[0]) > 1e-12:
                    assert pred.label == ("abnormal" if exact[1] > exact[0] else "normal")

    def test_signal_subset(self):
        pred = classify_email((5.0, 1, 1, 0), self.MODEL, (1, 3, 4))
        assert pred.trace["signals"] == [1, 3, 4]
        margin = abs(pred.mass.mass_bits(2) - pred.mass.mass_bits(1))
        assert margin < 0.05

    def test_fusion_order_invariance(self):
        message = (75.0, 1, 0, 1)
        reference = classify_email(message, self.MODEL, (1, 2, 3, 4))
        for perm in permutations((1, 2, 3, 4)):
            pred = classify_email(message, self.MODEL, perm)
            assert pred.label == reference.label
            for subset, value in reference.mass.items():
                assert pred.mass.mass_bits(subset.bits) == pytest.approx(value, abs=1e-9)

    def test_invalid_signals_rejected(self):
        with pytest.raises(ValueError):
            classify_email((5.0, 0, 0, 0), self.MODEL, (5,))
        with pytest.raises(ValueError):
            classify_email((5.0, 0, 0, 0), self.MODEL, ())


class TestConcurrency:
    def test_parallel_batch_matches_serial(self):
        model = email_model_default()
        messages = [(float(i % 300), i % 2, (i // 2) % 2, (i // 4) % 2) for i in range(400)]
        serial = [classify_email(m, model) for m in messages]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda m: classify_email(m, model), messages))
        assert [p.label for p in serial] == [p.label for p in parallel]
        for a, b in zip(serial, parallel):
            assert mass_to_frozensets(a.mass) == mass_to_frozensets(b.mass)


class TestPredictionSerialization:
    def test_prediction_json_shape(self):
        pred = classify_email((500.0, 1, 1, 0), email_model_default())
        payload = pred.to_json_dict(record_id=39)
        assert payload["id"] == 39
        assert payload["label"] == "abnormal"
        assert set(payload["masses"]) <= {"normal", "abnormal", "Θ"}
        assert payload["trace"]["signals"] == [1, 2, 3, 4]
        json.dumps(payload)

    def test_invalid_label_rejected(self):
        from dsfusion import Prediction, vacuous_mass

        with pytest.raises(ValueError):
            Prediction("nonsense", vacuous_mass(BINARY_FRAME), {})


class TestClassifierSerialization:
    def test_binary_round_trip(self):
        rows = [(float(i), float(i * 2)) for i in range(10)]
        labels = [0] * 6 + [1] * 4
        model = train_binary(rows, labels)
        assert classifier_from_dict(classifier_to_dict(model)) == model

    def test_partial_binary_model_not_dumped(self):
        rows = [(float(i), float(i * 2)) for i in range(10)]
        model = train_binary(rows, [0] * 6 + [1] * 4, (1,))
        with pytest.raises(ValueError, match="feature 0 has no fitted threshold"):
            classifier_to_dict(model)

    def test_three_class_round_trip(self, iris_dataset):
        model = train_three_class(iris_dataset.samples(), IRIS_FRAME)
        restored = classifier_from_dict(classifier_to_dict(model))
        assert restored.boundaries == model.boundaries
        assert restored.means == model.means
        assert dict(restored.selected) == dict(model.selected)

    def test_email_round_trip(self):
        model = email_model_default()
        assert classifier_from_dict(classifier_to_dict(model)) == model

    def test_every_kind_round_trips_through_json_text(self, iris_dataset):
        models = [
            train_binary([(float(i), float(i * 2)) for i in range(10)], [0] * 6 + [1] * 4),
            train_three_class(iris_dataset.samples(), IRIS_FRAME),
            email_model_default(),
        ]
        for model in models:
            data = classifier_to_dict(model)
            restored = classifier_from_dict(json.loads(json.dumps(data)))
            assert restored == model
            assert classifier_to_dict(restored) == data

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            classifier_from_dict({"kind": "perceptron"})
