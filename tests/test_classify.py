"""Unit tests for the three fusion classifiers."""

import copy
import gc
import json
import math
import pickle
import platform
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction
from dataclasses import replace
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dsfusion import (
    BINARY_FRAME,
    BoundaryModel,
    EmailModel,
    Prediction,
    ScaledSigmoidBpa,
    SigmoidBpa,
    TableBpa,
    ThreeClassModel,
    TotalConflictError,
    boundary_mass,
    classifier_to_dict,
    classify_binary,
    classify_email,
    classify_three_class,
    combine,
    combine_all,
    combine_binary,
    distance_mass,
    email_model_default,
    generate_email,
    make_folds,
    make_frame,
    sigmoid_mass,
    train_binary,
    train_three_class,
    vacuous_mass,
)
from dsfusion import classify
from dsfusion.bpa import BOUNDARY_CONFIDENCE, logistic, saturation_cutoff
from dsfusion.classify import (
    BinaryModel,
    email_signal_mass,
    email_signal_row,
    train_binary_folds,
    train_three_class_folds,
)
from dsfusion.evidence import IDENTITY_TOL, binary_commonalities, fuse_binary

from conftest import (
    exact_binary_fold,
    mass_to_frozensets,
    oracle_combine,
    oracle_email_labels,
    oracle_three_class,
    oracle_three_class_candidate,
    reference_class_columns,
    reference_classify_binary,
    reference_three_class,
)
from test_data import ACCEPTANCE_SUBSETS

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
        assert len(model.bpas) == 2
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

    def test_each_fold_fits_on_the_records_outside_it(self, wbcd_dataset):
        # A fold's count of a value is its total less the fold's own records of it.
        rows, labels = wbcd_dataset.rows, wbcd_dataset.labels
        held_out = [i % 10 for i in range(len(rows))]
        fit = train_binary_folds(rows, labels, held_out)
        for fold in range(10):
            kept = [i for i, g in enumerate(held_out) if g != fold]
            assert fit(fold) == train_binary([rows[i] for i in kept], [labels[i] for i in kept])

    @pytest.mark.parametrize("label", [2, -1, None])
    def test_label_outside_classes_rejected(self, label):
        # Such a label was once counted with the abnormal records.
        with pytest.raises(ValueError, match=rf"^class label {label} outside 0\.\.1$"):
            train_binary([(1.0,), (2.0,), (3.0,)], [0, label, 1])

    def test_rows_and_labels_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="^3 rows vs 2 labels$"):
            train_binary([(1.0,), (2.0,), (3.0,)], [0, 1])

    @pytest.mark.parametrize("rows, message", [
        ([(1.0,), (3.0, 4.0)], "^row 1 has 2 values, row 0 has 1$"),
        ([(1.0, 2.0), (3.0,)], "^row 1 has 1 values, row 0 has 2$"),
    ], ids=["short-first", "short-last"])
    def test_ragged_rows_rejected(self, rows, message):
        # A short row 0 used to fit one feature only, and a short later row to raise a
        # bare IndexError.
        with pytest.raises(ValueError, match=message):
            train_binary(rows, [0, 1])
        with pytest.raises(ValueError, match=message):
            train_binary_folds(rows, [0, 1], [0, 1])

    def test_fold_ids_of_another_length_rejected(self):
        with pytest.raises(ValueError, match="^1 fold ids for 2 rows$"):
            train_binary_folds([(1.0,), (2.0,)], [0, 1], [0])

    def test_all_missing_feature_rejected(self):
        with pytest.raises(ValueError):
            train_binary([(1.0, None), (2.0, None)], [0, 1])

    def test_only_listed_features_fitted(self):
        rows = [(float(i), float(100 - i), None) for i in range(10)]
        labels = [0] * 5 + [1] * 5
        model = train_binary(rows, labels, (1,))
        assert len(model.bpas) == 3
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

    def test_unfitted_feature_not_fused(self):
        model = BinaryModel((SigmoidBpa(3.0), None), 0.5)
        only_first = BinaryModel((SigmoidBpa(3.0),), 0.5)
        for record in ((5.0, 1.0), (5.0, None), (5.0, math.nan)):
            pred = classify_binary(record, model)
            assert pred.label == "abnormal"
            assert pred.trace == {"features": [0]}
            assert pred.mass == classify_binary(record[:1], only_first).mass

    def test_missing_feature_equivalence(self):
        record = (2.0, None, 8.0, 1.0, None, 6.0, 1.0, 1.0, 1.0)
        full = classify_binary(record, self.MODEL)
        fitted = tuple(None if v is None else b for v, b in zip(record, self.MODEL.bpas))
        reduced = classify_binary(record, BinaryModel(fitted, self.MODEL.normal_fraction))
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

    def test_no_fitted_feature_value_answers_normal(self):
        # No value for any fitted feature is no evidence: nothing says
        # abnormal, so the tie rule makes the record normal.
        model = BinaryModel((SigmoidBpa(3.0), None, SigmoidBpa(3.0)), 0.5)
        pred = classify_binary((None, 9.0, None), model)
        assert pred.label == "normal"
        assert pred.mass == vacuous_mass(BINARY_FRAME)
        assert pred.trace == {"features": [], "fallback": "no-evidence"}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, bad):
        record = (1.0, bad, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="feature value must be finite"):
            classify_binary(record, self.MODEL)

    @pytest.mark.parametrize("record, error", [
        ((math.inf, "5"), ValueError), (("5", math.inf), TypeError), ((None, "5"), TypeError),
    ], ids=["inf-first", "str-first", "none-first"])
    def test_first_bad_value_in_feature_order_decides_the_error(self, record, error):
        # One sum over every value meets them in another order; the checked loop reports.
        model = BinaryModel((SigmoidBpa(3.0), SigmoidBpa(3.0)), 0.5)
        with pytest.raises(error):
            classify_binary(record, model)

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
        features = ["ABCDEFGHI".index(ch) for ch in letters]
        model = train_binary(wbcd_dataset.rows, wbcd_dataset.labels, features)
        for record in wbcd_dataset.rows:
            rows = []
            for f in features:
                if record[f] is not None:
                    m = sigmoid_mass(record[f], model.bpas[f])
                    rows.append((m.mass_bits(1), m.mass_bits(2), 0.0))
            (normal, abnormal, _), _ = exact_binary_fold(rows)
            pred = classify_binary(record, model)
            assert abs(pred.mass.mass_bits(1) - float(normal)) <= 1e-14
            assert abs(pred.mass.mass_bits(2) - float(abnormal)) <= 1e-14

    def test_empty_subset_rejected(self):
        # The fused subset is chosen at training, and a model fusing
        # nothing could only ever answer "no evidence".
        with pytest.raises(ValueError, match="feature subset must be nonempty"):
            train_binary([(1.0,) * 9, (9.0,) * 9], [0, 1], ())

    @pytest.mark.parametrize("bpas", [(), (None,), (None, None)])
    def test_model_fitting_no_feature_rejected(self, bpas):
        # Such a model labelled every record normal by the no-evidence rule.
        with pytest.raises(ValueError, match="^binary model must fit at least one feature$"):
            BinaryModel(bpas, 0.5)

    @pytest.mark.parametrize("record", [(5.0,), (5.0, 7.0, 1.0)], ids=["short", "long"])
    def test_record_length_must_match_the_model(self, record):
        # A short record raised a bare IndexError, and a long one had its extra values ignored.
        model = BinaryModel((SigmoidBpa(3.0), SigmoidBpa(3.0)), 0.5)
        message = f"^record has {len(record)} values, model has 2 features$"
        with pytest.raises(ValueError, match=message):
            classify_binary(record, model)


def slot_scan_classify_binary(record, model: BinaryModel):
    """``classify_binary`` as it was before ``BinaryModel.fitted``: it scans
    every model slot per record. Returns the label, trace and mass."""
    used = [f for f, bpa in enumerate(model.bpas) if bpa is not None and record[f] is not None]
    if not used:
        return "normal", {"features": [], "fallback": "no-evidence"}, vacuous_mass(BINARY_FRAME)
    score = math.fsum(x for f in used for x in (record[f], -model.bpas[f].threshold))
    mass = combine_binary(BINARY_FRAME, [(logistic(-score), logistic(score), 0.0)])
    return ("abnormal" if score > 0 else "normal"), {"features": used}, mass


class TestFittedPairs:
    @staticmethod
    def train(dataset, subset):
        return train_binary(dataset.rows, dataset.labels, subset)

    @pytest.mark.parametrize("subset", [(8, 0, 3), (5,), tuple(range(9))])
    def test_pairs_are_the_fitted_slots_in_index_order(self, wbcd_dataset, subset):
        model = self.train(wbcd_dataset, subset)
        expected = tuple((f, b.threshold) for f, b in enumerate(model.bpas) if b is not None)
        assert model.fitted == expected
        assert [f for f, _ in model.fitted] == sorted(subset)

    def test_pairs_follow_the_model_through_copies(self, wbcd_dataset):
        model = self.train(wbcd_dataset, None)
        assert len(model.fitted) == 9  # read first: a copy must not carry a stale value
        partial = replace(model, bpas=(None, *model.bpas[1:-1], SigmoidBpa(0.5)))
        assert partial.fitted == (*model.fitted[1:-1], (8, 0.5))
        for original in (model, partial):
            for clone in (pickle.loads(pickle.dumps(original)), copy.copy(original),
                          copy.deepcopy(original)):
                assert clone == original
                assert clone.fitted == original.fitted

    def test_matches_the_slot_scan_on_wbcd(self, wbcd_dataset):
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
                    label, trace, mass = slot_scan_classify_binary(record, model)
                    assert (pred.label, pred.trace) == (label, trace)
                    assert list(pred.mass._masses.items()) == list(mass._masses.items())
                    checked += 1
        assert checked == len(ACCEPTANCE_SUBSETS) * len(wbcd_dataset)


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


# Small integers tie often; ±1e308 overflows a sum midway; the rest fail the checked loop.
_BINARY_THRESHOLD = st.one_of(st.integers(-3, 10).map(float), st.floats(-1e6, 1e6),
                              st.sampled_from([1e308, -1e308, sys.float_info.max]))
_BINARY_VALUE = st.one_of(
    _BINARY_THRESHOLD, st.integers(-3, 10),
    st.sampled_from([None, math.inf, -math.inf, math.nan, "5", -sys.float_info.max]),
)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_classify_binary_matches_the_checked_loop(data):
    # The one-sum path gives the per-feature loop's label, trace and mass, or its error, on
    # tuple and list records, with 1 to 9 fitted features.
    width = data.draw(st.integers(1, 9), label="width")
    fitted = data.draw(st.sets(st.integers(0, width - 1), min_size=1), label="fitted")
    thresholds = data.draw(st.lists(_BINARY_THRESHOLD, min_size=width, max_size=width))
    model = BinaryModel(tuple(SigmoidBpa(t) if f in fitted else None
                              for f, t in enumerate(thresholds)), 0.5)
    cells = data.draw(st.lists(_BINARY_VALUE, min_size=width, max_size=width), label="record")
    for record in (tuple(cells), list(cells)):
        try:
            expected = reference_classify_binary(record, model)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                classify_binary(record, model)
            continue
        first, second = classify_binary(record, model), classify_binary(record, model)
        for pred in (first, second):
            assert (pred.label, pred.trace, pred.mass) == (
                expected.label, expected.trace, expected.mass)
        # The scores differ only where the loop clamps a midway overflow, and logistic saturates.
        if first.args != expected.args:
            assert abs(first.args[0]) > 1000 and abs(expected.args[0]) == 1000
        # A record repeated gets the model's one prediction for its values, unless they cannot
        # be hashed: a list record's one-value slice.
        assert (second is first) == (type(record) is tuple or len(fitted) > 1)


# Equal spellings (3 and 3.0, True and 1 and 1.0, 0 and -0.0) of few values, so that records
# repeat a model's fitted values, and the cells the checked loop skips, clamps or refuses.
_SHARED_CELL = st.sampled_from([3, 3.0, True, 1, 1.0, 0, -0.0, 7.5, None, math.inf, math.nan,
                                "5", 1e308, -sys.float_info.max])


def _mass_bits(mass):
    return sorted((subset.bits, value.hex()) for subset, value in mass.items())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_classify_binary_shares_one_prediction_per_fitted_values(data):
    # A sequence of tuple and list records through one model, drawn from a few rows so that
    # fitted values repeat: every record gets the reference's label, trace, mass bits or
    # error, and the model's one prediction for its fitted values once it has one.
    width = data.draw(st.integers(1, 4), label="width")
    fitted = sorted(data.draw(st.sets(st.integers(0, width - 1), min_size=1), label="fitted"))
    thresholds = data.draw(st.lists(st.sampled_from([0.0, 1.0, 3.0, 1e308]),
                                    min_size=width, max_size=width), label="thresholds")
    model = BinaryModel(tuple(SigmoidBpa(t) if f in fitted else None
                              for f, t in enumerate(thresholds)), 0.5)
    rows = data.draw(st.lists(st.lists(_SHARED_CELL, min_size=width, max_size=width),
                              min_size=1, max_size=4), label="rows")
    picks = data.draw(st.lists(st.tuples(st.sampled_from(rows), st.sampled_from([tuple, list])),
                               min_size=2, max_size=12), label="records")
    shared = {}
    for cells, kind in picks:
        record = kind(cells)
        try:
            expected = reference_classify_binary(record, model)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                classify_binary(record, model)
            continue
        pred = classify_binary(record, model)
        assert (pred.label, pred.trace, _mass_bits(pred.mass)) == (
            expected.label, expected.trace, _mass_bits(expected.mass))
        # The score differs only in the sign of an exact zero, and where the loop clamps a
        # midway overflow, past logistic's saturation.
        if pred.args != expected.args or str(pred.args) != str(expected.args):
            (score,), (reference,) = pred.args, expected.args
            assert score == reference == 0 or (abs(score) > 1000 and abs(reference) == 1000)
        if kind is tuple or len(fitted) > 1:  # else the one-value slice is a list: unshared
            values = tuple(record[f] for f in fitted)
            assert shared.setdefault(values, pred) is pred


def test_classify_binary_shares_at_most_the_bound():
    # Past the bound, a model keeps no more predictions, and every answer stays the reference's.
    model = BinaryModel((SigmoidBpa(0.5),), 0.5)
    bound = classify._SHARED_BOUND
    records = [(float(i),) for i in range(bound + 10)]
    first = [classify_binary(record, model) for record in records]
    again = [classify_binary(record, model) for record in records]
    assert len(model.terms[3]) == bound
    for i, record in enumerate(records):
        expected = reference_classify_binary(record, model)
        for pred in (first[i], again[i]):
            assert (pred.label, pred.trace, pred.args, _mass_bits(pred.mass)) == (
                expected.label, expected.trace, expected.args, _mass_bits(expected.mass))
        assert (again[i] is first[i]) == (i < bound)


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

    def test_two_label_frame_rejected(self):
        model = three_class_model()
        message = "^three-class model needs a frame of exactly 3 labels$"
        with pytest.raises(ValueError, match=message):
            ThreeClassModel(BINARY_FRAME, model.boundaries, model.means, model.selected)

    def test_means_for_other_features_than_the_bounds_rejected(self):
        model = three_class_model()
        message = "^means and boundaries must cover the same features$"
        with pytest.raises(ValueError, match=message):
            ThreeClassModel(IRIS_FRAME, model.boundaries, model.means[:3], model.selected)

    def test_model_without_features_rejected(self):
        selected = three_class_model().selected
        with pytest.raises(ValueError, match="at least one feature"):
            ThreeClassModel(IRIS_FRAME, BoundaryModel(()), (), selected)

    @pytest.mark.parametrize("bad, message", [
        (lambda b, m, s: b[1].pop(), "feature 1 needs three class ranges"),
        (lambda b, m, s: m[2].pop(), "feature 2 needs three class ranges and three class means"),
        (lambda b, m, s: s.pop(7), "exactly the class groups"),
        (lambda b, m, s: s.update({1: 0}), "exactly the class groups"),
        (lambda b, m, s: s.update({3: 5}), "group 3 selects feature 5, outside 0..3"),
        (lambda b, m, s: s.update({6: -1}), "group 6 selects feature -1, outside 0..3"),
    ], ids=["two-class-bounds", "two-class-means", "missing-group", "extra-group",
            "feature-past-last", "negative-feature"])
    def test_malformed_model_rejected(self, bad, message):
        # Each shape used to be accepted, then fail on every record it classified.
        model = three_class_model()
        bounds, means = ([list(f) for f in rows] for rows in (TRAINING_BOUNDS, model.means))
        selected = dict(model.selected)
        bad(bounds, means, selected)
        with pytest.raises(ValueError, match=message):
            ThreeClassModel(IRIS_FRAME, BoundaryModel(tuple(map(tuple, bounds))),
                            tuple(map(tuple, means)), selected)

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_feature_value_rejected(self, bad, position):
        # Each used to escape from the exact nearest-range tie-break as
        # OverflowError or "cannot convert NaN to integer ratio".
        record = [5.5, 2.5, 4.8, 1.5]
        record[position] = bad
        with pytest.raises(ValueError, match=f"^feature value must be finite, got {bad}$"):
            classify_three_class(tuple(record), three_class_model())

    @pytest.mark.parametrize("position", range(4))
    def test_missing_feature_value_rejected(self, position):
        # It once escaped from the range comparison as a bare TypeError.
        record = [5.5, 3.0, 1.4, 0.2]
        record[position] = None
        with pytest.raises(ValueError, match=f"^feature {position} has a missing value$"):
            classify_three_class(tuple(record), three_class_model())

    @pytest.mark.parametrize("record", [(5.0, 3.0, 1.4), (5.0, 3.0, 1.4, 0.2, 9.9)],
                             ids=["short", "long"])
    def test_record_length_must_match_the_model(self, record):
        # A short record raised a bare IndexError, and a long one had its extra value ignored.
        message = f"^record has {len(record)} values, model has 4 features$"
        with pytest.raises(ValueError, match=message):
            classify_three_class(record, three_class_model())

    def test_non_numeric_value_raises_the_bare_type_error(self):
        # Only a missing value becomes a ValueError; any other TypeError is re-raised.
        message = "^'<=' not supported between instances of 'float' and 'str'$"
        with pytest.raises(TypeError, match=message):
            classify_three_class(("x", 3.0, 1.4, 0.2), three_class_model())

    @pytest.mark.parametrize("bounds", [
        [math.nan, math.nan], [-math.inf, 6.9], [4.9, math.inf], [math.nan, 6.9],
    ], ids=["nan", "-inf-low", "inf-high", "nan-low"])
    def test_non_finite_bounds_rejected(self, bounds):
        # [NaN, NaN] used to be accepted, then fail on a record below every range
        # with "min() arg is an empty sequence".
        per_feature = [list(f) for f in TRAINING_BOUNDS]
        per_feature[2][1] = tuple(bounds)
        with pytest.raises(ValueError, match=r"^feature 2 class 1: bounds \[.*\] must be finite$"):
            BoundaryModel(tuple(map(tuple, per_feature)))

    def test_train_three_class_covers_groups(self, iris_dataset):
        model = train_three_class(iris_dataset.rows, iris_dataset.labels, IRIS_FRAME)
        assert set(model.selected) == {0b011, 0b101, 0b110, 0b111}
        assert len(model.boundaries.bounds) == 4
        assert len(model.means) == 4

    def test_step1_never_runs_steps_2_3(self, iris_dataset):
        model = train_three_class(iris_dataset.rows, iris_dataset.labels, IRIS_FRAME)
        for record in iris_dataset.rows:
            pred = classify_three_class(record, model)
            if pred.trace["decided"] == "step1":
                assert "feature" not in pred.trace


def test_train_three_class_matches_per_sample_reference_on_iris(iris_dataset):
    for seed in range(42, 52):
        folds = make_folds(len(iris_dataset), 10, seed)
        for fold in range(folds.k):
            train = folds.train_indices(fold)
            rows = [iris_dataset.rows[i] for i in train]
            labels = [iris_dataset.labels[i] for i in train]
            model = train_three_class(rows, labels, IRIS_FRAME)
            expected = reference_three_class(rows, labels, IRIS_FRAME)
            assert classifier_to_dict(model) == classifier_to_dict(expected)


@st.composite
def _small_three_class_columns(draw):
    # Few records over few distinct values, so that degenerate features,
    # one-record classes and fsv ties between features all occur.
    n_features = draw(st.integers(min_value=1, max_value=4))
    row = st.tuples(*[st.sampled_from((0.0, 1.0, 2.0, 4.0))] * n_features)
    records = draw(st.permutations([
        (draw(row), c) for c in range(3) for _ in range(draw(st.integers(min_value=1, max_value=6)))
    ]))
    return [features for features, _ in records], [label for _, label in records]


@settings(max_examples=300)
@given(train=_small_three_class_columns())
def test_train_three_class_matches_per_sample_reference(train):
    try:
        expected = reference_three_class(*train, IRIS_FRAME)
    except ValueError as exc:
        with pytest.raises(type(exc)):
            train_three_class(*train, IRIS_FRAME)
        return
    assert classifier_to_dict(train_three_class(*train, IRIS_FRAME)) == classifier_to_dict(expected)


class TestTrainThreeClassInput:
    @pytest.mark.parametrize("row, feature", [(1, 2), (6, 2), (60, 0), (149, 3)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_named_wherever_it_is(self, iris_dataset, row, feature, value):
        # Such a value used to fail the bounds check or the means check, by its value and
        # row (an inf in row 6 the first, a NaN there the second); now every one gets the
        # binary trainer's message.
        rows = [list(r) for r in iris_dataset.rows]
        rows[row][feature] = value
        message = f"^feature value must be finite, got {value} in feature {feature}$"
        with pytest.raises(ValueError, match=message):
            train_three_class(rows, iris_dataset.labels, IRIS_FRAME)

    @pytest.mark.parametrize("fold", [None, 1])
    def test_value_past_the_float_range_named_by_the_fold_trainer(self, iris_dataset, fold):
        # float(10**400) raises OverflowError, which escaped the fold's fit.
        rows = [list(r) for r in iris_dataset.rows]
        rows[60][1] = 10**400
        held_out = [i % 2 for i in range(len(rows))]  # record 60 is in fold 0
        fit = train_three_class_folds(rows, iris_dataset.labels, held_out, IRIS_FRAME)
        message = f"^feature value {10**400} is beyond the float range in feature 1$"
        with pytest.raises(ValueError, match=message):
            fit(fold)
        fit(0)  # the fold that holds the record out does not see it

    def test_finite_values_whose_sum_overflows_keep_the_means_check(self, iris_dataset):
        rows = [list(r) for r in iris_dataset.rows]
        rows[1][2], rows[2][2] = 1.5e308, 1.7e308
        with pytest.raises(ValueError, match=r"^class means must be finite: \(\(.*inf"):
            train_three_class(rows, iris_dataset.labels, IRIS_FRAME)

    def test_no_rows_rejected_by_both_trainers(self):
        with pytest.raises(ValueError, match="^no training records$"):
            train_three_class([], [], IRIS_FRAME)
        with pytest.raises(ValueError, match="^training data must contain both normal and "):
            train_binary([], [])

    @pytest.mark.parametrize("rows, labels, held_out, message", [
        ([(1.0,), (2.0,)], [0, 1], [0], "^1 fold ids for 2 rows$"),
        ([(1.0,), (2.0,), (3.0,)], [0, 1], [0, 0, 1], "^3 rows vs 2 labels$"),
        ([(1.0,), (2.0, 3.0)], [0, 1], [0, 1], "^row 1 has 2 values, row 0 has 1$"),
        # The binary trainer's order: ragged rows are refused before any label is scanned.
        ([(1.0,), (2.0, 3.0)], [0, [1]], [0, 0], "^row 1 has 2 values, row 0 has 1$"),
    ], ids=["fold-ids", "labels", "ragged", "ragged-before-an-unhashable-label"])
    def test_columns_of_other_lengths_rejected_while_preparing(
        self, rows, labels, held_out, message
    ):
        with pytest.raises(ValueError, match=message):
            train_three_class_folds(rows, labels, held_out, IRIS_FRAME)

    def test_errors_wait_for_the_fold_that_trains_on_them(self):
        # Record 6's label and record 7's missing value are held out of fold 1: preparing
        # raises nothing, fold 1 trains, and only fold 0's fit meets them, label first.
        rows = [(float(i % 4),) for i in range(7)] + [(None,)]
        labels = [0, 1, 2, 0, 1, 2, 5, 0]
        held_out = (0, 0, 0, 0, 0, 0, 1, 1)
        fit = train_three_class_folds(rows, labels, held_out, IRIS_FRAME)
        assert fit(1) == train_three_class(rows[:6], labels[:6], IRIS_FRAME)
        with pytest.raises(ValueError, match=r"^class label 5 outside 0\.\.2$"):
            fit(0)
        labels[6] = 1
        with pytest.raises(ValueError, match="^feature 0 has a missing value$"):
            train_three_class_folds(rows, labels, held_out, IRIS_FRAME)(0)
        with pytest.raises(ValueError, match="^no training records$"):
            train_three_class_folds(rows, labels, (0,) * 8, IRIS_FRAME)(0)


def _outcome(function, *args):
    # The result (a model as its JSON), or the type and message of the error raised.
    try:
        result = function(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return json.dumps(classifier_to_dict(result)) if isinstance(result, ThreeClassModel) else result


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fold_models_match_train_three_class_on_the_fold_rows(data):
    # Each fold's fit, and fit(None), gives train_three_class's model on the
    # records outside the fold, in index order, or its error word for word.
    k = data.draw(st.integers(2, 20), label="k")
    n = data.draw(st.integers(k, 3 * k + 9), label="n")
    width = data.draw(st.integers(1, 4), label="width")
    cell = st.sampled_from((0.0, 1.0, 2.0, 4.0))
    rows = data.draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                              min_size=n, max_size=n), label="rows")
    labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n), label="labels")
    held_out = make_folds(n, k, data.draw(st.integers(0, 2**32 - 1), label="fold seed")).assignment
    fault = data.draw(st.sampled_from(["none", "label", "missing", "nan", "class"]), label="fault")
    i = data.draw(st.integers(0, n - 1), label="record")
    if fault == "label":
        labels[i] = data.draw(st.sampled_from([3, -1, 2.5]), label="bad label")
    elif fault in ("missing", "nan"):
        f = data.draw(st.integers(0, width - 1), label="feature")
        rows[i][f] = None if fault == "missing" else math.nan
    elif fault == "class":  # record i's fold holds every record of its class
        c = labels[i]
        labels = [c if g == held_out[i] else (c + 1 + label % 2) % 3
                  for label, g in zip(labels, held_out)]
    rows = [tuple(row) for row in rows]
    fit = train_three_class_folds(rows, labels, held_out, IRIS_FRAME)
    for fold in (*range(k), None):
        train = [j for j, g in enumerate(held_out) if g != fold]
        fold_rows, fold_labels = [rows[j] for j in train], [labels[j] for j in train]
        expected = _outcome(train_three_class, fold_rows, fold_labels, IRIS_FRAME)
        assert _outcome(fit, fold) == expected
        # The row checks of the grouping come first, as when each fold grouped its rows.
        grouped = _outcome(reference_class_columns, fold_rows, fold_labels)
        assert isinstance(grouped, list) or expected == grouped


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
    rows, labels = iris_dataset.rows, iris_dataset.labels
    decisions = 0
    for seed in range(42, 52):
        folds = make_folds(len(rows), 10, seed)
        for fold in range(folds.k):
            train = folds.train_indices(fold)
            model = train_three_class([rows[i] for i in train], [labels[i] for i in train],
                                      IRIS_FRAME)
            for i in folds.test_indices(fold):
                _assert_three_class_exact(rows[i], model)
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


def _model_with_rows(focal_sets, nearest):
    # At the record (0, ...), feature f's boundary row puts its mass on
    # focal_sets[f] (the frame: vacuous), and every feature's nearest mean
    # is class ``nearest``'s.
    bounds = tuple(
        tuple((-1, 1) if bits >> c & 1 else (2, 3) for c in range(3))
        for bits in focal_sets
    )
    means = tuple(tuple(0 if c == nearest else 1 for c in range(3)) for _ in focal_sets)
    selected = {bits: 0 for bits in (0b011, 0b101, 0b110, 0b111)}
    return ThreeClassModel(IRIS_FRAME, BoundaryModel(bounds), means, selected)


def test_three_class_matches_exact_oracle_on_every_multiset_of_up_to_six_rows():
    # The step-1 memo starts empty, so each case's first call fills it
    # (a miss) and its second reads it (a hit); both must meet the oracle.
    classify._step1.cache_clear()
    labels = IRIS_FRAME.labels
    cases = float_misses = 0
    for n in range(1, 7):
        for focal_sets in combinations_with_replacement(range(1, 8), n):
            record = (0,) * n
            for nearest in range(3):
                model = _model_with_rows(focal_sets, nearest)
                label, trace = oracle_three_class(record, model)
                for _ in range(2):
                    pred = classify_three_class(record, model)
                    assert (pred.label, dict(pred.trace)) == (label, trace)
                cases += 1
            # The exact step-1 leader, read off the oracle's trace, against
            # the leader of the float fold, which rounding can pick wrongly.
            group = trace.get("group", [label])
            exact = sum(1 << labels.index(name) for name in group)
            fused = combine_all([boundary_mass(0, b, IRIS_FRAME) for b in model.boundaries.bounds])
            float_leader = oracle_three_class_candidate({h.bits: v for h, v in fused.items()})
            float_misses += float_leader != exact
    assert cases == 3 * 1715
    # The cases reach the near-ties that a float decision gets wrong.
    assert float_misses > 0
    # One step-1 key per multiset, whatever the nearest class.
    assert classify._step1.cache_info().currsize == 1715


def test_three_class_decision_is_keyed_on_the_multiset_of_focal_sets():
    # Every order of the same focal sets is one decision key, whatever the model.
    classify._step1.cache_clear()
    for order in permutations((3, 7, 7, 3)):
        for nearest in range(3):
            pred = classify_three_class((0,) * 4, _model_with_rows(order, nearest))
            assert (pred.trace["decided"], pred.args) == ("step3", (order, nearest))
    assert classify._step1.cache_info().currsize == 1


def _conjunctive(left, right):
    # Dempster's rule without the normalisation: every product on its intersection, ∅ included.
    fused = {}
    for a, u in left.items():
        for b, v in right.items():
            fused[a & b] = fused.get(a & b, 0) + u * v
    return fused


def test_three_class_integer_masses_are_the_exact_unnormalised_combination():
    # Step 1's integer masses over Q(∅) = 10^n are the exact unnormalised combination of the
    # boundary rows at every A, ∅ included: m(∅) / Q(∅) is the conflict K. The rows take the
    # confidence the reported mass uses, so a change to it that the integers miss fails here.
    full, cases = 0b111, 0
    confidence = Fraction(str(BOUNDARY_CONFIDENCE))
    for n in range(1, 7):
        for key in combinations_with_replacement(range(1, 8), n):
            exact = {full: Fraction(1)}
            for bits in key:
                row = {bits: confidence, full: 1 - confidence} if bits != full else {full: 1}
                exact = _conjunctive(exact, row)
            masses = classify._fused_masses(key)
            assert [Fraction(m, 10**n) for m in masses] == [exact.get(a, 0) for a in range(8)]
            cases += 1
    assert cases == 1715


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

    @pytest.mark.parametrize("signal", [0, 5])
    def test_unknown_signal_has_no_row(self, signal):
        with pytest.raises(ValueError, match=f"^unknown signal {signal}$"):
            email_signal_row((5.0, 1, 1, 0), signal, email_model_default())

    def test_invalid_signal_set_rejected(self):
        with pytest.raises(ValueError):
            EmailModel(
                email_model_default().interval_bpa,
                email_model_default().spoofed_bpa,
                email_model_default().dangerous_bpa,
                email_model_default().benign_bpa,
                frozenset({5}),
            )

    @pytest.mark.parametrize("message", [(5.0, 1, 1, 0, 99), (5.0, 0.5, 1, 0, 99), (5.0, 1, 1)],
                             ids=["table-flags", "other-flag", "short"])
    def test_message_of_another_length_rejected(self, message):
        # The first was labelled through the table; the others raised bare unpacking errors.
        with pytest.raises(ValueError, match=f"^message has {len(message)} values, expected 4$"):
            classify_email(message, email_model_default())

    @pytest.mark.parametrize("signals", [(2, 1), [1, 2], {1, 2}, range(1, 3)],
                             ids=["tuple", "list", "set", "range"])
    def test_signals_must_be_a_frozenset(self, signals):
        # A tuple used to build a model whose JSON (signals: [2, 1]) did not load back.
        message = re.escape(f"signals must be a frozenset, got {signals!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(email_model_default(), signals=signals)


EMAIL_SUBSETS = [frozenset(c) for r in range(1, 5) for c in combinations((1, 2, 3, 4), r)]
# Symmetric rows tie ΠQ(a) and ΠQ(n) exactly; the 2^-54 row ties them only
# in floats (0.75 + 2^-54 rounds to 0.75), so an exact decision says abnormal.
SYMMETRIC_ROW = (0.45, 0.45, 0.1)
FLOAT_TIE_ROW = (0.25, 0.25 + 2.0**-54, 0.5)
NEAR_TIE_MODEL = replace(
    email_model_default(),
    spoofed_bpa=TableBpa((SYMMETRIC_ROW, SYMMETRIC_ROW)),
    dangerous_bpa=TableBpa((FLOAT_TIE_ROW, SYMMETRIC_ROW)),
    benign_bpa=TableBpa(((0.5, 0.5, 0.0), FLOAT_TIE_ROW)),
)
# Normal-only spoofed and abnormal-only dangerous rows: with both active, flags (0, 0) leave
# no mass.
CONFLICT_MODEL = replace(
    email_model_default(),
    spoofed_bpa=TableBpa(((1.0, 0.0, 0.0), SYMMETRIC_ROW)),
    dangerous_bpa=TableBpa(((0.0, 1.0, 0.0), SYMMETRIC_ROW)),
)


EMAIL_MODELS = {"stock": email_model_default(), "near-tie": NEAR_TIE_MODEL,
                "conflict": CONFLICT_MODEL}
FLAG_COMBINATIONS = list(product((0, 1), repeat=3))


class UnhashableFlag:
    """A flag equal to ``value``, 0 or 1, that the email table cannot look up."""

    __hash__ = None

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return other == self.value

    def __int__(self):
        return self.value


def table_entry(model, flags):
    """The entry of ``model``'s email table for the three flags ``flags``."""
    spoofed, dangerous, benign = flags
    return model.table[1][spoofed][dangerous][benign]


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
                pred = classify_email(message, replace(self.MODEL, signals=frozenset(signals)))
                for bits, value in zip((1, 2, 3), exact):
                    assert abs(pred.mass.mass_bits(bits) - float(value)) <= 1e-14
                if abs(exact[1] - exact[0]) > 1e-12:
                    assert pred.label == ("abnormal" if exact[1] > exact[0] else "normal")

    @pytest.mark.parametrize("flag", [0.5, 1.9, math.nan, "1", None])
    @pytest.mark.parametrize("position", [1, 2, 3])
    def test_non_binary_flag_rejected(self, flag, position):
        # Not truncated to 0 or 1 on the way to the signal's table, whatever
        # other signals are active.
        message = [100.0, 0.0, 1.0, 0.0]
        message[position] = flag
        for signals in EMAIL_SUBSETS:
            if position + 1 in signals:
                with pytest.raises(ValueError, match="binary signal value must be 0 or 1"):
                    classify_email(tuple(message), replace(self.MODEL, signals=signals))

    def test_unhashable_flag_equal_to_one_takes_the_miss_path(self):
        # The table lookup cannot hash this flag, so the rows are built signal by
        # signal: the decision and the mass are those of the plain flag 1.
        pred = classify_email((10.0, UnhashableFlag(1), 1.0, 0.0), self.MODEL)
        plain = classify_email((10.0, 1.0, 1.0, 0.0), self.MODEL)
        assert (pred.label, pred.trace) == ("abnormal", {"signals": [1, 2, 3, 4]})
        assert (plain.label, plain.trace) == (pred.label, pred.trace)
        assert pred.mass == plain.mass
        message = re.escape("binary signal value must be 0 or 1, got 0.5")
        with pytest.raises(ValueError, match=f"^{message}$"):
            classify_email((10.0, 0.5, 1.0, 0.0), self.MODEL)

    def test_signal_subset(self):
        pred = classify_email((5.0, 1, 1, 0), replace(self.MODEL, signals=frozenset({4, 1, 3})))
        assert pred.trace["signals"] == [1, 3, 4]
        margin = abs(pred.mass.mass_bits(2) - pred.mass.mass_bits(1))
        assert margin < 0.05

    def test_invalid_signals_rejected(self):
        # The signals are the model's, checked when it is built.
        with pytest.raises(ValueError):
            replace(self.MODEL, signals=frozenset({5}))
        with pytest.raises(ValueError):
            replace(self.MODEL, signals=frozenset())


class TestEmailExactDecision:
    """``classify_email`` against the exact oracle, and its mass against the
    ordered fold of the same rows (bit for bit) and the pairwise fold."""

    @pytest.mark.parametrize("seed", [42, 134])
    def test_generated_corpus_matches_oracle(self, seed):
        model = email_model_default()
        messages = generate_email(seed).rows
        labels = [classify_email(m, model).label for m in messages]
        assert labels == oracle_email_labels(messages, model)

    @settings(max_examples=400, deadline=None)
    @given(
        interval=st.one_of(
            st.floats(0, 1e6), st.integers(0, 10**6).map(float), st.floats(29.9, 30.1),
            st.floats(0, 1e300),
        ),
        flags=st.tuples(*[st.sampled_from([0, 1, 0.0, 1.0, True])] * 3),
        signals=st.sampled_from(EMAIL_SUBSETS),
        near_tie=st.booleans(),
    )
    def test_matches_oracle_and_folds(self, interval, flags, signals, near_tie):
        model = replace(NEAR_TIE_MODEL if near_tie else email_model_default(), signals=signals)
        message = (interval, *flags)
        pred = classify_email(message, model)
        assert pred.label == oracle_email_labels([message], model)[0]
        assert pred.trace == {"signals": sorted(signals)}
        rows = [email_signal_row(message, s, model) for s in sorted(signals)]
        ordered = combine_binary(BINARY_FRAME, rows)
        assert list(pred.mass._masses.items()) == list(ordered._masses.items())
        if not near_tie:
            pairwise = reduce(combine, [email_signal_mass(message, s, model) for s in sorted(signals)])
            for bits in (1, 2, 3):
                assert abs(pred.mass.mass_bits(bits) - pairwise.mass_bits(bits)) <= 1e-12

    def test_exact_tie_goes_to_normal(self):
        # ΠQ(a) = ΠQ(n) = 0.55: abnormal does not have strictly greater mass.
        model = replace(NEAR_TIE_MODEL, signals=frozenset({2}))
        pred = classify_email((0.0, 0, 0, 0), model)
        assert pred.label == "normal"
        assert pred.mass.mass_bits(1) == pred.mass.mass_bits(2)
        model = replace(NEAR_TIE_MODEL, signals=frozenset({2, 3}))
        assert classify_email((0.0, 1, 1, 0), model).label == "normal"

    def test_float_tie_decided_exactly(self):
        # Both products round to 0.75, but Q(a) exceeds Q(n) by 2^-54.
        model = replace(NEAR_TIE_MODEL, signals=frozenset({3}))
        pred = classify_email((0.0, 0, 0, 0), model)
        q_n, q_a, _ = binary_commonalities([FLOAT_TIE_ROW])
        assert q_n == q_a == 0.75
        assert pred.label == "abnormal"
        assert pred.mass.mass_bits(1) == pred.mass.mass_bits(2)
        model = replace(NEAR_TIE_MODEL, signals=frozenset({2, 3, 4}))
        assert classify_email((0.0, 0, 0, 1), model).label == "abnormal"
        assert classify_email((0.0, 0, 1, 0), model).label == "normal"

    def test_float_order_reversed_decided_exactly(self):
        # The float products round to 0.28 > 0.27999999999999997, a gap of about 2^-53 of
        # their sum, yet the exact ΠQ(a) exceeds ΠQ(n) by about 2.8e-18.
        model = replace(
            NEAR_TIE_MODEL, signals=frozenset({2, 3}),
            spoofed_bpa=TableBpa(((0.65, 0.3, 0.05), SYMMETRIC_ROW)),
            dangerous_bpa=TableBpa(((0.2, 0.6000000000000001, 0.2), SYMMETRIC_ROW)),
        )
        message = (0.0, 0, 0, 0)
        q_n, q_a, _ = binary_commonalities([email_signal_row(message, s, model) for s in (2, 3)])
        assert q_n > q_a
        assert oracle_email_labels([message], model) == ["abnormal"]
        assert classify_email(message, model).label == "abnormal"


class TestEmailTable:
    @pytest.mark.parametrize("signals", EMAIL_SUBSETS)
    def test_entries_are_the_folded_table_rows(self, signals):
        # Nested three deep on the flags, keyed 0 and 1, each entry is the one prediction of the
        # message (∞, *flags): the fold of the active signals' rows, the interval's the floor row.
        # The cutoff is the least interval signal 1's logistic saturates at (threshold 30), and
        # None when the interval is never read.
        model = replace(NEAR_TIE_MODEL, signals=signals)
        active, by_flags, cutoff = model.table
        assert active == tuple(sorted(signals))
        assert cutoff == (739.0000000000001 if 1 in signals else None)
        keys = [(s, d, b) for s in by_flags for d in by_flags[s] for b in by_flags[s][d]]
        assert keys == FLAG_COMBINATIONS
        for flags in FLAG_COMBINATIONS:
            entry = table_entry(model, flags)
            message = (math.inf, *flags)
            full = tuple(email_signal_row(message, s, model) for s in active)
            if 1 in signals:
                assert full[0] == (0.3, 0.69, 0.01)
            label = oracle_email_labels([message], model)[0]
            assert type(entry) is Prediction
            assert (entry.label, entry.frame, entry.build, entry.args) == (
                label, BINARY_FRAME, combine_binary, (full,))
            assert entry.trace is model.trace

    @pytest.mark.parametrize("base", ["stock", "near-tie", "conflict"])
    def test_entries_match_the_miss_path(self, base):
        # An unhashable flag equal to the entry's, or an inactive flag other than 0 or 1, misses
        # the table: the rows built signal by signal give each entry's label, trace and mass bits
        # in order, or raise where the entry is None.
        for signals in EMAIL_SUBSETS:
            model = replace(EMAIL_MODELS[base], signals=signals)
            for flags, position in product(FLAG_COMBINATIONS, (1, 2, 3)):
                entry = table_entry(model, flags)
                message = [math.inf, *flags]
                active = position + 1 in signals
                message[position] = UnhashableFlag(flags[position - 1]) if active else 2
                message = tuple(message)
                if entry is None:
                    with pytest.raises(TotalConflictError):
                        classify_email(message, model)
                    continue
                miss = classify_email(message, model)
                assert miss is not entry
                assert (miss.label, miss.trace) == (entry.label, entry.trace)
                assert list(miss.mass._masses.items()) == list(entry.mass._masses.items())

    @pytest.mark.parametrize("signals", [s for s in EMAIL_SUBSETS if 1 not in s])
    def test_without_the_interval_every_message_gets_its_entry(self, signals):
        # The interval is never read, so even one the interval signal refuses gets the entry,
        # whichever way the flags are spelled, in a tuple or a list.
        model = replace(email_model_default(), signals=signals)
        for flags in FLAG_COMBINATIONS:
            entry = table_entry(model, flags)
            for spelled in (flags, tuple(map(float, flags)), tuple(map(bool, flags))):
                for interval in (0.0, 5.0, 1e300, math.inf, -1.0, math.nan, "x"):
                    assert classify_email((interval, *spelled), model) is entry
                    assert classify_email([interval, *spelled], model) is entry

    def test_survives_replace_and_pickle(self):
        model = replace(NEAR_TIE_MODEL, signals=frozenset({1, 3}))
        table = model.table
        unpickled = pickle.loads(pickle.dumps(model))
        assert unpickled.table == table  # the entries' predictions compare label, mass and trace
        other = replace(model, signals=frozenset({2, 4}))
        assert other.table[0] == (2, 4) and other.table[2] is None
        assert table[2] == 739.0000000000001
        assert model.table is table
        message = (31.5, 1, 0, 1)
        assert classify_email(message, unpickled) == classify_email(message, model)

    @settings(max_examples=400, deadline=None)
    @given(
        interval=st.one_of(st.sampled_from([0.0, 5.0, 30.0, 738.0, 740.0, 1e300, math.inf, -1.0]),
                           st.floats(0, 1e6)),
        flags=st.tuples(*[st.sampled_from([0, 1])] * 3),
        signals=st.sampled_from(EMAIL_SUBSETS),
        base=st.sampled_from(["stock", "near-tie", "conflict"]),
        way=st.sampled_from(["list", 0.5, 2, math.nan, "unhashable"]),
        data=st.data(),
    )
    def test_messages_off_the_table_match_the_canonical_flags(
        self, interval, flags, signals, base, way, data
    ):
        # An inactive flag other than 0 or 1, or an unhashable flag equal to 1, misses the table;
        # the rows built signal by signal give the table's label, trace and mass. A list message
        # is read like the tuple, and finds the same entry.
        model = replace(EMAIL_MODELS[base], signals=signals)
        canonical = (interval, *flags)
        message = list(canonical)
        if way == "unhashable":
            position = data.draw(st.sampled_from([1, 2, 3]))
            canonical = (*canonical[:position], 1, *canonical[position + 1:])
            message[position] = UnhashableFlag(1)
        elif way != "list":
            inactive = [s - 1 for s in (2, 3, 4) if s not in signals]
            assume(inactive)
            message[data.draw(st.sampled_from(inactive))] = way
        message = message if way == "list" else tuple(message)
        if way != "list":
            with pytest.raises(TypeError if way == "unhashable" else KeyError):
                table_entry(model, message[1:])

        def outcome(m):
            try:
                pred = classify_email(m, model)
            except (ValueError, TotalConflictError) as exc:
                return type(exc), str(exc)
            return pred.label, pred.trace, list(pred.mass._masses.items())

        assert outcome(message) == outcome(canonical)

    @settings(max_examples=600, deadline=None)
    @given(
        base=st.sampled_from(["stock", "near-tie", "conflict"]),
        signals=st.sampled_from(EMAIL_SUBSETS),
        # At 692.4 and -489.9, interval > threshold + 709 misjudges a float next to the cutoff.
        threshold=st.sampled_from([30.0, 692.4, -489.9]),
        flags=st.tuples(*[st.sampled_from(
            [0, 1, 0.0, 1.0, False, True, -1, 2, 0.5, math.nan, "unhashable"])] * 3),
        as_list=st.booleans(),
        data=st.data(),
    )
    def test_matches_the_per_message_path(self, base, signals, threshold, flags, as_list, data):
        # Every message, on the table or off it, gets the label, trace and mass bits of the
        # per-message path, or its error; a hit is the table's entry object itself.
        model = EMAIL_MODELS[base]
        model = replace(model, interval_bpa=replace(model.interval_bpa, threshold=threshold),
                        signals=signals)
        cutoff = threshold + 709
        interval = data.draw(st.one_of(
            st.integers(-6, 6).map(lambda k: _ulps(cutoff, k)),
            st.sampled_from([0.0, -1.0, math.nan, math.inf]),
        ))
        values = [UnhashableFlag(1) if f == "unhashable" else f for f in flags]
        message = [interval, *values] if as_list else (interval, *values)

        def outcome(classify_message):
            try:
                pred = classify_message()
            except (ValueError, TotalConflictError) as exc:
                return None, (type(exc), str(exc))
            return pred, (pred.label, pred.trace, list(pred.mass._masses.items()))

        pred, got = outcome(lambda: classify_email(message, model))
        active = tuple(sorted(signals))
        _, want = outcome(lambda: classify._email_prediction(message, active, model))
        assert got == want
        on_table = all(f in (0, 1) for f in flags)  # the unhashable flag is the string here
        entry = table_entry(model, flags) if on_table else None
        past = 1 not in signals or (interval >= 0 and threshold - interval < -709)
        hit = entry is not None and past
        assert (entry is not None and pred is entry) == hit
        if hit:
            assert classify_email(tuple(message), model) is classify_email(list(message), model)

    def test_bad_interval_reported_before_bad_flag(self):
        with pytest.raises(ValueError, match="signal value must be non-negative"):
            classify_email((-1.0, 1.9, 1, 0), email_model_default())

    def test_interval_only_model_ignores_flags(self):
        model = replace(email_model_default(), signals=frozenset({1}))
        pred = classify_email((5.0, math.nan, "x", None), model)
        assert (pred.label, pred.trace) == ("normal", {"signals": [1]})
        assert pred == classify_email((5.0, 0, 0, 0), model)


class TestEmailCutoff:
    """The table's cutoff restates the saturation test ``interval >= 0 and threshold - interval
    < -709`` exactly: the test holds at the cutoff and fails one float below it."""

    @staticmethod
    def saturated(threshold, interval):
        return interval >= 0 and threshold - interval < -709

    def check(self, threshold):
        model = replace(email_model_default(),
                        interval_bpa=replace(email_model_default().interval_bpa,
                                             threshold=threshold))
        cutoff = model.table[2]
        below = math.nextafter(cutoff, -math.inf)
        assert cutoff == saturation_cutoff(threshold) and cutoff >= 0
        assert self.saturated(threshold, cutoff) and not self.saturated(threshold, below)
        entry = table_entry(model, (1, 1, 0))
        assert classify_email((cutoff, 1, 1, 0), model) is entry
        if cutoff == 0.0:
            with pytest.raises(ValueError, match="^signal value must be non-negative"):
                classify_email((below, 1, 1, 0), model)
        else:
            assert classify_email((below, 1, 1, 0), model) is not entry
        return cutoff

    # -709 and its neighbours put the cutoff near 0.0, among floats far finer than the threshold's.
    @pytest.mark.parametrize("threshold", [
        30.0, 0.0, 0.1, 692.4, -489.9, -1000.0, 1e6, 1e20, -1e20, sys.float_info.max,
        -sys.float_info.max, -709.0, math.nextafter(-709.0, -math.inf),
        math.nextafter(-709.0, math.inf), 5e-324,
    ])
    def test_least_saturated_interval(self, threshold):
        cutoff = self.check(threshold)
        assert (cutoff == 0.0) == self.saturated(threshold, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(threshold=st.floats(allow_nan=False, allow_infinity=False))
    def test_least_saturated_interval_at_any_threshold(self, threshold):
        self.check(threshold)

    @pytest.mark.parametrize("interval", [10**400, Decimal("1e400"), Decimal(740)])
    def test_exotic_interval_past_the_cutoff_gets_the_entry(self, interval):
        # threshold - interval raises on these (OverflowError on the int, TypeError on the
        # Decimal); one comparison with the cutoff is exact, so they get the floor row's entry.
        model = email_model_default()
        entry = table_entry(model, (1, 1, 0))
        assert classify_email((interval, 1, 1, 0), model) is entry
        with pytest.raises((OverflowError, TypeError)):
            classify._email_prediction((interval, 1, 1, 0), (1, 2, 3, 4), model)

    def test_decimal_below_the_cutoff_takes_the_per_message_path(self):
        with pytest.raises(TypeError):
            classify_email((Decimal(739), 1, 1, 0), email_model_default())

    def test_exact_number_rounding_up_to_the_cutoff_gets_the_same_answer(self):
        # 739 + 3·2^-45 is below the cutoff 739 + 2^-43 yet rounds to it, as threshold - interval
        # reads it: the per-message path gives the entry's label and mass.
        model = email_model_default()
        interval = Fraction(739) + Fraction(3, 2**45)
        assert interval < model.table[2] == float(interval)
        pred, entry = classify_email((interval, 1, 1, 0), model), table_entry(model, (1, 1, 0))
        assert pred is not entry
        assert (pred.label, pred.trace, pred.args) == (entry.label, entry.trace, entry.args)
        assert list(pred.mass._masses.items()) == list(entry.mass._masses.items())


def _ulps(value: float, steps: int) -> float:
    # ``value`` moved ``steps`` floats up (or down, for a negative count).
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.inf if steps > 0 else -math.inf)
    return value


class TestEmailSaturatedInterval:
    """An interval past the logistic's cutoff, threshold - interval < -709, has the floor row
    (0.3, 0.69, 0.01) under the stock floor; its label and rows come from the model's table."""

    @settings(max_examples=600, deadline=None)
    @given(
        # At 692.4 and -489.9, interval > threshold + 709 misjudges a float next to the cutoff.
        threshold=st.one_of(st.sampled_from([30.0, 0.0, 0.1, 692.4, -489.9, -1000.0, 1e6]),
                            st.floats(-1e6, 1e6)),
        data=st.data(),
        flags=st.tuples(*[st.sampled_from([0, 1, 0.0, 1.0, True])] * 3),
        signals=st.sampled_from([s for s in EMAIL_SUBSETS if 1 in s]),
        near_tie=st.booleans(),
    )
    def test_lookup_matches_the_rows_and_the_exact_oracle(
        self, threshold, data, flags, signals, near_tie
    ):
        base = NEAR_TIE_MODEL if near_tie else email_model_default()
        model = replace(base, interval_bpa=replace(base.interval_bpa, threshold=threshold),
                        signals=signals)
        cutoff = threshold + 709
        interval = data.draw(st.one_of(
            st.integers(-6, 6).map(lambda k: _ulps(cutoff, k)),
            st.floats(max(cutoff - 1, 0.0), 1e300), st.just(1e300), st.just(math.inf),
        ).filter(lambda v: v >= 0))
        message = (interval, *flags)
        pred = classify_email(message, model)
        rows = tuple(email_signal_row(message, s, model) for s in sorted(signals))
        assert pred.label == oracle_email_labels([message], model)[0]
        assert pred.trace is model.trace
        assert pred.args == (rows,)
        ordered = combine_binary(BINARY_FRAME, rows)
        assert list(pred.mass._masses.items()) == list(ordered._masses.items())
        # The lookup answers exactly where logistic saturates, with the entry's prediction.
        saturated = table_entry(model, flags)
        past = threshold - interval < -709
        assert (pred is saturated) == past
        if past:
            assert rows[0] == (0.3, 0.69, 0.01)

    @pytest.mark.parametrize("interval", [-5.0, -1e-300, -1e300, -math.inf, math.nan])
    def test_negative_interval_refused_below_the_cutoff_threshold(self, interval):
        # threshold - interval < -709 for the finite negatives, yet they are not intervals.
        model = replace(email_model_default(),
                        interval_bpa=replace(email_model_default().interval_bpa, threshold=-1000.0))
        for signals in EMAIL_SUBSETS:
            if 1 in signals:
                with pytest.raises(ValueError, match="^signal value must be non-negative"):
                    classify_email((interval, 1, 1, 0), replace(model, signals=signals))
        assert classify_email((0.0, 1, 1, 0), model) is table_entry(model, (1, 1, 0))

    def test_entry_near_total_conflict_leaves_the_message_to_raise(self):
        # Normal-only spoofed and abnormal-only dangerous rows leave no mass: the table builds,
        # holds None for flags (0, 0, *), and each message raises as the fold.
        model = replace(CONFLICT_MODEL, signals=frozenset({1, 2, 3}))
        entries = {flags: table_entry(model, flags) for flags in FLAG_COMBINATIONS}
        assert all((entries[flags] is None) == (flags[:2] == (0, 0)) for flags in entries)
        message = (1e3, 0, 0, 0)
        with pytest.raises(TotalConflictError) as raised:
            fuse_binary([email_signal_row(message, s, model) for s in (1, 2, 3)])
        with pytest.raises(TotalConflictError, match=f"^{re.escape(str(raised.value))}$"):
            classify_email(message, model)
        pred = classify_email((1e3, 1, 0, 0), model)  # the abnormal-only row, with no rival
        assert pred.label == "abnormal" and pred is entries[1, 0, 0]


class TestEmailTrace:
    # Every message of a model has the same trace, so the model builds it once.

    def test_hit_and_miss_share_the_model_trace(self):
        model = email_model_default()
        hit = classify_email((10.0, 1, 1, 0), model)
        miss = classify_email((10.0, UnhashableFlag(1), 1, 0), model)
        assert hit.trace is miss.trace is model.trace
        assert model.trace == {"signals": [1, 2, 3, 4]}

    @pytest.mark.skipif(platform.python_implementation() != "CPython",
                        reason="counts the objects CPython's collector tracks")
    def test_kept_objects_per_message(self):
        # With the collector off, nothing is untracked behind our back: each kept
        # prediction holds itself, its args, its rows and the interval row (6 with a
        # trace dict and list per message).
        if sys.gettrace() is not None:
            pytest.skip("a line tracer, such as scripts/coverage.py's, keeps objects of its own")
        model = email_model_default()
        messages = [(float(i % 60), 1, 1, i % 2) for i in range(1000)]
        classify_email(messages[0], model)  # builds the model's table and trace
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            preds = [classify_email(m, model) for m in messages]
            kept = len(gc.get_objects()) - before - 1  # less the list of predictions
        finally:
            gc.enable()
        assert kept <= 4 * len(messages)
        assert all(pred.trace is model.trace for pred in preds)

    def test_replaced_model_gets_its_own_trace(self):
        model = email_model_default()
        trace = classify_email((10.0, 1, 1, 0), model).trace
        other = replace(model, signals=frozenset({4, 1}))
        pred = classify_email((10.0, 1, 1, 0), other)
        assert pred.trace is other.trace is not trace
        assert (pred.trace, trace) == ({"signals": [1, 4]}, {"signals": [1, 2, 3, 4]})
        assert model.trace is trace

    def test_pickled_prediction_equals_the_original(self):
        pred = classify_email((31.5, 1, 0, 1), email_model_default())
        assert pickle.loads(pickle.dumps(pred)) == pred  # label, mass and trace

    def test_relabelled_copy_is_a_valid_prediction(self):
        # The email shim of the benchmark's planted fault relabels with dataclasses.replace.
        model = email_model_default()
        pred = classify_email((500.0, 1, 1, 0), model)
        planted = replace(pred, label="normal")
        assert (pred.label, planted.label) == ("abnormal", "normal")
        assert planted.trace is pred.trace is model.trace
        assert planted.mass == pred.mass
        with pytest.raises(ValueError, match="is not a frame singleton"):
            replace(pred, label="worm")


class TestEmailTotalConflict:
    # K = 1 - (1 - C) = C exactly at the bound: the guard raises at K >= C.
    C = 1.0 - IDENTITY_TOL

    def test_boundary_raises_through_classify_email(self):
        model = replace(
            email_model_default(),
            spoofed_bpa=TableBpa(((1.0, 0.0, 0.0), SYMMETRIC_ROW)),
            dangerous_bpa=TableBpa(((0.0, self.C, 1.0 - self.C), SYMMETRIC_ROW)),
            signals=frozenset({2, 3}),
        )
        with pytest.raises(TotalConflictError):
            classify_email((0.0, 0, 0, 0), model)
        assert classify_email((0.0, 1, 0, 0), model).label == "abnormal"

    @pytest.mark.parametrize("interval", [0.0, 29.0, 31.0, 1e3])
    def test_raises_exactly_where_the_ordered_fold_does(self, interval):
        # ΠQ(a) = ΠQ(Θ) = 0, so 1 - K is ΠQ(n). Scan c ulp by ulp across the bound:
        # classify_email raises exactly where fuse_binary does, with the same message.
        q_n = sum(email_signal_row((interval, 0, 0, 0), 1, email_model_default())[::2])
        start = 1.0 - (1.0 - self.C) / (0.8 * q_n)
        outcomes = set()
        for steps in range(-40, 41):
            c = start
            for _ in range(abs(steps)):
                c = math.nextafter(c, 2.0 if steps > 0 else 0.0)
            model = replace(
                email_model_default(),
                spoofed_bpa=TableBpa(((0.3, 0.2, 0.5), SYMMETRIC_ROW)),
                dangerous_bpa=TableBpa(((0.0, c, 1.0 - c), SYMMETRIC_ROW)),
                benign_bpa=TableBpa(((1.0, 0.0, 0.0), SYMMETRIC_ROW)),
            )
            message = (interval, 0, 0, 0)
            try:
                fuse_binary([email_signal_row(message, s, model) for s in (1, 2, 3, 4)])
            except TotalConflictError as exc:
                outcomes.add("raises")
                with pytest.raises(TotalConflictError, match=re.escape(str(exc))):
                    classify_email(message, model)
            else:
                outcomes.add("fuses")
                classify_email(message, model)
        assert outcomes == {"raises", "fuses"}


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

    def test_shared_predictions_read_across_threads(self):
        # Saturated messages share their entry's prediction, whose mass is built on first read.
        model = email_model_default()
        messages = [(1e3 + i, 1, i % 2, (i // 2) % 2) for i in range(2000)]
        expected = {m[1:]: list(classify_email(m, replace(model)).mass._masses.items())
                    for m in messages[:4]}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda m: (m, classify_email(m, model).mass), m)
                           for m in messages]
                masses = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len({id(classify_email(m, model)) for m, _ in masses}) == 4
        assert all(list(mass._masses.items()) == expected[m[1:]] for m, mass in masses)


class TestPredictionSerialization:
    def test_invalid_label_rejected(self):
        from dsfusion import Prediction, vacuous_mass

        with pytest.raises(ValueError):
            Prediction("nonsense", BINARY_FRAME, {}, vacuous_mass, ())

    def test_compares_unequal_to_other_types(self):
        pred = classify_email((5.0, 1, 1, 0), email_model_default())
        assert pred.__eq__((pred.label, pred.mass, pred.trace)) is NotImplemented
        assert pred != pred.label


class TestClassifierSerialization:
    @pytest.mark.parametrize("bad", [math.nan, 7.0, 0.0, 1.0, -0.1])
    def test_normal_fraction_outside_the_open_unit_interval_rejected(self, bad):
        # NaN and 7.0 used to be accepted without complaint.
        with pytest.raises(ValueError, match=f"^normal_fraction {bad} is not between 0 and 1$"):
            BinaryModel((SigmoidBpa(1.5),), bad)

    def test_partial_binary_model_not_dumped(self):
        rows = [(float(i), float(i * 2)) for i in range(10)]
        model = train_binary(rows, [0] * 6 + [1] * 4, (1,))
        with pytest.raises(ValueError, match="feature 0 has no fitted threshold"):
            classifier_to_dict(model)

    @pytest.mark.parametrize("signals", EMAIL_SUBSETS, ids=lambda s: "".join(map(str, sorted(s))))
    def test_email_dump_every_signal_subset(self, signals):
        model = replace(email_model_default(), signals=signals)
        data = json.loads(json.dumps(classifier_to_dict(model)))
        assert data["signals"] == sorted(signals)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_email_threshold_rejected(self, bad):
        # A NaN threshold used to be accepted, then label (10, 1, 1, 0) normal with the empty
        # mass {}.
        with pytest.raises(ValueError, match=f"^threshold must be finite, got {bad}$"):
            ScaledSigmoidBpa(bad, 0.3, 0.7, 0.01)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_binary_threshold_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^threshold must be finite, got {bad}$"):
            SigmoidBpa(bad)

    def test_non_classifier_not_written(self):
        with pytest.raises(TypeError, match="^not a classifier: SigmoidBpa$"):
            classifier_to_dict(SigmoidBpa(1.0))

