"""Tests for dataset loading, the email generator, folds, evaluation, and
report emission."""

import dataclasses
import json
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsfusion.cli as cli_module
import dsfusion.data as data_module
from dsfusion import (
    DataFormatError,
    FoldPlan,
    RecordSet,
    evaluate,
    generate_email,
    load_email,
    load_iris,
    load_wbcd,
    make_folds,
    write_email_csv,
)
from dsfusion.data import (
    EMAIL_DOC_IDS,
    EMAIL_FEATURES,
    EMAIL_HEADER,
    EMAIL_LEADER_IDS,
    EMAIL_LEADER_INTERVALS,
    EMAIL_LEGIT_INTERVALS,
    EMAIL_LONG_GAP_INTERVALS,
    EMAIL_MESSAGES,
    EMAIL_WORM_BLOCKS,
    EMAIL_WORM_IDS,
    EMAIL_WORM_INTERVALS,
    TASKS,
    RNG_ID,
    WBCD_FEATURES,
    render_report,
    repeated_cv,
    report_json,
    report_text,
)
from dsfusion.bpa import moments
from dsfusion.classify import (
    classify_binary,
    email_model_default,
    train_binary,
    train_three_class,
)
from dsfusion.evidence import make_frame

from conftest import WBCD_PATH, reference_load_wbcd

# The paper's WBCD comparison: each feature alone, ADI, BCF and all nine.
ACCEPTANCE_SUBSETS = tuple((i,) for i in range(9)) + ((0, 3, 8), (1, 2, 5), tuple(range(9)))


def full_model_report(dataset, subset, folds) -> dict:
    """The wbcd report when every fold trains all nine features and then
    drops the thresholds outside ``subset``, built without ``evaluate``."""
    per_fold, pairs, misclassified = [], [], []
    for fold in range(folds.k):
        train = folds.train_indices(fold)
        full = train_binary([dataset.rows[i] for i in train], [dataset.labels[i] for i in train])
        model = dataclasses.replace(
            full, bpas=tuple(b if f in subset else None for f, b in enumerate(full.bpas))
        )
        test = folds.test_indices(fold)
        correct = 0
        for i in test:
            truth = dataset.labels[i]
            predicted = int(classify_binary(dataset.rows[i], model).label == "abnormal")
            pairs.append((truth, predicted))
            if predicted == truth:
                correct += 1
            else:
                misclassified.append(dataset.ids[i])
        per_fold.append(correct / len(test))
    return {
        "task": "wbcd",
        "config": {
            "features": "".join(WBCD_FEATURES[f] for f in subset),
            "k": folds.k,
            "seed": folds.seed,
            "rng": RNG_ID,
        },
        "accuracy": (len(dataset) - len(misclassified)) / len(dataset),
        "per_fold": per_fold,
        "confusion": {
            "tp": pairs.count((1, 1)),
            "tn": pairs.count((0, 0)),
            "fp": pairs.count((0, 1)),
            "fn": pairs.count((1, 0)),
        },
        "misclassified": sorted(misclassified),
    }


def assert_rejected_before_training(monkeypatch, dataset, task, subset, match):
    """``evaluate`` rejects ``subset`` with a plain ``ValueError`` (a usage
    error, not an input error) before any fold is trained."""
    trained = []
    spec = dataclasses.replace(TASKS[task], train=lambda *args: trained.append(args))
    monkeypatch.setitem(TASKS, task, spec)
    folds = make_folds(len(dataset), 10, 42) if spec.cross_validates else None
    with pytest.raises(ValueError, match=match) as info:
        evaluate(dataset, task, folds=folds, subset=subset)
    assert not isinstance(info.value, DataFormatError)
    assert trained == []


class TestLoadWbcd:
    def test_canonical_counts(self, wbcd_dataset):
        assert len(wbcd_dataset) == 699
        assert wbcd_dataset.labels.count(0) == 458
        assert wbcd_dataset.labels.count(1) == 241

    def test_sixteen_missing_records(self, wbcd_dataset):
        missing = [row for row in wbcd_dataset.rows if None in row]
        assert len(missing) == 16
        assert all(row.count(None) == 1 for row in missing)

    def test_first_row_parse(self, wbcd_dataset):
        assert wbcd_dataset.ids[0] == 1
        assert wbcd_dataset.rows[0] == (5.0, 1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 1.0)
        assert wbcd_dataset.labels[0] == 0

    def test_malformed_rows_rejected(self, tmp_path):
        cases = [
            "123,5,1,1,1,2,1,3,1,2",            # 10 fields
            "123,5,1,1,1,2,1,3,1,x,2",          # non-integer
            "123,5,1,1,1,2,1,3,1,11,2",         # out of range
            "123,5,1,1,1,2,1,3,1,1,3",          # bad class code
        ]
        for i, row in enumerate(cases):
            path = tmp_path / f"bad{i}.data"
            path.write_text(row + "\n")
            with pytest.raises(DataFormatError):
                load_wbcd(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.data"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_wbcd(path)

    @pytest.mark.parametrize("cell", ["1_0", " 5", "5 ", "+5", "5.0", "\u0665", "\uff15"])
    def test_cell_must_be_plain_ascii_digits(self, tmp_path, cell):
        # int() reads each of these (1_0 as 10, Arabic-Indic 5 as 5).
        path = tmp_path / "bad.data"
        path.write_text(f"123,{cell},1,1,1,2,1,3,1,1,2\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="is not an integer in 1..10"):
            load_wbcd(path)


    @pytest.mark.parametrize("cell, value", [
        ("01", 1.0), ("010", 10.0),
        # past int()'s digit limit (sys.get_int_max_str_digits()), which the cell rule never meets
        pytest.param("0" * 5000 + "7", 7.0, id="5001-chars"),
    ])
    def test_leading_zero_cells_keep_their_value(self, tmp_path, cell, value):
        path = tmp_path / "zeros.data"
        path.write_text(f"123,5,1,1,1,2,1,3,1,1,2\n124,1,{cell},1,1,2,1,3,1,1,4\n")
        features = load_wbcd(path).rows[1]
        assert features[1] == value and type(features[1]) is float

    @pytest.mark.parametrize("cell", ["0", "00", "0?", "?0", "11",
                                      pytest.param("1" * 5000, id="5000-digits")])
    def test_bad_cell_names_its_line(self, tmp_path, cell):
        path = tmp_path / "bad.data"
        path.write_text(f"123,5,1,1,1,2,1,3,1,1,2\n124,5,1,1,{cell},2,1,3,1,1,4\n")
        message = f"{path}:2: feature {cell!r} is not an integer in 1..10"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            load_wbcd(path)

    def test_shipped_file_matches_a_per_cell_parse(self, wbcd_dataset):
        rows, labels = [], []
        lines = [line for line in WBCD_PATH.read_text().splitlines() if line.strip()]
        for line in lines:
            fields = line.strip().split(",")
            rows.append(tuple(None if c == "?" else float(int(c)) for c in fields[1:10]))
            labels.append({"2": 0, "4": 1}[fields[10]])
        ids = tuple(range(1, len(lines) + 1))
        assert wbcd_dataset == RecordSet(
            ids, tuple(rows), tuple(labels), WBCD_FEATURES, ("normal", "abnormal")
        )
        values = [v for row in wbcd_dataset.rows for v in row if v is not None]
        assert {type(v) for v in values} == {float}


_CANONICAL_CELLS = st.sampled_from([*map(str, range(1, 11)), "?"])
# Spellings the canonical table misses: ones the rule accepts, bad cells and bad class codes.
_ODD_CELLS = st.sampled_from(["01", "007", "010", "0", "00", "11", "1.0", " 1", "1 ", "x", "",
                              "\u0665", "2", "4"])
_ODD_CLASSES = st.sampled_from(["3", "02", "04", " 2", "4 ", "", "benign"])
_BLANK_LINES = st.sampled_from(["", " ", "\t", "  \t "])
# Sample codes, and a long line's extra cell: "2" and "4" are also class codes, so a line of
# 10 fields before one of 12 would put them in class slots if cells were read by position.
_CODES = st.sampled_from(["1000025", "x", "", "2", "4"])
_EXTRA_CELLS = st.sampled_from(["2", "4", "?", "7"])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_wbcd_matches_the_row_by_row_loop(data, tmp_path_factory):
    # Column-wise decoding gives the per-row reference's record set, or its error text,
    # whatever mix of canonical cells, other spellings, bad values, lines of 10 or 12 fields,
    # blank lines and line endings a file has.
    n = data.draw(st.integers(1, 8), label="records")
    rows = [[data.draw(_CODES, label="code"),
             *data.draw(st.lists(_CANONICAL_CELLS, min_size=9, max_size=9), label="cells"),
             data.draw(st.sampled_from(["2", "4"]), label="class")] for _ in range(n)]
    for row, column in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 9)),
                                          max_size=3), label="odd cells"):
        rows[row][column] = data.draw(_ODD_CELLS, label="odd cell")
    for row in data.draw(st.lists(st.integers(0, n - 1), max_size=2), label="odd classes"):
        rows[row][10] = data.draw(_ODD_CLASSES, label="odd class")
    short = data.draw(st.lists(st.integers(0, n - 1), max_size=2), label="10-field lines")
    long = data.draw(st.lists(st.integers(0, n - 1), max_size=2), label="12-field lines")
    if n > 1 and data.draw(st.booleans(), label="a 10-field line, then a 12-field one"):
        at = data.draw(st.integers(0, n - 2), label="at")
        short, long = [*short, at], [*long, at + 1]
    for row in short:
        del rows[row][-1]
    for row in long:
        rows[row].append(data.draw(_EXTRA_CELLS, label="extra cell"))
    lines = [",".join(row) for row in rows]
    for at in data.draw(st.lists(st.integers(0, n), max_size=3), label="blank lines"):
        lines.insert(at, data.draw(_BLANK_LINES, label="blank"))
    bom = data.draw(st.sampled_from(["", "\ufeff"]), label="byte-order mark")
    end = data.draw(st.sampled_from(["\n", "\r\n"]), label="line ending")
    last = data.draw(st.sampled_from([end, ""]), label="last line's ending")
    path = tmp_path_factory.mktemp("wbcd") / "generated.data"
    path.write_bytes((bom + end.join(lines) + last).encode("utf-8"))

    def outcome(load):
        try:
            return load(path)
        except DataFormatError as exc:
            return str(exc)

    expected = outcome(reference_load_wbcd)
    assert outcome(load_wbcd) == expected
    assert repr(outcome(load_wbcd)) == repr(expected)  # floats stay floats


@pytest.mark.parametrize("text, bad", [
    ("5,1,1,1,2,1,3,1,1,2\n2,5,1,1,1,2,1,3,1,1,2,4\n", "1: expected 11 fields, got 10"),
    ("5,1,1,1,2,1,3,1,1,2,4,2\n4,5,1,1,1,2,1,3,1,2\n", "1: expected 11 fields, got 12"),
    ("5,1,1,1,2,1,3,1,1,2,4\n5,1,1,1,2,1,3,1,1,2\n2,5,1,1,1,2,1,3,1,1,2,4\n",
     "2: expected 11 fields, got 10"),
], ids=["10-then-12", "12-then-10", "11-10-12"])
def test_load_wbcd_checks_each_line_width(tmp_path, text, bad):
    # Each file holds a multiple of 11 cells, and read by position every cell would land
    # in a slot that takes it: a "2" or "4" in each class slot, a canonical cell elsewhere.
    path = tmp_path / "shifted.data"
    path.write_text(text)
    message = f"{path}:{bad}"
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        reference_load_wbcd(path)
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        load_wbcd(path)


class TestLoadIris:
    def test_canonical_counts(self, iris_dataset):
        assert len(iris_dataset) == 150
        for label in range(3):
            assert iris_dataset.labels.count(label) == 50

    def test_id_blocks(self, iris_dataset):
        assert iris_dataset.labels[0] == 0
        assert iris_dataset.ids[100] == 101
        assert iris_dataset.labels[100] == 2
        assert iris_dataset.labels[50] == 1

    def test_unknown_class_rejected(self, tmp_path):
        path = tmp_path / "bad.data"
        path.write_text("5.1,3.5,1.4,0.2,Iris-mystery\n")
        with pytest.raises(DataFormatError):
            load_iris(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.data"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_iris(path)

    def test_malformed_feature_rejected(self, tmp_path):
        path = tmp_path / "bad.data"
        path.write_text("5.1,abc,1.4,0.2,Iris-setosa\n")
        with pytest.raises(DataFormatError):
            load_iris(path)

    @pytest.mark.parametrize(
        "cell", ["3_5", " 3.5", "3.5 ", "\u0665.1", "+3.5", "3.", ".5", "nan", "inf", "0x1p1"]
    )
    def test_cell_must_be_plain_ascii_decimal(self, tmp_path, cell):
        # float() reads most of these (3_5 as 35.0, Arabic-Indic 5.1 as 5.1).
        path = tmp_path / "bad.data"
        path.write_text(f"5.1,{cell},1.4,0.2,Iris-setosa\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="malformed feature"):
            load_iris(path)

    @pytest.mark.parametrize("cell", ["1e999", "-1e999"])
    def test_cell_overflowing_to_infinity_rejected(self, tmp_path, cell):
        # The cell is a plain decimal, but float() reads it as an infinity.
        path = tmp_path / "bad.data"
        path.write_text(f"5.1,3.5,1.4,0.2,Iris-setosa\n5.1,{cell},1.4,0.2,Iris-setosa\n")
        message = re.escape(f"{path}:2: features must be finite")
        with pytest.raises(DataFormatError, match=f"^{message}$"):
            load_iris(path)

    def test_signed_and_exponent_cells_accepted(self, tmp_path):
        path = tmp_path / "ok.data"
        path.write_text("5.1,-3.5,14e-1,2E-1,Iris-setosa\n", encoding="utf-8")
        assert load_iris(path).rows[0] == (5.1, -3.5, 1.4, 0.2)


class TestRecordSet:
    @pytest.mark.parametrize("loader, label", [("wbcd", -1), ("wbcd", 2), ("email", 7)])
    def test_binary_label_outside_classes_names_the_record(self, wbcd_dataset, loader, label):
        # Label -1 was once counted abnormal, and 2 or 7 a bare IndexError in evaluate.
        dataset = wbcd_dataset if loader == "wbcd" else generate_email()
        labels = (*dataset.labels[:-1], label)
        message = f"record {dataset.ids[-1]} has label {label}, outside 0..1"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(dataset, labels=labels)

    def test_first_bad_record_is_named(self, iris_dataset):
        rows = list(iris_dataset.rows)
        rows[9] = rows[9][:3]
        labels = (*iris_dataset.labels[:4], 5, *iris_dataset.labels[5:])
        with pytest.raises(DataFormatError, match=r"^record 5 has label 5, outside 0\.\.2$"):
            dataclasses.replace(iris_dataset, rows=tuple(rows), labels=labels)
        with pytest.raises(DataFormatError, match=r"^record 10 has 3 features, expected 4$"):
            dataclasses.replace(iris_dataset, rows=tuple(rows))

    @pytest.mark.parametrize("column", ["ids", "rows", "labels"])
    def test_columns_have_one_entry_per_record(self, iris_dataset, column):
        with pytest.raises(DataFormatError, match=r"^\d+ ids, \d+ rows and \d+ labels$"):
            dataclasses.replace(iris_dataset, **{column: getattr(iris_dataset, column)[1:]})

    def test_columns_are_tuples_and_the_set_is_frozen(self, wbcd_dataset):
        columns = (wbcd_dataset.ids, wbcd_dataset.rows, wbcd_dataset.labels)
        assert all(type(column) is tuple for column in columns)
        with pytest.raises(dataclasses.FrozenInstanceError):
            wbcd_dataset.labels = ()


class TestGenerateEmail:
    def test_default_shape(self):
        dataset = generate_email()
        assert len(dataset) == 132
        worms = [row for row, label in zip(dataset.rows, dataset.labels) if label == 1]
        assert len(worms) == 42
        assert all(row[1] == 1 and row[2] == 1 and row[3] == 0 for row in worms)

    def test_doc_attachment_ids(self):
        dataset = generate_email()
        for rid in (12, 101):
            row = dataset.rows[rid - 1]
            assert row[3] == 1
            assert row[1] == 0
            assert dataset.labels[rid - 1] == 0

    def test_label_soundness(self):
        dataset = generate_email()
        for rid, label in zip(dataset.ids, dataset.labels):
            assert (label == 1) == (rid in EMAIL_WORM_IDS)

    def test_same_seed_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_email_csv(generate_email(7), a)
        write_email_csv(generate_email(7), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self):
        assert generate_email(1) != generate_email(2)

    def test_leader_intervals_look_legit(self):
        dataset = generate_email()
        lo, hi = EMAIL_LEADER_INTERVALS
        for rid in EMAIL_LEADER_IDS:
            assert lo - 1 <= dataset.rows[rid - 1][0] <= hi + 1

    def test_corpus_constants_are_consistent(self):
        covered = set()
        for lo, hi in EMAIL_WORM_BLOCKS:
            assert 1 <= lo <= hi <= EMAIL_MESSAGES
            block = set(range(lo, hi + 1))
            assert not block & covered
            covered |= block
        assert covered == EMAIL_WORM_IDS
        assert len(EMAIL_WORM_IDS) == 42
        assert not set(EMAIL_DOC_IDS) & EMAIL_WORM_IDS
        assert set(EMAIL_LEADER_IDS) <= EMAIL_WORM_IDS
        for lo, hi in (EMAIL_LEGIT_INTERVALS, EMAIL_LONG_GAP_INTERVALS,
                       EMAIL_WORM_INTERVALS, EMAIL_LEADER_INTERVALS):
            assert 0 <= lo <= hi


class TestEmailCsv:
    def test_round_trip(self, tmp_path):
        dataset = generate_email(11)
        path = tmp_path / "email.csv"
        write_email_csv(dataset, path)
        assert load_email(path) == dataset

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,interval,spoofed,dangerous,benign,label\n1,5,0,0,0,normal\n")
        with pytest.raises(DataFormatError):
            load_email(path)

    def test_non_binary_flag_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,interval_seconds,spoofed,dangerous_attachment,benign_attachment,label\n"
            "1,5,2,0,0,normal\n"
        )
        with pytest.raises(DataFormatError):
            load_email(path)

    def test_negative_interval_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,interval_seconds,spoofed,dangerous_attachment,benign_attachment,label\n"
            "1,-5,0,0,0,normal\n"
        )
        with pytest.raises(DataFormatError):
            load_email(path)

    @pytest.mark.parametrize("interval", ["0", "0.0"])
    def test_zero_interval_is_the_least_one_kept(self, tmp_path, interval):
        path = tmp_path / "zero.csv"
        path.write_text(
            "id,interval_seconds,spoofed,dangerous_attachment,benign_attachment,label\n"
            f"1,{interval},0,0,0,normal\n"
        )
        assert load_email(path).rows == ((0.0, 0.0, 0.0, 0.0),)

    @pytest.mark.parametrize("interval", ["nan", "inf", "-inf"])
    def test_non_finite_interval_rejected(self, tmp_path, interval):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,interval_seconds,spoofed,dangerous_attachment,benign_attachment,label\n"
            f"1,{interval},0,0,0,normal\n"
        )
        with pytest.raises(DataFormatError, match="finite"):
            load_email(path)

    @pytest.mark.parametrize(
        "row", ["1_0,5,0,0,0,normal", " 1,5,0,0,0,normal", "1,3_5,0,0,0,normal",
                "1, 5,0,0,0,normal", "1,\u0665,0,0,0,normal", "1,5,\u0661,0,0,normal",
                "1,5,0,+1,0,normal", "1,5,0,0,1.0,normal"],
    )
    def test_cells_must_be_plain_ascii_numbers(self, tmp_path, row):
        # int() and float() read each of these.
        path = tmp_path / "bad.csv"
        path.write_text(",".join(EMAIL_HEADER) + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_email(path)

    @pytest.mark.parametrize("row", ["{long},5,0,0,0,normal", "1,5,{long},0,0,normal",
                                     "1,5,0,0,-{long},normal"], ids=["id", "flag", "negative"])
    def test_integer_past_the_int_digit_limit_names_its_line(self, tmp_path, row):
        # int() refuses more than sys.get_int_max_str_digits() digits with a bare ValueError.
        path = tmp_path / "long.csv"
        long = "1" * (sys.get_int_max_str_digits() + 1)
        path.write_text(",".join(EMAIL_HEADER) + "\n1,5,0,0,0,normal\n" + row.format(long=long)
                        + "\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:3: malformed numeric"):
            load_email(path)

    def test_integers_at_the_int_digit_limit_load(self, tmp_path):
        # The sign is no digit, and leading zeros are: "-0…0" of that many zeros is flag 0.
        digits = sys.get_int_max_str_digits()
        path = tmp_path / "limit.csv"
        path.write_text(",".join(EMAIL_HEADER) + f"\n{'9' * digits},5,-{'0' * digits},0,1,worm\n")
        dataset = load_email(path)
        assert (dataset.ids, dataset.rows) == ((int("9" * digits),), ((5.0, 0.0, 0.0, 1.0),))

    @pytest.mark.parametrize("limit, loads", [(640, False), (641, True), (0, True)])
    def test_digit_limit_is_the_interpreters(self, tmp_path, limit, loads):
        # A 641-digit id: refused under a limit of 640, read under 641 or 0 (no limit).
        path = tmp_path / "limit.csv"
        path.write_text(",".join(EMAIL_HEADER) + f"\n{'7' * 641},5,0,0,0,normal\n")
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            if loads:
                assert load_email(path).ids == (int("7" * 641),)
            else:
                with pytest.raises(DataFormatError, match="malformed numeric field"):
                    load_email(path)
        finally:
            sys.set_int_max_str_digits(before)

    def test_exponent_interval_round_trips(self, tmp_path):
        # repr writes an interval under 1e-4 with an exponent.
        dataset = RecordSet((1,), ((5e-05, 0.0, 0.0, 0.0),), (0,), EMAIL_FEATURES,
                            ("normal", "worm"))
        path = tmp_path / "tiny.csv"
        write_email_csv(dataset, path)
        assert "5e-05" in path.read_text()
        assert load_email(path) == dataset

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "id,interval_seconds,spoofed,dangerous_attachment,benign_attachment,label\n"
        )
        with pytest.raises(DataFormatError, match="no records"):
            load_email(path)

    def test_worm_label_maps_to_abnormal_class(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(
            "id,interval_seconds,spoofed,dangerous_attachment,benign_attachment,label\n"
            "1,60,1,1,0,worm\n"
        )
        assert load_email(path).labels[0] == 1


WBCD_ROW = "1000025,5,1,1,1,2,1,3,1,1,2"
IRIS_ROW = "5.1,3.5,1.4,0.2,Iris-setosa"
EMAIL_ROW = "7,60,1,1,0,worm"
LOADERS = {"wbcd": (load_wbcd, WBCD_ROW), "iris": (load_iris, IRIS_ROW),
           "email": (load_email, EMAIL_ROW)}


def dataset_file(tmp_path, loader: str, lines):
    """A file of ``lines`` in ``loader``'s layout; email files get the header."""
    head = [",".join(EMAIL_HEADER)] if loader == "email" else []
    path = tmp_path / f"{loader}.data"
    path.write_text("\n".join([*head, *lines]) + "\n", encoding="utf-8")
    return path


class TestReader:
    """The one reader under all three loaders: UTF-8 text, lines split at
    "\\n" alone, whitespace-only lines skipped, no line stripped, and every
    error naming the file line."""

    @pytest.mark.parametrize("loader", LOADERS)
    def test_non_utf8_file_is_a_format_error(self, tmp_path, loader):
        # It used to escape as UnicodeDecodeError, which the CLI exits 4 on.
        load, row = LOADERS[loader]
        path = dataset_file(tmp_path, loader, [row])
        path.write_bytes(path.read_bytes().replace(b"1", b"\xff", 1))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load(path)

    @pytest.mark.parametrize("loader, bad, message", [
        ("wbcd", WBCD_ROW[:-1] + "3", "class code must be 2 or 4"),
        ("iris", IRIS_ROW.replace("3.5", "x"), "malformed feature"),
        ("email", EMAIL_ROW.replace("worm", "spam"), "unknown label"),
    ], ids=["wbcd", "iris", "email"])
    def test_error_after_blank_lines_names_the_file_line(self, tmp_path, loader, bad, message):
        load, row = LOADERS[loader]
        lines = ["", row, "  ", "\t", row, bad]
        path = dataset_file(tmp_path, loader, lines)
        number = len(lines) + (loader == "email")
        with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}:{number}: {message}')}"):
            load(path)

    @pytest.mark.parametrize("loader", ["wbcd", "iris"])
    def test_blank_lines_move_no_id(self, tmp_path, loader):
        # Ids count records, and the error line counts the file.
        load, row = LOADERS[loader]
        lines = ["", row, "", " ", row, "\t", row]
        assert load(dataset_file(tmp_path, loader, lines)).ids == (1, 2, 3)
        path = dataset_file(tmp_path, loader, [*lines, row + ","])
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:8: expected"):
            load(path)

    def test_email_csv_with_blank_lines_loads(self, tmp_path):
        # A blank line used to fail with "expected 6 fields, got 0".
        dataset = generate_email(3)
        path = tmp_path / "email.csv"
        write_email_csv(dataset, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "", *lines[1:40], " ", *lines[40:], "", ""]))
        assert load_email(path) == dataset

    @pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_line_separators_inside_a_cell_do_not_split_the_line(self, tmp_path, separator):
        # str.splitlines breaks a line at each of these.
        sample_code = WBCD_ROW.replace("1000025", "1000" + separator + "025")
        assert len(load_wbcd(dataset_file(tmp_path, "wbcd", [sample_code, WBCD_ROW]))) == 2
        path = dataset_file(tmp_path, "iris", [IRIS_ROW.replace("3.5", "3" + separator + ".5")])
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:1: malformed feature"):
            load_iris(path)

    @pytest.mark.parametrize("loader, row", [
        ("wbcd", WBCD_ROW + " "), ("wbcd", WBCD_ROW + "\t"),
        ("iris", IRIS_ROW + " "), ("iris", " " + IRIS_ROW), ("iris", "\t" + IRIS_ROW),
    ])
    def test_blank_around_an_edge_cell_rejected(self, tmp_path, loader, row):
        # Lines used to be stripped, so these loaded.
        with pytest.raises(DataFormatError, match=":1: "):
            LOADERS[loader][0](dataset_file(tmp_path, loader, [row]))

    def test_wbcd_sample_code_is_dropped_unchecked(self, tmp_path):
        path = dataset_file(tmp_path, "wbcd", [" " + WBCD_ROW, "x" + WBCD_ROW])
        features = (5.0, 1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 1.0)
        assert load_wbcd(path).rows == (features, features)

    @pytest.mark.parametrize("cell", ['"7"', '"60"'])
    def test_quoted_email_cell_rejected(self, tmp_path, cell):
        # write_email_csv never quotes: no cell it writes holds a comma, quote or line break.
        row = EMAIL_ROW.replace(cell.strip('"'), cell, 1)
        with pytest.raises(DataFormatError, match=":2: "):
            load_email(dataset_file(tmp_path, "email", [row]))


class TestMakeFolds:
    def test_wbcd_fold_sizes(self):
        plan = make_folds(699, 10, 42)
        sizes = sorted(len(plan.test_indices(f)) for f in range(10))
        assert set(sizes) <= {69, 70}
        assert sum(sizes) == 699

    def test_iris_fold_sizes_equal(self):
        plan = make_folds(150, 10, 42)
        assert all(len(plan.test_indices(f)) == 15 for f in range(10))

    def test_singleton_folds(self):
        plan = make_folds(10, 10, 0)
        assert all(len(plan.test_indices(f)) == 1 for f in range(10))

    @pytest.mark.parametrize("assignment, message", [
        ((0, 2), "fold id 2 outside 0..1"),
        ((0, -1), "fold id -1 outside 0..1"),
        ((0, 0, 0, 1), "fold sizes [3, 1] are not balanced"),
        ((0, 0), "fold sizes [2, 0] are not balanced"),
        ((0,), "fold sizes [1, 0] are not balanced"),  # an empty fold within one of the rest
        ((0, 1.5), "fold id 1.5 is not an int"),
        ((0, True), "fold id True is not an int"),
        ((0, 1, True), "fold id True is not an int"),  # counted under the key 1
        ((0, 1, 1.0), "fold id 1.0 is not an int"),
        ((0, 1, "1"), "fold id '1' is not an int"),
        ((0, None, 1), "fold id None is not an int"),
        ((0, 2, 1.5), "fold id 2 outside 0..1"),  # the first bad id in assignment order
        ((0, 1.5, 2), "fold id 1.5 is not an int"),
        ((0, [1]), "fold id [1] is not an int"),  # checked before the ids are counted
    ], ids=["id-past-last", "id-negative", "sizes-3-1", "sizes-2-0", "sizes-1-0", "id-float",
            "id-bool", "id-bool-counted-as-1", "id-float-counted-as-1", "id-str", "id-none",
            "first-bad-outside", "first-bad-float", "id-unhashable"])
    def test_malformed_fold_plan_rejected(self, assignment, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FoldPlan(2, assignment, 0)

    @pytest.mark.parametrize("k", [0, -2, 2.0, True])
    def test_fold_count_that_is_not_a_positive_int_rejected(self, k):
        with pytest.raises(ValueError, match=f"^k must be an int of at least 1, got {k!r}$"):
            FoldPlan(k, (0, 1), 0)

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_fewer_than_two_folds_rejected(self, k):
        with pytest.raises(ValueError, match=f"^need at least 2 folds, got {k}$"):
            make_folds(10, k, 0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "10"])
    def test_fold_count_that_is_not_an_int_rejected(self, iris_dataset, k):
        # Refused as FoldPlan refuses it, before range(k) can raise a bare TypeError.
        with pytest.raises(ValueError, match=f"^need at least 2 folds, got {re.escape(repr(k))}$"):
            make_folds(10, k, 0)
        with pytest.raises(ValueError, match=f"^need at least 2 folds, got {re.escape(repr(k))}$"):
            repeated_cv(iris_dataset, "iris", 1, k, 0)

    def test_exhaustive_partition(self):
        plan = make_folds(699, 10, 3)
        seen = sorted(i for f in range(10) for i in plan.test_indices(f))
        assert seen == list(range(699))

    def test_too_few_records_rejected(self):
        with pytest.raises(ValueError):
            make_folds(5, 10, 0)

    def test_seed_changes_assignment(self):
        assert make_folds(100, 10, 1) != make_folds(100, 10, 2)


class TestEvaluate:
    def test_accuracy_consistency(self, wbcd_dataset):
        folds = make_folds(len(wbcd_dataset), 10, 42)
        report = evaluate(wbcd_dataset, "wbcd", folds=folds)
        assert report.accuracy == pytest.approx(
            1 - len(report.misclassified) / len(wbcd_dataset)
        )
        weighted = sum(
            acc * len(folds.test_indices(f)) for f, acc in enumerate(report.per_fold)
        )
        assert weighted / len(wbcd_dataset) == pytest.approx(report.accuracy)
        confusion = report.confusion
        assert confusion["tp"] + confusion["tn"] + confusion["fp"] + confusion["fn"] == 699

    def test_determinism(self, wbcd_dataset):
        folds = make_folds(len(wbcd_dataset), 10, 42)
        a = evaluate(wbcd_dataset, "wbcd", folds=folds)
        b = evaluate(wbcd_dataset, "wbcd", folds=folds)
        assert report_json(a, include_runtime=False) == report_json(b, include_runtime=False)

    def test_iris_confusion_matrix(self, iris_dataset):
        folds = make_folds(len(iris_dataset), 10, 42)
        report = evaluate(iris_dataset, "iris", folds=folds)
        matrix = report.confusion["matrix"]
        assert sum(sum(row) for row in matrix) == 150
        assert sum(matrix[i][i] for i in range(3)) == 150 - len(report.misclassified)

    def test_email_no_folds(self):
        report = evaluate(generate_email(), "email")
        assert report.config["signals"] == "1234"
        with pytest.raises(ValueError):
            evaluate(generate_email(), "email", folds=make_folds(132, 10, 0))

    @pytest.mark.parametrize("task", ["wbcd", "iris"])
    def test_details_carry_their_predictions(self, wbcd_dataset, iris_dataset, task):
        dataset = wbcd_dataset if task == "wbcd" else iris_dataset
        report = evaluate(dataset, task, folds=make_folds(len(dataset), 10, 42))
        assert report.details
        for detail in report.details:
            assert detail["prediction"].label == detail["predicted"] != detail["truth"]
            assert set(detail) == {"id", "truth", "predicted", "prediction"}

    @pytest.mark.parametrize("task", ["wbcd", "iris"])
    def test_empty_training_fold_is_an_input_error(self, wbcd_dataset, iris_dataset, task):
        dataset = wbcd_dataset if task == "wbcd" else iris_dataset
        folds = FoldPlan(1, (0,) * len(dataset), 0)
        with pytest.raises(
            DataFormatError, match=r"^fold 1 of 1: cannot train on its 0 training records: "
        ):
            evaluate(dataset, task, folds=folds)

    def test_all_missing_record_falls_back_to_normal(self):
        rows = ((None, 5.0), *((float(i % 10 + 1), float(i % 7 + 1)) for i in range(2, 12)))
        labels = (1, *(i % 2 for i in range(2, 12)))
        dataset = RecordSet(tuple(range(1, 12)), rows, labels, ("A", "B"), ("normal", "abnormal"))
        report = evaluate(dataset, "wbcd", folds=make_folds(11, 2, 0), subset=(0,))
        (detail,) = [d for d in report.details if d["id"] == 1]
        assert detail["predicted"] == "normal"
        assert detail["prediction"].trace == {"features": [], "fallback": "no-evidence"}

    @pytest.mark.parametrize("seed", [7, 42, 123456])
    def test_subset_training_matches_full_training(self, wbcd_dataset, seed):
        folds = make_folds(len(wbcd_dataset), 10, seed)
        for subset in ACCEPTANCE_SUBSETS:
            report = evaluate(wbcd_dataset, "wbcd", folds=folds, subset=subset)
            expected = json.dumps(full_model_report(wbcd_dataset, subset, folds), indent=2)
            assert report_json(report, include_runtime=False) == expected, subset

    def test_unfused_feature_needs_no_training_values(self, wbcd_dataset):
        no_b = dataclasses.replace(
            wbcd_dataset, rows=tuple((row[0], None, *row[2:]) for row in wbcd_dataset.rows)
        )
        folds = make_folds(len(no_b), 10, 42)
        report = evaluate(no_b, "wbcd", folds=folds, subset=(0,))
        reference = evaluate(wbcd_dataset, "wbcd", folds=folds, subset=(0,))
        assert report_json(report, include_runtime=False) == report_json(
            reference, include_runtime=False
        )
        with pytest.raises(
            DataFormatError, match=r"^fold 1 of 10: .* feature 1 has no non-missing training values"
        ):
            evaluate(no_b, "wbcd", folds=folds, subset=(0, 1))

    @pytest.mark.parametrize("task", ["wbcd", "iris"])
    @pytest.mark.parametrize("bad", [9, -1])
    def test_feature_index_outside_record_is_a_usage_error(
        self, wbcd_dataset, iris_dataset, task, bad, monkeypatch
    ):
        dataset = wbcd_dataset if task == "wbcd" else iris_dataset
        n = len(dataset.feature_names)
        index = n if bad == 9 else bad
        assert_rejected_before_training(
            monkeypatch, dataset, task, (0, index), rf"^feature {index} outside 0\.\.{n - 1}$"
        )

    @pytest.mark.parametrize("subset", [(0,), (1,), (2, 3)])
    def test_iris_takes_no_subset(self, iris_dataset, subset, monkeypatch):
        assert_rejected_before_training(
            monkeypatch, iris_dataset, "iris", subset, r"^the iris task fuses exactly \[0, 1, 2, 3\]"
        )

    @pytest.mark.parametrize("task, subset", [("wbcd", (0, 0)), ("email", (1, 1, 3))])
    def test_repeated_subset_entry_is_a_usage_error(self, wbcd_dataset, task, subset, monkeypatch):
        # Repeats once fused feature A twice on wbcd, and were dropped from
        # the fusion but not from the report config on email.
        dataset = wbcd_dataset if task == "wbcd" else generate_email()
        entry = {"wbcd": "feature", "email": "signal"}[task]
        message = rf"^{entry} subset {re.escape(str(list(subset)))} repeats an entry$"
        assert_rejected_before_training(monkeypatch, dataset, task, subset, message)

    @pytest.mark.parametrize(
        "task, subset, message",
        [
            ("wbcd", (), r"^feature subset must be nonempty$"),
            ("email", (), r"^signal subset must be nonempty$"),
            ("email", (5,), r"^signal 5 outside 1\.\.4$"),
            ("email", (1, 5), r"^signal 5 outside 1\.\.4$"),
        ],
        ids=["wbcd-empty", "email-empty", "email-outside", "email-one-outside"],
    )
    def test_bad_subset_is_a_usage_error(self, wbcd_dataset, task, subset, message, monkeypatch):
        dataset = wbcd_dataset if task == "wbcd" else generate_email()
        assert_rejected_before_training(monkeypatch, dataset, task, subset, message)

    @pytest.mark.parametrize(
        "task, subset", [("wbcd", (8, 3, 0)), ("wbcd", (5, 1, 2)), ("email", (4, 1)),
                         ("email", (3, 2, 4)), ("iris", (3, 2, 1, 0))],
    )
    def test_subset_order_does_not_reach_the_report(
        self, wbcd_dataset, iris_dataset, task, subset
    ):
        dataset = {"wbcd": wbcd_dataset, "iris": iris_dataset, "email": generate_email()}[task]
        folds = make_folds(len(dataset), 10, 42) if TASKS[task].cross_validates else None
        given = evaluate(dataset, task, folds=folds, subset=subset)
        ordered = evaluate(dataset, task, folds=folds, subset=sorted(subset))
        assert given.config == ordered.config
        assert report_json(given, include_runtime=False) == report_json(
            ordered, include_runtime=False
        )
        label = given.config[TASKS[task].key]
        assert list(label) == sorted(label)

    def test_email_model_fuses_the_evaluated_signals(self):
        report = evaluate(generate_email(), "email", subset=(4, 1))
        assert {tuple(p.trace["signals"]) for p in report.predictions} == {(1, 4)}

    @pytest.mark.parametrize(
        "task, name", [("wbcd", "classify_binary"), ("iris", "classify_three_class"),
                       ("email", "classify_email")],
    )
    def test_classifier_found_by_name_at_call_time(
        self, wbcd_dataset, iris_dataset, task, name, monkeypatch
    ):
        # Tracing rebinds these module names; the task table must see it.
        dataset = {"wbcd": wbcd_dataset, "iris": iris_dataset, "email": generate_email()}[task]
        original, calls, returned = getattr(data_module, name), [], []

        def counting(record, model):
            calls.append(record)
            returned.append(original(record, model))
            return returned[-1]

        monkeypatch.setattr(data_module, name, counting)
        folds = make_folds(len(dataset), 10, 42) if TASKS[task].cross_validates else None
        report = evaluate(dataset, task, folds=folds)
        # Once per record, and the report keeps what the rebound name returned.
        assert sorted(map(id, calls)) == sorted(map(id, dataset.rows))
        assert sorted(map(id, returned)) == sorted(map(id, report.predictions))

    def test_iris_all_features_is_the_default(self, iris_dataset):
        folds = make_folds(len(iris_dataset), 10, 42)
        given = evaluate(iris_dataset, "iris", folds=folds, subset=[0, 1, 2, 3])
        default = evaluate(iris_dataset, "iris", folds=folds)
        assert report_json(given, include_runtime=False) == report_json(
            default, include_runtime=False
        )

    def test_predictions_follow_the_records(self, iris_dataset):
        folds = make_folds(len(iris_dataset), 10, 42)
        report = evaluate(iris_dataset, "iris", folds=folds)
        assert len(report.predictions) == len(iris_dataset)
        wrong = [rid for rid, label, pred in
                 zip(iris_dataset.ids, iris_dataset.labels, report.predictions)
                 if pred.label != iris_dataset.label_names[label]]
        assert wrong == list(report.misclassified)

    def test_label_outside_classes_is_an_input_error(self, iris_dataset):
        # The record set rejects it when it is built, before any evaluation.
        labels = (*iris_dataset.labels[:-1], 3)
        with pytest.raises(DataFormatError, match=r"^record 150 has label 3, outside 0\.\.2$"):
            dataclasses.replace(iris_dataset, labels=labels)

    @pytest.mark.parametrize("feature", [0, 3])
    def test_missing_iris_value_is_an_input_error(self, iris_dataset, feature):
        # It once reached the moments' sum as a bare TypeError.
        row = iris_dataset.rows[-1]
        rows = (*iris_dataset.rows[:-1], (*row[:feature], None, *row[feature + 1:]))
        dataset = dataclasses.replace(iris_dataset, rows=rows)
        folds = make_folds(len(dataset), 10, 42)
        assert 149 in folds.train_indices(0)  # trained on before it is classified
        message = f"^fold 1 of 10: .*: feature {feature} has a missing value$"
        with pytest.raises(DataFormatError, match=message):
            evaluate(dataset, "iris", folds=folds)

    def test_missing_iris_value_in_a_test_set_is_a_value_error(self, iris_dataset):
        # Fold 1 classifies the record before any fold trains on it; it once
        # escaped from the range comparison as a bare TypeError.
        folds = make_folds(len(iris_dataset), 10, 42)
        j = folds.test_indices(0)[0]
        rows = list(iris_dataset.rows)
        rows[j] = (None, *rows[j][1:])
        dataset = dataclasses.replace(iris_dataset, rows=tuple(rows))
        with pytest.raises(ValueError, match="^feature 0 has a missing value$") as info:
            evaluate(dataset, "iris", folds=folds)
        assert not isinstance(info.value, DataFormatError)

    def test_non_finite_cell_is_named_by_the_first_fold_trained_on_it(self, monkeypatch):
        # The cell sits in fold 1's test set alone: fold 1 trains without it,
        # and classifying it there fails first. With a classifier that lets it
        # pass, fold 2, the first fold trained on it, names it.
        folds = make_folds(12, 2, 0)
        rows = [(float(i % 10 + 1), float(i % 7 + 1)) for i in range(12)]
        j = folds.test_indices(0)[0]
        rows[j] = (math.nan, rows[j][1])
        dataset = RecordSet(tuple(range(1, 13)), tuple(rows), tuple(i % 2 for i in range(12)),
                            ("A", "B"), ("normal", "abnormal"))
        with pytest.raises(ValueError, match=r"^feature value must be finite, got nan$") as info:
            evaluate(dataset, "wbcd", folds=folds)
        assert not isinstance(info.value, DataFormatError)
        original = data_module.classify_binary
        monkeypatch.setattr(
            data_module, "classify_binary", lambda record, model: original((1.0, 1.0), model)
        )
        message = (r"^fold 2 of 2: cannot train on its 6 training records: "
                   r"feature value must be finite, got nan in feature 0$")
        with pytest.raises(DataFormatError, match=message):
            evaluate(dataset, "wbcd", folds=folds)

    def test_value_past_the_float_range_is_a_data_format_error(self, iris_dataset):
        # The first fold trained on the record names it; its OverflowError used to escape.
        folds = make_folds(len(iris_dataset), 10, 42)
        j = folds.train_indices(0)[0]
        rows = list(iris_dataset.rows)
        rows[j] = (rows[j][0], 10**400, *rows[j][2:])
        dataset = dataclasses.replace(iris_dataset, rows=tuple(rows))
        message = (r"^fold 1 of 10: cannot train on its 135 training records: "
                   rf"feature value {10**400} is beyond the float range in feature 1$")
        with pytest.raises(DataFormatError, match=message):
            evaluate(dataset, "iris", folds=folds)

    def test_fold_without_both_classes_is_named(self):
        # Fold 1 trains on fold 2's records, which hold both classes; fold 2
        # trains on fold 1's, which are all normal.
        held_out = (0, 1) * 5
        labels = (0, 0, 0, 1, 0, 0, 0, 1, 0, 1)
        rows = tuple((float(i % 4 + 1),) for i in range(10))
        dataset = RecordSet(tuple(range(1, 11)), rows, labels, ("A",), ("normal", "abnormal"))
        message = (r"^fold 2 of 2: cannot train on its 5 training records: "
                   r"training data must contain both normal and abnormal records$")
        with pytest.raises(DataFormatError, match=message):
            evaluate(dataset, "wbcd", folds=FoldPlan(2, held_out, 0))

    def test_nan_feature_is_an_error_not_missing(self):
        rows = ((1.0, 1.0), (math.nan, 9.0),
                *((float(i % 10 + 1), float(i % 7 + 1)) for i in range(3, 13)))
        labels = (0, 1, *(i % 2 for i in range(3, 13)))
        dataset = RecordSet(tuple(range(1, 13)), rows, labels, ("A", "B"), ("normal", "abnormal"))
        with pytest.raises(ValueError, match="feature value must be finite"):
            evaluate(dataset, "wbcd", folds=make_folds(12, 2, 0))

    @pytest.mark.parametrize("task", ["wbcd", "iris", "email"])
    def test_empty_record_set_rejected(self, task):
        # No fold plan can cover zero records, so none is passed.
        dataset = RecordSet((), (), (), ("A",), ("normal", "abnormal"))
        with pytest.raises(DataFormatError, match="no records to evaluate"):
            evaluate(dataset, task)

    def test_untrainable_fold_is_an_input_error(self, iris_dataset):
        # 5/5/2 records per class: with two folds, one training half lacks a class
        kept = [i for i, (rid, label) in enumerate(zip(iris_dataset.ids, iris_dataset.labels))
                if rid - 50 * label <= (5, 5, 2)[label]]
        dataset = dataclasses.replace(
            iris_dataset, ids=tuple(iris_dataset.ids[i] for i in kept),
            rows=tuple(iris_dataset.rows[i] for i in kept),
            labels=tuple(iris_dataset.labels[i] for i in kept),
        )
        with pytest.raises(DataFormatError, match=r"^fold \d of 2: .* its 6 training") as info:
            evaluate(dataset, "iris", folds=make_folds(12, 2, 42))
        assert str(info.value).endswith("has no training records")
        assert type(info.value.__cause__) is ValueError

    def test_fold_holding_a_whole_class_is_named_in_fold_order(self, monkeypatch, iris_dataset):
        # Ten Setosa, twenty Versicolour and ten Virginica records. Fold 2 holds every
        # Virginica and fold 3 every Setosa, so fold 1 trains and fold 2 fails first.
        kept = [*range(10), *range(50, 70), *range(100, 110)]
        held_out = tuple(2 if i < 10 else 1 if i >= 100 else (0, 3)[i % 2] for i in kept)
        dataset = dataclasses.replace(
            iris_dataset, ids=tuple(range(1, 41)), rows=tuple(iris_dataset.rows[i] for i in kept),
            labels=tuple(iris_dataset.labels[i] for i in kept),
        )
        calls = record_training(monkeypatch, "iris")
        message = ("fold 2 of 4: cannot train on its 30 training records: "
                   "class 2 has no training records")
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            evaluate(dataset, "iris", folds=FoldPlan(4, held_out, 0))
        ((_, _, _, fitted),) = calls
        assert [fold for fold, _ in fitted] == [0]

    def test_unknown_task_rejected(self, iris_dataset):
        with pytest.raises(ValueError):
            evaluate(iris_dataset, "sonar", folds=make_folds(150, 10, 0))

    def test_cv_requires_folds(self, iris_dataset):
        with pytest.raises(ValueError):
            evaluate(iris_dataset, "iris")

    @pytest.mark.parametrize("n", [149, 151])
    def test_fold_plan_of_another_length_rejected(self, iris_dataset, n):
        with pytest.raises(ValueError, match="^fold plan does not cover this dataset$"):
            evaluate(iris_dataset, "iris", folds=make_folds(n, 10, 0))


def record_training(monkeypatch, task):
    """Swap the task's trainer for one that records what each preparation
    gets, (rows, labels, held_out), and each (fold, model) its fit then
    returns, and otherwise trains as before; returns the list of
    (rows, labels, held_out, fitted) calls."""
    calls = []
    spec = TASKS[task]

    def train(rows, labels, held_out, dataset, subset):
        fitted = []
        calls.append((rows, labels, held_out, fitted))
        fit = spec.train(rows, labels, held_out, dataset, subset)

        def fit_fold(fold):
            fitted.append((fold, fit(fold)))
            return fitted[-1][1]

        return fit_fold

    monkeypatch.setitem(TASKS, task, dataclasses.replace(spec, train=train))
    return calls


class TestTrainingInput:
    """Every trainer is prepared once, with the record set's rows and
    labels and the fold ids, and each fold's fit trains on the records
    outside it, in index order."""

    @pytest.mark.parametrize("task", ["wbcd", "iris"])
    def test_each_fold_trains_on_its_records_in_index_order(
        self, monkeypatch, wbcd_dataset, iris_dataset, task
    ):
        dataset = wbcd_dataset if task == "wbcd" else iris_dataset
        folds = make_folds(len(dataset), 10, 42)
        calls = record_training(monkeypatch, task)
        evaluate(dataset, task, folds=folds)
        ((rows, labels, held_out, fitted),) = calls
        assert (rows, labels, held_out) == (dataset.rows, dataset.labels, folds.assignment)
        assert [fold for fold, _ in fitted] == list(range(folds.k))
        expected = [
            ([dataset.rows[i] for i in train], [dataset.labels[i] for i in train])
            for train in map(folds.train_indices, range(folds.k))
        ]
        # Both fits prepare once per cross-validation: each fold's model is the
        # plain trainer's on that fold's rows.
        if task == "iris":
            frame = make_frame(dataset.label_names)
            assert [model for _, model in fitted] == [train_three_class(*x, frame)
                                                      for x in expected]
        else:
            assert [model for _, model in fitted] == [train_binary(*x) for x in expected]

    def test_email_trains_on_empty_columns(self, monkeypatch):
        # Its one fold holds every record out.
        dataset = generate_email()
        calls = record_training(monkeypatch, "email")
        evaluate(dataset, "email")
        ((rows, labels, held_out, fitted),) = calls
        assert (rows, labels, held_out) == (dataset.rows, dataset.labels, (0,) * len(dataset))
        assert [fold for fold, _ in fitted] == [0]

    @pytest.mark.parametrize("task", ["wbcd", "iris"])
    def test_model_dump_trains_on_every_record(
        self, monkeypatch, tmp_path, wbcd_dataset, iris_dataset, task
    ):
        dataset = wbcd_dataset if task == "wbcd" else iris_dataset
        calls = record_training(monkeypatch, task)
        cli_module._dump_model(dataset, task, tmp_path / "model.json")
        ((rows, labels, _, fitted),) = calls
        assert (rows, labels) == (dataset.rows, dataset.labels)
        assert [fold for fold, _ in fitted] == [None]
        assert json.loads((tmp_path / "model.json").read_text())


_CELLS = st.one_of(
    st.none(), st.sampled_from([1.0, 2.0, 2.5, 3.0, 0.125, 10.0]),
    st.floats(-4, 4, allow_nan=False),
)


def sorted_threshold(rows, labels, f):
    """The rank rule on a sorted column: the k-th smallest present value,
    k = round(present · normal / total), clamped to 1..present."""
    values = sorted(row[f] for row in rows if row[f] is not None)
    k = math.floor(len(values) * list(labels).count(0) / len(labels) + 0.5)
    return values[min(max(k, 1), len(values)) - 1]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fold_models_match_train_binary_on_the_fold_rows(data):
    # Each wbcd fold's model, or the error of the first fold that fails, is
    # train_binary's on that fold's rows in index order, and each threshold
    # is the rank rule's on the sorted column.
    k = data.draw(st.integers(2, 10), label="k")
    n = data.draw(st.integers(k, 3 * k + 6), label="n")
    width = data.draw(st.integers(1, 3), label="width")
    rows = data.draw(st.lists(st.tuples(*[_CELLS] * width), min_size=n, max_size=n), label="rows")
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="labels")
    subset = sorted(data.draw(st.sets(st.integers(0, width - 1), min_size=1), label="subset"))
    folds = make_folds(n, k, data.draw(st.integers(0, 2**32 - 1), label="fold seed"))
    dataset = RecordSet(tuple(range(1, n + 1)), tuple(rows), tuple(labels),
                        WBCD_FEATURES[:width], ("normal", "abnormal"))
    expected, error = [], None
    for fold in range(k):
        train = folds.train_indices(fold)
        fold_rows, fold_labels = [rows[i] for i in train], [labels[i] for i in train]
        try:
            model = train_binary(fold_rows, fold_labels, subset)
        except ValueError as exc:
            error = (f"fold {fold + 1} of {k}: cannot train on its {len(train)} "
                     f"training records: {exc}")
            break
        assert model.fitted == tuple(
            (f, sorted_threshold(fold_rows, fold_labels, f)) for f in subset
        )
        expected.append(model)
    with pytest.MonkeyPatch.context() as patch:
        calls = record_training(patch, "wbcd")
        if error is None:
            evaluate(dataset, "wbcd", folds=folds, subset=subset)
        else:
            with pytest.raises(DataFormatError) as info:
                evaluate(dataset, "wbcd", folds=folds, subset=subset)
            assert str(info.value) == error
    ((_, _, _, fitted),) = calls
    assert [model for _, model in fitted] == expected


# One subset rule for every entry point: (subset, the CLI spec that spells it or None where
# letters or digits cannot, and the message every entry point gives).
FEATURE_SUBSETS = [
    ((), "", "feature subset must be nonempty"),
    ((0, 0), "aA", "feature subset [0, 0] repeats an entry"),
    ((0, 1.0), None, "feature 1.0 is not an int"),
    ((0, True), None, "feature True is not an int"),
    ((9,), None, "feature 9 outside 0..8"),
    ((-1,), None, "feature -1 outside 0..8"),
    ((8, 0), "IA", None),
]
FEATURE_SUBSET_IDS = ["empty", "repeat", "float", "bool", "past-last", "negative", "valid"]
SIGNAL_SUBSETS = [
    ((1.0, 2), None, "signal 1.0 is not an int"),
    ((True, 2), None, "signal True is not an int"),
    ((5,), "5", "signal 5 outside 1..4"),
    ((1, 1), "11", "signal subset [1, 1] repeats an entry"),
    ((3, 1), "31", None),
]
SIGNAL_SUBSET_IDS = ["float", "bool", "outside", "repeat", "valid"]


def cli_answer(capsys, *argv):
    code = cli_module.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOneSubsetRule:
    """The CLI, ``evaluate``, ``train_binary`` and ``EmailModel`` accept the same subsets
    and refuse the same ones with one message (None: a valid subset)."""

    @pytest.mark.parametrize("subset, spec, message", FEATURE_SUBSETS, ids=FEATURE_SUBSET_IDS)
    def test_feature_subset(self, wbcd_dataset, subset, spec, message, capsys, monkeypatch):
        argv = ("wbcd", "--data", str(WBCD_PATH), "--features", spec)
        if message is None:
            code, out, _ = cli_answer(capsys, *argv)
            assert code == 0 and "config: features=AI," in out
            folds = make_folds(len(wbcd_dataset), 10, 42)
            assert evaluate(wbcd_dataset, "wbcd", folds, subset).config["features"] == "AI"
            model = train_binary(wbcd_dataset.rows, wbcd_dataset.labels, subset)
            assert [f for f, _ in model.fitted] == sorted(subset)
            return
        if spec is not None:
            code, out, err = cli_answer(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.endswith(f"error: {spec!r}: {message}\n")
        match = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=match):
            train_binary(wbcd_dataset.rows, wbcd_dataset.labels, subset)
        assert_rejected_before_training(monkeypatch, wbcd_dataset, "wbcd", subset, match)

    @pytest.mark.parametrize("subset, spec, message", SIGNAL_SUBSETS, ids=SIGNAL_SUBSET_IDS)
    def test_signal_subset(self, subset, spec, message, capsys, monkeypatch):
        argv = ("email", "--generate", "--signals", spec)
        if message is None:
            code, out, _ = cli_answer(capsys, *argv)
            assert code == 0 and out.startswith("signals: 13\n")
            assert evaluate(generate_email(), "email", subset=subset).config["signals"] == "13"
            model = dataclasses.replace(email_model_default(), signals=frozenset(subset))
            assert model.trace == {"signals": sorted(subset)}
            return
        if spec is not None:
            code, out, err = cli_answer(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.endswith(f"error: {spec!r}: {message}\n")
        match = f"^{re.escape(message)}$"
        if len(set(subset)) == len(subset):  # a frozenset holds no repeated entry
            with pytest.raises(ValueError, match=match):
                dataclasses.replace(email_model_default(), signals=frozenset(subset))
        assert_rejected_before_training(monkeypatch, generate_email(), "email", subset, match)

    @pytest.mark.parametrize("last", [3.0, True])
    def test_iris_takes_int_features_only(self, iris_dataset, last, monkeypatch):
        # A float once passed and was written to the report config as 3.0.
        assert_rejected_before_training(
            monkeypatch, iris_dataset, "iris", (0, 1, 2, last), rf"^feature {last} is not an int$"
        )

    def test_rows_with_no_features_have_none_to_pick(self):
        with pytest.raises(ValueError, match=r"^feature 0 outside the empty set$"):
            train_binary([(), ()], [0, 1], (0,))


class TestAblation:
    def test_wbcd_rows_match_full_training(self, wbcd_dataset):
        folds = make_folds(len(wbcd_dataset), 10, 42)
        for subset in ACCEPTANCE_SUBSETS:
            expected = full_model_report(wbcd_dataset, subset, folds)
            report = evaluate(wbcd_dataset, "wbcd", folds=folds, subset=subset)
            assert (report.config["features"], report.accuracy) == (
                expected["config"]["features"], expected["accuracy"]
            )

    def test_email_signal_subsets(self):
        dataset = generate_email()
        full, three = (evaluate(dataset, "email", subset=s) for s in [(1, 2, 3, 4), (2, 3, 4)])
        assert full.config["signals"] == "1234"
        assert three.config["signals"] == "234"
        assert 0 <= three.accuracy <= 1


def _permuted(dataset, order):
    return RecordSet(*(tuple(column[i] for i in order) for column in
                       (dataset.ids, dataset.rows, dataset.labels)),
                     dataset.feature_names, dataset.label_names)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_permuting_wbcd_records_with_their_folds_keeps_the_report(wbcd_dataset, data):
    # Each record keeps its id and fold id: only the order in which they are listed changes.
    folds = make_folds(len(wbcd_dataset), 10, data.draw(st.integers(0, 10**6), label="seed"))
    subset = data.draw(st.sampled_from(ACCEPTANCE_SUBSETS), label="subset")
    order = data.draw(st.permutations(range(len(wbcd_dataset))), label="order")
    moved = FoldPlan(folds.k, tuple(folds.assignment[i] for i in order), folds.seed)
    expected = evaluate(wbcd_dataset, "wbcd", folds=folds, subset=subset)
    report = evaluate(_permuted(wbcd_dataset, order), "wbcd", folds=moved, subset=subset)
    assert report_json(report, include_runtime=False) == report_json(expected, False)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6), signals=st.sampled_from([(1, 2, 3, 4), (1,), (2, 3, 4)]),
       data=st.data())
def test_permuting_email_records_keeps_the_report(seed, signals, data):
    dataset = generate_email(seed)
    order = data.draw(st.permutations(range(len(dataset))), label="order")
    expected = evaluate(dataset, "email", subset=signals, seed=seed)
    report = evaluate(_permuted(dataset, order), "email", subset=signals, seed=seed)
    assert report_json(report, include_runtime=False) == report_json(expected, False)


class TestRepeatedCv:
    def test_distinct_seeds(self, iris_dataset):
        reports = repeated_cv(iris_dataset, "iris", 3, 10, 42)
        assert [r.config["seed"] for r in reports] == [42, 43, 44]

    def test_mean_sd(self):
        accuracy = moments([0.9, 1.0, 0.95])
        assert accuracy.mean == pytest.approx(0.95)
        assert accuracy.sd == pytest.approx(0.05)
        single = moments([0.9])
        assert (single.mean, single.sd) == (0.9, 0.0)

    def test_zero_runs_rejected(self, iris_dataset):
        with pytest.raises(ValueError):
            repeated_cv(iris_dataset, "iris", 0, 10, 42)


class TestReports:
    def test_json_round_trip(self, iris_dataset):
        folds = make_folds(len(iris_dataset), 10, 42)
        report = evaluate(iris_dataset, "iris", folds=folds)
        assert json.loads(render_report(report, "json")) == report.to_json_dict()

    def test_csv_row_count(self, iris_dataset):
        folds = make_folds(len(iris_dataset), 10, 42)
        report = evaluate(iris_dataset, "iris", folds=folds)
        lines = render_report(report, "csv").strip().splitlines()
        assert len(lines) == folds.k + 1
        # One row per fold, numbered from 0, with CRLF line ends.
        rows = [f"{fold},{acc!r}\r\n" for fold, acc in enumerate(report.per_fold)]
        assert render_report(report, "csv") == "fold,accuracy\r\n" + "".join(rows)

    def test_text_contains_misclassified_traces(self, tmp_path, iris_dataset):
        folds = make_folds(len(iris_dataset), 10, 42)
        report = evaluate(iris_dataset, "iris", folds=folds)
        text = render_report(report, "text")
        assert text == report_text(report)
        for rid in report.misclassified:
            assert str(rid) in text
        assert "classified as" in text

    def test_json_schema_keys(self, iris_dataset):
        folds = make_folds(len(iris_dataset), 10, 42)
        report = evaluate(iris_dataset, "iris", folds=folds)
        payload = json.loads(report_json(report))
        assert list(payload) == [
            "task", "config", "accuracy", "per_fold", "confusion",
            "misclassified", "runtime_seconds",
        ]
        assert payload["config"]["rng"] == "mt19937-python"

    def test_unknown_format_rejected(self, iris_dataset):
        folds = make_folds(len(iris_dataset), 10, 42)
        report = evaluate(iris_dataset, "iris", folds=folds)
        with pytest.raises(ValueError, match="^unknown report format 'xml'$"):
            render_report(report, "xml")
