"""Tests for dataset loading, the email generator, folds, evaluation, and
report emission."""

import dataclasses
import json
import math

import pytest

from dsfusion import (
    DataFormatError,
    EmailGenConfig,
    Record,
    RecordSet,
    ablation,
    evaluate,
    generate_email,
    load_email,
    load_iris,
    load_report,
    load_wbcd,
    make_folds,
    write_email_csv,
    write_report,
)
from dsfusion.data import (
    TASKS,
    RNG_ID,
    WBCD_FEATURES,
    _classify_wbcd,
    mean_sd,
    repeated_cv,
    report_json,
    report_text,
)
from dsfusion.classify import train_binary

# The paper's WBCD comparison: each feature alone, ADI, BCF and all nine.
ACCEPTANCE_SUBSETS = tuple((i,) for i in range(9)) + ((0, 3, 8), (1, 2, 5), tuple(range(9)))


def full_model_report(dataset, subset, folds) -> dict:
    """The wbcd report when every fold trains all nine features, built
    without ``evaluate``."""
    per_fold, pairs, misclassified = [], [], []
    for fold in range(folds.k):
        train = dataset.samples(folds.train_indices(fold))
        model = train_binary([features for features, _ in train], [label for _, label in train])
        test = folds.test_indices(fold)
        correct = 0
        for i in test:
            record = dataset.records[i]
            predicted = int(_classify_wbcd(record.features, model, subset).label == "abnormal")
            pairs.append((record.label, predicted))
            if predicted == record.label:
                correct += 1
            else:
                misclassified.append(record.id)
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


class TestLoadWbcd:
    def test_canonical_counts(self, wbcd_dataset):
        assert len(wbcd_dataset) == 699
        assert sum(1 for r in wbcd_dataset if r.label == 0) == 458
        assert sum(1 for r in wbcd_dataset if r.label == 1) == 241

    def test_sixteen_missing_records(self, wbcd_dataset):
        missing = [r for r in wbcd_dataset if None in r.features]
        assert len(missing) == 16
        assert all(sum(1 for v in r.features if v is None) == 1 for r in missing)

    def test_first_row_parse(self, wbcd_dataset):
        first = wbcd_dataset.records[0]
        assert first.id == 1
        assert first.features == (5.0, 1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 1.0)
        assert first.label == 0

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


class TestLoadIris:
    def test_canonical_counts(self, iris_dataset):
        assert len(iris_dataset) == 150
        for label in range(3):
            assert sum(1 for r in iris_dataset if r.label == label) == 50

    def test_id_blocks(self, iris_dataset):
        assert iris_dataset.records[0].label == 0
        assert iris_dataset.records[100].id == 101
        assert iris_dataset.records[100].label == 2
        assert iris_dataset.records[50].label == 1

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


class TestGenerateEmail:
    def test_default_shape(self):
        dataset = generate_email()
        assert len(dataset) == 132
        worms = [r for r in dataset if r.label == 1]
        assert len(worms) == 42
        assert all(r.features[1] == 1 and r.features[2] == 1 and r.features[3] == 0 for r in worms)

    def test_doc_attachment_ids(self):
        dataset = generate_email()
        for rid in (12, 101):
            record = dataset.records[rid - 1]
            assert record.features[3] == 1
            assert record.features[1] == 0
            assert record.label == 0

    def test_label_soundness(self):
        config = EmailGenConfig()
        worm_ids = config.worm_ids()
        for record in generate_email(config):
            assert (record.label == 1) == (record.id in worm_ids)

    def test_same_seed_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_email_csv(generate_email(EmailGenConfig(seed=7)), a)
        write_email_csv(generate_email(EmailGenConfig(seed=7)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self):
        assert generate_email(EmailGenConfig(seed=1)) != generate_email(EmailGenConfig(seed=2))

    def test_leader_intervals_look_legit(self):
        config = EmailGenConfig()
        dataset = generate_email(config)
        lo, hi = config.leader_interval_range
        for rid in config.leader_ids:
            assert lo - 1 <= dataset.records[rid - 1].features[0] <= hi + 1

    def test_block_overlap_rejected(self):
        with pytest.raises(DataFormatError):
            generate_email(EmailGenConfig(worm_blocks=((39, 59), (50, 70))))

    def test_count_mismatch_rejected(self):
        with pytest.raises(DataFormatError):
            generate_email(EmailGenConfig(worm_count=40))

    def test_doc_id_inside_worm_block_rejected(self):
        with pytest.raises(DataFormatError):
            generate_email(EmailGenConfig(doc_ids=(40, 101)))


class TestEmailCsv:
    def test_round_trip(self, tmp_path):
        dataset = generate_email(EmailGenConfig(seed=11))
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

    @pytest.mark.parametrize("interval", ["nan", "inf", "-inf"])
    def test_non_finite_interval_rejected(self, tmp_path, interval):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,interval_seconds,spoofed,dangerous_attachment,benign_attachment,label\n"
            f"1,{interval},0,0,0,normal\n"
        )
        with pytest.raises(DataFormatError, match="finite"):
            load_email(path)

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
        assert load_email(path).records[0].label == 1


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

    def test_all_missing_record_falls_back_to_normal(self):
        records = [Record(1, (None, 5.0), 1)] + [
            Record(i, (float(i % 10 + 1), float(i % 7 + 1)), i % 2) for i in range(2, 12)
        ]
        dataset = RecordSet(tuple(records), ("A", "B"), ("normal", "abnormal"))
        report = evaluate(dataset, "wbcd", folds=make_folds(11, 2, 0), features=(0,))
        (detail,) = [d for d in report.details if d["id"] == 1]
        assert detail["predicted"] == "normal"
        assert detail["trace"] == {"features": [], "fallback": "no-evidence"}

    @pytest.mark.parametrize("seed", [7, 42, 123456])
    def test_subset_training_matches_full_training(self, wbcd_dataset, seed):
        folds = make_folds(len(wbcd_dataset), 10, seed)
        for subset in ACCEPTANCE_SUBSETS:
            report = evaluate(wbcd_dataset, "wbcd", folds=folds, features=subset)
            expected = json.dumps(full_model_report(wbcd_dataset, subset, folds), indent=2)
            assert report_json(report, include_runtime=False) == expected, subset

    def test_unfused_feature_needs_no_training_values(self, wbcd_dataset):
        records = tuple(
            Record(r.id, (r.features[0], None, *r.features[2:]), r.label) for r in wbcd_dataset
        )
        no_b = RecordSet(records, wbcd_dataset.feature_names, wbcd_dataset.label_names)
        folds = make_folds(len(no_b), 10, 42)
        report = evaluate(no_b, "wbcd", folds=folds, features=(0,))
        reference = evaluate(wbcd_dataset, "wbcd", folds=folds, features=(0,))
        assert report_json(report, include_runtime=False) == report_json(
            reference, include_runtime=False
        )
        with pytest.raises(
            DataFormatError, match=r"^fold 1 of 10: .* feature 1 has no non-missing training values"
        ):
            evaluate(no_b, "wbcd", folds=folds, features=(0, 1))

    @pytest.mark.parametrize("task", ["wbcd", "iris"])
    @pytest.mark.parametrize("bad", [9, -1])
    def test_feature_index_outside_record_is_a_usage_error(
        self, wbcd_dataset, iris_dataset, task, bad, monkeypatch
    ):
        dataset = wbcd_dataset if task == "wbcd" else iris_dataset
        n = len(dataset.feature_names)
        index = n if bad == 9 else bad
        trained = []
        spec = dataclasses.replace(TASKS[task], train=lambda *args: trained.append(args))
        monkeypatch.setitem(TASKS, task, spec)
        with pytest.raises(ValueError, match=rf"^feature {index} outside 0\.\.{n - 1}$") as info:
            evaluate(dataset, task, folds=make_folds(len(dataset), 10, 42), features=(0, index))
        assert not isinstance(info.value, DataFormatError)
        assert trained == []

    def test_nan_feature_is_an_error_not_missing(self):
        records = [Record(1, (1.0, 1.0), 0), Record(2, (math.nan, 9.0), 1)] + [
            Record(i, (float(i % 10 + 1), float(i % 7 + 1)), i % 2) for i in range(3, 13)
        ]
        dataset = RecordSet(tuple(records), ("A", "B"), ("normal", "abnormal"))
        with pytest.raises(ValueError, match="feature value must be finite"):
            evaluate(dataset, "wbcd", folds=make_folds(12, 2, 0))

    @pytest.mark.parametrize("task", ["wbcd", "iris", "email"])
    def test_empty_record_set_rejected(self, task):
        # No fold plan can cover zero records, so none is passed.
        dataset = RecordSet((), ("A",), ("normal", "abnormal"))
        with pytest.raises(DataFormatError, match="no records to evaluate"):
            evaluate(dataset, task)

    def test_untrainable_fold_is_an_input_error(self, iris_dataset):
        # 5/5/2 records per class: with two folds, one training half lacks a class
        records = [r for r in iris_dataset if r.id - 50 * r.label <= (5, 5, 2)[r.label]]
        dataset = RecordSet(tuple(records), iris_dataset.feature_names, iris_dataset.label_names)
        with pytest.raises(DataFormatError, match=r"^fold \d of 2: .* its 6 training") as info:
            evaluate(dataset, "iris", folds=make_folds(12, 2, 42))
        assert str(info.value).endswith("has no training records")
        assert type(info.value.__cause__) is ValueError

    def test_unknown_task_rejected(self, iris_dataset):
        with pytest.raises(ValueError):
            evaluate(iris_dataset, "sonar", folds=make_folds(150, 10, 0))

    def test_cv_requires_folds(self, iris_dataset):
        with pytest.raises(ValueError):
            evaluate(iris_dataset, "iris")


class TestAblation:
    def test_same_folds_reused(self, wbcd_dataset):
        folds = make_folds(len(wbcd_dataset), 10, 42)
        table = ablation(wbcd_dataset, "wbcd", [(0,), (0,)], folds=folds)
        assert table[0] == table[1]
        assert table[0][0] == "A"

    def test_wbcd_rows_match_full_training(self, wbcd_dataset):
        folds = make_folds(len(wbcd_dataset), 10, 42)
        expected = []
        for subset in ACCEPTANCE_SUBSETS:
            report = full_model_report(wbcd_dataset, subset, folds)
            expected.append((report["config"]["features"], report["accuracy"]))
        assert ablation(wbcd_dataset, "wbcd", ACCEPTANCE_SUBSETS, folds=folds) == expected

    def test_email_signal_subsets(self):
        dataset = generate_email()
        table = ablation(dataset, "email", [(1, 2, 3, 4), (2, 3, 4)])
        assert table[0][0] == "1234"
        assert table[1][0] == "234"
        assert 0 <= table[1][1] <= 1


class TestRepeatedCv:
    def test_distinct_seeds(self, iris_dataset):
        reports = repeated_cv(iris_dataset, "iris", 3, 10, 42)
        assert [r.config["seed"] for r in reports] == [42, 43, 44]

    def test_mean_sd(self):
        mean, sd = mean_sd([0.9, 1.0, 0.95])
        assert mean == pytest.approx(0.95)
        assert sd == pytest.approx(0.05)
        assert mean_sd([0.9]) == (0.9, 0.0)

    def test_zero_runs_rejected(self, iris_dataset):
        with pytest.raises(ValueError):
            repeated_cv(iris_dataset, "iris", 0, 10, 42)


class TestReports:
    def test_json_round_trip(self, tmp_path, iris_dataset):
        folds = make_folds(len(iris_dataset), 10, 42)
        report = evaluate(iris_dataset, "iris", folds=folds)
        path = tmp_path / "report.json"
        write_report(report, path, "json")
        assert load_report(path) == report

    def test_csv_row_count(self, tmp_path, iris_dataset):
        folds = make_folds(len(iris_dataset), 10, 42)
        report = evaluate(iris_dataset, "iris", folds=folds)
        path = tmp_path / "report.csv"
        write_report(report, path, "csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == folds.k + 1

    def test_text_contains_misclassified_traces(self, tmp_path, iris_dataset):
        folds = make_folds(len(iris_dataset), 10, 42)
        report = evaluate(iris_dataset, "iris", folds=folds)
        text = report_text(report)
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

    def test_unknown_format_rejected(self, tmp_path, iris_dataset):
        folds = make_folds(len(iris_dataset), 10, 42)
        report = evaluate(iris_dataset, "iris", folds=folds)
        with pytest.raises(ValueError):
            write_report(report, tmp_path / "report.xml", "xml")
