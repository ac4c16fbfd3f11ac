"""The names the benchmark harness under ``bench/`` reads from the package.

The tier-1 suite does not run ``bench/test_bench.py``, so these checks
fail here first when a change removes what the harness reads:

- ``bench/tracing.py:168`` (``cache_lookups``) reads ``cache_info`` of
  ``bpa._scaled_mass_cached`` and ``bpa._table_mass_cached``;
  ``bench/test_bench.py`` requires the ``bpa.cache_hit_ratio`` it feeds
  in traced runs.
- ``bench/workloads.py:231`` (the independent ``wbcd`` reference) reads
  ``dataset.records``, and each record's ``id``, ``features`` and
  ``label``; ``:234`` and ``:241`` read ``FoldPlan.train_indices`` and
  ``test_indices`` and take their order as the training order.
- ``bench/run.py:302`` (``plant_wrong_label``) rebinds
  ``data.classify_binary``, and the ``wbcd`` check must see every label
  it flips, so ``evaluate`` looks the classifier up per record.
- ``bench/workloads.py:323`` (``IrisCv._check_labels``) reads each
  ``"predicted"`` of an iris report's ``details`` through
  ``getattr(out, "details", ())``, so without them it checks nothing.

The last test runs one cycle of each workload, set-up and checks included,
so any other name the harness reads fails here too.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

from dsfusion import bpa, data, evaluate, make_folds

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def test_bpa_caches_expose_cache_info():
    for cache in (bpa._scaled_mass_cached, bpa._table_mass_cached):
        info = cache.cache_info()
        assert info.hits >= 0 and info.misses >= 0


def test_records_view_matches_the_columns(wbcd_dataset, iris_dataset):
    for dataset in (wbcd_dataset, iris_dataset):
        records = dataset.records
        assert len(records) == len(dataset)
        for i, record in enumerate(records):
            assert (record.id, record.features, record.label) == (
                dataset.ids[i], dataset.rows[i], dataset.labels[i]
            )


def test_fold_indices_are_index_ordered_lists():
    folds = make_folds(150, 10, 42)
    for fold in range(folds.k):
        train, test = folds.train_indices(fold), folds.test_indices(fold)
        assert type(train) is list and type(test) is list
        assert train == sorted(train) and test == sorted(test)
        assert sorted(train + test) == list(range(150))


def test_a_rebound_binary_classifier_labels_every_wbcd_record(wbcd_dataset, monkeypatch):
    folds = make_folds(len(wbcd_dataset), 10, 42)
    sound = evaluate(wbcd_dataset, "wbcd", folds=folds)
    flip = {"normal": "abnormal", "abnormal": "normal"}
    original = data.classify_binary

    def planted(record, model):
        pred = original(record, model)
        return dataclasses.replace(pred, label=flip[pred.label])

    monkeypatch.setattr(data, "classify_binary", planted)
    report = evaluate(wbcd_dataset, "wbcd", folds=folds)
    assert [p.label for p in report.predictions] == [flip[p.label] for p in sound.predictions]
    assert len(report.misclassified) == len(wbcd_dataset) - len(sound.misclassified)


def test_iris_report_details_carry_predicted(iris_dataset):
    report = evaluate(iris_dataset, "iris", folds=make_folds(len(iris_dataset), 10, 42))
    details = getattr(report, "details", ())
    assert details
    assert all(detail["predicted"] in iris_dataset.label_names for detail in details)


def test_every_workload_runs_one_cycle_without_error(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    # Its @dataclass looks the module up in sys.modules while it is executed.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    monkeypatch.setattr(sys, "path", list(sys.path))  # import_program prepends src/
    spec.loader.exec_module(workloads)
    mods = workloads.import_program()
    for name, workload in workloads.WORKLOADS.items():
        wl = workload(mods, 7)
        wl.setup()
        wl.prepare_checks()
        for j in range(wl.cycle):
            x = wl.batch(j)
            error, digest = wl.check(x, wl.run(x))
            assert error is None, (name, j)
            assert wl.verify(j, digest) is None, (name, j)
