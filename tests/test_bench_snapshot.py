"""``scripts/bench_snapshot.py``'s JSON, fed canned ``bench/run.py`` result lines: its keys,
types, zero-valued per-layer metrics, line census and ``DIGESTS.json`` hash. No benchmark
runs and nothing is timed."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # bench_snapshot imports bench_pairs by name
    spec.loader.exec_module(module)
    return module


load_script("bench_pairs")
bench_snapshot = load_script("bench_snapshot")

MODULE = '''"""A module docstring
over two lines."""

import math  # a trailing comment is code


def f(x):
    """One line."""
    # a comment line

    return math.sqrt(x)
'''


def stdout(metrics, failed=0):
    lines = {name: {"value": value, "unit": "u"} for name, value in metrics.items()}
    return "wbcd_cli seed=0: header text\n" + json.dumps(
        {"correct": True, "attempted": 40, "failed": failed, "metrics": lines}) + "\n"


def test_snapshot_keys_and_types():
    runs = {"wbcd_cli": (stdout({"throughput_per_s": 2e5, "peak_rss_mb": 20.5}, failed=1),
                         stdout({"classify.us_per_record": 1.5, "bpa.cache_hit_ratio": 0.0}))}
    env = {"python": "3.11.7", "cpu_count": 2, "git_sha": "0" * 40}
    result = bench_snapshot.snapshot(runs, 41.5, env, {"m.py": MODULE, "n.py": "x = 1\n"},
                                     b'{"full": {}}\n')
    assert set(result) == {"environment", "workloads", "tier1_seconds", "src_census",
                           "digests_sha256"}
    assert result["environment"] == env and result["tier1_seconds"] == 41.5
    wbcd = result["workloads"]["wbcd_cli"]
    assert (wbcd["seed"], wbcd["attempted"], wbcd["failed"]) == (0, 40, 1)
    assert wbcd["end_to_end"]["throughput_per_s"] == {"value": 2e5, "unit": "u"}
    assert set(wbcd["per_layer"]) == {"classify.us_per_record", "bpa.cache_hit_ratio"}
    assert wbcd["per_layer_zero"] == ["bpa.cache_hit_ratio"]
    json.dumps(result, allow_nan=False)  # strict JSON


def test_census_counts_each_line_once():
    counts = bench_snapshot.census(MODULE)
    assert counts == {"docstring": 3, "comment": 1, "blank": 4, "other": 3, "total": 11}
    assert counts["total"] == MODULE.count("\n")


def test_digests_file_is_named_by_its_sha256():
    # The SHA-256 of b"abc" (FIPS 180-2, appendix B.1).
    result = bench_snapshot.snapshot({}, 0.0, {}, {}, b"abc")
    assert result["digests_sha256"] == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_census_totals_add_up_over_modules():
    result = bench_snapshot.snapshot({}, 0.0, {}, {"m.py": MODULE, "n.py": "x = 1\n"}, b"")
    assert result["src_census"]["totals"] == {
        "docstring": 3, "comment": 1, "blank": 4, "other": 4, "total": 12}
