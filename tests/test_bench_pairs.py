"""``scripts/bench_pairs.py``'s summary, fed canned ``bench/run.py`` result lines: medians,
quartiles, wins and verdicts per metric. No benchmark runs and nothing is timed."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT_PATH = ROOT / "scripts" / "bench_pairs.py"

spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT_PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

DECLARED = [
    {"name": "throughput_per_s", "unit": "items/s", "better": "higher", "bound": 0.2},
    {"name": "batch_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
]


def result(throughput, p50_ms=5.0, failed=0, extra=None):
    metrics = {"throughput_per_s": {"value": throughput, "unit": "items/s"},
               "batch_p50_ms": {"value": p50_ms, "unit": "ms"}}
    if extra is not None:
        metrics["calls"] = {"value": extra, "unit": "count"}
    return json.dumps({"correct": not failed, "attempted": 40, "failed": failed,
                       "metrics": metrics})


def line_of(lines, name):
    (line,) = [line for line in lines if line.startswith(name)]
    return line


def test_ten_wins_past_the_spread_show_a_gain():
    pairs = [(result(100 + i), result(110 + i)) for i in range(10)]
    line = line_of(bench_pairs.summarize(pairs, DECLARED), "throughput_per_s")
    # before: 100..109, quartiles 102.25 and 106.75; after: 110..119.
    assert "before 104.5 [102.25, 106.75]" in line
    assert "after 114.5 [112.25, 116.75]" in line
    assert line.endswith("+9.6%  wins 10/10  gain shown")


def test_eight_wins_show_no_gain():
    pairs = [(result(100), result(120 if i < 8 else 90)) for i in range(10)]
    line = line_of(bench_pairs.summarize(pairs, DECLARED), "throughput_per_s")
    assert line.endswith("wins 8/10  no gain shown, within the bound")


def test_a_gain_within_the_spread_is_not_shown():
    # Every pair wins by 1, but the before runs spread over 10.
    pairs = [(result(100 + 10 * (i % 2)), result(101 + 10 * (i % 2))) for i in range(10)]
    line = line_of(bench_pairs.summarize(pairs, DECLARED), "throughput_per_s")
    assert line.endswith("wins 10/10  no gain shown, within the bound")


def test_lower_is_better_and_the_bound_is_relative():
    pairs = [(result(100, p50_ms=5.0), result(100, p50_ms=6.5)) for _ in range(3)]
    lines = bench_pairs.summarize(pairs, DECLARED)
    assert line_of(lines, "batch_p50_ms").endswith(
        "+30.0%  wins 0/3  worse by more than the 20% bound")
    # Equal values are ties: no pair is won.
    assert line_of(lines, "throughput_per_s").endswith(
        "+0.0%  wins 0/3  no gain shown, within the bound")


def test_an_undeclared_metric_gets_no_verdict_and_one_pair_has_no_spread():
    lines = bench_pairs.summarize([(result(100, extra=3), result(100, extra=4))], DECLARED)
    assert line_of(lines, "calls").endswith("before 3 [3, 3]  after 4 [4, 4]  +33.3%")


def test_failed_batches_counted_per_side():
    pairs = [(result(100, failed=2), result(110)), (result(100), result(110, failed=1))]
    assert bench_pairs.summarize(pairs, DECLARED)[-1] == (
        "failed batches: before 2 of 80, after 1 of 80")


def test_the_result_is_the_last_line_of_stdout():
    stdout = "wbcd_cli seed=0 trace=0: 0 of 40 batches failed\n  setup_s 0.1\n" + result(7.0)
    assert bench_pairs.result_line(stdout + "\n")["metrics"]["throughput_per_s"]["value"] == 7.0
