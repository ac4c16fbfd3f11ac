#!/usr/bin/env python3
"""Alternating before/after pairs of ``bench/run.py`` runs: this checkout
against another revision. Standard library only.

Exports ``--against`` with ``git archive`` into a temporary directory, then
runs ``bench/run.py --workload W --seed s --seconds S`` on both trees,
``--pairs`` times with a new seed for each pair (0, 1, ...), alternating
which tree runs first. For each metric of the result lines it prints both
sides' median and quartiles, the change of the medians, and how many pairs
this checkout won (ties count for neither). Using each end-to-end metric's
direction and bound from ``BENCHMARK.json``, it also says whether a gain is
shown (wins in at least nine tenths of the pairs and a median gain larger
than the other revision's interquartile range) and whether the median is
worse by more than the bound.

Usage: python scripts/bench_pairs.py --against REV --workload W --pairs N --seconds S
A pair of 20 s runs takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent


def result_line(stdout: str) -> dict:
    """The JSON object on the last line of a ``bench/run.py`` run's stdout."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> str:
    """One ``bench/run.py`` run in ``tree``, untraced unless ``trace`` is 1: its stdout."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: bench/run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def _quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    # Lower quartile, median and upper quartile, interpolated between the sorted values.
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: Sequence[tuple[str, str]], declared: Sequence[dict]) -> list[str]:
    """One report line per metric, then one for failed runs, from (other revision, this
    checkout) runs' stdouts. ``declared`` is ``BENCHMARK.json``'s ``end_to_end`` list; a
    metric it does not name gets no wins and no verdict."""
    before, after = ([result_line(pair[side]) for pair in pairs] for side in (0, 1))
    by_name = {entry["name"]: entry for entry in declared}
    lines = []
    for name, first in before[0]["metrics"].items():
        old = [r["metrics"][name]["value"] for r in before]
        new = [r["metrics"][name]["value"] for r in after]
        (q1, m_old, q3), (p1, m_new, p3) = _quartiles(old), _quartiles(new)
        change = (m_new - m_old) / m_old if m_old else float("nan")
        line = (f"{name:18s} {first['unit']:8s} before {m_old:.6g} [{q1:.6g}, {q3:.6g}]  "
                f"after {m_new:.6g} [{p1:.6g}, {p3:.6g}]  {change:+.1%}")
        entry = by_name.get(name)
        if entry is not None:
            sign = 1 if entry["better"] == "higher" else -1
            wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
            if sign * (m_new - m_old) > q3 - q1 and wins >= 0.9 * len(pairs):
                verdict = "gain shown"
            elif -sign * change > entry["bound"]:
                verdict = f"worse by more than the {entry['bound']:.0%} bound"
            else:
                verdict = "no gain shown, within the bound"
            line += f"  wins {wins}/{len(pairs)}  {verdict}"
        lines.append(line)
    failed = [sum(r["failed"] for r in side) for side in (before, after)]
    attempted = [sum(r["attempted"] for r in side) for side in (before, after)]
    lines.append(f"failed batches: before {failed[0]} of {attempted[0]}, "
                 f"after {failed[1]} of {attempted[1]}")
    return lines


def export(rev: str, into: Path) -> None:
    """Write the committed files of ``rev`` into ``into`` with ``git archive``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="the revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp)
        export(args.against, other)
        pairs = []
        for seed in range(args.pairs):
            order = [(0, other), (1, ROOT)][:: 1 if seed % 2 == 0 else -1]
            pair = ["", ""]
            for side, tree in order:
                pair[side] = run_bench(tree, args.workload, seed, args.seconds)
            pairs.append((pair[0], pair[1]))
            first = "before" if seed % 2 == 0 else "after"
            print(f"pair {seed + 1} of {args.pairs}: seed {seed}, {first} first", file=sys.stderr,
                  flush=True)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs; before = "
          f"{args.against}, after = this checkout")
    for line in summarize(pairs, declared):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
