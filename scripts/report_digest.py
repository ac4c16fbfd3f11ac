#!/usr/bin/env python3
"""Print one SHA-256 per task over many report JSONs and check them
against the digests committed in ``DIGESTS.json``.

A change that must keep every report byte-identical runs this after it:
the three digests must still match the committed ones. A change that
moves a report on purpose updates ``DIGESTS.json`` and says which reports
changed and why.

- ``iris``: ``report_json(evaluate(iris, "iris", folds=make_folds(150, k, s)),
  include_runtime=False)`` for k=10 with s=0..2999, then k=3, 5, 20 and 50
  with s=0..299 each (4,200 plans, in that order).
- ``wbcd``: the same JSON of ``evaluate(wbcd, "wbcd", make_folds(699, 10, s),
  subset)`` for the twelve acceptance subsets (each single feature A..I,
  then ADI, BCF and all nine), each with s=0..99, subset by subset.
- ``email``: the same JSON of ``evaluate(generate_email(s), "email", subset=signals)``
  for s=0..99, each with the fifteen signal subsets (1, 2, 3, 4, 12, ..., 1234) in turn.

Each digest hashes the reports' UTF-8 bytes concatenated in that order.
Each task's reports also fall into groups, hashed the same way: iris per k
and block of 100 fold seeds (``k=10 s=0-99``), wbcd per subset (``ADI``)
and email per block of 10 corpus seeds (``s=0-9``). ``DIGESTS.json`` holds
the task digests under ``full`` and the group digests under ``groups``,
both as ``digests(*FULL)`` returns them.
``SLICE`` names a small part of the same reports (iris k=10 with s=0..99,
wbcd and email at s=0 alone), whose task digests ``DIGESTS.json`` also holds and
``tests/test_report_digest.py`` checks in well under a second.

Usage: python scripts/report_digest.py  (about 20 s on a 2-core machine)
It exits 1 and names each task whose digest differs from ``DIGESTS.json``,
with the first of its groups whose digest differs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dsfusion.data import (  # noqa: E402
    evaluate, generate_email, load_iris, load_wbcd, make_folds, report_json,
)

DIGESTS_PATH = ROOT / "DIGESTS.json"
WBCD_SUBSETS = [(f,) for f in range(9)] + [(0, 3, 8), (1, 2, 5), tuple(range(9))]
EMAIL_SUBSETS = [c for r in range(1, 5) for c in combinations((1, 2, 3, 4), r)]

# The reports of each digest: iris (k, fold seed) plans, wbcd fold seeds, email corpus seeds.
FULL = ([(10, s) for s in range(3000)] + [(k, s) for k in (3, 5, 20, 50) for s in range(300)],
        range(100), range(100))
SLICE = ([(10, s) for s in range(100)], range(1), range(1))


def _reports(iris_plans, wbcd_seeds, email_seeds):
    # (task, group, report) for each report that FULL or SLICE names, in digest order.
    iris = load_iris(ROOT / "data" / "iris.data")
    wbcd = load_wbcd(ROOT / "data" / "breast-cancer-wisconsin.data")
    for k, s in iris_plans:
        block = s - s % 100
        yield "iris", f"k={k} s={block}-{block + 99}", evaluate(
            iris, "iris", folds=make_folds(len(iris), k, s))
    for subset in WBCD_SUBSETS:
        group = "".join("ABCDEFGHI"[f] for f in subset)
        for s in wbcd_seeds:
            yield "wbcd", group, evaluate(
                wbcd, "wbcd", folds=make_folds(len(wbcd), 10, s), subset=subset)
    for s in email_seeds:
        corpus, block = generate_email(s), s - s % 10
        for signals in EMAIL_SUBSETS:
            yield "email", f"s={block}-{block + 9}", evaluate(corpus, "email", subset=signals)


def digests(iris_plans, wbcd_seeds, email_seeds) -> tuple[dict, dict]:
    """Each task's digest over the reports that ``FULL`` or ``SLICE`` names, and
    ``{task: {group: digest}}`` over the same reports, group by group."""
    tasks: dict = {}
    groups: dict = {}
    for task, group, report in _reports(iris_plans, wbcd_seeds, email_seeds):
        data = report_json(report, include_runtime=False).encode("utf-8")
        tasks.setdefault(task, hashlib.sha256()).update(data)
        groups.setdefault(task, {}).setdefault(group, hashlib.sha256()).update(data)
    return ({task: h.hexdigest() for task, h in tasks.items()},
            {task: {g: h.hexdigest() for g, h in per.items()} for task, per in groups.items()})


def main() -> int:
    actual, groups = digests(*FULL)
    for task, value in actual.items():
        print(task, value)
    committed = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    expected = committed["full"]
    changed = [task for task in expected if actual[task] != expected[task]]
    for task in changed:
        first = next((g for g, value in groups[task].items()
                      if value != committed["groups"][task].get(g)), "none")
        print(f"{task}: digest differs from DIGESTS.json's {expected[task]}; "
              f"first group that differs: {first}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
