#!/usr/bin/env python3
"""Print one SHA-256 per cross-validated task over many report JSONs.

A change that must keep every report byte-identical can be checked by
running this before and after it: the two lines must not change.

- ``iris``: ``report_json(evaluate(iris, "iris", folds=make_folds(150, k, s)),
  include_runtime=False)`` for k=10 with s=0..2999, then k=3, 5, 20 and 50
  with s=0..299 each (4,200 plans, in that order).
- ``wbcd``: the same JSON of ``evaluate(wbcd, "wbcd", make_folds(699, 10, s),
  subset)`` for the twelve acceptance subsets (each single feature A..I,
  then ADI, BCF and all nine), each with s=0..99, subset by subset.
- ``email``: the same JSON of ``evaluate(generate_email(s), "email", subset=signals)``
  for s=0..99, each with the fifteen signal subsets (1, 2, 3, 4, 12, ..., 1234) in turn.

Each digest hashes the reports' UTF-8 bytes concatenated in that order.

Usage: python scripts/report_digest.py  (about 20 s on a 2-core machine)
"""

from __future__ import annotations

import hashlib
import sys
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dsfusion.data import (  # noqa: E402
    evaluate, generate_email, load_iris, load_wbcd, make_folds, report_json,
)

IRIS_PLANS = [(10, s) for s in range(3000)] + [(k, s) for k in (3, 5, 20, 50) for s in range(300)]
WBCD_SUBSETS = [(f,) for f in range(9)] + [(0, 3, 8), (1, 2, 5), tuple(range(9))]
EMAIL_SUBSETS = [c for r in range(1, 5) for c in combinations((1, 2, 3, 4), r)]


def digest(reports) -> str:
    h = hashlib.sha256()
    for report in reports:
        h.update(report_json(report, include_runtime=False).encode("utf-8"))
    return h.hexdigest()


def main() -> None:
    iris = load_iris(ROOT / "data" / "iris.data")
    wbcd = load_wbcd(ROOT / "data" / "breast-cancer-wisconsin.data")
    print("iris", digest(
        evaluate(iris, "iris", folds=make_folds(len(iris), k, s)) for k, s in IRIS_PLANS
    ))
    print("wbcd", digest(
        evaluate(wbcd, "wbcd", folds=make_folds(len(wbcd), 10, s), subset=subset)
        for subset in WBCD_SUBSETS for s in range(100)
    ))
    print("email", digest(
        evaluate(corpus, "email", subset=signals)
        for corpus in map(generate_email, range(100)) for signals in EMAIL_SUBSETS
    ))


if __name__ == "__main__":
    main()
