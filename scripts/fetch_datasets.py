#!/usr/bin/env python3
"""Re-download the two UCI benchmark files into data/.

The repository already ships both files; this helper refreshes them from
the UCI Machine Learning Repository for environments that want to verify
provenance. After downloading it checks the documented invariants
(record counts, class balance, missing-value count) with the package's
own loaders.

Usage: python scripts/fetch_datasets.py [--dest data/]
"""

from __future__ import annotations

import argparse
import sys
import urllib.request
from pathlib import Path

WBCD_URL = (
    "https://archive.ics.uci.edu/ml/machine-learning-databases/"
    "breast-cancer-wisconsin/breast-cancer-wisconsin.data"
)
IRIS_URL = "https://archive.ics.uci.edu/ml/machine-learning-databases/iris/iris.data"


def fetch(url: str, dest: Path) -> None:
    print(f"fetching {url}")
    with urllib.request.urlopen(url, timeout=60) as response:
        dest.write_bytes(response.read())
    print(f"wrote {dest} ({dest.stat().st_size} bytes)")


def validate(dest: Path) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from dsfusion import load_iris, load_wbcd

    wbcd = load_wbcd(dest / "breast-cancer-wisconsin.data")
    assert len(wbcd) == 699, f"expected 699 records, got {len(wbcd)}"
    assert wbcd.labels.count(0) == 458
    assert wbcd.labels.count(1) == 241
    assert sum(None in row for row in wbcd.rows) == 16

    iris = load_iris(dest / "iris.data")
    assert len(iris) == 150, f"expected 150 records, got {len(iris)}"
    for label in range(3):
        assert iris.labels.count(label) == 50
    print("validation passed: 699 records (458/241, 16 missing) and 150 records (50/50/50)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dest", type=Path, default=Path(__file__).resolve().parent.parent / "data"
    )
    args = parser.parse_args()
    args.dest.mkdir(parents=True, exist_ok=True)
    fetch(WBCD_URL, args.dest / "breast-cancer-wisconsin.data")
    fetch(IRIS_URL, args.dest / "iris.data")
    validate(args.dest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
