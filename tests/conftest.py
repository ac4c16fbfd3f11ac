"""Shared fixtures: dataset paths, loaded record sets, and an independent
brute-force combination oracle kept deliberately separate from the library
implementation."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from dsfusion import (
    BoundaryModel,
    Frame,
    HypothesisSet,
    MassFunction,
    ThreeClassModel,
    fsv,
    load_iris,
    load_wbcd,
)
from dsfusion.bpa import DegenerateFeatureError

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
WBCD_PATH = DATA_DIR / "breast-cancer-wisconsin.data"
IRIS_PATH = DATA_DIR / "iris.data"


@pytest.fixture(scope="session")
def wbcd_path() -> Path:
    return WBCD_PATH


@pytest.fixture(scope="session")
def iris_path() -> Path:
    return IRIS_PATH


@pytest.fixture(scope="session")
def wbcd_dataset():
    return load_wbcd(WBCD_PATH)


@pytest.fixture(scope="session")
def iris_dataset():
    return load_iris(IRIS_PATH)


def mass_to_frozensets(m: MassFunction) -> dict[frozenset, float]:
    """Re-encode a mass function as frozensets of label indices."""
    out = {}
    for subset, value in m.items():
        out[frozenset(i for i in range(m.frame.size) if subset.bits >> i & 1)] = value
    return out


def oracle_combine(
    a: dict[frozenset, float], b: dict[frozenset, float]
) -> tuple[dict[frozenset, float], float]:
    """Naive double-loop combination over frozenset-keyed masses."""
    acc: dict[frozenset, float] = {}
    k = 0.0
    for sa, va in a.items():
        for sb, vb in b.items():
            inter = sa & sb
            if inter:
                acc[inter] = acc.get(inter, 0.0) + va * vb
            else:
                k += va * vb
    return {s: v / (1.0 - k) for s, v in acc.items()}, k


def exact_binary_fold(rows) -> tuple[tuple[Fraction, Fraction, Fraction], Fraction]:
    """Exact pairwise Dempster fold of (m_0, m_1, m_theta) rows on two labels.

    The float rows are taken as exact rationals and combined one source at
    a time (intersect, drop the conflict, renormalize) in Fraction
    arithmetic, with no commonality shortcut. Returns the fused masses and
    1 - K, the product of the step normalizers (0 under total conflict).
    """
    n, a, t = (Fraction(v) for v in rows[0])
    one_minus_k = n + a + t
    n, a, t = n / one_minus_k, a / one_minus_k, t / one_minus_k
    for row in rows[1:]:
        bn, ba, bt = (Fraction(v) for v in row)
        n, a, t = n * bn + n * bt + t * bn, a * ba + a * bt + t * ba, t * bt
        norm = n + a + t
        one_minus_k *= norm
        if norm == 0:
            return (n, a, t), one_minus_k
        n, a, t = n / norm, a / norm, t / norm
    return (n, a, t), one_minus_k


def oracle_binary_labels(records, features, folds, ties_abnormal=False) -> dict[int, int]:
    """Exact sigmoid-fusion labels (1 = abnormal) for every record, by id.

    Per fold, each feature's threshold is the k-th smallest non-missing
    training value, k = round-half-up(n_values * normal / total), clamped
    to a valid rank. With no mass on the whole frame, Dempster's rule multiplies
    the odds e^(v - t), so a test record is abnormal iff the exact sum of
    v - t over its non-missing selected features is > 0; an exact tie goes
    to normal unless ``ties_abnormal``.
    """
    labels = {}
    for fold in range(folds.k):
        train = [records[i] for i in folds.train_indices(fold)]
        normal = sum(1 for r in train if r.label == 0)
        thresholds = {}
        for f in features:
            values = sorted(r.features[f] for r in train if r.features[f] is not None)
            k = (2 * len(values) * normal + len(train)) // (2 * len(train))
            thresholds[f] = values[min(max(k, 1), len(values)) - 1]
        for i in folds.test_indices(fold):
            r = records[i]
            score = sum(
                (Fraction(r.features[f]) - Fraction(thresholds[f])
                 for f in features if r.features[f] is not None),
                Fraction(0),
            )
            labels[r.id] = int(score > 0 or (ties_abnormal and score == 0))
    return labels


def reference_three_class(samples, frame: Frame) -> ThreeClassModel:
    """The three-class model by per-sample scans, without the grouped trainer.

    Every (feature, class) pair filters the samples anew for its observed
    (min, max) and its mean sum/len. Each class group's feature is the
    argmin of the public ``fsv`` over the features, each filtered anew,
    skipping degenerate features; ties go to the lowest feature index.
    """
    n_features = len(samples[0][0])
    bounds, means = [], []
    for f in range(n_features):
        column = [[feats[f] for feats, label in samples if label == c] for c in range(3)]
        for c, values in enumerate(column):
            if not values:
                raise ValueError(f"class {c} has no training records")
        bounds.append(tuple((min(values), max(values)) for values in column))
        means.append(tuple(sum(values) / len(values) for values in column))
    selected = {}
    for group in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
        scores = []
        for f in range(n_features):
            grouped = [[feats[f] for feats, label in samples if label == c] for c in group]
            try:
                scores.append((fsv(grouped), f))
            except DegenerateFeatureError:
                continue
        if not scores:
            raise DegenerateFeatureError(f"no usable feature for classes {group}")
        selected[sum(1 << c for c in group)] = min(scores)[1]
    return ThreeClassModel(frame, BoundaryModel(tuple(bounds)), tuple(means), selected)


def random_mass(frame: Frame, rng: random.Random) -> MassFunction:
    """A random mass function over every nonempty subset of the frame."""
    weights = [rng.random() for _ in range(frame.full_mask)]
    total = sum(weights)
    return MassFunction(frame, {bits: w / total for bits, w in enumerate(weights, start=1)})


def subsets_of(frame: Frame) -> list[HypothesisSet]:
    return [HypothesisSet(frame, bits) for bits in range(1, frame.full_mask + 1)]
