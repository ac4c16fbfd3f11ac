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


def _exact_dempster(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    # Intersect, drop the products on the empty set, renormalize; no rounding.
    acc: dict[int, Fraction] = {}
    for sa, va in a.items():
        for sb, vb in b.items():
            if sa & sb:
                acc[sa & sb] = acc.get(sa & sb, Fraction(0)) + va * vb
    norm = sum(acc.values())
    return {bits: v / norm for bits, v in acc.items()}


def oracle_three_class(record, model: ThreeClassModel) -> tuple[str, dict]:
    """The exact three-step decision for one record: its label and trace.

    Every value, range and mean is taken as an exact rational.

    - Step 1: per feature, the classes whose range holds the value get
      9/10 and the frame 1/10; a value in no range goes to the class whose
      range is nearest (ties to the lowest class); a value in every range
      gives the frame 1. The features fold by exact Dempster's rule, and
      the candidate is the focal set of greatest mass other than the
      frame, ties to smaller cardinality, then lower bitmask; the frame
      when no other set is focal. A singleton decides.
    - Step 2: on the candidate group's selected feature, the class whose
      mean is nearest (ties to the lowest class) gets 8/10, the frame 2/10.
    - Step 3: that fuses with step 1, and the singleton of greatest
      belief (its own mass) wins, ties to the lowest class.
    """
    full = 0b111
    step1 = {full: Fraction(1)}
    for value, class_bounds in zip(record, model.boundaries.bounds):
        v = Fraction(value)
        bits = sum(1 << c for c, (lo, hi) in enumerate(class_bounds) if lo <= v <= hi)
        if bits == 0:
            gaps = [max(Fraction(lo) - v, v - Fraction(hi)) for lo, hi in class_bounds]
            bits = 1 << min(range(3), key=lambda c: (gaps[c], c))
        row = {full: Fraction(1)} if bits == full else {bits: Fraction(9, 10), full: Fraction(1, 10)}
        step1 = _exact_dempster(step1, row)
    focal = [bits for bits in step1 if bits != full]
    candidate = min(focal, key=lambda b: (-step1[b], b.bit_count(), b)) if focal else full
    labels = model.frame.labels
    if candidate.bit_count() == 1:
        return labels[candidate.bit_length() - 1], {"decided": "step1"}
    feature = model.selected[candidate]
    v = Fraction(record[feature])
    diffs = [abs(v - Fraction(mean)) for mean in model.means[feature]]
    nearest = min(range(3), key=lambda c: (diffs[c], c))
    final = _exact_dempster(step1, {1 << nearest: Fraction(8, 10), full: Fraction(2, 10)})
    winner = min(range(3), key=lambda c: (-final.get(1 << c, Fraction(0)), c))
    group = [labels[c] for c in range(3) if candidate >> c & 1]
    return labels[winner], {"decided": "step3", "feature": feature, "group": group}


def random_mass(frame: Frame, rng: random.Random) -> MassFunction:
    """A random mass function over every nonempty subset of the frame."""
    weights = [rng.random() for _ in range(frame.full_mask)]
    total = sum(weights)
    return MassFunction(frame, {bits: w / total for bits, w in enumerate(weights, start=1)})


def subsets_of(frame: Frame) -> list[HypothesisSet]:
    return [HypothesisSet(frame, bits) for bits in range(1, frame.full_mask + 1)]
