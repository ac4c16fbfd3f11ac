"""Shared fixtures: dataset paths, loaded record sets, and an independent
brute-force combination oracle kept deliberately separate from the library
implementation."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dsfusion import (
    BINARY_FRAME,
    BoundaryModel,
    DataFormatError,
    Frame,
    MassFunction,
    Prediction,
    RecordSet,
    ThreeClassModel,
    combine_binary,
    load_iris,
    load_wbcd,
    vacuous_mass,
)
from dsfusion import data as data_module
from dsfusion.bpa import DegenerateFeatureError, _fsv, logistic, moments
from dsfusion.classify import email_signal_row
from dsfusion.data import WBCD_FEATURES

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
WBCD_PATH = DATA_DIR / "breast-cancer-wisconsin.data"
IRIS_PATH = DATA_DIR / "iris.data"


@pytest.fixture(scope="session")
def wbcd_dataset():
    return load_wbcd(WBCD_PATH)


@pytest.fixture(scope="session")
def iris_dataset():
    return load_iris(IRIS_PATH)


_WBCD_CELLS = {"?": None, **{str(v): float(v) for v in range(1, 11)}}


def reference_load_wbcd(path) -> RecordSet:
    """``load_wbcd`` as a loop over the file's rows: each row's cells are looked up in the
    table of the eleven canonical spellings, and a row with any other spelling is checked
    cell by cell (so "01" reads as 1), then its class code; the first bad row raises."""
    rows, labels = [], []
    for i, fields in data_module._read_rows(path, 11):
        try:
            features = tuple(map(_WBCD_CELLS.__getitem__, fields[1:10]))
        except KeyError:
            for raw in fields[1:10]:
                if raw != "?" and not (raw.isascii() and raw.isdigit() and 1 <= int(raw) <= 10):
                    raise DataFormatError(f"{path}:{i}: feature {raw!r} is not an integer in 1..10")
            features = tuple(None if raw == "?" else float(raw) for raw in fields[1:10])
        label = {"2": 0, "4": 1}.get(fields[10])
        if label is None:
            raise DataFormatError(f"{path}:{i}: class code must be 2 or 4, got {fields[10]!r}")
        rows.append(features)
        labels.append(label)
    ids = tuple(range(1, len(rows) + 1))
    return RecordSet(ids, tuple(rows), tuple(labels), WBCD_FEATURES, ("normal", "abnormal"))


def _reference_score_mass(frame: Frame, score: float) -> MassFunction:
    return combine_binary(frame, [(logistic(-score), logistic(score), 0.0)])


def reference_classify_binary(record, model) -> Prediction:
    """``classify_binary`` as a checked loop over the model's fitted (feature, threshold)
    pairs: a None value is skipped, a non-finite one is a ValueError (a non-numeric one,
    ``math.isfinite``'s TypeError), and the used values and negated thresholds are summed
    in that order by ``math.fsum``, or, past the float range, exactly and clamped to ±1000."""
    if len(record) != len(model.bpas):
        raise ValueError(f"record has {len(record)} values, model has {len(model.bpas)} features")
    used, terms = [], []
    for f, threshold in model.fitted:
        value = record[f]
        if value is not None:
            if not math.isfinite(value):
                raise ValueError(f"feature value must be finite, got {value}")
            used.append(f)
            terms += (value, -threshold)
    if not used:
        trace = {"features": [], "fallback": "no-evidence"}
        return Prediction("normal", BINARY_FRAME, trace, vacuous_mass, ())
    try:
        score = math.fsum(terms)
    except OverflowError:
        score = float(min(max(sum(map(Fraction, terms)), -1000), 1000))
    label = "abnormal" if score > 0 else "normal"
    return Prediction(label, BINARY_FRAME, {"features": used}, _reference_score_mass, (score,))


def mass_to_frozensets(m: MassFunction) -> dict[frozenset, float]:
    """Re-encode a mass function as frozensets of label indices."""
    out = {}
    for bits, value in m.items():
        out[frozenset(i for i in range(m.frame.size) if bits >> i & 1)] = value
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


def exact_unnormalised(rows) -> dict[int, Fraction]:
    """The exact conjunctive combination of a nonempty sequence of ``{bits: mass}`` rows.

    Each mass is taken as an exact rational, and every product of one mass
    per row lands on the intersection of their focal sets, the empty set
    (key 0) included. Dempster's rule is this combination with key 0 dropped
    and the rest divided by their sum; that sum is 1 - K when every row sums
    to exactly 1, which the rationals of a float row need not do.
    """
    first, *rest = [{bits: Fraction(v) for bits, v in row.items()} for row in rows]
    fused = first
    for row in rest:
        product: dict[int, Fraction] = {}
        for a, u in fused.items():
            for b, v in row.items():
                product[a & b] = product.get(a & b, 0) + u * v
        fused = product
    return fused


def exact_binary_fold(rows) -> tuple[tuple[Fraction, Fraction, Fraction], Fraction]:
    """Exact Dempster fold of (m_0, m_1, m_theta) rows on two labels, with no
    commonality shortcut. Returns the fused masses and the sum of the nonempty
    products, the 1 - K of the pairwise fold's step normalizers (0 under total
    conflict)."""
    fused = exact_unnormalised([{1: m0, 2: m1, 3: mt} for m0, m1, mt in rows])
    n, a, t = (fused.get(bits, Fraction(0)) for bits in (1, 2, 3))
    one_minus_k = n + a + t
    if one_minus_k == 0:
        return (n, a, t), one_minus_k
    return (n / one_minus_k, a / one_minus_k, t / one_minus_k), one_minus_k


def oracle_binary_labels(dataset, features, folds, ties_abnormal=False) -> dict[int, int]:
    """Exact sigmoid-fusion labels (1 = abnormal) for every record of a
    record set, by id.

    Per fold, each feature's threshold is the k-th smallest non-missing
    training value, k = round-half-up(n_values * normal / total), clamped
    to a valid rank. With no mass on the whole frame, Dempster's rule multiplies
    the odds e^(v - t), so a test record is abnormal iff the exact sum of
    v - t over its non-missing selected features is > 0; an exact tie goes
    to normal unless ``ties_abnormal``.
    """
    rows, labels = dataset.rows, {}
    for fold in range(folds.k):
        train = folds.train_indices(fold)
        normal = sum(1 for i in train if dataset.labels[i] == 0)
        thresholds = {}
        for f in features:
            values = sorted(rows[i][f] for i in train if rows[i][f] is not None)
            k = (2 * len(values) * normal + len(train)) // (2 * len(train))
            thresholds[f] = values[min(max(k, 1), len(values)) - 1]
        for i in folds.test_indices(fold):
            score = sum(
                (Fraction(rows[i][f]) - Fraction(thresholds[f])
                 for f in features if rows[i][f] is not None),
                Fraction(0),
            )
            labels[dataset.ids[i]] = int(score > 0 or (ties_abnormal and score == 0))
    return labels


def oracle_email_labels(messages, model) -> list[str]:
    """The exact email label of each message under ``model``.

    Each active signal's float row (``email_signal_row``) is taken as exact
    rationals. On two labels Dempster's rule gives abnormal strictly greater
    mass iff ΠQ(a) > ΠQ(n), with Q(n) = m_n + m_Θ and Q(a) = m_a + m_Θ, so
    that is the test; an exact tie goes to normal.
    """
    labels = []
    for message in messages:
        qn = qa = Fraction(1)
        for signal in sorted(model.signals):
            m_n, m_a, m_t = (Fraction(v) for v in email_signal_row(message, signal, model))
            qn *= m_n + m_t
            qa *= m_a + m_t
        labels.append("abnormal" if qa > qn else "normal")
    return labels


def reference_class_columns(rows, labels) -> list[list[list[float]]]:
    """Each feature's values split by class 0..2, in row order, ``[f][c]``, by one loop over
    the rows; unequal lengths, no rows and the first label outside 0..2 are errors."""
    if len(rows) != len(labels):
        raise ValueError(f"{len(rows)} rows vs {len(labels)} labels")
    if not rows:
        raise ValueError("no training records")
    n_features = len(rows[0])
    by_class = [[], [], []]
    for features, label in zip(rows, labels):
        if label not in (0, 1, 2):
            raise ValueError(f"class label {label!r} outside 0..2")
        by_class[label].append(features)
    per_class = [list(zip(*records)) or [()] * n_features for records in by_class]
    return [[list(columns[f]) for columns in per_class] for f in range(n_features)]


def grouped_fsv(grouped) -> float:
    """The feature-selection value of lists of values, one list per class: ``bpa._fsv`` of
    each list's ``moments``."""
    return _fsv([moments(values) for values in grouped])


def reference_three_class(rows, labels, frame: Frame) -> ThreeClassModel:
    """The three-class model by per-record scans, without the grouped trainer.

    Every (feature, class) pair filters the rows anew for its observed
    (min, max) and its mean sum/len. Each class group's feature is the
    argmin of ``grouped_fsv`` over the features, each filtered anew,
    skipping degenerate features; ties go to the lowest feature index.
    """
    n_features = len(rows[0])
    bounds, means = [], []
    for f in range(n_features):
        column = [[row[f] for row, label in zip(rows, labels) if label == c] for c in range(3)]
        for c, values in enumerate(column):
            if not values:
                raise ValueError(f"class {c} has no training records")
        bounds.append(tuple((min(values), max(values)) for values in column))
        means.append(tuple(sum(values) / len(values) for values in column))
    selected = {}
    for group in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
        scores = []
        for f in range(n_features):
            grouped = [[row[f] for row, label in zip(rows, labels) if label == c] for c in group]
            try:
                scores.append((grouped_fsv(grouped), f))
            except DegenerateFeatureError:
                continue
        if not scores:
            raise DegenerateFeatureError(f"no usable feature for classes {group}")
        selected[sum(1 << c for c in group)] = min(scores)[1]
    return ThreeClassModel(frame, BoundaryModel(tuple(bounds)), tuple(means), selected)


def oracle_three_class_candidate(step1: dict) -> int:
    """The step-1 candidate of a ``{bits: mass}`` fold: the focal set of greatest
    mass other than the frame, ties to smaller cardinality, then lower bitmask; the
    frame when no other set is focal."""
    full = 0b111
    focal = [bits for bits in step1 if bits != full]
    return min(focal, key=lambda b: (-step1[b], b.bit_count(), b)) if focal else full


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
    rows = []
    for value, class_bounds in zip(record, model.boundaries.bounds):
        v = Fraction(value)
        bits = sum(1 << c for c, (lo, hi) in enumerate(class_bounds) if lo <= v <= hi)
        if bits == 0:
            gaps = [max(Fraction(lo) - v, v - Fraction(hi)) for lo, hi in class_bounds]
            bits = 1 << min(range(3), key=lambda c: (gaps[c], c))
        rows.append({full: 1} if bits == full else {bits: Fraction(9, 10), full: Fraction(1, 10)})
    # Unnormalised masses rank as the normalised ones do: they differ by the factor 1 - K > 0.
    step1 = exact_unnormalised(rows)
    step1.pop(0, None)
    candidate = oracle_three_class_candidate(step1)
    labels = model.frame.labels
    if candidate.bit_count() == 1:
        return labels[candidate.bit_length() - 1], {"decided": "step1"}
    feature = model.selected[candidate]
    v = Fraction(record[feature])
    diffs = [abs(v - Fraction(mean)) for mean in model.means[feature]]
    nearest = min(range(3), key=lambda c: (diffs[c], c))
    final = exact_unnormalised([step1, {1 << nearest: Fraction(8, 10), full: Fraction(2, 10)}])
    winner = min(range(3), key=lambda c: (-final.get(1 << c, Fraction(0)), c))
    group = [labels[c] for c in range(3) if candidate >> c & 1]
    return labels[winner], {"decided": "step3", "feature": feature, "group": group}


def random_mass(frame: Frame, rng: random.Random) -> MassFunction:
    """A random mass function over every nonempty subset of the frame."""
    weights = [rng.random() for _ in range(frame.full_mask)]
    total = sum(weights)
    return MassFunction(frame, {bits: w / total for bits, w in enumerate(weights, start=1)})


def subsets_of(frame: Frame) -> list[int]:
    """The mask of every nonempty subset of the frame."""
    return list(range(1, frame.full_mask + 1))
