"""The three fusion classifiers: binary threshold fusion, three-step
three-class fusion, and table-driven email-signal fusion.

Models are immutable values built by their trainers (or from fixed expert
settings, for email); classification is a pure function of record and
model, so batches may fan out across workers freely. Each classifier decides
on scalars; its prediction builds the fused mass only when that is read. A
binary model shares one prediction per distinct tuple of fitted values, up
to a bound, so a repeated record costs one lookup.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection, Mapping
from contextlib import suppress
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress, product, repeat
from operator import eq, itemgetter, ne
from typing import Callable, Sequence

from .bpa import (
    BINARY_FRAME,
    BoundaryModel,
    MassRow,
    ScaledSigmoidBpa,
    SigmoidBpa,
    TableBpa,
    binary_row_mass,
    boundary_bits,
    class_moments,
    counted_threshold,
    logistic,
    nearest_mean,
    saturation_cutoff,
    scaled_sigmoid_row,
    select_feature,
    table_row,
)
from .evidence import (
    Frame,
    MassFunction,
    TotalConflictError,
    binary_commonalities,
    combine_binary,
    vacuous_mass,
)

MaybeRow = Sequence[float | None]

EMAIL_SIGNALS = (1, 2, 3, 4)


def checked_subset(subset: Collection, allowed: Sequence[int], name: str) -> tuple[int, ...]:
    """``subset`` in ascending order, if it is nonempty, repeats no entry and holds only ints
    (no bool or float) in ``allowed``, consecutive ints; else a ValueError naming ``name``."""
    if not subset:
        raise ValueError(f"{name} subset must be nonempty")
    for entry in subset:
        if type(entry) is not int:
            raise ValueError(f"{name} {entry!r} is not an int")
        if entry not in allowed:
            span = f"{allowed[0]}..{allowed[-1]}" if allowed else "the empty set"
            raise ValueError(f"{name} {entry} outside {span}")
    if len(set(subset)) != len(subset):
        raise ValueError(f"{name} subset {list(subset)} repeats an entry")
    return tuple(sorted(subset))


@dataclass(eq=False)
class Prediction:
    """A label, the fused mass function behind it, and a decision trace.

    The mass is ``build(frame, *args)``, built on first read and kept;
    a module-level ``build`` and plain-data ``args`` keep it picklable. A
    prediction and its trace are read-only, so either may be shared.
    """

    label: str
    frame: Frame
    trace: Mapping[str, object]
    build: Callable[..., MassFunction] = field(repr=False)
    args: tuple = field(repr=False)

    def __post_init__(self) -> None:
        if self.label not in self.frame.labels:
            raise ValueError(f"label {self.label!r} is not a frame singleton")

    @cached_property
    def mass(self) -> MassFunction:
        return self.build(self.frame, *self.args)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prediction):
            return NotImplemented
        return (self.label, self.mass, self.trace) == (other.label, other.mass, other.trace)


@dataclass(frozen=True)
class BinaryModel:
    """One sigmoid threshold per feature, over the {normal, abnormal} frame.

    A feature the trainer was not asked to fit holds None and is not fused;
    at least one feature is fitted.
    """

    bpas: tuple[SigmoidBpa | None, ...]
    normal_fraction: float

    def __post_init__(self) -> None:
        if not 0 < self.normal_fraction < 1:  # NaN fails this too
            raise ValueError(f"normal_fraction {self.normal_fraction} is not between 0 and 1")
        if not self.fitted:
            raise ValueError("binary model must fit at least one feature")

    @cached_property
    def fitted(self) -> tuple[tuple[int, float], ...]:
        """The (feature, threshold) pairs this model fuses, in index order."""
        return tuple((f, bpa.threshold) for f, bpa in enumerate(self.bpas) if bpa is not None)

    @cached_property
    def terms(self) -> tuple[dict, Callable[[MaybeRow], Sequence], tuple[float, ...], dict]:
        """For :func:`classify_binary`: the one trace of the records that use every fitted
        feature, a getter of a record's values on them that always returns a sequence, the
        negated thresholds, and the shared predictions keyed by that getter's result."""
        features = [f for f, _ in self.fitted]
        first = features[0]
        get = itemgetter(*features) if len(features) > 1 else itemgetter(slice(first, first + 1))
        return {"features": features}, get, tuple(-t for _, t in self.fitted), {}


def train_binary(
    rows: Sequence[MaybeRow], labels: Sequence[int], features: Sequence[int] | None = None
) -> BinaryModel:
    """Fit thresholds for ``features`` (default all; else a :func:`checked_subset`
    of the row's features) from labelled rows (label 1 = abnormal); the other
    features' slots hold None, so the model fuses exactly ``features``.

    Missing cells (None) are dropped from their feature column; the
    threshold rank scales with the values actually present.
    """
    # Every record in fold 0, and fold None holds none of them out.
    return train_binary_folds(rows, labels, (0,) * len(rows), features)(None)


def _fold_arity(rows: Sequence[Sequence], labels: Sequence[int], held_out: Sequence[int]) -> int:
    # The fold trainers' one input check: a label and a fold id per row, and rows of one
    # length, which it returns (0 for no rows); each failure is a ValueError.
    if len(rows) != len(labels):
        raise ValueError(f"{len(rows)} rows vs {len(labels)} labels")
    if len(held_out) != len(rows):
        raise ValueError(f"{len(held_out)} fold ids for {len(rows)} rows")
    n = len(rows[0]) if rows else 0
    if len(set(map(len, rows))) > 1:
        i = next(i for i, row in enumerate(rows) if len(row) != n)
        raise ValueError(f"row {i} has {len(rows[i])} values, row 0 has {n}")
    return n


def train_binary_folds(
    rows: Sequence[MaybeRow],
    labels: Sequence[int],
    held_out: Sequence[int],
    features: Sequence[int] | None = None,
) -> Callable[[int | None], BinaryModel]:
    """:func:`train_binary` for every fold at once, its ``features`` checked here, once.
    Record i is held out of fold ``held_out[i]``, and ``fit(fold)`` returns the model, or
    raises the error, of ``train_binary`` on the other records (``fit(None)``: all).

    One pass per fitted feature counts each value's records per fold; a
    fold's training count of a value is its total less the fold's own. A
    threshold is an order statistic, picked with no arithmetic on the
    values, so the counts give the bits a sort of each fold's column gives.
    """
    n, n_features = len(rows), _fold_arity(rows, labels, held_out)
    allowed = range(n_features)
    features = allowed if features is None else checked_subset(features, allowed, "feature")
    per_fold = Counter(zip(labels, held_out))
    sizes, classes = Counter(), Counter()  # records per fold, and per label
    for (label, g), c in per_fold.items():
        sizes[g] += c
        classes[label] += c
    # Per fitted feature: its (value, fold) counts, value totals, distinct finite values
    # ascending, and its non-finite (value, fold) cells in index order.
    counted = {}
    for f in features:
        cells = Counter(zip(map(itemgetter(f), rows), held_out))
        totals: Counter = Counter()
        for (value, _), c in cells.items():
            totals[value] += c
        present = [v for v in totals if v is not None]
        ascending = sorted(filter(math.isfinite, present))
        non_finite = [] if len(ascending) == len(present) else [
            (row[f], g) for row, g in zip(rows, held_out)
            if row[f] is not None and not math.isfinite(row[f])
        ]
        counted[f] = cells, totals, ascending, non_finite

    def fit(fold: int | None) -> BinaryModel:
        total = n - sizes[fold]
        normal, abnormal = (classes[c] - per_fold[c, fold] for c in (0, 1))
        if normal + abnormal != total:
            bad = next(c for c, g in zip(labels, held_out) if g != fold and c not in (0, 1))
            raise ValueError(f"class label {bad!r} outside 0..1")
        if not normal or not abnormal:
            raise ValueError("training data must contain both normal and abnormal records")
        bpas: list[SigmoidBpa | None] = [None] * n_features
        for f, (cells, totals, ascending, non_finite) in counted.items():
            if total - totals[None] + cells[None, fold] == 0:
                raise ValueError(f"feature {f} has no non-missing training values")
            bad = next((v for v, g in non_finite if g != fold), None)
            if bad is not None:
                raise ValueError(f"feature value must be finite, got {bad} in feature {f}")
            bpas[f] = SigmoidBpa(counted_threshold(
                [(v, totals[v] - cells[v, fold]) for v in ascending], normal, total
            ))
        return BinaryModel(tuple(bpas), normal / total)

    return fit


# The most predictions one binary model shares. A WBCD fold tests about 70 records and the
# whole set has 463 distinct rows, so a cross-validation never meets it; it caps the memory
# a long-lived model holds when it classifies a stream of distinct records.
_SHARED_BOUND = 1024


def classify_binary(record: MaybeRow, model: BinaryModel) -> Prediction:
    """Fuse one sigmoid mass per fitted feature that has a value.

    With no mass on the whole frame, Dempster's rule over {normal, abnormal}
    multiplies the features' odds e^(v_f - t_f), so the fused abnormal mass
    is logistic(S) for S the sum of (v_f - t_f) over the used features, and
    the record is abnormal iff S > 0. S is taken exactly (``math.fsum`` is
    correctly rounded, so its sign is exact; a sum beyond the float range is
    taken with ``Fraction``) and ties go to normal. The
    reported mass (logistic(-S), logistic(S)) comes from S alone: no
    per-feature mass is built, and ``sigmoid_mass``'s saturation clamp
    cannot turn a log-odds tie into total conflict. A record with no value
    for any fitted feature carries no evidence, so nothing says abnormal:
    it is normal, with the vacuous mass. The record holds one value per
    model slot.

    A record is first summed in one ``math.fsum`` of its fitted values and
    the negated thresholds: ``fsum`` returns inf or nan, or raises, when a
    term is not a finite number, so a finite sum decides the record. Any
    other record (a None, non-finite, non-numeric or overflowing value)
    takes the checked loop. The exact sum does not depend on the terms'
    order; only the loop's clamp of a sum that overflows midway can, past
    ±1000, where the mass is saturated either way.

    A model shares one prediction per distinct tuple of fitted values: the
    first record with those values is decided and its prediction kept, up to
    ``_SHARED_BOUND`` of them, and every later record whose values compare
    equal (``3`` and ``3.0``, ``True`` and ``1``) gets that same object.
    Equal values give the same label, trace and mass: the trace depends only
    on which values are None, and the exact sum of equal values rounds to the
    same float. The one difference a fresh decision could show is the sign
    of a score that is exactly zero, as ``0`` and ``-0.0`` give ``args``
    ``(0.0,)`` and ``(-0.0,)``; both are normal with mass 0.5/0.5. An error is
    not kept, so it is raised anew, and values that cannot be hashed (a list
    record's one-value slice) are decided each time.
    """
    if len(record) != len(model.bpas):
        raise ValueError(f"record has {len(record)} values, model has {len(model.bpas)} features")
    _, get, _, shared = model.terms
    key = get(record)
    try:
        pred = shared.get(key)
    except TypeError:  # a list record's one-value slice, or a list value: never shared
        return _binary_prediction(record, model)
    if pred is None:
        pred = _binary_prediction(record, model)
        if len(shared) < _SHARED_BOUND:
            shared[key] = pred
    return pred


def _binary_prediction(record: MaybeRow, model: BinaryModel) -> Prediction:
    # classify_binary's decision of a record of the model's length: the score of the one fsum,
    # else of the checked loop, then the one decision rule.
    trace, get, negated, _ = model.terms
    try:  # a None or a non-numeric value is a TypeError, inf and -inf a ValueError
        score = math.fsum((*get(record), *negated))
    except (TypeError, ValueError, OverflowError):  # the checked loop skips, raises or clamps
        score = math.nan
    if not math.isfinite(score):
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
        trace = {"features": used}
        try:
            score = math.fsum(terms)
        except OverflowError:
            # Beyond the float range: logistic saturates past 709, so clamp the exact sum.
            score = float(min(max(sum(map(Fraction, terms)), -1000), 1000))
    label = "abnormal" if score > 0 else "normal"
    return Prediction(label, BINARY_FRAME, trace, _score_mass, (score,))


def _score_mass(frame: Frame, score: float) -> MassFunction:
    # The mass of log-odds ``score``: (logistic(-score), logistic(score)).
    return combine_binary(frame, [(logistic(-score), logistic(score), 0.0)])


# The class groups a step-1 candidate can be, as bitmasks: every pair, and all three.
_GROUPS = (0b011, 0b101, 0b110, 0b111)


@dataclass(frozen=True)
class ThreeClassModel:
    """Range boundaries, per-feature class means, and the per-group feature picks."""

    frame: Frame
    boundaries: BoundaryModel
    means: tuple[tuple[float, ...], ...]
    selected: Mapping[int, int] = field(hash=False)

    def __post_init__(self) -> None:
        if self.frame.size != 3:
            raise ValueError("three-class model needs a frame of exactly 3 labels")
        if len(self.means) != len(self.boundaries.bounds):
            raise ValueError("means and boundaries must cover the same features")
        if not self.means:
            raise ValueError("three-class model needs at least one feature")
        if not all(math.isfinite(m) for row in self.means for m in row):
            raise ValueError(f"class means must be finite: {self.means}")
        for f, (class_bounds, means) in enumerate(zip(self.boundaries.bounds, self.means)):
            if len(class_bounds) != 3 or len(means) != 3:
                raise ValueError(f"feature {f} needs three class ranges and three class means")
        if set(self.selected) != set(_GROUPS):
            raise ValueError(f"selected must map exactly the class groups {list(_GROUPS)}")
        last = len(self.means) - 1
        for group, f in self.selected.items():
            if not (isinstance(f, int) and 0 <= f <= last):
                raise ValueError(f"group {group} selects feature {f!r}, outside 0..{last}")


def train_three_class(
    rows: Sequence[Sequence[float]], labels: Sequence[int], frame: Frame
) -> ThreeClassModel:
    """Fit boundaries, class means, and the per-class-group feature choices
    from labelled rows (labels 0..2, no missing values).

    Each feature's values are grouped by class once; the ranges, means and
    selection scores all come from those lists' :class:`~dsfusion.bpa.Moments`.
    """
    return train_three_class_folds(rows, labels, (0,) * len(rows), frame)(None)


def train_three_class_folds(
    rows: Sequence[Sequence[float]], labels: Sequence[int], held_out: Sequence[int], frame: Frame
) -> Callable[[int | None], ThreeClassModel]:
    """:func:`train_three_class` for every fold at once. Record i is held out of
    fold ``held_out[i]``, and ``fit(fold)`` returns the model, or raises the
    error, of ``train_three_class`` on the other records (``fit(None)``: all).

    Each class's rows and fold ids are grouped once, in index order; a fold
    keeps each class's rows outside it and turns them into feature columns,
    so its columns hold the values, in the order, of its own rows'. Unequal
    lengths and ragged rows are refused here; every other check, when a fold is fitted.
    """
    n_features = _fold_arity(rows, labels, held_out)
    sizes = Counter(held_out)
    outside = [] if set(labels) <= {0, 1, 2} else [
        (label, g) for label, g in zip(labels, held_out) if label not in (0, 1, 2)
    ]
    class_rows = [list(compress(rows, map(eq, labels, repeat(c)))) for c in range(3)]
    homes = [list(compress(held_out, map(eq, labels, repeat(c)))) for c in range(3)]

    def fit(fold: int | None) -> ThreeClassModel:
        if sizes[fold] == len(rows):
            raise ValueError("no training records")
        for label in (label for label, g in outside if g != fold):
            raise ValueError(f"class label {label!r} outside 0..2")
        # zip(*records) turns a class's kept records into its feature columns; a class with
        # none gets empty ones, which class_moments rejects.
        stats = class_moments(list(zip(*[
            list(zip(*compress(records, map(ne, g, repeat(fold))))) or [()] * n_features
            for records, g in zip(class_rows, homes)
        ])))
        boundaries = tuple(tuple((m.lo, m.hi) for m in per_class) for per_class in stats)
        means = tuple(tuple(m.mean for m in per_class) for per_class in stats)
        selected = {
            bits: select_feature(stats, [c for c in range(3) if bits >> c & 1]) for bits in _GROUPS
        }
        return ThreeClassModel(frame, BoundaryModel(boundaries), means, selected)

    return fit


def _three_class_mass(frame: Frame, focal_sets: Sequence[int], nearest: int | None) -> MassFunction:
    # Dempster's rule of the rows ``_fused_masses`` states: each unnormalised mass over 1 - K,
    # both at the integers' scale. int / int is correctly rounded, so each is rounded once.
    m = _fused_masses(focal_sets, nearest)
    norm = sum(m) - m[0]
    return MassFunction(frame, {a: m[a] / norm for a in range(1, 8)})


def _fused_masses(key: Sequence[int], nearest: int | None = None) -> list[int]:
    # Every unnormalised mass m[A], ∅ included, of the boundary rows on focal sets ``key`` and,
    # if given, the distance row on class ``nearest``, as integers of one positive scale
    # sum(m): the Möbius inversion of the scaled commonalities q (see classify_three_class).
    # m[0] / sum(m) is the conflict K. A boundary row {S: 9/10, Θ: 1/10}, scaled by 10, has
    # commonality 10 on each subset of S and 1 elsewhere; the distance row {c: 4/5, Θ: 1/5},
    # scaled by 5, has 5 on ∅ and {c} and 1 elsewhere.
    q = [10 ** sum(b & s == b for s in key) for b in range(8)]
    if nearest is not None:
        c = 1 << nearest
        q = [q[b] * (5 if b | c == c else 1) for b in range(8)]
    return [sum((-1) ** (b ^ a).bit_count() * q[b] for b in range(8) if b & a == a)
            for a in range(8)]


@cache
def _step1(key: tuple[int, ...]) -> int:
    # The step-1 candidate. Θ always holds mass, so a set that holds none sorts last; each
    # non-vacuous row gives its set 9× Θ's mass, so Θ wins only when it is the sole focal set.
    m = _fused_masses(key)
    return min(range(1, 8), key=lambda a: (-m[a], a.bit_count(), a))


def classify_three_class(record: Sequence[float], model: ThreeClassModel) -> Prediction:
    """Classify in up to three steps.

    Step 1 fuses the per-feature boundary masses and takes the focal
    element of greatest mass (ignoring the frame); a singleton decides
    immediately. Otherwise step 2 assigns a nearest-mean mass on the
    feature selected for the candidate group, and step 3 fuses it with the
    step-1 result and picks the singleton with the highest belief: always
    the nearest class, so that class is the label.

    Step 1 is decided in integers. A boundary row is {S: 9/10, Θ: 1/10};
    Dempster's rule multiplies commonalities (Shafer 1976, ch. 3), so the
    fused commonality of every B ⊆ Θ, ∅ included, is Q(B) = 10^n(B) up to
    one positive scale, n(B) the rows whose focal set holds B. Each
    unnormalised mass is the Möbius inversion
    m(A) = Σ over B ⊇ A of (−1)^|B∖A| · Q(B), and m(∅)/Q(∅) is the conflict
    K of all the rows, below 1 as Θ keeps mass. So rounding cannot pick
    the leader of a near-tie, and exact ties, such as step 1's sources for
    two classes in turn, follow the documented order: the least
    (−m(A), |A|, A). At step 3 the distance row on the nearest class c,
    {c: 4/5, Θ: 1/5}, gives c 4/5 of every set that holds it and leaves
    any other class x 1/5 of its step-1 mass. If c
    is in the candidate group G, c gets at least 4/5 of m(G) > m({x}); if
    not, G is a pair whose singletons both have no mass (one with mass
    would lead G), and c gets 4/5 of m(Θ) > 0. So c wins, with no tie.

    Step 1 is looked up by the rows' focal sets: ``_step1`` keys on their
    sorted tuple, as n(B) does not depend on the rows' order. The keys do
    not depend on the model; four features have at most 210 (multisets of
    4 over the 7 focal sets). A record holds one value per model feature.

    The prediction keeps the focal sets in feature order and the nearest
    class (None at step 1). Its mass, built on first read, is the exact
    Dempster fold of the boundary rows and, at step 3, the distance row,
    rounded once: each of ``_fused_masses``' integers over their 1 - K, in
    one int division. So the mass reads the label's order: at step 1 its leader is the
    candidate, at step 3 the label has the greatest singleton mass.
    """
    if len(record) != len(model.means):
        raise ValueError(f"record has {len(record)} values, model has {len(model.means)} features")
    try:
        focal_sets = tuple([
            boundary_bits(record[f], class_bounds)
            for f, class_bounds in enumerate(model.boundaries.bounds)
        ])
    except TypeError:  # a None cell meets the range comparison
        if None not in record:
            raise
        raise ValueError(f"feature {list(record).index(None)} has a missing value") from None
    candidate = _step1(tuple(sorted(focal_sets)))
    frame = model.frame
    if candidate.bit_count() == 1:
        label = frame.labels[candidate.bit_length() - 1]
        return Prediction(label, frame, {"decided": "step1"}, _three_class_mass, (focal_sets, None))
    feature = model.selected[candidate]
    nearest = nearest_mean(record[feature], model.means[feature])
    trace = {"decided": "step3", "feature": feature, "group": list(frame.labels_of(candidate))}
    return Prediction(frame.labels[nearest], frame, trace, _three_class_mass, (focal_sets, nearest))


@dataclass(frozen=True)
class EmailModel:
    """Expert-set mass assignments for the four email signals, and the
    signals the classifier fuses."""

    interval_bpa: ScaledSigmoidBpa
    spoofed_bpa: TableBpa
    dangerous_bpa: TableBpa
    benign_bpa: TableBpa
    signals: frozenset[int] = frozenset(EMAIL_SIGNALS)

    def __post_init__(self) -> None:
        if type(self.signals) is not frozenset:
            raise ValueError(f"signals must be a frozenset, got {self.signals!r}")
        checked_subset(self.signals, EMAIL_SIGNALS, "signal")

    @cached_property
    def table(self) -> tuple:
        """For :func:`classify_email`: the sorted active signals, ``by_flags`` (dicts keyed 0/1;
        ``by_flags[s][d][b]`` is the one :class:`Prediction` of the message (∞, s, d, b), or None
        near total conflict), and the cutoff: an entry serves every interval ≥ the cutoff, the
        least float ≥ 0 that logistic saturates at (:func:`saturation_cutoff`; fl(threshold - x)
        never increases with x, so the saturated floats are exactly those from it on), or every
        interval when the cutoff is None (no signal 1, so the interval is never read)."""
        signals = tuple(sorted(self.signals))
        by_flags = {s: {d: dict.fromkeys((0, 1)) for d in (0, 1)} for s in (0, 1)}
        for s, d, b in product((0, 1), repeat=3):
            with suppress(TotalConflictError):  # then each message takes the path that raises
                by_flags[s][d][b] = _email_prediction((math.inf, s, d, b), signals, self)
        cutoff = saturation_cutoff(self.interval_bpa.threshold) if signals[0] == 1 else None
        return signals, by_flags, cutoff

    @cached_property
    def trace(self) -> Mapping[str, object]:
        """The trace of every :func:`classify_email` prediction of this model, built once."""
        return {"signals": sorted(self.signals)}


def email_model_default() -> EmailModel:
    """The stock email model: sigmoid interval signal plus three table signals."""
    return EmailModel(
        interval_bpa=ScaledSigmoidBpa(threshold=30.0, floor=0.3, ceiling=0.7, theta_mass=0.01),
        spoofed_bpa=TableBpa(((0.9, 0.09, 0.01), (0.1, 0.89, 0.01))),
        dangerous_bpa=TableBpa(((0.8, 0.19, 0.01), (0.2, 0.79, 0.01))),
        benign_bpa=TableBpa(((0.6, 0.39, 0.01), (0.4, 0.59, 0.01))),
    )


def email_signal_row(message: Sequence[float], signal: int, model: EmailModel) -> MassRow:
    """The (m_normal, m_abnormal, m_theta) one signal assigns to one message."""
    interval, spoofed, dangerous, benign = message
    if signal == 1:
        return scaled_sigmoid_row(interval, model.interval_bpa)
    if signal == 2:
        return table_row(spoofed, model.spoofed_bpa)
    if signal == 3:
        return table_row(dangerous, model.dangerous_bpa)
    if signal == 4:
        return table_row(benign, model.benign_bpa)
    raise ValueError(f"unknown signal {signal}")


def email_signal_mass(message: Sequence[float], signal: int, model: EmailModel) -> MassFunction:
    """The mass one signal assigns to one message."""
    return binary_row_mass(email_signal_row(message, signal, model))


def classify_email(message: Sequence[float], model: EmailModel) -> Prediction:
    """Abnormal iff ΠQ(a) > ΠQ(n) over the signals' rows: on two labels, iff Dempster's rule
    gives abnormal strictly greater mass (ties go to normal). ``binary_commonalities`` takes
    the products and raises near total conflict, so a message raises where ``combine_binary``,
    which builds the mass on read, does. A message holds the four values
    ``email_signal_row`` reads, whichever signals are fused.

    A message with three 0/1 flags gets its table entry, the prediction of (∞, *flags), when
    signal 1 is off or its interval is at least the model's cutoff: fl(threshold - x) never
    increases with x, so the intervals on which logistic saturates to 0 are exactly those
    from one float on (:func:`saturation_cutoff`), and one comparison decides a float. An int
    or a Fraction compares exactly, so at worst it takes the per-message path to the same
    answer; an int beyond the float range or a Decimal past the cutoff gets the entry, where
    the per-message path raises on the subtraction. Every other message builds its rows."""
    try:  # unpacking is the length check, and cheaper than len() on the hot path
        interval, spoofed, dangerous, benign = message
    except ValueError:
        raise ValueError(f"message has {len(message)} values, expected 4") from None
    signals, by_flags, cutoff = model.table
    try:
        entry = by_flags[spoofed][dangerous][benign]
    except (LookupError, TypeError):  # not three 0/1 flags: email_signal_row raises in signal order
        entry = None
    # From the cutoff on, the interval row is the floor row, that of ∞.
    if entry is not None and (cutoff is None or interval >= cutoff):
        return entry
    return _email_prediction(message, signals, model)


def _email_prediction(
    message: Sequence[float], signals: Sequence[int], model: EmailModel
) -> Prediction:
    # The per-message path: the rows of ``signals`` in order, and the one decision rule.
    rows = tuple(email_signal_row(message, s, model) for s in signals)
    return Prediction(_email_label(rows), BINARY_FRAME, model.trace, combine_binary, (rows,))


def _email_label(rows: Sequence[MassRow]) -> str:
    qn, qa, qt = binary_commonalities(rows)  # raises near total conflict, as combine_binary does
    # The float ΠQ of up to four rows err by under 8 units of 2^-53 (a rounding per commonality
    # and product), so a wider gap has the exact sign; 2^-1000 covers underflow.
    if abs(qa - qn) <= 2.0**-49 * (qa + qn) + 2.0**-1000:
        qn, qa = (math.prod(Fraction(r[i]) + Fraction(r[2]) for r in rows) for i in (0, 1))
    return "abnormal" if qa > qn else "normal"


Classifier = BinaryModel | ThreeClassModel | EmailModel

# The JSON kind tag of every model class. A model's JSON is its tag, then each field in
# order under its name, or under the key _KEYS gives it.
_KINDS = {SigmoidBpa: "sigmoid", ScaledSigmoidBpa: "scaled_sigmoid", TableBpa: "table",
          BoundaryModel: "boundary", BinaryModel: "binary", ThreeClassModel: "three_class",
          EmailModel: "email"}
_KEYS = {"frame": "labels", "interval_bpa": "interval", "spoofed_bpa": "spoofed",
         "dangerous_bpa": "dangerous", "benign_bpa": "benign"}


def _encode(value):
    # A model becomes its JSON object, a frame its labels, a set its entries in ascending
    # order, and a mapping an object with its keys in ascending order, as strings.
    if type(value) in _KINDS:
        items = ((_KEYS.get(f.name, f.name), getattr(value, f.name)) for f in fields(value))
        return {"kind": _KINDS[type(value)], **{key: _encode(v) for key, v in items}}
    if isinstance(value, Frame):
        return list(value.labels)
    if isinstance(value, (tuple, frozenset)):
        return [_encode(v) for v in (sorted(value) if isinstance(value, frozenset) else value)]
    if isinstance(value, Mapping):
        return {str(key): _encode(value[key]) for key in sorted(value)}
    return value


def classifier_to_dict(model: Classifier) -> dict:
    """JSON-ready dict for a classifier: its kind tag, then its fields, models nested."""
    if not isinstance(model, Classifier):
        raise TypeError(f"not a classifier: {type(model).__name__}")
    if isinstance(model, BinaryModel) and None in model.bpas:
        raise ValueError(
            f"feature {model.bpas.index(None)} has no fitted threshold; "
            "a model dump must describe every feature"
        )
    return _encode(model)
