"""Basic-probability-assignment builders and their training helpers.

Four families of mass assignment are provided: a plain sigmoid around a
trained threshold (binary frames), a scaled sigmoid with explicit floor,
ceiling and ignorance mass, a lookup table for binary signals, and two
three-class assignments driven by per-class value ranges and per-class
means. Training helpers derive the thresholds, ranges, means and the
feature-selection scores from labelled samples; the three-class ones read
the samples grouped once by feature and class (:func:`class_columns`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Sequence

from .evidence import Frame, MassFunction, make_frame

BINARY_LABELS = ("normal", "abnormal")
BINARY_FRAME = make_frame(BINARY_LABELS)

ROW_TOL = 1e-9

# sigmoid_mass clamps saturated sigmoids so both hypotheses keep a sliver
# of mass. The clamp shapes that builder's output only: classify_binary
# fuses the exact log-odds sum, so the clamp decides no label.
MASS_EPS = 1e-15

Sample = tuple[Sequence[float], int]
# One source's (m_normal, m_abnormal, m_theta) over the binary frame.
MassRow = tuple[float, float, float]
# Training values grouped by feature, then by class 0..2.
Columns = list[list[list[float]]]

# The whole three-class frame as a bitmask.
THREE_CLASS_FULL = 0b111


class DegenerateFeatureError(ValueError):
    """A feature whose pooled values have zero spread cannot be scored."""


def logistic(x: float) -> float:
    """1 / (1 + e^-x), saturating to exactly 0 or 1 where ``math.exp`` would overflow."""
    if x > 709:
        return 1.0
    if x < -709:
        return 0.0
    return 1.0 / (1.0 + math.exp(-x))


class Moments(NamedTuple):
    """One class's values on one feature: count, sum, mean = sum / count, the
    sum of squared deviations M2 = Σ(v - mean)², the sample sd, and the
    (min, max) range."""

    n: int
    total: float
    mean: float
    m2: float
    sd: float  # sample (n-1) standard deviation sqrt(M2 / (n - 1)), 0 for one value
    lo: float
    hi: float


# The moments of the training columns, grouped like them: ``[f][c]``.
ClassMoments = list[list[Moments]]


def moments(values: Sequence[float]) -> Moments:
    """The :class:`Moments` of a nonempty list of values.

    Values that all equal one another have M2 exactly 0: their float mean
    ``sum / n`` can miss the common value by an ulp, which would leave a
    spurious spread.
    """
    n = len(values)
    if not n:
        raise ValueError("moments need at least one value")
    total = sum(values)
    mean = total / n
    lo, hi = min(values), max(values)
    m2 = 0.0 if lo == hi else sum([(v - mean) ** 2 for v in values])
    sd = math.sqrt(m2 / (n - 1)) if n > 1 else 0.0
    return Moments(n, total, mean, m2, sd, lo, hi)


def mean_sd(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample (n-1) standard deviation, 0 for a single value, in plain
    floats: statistics.stdev's exact-fraction path is needlessly slow here."""
    m = moments(values)
    return m.mean, m.sd


@dataclass(frozen=True)
class SigmoidBpa:
    """Mass assignment sliding from normal to abnormal around a threshold."""

    threshold: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")


@dataclass(frozen=True)
class ScaledSigmoidBpa:
    """Sigmoid squeezed between a floor and ceiling, with fixed ignorance mass."""

    threshold: float
    floor: float
    ceiling: float
    theta_mass: float

    def __post_init__(self) -> None:
        if not 0 <= self.floor < self.ceiling <= 1:
            raise ValueError(f"need 0 <= floor < ceiling <= 1, got {self.floor}, {self.ceiling}")
        if not 0 < self.theta_mass < 1:
            raise ValueError(f"theta_mass must be in (0, 1), got {self.theta_mass}")
        if self.ceiling + self.theta_mass > 1 + 1e-12:
            raise ValueError("ceiling + theta_mass exceeds 1; abnormal mass would go negative")


@dataclass(frozen=True)
class TableBpa:
    """Per-signal-value rows of (m_normal, m_abnormal, m_theta), indexed 0/1."""

    rows: tuple[MassRow, MassRow]

    def __post_init__(self) -> None:
        for value, row in enumerate(self.rows):
            if len(row) != 3 or any(not 0 <= v <= 1 for v in row):
                raise ValueError(f"row {value} entries must lie in [0, 1]: {row}")
            if abs(sum(row) - 1.0) > ROW_TOL:
                raise ValueError(f"row {value} sums to {sum(row)!r}, expected 1")


@dataclass(frozen=True)
class BoundaryModel:
    """Observed (min, max) value range per feature and class."""

    bounds: tuple[tuple[tuple[float, float], ...], ...]

    def __post_init__(self) -> None:
        for f, per_class in enumerate(self.bounds):
            for c, (lo, hi) in enumerate(per_class):
                if lo > hi:
                    raise ValueError(f"feature {f} class {c}: min {lo} exceeds max {hi}")


def modified_median_threshold(
    values: Sequence[float], normal_count: int, total_count: int
) -> float:
    """The k-th smallest value, with k set by the normal-class fraction.

    k = round(len(values) * normal_count / total_count), clamped to a valid
    1-based rank. ``normal_count`` and ``total_count`` describe the training
    labels; ``values`` may be a subset of the training column (e.g. with
    missing cells removed), in which case k scales with it.
    """
    if not values:
        raise ValueError("cannot take a threshold of an empty value list")
    if not 0 < normal_count < total_count:
        raise ValueError(f"need 0 < normal_count < total_count, got {normal_count}/{total_count}")
    k = math.floor(len(values) * normal_count / total_count + 0.5)
    k = min(max(k, 1), len(values))
    return sorted(values)[k - 1]


def sigmoid_mass(value: float, bpa: SigmoidBpa) -> MassFunction:
    """m(normal) = 1 / (1 + e^(value - threshold)); the rest goes to abnormal.

    Saturation is clamped to ``MASS_EPS`` so both singletons stay focal.
    """
    if not math.isfinite(value):
        raise ValueError(f"feature value must be finite, got {value}")
    m_normal = logistic(bpa.threshold - value)
    m_normal = min(max(m_normal, MASS_EPS), 1.0 - MASS_EPS)
    return MassFunction(BINARY_FRAME, {1: m_normal, 2: 1.0 - m_normal})


def binary_row_mass(row: MassRow) -> MassFunction:
    """The validated mass function of one (m_normal, m_abnormal, m_theta) row."""
    m_normal, m_abnormal, m_theta = row
    return MassFunction(BINARY_FRAME, {1: m_normal, 2: m_abnormal, 3: m_theta})


# The classifiers fuse rows directly, so these caches serve only the public
# mass builders. The sigmoid saturates outside a narrow band, so keying the
# scaled one on the computed row keeps it small.
_scaled_mass_cached = lru_cache(maxsize=8192)(binary_row_mass)
_table_mass_cached = lru_cache(maxsize=None)(binary_row_mass)


def scaled_sigmoid_row(value: float, bpa: ScaledSigmoidBpa) -> MassRow:
    """The row of :func:`scaled_sigmoid_mass`, without building the mass function."""
    if not value >= 0:
        raise ValueError(f"signal value must be non-negative, got {value}")
    m_normal = (bpa.ceiling - bpa.floor) * logistic(bpa.threshold - value) + bpa.floor
    return m_normal, 1.0 - m_normal - bpa.theta_mass, bpa.theta_mass


def scaled_sigmoid_mass(value: float, bpa: ScaledSigmoidBpa) -> MassFunction:
    """Sigmoid mass between floor and ceiling, with fixed ignorance mass."""
    return _scaled_mass_cached(scaled_sigmoid_row(value, bpa))


def table_row(signal_value: int, bpa: TableBpa) -> MassRow:
    """The row of :func:`table_mass`, without building the mass function."""
    if signal_value not in (0, 1):
        raise ValueError(f"binary signal value must be 0 or 1, got {signal_value!r}")
    return bpa.rows[signal_value]


def table_mass(signal_value: int, bpa: TableBpa) -> MassFunction:
    """Exact row lookup for a binary signal."""
    return _table_mass_cached(table_row(signal_value, bpa))


def class_columns(samples: Sequence[Sample]) -> Columns:
    """Each feature's values split by class 0..2, in sample order: ``[f][c]``."""
    n_features = len(samples[0][0])
    by_class: list[list[Sequence[float]]] = [[], [], []]
    for features, label in samples:
        by_class[label].append(features)
    # zip(*records) turns one class's records into its feature columns; a
    # class with no records gets empty ones, which class_moments rejects.
    per_class = [list(zip(*records)) or [()] * n_features for records in by_class]
    return [[list(columns[f]) for columns in per_class] for f in range(n_features)]


def class_moments(columns: Columns) -> ClassMoments:
    """The :class:`Moments` of every :func:`class_columns` list, ``[f][c]``."""
    for per_class in columns:
        for c, values in enumerate(per_class):
            if not values:
                raise ValueError(f"class {c} has no training records")
    return [[moments(values) for values in per_class] for per_class in columns]


def fit_boundaries(stats: ClassMoments) -> BoundaryModel:
    """Observed (min, max) per feature and class, from :func:`class_moments`."""
    return BoundaryModel(tuple(tuple((m.lo, m.hi) for m in per_class) for per_class in stats))


def _nearest_class(value: float, refs: Sequence[tuple[float, ...]], gap: Callable) -> int:
    # The class whose reference (a range, a mean) has the smallest gap(value,
    # *ref), ties to the lowest class. Rounding is monotone, so classes
    # whose float gaps differ are in exact order; only a float tie, which
    # rounding may have made, is decided again on exact gaps.
    gaps = [gap(value, *ref) for ref in refs]
    best = min(gaps)
    tied = [c for c, g in enumerate(gaps) if g == best]
    if len(tied) == 1:
        return tied[0]
    exact = Fraction(value)
    return min(tied, key=lambda c: (gap(exact, *map(Fraction, refs[c])), c))


def boundary_row(
    value: float, class_bounds: Sequence[tuple[float, float]], confidence: float = 0.9
) -> dict[int, float]:
    """The ``{bits: mass}`` of :func:`boundary_mass`, without building the mass function."""
    if len(class_bounds) != 3:
        raise ValueError("boundary assignment is defined over exactly three classes")
    bits = 0
    for c, (lo, hi) in enumerate(class_bounds):
        if lo <= value <= hi:
            bits |= 1 << c
    if bits == THREE_CLASS_FULL:
        return {THREE_CLASS_FULL: 1.0}
    if bits == 0:
        bits = 1 << _nearest_class(value, class_bounds, lambda v, lo, hi: max(lo - v, v - hi))
    return {bits: confidence, THREE_CLASS_FULL: 1.0 - confidence}


def boundary_mass(
    value: float,
    class_bounds: Sequence[tuple[float, float]],
    frame: Frame,
    confidence: float = 0.9,
) -> MassFunction:
    """Mass from range membership: which classes' observed range holds the value.

    The membership set gets ``confidence`` and the frame the remainder;
    membership in every class collapses to total ignorance, membership in
    none falls back to the class whose range is nearest.
    """
    if frame.size != 3:
        raise ValueError("boundary assignment is defined over exactly three classes")
    return MassFunction(frame, boundary_row(value, class_bounds, confidence))


def _fsv(group: Sequence[Moments]) -> float:
    # The feature-selection value from the classes' moments. The union's M2
    # pools theirs (Chan, Golub & LeVeque 1979): Σ M2_c + Σ n_c (mean_c - mean_u)².
    if len(group) < 2:
        raise ValueError("feature selection needs at least two classes")
    if any(m.n < 2 for m in group):
        raise ValueError("every class needs at least two values for a sample sd")
    first = group[0]
    if all(m.lo == m.hi == first.lo for m in group):
        raise DegenerateFeatureError("all pooled values identical; feature carries no signal")
    n = 0
    total = within = 0.0
    numerator = 1.0
    for m in group:
        n += m.n
        total += m.total
        within += m.m2
        numerator *= m.sd
    mean = total / n
    between = 0.0
    for m in group:
        between += m.n * (m.mean - mean) ** 2
    union_sd = math.sqrt((within + between) / (n - 1))
    if union_sd == 0:
        raise DegenerateFeatureError("pooled spread underflows to 0; feature carries no signal")
    return numerator / union_sd


def fsv(grouped: Sequence[Sequence[float]]) -> float:
    """Feature-selection value: product of per-class sample sds over the union sd.

    Smaller is better: tight classes that pool into a spread-out union
    separate well on this feature. A class whose values are all equal has
    sd exactly 0, and a feature whose values are all equal across the
    classes is degenerate (:class:`DegenerateFeatureError`).
    """
    return _fsv([moments(values) for values in grouped])


def select_feature(stats: ClassMoments, classes: Sequence[int]) -> int:
    """The feature index with the smallest selection value over the named classes.

    ``stats`` is :func:`class_moments` of the training columns.
    Degenerate features (no spread over the classes) are skipped; ties go
    to the lowest feature index.
    """
    best_feature = -1
    best_value = math.inf
    for f, per_class in enumerate(stats):
        try:
            value = _fsv([per_class[c] for c in classes])
        except DegenerateFeatureError:
            continue
        if value < best_value:
            best_value = value
            best_feature = f
    if best_feature < 0:
        raise DegenerateFeatureError("every feature is degenerate for these classes")
    return best_feature


def distance_row(value: float, means: Sequence[float], confidence: float = 0.8) -> dict[int, float]:
    """The ``{bits: mass}`` of :func:`distance_mass`, without building the mass function."""
    if len(means) != 3:
        raise ValueError("distance assignment is defined over exactly three classes")
    nearest = _nearest_class(value, [(mean,) for mean in means], lambda v, mean: abs(v - mean))
    return {1 << nearest: confidence, THREE_CLASS_FULL: 1.0 - confidence}


def distance_mass(
    value: float, means: Sequence[float], frame: Frame, confidence: float = 0.8
) -> MassFunction:
    """Mass on the class whose mean is nearest to the value; rest on the frame.

    Ties go to the lowest class index.
    """
    if frame.size != 3:
        raise ValueError("distance assignment is defined over exactly three classes")
    return MassFunction(frame, distance_row(value, means, confidence))


BpaModel = SigmoidBpa | ScaledSigmoidBpa | TableBpa | BoundaryModel

# The JSON kind tag of every bpa model; its dict holds the dataclass fields.
_BPA_KINDS = {
    "sigmoid": SigmoidBpa,
    "scaled_sigmoid": ScaledSigmoidBpa,
    "table": TableBpa,
    "boundary": BoundaryModel,
}
_BPA_TAGS = {cls: kind for kind, cls in _BPA_KINDS.items()}


def _to_json(value):
    return [_to_json(v) for v in value] if isinstance(value, tuple) else value


def _from_json(value):
    return tuple(_from_json(v) for v in value) if isinstance(value, list) else float(value)


def bpa_to_dict(model: BpaModel) -> dict:
    """JSON-ready dict for a bpa model: a kind tag, then its fields in order."""
    kind = _BPA_TAGS.get(type(model))
    if kind is None:
        raise TypeError(f"not a bpa model: {type(model).__name__}")
    return {"kind": kind, **{f.name: _to_json(getattr(model, f.name)) for f in fields(model)}}


def bpa_from_dict(data: Mapping) -> BpaModel:
    """Inverse of :func:`bpa_to_dict`; arrays come back as tuples of floats."""
    cls = _BPA_KINDS.get(data.get("kind"))
    if cls is None:
        raise ValueError(f"unknown bpa kind {data.get('kind')!r}")
    return cls(**{f.name: _from_json(data[f.name]) for f in fields(cls)})
