"""Basic-probability-assignment builders and their training helpers.

A binary-frame source is a (m_normal, m_abnormal, m_theta) row: a plain
sigmoid around a trained threshold (:func:`sigmoid_mass` builds its mass
function), a scaled sigmoid with floor, ceiling and ignorance mass
(:func:`scaled_sigmoid_row`), or a lookup table for binary signals
(:func:`table_row`); :func:`binary_row_mass` checks a row and gives its mass
function. The two three-class assignments, by per-class value ranges and by
per-class means, put their mass on one focal set, which :func:`boundary_bits`
and :func:`nearest_mean` pick; the classifier states their rows.
Training helpers derive the thresholds, ranges, means and the
feature-selection scores from labelled feature rows; the three-class ones
read each feature's values per class, indexed ``[feature][class]``.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .evidence import MassFunction, make_frame

BINARY_LABELS = ("normal", "abnormal")
BINARY_FRAME = make_frame(BINARY_LABELS)

# sigmoid_mass clamps saturated sigmoids so both hypotheses keep a sliver
# of mass. The clamp shapes that builder's output only: classify_binary
# fuses the exact log-odds sum, so the clamp decides no label.
MASS_EPS = 1e-15
LOGISTIC_SATURATION = 709  # past this |x|, logistic is exactly 0 or 1: math.exp would overflow

# One source's (m_normal, m_abnormal, m_theta) over the binary frame.
MassRow = tuple[float, float, float]
# Training values grouped by feature, then by class 0..2.
Columns = list[list[Sequence[float]]]


class DegenerateFeatureError(ValueError):
    """A feature whose pooled values have zero spread cannot be scored."""


def logistic(x: float) -> float:
    """1 / (1 + e^-x), saturating to exactly 0 or 1 where ``math.exp`` would overflow."""
    if x > LOGISTIC_SATURATION:
        return 1.0
    if x < -LOGISTIC_SATURATION:
        return 0.0
    return 1.0 / (1.0 + math.exp(-x))


def saturation_cutoff(threshold: float) -> float:
    """The least float x ≥ 0 with ``threshold - x < -LOGISTIC_SATURATION``, the test on which
    :func:`logistic` saturates to 0: for a finite threshold, a float interval's scaled-sigmoid
    row is the floor row iff the interval is at least this float.

    fl(threshold - x) never increases as x grows, so the floats that pass are exactly those
    at or above one float. The non-negative floats' bit patterns, read as ints, order as the
    floats do, so bisecting them between 0.0 (bits 0) and ∞ (which passes) finds it in at
    most 63 tests. A walk float by float from threshold + 709 would not end: at threshold
    −709 it starts at 0.0, about 2^62 floats below the cutoff, just above 2^-44."""
    lo, hi = -1, 0x7FF0000000000000  # lo fails (-1 stands below 0.0); hi, ∞'s bits, passes
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if threshold - _float_of_bits(mid) < -LOGISTIC_SATURATION:
            hi = mid
        else:
            lo = mid
    return _float_of_bits(hi)


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


class Moments(NamedTuple):
    """One class's values on one feature: count, sum, mean, the sum of
    squared deviations M2 = Σ(v - mean)², the sample sd, and the (min, max)
    range. Each square is the correctly rounded product d * d, not ``d ** 2``,
    whose libm ``pow`` may miss it by an ulp."""

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

    Values that all equal one another have that value as their mean and M2
    exactly 0: their float ``sum / n`` can miss the common value by an ulp,
    which would move the mean and leave a spurious spread. A NaN or infinite
    value is refused, as is an int or ``Fraction`` past the float range (or
    an int sum past it); finite float values whose sum overflows pass.
    """
    n = len(values)
    if not n:
        raise ValueError("moments need at least one value")
    try:
        total = sum(values)
        if not math.isfinite(total):  # before min and max, which skip a NaN after the first
            for bad in (v for v in values if not math.isfinite(v)):
                raise ValueError(f"feature value must be finite, got {bad}")
        lo, hi = min(values), max(values)
        mean = lo if lo == hi else total / n
        m2 = 0.0 if lo == hi else sum([(v - mean) * (v - mean) for v in values])
    except OverflowError:  # converting a value, or an int sum, to float
        bad = next((f"value {v}" for v in values if abs(v) > sys.float_info.max), "values' sum")
        raise ValueError(f"feature {bad} is beyond the float range") from None
    sd = math.sqrt(m2 / (n - 1)) if n > 1 else 0.0
    return Moments(n, total, mean, m2, sd, lo, hi)


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
        try:  # the ceiling row has the least abnormal mass: if it is a mass, every row is
            binary_row_mass(_scaled_row(1.0, self))
        except ValueError as err:
            raise ValueError(f"ceiling row: {err}") from None
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")


@dataclass(frozen=True)
class TableBpa:
    """Per-signal-value rows of (m_normal, m_abnormal, m_theta), indexed 0/1."""

    rows: tuple[MassRow, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != 2:
            raise ValueError(f"a table needs 2 rows, one per signal value, got {len(self.rows)}")
        for value, row in enumerate(self.rows):
            try:
                binary_row_mass(row)
            except ValueError as err:
                raise ValueError(f"row {value}: {err}") from None


@dataclass(frozen=True)
class BoundaryModel:
    """Observed (min, max) value range per feature and class."""

    bounds: tuple[tuple[tuple[float, float], ...], ...]

    def __post_init__(self) -> None:
        for f, per_class in enumerate(self.bounds):
            for c, (lo, hi) in enumerate(per_class):
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    raise ValueError(f"feature {f} class {c}: bounds [{lo}, {hi}] must be finite")
                if lo > hi:
                    raise ValueError(f"feature {f} class {c}: min {lo} exceeds max {hi}")


def counted_threshold(
    counts: Sequence[tuple[float, int]], normal_count: int, total_count: int
) -> float:
    """The k-th smallest of the values given as (value, multiplicity) pairs in ascending order
    of value, with k set by the normal-class fraction; a multiplicity may be 0.

    k = floor(n * normal_count / total_count + 0.5) over the n values, a half rounding up
    (``round`` rounds it to even), clamped to 1..n. ``normal_count`` and ``total_count``
    describe the training labels; the values may be a subset of the training column (e.g.
    with missing cells removed), in which case k scales with it. The walk stops at the pair
    that reaches rank k.
    """
    n = sum(c for _, c in counts)
    if not n:
        raise ValueError("cannot take a threshold of an empty value list")
    if not 0 < normal_count < total_count:
        raise ValueError(f"need 0 < normal_count < total_count, got {normal_count}/{total_count}")
    k = min(max(math.floor(n * normal_count / total_count + 0.5), 1), n)
    for value, c in counts:
        k -= c
        if k <= 0:
            return value


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


# Nothing in the package calls these caches: the classifiers fuse rows directly. They stay
# because the benchmark's tracing reads their cache_info() for bpa.cache_hit_ratio, which
# reads 0 hits and 0 misses on every workload; they go when that metric does.
_scaled_mass_cached = lru_cache(maxsize=8192)(binary_row_mass)
_table_mass_cached = lru_cache(maxsize=None)(binary_row_mass)


def _scaled_row(s: float, bpa: ScaledSigmoidBpa) -> MassRow:
    # The scaled sigmoid's row where the logistic is s: the floor at s = 0, the ceiling at 1.
    m_normal = (bpa.ceiling - bpa.floor) * s + bpa.floor
    return m_normal, 1.0 - m_normal - bpa.theta_mass, bpa.theta_mass


def scaled_sigmoid_row(value: float, bpa: ScaledSigmoidBpa) -> MassRow:
    """The scaled sigmoid's row for a non-negative signal value: between the floor and
    the ceiling, with fixed ignorance mass."""
    if not value >= 0:
        raise ValueError(f"signal value must be non-negative, got {value}")
    return _scaled_row(logistic(bpa.threshold - value), bpa)


def table_row(signal_value: float, bpa: TableBpa) -> MassRow:
    """The table's row for a binary signal value, 0 or 1."""
    if signal_value not in (0, 1):
        raise ValueError(f"binary signal value must be 0 or 1, got {signal_value!r}")
    return bpa.rows[int(signal_value)]


def class_moments(columns: Columns) -> ClassMoments:
    """The :class:`Moments` of each feature's values per class: ``columns[f][c]`` holds
    feature f's values in class c."""
    stats: ClassMoments = []
    for f, per_class in enumerate(columns):
        stats.append([])
        for c, values in enumerate(per_class):
            if not values:
                raise ValueError(f"class {c} has no training records")
            try:
                m = moments(values)
            except TypeError:  # sum() meets a None cell
                if None not in values:
                    raise
                raise ValueError(f"feature {f} has a missing value") from None
            except ValueError as exc:  # a non-finite value
                raise ValueError(f"{exc} in feature {f}") from None
            stats[f].append(m)
    return stats


def _nearest_class(value: float, refs: Sequence[tuple[float, ...]], gap: Callable) -> int:
    # The class whose reference (a range, a mean) has the smallest gap(value,
    # *ref), ties to the lowest class. Rounding is monotone, so classes
    # whose float gaps differ are in exact order; only a float tie, which
    # rounding may have made, is decided again on exact gaps.
    if not math.isfinite(value):
        raise ValueError(f"feature value must be finite, got {value}")
    gaps = [gap(value, *ref) for ref in refs]
    best = min(gaps)
    tied = [c for c, g in enumerate(gaps) if g == best]
    if len(tied) == 1:
        return tied[0]
    exact = Fraction(value)
    return min(tied, key=lambda c: (gap(exact, *map(Fraction, refs[c])), c))


def boundary_bits(value: float, class_bounds: Sequence[tuple[float, float]]) -> int:
    """The focal set of a boundary row: the classes whose range holds the
    value, or else the class whose range is nearest."""
    (lo0, hi0), (lo1, hi1), (lo2, hi2) = class_bounds
    bits = (lo0 <= value <= hi0) | (lo1 <= value <= hi1) << 1 | (lo2 <= value <= hi2) << 2
    if bits == 0:
        bits = 1 << _nearest_class(value, class_bounds, lambda v, lo, hi: max(lo - v, v - hi))
    return bits


def _fsv(group: Sequence[Moments]) -> float:
    # The feature-selection value: the product of the classes' sample sds over the union's sd,
    # smaller being better. The union's M2 pools theirs (Chan, Golub & LeVeque 1979):
    # Σ M2_c + Σ n_c (mean_c - mean_u)².
    if len(group) < 2:
        raise ValueError("feature selection needs at least two classes")
    first = group[0].lo
    flat = True
    n = 0
    total = within = 0.0
    numerator = 1.0
    for m in group:
        if m.n < 2:
            raise ValueError("every class needs at least two values for a sample sd")
        flat = flat and m.lo == m.hi == first
        n += m.n
        total += m.total
        within += m.m2
        numerator *= m.sd
    if flat:
        raise DegenerateFeatureError("all pooled values identical; feature carries no signal")
    mean = total / n
    between = 0.0
    for m in group:
        d = m.mean - mean
        between += m.n * (d * d)
    union_sd = math.sqrt((within + between) / (n - 1))
    if union_sd == 0:
        raise DegenerateFeatureError("pooled spread underflows to 0; feature carries no signal")
    return numerator / union_sd


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


def nearest_mean(value: float, means: Sequence[float]) -> int:
    """The class whose mean is nearest to the value, ties to the lowest class."""
    return _nearest_class(value, [(mean,) for mean in means], lambda v, mean: abs(v - mean))
