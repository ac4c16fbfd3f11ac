"""Frames of discernment, mass functions, and Dempster's rule of combination.

Hypothesis sets are bitmasks over the frame's labels (bit i <-> label i),
and mass functions store only their focal elements, so frames stay cheap
up to the 16-label limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

MAX_FRAME_SIZE = 16

# Mass sums and entrywise comparisons tolerate 1e-9; identities (vacuous
# combination, the total-conflict guard) are held to 1e-12.
SUM_TOL = 1e-9
IDENTITY_TOL = 1e-12

THETA_SYMBOL = "Θ"


class EvidenceError(ValueError):
    """Invalid input to the evidence algebra."""


class FrameMismatchError(EvidenceError):
    """Operands belong to different frames of discernment."""


class TotalConflictError(EvidenceError):
    """Combination is undefined: the two sources are in total conflict."""


@dataclass(frozen=True)
class Frame:
    """An ordered tuple of mutually exclusive hypothesis labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 2 <= len(self.labels) <= MAX_FRAME_SIZE:
            raise EvidenceError(
                f"frame needs 2..{MAX_FRAME_SIZE} labels, got {len(self.labels)}"
            )
        if any(not isinstance(lab, str) or not lab for lab in self.labels):
            raise EvidenceError("frame labels must be nonempty strings")
        if len(set(self.labels)) != len(self.labels):
            raise EvidenceError(f"duplicate frame labels in {self.labels!r}")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def bit_for(self, label: str) -> int:
        try:
            return 1 << self.labels.index(label)
        except ValueError:
            raise EvidenceError(f"label {label!r} not in frame {self.labels}") from None

    def subset(self, labels: Iterable[str]) -> "HypothesisSet":
        bits = 0
        for lab in labels:
            bits |= self.bit_for(lab)
        return HypothesisSet(self, bits)

    def singleton(self, label: str) -> "HypothesisSet":
        return HypothesisSet(self, self.bit_for(label))

    def theta(self) -> "HypothesisSet":
        """The whole frame as a hypothesis set (total ignorance)."""
        return HypothesisSet(self, self.full_mask)

    def labels_of(self, bits: int) -> tuple[str, ...]:
        return tuple(lab for i, lab in enumerate(self.labels) if bits >> i & 1)

    def describe(self, bits: int) -> str:
        if bits == self.full_mask:
            return THETA_SYMBOL
        return "|".join(self.labels_of(bits))


def make_frame(labels: Sequence[str]) -> Frame:
    """Build a frame of discernment from an ordered list of labels."""
    return Frame(tuple(labels))


@dataclass(frozen=True)
class HypothesisSet:
    """A nonempty subset of a frame, encoded as a bitmask."""

    frame: Frame
    bits: int

    def __post_init__(self) -> None:
        if not 0 < self.bits <= self.frame.full_mask:
            raise EvidenceError(
                f"hypothesis bits {self.bits:#x} outside frame of size {self.frame.size}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return self.frame.labels_of(self.bits)

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    @property
    def is_singleton(self) -> bool:
        return self.bits.bit_count() == 1

    @property
    def is_theta(self) -> bool:
        return self.bits == self.frame.full_mask

    def __str__(self) -> str:
        return self.frame.describe(self.bits)


@dataclass(frozen=True)
class BeliefInterval:
    """The [Bel, Pl] support interval for one hypothesis set."""

    bel: float
    pl: float

    def __post_init__(self) -> None:
        if not (-IDENTITY_TOL <= self.bel and self.pl <= 1 + IDENTITY_TOL):
            raise EvidenceError(f"interval [{self.bel}, {self.pl}] outside [0, 1]")
        if self.bel > self.pl + IDENTITY_TOL:
            raise EvidenceError(f"belief {self.bel} exceeds plausibility {self.pl}")

    @property
    def uncertainty(self) -> float:
        return self.pl - self.bel


class MassFunction:
    """A basic probability assignment: positive masses over nonempty subsets.

    Invariants enforced at construction: no mass on the empty set, every
    stored mass is positive, and the masses sum to 1 within ``SUM_TOL``.
    Instances are immutable; all operations return new values.
    """

    __slots__ = ("frame", "_masses")

    def __init__(self, frame: Frame, bit_masses: Mapping[int, float]):
        full = frame.full_mask
        masses: dict[int, float] = {}
        total = 0.0
        for bits, value in bit_masses.items():
            if not 0 < bits <= full:
                raise EvidenceError(
                    f"mass on invalid subset bits {bits:#x} for frame of size {frame.size}"
                )
            if value < 0 or not math.isfinite(value):
                raise EvidenceError(f"mass value {value} is not a finite non-negative number")
            if value > 0:
                masses[bits] = masses.get(bits, 0.0) + value
                total += value
        if abs(total - 1.0) > SUM_TOL:
            raise EvidenceError(f"masses sum to {total!r}, expected 1 within {SUM_TOL}")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_masses", masses)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MassFunction is immutable")

    def items(self) -> Iterator[tuple[HypothesisSet, float]]:
        for bits, value in self._masses.items():
            yield HypothesisSet(self.frame, bits), value

    def mass(self, subset: HypothesisSet) -> float:
        _require_same_frame(self.frame, subset.frame)
        return self._masses.get(subset.bits, 0.0)

    def mass_bits(self, bits: int) -> float:
        return self._masses.get(bits, 0.0)

    def __len__(self) -> int:
        return len(self._masses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self.frame == other.frame and self._masses == other._masses

    def __str__(self) -> str:
        parts = [
            f"{self.frame.describe(bits)}:{value:.6g}"
            for bits, value in sorted(
                self._masses.items(), key=lambda kv: (kv[0].bit_count(), kv[0])
            )
        ]
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"MassFunction({self})"


def _require_same_frame(a: Frame, b: Frame) -> None:
    if a is not b and a != b:
        raise FrameMismatchError(f"frames differ: {a.labels} vs {b.labels}")


def _trusted_mass(frame: Frame, masses: dict[int, float]) -> MassFunction:
    # Construction for the combination rules' output only: normalized
    # products of valid masses already satisfy the invariants, so skip
    # re-validation.
    m = object.__new__(MassFunction)
    object.__setattr__(m, "frame", frame)
    object.__setattr__(m, "_masses", masses)
    return m


def make_mass(frame: Frame, entries: Iterable[tuple[HypothesisSet, float]]) -> MassFunction:
    """Build a mass function from (subset, value) pairs.

    Values must sum to 1 within ``SUM_TOL``; the empty set and negative
    values are rejected, zero-mass entries are dropped.
    """
    bit_masses: dict[int, float] = {}
    for subset, value in entries:
        _require_same_frame(frame, subset.frame)
        bit_masses[subset.bits] = bit_masses.get(subset.bits, 0.0) + value
    return MassFunction(frame, bit_masses)


def vacuous_mass(frame: Frame) -> MassFunction:
    """Total ignorance: all mass on the whole frame."""
    return MassFunction(frame, {frame.full_mask: 1.0})


def _intersect(
    left: Mapping[int, float], right: Mapping[int, float]
) -> tuple[dict[int, float], float]:
    # Product masses accumulated on each nonempty intersection, and the
    # conflict K: the product mass falling on empty intersections.
    acc: dict[int, float] = {}
    k = 0.0
    right_items = right.items()
    for b, vb in left.items():
        for c, vc in right_items:
            inter = b & c
            if inter:
                # 0 + x is x exactly, and keeps exact (Fraction) masses exact.
                acc[inter] = acc.get(inter, 0) + vb * vc
            else:
                k += vb * vc
    return acc, k


def combine_bits(
    left: Mapping[int, float], right: Mapping[int, float]
) -> tuple[dict[int, float], float]:
    """Dempster's rule on ``{bits: mass}`` dicts: the fused masses and the conflict K.

    Every product lands on the intersection of its two focal sets; the
    products on empty intersections sum to K and the rest are renormalised.
    The fused dict lists focal sets in the order the products first reach
    them (``left`` outer, ``right`` inner). Raises TotalConflictError when
    K reaches 1, where the rule is undefined. This is the one
    implementation of the rule; ``combine`` wraps it.
    """
    acc, k = _intersect(left, right)
    if k >= 1.0 - IDENTITY_TOL:
        raise TotalConflictError(f"total conflict between sources (K={k!r})")
    # The kept products sum to 1 - K; their own sum keeps the result
    # normalized when K is near 1, where 1.0 - k has lost most digits.
    norm = sum(acc.values())
    return {bits: v / norm for bits, v in acc.items()}, k


def conflict(m1: MassFunction, m2: MassFunction) -> float:
    """The conflict mass K: total product mass falling on empty intersections."""
    _require_same_frame(m1.frame, m2.frame)
    return _intersect(m1._masses, m2._masses)[1]


def combine_with_conflict(m1: MassFunction, m2: MassFunction) -> tuple[MassFunction, float]:
    """``combine`` and the conflict K of the same pair, from one fold."""
    _require_same_frame(m1.frame, m2.frame)
    masses, k = combine_bits(m1._masses, m2._masses)
    return _trusted_mass(m1.frame, masses), k


def combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule of combination: intersect, accumulate, renormalize.

    Raises TotalConflictError when the conflict K reaches 1, where the
    rule is undefined.
    """
    return combine_with_conflict(m1, m2)[0]


def combine_all(masses: Sequence[MassFunction]) -> MassFunction:
    """Left fold of ``combine`` over a nonempty sequence of mass functions."""
    if not masses:
        raise EvidenceError("combine_all needs at least one mass function")
    result = masses[0]
    for m in masses[1:]:
        result = combine(result, m)
    return result


def combine_binary(frame: Frame, rows: Sequence[tuple[float, float, float]]) -> MassFunction:
    """Dempster's rule over a two-label frame, in closed form.

    Each row is one source's masses (m(label 0), m(label 1), m(Θ)). On two
    labels the rule multiplies commonalities Q(0) = m_0 + m_Θ,
    Q(1) = m_1 + m_Θ and Q(Θ) = m_Θ: the fused masses are proportional to
    ΠQ(0) - ΠQ(Θ), ΠQ(1) - ΠQ(Θ) and ΠQ(Θ), and their sum
    ΠQ(0) + ΠQ(1) - ΠQ(Θ) is 1 - K (Smets 1990; Barnett 1981). The result
    is the fold of ``combine`` over the rows' mass functions, in one pass
    and without building them; rows are trusted to be valid masses.
    Raises TotalConflictError when the fused K reaches 1 - ``IDENTITY_TOL``,
    the bound ``combine`` applies to each pair.
    """
    if frame.size != 2:
        raise EvidenceError(f"binary combination needs a 2-label frame, got {frame.size}")
    if not rows:
        raise EvidenceError("combine_binary needs at least one row")
    q0 = q1 = qt = 1.0
    for m0, m1, mt in rows:
        q0 *= m0 + mt
        q1 *= m1 + mt
        qt *= mt
    norm = q0 + q1 - qt
    k = 1.0 - norm
    if k >= 1.0 - IDENTITY_TOL:
        raise TotalConflictError(f"total conflict between sources (K={k!r})")
    fused = ((1, (q0 - qt) / norm), (2, (q1 - qt) / norm), (3, qt / norm))
    return _trusted_mass(frame, {bits: v for bits, v in fused if v > 0})


def belief(m: MassFunction, subset: HypothesisSet) -> float:
    """Bel(A): total mass of the nonempty subsets of A."""
    _require_same_frame(m.frame, subset.frame)
    a = subset.bits
    return sum(v for bits, v in m._masses.items() if bits & ~a == 0)


def plausibility(m: MassFunction, subset: HypothesisSet) -> float:
    """Pl(A): total mass of the sets intersecting A, i.e. 1 - Bel(not A)."""
    _require_same_frame(m.frame, subset.frame)
    a = subset.bits
    return sum(v for bits, v in m._masses.items() if bits & a)


def belief_interval(m: MassFunction, subset: HypothesisSet) -> BeliefInterval:
    """The [Bel, Pl] interval for one hypothesis set."""
    return BeliefInterval(belief(m, subset), plausibility(m, subset))


def argmax_bits(
    masses: Mapping[int, float], full_mask: int, exclude_theta: bool = False
) -> int:
    """The focal set of a ``{bits: mass}`` dict carrying the largest mass.

    Ties break toward smaller cardinality, then lower bitmask. With
    ``exclude_theta`` the whole frame (``full_mask``) is ignored, and it is
    returned only when no other focal set exists.
    """
    best_bits = full_mask
    best_key: tuple[float, int, int] | None = None
    for bits, value in masses.items():
        if exclude_theta and bits == full_mask:
            continue
        key = (-value, bits.bit_count(), bits)
        if best_key is None or key < best_key:
            best_key = key
            best_bits = bits
    return best_bits


def argmax_focal(m: MassFunction, exclude_theta: bool = False) -> HypothesisSet:
    """The focal element carrying the largest mass.

    Ties break toward smaller cardinality, then lower bitmask. With
    ``exclude_theta`` the whole frame is ignored unless it is the only
    focal element, in which case it is returned as the fallback.
    """
    return HypothesisSet(m.frame, argmax_bits(m._masses, m.frame.full_mask, exclude_theta))
