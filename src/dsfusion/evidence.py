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

# SUM_TOL is the one tolerance on a mass's sum (bpa model rows included) and on how far
# Bel and Pl may leave [0, 1]; IDENTITY_TOL guards only total conflict, K within it of 1.
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
        for lab in self.labels:  # so that describe() gives each focal set its own name
            if lab == THETA_SYMBOL or "|" in lab:
                raise EvidenceError(f"frame label {lab!r} must not be {THETA_SYMBOL} or hold '|'")
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

    def __str__(self) -> str:
        return self.frame.describe(self.bits)


@dataclass(frozen=True)
class BeliefInterval:
    """The [Bel, Pl] support interval for one hypothesis set."""

    bel: float
    pl: float

    def __post_init__(self) -> None:
        if not (-SUM_TOL <= self.bel and self.pl <= 1 + SUM_TOL):
            raise EvidenceError(f"interval [{self.bel}, {self.pl}] outside [0, 1]")
        if self.bel > self.pl + SUM_TOL:
            raise EvidenceError(f"belief {self.bel} exceeds plausibility {self.pl}")


@dataclass(frozen=True, repr=False)
class MassFunction:
    """A basic probability assignment: positive masses over nonempty subsets.

    Invariants enforced at construction: no mass on the empty set, every
    stored mass is positive, and the masses sum to 1 within ``SUM_TOL``;
    zero masses are dropped. Every mass function is built here, the
    combination rules' results included. Instances are immutable; all
    operations return new values.
    """

    frame: Frame
    _masses: Mapping[int, float]

    def __post_init__(self) -> None:
        full = self.frame.full_mask
        masses: dict[int, float] = {}
        total = 0.0
        for bits, value in self._masses.items():
            if not 0 < bits <= full:
                raise EvidenceError(
                    f"mass on invalid subset bits {bits:#x} for frame of size {self.frame.size}"
                )
            if value < 0 or not math.isfinite(value):
                raise EvidenceError(f"mass value {value} is not a finite non-negative number")
            if value > 0:
                masses[bits] = float(value)
                total += value
        if abs(total - 1.0) > SUM_TOL:
            raise EvidenceError(f"masses sum to {total!r}, expected 1 within {SUM_TOL}")
        object.__setattr__(self, "_masses", masses)

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

    def __str__(self) -> str:
        items = sorted(self._masses.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
        return "{" + ", ".join(f"{self.frame.describe(b)}:{v:.6g}" for b, v in items) + "}"

    def __repr__(self) -> str:
        return f"MassFunction({self})"


def _require_same_frame(a: Frame, b: Frame) -> None:
    if a is not b and a != b:
        raise FrameMismatchError(f"frames differ: {a.labels} vs {b.labels}")


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


def _refuse_total_conflict(k: float) -> None:
    # The one bound on the conflict K, for the pairwise rule and the closed form alike.
    if k >= 1.0 - IDENTITY_TOL:
        raise TotalConflictError(f"total conflict between sources (K={k!r})")


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
    _refuse_total_conflict(k)
    # The kept products sum to 1 - K; their own sum keeps the result
    # normalized when K is near 1, where 1.0 - k has lost most digits.
    norm = sum(acc.values())
    return {bits: v / norm for bits, v in acc.items()}, k


def combine_with_conflict(m1: MassFunction, m2: MassFunction) -> tuple[MassFunction, float]:
    """``combine`` and the conflict K of the same pair, from one fold."""
    _require_same_frame(m1.frame, m2.frame)
    masses, k = combine_bits(m1._masses, m2._masses)
    return MassFunction(m1.frame, masses), k


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


def binary_commonalities(rows: Iterable[Sequence[float]]) -> tuple[float, float, float]:
    """ΠQ(0), ΠQ(1) and ΠQ(Θ) of (m_0, m_1, m_Θ) rows, multiplied in row order. Raises
    TotalConflictError when the fused K = 1 - (ΠQ(0) + ΠQ(1) - ΠQ(Θ)) reaches
    1 - ``IDENTITY_TOL``, the bound ``combine`` applies to each pair."""
    q0 = q1 = qt = 1.0
    for m0, m1, mt in rows:
        q0 *= m0 + mt
        q1 *= m1 + mt
        qt *= mt
    _refuse_total_conflict(1.0 - (q0 + q1 - qt))
    return q0, q1, qt


def combine_binary(frame: Frame, rows: Sequence[tuple[float, float, float]]) -> MassFunction:
    """Dempster's rule over a two-label frame, in closed form.

    Each row is one source's masses (m(label 0), m(label 1), m(Θ)). On two
    labels the rule multiplies commonalities Q(0) = m_0 + m_Θ, Q(1) = m_1 + m_Θ
    and Q(Θ) = m_Θ: the fused masses are proportional to ΠQ(0) - ΠQ(Θ),
    ΠQ(1) - ΠQ(Θ) and ΠQ(Θ), and their sum ΠQ(0) + ΠQ(1) - ΠQ(Θ) is 1 - K
    (Smets 1990; Barnett 1981). The result is the fold of ``combine`` over the
    rows' mass functions, in one pass and without building them; rows are
    trusted to be valid masses. Near total conflict ``binary_commonalities``
    raises TotalConflictError.
    """
    if frame.size != 2:
        raise EvidenceError(f"binary combination needs a 2-label frame, got {frame.size}")
    if not rows:
        raise EvidenceError("binary combination needs at least one row")
    q0, q1, qt = binary_commonalities(rows)
    norm = q0 + q1 - qt
    return MassFunction(frame, {1: (q0 - qt) / norm, 2: (q1 - qt) / norm, 3: qt / norm})


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
