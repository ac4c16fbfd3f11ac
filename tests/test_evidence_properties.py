"""Property-based tests for the evidence algebra.

Random mass functions over 2- and 3-element frames exercise the algebraic
invariants: normalization, commutativity, associativity, the vacuous
identity, interval ordering, agreement with a naive double-loop oracle,
and the no-total-conflict guarantee once both sources keep ignorance mass.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dsfusion import (
    BINARY_FRAME,
    MassFunction,
    TotalConflictError,
    belief,
    combine,
    combine_all,
    combine_binary,
    combine_with_conflict,
    make_frame,
    plausibility,
    vacuous_mass,
)

from conftest import exact_binary_fold, mass_to_frozensets, oracle_combine, subsets_of

FRAMES = (make_frame(["normal", "abnormal"]), make_frame(["c1", "c2", "c3"]))

SUM_TOL = 1e-9


@st.composite
def masses(draw, min_theta: float = 0.0):
    """A mass function over every nonempty subset of a 2- or 3-label frame."""
    frame = draw(st.sampled_from(FRAMES))
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=frame.full_mask,
            max_size=frame.full_mask,
        ).filter(lambda ws: sum(ws) > 1e-6)
    )
    total = sum(weights)
    entries = {bits: w / total for bits, w in enumerate(weights, start=1) if w > 0}
    if min_theta:
        entries = {bits: w * (1.0 - min_theta) for bits, w in entries.items()}
        entries[frame.full_mask] = entries.get(frame.full_mask, 0.0) + min_theta
    return MassFunction(frame, entries)


def same_frame(m1, m2):
    return m1.frame == m2.frame


def entrywise_close(m1, m2, tol):
    keys = set(dict(m1.items())) | set(dict(m2.items()))
    return all(abs(m1.mass_bits(bits) - m2.mass_bits(bits)) <= tol for bits in keys)


@given(m=masses(min_theta=0.01))
def test_normalization_preserved(m):
    total = sum(v for _, v in m.items())
    assert abs(total - 1.0) <= SUM_TOL
    combined = combine(m, m)
    assert abs(sum(v for _, v in combined.items()) - 1.0) <= SUM_TOL


@given(m1=masses(min_theta=0.01), m2=masses(min_theta=0.01))
def test_commutativity(m1, m2):
    if not same_frame(m1, m2):
        return
    assert entrywise_close(combine(m1, m2), combine(m2, m1), 1e-9)


@settings(max_examples=300)
@given(m1=masses(min_theta=0.01), m2=masses(min_theta=0.01), m3=masses(min_theta=0.01))
def test_associativity(m1, m2, m3):
    if not (same_frame(m1, m2) and same_frame(m2, m3)):
        return
    left = combine(combine(m1, m2), m3)
    right = combine(m1, combine(m2, m3))
    assert entrywise_close(left, right, 1e-9)


@given(m=masses(min_theta=0.01))
def test_vacuous_identity(m):
    assert entrywise_close(combine(m, vacuous_mass(m.frame)), m, 1e-12)


@given(m=masses(min_theta=0.01))
def test_interval_ordering(m):
    for subset in subsets_of(m.frame):
        bel = belief(m, subset)
        pl = plausibility(m, subset)
        assert -1e-12 <= bel <= pl + 1e-12
        assert pl <= 1 + 1e-12


@given(m1=masses(min_theta=0.01), m2=masses(min_theta=0.01))
def test_oracle_agreement(m1, m2):
    if not same_frame(m1, m2):
        return
    expected, expected_k = oracle_combine(mass_to_frozensets(m1), mass_to_frozensets(m2))
    combined, k = combine_with_conflict(m1, m2)
    assert k == pytest.approx(expected_k, abs=1e-9)
    # One fold gives both: the same mass as combine.
    assert combined == combine(m1, m2)
    actual = mass_to_frozensets(combined)
    # The naive oracle keeps products that underflow to 0.0; a mass function
    # holds only positive masses.
    assert set(actual) == {key for key, value in expected.items() if value > 0}
    for key, value in expected.items():
        assert actual.get(key, 0.0) == pytest.approx(value, abs=1e-9)


@given(m1=masses(min_theta=0.01), m2=masses(min_theta=0.01))
def test_shared_ignorance_prevents_total_conflict(m1, m2):
    # both sources keep >= 0.01 on the frame, so combination stays defined
    if not same_frame(m1, m2):
        return
    assert combine_with_conflict(m1, m2)[1] <= 1 - 1e-4
    combine(m1, m2)


# A weight is exactly zero often enough that rows with zero entries
# (dogmatic, one-sided or vacuous sources) are common.
_weight = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def binary_rows(draw, max_sources: int):
    """1..max_sources (m_normal, m_abnormal, m_theta) rows of valid masses."""
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_sources))):
        weights = draw(st.tuples(_weight, _weight, _weight).filter(lambda ws: sum(ws) > 1e-3))
        total = sum(weights)
        rows.append(tuple(w / total for w in weights))
    return rows


@settings(max_examples=300)
@given(rows=binary_rows(max_sources=12))
def test_combine_binary_matches_exact_fold(rows):
    exact, one_minus_k = exact_binary_fold(rows)
    try:
        fused = combine_binary(BINARY_FRAME, rows)
    except TotalConflictError:
        # Raised exactly when K reaches 1 - 1e-12, up to the rounding of K.
        assert one_minus_k <= 1.0001e-12
        return
    assert one_minus_k >= 0.9999e-12
    for bits, value in zip((1, 2, 3), exact):
        assert abs(fused.mass_bits(bits) - float(value)) <= 1e-14


@settings(max_examples=300)
@given(rows=binary_rows(max_sources=8))
def test_combine_binary_matches_pairwise_combine(rows):
    # Pairwise float folding loses accuracy as each step's conflict nears
    # 1, so the 1e-12 comparison is made where the sources leave some
    # agreement; the exact-fold test above covers the rest.
    _, one_minus_k = exact_binary_fold(rows)
    assume(one_minus_k > 1e-3)
    masses = [MassFunction(BINARY_FRAME, {1: m0, 2: m1, 3: mt}) for m0, m1, mt in rows]
    expected = combine_all(masses)
    fused = combine_binary(BINARY_FRAME, rows)
    for bits in (1, 2, 3):
        assert abs(fused.mass_bits(bits) - expected.mass_bits(bits)) <= 1e-12
