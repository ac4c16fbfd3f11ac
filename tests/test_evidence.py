"""Unit tests for frames, mass functions, and the combination rule."""

import copy
import math
import pickle
import re
from functools import reduce

import pytest

from dsfusion import (
    EvidenceError,
    FrameMismatchError,
    MassFunction,
    TotalConflictError,
    belief,
    combine,
    combine_binary,
    combine_with_conflict,
    make_frame,
    plausibility,
    vacuous_mass,
)
from dsfusion.evidence import IDENTITY_TOL, binary_commonalities

from conftest import mass_to_frozensets, oracle_combine

# Pairs whose product on one focal set underflows to 0.0: 1e-200 * 1e-200
# on {a}, and 5e-324 * 0.01 on {abnormal}; then the combination's focal
# sets, in order, and its rendering.
UNDERFLOW_PAIRS = [
    (make_frame(["a", "b", "c"]), {0b001: 1e-200, 0b010: 1.0}, {0b101: 1e-200, 0b010: 1.0},
     [0b010], "{b:1}"),
    (make_frame(["normal", "abnormal"]), {2: 5e-324, 3: 1.0}, {1: 0.99, 3: 0.01},
     [1, 3], "{normal:0.99, Θ:0.01}"),
]


@pytest.fixture
def binary():
    return make_frame(["normal", "abnormal"])


@pytest.fixture
def witnesses():
    frame = make_frame(["Jon", "Mary", "Mike"])
    m1 = MassFunction(frame, {frame.bits(["Jon"]): 0.9, frame.bits(["Mary"]): 0.1})
    m2 = MassFunction(frame, {frame.bits(["Mike"]): 0.9, frame.bits(["Mary"]): 0.1})
    return frame, m1, m2


class TestFrame:
    def test_binary_frame(self):
        frame = make_frame(["normal", "abnormal"])
        assert frame.size == 2
        assert frame.full_mask == 0b11

    def test_three_class_frame(self):
        frame = make_frame(["Setosa", "Versicolour", "Virginica"])
        assert frame.labels == ("Setosa", "Versicolour", "Virginica")
        assert frame.bits(["Virginica"]) == 0b100

    def test_duplicate_labels_rejected(self):
        with pytest.raises(EvidenceError):
            make_frame(["a", "a"])

    @pytest.mark.parametrize("labels", [[], ["only"], ["x"] * 17, list("abcdefghijklmnopq")])
    def test_size_limits(self, labels):
        with pytest.raises(EvidenceError):
            make_frame(labels)

    def test_empty_label_rejected(self):
        with pytest.raises(EvidenceError):
            make_frame(["a", ""])

    @pytest.mark.parametrize("labels, bad", [
        (["Θ", "a"], "Θ"), (["a|b", "c"], "a|b"), (["a", "b", "Θ"], "Θ"), (["a", "|"], "|"),
        (["a", "b|"], "b|"),
    ], ids=["theta-symbol", "pipe", "theta-symbol-last", "bare-pipe", "trailing-pipe"])
    def test_label_that_describe_cannot_tell_apart_rejected(self, labels, bad):
        # describe() names the whole frame Θ and joins labels with |, so either label made two
        # focal sets print alike, or one that no mass spec could name.
        message = f"^frame label {re.escape(repr(bad))} must not be Θ or hold '\\|'$"
        with pytest.raises(EvidenceError, match=message):
            make_frame(labels)

    @pytest.mark.parametrize("labels", [["a", "b", "c"], ["Θa", "a"], ["a b", "a", "b"]],
                             ids=["plain", "holds-theta-symbol", "holds-space"])
    def test_every_focal_set_has_its_own_description(self, labels):
        # A label may hold Θ or a space: only a label equal to Θ, or one holding |, is refused.
        frame = make_frame(labels)
        names = {frame.describe(bits) for bits in range(1, frame.full_mask + 1)}
        assert len(names) == frame.full_mask

    def test_subset_and_describe(self):
        frame = make_frame(["a", "b", "c"])
        assert frame.bits(["a", "c"]) == 0b101
        assert frame.describe(0b101) == "a|c"
        assert frame.describe(0b111) == "Θ"

    def test_bits_ignore_order_and_repeats(self):
        frame = make_frame(["a", "b", "c"])
        assert frame.bits(["c", "a", "c"]) == frame.bits(iter(["a", "c"])) == 0b101

    def test_empty_hypothesis_set_rejected(self, binary):
        with pytest.raises(EvidenceError, match="^a hypothesis set needs at least one label$"):
            binary.bits([])

    @pytest.mark.parametrize("labels", [["x"], ["normal", "x"], ["normal", ""]],
                             ids=["alone", "after-a-known-label", "empty-label"])
    def test_unknown_label_rejected(self, binary, labels):
        message = re.escape(f"label {labels[-1]!r} not in frame ('normal', 'abnormal')")
        with pytest.raises(EvidenceError, match=f"^{message}$"):
            binary.bits(labels)

    def test_hypothesis_set_renders_as_its_labels(self):
        frame = make_frame(["a", "b", "c"])
        assert frame.describe(frame.bits(["a", "c"])) == "a|c"
        assert frame.describe(frame.bits(frame.labels)) == "Θ"


class TestMassConstruction:
    def test_valid_half_half(self, binary):
        m = MassFunction(binary, {binary.bits(["normal"]): 0.5, binary.bits(["abnormal"]): 0.5})
        assert m.mass_bits(binary.bits(["normal"])) == 0.5

    def test_witness_masses_valid(self, witnesses):
        frame, m1, _ = witnesses
        assert m1.mass_bits(frame.bits(["Jon"])) == 0.9

    def test_sum_violation_rejected(self, binary):
        with pytest.raises(EvidenceError):
            MassFunction(binary, {binary.bits(["normal"]): 0.5, binary.bits(["abnormal"]): 0.4})

    def test_negative_mass_rejected(self, binary):
        with pytest.raises(EvidenceError):
            MassFunction(binary, {binary.bits(["normal"]): 1.4, binary.bits(["abnormal"]): -0.4})

    @pytest.mark.parametrize("bits", [0, 0b100])
    def test_mass_on_a_set_outside_the_frame_rejected(self, binary, bits):
        message = f"^mass on invalid subset bits {bits:#x} for frame of size 2$"
        with pytest.raises(EvidenceError, match=message):
            MassFunction(binary, {bits: 0.5, 0b11: 0.5})

    @pytest.mark.parametrize("key", [1.5, 1.0, True, "1", (1,)],
                             ids=["fraction", "integral-float", "bool", "str", "tuple"])
    def test_focal_set_that_is_not_an_int_rejected(self, binary, key):
        # A float key used to be stored, and then str() and combine() raised on it.
        message = re.escape(f"focal set {key!r} is not an int bitmask")
        with pytest.raises(EvidenceError, match=f"^{message}$"):
            MassFunction(binary, {key: 0.5, 0b11: 0.5})

    def test_zero_entries_dropped(self, binary):
        m = MassFunction(binary, {binary.bits(["normal"]): 1.0, binary.bits(["abnormal"]): 0.0})
        assert len(m) == 1

    def test_immutable(self, binary):
        m = vacuous_mass(binary)
        with pytest.raises(AttributeError):
            m.frame = binary

    @pytest.mark.parametrize("clone", [
        lambda m: pickle.loads(pickle.dumps(m)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_pickles_and_copies(self, witnesses, clone):
        _, m1, m2 = witnesses
        underflowed = [
            combine(MassFunction(frame, left), MassFunction(frame, right))
            for frame, left, right, *_ in UNDERFLOW_PAIRS
        ]
        for m in (m1, combine(m1, m2), vacuous_mass(m1.frame), *underflowed):
            other = clone(m)
            assert other == m
            assert list(other._masses.items()) == list(m._masses.items())
            with pytest.raises(AttributeError):
                other.frame = m.frame

    def test_rendering_six_significant_digits(self, binary):
        m = MassFunction(binary, {1: 0.41 / 0.61, 2: 0.19 / 0.61, 3: 0.01 / 0.61})
        assert str(m) == "{normal:0.672131, abnormal:0.311475, Θ:0.0163934}"
        assert repr(m) == "MassFunction({normal:0.672131, abnormal:0.311475, Θ:0.0163934})"


class TestVacuous:
    def test_two_element(self, binary):
        m = vacuous_mass(binary)
        assert m.mass_bits(binary.bits(binary.labels)) == 1.0
        assert len(m) == 1

    def test_three_element(self):
        frame = make_frame(["a", "b", "c"])
        assert vacuous_mass(frame).mass_bits(frame.bits(frame.labels)) == 1.0

    def test_belief_of_proper_subset_is_zero(self, binary):
        m = vacuous_mass(binary)
        assert belief(m, binary.bits(["normal"])) == 0.0


class TestConflict:
    def test_witness_conflict(self, witnesses):
        _, m1, m2 = witnesses
        assert combine_with_conflict(m1, m2)[1] == pytest.approx(0.99, abs=1e-12)

    def test_vacuous_conflict_is_zero(self, binary):
        assert combine_with_conflict(vacuous_mass(binary), vacuous_mass(binary))[1] == 0.0

    def test_binary_point_three_nine(self, binary):
        n, a = binary.bits(["normal"]), binary.bits(["abnormal"])
        t = binary.bits(binary.labels)
        m1 = MassFunction(binary, {n: 0.6, a: 0.3, t: 0.1})
        m2 = MassFunction(binary, {n: 0.5, a: 0.4, t: 0.1})
        assert combine_with_conflict(m1, m2)[1] == pytest.approx(0.39, abs=1e-12)

    def test_frame_mismatch(self, binary, witnesses):
        with pytest.raises(FrameMismatchError):
            combine_with_conflict(vacuous_mass(binary), witnesses[1])


class TestCombine:
    def test_witness_normalization_pathology(self, witnesses):
        frame, m1, m2 = witnesses
        combined = combine(m1, m2)
        assert combined.mass_bits(frame.bits(["Mary"])) == pytest.approx(1.0, abs=1e-12)
        assert len(combined) == 1

    def test_vacuous_is_identity(self, binary):
        n, a = binary.bits(["normal"]), binary.bits(["abnormal"])
        t = binary.bits(binary.labels)
        m = MassFunction(binary, {n: 0.6, a: 0.3, t: 0.1})
        combined = combine(m, vacuous_mass(binary))
        for subset in (n, a, t):
            assert combined.mass_bits(subset) == pytest.approx(m.mass_bits(subset), abs=1e-12)

    def test_binary_example_values(self, binary):
        n, a = binary.bits(["normal"]), binary.bits(["abnormal"])
        t = binary.bits(binary.labels)
        m1 = MassFunction(binary, {n: 0.6, a: 0.3, t: 0.1})
        m2 = MassFunction(binary, {n: 0.5, a: 0.4, t: 0.1})
        combined = combine(m1, m2)
        assert combined.mass_bits(n) == pytest.approx(0.41 / 0.61, abs=1e-9)
        assert combined.mass_bits(a) == pytest.approx(0.19 / 0.61, abs=1e-9)
        assert combined.mass_bits(t) == pytest.approx(0.01 / 0.61, abs=1e-9)

    def test_total_conflict_raises(self, binary):
        n, a = binary.bits(["normal"]), binary.bits(["abnormal"])
        m1 = MassFunction(binary, {n: 1.0})
        m2 = MassFunction(binary, {a: 1.0})
        with pytest.raises(TotalConflictError):
            combine(m1, m2)

    @pytest.mark.parametrize("frame, left, right, focal, rendered", UNDERFLOW_PAIRS,
                             ids=["three-label", "binary"])
    def test_underflowing_product_is_not_focal(self, frame, left, right, focal, rendered):
        m1, m2 = MassFunction(frame, left), MassFunction(frame, right)
        combined, _ = combine_with_conflict(m1, m2)
        assert combined == combine(m1, m2)
        assert list(combined._masses) == focal
        assert (len(combined), str(combined)) == (len(focal), rendered)

    def test_agrees_with_oracle(self, binary):
        n, a = binary.bits(["normal"]), binary.bits(["abnormal"])
        t = binary.bits(binary.labels)
        m1 = MassFunction(binary, {n: 0.6, a: 0.3, t: 0.1})
        m2 = MassFunction(binary, {n: 0.5, a: 0.4, t: 0.1})
        expected, k = oracle_combine(mass_to_frozensets(m1), mass_to_frozensets(m2))
        combined = mass_to_frozensets(combine(m1, m2))
        assert k == pytest.approx(combine_with_conflict(m1, m2)[1], abs=1e-12)
        assert combined == pytest.approx(expected, abs=1e-12)


class TestCombineAll:
    def test_order_independence(self):
        frame = make_frame(["c1", "c2", "c3"])
        theta = frame.bits(frame.labels)
        pair23 = MassFunction(frame, {frame.bits(["c2", "c3"]): 0.9, theta: 0.1})
        pair13 = MassFunction(frame, {frame.bits(["c1", "c3"]): 0.9, theta: 0.1})
        results = []
        for position in range(5):
            masses = [pair23] * 4
            masses.insert(position, pair13)
            results.append(reduce(combine, masses))
        for other in results[1:]:
            for subset, value in results[0].items():
                assert other.mass_bits(subset) == pytest.approx(value, abs=1e-9)

    def test_boundary_vote_fold(self):
        # one dissenting pair among three agreeing pairs concentrates mass
        # on the shared class
        frame = make_frame(["c1", "c2", "c3"])
        theta = frame.bits(frame.labels)
        pair23 = MassFunction(frame, {frame.bits(["c2", "c3"]): 0.9, theta: 0.1})
        pair13 = MassFunction(frame, {frame.bits(["c1", "c3"]): 0.9, theta: 0.1})
        combined = reduce(combine, [pair23, pair13, pair23, pair23])
        assert combined.mass_bits(frame.bits(["c3"])) == pytest.approx(0.8991, abs=1e-9)
        assert combined.mass_bits(frame.bits(["c2", "c3"])) == pytest.approx(0.0999, abs=1e-9)
        assert combined.mass_bits(frame.bits(["c1", "c3"])) == pytest.approx(0.0009, abs=1e-9)
        assert combined.mass_bits(theta) == pytest.approx(0.0001, abs=1e-9)


    def test_heavy_conflict_stays_normalized(self, binary):
        # K comes within ~1e-7 of 1 at every step, where 1 - K keeps few
        # correct digits; the fused masses must still sum to 1.
        n, a = binary.bits(["normal"]), binary.bits(["abnormal"])
        t = binary.bits(binary.labels)
        to_normal = MassFunction(binary, {n: 1 - 1e-7, t: 1e-7})
        to_abnormal = MassFunction(binary, {a: 1 - 1e-7, t: 1e-7})
        combined = reduce(combine, [to_normal, to_abnormal, to_normal, to_abnormal])
        assert combined.mass_bits(n) == pytest.approx(0.5, abs=1e-12)
        assert combined.mass_bits(a) == pytest.approx(0.5, abs=1e-12)
        assert abs(sum(value for _, value in combined.items()) - 1.0) <= 1e-12


class TestCombineBinary:
    def test_matches_combine_example(self, binary):
        n, a = binary.bits(["normal"]), binary.bits(["abnormal"])
        t = binary.bits(binary.labels)
        combined = combine_binary(binary, [(0.6, 0.3, 0.1), (0.5, 0.4, 0.1)])
        assert combined.mass_bits(n) == pytest.approx(0.41 / 0.61, abs=1e-15)
        assert combined.mass_bits(a) == pytest.approx(0.19 / 0.61, abs=1e-15)
        assert combined.mass_bits(t) == pytest.approx(0.01 / 0.61, abs=1e-15)

    @pytest.mark.parametrize(
        "rows",
        [((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
         ((1 - 1e-13, 1e-13, 0.0), (1e-13, 1 - 1e-13, 0.0))],
    )
    def test_total_conflict_raises_like_combine(self, binary, rows):
        masses = [MassFunction(binary, {1: m0, 2: m1, 3: mt}) for m0, m1, mt in rows]
        with pytest.raises(TotalConflictError):
            combine(*masses)
        with pytest.raises(TotalConflictError):
            combine_binary(binary, rows)

    def test_total_conflict_bound_is_inclusive(self, binary):
        # K equals 1 - IDENTITY_TOL exactly, and the guard raises at K >= that
        # bound, in the pairwise rule and in the closed form alike.
        c = 1.0 - IDENTITY_TOL
        assert 1.0 - (1.0 - c) == c
        with pytest.raises(TotalConflictError, match=re.escape(f"K={c!r}")):
            combine_with_conflict(MassFunction(binary, {1: 1.0}),
                                  MassFunction(binary, {2: c, 3: 1.0 - c}))
        with pytest.raises(TotalConflictError, match=re.escape(f"K={c!r}")):
            combine_binary(binary, [(1.0, 0.0, 0.0), (0.0, c, 1.0 - c)])
        below = math.nextafter(c, 0.0)
        certain = MassFunction(binary, {1: 1.0})
        near = MassFunction(binary, {2: below, 3: 1.0 - below})
        assert combine_with_conflict(certain, near)[1] == below
        combine_binary(binary, [(1.0, 0.0, 0.0), (0.0, below, 1.0 - below)])

    def test_total_conflict_subtracts_the_theta_product(self, binary):
        # Rows (1 - a, 0, a) and (0, 1 - a, a) leave 1 - K = 2a - a² for a just over half the
        # bound's distance from 1: K rounds to the bound and raises, where adding a² (2.5e-25)
        # would leave it one ulp below. binary_commonalities judges it, combine_binary through it.
        bound = 1.0 - IDENTITY_TOL
        a = ((1.0 - bound) + 2.0**-54) / 2
        rows = [(1.0 - a, 0.0, a), (0.0, 1.0 - a, a)]
        for fuse in (binary_commonalities, lambda rows: combine_binary(binary, rows)):
            with pytest.raises(TotalConflictError, match=re.escape(f"K={bound!r})")):
                fuse(rows)

    def test_zero_masses_are_not_focal(self, binary):
        combined = combine_binary(binary, [(0.5, 0.0, 0.5), (0.2, 0.0, 0.8)])
        assert sorted(bits for bits, _ in combined.items()) == [1, 3]
        assert combined.mass_bits(3) == pytest.approx(0.4, abs=1e-15)

    def test_empty_rows_rejected(self, binary):
        with pytest.raises(EvidenceError, match="^binary combination needs at least one row$"):
            combine_binary(binary, [])

    def test_three_label_frame_rejected(self):
        with pytest.raises(EvidenceError, match="^binary combination needs a 2-label frame, got 3"):
            combine_binary(make_frame(["c1", "c2", "c3"]), [(0.5, 0.5, 0.0)])

    def test_frame_size_checked_before_rows(self):
        with pytest.raises(EvidenceError, match="^binary combination needs a 2-label frame, got 3"):
            combine_binary(make_frame(["c1", "c2", "c3"]), [])


class TestBeliefPlausibility:
    def test_belief_of_theta_is_one(self, witnesses):
        frame, m1, _ = witnesses
        assert belief(m1, frame.bits(frame.labels)) == pytest.approx(1.0, abs=1e-12)

    def test_belief_sums_subsets(self):
        frame = make_frame(["c1", "c2", "c3"])
        m = MassFunction(frame, {0b100: 0.8991, 0b110: 0.0999, 0b101: 0.0009, 0b111: 0.0001})
        assert belief(m, frame.bits(["c2", "c3"])) == pytest.approx(0.9990, abs=1e-12)

    def test_plausibility_of_theta(self, binary):
        m = vacuous_mass(binary)
        assert plausibility(m, binary.bits(binary.labels)) == 1.0

    def test_vacuous_interval_is_total_ignorance(self, binary):
        m = vacuous_mass(binary)
        for label in binary.labels:
            assert belief(m, binary.bits([label])) == 0.0
            assert plausibility(m, binary.bits([label])) == 1.0

    def test_an_empty_sum_is_the_float_zero(self):
        # b and c hold no mass, so Bel(b), Bel(c) and Pl(c) sum no term: 0.0, not the int 0.
        frame = make_frame(["a", "b", "c"])
        m = MassFunction(frame, {0b001: 0.88, 0b011: 0.12})
        empty = [belief(m, 0b010), belief(m, 0b100), plausibility(m, 0b100)]
        assert [(type(v), v) for v in empty] == [(float, 0.0)] * 3

    def test_plausibility_complement_identity(self, binary):
        n, a = binary.bits(["normal"]), binary.bits(["abnormal"])
        t = binary.bits(binary.labels)
        m = MassFunction(binary, {1: 0.41 / 0.61, 2: 0.19 / 0.61, 3: 0.01 / 0.61})
        assert plausibility(m, n) == pytest.approx(1.0 - belief(m, a), abs=1e-12)
        assert plausibility(m, n) == pytest.approx(0.68852, abs=1e-5)

    def test_interval_of_a_mass_summing_within_tolerance_above_one(self, binary):
        # MassFunction accepts a sum within SUM_TOL of 1, and so does the interval:
        # Pl = 1 + 9e-10 used to be refused against a 1e-12 bound.
        m = MassFunction(binary, {1: 0.5, 3: 0.5000000009})
        normal = binary.bits(["normal"])
        assert (belief(m, normal), plausibility(m, normal)) == (0.5, 1.0000000009)


def test_interval_width_is_uncertainty():
    frame = make_frame(["a", "b", "c"])
    m = MassFunction(frame, {0b001: 0.5, 0b011: 0.3, 0b111: 0.2})
    bel, pl = belief(m, frame.bits(["a"])), plausibility(m, frame.bits(["a"]))
    assert bel == pytest.approx(0.5)
    assert pl == pytest.approx(1.0)
    assert pl - bel == pytest.approx(0.5)
