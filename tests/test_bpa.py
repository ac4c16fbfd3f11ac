"""Unit and property tests for the mass-assignment builders."""

import json
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dsfusion import (
    BINARY_FRAME,
    BoundaryModel,
    ScaledSigmoidBpa,
    SigmoidBpa,
    TableBpa,
    boundary_mass,
    bpa_from_dict,
    bpa_to_dict,
    class_columns,
    class_moments,
    distance_mass,
    fit_boundaries,
    fsv,
    make_frame,
    modified_median_threshold,
    scaled_sigmoid_mass,
    select_feature,
    sigmoid_mass,
    table_mass,
)
from dsfusion.bpa import DegenerateFeatureError, moments

THREE = make_frame(["c1", "c2", "c3"])

# The published per-class training ranges for the four-feature benchmark:
# bounds[feature][class] = (min, max).
TRAINING_BOUNDS = (
    ((4.3, 5.8), (4.9, 6.9), (4.9, 7.9)),
    ((2.3, 4.4), (2.0, 3.3), (2.2, 3.8)),
    ((1.0, 1.9), (3.3, 5.1), (4.5, 6.7)),
    ((0.1, 0.6), (1.0, 1.7), (1.4, 2.5)),
)

# Overlapping example ranges whose membership bands step through
# {c1}, {c1,c2}, all, {c2,c3}, {c3}.
EXAMPLE_BOUNDS = ((1.0, 4.0), (2.5, 4.5), (3.0, 6.0))


class TestModifiedMedianThreshold:
    def test_rank_413_of_630(self):
        values = list(range(630))
        assert modified_median_threshold(values, 458, 699) == sorted(values)[412]

    def test_rank_412_of_629(self):
        values = list(range(1000, 1629))
        assert modified_median_threshold(values, 458, 699) == sorted(values)[411]

    def test_even_split_takes_middle(self):
        values = [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]
        assert modified_median_threshold(values, 5, 10) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            modified_median_threshold([], 1, 2)

    def test_degenerate_fractions_rejected(self):
        with pytest.raises(ValueError):
            modified_median_threshold([1.0], 0, 5)
        with pytest.raises(ValueError):
            modified_median_threshold([1.0], 5, 5)

    def test_rank_scales_with_present_values(self):
        # a column with missing cells keeps the same normal fraction
        values = list(range(100))
        assert modified_median_threshold(values, 458, 699) == sorted(values)[
            round(100 * 458 / 699) - 1
        ]


class TestSigmoidMass:
    def test_midpoint(self):
        m = sigmoid_mass(5.0, SigmoidBpa(5.0))
        assert m.mass_bits(1) == 0.5
        assert m.mass_bits(2) == 0.5

    def test_below_threshold_leans_normal(self):
        m = sigmoid_mass(3.0, SigmoidBpa(5.0))
        assert m.mass_bits(1) == pytest.approx(1 / (1 + math.exp(-2)), abs=1e-12)

    def test_above_threshold_leans_abnormal(self):
        m = sigmoid_mass(10.0, SigmoidBpa(5.0))
        assert m.mass_bits(1) == pytest.approx(1 / (1 + math.exp(5)), abs=1e-12)

    def test_saturation_clamped(self):
        m = sigmoid_mass(10000.0, SigmoidBpa(0.0))
        assert m.mass_bits(1) == pytest.approx(1e-15)
        assert m.mass_bits(2) == 1.0 - 1e-15

    def test_masses_complement_exactly(self):
        for value in (0.0, 1.5, 4.0, 9.0, 700.0):
            m = sigmoid_mass(value, SigmoidBpa(5.0))
            assert m.mass_bits(1) + m.mass_bits(2) == 1.0

    @given(st.floats(min_value=-30, max_value=30), st.floats(min_value=-30, max_value=30))
    def test_strictly_decreasing(self, a, b):
        # strict inside the unclamped band; the 1e-15 clamp flattens the tails
        bpa = SigmoidBpa(0.0)
        lo, hi = sorted((a, b))
        if hi - lo < 1e-9:
            return
        assert sigmoid_mass(hi, bpa).mass_bits(1) < sigmoid_mass(lo, bpa).mass_bits(1)


class TestScaledSigmoidMass:
    BPA = ScaledSigmoidBpa(threshold=30.0, floor=0.3, ceiling=0.7, theta_mass=0.01)

    def test_midpoint(self):
        m = scaled_sigmoid_mass(30.0, self.BPA)
        assert m.mass_bits(1) == pytest.approx(0.5, abs=1e-12)
        assert m.mass_bits(2) == pytest.approx(0.49, abs=1e-12)
        assert m.mass_bits(3) == pytest.approx(0.01, abs=1e-12)

    def test_short_interval_hits_ceiling(self):
        assert scaled_sigmoid_mass(0.0, self.BPA).mass_bits(1) == pytest.approx(0.7, abs=1e-9)

    def test_long_interval_hits_floor(self):
        assert scaled_sigmoid_mass(94665.0, self.BPA).mass_bits(1) == pytest.approx(0.3, abs=1e-9)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            scaled_sigmoid_mass(-1.0, self.BPA)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            ScaledSigmoidBpa(threshold=1.0, floor=0.7, ceiling=0.3, theta_mass=0.01)
        with pytest.raises(ValueError):
            ScaledSigmoidBpa(threshold=1.0, floor=0.0, ceiling=0.995, theta_mass=0.01)

    @given(st.floats(min_value=0, max_value=1e6))
    def test_stays_between_floor_and_ceiling(self, value):
        m = scaled_sigmoid_mass(value, self.BPA)
        assert 0.3 - 1e-12 <= m.mass_bits(1) <= 0.7 + 1e-12
        if abs(value - 30.0) < 25:
            assert 0.3 < m.mass_bits(1) < 0.7


class TestTableMass:
    SPOOFED = TableBpa(((0.9, 0.09, 0.01), (0.1, 0.89, 0.01)))
    DANGEROUS = TableBpa(((0.8, 0.19, 0.01), (0.2, 0.79, 0.01)))
    BENIGN = TableBpa(((0.6, 0.39, 0.01), (0.4, 0.59, 0.01)))

    def test_spoofed_row(self):
        m = table_mass(1, self.SPOOFED)
        assert (m.mass_bits(1), m.mass_bits(2), m.mass_bits(3)) == (0.1, 0.89, 0.01)

    def test_dangerous_row(self):
        m = table_mass(0, self.DANGEROUS)
        assert (m.mass_bits(1), m.mass_bits(2), m.mass_bits(3)) == (0.8, 0.19, 0.01)

    def test_benign_row(self):
        m = table_mass(1, self.BENIGN)
        assert (m.mass_bits(1), m.mass_bits(2), m.mass_bits(3)) == (0.4, 0.59, 0.01)

    def test_non_binary_value_rejected(self):
        with pytest.raises(ValueError):
            table_mass(2, self.SPOOFED)

    def test_row_sum_validated(self):
        with pytest.raises(ValueError):
            TableBpa(((0.9, 0.09, 0.02), (0.1, 0.89, 0.01)))


class TestFitBoundaries:
    def test_single_record_per_class(self):
        samples = [((1.0, 5.0), 0), ((2.0, 6.0), 1), ((3.0, 7.0), 2)]
        model = fit_boundaries(class_moments(class_columns(samples)))
        assert model.bounds[0] == ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0))

    def test_min_max_observed(self):
        samples = [((4.3,), 0), ((5.8,), 0), ((5.0,), 0), ((4.9,), 1), ((6.9,), 1),
                   ((4.9,), 2), ((7.9,), 2)]
        model = fit_boundaries(class_moments(class_columns(samples)))
        assert model.bounds[0] == ((4.3, 5.8), (4.9, 6.9), (4.9, 7.9))

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            fit_boundaries(class_moments(class_columns([((1.0,), 0), ((2.0,), 1)])))

    def test_identical_classes_identical_ranges(self):
        samples = [((1.0,), 0), ((2.0,), 0), ((1.0,), 1), ((2.0,), 1), ((1.0,), 2), ((2.0,), 2)]
        model = fit_boundaries(class_moments(class_columns(samples)))
        assert model.bounds[0][0] == model.bounds[0][1]


class TestBoundaryMass:
    def test_single_class_band(self):
        m = boundary_mass(2.0, EXAMPLE_BOUNDS, THREE)
        assert m.mass_bits(0b001) == 0.9
        assert m.mass_bits(0b111) == pytest.approx(0.1)

    def test_triple_overlap_is_total_ignorance(self):
        m = boundary_mass(3.5, EXAMPLE_BOUNDS, THREE)
        assert m.mass_bits(0b111) == 1.0
        assert len(m) == 1

    def test_pair_band(self):
        m = boundary_mass(4.2, EXAMPLE_BOUNDS, THREE)
        assert m.mass_bits(0b110) == 0.9

    def test_below_all_ranges_goes_to_nearest(self):
        m = boundary_mass(0.5, EXAMPLE_BOUNDS, THREE)
        assert m.mass_bits(0b001) == 0.9

    def test_nearest_range_rounding_tie_decided_exactly(self):
        # The gaps 1 + 1e-20 and 1 - 1e-20 both round to 1.0; exactly, class 1 is nearer.
        m = boundary_mass(1e-20, ((-2.0, -1.0), (1.0, 2.0), (5.0, 6.0)), THREE)
        assert m.mass_bits(0b010) == 0.9

    def test_above_all_ranges_goes_to_nearest(self):
        m = boundary_mass(7.0, EXAMPLE_BOUNDS, THREE)
        assert m.mass_bits(0b100) == 0.9

    def test_training_bounds_pair_band(self):
        # a width of 3.4 exceeds the middle class's maximum but fits the others
        m = boundary_mass(3.4, TRAINING_BOUNDS[1], THREE)
        assert m.mass_bits(0b101) == 0.9
        assert m.mass_bits(0b111) == pytest.approx(0.1)

    def test_confidence_configurable(self):
        m = boundary_mass(2.0, EXAMPLE_BOUNDS, THREE, confidence=0.8)
        assert m.mass_bits(0b001) == 0.8

    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=0, max_value=5),
    )
    def test_enlarging_a_range_grows_membership(self, value, widen):
        base = boundary_mass(value, EXAMPLE_BOUNDS, THREE)
        (lo, hi), b2, b3 = EXAMPLE_BOUNDS
        widened = boundary_mass(value, ((lo - widen, hi + widen), b2, b3), THREE)
        base_sets = {s.bits for s, _ in base.items() if s.bits != 0b111}
        wide_sets = {s.bits for s, _ in widened.items() if s.bits != 0b111}
        if lo - widen <= value <= hi + widen and base_sets and wide_sets:
            # class 1 membership can only appear, never vanish
            if any(bits & 0b001 for bits in base_sets):
                assert any(bits & 0b001 for bits in wide_sets) or widened.mass_bits(0b111) == 1.0


class TestFsv:
    def test_separated_classes(self):
        value = fsv([[1.0, 2.0, 3.0], [7.0, 8.0, 9.0]])
        assert value == pytest.approx(1.0 / math.sqrt(58 / 5), abs=1e-9)

    def test_zero_spread_class_gives_zero(self):
        assert fsv([[5.0, 5.0, 5.0], [9.0, 9.0, 9.0]]) == 0.0

    def test_identical_classes_pool(self):
        union = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
        mean = sum(union) / 6
        union_sd = math.sqrt(sum((v - mean) ** 2 for v in union) / 5)
        assert fsv([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]) == pytest.approx(1.0 / union_sd)

    def test_degenerate_union_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            fsv([[2.0, 2.0], [2.0, 2.0]])

    @pytest.mark.parametrize("value", [0.1, 1.1, 2.0])
    def test_identical_values_are_degenerate_at_any_value(self, value):
        # The float mean of [0.1] * 3 is not 0.1, so a two-pass sd is not 0.
        with pytest.raises(DegenerateFeatureError):
            fsv([[value] * 3, [value] * 3])
        with pytest.raises(DegenerateFeatureError):
            fsv([[value] * 2, [value] * 4, [value] * 3])

    def test_constant_classes_have_exactly_zero_sd(self):
        assert fsv([[0.1] * 3, [0.2] * 3]) == 0.0
        assert fsv([[0.1] * 3, [0.2, 0.3, 0.4]]) == 0.0
        assert moments([0.1] * 3).sd == 0.0

    def test_class_size_minimums(self):
        with pytest.raises(ValueError):
            fsv([[1.0], [2.0, 3.0]])
        with pytest.raises(ValueError):
            fsv([[1.0, 2.0]])

    @given(
        st.lists(
            st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=12),
            min_size=2,
            max_size=3,
        )
    )
    def test_pooled_union_matches_two_pass_definition(self, grouped):
        # Per-class sds by two passes over each class, the union sd by two
        # passes over the concatenated values.
        def sd(values):
            mean = sum(values) / len(values)
            return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))

        union = [v for values in grouped for v in values]
        if min(union) == max(union):
            with pytest.raises(DegenerateFeatureError):
                fsv(grouped)
            return
        union_sd = sd(union)
        assume(union_sd > 1e-3)
        expected = math.prod(0.0 if min(v) == max(v) else sd(v) for v in grouped) / union_sd
        assert fsv(grouped) == pytest.approx(expected, rel=1e-9, abs=1e-300)

    @given(st.floats(min_value=-100, max_value=100))
    def test_translation_invariance(self, shift):
        base = fsv([[1.0, 2.0, 3.0], [7.0, 8.0, 9.0]])
        shifted = fsv([[v + shift for v in (1.0, 2.0, 3.0)], [v + shift for v in (7.0, 8.0, 9.0)]])
        assert shifted == pytest.approx(base, rel=1e-9)

    @given(st.floats(min_value=0.1, max_value=10))
    def test_scaling_power_law(self, scale):
        # n classes scale the ratio by |lambda|^(n-1)
        base = fsv([[1.0, 2.0, 3.0], [7.0, 8.0, 9.0]])
        scaled = fsv([[v * scale for v in (1.0, 2.0, 3.0)], [v * scale for v in (7.0, 8.0, 9.0)]])
        assert scaled == pytest.approx(base * scale, rel=1e-9)


def _present_moments(samples):
    # class_moments of the classes that have samples; these tests use
    # classes 0 and 1, or all three, so dropping an empty class 2 keeps
    # every index.
    return [[moments(v) for v in per_class if v] for per_class in class_columns(samples)]


class TestSelectFeature:
    def test_picks_tightest_separator(self):
        samples = []
        for v in (1.0, 1.1, 1.2):
            samples.append(((v * 7, 5.0 + v, v), 0))
        for v in (9.0, 9.1, 9.2):
            samples.append(((v, 5.0 + v / 10, v), 1))
        assert select_feature(_present_moments(samples), (0, 1)) == 2

    def test_tie_goes_to_lowest_index(self):
        samples = [((1.0, 1.0), 0), ((2.0, 2.0), 0), ((7.0, 7.0), 1), ((8.0, 8.0), 1)]
        assert select_feature(_present_moments(samples), (0, 1)) == 0

    def test_all_degenerate_rejected(self):
        samples = [((2.0,), 0), ((2.0,), 0), ((2.0,), 1), ((2.0,), 1)]
        with pytest.raises(DegenerateFeatureError):
            select_feature(_present_moments(samples), (0, 1))

    def test_constant_feature_is_skipped(self):
        # Feature 0 is 0.1 everywhere: no signal, so feature 1 is picked for every group.
        samples = [((0.1, 10.0 * c + i), c) for c in range(3) for i in range(3)]
        stats = class_moments(class_columns(samples))
        for group in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
            assert select_feature(stats, group) == 1

    def test_three_class_form(self):
        samples = []
        for c, center in enumerate((1.0, 5.0, 9.0)):
            for dv in (-0.1, 0.0, 0.1):
                samples.append(((center + dv, 100 * (center + dv)), c))
        # feature 1 is feature 0 scaled by 100; scaling law for 3 classes
        # multiplies fsv by 100^2, so feature 0 wins
        assert select_feature(_present_moments(samples), (0, 1, 2)) == 0


class TestDistanceMass:
    MEANS = (1.0, 2.0, 3.0)

    def test_exact_mean_wins(self):
        m = distance_mass(1.0, self.MEANS, THREE)
        assert m.mass_bits(0b001) == 0.8
        assert m.mass_bits(0b111) == pytest.approx(0.2)

    def test_nearest_mean_wins(self):
        m = distance_mass(2.4, self.MEANS, THREE)
        assert m.mass_bits(0b010) == 0.8

    def test_tie_goes_to_lowest_class(self):
        m = distance_mass(2.0, (1.0, 3.0, 100.0), THREE)
        assert m.mass_bits(0b001) == 0.8

    def test_rounding_tie_decided_exactly(self):
        # |1e-20 - (-1)| and |1e-20 - 1| both round to 1.0; exactly, class 1 is nearer.
        m = distance_mass(1e-20, (-1.0, 1.0, 5.0), THREE)
        assert m.mass_bits(0b010) == 0.8

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_translation_invariance(self, shift):
        m1 = distance_mass(2.4, self.MEANS, THREE)
        m2 = distance_mass(2.4 + shift, tuple(v + shift for v in self.MEANS), THREE)
        assert {s.bits for s, _ in m1.items()} == {s.bits for s, _ in m2.items()}


# One model of every bpa kind.
BPA_MODELS = [
    SigmoidBpa(4.5),
    ScaledSigmoidBpa(30.0, 0.3, 0.7, 0.01),
    TableBpa(((0.9, 0.09, 0.01), (0.1, 0.89, 0.01))),
    BoundaryModel(TRAINING_BOUNDS),
]


class TestSerialization:
    @pytest.mark.parametrize("model", BPA_MODELS)
    def test_round_trip(self, model):
        assert bpa_from_dict(bpa_to_dict(model)) == model

    @pytest.mark.parametrize("model", BPA_MODELS)
    def test_round_trip_through_json_text(self, model):
        # JSON has no tuples: the arrays must come back as tuples of floats
        # for the model to compare equal and stay hashable.
        restored = bpa_from_dict(json.loads(json.dumps(bpa_to_dict(model))))
        assert restored == model
        hash(restored)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            bpa_from_dict({"kind": "mystery"})


def test_every_builder_output_is_normalized():
    outputs = [
        sigmoid_mass(3.0, SigmoidBpa(5.0)),
        scaled_sigmoid_mass(12.0, ScaledSigmoidBpa(30.0, 0.3, 0.7, 0.01)),
        table_mass(0, TableBpa(((0.6, 0.39, 0.01), (0.4, 0.59, 0.01)))),
        boundary_mass(3.4, TRAINING_BOUNDS[1], THREE),
        distance_mass(2.4, (1.0, 2.0, 3.0), THREE),
    ]
    for m in outputs:
        assert abs(sum(v for _, v in m.items()) - 1.0) <= 1e-9
        assert all(v > 0 for _, v in m.items())
