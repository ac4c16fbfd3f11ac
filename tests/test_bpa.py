"""Unit and property tests for the mass-assignment builders."""

import json
import math
import re
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from dsfusion import (
    BINARY_FRAME,
    BinaryModel,
    BoundaryModel,
    EmailModel,
    MassFunction,
    ScaledSigmoidBpa,
    SigmoidBpa,
    TableBpa,
    ThreeClassModel,
    class_moments,
    classifier_to_dict,
    email_model_default,
    make_frame,
    select_feature,
    sigmoid_mass,
)
from dsfusion import classify
from dsfusion.bpa import (
    BOUNDARY_CONFIDENCE,
    DISTANCE_CONFIDENCE,
    DegenerateFeatureError,
    _nearest_class,
    binary_row_mass,
    boundary_bits,
    counted_threshold,
    focal_row,
    moments,
    nearest_mean,
    scaled_sigmoid_row,
    table_row,
)

from conftest import grouped_fsv, reference_class_columns

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
    """The paper's modified median, the rank rule of ``counted_threshold``."""

    def test_rank_413_of_630(self):
        # k = floor(630 * 458 / 699 + 0.5) = 413
        assert counted_threshold([(v, 1) for v in range(630)], 458, 699) == 412

    def test_rank_412_of_629(self):
        assert counted_threshold([(v, 1) for v in range(1000, 1629)], 458, 699) == 1411

    def test_even_split_takes_middle(self):
        assert counted_threshold([(v, 1) for v in range(1, 11)], 5, 10) == 5

    def test_half_rank_rounds_up(self):
        # 10 values, 1 normal in 4: k = floor(2.5 + 0.5) = 3, where round(2.5) would give 2.
        assert counted_threshold([(float(v), 1) for v in range(1, 11)], 1, 4) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^cannot take a threshold of an empty value list$"):
            counted_threshold([], 1, 2)

    def test_degenerate_fractions_rejected(self):
        with pytest.raises(ValueError):
            counted_threshold([(1.0, 1)], 0, 5)
        with pytest.raises(ValueError):
            counted_threshold([(1.0, 1)], 5, 5)

    def test_counted_pairs_skip_zero_counts(self):
        # Six values, 2.0 three times and 7.0 three times: rank 3 is the last 2.0.
        assert counted_threshold([(1.0, 0), (2.0, 3), (5.0, 0), (7.0, 3)], 1, 2) == 2.0

    def test_rank_clamps_to_first_present_value(self):
        # Two values, 1 normal in 10: floor(0.2 + 0.5) = 0 clamps to 1, past the 0-count pair.
        assert counted_threshold([(1.0, 0), (2.0, 1), (3.0, 1)], 1, 10) == 2.0

    def test_counted_pairs_without_values_rejected(self):
        with pytest.raises(ValueError, match="^cannot take a threshold of an empty value list$"):
            counted_threshold([(1.0, 0), (2.0, 0)], 1, 2)

    def test_rank_scales_with_present_values(self):
        # a column with missing cells keeps the same normal fraction
        pairs = [(v, 1) for v in range(100)]
        assert counted_threshold(pairs, 458, 699) == round(100 * 458 / 699) - 1


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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^feature value must be finite, got {bad}$"):
            sigmoid_mass(bad, SigmoidBpa(5.0))

    def test_saturation_clamped(self):
        m = sigmoid_mass(10000.0, SigmoidBpa(0.0))
        assert m.mass_bits(1) == pytest.approx(1e-15)
        assert m.mass_bits(2) == 1.0 - 1e-15

    def test_saturation_clamped_below_the_threshold(self):
        m = sigmoid_mass(-10000.0, SigmoidBpa(0.0))
        assert m.mass_bits(1) == 1.0 - 1e-15
        assert m.mass_bits(2) == pytest.approx(1e-15)

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
        m = binary_row_mass(scaled_sigmoid_row(30.0, self.BPA))
        assert m.mass_bits(1) == pytest.approx(0.5, abs=1e-12)
        assert m.mass_bits(2) == pytest.approx(0.49, abs=1e-12)
        assert m.mass_bits(3) == pytest.approx(0.01, abs=1e-12)

    def test_short_interval_hits_ceiling(self):
        m = binary_row_mass(scaled_sigmoid_row(0.0, self.BPA))
        assert m.mass_bits(1) == pytest.approx(0.7, abs=1e-9)

    def test_long_interval_hits_floor(self):
        m = binary_row_mass(scaled_sigmoid_row(94665.0, self.BPA))
        assert m.mass_bits(1) == pytest.approx(0.3, abs=1e-9)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            binary_row_mass(scaled_sigmoid_row(-1.0, self.BPA))

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            ScaledSigmoidBpa(threshold=1.0, floor=0.7, ceiling=0.3, theta_mass=0.01)
        with pytest.raises(ValueError):
            ScaledSigmoidBpa(threshold=1.0, floor=0.0, ceiling=0.995, theta_mass=0.01)

    @pytest.mark.parametrize("floor, ceiling", [
        (0.7, 0.3), (0.5, 0.5), (-0.1, 0.7), (0.3, 1.1), (math.nan, 0.7),
    ], ids=["reversed", "equal", "negative-floor", "ceiling-past-1", "nan-floor"])
    def test_floor_and_ceiling_outside_their_order_rejected(self, floor, ceiling):
        message = re.escape(f"need 0 <= floor < ceiling <= 1, got {floor}, {ceiling}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScaledSigmoidBpa(30.0, floor, ceiling, 0.01)

    @pytest.mark.parametrize("theta_mass", [0.0, 1.0, math.nan])
    def test_theta_mass_outside_the_open_unit_interval_rejected(self, theta_mass):
        message = re.escape(f"theta_mass must be in (0, 1), got {theta_mass}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScaledSigmoidBpa(30.0, 0.3, 0.7, theta_mass)

    @pytest.mark.parametrize("args, abnormal", [
        ((30.0, 0.3, 0.7, 0.3 + 5e-13), "-4.99933427988708e-13"),
        ((1.0, 0.0, 0.995, 0.01), "-0.004999999999999996"),
        ((30.0, 0.3, 1.0, 0.01), "-0.01"),
    ])
    def test_ceiling_row_must_be_a_mass(self, args, abnormal):
        # 0.3 + 5e-13 used to pass a 1e-12 slack on ceiling + theta_mass, and then
        # scaled_sigmoid_row(0.0) gave an abnormal mass of -4.6e-13.
        message = f"ceiling row: mass value {abnormal} is not a finite non-negative number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScaledSigmoidBpa(*args)

    @given(st.floats(min_value=0, max_value=1e6))
    def test_stays_between_floor_and_ceiling(self, value):
        m = binary_row_mass(scaled_sigmoid_row(value, self.BPA))
        assert 0.3 - 1e-12 <= m.mass_bits(1) <= 0.7 + 1e-12
        if abs(value - 30.0) < 25:
            assert 0.3 < m.mass_bits(1) < 0.7


class TestTableMass:
    SPOOFED = TableBpa(((0.9, 0.09, 0.01), (0.1, 0.89, 0.01)))
    DANGEROUS = TableBpa(((0.8, 0.19, 0.01), (0.2, 0.79, 0.01)))
    BENIGN = TableBpa(((0.6, 0.39, 0.01), (0.4, 0.59, 0.01)))

    def test_spoofed_row(self):
        m = binary_row_mass(table_row(1, self.SPOOFED))
        assert (m.mass_bits(1), m.mass_bits(2), m.mass_bits(3)) == (0.1, 0.89, 0.01)

    def test_dangerous_row(self):
        m = binary_row_mass(table_row(0, self.DANGEROUS))
        assert (m.mass_bits(1), m.mass_bits(2), m.mass_bits(3)) == (0.8, 0.19, 0.01)

    def test_benign_row(self):
        m = binary_row_mass(table_row(1, self.BENIGN))
        assert (m.mass_bits(1), m.mass_bits(2), m.mass_bits(3)) == (0.4, 0.59, 0.01)

    def test_non_binary_value_rejected(self):
        with pytest.raises(ValueError):
            binary_row_mass(table_row(2, self.SPOOFED))

    @pytest.mark.parametrize(
        "row, bad", [((1.2, -0.2, 0.0), -0.2), ((0.5, 0.5, math.nan), math.nan)],
        ids=["row0", "row1"],
    )
    def test_row_entry_outside_unit_interval_rejected(self, row, bad):
        # MassFunction's own message, prefixed with the row's index.
        message = re.escape(f"row 1: mass value {bad} is not a finite non-negative number")
        with pytest.raises(ValueError, match=f"^{message}$"):
            TableBpa(((0.9, 0.09, 0.01), row))

    def test_row_sum_validated(self):
        with pytest.raises(ValueError):
            TableBpa(((0.9, 0.09, 0.02), (0.1, 0.89, 0.01)))

    def test_rows_are_held_to_the_mass_tolerance(self):
        # MassFunction accepts a sum within SUM_TOL of 1, so an entry may pass 1 by as much.
        row = (1.0000000009, 0.0, 0.0)
        assert TableBpa((row, row)).rows == (row, row)
        with pytest.raises(ValueError, match="^row 0: masses sum to 1.000000002, "):
            TableBpa(((1.000000002, 0.0, 0.0), row))

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_one_row_per_signal_value(self, count):
        # Without the check a one-row table loads, and classify_email raises a bare IndexError.
        row = [0.9, 0.09, 0.01]
        message = f"^a table needs 2 rows, one per signal value, got {count}$"
        with pytest.raises(ValueError, match=message):
            TableBpa((tuple(row),) * count)


# A mass in [0, 1], and what is added to 1 - ceiling to get theta_mass: the band
# around the ceiling, where the abnormal mass of the ceiling row is about 0.
UNIT = st.floats(min_value=0, max_value=1)
CEILING_OFFSETS = st.sampled_from(["0", "+ulp", "-ulp", "5e-13"])


def _offset(x, offset):
    if offset.endswith("ulp"):
        return math.nextafter(x, math.inf if offset[0] == "+" else -math.inf)
    return x + float(offset)


@given(
    threshold=st.one_of(st.just(0.0), st.floats(min_value=0, max_value=1e6)),
    ceiling=UNIT,
    floor_share=st.floats(min_value=0, max_value=1, exclude_max=True),
    offset=CEILING_OFFSETS,
    large=st.floats(min_value=1e3, max_value=1e300),
)
def test_accepted_scaled_sigmoid_gives_only_mass_rows(
    threshold, ceiling, floor_share, offset, large
):
    theta_mass = _offset(1.0 - ceiling, offset)
    try:
        bpa = ScaledSigmoidBpa(threshold, ceiling * floor_share, ceiling, theta_mass)
    except ValueError:
        return
    for value in (0.0, threshold, large):
        binary_row_mass(scaled_sigmoid_row(value, bpa))


ROWS = st.tuples(UNIT, UNIT, UNIT, st.sampled_from(["0", "+ulp", "-ulp", "5e-10", "-2e-9"]))


@given(st.tuples(ROWS, ROWS))
def test_accepted_table_gives_only_mass_rows(drawn):
    rows = []
    for a, b, c, offset in drawn:
        total = a + b + c
        # Scaled to about 1, then the last entry moved off it by the offset.
        rows.append((a / total, b / total, _offset(c / total, offset)) if total else (a, b, c))
    try:
        bpa = TableBpa(tuple(rows))
    except ValueError:
        return
    for value in (0, 1):
        binary_row_mass(table_row(value, bpa))


class TestFitBoundaries:
    """The boundary fit: ``class_moments``' (lo, hi) per feature and class."""

    def test_single_record_per_class(self):
        rows = [(1.0, 5.0), (2.0, 6.0), (3.0, 7.0)]
        stats = class_moments(reference_class_columns(rows, [0, 1, 2]))
        assert [(m.lo, m.hi) for m in stats[0]] == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError, match=r"^feature 0 class 1: min 2.0 exceeds max 1.0$"):
            BoundaryModel((((0.0, 1.0), (2.0, 1.0), (0.0, 1.0)),))

    def test_min_max_observed(self):
        rows = [(4.3,), (5.8,), (5.0,), (4.9,), (6.9,), (4.9,), (7.9,)]
        stats = class_moments(reference_class_columns(rows, [0, 0, 0, 1, 1, 2, 2]))
        assert [(m.lo, m.hi) for m in stats[0]] == [(4.3, 5.8), (4.9, 6.9), (4.9, 7.9)]

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            class_moments(reference_class_columns([(1.0,), (2.0,)], [0, 1]))

    def test_identical_classes_identical_ranges(self):
        rows = [(1.0,), (2.0,)] * 3
        stats = class_moments(reference_class_columns(rows, [0, 0, 1, 1, 2, 2]))
        assert (stats[0][0].lo, stats[0][0].hi) == (stats[0][1].lo, stats[0][1].hi)

    def test_non_number_cell_is_not_a_missing_value(self):
        # Only a None cell becomes a ValueError; any other TypeError is re-raised.
        columns = reference_class_columns([(1.0,), ("x",), (5.0,)], [0, 1, 2])
        with pytest.raises(TypeError):
            class_moments(columns)

    @pytest.mark.parametrize("values, bad", [
        ([math.nan, 1.0], "nan"), ([1.0, 2.0, math.nan], "nan"), ([math.inf, 1.0], "inf"),
        ([1.0, -math.inf], "-inf"), ([math.inf, -math.inf], "inf"),
    ])
    def test_non_finite_value_named_in_any_position(self, values, bad):
        columns = [[[1.0, 2.0], [3.0], [4.0]], [[5.0], values, [6.0]]]
        message = f"^feature value must be finite, got {bad} in feature 1$"
        with pytest.raises(ValueError, match=message):
            class_moments(columns)

    def test_missing_value_named_before_a_non_finite_one(self):
        with pytest.raises(ValueError, match="^feature 0 has a missing value$"):
            class_moments([[[math.nan, None], [1.0], [2.0]]])

    def test_value_past_the_float_range_named_with_its_feature(self):
        message = f"^feature value {10**400} is beyond the float range in feature 1$"
        with pytest.raises(ValueError, match=message):
            class_moments([[[1.0, 2.0], [3.0], [4.0]], [[5.0], [1, 10**400], [6.0]]])

    def test_finite_values_whose_sum_overflows_pass(self):
        # Their moments carry the infinite sum; the model's checks reject what follows.
        ((big, _, _),) = class_moments([[[1.5e308, 1.7e308], [1.0], [2.0]]])
        assert (big.total, big.lo, big.hi) == (math.inf, 1.5e308, 1.7e308)


class TestBoundaryMass:
    # A boundary source is the bit row focal_row(boundary_bits(...), BOUNDARY_CONFIDENCE).
    def test_single_class_band(self):
        assert boundary_bits(2.0, EXAMPLE_BOUNDS) == 0b001
        row = focal_row(0b001, BOUNDARY_CONFIDENCE)
        assert row == {0b001: 0.9, 0b111: pytest.approx(0.1)}
        assert MassFunction(THREE, row).mass_bits(0b001) == 0.9

    def test_triple_overlap_is_total_ignorance(self):
        assert boundary_bits(3.5, EXAMPLE_BOUNDS) == 0b111
        assert focal_row(0b111, BOUNDARY_CONFIDENCE) == {0b111: 1.0}

    def test_pair_band(self):
        assert boundary_bits(4.2, EXAMPLE_BOUNDS) == 0b110

    def test_below_all_ranges_goes_to_nearest(self):
        assert boundary_bits(0.5, EXAMPLE_BOUNDS) == 0b001

    def test_nearest_range_rounding_tie_decided_exactly(self):
        # The gaps 1 + 1e-20 and 1 - 1e-20 both round to 1.0; exactly, class 1 is nearer.
        assert boundary_bits(1e-20, ((-2.0, -1.0), (1.0, 2.0), (5.0, 6.0))) == 0b010

    def test_nearest_range_exact_tie_goes_to_lowest_class(self):
        assert boundary_bits(0.0, ((-2.0, -1.0), (1.0, 2.0), (5.0, 6.0))) == 0b001

    def test_above_all_ranges_goes_to_nearest(self):
        assert boundary_bits(7.0, EXAMPLE_BOUNDS) == 0b100

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^feature value must be finite, got {bad}$"):
            boundary_bits(bad, EXAMPLE_BOUNDS)

    def test_training_bounds_pair_band(self):
        # a width of 3.4 exceeds the middle class's maximum but fits the others
        assert boundary_bits(3.4, TRAINING_BOUNDS[1]) == 0b101
        assert focal_row(0b101, BOUNDARY_CONFIDENCE) == {0b101: 0.9, 0b111: pytest.approx(0.1)}

    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=0, max_value=5),
    )
    def test_enlarging_a_range_grows_membership(self, value, widen):
        (lo, hi), b2, b3 = EXAMPLE_BOUNDS
        widened = boundary_bits(value, ((lo - widen, hi + widen), b2, b3))
        # class 1 membership can only appear, never vanish
        if boundary_bits(value, EXAMPLE_BOUNDS) & 0b001 or lo - widen <= value <= hi + widen:
            assert widened & 0b001


class TestFsv:
    def test_separated_classes(self):
        value = grouped_fsv([[1.0, 2.0, 3.0], [7.0, 8.0, 9.0]])
        assert value == pytest.approx(1.0 / math.sqrt(58 / 5), abs=1e-9)

    def test_zero_spread_class_gives_zero(self):
        assert grouped_fsv([[5.0, 5.0, 5.0], [9.0, 9.0, 9.0]]) == 0.0

    def test_identical_classes_pool(self):
        union = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
        mean = sum(union) / 6
        union_sd = math.sqrt(sum((v - mean) ** 2 for v in union) / 5)
        assert grouped_fsv([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]) == pytest.approx(1.0 / union_sd)

    def test_degenerate_union_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            grouped_fsv([[2.0, 2.0], [2.0, 2.0]])

    def test_pooled_spread_underflow_rejected(self):
        # The values differ, so the feature is not constant, but its squared spread underflows.
        message = "^pooled spread underflows to 0; feature carries no signal$"
        with pytest.raises(DegenerateFeatureError, match=message):
            grouped_fsv([[0.0, 1e-200], [0.0, 1e-200]])

    @pytest.mark.parametrize("value", [0.1, 1.1, 2.0])
    def test_identical_values_are_degenerate_at_any_value(self, value):
        # The float mean of [0.1] * 3 is not 0.1, so a two-pass sd is not 0.
        with pytest.raises(DegenerateFeatureError):
            grouped_fsv([[value] * 3, [value] * 3])
        with pytest.raises(DegenerateFeatureError):
            grouped_fsv([[value] * 2, [value] * 4, [value] * 3])

    def test_constant_classes_have_exactly_zero_sd(self):
        assert grouped_fsv([[0.1] * 3, [0.2] * 3]) == 0.0
        assert grouped_fsv([[0.1] * 3, [0.2, 0.3, 0.4]]) == 0.0
        assert moments([0.1] * 3).sd == 0.0

    def test_squares_are_products(self):
        # pow() rounds (9.2 - mean) ** 2 one ulp away from (9.2 - mean) * (9.2 - mean).
        assert moments([9.2, 6.4, 0.4]).m2 == 40.426666666666655

    def test_moments_of_no_values_rejected(self):
        with pytest.raises(ValueError, match="^moments need at least one value$"):
            moments([])

    @pytest.mark.parametrize("values, bad", [
        ([1.0, math.nan], "nan"), ([math.nan, 1.0], "nan"), ([1.0, 1.0, math.nan], "nan"),
        ([1.0, math.inf], "inf"), ([-math.inf, 1.0], "-inf"),
    ])
    def test_moments_refuse_a_non_finite_value_in_any_position(self, values, bad):
        # min and max skip a NaN after the first value: [1.0, nan] once read as a constant.
        with pytest.raises(ValueError, match=f"^feature value must be finite, got {bad}$"):
            moments(values)

    def test_moments_of_finite_values_whose_sum_overflows(self):
        m = moments([1.5e308, 1.7e308])
        assert (m.total, m.lo, m.hi) == (math.inf, 1.5e308, 1.7e308)

    @pytest.mark.parametrize("values, bad", [
        ([10**400, 1], 10**400), ([1.0, -10**400], -10**400), ([10**400, -10**400], 10**400),
        ([Fraction(10**400), 1], 10**400), ([1, 2, 3, 10**309], 10**309),
    ], ids=["int", "negative-int", "both-signs", "fraction", "last-of-four"])
    def test_moments_refuse_a_value_past_the_float_range(self, values, bad):
        # Converting it to a float raised an OverflowError, which no caller maps.
        with pytest.raises(ValueError, match=f"^feature value {bad} is beyond the float range$"):
            moments(values)

    def test_moments_refuse_ints_whose_sum_is_past_the_float_range(self):
        # Each of these ints is a float, but their exact int sum is not.
        with pytest.raises(ValueError, match="^feature values' sum is beyond the float range$"):
            moments([10**308, 10**308])

    @pytest.mark.parametrize("grouped, bad", [
        ([[1.0, math.nan], [2.0, 3.0]], "nan"), ([[2.0, 3.0], [math.nan, 1.0]], "nan"),
        ([[1.0, 2.0], [3.0, math.inf]], "inf"),
    ])
    def test_non_finite_value_rejected(self, grouped, bad):
        # The score of [[1.0, nan], [2.0, 3.0]] used to be nan.
        with pytest.raises(ValueError, match=f"^feature value must be finite, got {bad}$"):
            grouped_fsv(grouped)

    @pytest.mark.parametrize("value", [0.1, 0.7, 1.1])
    def test_constant_class_mean_is_its_value(self, value):
        # sum([0.1] * 3) / 3 is 0.10000000000000002, which would put 0.1
        # nearer a class whose mean is exactly 0.1 and break the tie rule.
        assert moments([value] * 3).mean == value

    def test_class_size_minimums(self):
        with pytest.raises(ValueError):
            grouped_fsv([[1.0], [2.0, 3.0]])
        with pytest.raises(ValueError):
            grouped_fsv([[1.0, 2.0]])

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
                grouped_fsv(grouped)
            return
        union_sd = sd(union)
        assume(union_sd > 1e-3)
        expected = math.prod(0.0 if min(v) == max(v) else sd(v) for v in grouped) / union_sd
        assert grouped_fsv(grouped) == pytest.approx(expected, rel=1e-9, abs=1e-300)

    @given(st.floats(min_value=-100, max_value=100))
    def test_translation_invariance(self, shift):
        base = grouped_fsv([[1.0, 2.0, 3.0], [7.0, 8.0, 9.0]])
        shifted = grouped_fsv([[v + shift for v in (1.0, 2.0, 3.0)],
                               [v + shift for v in (7.0, 8.0, 9.0)]])
        assert shifted == pytest.approx(base, rel=1e-9)

    @given(st.floats(min_value=0.1, max_value=10))
    def test_scaling_power_law(self, scale):
        # n classes scale the ratio by |lambda|^(n-1)
        base = grouped_fsv([[1.0, 2.0, 3.0], [7.0, 8.0, 9.0]])
        scaled = grouped_fsv([[v * scale for v in (1.0, 2.0, 3.0)],
                              [v * scale for v in (7.0, 8.0, 9.0)]])
        assert scaled == pytest.approx(base * scale, rel=1e-9)


def _present_moments(rows, labels):
    # class_moments of the classes that have rows; these tests use
    # classes 0 and 1, or all three, so dropping an empty class 2 keeps
    # every index.
    columns = reference_class_columns(rows, labels)
    return [[moments(v) for v in per_class if v] for per_class in columns]


# Three rows of each class 0..2, in class order.
THREE_EACH = [c for c in range(3) for _ in range(3)]


class TestSelectFeature:
    def test_picks_tightest_separator(self):
        rows = [(v * 7, 5.0 + v, v) for v in (1.0, 1.1, 1.2)]
        rows += [(v, 5.0 + v / 10, v) for v in (9.0, 9.1, 9.2)]
        assert select_feature(_present_moments(rows, THREE_EACH[:6]), (0, 1)) == 2

    def test_tie_goes_to_lowest_index(self):
        rows = [(1.0, 1.0), (2.0, 2.0), (7.0, 7.0), (8.0, 8.0)]
        assert select_feature(_present_moments(rows, [0, 0, 1, 1]), (0, 1)) == 0

    def test_all_degenerate_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            select_feature(_present_moments([(2.0,)] * 4, [0, 0, 1, 1]), (0, 1))

    def test_constant_feature_is_skipped(self):
        # Feature 0 is 0.1 everywhere: no signal, so feature 1 is picked for every group.
        rows = [(0.1, 10.0 * c + i) for c in range(3) for i in range(3)]
        stats = class_moments(reference_class_columns(rows, THREE_EACH))
        for group in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
            assert select_feature(stats, group) == 1

    def test_three_class_form(self):
        rows = [
            (center + dv, 100 * (center + dv))
            for center in (1.0, 5.0, 9.0) for dv in (-0.1, 0.0, 0.1)
        ]
        # feature 1 is feature 0 scaled by 100; scaling law for 3 classes
        # multiplies fsv by 100^2, so feature 0 wins
        assert select_feature(_present_moments(rows, THREE_EACH), (0, 1, 2)) == 0


class TestDistanceMass:
    # A distance source is the bit row focal_row(1 << nearest_mean(...), DISTANCE_CONFIDENCE).
    MEANS = (1.0, 2.0, 3.0)

    def test_exact_mean_wins(self):
        assert nearest_mean(1.0, self.MEANS) == 0
        row = focal_row(0b001, DISTANCE_CONFIDENCE)
        assert row == {0b001: 0.8, 0b111: pytest.approx(0.2)}
        assert MassFunction(THREE, row).mass_bits(0b001) == 0.8

    def test_nearest_mean_wins(self):
        assert nearest_mean(2.4, self.MEANS) == 1

    def test_tie_goes_to_lowest_class(self):
        assert nearest_mean(2.0, (1.0, 3.0, 100.0)) == 0

    def test_rounding_tie_decided_exactly(self):
        # |1e-20 - (-1)| and |1e-20 - 1| both round to 1.0; exactly, class 1 is nearer.
        assert nearest_mean(1e-20, (-1.0, 1.0, 5.0)) == 1

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^feature value must be finite, got {bad}$"):
            nearest_mean(bad, self.MEANS)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_translation_invariance(self, shift):
        shifted = tuple(v + shift for v in self.MEANS)
        assert nearest_mean(2.4 + shift, shifted) == nearest_mean(2.4, self.MEANS)


# One model of every bpa kind.
BPA_MODELS = [
    SigmoidBpa(4.5),
    ScaledSigmoidBpa(30.0, 0.3, 0.7, 0.01),
    TableBpa(((0.9, 0.09, 0.01), (0.1, 0.89, 0.01))),
    BoundaryModel(TRAINING_BOUNDS),
]


def holder(model):
    """A classifier that holds the bpa model, and the name of its slot: bpa models reach
    JSON only inside a classifier."""
    if isinstance(model, SigmoidBpa):
        return BinaryModel((model,), 0.5), "bpas"
    if isinstance(model, BoundaryModel):
        means = ((5.0, 5.9, 6.6), (3.4, 2.8, 3.0), (1.5, 4.3, 5.6), (0.2, 1.3, 2.0))
        return ThreeClassModel(THREE, model, means, dict.fromkeys((3, 5, 6, 7), 0)), "boundaries"
    slot = "interval_bpa" if isinstance(model, ScaledSigmoidBpa) else "spoofed_bpa"
    return replace(email_model_default(), **{slot: model}), slot


# Every model kind with its JSON tag, and the key of each field that a dump does not write
# under the field's own name.
KIND_TAGS = {SigmoidBpa: "sigmoid", ScaledSigmoidBpa: "scaled_sigmoid", TableBpa: "table",
             BoundaryModel: "boundary", BinaryModel: "binary", ThreeClassModel: "three_class",
             EmailModel: "email"}
RENAMED = {"frame": "labels", "interval_bpa": "interval", "spoofed_bpa": "spoofed",
           "dangerous_bpa": "dangerous", "benign_bpa": "benign"}


def dump_of(model):
    """The JSON object that a dump writes for the model, nested in a classifier if a bpa."""
    if type(model) in (SigmoidBpa, ScaledSigmoidBpa, TableBpa, BoundaryModel):
        classifier, slot = holder(model)
        data = classifier_to_dict(classifier)[RENAMED.get(slot, slot)]
        return data[0] if slot == "bpas" else data
    return classifier_to_dict(model)


# One model of every kind.
DUMPED = pytest.mark.parametrize("model", [
    *BPA_MODELS, holder(SigmoidBpa(4.5))[0], holder(BoundaryModel(TRAINING_BOUNDS))[0],
    email_model_default(),
], ids=lambda model: type(model).__name__)


class TestSerialization:
    @DUMPED
    def test_a_dump_writes_the_kind_and_every_field(self, model):
        # Nothing reads a dump back, so a dump must describe the whole model by itself.
        data = dump_of(model)
        assert list(data) == ["kind", *(RENAMED.get(f.name, f.name) for f in fields(model))]
        assert data["kind"] == KIND_TAGS[type(model)]

    @DUMPED
    def test_a_dump_is_strict_json_text(self, model):
        # No NaN or infinity, and nothing (a tuple, a float subclass) that JSON text turns
        # into a value that compares unequal: the text holds exactly the dumped values.
        data = dump_of(model)
        assert json.loads(json.dumps(data, allow_nan=False)) == data

    def test_every_kind_has_its_tag(self):
        assert KIND_TAGS == classify._KINDS

    def test_non_model_not_written(self):
        with pytest.raises(TypeError, match="^not a classifier: Moments$"):
            classifier_to_dict(moments([1.0]))


def test_every_builder_output_is_normalized():
    outputs = [
        sigmoid_mass(3.0, SigmoidBpa(5.0)),
        binary_row_mass(scaled_sigmoid_row(12.0, ScaledSigmoidBpa(30.0, 0.3, 0.7, 0.01))),
        binary_row_mass(table_row(0, TableBpa(((0.6, 0.39, 0.01), (0.4, 0.59, 0.01))))),
    ]
    for m in outputs:
        assert abs(sum(v for _, v in m.items()) - 1.0) <= 1e-9
        assert all(v > 0 for _, v in m.items())


# Finite values whose squares and sums stay finite.
VALUES = st.floats(min_value=-1e6, max_value=1e6)


def _square(d):
    # The correctly rounded square of a float, whatever the platform's pow().
    return float(Fraction(d) ** 2)


@given(st.lists(VALUES, min_size=1, max_size=12))
@example([9.2, 6.4, 0.4])
def test_m2_terms_are_correctly_rounded_squares(values):
    m = moments(values)
    expected = 0.0 if m.lo == m.hi else sum([_square(v - m.mean) for v in values])
    assert m.m2 == expected


@given(st.lists(st.lists(VALUES, min_size=2, max_size=8), min_size=2, max_size=3))
# pow() misrounds a between-class square of this example enough to move its fsv.
@example([[3.6, 5.1, 9.7], [0.3, 1.7, 0.3]])
def test_pooled_terms_are_correctly_rounded_squares(grouped):
    try:
        value = grouped_fsv(grouped)
    except DegenerateFeatureError:
        return
    group = [moments(values) for values in grouped]
    n = sum(m.n for m in group)
    mean = sum(m.total for m in group) / n
    within = sum(m.m2 for m in group)
    between = 0.0
    for m in group:
        between += m.n * _square(m.mean - mean)
    assert value == math.prod(m.sd for m in group) / math.sqrt((within + between) / (n - 1))


# Reference versions of the three-class moments and lookup as plain per-class
# loops; the library's versions must match them exactly, errors and messages
# included.


def _reference_class_moments(columns):
    for f, per_class in enumerate(columns):
        for c, values in enumerate(per_class):
            if not values:
                raise ValueError(f"class {c} has no training records")
            if None in values:
                raise ValueError(f"feature {f} has a missing value")
    return [[moments(values) for values in per_class] for per_class in columns]


def _reference_boundary_bits(value, class_bounds):
    bits = 0
    for c, (lo, hi) in enumerate(class_bounds):
        if lo <= value <= hi:
            bits |= 1 << c
    if bits == 0:
        bits = 1 << _nearest_class(value, class_bounds, lambda v, lo, hi: max(lo - v, v - hi))
    return bits


def _outcome(function, *args):
    # A result, or the type and message of the error raised.
    try:
        return function(*args)
    except (TypeError, ValueError) as err:
        return type(err), str(err)


CELLS = st.one_of(VALUES, st.just(None))


@given(st.lists(
    st.lists(st.lists(CELLS, max_size=4), min_size=3, max_size=3), min_size=1, max_size=3,
))
def test_class_moments_matches_the_pre_scan(columns):
    assert _outcome(class_moments, columns) == _outcome(_reference_class_moments, columns)


# Range endpoints on a coarse grid, so ranges touch, overlap and leave gaps.
ENDPOINTS = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
RANGES = st.tuples(ENDPOINTS, ENDPOINTS).map(sorted).map(tuple)


@given(st.tuples(RANGES, RANGES, RANGES), st.data())
def test_boundary_bits_matches_the_class_loop(class_bounds, data):
    endpoints = [x for lo_hi in class_bounds for x in lo_hi]
    value = data.draw(st.one_of(
        st.sampled_from(endpoints),  # on a range's edge
        ENDPOINTS.map(lambda x: x + 0.25),  # in a range or a gap, or tied between two ranges
        st.floats(min_value=-4, max_value=4),
        st.sampled_from([math.nan, math.inf, -math.inf, None]),
    ))
    expected = _outcome(_reference_boundary_bits, value, class_bounds)
    assert _outcome(boundary_bits, value, class_bounds) == expected
