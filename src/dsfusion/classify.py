"""The three fusion classifiers: binary threshold fusion, three-step
three-class fusion, and table-driven email-signal fusion.

Models are immutable values built by their trainers (or from fixed expert
settings, for email); classification is a pure function of record and
model, so batches may fan out across workers freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .bpa import (
    BINARY_FRAME,
    BoundaryModel,
    MassRow,
    ScaledSigmoidBpa,
    SigmoidBpa,
    THREE_CLASS_FULL,
    TableBpa,
    binary_row_mass,
    boundary_row,
    bpa_from_dict,
    bpa_to_dict,
    class_columns,
    class_moments,
    distance_row,
    fit_boundaries,
    logistic,
    modified_median_threshold,
    scaled_sigmoid_row,
    select_feature,
    table_row,
)
from .evidence import (
    Frame,
    MassFunction,
    _trusted_mass,
    argmax_bits,
    combine_binary,
    combine_bits,
    make_frame,
)

Sample = tuple[Sequence[float], int]
MaybeRow = Sequence[float | None]

EMAIL_SIGNALS = (1, 2, 3, 4)


@dataclass(frozen=True)
class Prediction:
    """A label, the fused mass function behind it, and a decision trace."""

    label: str
    mass: MassFunction
    trace: Mapping[str, object]

    def __post_init__(self) -> None:
        if self.label not in self.mass.frame.labels:
            raise ValueError(f"label {self.label!r} is not a frame singleton")

    def to_json_dict(self, record_id: int | None = None) -> dict:
        masses = {
            self.mass.frame.describe(subset.bits): value for subset, value in self.mass.items()
        }
        return {"id": record_id, "label": self.label, "masses": masses, "trace": dict(self.trace)}


@dataclass(frozen=True)
class BinaryModel:
    """One sigmoid threshold per feature, over the {normal, abnormal} frame.

    A feature the trainer was not asked to fit holds None.
    """

    bpas: tuple[SigmoidBpa | None, ...]
    normal_fraction: float

    @property
    def n_features(self) -> int:
        return len(self.bpas)


def train_binary(
    rows: Sequence[MaybeRow], labels: Sequence[int], features: Sequence[int] | None = None
) -> BinaryModel:
    """Fit thresholds for ``features`` (default all) from labelled rows
    (label 1 = abnormal); the other features' slots hold None.

    Missing cells (None) are dropped from their feature column; the
    threshold rank scales with the values actually present.
    """
    if len(rows) != len(labels):
        raise ValueError(f"{len(rows)} rows vs {len(labels)} labels")
    total = len(labels)
    normal = labels.count(0)
    if normal in (0, total):
        raise ValueError("training data must contain both normal and abnormal records")
    n_features = len(rows[0])
    bpas: list[SigmoidBpa | None] = [None] * n_features
    for f in range(n_features) if features is None else features:
        if not 0 <= f < n_features:
            raise ValueError(f"feature {f} outside 0..{n_features - 1}")
        values = [row[f] for row in rows if row[f] is not None]
        if not values:
            raise ValueError(f"feature {f} has no non-missing training values")
        if not all(map(math.isfinite, values)):
            bad = next(v for v in values if not math.isfinite(v))
            raise ValueError(f"feature value must be finite, got {bad} in feature {f}")
        bpas[f] = SigmoidBpa(modified_median_threshold(values, normal, total))
    return BinaryModel(tuple(bpas), normal / total)


def classify_binary(
    record: MaybeRow, model: BinaryModel, features: Sequence[int] | None = None
) -> Prediction:
    """Fuse one sigmoid mass per selected non-missing feature.

    With no mass on the whole frame, Dempster's rule over {normal, abnormal}
    multiplies the features' odds e^(v_f - t_f), so the fused abnormal mass
    is logistic(S) for S the sum of (v_f - t_f) over the used features, and
    the record is abnormal iff S > 0. S is taken exactly (``math.fsum`` is
    correctly rounded, so its sign is exact; a sum beyond the float range is
    taken with ``Fraction``) and ties go to normal. The
    reported mass (logistic(-S), logistic(S)) comes from S alone: no
    per-feature mass is built, and ``sigmoid_mass``'s saturation clamp
    cannot turn a log-odds tie into total conflict.
    """
    selected = range(model.n_features) if features is None else features
    if not selected:
        raise ValueError("feature subset must be nonempty")
    for f in selected:
        if model.bpas[f] is None:
            raise ValueError(f"feature {f} has no fitted threshold in this model")
    used = [f for f in selected if record[f] is not None]
    if not used:
        raise ValueError("record has no value for any selected feature")
    for f in used:
        if not math.isfinite(record[f]):
            raise ValueError(f"feature value must be finite, got {record[f]}")
    terms = [x for f in used for x in (record[f], -model.bpas[f].threshold)]
    try:
        score = math.fsum(terms)
    except OverflowError:
        # Beyond the float range: logistic saturates past 709, so clamp the exact sum.
        score = float(min(max(sum(map(Fraction, terms)), -1000), 1000))
    mass = combine_binary(BINARY_FRAME, [(logistic(-score), logistic(score), 0.0)])
    return Prediction("abnormal" if score > 0 else "normal", mass, {"features": used})


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


def train_three_class(samples: Sequence[Sample], frame: Frame) -> ThreeClassModel:
    """Fit boundaries, class means, and the per-class-group feature choices.

    Each feature's values are grouped by class once; the ranges, means and
    selection scores all come from those lists' :class:`~dsfusion.bpa.Moments`.
    """
    stats = class_moments(class_columns(samples))
    boundaries = fit_boundaries(stats)
    means = tuple(tuple(m.mean for m in per_class) for per_class in stats)
    groups = ((0, 1), (0, 2), (1, 2), (0, 1, 2))
    selected = {
        sum(1 << c for c in group): select_feature(stats, group) for group in groups
    }
    return ThreeClassModel(frame, boundaries, means, selected)


# Against the exact fold of the same rows, each fused float mass is off by
# a relative error below 16 * 2^-53 (1.8e-15) per folded row, a common
# scale aside: a fold step only multiplies and adds positive terms and
# divides them all by one norm. Two masses can swap order only when their
# gap is below twice that, so a wider gap than 1e-14 per row is exact.
_RTOL_PER_ROW = 1e-14


def _fold_rows(rows: Sequence[Mapping[int, float]]) -> Mapping[int, float]:
    fused = rows[0]
    for row in rows[1:]:
        fused = combine_bits(fused, row)[0]
    return fused


def _step1_candidate(rows: Sequence[Mapping[int, float]], step1: Mapping[int, float]) -> int:
    # The focal set of greatest mass other than the frame. A rival within
    # rounding error of the leader is settled on the exact (Fraction) fold
    # of the same rows, so that exact ties follow the documented order.
    candidate = argmax_bits(step1, THREE_CLASS_FULL, exclude_theta=True)
    top = step1.get(candidate, 0.0)
    bound = _RTOL_PER_ROW * len(rows) * top
    if any(
        top - v <= bound for bits, v in step1.items() if bits not in (candidate, THREE_CLASS_FULL)
    ):
        exact = _fold_rows([{bits: Fraction(v) for bits, v in row.items()} for row in rows])
        candidate = argmax_bits(exact, THREE_CLASS_FULL, exclude_theta=True)
    return candidate


def classify_three_class(record: Sequence[float], model: ThreeClassModel) -> Prediction:
    """Classify in up to three steps.

    Step 1 fuses the per-feature boundary masses and takes the focal
    element of greatest mass (ignoring the frame); a singleton decides
    immediately. Otherwise step 2 assigns a nearest-mean mass on the
    feature selected for the candidate group, and step 3 fuses it with the
    step-1 result and picks the singleton with the highest belief.

    The masses are ``{bits: mass}`` rows folded by ``combine_bits``, the
    rule and order of ``combine_all`` over ``boundary_mass`` and then
    ``combine`` with ``distance_mass``; only the reported result becomes a
    mass function. Step 1's masses can tie exactly (sources for two
    classes in turn), and float folding breaks such a tie by rounding, so
    a near-tie there is decided on the exact fold. With confidences 0.9
    and 0.8, step 3's singleton beliefs do not tie exactly for up to eight
    boundary sources, and are compared as floats.
    """
    rows = [
        boundary_row(record[f], class_bounds)
        for f, class_bounds in enumerate(model.boundaries.bounds)
    ]
    step1 = _fold_rows(rows)
    candidate = _step1_candidate(rows, step1)
    frame = model.frame
    if candidate.bit_count() == 1:
        label = frame.labels[candidate.bit_length() - 1]
        return Prediction(label, _trusted_mass(frame, step1), {"decided": "step1"})
    feature = model.selected[candidate]
    final = combine_bits(step1, distance_row(record[feature], model.means[feature]))[0]
    # A singleton's belief is its own mass.
    winner = max(range(3), key=lambda c: (final.get(1 << c, 0.0), -c))
    return Prediction(
        frame.labels[winner],
        _trusted_mass(frame, final),
        {"decided": "step3", "feature": feature, "group": list(frame.labels_of(candidate))},
    )


@dataclass(frozen=True)
class EmailModel:
    """Expert-set mass assignments for the four email signals."""

    interval_bpa: ScaledSigmoidBpa
    spoofed_bpa: TableBpa
    dangerous_bpa: TableBpa
    benign_bpa: TableBpa
    signals: frozenset[int] = frozenset(EMAIL_SIGNALS)

    def __post_init__(self) -> None:
        if not self.signals or not self.signals <= set(EMAIL_SIGNALS):
            raise ValueError(f"active signals must be a nonempty subset of {EMAIL_SIGNALS}")


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
        return table_row(int(spoofed), model.spoofed_bpa)
    if signal == 3:
        return table_row(int(dangerous), model.dangerous_bpa)
    if signal == 4:
        return table_row(int(benign), model.benign_bpa)
    raise ValueError(f"unknown signal {signal}")


def email_signal_mass(message: Sequence[float], signal: int, model: EmailModel) -> MassFunction:
    """The mass one signal assigns to one message."""
    return binary_row_mass(email_signal_row(message, signal, model))


def classify_email(
    message: Sequence[float], model: EmailModel, signals: Sequence[int] | None = None
) -> Prediction:
    """Fuse the active signals' masses in closed form (``combine_binary``);
    abnormal wins only on strictly greater mass."""
    active = sorted(model.signals) if signals is None else sorted(set(signals))
    if not active or any(s not in EMAIL_SIGNALS for s in active):
        raise ValueError(f"signals must be a nonempty subset of {EMAIL_SIGNALS}, got {signals}")
    combined = combine_binary(BINARY_FRAME, [email_signal_row(message, s, model) for s in active])
    label = "abnormal" if combined.mass_bits(2) > combined.mass_bits(1) else "normal"
    return Prediction(label, combined, {"signals": active})


Classifier = BinaryModel | ThreeClassModel | EmailModel


def classifier_to_dict(model: Classifier) -> dict:
    """JSON-ready dict for a classifier: a kind tag plus its bpa models."""
    if isinstance(model, BinaryModel):
        if None in model.bpas:
            raise ValueError(
                f"feature {model.bpas.index(None)} has no fitted threshold; "
                "a model dump must describe every feature"
            )
        return {
            "kind": "binary",
            "bpas": [bpa_to_dict(b) for b in model.bpas],
            "normal_fraction": model.normal_fraction,
        }
    if isinstance(model, ThreeClassModel):
        return {
            "kind": "three_class",
            "labels": list(model.frame.labels),
            "boundaries": bpa_to_dict(model.boundaries),
            "means": [list(row) for row in model.means],
            "selected": {str(bits): f for bits, f in sorted(model.selected.items())},
        }
    if isinstance(model, EmailModel):
        return {
            "kind": "email",
            "interval": bpa_to_dict(model.interval_bpa),
            "spoofed": bpa_to_dict(model.spoofed_bpa),
            "dangerous": bpa_to_dict(model.dangerous_bpa),
            "benign": bpa_to_dict(model.benign_bpa),
            "signals": sorted(model.signals),
        }
    raise TypeError(f"not a classifier: {type(model).__name__}")


def classifier_from_dict(data: Mapping) -> Classifier:
    """Inverse of :func:`classifier_to_dict`."""
    kind = data.get("kind")
    if kind == "binary":
        bpas = tuple(bpa_from_dict(b) for b in data["bpas"])
        return BinaryModel(bpas, float(data["normal_fraction"]))  # type: ignore[arg-type]
    if kind == "three_class":
        return ThreeClassModel(
            make_frame(data["labels"]),
            bpa_from_dict(data["boundaries"]),  # type: ignore[arg-type]
            tuple(tuple(float(v) for v in row) for row in data["means"]),
            {int(bits): int(f) for bits, f in data["selected"].items()},
        )
    if kind == "email":
        return EmailModel(
            bpa_from_dict(data["interval"]),  # type: ignore[arg-type]
            bpa_from_dict(data["spoofed"]),  # type: ignore[arg-type]
            bpa_from_dict(data["dangerous"]),  # type: ignore[arg-type]
            bpa_from_dict(data["benign"]),  # type: ignore[arg-type]
            frozenset(data["signals"]),
        )
    raise ValueError(f"unknown classifier kind {kind!r}")
