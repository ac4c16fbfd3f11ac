"""Dempster-Shafer evidence combination with multi-signal anomaly-detection
benchmarks: a bitmask-backed evidence core, mass-assignment builders, three
fusion classifiers, and a cross-validation harness with a CLI."""

from .evidence import (
    EvidenceError,
    Frame,
    FrameMismatchError,
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
from .bpa import (
    BINARY_FRAME,
    BoundaryModel,
    ScaledSigmoidBpa,
    SigmoidBpa,
    TableBpa,
    class_moments,
    select_feature,
    sigmoid_mass,
)
from .classify import (
    BinaryModel,
    EmailModel,
    Prediction,
    ThreeClassModel,
    classifier_to_dict,
    classify_binary,
    classify_email,
    classify_three_class,
    email_model_default,
    train_binary,
    train_three_class,
)
from .data import (
    DataFormatError,
    EvalReport,
    FoldPlan,
    RecordSet,
    evaluate,
    generate_email,
    load_email,
    load_iris,
    load_wbcd,
    make_folds,
    repeated_cv,
    write_email_csv,
)

__version__ = "0.1.0"
