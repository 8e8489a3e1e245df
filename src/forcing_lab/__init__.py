"""Exact-arithmetic lab for weighted stem conditions on the binary tree.

The package provides, with no floating point anywhere in the math path:

- a canonical clopen-set algebra over the space of infinite bit sequences,
  in one dimension and on the plane (`cantor`);
- finite names for integer sequences, heavy-label slaloms, and
  measure-positive refinement off chosen values (`names`);
- weighted stem conditions with seeded, exactly revalidated extension,
  null-cover avoidance certificates, and a centeredness index (`poset`);
- interval bookkeeping for strong-measure-zero style covers plus block
  density, thinness, and rapidity checks (`smz`);
- a consistency checker for a twelve-slot diagram of cardinal traits and
  its random-extension transfer rules (`diagram`);
- JSON codecs (`jsonio`), a bundled acceptance suite (`acceptance`), and a
  command line front end (`cli`).
"""

from .cantor import (
    EMPTY,
    FULL,
    ClopenPlaneSet,
    ClopenSet,
    ResolutionTooCoarse,
)
from .diagram import (
    EDGES,
    NODES,
    CardinalLabel,
    DiagramAssignment,
    DiagramVerdict,
    InvalidGround,
    TransferConstraint,
    Violation,
    check_assignment,
    check_extension_pair,
    random_extension_constraints,
)
from .errors import ForcingLabError
from .names import (
    EmptyCondition,
    FiniteName,
    HorizonExceeded,
    NotAPartition,
    Slalom,
    SlalomViolation,
    boolean_value,
    make_name,
    refine_condition,
    slalom_extract,
)
from .poset import (
    CenteredIndex,
    Certificate,
    Condition,
    ExtendStats,
    NullSet,
    ScheduledCover,
    ScoreTooLow,
    SearchExhausted,
    TaggedWeight,
    TraceEntry,
    ValidationReport,
    WeightFunction,
    attach_weight,
    avoid_null,
    certificate,
    eval_phi,
    extend_detailed,
    generic_run,
    merge_same_stem,
    phi_from_clopen,
    score,
    sigma_centered_index,
    trivial_condition,
    validate,
)
from .smz import (
    IntervalSpec,
    LengthBoundViolated,
    PreconditionFailed,
    RapidityVerdict,
    ThinSetVerdict,
    cover_translate,
    flatten_heavy_intervals,
    icbrt,
    product_bound,
    rapidity_check,
    thin_set_bound_check,
)

__version__ = "0.1.0"

__all__ = [
    "CardinalLabel",
    "CenteredIndex",
    "Certificate",
    "ClopenPlaneSet",
    "ClopenSet",
    "Condition",
    "DiagramAssignment",
    "DiagramVerdict",
    "EDGES",
    "EMPTY",
    "EmptyCondition",
    "ExtendStats",
    "FULL",
    "FiniteName",
    "ForcingLabError",
    "HorizonExceeded",
    "IntervalSpec",
    "InvalidGround",
    "LengthBoundViolated",
    "NODES",
    "NotAPartition",
    "NullSet",
    "PreconditionFailed",
    "RapidityVerdict",
    "ResolutionTooCoarse",
    "ScheduledCover",
    "ScoreTooLow",
    "SearchExhausted",
    "Slalom",
    "SlalomViolation",
    "TaggedWeight",
    "ThinSetVerdict",
    "TraceEntry",
    "TransferConstraint",
    "ValidationReport",
    "Violation",
    "WeightFunction",
    "attach_weight",
    "avoid_null",
    "boolean_value",
    "certificate",
    "check_assignment",
    "check_extension_pair",
    "cover_translate",
    "eval_phi",
    "extend_detailed",
    "flatten_heavy_intervals",
    "generic_run",
    "icbrt",
    "make_name",
    "merge_same_stem",
    "phi_from_clopen",
    "product_bound",
    "random_extension_constraints",
    "rapidity_check",
    "refine_condition",
    "score",
    "sigma_centered_index",
    "slalom_extract",
    "thin_set_bound_check",
    "trivial_condition",
    "validate",
]
