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

Each public name below is imported from its module the first time it is
read (PEP 562), so `import forcing_lab` loads no layer by itself.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cantor": ("EMPTY", "FULL", "ClopenPlaneSet", "ClopenSet"),
    "diagram": (
        "EDGES", "NODES", "CardinalLabel", "DiagramAssignment", "DiagramVerdict",
        "InvalidGround", "TransferConstraint", "Violation", "check_assignment",
        "check_extension_pair", "random_extension_constraints"),
    "errors": ("ForcingLabError",),
    "names": (
        "EmptyCondition", "FiniteName", "HorizonExceeded", "NotAPartition", "Slalom",
        "SlalomViolation", "boolean_value", "make_name", "refine_condition",
        "slalom_extract"),
    "poset": (
        "CenteredIndex", "Certificate", "Condition", "ExtendStats", "NullSet",
        "ScheduledCover", "ScoreTooLow", "SearchExhausted", "TaggedWeight", "TraceEntry",
        "ValidationReport", "WeightFunction", "attach_weight", "avoid_null",
        "certificate", "eval_phi", "extend_detailed", "generic_run", "merge_same_stem",
        "phi_from_clopen", "score", "sigma_centered_index", "trivial_condition",
        "validate"),
    "smz": (
        "IntervalSpec", "LengthBoundViolated", "PreconditionFailed", "RapidityVerdict",
        "ThinSetVerdict", "cover_translate", "flatten_heavy_intervals", "icbrt",
        "product_bound", "rapidity_check", "thin_set_bound_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # any other name raises, so `from forcing_lab import cli` imports the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
