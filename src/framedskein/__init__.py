"""Exact two-variable skein invariants of framed link diagrams.

The package computes the regular-isotopy invariant defined by the
relation ``F(L+) - F(L-) = z (F(Lo) - F(Loo))`` with kink factors
``a^{+-1}``, both as an exact Laurent polynomial in ``(a, z)`` and as a
truncated power series whose coefficients are finite-type invariants.
"""

from .diagram import (
    DiagramError,
    FramedDiagram,
    ParseError,
    SingularDiagram,
    parse_diagram,
    serialize_pd,
)
from .oracle import (
    BracketPoly,
    bracket_statesum,
    laurent_to_series,
    specialization_check,
)
from .ring import (
    BiSeries,
    GaussRational,
    LaurentPoly,
    NotAUnitError,
    OrderMismatchError,
    PowerSeries,
    base_constants,
    laurent_from_json,
    laurent_to_json,
    loop_factor_series,
    series_from_json,
    series_to_json,
)
from .singular import (
    FramingEvent,
    check_integrability,
    derived_invariant,
    finite_type_vanishing,
    is_admissible_in_diagram,
    one_term_relation_check,
    total_framing,
    writhe_jump,
)
from .skein import (
    AuditError,
    BudgetExceededError,
    SkeinParams,
    complexity_bound,
    convention_audit,
    default_params,
    evaluate,
    evaluate_laurent,
    evaluate_series,
)

__all__ = [
    "AuditError",
    "BiSeries",
    "BracketPoly",
    "BudgetExceededError",
    "DiagramError",
    "FramedDiagram",
    "FramingEvent",
    "GaussRational",
    "LaurentPoly",
    "NotAUnitError",
    "OrderMismatchError",
    "ParseError",
    "PowerSeries",
    "SingularDiagram",
    "SkeinParams",
    "base_constants",
    "bracket_statesum",
    "check_integrability",
    "complexity_bound",
    "convention_audit",
    "default_params",
    "derived_invariant",
    "evaluate",
    "evaluate_laurent",
    "evaluate_series",
    "finite_type_vanishing",
    "is_admissible_in_diagram",
    "laurent_from_json",
    "laurent_to_json",
    "laurent_to_series",
    "loop_factor_series",
    "one_term_relation_check",
    "parse_diagram",
    "serialize_pd",
    "series_from_json",
    "series_to_json",
    "specialization_check",
    "total_framing",
    "writhe_jump",
]
