"""Quotient and lift toolkit for matroids given by circuits.

The package works with matroids on small labelled ground sets, stored as
families of circuit bitmasks. It can decide whether one matroid is a
quotient of another by the circuit-union criterion, build the extension
matroid witnessing a positive answer, factor a multi-step quotient into
single-element stages, and enumerate all matroids on a few elements to
verify those constructions exhaustively.
"""

from .errors import (
    CheckFailure,
    ConstructionFailure,
    FactorizationFailure,
    LemmaCounterexample,
    MatliftError,
    ParseError,
    QuotientViolation,
)
from .matroid import Matroid, free_matroid, uniform_matroid
from .minors import contract, delete
from .quotient import (
    HomotopySequence,
    LiftWitness,
    QuotientCertificate,
    QuotientRefusal,
    certify_quotient,
    factor_homotopy,
    lift_witness,
    remark_circuits,
    remark_comparison,
    verify_pair,
)
from .sets import GroundSet, SetFamily, default_ground
from .textio import parse_matroid_text, serialize_matroid_text

__version__ = "0.1.0"

__all__ = [
    "CheckFailure",
    "ConstructionFailure",
    "FactorizationFailure",
    "GroundSet",
    "HomotopySequence",
    "LemmaCounterexample",
    "LiftWitness",
    "Matroid",
    "MatliftError",
    "ParseError",
    "QuotientCertificate",
    "QuotientRefusal",
    "QuotientViolation",
    "SetFamily",
    "certify_quotient",
    "contract",
    "default_ground",
    "delete",
    "factor_homotopy",
    "free_matroid",
    "lift_witness",
    "parse_matroid_text",
    "remark_circuits",
    "remark_comparison",
    "serialize_matroid_text",
    "uniform_matroid",
    "verify_pair",
]
