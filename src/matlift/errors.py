"""Exception types shared across the toolkit.

Every failure a caller can provoke has a named type so tests and the CLI can
tell usage errors, refused preconditions, and genuine counterexamples apart.
An error that has an outcome object carries it and takes its message from
that object's ``describe()``: a family failing its axioms is a NotAMatroid
holding the one-violation ``AxiomReport``, and a refused quotient is a
QuotientViolation holding the ``QuotientRefusal``. No error formats a mask
itself. A failed check (construction, factorization or checked statement) is
a CheckFailure and carries a dump of its inputs that replays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: both modules depend on this one
    from .axioms import AxiomReport
    from .quotient import QuotientRefusal


class MatliftError(Exception):
    """Base class for every toolkit error."""


# ---------------------------------------------------------------- ground sets


class InvalidGroundSet(MatliftError):
    """Empty ground set or malformed element label."""


class DuplicateLabel(MatliftError):
    """The same element label appears twice."""


class UnknownLabel(MatliftError):
    """A label that is not part of the ground set."""


class GroundTooLarge(MatliftError):
    """Operation exceeds the fixed mask width or an enumeration cap."""


# ------------------------------------------------------- matroid construction


class NotAMatroid(MatliftError):
    """A candidate circuit or basis family fails its axioms; ``report`` is the
    failed ``axioms.AxiomReport`` and the message is its ``describe()``."""

    def __init__(self, report: AxiomReport):
        self.report = report
        super().__init__(report.describe())


# --------------------------------------------------------------------- minors


class DeletesEverything(MatliftError):
    """A minor operation would remove the whole ground set."""


# -------------------------------------------------------------- quotient/lift


class GroundMismatch(MatliftError):
    """Operands live on different ground sets."""


class QuotientViolation(MatliftError):
    """The circuit-union criterion fails; ``refusal`` is the
    ``quotient.QuotientRefusal`` and the message is its ``describe()``."""

    def __init__(self, refusal: QuotientRefusal):
        self.refusal = refusal
        super().__init__(refusal.describe())


class RankMismatch(MatliftError):
    """Number of new labels does not match the rank step."""


class LabelClash(MatliftError):
    """New element labels collide with the ground set or each other."""


class PreconditionFailure(MatliftError):
    """Arguments violate an operation's stated precondition."""


class CheckFailure(MatliftError):
    """A checked property failed on concrete inputs.

    ``dump`` holds the inputs as named matroid documents and extra lines
    (see ``textio.dump_text``); each document replays through
    ``parse_matroid_text``. The string form is the message, then the dump.
    """

    def __init__(self, message: str, dump: str = ""):
        self.dump = dump
        super().__init__(message + ("\n" + dump if dump else ""))


class ConstructionFailure(CheckFailure):
    """A construction that is supposed to succeed did not."""


class FactorizationFailure(CheckFailure):
    """A factorization step violated one of its checked properties."""


class LemmaCounterexample(CheckFailure):
    """A checked statement failed on a concrete instance."""


# --------------------------------------------------------------- text formats


class ParseError(MatliftError):
    """Malformed matroid or catalog text; carries line and column."""

    def __init__(self, message: str, line: int, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}: {message}")
