"""Exception types shared across the toolkit.

Every failure a caller can provoke has a named type, one per kind, so tests
and the CLI can tell unusable arguments, refused pairs and genuine
counterexamples apart. ``MatliftError`` is the base of the 10 others:

- unusable input, exit 2 from the CLI: ``InvalidGroundSet`` (an empty ground
  set, a malformed or repeated label), ``GroundTooLarge`` (the mask width or
  an enumeration cap), ``ParseError`` (text syntax), ``NotAMatroid`` (a family
  fails its axioms) and ``PreconditionFailure`` (an argument an operation
  refuses: an unknown label, a rank step or label count that does not fit,
  clashing labels, operands on different grounds, a minor removing every
  element);
- a refused pair, exit 1: ``QuotientViolation``;
- a failed check, exit 1: ``CheckFailure`` and its three kinds
  ``ConstructionFailure``, ``FactorizationFailure`` and
  ``LemmaCounterexample``.

An error that has an outcome object carries it and takes its message from
that object's ``describe()``: a family failing its axioms is a NotAMatroid
holding the one-violation ``AxiomReport``, and a refused quotient is a
QuotientViolation holding the ``QuotientRefusal``. No error formats a mask
itself. A failed check carries a dump of its inputs that replays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: both modules depend on this one
    from .axioms import AxiomReport
    from .quotient import QuotientRefusal


class MatliftError(Exception):
    """Base class for every toolkit error."""


# ------------------------------------------------------------------ arguments


class InvalidGroundSet(MatliftError):
    """Empty ground set, or a malformed or repeated element label."""


class GroundTooLarge(MatliftError):
    """Operation exceeds the fixed mask width or an enumeration cap."""


class PreconditionFailure(MatliftError):
    """Arguments violate an operation's stated precondition; the message
    names the refused labels, sets or counts."""


# ------------------------------------------------------- matroid construction


class NotAMatroid(MatliftError):
    """A candidate circuit or basis family fails its axioms; ``report`` is the
    failed ``axioms.AxiomReport`` and the message is its ``describe()``."""

    def __init__(self, report: AxiomReport):
        self.report = report
        super().__init__(report.describe())


# ------------------------------------------------------------ refusals, checks


class QuotientViolation(MatliftError):
    """The circuit-union criterion fails; ``refusal`` is the
    ``quotient.QuotientRefusal`` and the message is its ``describe()``."""

    def __init__(self, refusal: QuotientRefusal):
        self.refusal = refusal
        super().__init__(refusal.describe())


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
