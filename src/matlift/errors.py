"""Exception types shared across the toolkit.

Every failure a caller can provoke has a named type so tests and the CLI can
tell usage errors, refused preconditions, and genuine counterexamples apart.
A failed check (construction, factorization or checked statement) is a
CheckFailure and carries a dump of its inputs that replays.
"""

from __future__ import annotations


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


class EmptyCircuit(MatliftError):
    """A candidate circuit family contains the empty set."""


class NotClutter(MatliftError):
    """A candidate circuit family contains a nested pair."""

    def __init__(self, inner: int, outer: int, message: str = ""):
        self.inner = inner
        self.outer = outer
        super().__init__(message or f"nested circuits: mask {inner:#x} inside {outer:#x}")


class EliminationFailure(MatliftError):
    """Circuit elimination fails for a witness triple (c1, c2, e)."""

    def __init__(self, c1: int, c2: int, e: int, message: str = ""):
        self.c1 = c1
        self.c2 = c2
        self.e = e
        super().__init__(
            message or f"no circuit inside union of {c1:#x} and {c2:#x} avoiding element {e}"
        )


class EmptyBasisFamily(MatliftError):
    """from_bases needs at least one basis."""


class UnequalBasisSizes(MatliftError):
    """Bases of different cardinalities."""


class ExchangeFailure(MatliftError):
    """Basis exchange fails for a witness triple (b1, b2, x)."""

    def __init__(self, b1: int, b2: int, x: int, message: str = ""):
        self.b1 = b1
        self.b2 = b2
        self.x = x
        super().__init__(message or f"exchange fails for {b1:#x}, {b2:#x} at element {x}")


# ------------------------------------------------------ derived-quantity args


class NotIndependent(MatliftError):
    """Argument set was required to be independent."""


class StillIndependent(MatliftError):
    """Adding the element keeps the set independent, no fundamental circuit."""


# --------------------------------------------------------------------- minors


class DeletesEverything(MatliftError):
    """A minor operation would remove the whole ground set."""


# -------------------------------------------------------------- quotient/lift


class GroundMismatch(MatliftError):
    """Operands live on different ground sets."""


class QuotientViolation(MatliftError):
    """The circuit-union criterion fails; carries the offending circuit."""

    def __init__(self, circuit: int, uncovered: int, message: str = ""):
        self.circuit = circuit
        self.uncovered = uncovered
        super().__init__(
            message
            or f"circuit {circuit:#x} is not a union of lower circuits (uncovered {uncovered:#x})"
        )


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
