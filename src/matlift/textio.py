"""Line-oriented text formats: matroid documents and flat catalogs.

Matroid document grammar (one directive per line, ``#`` starts a comment,
blank lines are ignored)::

    matroid [<name>]
    ground <label> <label> ...
    circuit <label> ...
    end

Labels match ``[A-Za-z0-9_]+``. Serialization is canonical: ground order as
given, circuits in canonical family order, one trailing newline. Parsing a
canonically serialized document and serializing it again is the identity.
A failed check dumps its inputs (``dump_text``) as named documents, then
free lines such as ``labels <label> ...``; each document, cut at its
``end`` line, parses back.

Catalog flat files carry one matroid per line::

    n=<int>;rank=<int>;circuits=<c1>|<c2>|...

where each circuit is the concatenation of its element indices, one hex
digit each, so catalogs hold at most ``CATALOG_MAX_N`` = 16 elements, and a
matroid with no circuits writes ``-``. Pair catalogs carry one ordered pair
per line::

    <idxM>;<idxL>;quotient=<0|1>;s=<int>;witness=<ok|na>
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import GroundTooLarge, ParseError, PreconditionFailure
from .matroid import Matroid
from .sets import LABEL_RE, GroundSet, SetFamily, bit_indices, default_ground


@dataclass
class MatroidDocument:
    """Parsed matroid text: an optional name, ground labels, circuit labels."""

    name: Optional[str]
    ground_labels: tuple[str, ...]
    circuit_labels: tuple[tuple[str, ...], ...]

    def to_matroid(self) -> Matroid:
        ground = GroundSet(self.ground_labels)
        return Matroid(ground, [ground.mask_of(c) for c in self.circuit_labels])


# any head word, then label words; ``\s`` and ``str.split`` agree on whitespace
_LINE_RE = re.compile(r"\s*\S+(?:\s+[A-Za-z0-9_]+)*\s*")


def _tokens(code: str, lineno: int) -> list[str]:
    """The words of ``code``, a raw line without its comment; a bad argument
    word raises ParseError with its 1-based column in that line."""
    if _LINE_RE.fullmatch(code):
        return code.split()
    words = list(re.finditer(r"\S+", code))
    for w in words[1:]:
        if not LABEL_RE.fullmatch(w.group()):
            raise ParseError(f"bad token {w.group()!r}", lineno, w.start() + 1)
    return [w.group() for w in words]


def parse_document(text: str) -> MatroidDocument:
    """Parse one matroid document; malformed input raises ParseError."""
    name: Optional[str] = None
    ground: Optional[tuple[str, ...]] = None
    circuits: list[tuple[str, ...]] = []
    seen_header = False
    seen_end = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        if not code.strip():
            continue
        if seen_end:
            raise ParseError("content after 'end'", lineno)
        toks = _tokens(code, lineno)
        head = toks[0]
        if head == "matroid":
            if seen_header:
                raise ParseError("second 'matroid' header", lineno)
            if len(toks) > 2:
                raise ParseError("matroid header takes at most one name", lineno)
            name = toks[1] if len(toks) == 2 else None
            seen_header = True
        elif head == "ground":
            if not seen_header:
                raise ParseError("'ground' before 'matroid'", lineno)
            if ground is not None:
                raise ParseError("second 'ground' line", lineno)
            if len(toks) < 2:
                raise ParseError("'ground' needs at least one label", lineno)
            ground = tuple(toks[1:])
        elif head == "circuit":
            if ground is None:
                raise ParseError("'circuit' before 'ground'", lineno)
            if len(toks) < 2:
                raise ParseError("'circuit' needs at least one label", lineno)
            circuits.append(tuple(toks[1:]))
        elif head == "end":
            if ground is None:
                raise ParseError("'end' before 'ground'", lineno)
            if len(toks) != 1:
                raise ParseError("'end' takes no arguments", lineno)
            seen_end = True
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if not seen_header:
        raise ParseError("missing 'matroid' header", 1)
    if ground is None:
        raise ParseError("missing 'ground' line", 1)
    if not seen_end:
        raise ParseError("missing 'end'", 1)
    return MatroidDocument(name, ground, tuple(circuits))


def parse_matroid_text(text: str) -> Matroid:
    """Parse and validate a matroid document into a Matroid."""
    return parse_document(text).to_matroid()


def serialize_matroid_text(m: Matroid, name: Optional[str] = None) -> str:
    """Canonical text for a matroid (parse of the result gives ``m`` back);
    a ``name`` the parser would reject raises PreconditionFailure."""
    if name and not LABEL_RE.fullmatch(name):
        raise PreconditionFailure(f"bad document name {name!r}: names match [A-Za-z0-9_]+")
    lines = [f"matroid {name}" if name else "matroid"]
    lines.append("ground " + " ".join(m.ground.labels))
    for c in m.circuits:
        lines.append("circuit " + " ".join(m.ground.labels_of(c)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def dump_text(*named: tuple[str, Matroid], extra: Iterable[str] = ()) -> str:
    """Replayable inputs of a failed check: the ``(name, matroid)`` documents,
    then the ``extra`` lines, all joined by newlines."""
    return "\n".join([*(serialize_matroid_text(m, name) for name, m in named), *extra])


# ------------------------------------------------------------ catalog format

CATALOG_MAX_N = 16  # one hex digit per element index


def _circuit_hex(mask: int) -> str:
    return "".join(format(i, "x") for i in bit_indices(mask))


def catalog_line(m: Matroid) -> str:
    """The catalog line of ``m``; GroundTooLarge above ``CATALOG_MAX_N``."""
    if len(m.ground) > CATALOG_MAX_N:
        raise GroundTooLarge(
            f"{len(m.ground)} elements: catalog lines hold at most {CATALOG_MAX_N}"
        )
    circ = "|".join(_circuit_hex(c) for c in m.circuits) or "-"
    return f"n={len(m.ground)};rank={m.rank()};circuits={circ}"


def parse_catalog_line(line: str, lineno: int = 1) -> tuple[int, int, SetFamily]:
    """Parse one catalog line into (n, rank, circuit family)."""
    parts = line.strip().split(";")
    if len(parts) != 3:
        raise ParseError("expected three ';'-separated fields", lineno)
    try:
        n = int(_field(parts[0], "n", lineno))
        rank = int(_field(parts[1], "rank", lineno))
    except ValueError:
        raise ParseError("non-integer n or rank", lineno) from None
    if n > CATALOG_MAX_N:
        raise ParseError(f"n={n}: catalog lines hold at most {CATALOG_MAX_N} elements", lineno)
    circ_text = _field(parts[2], "circuits", lineno)
    masks = []
    if circ_text != "-":
        for chunk in circ_text.split("|"):
            if not chunk:
                raise ParseError("empty circuit chunk", lineno)
            mask = 0
            for ch in chunk:
                try:
                    i = int(ch, 16)
                except ValueError:
                    raise ParseError(f"bad hex digit {ch!r}", lineno) from None
                if i >= n:
                    raise ParseError(f"element index {i} out of range", lineno)
                mask |= 1 << i
            masks.append(mask)
    return n, rank, SetFamily(masks)


def _field(part: str, key: str, lineno: int) -> str:
    prefix = key + "="
    if not part.startswith(prefix):
        raise ParseError(f"expected field {key!r}", lineno)
    return part[len(prefix):]


def write_catalog(entries: Iterable[Matroid], path: str) -> int:
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for m in entries:
            fh.write(catalog_line(m) + "\n")
            count += 1
    return count


def read_catalog(path: str) -> list[Matroid]:
    """Read a catalog file back into validated matroids.

    Entries are rebuilt on letter labels, so a round trip through disk
    preserves circuit families exactly.
    """
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            n, rank, fam = parse_catalog_line(line, lineno)
            m = Matroid(default_ground(n), fam)
            if m.rank() != rank:
                raise ParseError(f"stored rank {rank} != computed {m.rank()}", lineno)
            out.append(m)
    return out


def pair_line(idx_m: int, idx_l: int, quotient: bool, s: int, witness: str) -> str:
    return f"{idx_m};{idx_l};quotient={1 if quotient else 0};s={s};witness={witness}"


def parse_pair_line(line: str, lineno: int = 1) -> tuple[int, int, bool, int, str]:
    parts = line.strip().split(";")
    if len(parts) != 5:
        raise ParseError("expected five ';'-separated fields", lineno)
    try:
        idx_m = int(parts[0])
        idx_l = int(parts[1])
        q = _field(parts[2], "quotient", lineno)
        s = int(_field(parts[3], "s", lineno))
    except ValueError:
        raise ParseError("non-integer field", lineno) from None
    if q not in ("0", "1"):
        raise ParseError(f"bad quotient flag {q!r}", lineno)
    witness = _field(parts[4], "witness", lineno)
    if witness not in ("ok", "na"):
        raise ParseError(f"bad witness field {witness!r}", lineno)
    return idx_m, idx_l, q == "1", s, witness
