"""Text format: documents, catalog lines, pair lines."""

import random
import re
from collections import Counter
from functools import partial

import pytest

from matlift import textio
from matlift.errors import GroundTooLarge, ParseError, PreconditionFailure
from matlift.enumeration import enumerate_matroids
from matlift.matroid import Matroid, uniform_matroid
from matlift.sets import LABEL_RE, default_ground
from matlift.textio import (
    catalog_line,
    pair_line,
    parse_catalog_line,
    parse_document,
    parse_matroid_text,
    parse_pair_line,
    read_catalog,
    serialize_matroid_text,
    write_catalog,
)

GOOD = """\
# leading comment
matroid demo

ground a b c   # trailing comment
circuit a b
circuit a c
circuit b c
end
"""


def test_parse_accepts_comments_and_blank_lines(u13):
    doc = parse_document(GOOD)
    assert doc.name == "demo"
    assert doc.ground_labels == ("a", "b", "c")
    assert doc.to_matroid() == u13


def test_name_is_optional():
    doc = parse_document("matroid\nground a b\nend\n")
    assert doc.name is None
    assert len(doc.to_matroid().ground) == 2


def test_serialize_then_parse_is_identity(u13, u23, f3, loops2):
    for m in (u13, u23, f3, loops2):
        assert parse_matroid_text(serialize_matroid_text(m)) == m
        assert parse_matroid_text(serialize_matroid_text(m, "named")) == m


@pytest.mark.parametrize("name", ["my-dual", "two words", "a#b"])
def test_serialize_refuses_a_name_the_parser_rejects(u13, name):
    with pytest.raises(PreconditionFailure, match="bad document name"):
        serialize_matroid_text(u13, name)


def test_serialized_form_is_canonical(u13):
    text = serialize_matroid_text(u13, "u13")
    assert text == "matroid u13\nground a b c\ncircuit a b\ncircuit a c\ncircuit b c\nend\n"


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        ("ground a b\nend\n", 1, "before 'matroid'"),
        ("matroid x\nmatroid y\nend\n", 2, "second"),
        ("matroid x\nground a\nground b\nend\n", 3, "ground"),
        ("matroid x\ncircuit a\nend\n", 2, "before"),
        ("matroid x\nground a b\n", 1, "missing 'end'"),
        ("matroid x\nground a b\nend\ncircuit a\n", 4, "after"),
        ("matroid x\nground a $b\nend\n", 2, "token"),
        ("what is this\n", 1, "directive"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert exc.value.line == lineno
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "parse, text, lineno, message",
    [
        (parse_document, "matroid x y\nground a\nend\n", 1,
         "matroid header takes at most one name"),
        (parse_document, "matroid x\nground\nend\n", 2, "'ground' needs at least one label"),
        (parse_document, "matroid x\nground a\ncircuit\nend\n", 3,
         "'circuit' needs at least one label"),
        (parse_document, "matroid x\nend\n", 2, "'end' before 'ground'"),
        (parse_document, "matroid x\nground a\nend now\n", 3, "'end' takes no arguments"),
        (parse_document, "", 1, "missing 'matroid' header"),
        (parse_document, "# only a comment\n\n", 1, "missing 'matroid' header"),
        (parse_document, "matroid x\n# no ground\n", 1, "missing 'ground' line"),
        (partial(parse_catalog_line, lineno=7), "n=3;rank=1;circuits=01||12", 7,
         "empty circuit chunk"),
        (partial(parse_catalog_line, lineno=7), "n=3;rank=1;circuits=0g", 7,
         "bad hex digit 'g'"),
        (partial(parse_pair_line, lineno=9), "3;7;quotient=1", 9,
         "expected five ';'-separated fields"),
        (partial(parse_pair_line, lineno=9), "3;x;quotient=1;s=1;witness=ok", 9,
         "non-integer field"),
    ],
)
def test_parse_error_messages_and_lines(parse, text, lineno, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, str(exc.value)) == (lineno, f"line {lineno}: {message}")


@pytest.mark.parametrize(
    "line", ["    circuit a$", "\tcircuit a$", "  circuit c a$  # note"]
)
def test_bad_token_column_points_into_the_raw_line(line):
    with pytest.raises(ParseError) as exc:
        parse_document(f"matroid x\nground a b c\n{line}\nend\n")
    assert exc.value.line == 3
    assert line[exc.value.column - 1:].startswith("a$")


def _per_word_tokens(code, lineno):
    """The word-by-word tokenizer: every argument word checked on its own."""
    words = list(re.finditer(r"\S+", code))
    for w in words[1:]:
        if not LABEL_RE.fullmatch(w.group()):
            raise ParseError(f"bad token {w.group()!r}", lineno, w.start() + 1)
    return [w.group() for w in words]


def _outcome(tokenize, code, lineno):
    try:
        return tokenize(code, lineno)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


_GOOD_WORDS = ["a", "b7", "_", "x_1", "Z", "10", "matroid", "end"]
_BAD_WORDS = ["$", "a$", "é", "λx", "a-b", "x.y", "!", "ß_1", "a\u00e9"]
_SPACES = [" ", "  ", "\t", "\u00a0", " \t", "\u3000", "\u00a0 "]


def _random_line(rng):
    """A raw line: a head word, up to 5 argument words, any of them bad, mixed
    whitespace (tabs, U+00A0, U+3000) around them, and now and then a comment."""
    head = rng.choice(["matroid", "ground", "circuit", "end", *_GOOD_WORDS, *_BAD_WORDS])
    words = [head] + [
        rng.choice(_BAD_WORDS if rng.random() < 0.15 else _GOOD_WORDS)
        for _ in range(rng.randint(0, 5))
    ]
    line = rng.choice(["", *_SPACES]) + "".join(
        w + rng.choice(_SPACES) for w in words[:-1]
    ) + words[-1] + rng.choice(["", *_SPACES])
    if rng.random() < 0.3:
        line += rng.choice(["#", " # note", "#$ é", "\t# a$ b"])
    return line, words


def test_line_regex_tokenizer_matches_per_word_scan():
    rng = random.Random(24)
    seen = Counter()
    for lineno in range(1, 4001):
        line, words = _random_line(rng)
        code = line.split("#", 1)[0]
        got = _outcome(textio._tokens, code, lineno)
        assert got == _outcome(_per_word_tokens, code, lineno), repr(line)
        if isinstance(got, list):
            assert got == words
            seen["head bad" if words[0] in _BAD_WORDS else "tokens"] += 1
        else:
            bad = [i for i, w in enumerate(words) if i and w in _BAD_WORDS]
            seen["last bad" if bad[0] == len(words) - 1 else "middle bad"] += 1
    assert min(seen[k] for k in ("tokens", "head bad", "middle bad", "last bad")) >= 100, seen


def test_uniform_11_5_round_trips_through_text():
    # 462 six-element circuits: the weak elimination check scans the family
    # once per circuit pair, not once per shared element
    u = uniform_matroid(default_ground(11), 5)
    back = parse_matroid_text(serialize_matroid_text(u, "u11_5"))
    assert back.rank() == 5 and len(back.circuits) == 462
    assert back == u


def test_catalog_line_round_trip():
    for m in enumerate_matroids(3).entries:
        n, rank, fam = parse_catalog_line(catalog_line(m))
        assert n == 3 and rank == m.rank() and fam == m.circuits


def test_catalog_lines_hold_at_most_16_elements(tmp_path):
    # an index is one hex digit: on 17 elements, element 16 would be written
    # "10" and read back as elements 0 and 1
    g16 = default_ground(16)
    m16 = Matroid(g16, [0b1 | 1 << 15, 0b110])
    path = tmp_path / "cat16.txt"
    assert write_catalog([m16], str(path)) == 1
    assert path.read_text() == "n=16;rank=14;circuits=12|0f\n"
    assert read_catalog(str(path)) == [m16]
    g17 = default_ground(17)
    with pytest.raises(GroundTooLarge, match="at most 16"):
        write_catalog([Matroid(g17, [0b1 | 1 << 16])], str(tmp_path / "cat17.txt"))
    with pytest.raises(ParseError, match="at most 16"):
        parse_catalog_line("n=17;rank=16;circuits=010")


def test_catalog_line_shape(u13, f3):
    assert catalog_line(u13) == "n=3;rank=1;circuits=01|02|12"
    assert catalog_line(f3) == "n=3;rank=3;circuits=-"


@pytest.mark.parametrize(
    "line",
    [
        "n=3;rank=1",
        "n=x;rank=1;circuits=-",
        "n=3;rank=1;circuits=09",
        "rank=1;n=3;circuits=-",
        "n=0;rank=0;circuits=-",
        "n=-1;rank=0;circuits=-",
    ],
)
def test_bad_catalog_lines(line):
    with pytest.raises(ParseError) as info:
        parse_catalog_line(line, 7)
    assert info.value.line == 7


def test_catalog_file_round_trip(tmp_path):
    entries = enumerate_matroids(3).entries
    path = tmp_path / "cat.txt"
    assert write_catalog(entries, str(path)) == len(entries)
    back = read_catalog(str(path))
    assert back == list(entries)


def test_catalog_file_rejects_wrong_rank(tmp_path):
    path = tmp_path / "cat.txt"
    path.write_text("n=2;rank=2;circuits=01\n")
    with pytest.raises(ParseError):
        read_catalog(str(path))


def test_pair_line_round_trip():
    line = pair_line(3, 7, True, 2, "ok")
    assert line == "3;7;quotient=1;s=2;witness=ok"
    assert parse_pair_line(line) == (3, 7, True, 2, "ok")
    with pytest.raises(ParseError):
        parse_pair_line("3;7;quotient=2;s=1;witness=ok")
    with pytest.raises(ParseError):
        parse_pair_line("3;7;quotient=1;s=1;witness=maybe")
    with pytest.raises(ParseError):  # a failed construction writes no record
        parse_pair_line("3;7;quotient=1;s=1;witness=FAIL")
