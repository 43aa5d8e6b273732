"""Text format: documents, catalog lines, pair lines."""

import pytest

from matlift.errors import ParseError, PreconditionFailure
from matlift.enumeration import enumerate_matroids
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

from helpers import mk

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
    "line", ["    circuit a$", "\tcircuit a$", "  circuit c a$  # note"]
)
def test_bad_token_column_points_into_the_raw_line(line):
    with pytest.raises(ParseError) as exc:
        parse_document(f"matroid x\nground a b c\n{line}\nend\n")
    assert exc.value.line == 3
    assert line[exc.value.column - 1:].startswith("a$")


def test_catalog_line_round_trip():
    for m in enumerate_matroids(3).entries:
        n, rank, fam = parse_catalog_line(catalog_line(m))
        assert n == 3 and rank == m.rank() and fam == m.circuits


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
    ],
)
def test_bad_catalog_lines(line):
    with pytest.raises(ParseError):
        parse_catalog_line(line)


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
