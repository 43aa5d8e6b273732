"""Command line behavior: outputs and the 0/1/2 exit code contract."""

import hashlib
import subprocess
import sys

import pytest

from matlift import cli, quotient, sweeps
from matlift.cli import run_command
from matlift.enumeration import enumerate_matroids
from matlift.errors import ConstructionFailure
from matlift.sets import fresh_labels
from matlift.textio import parse_matroid_text

from helpers import replay_dump

U13 = "matroid u13\nground a b c\ncircuit a b\ncircuit a c\ncircuit b c\nend\n"
U23 = "matroid u23\nground a b c\ncircuit a b c\nend\n"
F3 = "matroid f3\nground a b c\nend\n"
NOT_A_MATROID = "matroid bad\nground a b c\ncircuit a b\ncircuit b c\nend\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("u13", U13), ("u23", U23), ("f3", F3), ("bad", NOT_A_MATROID)):
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = str(tmp_path)
    return paths


def test_check_axioms_pass_and_fail(files, capsys):
    assert run_command(["check-axioms", files["u13"], "--strong"]) == 0
    assert "strong" in capsys.readouterr().out
    assert run_command(["check-axioms", files["bad"]]) == 1
    assert "AC2" in capsys.readouterr().out


def test_non_matroid_input_names_its_violation_as_check_axioms_does(tmp_path, capsys):
    # a command that loads a family failing the circuit axioms exits 2 with
    # the line check-axioms prints for it; the format cannot write an empty
    # circuit, so that file fails to parse, with one error for both commands
    for circuits, code, message in (
        ("circuit a b\ncircuit b c\n", 1, "AC2 violated at {a,b}, {b,c}, element b"),
        ("circuit a\ncircuit a b\n", 1, "AC1 violated at {a}, {a,b}"),
        ("circuit\n", 2, "line 3: 'circuit' needs at least one label"),
    ):
        path = tmp_path / "bad.txt"
        path.write_text("matroid bad\nground a b c\n" + circuits + "end\n")
        assert run_command(["check-axioms", str(path)]) == code
        shown = (message + "\n", "") if code == 1 else ("", f"error: {message}\n")
        assert capsys.readouterr() == shown
        assert run_command(["rank", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_rank_and_subset(files, capsys):
    assert run_command(["rank", files["u23"]]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run_command(["rank", files["u23"], "--set", "a"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_dual_output_parses(files, capsys):
    assert run_command(["dual", files["u13"]]) == 0
    out = capsys.readouterr().out
    assert parse_matroid_text(out).circuits.members == (0b111,)


def test_dual_name_must_round_trip(files, tmp_path, capsys):
    out = tmp_path / "named.txt"
    assert run_command(["dual", files["u13"], "--name", "my_dual"]) == 0
    out.write_text(capsys.readouterr().out)
    assert run_command(["rank", str(out)]) == 0
    capsys.readouterr()
    for name in ("my-dual", "two words"):
        assert run_command(["dual", files["u13"], "--name", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad document name" in captured.err


def test_dual_refuses_large_ground(tmp_path, capsys):
    path = tmp_path / "free24.txt"
    path.write_text("matroid free24\nground " + " ".join(f"e{i}" for i in range(24)) + "\nend\n")
    assert run_command(["dual", str(path)]) == 2
    assert "at most 20" in capsys.readouterr().err


def test_minor_delete_and_contract(files, capsys):
    assert run_command(["minor", files["u13"], "--delete", "a"]) == 0
    m = parse_matroid_text(capsys.readouterr().out)
    assert m.ground.labels == ("b", "c")
    assert run_command(["minor", files["u13"], "--contract", "a", "--delete", "a"]) == 2


def test_quotient_exit_codes(files, capsys):
    assert run_command(["quotient", files["u13"], files["u23"]]) == 0
    assert "rank step 1" in capsys.readouterr().out
    assert run_command(["quotient", files["u23"], files["u13"]]) == 1
    assert "uncovered" in capsys.readouterr().out


def test_quotient_certificate_output(files, capsys):
    assert run_command(["quotient", files["u13"], files["u23"], "--certificate"]) == 0
    assert capsys.readouterr().out == (
        "holds: rank step 1\n"
        "quotient holds with rank step 1\n"
        "  {a,b,c} = union of {{a,b}, {a,c}, {b,c}}\n"
    )


def test_lift_writes_witness(files, tmp_path, capsys):
    out_dir = tmp_path / "w"
    assert run_command(
        ["lift", files["u13"], files["u23"], "--labels", "x", "--out", str(out_dir)]
    ) == 0
    shown = parse_matroid_text(capsys.readouterr().out)
    saved = parse_matroid_text((out_dir / "witness.txt").read_text())
    assert shown == saved
    assert shown.ground.labels == ("a", "b", "c", "x")


def test_lift_failure_modes(files, capsys):
    assert run_command(["lift", files["u23"], files["u13"], "--labels", "x"]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert run_command(["lift", files["u13"], files["u23"], "--labels", "x,y"]) == 2
    capsys.readouterr()
    assert run_command(["lift", files["u13"], files["u23"], "--labels", ","]) == 2
    assert capsys.readouterr().err == "error: no labels given\n"


def test_factor_stages(files, tmp_path, capsys):
    out_dir = tmp_path / "stages"
    assert run_command(
        ["factor", files["u13"], files["f3"], "--labels", "x1,x2", "--out", str(out_dir)]
    ) == 0
    capsys.readouterr()
    stage1 = parse_matroid_text((out_dir / "stage1.txt").read_text())
    assert stage1.circuits.members == (0b111,)


@pytest.mark.parametrize("m, l, labels, code, message", [
    ("u23", "u13", "x", 1, "FAIL: quotient fails"),
    ("u13", "f3", "x", 2, "rank step is 2 but 1 labels were given"),
    ("u13", "f3", "a,x", 2, "lift labels ['a'] already in the ground set"),
    ("u13", "f3", "x,x", 2, "repeated lift labels"),
    ("u13", "u13", "x", 2, "needs rank step >= 1, got 0"),
    ("u13", "u23", "x-1", 2, "bad element label 'x-1'"),
])
def test_factor_failure_modes(files, capsys, m, l, labels, code, message):
    assert run_command(["factor", files[m], files[l], "--labels", labels]) == code
    out, err = capsys.readouterr()
    assert message in (out if code == 1 else err)


def test_factor_exits_1_with_a_replayable_dump(files, skewed_stage_two, capsys):
    # a stage off the closed form fails its rank check; stdout names the
    # failure, then the operands and labels it replays from
    assert run_command(["factor", files["u13"], files["f3"], "--labels", "x1,x2"]) == 1
    head, dump = capsys.readouterr().out.split("\n", 1)
    assert head == "FAIL: stage 1 has rank 3, expected 2"
    m, l = parse_matroid_text(U13), parse_matroid_text(F3)
    assert replay_dump(dump) == ({"M": m, "L": l}, ["labels x1 x2"])


def test_factor_exits_1_when_a_stage_is_no_matroid(files, stage_two_not_a_matroid, capsys):
    # the failing stage family follows the operands and labels in the dump
    assert run_command(["factor", files["u13"], files["f3"], "--labels", "x1,x2"]) == 1
    head, dump = capsys.readouterr().out.split("\n", 1)
    assert head.startswith("FAIL: stage 1 fails the circuit axioms")
    m, l = parse_matroid_text(U13), parse_matroid_text(F3)
    assert replay_dump(dump) == ({"M": m, "L": l}, ["labels x1 x2", "{{a,b}, {b,c}}"])


def test_verify_pair_x_must_leave_an_element(files, tmp_path, capsys):
    n_path = tmp_path / "n2.txt"
    n_path.write_text("matroid n2\nground a b\nend\n")
    assert run_command(
        ["verify-pair", str(n_path), files["u13"], files["u13"], "--x", "a,b"]
    ) == 2
    assert "a minor must keep at least one element" in capsys.readouterr().err


def test_verify_pair_round_trip(files, tmp_path, capsys):
    w_path = tmp_path / "w.txt"
    run_command(["lift", files["u13"], files["u23"], "--labels", "x"])
    w_path.write_text(capsys.readouterr().out)
    assert run_command(
        ["verify-pair", str(w_path), files["u13"], files["u23"], "--x", "x"]
    ) == 0
    assert run_command(
        ["verify-pair", str(w_path), files["u23"], files["u13"], "--x", "x"]
    ) == 1


def test_remark_listing_and_compare(files, capsys):
    assert run_command(["remark", files["u13"], files["f3"], "--j", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["{a,b}", "{a,c}", "{b,c}"]
    assert run_command(["remark", files["u13"], files["f3"], "--compare"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"stage {i}: minor has {k} circuits; shifted form agrees, literal form differs"
        for i, k in enumerate((3, 1, 0))
    ]
    # --compare builds the witness, so it refuses what lift_witness refuses
    assert run_command(["remark", files["u23"], files["u13"], "--compare"]) == 1
    assert capsys.readouterr().out.startswith("FAIL: quotient fails")
    assert run_command(["remark", files["u13"], files["u13"], "--compare"]) == 2
    assert "rank step >= 1" in capsys.readouterr().err
    assert run_command(["remark", files["u13"], files["f3"], "--j", "9"]) == 2


def test_cyclic_sets_listing(files, tmp_path, capsys):
    assert run_command(["cyclic-sets", files["u13"], "--nullity", "2"]) == 0
    assert capsys.readouterr().out.strip() == "{a,b,c}"
    assert run_command(["cyclic-sets", files["u13"]]) == 0
    assert capsys.readouterr().out.splitlines() == ["{}", "{a,b}", "{a,c}", "{b,c}", "{a,b,c}"]
    # the unfiltered listing can hold 2^n sets, so 17 elements are refused
    path = tmp_path / "free17.txt"
    path.write_text("matroid free17\nground " + " ".join(f"e{i}" for i in range(17)) + "\nend\n")
    assert run_command(["cyclic-sets", str(path)]) == 2
    assert "at most 16" in capsys.readouterr().err
    assert run_command(["cyclic-sets", str(path), "--nullity", "1"]) == 0
    assert capsys.readouterr().out == ""


def test_enumerate_and_pairs(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    assert run_command(["enumerate", "--n", "2", "--out", str(cat)]) == 0
    assert "wrote 5" in capsys.readouterr().out
    assert len(cat.read_text().splitlines()) == 5
    pairs = tmp_path / "pairs.txt"
    assert run_command(["pairs", "--n", "2", "--out", str(pairs)]) == 0
    capsys.readouterr()
    assert len(pairs.read_text().splitlines()) == 25


@pytest.mark.parametrize("argv, lines, sha256", [
    (["pairs", "--n", "4"], 4624,
     "dbfad2b06c0629ef2f800aab00aaaf7d3686fb42d08a9cb8cd6a7b4ce93ab8e9"),
    (["enumerate", "--n", "5"], 406,
     "8c3d2fb9d7f4be057dcfc2a3a8dd7aa7f681a00dcfd1f4a6a73842e6653099d3"),
])
def test_catalog_and_pair_outputs_are_pinned(argv, lines, sha256, capsys):
    # every byte of both listings is pinned: a change that reorders,
    # reformats or alters one entry or pair record fails here
    assert run_command(argv) == 0
    out = capsys.readouterr().out
    assert (out.count("\n"), hashlib.sha256(out.encode()).hexdigest()) == (lines, sha256)


def test_enumerate_methods(capsys):
    # the basis route is a test oracle now, not a command-line choice
    assert run_command(["enumerate", "--n", "3", "--method", "circuit"]) == 0
    circuit = capsys.readouterr().out
    assert run_command(["enumerate", "--n", "3", "--method", "extension"]) == 0
    assert capsys.readouterr().out == circuit
    assert run_command(["enumerate", "--n", "3", "--method", "basis"]) == 2
    assert "invalid choice: 'basis'" in capsys.readouterr().err


def test_pairs_exits_1_with_a_replayable_dump(monkeypatch, capsys):
    # the pair table reads the shared witness table, so one failed
    # construction stops the command with the failure's dump
    def failing(m, l, labels):
        raise ConstructionFailure("forced failure", quotient._dump(m, l, labels))

    monkeypatch.setattr(quotient, "lift_witness", failing)
    assert run_command(["pairs", "--n", "2"]) == 1
    head, dump = capsys.readouterr().out.split("\n", 1)
    assert head == "FAIL: forced failure"
    m_text, l_text, rest = dump.split("end\n", 2)
    m, l = parse_matroid_text(m_text + "end\n"), parse_matroid_text(l_text + "end\n")
    cat = enumerate_matroids(2)
    (i, j), s = next((p, s) for p, s in cat.certified.items() if s >= 1)
    assert (m, l) == (cat.entries[i], cat.entries[j])
    assert rest.split() == ["labels", *fresh_labels(cat.ground, s)]


def test_pairs_refuses_large_ground(monkeypatch, capsys):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("pairs --n 6 must refuse before enumerating")

    monkeypatch.setattr("matlift.enumeration.enumerate_matroids", no_enumeration)
    assert run_command(["pairs", "--n", "6"]) == 2
    assert "at most 5" in capsys.readouterr().err


def test_check_lemmas(files, capsys):
    assert run_command(["check-lemmas", files["u13"]]) == 0
    out = capsys.readouterr().out
    assert "span" in out and "instances hold" in out


def test_sweep_small(capsys):
    assert run_command(["sweep", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8 and "FAIL" not in out


def test_sweep_reports_the_pinned_counts(catalogs, monkeypatch):
    # reuse the session catalogs, whose pair and witness tables are built once
    monkeypatch.setattr(
        sweeps, "build_catalogs", lambda max_n: {n: catalogs[n] for n in range(1, max_n + 1)}
    )
    outcomes = sweeps.run_all(4)
    assert all(o.ok for o in outcomes)
    stats = {o.name: o.stats for o in outcomes}
    assert len(stats) == 8
    assert stats["catalog-cross-oracle"]["counts"] == {1: 2, 2: 5, 3: 16, 4: 68}
    criterion = stats["lift-criterion"]
    assert (criterion["pairs"], criterion["certified"], criterion["witnesses"]) == (4909, 640, 549)
    assert stats["witness-oracle"]["agree"] == 70
    assert stats["homotopy"] == {"pairs": 236, "order_free": 236, "order_bound": 0}
    assert stats["remark-comparison"]["shifted"] == (1367, 1367)


def test_sweep_refuses_empty_scope(capsys):
    for n in ("0", "-2"):
        assert run_command(["sweep", "--n", n]) == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out and err.startswith("error:")


def test_usage_errors(files, capsys):
    assert run_command([]) == 2
    assert run_command(["nosuch"]) == 2
    assert run_command(["rank"]) == 2
    assert run_command(["rank", files["dir"] + "/missing.txt"]) == 2
    assert run_command(["rank", files["bad"]]) == 2  # invalid circuit family
    assert run_command(["--help"]) == 0


def test_parser_is_reused_without_leaking_options(files, capsys):
    assert cli.build_parser() is cli.build_parser()
    assert run_command(["minor", files["u13"], "--delete", "a"]) == 0
    capsys.readouterr()
    assert run_command(["minor", files["u13"], "--contract", "b"]) == 0
    reused = capsys.readouterr().out
    cli.build_parser.cache_clear()
    assert run_command(["minor", files["u13"], "--contract", "b"]) == 0
    assert capsys.readouterr().out == reused
    assert parse_matroid_text(reused).ground.labels == ("a", "c")
    # a call that exits 2 leaves the next one working
    assert run_command(["minor", files["u13"], "--bogus"]) == 2
    assert run_command(["rank", files["u23"]]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run_command(["--help"]) == 0
    assert "usage" in capsys.readouterr().out
    assert run_command(["rank", files["u23"], "--set", "a"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "matlift", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "quotient" in proc.stdout.lower()
