"""Command line behavior: outputs and the 0/1/2 exit code contract."""

import subprocess
import sys

import pytest

from matlift.cli import run_command
from matlift.textio import parse_matroid_text

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


def test_rank_and_subset(files, capsys):
    assert run_command(["rank", files["u23"]]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run_command(["rank", files["u23"], "--set", "a"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_dual_output_parses(files, capsys):
    assert run_command(["dual", files["u13"]]) == 0
    out = capsys.readouterr().out
    assert parse_matroid_text(out).circuits.members == (0b111,)


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


def test_factor_stages(files, tmp_path, capsys):
    out_dir = tmp_path / "stages"
    assert run_command(
        ["factor", files["u13"], files["f3"], "--labels", "x1,x2", "--out", str(out_dir)]
    ) == 0
    capsys.readouterr()
    stage1 = parse_matroid_text((out_dir / "stage1.txt").read_text())
    assert stage1.circuits.members == (0b111,)


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
    out = capsys.readouterr().out
    assert "shifted form agrees" in out
    assert run_command(["remark", files["u13"], files["f3"], "--j", "9"]) == 2


def test_cyclic_sets_listing(files, capsys):
    assert run_command(["cyclic-sets", files["u13"], "--nullity", "2"]) == 0
    assert capsys.readouterr().out.strip() == "{a,b,c}"


def test_enumerate_and_pairs(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    assert run_command(["enumerate", "--n", "2", "--out", str(cat)]) == 0
    assert "wrote 5" in capsys.readouterr().out
    assert len(cat.read_text().splitlines()) == 5
    pairs = tmp_path / "pairs.txt"
    assert run_command(["pairs", "--n", "2", "--out", str(pairs)]) == 0
    capsys.readouterr()
    assert len(pairs.read_text().splitlines()) == 25


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


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "matlift", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "quotient" in proc.stdout.lower()
