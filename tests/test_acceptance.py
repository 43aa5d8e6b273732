"""Acceptance gate: nine criteria, one test and one printed verdict each.

Every test prints a single line of the form

    PASS criterion 3 (lift criterion): ... (12.3s, budget 300s)

through the capture-disabled channel, so the verdicts are visible in the
live pytest output, and then asserts both the checked property and the
runtime budget.
"""

import time
from pathlib import Path

import pytest

from matlift import sweeps
from matlift.cli import run_command
from matlift.enumeration import enumerate_matroids, lift_buckets
from matlift.quotient import (
    certify_quotient,
    factor_homotopy,
    lift_witness,
    remark_circuits,
    remark_comparison,
)
from matlift.sets import SetFamily
from matlift.sweeps import SweepConfig
from matlift.textio import read_catalog

from helpers import lift, mk

REPORTS = Path(__file__).resolve().parent.parent / "reports"

KNOWN_COUNTS = {1: 2, 2: 5, 3: 16, 4: 68, 5: 406}


def _verdict(capsys, ok: bool, name: str, detail: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"\n{status} criterion {name}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"budget exceeded: {elapsed:.1f}s >= {budget:.0f}s"


def test_criterion_1_catalog_cross_oracle(basis_catalogs, capsys):
    t0 = time.perf_counter()
    out = sweeps.catalog_cross_oracle_sweep(4, basis_catalogs)
    ok = out.ok and out.stats.get("counts") == {n: KNOWN_COUNTS[n] for n in range(1, 5)}
    _verdict(capsys, ok, "1 (catalog cross-oracle)", out.details, t0, 30)


def test_criterion_2_lift_property(basis_catalogs, capsys):
    t0 = time.perf_counter()
    out = sweeps.lift_property_sweep(5, basis_catalogs)
    ok = out.ok and out.stats.get("checked") == 13238
    _verdict(capsys, ok, "2 (every minor pair certifies)", out.details, t0, 300)


def test_criterion_3_lift_criterion(basis_catalogs, capsys):
    t0 = time.perf_counter()
    out = sweeps.lift_criterion_sweep(4, basis_catalogs)
    ok = (
        out.ok
        and out.stats.get("pairs") == 4909
        and out.stats.get("certified") == 640
        and out.stats.get("witnesses") == 549
        and out.stats.get("nullity_beyond") == 0
    )
    _verdict(capsys, ok, "3 (certified pairs admit verified witnesses)", out.details, t0, 300)


@pytest.mark.slow
def test_criterion_3_lift_criterion_n5(basis_catalogs, capsys):
    t0 = time.perf_counter()
    out = sweeps.lift_criterion_sweep(5, basis_catalogs)
    stats = {k: out.stats.get(k) for k in
             ("pairs", "certified", "witnesses", "nullity_within", "nullity_beyond")}
    ok = out.ok and stats == {"pairs": 169745, "certified": 8446, "witnesses": 7949,
                              "nullity_within": 17977, "nullity_beyond": 0}
    _verdict(capsys, ok, "3 at n <= 5", out.details, t0, 300)


def test_criterion_4_witness_search_biconditional(basis_catalogs, capsys):
    t0 = time.perf_counter()
    out = sweeps.witness_oracle_sweep(3, basis_catalogs)
    ok = out.ok and out.stats.get("agree") == 70
    _verdict(capsys, ok, "4 (step-one certification = witness search)", out.details, t0, 120)


def test_criterion_5_lemma_sweeps(basis_catalogs, capsys):
    t0 = time.perf_counter()
    exhaustive = sweeps.lemma_exhaustive_sweep(4, basis_catalogs)
    randomized = sweeps.lemma_randomized_sweep(SweepConfig())
    ok = exhaustive.ok and randomized.ok and randomized.stats.get("total", 0) >= 10000
    detail = f"exhaustive: {exhaustive.details}; randomized: {randomized.details}"
    _verdict(capsys, ok, "5 (checked statements, exhaustive + randomized)", detail, t0, 600)


def test_criterion_6_homotopy_orderings(basis_catalogs, capsys):
    t0 = time.perf_counter()
    out = sweeps.homotopy_sweep(4, basis_catalogs)
    ok = out.ok and out.stats.get("pairs") == 236
    _verdict(capsys, ok, "6 (factorization under every ordering)", out.details, t0, 300)


@pytest.mark.slow
def test_criterion_6_homotopy_orderings_n5(basis_catalogs, capsys):
    t0 = time.perf_counter()
    out = sweeps.homotopy_sweep(5, basis_catalogs)
    ok = out.ok and out.stats.get("pairs") == out.stats.get("order_free") == 4641
    _verdict(capsys, ok, "6 at n <= 5", out.details, t0, 300)


def test_criterion_7_worked_instances(capsys):
    t0 = time.perf_counter()
    u13, u23, f3 = mk(3, "ab", "ac", "bc"), mk(3, "abc"), mk(3)

    cert = certify_quotient(u13, u23)
    assert cert.holds and cert.step_s == 1
    assert cert.coverings[0b111] == (0b011, 0b101, 0b110)
    assert not certify_quotient(u23, u13).holds

    w1 = lift_witness(u13, u23, ("x",))
    assert w1.n.circuits == SetFamily([0b0111, 0b1011, 0b1101, 0b1110])
    # the one-element lifts of (u13, u23) are exactly w1; (u23, u13) has none
    cat3 = enumerate_matroids(3)
    buckets = lift_buckets(cat3)
    i, j = cat3.entries.index(u13), cat3.entries.index(u23)
    assert [n.circuits for n in buckets[(i, j)]] == [w1.n.circuits]
    assert (j, i) not in buckets

    w2 = lift_witness(u13, f3, ("x1", "x2"))
    assert w2.n.circuits == SetFamily([0b01111, 0b10111, 0b11011, 0b11101, 0b11110])

    chain = factor_homotopy(u13, f3, ("x1", "x2"))
    assert chain.steps == (u13, u23, f3)
    assert factor_homotopy(u13, f3, ("x2", "x1")).steps == chain.steps

    stage_families = [remark_circuits(u13, f3, j)[0] for j in range(4)]
    assert stage_families == [
        SetFamily([]),
        SetFamily([0b011, 0b101, 0b110]),
        SetFamily([0b111]),
        SetFamily([]),
    ]
    rows = remark_comparison(w2)
    assert all(r.shifted_agrees for r in rows)

    _verdict(capsys, True, "7 (worked instances reproduce exactly)",
             "certificates, witnesses, chain, stage families all match", t0, 1)


def test_criterion_8_remark_report(basis_catalogs, capsys):
    t0 = time.perf_counter()
    u13, u23, f3 = mk(3, "ab", "ac", "bc"), mk(3, "abc"), mk(3)
    for m, l in ((u13, u23), (u13, f3), (u23, f3)):
        for row in remark_comparison(lift(m, l)):
            assert row.shifted_agrees and not row.literal_agrees

    out = sweeps.remark_comparison_sweep(4, basis_catalogs)
    # scripts/remark_report.py writes the committed report; the gate only reads it
    report_path = REPORTS / "remark_comparison.txt"
    sh_agree, sh_total = out.stats["shifted"]
    ok = (
        out.ok
        and sh_agree == sh_total
        and out.stats["report"] + "\n" == report_path.read_text()
    )
    _verdict(capsys, ok, "8 (stage-family comparison matches the committed report)",
             out.details + f"; report at {report_path}", t0, 300)


@pytest.mark.slow
def test_criterion_8_remark_report_n5(basis_catalogs, capsys):
    t0 = time.perf_counter()
    out = sweeps.remark_comparison_sweep(5, basis_catalogs)
    ok = out.ok and out.stats["shifted"] == (21597, 21597) and out.stats["literal"] == (0, 21597)
    _verdict(capsys, ok, "8 at n <= 5", out.details, t0, 300)


def test_criterion_9_cli_round_trip(basis_catalogs, tmp_path, capsys):
    t0 = time.perf_counter()
    # half 1: catalog files written by the CLI parse back to the same catalogs
    for n in range(1, 6):
        path = tmp_path / f"cat{n}.txt"
        assert run_command(["enumerate", "--n", str(n), "--out", str(path)]) == 0
        assert read_catalog(str(path)) == list(basis_catalogs[n].entries)

    # half 2: fixed script of twenty invocations with pinned exit codes
    u13 = tmp_path / "u13.txt"
    u23 = tmp_path / "u23.txt"
    f3 = tmp_path / "f3.txt"
    bad = tmp_path / "bad.txt"
    junk = tmp_path / "junk.txt"
    u13.write_text("matroid u13\nground a b c\ncircuit a b\ncircuit a c\ncircuit b c\nend\n")
    u23.write_text("matroid u23\nground a b c\ncircuit a b c\nend\n")
    f3.write_text("matroid f3\nground a b c\nend\n")
    bad.write_text("matroid bad\nground a b c\ncircuit a b\ncircuit b c\nend\n")
    junk.write_text("circuit before anything\n")
    wdir = tmp_path / "w"
    script = [
        (["check-axioms", str(u13)], 0),
        (["check-axioms", str(u13), "--strong"], 0),
        (["check-axioms", str(bad)], 1),
        (["rank", str(u23)], 0),
        (["rank", str(u23), "--set", "a,b"], 0),
        (["dual", str(u13)], 0),
        (["minor", str(u13), "--delete", "a"], 0),
        (["cyclic-sets", str(u13), "--nullity", "1"], 0),
        (["quotient", str(u13), str(u23)], 0),
        (["quotient", str(u23), str(u13)], 1),
        (["lift", str(u13), str(u23), "--labels", "x", "--out", str(wdir)], 0),
        (["lift", str(u23), str(u13), "--labels", "x"], 1),
        (["lift", str(u13), str(u23), "--labels", "x,y"], 2),
        (["verify-pair", str(wdir / "witness.txt"), str(u13), str(u23), "--x", "x"], 0),
        (["verify-pair", str(wdir / "witness.txt"), str(u23), str(u13), "--x", "x"], 1),
        (["factor", str(u13), str(f3), "--labels", "x1,x2"], 0),
        (["remark", str(u13), str(f3), "--j", "1"], 0),
        (["remark", str(u13), str(f3), "--j", "9"], 2),
        (["rank", str(junk)], 2),
        (["rank", str(tmp_path / "missing.txt")], 2),
    ]
    assert len(script) == 20
    failures = []
    for argv, want in script:
        got = run_command(argv)
        if got != want:
            failures.append(f"{argv} -> {got}, wanted {want}")
    capsys.readouterr()  # drop the accumulated subcommand output
    ok = not failures
    detail = ("catalog files round-trip for n <= 5; all 20 scripted invocations "
              "returned their pinned exit codes") if ok else "; ".join(failures)
    _verdict(capsys, ok, "9 (command line round trip + exit codes)", detail, t0, 60)
