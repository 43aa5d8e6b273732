"""The sweep runner: a counterexample forced into any sweep that can fail
comes out as a FAIL outcome with one line of details and a dump that
replays; any other error propagates."""

from types import SimpleNamespace

import pytest

from matlift import axioms, quotient, sweeps
from matlift.cli import run_command
from matlift.errors import ConstructionFailure, FactorizationFailure, PreconditionFailure
from matlift.matroid import Matroid
from matlift.sets import SetFamily
from matlift.sweeps import SweepConfig, build_catalogs
from matlift.textio import dump_text

from helpers import mk, replay_dump


def _refuse(m, l):
    full = l.ground.full_mask
    return quotient.QuotientRefusal(m, l, full, full)


def _routes_disagree(monkeypatch, catalogs):
    enumerate_matroids = sweeps.enumerate_matroids
    monkeypatch.setattr(
        sweeps, "enumerate_matroids",
        lambda g, method: SimpleNamespace(entries=enumerate_matroids(g, method).entries[::-1]),
    )
    return sweeps.catalog_cross_oracle_sweep(3, catalogs)


def _strong_axioms_fail(monkeypatch, catalogs):
    refused = SimpleNamespace(passed=False)
    monkeypatch.setattr(axioms, "check_circuit_axioms", lambda *args, **kwargs: refused)
    return sweeps.catalog_cross_oracle_sweep(3, catalogs)


def _dual_not_involutive(monkeypatch, catalogs):
    monkeypatch.setattr(Matroid, "dual", lambda m: mk(4))
    return sweeps.catalog_cross_oracle_sweep(3, catalogs)


def _minor_pair_refused(monkeypatch, catalogs):
    monkeypatch.setattr(quotient, "certify_quotient", _refuse)
    return sweeps.lift_property_sweep(3, catalogs)


def _construction_fails(monkeypatch, catalogs):
    def fail(m, l, labels):
        raise ConstructionFailure("constructed family fails circuit axioms: forced",
                                  dump_text(("M", m), ("L", l)))

    monkeypatch.setattr(quotient, "lift_witness", fail)
    return sweeps.lift_criterion_sweep(3, build_catalogs(3))  # witnesses are cached


def _no_lifts(monkeypatch, catalogs):
    monkeypatch.setattr(sweeps, "lift_buckets", lambda cat: {})
    return sweeps.witness_oracle_sweep(3, catalogs)


def _witness_not_among_lifts(monkeypatch, catalogs):
    lift_buckets = sweeps.lift_buckets
    monkeypatch.setattr(sweeps, "lift_buckets", lambda cat: dict.fromkeys(lift_buckets(cat), ()))
    return sweeps.witness_oracle_sweep(3, catalogs)


def _intransitive(monkeypatch, catalogs):
    fresh = build_catalogs(3)  # the certified table is cached
    table = fresh[3].certified
    i, j, k = next((i, j, k) for i, j in table for jj, k in table
                   if jj == j and len({i, j, k}) == 3)
    monkeypatch.setattr(fresh[3], "certified", {p: s for p, s in table.items() if p != (i, k)})
    return sweeps.lemma_exhaustive_sweep(3, fresh)


def _random_pair_refused(monkeypatch, catalogs):
    monkeypatch.setattr(quotient, "certify_quotient", _refuse)
    return sweeps.lemma_randomized_sweep(SweepConfig(1))


def _random_chain_refused(monkeypatch, catalogs):
    monkeypatch.setattr(sweeps, "RANDOM_PAIRS", 0)  # the first certification is a chain's
    monkeypatch.setattr(quotient, "certify_quotient", _refuse)
    return sweeps.lemma_randomized_sweep(SweepConfig(1))


def _chain_does_not_factor(monkeypatch, catalogs):
    def refuse(m, l, labels, witness=None):
        raise FactorizationFailure("stage 1 has rank 3, expected 2")

    monkeypatch.setattr(quotient, "factor_homotopy", refuse)
    return sweeps.homotopy_sweep(3, catalogs)


def _stage_off_the_chain(monkeypatch, catalogs):
    factor = quotient.factor_homotopy

    def skewed(m, l, labels, witness=None):
        steps = factor(m, l, labels, witness=witness).steps
        return quotient.HomotopySequence((m, Matroid(m.ground, []), *steps[2:]))

    monkeypatch.setattr(quotient, "factor_homotopy", skewed)
    return sweeps.homotopy_sweep(3, catalogs)


def _stage_not_a_matroid(monkeypatch, catalogs):
    family = quotient._remark_family

    def broken(m, l, j):  # the first element inside the whole ground: no clutter
        return SetFamily([1, m.ground.full_mask]) if j == 2 else family(m, l, j)

    monkeypatch.setattr(quotient, "_remark_family", broken)
    return sweeps.homotopy_sweep(3, catalogs)


def _round_trip_changes(monkeypatch, catalogs):
    monkeypatch.setattr(sweeps, "parse_matroid_text", lambda text: mk(4))
    return sweeps.roundtrip_sweep(3, catalogs)


@pytest.mark.parametrize(
    "force, name, documents",
    [
        (_routes_disagree, "catalog-cross-oracle", {"extension", "circuit"}),
        (_strong_axioms_fail, "catalog-cross-oracle", {"M"}),
        (_dual_not_involutive, "catalog-cross-oracle", {"M"}),
        (_minor_pair_refused, "lift-property", {"M", "L", "N"}),
        (_construction_fails, "lift-criterion", {"M", "L"}),
        (_no_lifts, "witness-oracle", {"M", "L"}),
        (_witness_not_among_lifts, "witness-oracle", {"M", "L", "N"}),
        (_intransitive, "lemma-exhaustive", {"M", "mid", "L"}),
        (_random_pair_refused, "lemma-randomized", {"M", "L"}),
        (_random_chain_refused, "lemma-randomized", {"N"}),
        (_chain_does_not_factor, "homotopy", {"M", "L", "N"}),
        (_stage_off_the_chain, "homotopy", {"M", "L", "N"}),
        (_stage_not_a_matroid, "homotopy", {"M", "L", "N"}),
        (_round_trip_changes, "text-roundtrip", {"M", "back"}),
    ],
)
def test_a_forced_counterexample_fails_with_a_replayable_dump(
    force, name, documents, catalogs, monkeypatch
):
    out = force(monkeypatch, catalogs)
    assert (out.name, out.ok, out.stats) == (name, False, {})
    assert out.details and "\n" not in out.details
    docs, _ = replay_dump(out.dump)
    assert set(docs) == documents


def test_a_forced_failure_names_what_it_found(catalogs, monkeypatch):
    out = _no_lifts(monkeypatch, catalogs)
    docs, extra = replay_dump(out.dump)
    assert out.details.startswith(f"disagreement on {docs['M']!r}, {docs['L']!r}:")
    assert extra == []
    out = _round_trip_changes(monkeypatch, catalogs)
    assert replay_dump(out.dump)[0] == {"M": catalogs[1].entries[0], "back": mk(4)}


def test_a_refused_minor_pair_names_its_elements_by_label(catalogs, monkeypatch):
    out = _minor_pair_refused(monkeypatch, catalogs)
    docs, _ = replay_dump(out.dump)
    assert out.details.startswith(
        f"minor pair of {docs['N']!r} at x={{a}} refused: quotient fails: circuit {{b}}"
    )


def test_an_error_that_is_no_check_failure_propagates(catalogs, monkeypatch):
    def refuse(cat):
        raise PreconditionFailure("no lifts today")

    monkeypatch.setattr(sweeps, "lift_buckets", refuse)
    with pytest.raises(PreconditionFailure, match="no lifts today"):
        sweeps.witness_oracle_sweep(3, catalogs)
    assert run_command(["sweep", "--n", "2"]) == 2


def test_sweep_command_prints_the_dump_under_its_fail_line(monkeypatch, capsys):
    monkeypatch.setattr(sweeps, "lift_buckets", lambda cat: {})
    assert run_command(["sweep", "--n", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith("FAIL"))
    assert lines[at].startswith("FAIL witness-oracle: disagreement on")
    assert lines[at + 1] == "matroid M"
    rest = lines[at + 1:]
    end = next(k for k, line in enumerate(rest) if line.startswith("PASS"))
    docs, extra = replay_dump("\n".join(rest[:end]))
    assert set(docs) == {"M", "L"} and extra == []
    assert sum(line.startswith(("PASS", "FAIL")) for line in lines) == 8
