"""Sweep harness: exhaustive and randomized verification runs.

Each sweep quantifies one guarantee over every instance in scope. Its body
returns details and stats, or raises a CheckFailure whose dump replays the
counterexample; one runner, ``_sweep``, times the body and builds the
outcome instead of printing. The acceptance suite and the ``sweep`` CLI
command both run these, so there is exactly one definition of what each
guarantee means.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable, Iterable, Iterator, Optional

from . import quotient
from .enumeration import (
    MatroidCatalog,
    _extension_catalogs,
    enumerate_matroids,
    lift_buckets,
    random_matroid,
    random_quotient_pair,
)
from .errors import CheckFailure, LemmaCounterexample, PreconditionFailure
from .matroid import Matroid
from .minors import contract, delete
from .sets import bit_indices, default_ground, fresh_labels
from .textio import dump_text, parse_matroid_text, serialize_matroid_text


# Scope of lemma_randomized_sweep.
RANDOM_MATROIDS = 300
RANDOM_PAIRS = 420
RANDOM_TRIPLES = 160
SAMPLES_PER_MATROID = 24


@dataclass
class SweepConfig:
    """Seed of the randomized sweep."""

    seed: int = 20260819


@dataclass
class SweepOutcome:
    name: str
    ok: bool
    details: str
    elapsed: float
    stats: dict = field(default_factory=dict)
    dump: str = ""  # a FAIL outcome's replayable inputs (see textio.dump_text)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}: {self.details} ({self.elapsed:.1f}s)"


def _sweep(name: str) -> Callable[[Callable], Callable[..., SweepOutcome]]:
    """The runner of the sweep ``name``: the decorated body returns
    ``(details, stats)`` (its annotation names the sweep's timed outcome). A
    CheckFailure out of the body is the FAIL outcome, its message's first
    line the details; any other MatliftError propagates."""

    def decorate(body: Callable) -> Callable[..., SweepOutcome]:
        @functools.wraps(body)
        def run(*args, **kwargs) -> SweepOutcome:
            t0 = time.perf_counter()
            ok, dump = True, ""
            try:
                details, stats = body(*args, **kwargs)
            except CheckFailure as exc:
                ok, details, stats, dump = False, str(exc).split("\n", 1)[0], {}, exc.dump
            return SweepOutcome(name, ok, details, time.perf_counter() - t0, stats, dump)

        return run

    return decorate


CatalogMap = dict[int, MatroidCatalog]


def build_catalogs(max_n: int) -> CatalogMap:
    return dict(enumerate(_extension_catalogs(default_ground(max_n)), start=1))


def certified_pairs(catalogs: CatalogMap, max_n: int) -> Iterator[tuple[Matroid, Matroid, int]]:
    """``(m, l, step)`` for every certified catalog pair with n <= ``max_n``,
    by n, then in each catalog's table order."""
    for n in range(1, max_n + 1):
        cat = catalogs[n]
        for (i, j), s in cat.certified.items():
            yield cat.entries[i], cat.entries[j], s


def catalog_witnesses(catalogs: CatalogMap, max_n: int) -> Iterator[quotient.LiftWitness]:
    """The shared witness of every certified catalog pair with n <= ``max_n``
    and step >= 1, in ``certified_pairs`` order."""
    for n in range(1, max_n + 1):
        yield from catalogs[n].witnesses.values()


def _witness_dump(w: quotient.LiftWitness) -> str:
    return dump_text(("M", w.m), ("L", w.l), ("N", w.n))


# ------------------------------------------------------------------ sweep 1


@_sweep("catalog-cross-oracle")
def catalog_cross_oracle_sweep(max_n: int, catalogs: CatalogMap) -> SweepOutcome:
    """The circuit route agrees with ``catalogs``; every entry is strongly
    sound and dual-involutive."""
    from .axioms import check_circuit_axioms

    counts = {}
    for n in range(1, max_n + 1):
        cat = catalogs[n]
        circuit_route = enumerate_matroids(cat.ground, "circuit").entries
        for m, other in zip_longest(cat.entries, circuit_route):
            if m != other:  # the first entries that differ; a shorter route has none
                named = (("extension", m), ("circuit", other))
                raise LemmaCounterexample(
                    f"n={n}: routes disagree", dump_text(*(d for d in named if d[1]))
                )
            if not check_circuit_axioms(m.ground, m.circuits, strong=True).passed:
                raise LemmaCounterexample(
                    f"n={n}: strong axioms fail on {m!r}", dump_text(("M", m))
                )
            if m.dual().dual() != m:
                raise LemmaCounterexample(
                    f"n={n}: dual involution fails on {m!r}", dump_text(("M", m))
                )
        counts[n] = len(cat)
    details = f"route agreement and soundness for {sum(counts.values())} matroids, counts {counts}"
    return details, dict(counts=counts)


# ------------------------------------------------------------------ sweep 2


@_sweep("lift-property")
def lift_property_sweep(max_n: int, catalogs: CatalogMap) -> SweepOutcome:
    """Every (contraction, deletion) pair of minors of every matroid certifies."""
    checked = 0
    for n in range(2, max_n + 1):
        cat = catalogs[n]
        full = cat.ground.full_mask
        for big in cat.entries:
            for x in range(1, full):
                m, l = contract(big, x), delete(big, x)
                cert = quotient.certify_quotient(m, l)
                if not cert.holds:
                    raise LemmaCounterexample(
                        f"minor pair of {big!r} at x={big.ground.format_mask(x)} refused: "
                        f"{cert.describe()}",
                        dump_text(("M", m), ("L", l), ("N", big)),
                    )
                checked += 1
    return f"{checked} minor pairs all certify", dict(checked=checked)


# ------------------------------------------------------------------ sweep 3


@_sweep("lift-criterion")
def lift_criterion_sweep(max_n: int, catalogs: CatalogMap) -> SweepOutcome:
    """Every certified pair with positive rank step admits a verified witness.

    Also tallies the observed bound on circuit nullities: whether every
    circuit of the upper matroid has nullity at most step+1 downstairs.
    """
    pairs = sum(len(catalogs[n]) ** 2 for n in range(1, max_n + 1))
    certified = nullity_within = nullity_beyond = 0
    for m, l, s in certified_pairs(catalogs, max_n):
        certified += 1
        for c in l.circuits:
            if m.nullity(c) <= s + 1:
                nullity_within += 1
            else:
                nullity_beyond += 1
    # a failed construction raises ConstructionFailure with its dump
    witnesses = sum(len(catalogs[n].witnesses) for n in range(1, max_n + 1))
    details = (
        f"{pairs} pairs, {certified} certified, {witnesses} witnesses verified; "
        f"circuit nullity <= step+1 observed {nullity_within}/{nullity_within + nullity_beyond}"
    )
    return details, dict(
        pairs=pairs, certified=certified, witnesses=witnesses,
        nullity_within=nullity_within, nullity_beyond=nullity_beyond,
    )


# ------------------------------------------------------------------ sweep 4


@_sweep("witness-oracle")
def witness_oracle_sweep(max_n: int, catalogs: CatalogMap) -> SweepOutcome:
    """The one-element lifts realize exactly the certified pairs with step
    <= 1, so at step one certification is equivalent to having a lift, and
    the shared witness is always among the lifts of its pair."""
    agree = 0
    for n in range(1, max_n + 1):
        cat = catalogs[n]
        buckets = lift_buckets(cat)
        realizable = {p for p, s in cat.certified.items() if s <= 1}
        mismatched = sorted(set(buckets) ^ realizable)
        if mismatched:
            i, j = mismatched[0]
            m, l = cat.entries[i], cat.entries[j]
            raise LemmaCounterexample(
                f"disagreement on {m!r}, {l!r}: certified with step <= 1="
                f"{(i, j) in realizable}, lifts found={len(buckets.get((i, j), []))}",
                dump_text(("M", m), ("L", l)),
            )
        for p, w in cat.witnesses.items():
            if len(w.x_labels) == 1 and w.n not in buckets[p]:
                raise LemmaCounterexample(
                    f"constructed witness not found by scan for {w.m!r}, {w.l!r}",
                    _witness_dump(w),
                )
        ranks = [m.rank() for m in cat.entries]
        agree += sum(1 for a in ranks for b in ranks if b == a + 1)
    return f"{agree} rank-step-one pairs agree with the scan", dict(agree=agree)


# ------------------------------------------------------- lemma sweep helpers

_MATROID_STATEMENTS = ("span", "extension", "elimination", "base-family")
_ALL_STATEMENTS = _MATROID_STATEMENTS + ("bigcyclo", "rank-order", "transitivity")


def _sampled(items: Iterable, sample: Optional[tuple[random.Random, int]]) -> Iterable:
    """``items`` as they come, or shuffled and cut to ``k`` for ``(rng, k)``."""
    if sample is None:
        return items
    rng, k = sample
    pool = list(items)
    rng.shuffle(pool)
    return pool[:k]


def matroid_lemma_checks(
    m: Matroid, sample: Optional[tuple[random.Random, int]] = None
) -> dict[str, int]:
    """Run every per-matroid checked statement on one matroid.

    Exhaustive by default. With ``sample = (rng, k)`` the span statement
    still runs on every dependent set, while the cyclic-pair and rooted-circuit
    pools are each shuffled by ``rng`` and cut to their first ``k`` entries.
    Counts checked instances per statement; a counterexample propagates as
    LemmaCounterexample.
    """
    n = len(m.ground)
    counts = dict.fromkeys(_MATROID_STATEMENTS, 0)
    cyclic = list(m.cyclic_sets())
    for a in range(1 << n):
        if m.is_dependent(a):
            quotient.lemma_span_witness(m, a)
            counts["span"] += 1
    cyclic_pairs = [
        (a1, a2) for a1 in cyclic for a2 in cyclic if a1 != a2 and a2 & ~a1 != 0
    ]
    for a1, a2 in _sampled(cyclic_pairs, sample):
        quotient.cyclic_extension(m, a1, a2)
        counts["extension"] += 1
        for a in bit_indices(a1 & a2):
            quotient.cyclic_elimination(m, a1, a2, a)
            counts["elimination"] += 1
    rooted = (
        (a, circ, d)
        for a in cyclic
        if a
        for circ in m.circuits
        if circ & ~a == 0
        for d in bit_indices(circ)
    )
    for a, circ, d in _sampled(rooted, sample):
        quotient.base_family_witness(m, a, circ, d)
        counts["base-family"] += 1
    return counts


def _pair_statements(m: Matroid, l: Matroid, s: int, counts: dict[str, int]) -> None:
    """Rank order and bigcyclo on a certified pair with rank step ``s``,
    each counted in ``counts``. Rank order checks that independence families
    are weakly ordered; its rank half needs no check, as certify_quotient
    already raises on a certified pair with a negative or empty rank step.
    """
    for mask in range(1 << len(m.ground)):
        if m.is_independent(mask) and not l.is_independent(mask):
            raise LemmaCounterexample(
                f"independent set {m.ground.format_mask(mask)} lost upstairs",
                dump_text(("M", m), ("L", l)),
            )
    counts["rank-order"] += 1
    quotient.bigcyclo_check(m, l, s)
    counts["bigcyclo"] += 1


# ------------------------------------------------------------------ sweep 5a


@_sweep("lemma-exhaustive")
def lemma_exhaustive_sweep(max_n: int, catalogs: CatalogMap) -> SweepOutcome:
    """All checked statements over all matroids, pairs, and triples in scope."""
    totals = dict.fromkeys(_ALL_STATEMENTS, 0)
    for n in range(1, max_n + 1):
        cat = catalogs[n]
        for m in cat.entries:
            for key, val in matroid_lemma_checks(m).items():
                totals[key] += val
        certified = cat.certified
        down: dict[int, list[int]] = {}
        for (i, j), s in certified.items():
            _pair_statements(cat.entries[i], cat.entries[j], s, totals)
            down.setdefault(i, []).append(j)
        for i, j in certified:
            for k in down.get(j, ()):
                if (i, k) not in certified:
                    raise LemmaCounterexample(
                        f"transitivity fails at catalog n={n} indices {i},{j},{k}",
                        dump_text(*zip(("M", "mid", "L"), (cat.entries[t] for t in (i, j, k)))),
                    )
                totals["transitivity"] += 1
    return "all statements hold: " + ", ".join(f"{k}={v}" for k, v in totals.items()), totals


# ------------------------------------------------------------------ sweep 5b


@_sweep("lemma-randomized")
def lemma_randomized_sweep(config: Optional[SweepConfig] = None) -> SweepOutcome:
    """Checked statements on randomized instances with 5 and 6 elements.

    Matroid-level statements run on random column matroids; pair statements
    run on genuine certified pairs obtained as minors of random one- and
    two-element lifts; transitivity runs on chained minors of two-element
    lifts. Counts every checked instance.
    """
    cfg = config or SweepConfig()
    rng = random.Random(cfg.seed)
    instances = dict.fromkeys(_ALL_STATEMENTS, 0)
    for _ in range(RANDOM_MATROIDS):
        n = rng.choice((5, 6))
        m = random_matroid(rng, n)
        sample = (rng, SAMPLES_PER_MATROID)
        for key, val in matroid_lemma_checks(m, sample).items():
            instances[key] += val

    for _ in range(RANDOM_PAIRS):
        n = rng.choice((5, 6))
        steps = rng.choice((1, 2))
        m, l = random_quotient_pair(rng, n, steps)
        cert = quotient.certify_quotient(m, l)
        if not cert.holds:
            raise LemmaCounterexample(
                "random minor pair refused certification", dump_text(("M", m), ("L", l))
            )
        _pair_statements(m, l, cert.step_s, instances)

    for _ in range(RANDOM_TRIPLES):
        n = rng.choice((5, 6))
        g = default_ground(n)
        z1, z2 = fresh_labels(g, 2, stem="z")
        big = g.extend((z1, z2))
        lifted = random_matroid(rng, big)
        m2 = contract(lifted, big.mask_of((z1, z2)))
        stage = contract(lifted, big.mask_of((z2,)))
        mid = delete(stage, stage.ground.mask_of((z1,)))
        k2 = delete(lifted, big.mask_of((z1, z2)))
        lo = quotient.certify_quotient(m2, mid)
        hi = quotient.certify_quotient(mid, k2)
        outer = quotient.certify_quotient(m2, k2)
        if not (lo.holds and hi.holds and outer.holds):
            raise LemmaCounterexample(
                "transitivity failed on random chained minors", dump_text(("N", lifted))
            )
        instances["transitivity"] += 1
    total = sum(instances.values())
    details = f"{total} randomized instances hold: " + ", ".join(
        f"{k}={v}" for k, v in instances.items()
    )
    return details, dict(total=total, **instances)


# ------------------------------------------------------------------ sweep 6


def lattice_stages(w: quotient.LiftWitness) -> list[Matroid]:
    """``w.stage(d)`` for every subset d of the new labels, by bitmask.

    These minors of N are what the closed-form chain of ``factor_homotopy``
    is checked against: its stage after the first |d| labels of any order
    must equal stage d.
    """
    return [w.stage(d) for d in range(1 << len(w.x_labels))]


@_sweep("homotopy")
def homotopy_sweep(max_n: int, catalogs: CatalogMap) -> SweepOutcome:
    """Factorization validity for every certified pair with step >= 2 under
    every ordering of the new elements; each stage is order-free.

    ``factor_homotopy`` builds and checks the one closed-form chain: each
    stage gains one rank and consecutive stages certify. The chains of all
    orderings are the maximal chains of the lattice of subsets D of the new
    labels; every stage D must equal the chain's stage |D|, so every
    ordering gives that chain. Its ends are the operands, which the
    remark comparison's shifted tally checks against families 1 and s + 1.
    """
    pairs = 0
    for w in catalog_witnesses(catalogs, max_n):
        if len(w.x_labels) < 2:
            continue
        pairs += 1
        try:
            chain = quotient.factor_homotopy(w.m, w.l, w.x_labels, witness=w)
        except CheckFailure as exc:
            raise LemmaCounterexample(
                f"factorization failed for {w.m!r}, {w.l!r}: {str(exc).splitlines()[0]}",
                _witness_dump(w),
            ) from exc
        for d, st in enumerate(lattice_stages(w)):
            if st != chain.steps[d.bit_count()]:
                deleted = w.n.ground.format_mask(d << len(w.m.ground))
                raise LemmaCounterexample(
                    f"stage deleting {deleted} of {w.m!r}, {w.l!r} differs from chain "
                    f"stage {d.bit_count()}",
                    _witness_dump(w),
                )
    details = (
        f"{pairs} pairs with step >= 2 factor under every ordering; "
        f"stages order-independent for {pairs}, order-dependent for 0"
    )
    return details, dict(pairs=pairs, order_free=pairs, order_bound=0)


# ------------------------------------------------------------------ sweep 8


@_sweep("remark-comparison")
def remark_comparison_sweep(max_n: int, catalogs: CatalogMap) -> SweepOutcome:
    """Stage-family comparison tally over every certified pair with step >= 1.

    Nothing is asserted about either index reading; the outcome carries the
    agree/disagree tally and a printable report.
    """
    pairs = rows = shifted_agree = literal_agree = 0
    per_stage: dict[int, list[int]] = {}
    for w in catalog_witnesses(catalogs, max_n):
        pairs += 1
        for row in quotient.remark_comparison(w):
            rows += 1
            bucket = per_stage.setdefault(row.i, [0, 0, 0])
            bucket[0] += 1
            if row.shifted_agrees:
                shifted_agree += 1
                bucket[1] += 1
            if row.literal_agrees:
                literal_agree += 1
                bucket[2] += 1
    lines = [
        f"stage-family comparison over {pairs} certified pairs (step >= 1), n <= {max_n}",
        f"shifted reading (stage i vs closed form at i+1): {shifted_agree}/{rows} stages agree",
        f"literal reading (stage i vs closed form at i): {literal_agree}/{rows} stages agree",
    ]
    for i in sorted(per_stage):
        total, sh, li = per_stage[i]
        lines.append(f"  stage {i}: {total} instances, shifted agree {sh}, literal agree {li}")
    details = f"{pairs} pairs; shifted {shifted_agree}/{rows}, literal {literal_agree}/{rows}"
    return details, dict(
        pairs=pairs, shifted=(shifted_agree, rows), literal=(literal_agree, rows),
        report="\n".join(lines),
    )


# ------------------------------------------------------------------ sweep 9


@_sweep("text-roundtrip")
def roundtrip_sweep(max_n: int, catalogs: CatalogMap) -> SweepOutcome:
    """Serialize/parse identity for every catalog entry."""
    checked = 0
    for n in range(1, max_n + 1):
        for m in catalogs[n].entries:
            back = parse_matroid_text(serialize_matroid_text(m))
            if back != m:
                raise LemmaCounterexample(
                    f"round trip changed {m!r} into {back!r}", dump_text(("M", m), ("back", back))
                )
            checked += 1
    return f"{checked} catalog entries round-trip", dict(checked=checked)


# --------------------------------------------------------------- full runner


def run_all(max_n: int = 4, config: Optional[SweepConfig] = None) -> list[SweepOutcome]:
    """Run every sweep at sizes capped by ``max_n``; the randomized one with
    ``config`` only."""
    if max_n < 1:
        raise PreconditionFailure(f"sweep size cap must be at least 1, got {max_n}")
    catalogs = build_catalogs(min(max_n, 5))  # no sweep reads past n = 5
    outcomes = [
        catalog_cross_oracle_sweep(min(max_n, 4), catalogs),
        lift_property_sweep(min(max_n, 5), catalogs),
        lift_criterion_sweep(min(max_n, 4), catalogs),
        witness_oracle_sweep(min(max_n, 3), catalogs),
        lemma_exhaustive_sweep(min(max_n, 4), catalogs),
        homotopy_sweep(min(max_n, 4), catalogs),
        remark_comparison_sweep(min(max_n, 4), catalogs),
        roundtrip_sweep(min(max_n, 5), catalogs),
    ]
    if config is not None:
        outcomes.append(lemma_randomized_sweep(config))
    return outcomes
