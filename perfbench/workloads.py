"""The three benchmark workloads.

Each workload has four steps. ``setup`` builds inputs and oracle tables and
is timed as set-up. ``prepare`` does untimed per-pass housekeeping, so a
traced pass records only the pass itself. ``run_pass`` is the timed pass.
``check`` compares the pass output with the benchmark's own oracle. The
workloads reach matlift only through its public functions, looked up on
their modules at pass time so a tracer's wrappers are seen. Passes read
time from the ``clock`` they are given, which leaves out the speed probe.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
from dataclasses import dataclass, field

import oracle

X_LABELS = ("x1", "x2", "x3", "x4", "x5")
FAILED = 255  # verdict byte for a certify call that raised


@dataclass
class Pass:
    """What one timed pass did; ``output`` is kept for the check."""

    wall_s: float
    decide_s: float
    pairs_decided: int
    latencies: list[float]
    attempted: int
    failures: list[str] = field(default_factory=list)
    output: object = None


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"


# ------------------------------------------------------------ exhaustive-n5


@dataclass
class _CatalogState:
    catalog: object
    families: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    ranks: list[list[int]]
    flats: list[int]
    own_of: list[int]
    order: list[int]
    expected_items: int


# The decide phase is half a second, too short to time steadily on a shared
# machine, so a pass decides every pair in this many rounds: one before the
# construct items and one after each of the equal chunks they are split into.
DECIDE_ROUNDS = 4


class Exhaustive:
    """Decide every ordered pair of the n = 5 catalog, then lift and factor
    every certified pair with positive rank step."""

    name = "exhaustive-n5"
    n = 5
    catalog_size = 406  # labelled matroids on 5 elements, OEIS A058673

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def setup(self) -> _CatalogState:
        from matlift.enumeration import enumerate_matroids

        catalog = enumerate_matroids(self.n)
        families = oracle.all_matroids(self.n)
        index = {f: k for k, f in enumerate(families)}
        ranks = [oracle.rank_table(self.n, f) for f in families]
        flats = [oracle.flat_bits(self.n, r) for r in ranks]
        failures = []
        own_of = [index.get(tuple(m.circuits), -1) for m in catalog.entries]
        if len(catalog.entries) != self.catalog_size or len(families) != self.catalog_size:
            failures.append(
                f"catalog has {len(catalog.entries)} entries, antichain scan "
                f"{len(families)}, expected {self.catalog_size}"
            )
        elif sorted(own_of) != list(range(self.catalog_size)):
            failures.append("catalog differs from the antichain scan")
        if catalog.ground.labels != tuple("abcde"):
            failures.append(f"unexpected catalog ground {catalog.ground.labels}")
        full = (1 << self.n) - 1
        expected_items = sum(
            1
            for a in range(len(families))
            for b in range(len(families))
            if ranks[b][full] > ranks[a][full] and oracle.is_quotient(flats[a], flats[b])
        )
        order = list(range(len(catalog.entries) ** 2))
        random.Random(self.seed).shuffle(order)
        self.setup_failures = failures
        return _CatalogState(catalog, families, index, ranks, flats, own_of, order,
                             expected_items)

    def prepare(self, st: _CatalogState):
        """Fresh copies of the catalog entries, so no pass inherits rank memos."""
        from matlift.matroid import Matroid

        return [Matroid(st.catalog.ground, m.circuits) for m in st.catalog.entries]

    def run_pass(self, st: _CatalogState, entries, tracer, clock) -> Pass:
        from matlift import quotient

        certify = quotient.certify_quotient
        lift = quotient.lift_witness
        factor = quotient.factor_homotopy
        size = len(entries)
        failures = []

        def decide() -> bytearray:
            verdict = bytearray(size * size)
            for p in st.order:
                i, j = divmod(p, size)
                if tracer is not None:
                    tracer.item = p
                try:
                    cert = certify(entries[i], entries[j])
                except Exception as exc:
                    verdict[p] = FAILED
                    failures.append(f"certify pair {i},{j}: {_describe(exc)}")
                    continue
                if cert.holds:
                    verdict[p] = 1 + cert.step_s
            return verdict

        t0 = clock()
        verdicts = [decide()]
        decide_s = clock() - t0
        items = [p for p in st.order if 2 <= verdicts[0][p] < FAILED]
        latencies = []
        outputs = []
        for chunk in range(DECIDE_ROUNDS - 1):
            for p in items[chunk::DECIDE_ROUNDS - 1]:
                i, j = divmod(p, size)
                labels = X_LABELS[: verdicts[0][p] - 1]
                if tracer is not None:
                    tracer.item = p
                s0 = clock()
                try:
                    w = lift(entries[i], entries[j], labels)
                    chain = factor(entries[i], entries[j], labels, witness=w)
                except Exception as exc:
                    latencies.append(clock() - s0)
                    failures.append(f"construct pair {i},{j}: {_describe(exc)}")
                    outputs.append((p, None))
                    continue
                latencies.append(clock() - s0)
                outputs.append((p, (
                    w.n.ground.labels,
                    tuple(w.n.circuits),
                    [(stage.ground.labels, tuple(stage.circuits)) for stage in chain.steps],
                )))
            d0 = clock()
            verdicts.append(decide())
            decide_s += clock() - d0
        wall = clock() - t0
        pairs = size * size * DECIDE_ROUNDS
        return Pass(wall, decide_s, pairs, latencies, pairs + len(items), failures,
                    (verdicts, outputs))

    def check(self, st: _CatalogState, res: Pass) -> None:
        verdicts, outputs = res.output
        verdict = verdicts[0]
        size = len(st.own_of)
        full = (1 << self.n) - 1
        fail = res.failures.append
        for p in range(size * size):
            v = verdict[p]
            if v == FAILED:
                continue
            i, j = divmod(p, size)
            a, b = st.own_of[i], st.own_of[j]
            if (v > 0) != oracle.is_quotient(st.flats[a], st.flats[b]):
                fail(f"verdict on pair {i},{j} disagrees with the flat test")
            elif v and v - 1 != st.ranks[b][full] - st.ranks[a][full]:
                fail(f"rank step on pair {i},{j} is {v - 1}")
        for again in verdicts[1:]:
            if again != verdict:
                fail("a later decide round gave other verdicts than the first")
        if len(outputs) != st.expected_items:
            fail(f"{len(outputs)} pairs to construct, flat test gives {st.expected_items}")
        ground = st.catalog.ground.labels
        for p, out in outputs:
            if out is None:
                continue
            i, j = divmod(p, size)
            problem = self._check_item(st, ground, st.own_of[i], st.own_of[j],
                                       verdict[p] - 1, out)
            if problem:
                fail(f"pair {i},{j}: {problem}")

    def _check_item(self, st, ground, a, b, s, out) -> str:
        n_labels, n_circuits, stages = out
        if n_labels != ground + X_LABELS[:s]:
            return f"witness ground {n_labels}"
        x_mask = ((1 << s) - 1) << self.n
        base = oracle.greedy_independent(x_mask, n_circuits)
        if oracle.rank_table(self.n, n_circuits, base) != st.ranks[a]:
            return "witness fails r_N(A+X) - r_N(X) = r_M(A)"
        if {c for c in n_circuits if c & x_mask == 0} != set(st.families[b]):
            return "witness minus X is not L"
        if len(stages) != s + 1:
            return f"chain has {len(stages)} stages for step {s}"
        idx = []
        for labels, circuits in stages:
            k = st.index.get(circuits, -1)
            if labels != ground or k < 0:
                return "a chain stage is not a matroid on the ground set"
            idx.append(k)
        if idx[0] != a or idx[-1] != b:
            return "chain does not run from M to L"
        full = (1 << self.n) - 1
        for lo, hi in zip(idx, idx[1:]):
            if st.ranks[hi][full] != st.ranks[lo][full] + 1:
                return "chain ranks do not rise by one"
            if not oracle.is_quotient(st.flats[lo], st.flats[hi]):
                return "consecutive chain stages fail the flat test"
        return ""


# ---------------------------------------------------------- random-lift-cli

# Draw parameters (n, step, q, rank), cycled over the sessions. They are
# fixed here, never chosen from the cost of a draw: n = 7-8 and step 1-3 over
# GF(2), GF(3) and GF(5). Step-1 and step-2 strata cost 15-45 ms a session.
# The two step-3 strata cost about 65 ms and make up the tail; they are 100
# of the 600 sessions, so the tail percentile rests on many draws.
GRID = (
    (7, 1, 2, 4), (8, 1, 2, 5), (7, 1, 3, 4), (8, 1, 3, 5), (7, 1, 5, 5), (8, 1, 5, 6),
    (7, 2, 2, 5), (8, 2, 3, 7), (7, 2, 5, 6), (8, 2, 5, 7), (8, 3, 3, 8), (7, 3, 5, 7),
)
SESSIONS = 600
GROUND = "abcdefgh"


@dataclass
class _Item:
    n: int
    step: int
    m_path: str
    l_path: str
    out_dir: str
    rank_m: list[int]
    circuits_m: frozenset[int]
    circuits_l: frozenset[int]

    @property
    def labels(self) -> str:
        return ",".join(X_LABELS[: self.step])


def draw_pair(rng: random.Random, n: int, step: int, q: int, rank: int):
    """Rank tables of M = N/X and L = N minus X for a random GF(q) matrix N.

    N has ``rank`` rows and n + step columns, the last ``step`` being X.
    Draws repeat until X is independent and E spans N, which makes the rank
    step exactly ``step``; that is a property of the draw, not of its cost.
    """
    while True:
        cols = [tuple(rng.randrange(q) for _ in range(rank)) for _ in range(n + step)]
        x_cols = cols[n:]
        if oracle.column_ranks(x_cols, q)[-1] != step:
            continue
        rank_l = oracle.column_ranks(cols[:n], q)
        if rank_l[-1] != rank:
            continue
        return oracle.column_ranks(cols[:n], q, base=x_cols), rank_l


class RandomLiftCli:
    """CLI sessions (lift, verify-pair, factor) on seeded GF(q) pairs."""

    name = "random-lift-cli"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> list[_Item]:
        self.setup_failures = []
        shutil.rmtree(self.workdir, ignore_errors=True)
        items = []
        for k in range(SESSIONS):
            n, step, q, rank = GRID[k % len(GRID)]
            rank_m, rank_l = draw_pair(random.Random(f"{self.seed}:{k}"), n, step, q, rank)
            circuits_m = oracle.circuits_from_ranks(n, rank_m)
            circuits_l = oracle.circuits_from_ranks(n, rank_l)
            item_dir = os.path.join(self.workdir, "in", str(k))
            os.makedirs(item_dir)
            paths = []
            for name, circuits in (("M", circuits_m), ("L", circuits_l)):
                path = os.path.join(item_dir, f"{name}.txt")
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(oracle.matroid_text(name, GROUND[:n], circuits))
                paths.append(path)
            items.append(_Item(n, step, paths[0], paths[1],
                               os.path.join(self.workdir, "out", str(k)),
                               rank_m, frozenset(circuits_m), frozenset(circuits_l)))
        return items

    def prepare(self, items: list[_Item]) -> None:
        shutil.rmtree(os.path.join(self.workdir, "out"), ignore_errors=True)

    def run_pass(self, items: list[_Item], _prepared, tracer, clock) -> Pass:
        from matlift import cli

        run = cli.run_command
        latencies = []
        codes = []
        failures = []
        t0 = clock()
        for k, it in enumerate(items):
            if tracer is not None:
                tracer.item = k
            witness = os.path.join(it.out_dir, "w")
            sink = io.StringIO()
            s0 = clock()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    got = (
                        run(["lift", it.m_path, it.l_path, "--labels", it.labels,
                             "--out", witness]),
                        run(["verify-pair", os.path.join(witness, "witness.txt"),
                             it.m_path, it.l_path, "--x", it.labels]),
                        run(["factor", it.m_path, it.l_path, "--labels", it.labels,
                             "--out", os.path.join(it.out_dir, "f")]),
                    )
            except Exception as exc:
                got = None
                failures.append(f"session {k}: {_describe(exc)}")
            latencies.append(clock() - s0)
            codes.append(got)
        wall = clock() - t0
        return Pass(wall, wall, len(items), latencies, len(items), failures, codes)

    def check(self, items: list[_Item], res: Pass) -> None:
        for k, (it, got) in enumerate(zip(items, res.output)):
            if got is None:
                continue
            problem = self._check_item(it, got)
            if problem:
                res.failures.append(f"session {k}: {problem}")

    def _check_item(self, it: _Item, got) -> str:
        if got != (0, 0, 0):
            return f"exit codes {got} for lift, verify-pair, factor"
        ground = tuple(GROUND[: it.n])
        try:
            with open(os.path.join(it.out_dir, "w", "witness.txt"), encoding="ascii") as fh:
                n_labels, n_circuits = oracle.parse_text(fh.read())
        except (OSError, ValueError, KeyError) as exc:
            return f"witness file: {_describe(exc)}"
        if n_labels != ground + X_LABELS[: it.step]:
            return f"witness ground {n_labels}"
        x_mask = ((1 << it.step) - 1) << it.n
        base = oracle.greedy_independent(x_mask, n_circuits)
        if oracle.rank_table(it.n, n_circuits, base) != it.rank_m:
            return "witness fails r_N(A+X) - r_N(X) = r_M(A)"
        if frozenset(c for c in n_circuits if c & x_mask == 0) != it.circuits_l:
            return "witness minus X is not L"
        stage_dir = os.path.join(it.out_dir, "f")
        if os.path.exists(os.path.join(stage_dir, f"stage{it.step + 1}.txt")):
            return "chain has too many stages"
        stages = []
        for i in range(it.step + 1):
            try:
                with open(os.path.join(stage_dir, f"stage{i}.txt"), encoding="ascii") as fh:
                    labels, circuits = oracle.parse_text(fh.read())
            except (OSError, ValueError, KeyError) as exc:
                return f"stage {i}: {_describe(exc)}"
            if labels != ground:
                return f"stage {i} ground {labels}"
            stages.append((circuits, oracle.rank_table(it.n, circuits)))
        if stages[0][0] != it.circuits_m or stages[-1][0] != it.circuits_l:
            return "chain does not run from M to L"
        full = (1 << it.n) - 1
        for (_, lo), (_, hi) in zip(stages, stages[1:]):
            if hi[full] != lo[full] + 1:
                return "chain ranks do not rise by one"
            if not oracle.is_quotient(oracle.flat_bits(it.n, lo), oracle.flat_bits(it.n, hi)):
                return "consecutive chain stages fail the flat test"
        return ""


# --------------------------------------------------------- sweep-n4-checked

# The acceptance gate's pinned counts, each re-derived in set-up from the
# benchmark's own catalogs; the randomized sweep has only a floor.
PINS = {
    "counts": {1: 2, 2: 5, 3: 16, 4: 68},
    "minor_pairs": 1058,
    "pairs": 4909,
    "certified": 640,
    "witnesses": 549,
    "step_one": 70,
    "homotopy": 236,
    "stages": 1367,
    "roundtrips": 91,
}
RANDOMIZED_FLOOR = 10_000


def derive_pins() -> dict:
    """The sweep pins computed from the antichain scan and the flat test."""
    counts = {}
    tallies = dict.fromkeys(("certified", "witnesses", "step_one", "homotopy", "stages"), 0)
    for n in range(1, 5):
        fams = oracle.all_matroids(n)
        counts[n] = len(fams)
        full = (1 << n) - 1
        ranks = [oracle.rank_table(n, f)[full] for f in fams]
        flats = [oracle.flat_bits(n, oracle.rank_table(n, f)) for f in fams]
        for a in range(len(fams)):
            for b in range(len(fams)):
                step = ranks[b] - ranks[a]
                if n <= 3 and step == 1:
                    tallies["step_one"] += 1
                if not oracle.is_quotient(flats[a], flats[b]):
                    continue
                tallies["certified"] += 1
                if step >= 1:
                    tallies["witnesses"] += 1
                    tallies["stages"] += step + 1
                if step >= 2:
                    tallies["homotopy"] += 1
    return {
        "counts": counts,
        "minor_pairs": sum(c * (2**n - 2) for n, c in counts.items()),
        "pairs": sum(c * c for c in counts.values()),
        "roundtrips": sum(counts.values()),
        **tallies,
    }


class SweepChecked:
    """``sweeps.run_all(4, SweepConfig(seed))`` with the contraction
    cross-check on, as the acceptance gate runs it."""

    name = "sweep-n4-checked"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def setup(self) -> dict:
        pins = derive_pins()
        self.setup_failures = [
            f"oracle derives {key}={pins[key]}, pinned {want}"
            for key, want in PINS.items()
            if pins[key] != want
        ]
        return pins

    def prepare(self, pins: dict) -> None:
        return None

    def run_pass(self, pins: dict, _prepared, tracer, clock) -> Pass:
        from matlift import minors, sweeps

        if tracer is not None:
            tracer.item = 0
        failures = []
        old = minors.CROSS_CHECK
        minors.CROSS_CHECK = True
        t0 = clock()
        try:
            outcomes = sweeps.run_all(4, sweeps.SweepConfig(seed=self.seed))
        except Exception as exc:
            outcomes = []
            failures.append(f"run_all: {_describe(exc)}")
        finally:
            wall = clock() - t0
            minors.CROSS_CHECK = old
        # the item is the whole sweep session, as one `matlift sweep` call
        return Pass(wall, wall, pins["pairs"], [wall], max(len(outcomes), 1), failures,
                    outcomes)

    def check(self, pins: dict, res: Pass) -> None:
        got = {o.name: o for o in res.output}
        expect = {
            "catalog-cross-oracle": {"counts": pins["counts"]},
            "lift-property": {"checked": pins["minor_pairs"]},
            "lift-criterion": {"pairs": pins["pairs"], "certified": pins["certified"],
                               "witnesses": pins["witnesses"]},
            "witness-oracle": {"agree": pins["step_one"]},
            "lemma-exhaustive": {},
            "homotopy": {"pairs": pins["homotopy"]},
            "remark-comparison": {"shifted": (pins["stages"], pins["stages"])},
            "text-roundtrip": {"checked": pins["roundtrips"]},
            "lemma-randomized": {},
        }
        if res.output and set(got) != set(expect):
            res.failures.append(f"sweeps run: {sorted(got)}")
        for name, stats in expect.items():
            out = got.get(name)
            if out is None:
                continue
            if not out.ok:
                res.failures.append(f"{name}: {out.details}")
            for key, want in stats.items():
                if out.stats.get(key) != want:
                    res.failures.append(f"{name}: {key}={out.stats.get(key)}, pinned {want}")
        randomized = got.get("lemma-randomized")
        if randomized is not None and randomized.stats.get("total", 0) < RANDOMIZED_FLOOR:
            res.failures.append(f"lemma-randomized: total {randomized.stats.get('total')}")


WORKLOADS = {w.name: w for w in (Exhaustive, RandomLiftCli, SweepChecked)}
