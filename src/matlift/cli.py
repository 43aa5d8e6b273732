"""Command line front end.

Every subcommand reads matroids from the line-oriented text format (see
textio) and reports through exit codes: 0 when the queried property holds
or the requested object was produced, 1 when a property fails (the
counterexample is printed; a raised check prints ``FAIL: <message>`` and
its dump), 2 for unusable input or bad invocations.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

from . import quotient, sweeps
from .axioms import check_circuit_axioms
from .enumeration import enumerate_matroids, pair_records
from .errors import CheckFailure, LabelClash, MatliftError, QuotientViolation
from .matroid import Matroid
from .minors import contract, delete
from .sets import GroundSet, SetFamily, fresh_labels
from .sweeps import SweepConfig
from .textio import (
    catalog_line,
    parse_document,
    parse_matroid_text,
    serialize_matroid_text,
    write_catalog,
)

# Failures of a checked property: report the counterexample on stdout, exit 1.
# Everything else raised by the library is an input problem, exit 2.
PROPERTY_FAILURES = (QuotientViolation, CheckFailure)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str) -> Matroid:
    return parse_matroid_text(_read_text(path))


def _label_mask(ground: GroundSet, spec: Optional[str]) -> int:
    """Comma-separated labels to a mask; empty or missing spec means empty."""
    if not spec:
        return 0
    return ground.mask_of(spec.split(","))


def _split_labels(spec: str) -> tuple[str, ...]:
    labels = tuple(tok for tok in spec.split(",") if tok)
    if not labels:
        raise LabelClash("no labels given")
    return labels


def _emit(m: Matroid, name: Optional[str] = None) -> None:
    sys.stdout.write(serialize_matroid_text(m, name))


# ----------------------------------------------------------------- handlers


def _cmd_check_axioms(args) -> int:
    doc = parse_document(_read_text(args.file))
    ground = GroundSet(doc.ground_labels)
    family = SetFamily(ground.mask_of(c) for c in doc.circuit_labels)
    report = check_circuit_axioms(ground, family, strong=args.strong)
    if report.passed:
        mode = "strong" if args.strong else "weak"
        print(f"ok: {len(family)} circuits satisfy the {mode} circuit axioms")
        return 0
    print(report.describe())
    return 1


def _cmd_rank(args) -> int:
    m = _load(args.file)
    if args.set is None:
        print(m.rank())
    else:
        print(m.rank(_label_mask(m.ground, args.set)))
    return 0


def _cmd_dual(args) -> int:
    _emit(_load(args.file).dual(), args.name)
    return 0


def _cmd_minor(args) -> int:
    m = _load(args.file)
    del_mask = _label_mask(m.ground, args.delete)
    con_mask = _label_mask(m.ground, args.contract)
    if del_mask & con_mask:
        overlap = m.ground.format_mask(del_mask & con_mask)
        raise LabelClash(f"labels {overlap} appear in both --delete and --contract")
    out = m
    if con_mask:
        out = contract(out, con_mask)
    if del_mask:
        # contraction first; the two commute on disjoint label sets
        out = delete(out, out.ground.mask_of(m.ground.labels_of(del_mask)))
    _emit(out, args.name)
    return 0


def _cmd_cyclic_sets(args) -> int:
    m = _load(args.file)
    fam = m.cyclic_sets(nullity=args.nullity)
    for mask in fam:
        print(m.ground.format_mask(mask))
    return 0


def _cmd_quotient(args) -> int:
    m = _load(args.m_file)
    l = _load(args.l_file)
    cert = quotient.certify_quotient(m, l)
    if cert.holds:
        print(f"holds: rank step {cert.step_s}")
        if args.certificate:
            print(cert.describe())
        return 0
    print(cert.describe())
    return 1


def _cmd_lift(args) -> int:
    m = _load(args.m_file)
    l = _load(args.l_file)
    w = quotient.lift_witness(m, l, _split_labels(args.labels))
    text = serialize_matroid_text(w.n, "witness")
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "witness.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_factor(args) -> int:
    m = _load(args.m_file)
    l = _load(args.l_file)
    chain = quotient.factor_homotopy(m, l, _split_labels(args.labels))
    texts = [
        serialize_matroid_text(step, f"stage{i}")
        for i, step in enumerate(chain.steps)
    ]
    sys.stdout.write("\n".join(texts))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for i, text in enumerate(texts):
            with open(os.path.join(args.out, f"stage{i}.txt"), "w", encoding="utf-8") as fh:
                fh.write(text)
    return 0


def _cmd_verify_pair(args) -> int:
    n = _load(args.n_file)
    m = _load(args.m_file)
    l = _load(args.l_file)
    x_mask = n.ground.mask_of(_split_labels(args.x))
    report = quotient.verify_pair(n, x_mask, m, l)
    if report.ok:
        print("ok: contraction and deletion both match")
        return 0
    print(report.describe())
    return 1


def _cmd_remark(args) -> int:
    m = _load(args.m_file)
    l = _load(args.l_file)
    if args.compare:
        w = quotient.lift_witness(m, l, fresh_labels(m.ground, l.rank() - m.rank()))
        for row in quotient.remark_comparison(w):
            print(
                f"stage {row.i}: minor has {len(row.minor_circuits)} circuits; "
                f"shifted form {'agrees' if row.shifted_agrees else 'differs'}, "
                f"literal form {'agrees' if row.literal_agrees else 'differs'}"
            )
        return 0
    fam, report = quotient.remark_circuits(m, l, args.j)
    for mask in fam:
        print(m.ground.format_mask(mask))
    if not report.passed:
        print(report.describe())
        return 1
    return 0


def _cmd_enumerate(args) -> int:
    cat = enumerate_matroids(args.n, args.method)
    if args.out:
        write_catalog(cat.entries, args.out)
        print(f"wrote {len(cat)} matroids to {args.out}")
    else:
        for m in cat.entries:
            print(catalog_line(m))
    return 0


def _cmd_pairs(args) -> int:
    records = pair_records(args.n)
    lines = [rec.line() for rec in records]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        certified = sum(1 for rec in records if rec.quotient)
        print(f"wrote {len(records)} pair records to {args.out} ({certified} certified)")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_check_lemmas(args) -> int:
    m = _load(args.file)
    counts = sweeps.matroid_lemma_checks(m)
    for key, val in counts.items():
        print(f"{key}: {val} instances hold")
    return 0


def _cmd_sweep(args) -> int:
    config = SweepConfig() if args.random else None
    outcomes = sweeps.run_all(args.n, config=config)
    for o in outcomes:
        print(o.line())
    return 0 if all(o.ok for o in outcomes) else 1


# ------------------------------------------------------------------- parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="matlift",
        description="Quotient and lift toolkit for matroids given by circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-axioms", help="test a circuit family against the axioms")
    p.add_argument("file")
    p.add_argument("--strong", action="store_true",
                   help="also demand the prescribed-element elimination form")
    p.set_defaults(handler=_cmd_check_axioms)

    p = sub.add_parser("rank", help="rank of the matroid or of a subset")
    p.add_argument("file")
    p.add_argument("--set", help="comma-separated labels (empty for the empty set)")
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("dual", help="print the dual matroid")
    p.add_argument("file")
    p.add_argument("--name", help="name for the output document, [A-Za-z0-9_]+")
    p.set_defaults(handler=_cmd_dual)

    p = sub.add_parser("minor", help="delete and/or contract labels")
    p.add_argument("file")
    p.add_argument("--delete", help="comma-separated labels to delete")
    p.add_argument("--contract", help="comma-separated labels to contract")
    p.add_argument("--name", help="name for the output document, [A-Za-z0-9_]+")
    p.set_defaults(handler=_cmd_minor)

    p = sub.add_parser("cyclic-sets", help="list unions of circuits")
    p.add_argument("file")
    p.add_argument("--nullity", type=int, help="restrict to one nullity value")
    p.set_defaults(handler=_cmd_cyclic_sets)

    p = sub.add_parser("quotient", help="test the circuit-union criterion for (M, L)")
    p.add_argument("m_file")
    p.add_argument("l_file")
    p.add_argument("--certificate", action="store_true",
                   help="print the covering of every circuit")
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("lift", help="construct the witness extension for (M, L)")
    p.add_argument("m_file")
    p.add_argument("l_file")
    p.add_argument("--labels", required=True,
                   help="comma-separated fresh labels, one per rank step")
    p.add_argument("--out", help="directory for witness.txt")
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser("factor", help="single-step chain from M up to L")
    p.add_argument("m_file")
    p.add_argument("l_file")
    p.add_argument("--labels", required=True,
                   help="comma-separated fresh labels, outermost first")
    p.add_argument("--out", help="directory for stage files")
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("verify-pair", help="check that (N, X) realizes (M, L)")
    p.add_argument("n_file")
    p.add_argument("m_file")
    p.add_argument("l_file")
    p.add_argument("--x", required=True, help="comma-separated labels of X in N")
    p.set_defaults(handler=_cmd_verify_pair)

    p = sub.add_parser("remark", help="closed-form stage families for (M, L)")
    p.add_argument("m_file")
    p.add_argument("l_file")
    p.add_argument("--j", type=int, default=0, help="nullity threshold")
    p.add_argument("--compare", action="store_true",
                   help="compare both index readings against the true stages")
    p.set_defaults(handler=_cmd_remark)

    p = sub.add_parser("enumerate", help="catalog all matroids on n elements")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("basis", "circuit"), default="basis")
    p.add_argument("--out", help="catalog file path (default: print)")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("pairs", help="pair records over the full catalog on n elements")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="pair file path (default: print)")
    p.set_defaults(handler=_cmd_pairs)

    p = sub.add_parser("check-lemmas", help="run every per-matroid checked statement")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check_lemmas)

    p = sub.add_parser("sweep", help="run the verification sweeps")
    p.add_argument("--n", type=int, default=4, help="size cap (each sweep has its own)")
    p.add_argument("--random", action="store_true",
                   help="include the randomized instance sweep")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def run_command(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        return args.handler(args)
    except PROPERTY_FAILURES as exc:
        print(f"FAIL: {exc}")
        return 1
    except MatliftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
