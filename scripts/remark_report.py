#!/usr/bin/env python3
"""Regenerate the stage-family comparison report.

Compares both index readings of the closed-form stage families against the
true single-step minors for every certified pair up to the size cap, and
writes the tally to reports/remark_comparison.txt (or --out).
"""

import argparse
import os
import sys

from matlift.sweeps import build_catalogs, remark_comparison_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--out", default=os.path.join("reports", "remark_comparison.txt"))
    args = ap.parse_args()
    out = remark_comparison_sweep(args.max_n, build_catalogs(args.max_n))
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(out.stats["report"] + "\n")
    print(out.stats["report"])
    print(f"\nwritten to {args.out}")
    return 0 if out.ok else 1


if __name__ == "__main__":
    sys.exit(main())
