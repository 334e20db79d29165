"""Sweep the (2a+1, 2b, 2b) pretzel family through the candidate test.

For every (a, b) on the requested grid and every framing slope given on the
command line, build the link invariants from the closed forms, run the
purely-cosmetic candidate analysis, and print one table row.  Rows where the
skein oracle can double-check the closed-form a3 (small diagrams) are marked
in the last column.

Example:
    python3 scripts/pretzel_sweep.py --max-a 3 --min-b -3 --max-b 3 \
        --slopes -1/1,1/1,-1/2
"""

import argparse
import sys

from cosmo.arith import Slope
from cosmo.cli import _merge_negative_values
from cosmo.links import (
    invariants_from_diagram,
    pretzel_a3_closed_form,
    pretzel_diagram,
)
from cosmo.obstructions import pretzel_analysis

ORACLE_CROSSING_BUDGET = 24


def parse_slopes(text):
    return [Slope.parse(part) for part in text.split(",") if part.strip()]


def oracle_check(a, b):
    """Recompute a3 from an actual diagram when it is small enough."""
    crossings = (2 * a + 1) + 4 * abs(b)
    if crossings > ORACLE_CROSSING_BUDGET:
        return "skipped"
    inv = invariants_from_diagram(pretzel_diagram(a, b))
    return "agrees" if inv.a3 == pretzel_a3_closed_form(a, b) else "DISAGREES"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-a", type=int, default=3)
    ap.add_argument("--min-b", type=int, default=-3)
    ap.add_argument("--max-b", type=int, default=3)
    ap.add_argument("--slopes", type=parse_slopes, default=parse_slopes("-1/1,1/1"))
    ap.add_argument("--skip-oracle", action="store_true", help="closed forms only, no diagrams")
    args = ap.parse_args(_merge_negative_values(sys.argv[1:]))

    header = f"{'a':>3} {'b':>3} {'twists':>12} {'a3':>6} {'slope':>6} {'discriminant':>14} {'verdict':>12} {'candidates':>12} {'oracle':>10}"
    print(header)
    print("-" * len(header))
    for a in range(1, args.max_a + 1):
        for b in range(args.min_b, args.max_b + 1):
            if b == 0:
                continue
            twists = f"({2 * a + 1},{2 * b},{2 * b})"
            a3 = pretzel_a3_closed_form(a, b)
            oracle = "skipped" if args.skip_oracle else oracle_check(a, b)
            for s0 in args.slopes:
                report = pretzel_analysis(a, b, s0)
                disc = dict(report.evidence)["discriminant"]
                cand = "-" if not report.candidates else ",".join(map(str, report.candidates))
                print(
                    f"{a:>3} {b:>3} {twists:>12} {a3:>6} {str(s0):>6} "
                    f"{str(disc):>14} {report.verdict:>12} {cand:>12} {oracle:>10}"
                )


if __name__ == "__main__":
    main()
