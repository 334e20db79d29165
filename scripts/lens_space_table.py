"""Tabulate exact surgery invariants of lens spaces L(p, q).

L(p, q) arises from p/q surgery on the unknot; the table lists the
Casson-Walker value (computed through the 2-component formula with a split
unknot carrying a 1/1 framing), the Casson-Gordon value of the same surgery,
and the underlying Dedekind sum.  Everything is exact rational arithmetic.

Example:
    python3 scripts/lens_space_table.py --max-p 12
"""

import argparse
import math
import sys
from fractions import Fraction

from cosmo.arith import Slope, dedekind_sum_fast
from cosmo.casson_walker import LinkSurgeryInvariants, casson_walker_link_surgery
from cosmo.seifert import SeifertMatrix, casson_gordon_tau

TRIVIAL = LinkSurgeryInvariants(a2_x=0, a2_y=0, a3=0, lk=0)
UNKNOT = SeifertMatrix([])


def lens_lambda_w(p, q):
    return casson_walker_link_surgery(TRIVIAL, Slope(p, q), Slope(1, 1)).lambda_w


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-p", type=int, default=10)
    ap.add_argument("--all-q", action="store_true", help="every coprime q in 1..p-1, not just q=1")
    args = ap.parse_args()

    header = f"{'p':>4} {'q':>4} {'lambda_w':>12} {'tau':>12} {'s(q,p)':>12}"
    print(header)
    print("-" * len(header))
    for p in range(2, args.max_p + 1):
        q_values = [q for q in range(1, p) if math.gcd(p, q) == 1] if args.all_q else [1]
        for q in q_values:
            lam = lens_lambda_w(p, q)
            tau = casson_gordon_tau(UNKNOT, Slope(p, q))
            ded = dedekind_sum_fast(q, p)
            print(f"{p:>4} {q:>4} {str(lam):>12} {str(tau):>12} {str(ded):>12}")

    # the integer-framing column obeys a closed form; spot-check it here
    for p in range(2, args.max_p + 1):
        if lens_lambda_w(p, 1) != Fraction(-(p - 1) * (p - 2), 12 * p):
            sys.exit(f"spot-check failed: lambda_w of L({p}, 1) is not -(p-1)(p-2)/(12p)")


if __name__ == "__main__":
    main()
