"""The four seeded workloads: inputs, how each item runs, and its checks.

A workload hands out rounds of items.  Every round has the same make-up, so
the share of each operation (and of failed operations) is the same in every
run whatever the seed and the run length.  Inputs are drawn from a
``random.Random`` keyed by the workload and the seed, and no input repeats
within a run.  Inputs are built through cosmo's own constructors and
parsers (``Workload.build``, which sums their CPU time for ``setup_s``); the
checks compare outputs with ``reference`` (which does not
import cosmo) and with properties that relate several outputs.

Checks run after each round, outside the item timings and with the tracer
removed, so the extra cosmo calls some properties make are neither timed
nor traced.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import reference as R

import cosmo  # noqa: F401  (imports every compute module)
from cosmo import arith, casson_walker, links, obstructions, seifert
from cosmo.arith import Slope, dedekind_sum_fast
from cosmo.casson_walker import casson_walker_link_surgery
from cosmo.links import LinkSurgeryInvariants, braid_closure, format_pd, parse_pd, pretzel_diagram, torus2_diagram
from cosmo.seifert import parse_seifert_matrix

OBSTRUCTED, INCONCLUSIVE = "obstructed", "inconclusive"

CALIB_REF_NS = 1_800_000  # median of calibrate() on a 2-vCPU Xeon VM, Python 3.11.7
CALIB_SHARE = 0.1  # calibration CPU time per unit of item CPU time
SEEN_BITS = 1 << 24  # membership bits of the inputs drawn in a run: 2 MiB


def calibrate() -> float:
    """Slowdown against the reference of a fixed mix of integer, dict,
    Fraction and sort work: its CPU time over CALIB_REF_NS."""
    start = time.process_time_ns()
    table: dict = {}
    acc = Fraction(0)
    x = 1
    for i in range(300):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        key = (x & 511, i % 7)
        table[key] = table.get(key, 0) + 1
        acc += Fraction(x % 97 + 1, i % 13 + 1)
    sorted(table.items())
    return (time.process_time_ns() - start) / CALIB_REF_NS


# A fresh interpreter that compiles the benchmark's reference module: it pays
# the start-up and compiling that dominate a CLI call and the set-up, with no
# cosmo code, so it slows down as they do.
CALIB_CHILD = [sys.executable, "-c", "import sys; compile(open(sys.argv[1]).read(), 'r', 'exec')", R.__file__]
CALIB_CHILD_REF_NS = 88_800_000  # median child CPU on a 2-vCPU Xeon VM, Python 3.11.7


def child_slowdown(count: int) -> float:
    """Slowdown against the reference of ``count`` CALIB_CHILD processes,
    run one at a time with this process's environment."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    for _ in range(count):
        subprocess.run(CALIB_CHILD, check=True, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return cpu * 1e9 / count / CALIB_CHILD_REF_NS


class Item(NamedTuple):
    op: str
    call: tuple  # (module, attribute, args) in process; an argv list for the CLI
    check: Callable[[object], bool]
    known_fault: bool = False


# ---------------------------------------------------------------------------
# properties: each takes the program's values and says whether they hold


def dedekind_ok(p: int, q: int, s: Fraction) -> bool:
    return s == R.dedekind(p, q)


def reciprocity_ok(p: int, q: int, s_pq: Fraction, s_qp: Fraction) -> bool:
    return s_pq + s_qp == R.reciprocity_rhs(p, q)


def surgery_ok(inv, sx: Slope, sy: Slope, lam: Fraction, d: Fraction, sigma: int, lam_casson: Fraction) -> bool:
    ref_d, ref_sigma = R.framing(sx.p, sx.q, sy.p, sy.q, inv.lk)
    ref = R.lambda_w(inv.a2_x, inv.a2_y, inv.a3, inv.lk, (sx.p, sx.q), (sy.p, sy.q))
    return (lam, d, sigma, lam_casson) == (ref, ref_d, ref_sigma, ref / 2)


def swap_ok(lam: Fraction, lam_swapped: Fraction) -> bool:
    return lam == lam_swapped


def mirror_ok(lam: Fraction, lam_mirrored: Fraction) -> bool:
    return lam == -lam_mirrored


def lens_ok(p: int, q: int, lam: Fraction) -> bool:
    """lambda_w(L(p, q)) = -s(q, p), for p > 0."""
    return lam == -R.sawtooth_sum(q, p)


def knot_ok(lambda_sigma: Fraction, delta2: int, s: Slope, lam: Fraction) -> bool:
    return lam == R.knot_surgery_lambda(lambda_sigma, delta2, s.p, s.q)


def split_unknot_ok(lambda_sigma: Fraction, lam: Fraction, link_lambda_w: Fraction) -> bool:
    """The link formula on K and a split unknot framed 1 is twice the knot formula."""
    return 2 * (lam - lambda_sigma) == link_lambda_w


def candidates_ok(a2x: int, a2y: int, a3: int, s0: Slope, candidates, verdict: str) -> bool:
    ref = R.cosmetic_candidates(a2x, a2y, a3, (s0.p, s0.q))
    return tuple(candidates) == ref and verdict == (INCONCLUSIVE if ref else OBSTRUCTED)


def pretzel_ok(a: int, b: int, a2_unknot, a2_knot, a3) -> bool:
    return (a2_unknot, a2_knot, a3) == (0, R.torus_conway(2 * a + 1)[2], R.pretzel_a3(a, b))


def chirally_ok(a2: int, p0: int, verdict: str, evidence: dict) -> bool:
    value = p0 * p0 - 3 * p0 + 2 - 24 * a2
    expected = {"quadratic_value": value}
    if p0 > 0:
        expected["chirality_sum"] = Fraction(-value, 6 * p0)
    return verdict == (OBSTRUCTED if value else INCONCLUSIVE) and evidence == expected


def thm4_ok(a2: int, q0: int, a3: int, verdict: str, evidence: dict) -> bool:
    diff = a2 - q0 * a3
    return verdict == (OBSTRUCTED if diff else INCONCLUSIVE) and evidence == {"a2_minus_q0_times_a3": diff}


def nonzero_ok(value: Fraction, verdict: str) -> bool:
    return verdict == (OBSTRUCTED if value else INCONCLUSIVE)


def torus_sum_conway(ns: tuple[int, ...]) -> dict[int, int]:
    """Conway polynomial of a connected sum of (2, n) torus knots: the product."""
    poly = {0: 1}
    for n in ns:
        poly = R.poly_mul(poly, R.torus_conway(n))
    return poly


def conway_ok(ns: tuple[int, ...], coefficients: dict[int, int]) -> bool:
    return coefficients == torus_sum_conway(ns)


def second_derivative_ok(ns: tuple[int, ...], d2: int) -> bool:
    """Delta''(1) = 2 a2 for a knot."""
    return d2 == 2 * torus_sum_conway(ns).get(2, 0)


def tau_ok(ns: tuple[int, ...], p: int, q: int, value: Fraction) -> bool:
    """Signatures of a connected sum add, so tau is computed summand by summand."""
    return value == R.tau(ns, p, q)


def burau_ok(word: list[int], strands: int, coefficients: dict[int, int]) -> bool:
    return R.conway_matches_burau(coefficients, word, strands)


def _perturbed(v):
    if isinstance(v, str):
        return INCONCLUSIVE if v == OBSTRUCTED else OBSTRUCTED
    if isinstance(v, dict):
        return {**v, max(v, default=0) + 2: 1} if all(isinstance(k, int) for k in v) else {**v, "extra": 1}
    if isinstance(v, tuple):
        return v + (max(v, default=0) + 1,)
    return v + Fraction(1, 7)


def probe(name: str, prop: Callable[..., bool], args: tuple, at: int) -> list[str]:
    """The property must hold on the program's values and fail once
    argument ``at`` is perturbed."""
    problems = []
    if not prop(*args):
        problems.append(f"{name}: rejects the program's value")
    bad = list(args)
    bad[at] = _perturbed(bad[at])
    if prop(*bad):
        problems.append(f"{name}: accepts a perturbed value")
    return problems


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        # one bit per hash of an input drawn so far, allocated (and zeroed, so
        # resident) here: the worker's memory does not grow with the number of
        # items a run holds.  A false hit only causes a redraw.
        self._seen = bytearray(SEEN_BITS // 8)
        self.build_ns = 0  # CPU time spent in cosmo's constructors and parsers

    def fresh(self, key) -> bool:
        bit = hash(repr(key)) & (SEEN_BITS - 1)
        byte, mask = bit >> 3, 1 << (bit & 7)
        if self._seen[byte] & mask:
            return False
        self._seen[byte] |= mask
        return True

    def build(self, constructor, *args):
        """Call one of cosmo's constructors or parsers on an input drawn by
        the benchmark, adding its CPU time to ``build_ns``."""
        start = time.process_time_ns()
        out = constructor(*args)
        self.build_ns += time.process_time_ns() - start
        return out

    def round(self, index: int) -> list[Item]:
        """Items of round ``index``; round -1 is the warm-up."""
        raise NotImplementedError

    def execute(self, item: Item) -> tuple[object, int]:
        """Run one item; return its output (or exception) and its CPU nanoseconds."""
        module, attr, args = item.call
        fn = getattr(module, attr)
        start = time.process_time_ns()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        return out, time.process_time_ns() - start

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def slowdown(self, round_ns: int) -> float:
        """Slowdown of this CPU right after a round: ``calibrate`` run for
        about CALIB_SHARE of the round's item CPU time, at least once."""
        units = max(1, round(round_ns * CALIB_SHARE / CALIB_REF_NS))
        return sum(calibrate() for _ in range(units)) / units

    def self_test(self) -> list[str]:
        raise NotImplementedError

    # -- shared input draws ----------------------------------------------------

    def slope(self, limit: int) -> Slope:
        return self.build(Slope, self.rng.choice((1, -1)) * self.rng.randint(1, limit), self.rng.randint(1, limit))

    def surgery_inputs(self):
        rng = self.rng
        while True:
            inv = self.build(
                LinkSurgeryInvariants, rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-200, 200), rng.randint(-4, 4)
            )
            sx, sy = self.slope(400), self.slope(400)
            if sx.p * sy.p == inv.lk * inv.lk * sx.q * sy.q:
                continue  # singular framing: not a rational homology sphere
            if self.fresh(("surgery", inv, sx, sy)):
                return inv, sx, sy

    def coprime_pair(self, limit: int) -> tuple[int, int]:
        while True:
            p, q = self.rng.randint(1, limit), self.rng.randint(2, limit)
            if math.gcd(p, q) == 1 and self.fresh(("dedekind", p, q)):
                return p, q

    def pretzel_inputs(self) -> tuple[int, int, Slope]:
        while True:
            a, b, s0 = self.rng.randint(1, 60), self.rng.choice((1, -1)) * self.rng.randint(1, 60), self.slope(50)
            if self.fresh(("pretzel", a, b, s0)):
                return a, b, s0

    def quadratic_inputs(self, with_root: bool):
        """Candidate-test inputs; with_root picks a3 so that some p > 0 is a
        candidate, which needs 24 to divide p0 (3p - p^2 - 2 + 24 a2x) at s0 = p0."""
        rng = self.rng
        while True:
            a2x, a2y = rng.randint(-20, 20), rng.randint(-20, 20)
            if with_root:
                root, p0 = rng.randint(1, 200), rng.choice((1, -1)) * rng.randint(1, 24)
                num = p0 * (3 * root - root * root - 2 + 24 * a2x)
                if num % 24:
                    continue
                a3, s0 = num // 24, self.build(Slope, p0, 1)
            else:
                a3, s0 = rng.randint(-200, 200), self.slope(50)
            inv = self.build(LinkSurgeryInvariants, a2x, a2y, a3, 0)
            if self.fresh(("quadratic", inv, s0)):
                return inv, s0

    def chirally_inputs(self, silent: bool) -> tuple[int, int]:
        rng = self.rng
        while True:
            p0 = rng.choice((1, -1)) * rng.randint(1, 10**6)
            if silent:
                if (p0 - 1) * (p0 - 2) % 24:
                    continue
                a2 = (p0 - 1) * (p0 - 2) // 24
            else:
                a2 = rng.randint(-50, 50)
            if self.fresh(("chirally", a2, p0)):
                return a2, p0

    def thm4_inputs(self, silent: bool) -> tuple[int, int, int]:
        rng = self.rng
        while True:
            q0, a3 = rng.choice((1, -1)) * rng.randint(1, 100), rng.randint(-50, 50)
            a2 = q0 * a3 if silent else rng.randint(-50, 50)
            if self.fresh(("thm4", a2, q0, a3)):
                return a2, q0, a3

    def braid_word(self, strands: int, length: int) -> list[int]:
        while True:
            word = [self.rng.choice((1, -1)) * self.rng.randint(1, strands - 1) for _ in range(length)]
            if self.fresh(("braid", strands, tuple(word))):
                return word


def _item(op: str, module, args: tuple, check) -> Item:
    return Item(op, (module, op, args), check)


class SurgerySweep(Workload):
    """The surgery formula, the rows of the two sweep scripts, and the
    obstruction reports (see README.md for how the round is made up)."""

    name = "surgery_sweep"
    # (kind, count per round); a lens row is two items, every other kind one
    MIX = (
        ("surgery", 24),
        ("lens_row", 8),
        ("pretzel_row", 8),
        ("knot", 4),
        ("dedekind", 4),
        ("quadratic", 2),
        ("chirally", 2),
        ("thm4", 2),
    )
    LENS_MAX_P = 1000  # about 304 000 coprime (p, q) with q < p: distinct over long runs

    def round(self, index: int) -> list[Item]:
        items = []
        for kind, count in self.MIX:
            for k in range(count):
                items += getattr(self, "_" + kind)(k)
        self.rng.shuffle(items)
        return items

    def _surgery(self, _k) -> list[Item]:
        inv, sx, sy = self.surgery_inputs()
        return [_item("casson_walker_link_surgery", casson_walker, (inv, sx, sy), partial(self.check_surgery, inv, sx, sy))]

    @staticmethod
    def check_surgery(inv, sx, sy, out) -> bool:
        swapped = casson_walker_link_surgery(LinkSurgeryInvariants(inv.a2_y, inv.a2_x, inv.a3, inv.lk), sy, sx)
        mirrored = casson_walker_link_surgery(
            LinkSurgeryInvariants(inv.a2_x, inv.a2_y, -inv.a3, -inv.lk), Slope(-sx.p, sx.q), Slope(-sy.p, sy.q)
        )
        return (
            surgery_ok(inv, sx, sy, out.lambda_w, out.D, out.sigma, out.lambda_)
            and swap_ok(out.lambda_w, swapped.lambda_w)
            and mirror_ok(out.lambda_w, mirrored.lambda_w)
        )

    def _lens_row(self, _k) -> list[Item]:
        """One row of ``lens_space_table.py --all-q``: p/q surgery on the
        unlink (the other component at 1/1) and s(q, p)."""
        while True:
            p = self.rng.randint(2, self.LENS_MAX_P)
            q = self.rng.randint(1, p - 1)
            if math.gcd(p, q) == 1 and self.fresh(("lens", p, q)) and self.fresh(("dedekind", q, p)):
                break
        s, unknot = self.build(Slope, p, q), self.build(Slope, 1, 1)
        inv = self.build(LinkSurgeryInvariants, 0, 0, 0, 0)
        return [
            _item("casson_walker_link_surgery", casson_walker, (inv, s, unknot), lambda out: lens_ok(p, q, out.lambda_w)),
            _item("dedekind_sum_fast", arith, (q, p), lambda out: dedekind_ok(q, p, out)),
        ]

    def _knot(self, _k) -> list[Item]:
        while True:
            lambda_sigma = Fraction(self.rng.randint(-20, 20), self.rng.randint(1, 12))
            a2, s = self.rng.randint(-20, 20), self.slope(400)
            if self.fresh(("knot", lambda_sigma, a2, s)):
                break

        def check(out) -> bool:
            link = casson_walker_link_surgery(LinkSurgeryInvariants(a2, 0, 0, 0), s, Slope(1, 1))
            return knot_ok(lambda_sigma, 2 * a2, s, out) and split_unknot_ok(lambda_sigma, out, link.lambda_w)

        return [_item("casson_boyer_lines", casson_walker, (lambda_sigma, 2 * a2, s), check)]

    def _dedekind(self, _k) -> list[Item]:
        p, q = self.coprime_pair(10**9)
        return [
            _item(
                "dedekind_sum_fast", arith, (p, q),
                lambda out: dedekind_ok(p, q, out) and reciprocity_ok(p, q, out, dedekind_sum_fast(q, p)),
            )
        ]

    def _pretzel_row(self, _k) -> list[Item]:
        """One row of ``pretzel_sweep.py --skip-oracle``."""
        a, b, s0 = self.pretzel_inputs()

        def check(out) -> bool:
            ev = dict(out.evidence)
            return pretzel_ok(a, b, ev["a2_unknot_component"], ev["a2_knot_component"], ev["a3_whole_link"]) and (
                candidates_ok(0, ev["a2_knot_component"], ev["a3_whole_link"], s0, out.candidates, out.verdict)
            )

        return [_item("pretzel_analysis", obstructions, (a, b, s0), check)]

    def _quadratic(self, k) -> list[Item]:
        inv, s0 = self.quadratic_inputs(with_root=k == 0)
        return [
            _item(
                "purely_cosmetic_quadratic", obstructions, (inv, s0),
                lambda out: candidates_ok(inv.a2_x, inv.a2_y, inv.a3, s0, out.candidates, out.verdict),
            )
        ]

    def _chirally(self, k) -> list[Item]:
        a2, p0 = self.chirally_inputs(silent=k == 0)
        return [
            _item(
                "chirally_cosmetic_obstruction", obstructions, (a2, p0),
                lambda out: chirally_ok(a2, p0, out.verdict, dict(out.evidence)),
            )
        ]

    def _thm4(self, k) -> list[Item]:
        a2, q0, a3 = self.thm4_inputs(silent=k == 0)
        return [
            _item(
                "purely_cosmetic_obstruction_thm4", obstructions, (a2, q0, a3),
                lambda out: thm4_ok(a2, q0, a3, out.verdict, dict(out.evidence)),
            )
        ]

    def self_test(self) -> list[str]:
        inv, sx, sy = LinkSurgeryInvariants(3, -2, 17, 2), Slope(7, 3), Slope(-5, 4)
        out = casson_walker_link_surgery(inv, sx, sy)
        swapped = casson_walker_link_surgery(LinkSurgeryInvariants(-2, 3, 17, 2), sy, sx).lambda_w
        mirrored = casson_walker_link_surgery(LinkSurgeryInvariants(3, -2, -17, -2), Slope(-7, 3), Slope(5, 4)).lambda_w
        lens = casson_walker_link_surgery(LinkSurgeryInvariants(0, 0, 0, 0), Slope(11, 3), Slope(1, 1)).lambda_w
        knot = casson_walker.casson_boyer_lines(Fraction(1, 3), 4, Slope(-7, 5))
        link = casson_walker_link_surgery(LinkSurgeryInvariants(2, 0, 0, 0), Slope(-7, 5), Slope(1, 1)).lambda_w
        big_p, big_q = 987_654_321, 123_456_791
        s_pq, s_qp = dedekind_sum_fast(big_p, big_q), dedekind_sum_fast(big_q, big_p)
        quad = obstructions.purely_cosmetic_quadratic(LinkSurgeryInvariants(0, 0, 0, 0), Slope(1, 1))
        pretzel = dict(obstructions.pretzel_analysis(2, -3, Slope(-1, 2)).evidence)
        chir = obstructions.chirally_cosmetic_obstruction(1, 6)
        thm4 = obstructions.purely_cosmetic_obstruction_thm4(6, 3, 2)
        return (
            probe("dedekind sum", dedekind_ok, (big_p, big_q, s_pq), 2)
            + probe("dedekind reciprocity", reciprocity_ok, (big_p, big_q, s_pq, s_qp), 3)
            + probe("surgery formula", surgery_ok, (inv, sx, sy, out.lambda_w, out.D, out.sigma, out.lambda_), 3)
            + probe("swap symmetry", swap_ok, (out.lambda_w, swapped), 1)
            + probe("mirror antisymmetry", mirror_ok, (out.lambda_w, mirrored), 1)
            + probe("lens space", lens_ok, (11, 3, lens), 2)
            + probe("knot formula", knot_ok, (Fraction(1, 3), 4, Slope(-7, 5), knot), 3)
            + probe("split unknot", split_unknot_ok, (Fraction(1, 3), knot, link), 2)
            + probe("candidates", candidates_ok, (0, 0, 0, Slope(1, 1), quad.candidates, quad.verdict), 4)
            + probe(
                "pretzel a3", pretzel_ok,
                (2, -3, pretzel["a2_unknot_component"], pretzel["a2_knot_component"], pretzel["a3_whole_link"]), 4,
            )
            + probe("chirally", chirally_ok, (1, 6, chir.verdict, dict(chir.evidence)), 3)
            + probe("thm4", thm4_ok, (6, 3, 2, thm4.verdict, dict(thm4.evidence)), 4)
        )


class SkeinInvariants(Workload):
    """The skein oracle: braid closures, then the pretzel and torus catalogue."""

    name = "skein_invariants"
    STRANDS = (3, 4)
    LENGTHS = (8, 9, 10, 11)
    PRETZELS = ((1, 1), (1, -1), (2, 1), (2, -1), (1, 2), (1, -2), (3, 1), (3, -1))
    TORUS = (3, 5, 7, 9, 11, 13, 15)

    def round(self, index: int) -> list[Item]:
        items = [self._braid(s, n) for s in self.STRANDS for n in self.LENGTHS]
        if index == 0:
            # the catalogue has few members, so it runs once, in the first timed round
            items += [self._torus(n) for n in self.TORUS] + [self._pretzel(a, b) for a, b in self.PRETZELS]
        self.rng.shuffle(items)
        return items

    def _braid(self, strands: int, length: int) -> Item:
        word = self.braid_word(strands, length)
        d = self.build(braid_closure, word, strands)
        return _item("conway_polynomial", links, (d,), lambda out: burau_ok(word, strands, out.coefficients))

    def _torus(self, n: int) -> Item:
        return _item("conway_polynomial", links, (self.build(torus2_diagram, n),), lambda out: conway_ok((n,), out.coefficients))

    def _pretzel(self, a: int, b: int) -> Item:
        d = self.build(parse_pd, self.build(format_pd, self.build(pretzel_diagram, a, b)))  # as read from a PD file
        return _item(
            "invariants_from_diagram", links, (d,),
            lambda out: out.lk == 0 and pretzel_ok(a, b, out.a2_x, out.a2_y, out.a3),
        )

    def self_test(self) -> list[str]:
        word = [1, -2, 1, 1, -2, 3]
        poly = links.conway_polynomial(braid_closure(word, 4)).coefficients
        torus = links.conway_polynomial(torus2_diagram(7)).coefficients
        inv = links.invariants_from_diagram(pretzel_diagram(1, -1))
        return (
            probe("burau", burau_ok, (word, 4, poly), 2)
            + probe("torus conway", conway_ok, ((7,), torus), 1)
            + probe("pretzel a3", pretzel_ok, (1, -1, inv.a2_x, inv.a2_y, inv.a3), 4)
        )


def _egcd(a: int, b: int) -> tuple[int, int]:
    """(x, y) with a x + b y = gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    return x0, y0


def _torus_block(ns: tuple[int, ...]) -> list[list[int]]:
    """Block sum of the banded (2, n) torus Seifert matrices (-1 diagonal, +1 above)."""
    size = sum(n - 1 for n in ns)
    m = [[0] * size for _ in range(size)]
    at = 0
    for n in ns:
        for i in range(n - 1):
            m[at + i][at + i] = -1
            if i + 1 < n - 1:
                m[at + i][at + i + 1] = 1
        at += n - 1
    return m


def _congruence(p: list[list[int]], s: list[list[int]]) -> list[list[int]]:
    """P S P^T."""
    n = len(s)
    ps = [[sum(p[i][k] * s[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(ps[i][k] * p[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def _matrix_text(m: list[list[int]]) -> str:
    return f"{len(m)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in m)


class SeifertTau(Workload):
    """Scrambled torus-knot Seifert matrices through Conway, Delta'' and tau.

    Each round also carries one wide-entry matrix whose tau is counted as a
    failed operation while levine_tristram_signature drops a small nonzero
    eigenvalue as zero on it.  Those matrices depend on the round index only,
    never on the seed, and their entries (about 10^6) are wide enough that
    every one of them meets the fault.
    """

    name = "seifert_tau"
    # the trefoil alone has too few small congruent matrices to stay distinct
    # over a long run; it appears in the sums and as the wide-entry matrix
    SINGLES = ((5,), (7,), (9,))
    SUMS = ((3, 5), (3, 7), (5, 5))
    MAX_ENTRY = 100

    def round(self, index: int) -> list[Item]:
        items = []
        for ns in self.SINGLES + self.SUMS:
            items += self._matrix_items(ns, self._scrambled(ns), self._slope())
        items += self._wide_items(index)
        self.rng.shuffle(items)
        return items

    def _slope(self) -> Slope:
        p = self.rng.choice((5, 6, 7))
        while True:
            q = self.rng.randint(1, 40)
            if math.gcd(p, q) == 1:
                return self.build(Slope, p, q)

    def _scrambled(self, ns: tuple[int, ...]) -> list[list[int]]:
        """P S P^T for a random unimodular P, with entries kept small enough
        (at most MAX_ENTRY) that the signature route stays well conditioned."""
        base = _torus_block(ns)
        size = len(base)
        while True:
            p = [[int(i == j) for j in range(size)] for i in range(size)]
            for _ in range(self.rng.randint(size, 2 * size)):
                i, j = self.rng.sample(range(size), 2)
                c = self.rng.choice((1, -1, 2, -2))
                p[i] = [x + c * y for x, y in zip(p[i], p[j])]
            m = _congruence(p, base)
            if max(abs(x) for row in m for x in row) <= self.MAX_ENTRY and self.fresh(("seifert", str(m))):
                return m

    def _matrix_items(self, ns, m, slope: Slope, known_fault: bool = False) -> list[Item]:
        s = self.build(parse_seifert_matrix, _matrix_text(m))
        return [
            _item("conway_from_seifert", seifert, (s,), lambda out: conway_ok(ns, out.coefficients)),
            _item("alexander_second_derivative", seifert, (s,), lambda out: second_derivative_ok(ns, out)),
            Item(
                "casson_gordon_tau", (seifert, "casson_gordon_tau", (s, slope)),
                lambda out: tau_ok(ns, slope.p, slope.q, out), known_fault,
            ),
        ]

    def _wide_items(self, index: int) -> list[Item]:
        rng = random.Random(f"perfbench:wide:{index}")
        while True:
            a = rng.randint(1000, 2000)
            b = rng.randint(500, a - 1)
            if math.gcd(a, b) != 1:
                continue
            x, y = _egcd(a, b)
            m = _congruence([[a, b], [-y, x]], _torus_block((3,)))
            if self.fresh(("seifert", str(m))):
                return self._matrix_items((3,), m, self.build(Slope, 5, 1 + index % 4), known_fault=True)

    def self_test(self) -> list[str]:
        p = [[int(i == j) for j in range(6)] for i in range(6)]
        p[0][1], p[2][4], p[5][3] = 1, -2, 1  # unimodular: triangular after a reordering
        m = _congruence(p, _torus_block((3, 5)))
        s = parse_seifert_matrix(_matrix_text(m))
        ns = (3, 5)
        poly = seifert.conway_from_seifert(s).coefficients
        d2 = seifert.alexander_second_derivative(s)
        value = seifert.casson_gordon_tau(s, Slope(7, 2))
        return (
            probe("connected-sum conway", conway_ok, (ns, poly), 1)
            + probe("second derivative", second_derivative_ok, (ns, d2), 1)
            + probe("torus signatures", tau_ok, (ns, 7, 2, value), 3)
        )


class CliCalls(Workload):
    """One fresh ``python -m cosmo.cli`` process per item, one at a time."""

    name = "cli_calls"
    PROBE = Path(__file__).resolve().parent / "cli_probe.py"

    def __init__(self, seed: int) -> None:
        import cosmo.cli

        self.cli = cosmo.cli
        self.env = dict(os.environ)  # the environment run.py gave the worker
        self.traced = False  # set for the timed phase of a traced run
        self.child_traces: list[dict] = []
        super().__init__(seed)

    def round(self, index: int) -> list[Item]:
        items = [
            self._dedekind(),
            self._lambda(),
            self._tau(),
            self._pretzel(),
            self._purely_bl(),
            self._purely_thm4(),
            self._purely_quadratic(),
            self._chirally_ihs(),
            self._chirally_family(),
            self._conway(),
        ]
        for item in items:
            self.build(self.cli.parse_args, item.call)  # the program's own parser validates every input
        self.rng.shuffle(items)
        return items

    def execute(self, item: Item) -> tuple[object, int]:
        if self.traced:
            cmd = [sys.executable, str(self.PROBE), *item.call]
        else:
            cmd = [sys.executable, "-m", "cosmo.cli", *item.call]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        try:
            out = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.SubprocessError) as exc:
            out = exc
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        if isinstance(out, subprocess.CompletedProcess):
            if self.traced:
                lines = out.stderr.splitlines()
                if lines and lines[-1].startswith("PERFBENCH-TRACE "):
                    self.child_traces.append(json.loads(lines[-1][len("PERFBENCH-TRACE "):]))
            if out.returncode != 0:
                out = RuntimeError(f"exit {out.returncode}: {out.stderr.strip()[:200]}")
        return out, round(cpu * 1e9)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def slowdown(self, round_ns: int) -> float:
        return child_slowdown(2)

    @staticmethod
    def _json(check):
        return lambda out: check(json.loads(out.stdout))

    def _cli(self, argv: list[str], check) -> Item:
        return Item(argv[0], [*argv, "--format", "json"], self._json(check))

    def _dedekind(self) -> Item:
        p, q = self.coprime_pair(10**9)
        p = self.rng.choice((1, -1)) * p
        return self._cli(
            ["dedekind", "--p", str(p), "--q", str(q)],
            lambda doc: dedekind_ok(p, q, Fraction(doc["sum"])) and Fraction(doc["symbol"]) == 12 * R.dedekind(p, q),
        )

    def _lambda(self) -> Item:
        inv, sx, sy = self.surgery_inputs()
        argv = ["lambda", "--lk", str(inv.lk), "--a2x", str(inv.a2_x), "--a2y", str(inv.a2_y), "--a3", str(inv.a3)]
        argv += ["--sx", str(sx), "--sy", str(sy)]
        return self._cli(
            argv,
            lambda doc: surgery_ok(
                inv, sx, sy, Fraction(doc["lambda_w"]), Fraction(doc["D"]), doc["sigma"], Fraction(doc["lambda"])
            ),
        )

    def _tau(self) -> Item:
        while True:
            # small n and p: a call costs about as much as the other subcommands
            n, p, q = self.rng.choice((3, 5, 7)), self.rng.randint(2, 7), self.rng.randint(1, 400)
            if math.gcd(p, q) == 1 and self.fresh(("tau", n, p, q)):
                break
        return self._cli(
            ["tau", "--torus2", str(n), "--slope", f"{p}/{q}"],
            lambda doc: tau_ok((n,), p, q, Fraction(doc["tau"])),
        )

    def _pretzel(self) -> Item:
        a, b, s0 = self.pretzel_inputs()

        def check(doc) -> bool:
            ev = {k: Fraction(v) for k, v in doc["evidence"].items()}
            return pretzel_ok(a, b, ev["a2_unknot_component"], ev["a2_knot_component"], ev["a3_whole_link"]) and (
                candidates_ok(0, int(ev["a2_knot_component"]), int(ev["a3_whole_link"]), s0, doc["candidates"], doc["verdict"])
            )

        return self._cli(["pretzel", "--a", str(a), "--b", str(b), "--slope", str(s0)], check)

    def _purely_bl(self) -> Item:
        while True:
            delta2 = self.rng.randint(-1000, 1000)
            if self.fresh(("bl", delta2)):
                break
        return self._cli(
            ["obstruct-purely", "--delta2", str(delta2)], lambda doc: nonzero_ok(Fraction(delta2), doc["verdict"])
        )

    def _purely_thm4(self) -> Item:
        a2, q0, a3 = self.thm4_inputs(silent=self.rng.random() < 0.5)
        return self._cli(
            ["obstruct-purely", "--a2", str(a2), "--q0", str(q0), "--a3", str(a3)],
            lambda doc: thm4_ok(a2, q0, a3, doc["verdict"], {k: int(v) for k, v in doc["evidence"].items()}),
        )

    def _purely_quadratic(self) -> Item:
        inv, s0 = self.quadratic_inputs(with_root=self.rng.random() < 0.5)
        argv = ["obstruct-purely", "--a2x", str(inv.a2_x), "--a2y", str(inv.a2_y), "--a3", str(inv.a3), "--s0", str(s0)]
        return self._cli(
            argv, lambda doc: candidates_ok(inv.a2_x, inv.a2_y, inv.a3, s0, doc["candidates"], doc["verdict"])
        )

    def _chirally_ihs(self) -> Item:
        while True:
            value = Fraction(self.rng.randint(-100, 100), self.rng.randint(1, 100))
            if self.fresh(("ihs", value)):
                break
        return self._cli(
            ["obstruct-chirally", "--lambda-w", f"{value.numerator}/{value.denominator}"],
            lambda doc: nonzero_ok(value, doc["verdict"]),
        )

    def _chirally_family(self) -> Item:
        a2, p0 = self.chirally_inputs(silent=self.rng.random() < 0.5)
        return self._cli(
            ["obstruct-chirally", "--a2", str(a2), "--p0", str(p0)],
            lambda doc: chirally_ok(a2, p0, doc["verdict"], {k: Fraction(v) for k, v in doc["evidence"].items()}),
        )

    def _conway(self) -> Item:
        word = self.braid_word(3, self.rng.randint(4, 6))
        return self._cli(
            ["conway", "--braid=" + ",".join(map(str, word)), "--strands", "3"],
            lambda doc: burau_ok(word, 3, {int(e): c for e, c in doc["coefficients"].items()}),
        )

    def self_test(self) -> list[str]:
        argv = ["dedekind", "--p", "-987654321", "--q", "123456791", "--format", "json"]
        doc = json.loads(subprocess.run(
            [sys.executable, "-m", "cosmo.cli", *argv], env=self.env, capture_output=True, text=True, timeout=60
        ).stdout)
        return probe("cli dedekind", dedekind_ok, (-987654321, 123456791, Fraction(doc["sum"])), 2)


def make(name: str, seed: int) -> Workload:
    for cls in (SurgerySweep, SkeinInvariants, SeifertTau, CliCalls):
        if cls.name == name:
            return cls(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = (SurgerySweep.name, SkeinInvariants.name, SeifertTau.name, CliCalls.name)
