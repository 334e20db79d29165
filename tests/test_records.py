"""The package's result records: construction, repr, equality, immutability."""

import math
import random
from fractions import Fraction

import pytest

from cosmo.arith import LinkSurgeryInvariants, Slope
from cosmo.casson_walker import LinkingMatrix2, SurgeryResult, casson_walker_link_surgery
from cosmo.cli import Command
from cosmo.obstructions import ObstructionReport, pretzel_analysis, purely_cosmetic_quadratic

# (record type, positional arguments, the same as keywords, repr)
RECORDS = [
    (Slope, (-3, 2), {"p": -3, "q": 2}, "Slope(p=-3, q=2)"),
    (
        LinkingMatrix2,
        (Fraction(3, 2), Fraction(1), -2),
        {"xx": Fraction(3, 2), "yy": Fraction(1), "xy": -2},
        "LinkingMatrix2(xx=Fraction(3, 2), yy=Fraction(1, 1), xy=-2)",
    ),
    (
        SurgeryResult,
        (Fraction(-1, 18), Fraction(3), 2, Fraction(-1, 36)),
        {"lambda_w": Fraction(-1, 18), "D": Fraction(3), "sigma": 2, "lambda_": Fraction(-1, 36)},
        "SurgeryResult(lambda_w=Fraction(-1, 18), D=Fraction(3, 1), sigma=2, lambda_=Fraction(-1, 36))",
    ),
    (
        ObstructionReport,
        ("inconclusive", (1, 2), (("discriminant", Fraction(1, 4)),), "only p in {1, 2}"),
        {
            "verdict": "inconclusive",
            "candidates": (1, 2),
            "evidence": (("discriminant", Fraction(1, 4)),),
            "narrative": "only p in {1, 2}",
        },
        "ObstructionReport(verdict='inconclusive', candidates=(1, 2), "
        "evidence=(('discriminant', Fraction(1, 4)),), narrative='only p in {1, 2}')",
    ),
    (Command, ("dedekind", {"p": 1}), {"name": "dedekind", "options": {"p": 1}}, "Command(name='dedekind', options={'p': 1})"),
]
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=IDS)
def test_repr(cls, args, kwargs, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs, text):
    record = cls(*args)
    assert record == cls(**kwargs)
    assert {name: getattr(record, name) for name in kwargs} == kwargs


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=IDS)
def test_equal_records_hash_equal(cls, args, kwargs, text):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and a is not b
    if cls is Command:  # its options are a dict, so it has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=IDS)
def test_fields_are_read_only(cls, args, kwargs, text):
    record = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, args[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*args)


def test_construction_normalizes_and_validates_by_keyword_too():
    assert Slope(p=6, q=-4) == Slope(-3, 2)
    assert LinkingMatrix2(xx=1, yy=Fraction(2, 4), xy=0).xx == Fraction(1)
    with pytest.raises(ValueError, match="infinite slope"):
        Slope(p=1, q=0)
    with pytest.raises(ValueError, match="nonzero determinant"):
        SurgeryResult(lambda_w=Fraction(0), D=Fraction(0), sigma=0, lambda_=Fraction(0))


def test_replace_runs_the_same_checks():
    assert Slope(1, 2)._replace(p=2, q=-4) == Slope(-1, 2)
    with pytest.raises(ValueError, match="infinite slope"):
        Slope(1, 2)._replace(q=0)
    with pytest.raises(ValueError, match="off-diagonal"):
        LinkingMatrix2(1, 1, 0)._replace(xy=Fraction(1, 2))
    with pytest.raises(ValueError, match="must be -2, 0 or 2"):
        SurgeryResult(Fraction(1), Fraction(3), 2, Fraction(1, 2))._replace(sigma=1)
    with pytest.raises(ValueError, match="verdict and candidate set disagree"):
        ObstructionReport("inconclusive", (1,), (), "")._replace(verdict="obstructed")


def test_records_are_tuples_of_their_fields():
    s = Slope(-3, 2)
    p, q = s
    assert (p, q) == (-3, 2)
    assert s == (-3, 2)
    # tuples order lexicographically, not by value: compare .fraction for that
    assert Slope(1, 2) < Slope(1, 3)
    assert Slope(1, 2).fraction > Slope(1, 3).fraction


# The package's own formulas build these records without the constructor's
# checks, since every field holds by construction.  Rebuilding each result
# through the public constructor runs those checks on it here instead.


def test_link_surgery_results_pass_the_constructor_checks():
    rng = random.Random(20261021)
    checked = lk_nonzero = negative = 0
    while checked < 2000:
        a2_x, a2_y, a3, lk = rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(-60, 60), rng.randint(-4, 4)
        inv = LinkSurgeryInvariants(a2_x, a2_y, a3, lk)
        sx, sy = (Slope(rng.randint(-2000, 2000), rng.randint(1, 400)) for _ in range(2))
        try:
            r = casson_walker_link_surgery(inv, sx, sy)
        except ValueError:  # a singular framing matrix
            continue
        assert type(r) is SurgeryResult and SurgeryResult(*r) == r, (inv, sx, sy)
        checked += 1
        lk_nonzero += inv.lk != 0
        negative += sx.p < 0 or sy.p < 0
    assert lk_nonzero > 1000 and negative > 1000


def _branch(r: ObstructionReport):
    """Which way the candidate quadratic x^2 - 3x + c went: the reason its
    discriminant gives no integer root, or the number of positive roots."""
    assert type(r) is ObstructionReport and ObstructionReport(*r) == r, r
    disc = dict(r.evidence)["discriminant"]
    if disc.denominator != 1:
        return "fraction"
    if disc < 0:
        return "negative"
    root = math.isqrt(disc.numerator)
    if root * root != disc:
        return "not a square"
    if root % 2 == 0:  # (3 +- root)/2 is not an integer
        return "parity"
    return len(r.candidates)


def test_candidate_reports_pass_the_constructor_checks():
    seen = set()
    rng = random.Random(20261022)
    cases = [(LinkSurgeryInvariants(0, 0, a3, 0), Slope(96 * a3)) for a3 in (1, -1)]  # the double root 3/2
    for _ in range(2000):
        inv = LinkSurgeryInvariants(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-6, 6), 0)
        cases.append((inv, Slope(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 6))))
    for inv, s0 in cases:
        seen.add(("quadratic", _branch(purely_cosmetic_quadratic(inv, s0)), s0.p < 0))
    for a in range(1, 7):
        for b in [*range(-6, 0), *range(1, 7)]:  # (1, -5) at -10 has the candidate 5
            for s0 in (Slope(1), Slope(-1), Slope(2, 3), Slope(-5, 2), Slope(7), Slope(-10)):
                seen.add(("pretzel", _branch(pretzel_analysis(a, b, s0)), s0.p < 0))
    for negative in (False, True):
        for branch in ("fraction", "negative", "not a square", "parity", 1, 2):
            assert ("quadratic", branch, negative) in seen
        for branch in ("fraction", 1):
            assert ("pretzel", branch, negative) in seen
