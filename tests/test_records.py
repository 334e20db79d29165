"""The package's result records: construction, repr, equality, immutability."""

from fractions import Fraction

import pytest

from cosmo.arith import Slope
from cosmo.casson_walker import LinkingMatrix2, SurgeryResult
from cosmo.cli import Command
from cosmo.obstructions import ObstructionReport

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
