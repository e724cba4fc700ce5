import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotatlas import Interval, parse_rational
from reference import contains, intersect, make_interval, parse_interval, point

rationals = st.builds(F, st.integers(-60, 60), st.integers(1, 12))


@st.composite
def intervals(draw):
    lo, hi = sorted((draw(rationals), draw(rationals)))
    if lo == hi:
        return point(lo)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


def probes_for(*ivals):
    pts = set()
    for iv in ivals:
        pts.update((iv.lo, iv.hi, iv.midpoint()))
    for p in sorted(pts):
        pts.add(p - F(1, 97))
        pts.add(p + F(1, 97))
    return pts


def test_intersect_containment():
    got = intersect(parse_interval("[-2,2)"), parse_interval("[-1,0]"))
    assert got == parse_interval("[-1,0]")


def test_intersect_touching_open_closed_is_empty():
    assert intersect(parse_interval("(-1,-1/2)"), parse_interval("[-1/2,0)")) is None


def test_intersect_overlap_endpoints():
    got = intersect(parse_interval("[-3/2,-1)"), parse_interval("(-4/3,2)"))
    assert got == parse_interval("(-4/3,-1)")


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(F(1), F(0), True, True)
    with pytest.raises(ValueError):
        Interval(F(1), F(1), True, False)
    assert point(F(1)).is_singleton
    ival = Interval(-1, 2, True, False)
    assert (type(ival.lo), type(ival.hi)) == (F, F)
    assert (ival.lo, ival.hi) == (F(-1), F(2))
    assert point(3).lo == F(3) and type(point(3).hi) is F


def test_is_singleton_compares_values_not_objects():
    # equal endpoints held in distinct objects, as parsing builds them
    lo, hi = F(-8, 5), F("-8/5")
    assert lo is not hi and point(F(2)).is_singleton
    assert Interval(lo, hi, True, True).is_singleton
    assert Interval(F(0), F(-0), True, True).is_singleton
    assert not Interval(F(-8, 5), F(-7, 5), True, True).is_singleton
    assert not Interval(F(1, 3), F(2, 3), False, False).is_singleton
    assert not Interval(F(1, 3), F(1, 2), True, False).is_singleton


@given(rationals, rationals)
def test_is_singleton_is_endpoint_equality(a, b):
    lo, hi = sorted((a, b))
    closed = lo == hi
    assert Interval(lo, F(hi.numerator, hi.denominator), closed, closed).is_singleton == closed


def test_make_interval_empty_cases():
    assert make_interval(F(1), True, F(0), True) is None
    assert make_interval(F(1), False, F(1), True) is None
    assert make_interval(F(1), True, F(1), True) == point(F(1))


@pytest.mark.parametrize(
    "text", ["[-1,0]", "[-1,0)", "(-1,0]", "(-1,0)", "[8/5]", "(-2,2)", "[-3/2,-1)"]
)
def test_format_parse_round_trip(text):
    assert str(parse_interval(text)) == text


def test_parse_rational():
    assert parse_rational("-5/3") == F(-5, 3)
    assert parse_rational("4") == F(4)
    with pytest.raises(ValueError):
        parse_rational("one")


def test_parse_interval_rejects_junk():
    for bad in ["", "[1,2", "1,2)", "(8/5)"]:
        with pytest.raises(ValueError):
            parse_interval(bad)


@given(intervals(), intervals())
def test_intersection_is_the_common_membership(a, b):
    got = intersect(a, b)
    for p in probes_for(a, b):
        expected = contains(a, p) and contains(b, p)
        assert (got is not None and contains(got, p)) == expected


@given(intervals(), intervals())
def test_produced_endpoints_stay_canonical(a, b):
    got = intersect(a, b)
    for iv in [got] if got else []:
        for r in (iv.lo, iv.hi):
            assert r.denominator > 0
            assert math.gcd(abs(r.numerator), r.denominator) == 1
