"""entropy._as_float, the weight conversion of the entropy functionals, against float()."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp.entropy import _as_float

SETTINGS = settings(derandomize=True, max_examples=500, deadline=None)


def bits(x):
    assert type(x) is float
    return x.hex()


@SETTINGS
@given(num=st.integers(-(2**200), 2**200), den=st.integers(1, 2**200))
def test_fraction_converts_as_float_does(num, den):
    p = Fraction(num, den)
    assert bits(_as_float(p)) == bits(float(p))


@SETTINGS
@given(p=st.integers(-(2**200), 2**200))
def test_int_converts_as_float_does(p):
    assert bits(_as_float(p)) == bits(float(p))


@SETTINGS
@given(p=st.floats(allow_nan=True, allow_infinity=True))
def test_float_stays_as_it_is(p):
    assert _as_float(p) is p


def test_subnormal_fractions_round_as_float_does():
    for p in (Fraction(-1, 2**1074), Fraction(1, 2**1075), Fraction(3, 2**1076)):
        assert bits(_as_float(p)) == bits(float(p))
