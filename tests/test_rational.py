import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypinv.rational import (
    INF,
    format_point,
    format_rat,
    is_prime,
    log_abs,
    mobius,
    parse_point,
    parse_rat,
    val,
)

PRIMES = (3, 5, 7, 11)


def test_is_prime_small():
    primes_below_60 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    assert {n for n in range(60) if is_prime(n)} == primes_below_60


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)  # Carmichael
    assert not is_prime(1)
    assert not is_prime(-7)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_val_examples():
    assert val(Fraction(18), 3) == 2
    assert val(Fraction(1, 9), 3) == -2
    assert val(Fraction(10, 3), 5) == 1
    assert val(Fraction(0), 3) == math.inf


def test_val_rejects_nonprime():
    with pytest.raises(ValueError):
        val(Fraction(1), 4)


def test_log_abs():
    assert log_abs(Fraction(9), 3) == -2
    with pytest.raises(ValueError):
        log_abs(Fraction(0), 3)


@given(
    st.fractions(min_value=-1000, max_value=1000),
    st.fractions(min_value=-1000, max_value=1000),
    st.sampled_from(PRIMES),
)
def test_ultrametric(a, b, p):
    va, vb, vs = val(a, p), val(b, p), val(a + b, p)
    assert vs >= min(va, vb)
    if va != vb:
        assert vs == min(va, vb)


@given(st.fractions(min_value=-10**6, max_value=10**6))
def test_rat_roundtrip(q):
    assert parse_rat(format_rat(q)) == q


@pytest.mark.parametrize(
    "text, value",
    [("0", 0), ("-0", 0), ("7", 7), ("-3/4", Fraction(-3, 4)), ("006/8", Fraction(3, 4)),
     (Fraction(5, 3), Fraction(5, 3)), (12, 12)],
)
def test_parse_rat_accepts_integer_ratios(text, value):
    assert parse_rat(text) == value


@pytest.mark.parametrize(
    "text",
    ["0.5", "1.1e1", "1e400", "1/0", "-3/00", "", " 1", "1 ", "+1", "1/-2", "1/2/3",
     "1_000", "nan", "inf", "\u0663", "1\n", 0.5],
)
def test_parse_rat_rejects_everything_else(text):
    # the docs/schemas pattern -?[0-9]+(/[0-9]+)? with a nonzero denominator
    with pytest.raises(ValueError):
        parse_rat(text)


def test_parse_point():
    assert parse_point("inf") is INF
    assert parse_point("-3/4") == Fraction(-3, 4)
    assert format_point(INF) == "inf"
    assert format_point(Fraction(5)) == "5"


@pytest.mark.parametrize("text", ["INF", "Inf", " inf", "inf ", " 1 ", "1 ", "-inf", "0.5"])
def test_parse_point_accepts_only_the_schema_pattern(text):
    # docs/schemas/curve.schema.json: ^(-?[0-9]+(/[0-9]+)?|inf)$
    with pytest.raises(ValueError):
        parse_point(text)


def test_mobius():
    assert mobius(Fraction(1), 1, 1, 0, 1) == 2
    assert mobius(INF, 2, 1, 1, 0) == 2  # x -> (2x+1)/x
    assert mobius(INF, 1, 0, 0, 1) is INF
    assert mobius(Fraction(1), 1, 0, 1, -1) is INF  # pole
    with pytest.raises(ValueError):
        mobius(Fraction(1), 1, 2, 2, 4)
