import itertools
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypinv.rational import (
    INF,
    _fraction,
    format_rat,
    is_prime,
    mobius,
    parse_point,
    parse_rat,
    val,
)
from hypinv.symroots import RootConfig

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


@pytest.mark.parametrize("n", [7.0, Fraction(7), True, "7", Decimal(7)])
def test_is_prime_refuses_what_is_not_an_int(n):
    with pytest.raises(ValueError, match="primality test argument is not an integer"):
        is_prime(n)


def test_val_examples():
    assert val(Fraction(18), 3) == val(18, 3) == 2
    assert val(Fraction(1, 9), 3) == -2
    assert val(Fraction(10, 3), 5) == 1
    assert val(Fraction(0), 3) == math.inf


def test_val_rejects_nonprime():
    with pytest.raises(ValueError):
        val(Fraction(1), 4)


@pytest.mark.parametrize("q", [0.1, "1/9", True], ids=repr)
# one call; its "val" id keeps the ids these cases had beside log_abs
@pytest.mark.parametrize("call", [val], ids=["val"])
def test_val_and_log_abs_refuse_what_is_not_rational(call, q):
    # val(0.1, 5) was once 0 (1/10 has 5-adic order -1), val("1/9", 3) was
    # -2 and True was read as 1
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        call(q, 5)


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
    "q, text",
    [(0, "0"), (-7, "-7"), (Fraction(6, 3), "2"), (Fraction(-3, 4), "-3/4"),
     (Fraction(2**300 + 1, 3), f"{2**300 + 1}/3")],
)
def test_format_rat_writes_ints_and_fractions(q, text):
    assert format_rat(q) == text


@pytest.mark.parametrize("q", [0.1, 0.5, 2.0, True, "1/2", Decimal("0.5"), None, INF], ids=repr)
def test_format_rat_refuses_what_is_not_exact(q):
    # a float was once coerced: format_rat(0.1) gave
    # "3602879701896397/36028797018963968"
    with pytest.raises(ValueError, match="value to format is not an int or a Fraction"):
        format_rat(q)


_BIG = st.integers(min_value=-(2**400), max_value=2**400)
#: small and 300+ bit integers of either sign, zero among them
_INTS = st.one_of(st.integers(-50, 50), _BIG, _BIG.map(lambda n: n * 2**300 + 1))


@settings(max_examples=500, deadline=None, database=None)
@given(_INTS, _INTS.filter(bool), st.integers(0, 2**310))
def test_fraction_equals_the_stdlib_constructor(n, d, k):
    # the same Fraction, field by field; a common factor k + 1 (up to 310
    # bits) must be reduced away, and zero and both signs must be normalised
    for num, den in ((n, d), (n * (k + 1), d * (k + 1)), (0, d), (-n, -d)):
        got, want = _fraction(num, den), Fraction(num, den)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got.denominator > 0
        assert got == want and hash(got) == hash(want)
        assert repr(got) == repr(want) and format_rat(got) == format_rat(want)


@pytest.mark.parametrize("n", [0, 1, -7, 2**300 + 1])
def test_fraction_refuses_a_zero_denominator(n):
    with pytest.raises(ZeroDivisionError):
        _fraction(n, 0)


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
    # the docs/schemas pattern -?[0-9]+(/[0-9]*[1-9][0-9]*)?: a nonzero denominator
    with pytest.raises(ValueError):
        parse_rat(text)


def test_parse_point():
    assert parse_point("inf") is INF
    assert parse_point("-3/4") == Fraction(-3, 4)


@pytest.mark.parametrize("text", ["INF", "Inf", " inf", "inf ", " 1 ", "1 ", "-inf", "0.5"])
def test_parse_point_accepts_only_the_schema_pattern(text):
    # docs/schemas/curve.schema.json: ^(-?[0-9]+(/[0-9]*[1-9][0-9]*)?|inf)$
    with pytest.raises(ValueError):
        parse_point(text)


def test_mobius():
    assert mobius(Fraction(1), 1, 1, 0, 1) == 2
    assert mobius(INF, 2, 1, 1, 0) == 2  # x -> (2x+1)/x
    assert mobius(INF, 1, 0, 0, 1) is INF
    assert mobius(Fraction(1), 1, 0, 1, -1) is INF  # pole
    with pytest.raises(ValueError):
        mobius(Fraction(1), 1, 2, 2, 4)


@pytest.mark.parametrize(
    "args, message",
    [
        # each was once read as the Fraction 1/2, 1/3 or 1
        ((0.5, 1, 0, 0, 1), "point is not an int or a Fraction: 0.5"),
        (("1/3", 1, 0, 0, 1), "point is not an int or a Fraction: '1/3'"),
        ((True, 1, 0, 0, 1), "point is not an int or a Fraction: True"),
        ((1, "1/2", 0, 0, 1), "coefficient is not an integer: '1/2'"),
        ((1, 1, 0.5, 0, 1), "coefficient is not an integer: 0.5"),
        ((1, 1, 0, 0, True), "coefficient is not an integer: True"),
        ((INF, Fraction(1), 0, 0, 1), "coefficient is not an integer: Fraction(1, 1)"),
    ],
    ids=repr,
)
def test_mobius_refuses_a_value_that_is_not_exact(args, message):
    with pytest.raises(ValueError) as err:
        mobius(*args)
    assert str(err.value) == message


def mobius_oracle(x, a, b, c, d):
    """``mobius`` as it was before it went fraction-free: Fraction arithmetic
    on the coefficients, kept as the oracle of the integer formula."""
    a, b, c, d = (Fraction(t) for t in (a, b, c, d))
    if a * d - b * c == 0:
        raise ValueError("degenerate fractional-linear map")
    if x is INF:
        return INF if c == 0 else a / c
    x = Fraction(x)
    den = c * x + d
    if den == 0:
        return INF
    return (a * x + b) / den


_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
# small integer coefficients make a*d = b*c common
_coeffs = st.integers(-5, 5)


@st.composite
def _maps_and_points(draw):
    a, b, c, d = (draw(_coeffs) for _ in range(4))
    if draw(st.booleans()):  # degenerate: n (c, d) = m (a, b)
        m, n = draw(st.integers(-3, 3)), draw(st.integers(1, 4))
        a, b, c, d = n * a, n * b, m * a, m * b
    x = draw(st.one_of(st.just(INF), _rationals, st.integers(-40, 40)))
    if c != 0 and draw(st.booleans()):  # the pole of the map
        x = Fraction(-d, c)
    return x, (a, b, c, d)


@settings(max_examples=400, deadline=None, database=None)
@given(_maps_and_points())
def test_mobius_against_fraction_formula(case):
    x, coeffs = case
    try:
        want = mobius_oracle(x, *coeffs)
    except ValueError:
        with pytest.raises(ValueError, match="degenerate"):
            mobius(x, *coeffs)
        return
    got = mobius(x, *coeffs)
    if want is INF:
        assert got is INF
    else:
        assert type(got) is Fraction and got == want


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(_rationals, min_size=5, max_size=5, unique=True), st.integers(0, 5))
def test_constructor_moves_a_root_at_inf_against_fraction_formula(finite, slot):
    # the constructor moves the root at inf
    roots = finite[:slot] + [INF] + finite[slot:]
    c = next(k for k in itertools.count() if k not in finite)
    moved = RootConfig(2, tuple(roots))
    assert moved.roots == tuple(mobius_oracle(r, 0, 1, 1, -c) for r in roots)
    assert moved.note == f"applied x -> 1/(x - {c})"
