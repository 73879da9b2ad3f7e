"""Exact rationals, primality, p-adic valuations and projective-line values.

Field elements are `fractions.Fraction` throughout (always reduced, positive
denominator).  Valuations are plain Python integers, with ``math.inf``
standing in for the valuation of zero.  All pairing-type quantities are kept
in "nu units", i.e. as rational multiples of the log of the residue size;
scaling by an actual real logarithm happens only at the CLI boundary.

The p-adic order of an integer is found by repeated squaring of p, so a
valuation v costs O(log v) big-integer divisions.  The public ``val`` checks
that p is prime on every call; ``_int_val`` and ``valuation_table`` do not.
``valuation_table`` is the table of pairwise valuations that
``symroots.RootConfig`` keeps, built once per (configuration, prime) after
the prime is checked; every p-adic function reads it.

``_fraction(n, d)`` is the one step where the p-adic layer turns an integer
pair into a result.  For ints it returns the ``Fraction(n, d)`` that the
constructor builds (reduced, positive denominator, the same ``==``, ``hash``
and ``repr``; ``ZeroDivisionError`` when d = 0), but sets the two slots of a
new instance itself, as ``fractions`` does for its arithmetic results,
instead of going through the constructor's type dispatch.

``require_int``, ``require_rational`` and ``require_genus`` are the one
statement of which inputs are exact, and ``_Record`` (with its frozen
``_Frozen``) is the one record base; every layer reads them here.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class _ProjectiveInfinity:
    """The point at infinity on the projective line (singleton ``INF``)."""

    __slots__ = ()

    def __repr__(self):
        return "inf"


INF = _ProjectiveInfinity()

_INTEGER = r"-?[0-9]+"  # ASCII digits only: no "+", "_", spaces or other scripts
#: "n" or "n/d" with d != 0, the pattern of rationals in docs/schemas.
_RATIONAL = rf"({_INTEGER})(?:/([0-9]*[1-9][0-9]*))?"

#: Witness bases making Miller-Rabin deterministic below 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic primality test for integers up to ~3.3e24; ValueError
    for anything but an ``int``, so no float or ``Fraction`` is coerced."""
    if require_int(n, "primality test argument") < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:  # pragma: no cover - desk-scale primes only
        raise ValueError("integer too large for deterministic primality test")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p):
    if isinstance(p, bool) or not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"not a prime: {p!r}")


def require_odd_prime(p):
    require_prime(p)
    if p == 2:
        raise ValueError("characteristic 2 excluded")


def _int_val(n, p):
    """p-adic order of a nonzero integer, by repeated squaring of p."""
    if n % p:
        return 0
    powers = [p]  # powers[i] = p**(2**i), each dividing n
    while n % (sq := powers[-1] * powers[-1]) == 0:
        powers.append(sq)
    v = 0
    for i in range(len(powers) - 1, -1, -1):
        q, rem = divmod(n, powers[i])
        if rem == 0:
            n = q
            v += 1 << i
    return v


def val(q, p):
    """p-adic order of the rational ``q``; ``math.inf`` iff q = 0."""
    require_prime(p)
    q = require_rational(q, "valuation argument")
    if q == 0:
        return math.inf
    return _int_val(q.numerator, p) - _int_val(q.denominator, p)


def valuation_table(roots, p):
    """The matrix V[r][s] = val(a_r - a_s) of pairwise-distinct rationals.

    val(n_r d_s - n_s d_r) - val(d_r) - val(d_s), without forming the
    differences as ``Fraction``s.  The diagonal is ``math.inf``; the caller
    has checked p.
    """
    n = len(roots)
    pairs = [x.as_integer_ratio() for x in roots]  # each root's (n, d), read once
    dvals = [_int_val(d, p) for _, d in pairs]
    table = [[math.inf] * n for _ in range(n)]
    for r, (nr, dr) in enumerate(pairs):
        row = table[r]
        for s in range(r + 1, n):
            ns, ds = pairs[s]
            row[s] = table[s][r] = _int_val(nr * ds - ns * dr, p) - dvals[r] - dvals[s]
    return table


def _fraction(n, d):
    """``Fraction(n, d)`` for ints n and d, without its type dispatch."""
    if d <= 0:
        if d == 0:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        n, d = -n, -d
    g = math.gcd(n, d)
    q = object.__new__(Fraction)
    q._numerator = n // g
    q._denominator = d // g
    return q


def log_abs(q, p):
    """-val(q, p): the log of |q|_p in units of one (caller scales by log p)."""
    q = require_rational(q, "log argument")
    if q == 0:
        raise ValueError("log of zero")
    return -val(q, p)


def parse_rat(s):
    """Parse "n/d" or "n" into a reduced Fraction.

    Exactly ``-?[0-9]+(/[0-9]*[1-9][0-9]*)?``, the pattern of
    ``docs/schemas``; anything else (decimals, exponents, "1/0") raises
    ``ValueError``.
    """
    match = re.fullmatch(_RATIONAL, str(s))
    if not match:
        raise ValueError(f"not a rational 'n' or 'n/d' with d != 0: {s!r}")
    num, den = match.groups()
    return _fraction(int(num), 1 if den is None else int(den))


def parse_int(s):
    """Parse exactly ``-?[0-9]+``; unlike ``int``, no other digits, " ", "+", "_"."""
    if not re.fullmatch(_INTEGER, s):
        raise ValueError(f"not an integer 'n': {s!r}")
    return int(s)


def format_rat(q):
    """Serialize an int or a Fraction as "n/d", or "n" when the denominator
    is 1; ValueError for anything else, so no float is coerced."""
    q = require_rational(q, "value to format")
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_point(s):
    """Parse a projective-line value: exactly "inf" or a ``parse_rat`` string."""
    return INF if s == "inf" else parse_rat(s)


def format_point(x):
    return "inf" if x is INF else format_rat(x)


def require_int(value, what):
    """``value`` if it is an ``int`` and not a ``bool``; ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} is not an integer: {value!r}")
    return value


def require_genus(g):
    """``g`` if it is an ``int``, not a ``bool``, of at least 2; ValueError
    otherwise."""
    if require_int(g, "genus") < 2:
        raise ValueError("genus must be at least 2")
    return g


def require_rational(value, what):
    """``value`` as a ``Fraction`` if it is an ``int`` (not a ``bool``) or a
    ``Fraction``; ValueError otherwise, so no float or string is coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"{what} is not an int or a Fraction: {value!r}")
    return value if type(value) is Fraction else Fraction(value)


def require_keys(doc, keys, what, strings=()):
    """``doc`` if it is a JSON object with no key outside ``keys`` and a
    string under each key of ``strings`` that it has; ValueError otherwise."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} is not an object: {doc!r}")
    if unknown := sorted(set(doc) - set(keys)):
        raise ValueError(f"unknown {what} keys: {unknown}")
    if bad := [doc[k] for k in strings if not isinstance(doc.get(k, ""), str)]:
        raise ValueError(f"{what} fields {list(strings)} must be strings: {bad!r}")
    return doc


_set = object.__setattr__  # how a record sets its fields past a frozen block


class _Record:
    """A value type with its field names in ``_fields``: ``__init__`` takes
    the fields positionally in that order, and ``==`` and ``repr`` read them
    in that order.  Unhashable, as a record may change."""

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._fields)} "
                            f"fields {self._fields}, got {len(values)} values")
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A ``_Record`` that refuses assignment after ``__init__`` and hashes."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values())


def mobius(x, a, b, c, d):
    """Apply the fractional-linear map t -> (a*t + b)/(c*t + d) to ``x``.

    ``x`` may be ``INF``; the result is ``INF`` when the denominator
    vanishes.  The coefficients must have a*d - b*c != 0.  Non-integer
    coefficients are scaled to integers by their common denominator, so
    x = n/q maps to the one ``Fraction`` (a n + b q)/(c n + d q).
    """
    if not (type(a) is int and type(b) is int and type(c) is int and type(d) is int):
        a, b, c, d = (Fraction(t) for t in (a, b, c, d))
        m = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        a, b, c, d = (t.numerator * (m // t.denominator) for t in (a, b, c, d))
    if a * d - b * c == 0:
        raise ValueError("degenerate fractional-linear map")
    if x is INF:
        return INF if c == 0 else _fraction(a, c)
    # Fraction(x) for any other type keeps its conversions and errors
    n, q = (x if type(x) in (Fraction, int) else Fraction(x)).as_integer_ratio()
    den = c * n + d * q
    if den == 0:
        return INF
    return _fraction(a * n + b * q, den)
