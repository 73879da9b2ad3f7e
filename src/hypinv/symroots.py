"""Symmetric roots of hyperelliptic branch configurations.

A configuration is the genus g together with the 2g+2 branch points of the
double cover of the projective line.  For a triple (i, j, k) of distinct
branch indices the symmetric root l_ijk is only defined up to a 2g-th root of
unity, so the canonical exact datum here is l_ijk**(2g) (a field element)
together with its valuation val(l_ijk) = val(l_ijk**(2g)) / (2g), an exact
rational.  Actual 2g-th roots appear only in the floating cross-check path
used by the tests.

Admissible-pairing values on differences of branch points are returned in nu
units: (w_i - w_j, w_k) = val(l_ijk) / 2.

Every formula is evaluated fraction-free on the roots' numerators n_r and
denominators d_r.  With X_rs = n_r d_s - n_s d_r = d_r d_s (a_r - a_s) and
P_i = prod_{r != i,j} X_ir, the denominators cancel from each quotient:

    l_ijk**(2g) = X_ik**(2g) P_j / (X_jk**(2g) P_i),
    2g val(l_ijk) = 2g (val X_ik - val X_jk) + val P_j - val P_i,

so ``symroot_pow`` builds one ``Fraction`` and ``symroot_val`` takes four
integer valuations, whatever the genus (its products leave out the factors
that are p-adic units); ``pairing_cross_ratio`` is val(X_ik X_jr) -
val(X_jk X_ir) over 2.  The symmetric discriminant has the
closed form

    d_ij = (-1)**g (a_i - a_j)**(2g(2g-1)) Delta_ij**2
           / prod_{r != i,j} ((a_i - a_r)(a_j - a_r))**(2g-1),

with Delta_ij = prod_{r < s; r, s not in {i, j}} (a_r - a_s); it follows from
m_r - m_s = (a_i - a_j)(a_r - a_s) / ((a_j - a_r)(a_j - a_s)) for
m_r = (a_i - a_r)/(a_j - a_r).  In terms of X the denominators cancel here
too: d_ij = (-1)**g X_ij**(2g(2g-1)) prod_{r<s} X_rs**2 / prod_r (X_ir
X_jr)**(2g-1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .rational import INF, _int_val, is_finite, mobius, require_odd_prime


@dataclass(frozen=True)
class RootConfig:
    """Genus plus the 2g+2 pairwise-distinct branch points (at most one inf)."""

    genus: int
    roots: tuple
    note: str = field(default="", compare=False)
    all_finite: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("genus must be at least 2")
        roots = tuple(self.roots)
        object.__setattr__(self, "roots", roots)
        if len(roots) != 2 * self.genus + 2:
            raise ValueError(
                f"expected {2 * self.genus + 2} roots for genus {self.genus}, "
                f"got {len(roots)}"
            )
        if sum(1 for r in roots if r is INF) > 1:
            raise ValueError("at most one root may be infinity")
        finite = [r for r in roots if r is not INF]
        if len(set(finite)) != len(finite):
            raise ValueError("roots must be pairwise distinct")
        object.__setattr__(self, "all_finite", len(finite) == len(roots))


def _require_finite(cfg):
    if not cfg.all_finite:
        raise ValueError("roots must be finite; apply normalize_finite first")


def _check_triple(cfg, *indices):
    n = len(cfg.roots)
    if len(set(indices)) != len(indices):
        raise ValueError(f"indices must be pairwise distinct: {indices}")
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"root index out of range: {i}")


def normalize_finite(cfg):
    """Return an equivalent configuration with all branch points finite.

    If a root sits at infinity, apply x -> 1/(x - c) with a rational c
    avoiding every finite root; the substitution is recorded in the result's
    note.  Already-finite configurations are returned unchanged.
    """
    if cfg.all_finite:
        return cfg
    finite = {r for r in cfg.roots if is_finite(r)}
    c = Fraction(0)
    while c in finite:
        c += 1
    roots = tuple(mobius(r, 0, 1, 1, -c) for r in cfg.roots)
    return RootConfig(cfg.genus, roots, note=f"applied x -> 1/(x - {c})")


def _cross(x, y):
    """X = n_x d_y - n_y d_x, the integer d_x d_y (x - y)."""
    return x.numerator * y.denominator - y.numerator * x.denominator


def _cross_products(a, i, j, p):
    """(P_i, P_j), P_i = prod_{r != i,j} X_ir, over the factors divisible by p.

    p = 1 keeps every factor.  For a prime p the left-out factors are p-adic
    units, so the valuations of the products do not change and the integers
    stay small.
    """
    ni, di = a[i].numerator, a[i].denominator
    nj, dj = a[j].numerator, a[j].denominator
    prod_i = prod_j = 1
    for r, x in enumerate(a):
        if r != i and r != j:
            n, d = x.numerator, x.denominator
            x_i = ni * d - n * di
            if x_i % p == 0:
                prod_i *= x_i
            x_j = nj * d - n * dj
            if x_j % p == 0:
                prod_j *= x_j
    return prod_i, prod_j


def symroot_pow(cfg, i, j, k):
    """l_ijk**(2g), exactly.

    Equals ((a_i - a_k)/(a_j - a_k))**(2g) * prod_{r != i,j}
    (a_j - a_r)/(a_i - a_r) = X_ik**(2g) P_j / (X_jk**(2g) P_i), built as
    one ``Fraction``.
    """
    _require_finite(cfg)
    _check_triple(cfg, i, j, k)
    a = cfg.roots
    g2 = 2 * cfg.genus
    prod_i, prod_j = _cross_products(a, i, j, 1)
    return Fraction(
        _cross(a[i], a[k]) ** g2 * prod_j, _cross(a[j], a[k]) ** g2 * prod_i
    )


def symroot_val(cfg, p, i, j, k):
    """val(l_ijk) at the odd prime p, an exact (possibly non-integer) rational.

    (2g (val X_ik - val X_jk) + val P_j - val P_i) / 2g: two integer
    products of the non-unit factors and four integer valuations per call,
    read from the roots themselves.
    """
    require_odd_prime(p)
    _require_finite(cfg)
    _check_triple(cfg, i, j, k)
    a = cfg.roots
    g2 = 2 * cfg.genus
    prod_i, prod_j = _cross_products(a, i, j, p)
    outer = _int_val(_cross(a[i], a[k]), p) - _int_val(_cross(a[j], a[k]), p)
    return Fraction(g2 * outer + _int_val(prod_j, p) - _int_val(prod_i, p), g2)


def cross_ratio(cfg, i, j, k, r):
    """The cross-ratio (a_i-a_k)(a_j-a_r) / ((a_j-a_k)(a_i-a_r))."""
    _require_finite(cfg)
    _check_triple(cfg, i, j, k, r)
    a = cfg.roots
    return (a[i] - a[k]) / (a[j] - a[k]) * (a[j] - a[r]) / (a[i] - a[r])


def sym_discriminant(cfg, i, j):
    """The symmetric discriminant d_ij, an exact field element.

    With m_r = (a_i - a_r)/(a_j - a_r) and t a 2g-th root of
    P = prod_{r != i,j} (a_j - a_r)/(a_i - a_r), one has l_ijr = m_r * t and
    d_ij = prod_{r != s} (l_ijr - l_ijs) = P**(2g-1) * prod_{r != s}
    (m_r - m_s); the root-of-unity ambiguity in t cancels.  Evaluated in the
    closed form (-1)**g X_ij**(2g(2g-1)) prod_{r<s} X_rs**2 / prod_r (X_ir
    X_jr)**(2g-1) over the other roots r, s, as one ``Fraction``.
    """
    _require_finite(cfg)
    _check_triple(cfg, i, j)
    a = cfg.roots
    g2 = 2 * cfg.genus
    others = [a[r] for r in range(len(a)) if r not in (i, j)]
    delta = 1
    for x, y in itertools.combinations(others, 2):
        delta *= _cross(x, y)
    den = 1
    for x in others:
        den *= _cross(a[i], x) * _cross(a[j], x)
    num = (-1) ** cfg.genus * _cross(a[i], a[j]) ** (g2 * (g2 - 1)) * delta**2
    return Fraction(num, den ** (g2 - 1))


def pairing_difference(cfg, p, i, j, k):
    """(w_i - w_j, w_k) in nu units: val(l_ijk) / 2.

    Exact rational; multiply by log p externally for the real value.
    Semistability of the underlying curve is the caller's responsibility.
    """
    return symroot_val(cfg, p, i, j, k) / 2


def pairing_cross_ratio(cfg, p, i, j, k, r):
    """(w_i - w_j, w_k - w_r) in nu units: val of the cross-ratio over 2.

    Always equals pairing_difference(i,j,k) - pairing_difference(i,j,r).
    The cross-ratio is X_ik X_jr / (X_jk X_ir): the denominators cancel, so
    this is two integer valuations.
    """
    require_odd_prime(p)
    _require_finite(cfg)
    _check_triple(cfg, i, j, k, r)
    a = cfg.roots
    num = _cross(a[i], a[k]) * _cross(a[j], a[r])
    den = _cross(a[j], a[k]) * _cross(a[i], a[r])
    return Fraction(_int_val(num, p) - _int_val(den, p), 2)
