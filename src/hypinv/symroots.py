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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .rational import INF, is_finite, mobius, require_odd_prime, val_diff


@dataclass(frozen=True)
class RootConfig:
    """Genus plus the 2g+2 pairwise-distinct branch points (at most one inf)."""

    genus: int
    roots: tuple
    note: str = field(default="", compare=False)

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

    @property
    def all_finite(self):
        return all(is_finite(r) for r in self.roots)


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


def symroot_pow(cfg, i, j, k):
    """l_ijk**(2g), exactly.

    Equals ((a_i - a_k)/(a_j - a_k))**(2g) * prod_{r != i,j}
    (a_j - a_r)/(a_i - a_r).
    """
    _require_finite(cfg)
    _check_triple(cfg, i, j, k)
    a = cfg.roots
    g2 = 2 * cfg.genus
    ratio = (a[i] - a[k]) / (a[j] - a[k])
    prod = Fraction(1)
    for r in range(len(a)):
        if r in (i, j):
            continue
        prod *= (a[j] - a[r]) / (a[i] - a[r])
    return ratio**g2 * prod


def symroot_val(cfg, p, i, j, k):
    """val(l_ijk) at the odd prime p, an exact (possibly non-integer) rational.

    O(n) integer valuations per call, read from the roots themselves.
    """
    require_odd_prime(p)
    _require_finite(cfg)
    _check_triple(cfg, i, j, k)
    a = cfg.roots
    g2 = 2 * cfg.genus
    total = val_diff(a[i], a[k], p) - val_diff(a[j], a[k], p)
    s = 0
    for r in range(len(a)):
        if r in (i, j):
            continue
        s += val_diff(a[j], a[r], p) - val_diff(a[i], a[r], p)
    return Fraction(total * g2 + s, g2)


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
    (m_r - m_s); the root-of-unity ambiguity in t cancels.
    """
    _require_finite(cfg)
    _check_triple(cfg, i, j)
    a = cfg.roots
    g2 = 2 * cfg.genus
    others = [r for r in range(len(a)) if r not in (i, j)]
    m = {r: (a[i] - a[r]) / (a[j] - a[r]) for r in others}
    big_p = Fraction(1)
    for r in others:
        big_p *= (a[j] - a[r]) / (a[i] - a[r])
    prod = Fraction(1)
    for r, s in itertools.permutations(others, 2):
        prod *= m[r] - m[s]
    if prod == 0:
        raise ValueError("degenerate configuration")
    return big_p ** (g2 - 1) * prod


def pairing_difference(cfg, p, i, j, k):
    """(w_i - w_j, w_k) in nu units: val(l_ijk) / 2.

    Exact rational; multiply by log p externally for the real value.
    Semistability of the underlying curve is the caller's responsibility.
    """
    return symroot_val(cfg, p, i, j, k) / 2


def pairing_cross_ratio(cfg, p, i, j, k, r):
    """(w_i - w_j, w_k - w_r) in nu units: val of the cross-ratio over 2.

    Always equals pairing_difference(i,j,k) - pairing_difference(i,j,r).
    """
    require_odd_prime(p)
    _require_finite(cfg)
    _check_triple(cfg, i, j, k, r)
    a = cfg.roots
    v = (
        val_diff(a[i], a[k], p)
        - val_diff(a[j], a[k], p)
        + val_diff(a[j], a[r], p)
        - val_diff(a[i], a[r], p)
    )
    return Fraction(v, 2)
