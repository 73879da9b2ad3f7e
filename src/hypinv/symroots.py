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
P_i = prod_{r != i,j} X_ir, ``symroot_pow`` builds the one ``Fraction``
l_ijk**(2g) = X_ik**(2g) P_j / (X_jk**(2g) P_i).  The p-adic functions read
the table V_rs = val(a_r - a_s), its row sums S_r = sum_{s != r} V_rs and
the integer matrix C_rk = 2g V_rk - S_r, built once per (configuration,
prime) by ``_valuations``, which checks p and finiteness only to build them
or for a p whose type is not ``int``.  As val X_rs = V_rs + val d_r + val d_s
and exactly 2g roots lie outside {i, j}, the val d terms cancel from
2g (val X_ik - val X_jk) + val P_j - val P_i, leaving

    2g val(l_ijk) = 2g (V_ik - V_jk) + S_j - S_i = C_ik - C_jk,

and ``pairing_cross_ratio`` is (V_ik + V_jr - V_jk - V_ir) / 2.
``symroot_val`` is one frame: it reads the kept C of an ``int`` prime,
passes a valid triple by one chained comparison (``_check_triple`` runs
only when that fails), subtracts two entries of C and sets the two slots
of the reduced result over 2g itself, as ``rational._fraction`` does.
The symmetric discriminant has the closed form

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
from fractions import Fraction
from math import gcd

from .rational import INF, _fraction, _Frozen, _set, mobius, require_genus
from .rational import require_odd_prime, valuation_table


class RootConfig(_Frozen):
    """Genus plus the 2g+2 pairwise-distinct branch points, each an ``int``,
    a ``Fraction`` or ``INF`` (at most one); a float or a bool is refused.

    Frozen: ``==`` and ``hash`` read ``genus`` and ``roots`` only, not
    ``note``, ``all_finite`` or the tables.
    """

    _fields = ("genus", "roots")

    def __init__(self, genus, roots, note=""):
        require_genus(genus)
        roots = tuple(roots)
        if len(roots) != 2 * genus + 2:
            raise ValueError(
                f"expected {2 * genus + 2} roots for genus {genus}, got {len(roots)}"
            )
        for r in roots:
            if r is not INF and (type(r) is bool or not isinstance(r, (int, Fraction))):
                raise ValueError(f"root {r!r} is not an int, a Fraction or INF")
        if sum(1 for r in roots if r is INF) > 1:
            raise ValueError("at most one root may be infinity")
        finite = [r for r in roots if r is not INF]
        if len(set(finite)) != len(finite):
            raise ValueError("roots must be pairwise distinct")
        super().__init__(genus, roots)
        _set(self, "note", note)
        _set(self, "all_finite", len(finite) == len(roots))
        #: prime -> (V, S, C), filled by ``_valuations``; the roots never change.
        _set(self, "_tables", {})

    def __repr__(self):
        return (
            f"RootConfig(genus={self.genus!r}, roots={self.roots!r}, "
            f"note={self.note!r})"
        )


def _require_finite(cfg):
    if not cfg.all_finite:
        raise ValueError("roots must be finite; apply normalize_finite first")


def _valuations(cfg, p):
    """(V, S, C) at the odd prime p: V = valuation_table(cfg.roots, p),
    S[r] = sum_{s != r} V[r][s] and C[r][k] = 2g V[r][k] - S[r], so that
    2g val(l_ijk) = C[i][k] - C[j][k].

    An ``int`` p whose table ``cfg`` already keeps gets it unchecked: a table
    is stored only for a p that passed ``require_odd_prime`` and a finite
    configuration, and the roots never change.  Any other p is checked, then
    the table is built and kept; ``type(p) is int`` matters because ``3.0``
    and ``Fraction(3)`` hash like 3 and would find its table.
    """
    if type(p) is int and (tables := cfg._tables.get(p)):
        return tables
    require_odd_prime(p)
    _require_finite(cfg)
    tables = cfg._tables.get(p)
    if tables is None:
        vals = valuation_table(cfg.roots, p)
        sums = [sum(row[:r]) + sum(row[r + 1 :]) for r, row in enumerate(vals)]
        g2 = 2 * cfg.genus
        twice_g = [[g2 * v - s for v in row] for row, s in zip(vals, sums)]
        tables = cfg._tables[p] = (vals, sums, twice_g)
    return tables


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
    finite = set(cfg.roots) - {INF}
    c = Fraction(0)
    while c in finite:
        c += 1
    roots = tuple(mobius(r, 0, 1, 1, -c) for r in cfg.roots)
    return RootConfig(cfg.genus, roots, note=f"applied x -> 1/(x - {c})")


def _pairs(cfg):
    """Each root's (n, d), read once per call: X_rs = n_r d_s - n_s d_r is
    then integer arithmetic with no ``Fraction`` property read."""
    return [x.as_integer_ratio() for x in cfg.roots]


def symroot_pow(cfg, i, j, k):
    """l_ijk**(2g), exactly.

    Equals ((a_i - a_k)/(a_j - a_k))**(2g) * prod_{r != i,j}
    (a_j - a_r)/(a_i - a_r) = X_ik**(2g) P_j / (X_jk**(2g) P_i), built as
    one ``Fraction``.
    """
    _require_finite(cfg)
    _check_triple(cfg, i, j, k)
    pairs = _pairs(cfg)
    (ni, di), (nj, dj), (nk, dk) = pairs[i], pairs[j], pairs[k]
    g2 = 2 * cfg.genus
    prod_i = prod_j = 1  # P_i, P_j
    for r, (n, d) in enumerate(pairs):
        if r != i and r != j:
            prod_i *= ni * d - n * di
            prod_j *= nj * d - n * dj
    return _fraction(
        (ni * dk - nk * di) ** g2 * prod_j, (nj * dk - nk * dj) ** g2 * prod_i
    )


def symroot_val(cfg, p, i, j, k):
    """val(l_ijk) at the odd prime p, an exact (possibly non-integer) rational.

    (C_ik - C_jk) / 2g, read from the configuration's kept matrix C.
    """
    if type(p) is not int or not (tables := cfg._tables.get(p)):
        tables = _valuations(cfg, p)  # the checks, or the table's first build
    twice_g = tables[2]
    n = len(cfg.roots)
    try:  # an invalid triple, or a comparison that raises, gets _check_triple's error
        if not (i != j != k != i and 0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise TypeError
    except TypeError:
        _check_triple(cfg, i, j, k)
    num, den = twice_g[i][k] - twice_g[j][k], 2 * cfg.genus
    c = gcd(num, den)  # den > 0: the _fraction construction, no sign step
    q = object.__new__(Fraction)
    q._numerator, q._denominator = num // c, den // c
    return q


def cross_ratio(cfg, i, j, k, r):
    """The cross-ratio (a_i-a_k)(a_j-a_r) / ((a_j-a_k)(a_i-a_r)), built as
    the one ``Fraction`` X_ik X_jr / (X_jk X_ir): the d's cancel."""
    _require_finite(cfg)
    _check_triple(cfg, i, j, k, r)
    a = cfg.roots
    ni, di = a[i].as_integer_ratio()
    nj, dj = a[j].as_integer_ratio()
    nk, dk = a[k].as_integer_ratio()
    nr, dr = a[r].as_integer_ratio()
    num = (ni * dk - nk * di) * (nj * dr - nr * dj)
    return _fraction(num, (nj * dk - nk * dj) * (ni * dr - nr * di))


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
    pairs = _pairs(cfg)
    (ni, di), (nj, dj) = pairs[i], pairs[j]
    g2 = 2 * cfg.genus
    others = [x for r, x in enumerate(pairs) if r != i and r != j]
    delta = 1
    for (nx, dx), (ny, dy) in itertools.combinations(others, 2):
        delta *= nx * dy - ny * dx
    den = 1
    for n, d in others:
        den *= (ni * d - n * di) * (nj * d - n * dj)
    num = (-1) ** cfg.genus * (ni * dj - nj * di) ** (g2 * (g2 - 1)) * delta**2
    return _fraction(num, den ** (g2 - 1))


def pairing_difference(cfg, p, i, j, k):
    """(w_i - w_j, w_k) in nu units: val(l_ijk) / 2, that is (C_ik - C_jk) / 4g.

    Exact rational; multiply by log p externally for the real value.
    Semistability of the underlying curve is the caller's responsibility.
    """
    twice_g = _valuations(cfg, p)[2]
    _check_triple(cfg, i, j, k)
    return _fraction(twice_g[i][k] - twice_g[j][k], 4 * cfg.genus)


def pairing_cross_ratio(cfg, p, i, j, k, r):
    """(w_i - w_j, w_k - w_r) in nu units: val of the cross-ratio over 2.

    Always equals pairing_difference(i,j,k) - pairing_difference(i,j,r).
    The cross-ratio is X_ik X_jr / (X_jk X_ir) and the denominators cancel,
    so this is (V_ik + V_jr - V_jk - V_ir) / 2.
    """
    vals = _valuations(cfg, p)[0]
    _check_triple(cfg, i, j, k, r)
    return _fraction(vals[i][k] + vals[j][r] - vals[j][k] - vals[i][r], 2)
