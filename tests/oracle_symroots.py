"""The symmetric-root kernel of ``hypinv`` as it was before the fraction-free
rewrite, kept verbatim as a test oracle.

``symroot_pow`` and ``sym_discriminant`` build one ``Fraction`` per root
difference, ``sym_discriminant`` multiplies over all ordered pairs of the
other roots, ``symroot_val`` and ``pairing_cross_ratio`` take one
``val_diff`` per root, and ``pairing_from_tree`` reads a matrix of
``Fraction`` values (W_r, V_k) built by ``wv_matrix`` from the tree's
valuation table.  The tests compare these with the library on seeded
configurations and require exactly equal results.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypinv.rational import _int_val, require_odd_prime
from hypinv.symroots import _require_finite


def _check_triple(cfg, *indices):
    """The index rule of ``hypinv.symroots._check_triple``, kept apart from
    it: pairwise distinct, then each in range."""
    n = len(cfg.roots)
    if len(set(indices)) != len(indices):
        raise ValueError(f"indices must be pairwise distinct: {indices}")
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"root index out of range: {i}")


def val_diff(x, y, p):
    """val(x - y) for distinct rationals x, y; the caller has checked p.

    Computed as val(n_x d_y - n_y d_x) - val(d_x) - val(d_y), without
    forming the difference as a ``Fraction``.  This was ``rational.val_diff``
    before ``rational.valuation_table`` took its body.
    """
    dx, dy = x.denominator, y.denominator
    n = x.numerator * dy - y.numerator * dx
    v = _int_val(n, p) if n % p == 0 else 0
    if dx % p == 0:
        v -= _int_val(dx, p)
    if dy % p == 0:
        v -= _int_val(dy, p)
    return v


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


def mult_y(tree, node):
    """Multiplicity of y along the component: half the sum of mult_x over r."""
    level = node.level
    total = sum(min(level, v) for v in tree.vals[min(node.members)])
    return Fraction(total, 2)


def v_mult(tree, k, node):
    """Coefficient of the component of ``node`` in the divisor V_k.

    (g-1)*min{n_C, val(a_k - a_C)} - mult_y(C) + n_C - (g - 1/2)*n_k
    + (1/2)*sum_{r != k} val(a_k - a_r).  Vanishes on the component
    carrying the k-th root.
    """
    g = tree.config.genus
    vals_k = tree.vals[k]
    n_c = node.level
    n_k = tree.depth[k]
    m = min(n_c, vals_k[min(node.members)])
    tail = sum(v for r, v in enumerate(vals_k) if r != k)
    return (
        (g - 1) * m
        - mult_y(tree, node)
        + n_c
        - Fraction(2 * g - 1, 2) * n_k
        + Fraction(tail, 2)
    )


def wv_matrix(tree):
    """wv[r][k] = (W_r, V_k) as ``Fraction``s, as ``build_tree`` stored it."""
    n_roots = len(tree.config.roots)
    node_of_root = tree.node_of_root
    rows = {
        node: [v_mult(tree, k, node) for k in range(n_roots)]
        for node in set(node_of_root.values())
    }
    return [rows[node_of_root[r]] for r in range(n_roots)]


def pairing_from_tree(tree, i, j, k):
    """(2g-1)*(W_i - W_j, V_k) + (V_i - V_j, W_k) on an already-built tree.

    (W_r, V_s) is the V_s-multiplicity at the component carrying root r,
    read from ``tree.wv``.
    """
    _check_triple(tree.config, i, j, k)
    g = tree.config.genus
    wv = tree.wv
    w_term = wv[i][k] - wv[j][k]
    v_term = wv[k][i] - wv[k][j]
    return (2 * g - 1) * w_term + v_term
