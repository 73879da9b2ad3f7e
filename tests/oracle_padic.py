"""The p-adic layer of ``hypinv`` as it was before the pairwise-valuation
table, kept verbatim as a test oracle.

It runs Miller-Rabin on every valuation, finds p-adic orders by repeated
division, regroups every root at every level of the cluster tree and
caches ``v_mult`` in the tree's ``__dict__``.  Slow, but independent of the
table, so the tests compare the two paths on seeded configurations and
require exactly equal results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from hypinv.clustertree import ClusterNode, NormalFormReport
from hypinv.rational import require_odd_prime, require_prime
from hypinv.symroots import _check_triple, _require_finite, cross_ratio


def _int_val(n, p):
    # p-adic order of a nonzero integer
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val(q, p):
    """p-adic order of the rational ``q``; ``math.inf`` iff q = 0."""
    require_prime(p)
    q = Fraction(q)
    if q == 0:
        return math.inf
    return _int_val(q.numerator, p) - _int_val(q.denominator, p)


def symroot_val(cfg, p, i, j, k):
    """val(l_ijk) at the odd prime p, an exact (possibly non-integer) rational."""
    require_odd_prime(p)
    _require_finite(cfg)
    _check_triple(cfg, i, j, k)
    a = cfg.roots
    g2 = 2 * cfg.genus
    total = Fraction(val(a[i] - a[k], p) - val(a[j] - a[k], p))
    s = 0
    for r in range(len(a)):
        if r in (i, j):
            continue
        s += val(a[j] - a[r], p) - val(a[i] - a[r], p)
    return total + Fraction(s, g2)


def pairing_cross_ratio(cfg, p, i, j, k, r):
    """(w_i - w_j, w_k - w_r) in nu units: val of the cross-ratio over 2.

    Always equals pairing_difference(i,j,k) - pairing_difference(i,j,r).
    """
    require_odd_prime(p)
    mu = cross_ratio(cfg, i, j, k, r)
    return Fraction(val(mu, p), 2)


@dataclass
class ClusterTree:
    config: object  # RootConfig
    prime: int
    nodes: list  # all ClusterNodes, sorted by (level, min member)
    parent: dict  # ClusterNode -> ClusterNode, absent for the level-0 root
    node_of_root: dict  # root index -> deepest node containing it
    depth: dict  # root index r -> n_r = max_{s != r} val(a_r - a_s)

    def levels(self):
        out = {}
        for node in self.nodes:
            out.setdefault(node.level, []).append(node)
        return out


def check_normal_form(cfg, p):
    """Check integrality, even pairwise valuations, >= 3 classes mod p."""
    require_odd_prime(p)
    _require_finite(cfg)
    a = cfg.roots
    violations = []
    for r, x in enumerate(a):
        if val(x, p) < 0:
            violations.append(f"root {r} = {x} is not integral at {p}")
    if not violations:
        for r, s in itertools.combinations(range(len(a)), 2):
            v = val(a[r] - a[s], p)
            if v % 2 != 0:
                violations.append(
                    f"val(a_{r} - a_{s}) = {v} is odd"
                )
        classes = {a[r] % p for r in range(len(a))}
        if len(classes) < 3:
            violations.append(
                f"roots lie in only {len(classes)} residue classes mod {p}"
            )
    return NormalFormReport(tuple(violations))


def build_tree(cfg, p):
    """Build the leveled residue-class tree; rejects non-normal-form input."""
    report = check_normal_form(cfg, p)
    if not report.ok:
        raise ValueError(
            "configuration is not in normal form: " + "; ".join(report.violations)
        )
    a = cfg.roots
    n_roots = len(a)
    depth = {
        r: max(val(a[r] - a[s], p) for s in range(n_roots) if s != r)
        for r in range(n_roots)
    }
    max_level = max(depth.values())
    nodes = []
    by_level = {}
    for n in range(max_level + 1):
        groups = {}
        for r in range(n_roots):
            # congruence mod p**n on rationals: val of the difference >= n
            for key in groups:
                if val(a[r] - a[key], p) >= n:
                    groups[key].append(r)
                    break
            else:
                groups[r] = [r]
        level_nodes = []
        for key, members in groups.items():
            if len(members) >= 2:
                level_nodes.append(
                    ClusterNode(n, frozenset(members), Fraction(a[key]))
                )
        level_nodes.sort(key=lambda c: min(c.members))
        by_level[n] = level_nodes
        nodes.extend(level_nodes)
    parent = {}
    for n in range(1, max_level + 1):
        for child in by_level[n]:
            for cand in by_level[n - 1]:
                if child.members <= cand.members:
                    parent[child] = cand
                    break
    node_of_root = {}
    for r in range(n_roots):
        best = max(
            (c for c in nodes if r in c.members), key=lambda c: c.level
        )
        node_of_root[r] = best
        assert best.level == depth[r]
    return ClusterTree(cfg, p, nodes, parent, node_of_root, depth)


def mult_x(tree, node, r):
    """Multiplicity of x - a_r along the component of ``node``.

    min{n_C, val(a_C - a_r)}; independent of the representative choice.
    """
    d = val(tree.config.roots[r] - node.representative, tree.prime)
    return min(node.level, d)


def mult_y(tree, node):
    """Multiplicity of y along the component: half the sum of mult_x over r."""
    total = sum(mult_x(tree, node, r) for r in range(len(tree.config.roots)))
    return Fraction(total, 2)


def v_mult(tree, k, node):
    """Coefficient of the component of ``node`` in the divisor V_k.

    (g-1)*min{n_C, val(a_k - a_C)} - mult_y(C) + n_C - (g - 1/2)*n_k
    + (1/2)*sum_{r != k} val(a_k - a_r).  Vanishes on the component
    carrying the k-th root.
    """
    g = tree.config.genus
    a = tree.config.roots
    p = tree.prime
    n_c = node.level
    n_k = tree.depth[k]
    m = min(n_c, val(a[k] - node.representative, p))
    tail = sum(val(a[k] - a[r], p) for r in range(len(a)) if r != k)
    return (
        (g - 1) * m
        - mult_y(tree, node)
        + n_c
        - Fraction(2 * g - 1, 2) * n_k
        + Fraction(tail, 2)
    )


def _v_mult_cached(tree, k, node):
    cache = tree.__dict__.setdefault("_vm_cache", {})
    key = (k, node)
    if key not in cache:
        cache[key] = v_mult(tree, k, node)
    return cache[key]


def pairing_from_tree(tree, i, j, k):
    """(2g-1)*(W_i - W_j, V_k) + (V_i - V_j, W_k) on an already-built tree.

    (W_r, V_s) is the V_s-multiplicity at the component carrying root r.
    """
    _check_triple(tree.config, i, j, k)
    g = tree.config.genus
    c_i = tree.node_of_root[i]
    c_j = tree.node_of_root[j]
    c_k = tree.node_of_root[k]
    w_term = _v_mult_cached(tree, k, c_i) - _v_mult_cached(tree, k, c_j)
    v_term = _v_mult_cached(tree, i, c_k) - _v_mult_cached(tree, j, c_k)
    return (2 * g - 1) * w_term + v_term
