"""Trees of the proper clusters of branch points.

Given an odd prime p and a branch configuration in normal form (integral
roots, even pairwise valuations, at least 3 residue classes mod p), a
proper cluster is a residue class mod some p**n holding at least two roots
(Dokchitser-Dokchitser-Maistret-Morgan, *Arithmetic of hyperelliptic
curves over local fields*, 2022).  The clusters form a rooted tree whose
nodes carry the multiplicity data of the components of the special fiber,
giving a derivation of val(l_ijk) through intersection numbers on the
special fiber:

    (2g-1)*(W_i - W_j, V_k) + (V_i - V_j, W_k) = 2g(g-1) * val(l_ijk).

All of it reads the table V[r][s] = val(a_r - a_s) that the configuration
builds once per prime (``symroots._valuations``), as ``symroot_val`` does;
the ``cluster-vs-symroots`` verify suite also checks ``symroot_val`` against
``symroot_pow``, which never reads the table.
``build_tree`` keeps the table on the tree, where ``mult_x`` and ``v_mult``
read it, together with the integer matrix 2 * (W_r, V_k), one row per
cluster from ``_twice_v_row``, built when the split finds the cluster's
first root at its depth.  ``pairing_from_tree`` is the integer
``_twice_pairing`` (four lookups in that matrix) over 2: a valid triple
passes one chained comparison in its frame, and it sets the result's two
slots itself after a parity test.  A caller
comparing it on all triples with the integer 2g val(l_ijk) = C_ik - C_jk
of the configuration's matrix C (``symroots._valuations``) needs no
``Fraction`` at all.  The valuation is
ultrametric, so V[r][s] >= n is an equivalence for each n and its classes
are the residue classes mod p**n: ``build_tree`` splits each cluster once,
one past its depth (single linkage).  The tree has one node per cluster,
however deep, and ``ClusterTree.levels`` derives the classes of every
level from it.

The reduction of arbitrary configurations to normal form needs root
extraction in field extensions and is not implemented; non-normal-form input
is rejected with a diagnostic report: ``build_tree`` raises
``NormalFormError``, which carries the same report as ``check_normal_form``,
so a caller that wants both the report and the tree builds one table.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .rational import _fraction, _Record
from .symroots import _check_triple, _valuations


class ClusterNode(namedtuple("ClusterNode", "level members representative")):
    """A proper cluster; ``level`` is its depth, min V[r][s] over its members,
    ``members`` the frozenset of its root indices and ``representative`` the
    value of its smallest-index member."""

    __slots__ = ()

    def __repr__(self):
        mem = ",".join(str(m) for m in sorted(self.members))
        return f"ClusterNode(level={self.level}, members={{{mem}}})"


class NormalFormReport(namedtuple("NormalFormReport", "violations")):
    """Diagnostic result of the normal-form check; ok iff no violations."""

    __slots__ = ()

    @property
    def ok(self):
        return not self.violations


class NormalFormError(ValueError):
    """``build_tree`` input not in normal form; ``report`` lists why."""

    def __init__(self, report):
        super().__init__(
            "configuration is not in normal form: " + "; ".join(report.violations)
        )
        self.report = report


class ClusterTree(_Record):
    """The proper clusters of a configuration at a prime, one node each.

    ``config`` is the ``RootConfig``; ``nodes`` the proper clusters, sorted
    by (level, min member); ``parent`` maps a cluster to the cluster
    enclosing it, absent for the top; ``node_of_root`` maps a root index to
    the smallest cluster containing it; ``depth`` maps a root index r to
    n_r = max_{s != r} val(a_r - a_s); ``vals[r][s]`` = val(a_r - a_s),
    ``math.inf`` on the diagonal; ``wv2[r][k]`` = 2 * (W_r, V_k), an int.
    Mutable and unhashable.
    """

    _fields = ("config", "prime", "nodes", "parent", "node_of_root", "depth", "vals", "wv2")

    def levels(self):
        """{n: the clusters alive at level n, by min member}: the classes
        mod p**n with two or more roots.  A cluster is alive from one past
        its parent's level (0 for the top) to its own level."""
        out = {}
        for node in self.nodes:
            up = self.parent.get(node)
            for n in range(0 if up is None else up.level + 1, node.level + 1):
                out.setdefault(n, []).append(node)
        return {n: sorted(out[n], key=lambda c: min(c.members)) for n in sorted(out)}


def _normal_form(cfg, p):
    """Check p once; return the normal-form violations and the tables (V, S, C)."""
    tables = _valuations(cfg, p)
    vals = tables[0]
    a = cfg.roots
    violations = [
        f"root {r} = {x} is not integral at {p}"
        for r, x in enumerate(a)
        if x.denominator % p == 0
    ]
    if not violations:
        for r, s in itertools.combinations(range(len(a)), 2):
            v = vals[r][s]
            if v % 2 != 0:
                violations.append(f"val(a_{r} - a_{s}) = {v} is odd")
        classes = len(_split(list(range(len(a))), vals, 1))
        if classes < 3:
            violations.append(
                f"roots lie in only {classes} residue classes mod {p}"
            )
    return tuple(violations), tables


def check_normal_form(cfg, p):
    """Check integrality, even pairwise valuations, >= 3 classes mod p."""
    return NormalFormReport(_normal_form(cfg, p)[0])


def _split(members, vals, n):
    """Classes of ``members`` (sorted) under V[r][s] >= n, each sorted."""
    groups = []
    for r in members:
        for group in groups:
            if vals[r][group[0]] >= n:
                group.append(r)
                break
        else:
            groups.append([r])
    return groups


def build_tree(cfg, p):
    """Build the tree of proper clusters.

    Raises ``NormalFormError``, a ``ValueError``, on non-normal-form input.
    """
    violations, (vals, sums, _) = _normal_form(cfg, p)
    if violations:
        raise NormalFormError(NormalFormReport(violations))
    a = cfg.roots
    n_roots = len(a)
    depth = {r: max(row[:r] + row[r + 1 :]) for r, row in enumerate(vals)}
    g = cfg.genus
    nodes = []
    parent = {}
    node_of_root = {}
    wv2 = [None] * n_roots
    # (sorted members, enclosing cluster); each cluster is split once
    work = [(list(range(n_roots)), None)]
    for members, up in work:
        first = members[0]
        level = min(vals[first][s] for s in members[1:])  # ultrametric
        node = ClusterNode(level, frozenset(members), Fraction(a[first]))
        nodes.append(node)
        if up is not None:
            parent[node] = up
        row = None  # the cluster's row, built for its first root at depth
        for r in members:
            if depth[r] == level:
                node_of_root[r] = node
                if row is None:
                    row = _twice_v_row(g, vals, sums, depth, node)
                wv2[r] = row
        work.extend(
            (group, node)
            for group in _split(members, vals, level + 1)
            if len(group) >= 2
        )
    nodes.sort(key=lambda c: (c.level, min(c.members)))
    return ClusterTree(cfg, p, nodes, parent, node_of_root, depth, vals, wv2)


def mult_x(tree, node, r):
    """Multiplicity of x - a_r along the component of ``node``.

    min{n_C, val(a_C - a_r)}; independent of the representative choice.
    """
    if r not in tree.depth:  # a negative r would read the row from its end
        raise KeyError(r)
    return min(node.level, tree.vals[r][min(node.members)])


def _twice_mult_y(vals, node):
    """2 * mult_y(tree, node): the sum of mult_x over r, an integer."""
    level = node.level
    return sum(min(level, v) for v in vals[min(node.members)])


def mult_y(tree, node):
    """Multiplicity of y along the component: half the sum of mult_x over r."""
    return _fraction(_twice_mult_y(tree.vals, node), 2)


def _twice_v_row(g, vals, sums, depth, node):
    """[2 * v_mult(tree, k, node) for each root k], integers, from the
    tree's fields and the row sums S of the configuration's (V, S) table;
    2 * mult_y(node) is summed once for the row."""
    n_c = node.level
    rest = 2 * n_c - _twice_mult_y(vals, node)
    return [
        2 * (g - 1) * min(n_c, v) + rest - (2 * g - 1) * depth[k] + sums[k]
        for k, v in enumerate(vals[min(node.members)])
    ]


def v_mult(tree, k, node):
    """Coefficient of the component of ``node`` in the divisor V_k.

    (g-1)*min{n_C, val(a_k - a_C)} - mult_y(C) + n_C - (g - 1/2)*n_k
    + (1/2)*sum_{r != k} val(a_k - a_r).  Vanishes on the component
    carrying the k-th root.
    """
    if k not in tree.depth:  # a negative k would read the row from its end
        raise KeyError(k)
    vals, sums, _ = _valuations(tree.config, tree.prime)  # tree.vals and its sums
    row = _twice_v_row(tree.config.genus, vals, sums, tree.depth, node)
    return _fraction(row[k], 2)


def pairing_from_tree(tree, i, j, k):
    """(2g-1)*(W_i - W_j, V_k) + (V_i - V_j, W_k) on an already-built tree.

    (W_r, V_s) is the V_s-multiplicity at the component carrying root r;
    the integers 2 * (W_r, V_s) are read from ``tree.wv2``.  A valid triple
    passes one chained comparison here, and the result is built here from
    the integer ``_twice_pairing`` and a parity test.
    """
    cfg = tree.config
    n = len(cfg.roots)
    try:  # a bad triple, or a comparison or subscript that raises: _check_triple's error
        if not (i != j != k != i and 0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise TypeError
        num = _twice_pairing(tree.wv2, 2 * cfg.genus - 1, i, j, k)
    except TypeError:
        _check_triple(cfg, i, j, k)
        raise
    q = object.__new__(Fraction)  # the _fraction construction, gcd(num, 2) by parity
    if num & 1:
        q._numerator, q._denominator = num, 2
    else:
        q._numerator, q._denominator = num >> 1, 1
    return q


def _twice_pairing(wv2, g21, i, j, k):
    """2 * pairing_from_tree, an integer, from the matrix ``wv2`` of a tree;
    g21 = 2g - 1 and the caller has checked the indices."""
    return g21 * (wv2[i][k] - wv2[j][k]) + wv2[k][i] - wv2[k][j]


def pairing_combination(cfg, p, i, j, k):
    """(2g-1)*(W_i - W_j, V_k) + (V_i - V_j, W_k) from the cluster tree.

    Equals 2g(g-1)*val(l_ijk); this is the headline cross-check against the
    symroots module, which shares no code path for this quantity.
    """
    return pairing_from_tree(build_tree(cfg, p), i, j, k)
