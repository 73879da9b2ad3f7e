import itertools
import random
import re
from fractions import Fraction

import pytest

from hypinv import clustertree, symroots, verify
from hypinv.clustertree import (
    build_tree,
    check_normal_form,
    mult_x,
    mult_y,
    pairing_combination,
    pairing_from_tree,
    v_mult,
)
from hypinv.symroots import RootConfig, symroot_val
from test_symroots import _trap_fraction

CFG3 = RootConfig(2, tuple(Fraction(x) for x in (0, 9, 1, 10, 2, 11)))


def test_normal_form_ok():
    assert check_normal_form(CFG3, 3).ok


def test_normal_form_odd_valuation():
    cfg = RootConfig(2, tuple(Fraction(x) for x in (0, 3, 1, 4, 2, 5)))
    report = check_normal_form(cfg, 3)
    assert not report.ok
    assert any("odd" in v for v in report.violations)


def test_normal_form_too_few_classes():
    cfg = RootConfig(2, tuple(Fraction(x) for x in (0, 9, 18, 1, 10, 19)))
    report = check_normal_form(cfg, 3)
    assert any("residue classes" in v for v in report.violations)


def test_normal_form_counts_classes_of_non_integer_roots_mod_p():
    # 1/2 = 5 = 163/2 = 2 mod 3, though 1/2 % 3 and 5 % 3 differ as Fractions
    cfg = RootConfig(2, tuple(Fraction(x) for x in ("0", "9", "81", "1/2", "5", "163/2")))
    report = check_normal_form(cfg, 3)
    assert report.violations == ("roots lie in only 2 residue classes mod 3",)
    with pytest.raises(ValueError, match="only 2 residue classes"):
        build_tree(cfg, 3)


def test_normal_form_nonintegral():
    cfg = RootConfig(
        2, (Fraction(1, 3),) + tuple(Fraction(x) for x in (0, 1, 2, 9, 11))
    )
    report = check_normal_form(cfg, 3)
    assert any("not integral" in v for v in report.violations)


def test_normal_form_rejects_two():
    with pytest.raises(ValueError):
        check_normal_form(CFG3, 2)


def test_build_tree_rejects_bad_input():
    cfg = RootConfig(2, tuple(Fraction(x) for x in (0, 3, 1, 4, 2, 5)))
    with pytest.raises(ValueError):
        build_tree(cfg, 3)


def test_tree_structure():
    tree = build_tree(CFG3, 3)
    # three residue pairs {0,9}, {1,10}, {2,11}, each a cluster of depth 2
    top, *pairs = tree.nodes
    assert (top.level, top.members) == (0, frozenset(range(6)))
    assert [(c.level, c.members) for c in pairs] == [
        (2, frozenset({0, 1})),
        (2, frozenset({2, 3})),
        (2, frozenset({4, 5})),
    ]
    assert all(tree.depth[r] == 2 for r in range(6))
    assert top not in tree.parent
    for node in pairs:
        assert tree.parent[node] is top
    # each pair is the residue class of its roots at levels 1 and 2
    assert tree.levels() == {0: [top], 1: pairs, 2: pairs}


def test_multiplicities():
    tree = build_tree(CFG3, 3)
    node = tree.node_of_root[0]  # roots {0, 9} at level 2
    assert node.level == 2
    assert mult_x(tree, node, 0) == 2
    assert mult_x(tree, node, 1) == 2
    assert mult_x(tree, node, 2) == 0
    assert mult_y(tree, node) == 2


def test_mult_x_representative_independent():
    tree = build_tree(CFG3, 3)
    from hypinv.rational import val

    a = CFG3.roots
    for node in tree.nodes:
        for r in range(6):
            for m in node.members:
                d = val(a[r] - a[m], 3)
                assert mult_x(tree, node, r) == min(node.level, d)


@pytest.mark.parametrize(
    "r,message",
    [
        (-1, "root index out of range: -1"),
        (6, "root index out of range: 6"),
        (10, "root index out of range: 10"),
        (1.0, "root index is not an int: 1.0"),
        (Fraction(1), "root index is not an int: Fraction(1, 1)"),
        ("1", "root index is not an int: '1'"),
    ],
    ids=["-1", "6", "10", "1.0", "Fraction(1)", "'1'"],
)
def test_root_index_outside_the_configuration_is_refused(r, message):
    # a negative index would silently read the last roots' rows; the index
    # rule of every other function refuses it, and 1.0, Fraction(1) and "1",
    # with a ValueError (they once raised KeyError or the interpreter's
    # TypeError)
    tree = build_tree(CFG3, 3)
    node = tree.node_of_root[0]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mult_x(tree, node, r)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        v_mult(tree, r, node)


def test_v_mult_vanishes_on_own_component():
    tree = build_tree(CFG3, 3)
    for k in range(6):
        assert v_mult(tree, k, tree.node_of_root[k]) == 0


def test_v_mult_worked_value():
    # multiplicity of V_k (k the root at value 1) on the component of {0, 9}
    tree = build_tree(CFG3, 3)
    assert v_mult(tree, 2, tree.node_of_root[0]) == -2


def test_pairing_worked_value():
    assert pairing_combination(CFG3, 3, 0, 2, 1) == 8
    assert pairing_combination(CFG3, 3, 0, 2, 1) == 4 * symroot_val(
        CFG3, 3, 0, 2, 1
    )


def test_pairing_matches_symroots_all_triples():
    tree = build_tree(CFG3, 3)
    for i, j, k in itertools.permutations(range(6), 3):
        assert pairing_from_tree(tree, i, j, k) == 4 * symroot_val(
            CFG3, 3, i, j, k
        )


def test_deeper_tree():
    # nested clusters: {0, 81} sits inside the class of 0 mod 9
    roots = (0, 81, 9, 1, 2, 11)
    cfg = RootConfig(2, tuple(Fraction(x) for x in roots))
    assert check_normal_form(cfg, 3).ok
    tree = build_tree(cfg, 3)
    assert tree.depth[0] == 4
    assert tree.node_of_root[0].members == frozenset({0, 1})
    # {0, 81} lies in {0, 81, 9} of depth 2; levels 3 and 4 hold {0, 81}
    up = tree.parent[tree.node_of_root[0]]
    assert (up.level, up.members) == (2, frozenset({0, 1, 2}))
    assert [c.members for c in tree.levels()[3]] == [frozenset({0, 1})]
    for i, j, k in itertools.permutations(range(6), 3):
        assert pairing_from_tree(tree, i, j, k) == 4 * symroot_val(cfg, 3, i, j, k)


@pytest.mark.parametrize(
    "cfg", [CFG3, verify.random_normal_form_config(random.Random(1), 8, 3)], ids=["g2", "g8"]
)
def test_build_tree_builds_one_row_per_cluster_and_hashes_only_parents(cfg, monkeypatch):
    # each row of 2 (W_r, V_k) is built once, for the cluster's first root at
    # its depth, and a ClusterNode, (level, members), is hashed only to key
    # ``parent``: no Fraction is built or hashed
    build_tree(cfg, 3)  # the table is kept before counting
    row_nodes, hashes = [], []
    real_row, real_hash = clustertree._twice_v_row, Fraction.__hash__

    def twice_v_row(g, vals, sums, depth, node):
        row_nodes.append(node)
        return real_row(g, vals, sums, depth, node)

    monkeypatch.setattr(clustertree, "_twice_v_row", twice_v_row)
    monkeypatch.setattr(Fraction, "__hash__", lambda q: hashes.append(q) or real_hash(q))
    ran = _trap_fraction(monkeypatch)
    tree = build_tree(cfg, 3)
    monkeypatch.undo()
    # the distinct node_of_root values, compared by identity: no hash
    owners = list({id(node): node for node in tree.node_of_root.values()}.values())
    assert sorted(map(id, row_nodes)) == sorted(map(id, owners))
    assert hashes == [] and ran == []
    assert len(tree.nodes) > 2
    # roots of one cluster share its row, which is the cluster's own
    assert len({id(row) for row in tree.wv2}) == len(owners)
    vals, sums, _ = symroots._valuations(cfg, 3)
    for r, node in tree.node_of_root.items():
        assert tree.wv2[r] == real_row(cfg.genus, vals, sums, tree.depth, node)
