"""The fraction-free symmetric-root kernel against the previous one.

``oracle_symroots`` is the previous implementation, kept verbatim: one
``Fraction`` or ``val_diff`` per root, an O(n^2) product over ordered pairs
for d_ij, and a ``Fraction`` matrix (W_r, V_k) for ``pairing_from_tree``.
Both are exact, so every result must be the same ``Fraction``.
"""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import oracle_symroots as old
from hypinv import clustertree, symroots, verify
from hypinv.rational import INF
from hypinv.symroots import RootConfig
from test_padic_oracle import chain_config

PRIMES = (3, 5, 7)


def _rational_roots(rng, count, p):
    """Distinct rationals, about a third with p in the denominator and a
    third with a denominator prime to p."""
    roots = set()
    while len(roots) < count:
        den = rng.choice((1, p, p**3, p + 1, 2 * p + 1))
        roots.add(Fraction(rng.randint(-5 * den * p, 5 * den * p), den))
    return tuple(roots)


def configurations():
    """(config, prime, normal form?) triples over genus 2-8."""
    rng = random.Random(31)
    out = []
    for g in range(2, 9):
        p = PRIMES[g % 3]
        cfg = verify.random_normal_form_config(rng, g, p)
        out.append((cfg, p, True))
        # denominators prime to p keep the normal form
        unit = Fraction(1, p + 1)
        out.append((RootConfig(g, tuple(x * unit for x in cfg.roots)), p, True))
        out.append((RootConfig(g, _rational_roots(rng, 2 * g + 2, p)), p, False))
        # moved off infinity by normalize_finite
        finite = _rational_roots(rng, 2 * g + 1, p)
        moved = symroots.normalize_finite(RootConfig(g, (INF,) + finite))
        assert moved.all_finite and moved.note
        out.append((moved, p, False))
    for g, p, depth in ((2, 3, 40), (3, 5, 40), (2, 3, 500), (2, 3, 800)):
        out.append((chain_config(rng, g, p, depth), p, True))
    return out


CONFIGS = configurations()
IDS = [
    f"g{cfg.genus}-p{p}-{'nf' if nf else 'any'}-{k}"
    for k, (cfg, p, nf) in enumerate(CONFIGS)
]


def _sample(items, count, seed):
    items = list(items)
    return random.Random(seed).sample(items, min(count, len(items)))


def test_configurations_cover_the_cases():
    assert {cfg.genus for cfg, _, _ in CONFIGS} == set(range(2, 9))
    denominators = [x.denominator for cfg, _, _ in CONFIGS for x in cfg.roots]
    assert any(d % 3 == 0 for d in denominators)
    assert any(d > 1 and d % 3 and d % 5 and d % 7 for d in denominators)
    depths = {
        max(clustertree.build_tree(cfg, p).depth.values())
        for cfg, p, nf in CONFIGS
        if nf
    }
    assert {40, 500, 800} <= depths
    for cfg, p, nf in CONFIGS:
        assert clustertree.check_normal_form(cfg, p).ok == nf


@pytest.mark.parametrize(("cfg", "p", "nf"), CONFIGS, ids=IDS)
def test_symroot_pow_and_val_match_oracle(cfg, p, nf):
    triples = itertools.permutations(range(len(cfg.roots)), 3)
    for t in _sample(triples, 400, len(cfg.roots)):
        assert symroots.symroot_pow(cfg, *t) == old.symroot_pow(cfg, *t)
        assert symroots.symroot_val(cfg, p, *t) == old.symroot_val(cfg, p, *t)


@pytest.mark.parametrize(("cfg", "p", "nf"), CONFIGS, ids=IDS)
def test_sym_discriminant_matches_oracle(cfg, p, nf):
    pairs = itertools.permutations(range(len(cfg.roots)), 2)
    for i, j in _sample(pairs, 40, len(cfg.roots)):
        assert symroots.sym_discriminant(cfg, i, j) == old.sym_discriminant(cfg, i, j)


@pytest.mark.parametrize(("cfg", "p", "nf"), CONFIGS, ids=IDS)
def test_pairing_cross_ratio_matches_oracle(cfg, p, nf):
    quads = itertools.permutations(range(len(cfg.roots)), 4)
    for q in _sample(quads, 300, len(cfg.roots)):
        assert symroots.pairing_cross_ratio(cfg, p, *q) == old.pairing_cross_ratio(
            cfg, p, *q
        )


@pytest.mark.parametrize(
    ("cfg", "p", "nf"),
    [c for c in CONFIGS if c[2]],
    ids=[i for i, c in zip(IDS, CONFIGS) if c[2]],
)
def test_pairing_from_tree_matches_oracle(cfg, p, nf):
    tree = clustertree.build_tree(cfg, p)
    old_tree = SimpleNamespace(config=cfg, wv=old.wv_matrix(tree))
    for r, row in enumerate(tree.wv2):
        assert [Fraction(x, 2) for x in row] == old_tree.wv[r]
    for node in tree.nodes:
        assert clustertree.mult_y(tree, node) == old.mult_y(tree, node)
        for k in range(len(cfg.roots)):
            assert clustertree.v_mult(tree, k, node) == old.v_mult(tree, k, node)
    for t in itertools.permutations(range(len(cfg.roots)), 3):
        new = clustertree.pairing_from_tree(tree, *t)
        assert type(new) is Fraction
        assert new == old.pairing_from_tree(old_tree, *t)


def test_wv2_is_integer():
    cfg, p, _ = CONFIGS[0]
    tree = clustertree.build_tree(cfg, p)
    assert all(type(x) is int for row in tree.wv2 for x in row)


def test_errors_match_oracle():
    cfg, p, _ = CONFIGS[0]
    with_inf = RootConfig(2, (INF,) + tuple(Fraction(x) for x in range(1, 6)))
    cases = [
        (name, args)
        for a, b in ((0, 0), (0, 99))
        for name, args in (
            ("symroot_pow", (cfg, a, 1, b)),
            ("sym_discriminant", (cfg, a, b)),
            ("symroot_val", (cfg, p, a, 1, b)),
            ("pairing_cross_ratio", (cfg, p, a, 1, 2, b)),
        )
    ]
    cases += [
        ("symroot_pow", (with_inf, 0, 1, 2)),
        ("sym_discriminant", (with_inf, 0, 1)),
        ("symroot_val", (with_inf, 3, 0, 1, 2)),
        ("pairing_cross_ratio", (with_inf, 3, 0, 1, 2, 3)),
    ]
    for bad_p in (2, 9, 3.0):
        cases += [
            ("symroot_val", (cfg, bad_p, 0, 1, 2)),
            ("pairing_cross_ratio", (cfg, bad_p, 0, 1, 2, 3)),
        ]
    for name, args in cases:
        with pytest.raises(ValueError) as new_err:
            getattr(symroots, name)(*args)
        with pytest.raises(ValueError) as old_err:
            getattr(old, name)(*args)
        assert str(new_err.value) == str(old_err.value)
