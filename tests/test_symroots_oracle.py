"""The fraction-free symmetric-root kernel against the previous one.

``oracle_symroots`` is the previous implementation, kept verbatim: one
``Fraction`` or ``val_diff`` per root, an O(n^2) product over ordered pairs
for d_ij, and a ``Fraction`` matrix (W_r, V_k) for ``pairing_from_tree``.
Both are exact, so every result must be the same ``Fraction``.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_symroots as old
from hypinv import clustertree, rational, symroots, verify
from hypinv.rational import INF, val
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


def _bad_indices(arity, n):
    """Index tuples with -1, n or a duplicate in each position in turn."""
    base = tuple(range(arity))
    out = [(0, 0) + base[2:], (0, 99) + base[2:]]
    for q in range(arity):
        for bad in (-1, n, base[(q + 1) % arity]):
            out.append(base[:q] + (bad,) + base[q + 1 :])
    return out


def _odd_indices(arity, n):
    """The valid tuple, then tuples with a bool, a float, a ``Fraction``, a
    negative or too-large value, an unhashable value or nan in each position
    in turn.  True, 1.0 and Fraction(1) duplicate index 1 except in its own
    position, where the tuple is valid by value."""
    base = tuple(range(arity))
    odd = (True, 1.0, Fraction(1), -1, -n, -n - 1, n, 10**30, [1], math.nan)
    return [base] + [base[:q] + (x,) + base[q + 1 :] for q in range(arity) for x in odd]


def _outcome(call):
    """("ok", the result) or (the exception's type, its message)."""
    try:
        return "ok", call()
    except Exception as err:  # the error itself is what the caller compares
        return type(err), str(err)


def _index_message(indices, n):
    """The index error: a duplicate first, then the first index out of range."""
    if len(set(indices)) != len(indices):
        return f"indices must be pairwise distinct: {indices}"
    return f"root index out of range: {next(i for i in indices if not 0 <= i < n)}"


def _index_calls(cfg, p):
    """(arity, call on the indices) for every entry point that takes root
    indices."""
    tree = clustertree.build_tree(cfg, p)
    calls = [(3, lambda *t: clustertree.pairing_from_tree(tree, *t))]
    for arity, name, args in (
        (3, "symroot_pow", (cfg,)),
        (3, "symroot_val", (cfg, p)),
        (3, "pairing_difference", (cfg, p)),
        (4, "pairing_cross_ratio", (cfg, p)),
        (4, "cross_ratio", (cfg,)),
        (2, "sym_discriminant", (cfg,)),
    ):
        fn = getattr(symroots, name)
        calls.append((arity, lambda *t, fn=fn, args=args: fn(*args, *t)))
    return calls


def _error(call):
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


# pairing_difference is val(l_ijk) / 2 and checks its arguments as symroot_val
ORACLE = {"pairing_difference": old.symroot_val}


def _comparable(outcome):
    """The outcome, with the container word of a subscript ``TypeError``
    dropped: hypinv indexes lists where the oracle indexes ``cfg.roots``."""
    kind, detail = outcome
    if kind is TypeError and detail.startswith(("list indices ", "tuple indices ")):
        return kind, detail.split(" ", 1)[1]
    return outcome


def test_errors_match_oracle():
    cfg, p, _ = CONFIGS[0]
    n = len(cfg.roots)
    symroots.symroot_val(cfg, p, 0, 1, 2)  # the table for p now exists
    calls = _index_calls(cfg, p)
    for arity, call in calls:
        for t in _bad_indices(arity, n):
            assert _error(lambda: call(*t)) == _index_message(t, n)
    # the in-frame checks of symroot_val and pairing_from_tree, and the rule
    # the other entry points run, reach the outcome of the oracle's index
    # rule followed by the oracle's function: the same value or error
    tree = clustertree.build_tree(cfg, p)
    old_tree = SimpleNamespace(config=cfg, wv=old.wv_matrix(tree))
    pairs = [
        (3, partial(clustertree.pairing_from_tree, tree), partial(old.pairing_from_tree, old_tree))
    ]
    for arity, name, args in (
        (3, "symroot_val", (cfg, p)),
        (3, "symroot_pow", (cfg,)),
        (4, "pairing_cross_ratio", (cfg, p)),
        (2, "sym_discriminant", (cfg,)),
    ):
        new, ref = getattr(symroots, name), getattr(old, name)
        pairs.append((arity, partial(new, *args), partial(ref, *args)))
    kinds, subscripts = set(), set()
    for arity, new, ref in pairs:
        for t in _bad_indices(arity, n) + _odd_indices(arity, n):
            got = _outcome(lambda: new(*t))
            want = _outcome(lambda: (old._check_triple(cfg, *t), ref(*t))[1])
            assert _comparable(got) == _comparable(want), t
            kinds.add(got[0])
            if got != want:
                subscripts.add(t)
    assert kinds == {"ok", ValueError, TypeError}
    # the container word differs only where a float or Fraction equal to
    # index 1 passes the rule and fails at the subscript
    assert subscripts == {(0, x, 2, 3)[:a] for x in (1.0, Fraction(1)) for a in (2, 3, 4)}
    with_inf = RootConfig(2, (INF,) + tuple(Fraction(x) for x in range(1, 6)))
    assert _error(lambda: symroots.cross_ratio(with_inf, 0, 1, 2, 3)) == (
        "roots must be finite; apply normalize_finite first"
    )
    cases = [
        ("symroot_pow", (with_inf, 0, 1, 2)),
        ("sym_discriminant", (with_inf, 0, 1)),
        ("symroot_val", (with_inf, 3, 0, 1, 2)),
        ("pairing_difference", (with_inf, 3, 0, 1, 2)),
        ("pairing_cross_ratio", (with_inf, 3, 0, 1, 2, 3)),
        ("symroot_pow", (with_inf, 0, 0, 9)),  # finiteness before indices
    ]
    # 3.0 and Fraction(3) hash like 3 and find its table; True hashes like 1
    for bad_p in (2, 9, 3.0, float(p), Fraction(p), True, "3"):
        cases += [
            ("symroot_val", (cfg, bad_p, 0, 1, 2)),
            ("pairing_difference", (cfg, bad_p, 0, 1, 2)),
            ("pairing_cross_ratio", (cfg, bad_p, 0, 1, 2, 3)),
            ("symroot_val", (cfg, bad_p, 0, 0, 99)),  # the prime before indices
        ]
    for name, args in cases:
        ref = ORACLE.get(name) or getattr(old, name)
        assert _error(lambda: getattr(symroots, name)(*args)) == _error(
            lambda: ref(*args)
        )
    assert list(cfg._tables) == [p]


def test_int_subclass_prime_is_checked_and_reads_the_table(monkeypatch):
    class Prime(int):
        pass

    cfg, p, _ = CONFIGS[0]
    expected = symroots.symroot_val(cfg, p, 0, 1, 2)
    checked = []
    real = rational.is_prime
    monkeypatch.setattr(rational, "is_prime", lambda q: checked.append(q) or real(q))
    assert symroots.symroot_val(cfg, Prime(p), 0, 1, 2) == expected
    assert symroots.pairing_difference(cfg, Prime(p), 0, 1, 2) == expected / 2
    assert checked == [p, p]
    assert list(cfg._tables) == [p]


# --- the per-configuration valuation table ---------------------------------


@st.composite
def configs_and_primes(draw, max_genus=4):
    """A configuration of genus 2 to ``max_genus`` and an odd prime.  Roots
    may have p or a unit in the denominator, and with one root at inf the
    configuration is moved by ``normalize_finite``."""
    g = draw(st.integers(2, max_genus))
    p = draw(st.sampled_from(PRIMES))
    at_inf = draw(st.booleans())
    den = st.sampled_from((1, p, p**2, p + 1, p * (p + 1)))
    root = st.builds(Fraction, st.integers(-(p**4), p**4), den)
    count = 2 * g + 2 - at_inf
    roots = draw(st.lists(root, min_size=count, max_size=count, unique=True))
    if at_inf:
        roots.insert(draw(st.integers(0, count)), INF)
    return symroots.normalize_finite(RootConfig(g, tuple(roots))), p


@settings(max_examples=80, deadline=None, database=None)
@given(configs_and_primes(), st.data())
def test_symroot_val_from_the_table_matches_symroot_pow(cfg_p, data):
    cfg, p = cfg_p
    n, g2 = len(cfg.roots), 2 * cfg.genus
    for _ in range(6):
        quad = data.draw(st.permutations(range(n)))[:4]
        t = quad[:3]
        new = symroots.symroot_val(cfg, p, *t)
        assert new == Fraction(val(symroots.symroot_pow(cfg, *t), p), g2)
        assert new == old.symroot_val(cfg, p, *t)
        assert symroots.pairing_cross_ratio(cfg, p, *quad) == old.pairing_cross_ratio(
            cfg, p, *quad
        )
    assert list(cfg._tables) == [p]


@settings(max_examples=30, deadline=None, database=None)
@given(configs_and_primes())
def test_fraction_free_kernel_matches_oracle_on_every_triple_and_pair(cfg_p):
    cfg, p = cfg_p
    n = len(cfg.roots)
    for t in itertools.permutations(range(n), 3):
        new = symroots.symroot_pow(cfg, *t)
        assert type(new) is Fraction
        assert new == old.symroot_pow(cfg, *t)
        half = symroots.pairing_difference(cfg, p, *t)
        assert type(half) is Fraction
        assert half == old.symroot_val(cfg, p, *t) / 2
    for pair in itertools.permutations(range(n), 2):
        new = symroots.sym_discriminant(cfg, *pair)
        assert type(new) is Fraction
        assert new == old.sym_discriminant(cfg, *pair)


@settings(max_examples=20, deadline=None, database=None)
@given(configs_and_primes())
def test_fraction_free_cross_ratio_matches_the_fraction_expression(cfg_p):
    cfg, _ = cfg_p
    a = cfg.roots
    for i, j, k, r in itertools.permutations(range(len(a)), 4):
        new = symroots.cross_ratio(cfg, i, j, k, r)
        assert type(new) is Fraction
        # the expression in Fraction differences that the closed form replaced
        assert new == (a[i] - a[k]) / (a[j] - a[k]) * (a[j] - a[r]) / (a[i] - a[r])


@settings(max_examples=40, deadline=None, database=None)
@given(configs_and_primes())
def test_tree_rows_match_oracle_on_every_configuration(cfg_p):
    """``build_tree``'s one row of 2 (W_r, V_k) per cluster, ``v_mult`` and
    ``pairing_from_tree`` against the oracle.  Single linkage on V holds for
    any configuration, so the normal-form check is bypassed to reach every
    configuration of the strategy."""
    cfg, p = cfg_p
    tables = symroots._valuations(cfg, p)
    with mock.patch.object(clustertree, "_normal_form", lambda c, q: ((), tables)):
        tree = clustertree.build_tree(cfg, p)
    n = len(cfg.roots)
    for node in tree.nodes:
        for k in range(n):
            new = clustertree.v_mult(tree, k, node)
            assert type(new) is Fraction
            assert new == old.v_mult(tree, k, node)
    old_tree = SimpleNamespace(config=cfg, wv=old.wv_matrix(tree))
    assert tree.wv2 == [[2 * x for x in row] for row in old_tree.wv]
    for t in itertools.permutations(range(n), 3):
        assert clustertree.pairing_from_tree(tree, *t) == old.pairing_from_tree(
            old_tree, *t
        )


def _fields(q):
    return type(q), q.numerator, q.denominator


@settings(max_examples=30, deadline=None, database=None)
@given(configs_and_primes(max_genus=8))
def test_per_triple_queries_match_the_oracle_field_by_field(cfg_p):
    """On every triple, ``symroot_val``, ``pairing_difference`` and
    ``pairing_from_tree`` give the oracle's ``Fraction``: the same type,
    numerator and denominator.  The tree is built past the normal-form check,
    as single linkage on V holds for any configuration."""
    cfg, p = cfg_p
    vals, sums, twice_g = tables = symroots._valuations(cfg, p)
    g2 = 2 * cfg.genus
    assert twice_g == [[g2 * v - s for v in row] for row, s in zip(vals, sums)]
    with mock.patch.object(clustertree, "_normal_form", lambda c, q: ((), tables)):
        tree = clustertree.build_tree(cfg, p)
    old_tree = SimpleNamespace(config=cfg, wv=old.wv_matrix(tree))
    for t in itertools.permutations(range(len(cfg.roots)), 3):
        ref = old.symroot_val(cfg, p, *t)
        assert _fields(symroots.symroot_val(cfg, p, *t)) == _fields(ref)
        assert _fields(symroots.pairing_difference(cfg, p, *t)) == _fields(ref / 2)
        assert _fields(clustertree.pairing_from_tree(tree, *t)) == _fields(
            old.pairing_from_tree(old_tree, *t)
        )


def test_v_mult_rejects_an_index_that_is_not_a_root():
    cfg, p, _ = CONFIGS[0]
    tree = clustertree.build_tree(cfg, p)
    for k in (-1, len(cfg.roots)):
        with pytest.raises(LookupError):
            clustertree.v_mult(tree, k, tree.nodes[0])


def test_bad_prime_and_infinite_root_raise_on_every_call():
    cfg, p, _ = CONFIGS[0]
    symroots.symroot_val(cfg, p, 0, 1, 2)  # the table for p now exists
    with_inf = RootConfig(2, (INF,) + tuple(Fraction(x) for x in range(1, 6)))
    calls = [
        lambda c, q: symroots.symroot_val(c, q, 0, 1, 2),
        lambda c, q: symroots.pairing_difference(c, q, 0, 1, 2),
        lambda c, q: symroots.pairing_cross_ratio(c, q, 0, 1, 2, 3),
        lambda c, q: clustertree.check_normal_form(c, q),
        lambda c, q: clustertree.build_tree(c, q),
    ]
    # float(p) and Fraction(p) equal p and hash like it, so they would find
    # p's table; True is an int that equals 1
    bad = [(cfg, 2), (cfg, 9), (cfg, float(p)), (cfg, Fraction(p)), (cfg, True)]
    for c, q in bad + [(with_inf, p)]:
        for call in calls * 2:
            with pytest.raises(ValueError) as err:
                call(c, q)
            assert str(err.value) == (
                "roots must be finite; apply normalize_finite first"
                if c is with_inf
                else "characteristic 2 excluded" if q == 2 else f"not a prime: {q!r}"
            )
    assert list(cfg._tables) == [p]
    assert with_inf._tables == {}
