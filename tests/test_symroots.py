import cmath
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from hypinv import clustertree, rational, symroots, verify
from hypinv.rational import INF
from hypinv.symroots import (
    RootConfig,
    cross_ratio,
    pairing_cross_ratio,
    pairing_difference,
    sym_discriminant,
    symroot_pow,
    symroot_val,
)

CFG6 = RootConfig(2, tuple(Fraction(x) for x in range(6)))
CFG3 = RootConfig(2, tuple(Fraction(x) for x in (0, 9, 1, 10, 2, 11)))


def test_config_validation():
    with pytest.raises(ValueError):
        RootConfig(1, (Fraction(0),) * 4)
    with pytest.raises(ValueError):
        RootConfig(2, tuple(Fraction(x) for x in range(5)))
    with pytest.raises(ValueError):
        RootConfig(2, (Fraction(0),) + tuple(Fraction(x) for x in range(5)))
    with pytest.raises(ValueError):
        RootConfig(2, (INF, INF) + tuple(Fraction(x) for x in range(4)))


def test_symroot_pow_worked_value():
    assert symroot_pow(CFG6, 0, 1, 2) == Fraction(16, 5)


def test_symroot_val_worked_value():
    # roots (0, 9, 1, 10, 2, 11): i -> 0, j -> 1, k -> 9
    assert symroot_val(CFG3, 3, 0, 2, 1) == 2


def test_symroot_val_units():
    # all root differences are units at 7
    for i, j, k in itertools.permutations(range(6), 3):
        assert symroot_val(CFG6, 7, i, j, k) == 0


def test_symroot_val_rejects_two():
    with pytest.raises(ValueError):
        symroot_val(CFG6, 2, 0, 1, 2)


def test_antisymmetry():
    for i, j, k in itertools.permutations(range(6), 3):
        assert symroot_pow(CFG6, i, j, k) * symroot_pow(CFG6, j, i, k) == 1


def test_cocycle():
    rng = random.Random(11)
    for g in (2, 3):
        roots = tuple(Fraction(x) for x in rng.sample(range(-40, 40), 2 * g + 2))
        cfg = RootConfig(g, roots)
        i, j, k = rng.sample(range(len(roots)), 3)
        prod = (
            symroot_pow(cfg, i, j, k)
            * symroot_pow(cfg, j, k, i)
            * symroot_pow(cfg, k, i, j)
        )
        assert prod == -1


def test_translation_invariance():
    shifted = RootConfig(2, tuple(r + 7 for r in CFG6.roots))
    for i, j, k in itertools.permutations(range(6), 3):
        assert symroot_pow(shifted, i, j, k) == symroot_pow(CFG6, i, j, k)


def test_cross_ratio_value_and_errors():
    assert cross_ratio(CFG6, 0, 1, 2, 3) == Fraction(4, 3)
    with pytest.raises(ValueError):
        cross_ratio(CFG6, 0, 1, 2, 2)
    with pytest.raises(ValueError):
        cross_ratio(CFG6, 0, 1, 2, 9)


def test_disc_product_one():
    for i in range(6):
        prod = Fraction(1)
        for k in range(6):
            if k != i:
                prod *= sym_discriminant(CFG6, i, k)
        assert prod == 1


def test_disc_ratio_identity():
    g2 = 4
    for i, j, k in itertools.permutations(range(6), 3):
        lhs = sym_discriminant(CFG6, i, k) / sym_discriminant(CFG6, j, k)
        assert lhs == -symroot_pow(CFG6, i, j, k) ** (g2 + 1)


def test_disc_numeric_oracle():
    # independent floating path: pick any complex 2g-th root t of P, set
    # l_r = m_r * t and multiply out the discriminant directly
    g2 = 4
    for i, j in [(0, 1), (2, 5), (4, 0)]:
        a = CFG6.roots
        others = [r for r in range(6) if r not in (i, j)]
        m = {r: complex((a[i] - a[r]) / (a[j] - a[r])) for r in others}
        big_p = 1.0
        for r in others:
            big_p *= complex((a[j] - a[r]) / (a[i] - a[r]))
        t = big_p ** (1.0 / g2) if big_p.imag or big_p.real >= 0 else cmath.exp(
            cmath.log(big_p) / g2
        )
        ell = {r: m[r] * t for r in others}
        num = 1.0
        for r, s in itertools.permutations(others, 2):
            num *= ell[r] - ell[s]
        exact = complex(sym_discriminant(CFG6, i, j))
        assert abs(num - exact) <= 1e-9 * max(abs(exact), 1.0)


def test_pairing_difference_worked_value():
    assert pairing_difference(CFG3, 3, 0, 2, 1) == 1


def test_pairing_cross_ratio_is_difference():
    rng = random.Random(5)
    for _ in range(25):
        roots = tuple(Fraction(x) for x in rng.sample(range(-50, 50), 6))
        cfg = RootConfig(2, roots)
        i, j, k, r = rng.sample(range(6), 4)
        p = rng.choice((3, 5, 7))
        assert pairing_cross_ratio(cfg, p, i, j, k, r) == pairing_difference(
            cfg, p, i, j, k
        ) - pairing_difference(cfg, p, i, j, r)


WITH_INF = (INF,) + tuple(Fraction(x) for x in range(1, 6))


def test_constructor_moves_a_root_at_inf():
    # the constructor moves a root at inf by x -> 1/(x - c), c the least
    # non-negative int that is not a root, and names the map in the note
    cfg = RootConfig(2, WITH_INF)
    assert cfg.roots == (0, 1) + tuple(Fraction(1, x) for x in range(2, 6))
    assert cfg.note == "applied x -> 1/(x - 0)"
    cfg = RootConfig(2, (Fraction(3), 0, 1, INF, 2, Fraction(5)))
    assert cfg.roots == (-1, Fraction(-1, 4), Fraction(-1, 3), 0, Fraction(-1, 2), 1)
    assert cfg.note == "applied x -> 1/(x - 4)"
    assert CFG6.note == "" and CFG6.roots == tuple(range(6))


def test_mobius_invariance():
    from hypinv.rational import mobius

    def by_hand(genus, roots, c):  # x -> 1/(x - c)
        return RootConfig(genus, tuple(mobius(r, 0, 1, 1, -c) for r in roots))

    # CFG6 moved by c = 7, and a root at inf moved by the constructor (c = 0
    # and c = 3) and by hand with another c': the same invariants
    with_inf3 = (Fraction(1, 3), INF, 0, 9, 2, Fraction(-5, 2), 27, 1)
    pairs = [
        (CFG6, by_hand(2, CFG6.roots, 7)),
        (RootConfig(2, WITH_INF), by_hand(2, WITH_INF, 7)),
        (RootConfig(3, with_inf3), by_hand(3, with_inf3, 4)),
    ]
    for cfg, moved in pairs:
        assert moved.note == ""
        n = len(cfg.roots)
        for i, j, k in itertools.permutations(range(n), 3):
            assert symroot_pow(moved, i, j, k) == symroot_pow(cfg, i, j, k)
            for p in (3, 5, 7):
                assert symroot_val(moved, p, i, j, k) == symroot_val(cfg, p, i, j, k)
        for quad in itertools.permutations(range(n), 4):
            assert cross_ratio(moved, *quad) == cross_ratio(cfg, *quad)
        for i, j in itertools.permutations(range(n), 2):
            assert sym_discriminant(moved, i, j) == sym_discriminant(cfg, i, j)
    assert RootConfig(3, with_inf3).note == "applied x -> 1/(x - 3)"


def test_symroot_requires_finite():
    # a root at inf never reaches symroot_pow: it reads the moved roots
    cfg = RootConfig(2, WITH_INF)
    by_hand = RootConfig(2, (0, 1) + tuple(Fraction(1, x) for x in range(2, 6)))
    assert cfg == by_hand
    for i, j, k in itertools.permutations(range(6), 3):
        assert symroot_pow(cfg, i, j, k) == symroot_pow(by_hand, i, j, k)


# --- seeded random rational configurations of genus 2-6 -------------------


def random_rational_config(rng, g):
    """2g+2 distinct rationals, some with 3, 5 or 9 in the denominator."""
    roots = []
    while len(roots) < 2 * g + 2:
        x = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 5, 9)))
        if x not in roots:
            roots.append(x)
    return RootConfig(g, tuple(roots))


RANDOM_CFGS = [
    random_rational_config(random.Random(100 * g + case), g)
    for g in range(2, 7)
    for case in range(3)
]
RANDOM_IDS = [f"g{cfg.genus}-{k}" for k, cfg in enumerate(RANDOM_CFGS)]


def _triples(cfg, count, seed):
    triples = list(itertools.permutations(range(len(cfg.roots)), 3))
    return random.Random(seed).sample(triples, min(count, len(triples)))


@pytest.mark.parametrize("cfg", RANDOM_CFGS, ids=RANDOM_IDS)
def test_cocycle_random(cfg):
    for i, j, k in _triples(cfg, 30, 1):
        prod = (
            symroot_pow(cfg, i, j, k)
            * symroot_pow(cfg, j, k, i)
            * symroot_pow(cfg, k, i, j)
        )
        assert prod == -1


@pytest.mark.parametrize("cfg", RANDOM_CFGS, ids=RANDOM_IDS)
def test_disc_product_one_random(cfg):
    n = len(cfg.roots)
    for i in range(n):
        prod = Fraction(1)
        for m in range(n):
            if m != i:
                prod *= sym_discriminant(cfg, i, m)
        assert prod == 1


@pytest.mark.parametrize("cfg", RANDOM_CFGS, ids=RANDOM_IDS)
def test_disc_ratio_identity_random(cfg):
    g2 = 2 * cfg.genus
    for i, j, k in _triples(cfg, 20, 2):
        lhs = sym_discriminant(cfg, i, k) / sym_discriminant(cfg, j, k)
        assert lhs == -symroot_pow(cfg, i, j, k) ** (g2 + 1)


@pytest.mark.parametrize("cfg", RANDOM_CFGS, ids=RANDOM_IDS)
def test_disc_numeric_oracle_random(cfg):
    # the floating path of test_disc_numeric_oracle in logarithms, so that
    # products of up to 2g(2g-1) factors neither overflow nor underflow:
    # sum cmath.log(l_r - l_s) over r != s against log d_ij
    g2 = 2 * cfg.genus
    a = [complex(x) for x in cfg.roots]
    pairs = list(itertools.permutations(range(len(a)), 2))
    for i, j in random.Random(3).sample(pairs, 6):
        others = [r for r in range(len(a)) if r not in (i, j)]
        m = {r: (a[i] - a[r]) / (a[j] - a[r]) for r in others}
        log_p = sum(cmath.log((a[j] - a[r]) / (a[i] - a[r])) for r in others)
        t = cmath.exp(log_p / g2)  # one 2g-th root of P
        log_num = sum(
            cmath.log(m[r] * t - m[s] * t) for r, s in itertools.permutations(others, 2)
        )
        exact = sym_discriminant(cfg, i, j)
        log_abs = math.log(abs(exact.numerator)) - math.log(exact.denominator)
        assert math.isclose(log_num.real, log_abs, rel_tol=1e-9, abs_tol=1e-9)
        phase = math.pi if exact < 0 else 0.0
        turns = (log_num.imag - phase) / (2 * math.pi)
        assert abs(turns - round(turns)) < 1e-9


# --- cost guard: one valuation table per (configuration, prime) --------------


def _count_calls(monkeypatch, name):
    """Count calls of ``rational.<name>`` under every hypinv name for it."""
    real = getattr(rational, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "hypinv" or mod_name.startswith("hypinv."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_valuations_per_call_do_not_grow_with_genus(monkeypatch):
    tables = _count_calls(monkeypatch, "valuation_table")
    int_vals = _count_calls(monkeypatch, "_int_val")
    for g in range(2, 9):
        rng = random.Random(g)
        normal = verify.random_normal_form_config(rng, g, 3)
        # p in a denominator: not in normal form, build_tree raises
        other = RootConfig(g, normal.roots[:-1] + (Fraction(1, 9),))
        for cfg in (normal, other):
            tables.clear()
            report = clustertree.check_normal_form(cfg, 3)
            try:
                clustertree.build_tree(cfg, 3)
            except clustertree.NormalFormError as err:
                assert err.report == report
            assert report.ok == (cfg is normal)
            int_vals.clear()
            n = len(cfg.roots)
            for t in itertools.permutations(range(n), 3):
                symroot_val(cfg, 3, *t)
            for quad in rng.sample(list(itertools.permutations(range(n), 4)), 40):
                pairing_cross_ratio(cfg, 3, *quad)
            assert tables == [(cfg.roots, 3)]
            assert int_vals == []


# --- cost guard: no Fraction constructor or arithmetic in a query ---------

#: Fraction's constructor, its arithmetic and its other constructors; a
#: query that ran any of them would show in the list of ``_trap_fraction``
FRACTION_WORK = (
    "__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
    "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__",
    "__pos__", "__abs__", "__trunc__", "__floor__", "__ceil__", "__round__",
    "from_float", "from_decimal", "limit_denominator", "_from_coprime_ints",
)


def _trap_fraction(monkeypatch):
    """Record every call of ``FRACTION_WORK`` on ``Fraction`` until undone
    (``_from_coprime_ints``, which the arithmetic calls from Python 3.12 on,
    only where it exists)."""
    ran = []
    for name in FRACTION_WORK:
        if not hasattr(Fraction, name):
            continue
        real = getattr(Fraction, name)  # a classmethod comes bound

        def trapped(*args, name=name, real=real, **kwargs):
            ran.append(name)
            return real(*args, **kwargs)

        bound = isinstance(vars(Fraction).get(name), (staticmethod, classmethod))
        monkeypatch.setattr(Fraction, name, staticmethod(trapped) if bound else trapped)
    return ran


def _same_fields(got, num, den):
    """``got`` is a Fraction with the fields, hash and repr of Fraction(num, den)."""
    ref = Fraction(num, den)
    return (
        type(got) is Fraction
        and (got._numerator, got._denominator) == (ref._numerator, ref._denominator)
        and got._denominator > 0
        and hash(got) == hash(ref)
        and repr(got) == repr(ref)
    )


def test_per_triple_queries_build_one_fraction_without_the_constructor(monkeypatch):
    # symroot_val and pairing_from_tree set the two slots of a new Fraction
    # themselves: no Fraction(...), no Fraction arithmetic and no
    # rational._fraction; pairing_difference, mult_y, v_mult and
    # pairing_cross_ratio make their one Fraction through _fraction, and
    # return it; no query runs the constructor or an arithmetic dunder
    cfg = RootConfig(3, (0, 9, 81, 1, 10, 82, 2, 11))
    tree = clustertree.build_tree(cfg, 3)
    twice_g = symroots._valuations(cfg, 3)[2]  # the table is kept before counting
    # 2 (W_0, V_1) off by one: a tree whose pairings are not all integers
    wv2 = [list(row) for row in tree.wv2]
    wv2[0][1] += 1
    odd = clustertree.ClusterTree(*tree._values()[:-1], wv2)
    g21, n = 2 * cfg.genus - 1, len(cfg.roots)
    made, real = [], rational._fraction

    def counted(num, den):
        made.append(real(num, den))
        return made[-1]

    for module in (symroots, clustertree):
        monkeypatch.setattr(module, "_fraction", counted)
    in_frame = [  # (query, the integer pair it must reduce)
        (lambda t: symroot_val(cfg, 3, *t), lambda i, j, k: (twice_g[i][k] - twice_g[j][k], 6)),
        (
            lambda t: clustertree.pairing_from_tree(tree, *t),
            lambda i, j, k: (clustertree._twice_pairing(tree.wv2, g21, i, j, k), 2),
        ),
        (
            lambda t: clustertree.pairing_from_tree(odd, *t),
            lambda i, j, k: (clustertree._twice_pairing(odd.wv2, g21, i, j, k), 2),
        ),
    ]
    through_fraction = [
        lambda i, j, k: pairing_difference(cfg, 3, i, j, k),
        lambda i, j, k: pairing_cross_ratio(cfg, 3, i, j, k, min({0, 1, 2, 3} - {i, j, k})),
        lambda i, j, k: clustertree.mult_y(tree, tree.node_of_root[i]),
        lambda i, j, k: clustertree.v_mult(tree, k, tree.node_of_root[i]),
    ]
    triples = list(itertools.permutations(range(n), 3))
    ran = _trap_fraction(monkeypatch)
    got, via, halves = [], [], []
    for t in triples:
        made.clear()
        for query, _ in in_frame:
            got.append((query(t), query(t)))
        via.append(made == [])
        for query in through_fraction:
            made.clear()
            result = query(*t)
            via.append(len(made) == 1 and made[0] is result)
        halves.append(pairing_difference(cfg, 3, *t))
    assert ran == []
    monkeypatch.undo()
    assert all(via)
    expected = [pair(*t) for t in triples for _, pair in in_frame]
    for (first, again), (num, den) in zip(got, expected):
        assert first is not again and first == again
        assert _same_fields(first, num, den), (first, num, den)
    # results over 2g = 6 reduced to 3 and to 1, and over 2 both ways
    assert {first._denominator for first, _ in got} == {1, 2, 3}
    # pairing_difference is (C_ik - C_jk) / 4g, over 4g = 12 reduced to 6, 3 and 1
    for (i, j, k), half in zip(triples, halves):
        assert _same_fields(half, twice_g[i][k] - twice_g[j][k], 12), (half, i, j, k)
    assert {half._denominator for half in halves} == {1, 3, 6}


def test_fraction_keeps_the_two_slots_the_in_frame_constructions_set():
    assert Fraction.__slots__ == ("_numerator", "_denominator"), (
        "rational._fraction and the in-frame constructions of symroot_val "
        "and pairing_from_tree set exactly these two "
        "slots of object.__new__(Fraction); this Python's Fraction has "
        f"{Fraction.__slots__!r}"
    )
