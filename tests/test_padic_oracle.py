"""The valuation-table p-adic layer against the old per-call one.

``oracle_padic`` is the previous implementation, kept verbatim.  Both are
exact, so trees, multiplicities and valuations must agree exactly, and
non-normal-form input must be rejected with the same text.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

import oracle_padic as old
from hypinv import cli, clustertree, rational, symroots, verify
from hypinv.symroots import RootConfig

PRIMES = (3, 5, 7)


def chain_config(rng, g, p, depth):
    """Normal-form configuration whose residue class of 0 is a nested chain
    of clusters down to the even level ``depth``.

    The class of 0 holds 0, p**depth and u*p**l for distinct even levels l
    and units u; the other 2g+2 - c roots lie in at least two other classes
    as res + u*p**(2e) for distinct e.  Every pairwise valuation is even.
    """
    n = 2 * g + 2
    c = rng.randint(2, min(n - 2, depth // 2 + 1))
    chain = [0, p**depth] + [
        rng.randint(1, p - 1) * p**lvl
        for lvl in rng.sample(range(2, depth, 2), c - 2)
    ]
    residues = list(range(1, p))
    counts = dict.fromkeys(rng.sample(residues, 2), 1)
    for _ in range(n - c - len(counts)):
        res = rng.choice(residues)
        counts[res] = counts.get(res, 0) + 1
    others = []
    for res, cnt in counts.items():
        exps = rng.sample(range(1, 12), cnt - 1)
        others += [res] + [res + rng.choice((1, p + 1)) * p ** (2 * e) for e in exps]
    roots = chain + others
    rng.shuffle(roots)
    return RootConfig(g, tuple(Fraction(x) for x in roots))


def configurations():
    """(config, prime) pairs: shallow at genus 2-8, nested chains up to depth
    800, and a few with roots divided by a unit, so denominators prime to p."""
    rng = random.Random(20)
    out = []
    for g in range(2, 9):
        for p in PRIMES:
            out.append((verify.random_normal_form_config(rng, g, p), p))
    for g, p, depth in ((2, 3, 40), (3, 5, 40), (2, 3, 500), (4, 7, 120), (2, 3, 800)):
        out.append((chain_config(rng, g, p, depth), p))
    for cfg, p in out[:6]:
        unit = Fraction(1, p + 1)
        out.append((RootConfig(cfg.genus, tuple(x * unit for x in cfg.roots)), p))
    return out


CONFIGS = configurations()
IDS = [f"g{cfg.genus}-p{p}-n{len(cfg.roots)}-{k}" for k, (cfg, p) in enumerate(CONFIGS)]


def test_generated_configs_are_normal_form():
    depths = [max(clustertree.build_tree(cfg, p).depth.values()) for cfg, p in CONFIGS]
    assert all(clustertree.check_normal_form(cfg, p).ok for cfg, p in CONFIGS)
    assert {40, 120, 500, 800} <= set(depths)


def flat_levels(tree):
    """The leveled list, one (level, members, representative) per class: the
    representative is the value of the smallest-index member, as ``hypinv
    cluster`` prints it."""
    return [
        (n, c.members, tree.config.roots[min(c.members)])
        for n, alive in tree.levels().items()
        for c in alive
    ]


@pytest.mark.parametrize(("cfg", "p"), CONFIGS, ids=IDS)
def test_tree_matches_oracle(cfg, p):
    new_tree = clustertree.build_tree(cfg, p)
    old_tree = old.build_tree(cfg, p)
    assert clustertree.check_normal_form(cfg, p) == old.check_normal_form(cfg, p)
    assert flat_levels(new_tree) == [
        (c.level, c.members, c.representative) for c in old_tree.nodes
    ]
    # a cluster's parent is its nearest oracle ancestor with other members
    oracle_node = {(c.level, c.members): c for c in old_tree.nodes}
    for node in new_tree.nodes:
        up = oracle_node[node.level, node.members]
        while up is not None and up.members == node.members:
            up = old_tree.parent.get(up)
        # an oracle node also holds its representative: compare (level, members)
        assert new_tree.parent.get(node) == (None if up is None else up[:2])
    assert new_tree.node_of_root == {r: c[:2] for r, c in old_tree.node_of_root.items()}
    assert new_tree.depth == old_tree.depth
    n = len(cfg.roots)
    for node in old_tree.nodes:
        for k in range(n):
            assert clustertree.v_mult(new_tree, k, node) == old.v_mult(old_tree, k, node)
            assert clustertree.mult_x(new_tree, node, k) == old.mult_x(old_tree, node, k)


@pytest.mark.parametrize(("cfg", "p"), CONFIGS, ids=IDS)
def test_one_node_per_cluster_whatever_the_depth(cfg, p):
    # a proper cluster splits into at least two parts, so 2g + 1 at most
    assert len(clustertree.build_tree(cfg, p).nodes) <= len(cfg.roots) - 1


ANCHORS = [
    pytest.param(cfg, p, id=f"depth{d}")
    for cfg, p in CONFIGS
    if (d := max(clustertree.build_tree(cfg, p).depth.values())) in (500, 800)
] + [pytest.param(RootConfig(2, tuple(map(Fraction, (0, 81, 9, 1, 2, 11)))), 3, id="nested")]


@pytest.mark.parametrize(("cfg", "p"), ANCHORS)
def test_cli_cluster_prints_the_oracle_levels(cfg, p, tmp_path, capsys):
    curve = tmp_path / "curve.json"
    roots = [rational.format_rat(x) for x in cfg.roots]
    curve.write_text(json.dumps({"genus": cfg.genus, "roots": roots}))
    argv = ["cluster", "--curve", str(curve), "--prime", str(p), "--all-triples"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tree"]["nodes"] == [
        {
            "level": c.level,
            "members": sorted(c.members),
            "representative": rational.format_rat(c.representative),
        }
        for c in old.build_tree(cfg, p).nodes
    ]
    assert all(rec["match"] for rec in doc["pairings"].values())


@pytest.mark.parametrize(("cfg", "p"), CONFIGS, ids=IDS)
def test_pairings_match_oracle(cfg, p):
    new_tree = clustertree.build_tree(cfg, p)
    old_tree = old.build_tree(cfg, p)
    for i, j, k in itertools.permutations(range(len(cfg.roots)), 3):
        assert clustertree.pairing_from_tree(new_tree, i, j, k) == old.pairing_from_tree(
            old_tree, i, j, k
        )
        assert symroots.symroot_val(cfg, p, i, j, k) == old.symroot_val(cfg, p, i, j, k)


@pytest.mark.parametrize(("cfg", "p"), CONFIGS[::3], ids=IDS[::3])
def test_cross_ratio_pairing_matches_oracle(cfg, p):
    quads = list(itertools.permutations(range(len(cfg.roots)), 4))
    for quad in random.Random(len(quads)).sample(quads, min(len(quads), 600)):
        assert symroots.pairing_cross_ratio(cfg, p, *quad) == old.pairing_cross_ratio(
            cfg, p, *quad
        )


def _cfg(*roots):
    return RootConfig(2, tuple(Fraction(x) for x in roots))


BAD = [
    (_cfg(Fraction(1, 3), 0, 1, 2, 9, 11), 3),  # non-integral root
    (_cfg(Fraction(2, 9), Fraction(1, 3), 1, 2, 9, 11), 3),  # two of them
    (_cfg(0, 3, 1, 4, 2, 5), 3),  # odd valuations
    (_cfg(0, 9, 18, 1, 10, 19), 3),  # two residue classes
    (_cfg(0, 5, 1, 6, 25, 125), 5),  # odd valuations and two classes
]


@pytest.mark.parametrize(("cfg", "p"), BAD)
def test_rejections_match_oracle(cfg, p):
    report = clustertree.check_normal_form(cfg, p)
    assert not report.ok
    assert report.violations == old.check_normal_form(cfg, p).violations
    with pytest.raises(ValueError) as new_err:
        clustertree.build_tree(cfg, p)
    with pytest.raises(ValueError) as old_err:
        old.build_tree(cfg, p)
    assert str(new_err.value) == str(old_err.value)


@pytest.mark.parametrize("p", (2, 4, 9, -3, 3.0))
def test_prime_errors_match_oracle(p):
    cfg, _ = CONFIGS[0]
    for new_fn, old_fn in (
        (clustertree.check_normal_form, old.check_normal_form),
        (clustertree.build_tree, old.build_tree),
    ):
        with pytest.raises(ValueError) as new_err:
            new_fn(cfg, p)
        with pytest.raises(ValueError) as old_err:
            old_fn(cfg, p)
        assert str(new_err.value) == str(old_err.value)
    with pytest.raises(ValueError) as new_err:
        symroots.symroot_val(cfg, p, 0, 1, 2)
    with pytest.raises(ValueError) as old_err:
        old.symroot_val(cfg, p, 0, 1, 2)
    assert str(new_err.value) == str(old_err.value)


# --- independent checks -----------------------------------------------------


def test_int_val_against_division_loop():
    # old._int_val is the repeated-division loop
    rng = random.Random(5)
    for p in (3, 5, 7, 101):
        for k in list(range(0, 70)) + rng.sample(range(70, 5001), 25) + [5000]:
            u = rng.randrange(1, 10**6) * rng.choice((1, -1))
            if u % p == 0:
                u += 1
            n = u * p**k
            assert rational._int_val(n, p) == old._int_val(n, p) == k


def test_int_val_hostile_power_is_fast():
    # repeated division would take minutes here
    assert rational._int_val(7 * 3**200000, 3) == 200000


def test_val_with_p_in_denominator():
    rng = random.Random(6)
    for p in PRIMES:
        for _ in range(200):
            a, b = rng.randrange(0, 300), rng.randrange(0, 300)
            u = rng.randrange(1, 10**4)
            w = rng.randrange(1, 10**4)
            u, w = u * p + 1, w * p + 2  # units
            q = Fraction(u * p**a, w * p**b)
            assert rational.val(q, p) == a - b
            assert rational.val(q, p) == old._int_val(q.numerator, p) - old._int_val(q.denominator, p)


def test_val_diff_against_val():
    rng = random.Random(7)
    for p in PRIMES:
        for _ in range(300):
            x = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**3) * p ** rng.randrange(3))
            y = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**3))
            if x == y:
                continue
            assert rational.valuation_table((x, y), p)[0][1] == rational.val(x - y, p)


def test_valuation_table_symmetric_with_infinite_diagonal():
    cfg, p = CONFIGS[-1]
    table = rational.valuation_table(cfg.roots, p)
    n = len(cfg.roots)
    for r in range(n):
        assert table[r][r] == float("inf")
        for s in range(n):
            if s != r:
                assert table[r][s] == table[s][r] == rational.val(cfg.roots[r] - cfg.roots[s], p)


@pytest.mark.parametrize(
    ("cfg", "p"),
    [c for c in CONFIGS if all(x.denominator == 1 for x in c[0].roots)],
)
def test_levels_against_brute_force_congruence(cfg, p):
    a = [int(x) for x in cfg.roots]
    tree = clustertree.build_tree(cfg, p)
    levels = tree.levels()
    assert set(levels) == set(range(max(tree.depth.values()) + 1))
    for n, nodes in levels.items():
        q = p**n
        classes = {}
        for r in range(len(a)):
            key = next(s for s in range(r + 1) if (a[r] - a[s]) % q == 0)
            classes.setdefault(key, []).append(r)
        expected = [
            (frozenset(m), Fraction(a[key]))
            for key, m in sorted(classes.items())
            if len(m) >= 2
        ]
        assert [(c.members, cfg.roots[min(c.members)]) for c in nodes] == expected


def _count_is_prime(monkeypatch):
    calls = []
    real = rational.is_prime

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(rational, "is_prime", counted)
    return calls


def test_prime_checked_once_per_public_call(monkeypatch):
    # the call that builds the (configuration, prime) table checks p once;
    # later calls with the same int p read the kept table and check nothing
    base, p = CONFIGS[3]
    tree = clustertree.build_tree(base, p)
    calls = _count_is_prime(monkeypatch)
    for call in (
        lambda c: symroots.symroot_val(c, p, 0, 1, 2),
        lambda c: symroots.pairing_difference(c, p, 0, 1, 2),
        lambda c: symroots.pairing_cross_ratio(c, p, 0, 1, 2, 3),
        lambda c: clustertree.check_normal_form(c, p),
        lambda c: clustertree.build_tree(c, p),
    ):
        cfg = RootConfig(base.genus, base.roots)  # keeps no table yet
        for expected in ([p], [], []):
            calls.clear()
            call(cfg)
            assert calls == expected
    calls.clear()
    clustertree.pairing_from_tree(tree, 0, 1, 2)
    clustertree.v_mult(tree, 0, tree.nodes[-1])
    assert calls == []
