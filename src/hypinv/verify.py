"""Built-in cross-module verification suites.

Each suite is deterministic given its seed and checks one family of exact
identities: the symmetric-root identity web, the cluster-tree versus
symmetric-root valuation cross-check, the genus-2 table, phi = chi on the
mapped graphs, and subdivision/homogeneity invariance of the graph
invariants.

The cluster-tree suite compares integers on every triple: 2 * pairing is
``clustertree._twice_pairing`` and 2g val(l_ijk) is C_ik - C_jk from the
configuration's kept matrix C (``symroots._valuations``), the numerators
that ``pairing_from_tree`` and ``symroot_val`` put over 2 and 2g.  Two
triples per configuration also check ``symroot_val`` itself against the
valuation of ``symroot_pow``, which reads no table.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# each suite imports the layers it checks, so one suite loads no other
from .rational import mobius, val


def random_config(rng, g, lo=-60, hi=60):
    """Distinct-integer branch configuration of genus g."""
    from .symroots import RootConfig

    roots = rng.sample(range(lo, hi + 1), 2 * g + 2)
    return RootConfig(g, tuple(Fraction(x) for x in roots))


def random_normal_form_config(rng, g, p):
    """Random configuration in normal form at p.

    Values are built bottom-up as residue + p**2 * subvalue, which forces
    every pairwise valuation to be even; the top level uses at least three
    residue classes mod p.
    """
    from .symroots import RootConfig

    def build(count, depth):
        if count == 1:
            return [0]
        lo = 3 if depth == 0 else 2
        ncls = rng.randint(min(lo, count, p), min(count, p))
        parts = [1] * ncls
        for _ in range(count - ncls):
            parts[rng.randrange(ncls)] += 1
        residues = rng.sample(range(p), ncls)
        values = []
        for res, cnt in zip(residues, parts):
            values.extend(res + p * p * s for s in build(cnt, depth + 1))
        return values

    roots = build(2 * g + 2, 0)
    rng.shuffle(roots)
    return RootConfig(g, tuple(Fraction(x) for x in roots))


def random_mobius(rng):
    """Random rational fractional-linear map with nonzero determinant."""
    while True:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        if a * d - b * c != 0:
            return (a, b, c, d)


def _apply_mobius(cfg, coeffs):
    from .symroots import RootConfig, normalize_finite

    roots = tuple(mobius(r, *coeffs) for r in cfg.roots)
    return normalize_finite(RootConfig(cfg.genus, roots))


class _Tally:
    def __init__(self, name, seed):
        self.doc = {
            "suite": name,
            "seed": seed,
            "passed": 0,
            "failed": 0,
            "skipped": 0,
            "failures": [],
            "skips": [],
        }

    def check(self, ok, label):
        if ok:
            self.doc["passed"] += 1
        else:
            self.doc["failed"] += 1
            self.doc["failures"].append(label)


def _suite_identities(tally, rng):
    from . import symroots

    for g in (2, 3, 4):
        g2 = 2 * g
        for case in range(100):
            cfg = random_config(rng, g)
            n = len(cfg.roots)
            i, j, k, r = rng.sample(range(n), 4)
            tag = f"g={g} case={case}"
            base = symroots.symroot_pow(cfg, i, j, k)
            cocycle = base * symroots.symroot_pow(cfg, j, k, i)
            cocycle *= symroots.symroot_pow(cfg, k, i, j)
            tally.check(cocycle == -1, f"cocycle {tag}")
            prod = Fraction(1)
            for m in range(n):
                if m != i:
                    prod *= symroots.sym_discriminant(cfg, i, m)
            tally.check(prod == 1, f"disc-product-one {tag}")
            lhs = symroots.sym_discriminant(cfg, i, k) / symroots.sym_discriminant(
                cfg, j, k
            )
            tally.check(lhs == -base ** (g2 + 1), f"disc-ratio {tag}")
            quot = base / symroots.symroot_pow(cfg, i, j, r)
            mu = symroots.cross_ratio(cfg, i, j, k, r)
            tally.check(quot == mu**g2, f"cross-ratio-quotient {tag}")
            moved = [_apply_mobius(cfg, random_mobius(rng)) for _ in range(5)]
            ok = all(symroots.symroot_pow(m, i, j, k) == base for m in moved)
            tally.check(ok, f"mobius-invariance {tag}")


def _suite_cluster_vs_symroots(tally, rng):
    from . import clustertree, symroots

    primes = (3, 5, 7)
    for case in range(200):
        p = primes[case % len(primes)]
        g = 2 if case % 2 == 0 else 3
        tag = f"case={case} p={p} g={g}"
        if case % 10 == 9:
            # deliberately unconstrained config, usually not in normal form:
            # build_tree must raise exactly when check_normal_form reports
            # violations, and the cross-check runs when it does not
            cfg = random_config(rng, g, lo=-10 * p * p, hi=10 * p * p)
            report = clustertree.check_normal_form(cfg, p)
            try:
                tree = clustertree.build_tree(cfg, p)
            except ValueError:
                tree = None
            if tree is None or not report.ok:
                rejected = tree is None and not report.ok
                tally.check(rejected, f"normal-form-rejection {tag}")
                continue
        else:
            cfg = random_normal_form_config(rng, g, p)
            tree = clustertree.build_tree(cfg, p)
        n = len(cfg.roots)
        # symroot_pow reads no valuation table: an anchor independent of the tree
        ok = all(
            2 * g * symroots.symroot_val(cfg, p, *t)
            == val(symroots.symroot_pow(cfg, *t), p)
            for t in ((0, 1, 2), (n - 1, 0, 1))
        )
        # pairing_from_tree = 2g(g-1) symroot_val on every triple, as the
        # integers 2 * pairing = 2(g-1) * 2g val(l_ijk)
        twice_g = symroots._valuations(cfg, p)[2]
        wv2, g21, factor = tree.wv2, 2 * g - 1, 2 * (g - 1)
        ok = ok and all(
            clustertree._twice_pairing(wv2, g21, i, j, k)
            == factor * (twice_g[i][k] - twice_g[j][k])
            for i, j, k in itertools.permutations(range(n), 3)
        )
        tally.check(ok, f"cluster-vs-symroots {tag}")


def _genus2_sweep():
    from .invariants import GENUS2_ARITY

    for fiber_type, arity in GENUS2_ARITY.items():
        for params in itertools.product((1, 2, 3), repeat=arity):
            yield fiber_type, params


def _suite_genus2_table(tally, rng):
    from . import invariants

    for fiber_type, params in _genus2_sweep():
        row = invariants.genus2_row(fiber_type, params)
        tag = f"{fiber_type}{params}"
        graph = invariants.genus2_graph(fiber_type, params)
        rep = invariants.place_report_from_graph(tag, graph)
        tally.check(rep.eps == row.eps, f"epsilon {tag}")
        tally.check(rep.delta == row.delta, f"delta {tag}")
        tally.check(rep.d == 2 * row.d_half, f"d {tag}")
        tally.check(rep.phi == row.chi, f"phi {tag}")
        tally.check(rep.chi == row.chi, f"chi {tag}")
        chi = invariants.chi_nonarch(2, 2 * row.d_half, row.eps, row.delta)
        tally.check(chi == row.chi, f"chi-consistency {tag}")


def _suite_phi_equals_chi(tally, rng):
    from . import invariants, metgraph

    for fiber_type, params in _genus2_sweep():
        row = invariants.genus2_row(fiber_type, params)
        graph = invariants.genus2_graph(fiber_type, params)
        _, ph = metgraph.epsilon_phi(graph)
        tally.check(ph == row.chi, f"phi-equals-chi {fiber_type}{params}")


def _suite_subdivision(tally, rng):
    from . import invariants, metgraph

    cases = [
        ("II", (1,)),
        ("III", (2,)),
        ("IV", (1, 2)),
        ("V", (2, 3)),
        ("VI", (1, 2, 3)),
        ("VII", (1, 2, 3)),
    ]
    for fiber_type, params in cases:
        graph = invariants.genus2_graph(fiber_type, params)
        tag = f"{fiber_type}{params}"
        eps, ph = metgraph.epsilon_phi(graph)
        dlt = metgraph.delta(graph)
        mu = metgraph.admissible_measure(graph)
        tally.check(mu.total_mass(graph) == 1, f"mass-one {tag}")
        tally.check(
            metgraph.verify_admissible(graph, mu) == 0, f"admissible {tag}"
        )
        e = graph.edges[rng.randrange(len(graph.edges))]
        s = e.length * Fraction(rng.randint(1, 9), 10)
        sub = metgraph.subdivide(graph, e.eid, s)
        sub_eps, sub_ph = metgraph.epsilon_phi(sub)
        tally.check(sub_eps == eps, f"subdivision-epsilon {tag}")
        tally.check(sub_ph == ph, f"subdivision-phi {tag}")
        tally.check(metgraph.delta(sub) == dlt, f"subdivision-delta {tag}")
        t = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        scaled = metgraph.scale(graph, t)
        s_eps, s_ph = metgraph.epsilon_phi(scaled)
        tally.check(s_eps == t * eps, f"homogeneity-epsilon {tag}")
        tally.check(s_ph == t * ph, f"homogeneity-phi {tag}")
        tally.check(
            metgraph.delta(scaled) == t * dlt, f"homogeneity-delta {tag}"
        )


_RUNNERS = {
    "identities": _suite_identities,
    "cluster-vs-symroots": _suite_cluster_vs_symroots,
    "genus2-table": _suite_genus2_table,
    "phi-equals-chi": _suite_phi_equals_chi,
    "subdivision": _suite_subdivision,
}
SUITES = tuple(_RUNNERS)


def run_suite(name, seed=0):
    """Run one named suite at its one fixed size; deterministic for a seed."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite: {name!r} (choose from {SUITES})")
    tally = _Tally(name, seed)
    rng = random.Random(seed)
    _RUNNERS[name](tally, rng)
    return tally.doc
