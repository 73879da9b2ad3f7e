"""Built-in cross-module verification suites.

Each suite is deterministic given its seed and checks one family of exact
identities: the symmetric-root identity web, the cluster-tree versus
symmetric-root valuation cross-check, the genus-2 table, phi = chi on the
mapped graphs, and subdivision/homogeneity invariance of the graph
invariants.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# each suite imports the layers it checks, so one suite loads no other
from .rational import mobius, val

SUITES = (
    "identities",
    "cluster-vs-symroots",
    "genus2-table",
    "phi-equals-chi",
    "subdivision",
)


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


def _suite_identities(tally, rng, configs_per_genus=100, mobius_maps=5):
    from . import symroots

    for g in (2, 3, 4):
        g2 = 2 * g
        for case in range(configs_per_genus):
            cfg = random_config(rng, g)
            n = len(cfg.roots)
            i, j, k, r = rng.sample(range(n), 4)
            tag = f"g={g} case={case}"
            cocycle = (
                symroots.symroot_pow(cfg, i, j, k)
                * symroots.symroot_pow(cfg, j, k, i)
                * symroots.symroot_pow(cfg, k, i, j)
            )
            tally.check(cocycle == -1, f"cocycle {tag}")
            prod = Fraction(1)
            for m in range(n):
                if m != i:
                    prod *= symroots.sym_discriminant(cfg, i, m)
            tally.check(prod == 1, f"disc-product-one {tag}")
            lhs = symroots.sym_discriminant(cfg, i, k) / symroots.sym_discriminant(
                cfg, j, k
            )
            rhs = -symroots.symroot_pow(cfg, i, j, k) ** (g2 + 1)
            tally.check(lhs == rhs, f"disc-ratio {tag}")
            quot = symroots.symroot_pow(cfg, i, j, k) / symroots.symroot_pow(
                cfg, i, j, r
            )
            mu = symroots.cross_ratio(cfg, i, j, k, r)
            tally.check(quot == mu**g2, f"cross-ratio-quotient {tag}")
            base = symroots.symroot_pow(cfg, i, j, k)
            ok = True
            for _ in range(mobius_maps):
                moved = _apply_mobius(cfg, random_mobius(rng))
                if symroots.symroot_pow(moved, i, j, k) != base:
                    ok = False
            tally.check(ok, f"mobius-invariance {tag}")


def _suite_cluster_vs_symroots(tally, rng, n_configs=200):
    from . import clustertree, symroots

    primes = (3, 5, 7)
    for case in range(n_configs):
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
        factor = 2 * g * (g - 1)
        n = len(cfg.roots)
        # symroot_pow reads no valuation table: an anchor independent of the tree
        ok = all(
            2 * g * symroots.symroot_val(cfg, p, *t)
            == val(symroots.symroot_pow(cfg, *t), p)
            for t in ((0, 1, 2), (n - 1, 0, 1))
        ) and all(
            clustertree.pairing_from_tree(tree, *t)
            == factor * symroots.symroot_val(cfg, p, *t)
            for t in itertools.permutations(range(n), 3)
        )
        tally.check(ok, f"cluster-vs-symroots {tag}")


def _genus2_sweep():
    from .invariants import GENUS2_ARITY

    for fiber_type, arity in GENUS2_ARITY.items():
        for params in itertools.product((1, 2, 3), repeat=arity):
            yield fiber_type, params


def _suite_genus2_table(tally, rng):
    from . import invariants, metgraph

    for fiber_type, params in _genus2_sweep():
        row = invariants.genus2_row(fiber_type, params)
        graph = invariants.genus2_graph(fiber_type, params)
        tag = f"{fiber_type}{params}"
        eps, _ = metgraph.epsilon_phi(graph)
        tally.check(eps == row.eps, f"epsilon {tag}")
        tally.check(metgraph.delta(graph) == row.delta, f"delta {tag}")
        counts, _ = invariants.node_counts_from_graph(graph)
        tally.check(
            invariants.d_from_counts(counts) == 2 * row.d_half, f"d {tag}"
        )
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


def run_suite(name, seed=0, **kwargs):
    """Run one named suite; deterministic for a fixed seed."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite: {name!r} (choose from {SUITES})")
    tally = _Tally(name, seed)
    rng = random.Random(seed)
    _RUNNERS[name](tally, rng, **kwargs)
    return tally.doc
