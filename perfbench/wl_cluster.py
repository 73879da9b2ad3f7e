"""The p-adic workload ``cluster-sweep``: rational, symroots and clustertree
with no graph work."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import gen
import reference
from harness import Op, Workload
from hypinv import clustertree, symroots

PRIMES = (3, 5, 7)
#: Shallow configurations per genus.  The mix puts the median op among the
#: genus-3 configurations.
SHALLOW = {2: 16, 3: 20, 4: 6, 5: 1, 6: 1, 7: 1, 8: 1}
#: The deep nested-chain configurations: DEEP_COUNT of them, all of genus
#: DEEP_GENUS, prime DEEP_PRIME and cluster depth DEEP_DEPTH, so that they
#: cost alike.  They rank between the wide genus-6 and genus-5 ones, so the
#: tail (11th-largest op) is a deep one and build_tree moves it.
DEEP_COUNT, DEEP_GENUS, DEEP_PRIME, DEEP_DEPTH = 12, 2, 3, 500
#: Triples per configuration whose symroot_val is re-derived from
#: symroot_pow by the benchmark's own valuation.
POW_SAMPLE = 12


@dataclass(frozen=True)
class Sweep:
    """What one cluster-sweep operation returns."""

    normal_form: bool
    depth: dict  # root index -> n_r from the tree
    leaf_level: dict  # root index -> level of the deepest node holding it
    nodes: int
    lhs: tuple  # pairing_from_tree over all triples
    rhs: tuple  # 2g(g-1) * symroot_val over the same triples


def sweep(cfg, p):
    """check_normal_form, build_tree, then the all-triples cross-check."""
    report = clustertree.check_normal_form(cfg, p)
    tree = clustertree.build_tree(cfg, p)
    g = cfg.genus
    factor = 2 * g * (g - 1)
    triples = list(itertools.permutations(range(len(cfg.roots)), 3))
    lhs = tuple(clustertree.pairing_from_tree(tree, i, j, k) for i, j, k in triples)
    rhs = tuple(factor * symroots.symroot_val(cfg, p, i, j, k) for i, j, k in triples)
    return Sweep(
        report.ok,
        dict(tree.depth),
        {r: node.level for r, node in tree.node_of_root.items()},
        len(tree.nodes),
        lhs,
        rhs,
    )


def configurations(seed):
    """[(kind, genus, prime, roots)] of one seed's batch."""
    rng = gen.rng_for(seed, "cluster-sweep")
    out = []
    for g, count in SHALLOW.items():
        for _ in range(count):
            p = PRIMES[len(out) % len(PRIMES)]
            out.append(("shallow", g, p, gen.shallow_config(rng, g, p)))
    for _ in range(DEEP_COUNT):
        roots = gen.deep_config(rng, DEEP_GENUS, DEEP_PRIME, DEEP_DEPTH)
        out.append(("deep", DEEP_GENUS, DEEP_PRIME, roots))
    return out


def _op(kind, g, p, roots):
    cfg = symroots.RootConfig(g, tuple(roots))
    depths = reference.cluster_depths(roots, p)
    n = len(roots)
    factors = {
        "genus": g,
        "prime": p,
        "depth": max(depths.values()),
        "triples": n * (n - 1) * (n - 2),
    }
    data = {"cfg": cfg, "roots": roots, "prime": p, "depths": depths}
    return Op(f"{kind}_config", f"{kind} g={g} p={p}", lambda _: sweep(cfg, p), factors, data)


def prepare(seed, env):
    return [_op(*c) for c in configurations(seed)]


def warm_up(env):
    rng = gen.rng_for(0, "cluster-sweep-warm-up")
    for p in PRIMES:
        roots = gen.shallow_config(rng, 2, p)
        sweep(symroots.RootConfig(2, tuple(roots)), p)


def check(ops, results):
    problems = {}
    for i, (op, got) in enumerate(zip(ops, results)):
        found = _problems(op.data, got, gen.rng_for(i, "cluster-sweep-check"))
        if found:
            problems[i] = found
    return problems


def _problems(data, got, rng):
    if not isinstance(got, Sweep):
        return ["operation raised"]
    cfg, p, depths = data["cfg"], data["prime"], data["depths"]
    found = []
    if not got.normal_form:
        found.append("generated configuration reported as not in normal form")
    bad = sum(a != b for a, b in zip(got.lhs, got.rhs))
    if bad or len(got.lhs) != len(got.rhs):
        found.append(f"{bad} triples with pairing_from_tree != 2g(g-1) symroot_val")
    if got.depth != depths or got.leaf_level != depths:
        found.append(f"tree depths {got.depth}, leaf levels {got.leaf_level}, own n_r {depths}")
    g = cfg.genus
    triples = list(itertools.permutations(range(len(cfg.roots)), 3))
    for t in rng.sample(range(len(triples)), min(POW_SAMPLE, len(triples))):
        nu_times_2g = got.rhs[t] / (g - 1)  # 2g * symroot_val
        own = reference.valuation(symroots.symroot_pow(cfg, *triples[t]), p)
        if nu_times_2g != own:
            found.append(f"triple {triples[t]}: 2g val(l) = {nu_times_2g}, own {own}")
    return found


CLUSTER_SWEEP = Workload(
    prepare,
    warm_up,
    check,
)
