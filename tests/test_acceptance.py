"""End-to-end acceptance suite.

One test per shipped guarantee; each prints a single pass/fail line so the
suite doubles as a release checklist.  Every equality below is exact rational
arithmetic — no tolerances anywhere.
"""

import itertools
import time
from fractions import Fraction

from hypinv import clustertree, invariants, metgraph, symroots, verify
from hypinv.invariants import GENUS2_ARITY, NodeCounts
from hypinv.symroots import RootConfig

F = Fraction

WORKED = RootConfig(2, tuple(F(x) for x in (0, 9, 1, 10, 2, 11)))


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def all_rows(values=(1, 2, 3)):
    for fiber_type, arity in GENUS2_ARITY.items():
        if fiber_type == "I":
            continue
        for params in itertools.product(values, repeat=arity):
            yield fiber_type, params


def test_criterion_1_genus2_table_eps_delta():
    start = time.monotonic()
    cases = 0
    ok = True
    for fiber_type, params in all_rows():
        row = invariants.genus2_row(fiber_type, params)
        graph = invariants.genus2_graph(fiber_type, params)
        eps, _ = metgraph.epsilon_phi(graph)
        ok = ok and eps == row.eps and metgraph.delta(graph) == row.delta
        cases += 1
    elapsed = time.monotonic() - start
    ok = ok and cases >= 30 and elapsed < 10
    report(
        f"criterion 1: genus-2 table (epsilon, delta) exact on {cases} cases "
        f"in {elapsed:.1f}s",
        ok,
    )


def test_criterion_2_phi_equals_chi():
    ok = True
    for fiber_type, params in all_rows():
        row = invariants.genus2_row(fiber_type, params)
        _, ph = metgraph.epsilon_phi(invariants.genus2_graph(fiber_type, params))
        ok = ok and ph == row.chi
    loop = metgraph.MetrizedGraph({"v": 1}, [("v", "v", F(1))])
    ok = ok and metgraph.phi(loop) == F(1, 12)
    report("criterion 2: phi = chi on all table rows, loop spot value 1/12", ok)


def test_criterion_3_chi_self_consistency():
    ok = True
    for fiber_type, params in all_rows():
        row = invariants.genus2_row(fiber_type, params)
        chi = invariants.chi_nonarch(2, 2 * row.d_half, row.eps, row.delta)
        ok = ok and chi == row.chi
    ok = ok and invariants.genus2_row("VII", (1, 1, 1)).chi == F(1, 9)
    report("criterion 3: chi = (3d - 5(eps+delta))/2 on every table row", ok)


def test_criterion_4_identity_suite():
    start = time.monotonic()
    doc = verify.run_suite("identities", seed=7)
    elapsed = time.monotonic() - start
    ok = doc["failed"] == 0 and doc["passed"] == 1500 and elapsed < 60
    report(
        f"criterion 4: symmetric-root identities, 100 configs x g in (2,3,4), "
        f"{doc['passed']} checks in {elapsed:.1f}s",
        ok,
    )


def test_criterion_5_cluster_tree_cross_check():
    doc = verify.run_suite("cluster-vs-symroots", seed=7)
    ok = doc["failed"] == 0 and doc["passed"] >= 150
    lhs = clustertree.pairing_combination(WORKED, 3, 0, 2, 1)
    rhs = 4 * symroots.symroot_val(WORKED, 3, 0, 2, 1)
    ok = ok and lhs == rhs == 8
    report(
        f"criterion 5: cluster-tree pairing = 2g(g-1) val(l) on "
        f"{doc['passed']} configs, worked vector both sides 8",
        ok,
    )


def test_criterion_6_pairing_unit_check():
    ok = symroots.pairing_difference(WORKED, 3, 0, 2, 1) == 1
    import random

    rng = random.Random(7)
    for _ in range(50):
        cfg = verify.random_config(rng, rng.choice((2, 3)))
        n = len(cfg.roots)
        i, j, k, r = rng.sample(range(n), 4)
        p = rng.choice((3, 5, 7))
        ok = ok and symroots.pairing_difference(
            cfg, p, i, j, k
        ) == -symroots.pairing_difference(cfg, p, j, i, k)
        ok = ok and symroots.pairing_cross_ratio(
            cfg, p, i, j, k, r
        ) == symroots.pairing_difference(cfg, p, i, j, k) - symroots.pairing_difference(
            cfg, p, i, j, r
        )
    report(
        "criterion 6: pairing worked value 1, antisymmetry, cross-ratio "
        "pairing = difference of pairings",
        ok,
    )


def test_criterion_7_structural_invariants():
    doc = verify.run_suite("subdivision", seed=7)
    ok = doc["failed"] == 0
    for fiber_type, params in [("III", (1,)), ("V", (1, 2)), ("VII", (2, 3, 5))]:
        graph = invariants.genus2_graph(fiber_type, params)
        mu_can = metgraph.canonical_measure(graph)
        mu_ad = metgraph.admissible_measure(graph)
        ok = ok and mu_can.total_mass(graph) == 1
        ok = ok and mu_ad.total_mass(graph) == 1
        ok = ok and metgraph.verify_admissible(graph, mu_ad) == 0
    report(
        "criterion 7: subdivision invariance, homogeneity, mass-1 measures, "
        "admissibility residual 0",
        ok,
    )


def test_criterion_8_lower_bounds_and_positivity():
    ok = invariants.yamaki_bound(
        NodeCounts(5, xi0=1, xi=(0, 0), delta_i=(0, 0))
    ) == F(1, 24)
    ok = ok and invariants.yamaki_bound(
        NodeCounts(3, xi=(0,), delta_i=(1,))
    ) == F(4, 3)
    for fiber_type, params in all_rows():
        ok = ok and invariants.genus2_row(fiber_type, params).chi > 0
    report(
        "criterion 8: lower-bound coefficients (1/24, 4/3) and chi > 0 on "
        "every non-trivial genus-2 case",
        ok,
    )
