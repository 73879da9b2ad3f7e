import pytest

from hypinv import clustertree, metgraph, symroots, verify


def test_suite_names_exposed():
    assert set(verify.SUITES) == set(verify._RUNNERS)


def test_unknown_suite():
    with pytest.raises(ValueError):
        verify.run_suite("nope")


def test_identities_suite():
    doc = verify.run_suite("identities", 3)
    assert doc["failed"] == 0
    # 100 configurations for each genus 2, 3, 4; five checks each
    assert doc["passed"] == 3 * 100 * 5


def test_cluster_suite_checks_unconstrained_cases(monkeypatch):
    # every tenth case is an unconstrained configuration; it is checked
    # (build_tree raises exactly when check_normal_form reports violations),
    # never skipped
    doc = verify.run_suite("cluster-vs-symroots", 3)
    assert (doc["passed"], doc["failed"], doc["skipped"]) == (200, 0, 0)
    assert doc["skips"] == []
    # a report that misses the violations makes exactly those cases fail
    monkeypatch.setattr(
        clustertree, "check_normal_form", lambda cfg, p: clustertree.NormalFormReport(())
    )
    doc = verify.run_suite("cluster-vs-symroots", 3)
    assert doc["failures"] == [
        f"normal-form-rejection case={c} p={(3, 5, 7)[c % 3]} g=3"
        for c in range(9, 200, 10)
    ]


# cases of ``run_suite("cluster-vs-symroots", 3)`` at p = 5 and genus 3
# (case % 6 == 1) that reach the cross-check: cases 19, 49, ..., 199
# (case % 30 == 19) are unconstrained configurations that build_tree rejects
PERTURBED = [
    f"cluster-vs-symroots case={c} p=5 g=3" for c in range(1, 200, 6) if c % 30 != 19
]


def test_cluster_suite_catches_a_wrong_tree_entry(monkeypatch):
    real = clustertree.build_tree

    def build_tree(cfg, p):
        tree = real(cfg, p)
        if p == 5 and cfg.genus == 3:
            tree.wv2 = [list(row) for row in tree.wv2]
            tree.wv2[0][1] += 1  # 2 (W_0, V_1) off by one
        return tree

    monkeypatch.setattr(clustertree, "build_tree", build_tree)
    doc = verify.run_suite("cluster-vs-symroots", 3)
    assert doc["failures"] == PERTURBED
    assert doc["passed"] == 200 - len(PERTURBED)


def test_cluster_suite_catches_a_wrong_row_sum(monkeypatch):
    real = symroots._valuations

    def valuations(cfg, p):
        vals, sums, twice_g = real(cfg, p)
        if p == 5 and cfg.genus == 3:
            # S_3 off by one, in copies: C_3k = 2g V_3k - S_3 falls by one
            # in every column.  The two anchor triples (0, 1, 2) and (7, 0, 1)
            # do not read row 3, so the all-triples check must fail
            sums = sums[:3] + [sums[3] + 1] + sums[4:]
            twice_g = twice_g[:3] + [[c - 1 for c in twice_g[3]]] + twice_g[4:]
        return vals, sums, twice_g

    monkeypatch.setattr(symroots, "_valuations", valuations)
    doc = verify.run_suite("cluster-vs-symroots", 3)
    assert doc["failures"] == PERTURBED
    assert doc["passed"] == 200 - len(PERTURBED)


def test_genus2_table_suite():
    doc = verify.run_suite("genus2-table", 0)
    assert doc["failed"] == 0
    # 7 types, arities (0,1,1,2,2,3,3) over {1,2,3}: 79 rows, 6 checks each
    assert doc["passed"] == 79 * 6


def test_genus2_table_suite_catches_a_wrong_phi(monkeypatch):
    # phi off by one in the core the place path calls: every row fails its
    # phi check and no other, as chi is read from eps, not phi
    real = metgraph._epsilon_phi

    def epsilon_phi(graph, g, dn, dd):
        eps, (num, den) = real(graph, g, dn, dd)
        return eps, (num + den, den)

    monkeypatch.setattr(metgraph, "_epsilon_phi", epsilon_phi)
    doc = verify.run_suite("genus2-table", 0)
    assert doc["failures"] == [f"phi {t}{p}" for t, p in verify._genus2_sweep()]
    assert doc["passed"] == 79 * 5


def test_phi_equals_chi_suite():
    doc = verify.run_suite("phi-equals-chi", 0)
    assert doc["failed"] == 0
    assert doc["passed"] == 79


def test_subdivision_suite():
    doc = verify.run_suite("subdivision", 5)
    assert doc["failed"] == 0


#: (passed, failed) of each suite at seed 7; a new suite adds its own pin
SEED_7 = {
    "identities": (1500, 0),
    "cluster-vs-symroots": (200, 0),
    "genus2-table": (474, 0),
    "phi-equals-chi": (79, 0),
    "subdivision": (48, 0),
}


@pytest.mark.parametrize("suite", sorted(set(verify.SUITES) | set(SEED_7)))
def test_every_suite_passes_its_pinned_count_at_seed_7(suite):
    assert suite in SEED_7, f"no (passed, failed) pinned for suite {suite!r}"
    doc = verify.run_suite(suite, 7)  # raises for a pinned suite that is gone
    assert (doc["passed"], doc["failed"], doc["failures"]) == (*SEED_7[suite], [])


def test_determinism():
    a = verify.run_suite("cluster-vs-symroots", 11)
    b = verify.run_suite("cluster-vs-symroots", 11)
    assert a == b


def test_normal_form_generator():
    import random

    from hypinv import clustertree

    rng = random.Random(2)
    for g, p in ((2, 3), (3, 5), (2, 7)):
        cfg = verify.random_normal_form_config(rng, g, p)
        assert clustertree.check_normal_form(cfg, p).ok
