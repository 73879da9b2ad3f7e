import pytest

from hypinv import verify


def test_suite_names_exposed():
    assert set(verify.SUITES) == set(verify._RUNNERS)


def test_unknown_suite():
    with pytest.raises(ValueError):
        verify.run_suite("nope")


def test_identities_suite_small():
    doc = verify.run_suite("identities", 3, configs_per_genus=8, mobius_maps=2)
    assert doc["failed"] == 0
    assert doc["passed"] == 3 * 8 * 5


def test_cluster_suite_small():
    doc = verify.run_suite("cluster-vs-symroots", 3, n_configs=24)
    assert doc["failed"] == 0
    assert doc["passed"] + doc["skipped"] == 24


def test_cluster_suite_records_skip_reasons():
    doc = verify.run_suite("cluster-vs-symroots", 3, n_configs=40)
    assert doc["skipped"] > 0
    assert len(doc["skips"]) == doc["skipped"]
    assert all(
        label.endswith(": precondition (not normal form)") for label in doc["skips"]
    )
    assert doc["skips"][0].startswith("case=9:")


def test_genus2_table_suite():
    doc = verify.run_suite("genus2-table", 0)
    assert doc["failed"] == 0
    # 7 types, arities (0,1,1,2,2,3,3) over {1,2,3}: 79 rows, 4 checks each
    assert doc["passed"] == 79 * 4


def test_phi_equals_chi_suite():
    doc = verify.run_suite("phi-equals-chi", 0)
    assert doc["failed"] == 0
    assert doc["passed"] == 79


def test_subdivision_suite():
    doc = verify.run_suite("subdivision", 5)
    assert doc["failed"] == 0


def test_determinism():
    a = verify.run_suite("cluster-vs-symroots", 11, n_configs=12)
    b = verify.run_suite("cluster-vs-symroots", 11, n_configs=12)
    assert a == b


def test_normal_form_generator():
    import random

    from hypinv import clustertree

    rng = random.Random(2)
    for g, p in ((2, 3), (3, 5), (2, 7)):
        cfg = verify.random_normal_form_config(rng, g, p)
        assert clustertree.check_normal_form(cfg, p).ok
