"""Each workload's check passes the program's real outputs and counts a
perturbed result as a failure."""

import copy
import dataclasses
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

import harness
import run
import wl_cli
import wl_cluster
import wl_graph

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def env(tmp_path):
    return harness.Env(ROOT, tmp_path, traced=True)


def _failed_ops(workload, ops, results):
    passes = [harness.Pass(results, [0.0] * len(ops), [0.0] * len(ops))]
    _, failed, problems, _ = harness.count_failures(workload, ops, passes)
    assert failed == len(problems)
    return set(problems)


def _forge(obj, **changes):
    # bypass __post_init__ validation, as a faulty program could
    out = copy.copy(obj)
    for key, value in changes.items():
        object.__setattr__(out, key, value)
    return out


def test_graph_places(env):
    ops = wl_graph.places_prepare(1, env)
    subset = [op for op in ops if op.label in ("II(1,)", "III(2,)", "IV(1, 2)", "banana(5)")]
    subset.append(ops[-1])  # aggregate_global over the subset
    results = harness.run_pass(subset).results
    wl = wl_graph.GRAPH_PLACES
    assert _failed_ops(wl, subset, results) == set()

    bad = list(results)
    bad[0] = _forge(results[0], eps=results[0].eps + 1)
    assert _failed_ops(wl, subset, bad) == {0}
    bad = list(results)
    bad[2] = _forge(results[2], phi=results[2].phi * 2, chi=results[2].chi * 2)
    assert 2 in _failed_ops(wl, subset, bad)
    bad = list(results)
    bad[3] = _forge(results[3], eps=results[3].eps + F(1, 10**6))  # banana(5): invariance subset
    assert 3 in _failed_ops(wl, subset, bad)
    bad = list(results)
    bad[-1] = {g: v * 1.001 for g, v in results[-1].items()}
    assert _failed_ops(wl, subset, bad) == {len(subset) - 1}


def test_graph_queries(env):
    ops = wl_graph.queries_prepare(1, env)
    start = ops[-1].data["gdiag"]
    group = [dataclasses.replace(op, data=dict(op.data, gdiag=0)) for op in ops[start:]]
    results = harness.run_pass(group).results
    wl = wl_graph.GRAPH_QUERIES
    assert _failed_ops(wl, group, results) == set()
    kinds = [op.kind for op in group]

    r = kinds.index("resistance")
    bad = list(results)
    bad[r] = results[r] + F(1, 7)
    assert _failed_ops(wl, group, bad) == {r}
    g2 = len(kinds) - 2  # g(y, x), checked against g(x, y) and the diagonal
    bad = list(results)
    bad[g2] = results[g2] + 1
    assert _failed_ops(wl, group, bad) == {g2}
    bad = list(results)
    gd = results[0]
    bad[0] = dataclasses.replace(gd, vertex_values={v: x + 1 for v, x in gd.vertex_values.items()},
                                 edge_coeffs={e: (c[0] + 1,) + c[1:] for e, c in gd.edge_coeffs.items()})
    assert g2 in _failed_ops(wl, group, bad)
    bad = list(results)
    bad[-1] = F(1, 3)
    assert _failed_ops(wl, group, bad) == {len(group) - 1}


def test_cluster_sweep(env):
    ops = wl_cluster.prepare(1, env)[:2]
    results = harness.run_pass(ops).results
    wl = wl_cluster.CLUSTER_SWEEP
    assert _failed_ops(wl, ops, results) == set()

    sweep = results[0]
    lhs = list(sweep.lhs)
    lhs[5] += 1
    assert _failed_ops(wl, ops, [dataclasses.replace(sweep, lhs=tuple(lhs)), results[1]]) == {0}
    depth = dict(sweep.depth)
    depth[0] += 2
    assert _failed_ops(wl, ops, [dataclasses.replace(sweep, depth=depth), results[1]]) == {0}
    # consistent on both sides, but no longer val(l**(2g)) / 2g
    shifted = dataclasses.replace(sweep, lhs=tuple(x + 2 for x in sweep.lhs),
                                  rhs=tuple(x + 2 for x in sweep.rhs))
    assert _failed_ops(wl, ops, [shifted, results[1]]) == {0}


def test_failed_check_makes_run_incorrect(env, capsys):
    ops = wl_cluster.prepare(1, env)[:2]
    results = harness.run_pass(ops).results
    lhs = list(results[0].lhs)
    lhs[0] += 1
    perturbed = [dataclasses.replace(results[0], lhs=tuple(lhs)), results[1]]
    for given, correct in ((results, True), (perturbed, False)):
        passes = [harness.Pass(given, [0.0] * 2, [0.0] * 2)]
        counted = harness.count_failures(wl_cluster.CLUSTER_SWEEP, ops, passes)
        run.finish([], {}, *counted, ops)
        last = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert (last["correct"], last["failed"]) == (correct, 0 if correct else 1)


def _doc(result):
    return json.loads(result[1])


def _with(result, doc):
    return (result[0], json.dumps(doc))


def test_cli_verify(env):
    ops = [op for op in wl_cli.prepare(1, env) if op.kind != "verify" or "subdivision" in op.label]
    results = harness.run_pass(ops).results
    wl = wl_cli.CLI_VERIFY
    assert _failed_ops(wl, ops, results) == set()

    def perturbed(kind, edit, family=False):
        i = next(k for k, op in enumerate(ops)
                 if op.kind == kind and (kind != "graph" or ("row" in op.data) != family))
        doc = _doc(results[i])
        edit(doc)
        bad = list(results)
        bad[i] = _with(results[i], doc)
        return i, _failed_ops(wl, ops, bad)

    def first_pairing(doc):
        rec = next(iter(doc["pairings"].values()))
        rec["match"] = False

    def first_nu(doc):
        rec = next(iter(doc["results"].values()))
        rec["nu_l"] = rec["nu_l"] + "1"

    edits = {
        "verify": lambda doc: doc.update(failed=1),
        "genus2": lambda doc: doc["graph_check"].update(matches_table=False),
        "graph": lambda doc: doc.update(epsilon="1/7"),
        "cluster": first_pairing,
        "symroots": first_nu,
        "chi": lambda doc: doc.update(chi="0"),
        "global": lambda doc: doc.update(omega_omega_adm="1.5"),
    }
    for kind, edit in edits.items():
        i, failed = perturbed(kind, edit)
        assert failed == {i}, kind
    i, failed = perturbed("graph", lambda doc: doc.update(delta="1/7"), family=True)
    assert failed == {i}
    bad = list(results)
    bad[0] = (2, results[0][1])
    assert _failed_ops(wl, ops, bad) == {0}


def test_failures_repeat_in_every_pass():
    ops = [harness.Op("x", "ok", lambda _: 1), harness.Op("x", "raises", lambda _: 1 / 0)]
    wl = harness.Workload(None, None, lambda ops, results: {})
    passes = [harness.run_pass(ops) for _ in range(3)]
    attempted, failed, problems, reproducible = harness.count_failures(wl, ops, passes)
    assert (attempted, failed, set(problems), reproducible) == (6, 3, {1}, True)


def test_tail_has_ten_ops_above_it():
    times = [i / 1000 for i in range(40)]
    stats = harness.latency_stats([harness.Pass([None] * 40, times, times)])
    assert stats["tail_s"] == 29 / 1000
    assert stats["tail_percentile"] == 75.0
    assert sum(t > stats["tail_s"] for t in times) == 10
