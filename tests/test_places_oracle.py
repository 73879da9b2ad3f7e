"""Place reports against the per-edge-search oracle.

``oracle_places`` classifies each edge by its own reachability search and
sums ``Fraction``s; the library runs one bridge search per graph and sums
integers over one denominator.  Both are exact, so counts, warnings and
every scalar of a place report must agree exactly.  A report keeps the
warnings of ``node_counts_from_graph``, and ``graph eval`` and ``genus2
--graph-check``, which print from one report, must print what the CLI's
own four-call assembly (``oracle_places.graph_eval_doc`` and
``graph_check_doc``) printed.
"""

import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given

import oracle_places as old
from hypinv import cli, invariants, metgraph, verify
from hypinv.invariants import NodeCounts
from hypinv.metgraph import MetrizedGraph
from test_metgraph import RANDOM, graph_doc
from test_metgraph_properties import PROPERTY, graphs, lengths, necklace

F = Fraction
GENUS2 = list(verify._genus2_sweep())


def report_values(graph):
    rep = invariants.place_report_from_graph("p", graph)
    return rep.d, rep.eps, rep.delta, rep.phi, rep.chi


def test_the_sweep_is_the_whole_genus2_table():
    assert len(GENUS2) == 79


@pytest.mark.parametrize("fiber_type, params", GENUS2)
def test_genus2_place_reports_match_the_oracle(fiber_type, params):
    graph = invariants.genus2_graph(fiber_type, params)
    assert report_values(graph) == old.place_values(graph)
    assert invariants.node_counts_from_graph(graph) == old.node_counts_from_graph(graph)


@pytest.mark.parametrize("graph", RANDOM)
def test_random_place_reports_match_the_oracle(graph):
    assert report_values(graph) == old.place_values(graph)
    assert invariants.node_counts_from_graph(graph) == old.node_counts_from_graph(graph)


@PROPERTY
@given(graphs(max_vertices=8))
def test_node_counts_and_warnings_match_the_oracle(graph):
    counts, warnings = invariants.node_counts_from_graph(graph)
    assert (counts, warnings) == old.node_counts_from_graph(graph)
    assert invariants.d_from_counts(counts) == old.d_from_counts(counts)


@pytest.mark.parametrize("graph", RANDOM)
def test_random_place_reports_keep_the_warnings(graph):
    rep = invariants.place_report_from_graph("p", graph)
    assert rep.warnings == tuple(invariants.node_counts_from_graph(graph)[1])


@PROPERTY
@given(graphs(max_vertices=8))
def test_place_reports_keep_the_warnings(graph):
    rep = invariants.place_report_from_graph("p", graph)
    assert rep.warnings == tuple(invariants.node_counts_from_graph(graph)[1])


def report_fields(graph):
    rep = invariants.place_report_from_graph("p", graph)
    return rep.d, rep.eps, rep.delta, rep.phi, rep.chi, rep.warnings


def public_fields(graph):
    """The report's fields from the public functions, each run on its own."""
    counts, warnings = invariants.node_counts_from_graph(graph)
    d = invariants.d_from_counts(counts)
    eps, ph = metgraph.epsilon_phi(graph)
    dlt = metgraph.delta(graph)
    chi = invariants.chi_nonarch(graph.total_genus, d, eps, dlt)
    return d, eps, dlt, ph, chi, tuple(warnings)


def assert_report_is_the_public_composition(make):
    """``make`` builds equal graphs: the report of a fresh one, and the
    report before and after the public calls on one graph whose solve is
    kept, all equal the public composition; the node counts and warnings
    equal the oracle's."""
    fresh = report_fields(make())
    assert all(type(x) is Fraction for x in fresh[:5])
    graph = make()
    d, eps, dlt, _, chi, _ = fresh
    assert chi == invariants.chi_nonarch(graph.total_genus, d, eps, dlt)
    before = report_fields(graph)
    assert before == fresh == public_fields(graph) == report_fields(graph)
    assert fresh == public_fields(make())
    assert invariants.node_counts_from_graph(graph) == old.node_counts_from_graph(graph)


def banana(rng, n):
    length = lengths(rng)
    return MetrizedGraph({"a": 0, "b": 0}, [("a", "b", length()) for _ in range(n)])


def complete(rng, n):
    length = lengths(rng)
    pairs = itertools.combinations(range(n), 2)
    return MetrizedGraph(dict.fromkeys(range(n), 0), [(u, v, length()) for u, v in pairs])


FAMILIES = [(banana, n) for n in range(5, 16)] + [(necklace, n) for n in (3, 4, 5)]
FAMILIES += [(complete, n) for n in (4, 5, 6)]


@PROPERTY
@given(graphs(max_vertices=8))
def test_place_reports_are_the_public_composition(graph):
    edges = [(e.u, e.v, e.length) for e in graph.edges]
    assert_report_is_the_public_composition(lambda: MetrizedGraph(graph.genus, edges))


@pytest.mark.parametrize("fiber_type, params", GENUS2)
def test_genus2_place_reports_are_the_public_composition(fiber_type, params):
    assert_report_is_the_public_composition(
        lambda: invariants.genus2_graph(fiber_type, params)
    )


@pytest.mark.parametrize("family, n", FAMILIES, ids=[f"{f.__name__}({n})" for f, n in FAMILIES])
def test_family_place_reports_are_the_public_composition(family, n):
    label = f"composition:{family.__name__}({n})"
    assert_report_is_the_public_composition(lambda: family(random.Random(label), n))


def test_the_place_path_runs_every_check(monkeypatch):
    # the integer cores keep the public path's checks that can fail:
    # PlaceReport's logNv check and Foster's identity on a new graph's
    # solve; the report derives chi through one chi_nonarch call, and no
    # NodeCounts is built, as its checks cannot fail on the counts of a
    # graph that has a genus
    graph = invariants.genus2_graph("VII", (1, 2, 3))
    called = []
    for name in ("NodeCounts", "chi_nonarch"):
        real = getattr(invariants, name)
        monkeypatch.setattr(
            invariants, name, lambda *a, _n=name, _f=real, **k: called.append(_n) or _f(*a, **k)
        )
    invariants.place_report_from_graph("p", graph)
    assert called == ["chi_nonarch"]
    with pytest.raises(ValueError, match="logNv of place"):
        invariants.place_report_from_graph("p", graph, float("nan"))
    original = metgraph._Resistances.foster
    monkeypatch.setattr(metgraph._Resistances, "foster", lambda self, e: original(self, e) + 1)
    with pytest.raises(ValueError, match="Foster's identity"):
        invariants.place_report_from_graph("p", invariants.genus2_graph("VII", (1, 2, 3)))


#: a genus-3 rose of three loops (three non-separating warnings) and a
#: genus-2 vertex with a genus-0 leaf (one bridge warning)
ROSE3 = MetrizedGraph({"v": 0}, [("v", "v", F(1)), ("v", "v", F(2)), ("v", "v", F(1, 3))])
LEAF = MetrizedGraph({"v": 2, "w": 0}, [("v", "w", F(3, 2))])
EVAL_GRAPHS = {f"{t}{p}": invariants.genus2_graph(t, p) for t, p in GENUS2}
EVAL_GRAPHS.update(rose3=ROSE3, leaf=LEAF)


def test_the_warning_graphs_warn():
    assert [len(old.graph_eval_doc(g)["warnings"]) for g in (ROSE3, LEAF)] == [3, 1]


@pytest.mark.parametrize("name", EVAL_GRAPHS)
def test_graph_eval_prints_the_four_call_assembly(tmp_path, capsys, name):
    doc = graph_doc(EVAL_GRAPHS[name])
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["graph", "eval", "--in", str(path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == old.graph_eval_doc(MetrizedGraph.from_json(doc))


@pytest.mark.parametrize("fiber_type, params", GENUS2)
def test_graph_check_prints_the_four_call_assembly(capsys, fiber_type, params):
    argv = ["genus2", "--type", fiber_type, "--params", ",".join(map(str, params))]
    assert cli.main(argv + ["--graph-check"]) == 0
    printed = json.loads(capsys.readouterr().out)["graph_check"]
    assert printed == old.graph_check_doc(fiber_type, params)
    assert printed["matches_table"] is True


def random_counts(rng):
    g = rng.randint(2, 8)

    def weight():
        return F(rng.randint(0, 9), rng.randint(1, 12))

    return NodeCounts(
        g,
        weight(),
        tuple(weight() for _ in range((g - 1) // 2)),
        tuple(weight() for _ in range(g // 2)),
    )


@pytest.mark.parametrize("seed", range(20))
def test_scalar_assembly_matches_the_oracle(seed):
    rng = random.Random(f"places-oracle:{seed}")
    counts = random_counts(rng)
    d = invariants.d_from_counts(counts)
    assert type(d) is Fraction and d == old.d_from_counts(counts)
    eps = F(rng.randint(-50, 50), rng.randint(1, 40))
    dlt = rng.choice((rng.randint(0, 9), F(rng.randint(0, 90), rng.randint(1, 30))))
    for g in (counts.genus, rng.randint(2, 30)):
        for args in ((g, d, eps, dlt), (g, d, 0, F(1, 3)), (g, 1, 2, 3)):
            assert invariants.chi_nonarch(*args) == old.chi_nonarch(*args)


@pytest.mark.parametrize(
    "args", [(1, 0, 0, 0), (2, "x", 0, 0), (2, 0, None, 0), (2, 0, 0, F(1, 2) + 1j)]
)
def test_chi_nonarch_errors_match_the_oracle(args):
    with pytest.raises(Exception) as want:
        old.chi_nonarch(*args)
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        invariants.chi_nonarch(*args)
