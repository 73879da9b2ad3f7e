"""The closed-form metgraph kernel against the old subdivision kernel.

``oracle_kernel`` is the previous implementation, kept verbatim.  Both are
exact, so every quantity must agree as an equal ``Fraction``.
"""

import random
from fractions import Fraction

import pytest

import oracle_kernel as old
from hypinv import metgraph

F = Fraction
SEEDS = range(10)


def random_graph(rng):
    """Connected genus-marked multigraph with a loop, a parallel pair and a
    bridge, total genus >= 2 and small rational lengths.

    Returns (graph, loop eid, bridge eid).
    """
    nv = rng.randint(3, 4)
    verts = [f"v{i}" for i in range(nv)]

    def length():
        return F(rng.randint(1, 4), rng.randint(1, 3))

    # a random spanning tree; nothing else touches the last vertex, so the
    # tree edge to it stays a bridge
    edges = [(verts[rng.randrange(i)], verts[i], length()) for i in range(1, nv)]
    bridge = nv - 2
    u, v, _ = edges[0]
    edges.append((v, u, length()))
    inner = verts[:-1]
    for _ in range(rng.randint(0, 1)):
        edges.append((rng.choice(inner), rng.choice(inner), length()))
    w = rng.choice(inner)
    edges.append((w, w, length()))
    genus = {x: rng.randint(0, 1) for x in verts}
    return metgraph.MetrizedGraph(genus, edges), len(edges) - 1, bridge


def interior(rng, graph, eid):
    return (eid, graph.edges[eid].length * F(rng.randint(1, 4), 5))


def point_pairs(rng, graph, loop, bridge):
    verts = list(graph.genus)
    n = len(graph.edges)
    e1, e2 = rng.sample(range(n), 2)
    e3 = rng.randrange(n)
    x = interior(rng, graph, e3)
    y = (e3, graph.edges[e3].length - x[1] / 2)  # distinct point, same edge
    return [
        tuple(rng.sample(verts, 2)),
        (rng.choice(verts), interior(rng, graph, rng.randrange(n))),
        (interior(rng, graph, e1), interior(rng, graph, e2)),
        (x, y),
        (interior(rng, graph, loop), interior(rng, graph, bridge)),
        (interior(rng, graph, loop), (loop, graph.edges[loop].length / 7)),
    ]


@pytest.fixture(params=SEEDS)
def case(request):
    rng = random.Random(f"kernel-oracle:{request.param}")
    return (rng, *random_graph(rng))


def test_random_graphs_have_the_advertised_shape(case):
    _, graph, loop, bridge = case
    assert graph.total_genus >= 2
    assert graph.edges[loop].is_loop
    leaf = graph.edges[bridge].v
    assert graph.valence(leaf) == 1  # so the edge to it is a bridge
    assert any(
        {a.u, a.v} == {b.u, b.v} and a.eid < b.eid and not a.is_loop
        for a in graph.edges
        for b in graph.edges
    )


def test_measures_and_invariants_match_oracle(case):
    _, graph, _, _ = case
    assert metgraph.canonical_measure(graph) == old.canonical_measure(graph)
    assert metgraph.admissible_measure(graph) == old.admissible_measure(graph)
    assert metgraph.epsilon_phi(graph) == old.epsilon_phi(graph)


def test_green_diagonal_and_admissibility_match_oracle(case):
    _, graph, _, _ = case
    mu = metgraph.admissible_measure(graph)
    assert metgraph.green_diagonal(graph, mu) == old.green_diagonal(graph, mu)
    assert metgraph.verify_admissible(graph, mu) == old.verify_admissible(graph, mu) == 0
    bad = metgraph.Measure(dict(mu.vertex_mass), dict(mu.edge_density))
    a, b = list(graph.genus)[:2]
    bad.vertex_mass[a] += F(1, 7)
    bad.vertex_mass[b] -= F(1, 7)
    assert metgraph.verify_admissible(graph, bad) == old.verify_admissible(graph, bad) > 0
    can = metgraph.canonical_measure(graph)
    assert metgraph.verify_canonical(graph, can) == old.verify_canonical(graph, can) == 0


def test_point_queries_match_oracle(case):
    rng, graph, loop, bridge = case
    mu = metgraph.admissible_measure(graph)
    for x, y in point_pairs(rng, graph, loop, bridge):
        assert metgraph.resistance(graph, x, y) == old.resistance(graph, x, y)
        assert metgraph.green(graph, mu, x, y) == old.green(graph, mu, x, y)


CALLS = {
    "epsilon_phi": lambda g, mu, can: metgraph.epsilon_phi(g),
    "canonical_measure": lambda g, mu, can: metgraph.canonical_measure(g),
    "admissible_measure": lambda g, mu, can: metgraph.admissible_measure(g),
    "green": lambda g, mu, can: metgraph.green(g, mu, (0, F(1, 3)), (1, F(1, 2))),
    "green_diagonal": lambda g, mu, can: metgraph.green_diagonal(g, mu),
    "verify_admissible": lambda g, mu, can: metgraph.verify_admissible(g, mu),
    "verify_canonical": lambda g, mu, can: metgraph.verify_canonical(g, can),
    "resistance": lambda g, mu, can: metgraph.resistance(g, (0, F(1, 3)), (1, F(1, 2))),
}


@pytest.mark.parametrize("name", CALLS)
def test_one_vertex_laplacian_inverse_per_call(monkeypatch, name):
    graph = metgraph.MetrizedGraph(
        {"a": 0, "b": 1, "c": 0, "d": 0},
        [("a", "b", 1), ("b", "c", 2), ("c", "a", 3), ("a", "c", 1),
         ("c", "d", F(1, 2)), ("d", "d", 2)],
    )
    mu = metgraph.admissible_measure(graph)
    can = metgraph.canonical_measure(graph)
    original, sizes = metgraph._invert, []

    def counting(matrix):
        sizes.append(len(matrix))
        return original(matrix)

    monkeypatch.setattr(metgraph, "_invert", counting)
    CALLS[name](graph, mu, can)
    assert sizes == [len(graph.genus) - 1]
