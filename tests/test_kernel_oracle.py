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
    a, b = list(graph.genus)[:2]
    masses = mu.vertex_mass
    bad = metgraph.Measure(
        {**masses, a: masses[a] + F(1, 7), b: masses[b] - F(1, 7)}, mu.edge_density
    )
    assert metgraph.verify_admissible(graph, bad) == old.verify_admissible(graph, bad) > 0
    can = metgraph.canonical_measure(graph)
    assert old.verify_canonical(graph, can) == 0
    # g_mu(y, y) of the canonical measure: one value, no linear or square term
    diag = metgraph.green_diagonal(graph, can)
    assert len(set(diag.vertex_values.values())) == 1
    assert all(c1 == c2 == 0 for _, c1, c2 in diag.edge_coeffs.values())


def test_point_queries_match_oracle(case):
    rng, graph, loop, bridge = case
    mu = metgraph.admissible_measure(graph)
    for x, y in point_pairs(rng, graph, loop, bridge):
        assert metgraph.resistance(graph, x, y) == old.resistance(graph, x, y)
        assert metgraph.green(graph, mu, x, y) == old.green(graph, mu, x, y)


def test_alternating_measures_on_one_graph_match_oracle(case):
    # the graph keeps one kernel, for the last measure asked about: switching
    # between two measures rebuilds it each time and never reads the other's
    rng, graph, loop, bridge = case
    measures = [metgraph.admissible_measure(graph), metgraph.canonical_measure(graph)]
    pairs = point_pairs(rng, graph, loop, bridge)
    for _ in range(2):
        for mu in measures:
            for x, y in pairs:
                assert metgraph.green(graph, mu, x, y) == old.fraction_green(graph, mu, x, y)
            diag, ref = metgraph.green_diagonal(graph, mu), old.fraction_green_diagonal(graph, mu)
            assert (diag.vertex_values, diag.edge_coeffs) == (ref.vertex_values, ref.edge_coeffs)
            got = metgraph.verify_admissible(graph, mu)
            assert got == old.fraction_verify_admissible(graph, mu)
            assert (got == 0) == (mu is measures[0])


CALLS = {
    "epsilon_phi": lambda g, mu, can: metgraph.epsilon_phi(g),
    "canonical_measure": lambda g, mu, can: metgraph.canonical_measure(g),
    "admissible_measure": lambda g, mu, can: metgraph.admissible_measure(g),
    "green": lambda g, mu, can: metgraph.green(g, mu, (0, F(1, 3)), (1, F(1, 2))),
    "green_diagonal": lambda g, mu, can: metgraph.green_diagonal(g, mu),
    "verify_admissible": lambda g, mu, can: metgraph.verify_admissible(g, mu),
    "resistance": lambda g, mu, can: metgraph.resistance(g, (0, F(1, 3)), (1, F(1, 2))),
}


def inverse_test_graph():
    return metgraph.MetrizedGraph(
        {"a": 0, "b": 1, "c": 0, "d": 0},
        [("a", "b", 1), ("b", "c", 2), ("c", "a", 3), ("a", "c", 1),
         ("c", "d", F(1, 2)), ("d", "d", 2)],
    )


def test_one_kernel_per_graph_and_measure(monkeypatch):
    # green, green_diagonal and verify_admissible on one (graph, measure)
    # build one _Kernel between them; another measure, even an equal one,
    # builds its own and takes the kept kernel's place
    graph = inverse_test_graph()
    mu, can = metgraph.admissible_measure(graph), metgraph.canonical_measure(graph)
    built, original = [], metgraph._Kernel.__init__

    def init(self, nu, res):
        built.append(nu)
        original(self, nu, res)

    monkeypatch.setattr(metgraph._Kernel, "__init__", init)
    queries = [CALLS[name] for name in ("green", "green_diagonal", "verify_admissible")]
    for _ in range(3):
        for query in queries:
            query(graph, mu, can)
    assert built == [mu] and built[0] is mu
    twin = metgraph.Measure(mu.vertex_mass, mu.edge_density)
    assert twin == mu
    for nu in (can, can, mu, twin, twin):
        metgraph.green_diagonal(graph, nu)
    assert [id(nu) for nu in built] == [id(mu), id(can), id(mu), id(twin)]


def _count_products(monkeypatch):
    """Record each ``_Resistances.potentials`` call until undone, as (masses,
    whether it ran inside ``_Resistances.__init__``)."""
    products, building = [], []
    init, potentials = metgraph._Resistances.__init__, metgraph._Resistances.potentials

    def counted_init(self, graph):
        building.append(True)
        try:
            init(self, graph)
        finally:
            building.pop()

    def counted(self, mass):
        products.append((dict(mass), bool(building)))
        return potentials(self, mass)

    monkeypatch.setattr(metgraph._Resistances, "__init__", counted_init)
    monkeypatch.setattr(metgraph._Resistances, "potentials", counted)
    return products


def test_one_psi_k_per_graph(monkeypatch):
    # the solve works out psi_K when it is built: from graph construction on,
    # one product on the masses K, made in the solve's constructor, and none
    # from verify_admissible on any measure; psi_K is the potential of the
    # canonical divisor, and each result the oracle's
    other = inverse_test_graph()
    want = {
        nu: old.fraction_verify_admissible(other, nu)
        for nu in (metgraph.admissible_measure(other), metgraph.canonical_measure(other))
    }
    products = _count_products(monkeypatch)
    graph = inverse_test_graph()
    mu, can = metgraph.admissible_measure(graph), metgraph.canonical_measure(graph)
    for nu in (mu, mu, can, mu):
        assert metgraph.verify_admissible(graph, nu) == want[nu]
    k = metgraph.canonical_divisor(graph)
    assert [built for mass, built in products if mass == k] == [True]
    assert [built for mass, built in products if mass != k] == [False, False, False]
    res = graph._solve()
    monkeypatch.undo()
    assert res._k == k and res._psi == res.potentials(k)


def test_epsilon_phi_reads_the_kept_psi_k(monkeypatch):
    # epsilon_phi reads theta from psi_K, which the solve works out when it is
    # built: from graph construction on, the solve makes one product, on the
    # masses K, green_diagonal one for its kernel, and epsilon_phi,
    # epsilon_phi, verify_admissible, epsilon_phi none
    want = old.mass_epsilon_phi(inverse_test_graph())
    products = _count_products(monkeypatch)
    graph = inverse_test_graph()
    mu = metgraph.admissible_measure(graph)
    metgraph.green_diagonal(graph, mu)  # builds the kernel, and its product
    assert len(products) == 2
    assert metgraph.epsilon_phi(graph) == metgraph.epsilon_phi(graph) == want
    assert metgraph.verify_admissible(graph, mu) == 0
    assert metgraph.epsilon_phi(graph) == want
    assert products[0] == (metgraph.canonical_divisor(graph), True)
    assert len(products) == 2 and products[1][1] is False


def test_canonical_measure_reads_the_kept_k(monkeypatch):
    # the solve keeps K: canonical_measure on a graph whose solve is kept
    # works out no canonical divisor, and its masses are (2 genus(v) - K(v)) / 2
    graph = inverse_test_graph()
    k = metgraph.canonical_divisor(graph)
    graph._solve()
    calls = []
    monkeypatch.setattr(metgraph, "canonical_divisor", lambda g: calls.append(g))
    mu = metgraph.canonical_measure(graph)
    assert calls == []
    assert dict(mu.vertex_mass) == {v: F(2 * graph.genus[v] - x, 2) for v, x in k.items()}


@pytest.mark.parametrize("name", CALLS)
def test_one_vertex_laplacian_inverse_per_call(monkeypatch, name):
    # one solve per graph: the first call inverts, every later call on the
    # graph reads the kept solve, and scale and subdivide, which build new
    # graphs, invert once each; the measures come from an equal twin graph
    twin = inverse_test_graph()
    mu = metgraph.admissible_measure(twin)
    can = metgraph.canonical_measure(twin)
    original, sizes = metgraph._invert, []

    def counting(matrix):
        sizes.append(len(matrix))
        return original(matrix)

    monkeypatch.setattr(metgraph, "_invert", counting)
    graph = inverse_test_graph()
    CALLS[name](graph, mu, can)
    assert sizes == [len(graph.genus) - 1]
    for call in CALLS.values():
        call(graph, mu, can)
    assert sizes == [len(graph.genus) - 1]
    for derived in (metgraph.scale(graph, 3), metgraph.subdivide(graph, 5, F(1, 2))):
        mu, can = metgraph.admissible_measure(derived), metgraph.canonical_measure(derived)
        for call in CALLS.values():
            call(derived, mu, can)
    # the scaled graph has as many vertices, the subdivided one a vertex more
    assert sizes == [3, 3, 4]
