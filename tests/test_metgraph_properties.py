"""Property tests of the metgraph kernel on random multigraphs, its integer
solve, larger graphs against the old kernel, and cost guards."""

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

import oracle_kernel as old
from hypinv import metgraph
from hypinv.metgraph import MetrizedGraph
from test_metgraph import is_bridge, spanning_tree_weight

F = Fraction
LENGTHS = st.fractions(min_value=F(1, 4), max_value=5, max_denominator=4)


@st.composite
def graphs(draw, max_vertices=6):
    """Connected genus-marked multigraph on at most ``max_vertices`` vertices
    with total genus >= 2: a random spanning tree (bridges until another
    edge closes a cycle) plus up to four edges that may be loops or parallel
    to others."""
    nv = draw(st.integers(1, max_vertices))
    verts = [f"v{i}" for i in range(nv)]
    edges = [
        (verts[draw(st.integers(0, i - 1))], verts[i], draw(LENGTHS))
        for i in range(1, nv)
    ]
    vertex = st.sampled_from(verts)
    edges += draw(st.lists(st.tuples(vertex, vertex, LENGTHS), max_size=4))
    genus = {v: draw(st.integers(0, 2)) for v in verts}
    betti = len(edges) - nv + 1
    genus["v0"] += max(0, 2 - betti - sum(genus.values()))
    return MetrizedGraph(genus, edges)


def has_parallel_pair(graph):
    pairs = [frozenset((e.u, e.v)) for e in graph.edges if not e.is_loop]
    return len(set(pairs)) < len(pairs)


@pytest.mark.parametrize(
    "shape",
    [
        lambda g: any(e.is_loop for e in g.edges),
        has_parallel_pair,
        lambda g: any(is_bridge(g, e.eid) for e in g.edges),
        lambda g: any(e.is_loop for e in g.edges)
        and has_parallel_pair(g)
        and any(is_bridge(g, e.eid) for e in g.edges),
    ],
    ids=["loop", "parallel", "bridge", "all-three"],
)
def test_strategy_reaches_every_shape(shape):
    search = settings(
        database=None, derandomize=True, max_examples=1000, phases=[Phase.generate]
    )
    find(graphs(), shape, settings=search)


PROPERTY = settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@PROPERTY
@given(graphs())
def test_resistance_is_kirchhoff_ratio(graph):
    # r(a, b) = tau(G / ab) / tau(G), by spanning-tree enumeration
    edges = [(e.u, e.v, e.length) for e in graph.edges]
    tau = spanning_tree_weight(graph.vertices, edges)
    for a, b in itertools.combinations(graph.vertices, 2):
        merged = [(a if u == b else u, a if v == b else v, L) for u, v, L in edges]
        rest = [v for v in graph.vertices if v != b]
        kirchhoff = spanning_tree_weight(rest, merged) / tau
        assert metgraph.resistance(graph, a, b) == kirchhoff


@PROPERTY
@given(graphs())
def test_measures_have_mass_one_and_admissible_is_admissible(graph):
    assert metgraph.canonical_measure(graph).total_mass(graph) == 1
    mu = metgraph.admissible_measure(graph)
    assert mu.total_mass(graph) == 1
    assert metgraph.verify_admissible(graph, mu) == old.verify_admissible(graph, mu) == 0


@PROPERTY
@given(graphs(), st.data())
def test_verify_admissible_matches_oracle_off_the_admissible_measure(graph, data):
    mu = metgraph.admissible_measure(graph)
    wrong = []
    if len(graph.genus) >= 2:
        a, b = data.draw(st.permutations(graph.vertices))[:2]
        moved = metgraph.Measure(dict(mu.vertex_mass), dict(mu.edge_density))
        moved.vertex_mass[a] += F(1, 7)
        moved.vertex_mass[b] -= F(1, 7)
        wrong.append(moved)
    spread = [e for e in graph.edges if mu.density(e.eid)]
    if spread:
        e = data.draw(st.sampled_from(spread))
        t = data.draw(st.fractions(0, 3, max_denominator=4).filter(lambda t: t != 1))
        w = data.draw(st.sampled_from(graph.vertices))
        scaled = metgraph.Measure(dict(mu.vertex_mass), dict(mu.edge_density))
        scaled.edge_density[e.eid] *= t
        scaled.vertex_mass[w] = scaled.mass(w) + (1 - t) * mu.density(e.eid) * e.length
        wrong.append(scaled)
    for nu in wrong:
        assert nu.total_mass(graph) == 1
        assert metgraph.verify_admissible(graph, nu) == old.verify_admissible(graph, nu) > 0


@PROPERTY
@given(graphs())
def test_potentials_of_the_canonical_divisor(graph):
    # psi_K(w) = sum_v K(v) r(v, w), masses of total 2g - 2
    k = metgraph.canonical_divisor(graph)
    assert sum(k.values()) == 2 * graph.total_genus - 2
    res = metgraph._Resistances(graph)
    psi = res.potentials(k)  # numerators over det / s
    for w in graph.vertices:
        psi_w = F(res._scale * psi[w], res._det)
        assert psi_w == sum(k[v] * res.vertex(v, w) for v in graph.vertices)


@PROPERTY
@given(graphs())
def test_epsilon_phi_matches_oracle_and_admissible_masses_are_genus_over_g(graph):
    g = graph.total_genus
    mu = metgraph.admissible_measure(graph)
    assert mu.vertex_mass == {v: F(h, g) for v, h in graph.genus.items()}
    assert mu == old.admissible_measure(graph)
    assert metgraph.epsilon_phi(graph) == old.epsilon_phi(graph)


@PROPERTY
@given(graphs(), st.data())
def test_epsilon_phi_subdivision_and_scaling_invariant(graph, data):
    eps, ph = metgraph.epsilon_phi(graph)
    if graph.edges:
        e = data.draw(st.sampled_from(graph.edges))
        s = e.length * data.draw(st.fractions(min_value=F(1, 8), max_value=F(7, 8)))
        assert metgraph.epsilon_phi(metgraph.subdivide(graph, e.eid, s)) == (eps, ph)
    t = data.draw(LENGTHS)
    assert metgraph.epsilon_phi(metgraph.scale(graph, t)) == (t * eps, t * ph)


# ------------------------------------------------------------ the integer solve


def determinant(matrix):
    """By Fraction elimination with row exchanges, independent of the
    fraction-free solve."""
    a = [[F(x) for x in row] for row in matrix]
    det = F(1)
    for k in range(len(a)):
        pivot = next((r for r in range(k, len(a)) if a[r][k]), None)
        if pivot is None:
            return F(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, len(a)):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return det


@pytest.mark.parametrize("seed", range(8))
def test_invert_returns_adjugate_and_determinant(seed):
    # B^T B + I is positive definite with integer entries
    rng = random.Random(f"bareiss:{seed}")
    n = rng.randint(1, 7)
    b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n + 2)]
    a = [
        [sum(row[i] * row[j] for row in b) + (i == j) for j in range(n)]
        for i in range(n)
    ]
    adj, det = metgraph._invert(a)
    assert det == determinant(a) > 0
    inverse = old._invert([[F(x) for x in row] for row in a])
    assert [[F(x, det) for x in row] for row in adj] == inverse
    assert all(isinstance(x, int) for row in adj for x in row)


# --------------------------------------------- larger graphs against the oracle


def lengths(rng):
    return lambda: F(rng.randint(1, 5), rng.randint(1, 3))


def necklace(rng, n):
    length = lengths(rng)
    edges = []
    for i in range(n):
        u, v = f"v{i}", f"v{(i + 1) % n}"
        edges += [(u, v, length()), (u, v, length())]
    return MetrizedGraph({f"v{i}": 0 for i in range(n)}, edges)


def wheel(rng, n):
    length = lengths(rng)
    edges = [("hub", f"v{i}", length()) for i in range(n)]
    edges += [(f"v{i}", f"v{(i + 1) % n}", length()) for i in range(n)]
    return MetrizedGraph({"hub": 1, **{f"v{i}": 0 for i in range(n)}}, edges)


def random_multigraph(rng, nv, ne):
    length = lengths(rng)
    verts = [f"v{i}" for i in range(nv)]
    edges = [(verts[rng.randrange(i)], verts[i], length()) for i in range(1, nv)]
    while len(edges) < ne:
        edges.append((rng.choice(verts), rng.choice(verts), length()))
    return MetrizedGraph({v: rng.choice((0, 0, 1)) for v in verts}, edges)


LARGE = {
    "necklace(8)": lambda rng: necklace(rng, 8),
    "wheel(8)": lambda rng: wheel(rng, 8),
    "random(10, 15)": lambda rng: random_multigraph(rng, 10, 15),
}


@pytest.mark.parametrize("name", LARGE)
def test_larger_graphs_match_oracle(name):
    graph = LARGE[name](random.Random(f"large:{name}"))
    assert 8 <= len(graph.genus) <= 10
    mu = metgraph.admissible_measure(graph)
    assert mu == old.admissible_measure(graph)
    assert metgraph.epsilon_phi(graph) == old.epsilon_phi(graph)
    assert metgraph.green_diagonal(graph, mu) == old.green_diagonal(graph, mu)


# ----------------------------------------------------------------- cost guards


@pytest.mark.parametrize(
    "call, vertex",
    [
        (lambda g, mu: metgraph.epsilon_phi(g), lambda g: 0),
        (lambda g, mu: metgraph.green_diagonal(g, mu), lambda g: 0),
        (lambda g, mu: metgraph.verify_admissible(g, mu), lambda g: 0),
    ],
    ids=["epsilon_phi", "green_diagonal", "verify_admissible"],
)
def test_no_per_point_vertex_resistances(monkeypatch, call, vertex):
    # the potentials come from one product with the adjugate and every
    # canonical density from the integer N_e: no vertex resistance is read
    # as a Fraction, and no resistance to any point is evaluated
    graph = LARGE["necklace(8)"](random.Random("large:necklace(8)"))
    mu = metgraph.admissible_measure(graph)
    counts = {"vertex": 0, "between": 0}
    for name in counts:
        original = getattr(metgraph._Resistances, name)

        def counting(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(metgraph._Resistances, name, counting)
    call(graph, mu)
    assert counts == {"vertex": vertex(graph), "between": 0}


def test_epsilon_phi_builds_no_measure_or_kernel(monkeypatch):
    # one solve, then integers: no Measure, no _Kernel, no second _invert
    graph = LARGE["random(10, 15)"](random.Random("large:random(10, 15)"))
    expected = old.epsilon_phi(graph)  # the oracle builds Measures of its own
    counts = {"_invert": 0, "Measure": 0, "_Kernel": 0}
    original_invert = metgraph._invert

    def invert(matrix):
        counts["_invert"] += 1
        return original_invert(matrix)

    monkeypatch.setattr(metgraph, "_invert", invert)
    for name in ("Measure", "_Kernel"):
        original = getattr(metgraph, name).__init__

        def init(self, *args, _name=name, _original=original):
            counts[_name] += 1
            _original(self, *args)

        monkeypatch.setattr(getattr(metgraph, name), "__init__", init)
    assert metgraph.epsilon_phi(graph) == expected
    assert counts == {"_invert": 1, "Measure": 0, "_Kernel": 0}


def test_epsilon_phi_checks_fosters_identity(monkeypatch):
    # the masses of a wrong solve do not sum to 1: raised, not asserted
    graph = LARGE["necklace(8)"](random.Random("large:necklace(8)"))
    original = metgraph._Resistances.foster
    monkeypatch.setattr(
        metgraph._Resistances, "foster", lambda self, e: original(self, e) + 1
    )
    with pytest.raises(ValueError, match="Foster's identity"):
        metgraph.epsilon_phi(graph)


def test_repeated_calls_hold_no_memory():
    # each call's temporaries are freed: in particular no argument tuple is
    # left behind on an interpreter free list, which holds up to 2000 per size
    graph = random_multigraph(random.Random("memory"), 6, 9)
    for _ in range(20):
        metgraph.epsilon_phi(graph)
    before = sys.getallocatedblocks()
    for _ in range(400):
        metgraph.epsilon_phi(graph)
    assert sys.getallocatedblocks() - before < 100
