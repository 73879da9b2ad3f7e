import itertools
import random
from fractions import Fraction

import pytest

from hypinv.metgraph import (
    Measure,
    MetrizedGraph,
    admissible_measure,
    canonical_divisor,
    canonical_measure,
    delta,
    epsilon,
    epsilon_phi,
    green,
    green_diagonal,
    phi,
    resistance,
    scale,
    subdivide,
    verify_admissible,
    verify_canonical,
)

F = Fraction


def loop1():
    return MetrizedGraph({"v": 1}, [("v", "v", F(1))])


def theta(a=1, b=1, c=1):
    return MetrizedGraph(
        {"v1": 0, "v2": 0}, [("v1", "v2", F(a)), ("v1", "v2", F(b)), ("v1", "v2", F(c))]
    )


def segment(a=1):
    return MetrizedGraph({"v1": 1, "v2": 1}, [("v1", "v2", F(a))])


def test_graph_validation():
    with pytest.raises(ValueError):
        MetrizedGraph({}, [])
    with pytest.raises(ValueError):
        MetrizedGraph({"a": 0, "b": 0}, [])  # disconnected
    with pytest.raises(ValueError):
        MetrizedGraph({"a": 0}, [("a", "b", 1)])
    with pytest.raises(ValueError):
        MetrizedGraph({"a": 0, "b": 0}, [("a", "b", 0)])
    with pytest.raises(ValueError):
        MetrizedGraph({"a": -1}, [])


def test_genus_accounting():
    assert loop1().total_genus == 2
    assert theta().total_genus == 2
    assert segment().total_genus == 2
    assert theta().betti == 2


def test_json_roundtrip():
    g = theta(1, 2, F(5, 3))
    doc = g.to_json()
    g2 = MetrizedGraph.from_json(doc)
    assert g2.to_json() == doc


def test_canonical_divisor():
    assert canonical_divisor(loop1()) == {"v": 2}
    assert canonical_divisor(theta()) == {"v1": 1, "v2": 1}
    assert canonical_divisor(segment()) == {"v1": 1, "v2": 1}
    k = canonical_divisor(theta(2, 3, 4))
    assert sum(k.values()) == 2 * theta().total_genus - 2


def test_resistance_segment():
    assert resistance(segment(5), "v1", "v2") == 5


def test_resistance_circle():
    g = MetrizedGraph({"v": 0, "w": 1}, [("v", "w", F(2)), ("w", "v", F(3))])
    # circle of circumference 5: r = s (5 - s) / 5
    assert resistance(g, "v", "w") == F(2 * 3, 5)
    assert resistance(g, (0, F(1)), "v") == F(1 * 4, 5)


def test_resistance_loop_point():
    g = loop1()
    s = F(1, 3)
    assert resistance(g, (0, s), "v") == s * (1 - s)


def test_resistance_theta():
    assert resistance(theta(), "v1", "v2") == F(1, 3)
    a, b, c = F(2), F(3), F(5)
    expect = 1 / (1 / a + 1 / b + 1 / c)
    assert resistance(theta(a, b, c), "v1", "v2") == expect


def test_canonical_measure_loop():
    mu = canonical_measure(loop1())
    assert mu.mass("v") == 0
    assert mu.density(0) == 1
    assert mu.total_mass(loop1()) == 1


def test_canonical_measure_theta():
    g = theta()
    mu = canonical_measure(g)
    assert mu.mass("v1") == F(-1, 2)
    assert mu.density(0) == F(2, 3)  # 1 / (1 + 1/2)
    assert mu.total_mass(g) == 1
    assert verify_canonical(g, mu) == 0


def test_canonical_measure_bridge():
    g = MetrizedGraph(
        {"v1": 1, "v2": 0}, [("v1", "v2", F(1)), ("v2", "v2", F(2))]
    )
    mu = canonical_measure(g)
    assert mu.density(0) == 0  # bridge carries no density
    assert mu.total_mass(g) == 1


def test_admissible_measure_mass_one():
    for g in (loop1(), theta(1, 2, 3), segment(2)):
        assert admissible_measure(g).total_mass(g) == 1


def test_green_symmetry_and_normalization():
    g = theta(1, 2, 3)
    mu = admissible_measure(g)
    x, y = "v1", (1, F(1, 2))
    assert green(g, mu, x, y) == green(g, mu, y, x)
    # int g(x, .) dmu = 0: the integrand is quadratic per edge
    total = F(0)
    for v in g.genus:
        total += mu.mass(v) * green(g, mu, x, v)
    for e in g.edges:
        d = mu.density(e.eid)
        total += d * e.length / 6 * (
            green(g, mu, x, e.u)
            + 4 * green(g, mu, x, (e.eid, e.length / 2))
            + green(g, mu, x, e.v)
        )
    assert total == 0


def test_green_requires_mass_one():
    g = loop1()
    with pytest.raises(ValueError):
        green(g, Measure({"v": F(1, 2)}, {}), "v", "v")


def test_green_diagonal_matches_pointwise():
    g = theta(1, 2, 3)
    mu = admissible_measure(g)
    poly = green_diagonal(g, mu)
    for pt in ("v1", "v2", (0, F(1, 3)), (2, F(7, 5))):
        norm = pt if isinstance(pt, tuple) else pt
        assert poly.evaluate(norm) == green(g, mu, pt, pt)


def test_loop_invariants():
    g = loop1()
    eps, ph = epsilon_phi(g)
    assert (eps, ph) == (F(1, 6), F(1, 12))
    assert delta(g) == 1
    assert epsilon(g) == F(1, 6)
    assert phi(g) == F(1, 12)


def test_theta_invariants():
    eps, ph = epsilon_phi(theta())
    assert (eps, ph) == (F(5, 9), F(1, 9))
    assert delta(theta()) == 3


def test_verify_admissible():
    g = theta(1, 2, 3)
    mu = admissible_measure(g)
    assert verify_admissible(g, mu) == 0
    # nudge mass between the two vertices: no longer admissible
    bad = Measure(dict(mu.vertex_mass), dict(mu.edge_density))
    bad.vertex_mass["v1"] += F(1, 10)
    bad.vertex_mass["v2"] -= F(1, 10)
    assert verify_admissible(g, bad) > 0


def test_subdivision_invariance():
    g = theta(1, 2, 3)
    eps, ph = epsilon_phi(g)
    sub = subdivide(g, 1, F(3, 4))
    assert epsilon_phi(sub) == (eps, ph)
    assert delta(sub) == delta(g)
    assert sub.total_genus == g.total_genus
    with pytest.raises(ValueError):
        subdivide(g, 1, F(2))


def test_homogeneity():
    g = theta(1, 2, 3)
    eps, ph = epsilon_phi(g)
    t = F(7, 3)
    scaled = scale(g, t)
    assert epsilon_phi(scaled) == (t * eps, t * ph)
    assert delta(scaled) == t * delta(g)
    with pytest.raises(ValueError):
        scale(g, 0)


def test_point_graph_rejected():
    g = MetrizedGraph({"v": 2}, [])
    with pytest.raises(ValueError):
        epsilon_phi(MetrizedGraph({"v": 1}, []))
    # genus-2 point graph: no edges, so no admissible integrals either
    assert delta(g) == 0


# ------------------------------------------- independent formulas, random graphs


def random_graph(seed):
    """Connected genus-marked multigraph, total genus >= 2, with whatever
    loops, parallel edges and bridges the seed gives."""
    rng = random.Random(f"metgraph-random:{seed}")
    nv = rng.randint(2, 5)
    verts = [f"v{i}" for i in range(nv)]

    def length():
        return F(rng.randint(1, 5), rng.randint(1, 4))

    edges = [(verts[rng.randrange(i)], verts[i], length()) for i in range(1, nv)]
    for _ in range(rng.randint(0, 4)):
        edges.append((rng.choice(verts), rng.choice(verts), length()))
    genus = {v: rng.choice((0, 0, 1)) for v in verts}
    betti = len(edges) - nv + 1
    genus["v0"] += max(0, 2 - betti - sum(genus.values()))
    return MetrizedGraph(genus, edges)


RANDOM = [random_graph(seed) for seed in range(12)]


def spanning_tree_weight(vertices, edges):
    """Weighted Kirchhoff count: sum over spanning trees of the product of
    the conductances 1/length, by enumerating edge subsets."""
    edges = [e for e in edges if e[0] != e[1]]
    total = F(0)
    for subset in itertools.combinations(edges, len(vertices) - 1):
        root = {v: v for v in vertices}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        weight = F(1)
        for u, v, length in subset:
            a, b = find(u), find(v)
            if a == b:
                break
            root[a] = b
            weight /= length
        else:
            total += weight
    return total


def is_bridge(graph, eid):
    e = graph.edges[eid]
    reached, frontier = {e.u}, [e.u]
    while frontier:
        w = frontier.pop()
        for other in graph.edges:
            if other.eid != eid and w in (other.u, other.v):
                x = other.v if other.u == w else other.u
                if x not in reached:
                    reached.add(x)
                    frontier.append(x)
    return e.v not in reached


@pytest.mark.parametrize("graph", RANDOM)
def test_resistance_is_matrix_tree_ratio(graph):
    # r(a, b) = tau(G / ab) / tau(G) (Kirchhoff)
    edges = [(e.u, e.v, e.length) for e in graph.edges]
    tau = spanning_tree_weight(graph.vertices, edges)
    for a, b in itertools.combinations(graph.vertices, 2):
        merged = [(a if u == b else u, a if v == b else v, L) for u, v, L in edges]
        rest = [v for v in graph.vertices if v != b]
        assert resistance(graph, a, b) == spanning_tree_weight(rest, merged) / tau


@pytest.mark.parametrize("graph", RANDOM)
def test_foster_identity_gives_mass_one(graph):
    foster = sum(1 - resistance(graph, e.u, e.v) / e.length for e in graph.edges)
    assert foster == graph.betti
    assert canonical_measure(graph).total_mass(graph) == 1
    assert admissible_measure(graph).total_mass(graph) == 1


@pytest.mark.parametrize("graph", RANDOM)
def test_canonical_density_vanishes_exactly_on_bridges(graph):
    mu = canonical_measure(graph)
    for e in graph.edges:
        if is_bridge(graph, e.eid):
            assert mu.density(e.eid) == 0
        else:
            assert mu.density(e.eid) > 0


@pytest.mark.parametrize("seed", range(len(RANDOM)))
def test_subdivision_and_scaling_invariance_random(seed):
    graph = RANDOM[seed]
    rng = random.Random(f"metgraph-invariance:{seed}")
    eps, ph = epsilon_phi(graph)
    e = rng.choice(graph.edges)
    sub = subdivide(graph, e.eid, e.length * F(rng.randint(1, 6), 7))
    assert epsilon_phi(sub) == (eps, ph)
    t = F(rng.randint(1, 9), rng.randint(1, 9))
    assert epsilon_phi(scale(graph, t)) == (t * eps, t * ph)
