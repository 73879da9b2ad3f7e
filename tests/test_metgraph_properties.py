"""Property tests of the metgraph kernel on random multigraphs, its integer
solve, larger graphs against the old kernel, and cost guards."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

import oracle_kernel as old
from hypinv import invariants, metgraph
from hypinv.metgraph import MetrizedGraph
from test_metgraph import is_bridge, side_genera, spanning_tree_weight

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


@st.composite
def with_pendant_trees(draw):
    """A ``graphs()`` multigraph with up to five more vertices, each hanging
    by one edge off a vertex before it: trees of bridges whose far sides
    may have genus 0."""
    graph = draw(graphs())
    genus = dict(graph.genus)
    edges = [(e.u, e.v, e.length) for e in graph.edges]
    for i in range(draw(st.integers(0, 5))):
        edges.append((draw(st.sampled_from(list(genus))), f"t{i}", draw(LENGTHS)))
        genus[f"t{i}"] = draw(st.integers(0, 1))
    return MetrizedGraph(genus, edges)


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
        masses = mu.vertex_mass
        moved = metgraph.Measure(
            {**masses, a: masses[a] + F(1, 7), b: masses[b] - F(1, 7)}, mu.edge_density
        )
        wrong.append(moved)
    spread = [e for e in graph.edges if mu.density(e.eid)]
    if spread:
        e = data.draw(st.sampled_from(spread))
        t = data.draw(st.fractions(0, 3, max_denominator=4).filter(lambda t: t != 1))
        w = data.draw(st.sampled_from(graph.vertices))
        scaled = metgraph.Measure(
            {**mu.vertex_mass, w: mu.mass(w) + (1 - t) * mu.density(e.eid) * e.length},
            {**mu.edge_density, e.eid: mu.density(e.eid) * t},
        )
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
        assert psi_w == sum(k[v] * metgraph.resistance(graph, v, w) for v in graph.vertices)


@PROPERTY
@given(st.one_of(graphs(), with_pendant_trees()))
def test_epsilon_phi_matches_oracle_and_admissible_masses_are_genus_over_g(graph):
    # three routes: the tau constant, the admissible masses and the
    # subdivision kernel; on pendant trees the genus-0 leaves have K = -1
    # and each bridge adds L / 4 to tau
    g = graph.total_genus
    mu = metgraph.admissible_measure(graph)
    assert mu.vertex_mass == {v: F(h, g) for v, h in graph.genus.items()}
    assert mu == old.admissible_measure(graph)
    expected = old.epsilon_phi(graph)
    assert metgraph.epsilon_phi(graph) == old.mass_epsilon_phi(graph) == expected


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


# ------------------------------- the integer kernel against the Fraction one

#: an int or a Fraction with a small denominator, so that the masses and
#: densities of one measure have mixed denominators
VALUES = st.one_of(
    st.integers(-2, 2), st.fractions(min_value=-2, max_value=3, max_denominator=6)
)


@st.composite
def measures(draw, graph):
    """A total-mass-1 measure on ``graph``, not only mu_ad: each edge has
    no density, a zero one or a nonzero int or Fraction; some vertices carry
    a mass; the total is made 1 on one vertex or, when no vertex carries a
    mass, by scaling the densities (a unit point mass if they total 0)."""
    densities = {}
    for e in graph.edges:
        kind = draw(st.sampled_from(["none", "zero", "value"]))
        if kind != "none":
            densities[e.eid] = 0 if kind == "zero" else draw(VALUES)
    carriers = draw(st.lists(st.sampled_from(graph.vertices), unique=True))
    masses = {v: draw(VALUES) for v in carriers}
    spread = sum((d * graph.edges[eid].length for eid, d in densities.items()), F(0))
    if carriers:
        rest = 1 - spread - sum(masses.values()) + masses[carriers[0]]
        masses[carriers[0]] = int(rest) if rest.denominator == 1 else rest
    elif spread:
        densities = {eid: d / spread for eid, d in densities.items()}
    else:
        densities, masses = {}, {graph.vertices[0]: 1}
    mu = metgraph.Measure(masses, densities)
    assert mu.total_mass(graph) == 1
    return mu


@st.composite
def graphs_with_measures(draw):
    graph = draw(graphs())
    return graph, draw(measures(graph))


def _values(mu):
    return [*mu.vertex_mass.values(), *mu.edge_density.values()]


@pytest.mark.parametrize(
    "shape",
    [
        lambda g, mu: len({F(x).denominator for x in _values(mu) if x}) >= 3,
        lambda g, mu: 0 in mu.edge_density.values(),
        lambda g, mu: len(mu.edge_density) < len(g.edges),
        lambda g, mu: any(type(x) is int and x for x in _values(mu)),
        lambda g, mu: 0 < len(mu.vertex_mass) < len(g.genus),
        lambda g, mu: not mu.vertex_mass and any(mu.edge_density.values()),
        lambda g, mu: any(x < 0 for x in _values(mu)),
        lambda g, mu: any(e.is_loop and mu.density(e.eid) for e in g.edges)
        and any(is_bridge(g, e.eid) and mu.density(e.eid) for e in g.edges),
    ],
    ids=["mixed-denominators", "zero-density", "no-density", "int", "some-vertices",
         "no-vertex-mass", "negative", "loop-and-bridge"],
)
def test_measure_strategy_reaches_every_shape(shape):
    search = settings(
        database=None, derandomize=True, max_examples=1000, phases=[Phase.generate]
    )
    find(graphs_with_measures(), lambda case: shape(*case), settings=search)


def interior_point(draw, graph, eid):
    t = draw(st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8))
    return (eid, graph.edges[eid].length * t)


def point_pairs(draw, graph):
    """Vertex-vertex, vertex-interior, interior-vertex, same-edge, equal and
    distinct-edge point pairs on ``graph``, as far as it has edges."""
    vertex = st.sampled_from(graph.vertices)
    pairs = [(draw(vertex), draw(vertex))]
    if graph.edges:
        eids = st.integers(0, len(graph.edges) - 1)
        e1 = draw(eids)
        x = interior_point(draw, graph, e1)
        y = interior_point(draw, graph, e1)
        pairs += [(draw(vertex), x), (x, draw(vertex)), (x, y), (x, x)]
        if len(graph.edges) >= 2:
            e2 = draw(eids.filter(lambda i: i != e1))
            pairs.append((x, interior_point(draw, graph, e2)))
    return pairs


@PROPERTY
@given(graphs_with_measures(), st.data())
def test_green_matches_the_fraction_kernel_on_arbitrary_measures(case, data):
    graph, mu = case
    for a, b in point_pairs(data.draw, graph):
        assert metgraph.green(graph, mu, a, b) == old.fraction_green(graph, mu, a, b)


@PROPERTY
@given(graphs(), st.data())
def test_resistance_matches_the_fraction_point_path(graph, data):
    for a, b in point_pairs(data.draw, graph):
        r = metgraph.resistance(graph, a, b)
        assert type(r) is F and r == old.fraction_resistance(graph, a, b)


@PROPERTY
@given(graphs_with_measures(), st.data())
def test_green_is_its_diagonal_and_gives_back_resistance(case, data):
    # g(x, x) = phi(x) - c / 2 and r(x, y) = g(x, x) + g(y, y) - 2 g(x, y)
    graph, mu = case
    diagonal = metgraph.green_diagonal(graph, mu)
    for a, b in point_pairs(data.draw, graph):
        gaa, gbb = metgraph.green(graph, mu, a, a), metgraph.green(graph, mu, b, b)
        assert gaa == diagonal.evaluate(a) and gbb == diagonal.evaluate(b)
        r = metgraph.resistance(graph, a, b)
        assert r == gaa + gbb - 2 * metgraph.green(graph, mu, a, b)


def readdress(point, eid, s, new):
    """``point`` of a graph addressed on ``subdivide(graph, eid, s)``, whose
    new vertex is ``new``: edge ``eid`` splits at ``s`` into the edges ``eid``
    and ``eid + 1``, and every later edge moves up by one."""
    if not isinstance(point, tuple):
        return point
    f, off = point
    if f < eid or (f == eid and off < s):
        return point
    if f > eid:
        return (f + 1, off)
    return new if off == s else (eid + 1, off - s)


@PROPERTY
@given(graphs(), st.data())
def test_point_queries_are_invariant_under_subdivision_and_scale(graph, data):
    # r and g_mu_ad at a point inside an edge are their values at the vertex
    # that subdivides the edge there, and both scale with the lengths; the
    # subdivided side reads no edge point, so neither side shares a point path
    mu = metgraph.admissible_measure(graph)
    t = data.draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3))
    scaled = metgraph.scale(graph, t)
    scaled_mu = metgraph.admissible_measure(scaled)
    for a, b in point_pairs(data.draw, graph):
        r, g = metgraph.resistance(graph, a, b), metgraph.green(graph, mu, a, b)
        ta, tb = ((p[0], t * p[1]) if isinstance(p, tuple) else p for p in (a, b))
        assert metgraph.resistance(scaled, ta, tb) == t * r
        assert metgraph.green(scaled, scaled_mu, ta, tb) == t * g
        inside = [p for p in (a, b) if isinstance(p, tuple)]
        if not inside:
            continue
        eid, s = inside[0]
        sub = metgraph.subdivide(graph, eid, s)
        (new,) = sub.genus.keys() - graph.genus.keys()
        sa, sb = (readdress(p, eid, s, new) for p in (a, b))
        assert new in (sa, sb)
        assert metgraph.resistance(sub, sa, sb) == r
        assert metgraph.green(sub, metgraph.admissible_measure(sub), sa, sb) == g


#: The seven public computations on one graph, on (graph, mu, x, y), and
#: their oracles: the Fraction kernel where it exists, else the old one.
SEVEN = {
    "resistance": (lambda g, mu, x, y: metgraph.resistance(g, x, y),
                   lambda g, mu, x, y: old.fraction_resistance(g, x, y)),
    "green": (metgraph.green, old.fraction_green),
    "green_diagonal": (lambda g, mu, x, y: metgraph.green_diagonal(g, mu),
                       lambda g, mu, x, y: old.fraction_green_diagonal(g, mu)),
    "verify_admissible": (lambda g, mu, x, y: metgraph.verify_admissible(g, mu),
                          lambda g, mu, x, y: old.fraction_verify_admissible(g, mu)),
    "canonical_measure": (lambda g, mu, x, y: metgraph.canonical_measure(g),
                          lambda g, mu, x, y: old.canonical_measure(g)),
    "admissible_measure": (lambda g, mu, x, y: metgraph.admissible_measure(g),
                           lambda g, mu, x, y: old.admissible_measure(g)),
    "epsilon_phi": (lambda g, mu, x, y: metgraph.epsilon_phi(g),
                    lambda g, mu, x, y: old.epsilon_phi(g)),
}


@PROPERTY
@given(graphs_with_measures(), st.data())
def test_the_kept_solve_gives_what_a_fresh_graph_gives_in_any_order(case, data):
    # the first call on the graph builds its solve and the rest read it; each
    # result equals the same call as the first on an equal fresh graph, and
    # the oracle's
    graph, mu = case
    x, y = data.draw(st.sampled_from(point_pairs(data.draw, graph)))
    for name in data.draw(st.permutations(list(SEVEN))):
        call, oracle = SEVEN[name]
        fresh = MetrizedGraph(graph.genus, [(e.u, e.v, e.length) for e in graph.edges])
        assert call(graph, mu, x, y) == call(fresh, mu, x, y) == oracle(graph, mu, x, y)


@PROPERTY
@given(graphs(), st.data())
def test_the_kept_kernel_gives_the_oracle_under_any_interleaving(graph, data):
    # queries on one graph under several measures in a drawn order: the graph
    # keeps the last measure's kernel, and every result equals the oracle's
    pool = [metgraph.canonical_measure(graph), metgraph.admissible_measure(graph)]
    pool += data.draw(st.lists(measures(graph), min_size=1, max_size=2))
    pairs = point_pairs(data.draw, graph)
    names = ["green", "green_diagonal", "verify_admissible"]
    steps = st.tuples(st.sampled_from(pool), st.sampled_from(names), st.sampled_from(pairs))
    for mu, name, (x, y) in data.draw(st.lists(steps, min_size=1, max_size=12)):
        call, oracle = SEVEN[name]
        got = call(graph, mu, x, y)
        assert graph._ker.mu is mu
        assert got == oracle(graph, mu, x, y)


@PROPERTY
@given(graphs_with_measures())
def test_one_kernel_reads_green_on_every_vertex_pair(case):
    graph, mu = case
    kernel = metgraph._Kernel(mu, metgraph._Resistances(graph))
    values = {
        (a, b): F(*kernel.green(("v", a), ("v", b)))
        for a, b in itertools.product(graph.vertices, repeat=2)
    }
    for (a, b), g in values.items():
        assert g == values[b, a] == metgraph.green(graph, mu, a, b)


@PROPERTY
@given(graphs_with_measures())
def test_green_diagonal_and_verify_admissible_match_the_fraction_kernel(case):
    graph, mu = case
    new, ref = metgraph.green_diagonal(graph, mu), old.fraction_green_diagonal(graph, mu)
    assert new.vertex_values == ref.vertex_values
    assert new.edge_coeffs == ref.edge_coeffs
    assert all(type(x) is F for x in new.vertex_values.values())
    assert all(type(c) is F for cs in new.edge_coeffs.values() for c in cs)
    assert metgraph.verify_admissible(graph, mu) == old.fraction_verify_admissible(graph, mu)


def refusal(call, graph, mu):
    with pytest.raises(ValueError) as caught:
        call(graph, mu)
    return str(caught.value)


@PROPERTY
@given(graphs_with_measures(), st.data())
def test_the_integer_kernel_refuses_what_the_fraction_kernel_refuses(case, data):
    graph, mu = case
    off = data.draw(st.sampled_from([1, F(1, 3), -2]))
    first, last = graph.vertices[0], graph.vertices[-1]
    wrong = [
        # a density on an unknown edge, of any value
        metgraph.Measure(mu.vertex_mass, {**mu.edge_density, len(graph.edges): off}),
        # a vertex mass off the graph, with the total still 1
        metgraph.Measure(
            {**mu.vertex_mass, "nowhere": off, first: mu.mass(first) - off}, mu.edge_density
        ),
        # a total mass other than 1
        metgraph.Measure({**mu.vertex_mass, last: mu.mass(last) + off}, mu.edge_density),
    ]
    calls = [
        (lambda g, m: metgraph.green(g, m, first, last),
         lambda g, m: old.fraction_green(g, m, first, last)),
        (metgraph.green_diagonal, old.fraction_green_diagonal),
        (metgraph.verify_admissible, old.fraction_verify_admissible),
    ]
    for nu in wrong:
        for new, ref in calls:
            assert refusal(new, graph, nu) == refusal(ref, graph, nu)


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
    "call",
    [
        lambda g, mu: metgraph.epsilon_phi(g),
        lambda g, mu: metgraph.green_diagonal(g, mu),
        lambda g, mu: metgraph.verify_admissible(g, mu),
    ],
    ids=["epsilon_phi", "green_diagonal", "verify_admissible"],
)
def test_no_per_point_vertex_resistances(monkeypatch, call):
    # the potentials come from one product with the adjugate and every
    # canonical density from the integer N_e: no resistance to any point is
    # evaluated
    graph = LARGE["necklace(8)"](random.Random("large:necklace(8)"))
    mu = metgraph.admissible_measure(graph)
    calls = []
    original = metgraph._Resistances.between
    monkeypatch.setattr(
        metgraph._Resistances, "between",
        lambda self, *args: calls.append(args) or original(self, *args),
    )
    call(graph, mu)
    assert calls == []


def test_verify_admissible_builds_as_many_fractions_on_any_necklace(monkeypatch):
    # h is an integer over one denominator at every vertex and edge
    # midpoint, so the Fractions that metgraph builds do not grow with E
    necklaces = [necklace(random.Random(f"fractions:{n}"), n) for n in (4, 8)]
    admissible = [metgraph.admissible_measure(graph) for graph in necklaces]
    calls = []
    monkeypatch.setattr(metgraph, "Fraction", lambda *args: calls.append(args) or F(*args))
    counts = []
    for graph, mu in zip(necklaces, admissible):
        calls.clear()
        assert metgraph.verify_admissible(graph, mu) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("call", ["resistance", "green"])
def test_point_queries_build_one_fraction_on_any_necklace(monkeypatch, call):
    # phi, r and c are integer pairs over one denominator at any two points,
    # so the one Fraction that metgraph builds, by either route, is the result
    calls = []
    monkeypatch.setattr(metgraph, "Fraction", lambda *a: calls.append(a) or F(*a))
    fraction = metgraph._fraction
    monkeypatch.setattr(metgraph, "_fraction", lambda *a: calls.append(a) or fraction(*a))
    for n in (4, 8):
        graph = necklace(random.Random(f"fractions:{n}"), n)
        mu = metgraph.admissible_measure(graph)
        args = (graph,) if call == "resistance" else (graph, mu)
        x, y = (0, graph.edges[0].length / 3), (n, graph.edges[n].length / 2)
        pairs = [("v0", "v1"), ("v0", y), (x, "v1"), (x, (0, F(1, 7))), (x, y), (y, x)]
        for a, b in pairs:
            calls.clear()
            getattr(metgraph, call)(*args, a, b)
            assert len(calls) == 1, (n, a, b)


@pytest.mark.parametrize("call", ["resistance", "green"])
def test_a_point_query_is_one_closed_form_on_any_necklace(monkeypatch, call):
    # one ``between`` per query, with no recursion: r at vertices is read
    # once for two vertices, at most twice for a vertex and an edge point,
    # at most four times for points on two edges, and not for one edge
    graph = necklace(random.Random("reads:8"), 8)
    mu = metgraph.admissible_measure(graph)
    args = (graph,) if call == "resistance" else (graph, mu)
    getattr(metgraph, call)(*args, "v0", "v1")  # builds the solve and the kernel
    between, reads = [], []
    original, r = metgraph._Resistances.between, metgraph._Resistances._r
    monkeypatch.setattr(metgraph._Resistances, "between",
                        lambda self, *a: between.append(a) or original(self, *a))
    monkeypatch.setattr(metgraph._Resistances, "_r",
                        lambda self, *a: reads.append(a) or r(self, *a))
    x, y = (0, graph.edges[0].length / 3), (8, graph.edges[8].length / 2)
    cases = [("v0", "v1", 1), ("v0", y, 2), (x, "v1", 2), (x, (0, F(1, 7)), 0),
             (x, y, 4), (y, x, 4)]
    for a, b, most in cases:
        between.clear()
        reads.clear()
        getattr(metgraph, call)(*args, a, b)
        assert len(between) == 1 and len(reads) <= most, (a, b)


@pytest.mark.parametrize(
    "call, lcms, again",
    [
        (lambda g, mu: metgraph.green_diagonal(g, mu), 2, 0),
        (lambda g, mu: metgraph.verify_admissible(g, mu), 2, 0),
        (lambda g, mu: metgraph.epsilon_phi(g), 3, 2),
    ],
    ids=["green_diagonal", "verify_admissible", "epsilon_phi"],
)
def test_one_denominator_per_integer_route(monkeypatch, call, lcms, again):
    # the solve's scale s, once per graph, then one lcm for the kernel (D) or
    # for epsilon_phi (A over every edge, and delta's own): no route sums
    # over a denominator per edge term; the measure comes from an equal
    # twin graph.  A second
    # call reads the kept solve (no second s) and, on a kernel route, the
    # kept kernel (no lcm at all)
    def build():
        return LARGE["random(10, 15)"](random.Random("large:random(10, 15)"))

    mu = metgraph.admissible_measure(build())
    graph, calls = build(), []
    original = math.lcm
    monkeypatch.setattr(math, "lcm", lambda *args: calls.append(args) or original(*args))
    call(graph, mu)
    assert len(calls) == lcms
    call(graph, mu)
    assert len(calls) == lcms + again


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


@PROPERTY
@given(with_pendant_trees())
def test_bridge_search_matches_union_find(graph):
    # the one search against one union-find per edge: the same bridges, the
    # same genus on each bridge's u side
    connected, sides = graph.bridge_search()
    assert connected
    assert sides == {eid: g for eid, g in side_genera(graph).items() if g is not None}


@PROPERTY
@given(graphs(), graphs())
def test_bridge_search_sees_two_components(one, other):
    genus = {f"a{v}": h for v, h in one.genus.items()}
    genus.update({f"b{v}": h for v, h in other.genus.items()})
    edges = [(f"a{e.u}", f"a{e.v}", e.length) for e in one.edges]
    edges += [(f"b{e.u}", f"b{e.v}", e.length) for e in other.edges]
    with pytest.raises(ValueError, match="graph must be connected"):
        MetrizedGraph(genus, edges)


def test_long_path_and_wide_banana_classify_without_recursion():
    # far deeper and wider than the recursion limit; counts in closed form
    n = 20000
    genus = dict.fromkeys(map(str, range(n)), 0)
    genus["0"] = genus[str(n - 1)] = 1
    path = MetrizedGraph(genus, [(str(i), str(i + 1), F(1, 2)) for i in range(n - 1)])
    assert path.bridge_search() == (True, dict.fromkeys(range(n - 1), 1))
    counts, warnings = invariants.node_counts_from_graph(path)
    assert counts == invariants.NodeCounts(2, 0, (), (F(n - 1, 2),)) and warnings == []
    assert invariants.d_from_counts(counts) == 2 * (n - 1)

    m = 2000
    banana = MetrizedGraph({"a": 0, "b": 0}, [("a", "b", F(1, 1 + i % 3)) for i in range(m)])
    assert banana.bridge_search() == (True, {})
    total = sum(F(1, 1 + i % 3) for i in range(m))
    counts, warnings = invariants.node_counts_from_graph(banana)
    assert banana.total_genus == m - 1 and len(warnings) == m
    assert counts.xi0 == total and not any(counts.xi + counts.delta_i)
    rep = invariants.place_report_from_graph("banana", banana)
    assert rep.d == (m - 1) * total and rep.delta == total
