import builtins
import dataclasses
import itertools
import random
import re
import sys
from fractions import Fraction

import pytest

import oracle_kernel
from hypinv import invariants, metgraph
from hypinv._piecewise import PiecewisePoly
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
)
from hypinv.rational import format_rat

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


@pytest.mark.parametrize("genus", [1.7, 2.0, "2", True, F(2), None])
def test_non_integer_vertex_genus_rejected(genus):
    # int() once kept 1 of 1.7 and 2 of "2", silently
    with pytest.raises(ValueError, match=r"genus of vertex 'v' is not an integer"):
        MetrizedGraph({"v": genus}, [("v", "v", F(1))])


def test_vertex_ids_that_read_alike_rejected():
    # ids are kept as strings: 1 and "1" were merged into one vertex of genus 2
    with pytest.raises(ValueError, match=r"^duplicate vertex id: '1'$"):
        MetrizedGraph({1: 0, "1": 2}, [])


def test_genus_accounting():
    assert loop1().total_genus == 2
    assert theta().total_genus == 2
    assert segment().total_genus == 2
    assert theta().betti == 2


def graph_doc(graph):
    """``graph`` as a docs/schemas/graph.schema.json document."""
    return {
        "vertices": [{"id": v, "genus": g} for v, g in sorted(graph.genus.items())],
        "edges": [{"u": e.u, "v": e.v, "length": format_rat(e.length)} for e in graph.edges],
    }


def test_json_roundtrip():
    g = theta(1, 2, F(5, 3))
    g2 = MetrizedGraph.from_json(graph_doc(g))
    assert g2.genus == g.genus and g2.edges == g.edges


def _bad_docs():
    """Graph documents that docs/schemas/graph.schema.json rejects."""
    doc = graph_doc(loop1())
    vertex, edge = doc["vertices"][0], doc["edges"][0]
    yield "top-level key", {**doc, "note": "x"}
    yield "vertex key", {**doc, "vertices": [{**vertex, "label": "x"}]}
    yield "edge key", {**doc, "edges": [{**edge, "weight": 1}]}
    yield "integer vertex id", {
        "vertices": [{"id": 0, "genus": 1}],
        "edges": [{"u": 0, "v": 0, "length": "1"}],
    }
    yield "integer endpoint", {**doc, "edges": [{**edge, "u": 0}]}
    yield "numeric length", {**doc, "edges": [{**edge, "length": 1}]}
    yield "vertex not an object", {**doc, "vertices": ["v"]}
    yield "document not an object", [doc]
    # each once ended in a KeyError or a TypeError from inside
    yield "no vertices", {"edges": doc["edges"]}
    yield "no edges", {"vertices": doc["vertices"]}
    yield "vertex without id", {**doc, "vertices": [{"genus": 1}]}
    yield "vertex without genus", {**doc, "vertices": [{"id": "v"}]}
    yield "edge without u", {**doc, "edges": [{"v": "v", "length": "1"}]}
    yield "vertices not a list", {**doc, "vertices": 5}
    yield "edges not a list", {**doc, "edges": 5}


@pytest.mark.parametrize(
    ("what", "doc"), list(_bad_docs()), ids=[w for w, _ in _bad_docs()]
)
def test_from_json_rejects_what_the_schema_rejects(what, doc):
    with pytest.raises(ValueError):
        MetrizedGraph.from_json(doc)


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


@pytest.mark.parametrize(
    "point",
    [("e", 0, F(5)), ("e", 0, F(1, 2)), (-1, F(1, 2)), (2, F(1, 2)), (5, F(1, 2)),
     (True, F(1, 2)), (1.0, F(1, 2)), ("0", F(1, 2)), (F(0), F(1, 2)),
     (0, F(3, 2)), (1, -1), "c"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda g, x: resistance(g, x, "a"),
        lambda g, x: resistance(g, "a", x),
        lambda g, x: green(g, canonical_measure(g), x, "a"),
        lambda g, x: green(g, canonical_measure(g), "a", x),
    ],
    ids=["resistance(x, a)", "resistance(a, x)", "green(x, a)", "green(a, x)"],
)
def test_edge_point_outside_the_graph_rejected(call, point):
    # a point on an edge is exactly (int edge id in range, offset): a tagged
    # 3-tuple, a negative id (read as the last edge), an id past the end and
    # a non-int id all raise ValueError, as do an offset outside [0, L] and
    # an unknown vertex; ("e", 0, 5) once gave r = -10/3
    g = MetrizedGraph({"a": 0, "b": 1}, [("a", "b", F(1)), ("b", "a", F(2))])
    with pytest.raises(ValueError):
        call(g, point)


@pytest.mark.parametrize("point", [("e", 0, F(5)), (0,), (), (0, F(1, 2), 0)])
@pytest.mark.parametrize(
    "call",
    [
        lambda g, x: resistance(g, x, "a"),
        lambda g, x: green(g, canonical_measure(g), "a", x),
        lambda g, x: green_diagonal(g, canonical_measure(g)).evaluate(x),
    ],
    ids=["resistance", "green", "green_diagonal"],
)
def test_edge_point_of_the_wrong_length_names_the_form(call, point):
    g = MetrizedGraph({"a": 0, "b": 1}, [("a", "b", F(1)), ("b", "a", F(2))])
    with pytest.raises(ValueError, match=r"pair \(edge id, offset\)"):
        call(g, point)


@pytest.mark.parametrize(
    "point,message",
    [((0, 7), "offset 7 outside edge 0"), ((0, -3), "offset -3 outside edge 0"),
     ((1, F(5, 2)), "offset 5/2 outside edge 1"), ((5, 0), "no edge 5"),
     ((-1, 0), "no edge -1"), ((True, 0), "edge id is not an integer"),
     ("c", "unknown vertex: c")],
)
def test_piecewise_poly_rejects_a_point_off_the_graph(point, message):
    # on this circle (0, 7) once read the edge quadratic at 7 and gave -143/16
    g = MetrizedGraph({"a": 0, "b": 1}, [("a", "b", F(1)), ("b", "a", F(2))])
    poly = green_diagonal(g, admissible_measure(g))
    with pytest.raises(ValueError, match=message):
        poly.evaluate(point)


def test_every_point_function_reads_an_int_vertex_id_alike():
    # ids are strings on the graph; green_diagonal's evaluate(0) once raised
    # "unknown vertex: 0" where resistance and green took the int 0
    g = MetrizedGraph({0: 1, 1: 1}, [(0, 1, 2), (0, 1, 3)])
    mu = admissible_measure(g)
    poly = green_diagonal(g, mu)
    assert poly.evaluate(0) == poly.evaluate("0") == green(g, mu, 0, 0)
    assert poly.evaluate(1) == green(g, mu, "1", 1)
    assert resistance(g, 0, 1) == resistance(g, "0", "1") == F(6, 5)
    with pytest.raises(ValueError, match="unknown vertex: 2"):
        poly.evaluate(2)


@pytest.mark.parametrize(
    "call",
    [
        lambda g, mu: green(g, mu, "0", "1"),
        green_diagonal,
        verify_admissible,
    ],
    ids=["green", "green_diagonal", "verify_admissible"],
)
def test_measure_with_mass_off_the_graph_names_the_vertices(call):
    # the masses total 1, so "total mass 1" would not say what is wrong: the
    # graph's ids are strings and the mass sits on the int 0
    g = MetrizedGraph({0: 1, 1: 1}, [(0, 1, 2), (0, 1, 3)])
    with pytest.raises(ValueError, match=r"unknown vertices, .*: \[0\]$"):
        call(g, Measure({0: F(1, 2), "1": F(1, 2)}, {}))
    with pytest.raises(ValueError, match=r"unknown vertices, .*: \[2, 'x'\]$"):
        call(g, Measure({"0": F(1, 2), 2: F(1, 4), "x": F(1, 4)}, {}))


def test_piecewise_poly_reads_its_edge_ends_and_keeps_lengths_out_of_equality():
    g = MetrizedGraph({"a": 0, "b": 1}, [("a", "b", F(1)), ("b", "a", F(2))])
    poly = green_diagonal(g, admissible_measure(g))
    assert poly.edge_lengths == {0: F(1), 1: F(2)}
    # edge 0 runs a -> b and edge 1 b -> a: both ends of each are in range
    assert poly.evaluate((0, 0)) == poly.evaluate("a") == poly.evaluate((1, F(2)))
    assert poly.evaluate((0, F(1))) == poly.evaluate("b") == poly.evaluate((1, 0))
    # built without lengths: equal as a function, offsets bounded below only
    bare = PiecewisePoly(poly.vertex_values, poly.edge_coeffs)
    assert bare == poly
    c0, c1, c2 = poly.edge_coeffs[0]
    assert bare.evaluate((0, 7)) == c0 + 7 * c1 + 49 * c2
    with pytest.raises(ValueError, match="offset -1 outside edge 0"):
        bare.evaluate((0, -1))


def test_green_diagonal_returns_the_piecewise_poly_dataclass():
    # PiecewisePoly lives in hypinv._piecewise, and only there, and stays a
    # dataclass: dataclasses.replace works on a green_diagonal result, and
    # repr and == are those of the dataclass that metgraph once defined itself
    g = MetrizedGraph({"a": 0, "b": 1}, [("a", "b", F(1, 2)), ("b", "a", 2)])
    poly = green_diagonal(g, admissible_measure(g))
    assert type(poly) is PiecewisePoly and not hasattr(metgraph, "PiecewisePoly")
    assert dataclasses.is_dataclass(poly)
    coeffs = (
        "{0: (Fraction(121, 480), Fraction(-3, 10), Fraction(-1, 5)), "
        "1: (Fraction(5, 96), Fraction(1, 2), Fraction(-1, 5))}"
    )
    assert repr(poly) == (
        "PiecewisePoly(vertex_values={'a': Fraction(121, 480), 'b': Fraction(5, 96)}, "
        f"edge_coeffs={coeffs}, edge_lengths={{0: Fraction(1, 2), 1: Fraction(2, 1)}})"
    )
    bare = dataclasses.replace(poly, edge_lengths={})
    assert type(bare) is PiecewisePoly and bare.edge_lengths == {}
    assert bare == poly  # the lengths are left out of ==
    assert dataclasses.replace(poly) == poly == green_diagonal(g, admissible_measure(g))
    shifted = dataclasses.replace(poly, vertex_values={v: x + 1 for v, x in poly.vertex_values.items()})
    assert shifted != poly and shifted.evaluate("a") == F(601, 480)
    assert poly.__hash__ is None  # unhashable, as a dataclass with eq and no frozen


def test_green_diagonal_imports_only_piecewise_poly(monkeypatch):
    # a call after the first runs one import statement, the class from the
    # already loaded hypinv._piecewise: no other import and no new module
    g = loop1()
    mu = admissible_measure(g)
    want = green_diagonal(g, mu)
    held = set(sys.modules)
    imports = []
    real = builtins.__import__

    def spy(name, globals=None, locals=None, fromlist=(), level=0):
        imports.append((name, fromlist, level))
        return real(name, globals, locals, fromlist, level)

    monkeypatch.setattr(builtins, "__import__", spy)
    assert green_diagonal(g, mu) == want and type(want) is PiecewisePoly
    assert imports == [("_piecewise", ("PiecewisePoly",), 1)]
    assert set(sys.modules) == held


@pytest.mark.parametrize("offset", ["1/2", 0.1, True], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda g, x: resistance(g, x, "a"),
        lambda g, x: green(g, canonical_measure(g), x, "a"),
        lambda g, x: green_diagonal(g, canonical_measure(g)).evaluate(x),
    ],
    ids=["resistance", "green", "evaluate"],
)
def test_edge_offset_that_is_not_rational_rejected(call, offset):
    # the offset was once coerced: resistance gave 5/12 at "1/2", a fraction
    # over 3 * 2**110 at 0.1, and True was read as 1
    g = MetrizedGraph({"a": 0, "b": 1}, [("a", "b", F(1)), ("b", "a", F(2))])
    with pytest.raises(ValueError, match="^edge offset is not an int or a Fraction"):
        call(g, (0, offset))


def test_edge_point_in_range_accepted():
    g = MetrizedGraph({"a": 0, "b": 1}, [("a", "b", F(1)), ("b", "a", F(2))])
    # a circle of circumference 3: r = s (3 - s) / 3 at arc distance s from a;
    # edge 1 runs from b, so its offset 1/2 lies 3/2 from a either way round
    assert resistance(g, (0, F(1, 2)), "a") == F(1, 2) * F(5, 2) / 3
    assert resistance(g, (1, F(1, 2)), "a") == F(3, 2) * F(3, 2) / 3
    mu = canonical_measure(g)
    assert green(g, mu, (1, F(1, 2)), "a") == green(g, mu, "a", (1, F(1, 2)))


@pytest.mark.parametrize(
    "call",
    [resistance, lambda g, x, y: green(g, canonical_measure(g), x, y)],
    ids=["resistance", "green"],
)
def test_edge_point_at_an_end_is_the_endpoint_vertex(call):
    # edge 1 runs b -> a: offset 0 is b and offset L = 2 is a
    g = MetrizedGraph({"a": 0, "b": 1}, [("a", "b", F(1)), ("b", "a", F(2))])
    for other in ("a", "b", (0, F(1, 2))):
        assert call(g, (0, 0), other) == call(g, "a", other) == call(g, (1, F(2)), other)
        assert call(g, other, (0, F(1))) == call(g, other, "b") == call(g, other, (1, 0))


def test_an_edge_point_id_is_checked_once(monkeypatch):
    g = MetrizedGraph({"a": 0, "b": 1}, [("a", "b", F(1)), ("b", "a", F(2))])
    calls = []
    real = metgraph.require_int

    def counted(value, what):
        calls.append(what)
        return real(value, what)

    monkeypatch.setattr(metgraph, "require_int", counted)
    assert resistance(g, (1, F(1, 2)), "a") == F(9, 4) / 3
    assert calls == ["edge id"]


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
    assert oracle_kernel.verify_canonical(g, mu) == 0
    diag = green_diagonal(g, mu)
    assert len(set(diag.vertex_values.values())) == 1
    assert all(c1 == c2 == 0 for _, c1, c2 in diag.edge_coeffs.values())


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


@pytest.mark.parametrize("call", [green_diagonal, verify_admissible])
def test_measure_with_mass_off_the_graph_rejected(call):
    # mass 1 in total, but half of it on a vertex the graph does not have
    with pytest.raises(ValueError, match="on the graph's points"):
        call(theta(), Measure({"v1": F(1, 2), "elsewhere": F(1, 2)}, {}))


@pytest.mark.parametrize(
    "call",
    [
        lambda g, mu: green(g, mu, "v", "v"),
        green_diagonal,
        verify_admissible,
    ],
    ids=["green", "green_diagonal", "verify_admissible"],
)
def test_density_on_unknown_edge_rejected(call):
    # the graph has one edge, id 0: a density on edge 7 is not silently dropped
    g = loop1()
    mu = admissible_measure(g)
    call(g, mu)  # the graph keeps mu's kernel; a new measure builds its own
    mu = Measure(mu.vertex_mass, {**mu.edge_density, 7: F(5)})
    with pytest.raises(ValueError, match=r"unknown edges: \[7\]"):
        call(g, mu)


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
    masses = mu.vertex_mass
    bad = Measure(
        {**masses, "v1": masses["v1"] + F(1, 10), "v2": masses["v2"] - F(1, 10)},
        mu.edge_density,
    )
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


@pytest.mark.parametrize(
    "eid, detail",
    [
        (True, "edge id is not an integer: True"),
        ("0", "edge id is not an integer: '0'"),
        (1.0, "edge id is not an integer: 1.0"),
        (-1, "no edge -1 in a graph of 3 edges"),
        (3, "no edge 3 in a graph of 3 edges"),
        (5, "no edge 5 in a graph of 3 edges"),
    ],
)
def test_subdivide_refuses_an_edge_id_off_the_graph(eid, detail):
    # True once split edge 1, -1 read as "graph must be connected", 5 raised
    # IndexError and "0" TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(detail)}$"):
        subdivide(theta(1, 2, 3), eid, F(1, 2))


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


def zhang_integral(graph, mu, poly, a, b):
    """int g_mu(x, x) d(a mu + b delta_K), integrating the public per-edge
    quadratic of ``green_diagonal`` by its exact antiderivative."""
    k = canonical_divisor(graph)
    total = sum(
        ((a * mu.mass(v) + b * k[v]) * poly.vertex_values[v] for v in graph.genus),
        F(0),
    )
    for e in graph.edges:
        c0, c1, c2 = poly.edge_coeffs[e.eid]
        L = e.length
        total += a * mu.density(e.eid) * (c0 * L + c1 * L**2 / 2 + c2 * L**3 / 3)
    return total


@pytest.mark.parametrize("graph", RANDOM)
def test_epsilon_phi_equal_zhang_integrals(graph):
    # Zhang (2010): eps = int g_mu(x, x) d((2g-2) mu + delta_K) and
    # phi = -delta/4 + (1/4) int g_mu(x, x) d((10g+2) mu - delta_K)
    g = graph.total_genus
    mu = admissible_measure(graph)
    poly = green_diagonal(graph, mu)
    eps = zhang_integral(graph, mu, poly, 2 * g - 2, 1)
    ph = -delta(graph) / 4 + zhang_integral(graph, mu, poly, 10 * g + 2, -1) / 4
    assert epsilon_phi(graph) == (eps, ph)


def side_genera(graph):
    """eid -> total genus of the side of edge.u when the edge is a bridge,
    None otherwise, by union-find over the other edges."""
    out = {}
    for edge in graph.edges:
        root = {v: v for v in graph.genus}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        rest = [e for e in graph.edges if e.eid != edge.eid]
        for e in rest:
            root[find(e.u)] = find(e.v)
        side = find(edge.u)
        if side == find(edge.v):
            out[edge.eid] = None
            continue
        verts = [v for v in graph.genus if find(v) == side]
        n_edges = sum(find(e.u) == side for e in rest)
        out[edge.eid] = n_edges - len(verts) + 1 + sum(graph.genus[v] for v in verts)
    return out


@pytest.mark.parametrize("graph", RANDOM)
def test_node_counts_classify_bridges(graph):
    g = graph.total_genus
    density = canonical_measure(graph).density
    sides = side_genera(graph)
    connected, bridges = graph.bridge_search()
    assert connected
    for e in graph.edges:
        assert bridges.get(e.eid) == sides[e.eid]
        assert (density(e.eid) > 0) == (sides[e.eid] is None)
    delta_i = [F(0)] * (g // 2)
    for e in graph.edges:
        side = sides[e.eid]
        if side is not None and min(side, g - side) > 0:
            delta_i[min(side, g - side) - 1] += e.length
    counts, _ = invariants.node_counts_from_graph(graph)
    assert counts.xi0 == sum((e.length for e in graph.edges if density(e.eid) > 0), F(0))
    assert counts.delta_i == tuple(delta_i)


@pytest.mark.parametrize("graph", RANDOM[:4])
def test_node_counts_read_the_constructors_bridge_search(monkeypatch, graph):
    # the graph keeps the sides and the genus its constructor found, so a
    # place report runs no second search
    assert graph.bridge_sides == graph.bridge_search()[1]
    assert graph.total_genus == graph.betti + sum(graph.genus.values())
    expected = invariants.node_counts_from_graph(graph)
    monkeypatch.setattr(MetrizedGraph, "bridge_search", lambda self: pytest.fail("searched"))
    assert invariants.node_counts_from_graph(graph) == expected
    assert invariants.place_report_from_graph("p", graph).d == invariants.d_from_counts(
        expected[0]
    )
