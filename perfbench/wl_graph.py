"""The graph-layer workloads: ``graph-places`` and ``graph-queries``.

Neither does any p-adic work.  ``graph-places`` runs the whole-graph
invariant pass once per graph; ``graph-queries`` runs many point queries on
a few graphs, so that a kernel change which trades per-query cost against
whole-graph cost shows on one of the two.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import gen
import reference
from harness import Op, Workload
from hypinv import invariants, metgraph

# Scaling families at growing n, with the same lengths for every seed, and
# (|V|, |E|) of the seeded random graphs.  The random graphs are small, so
# they cost less than every family member: the tail (11th-largest op) is
# then a fixed family member and does not move with the seed.
BANANA = (5, 7, 9, 11, 13, 15)
NECKLACE = (3, 4, 5)
COMPLETE = (4, 5, 6)
RANDOM_PLACES = ((3, 4),) * 6
#: Graphs checked for homogeneity and subdivision invariance after the
#: timed passes.
INVARIANCE_SUBSET = ("banana(5)", "necklace(3)", "K_4", "random#0", "random#1")
PRIMES = (2, 3, 5, 7, 11, 13)


def genus2_sweep():
    """All 79 genus-2 table rows: every type, parameters in {1, 2, 3}."""
    for fiber_type, n in reference.GENUS2_ARITY.items():
        for params in itertools.product((1, 2, 3), repeat=n):
            yield fiber_type, params


def _factors(genus, edges):
    return {
        "V": len(genus),
        "E": len(edges),
        "genus": reference.total_genus(genus, edges),
    }


# ---------------------------------------------------------------- places


def place_inputs(seed):
    """Graphs of one seed's batch, as dicts with the label, the graph, its
    genus-2 row (or None), logNv and, for the invariance subset, a scale
    factor and a subdivision point."""
    rng, fixed = gen.rng_for(seed, "graph-places"), gen.family_rng()
    items = []
    for fiber_type, params in genus2_sweep():
        graph = reference.genus2_shape(fiber_type, params)
        items.append((f"{fiber_type}{params}", graph, (fiber_type, params)))
    for n in BANANA:
        items.append((f"banana({n})", gen.banana(fixed, n), None))
    for n in NECKLACE:
        items.append((f"necklace({n})", gen.necklace(fixed, n), None))
    for n in COMPLETE:
        items.append((f"K_{n}", gen.complete(fixed, n), None))
    for i, (nv, ne) in enumerate(RANDOM_PLACES):
        items.append((f"random#{i}", gen.random_graph(rng, nv, ne), None))
    out = []
    for label, graph, row in items:
        item = {"label": label, "graph": graph, "row": row,
                "log_nv": math.log(rng.choice(PRIMES))}
        if label in INVARIANCE_SUBSET:
            edges = graph[1]
            eid = rng.randrange(len(edges))
            item["scale"] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            item["split"] = gen.interior_point(rng, edges, eid)
        out.append(item)
    return out


def _place_op(item):
    label, log_nv = item["label"], item["log_nv"]
    graph = metgraph.MetrizedGraph(*item["graph"])
    return Op(
        "place_report",
        label,
        lambda _: invariants.place_report_from_graph(label, graph, log_nv),
        _factors(*item["graph"]),
        item,
    )


def _aggregate(prior):
    by_genus = {}
    for report in prior:
        by_genus.setdefault(report.genus, []).append(report)
    return {g: invariants.aggregate_global(reps) for g, reps in by_genus.items()}


def places_prepare(seed, env):
    ops = [_place_op(item) for item in place_inputs(seed)]
    ops.append(Op("aggregate_global", "all places", _aggregate))
    return ops


def places_warm_up(env):
    rng = gen.rng_for(0, "graph-places-warm-up")
    for genus, edges in (
        reference.genus2_shape("VII", (4, 5, 7)),
        gen.banana(rng, 4),
        gen.random_graph(rng, 3, 5),
    ):
        invariants.place_report_from_graph("warm-up", metgraph.MetrizedGraph(genus, edges))


def _scaled(genus, edges, t):
    return genus, [(u, v, length * t) for u, v, length in edges]


def _subdivided(genus, edges, eid, s):
    u, v, length = edges[eid]
    genus = dict(genus, mid=0)
    rest = [e for k, e in enumerate(edges) if k != eid]
    return genus, rest + [(u, "mid", s), ("mid", v, length - s)]


def places_check(ops, results):
    problems = {}
    reports = []
    for i, (op, report) in enumerate(zip(ops, results)):
        if op.kind != "place_report":
            continue
        genus, edges = op.data["graph"]
        row = op.data["row"]
        found = problems.setdefault(i, [])
        if not isinstance(report, invariants.PlaceReport):
            found.append("operation raised")
            continue
        reports.append((report, op.data["log_nv"]))
        g = reference.total_genus(genus, edges)
        dlt = sum((length for _, _, length in edges), Fraction(0))
        d = reference.discriminant_order(genus, edges)
        if (report.genus, report.delta, report.d) != (g, dlt, d):
            found.append(
                f"(genus, delta, d) = {(report.genus, report.delta, report.d)}, "
                f"expected {(g, dlt, d)}"
            )
        if report.chi != reference.chi(g, report.d, report.eps, report.delta):
            found.append(f"chi {report.chi} breaks its defining formula")
        if row is not None:
            t_d, t_delta, t_eps, t_chi = reference.genus2_row(*row)
            got = (report.d, report.delta, report.eps, report.phi, report.chi)
            want = (t_d, t_delta, t_eps, t_chi, t_chi)
            if got != want:
                found.append(f"(d, delta, eps, phi, chi) = {got}, table {want}")
        if "scale" in op.data:
            found += _invariance_problems(op.data, report)
    agg = ops[-1]
    if agg.kind == "aggregate_global":
        i = len(ops) - 1
        problems[i] = _aggregate_problems(results[i], reports)
    return {i: p for i, p in problems.items() if p}


def _invariance_problems(item, report):
    # epsilon and phi are homogeneous of degree 1 in the edge lengths and
    # do not see a genus-0 vertex inserted inside an edge
    found = []
    genus, edges = item["graph"]
    t = item["scale"]
    scaled = metgraph.epsilon_phi(metgraph.MetrizedGraph(*_scaled(genus, edges, t)))
    if scaled != (t * report.eps, t * report.phi):
        found.append(f"scaling by {t}: (eps, phi) = {scaled}")
    eid, s = item["split"]
    sub = metgraph.epsilon_phi(metgraph.MetrizedGraph(*_subdivided(genus, edges, eid, s)))
    if sub != (report.eps, report.phi):
        found.append(f"subdividing edge {eid} at {s}: (eps, phi) = {sub}")
    return found


def _aggregate_problems(result, reports):
    if not isinstance(result, dict):
        return ["operation raised"]
    by_genus = {}
    for report, log_nv in reports:
        by_genus.setdefault(report.genus, []).append((report.chi, log_nv))
    found = []
    if set(result) != set(by_genus):
        found.append(f"genera {sorted(result)}, expected {sorted(by_genus)}")
    for g, items in by_genus.items():
        want = reference.omega_sum(g, items)
        if not math.isclose(result.get(g, math.nan), want, rel_tol=1e-12):
            found.append(f"genus {g}: aggregate {result.get(g)}, expected {want}")
    return found


GRAPH_PLACES = Workload(
    places_prepare,
    places_warm_up,
    places_check,
)


# --------------------------------------------------------------- queries

def query_inputs(seed):
    """[(label, genus, edges)] of the mid-size query graphs: four fixed
    family members and one small seeded random graph."""
    fixed = gen.family_rng()
    return [
        ("necklace(4)", *gen.necklace(fixed, 4)),
        ("K_5", *gen.complete(fixed, 5)),
        ("banana(10)", *gen.banana(fixed, 10)),
        ("wheel(4)", *gen.wheel(fixed, 4)),
        ("random#0", *gen.random_graph(gen.rng_for(seed, "graph-queries"), 3, 5)),
    ]


def _query_points(rng, genus, edges):
    """Point pairs: 2 vertex-vertex, 3 vertex-interior, 3 interior-interior
    on distinct edges.  The first interior-interior pair is also the pair of
    the two Green's function queries."""
    verts = list(genus)
    pairs = [tuple(rng.sample(verts, 2)) for _ in range(2)]
    for _ in range(3):
        pairs.append((rng.choice(verts), gen.interior_point(rng, edges, rng.randrange(len(edges)))))
    for _ in range(3):
        e1, e2 = rng.sample(range(len(edges)), 2)
        pairs.append((gen.interior_point(rng, edges, e1), gen.interior_point(rng, edges, e2)))
    return pairs


def _point(x):
    return f"e{x[0]}@{x[1]}" if isinstance(x, tuple) else x


def queries_prepare(seed, env):
    rng = gen.rng_for(seed, "graph-queries-points")
    ops = []
    for label, genus, edges in query_inputs(seed):
        graph = metgraph.MetrizedGraph(genus, edges)
        mu = metgraph.admissible_measure(graph)
        pairs = _query_points(rng, genus, edges)
        x, y = pairs[5]
        facts = _factors(genus, edges)
        start = len(ops)

        def op(kind, text, fn, pair=None):
            data = {"graph": (genus, edges), "pair": pair, "gdiag": start}
            ops.append(Op(kind, f"{label} {text}", fn, facts, data))

        op("green_diagonal", "g(x, x)", lambda _, g=graph, m=mu: metgraph.green_diagonal(g, m))
        for a, b in pairs:
            op("resistance", f"r({_point(a)}, {_point(b)})",
               lambda _, g=graph, a=a, b=b: metgraph.resistance(g, a, b), (a, b))
        for a, b in ((x, y), (y, x)):
            op("green", f"g({_point(a)}, {_point(b)})",
               lambda _, g=graph, m=mu, a=a, b=b: metgraph.green(g, m, a, b), (a, b))
        op("verify_admissible", "mu_ad",
           lambda _, g=graph, m=mu: metgraph.verify_admissible(g, m))
    return ops


def queries_warm_up(env):
    rng = gen.rng_for(0, "graph-queries-warm-up")
    genus, edges = gen.random_graph(rng, 3, 5)
    graph = metgraph.MetrizedGraph(genus, edges)
    mu = metgraph.admissible_measure(graph)
    x = gen.interior_point(rng, edges, 0)
    metgraph.resistance(graph, x, "v0")
    metgraph.green(graph, mu, x, "v1")
    metgraph.green_diagonal(graph, mu)
    metgraph.verify_admissible(graph, mu)


def queries_check(ops, results):
    problems = {}
    tables = {}
    for i, (op, got) in enumerate(zip(ops, results)):
        genus, edges = op.data["graph"]
        if op.data["gdiag"] not in tables:
            tables[op.data["gdiag"]] = reference.vertex_resistances(genus, edges)
        table = tables[op.data["gdiag"]]
        found = []
        if op.kind == "resistance":
            want = reference.point_resistance(genus, edges, *op.data["pair"], table)
            if got != want:
                found.append(f"r = {got}, expected {want}")
        elif op.kind == "verify_admissible":
            if got != 0:
                found.append(f"verify_admissible(mu_ad) = {got}, expected 0")
        elif op.kind == "green" and ops[i - 1].kind == "green":
            found = _green_problems(results, i, op.data, table)
        if found:
            problems[i] = found
    return problems


def _green_problems(results, i, data, table):
    # r(x, y) = g(x, x) + g(y, y) - 2 g(x, y) for any mass-1 measure, and
    # g is symmetric; g(x, x) comes from the graph's green_diagonal op
    genus, edges = data["graph"]
    y, x = data["pair"]
    g_xy, g_yx = results[i - 1], results[i]
    try:
        diag = results[data["gdiag"]].evaluate(x) + results[data["gdiag"]].evaluate(y)
    except (AttributeError, KeyError):
        return ["green_diagonal of this graph failed"]
    found = []
    if g_xy != g_yx:
        found.append(f"g(x, y) = {g_xy} but g(y, x) = {g_yx}")
    r = reference.point_resistance(genus, edges, x, y, table)
    if not isinstance(g_xy, Fraction) or diag - 2 * g_xy != r:
        found.append(f"g(x,x) + g(y,y) - 2 g(x,y) = {diag} - 2*{g_xy}, r = {r}")
    return found


GRAPH_QUERIES = Workload(
    queries_prepare,
    queries_warm_up,
    queries_check,
)
