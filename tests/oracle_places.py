"""Place-report assembly of ``hypinv.invariants`` as it was before the
one-pass bridge search, kept as a test oracle.

Each edge is classified by its own reachability search with that edge left
out (``reach``, once ``MetrizedGraph.reach``: O(E (V + E)) in all), lengths
and counts are summed as ``Fraction``s, and epsilon and phi come from
``oracle_kernel.epsilon_phi``, the subdivision kernel, whose phi reads
``metgraph.delta``.  Slow, but it shares no bridge search, integer count
or phi fold with the library, so the tests compare the two on the genus-2
table and random graphs and require exactly equal ``Fraction``s and
warnings.
"""

from __future__ import annotations

from fractions import Fraction

import oracle_kernel
from hypinv.invariants import NodeCounts


def reach(graph, start, skip=None):
    """Vertices and edge ids reachable from vertex ``start`` without
    crossing the edge with id ``skip``."""
    adj = {}
    for e in graph.edges:
        if e.eid != skip:
            adj.setdefault(e.u, []).append(e)
            adj.setdefault(e.v, []).append(e)
    vertices, eids, frontier = {start}, set(), [start]
    while frontier:
        for e in adj.get(frontier.pop(), ()):
            eids.add(e.eid)
            for x in (e.u, e.v):
                if x not in vertices:
                    vertices.add(x)
                    frontier.append(x)
    return vertices, eids


def bridge_side_genus(graph, edge):
    # total genus of the component containing edge.u when `edge` is removed;
    # None if the edge is non-separating
    reached, eids = reach(graph, edge.u, skip=edge.eid)
    if edge.v in reached:
        return None
    b1 = len(eids) - len(reached) + 1
    return b1 + sum(graph.genus[v] for v in reached)


def node_counts_from_graph(graph):
    g = graph.total_genus
    if g < 2:
        raise ValueError("genus too small")
    xi0 = Fraction(0)
    delta_i = [Fraction(0)] * (g // 2)
    warnings = []
    for e in graph.edges:
        side = bridge_side_genus(graph, e)
        if side is None:
            xi0 += e.length
            if g >= 3:
                warnings.append(
                    f"edge {e.eid}: non-separating node counted as xi0 "
                    "(subtype not derivable from the graph)"
                )
        else:
            i = min(side, g - side)
            if i == 0:
                warnings.append(
                    f"edge {e.eid}: bridge with a genus-0 side; not a "
                    "stable-type node, skipped"
                )
            else:
                delta_i[i - 1] += e.length
    counts = NodeCounts(g, xi0, (Fraction(0),) * ((g - 1) // 2), tuple(delta_i))
    return counts, warnings


def d_from_counts(counts):
    g = counts.genus
    total = g * counts.xi0
    for j, x in enumerate(counts.xi, start=1):
        total += 2 * (j + 1) * (g - j) * x
    for i, x in enumerate(counts.delta_i, start=1):
        total += 4 * i * (g - i) * x
    return total


def chi_nonarch(g, d, eps, delta):
    if g < 2:
        raise ValueError("genus must be at least 2")
    return (3 * Fraction(d) - (2 * g + 1) * (Fraction(eps) + Fraction(delta))) / (
        2 * g - 2
    )


def place_values(graph):
    """(d, eps, delta, phi, chi) of the graph's place report."""
    g = graph.total_genus
    d = d_from_counts(node_counts_from_graph(graph)[0])
    eps, ph = oracle_kernel.epsilon_phi(graph)
    dlt = sum((e.length for e in graph.edges), Fraction(0))
    return d, eps, dlt, ph, chi_nonarch(g, d, eps, dlt)
