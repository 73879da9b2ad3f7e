"""Exact potential theory on metrized reduction graphs.

Vertices carry genus markings, edges carry positive rational lengths (loops
and multi-edges allowed).  Each public computation makes one exact solve,
``_invert`` of the grounded Laplacian on the vertices, and derives
resistances, measures, potentials, Green's functions and Zhang's epsilon
and phi in closed form from its integer adjugate.  README.md, "Metrized
graphs", states those closed forms with their sources.

Points are addressed by vertex id or as a pair (edge index, offset) with a
rational offset in [0, L]; offsets 0 and L normalize to the endpoints.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .rational import format_rat, parse_rat, require_int, require_keys


@dataclass(frozen=True)
class Edge:
    eid: int
    u: str
    v: str
    length: Fraction

    @property
    def is_loop(self):
        return self.u == self.v


class MetrizedGraph:
    """Connected multigraph with genus-marked vertices and rational lengths."""

    def __init__(self, genus, edges):
        """``genus``: mapping vertex id -> genus >= 0; ``edges``: iterable of
        (u, v, length) triples."""
        self.genus = {str(v): int(g) for v, g in dict(genus).items()}
        if not self.genus:
            raise ValueError("graph needs at least one vertex")
        if any(g < 0 for g in self.genus.values()):
            raise ValueError("vertex genus must be nonnegative")
        self.edges = []
        for i, (u, v, length) in enumerate(edges):
            u, v = str(u), str(v)
            if u not in self.genus or v not in self.genus:
                raise ValueError(f"edge ({u}, {v}) references unknown vertex")
            length = Fraction(length)
            if length <= 0:
                raise ValueError("edge lengths must be positive")
            self.edges.append(Edge(i, u, v, length))
        if not self._is_connected():
            raise ValueError("graph must be connected")

    def _is_connected(self):
        return len(self.reach(next(iter(self.genus)))[0]) == len(self.genus)

    def reach(self, start, skip=None):
        """Vertices and edge ids reachable from vertex ``start`` without
        crossing the edge with id ``skip``."""
        adj = {}
        for e in self.edges:
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

    @property
    def vertices(self):
        return list(self.genus)

    def valence(self, v):
        # loops count twice
        return sum((e.u == v) + (e.v == v) for e in self.edges)

    @property
    def betti(self):
        return len(self.edges) - len(self.genus) + 1

    @property
    def total_genus(self):
        return self.betti + sum(self.genus.values())

    @classmethod
    def from_json(cls, doc):
        """The graph of a ``docs/schemas/graph.schema.json`` document."""
        genus = {}
        for v in require_keys(doc, ("vertices", "edges"), "graph")["vertices"]:
            vid = require_keys(v, ("id", "genus"), "vertex", ("id",))["id"]
            if vid in genus:
                raise ValueError(f"duplicate vertex id: {vid!r}")
            if "genus" not in v:
                raise ValueError(f"vertex {vid!r} has no genus")
            genus[vid] = require_int(v["genus"], f"genus of vertex {vid!r}")
        edges = []
        for e in doc["edges"]:
            e = require_keys(e, ("u", "v", "length"), "edge", ("u", "v", "length"))
            edges.append((e["u"], e["v"], parse_rat(e["length"])))
        return cls(genus, edges)

    def to_json(self):
        return {
            "vertices": [
                {"id": v, "genus": g} for v, g in sorted(self.genus.items())
            ],
            "edges": [
                {"u": e.u, "v": e.v, "length": format_rat(e.length)}
                for e in self.edges
            ],
        }


@dataclass
class Measure:
    """Point masses at vertices plus a constant density per edge."""

    vertex_mass: dict
    edge_density: dict  # edge id -> density

    def total_mass(self, graph):
        total = sum(self.vertex_mass.values(), Fraction(0))
        for e in graph.edges:
            total += self.edge_density.get(e.eid, Fraction(0)) * e.length
        return total

    def mass(self, v):
        return self.vertex_mass.get(v, Fraction(0))

    def density(self, eid):
        return self.edge_density.get(eid, Fraction(0))


@dataclass
class PiecewisePoly:
    """Per-edge quadratic in arc length from the edge's u-endpoint."""

    vertex_values: dict
    edge_coeffs: dict  # eid -> (c0, c1, c2)

    def evaluate(self, point):
        if isinstance(point, tuple):
            eid, s = point
            c0, c1, c2 = self.edge_coeffs[eid]
            s = Fraction(s)
            return c0 + c1 * s + c2 * s * s
        return self.vertex_values[point]


def _norm_point(graph, x):
    """Normalize a point spec to ("v", id) or ("e", eid, offset)."""
    if isinstance(x, tuple) and len(x) == 3 and x[0] in ("v", "e"):
        return x
    if isinstance(x, tuple):
        eid, off = x
        e = graph.edges[eid]
        off = Fraction(off)
        if off == 0:
            return ("v", e.u)
        if off == e.length:
            return ("v", e.v)
        if not 0 < off < e.length:
            raise ValueError(f"offset {off} outside edge of length {e.length}")
        return ("e", e.eid, off)
    x = str(x)
    if x not in graph.genus:
        raise ValueError(f"unknown vertex: {x}")
    return ("v", x)


def _invert(matrix):
    """(adj, det) of a positive definite integer matrix, adj = det * inverse,
    by fraction-free Gauss-Jordan elimination in place (Bareiss 1968).  The
    pivots are the leading principal minors, all positive, so no row is
    exchanged; every entry stays a minor, so each division is exact."""
    a = [row[:] for row in matrix]
    prev = 1
    for k, pivot_row in enumerate(a):
        pivot = pivot_row[k]
        for i, row in enumerate(a):
            if i != k:
                f = row[k]
                row[:] = [(pivot * x - f * y) // prev for x, y in zip(row, pivot_row)]
                row[k] = -f
        pivot_row[k] = prev
        prev = pivot
    return a, prev


class _Resistances:
    """Effective resistances on one graph from one grounded-Laplacian solve.

    Conductance 1/length per edge, scaled by the lcm s of the length
    numerators to integers; grounded at the first vertex the Laplacian is
    positive definite, with adjugate adj and determinant det: G = s adj / det.
    """

    def __init__(self, graph):
        self.graph = graph
        self._index = {v: i for i, v in enumerate(graph.genus)}
        n = len(self._index)
        links = [e for e in graph.edges if not e.is_loop]  # loops carry no current
        # *list, not *generator: a resized argument tuple stays on CPython's free list
        self._scale = math.lcm(*[e.length.numerator for e in links])
        lap = [[0] * n for _ in range(n)]
        for e in links:
            a, b = self._index[e.u], self._index[e.v]
            c = self._scale // e.length.numerator * e.length.denominator
            lap[a][a] += c
            lap[b][b] += c
            lap[a][b] -= c
            lap[b][a] -= c
        # grounded at the first vertex, whose row and column stay 0
        adj, self._det = _invert([row[1:] for row in lap[1:]])
        self._adj = [[0] * n] + [[0] + row for row in adj]
        self._density = {}

    def _r(self, a, b):
        """det r(a, b) / s, an integer."""
        i, j, adj = self._index[a], self._index[b], self._adj
        return adj[i][i] + adj[j][j] - 2 * adj[i][j]

    def vertex(self, a, b):
        """r(a, b) between two vertices."""
        return Fraction(self._scale * self._r(a, b), self._det)

    def foster(self, e):
        """N_e = a det - b s R_e for ``e`` of length a / b, so that
        k_e = b N_e / (a^2 det); 0 exactly on bridges."""
        length = e.length
        r = self._r(e.u, e.v)
        return length.numerator * self._det - length.denominator * self._scale * r

    def potentials(self, mass):
        """v -> P_v = D adj_vv + sum_w m_w adj_ww - 2 (adj m)_v for integer
        vertex masses m of any total D: one integer product, and
        sum_w m_w r(v, w) = s P_v / det.  With m the canonical divisor K this
        is psi_K."""
        m = [mass[v] for v in self._index]
        adj = self._adj
        total = sum(m)
        diag = sum(x * row[i] for i, (x, row) in enumerate(zip(m, adj)))
        return {
            v: total * adj[i][i] + diag - 2 * sum(map(operator.mul, adj[i], m))
            for v, i in self._index.items()
        }

    def density(self, e):
        """Canonical density (L - r(u, v)) / L^2 of edge ``e`` (Foster)."""
        if e.eid not in self._density:
            length = e.length
            self._density[e.eid] = (length - self.vertex(e.u, e.v)) / length**2
        return self._density[e.eid]

    def between(self, x, y):
        """r(x, y) between two normalized points."""
        if x[0] == "v":
            x, y = y, x
        if x[0] == "v":
            return self.vertex(x[1], y[1])
        e, s = self.graph.edges[x[1]], x[2]
        if y[0] == "e" and y[1] == e.eid:
            t = abs(s - y[2])
            return t - t * t * self.density(e)
        length = e.length
        ru, rv = self.between(y, ("v", e.u)), self.between(y, ("v", e.v))
        bulge = s * (length - s) * self.density(e)
        return ((length - s) * ru + s * rv) / length + bulge


class _Kernel:
    """Potential computations for one (graph, measure) pair.

    Exposes the potential phi(x) = int r(x, .) dmu, the double integral
    c = int int r dmu dmu, and the Green's function
    g(x, y) = (phi(x) + phi(y) - r(x, y) - c) / 2, in the README's closed forms.
    """

    def __init__(self, mu, res):
        graph = self.graph = res.graph
        unknown = mu.edge_density.keys() - {e.eid for e in graph.edges}
        if unknown:
            unknown = sorted(unknown, key=str)
            raise ValueError(f"measure has densities on unknown edges: {unknown}")
        if mu.total_mass(graph) != 1 or not mu.vertex_mass.keys() <= graph.genus.keys():
            raise ValueError("measure must have total mass 1 on the graph's points")
        self.mu, self.res = mu, res
        mass = {v: mu.mass(v) for v in graph.genus}  # M_v
        shift = c_edges = Fraction(0)
        for e in graph.edges:
            d = mu.density(e.eid)
            if d:
                half, cube = d * e.length / 2, d * e.length**3 / 6
                mass[e.u] += half
                mass[e.v] += half
                shift += cube * res.density(e)
                c_edges += cube * self.bend(e)
        # *list, not *generator: a resized argument tuple stays on CPython's free list
        den = math.lcm(*[m.denominator for m in mass.values()])
        p = res.potentials(
            {v: m.numerator * (den // m.denominator) for v, m in mass.items()}
        )
        scale, det = res._scale, res._det * den
        self._phi = {v: shift + Fraction(scale * x, det) for v, x in p.items()}
        self.c = sum((m * self._phi[v] for v, m in mass.items()), c_edges)

    def bend(self, e):
        """k_e - d_e on edge ``e``, where phi'' = -2 (k_e - d_e)."""
        return self.res.density(e) - self.mu.density(e.eid)

    def phi(self, x):
        if x[0] == "v":
            return self._phi[x[1]]
        e, s = self.graph.edges[x[1]], x[2]
        length = e.length
        chord = ((length - s) * self._phi[e.u] + s * self._phi[e.v]) / length
        return chord + s * (length - s) * self.bend(e)

    def green(self, x, y):
        return (self.phi(x) + self.phi(y) - self.res.between(x, y) - self.c) / 2

    def gdiag(self, x):
        return self.phi(x) - self.c / 2

    def eval_points(self):
        """Vertices and edge midpoints: enough to pin any per-edge quadratic."""
        pts = [("v", v) for v in self.graph.genus]
        pts += [("e", e.eid, e.length / 2) for e in self.graph.edges]
        return pts


def canonical_divisor(graph):
    """K(v) = valence(v) - 2 + 2 genus(v); total degree 2*total_genus - 2."""
    k = {v: 2 * h - 2 for v, h in graph.genus.items()}
    for e in graph.edges:  # loops count twice
        k[e.u] += 1
        k[e.v] += 1
    return k


def resistance(graph, x, y):
    """Effective resistance between two points, exact."""
    px, py = _norm_point(graph, x), _norm_point(graph, y)
    return _Resistances(graph).between(px, py)


def canonical_measure(graph):
    """The mass-1 measure whose Green's function has constant diagonal.

    Vertex masses 1 - valence/2; density (L - r(u, v)) / L^2 on an edge of
    length L between u and v, with r(u, v) the effective resistance in the
    whole graph (Foster's coefficient; Chinburg-Rumely, "The capacity
    pairing", 1993).  That is 1/L on a loop and 0 on a bridge.  Foster's
    identity, sum over edges of (1 - r(u, v)/L) = betti, makes the mass 1.
    """
    res = _Resistances(graph)
    masses = {
        v: 1 - Fraction(graph.valence(v), 2) for v in graph.genus
    }
    densities = {e.eid: res.density(e) for e in graph.edges}
    return Measure(masses, densities)


def _require_genus(graph):
    if graph.total_genus < 2:
        raise ValueError("genus too small")


def admissible_measure(graph):
    """(delta_K + 2 mu_can) / (2 total_genus); total mass 1.

    That is mass genus(v) / g at v, since K(v) + 2 (1 - valence(v) / 2) =
    2 genus(v), and the canonical density over g on each edge.
    """
    _require_genus(graph)
    g, res = graph.total_genus, _Resistances(graph)
    masses = {v: Fraction(h, g) for v, h in graph.genus.items()}
    densities = {e.eid: res.density(e) / g for e in graph.edges}
    return Measure(masses, densities)


def green(graph, mu, x, y):
    """Green's function g_mu(x, y) for a total-mass-1 measure, exact."""
    px, py = _norm_point(graph, x), _norm_point(graph, y)
    return _Kernel(mu, _Resistances(graph)).green(px, py)


def green_diagonal(graph, mu):
    """x -> g_mu(x, x) = phi_mu(x) - c/2 as an exact per-edge quadratic."""
    kernel = _Kernel(mu, _Resistances(graph))
    values = {v: kernel.gdiag(("v", v)) for v in graph.genus}
    coeffs = {}
    for e in graph.edges:
        bend, c0 = kernel.bend(e), values[e.u]
        coeffs[e.eid] = (c0, (values[e.v] - c0) / e.length + e.length * bend, -bend)
    return PiecewisePoly(values, coeffs)


def epsilon_phi(graph):
    """Zhang's epsilon and phi from one Laplacian solve on the vertices.

    epsilon = sum_v K(v) phi_mu(v) and phi = (6 g c - epsilon - delta) / 4
    with mu the admissible measure (S.-W. Zhang, "Gross-Schoen cycles and
    dualising sheaves", 2010), both in integers over one common denominator:
    with N_e, A, Q, the masses (MQ)_v, P_w and S of README.md, "Metrized
    graphs",

    epsilon = (2g - 2) S + s (K . P) / (det Q),
    c = (2g - 1) S / g + s (MQ . P) / (det Q^2).
    """
    _require_genus(graph)
    g, res = graph.total_genus, _Resistances(graph)
    det = res._det
    spread = []  # (edge, a_e, b_e, N_e) where N_e != 0: not a bridge
    for e in graph.edges:
        n = res.foster(e)
        if n:
            spread.append((e, e.length.numerator, e.length.denominator, n))
    # *list, not *generator: a resized argument tuple stays on CPython's free list
    a_lcm = math.lcm(*[a for _, a, _, _ in spread])
    ab_lcm = math.lcm(*[a * b for _, a, b, _ in spread])
    q = 2 * g * det * a_lcm
    mq = {v: 2 * det * a_lcm * gv for v, gv in graph.genus.items()}
    t = 0  # S = t / (6 g det^2 ab_lcm)
    for e, a, b, n in spread:
        half = n * (a_lcm // a)
        mq[e.u] += half
        mq[e.v] += half
        t += n * n * (ab_lcm // (a * b))
    if sum(mq.values()) != q:
        raise ValueError("Foster's identity fails: the masses do not sum to 1")
    p = res.potentials(mq)
    k = canonical_divisor(graph)
    kp = sum(k[v] * x for v, x in p.items())
    mqp = sum(mq[v] * x for v, x in p.items())
    # with h = ab_lcm / A: s / (det Q) = 3 h s / (6 g det^2 ab_lcm) and
    # 6 g s / (det Q^2) = 3 h s / (2 g det^3 A ab_lcm)
    h, s = ab_lcm // a_lcm, res._scale
    eps = Fraction((2 * g - 2) * t + 3 * h * s * kp, 6 * g * det**2 * ab_lcm)
    six_gc = Fraction(
        2 * (2 * g - 1) * det * a_lcm * t + 3 * h * s * mqp,
        2 * g * det**3 * a_lcm * ab_lcm,
    )
    return eps, (six_gc - eps - delta(graph)) / 4


def epsilon(graph):
    """int gdiag d((2g-2) mu_ad + delta_K), exact."""
    return epsilon_phi(graph)[0]


def phi(graph):
    """-delta/4 + (1/4) int gdiag d((10g+2) mu_ad - delta_K), exact.

    Vanishes on a point graph (good reduction).
    """
    return epsilon_phi(graph)[1]


def delta(graph):
    """Total edge length (thickness-weighted singular-point count)."""
    # *list, not *generator: a resized argument tuple stays on CPython's free list
    den = math.lcm(*[e.length.denominator for e in graph.edges])
    num = sum(e.length.numerator * (den // e.length.denominator) for e in graph.edges)
    return Fraction(num, den)


def _spread(values):
    # deviation from the best constant: half the spread
    lo, hi = min(values), max(values)
    return (hi - lo) / 2


def verify_admissible(graph, mu):
    """Max deviation of f(y) = g_mu(y, y) + sum_v K(v) g_mu(v, y) from its
    best constant.

    Exactly 0 iff mu is the admissible measure (checked at vertices and edge
    midpoints, which pins the per-edge quadratics).  With D = deg K = 2g - 2
    and psi_K(y) = sum_v K(v) r(v, y) the potential of delta_K (README.md,
    "Metrized graphs"), f(y) = ((D + 2) phi_mu(y) + sum_v K(v) phi_mu(v) -
    (D + 1) c - psi_K(y)) / 2.
    """
    res = _Resistances(graph)
    kernel = _Kernel(mu, res)
    k = canonical_divisor(graph)
    d = sum(k.values())
    psi = {v: Fraction(res._scale * x, res._det) for v, x in res.potentials(k).items()}
    const = sum(k[v] * kernel.phi(("v", v)) for v in graph.genus) - (d + 1) * kernel.c
    values = []
    for y in kernel.eval_points():
        if y[0] == "v":
            psi_y = psi[y[1]]
        else:
            e, s = graph.edges[y[1]], y[2]
            length = e.length
            chord = ((length - s) * psi[e.u] + s * psi[e.v]) / length
            psi_y = chord + d * s * (length - s) * res.density(e)
        values.append(((d + 2) * kernel.phi(y) + const - psi_y) / 2)
    return _spread(values)


def subdivide(graph, eid, s):
    """Split edge ``eid`` at interior arc length ``s`` with a genus-0 vertex."""
    e = graph.edges[eid]
    s = Fraction(s)
    if not 0 < s < e.length:
        raise ValueError("subdivision point must be interior")
    new_v = f"{e.u}|{e.v}@{eid}"
    while new_v in graph.genus:
        new_v += "'"
    genus = dict(graph.genus)
    genus[new_v] = 0
    edges = []
    for other in graph.edges:
        if other.eid == eid:
            edges.append((e.u, new_v, s))
            edges.append((new_v, e.v, e.length - s))
        else:
            edges.append((other.u, other.v, other.length))
    return MetrizedGraph(genus, edges)


def scale(graph, t):
    """Scale every edge length by the positive rational ``t``."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("scale factor must be positive")
    return MetrizedGraph(
        graph.genus, [(e.u, e.v, e.length * t) for e in graph.edges]
    )
