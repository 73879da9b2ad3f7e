"""Exact potential theory on metrized reduction graphs.

Vertices carry genus markings, edges carry positive rational lengths (loops
and multi-edges allowed).  Each public computation makes a single exact
rational solve: the inverse of the grounded Laplacian on the graph's
vertices, which gives the effective resistance r(a, b) between any two
vertices.  Everything else has a closed form in those resistances:

- the canonical measure has density (L - r(u, v)) / L^2 on an edge of length
  L from u to v: Foster's coefficient (Chinburg-Rumely, "The capacity
  pairing", 1993);
- a point y_s at arc length s from u on that edge has
  r(x, y_s) = (1 - s/L) r(x, u) + (s/L) r(x, v) + s (L - s) (L - r(u, v)) / L^2
  for any x off the edge, and two points of the edge a distance t apart
  have resistance t - t^2 (L - r(u, v)) / L^2 (Baker-Faber, "Metrized
  graphs, Laplacian operators, and electrical networks", 2006).

For a fixed measure mu (point masses at vertices plus a constant density per
edge) the potential phi_mu(x) = integral of r(x, .) d mu is therefore
quadratic on every edge, so Simpson's rule on endpoint/midpoint values gives
c = double integral of r d mu d mu exactly.  With mu the admissible measure,
Zhang's invariants ("Gross-Schoen cycles and dualising sheaves", 2010) are

    epsilon = sum over vertices v of K(v) phi_mu(v),
    phi = (6 g c - epsilon - delta) / 4,

both exact rationals.  Zhang defines both by integrals of
g_mu(x, x) = phi_mu(x) - c/2, which reduce to these because mu has mass 1 and
K has degree 2g - 2.

Points are addressed either by vertex id or as a pair (edge index, offset)
with a rational offset strictly between 0 and the edge length; offsets equal
to 0 or the full length normalize to the corresponding endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rational import format_rat, parse_rat


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
        genus = {}
        for v in doc["vertices"]:
            vid, g = str(v["id"]), v.get("genus", 0)
            if vid in genus:
                raise ValueError(f"duplicate vertex id: {vid!r}")
            if isinstance(g, bool) or not isinstance(g, int):
                raise ValueError(f"genus of vertex {vid!r} is not an integer: {g!r}")
            genus[vid] = g
        edges = [
            (e["u"], e["v"], parse_rat(e["length"])) for e in doc["edges"]
        ]
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


def _fit_quadratic(f0, fm, f1, length):
    # quadratic through (0, f0), (length/2, fm), (length, f1)
    c0 = f0
    c1 = (-3 * f0 + 4 * fm - f1) / length
    c2 = (2 * f0 - 4 * fm + 2 * f1) / length**2
    return (c0, c1, c2)


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
    # Gauss-Jordan inverse of a square Fraction matrix
    n = len(matrix)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class _Resistances:
    """Effective resistances on one graph from one grounded-Laplacian inverse.

    The Laplacian has conductance 1/length per edge.  Vertex-to-vertex
    resistances are read off its inverse on demand; resistances to interior
    points of edges follow from them in closed form (Baker-Faber).
    """

    def __init__(self, graph):
        self.graph = graph
        self._index = {v: i for i, v in enumerate(graph.genus)}
        n = len(self._index)
        lap = [[Fraction(0)] * n for _ in range(n)]
        for e in graph.edges:
            if e.is_loop:
                continue  # a loop carries no net current
            a, b, c = self._index[e.u], self._index[e.v], 1 / e.length
            lap[a][a] += c
            lap[b][b] += c
            lap[a][b] -= c
            lap[b][a] -= c
        # grounded at the first vertex, whose row and column stay 0
        inv = _invert([row[1:] for row in lap[1:]])
        self._inv = [[Fraction(0)] * n] + [[Fraction(0)] + row for row in inv]
        self._density = {}

    def vertex(self, a, b):
        """r(a, b) between two vertices."""
        i, j, inv = self._index[a], self._index[b], self._inv
        return inv[i][i] + inv[j][j] - 2 * inv[i][j]

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
    g(x, y) = (phi(x) + phi(y) - r(x, y) - c) / 2.
    """

    def __init__(self, mu, res):
        self.graph = res.graph
        if mu.total_mass(self.graph) != 1:
            raise ValueError("measure must have total mass 1")
        self.mu = mu
        self.res = res
        self._phi = {}
        # c = int int r dmu dmu = int phi dmu; phi is quadratic per edge
        c = Fraction(0)
        for v in self.graph.genus:
            m = mu.mass(v)
            if m:
                c += m * self.phi(("v", v))
        for e in self.graph.edges:
            d = mu.density(e.eid)
            if d:
                c += d * e.length / 6 * (
                    self.phi(("v", e.u))
                    + 4 * self.phi(("e", e.eid, e.length / 2))
                    + self.phi(("v", e.v))
                )
        self.c = c

    def phi(self, x):
        if x in self._phi:
            return self._phi[x]
        g, mu, res = self.graph, self.mu, self.res
        to_vertex = {v: res.between(x, ("v", v)) for v in g.genus}
        total = Fraction(0)
        for v, r in to_vertex.items():
            m = mu.mass(v)
            if m:
                total += m * r
        for e in g.edges:
            d = mu.density(e.eid)
            if d:
                total += d * self._edge_integral(x, e, to_vertex)
        self._phi[x] = total
        return total

    def _edge_integral(self, x, e, to_vertex):
        # int over e of r(x, zeta) dzeta, integrating the closed forms of
        # r(x, .) on e; to_vertex maps each vertex w to r(x, w)
        length, k = e.length, self.res.density(e)
        if x[0] == "e" and x[1] == e.eid:
            s, t = x[2], length - x[2]
            return (s * s + t * t) / 2 - k * (s**3 + t**3) / 3
        return length / 2 * (to_vertex[e.u] + to_vertex[e.v]) + k * length**3 / 6

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
    return {
        v: graph.valence(v) - 2 + 2 * graph.genus[v] for v in graph.genus
    }


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
    return _canonical(graph, _Resistances(graph))


def _canonical(graph, res):
    masses = {
        v: 1 - Fraction(graph.valence(v), 2) for v in graph.genus
    }
    densities = {e.eid: res.density(e) for e in graph.edges}
    return Measure(masses, densities)


def _require_genus(graph):
    if graph.total_genus < 2:
        raise ValueError("genus too small")


def admissible_measure(graph):
    """(delta_K + 2 mu_can) / (2 total_genus); total mass 1."""
    _require_genus(graph)
    return _admissible(graph, _Resistances(graph))


def _admissible(graph, res):
    g2 = 2 * graph.total_genus
    k = canonical_divisor(graph)
    can = _canonical(graph, res)
    masses = {
        v: Fraction(k[v] + 2 * can.mass(v), 1) / g2 for v in graph.genus
    }
    densities = {
        e.eid: 2 * can.density(e.eid) / g2 for e in graph.edges
    }
    return Measure(masses, densities)


def green(graph, mu, x, y):
    """Green's function g_mu(x, y) for a total-mass-1 measure, exact."""
    px, py = _norm_point(graph, x), _norm_point(graph, y)
    return _Kernel(mu, _Resistances(graph)).green(px, py)


def green_diagonal(graph, mu):
    """x -> g_mu(x, x) as an exact per-edge quadratic."""
    kernel = _Kernel(mu, _Resistances(graph))
    vertex_values = {v: kernel.gdiag(("v", v)) for v in graph.genus}
    coeffs = {}
    for e in graph.edges:
        f0 = vertex_values[e.u]
        fm = kernel.gdiag(("e", e.eid, e.length / 2))
        f1 = vertex_values[e.v]
        coeffs[e.eid] = _fit_quadratic(f0, fm, f1, e.length)
    return PiecewisePoly(vertex_values, coeffs)


def epsilon_phi(graph):
    """Zhang's epsilon and phi from one Laplacian solve on the vertices.

    With mu the admissible measure, phi_mu(x) = int r(x, .) dmu and
    c = int int r dmu dmu (S.-W. Zhang, "Gross-Schoen cycles and dualising
    sheaves", 2010):

    epsilon = int int r(x, y) d delta_K(x) dmu(y) = sum_v K(v) phi_mu(v);
    phi = (6 g c - epsilon - delta) / 4.
    """
    _require_genus(graph)
    res = _Resistances(graph)
    kernel = _Kernel(_admissible(graph, res), res)
    k = canonical_divisor(graph)
    eps = sum(
        (k[v] * kernel.phi(("v", v)) for v in graph.genus if k[v]), Fraction(0)
    )
    ph = (6 * graph.total_genus * kernel.c - eps - delta(graph)) / 4
    return eps, ph


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
    return sum((e.length for e in graph.edges), Fraction(0))


def _spread(values):
    # deviation from the best constant: half the spread
    lo, hi = min(values), max(values)
    return (hi - lo) / 2


def verify_admissible(graph, mu):
    """Max deviation of g_mu(K, y) + g_mu(y, y) from its best constant.

    Exactly 0 iff mu is the admissible measure (checked at vertices and edge
    midpoints, which pins the per-edge quadratics).
    """
    kernel = _Kernel(mu, _Resistances(graph))
    k = canonical_divisor(graph)
    values = []
    for y in kernel.eval_points():
        f = kernel.gdiag(y)
        for v in graph.genus:
            if k[v]:
                f += k[v] * kernel.green(("v", v), y)
        values.append(f)
    return _spread(values)


def verify_canonical(graph, mu):
    """Max deviation of the diagonal g_mu(y, y) from its best constant."""
    kernel = _Kernel(mu, _Resistances(graph))
    return _spread([kernel.gdiag(y) for y in kernel.eval_points()])


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
