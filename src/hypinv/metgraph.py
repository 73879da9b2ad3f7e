"""Exact potential theory on metrized reduction graphs.

Vertices carry genus markings, edges carry positive rational lengths (loops
and multi-edges allowed).  Each public computation makes one exact solve,
``_invert`` of the grounded Laplacian on the vertices, and derives
resistances, measures, potentials, Green's functions and Zhang's epsilon
and phi in closed form from its integer adjugate, each form at one code
site; k_e = b N_e / (a^2 det) on an edge of length a / b is read from the
solve on every use, with no cache.  The measure kernel (``_Kernel``, which
serves ``green``, ``green_diagonal`` and ``verify_admissible``) works in
integers over one lcm D of the mass denominators and every b_e q_e (density
p_e / q_e), ``epsilon_phi`` over one A = lcm(a_e b_e) of the non-bridges;
both build ``Fraction``s only for results.  README.md, "Metrized graphs",
states the forms with their sources.

Points are addressed by vertex id or as a pair (int edge index, offset)
with a rational offset in [0, L]; offsets 0 and L normalize to the endpoints.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .rational import format_rat, parse_rat, require_genus, require_int
from .rational import require_keys, require_rational


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
        (u, v, length) triples, each length an ``int`` or a ``Fraction``."""
        self.genus = {}
        for v, g in dict(genus).items():
            if (vid := str(v)) in self.genus:
                raise ValueError(f"duplicate vertex id: {vid!r}")
            self.genus[vid] = require_int(g, f"genus of vertex {v!r}")
        if not self.genus:
            raise ValueError("graph needs at least one vertex")
        if any(g < 0 for g in self.genus.values()):
            raise ValueError("vertex genus must be nonnegative")
        self.edges = []
        for i, (u, v, length) in enumerate(edges):
            u, v = str(u), str(v)
            if u not in self.genus or v not in self.genus:
                raise ValueError(f"edge ({u}, {v}) references unknown vertex")
            length = require_rational(length, f"length of edge ({u}, {v})")
            if length <= 0:
                raise ValueError("edge lengths must be positive")
            self.edges.append(Edge(i, u, v, length))
        if not self.bridge_search()[0]:
            raise ValueError("graph must be connected")

    def bridge_search(self):
        """One depth-first search with low links (Tarjan, SIAM J. Comput. 1,
        1972) from the first vertex: ``(connected, sides)``.  ``connected``
        says whether it reached every vertex; ``sides`` maps the id of each
        bridge e to the total genus of e.u's side once e is cut.

        A side S that one bridge leaves has valence sum 2 E(S) + 1, so its
        genus E(S) - |S| + 1 + sum genus(v) is (sum_{v in S} K(v) + 1) / 2,
        summed over the search subtree; the other side has g - genus(S).
        The search is iterative, skips loops and skips the tree edge up by
        edge id, so parallel edges are never bridges.
        """
        k = canonical_divisor(self)  # becomes the subtree sum as each vertex finishes
        adj = {v: [] for v in self.genus}
        for e in self.edges:
            if e.u != e.v:
                adj[e.u].append((e.eid, e.v))
                adj[e.v].append((e.eid, e.u))
        g, root = self.total_genus, next(iter(self.genus))
        order, low, sides = {root: 0}, {root: 0}, {}
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, up, todo = stack[-1]
            for eid, w in todo:
                if w not in order:
                    order[w] = low[w] = len(order)
                    stack.append((w, eid, iter(adj[w])))
                    break
                if eid != up and order[w] < low[v]:
                    low[v] = order[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    k[p] += k[v]
                    if low[v] > order[p]:
                        side = (k[v] + 1) // 2
                        sides[up] = side if self.edges[up].u == v else g - side
                    elif low[v] < low[p]:
                        low[p] = low[v]
        return len(order) == len(self.genus), sides

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
            genus[vid] = v["genus"]  # checked by the constructor
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
    # eid -> L, to check offsets; the graph's data, not the function's
    edge_lengths: dict = field(default_factory=dict, compare=False)

    def evaluate(self, point):
        """The value at a vertex id or an (edge id, offset) pair; ValueError
        for a point off the function's edges and vertices."""
        if isinstance(point, tuple):
            eid, s = _edge_point(point)
            if eid not in self.edge_coeffs:
                raise ValueError(f"no edge {eid} in this function")
            # an edge whose length is not recorded bounds the offset below only
            if not 0 <= s <= self.edge_lengths.get(eid, s):
                raise ValueError(f"offset {s} outside edge {eid}")
            c0, c1, c2 = self.edge_coeffs[eid]
            return c0 + c1 * s + c2 * s * s
        if point not in self.vertex_values:
            raise ValueError(f"unknown vertex: {point}")
        return self.vertex_values[point]


def _edge_point(x):
    """The edge id and ``Fraction`` offset of a tuple point (edge id, offset)."""
    if len(x) != 2:
        raise ValueError(f"an edge point is a pair (edge id, offset), not {x!r}")
    return require_int(x[0], "edge id"), require_rational(x[1], "edge offset")


def _edge(graph, eid):
    """The edge of ``graph`` with the int id ``eid``; ValueError otherwise."""
    if require_int(eid, "edge id") not in range(len(graph.edges)):
        raise ValueError(f"no edge {eid} in a graph of {len(graph.edges)} edges")
    return graph.edges[eid]


def _norm_point(graph, x):
    """Normalize a point spec to ("v", id) or ("e", eid, offset)."""
    if isinstance(x, tuple):
        eid, off = _edge_point(x)
        e = _edge(graph, eid)
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
        """Canonical density k_e = (L - r(u, v)) / L^2 of edge ``e``, read as
        b N_e / (a^2 det) from ``foster`` on every call; nothing is cached."""
        a, b = e.length.numerator, e.length.denominator
        return Fraction(b * self.foster(e), a * a * self._det)

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
        ru, rv = self.between(y, ("v", e.u)), self.between(y, ("v", e.v))
        return _on_edge(e, s, ru, rv, self.density(e))


def _on_edge(e, s, at_u, at_v, bend):
    """((L - s) at_u + s at_v) / L + s (L - s) bend at offset s on edge ``e``:
    the chord between the endpoint values plus the bulge (README.md)."""
    length = e.length
    return ((length - s) * at_u + s * at_v) / length + s * (length - s) * bend


class _Kernel:
    """Potential computations for one (graph, measure) pair, in integers.

    Over one denominator D, the lcm of the vertex-mass denominators and of
    b_e q_e on every edge of length a_e / b_e and density p_e / q_e, the
    potential phi(x) = int r(x, .) dmu is kept at the vertices as integer
    numerators F_v over Z = det W, W = 6 D^2, and the double integral
    c = int int r dmu dmu as the integer C over 2 D Z, in the README's closed
    forms; the Green's function is g(x, y) = (phi(x) + phi(y) - r(x, y) - c) / 2.
    """

    def __init__(self, mu, res):
        graph = self.graph = res.graph
        unknown = mu.edge_density.keys() - {e.eid for e in graph.edges}
        if unknown:
            unknown = sorted(unknown, key=str)
            raise ValueError(f"measure has densities on unknown edges: {unknown}")
        not_mass_one = "measure must have total mass 1 on the graph's points"
        if not mu.vertex_mass.keys() <= graph.genus.keys():
            raise ValueError(not_mass_one)
        self.res, det = res, res._det
        masses = [
            (v, require_rational(m, f"mass of vertex {v!r}"))
            for v, m in mu.vertex_mass.items()
        ]
        self._n, self._d = [], []  # per edge: N_e, (numerator, denominator) of d_e
        for e in graph.edges:
            self._n.append(res.foster(e))
            d = require_rational(mu.edge_density.get(e.eid, 0), f"density of edge {e.eid}")
            self._d.append((d.numerator, d.denominator))
        # *list, not *generator: a resized argument tuple stays on CPython's free list
        den = self._den = math.lcm(
            *[m.denominator for _, m in masses],
            *[e.length.denominator * q for e, (_, q) in zip(graph.edges, self._d)],
        )
        # the masses 2 D M_v, M_v = m_v + sum_{e at v} d_e L_e / 2, of total 2 D;
        # sum_e d_e k_e L_e^3 / 6 = t1 / (6 det D^2), sum_e d_e^2 L_e^3 / 6 = t2 / (6 D^3)
        mass = dict.fromkeys(graph.genus, 0)
        mass.update((v, 2 * m.numerator * (den // m.denominator)) for v, m in masses)
        t1 = t2 = 0
        for e, n, (p, q) in zip(graph.edges, self._n, self._d):
            a, b = e.length.numerator, e.length.denominator
            x = p * a * (den // (b * q))  # D d_e L_e
            mass[e.u] += x
            mass[e.v] += x
            t1 += x * n * (den // b)
            t2 += x * x * a * (den // b)
        if sum(mass.values()) != 2 * den:
            raise ValueError(not_mass_one)
        # phi_mu(v) = t1 / (6 det D^2) + s P_v / (2 D det) = F_v / Z
        w = self._w = 6 * den * den
        z = self._z = det * w
        sd = 3 * den * res._scale
        self._f = {v: t1 + sd * x for v, x in res.potentials(mass).items()}
        # c = sum_v M_v phi_mu(v) + t1 / (6 det D^2) - t2 / (6 D^3) = C / (2 D Z)
        mf = sum(mass[v] * f for v, f in self._f.items())
        self._c = mf + 2 * den * t1 - 2 * det * t2

    def bend(self, e):
        """(numerator, denominator) of k_e - d_e on edge ``e``, where
        phi'' = -2 (k_e - d_e)."""
        a, b = e.length.numerator, e.length.denominator
        dn, dd = self._d[e.eid]
        a2det = a * a * self.res._det
        return dd * b * self._n[e.eid] - dn * a2det, dd * a2det

    def phi(self, x):
        f, z = self._f, self._z
        if x[0] == "v":
            return Fraction(f[x[1]], z)
        e = self.graph.edges[x[1]]
        u, v = Fraction(f[e.u], z), Fraction(f[e.v], z)
        return _on_edge(e, x[2], u, v, Fraction(*self.bend(e)))


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

    Vertex masses 1 - valence/2 = (2 genus(v) - K(v)) / 2, read off the
    canonical divisor; density (L - r(u, v)) / L^2 on an edge of length L
    between u and v, with r(u, v) the effective resistance in the whole
    graph (Foster's coefficient; Chinburg-Rumely, "The capacity pairing",
    1993).  That is 1/L on a loop and 0 on a bridge.  Foster's identity,
    sum over edges of (1 - r(u, v)/L) = betti, makes the mass 1.
    """
    res = _Resistances(graph)
    k = canonical_divisor(graph)
    masses = {v: Fraction(2 * graph.genus[v] - kv, 2) for v, kv in k.items()}
    densities = {e.eid: res.density(e) for e in graph.edges}
    return Measure(masses, densities)


def admissible_measure(graph):
    """(delta_K + 2 mu_can) / (2 total_genus); total mass 1.

    That is mass genus(v) / g at v, since K(v) + 2 (1 - valence(v) / 2) =
    2 genus(v), and the canonical density over g on each edge.
    """
    g, res = require_genus(graph.total_genus), _Resistances(graph)
    masses = {v: Fraction(h, g) for v, h in graph.genus.items()}
    densities = {e.eid: res.density(e) / g for e in graph.edges}
    return Measure(masses, densities)


def green(graph, mu, x, y):
    """Green's function g_mu(x, y) for a total-mass-1 measure, exact."""
    px, py = _norm_point(graph, x), _norm_point(graph, y)
    kernel = _Kernel(mu, _Resistances(graph))
    c = Fraction(kernel._c, 2 * kernel._den * kernel._z)
    return (kernel.phi(px) + kernel.phi(py) - kernel.res.between(px, py) - c) / 2


def green_diagonal(graph, mu):
    """x -> g_mu(x, x) = phi_mu(x) - c/2 as an exact per-edge quadratic."""
    kernel = _Kernel(mu, _Resistances(graph))
    f, z, w, c4 = kernel._f, kernel._z, kernel._w, 4 * kernel._den
    values = {v: Fraction(c4 * x - kernel._c, c4 * z) for v, x in f.items()}
    coeffs = {}
    for e in graph.edges:
        a, b = e.length.numerator, e.length.denominator
        bn, bd = kernel.bend(e)
        dd = kernel._d[e.eid][1]  # bd = dd a^2 det
        # (F_v - F_u) / (L Z) + L (k_e - d_e) over a b dd Z, as Z = det W
        c1 = Fraction((f[e.v] - f[e.u]) * b * b * dd + bn * w, a * b * dd * z)
        coeffs[e.eid] = (values[e.u], c1, Fraction(-bn, bd))
    return PiecewisePoly(values, coeffs, {e.eid: e.length for e in graph.edges})


def epsilon_phi(graph):
    """Zhang's epsilon and phi from one Laplacian solve on the vertices.

    epsilon = sum_v K(v) phi_mu(v) and phi = (6 g c - epsilon - delta) / 4
    with mu the admissible measure (S.-W. Zhang, "Gross-Schoen cycles and
    dualising sheaves", 2010), both in integers over one common denominator:
    with N_e, A = lcm(a_e b_e) over the non-bridges, Q = 2 g det A, the
    masses (MQ)_v, P_w and S = t / (6 g det^2 A) of README.md, "Metrized
    graphs",

    epsilon = (2g - 2) S + s (K . P) / (det Q),
    c = (2g - 1) S / g + s (MQ . P) / (det Q^2).
    """
    g, res = require_genus(graph.total_genus), _Resistances(graph)
    det = res._det
    spread = []  # (edge, a_e, b_e, N_e) where N_e != 0: not a bridge
    for e in graph.edges:
        n = res.foster(e)
        if n:
            spread.append((e, e.length.numerator, e.length.denominator, n))
    # A; *list, not *generator: a resized argument tuple stays on CPython's free list
    lcm_ab = math.lcm(*[a * b for _, a, b, _ in spread])
    q = 2 * g * det * lcm_ab
    mq = {v: 2 * det * lcm_ab * gv for v, gv in graph.genus.items()}
    t = 0  # S = t / (6 g det^2 A)
    for e, a, b, n in spread:
        half = n * (lcm_ab // a)
        mq[e.u] += half
        mq[e.v] += half
        t += n * n * (lcm_ab // (a * b))
    if sum(mq.values()) != q:
        raise ValueError("Foster's identity fails: the masses do not sum to 1")
    p = res.potentials(mq)
    k = canonical_divisor(graph)
    kp = sum(k[v] * x for v, x in p.items())
    mqp = sum(mq[v] * x for v, x in p.items())
    # s / (det Q) = 3 s / (6 g det^2 A) and 6 g s / (det Q^2) = 3 s / (2 g det^3 A^2)
    s = res._scale
    den = 6 * g * det**2 * lcm_ab
    eps = (2 * g - 2) * t + 3 * s * kp  # epsilon = eps / den
    # with wide = den det A: 6 g c = six_gc / wide, epsilon = eps det A / wide
    # and delta = dn / dd, so phi = ((six_gc - eps det A) dd - dn wide) / (4 wide dd)
    wide = den * det * lcm_ab
    six_gc = 3 * (2 * (2 * g - 1) * det * lcm_ab * t + 3 * s * mqp)
    dn, dd = _length_ratio(graph)
    return (
        Fraction(eps, den),
        Fraction((six_gc - eps * det * lcm_ab) * dd - dn * wide, 4 * wide * dd),
    )


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
    return Fraction(*_length_ratio(graph))


def _length_ratio(graph):
    """(num, den) with delta = num / den: the edge lengths summed as
    integers over the lcm of their denominators."""
    # *list, not *generator: a resized argument tuple stays on CPython's free list
    den = math.lcm(*[e.length.denominator for e in graph.edges])
    return sum(e.length.numerator * (den // e.length.denominator) for e in graph.edges), den


def verify_admissible(graph, mu):
    """Max deviation of f(y) = g_mu(y, y) + sum_v K(v) g_mu(v, y) from its
    best constant.

    Exactly 0 iff mu is the admissible measure (checked at vertices and edge
    midpoints, which pins the per-edge quadratics).  With K of degree 2g - 2
    and psi_K(y) = sum_v K(v) r(v, y) the potential of delta_K (README.md,
    "Metrized graphs"), f(y) = (2g phi_mu(y) + sum_v K(v) phi_mu(v) -
    (2g - 1) c - psi_K(y)) / 2, in which only h = 2g phi_mu - psi_K varies
    with y: the deviation, half the spread of f, is a quarter of h's spread.
    At the midpoint of an edge of length a / b, h is (h_u + h_v) / 2 +
    N_e / (2 b det) - g a^2 d_e / (2 b^2).  The kernel's one denominator D
    covers every b, so every h is an integer over U = 2 det W = 12 det D^2,
    and the one Fraction is the result.
    """
    res = _Resistances(graph)
    kernel = _Kernel(mu, res)
    g, det, w, den = graph.total_genus, res._det, kernel._w, kernel._den
    # h = H_v / Z at the vertices, as psi_K(v) = s P_v / det = s W P_v / Z
    sw, psi = res._scale * w, res.potentials(canonical_divisor(graph))
    h = {v: 2 * g * kernel._f[v] - sw * x for v, x in psi.items()}
    values = [2 * x for x in h.values()]  # h U with U = 2 Z
    for e, n, (p, q) in zip(graph.edges, kernel._n, kernel._d):
        a, b = e.length.numerator, e.length.denominator
        density = 6 * g * det * a * a * p * (den // b) * (den // (b * q))
        values.append(h[e.u] + h[e.v] + n * (w // b) - density)
    return Fraction(max(values) - min(values), 8 * det * w)


def subdivide(graph, eid, s):
    """Split edge ``eid`` at interior arc length ``s`` with a genus-0 vertex."""
    e = _edge(graph, eid)
    s = require_rational(s, "subdivision point")
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
    t = require_rational(t, "scale factor")
    if t <= 0:
        raise ValueError("scale factor must be positive")
    return MetrizedGraph(
        graph.genus, [(e.u, e.v, e.length * t) for e in graph.edges]
    )
