"""Exact potential theory on metrized reduction graphs.

Vertices carry genus markings, edges carry positive rational lengths (loops
and multi-edges allowed).  A ``MetrizedGraph`` is immutable and makes one
exact solve, ``_invert`` of the grounded Laplacian on the vertices, on its
first computation and keeps it (``MetrizedGraph._solve``); every public
computation on the graph derives resistances, measures, potentials, Green's
functions and Zhang's epsilon and phi in closed form from that solve's
integer adjugate, each form at one code site.  The solve works out the
Foster numerator N_e of every edge once, and k_e = b N_e / (a^2 det) on an
edge of length a / b is read from it; it also keeps the canonical divisor
K and its potential psi_K (``_Resistances._psi``).  A
``Measure`` is immutable too, and the graph keeps the kernel (``_Kernel``,
which serves ``green``, ``green_diagonal`` and ``verify_admissible``) of the
last measure it was asked about (``MetrizedGraph._kernel``), in integers
over one lcm D of the mass denominators and every b_e q_e (density p_e /
q_e).  ``epsilon_phi`` reads the tau constant and psi_K over one A =
lcm(a_e b_e), in the integer core ``_epsilon_phi``, which a place report
calls with delta's ``_length_ratio``; each builds ``Fraction``s only for
results.  A point is a vertex id or a pair (int edge id, rational offset s
in [0, L]), normalized once to an endpoint at s = 0 or L, else to integers
m / n = s / L; ``_Resistances.between`` has one closed form per pair of point
kinds, and ``resistance`` and ``green`` each build one ``_fraction``, the
result.  README.md, "Metrized graphs", states the forms with their sources.

``green_diagonal`` returns a ``PiecewisePoly``, a dataclass that it
imports from ``_piecewise`` in its own body, so that importing this module
loads neither ``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from types import MappingProxyType

from .rational import _Frozen, _fraction, parse_rat, require_genus, require_int
from .rational import _set, require_keys, require_rational

#: the most vertices and edges a graph document may hold, and the largest genus
#: of one vertex (``from_json`` and ``docs/schemas/graph.schema.json``);
#: ``graph eval`` at the caps takes seconds, as the solve grows as |V|**3; the
#: genus cap bounds the node counts' list of total_genus // 2 entries
MAX_VERTICES, MAX_EDGES, MAX_VERTEX_GENUS = 128, 512, 512


class Edge(_Frozen):
    _fields = ("eid", "u", "v", "length")

    @property
    def is_loop(self):
        return self.u == self.v


class MetrizedGraph:
    """Connected multigraph with genus-marked vertices and rational lengths.

    Immutable once built: ``edges`` is a tuple of ``Edge``s, ``genus`` a
    read-only mapping, and assignment raises ``AttributeError`` as on a
    ``_Frozen`` record; ``==`` and ``hash`` are by identity.  The graph keeps
    ``total_genus``, the constructor's ``bridge_sides`` (the ``sides`` of
    ``bridge_search``, read-only) and, from the first computation on, its one
    Laplacian solve (``_solve``) and the kernel of the last measure asked
    about (``_kernel``)."""

    __setattr__ = __delattr__ = _Frozen.__setattr__
    _res = _ker = None  # the kept solve and kernel, set by ``_solve`` and ``_kernel``

    def __init__(self, genus, edges):
        """``genus``: mapping vertex id -> genus >= 0; ``edges``: iterable of
        (u, v, length) triples, each length an ``int`` or a ``Fraction``."""
        marks = {}
        for v, g in dict(genus).items():
            if (vid := str(v)) in marks:
                raise ValueError(f"duplicate vertex id: {vid!r}")
            marks[vid] = require_int(g, f"genus of vertex {v!r}")
        if not marks:
            raise ValueError("graph needs at least one vertex")
        if any(g < 0 for g in marks.values()):
            raise ValueError("vertex genus must be nonnegative")
        links = []
        for i, (u, v, length) in enumerate(edges):
            u, v = str(u), str(v)
            if u not in marks or v not in marks:
                raise ValueError(f"edge ({u}, {v}) references unknown vertex")
            length = require_rational(length, f"length of edge ({u}, {v})")
            if length <= 0:
                raise ValueError("edge lengths must be positive")
            links.append(Edge(i, u, v, length))
        _set(self, "genus", MappingProxyType(marks))
        _set(self, "edges", tuple(links))
        _set(self, "total_genus", self.betti + sum(marks.values()))
        connected, sides = self.bridge_search()
        if not connected:
            raise ValueError("graph must be connected")
        _set(self, "bridge_sides", MappingProxyType(sides))

    def _solve(self):
        """The graph's one ``_Resistances``: built on the first call, then
        kept, so every computation on the graph reads the same solve."""
        if self._res is None:
            _set(self, "_res", _Resistances(self))
        return self._res

    def _kernel(self, mu):
        """The ``_Kernel`` of the measure ``mu`` on this graph: the kept one if
        it was built for ``mu`` itself, else a new one, kept in its place.  A
        ``Measure`` is immutable, so the kept kernel's checks still hold."""
        kernel = self._ker
        if kernel is None or kernel.mu is not mu:
            if not isinstance(mu, Measure):
                raise ValueError(f"mu is not a Measure: {type(mu).__name__}")
            kernel = _Kernel(mu, self._solve())
            _set(self, "_ker", kernel)
        return kernel

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

    @classmethod
    def from_json(cls, doc):
        """The graph of a ``docs/schemas/graph.schema.json`` document;
        ValueError on one outside the schema's keys, types or size caps."""
        require_keys(doc, ("vertices", "edges"), "graph")
        for key, cap in (("vertices", MAX_VERTICES), ("edges", MAX_EDGES)):
            if not isinstance(doc[key], list):
                raise ValueError(f"graph {key} is not a list: {doc[key]!r}")
            if len(doc[key]) > cap:
                raise ValueError(f"graph has {len(doc[key])} {key}, more than {cap}")
        genus = {}
        for v in doc["vertices"]:
            vid = require_keys(v, ("id", "genus"), "vertex", ("id",))["id"]
            if vid in genus:
                raise ValueError(f"duplicate vertex id: {vid!r}")
            genus[vid] = g = v["genus"]  # its type is checked by the constructor
            if isinstance(g, int) and g > MAX_VERTEX_GENUS:
                raise ValueError(f"genus {g} of vertex {vid!r} is more than {MAX_VERTEX_GENUS}")
        edges = []
        for e in doc["edges"]:
            e = require_keys(e, ("u", "v", "length"), "edge", ("u", "v", "length"))
            edges.append((e["u"], e["v"], parse_rat(e["length"])))
        return cls(genus, edges)


class Measure(_Frozen):
    """Point masses at vertices (vertex id -> mass) plus a constant density
    per edge (edge id -> density).

    Immutable, so that a graph can keep its kernel: both mappings are
    read-only copies and assignment raises ``AttributeError``; ``==`` and
    ``hash`` are by value."""

    _fields = ("vertex_mass", "edge_density")

    def __init__(self, vertex_mass, edge_density):  # named, for keyword callers
        super().__init__(MappingProxyType(dict(vertex_mass)),
                         MappingProxyType(dict(edge_density)))

    def __hash__(self):
        return hash(tuple(frozenset(m.items()) for m in self._values()))

    def __repr__(self):
        masses, densities = map(dict, self._values())
        return f"Measure(vertex_mass={masses!r}, edge_density={densities!r})"

    def total_mass(self, graph):
        total = sum(self.vertex_mass.values(), Fraction(0))
        for e in graph.edges:
            total += self.edge_density.get(e.eid, Fraction(0)) * e.length
        return total

    def mass(self, v):
        return self.vertex_mass.get(v, Fraction(0))

    def density(self, eid):
        return self.edge_density.get(eid, Fraction(0))


def _edge_point(x):
    """The edge id and ``Fraction`` offset of a tuple point (edge id, offset)."""
    if len(x) != 2:
        raise ValueError(f"an edge point is a pair (edge id, offset), not {x!r}")
    return require_int(x[0], "edge id"), require_rational(x[1], "edge offset")


def _edge(graph, eid):
    """The edge of ``graph`` with the id ``eid``, an int the caller checked;
    ValueError if there is none."""
    if eid not in range(len(graph.edges)):
        raise ValueError(f"no edge {eid} in a graph of {len(graph.edges)} edges")
    return graph.edges[eid]


def _norm_point(graph, x):
    """Normalize a point spec to ("v", id) or ("e", eid, m, n), where s / L =
    m / n with m = s_num b and n = s_den a at offset s on an edge of L = a / b."""
    if isinstance(x, tuple):
        eid, off = _edge_point(x)
        e = _edge(graph, eid)
        m, n = off.numerator * e.length.denominator, off.denominator * e.length.numerator
        if m == 0:
            return ("v", e.u)
        if m == n:
            return ("v", e.v)
        if not 0 < m < n:
            raise ValueError(f"offset {off} outside edge of length {e.length}")
        return ("e", eid, m, n)
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
    The constructor also works out the Foster numerator N_e of every edge
    (``foster``), which every reader of k_e takes from ``_n``, and keeps the
    canonical divisor K (``_k``) and its ``potentials``, psi_K (``_psi``).
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
        self._n = [self.foster(e) for e in graph.edges]
        self._k = canonical_divisor(graph)
        self._psi = self.potentials(self._k)  # keyed, as K, in vertex order

    def _r(self, a, b):
        """det r(a, b) / s, an integer."""
        i, j, adj = self._index[a], self._index[b], self._adj
        return adj[i][i] + adj[j][j] - 2 * adj[i][j]

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
        b N_e / (a^2 det) from the solve's N_e."""
        a, b = e.length.numerator, e.length.denominator
        return Fraction(b * self._n[e.eid], a * a * self._det)

    def between(self, x, y):
        """r(x, y) between two normalized points as an integer pair (num, den)
        with den = det w(x) w(y), w = 1 at a vertex and b n^2 at m / n on an
        edge of length a / b, each with its bulge L^2 k_e = N_e / (b det)."""
        if x[0] == "v":
            x, y = y, x
        r, s, det = self._r, self._scale, self._det
        if x[0] == "v":
            return s * r(x[1], y[1]), det
        _, eid, m, n = x
        e = self.graph.edges[eid]
        b, n_e = e.length.denominator, self._n[eid]
        if y[0] == "v":  # the chord of r(y, u) and r(y, v) over b det
            return _on_edge(m, n, b * s * r(y[1], e.u), b * s * r(y[1], e.v), n_e, b * det)
        _, fid, m2, n2 = y
        if fid == eid:  # t - t^2 k_e, t / L = |m n' - m' n| / (n n')
            t = abs(m * n2 - m2 * n)
            num = e.length.numerator * det * t * n * n2 - t * t * n_e
            return b * num, det * (b * n * n2) ** 2
        # r(x, .) at f's endpoints by e's chord, over w(x) det; then f's chord
        f, bs, wx = self.graph.edges[fid], b * s, b * n * n
        bf = f.length.denominator
        ru = bf * _on_edge(m, n, bs * r(f.u, e.u), bs * r(f.u, e.v), n_e, 1)[0]
        rv = bf * _on_edge(m, n, bs * r(f.v, e.u), bs * r(f.v, e.v), n_e, 1)[0]
        return _on_edge(m2, n2, ru, rv, self._n[fid] * wx, bf * wx * det)


def _on_edge(m, n, at_u, at_v, bulge, den):
    """The value at x = s / L = m / n on an edge of a function whose second
    derivative is constant there: the chord between the endpoint values at_u /
    den and at_v / den plus x (1 - x) bulge / den, bulge / den = -L^2 f'' / 2
    (README.md).  All integers; returns (num, n^2 den), polynomial in m, n."""
    return (n - m) * (n * at_u + m * bulge) + n * m * at_v, n * n * den


class _Kernel:
    """Potential computations for one (graph, measure) pair, in integers.

    Built, and its measure checked, once per pair: the graph keeps it
    (``MetrizedGraph._kernel``), and a ``Measure`` cannot change.

    Over one denominator D, the lcm of the vertex-mass denominators and of
    b_e q_e on every edge of length a_e / b_e and density p_e / q_e, the
    potential phi(x) = int r(x, .) dmu is kept at the vertices as integer
    numerators F_v over Z = det W, W = 6 D^2, and the double integral
    c = int int r dmu dmu as the integer C over 2 D Z, in the README's closed
    forms; the Green's function is g(x, y) = (phi(x) + phi(y) - r(x, y) - c) / 2.
    """

    def __init__(self, mu, res):
        self.mu = mu  # the measure itself: ``MetrizedGraph._kernel`` tests identity
        graph = self.graph = res.graph
        unknown = mu.edge_density.keys() - {e.eid for e in graph.edges}
        if unknown:
            unknown = sorted(unknown, key=str)
            raise ValueError(f"measure has densities on unknown edges: {unknown}")
        unknown = mu.vertex_mass.keys() - graph.genus.keys()
        if unknown:
            unknown = sorted(unknown, key=str)
            raise ValueError(
                f"measure has masses on unknown vertices, not on the graph's points: "
                f"{unknown}"
            )
        self.res, det = res, res._det
        masses = [
            (v, require_rational(m, f"mass of vertex {v!r}"))
            for v, m in mu.vertex_mass.items()
        ]
        self._d = []  # per edge: (numerator, denominator) of d_e
        for e in graph.edges:
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
        for e, n, (p, q) in zip(graph.edges, res._n, self._d):
            a, b = e.length.numerator, e.length.denominator
            x = p * a * (den // (b * q))  # D d_e L_e
            mass[e.u] += x
            mass[e.v] += x
            t1 += x * n * (den // b)
            t2 += x * x * a * (den // b)
        if sum(mass.values()) != 2 * den:
            raise ValueError("measure must have total mass 1 on the graph's points")
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
        return dd * b * self.res._n[e.eid] - dn * a2det, dd * a2det

    def phi(self, x):
        """phi_mu(x) as an integer pair (num, den) with den = Z w(x), w as in
        ``_Resistances.between``."""
        f, z = self._f, self._z
        if x[0] == "v":
            return f[x[1]], z
        e = self.graph.edges[x[1]]
        b, dd = e.length.denominator, self._d[e.eid][1]
        # the bulge L^2 (k_e - d_e) = bn / (b^2 dd det) over b Z = 6 b det D^2
        bulge = 6 * self._den * (self._den // (b * dd)) * self.bend(e)[0]
        return _on_edge(x[2], x[3], b * f[e.u], b * f[e.v], bulge, b * z)

    def green(self, x, y):
        """g_mu(x, y) = (phi(x) + phi(y) - r(x, y) - c) / 2 as an integer pair
        (num, den): phi over Z w, r over det w(x) w(y) = Z w(x) w(y) / W and
        c over 2 D Z, so 4 D Z w(x) w(y) holds every term."""
        (fx, dx), (fy, dy) = self.phi(x), self.phi(y)
        r = self.res.between(x, y)[0]
        wx, wy = dx // self._z, dy // self._z
        d2 = 2 * self._den
        return d2 * (fx * wy + fy * wx - self._w * r) - self._c * wx * wy, 2 * d2 * dx * wy


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
    return _fraction(*graph._solve().between(px, py))


def canonical_measure(graph):
    """The mass-1 measure whose Green's function has constant diagonal.

    Vertex masses 1 - valence/2 = (2 genus(v) - K(v)) / 2, read off the
    canonical divisor; density (L - r(u, v)) / L^2 on an edge of length L
    between u and v, with r(u, v) the effective resistance in the whole
    graph (Foster's coefficient; Chinburg-Rumely, "The capacity pairing",
    1993).  That is 1/L on a loop and 0 on a bridge.  Foster's identity,
    sum over edges of (1 - r(u, v)/L) = betti, makes the mass 1.
    """
    res = graph._solve()
    masses = {v: Fraction(2 * graph.genus[v] - kv, 2) for v, kv in res._k.items()}
    densities = {e.eid: res.density(e) for e in graph.edges}
    return Measure(masses, densities)


def admissible_measure(graph):
    """(delta_K + 2 mu_can) / (2 total_genus); total mass 1.

    That is mass genus(v) / g at v, since K(v) + 2 (1 - valence(v) / 2) =
    2 genus(v), and the canonical density over g on each edge.
    """
    g, res = require_genus(graph.total_genus), graph._solve()
    masses = {v: Fraction(h, g) for v, h in graph.genus.items()}
    densities = {e.eid: res.density(e) / g for e in graph.edges}
    return Measure(masses, densities)


def green(graph, mu, x, y):
    """Green's function g_mu(x, y) for a total-mass-1 measure, exact."""
    px, py = _norm_point(graph, x), _norm_point(graph, y)
    return _fraction(*graph._kernel(mu).green(px, py))


def green_diagonal(graph, mu):
    """x -> g_mu(x, x) = phi_mu(x) - c/2 as an exact per-edge quadratic."""
    from ._piecewise import PiecewisePoly

    kernel = graph._kernel(mu)
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

    Through the tau constant tau (M. Baker and R. Rumely, "Harmonic analysis
    on metrized graphs", 2007) and theta = sum_v K(v) psi_K(v), as Z. Cinkir
    writes them ("Zhang's conjecture and the effective Bogomolov conjecture
    over function fields", 2011):

    epsilon = (4g - 4) tau / g + theta / (2g),
    phi = (5g - 2) tau / g + theta / (4g) - delta / 4,

    both in integers over one common denominator (``_epsilon_phi``).
    """
    eps, ph = _epsilon_phi(graph, require_genus(graph.total_genus), *_length_ratio(graph))
    return _fraction(*eps), _fraction(*ph)


def _epsilon_phi(graph, g, dn, dd):
    """(eps, phi) as integer pairs (num, den) for the checked genus g and
    delta = dn / dd; tau = t / (12 det^2 A), A = lcm(a_e b_e), as in README.md."""
    res = graph._solve()
    det, s = res._det, res._scale
    # det r(v, y) / s, with y the grounded vertex
    diag = {v: res._adj[i][i] for v, i in res._index.items()}
    # A; *list, not *generator: a resized argument tuple stays on CPython's free list
    lcm_ab = math.lcm(*[e.length.numerator * e.length.denominator for e in graph.edges])
    t = foster = 0  # tau = t / (12 det^2 A); foster = sum_e N_e A / a_e
    for e, n in zip(graph.edges, res._n):
        a, b = e.length.numerator, e.length.denominator
        rise = s * b * (diag[e.v] - diag[e.u])
        t += (3 * rise * rise + n * n) * (lcm_ab // (a * b))
        foster += n * (lcm_ab // a)
    if foster != graph.betti * det * lcm_ab:  # sum_e k_e L_e = betti
        raise ValueError("Foster's identity fails: the masses do not sum to 1")
    # theta / (4g) = th / den, as theta = s (K . P) / det with P = psi_K
    th = 3 * s * det * lcm_ab * sum(map(operator.mul, res._k.values(), res._psi.values()))
    den = 12 * g * det * det * lcm_ab  # tau / g = t / den
    return (
        ((4 * g - 4) * t + 2 * th, den),
        (((5 * g - 2) * t + th) * dd - dn * (den // 4), den * dd),
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
    return _fraction(*_length_ratio(graph))


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
    res, kernel = graph._solve(), graph._kernel(mu)
    g, det, w, den = graph.total_genus, res._det, kernel._w, kernel._den
    # h = H_v / Z at the vertices, as psi_K(v) = s P_v / det = s W P_v / Z
    sw = res._scale * w
    h = {v: 2 * g * kernel._f[v] - sw * x for v, x in res._psi.items()}
    values = [2 * x for x in h.values()]  # h U with U = 2 Z
    for e, n, (p, q) in zip(graph.edges, res._n, kernel._d):
        a, b = e.length.numerator, e.length.denominator
        density = 6 * g * det * a * a * p * (den // b) * (den // (b * q))
        values.append(h[e.u] + h[e.v] + n * (w // b) - density)
    return Fraction(max(values) - min(values), 8 * det * w)


def subdivide(graph, eid, s):
    """Split edge ``eid`` at interior arc length ``s`` with a genus-0 vertex."""
    e = _edge(graph, require_int(eid, "edge id"))
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
