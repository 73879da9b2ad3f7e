"""The vertex-plus-subdivision kernel of ``hypinv.metgraph`` as it was
before the closed-form rewrite, kept verbatim as a test oracle.

It inverts a Laplacian on the vertices plus three cuts per edge (and the
query points with their Simpson half-splits), and finds the canonical
measure with one extra drop-edge solve per edge.  Slow but independent of
the closed forms, so the tests compare the two paths on random graphs and
require exactly equal ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction

from hypinv.metgraph import (
    Measure,
    PiecewisePoly,
    _fit_quadratic,
    _invert,
    _norm_point,
    canonical_divisor,
    delta,
)

class _Network:
    """Resistor network on a graph with chosen interior subdivision points.

    Conductance of a segment is the reciprocal of its length.  Effective
    resistances are read off the inverse of the grounded Laplacian, computed
    lazily per connected component.
    """

    def __init__(self, graph, offsets=None, drop_edge=None):
        offsets = offsets or {}
        self.nodes = [("v", v) for v in graph.genus]
        index = {node: i for i, node in enumerate(self.nodes)}
        segments = []
        for e in graph.edges:
            if e.eid == drop_edge:
                continue
            cuts = sorted(set(offsets.get(e.eid, ())))
            chain = [("v", e.u)]
            prev = Fraction(0)
            lengths = []
            for s in cuts:
                node = ("e", e.eid, s)
                chain.append(node)
                lengths.append(s - prev)
                prev = s
            chain.append(("v", e.v))
            lengths.append(e.length - prev)
            for node in chain[1:-1]:
                if node not in index:
                    index[node] = len(self.nodes)
                    self.nodes.append(node)
            for a, b, seg in zip(chain, chain[1:], lengths):
                if seg <= 0:
                    raise ValueError("subdivision offsets must be distinct")
                segments.append((index[a], index[b], seg))
        self.index = index
        n = len(self.nodes)
        # component labels (loops and parallel segments are fine)
        comp = list(range(n))

        def find(i):
            while comp[i] != i:
                comp[i] = comp[comp[i]]
                i = comp[i]
            return i

        lap = [[Fraction(0)] * n for _ in range(n)]
        for a, b, seg in segments:
            if a == b:
                continue  # a loop segment carries no net current
            c = 1 / seg
            lap[a][a] += c
            lap[b][b] += c
            lap[a][b] -= c
            lap[b][a] -= c
            ra, rb = find(a), find(b)
            if ra != rb:
                comp[ra] = rb
        self._comp = [find(i) for i in range(n)]
        self._lap = lap
        self._green = {}  # component root -> (local index map, inverse)

    def component(self, node):
        return self._comp[self.index[node]]

    def _green_for(self, root):
        if root not in self._green:
            members = [i for i in range(len(self.nodes)) if self._comp[i] == root]
            local = {i: k for k, i in enumerate(members)}
            reduced = [
                [self._lap[i][j] for j in members[1:]] for i in members[1:]
            ]
            inv = _invert(reduced) if reduced else []
            self._green[root] = (local, inv)
        return self._green[root]

    def resistance(self, a, b):
        """Effective resistance between nodes; None if disconnected."""
        ia, ib = self.index[a], self.index[b]
        if ia == ib:
            return Fraction(0)
        ra, rb = self._comp[ia], self._comp[ib]
        if ra != rb:
            return None
        local, inv = self._green_for(ra)
        ka, kb = local[ia] - 1, local[ib] - 1  # -1: ground is members[0]

        def g(r, c):
            if r < 0 or c < 0:
                return Fraction(0)
            return inv[r][c]

        return g(ka, ka) + g(kb, kb) - 2 * g(ka, kb)


def _standard_offsets(graph, extra=()):
    """Quarter/half/three-quarter cuts per edge, plus the interior points in
    ``extra`` together with their Simpson half-splits."""
    offsets = {
        e.eid: {e.length / 4, e.length / 2, 3 * e.length / 4}
        for e in graph.edges
    }
    for kind, eid, s in extra:
        assert kind == "e"
        length = graph.edges[eid].length
        offsets[eid].update({s, s / 2, (s + length) / 2})
    return offsets


class _Kernel:
    """Potential computations for one (graph, measure) pair.

    Exposes the potential phi(x) = int r(x, .) dmu, the double integral
    c = int int r dmu dmu, and the Green's function
    g(x, y) = (phi(x) + phi(y) - r(x, y) - c) / 2.
    """

    def __init__(self, graph, mu, extra_points=()):
        if mu.total_mass(graph) != 1:
            raise ValueError("measure must have total mass 1")
        self.graph = graph
        self.mu = mu
        extras = [p for p in extra_points if p[0] == "e"]
        self.net = _Network(graph, _standard_offsets(graph, extras))
        self._phi = {}

    def _res(self, x, y):
        return self.net.resistance(x, y)

    def phi(self, x):
        if x in self._phi:
            return self._phi[x]
        g, mu = self.graph, self.mu
        total = Fraction(0)
        for v in g.genus:
            m = mu.mass(v)
            if m:
                total += m * self._res(x, ("v", v))
        for e in g.edges:
            d = mu.density(e.eid)
            if not d:
                continue
            total += d * self._edge_integral(x, e)
        self._phi[x] = total
        return total

    def _edge_integral(self, x, e):
        # int over e of r(x, zeta) dzeta; r(x, .) is quadratic on e except
        # for a break where x itself sits on e, handled by a split Simpson
        length = e.length
        u, v = ("v", e.u), ("v", e.v)
        if x[0] == "e" and x[1] == e.eid:
            s = x[2]
            left = s / 6 * (self._res(x, u) + 4 * self._res(x, ("e", e.eid, s / 2)))
            right = (length - s) / 6 * (
                4 * self._res(x, ("e", e.eid, (s + length) / 2))
                + self._res(x, v)
            )
            return left + right
        mid = ("e", e.eid, length / 2)
        return length / 6 * (
            self._res(x, u) + 4 * self._res(x, mid) + self._res(x, v)
        )

    @property
    def c(self):
        # int int r dmu dmu = int phi dmu; phi is quadratic per edge
        if not hasattr(self, "_c"):
            g, mu = self.graph, self.mu
            total = Fraction(0)
            for v in g.genus:
                m = mu.mass(v)
                if m:
                    total += m * self.phi(("v", v))
            for e in g.edges:
                d = mu.density(e.eid)
                if not d:
                    continue
                total += d * e.length / 6 * (
                    self.phi(("v", e.u))
                    + 4 * self.phi(("e", e.eid, e.length / 2))
                    + self.phi(("v", e.v))
                )
            self._c = total
        return self._c

    def green(self, x, y):
        return (self.phi(x) + self.phi(y) - self._res(x, y) - self.c) / 2

    def gdiag(self, x):
        return self.phi(x) - self.c / 2

    def eval_points(self):
        """Vertices and edge midpoints: enough to pin any per-edge quadratic."""
        pts = [("v", v) for v in self.graph.genus]
        pts += [("e", e.eid, e.length / 2) for e in self.graph.edges]
        return pts


def resistance(graph, x, y):
    """Effective resistance between two points, exact."""
    px, py = _norm_point(graph, x), _norm_point(graph, y)
    offsets = {}
    for p in (px, py):
        if p[0] == "e":
            offsets.setdefault(p[1], set()).add(p[2])
    net = _Network(graph, offsets)
    return net.resistance(px, py)


def canonical_measure(graph):
    """The mass-1 measure whose Green's function has constant diagonal.

    Vertex masses 1 - valence/2; density 1/(length + R_e) per edge, where
    R_e is the resistance between the endpoints with the edge removed
    (0 for loops; bridges get density 0).
    """
    masses = {
        v: 1 - Fraction(graph.valence(v), 2) for v in graph.genus
    }
    densities = {}
    for e in graph.edges:
        if e.is_loop:
            densities[e.eid] = 1 / e.length
            continue
        net = _Network(graph, drop_edge=e.eid)
        r_e = net.resistance(("v", e.u), ("v", e.v))
        if r_e is None:  # bridge
            densities[e.eid] = Fraction(0)
        else:
            densities[e.eid] = 1 / (e.length + r_e)
    return Measure(masses, densities)


def _require_genus(graph):
    if graph.total_genus < 2:
        raise ValueError("genus too small")


def admissible_measure(graph):
    """(delta_K + 2 mu_can) / (2 total_genus); total mass 1."""
    _require_genus(graph)
    g2 = 2 * graph.total_genus
    k = canonical_divisor(graph)
    can = canonical_measure(graph)
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
    kernel = _Kernel(graph, mu, extra_points=(px, py))
    return kernel.green(px, py)


def green_diagonal(graph, mu):
    """x -> g_mu(x, x) as an exact per-edge quadratic."""
    kernel = _Kernel(graph, mu)
    vertex_values = {v: kernel.gdiag(("v", v)) for v in graph.genus}
    coeffs = {}
    for e in graph.edges:
        f0 = vertex_values[e.u]
        fm = kernel.gdiag(("e", e.eid, e.length / 2))
        f1 = vertex_values[e.v]
        coeffs[e.eid] = _fit_quadratic(f0, fm, f1, e.length)
    return PiecewisePoly(vertex_values, coeffs)


def _integrate_gdiag(graph, kernel, vertex_weight, density_weight):
    """int gdiag d(nu) with nu = sum vertex_weight(v) delta_v
    + density_weight(e) dx per edge; gdiag is quadratic per edge."""
    total = Fraction(0)
    for v in graph.genus:
        w = vertex_weight(v)
        if w:
            total += w * kernel.gdiag(("v", v))
    for e in graph.edges:
        w = density_weight(e)
        if not w:
            continue
        total += w * e.length / 6 * (
            kernel.gdiag(("v", e.u))
            + 4 * kernel.gdiag(("e", e.eid, e.length / 2))
            + kernel.gdiag(("v", e.v))
        )
    return total


def epsilon_phi(graph):
    """Both graph invariants from a single exact Green's-function pass.

    epsilon = int gdiag d((2g-2) mu_ad + delta_K);
    phi = -delta/4 + (1/4) int gdiag d((10g+2) mu_ad - delta_K).
    """
    _require_genus(graph)
    mu = admissible_measure(graph)
    kernel = _Kernel(graph, mu)
    k = canonical_divisor(graph)
    g_hat = graph.total_genus
    eps = _integrate_gdiag(
        graph,
        kernel,
        lambda v: (2 * g_hat - 2) * mu.mass(v) + k[v],
        lambda e: (2 * g_hat - 2) * mu.density(e.eid),
    )
    integral = _integrate_gdiag(
        graph,
        kernel,
        lambda v: (10 * g_hat + 2) * mu.mass(v) - k[v],
        lambda e: (10 * g_hat + 2) * mu.density(e.eid),
    )
    ph = -delta(graph) / 4 + integral / 4
    return eps, ph


def _spread(values):
    # deviation from the best constant: half the spread
    lo, hi = min(values), max(values)
    return (hi - lo) / 2


def verify_admissible(graph, mu):
    """Max deviation of g_mu(K, y) + g_mu(y, y) from its best constant.

    Exactly 0 iff mu is the admissible measure (checked at vertices and edge
    midpoints, which pins the per-edge quadratics).
    """
    kernel = _Kernel(graph, mu)
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
    kernel = _Kernel(graph, mu)
    return _spread([kernel.gdiag(y) for y in kernel.eval_points()])

