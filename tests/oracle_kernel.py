"""The vertex-plus-subdivision kernel of ``hypinv.metgraph`` as it was
before the closed-form rewrite, kept verbatim as a test oracle.

It inverts a Laplacian on the vertices plus three cuts per edge (and the
query points with their Simpson half-splits), and finds the canonical
measure with one extra drop-edge solve per edge.  Slow but independent of
the closed forms, so the tests compare the two paths on random graphs and
require exactly equal ``Fraction``s.

At the end, the ``Fraction`` closed-form kernel that came after it and
before the integer one, for the Green's-function calls, with the
``Fraction`` point path (``_Resistances.vertex`` and ``between``, and
``_on_edge``) that ``resistance`` and ``green`` took before they moved to
integer pairs, copied verbatim, except that a measure with a mass off the
graph is refused with the integer kernel's message, which names the vertices.

Last, ``mass_epsilon_phi``: ``epsilon_phi``'s integer route through the
admissible measure's masses, from before it moved to the tau constant.

Every point query here normalizes its points with ``_norm_point`` as it was
before points moved to the integer ratio m / n = s / L, with ``Fraction``
offsets, copied verbatim; it shares with the code it checks only the input
checks ``_edge_point`` and ``_edge``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypinv._piecewise import PiecewisePoly
from hypinv.metgraph import (
    Measure,
    _edge,
    _edge_point,
    _length_ratio,
    _Resistances,
    canonical_divisor,
    delta,
)
from hypinv.rational import require_genus


# ``hypinv.metgraph._norm_point`` with Fraction offsets, verbatim.


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


# The Fraction Gauss-Jordan inverse and the three-point quadratic fit of the
# same kernel, copied here so that the oracle does not share them with the
# code it checks.


def _fit_quadratic(f0, fm, f1, length):
    # quadratic through (0, f0), (length/2, fm), (length, f1)
    c0 = f0
    c1 = (-3 * f0 + 4 * fm - f1) / length
    c2 = (2 * f0 - 4 * fm + 2 * f1) / length**2
    return (c0, c1, c2)


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



# ------------------------------------------------- the Fraction closed forms
#
# ``hypinv.metgraph``'s ``_Kernel``, ``green``, ``green_diagonal`` and
# ``verify_admissible`` as they were before the kernel moved to integers over
# one common denominator, kept verbatim (renamed with a ``fraction_`` prefix)
# as a test oracle.  They sum Fractions edge by edge on the closed forms of
# README.md, "Metrized graphs".  The point path they read, ``vertex``,
# ``between`` and ``_on_edge`` as they were before ``resistance`` and
# ``green`` moved to integer pairs, is copied below verbatim too, so the
# oracle shares with the code it checks only the solve (``_invert``,
# ``foster``, ``potentials`` and ``density`` of ``_Resistances``) and the
# point checks ``_edge_point`` and ``_edge`` under ``_norm_point`` above.


class _FractionResistances(_Resistances):
    """``_Resistances`` with its ``Fraction`` point path."""

    def vertex(self, a, b):
        """r(a, b) between two vertices."""
        return Fraction(self._scale * self._r(a, b), self._det)

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


def fraction_resistance(graph, x, y):
    """Effective resistance between two points, exact."""
    px, py = _norm_point(graph, x), _norm_point(graph, y)
    return _FractionResistances(graph).between(px, py)


class _FractionKernel:
    """Potential computations for one (graph, measure) pair.

    Exposes the potential phi(x) = int r(x, .) dmu and the double integral
    c = int int r dmu dmu, in the README's closed forms, from which the
    Green's function is g(x, y) = (phi(x) + phi(y) - r(x, y) - c) / 2.
    """

    def __init__(self, mu, res):
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
        if mu.total_mass(graph) != 1:
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
        e = self.graph.edges[x[1]]
        return _on_edge(e, x[2], self._phi[e.u], self._phi[e.v], self.bend(e))


def fraction_green(graph, mu, x, y):
    """Green's function g_mu(x, y) for a total-mass-1 measure, exact."""
    px, py = _norm_point(graph, x), _norm_point(graph, y)
    kernel = _FractionKernel(mu, _FractionResistances(graph))
    return (kernel.phi(px) + kernel.phi(py) - kernel.res.between(px, py) - kernel.c) / 2


def fraction_green_diagonal(graph, mu):
    """x -> g_mu(x, x) = phi_mu(x) - c/2 as an exact per-edge quadratic."""
    kernel = _FractionKernel(mu, _Resistances(graph))
    half_c = kernel.c / 2
    values = {v: kernel.phi(("v", v)) - half_c for v in graph.genus}
    coeffs = {}
    for e in graph.edges:
        bend, c0 = kernel.bend(e), values[e.u]
        coeffs[e.eid] = (c0, (values[e.v] - c0) / e.length + e.length * bend, -bend)
    return PiecewisePoly(values, coeffs, {e.eid: e.length for e in graph.edges})


def fraction_verify_admissible(graph, mu):
    """Max deviation of f(y) = g_mu(y, y) + sum_v K(v) g_mu(v, y) from its
    best constant.

    Exactly 0 iff mu is the admissible measure (checked at vertices and edge
    midpoints, which pins the per-edge quadratics).  With D = deg K = 2g - 2
    and psi_K(y) = sum_v K(v) r(v, y) the potential of delta_K (README.md,
    "Metrized graphs"), f(y) = ((D + 2) phi_mu(y) + sum_v K(v) phi_mu(v) -
    (D + 1) c - psi_K(y)) / 2, in which only h = (D + 2) phi_mu - psi_K varies
    with y: the deviation, half the spread of f, is a quarter of h's spread.
    """
    res = _Resistances(graph)
    kernel = _FractionKernel(mu, res)
    k = canonical_divisor(graph)
    d = sum(k.values())
    psi = {v: Fraction(res._scale * x, res._det) for v, x in res.potentials(k).items()}
    values = [(d + 2) * kernel.phi(("v", v)) - psi[v] for v in graph.genus]
    for e in graph.edges:
        s = e.length / 2
        psi_s = _on_edge(e, s, psi[e.u], psi[e.v], d * res.density(e))
        values.append((d + 2) * kernel.phi(("e", e.eid, s)) - psi_s)
    return (max(values) - min(values)) / 4



# ------------------------------------------------ the admissible-mass route
#
# ``hypinv.metgraph.epsilon_phi`` as it was before it moved to the tau
# constant, kept verbatim (renamed ``mass_epsilon_phi``, its docstring
# pointing here rather than at README.md) as a test oracle.  It reads the
# admissible measure mu, masses genus(v) / g and densities k_e / g, through
# Zhang's epsilon = sum_v K(v) phi_mu(v) and phi = (6 g c - epsilon -
# delta) / 4.  With A the lcm of the a_e b_e where N_e != 0 and
# Q = 2 g det A, the masses (MQ)_v = 2 det A genus(v) + sum_{e at v} N_e A / a_e
# are integers of total Q (Foster's identity, checked), and
# P_w = Q adj_ww + sum_v (MQ)_v adj_vv - 2 (adj MQ)_w is one integer product.
# With S = t / (6 g det^2 A), t = sum_e N_e^2 A / (a_e b_e), the edge terms
# are S in phi_mu and (g - 1) S / g in c, so phi_mu(w) = S + s P_w / (det Q).
# It shares with the code it checks only the solve (``_invert``, ``foster``
# and ``potentials`` of ``_Resistances``) and ``_length_ratio``.


def mass_epsilon_phi(graph):
    """Zhang's epsilon and phi from one Laplacian solve on the vertices.

    epsilon = sum_v K(v) phi_mu(v) and phi = (6 g c - epsilon - delta) / 4
    with mu the admissible measure (S.-W. Zhang, "Gross-Schoen cycles and
    dualising sheaves", 2010), both in integers over one common denominator:
    with N_e, A = lcm(a_e b_e) over the non-bridges, Q = 2 g det A, the
    masses (MQ)_v, P_w and S = t / (6 g det^2 A) of the comment above,

    epsilon = (2g - 2) S + s (K . P) / (det Q),
    c = (2g - 1) S / g + s (MQ . P) / (det Q^2).
    """
    g, res = require_genus(graph.total_genus), graph._solve()
    det = res._det
    spread = [  # (edge, a_e, b_e, N_e) where N_e != 0: not a bridge
        (e, e.length.numerator, e.length.denominator, n)
        for e, n in zip(graph.edges, res._n)
        if n
    ]
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
