"""The benchmark's own reference computations.

Nothing here imports hypinv: every function is an independent derivation
that the workload checks compare the program's outputs against.

Graphs are plain data: ``genus`` maps vertex id -> genus, ``edges`` is a
list of ``(u, v, length)`` with ``Fraction`` lengths.  Points are a vertex
id or ``(edge index, offset)`` with ``0 < offset < length``.
"""

from __future__ import annotations

from fractions import Fraction


def valuation(q, p):
    """p-adic order of a nonzero rational ``q``."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of zero")
    v = 0
    num, den = abs(q.numerator), q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def cluster_depths(roots, p):
    """n_r = max_{s != r} val(a_r - a_s) for every root index r."""
    return {
        r: max(valuation(a - b, p) for s, b in enumerate(roots) if s != r)
        for r, a in enumerate(roots)
    }


def _det(matrix):
    # determinant by Fraction elimination with row swaps
    m = [row[:] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def _laplacian(genus, edges):
    verts = list(genus)
    index = {v: i for i, v in enumerate(verts)}
    lap = [[Fraction(0)] * len(verts) for _ in verts]
    for u, v, length in edges:
        if u == v:
            continue
        c = 1 / Fraction(length)
        a, b = index[u], index[v]
        lap[a][a] += c
        lap[b][b] += c
        lap[a][b] -= c
        lap[b][a] -= c
    return verts, index, lap


def vertex_resistances(genus, edges):
    """All pairwise vertex resistances, by the matrix-tree ratio.

    r(a, b) = det L[a, b removed] / det L[a removed] (Kirchhoff).
    """
    verts, index, lap = _laplacian(genus, edges)

    def minor(drop):
        keep = [i for i in range(len(verts)) if i not in drop]
        return [[lap[i][j] for j in keep] for i in keep]

    out = {}
    for a in verts:
        base = _det(minor({index[a]}))
        out[a, a] = Fraction(0)
        for b in verts:
            if b != a:
                out[a, b] = _det(minor({index[a], index[b]})) / base
    return out


def point_resistance(genus, edges, x, y, table=None):
    """Effective resistance between two points, exact.

    Interior points use the Baker-Faber formula: for y at offset s on an
    edge e = (u, v) of length L and any point x off the open edge e,
    r(x, y) = (1-s/L) r(x,u) + (s/L) r(x,v) + s(L-s)(L - r(u,v)) / L**2.
    Two points on the same edge are not supported.
    """
    table = table if table is not None else vertex_resistances(genus, edges)

    def to_vertex(pt, w):
        if not isinstance(pt, tuple):
            return table[str(pt), w]
        eid, s = pt
        u, v, length = edges[eid]
        return _baker_faber(table[w, u], table[w, v], table[u, v], length, s)

    if not isinstance(y, tuple):
        return to_vertex(x, str(y))
    if not isinstance(x, tuple):
        return to_vertex(y, str(x))
    if x[0] == y[0]:
        raise ValueError("both points on one edge")
    eid, s = y
    u, v, length = edges[eid]
    return _baker_faber(to_vertex(x, u), to_vertex(x, v), table[u, v], length, s)


def _baker_faber(r_xu, r_xv, r_uv, length, s):
    length, s = Fraction(length), Fraction(s)
    return (
        (1 - s / length) * r_xu
        + (s / length) * r_xv
        + s * (length - s) * (length - r_uv) / length**2
    )


def total_genus(genus, edges):
    return len(edges) - len(genus) + 1 + sum(genus.values())


def _reach(genus, edges, start, skip):
    adj = {v: [] for v in genus}
    for i, (u, v, _) in enumerate(edges):
        if i != skip:
            adj[u].append(v)
            adj[v].append(u)
    seen, todo = {start}, [start]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def discriminant_order(genus, edges):
    """d from the graph: g * (non-separating length) + sum 4i(g-i) * bridge.

    A bridge whose smaller side has genus i >= 1 is a separating node of
    type i; a bridge with a genus-0 side is not a stable-type node and
    contributes nothing.
    """
    g = total_genus(genus, edges)
    d = Fraction(0)
    for eid, (u, v, length) in enumerate(edges):
        side = _reach(genus, edges, u, eid) if u != v else None
        if side is None or v in side:
            d += g * Fraction(length)
            continue
        side_edges = [e for k, e in enumerate(edges) if k != eid and e[0] in side]
        side_genus = total_genus({w: genus[w] for w in side}, side_edges)
        i = min(side_genus, g - side_genus)
        d += 4 * i * (g - i) * Fraction(length)
    return d


#: genus-2 fiber types and their number of thickness parameters
GENUS2_ARITY = {"I": 0, "II": 1, "III": 1, "IV": 2, "V": 2, "VI": 3, "VII": 3}


def genus2_row(fiber_type, params):
    """Closed-form (d, delta, epsilon, chi) of a genus-2 fiber type.

    Types I-VII with thickness parameters; phi equals chi in genus 2.
    """
    p = [Fraction(x) for x in params]
    if fiber_type == "I":
        return (Fraction(0),) * 4
    if fiber_type == "II":
        (a,) = p
        return 4 * a, a, a, a
    if fiber_type == "III":
        (a,) = p
        return 2 * a, a, a / 6, a / 12
    if fiber_type == "IV":
        a, b = p
        return 4 * a + 2 * b, a + b, a + b / 6, a + b / 12
    if fiber_type == "V":
        a, b = p
        return 2 * (a + b), a + b, (a + b) / 6, (a + b) / 12
    if fiber_type == "VI":
        a, b, c = p
        return 4 * a + 2 * (b + c), a + b + c, a + (b + c) / 6, a + (b + c) / 12
    a, b, c = p
    total = a + b + c
    wheel = a * b * c / (a * b + b * c + c * a)
    return 2 * total, total, total / 6 + wheel / 6, total / 12 - 5 * wheel / 12


def genus2_shape(fiber_type, params):
    """A reduction graph (genus, edges) realizing a genus-2 fiber type."""
    p = [Fraction(x) for x in params]
    shapes = {
        "I": lambda: ({"v": 2}, []),
        "II": lambda a: ({"v1": 1, "v2": 1}, [("v1", "v2", a)]),
        "III": lambda a: ({"v": 1}, [("v", "v", a)]),
        "IV": lambda a, b: ({"v1": 1, "v2": 0}, [("v1", "v2", a), ("v2", "v2", b)]),
        "V": lambda a, b: ({"v": 0}, [("v", "v", a), ("v", "v", b)]),
        "VI": lambda a, b, c: (
            {"v1": 1, "v2": 0, "v3": 0},
            [("v1", "v2", a), ("v2", "v3", b), ("v2", "v3", c)],
        ),
        "VII": lambda a, b, c: (
            {"v1": 0, "v2": 0},
            [("v1", "v2", a), ("v1", "v2", b), ("v1", "v2", c)],
        ),
    }
    return shapes[fiber_type](*p)


def chi(g, d, eps, delta):
    """chi = (3d - (2g+1)(eps + delta)) / (2g - 2)."""
    return (3 * Fraction(d) - (2 * g + 1) * (Fraction(eps) + Fraction(delta))) / (
        2 * g - 2
    )


def omega_sum(g, chis_and_logs):
    """(omega, omega)_a = (2g-2)/(2g+1) * sum chi_v log Nv, in floats."""
    return (2 * g - 2) / (2 * g + 1) * sum(float(c) * w for c, w in chis_and_logs)
