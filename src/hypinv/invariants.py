"""Scalar invariant algebra: d, chi, lower bounds, the genus-2 table, and
adelic aggregation.

All node counts are thickness-weighted rationals (unweighted integer counting
is the special case of unit thicknesses).  Non-archimedean quantities stay
exact; only the archimedean plumbing and the logNv-scaled aggregation return
floats.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

from .rational import _Frozen, _set, require_genus, require_rational


class NodeCounts(_Frozen):
    """Thickness-weighted singular-point counts of a semistable fiber.

    xi0: non-separating nodes fixed by the hyperelliptic involution;
    xi[j-1]: weight of node pairs of subtype j, j = 1..floor((g-1)/2);
    delta_i[i-1]: weight of separating nodes of type i, i = 1..floor(g/2).
    """

    _fields = ("genus", "xi0", "xi", "delta_i")

    def __init__(self, genus, xi0=Fraction(0), xi=(), delta_i=()):
        g = require_genus(genus)
        xi0 = require_rational(xi0, "xi0")
        xi = tuple(require_rational(x, "xi weight") for x in xi)
        delta_i = tuple(require_rational(x, "delta_i weight") for x in delta_i)
        if len(xi) > (g - 1) // 2:
            raise ValueError(
                f"at most {(g - 1) // 2} subtype weights for genus {g}"
            )
        if len(delta_i) > g // 2:
            raise ValueError(
                f"at most {g // 2} separating-type weights for genus {g}"
            )
        # missing trailing weights count as zero
        xi += (Fraction(0),) * ((g - 1) // 2 - len(xi))
        delta_i += (Fraction(0),) * (g // 2 - len(delta_i))
        if xi0 < 0 or any(x < 0 for x in xi + delta_i):
            raise ValueError("counts must be nonnegative")
        _set(self, "genus", genus)
        _set(self, "xi0", xi0)
        _set(self, "xi", xi)
        _set(self, "delta_i", delta_i)


def d_from_counts(counts):
    """d = g xi0 + sum_j 2(j+1)(g-j) xi_j + sum_i 4i(g-i) delta_i."""
    g = counts.genus
    terms = [(g, counts.xi0)]
    terms += [(2 * (j + 1) * (g - j), x) for j, x in enumerate(counts.xi, start=1)]
    terms += [(4 * i * (g - i), x) for i, x in enumerate(counts.delta_i, start=1)]
    # *list, not *generator: a resized argument tuple stays on CPython's free list
    den = math.lcm(*[x.denominator for _, x in terms])
    return Fraction(sum(c * x.numerator * (den // x.denominator) for c, x in terms), den)


def chi_nonarch(g, d, eps, delta):
    """chi = (3d - (2g+1)(eps + delta)) / (2g - 2), exact."""
    require_genus(g)
    d, eps = require_rational(d, "d"), require_rational(eps, "eps")
    delta = require_rational(delta, "delta")
    den = math.lcm(d.denominator, eps.denominator, delta.denominator)
    num = 3 * d.numerator * (den // d.denominator) - (2 * g + 1) * (
        eps.numerator * (den // eps.denominator)
        + delta.numerator * (den // delta.denominator)
    )
    return Fraction(num, (2 * g - 2) * den)


def yamaki_bound(counts):
    """Effective lower bound for chi in terms of node counts (genus >= 3).

    Two displayed coefficient families: one for g >= 5 and one for
    g in {3, 4}; the xi0 coefficient (2g-5)/(24g) is shared.
    """
    g = counts.genus
    if g < 3:
        raise ValueError("bound not stated for g=2")
    total = Fraction(2 * g - 5, 24 * g) * counts.xi0
    for j, x in enumerate(counts.xi, start=1):
        if g >= 5:
            coeff = Fraction(3 * j * (g - 1 - j) - g - 2, 3 * g)
        else:
            coeff = Fraction(2 * j * (g - 1 - j) - 1, 2 * g)
        total += coeff * x
    for i, x in enumerate(counts.delta_i, start=1):
        total += Fraction(2 * i * (g - i), g) * x
    return total


def chi_arch(g, log_norm_delta_g, delta_faltings):
    """Archimedean chi from user-supplied log||Delta_g|| and Faltings delta.

    Pure arithmetic plumbing; computing the inputs is out of scope.
    """
    require_genus(g)
    n = math.comb(2 * g, g + 1)
    return (
        -(8 * g * (2 * g + 1)) / (2 * g - 2) * math.log(2 * math.pi)
        - 3 * g / ((2 * g - 2) * n) * log_norm_delta_g
        - (2 * g + 1) / (2 * g - 2) * delta_faltings
    )


def chi_from_pairings(g, log_two, pairing_sum):
    """chi = -2g (log|2|_v + sum_{k != i} (w_i, w_k)_a).

    The caller supplies the pairing sum; the result must be independent of
    the anchor index i when the supplied pairings are consistent.
    """
    return -2 * g * (log_two + pairing_sum)


#: genus-2 fiber types: the vertex genera and the edges, as (u, v, parameter
#: index), of the reduction graph that ``genus2_graph`` builds
_GENUS2_SHAPES = {
    "I": ({"v": 2}, ()),
    "II": ({"v1": 1, "v2": 1}, (("v1", "v2", 0),)),
    "III": ({"v": 1}, (("v", "v", 0),)),
    "IV": ({"v1": 1, "v2": 0}, (("v1", "v2", 0), ("v2", "v2", 1))),
    "V": ({"v": 0}, (("v", "v", 0), ("v", "v", 1))),
    "VI": ({"v1": 1, "v2": 0, "v3": 0}, (("v1", "v2", 0), ("v2", "v3", 1), ("v2", "v3", 2))),
    "VII": ({"v1": 0, "v2": 0}, (("v1", "v2", 0), ("v1", "v2", 1), ("v1", "v2", 2))),
}

#: genus-2 fiber types and their parameter arities, one per edge
GENUS2_ARITY = {t: len(edges) for t, (_, edges) in _GENUS2_SHAPES.items()}


class Genus2Row(namedtuple("Genus2Row", "d_half delta eps chi")):
    __slots__ = ()


def _genus2_params(fiber_type, params):
    """Check the type, the arity and positivity; return the params as
    Fractions."""
    if fiber_type not in GENUS2_ARITY:
        raise ValueError(f"unknown genus-2 type: {fiber_type}")
    params = tuple(require_rational(x, "thickness parameter") for x in params)
    if len(params) != GENUS2_ARITY[fiber_type]:
        raise ValueError(
            f"type {fiber_type} takes {GENUS2_ARITY[fiber_type]} parameters, "
            f"got {len(params)}"
        )
    if any(x <= 0 for x in params):
        raise ValueError("thickness parameters must be positive")
    return params


def genus2_row(fiber_type, params=()):
    """Closed-form (d/2, delta, epsilon, chi) for a genus-2 fiber type."""
    params = _genus2_params(fiber_type, params)
    zero = Fraction(0)
    if fiber_type == "I":
        return Genus2Row(zero, zero, zero, zero)
    if fiber_type == "II":
        (a,) = params
        return Genus2Row(2 * a, a, a, a)
    if fiber_type == "III":
        (a,) = params
        return Genus2Row(a, a, a / 6, a / 12)
    if fiber_type == "IV":
        a, b = params
        return Genus2Row(2 * a + b, a + b, a + b / 6, a + b / 12)
    if fiber_type == "V":
        a, b = params
        return Genus2Row(a + b, a + b, (a + b) / 6, (a + b) / 12)
    if fiber_type == "VI":
        a, b, c = params
        return Genus2Row(
            2 * a + b + c, a + b + c, a + (b + c) / 6, a + (b + c) / 12
        )
    a, b, c = params  # VII: theta graph
    wheel = a * b * c / (a * b + b * c + c * a)
    return Genus2Row(
        a + b + c,
        a + b + c,
        (a + b + c) / 6 + wheel / 6,
        (a + b + c) / 12 - 5 * wheel / 12,
    )


def genus2_graph(fiber_type, params=()):
    """Reduction graph realizing a genus-2 fiber type.

    I: genus-2 point; II(a): segment with genus-1 endpoints; III(a): loop at
    a genus-1 vertex; IV(a, b): genus-1 vertex joined to a vertex with a
    loop; V(a, b): two loops at one vertex; VI(a, b, c): genus-1 vertex
    joined to a two-edge banana; VII(a, b, c): theta graph.
    """
    from .metgraph import MetrizedGraph

    params = _genus2_params(fiber_type, params)
    genus, edges = _GENUS2_SHAPES[fiber_type]
    return MetrizedGraph(genus, [(u, v, params[i]) for u, v, i in edges])


def node_counts_from_graph(graph):
    """Classify edges of a reduction graph into thickness-weighted counts.

    Bridges split the graph and are binned by the genus of the smaller side,
    both read off one ``MetrizedGraph.bridge_search``.
    Non-separating edges default to xi0: whether such a node is fixed by the
    hyperelliptic involution is not graph data, so for genus >= 3 a warning
    is attached (for genus 2 there are no subtypes and xi0 is forced).
    Returns (NodeCounts, warnings).
    """
    g = require_genus(graph.total_genus)
    _, sides = graph.bridge_search()
    # lengths summed as integers over the lcm of their denominators
    # *list, not *generator: a resized argument tuple stays on CPython's free list
    den = math.lcm(*[e.length.denominator for e in graph.edges])
    xi0 = 0
    delta_i = [0] * (g // 2)
    warnings = []
    for e in graph.edges:
        length = e.length.numerator * (den // e.length.denominator)
        side = sides.get(e.eid)
        if side is None:
            xi0 += length
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
                delta_i[i - 1] += length
    counts = NodeCounts(
        g,
        Fraction(xi0, den),
        (Fraction(0),) * ((g - 1) // 2),
        tuple(Fraction(x, den) for x in delta_i),
    )
    return counts, warnings


class PlaceReport(_Frozen):
    """Invariants (d, eps, delta, phi, chi) of one place, in nu units.

    ``log_nv`` is an ``int`` or a ``float``, finite as a float, and positive;
    d, eps, delta, phi and chi are each an ``int`` or a ``Fraction``.
    ``warnings``, a tuple of strings, is outside ``==``, ``hash`` and
    ``repr``: it says how d was counted, it is not a value of the place.
    """

    _fields = ("label", "genus", "log_nv", "d", "eps", "delta", "phi", "chi")

    def __init__(self, label, genus, log_nv, d, eps, delta, phi, chi, warnings=()):
        # a bool's type is not int; abs(10**400) <= max is False (isfinite overflows)
        if type(log_nv) not in (int, float) or not abs(log_nv) <= sys.float_info.max:
            raise ValueError(f"logNv is not a finite int or float: {log_nv!r}")
        if log_nv <= 0:
            raise ValueError("logNv must be positive")
        phi, chi = require_rational(phi, "phi"), require_rational(chi, "chi")
        expected = chi_nonarch(genus, d, eps, delta)
        if expected != chi:
            raise ValueError(
                f"place {label}: chi = {chi} inconsistent with "
                f"(3d - (2g+1)(eps+delta))/(2g-2) = {expected}"
            )
        _set(self, "label", label)
        _set(self, "genus", genus)
        _set(self, "log_nv", log_nv)
        _set(self, "d", d)
        _set(self, "eps", eps)
        _set(self, "delta", delta)
        _set(self, "phi", phi)
        _set(self, "chi", chi)
        _set(self, "warnings", tuple(warnings))


def aggregate_global(places):
    """(omega, omega)_a = (2g-2)/(2g+1) * sum_v chi_v log Nv."""
    places = list(places)
    if not places:
        return 0.0
    genera = {p.genus for p in places}
    if len(genera) > 1:
        raise ValueError("places must share a common genus")
    g = genera.pop()
    return (
        (2 * g - 2)
        / (2 * g + 1)
        * sum(float(p.chi) * p.log_nv for p in places)
    )


class NoetherReport(
    namedtuple("NoetherReport", "residual_degree residual_noether residual_aggregate")
):
    """Residuals of the global degree/Noether identities.

    residual_degree: (8g+4) deg_lambda - sum d;
    residual_noether: 12 deg_lambda - omega_sq - sum delta;
    residual_aggregate: (omega_sq - sum eps) minus the chi-aggregation
    formula, which vanishes whenever the first two residuals do.
    """

    __slots__ = ()

    @property
    def consistent(self):
        return not any(
            (self.residual_degree, self.residual_noether, self.residual_aggregate)
        )


def noether_consistency(g, deg_lambda, omega_sq, sum_d, sum_delta, sum_eps):
    """Check the global identities on logNv-unit sums (diagnostic)."""
    r1 = (8 * g + 4) * deg_lambda - sum_d
    r2 = 12 * deg_lambda - omega_sq - sum_delta
    omega_adm = omega_sq - sum_eps
    chi_sum = (3 * sum_d - (2 * g + 1) * (sum_eps + sum_delta)) / (2 * g + 1)
    return NoetherReport(r1, r2, omega_adm - chi_sum)


def place_report_from_graph(label, graph, log_nv=1.0):
    """Assemble a PlaceReport from a reduction graph: d from
    ``node_counts_from_graph``, whose warnings the report keeps, and eps,
    phi and delta from ``metgraph``.  The one code path from a graph to
    its place invariants."""
    from . import metgraph

    counts, warnings = node_counts_from_graph(graph)
    d = d_from_counts(counts)
    eps, ph = metgraph.epsilon_phi(graph)
    dlt = metgraph.delta(graph)
    g = graph.total_genus
    return PlaceReport(
        label=label,
        genus=g,
        log_nv=log_nv,
        d=d,
        eps=eps,
        delta=dlt,
        phi=ph,
        chi=chi_nonarch(g, d, eps, dlt),
        warnings=warnings,
    )
