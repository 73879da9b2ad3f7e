"""Scalar invariant algebra: d, chi, lower bounds, the genus-2 table, and
adelic aggregation.

All node counts are thickness-weighted rationals (unweighted integer counting
is the special case of unit thicknesses).  Every quantity stays exact; only
``aggregate_global``, the logNv-scaled sum over places, returns a float.
``chi_nonarch`` is the one statement of chi = (3d - (2g+1)(eps+delta))/(2g-2):
a ``PlaceReport`` derives its chi through it and takes no chi argument.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

from .rational import _fraction, _Record, _set, require_genus, require_rational


class NodeCounts(_Record):
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
        super().__init__(genus, xi0, xi, delta_i)


def d_from_counts(counts):
    """d = g xi0 + sum_j 2(j+1)(g-j) xi_j + sum_i 4i(g-i) delta_i."""
    xi, fields = counts.xi, (counts.xi0, *counts.xi, *counts.delta_i)
    # *list, not *generator: a resized argument tuple stays on CPython's free list
    den = math.lcm(*[x.denominator for x in fields])
    xi0, *rest = [x.numerator * (den // x.denominator) for x in fields]
    return _fraction(_d(counts.genus, xi0, rest[: len(xi)], rest[len(xi) :]), den)


def _d(g, xi0, xi, delta_i):
    """d times D, from the integer counts times D for one common D."""
    d = g * xi0 + sum(2 * (j + 1) * (g - j) * x for j, x in enumerate(xi, start=1))
    return d + sum(4 * i * (g - i) * x for i, x in enumerate(delta_i, start=1))


def chi_nonarch(g, d, eps, delta):
    """chi = (3d - (2g+1)(eps + delta)) / (2g - 2), exact: the numerators
    summed as integers over the lcm of the three denominators."""
    require_genus(g)
    d, eps = require_rational(d, "d"), require_rational(eps, "eps")
    delta = require_rational(delta, "delta")
    (dn, dd), (en, ed), (ln, ld) = (
        d.as_integer_ratio(), eps.as_integer_ratio(), delta.as_integer_ratio())
    den = math.lcm(dd, ed, ld)
    num = 3 * dn * (den // dd) - (2 * g + 1) * (en * (den // ed) + ln * (den // ld))
    return _fraction(num, (2 * g - 2) * den)


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


def chi_from_pairings(g, log_two, pairing_sum):
    """chi = -2g (log|2|_v + sum_{k != i} (w_i, w_k)_a), a ``Fraction``.

    The caller supplies the pairing sum; the result must be independent of
    the anchor index i when the supplied pairings are consistent.
    """
    require_genus(g)
    log_two = require_rational(log_two, "log_two")
    return -2 * g * (log_two + require_rational(pairing_sum, "pairing_sum"))


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


Genus2Row = namedtuple("Genus2Row", "d_half delta eps chi")


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
    both read off the graph's ``bridge_sides``, kept from the constructor's
    one ``bridge_search``.
    Non-separating edges default to xi0: whether such a node is fixed by the
    hyperelliptic involution is not graph data, so for genus >= 3 a warning
    is attached (for genus 2 there are no subtypes and xi0 is forced).
    Returns (NodeCounts, warnings): the one place a graph's NodeCounts is built.
    """
    from .metgraph import _length_ratio

    g = require_genus(graph.total_genus)
    den = _length_ratio(graph)[1]
    warnings, xi0, delta_i = _graph_counts(graph, g, den)
    return NodeCounts(g, _fraction(xi0, den), (), [_fraction(x, den) for x in delta_i]), warnings


def _graph_counts(graph, g, den):
    """The counts of ``node_counts_from_graph`` for the checked genus g and
    the lcm den of the edge-length denominators, as integers times den:
    (warnings, xi0, delta_i), with delta_i a list of g // 2 entries."""
    sides = graph.bridge_sides
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
    return warnings, xi0, delta_i


class PlaceReport(_Record):
    """Invariants (d, eps, delta, phi, chi) of one place, in nu units.

    ``log_nv`` is an ``int`` or a ``float`` in (0, ``sys.float_info.max``],
    kept as given (``hypinv global`` has no logNv rule of its own);
    d, eps, delta and phi are each an ``int`` or a ``Fraction``, stored as a
    ``Fraction``.  chi is not an argument: the report derives it,
    ``chi_nonarch(genus, d, eps, delta)``, as it is a function of the others.
    ``warnings``, a keyword-only tuple of strings, is outside ``==``,
    ``hash`` and ``repr``: it says how d was counted, it is not a value of
    the place.
    """

    _fields = ("label", "genus", "log_nv", "d", "eps", "delta", "phi", "chi")

    def __init__(self, label, genus, log_nv, d, eps, delta, phi, *, warnings=()):
        # a bool's type is not int; NaN and 10**400 fail the comparison
        if type(log_nv) not in (int, float) or not 0 < log_nv <= sys.float_info.max:
            raise ValueError(f"logNv of place {label!r} is not a positive float: {log_nv!r}")
        d, eps = require_rational(d, "d"), require_rational(eps, "eps")
        delta, phi = require_rational(delta, "delta"), require_rational(phi, "phi")
        chi = chi_nonarch(genus, d, eps, delta)
        super().__init__(label, genus, log_nv, d, eps, delta, phi, chi)
        _set(self, "warnings", tuple(warnings))  # outside _fields


def aggregate_global(places):
    """(omega, omega)_a = (2g-2)/(2g+1) * sum_v chi_v log Nv, as a float;
    ValueError when a term or the sum is not a finite float."""
    places = list(places)
    if not places:
        return 0.0
    genera = {p.genus for p in places}
    if len(genera) > 1:
        raise ValueError("places must share a common genus")
    g = genera.pop()
    try:
        total = sum(float(p.chi) * p.log_nv for p in places)
    except OverflowError:  # float(chi) of a chi beyond the float range
        total = math.inf
    if not math.isfinite(total):
        raise ValueError("sum of chi_v logNv is not a finite float")
    return (2 * g - 2) / (2 * g + 1) * total


def place_report_from_graph(label, graph, log_nv=1.0):
    """Assemble a PlaceReport from a reduction graph, the one code path from
    a graph to its place invariants: each integer core of d, eps, delta and
    phi runs once, on one lcm of the length denominators, the report derives
    chi from them, and it keeps the warnings of ``node_counts_from_graph``.
    It builds no ``NodeCounts``, whose checks cannot fail on
    ``_graph_counts``' output."""
    from . import metgraph

    g = require_genus(graph.total_genus)
    length = metgraph._length_ratio(graph)  # delta, the total length, as (num, den)
    warnings, xi0, delta_i = _graph_counts(graph, g, length[1])
    eps, ph = metgraph._epsilon_phi(graph, g, *length)
    return PlaceReport(
        label=label,
        genus=g,
        log_nv=log_nv,
        d=_fraction(_d(g, xi0, (), delta_i), length[1]),
        eps=_fraction(*eps),
        delta=_fraction(*length),
        phi=_fraction(*ph),
        warnings=warnings,
    )
