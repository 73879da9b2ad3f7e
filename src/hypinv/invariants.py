"""Scalar invariant algebra: d, chi, lower bounds, the genus-2 table, and
adelic aggregation.

All node counts are thickness-weighted rationals (unweighted integer counting
is the special case of unit thicknesses).  Non-archimedean quantities stay
exact; only the archimedean plumbing and the logNv-scaled aggregation return
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class NodeCounts:
    """Thickness-weighted singular-point counts of a semistable fiber.

    xi0: non-separating nodes fixed by the hyperelliptic involution;
    xi[j-1]: weight of node pairs of subtype j, j = 1..floor((g-1)/2);
    delta_i[i-1]: weight of separating nodes of type i, i = 1..floor(g/2).
    """

    genus: int
    xi0: Fraction = Fraction(0)
    xi: tuple = ()
    delta_i: tuple = ()

    def __post_init__(self):
        g = self.genus
        if g < 2:
            raise ValueError("genus must be at least 2")
        object.__setattr__(self, "xi0", Fraction(self.xi0))
        xi = tuple(Fraction(x) for x in self.xi)
        delta_i = tuple(Fraction(x) for x in self.delta_i)
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
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "delta_i", delta_i)
        if self.xi0 < 0 or any(x < 0 for x in self.xi + self.delta_i):
            raise ValueError("counts must be nonnegative")


def d_from_counts(counts):
    """d = g xi0 + sum_j 2(j+1)(g-j) xi_j + sum_i 4i(g-i) delta_i."""
    g = counts.genus
    total = g * counts.xi0
    for j, x in enumerate(counts.xi, start=1):
        total += 2 * (j + 1) * (g - j) * x
    for i, x in enumerate(counts.delta_i, start=1):
        total += 4 * i * (g - i) * x
    return total


def chi_nonarch(g, d, eps, delta):
    """chi = (3d - (2g+1)(eps + delta)) / (2g - 2), exact."""
    if g < 2:
        raise ValueError("genus must be at least 2")
    return (3 * Fraction(d) - (2 * g + 1) * (Fraction(eps) + Fraction(delta))) / (
        2 * g - 2
    )


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
    if g < 2:
        raise ValueError("genus must be at least 2")
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


#: genus-2 fiber types and their parameter arities
GENUS2_ARITY = {"I": 0, "II": 1, "III": 1, "IV": 2, "V": 2, "VI": 3, "VII": 3}


@dataclass(frozen=True)
class Genus2Row:
    d_half: Fraction
    delta: Fraction
    eps: Fraction
    chi: Fraction


def _genus2_params(fiber_type, params):
    """Check the type, the arity and positivity; return the params as
    Fractions."""
    if fiber_type not in GENUS2_ARITY:
        raise ValueError(f"unknown genus-2 type: {fiber_type}")
    params = tuple(Fraction(x) for x in params)
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
    if fiber_type == "I":
        return MetrizedGraph({"v": 2}, [])
    if fiber_type == "II":
        (a,) = params
        return MetrizedGraph({"v1": 1, "v2": 1}, [("v1", "v2", a)])
    if fiber_type == "III":
        (a,) = params
        return MetrizedGraph({"v": 1}, [("v", "v", a)])
    if fiber_type == "IV":
        a, b = params
        return MetrizedGraph(
            {"v1": 1, "v2": 0}, [("v1", "v2", a), ("v2", "v2", b)]
        )
    if fiber_type == "V":
        a, b = params
        return MetrizedGraph({"v": 0}, [("v", "v", a), ("v", "v", b)])
    if fiber_type == "VI":
        a, b, c = params
        return MetrizedGraph(
            {"v1": 1, "v2": 0, "v3": 0},
            [("v1", "v2", a), ("v2", "v3", b), ("v2", "v3", c)],
        )
    a, b, c = params  # VII
    return MetrizedGraph(
        {"v1": 0, "v2": 0},
        [("v1", "v2", a), ("v1", "v2", b), ("v1", "v2", c)],
    )


def node_counts_from_graph(graph):
    """Classify edges of a reduction graph into thickness-weighted counts.

    Bridges split the graph and are binned by the genus of the smaller side.
    Non-separating edges default to xi0: whether such a node is fixed by the
    hyperelliptic involution is not graph data, so for genus >= 3 a warning
    is attached (for genus 2 there are no subtypes and xi0 is forced).
    Returns (NodeCounts, warnings).
    """
    g = graph.total_genus
    if g < 2:
        raise ValueError("genus too small")
    xi0 = Fraction(0)
    delta_i = [Fraction(0)] * (g // 2)
    warnings = []
    for e in graph.edges:
        side = _bridge_side_genus(graph, e)
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


def _bridge_side_genus(graph, edge):
    # total genus of the component containing edge.u when `edge` is removed;
    # None if the edge is non-separating
    reached, eids = graph.reach(edge.u, skip=edge.eid)
    if edge.v in reached:
        return None
    b1 = len(eids) - len(reached) + 1
    return b1 + sum(graph.genus[v] for v in reached)


@dataclass(frozen=True)
class PlaceReport:
    """Invariants (d, eps, delta, phi, chi) of one place, in nu units."""

    label: str
    genus: int
    log_nv: float
    d: Fraction
    eps: Fraction
    delta: Fraction
    phi: Fraction
    chi: Fraction

    def __post_init__(self):
        if self.log_nv <= 0:
            raise ValueError("logNv must be positive")
        expected = chi_nonarch(self.genus, self.d, self.eps, self.delta)
        if expected != self.chi:
            raise ValueError(
                f"place {self.label}: chi = {self.chi} inconsistent with "
                f"(3d - (2g+1)(eps+delta))/(2g-2) = {expected}"
            )


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


@dataclass(frozen=True)
class NoetherReport:
    """Residuals of the global degree/Noether identities.

    residual_degree: (8g+4) deg_lambda - sum d;
    residual_noether: 12 deg_lambda - omega_sq - sum delta;
    residual_aggregate: (omega_sq - sum eps) minus the chi-aggregation
    formula, which vanishes whenever the first two residuals do.
    """

    residual_degree: object
    residual_noether: object
    residual_aggregate: object

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
    """Assemble a PlaceReport from a reduction graph (d via edge counts)."""
    from . import metgraph

    counts, _ = node_counts_from_graph(graph)
    d = d_from_counts(counts)
    eps, ph = metgraph.epsilon_phi(graph)
    dlt = metgraph.delta(graph)
    return PlaceReport(
        label=label,
        genus=graph.total_genus,
        log_nv=log_nv,
        d=d,
        eps=eps,
        delta=dlt,
        phi=ph,
        chi=chi_nonarch(graph.total_genus, d, eps, dlt),
    )
