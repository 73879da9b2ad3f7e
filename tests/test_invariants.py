import math
import re
from fractions import Fraction

import pytest

from hypinv import metgraph
from hypinv.invariants import (
    GENUS2_ARITY,
    NodeCounts,
    PlaceReport,
    aggregate_global,
    chi_from_pairings,
    chi_nonarch,
    d_from_counts,
    genus2_graph,
    genus2_row,
    node_counts_from_graph,
    place_report_from_graph,
    yamaki_bound,
)

F = Fraction


def test_node_counts_validation():
    with pytest.raises(ValueError):
        NodeCounts(1)
    with pytest.raises(ValueError):
        NodeCounts(3, xi=(1, 2))  # genus 3 has one subtype
    with pytest.raises(ValueError):
        NodeCounts(2, delta_i=(-1,))
    with pytest.raises(ValueError, match="at most 1 separating-type weights for genus 3"):
        NodeCounts(3, delta_i=(1, 1))


def test_d_from_counts():
    assert d_from_counts(NodeCounts(2, xi0=1)) == 2
    assert d_from_counts(NodeCounts(2, delta_i=(1,))) == 4
    # g = 3: xi_1 coefficient 2*2*2 = 8, delta_1 coefficient 8, delta_... none
    assert d_from_counts(NodeCounts(3, xi=(1,), delta_i=(0,))) == 8
    assert d_from_counts(NodeCounts(4, delta_i=(0, 1))) == 16


def test_chi_nonarch():
    assert chi_nonarch(2, 6, F(5, 9), 3) == F(1, 9)
    assert chi_nonarch(2, 0, 0, 0) == 0
    with pytest.raises(ValueError):
        chi_nonarch(1, 0, 0, 0)


def test_yamaki_values():
    assert yamaki_bound(NodeCounts(5, xi0=1, xi=(0, 0), delta_i=(0, 0))) == F(1, 24)
    assert yamaki_bound(NodeCounts(3, xi=(0,), delta_i=(1,))) == F(4, 3)
    # g = 3 uses the small-genus middle coefficient (2j(g-1-j)-1)/(2g)
    assert yamaki_bound(NodeCounts(3, xi=(1,), delta_i=(0,))) == F(1, 6)
    # g = 5 uses (3j(g-1-j)-g-2)/(3g)
    assert yamaki_bound(NodeCounts(5, xi=(1, 0), delta_i=(0, 0))) == F(2, 15)
    with pytest.raises(ValueError):
        yamaki_bound(NodeCounts(2))


def test_chi_from_pairings():
    assert chi_from_pairings(2, F(0), F(3, 2)) == -6
    assert chi_from_pairings(3, F(1), F(-1)) == 0


def test_genus2_rows():
    assert genus2_row("I") == genus2_row("I", ())
    row = genus2_row("VII", (1, 1, 1))
    assert (row.d_half, row.delta, row.eps, row.chi) == (3, 3, F(5, 9), F(1, 9))
    row = genus2_row("IV", (2, 3))
    assert (row.d_half, row.delta, row.eps, row.chi) == (7, 5, F(5, 2), F(9, 4))
    row = genus2_row("III", (1,))
    assert (row.eps, row.chi) == (F(1, 6), F(1, 12))


def test_genus2_row_errors():
    for build in (genus2_row, genus2_graph):
        with pytest.raises(ValueError, match="unknown genus-2 type"):
            build("VIII")
        with pytest.raises(ValueError, match="takes 1 parameters, got 2"):
            build("II", (1, 2))
        with pytest.raises(ValueError, match="must be positive"):
            build("II", (-1,))
        with pytest.raises(ValueError, match="must be positive"):
            build("VII", (1, 0, 2))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: chi_nonarch(2, 0.1, 0, 0), "d is not an int or a Fraction: 0.1"),
        (lambda: chi_nonarch(2, 0, "1/3", 0), "eps is not an int or a Fraction: '1/3'"),
        (lambda: chi_nonarch(2, 0, 0, True), "delta is not an int or a Fraction: True"),
        (lambda: chi_nonarch(2.0, 0, 0, 0), "genus is not an integer: 2.0"),
        (lambda: NodeCounts(2, "1/2"), "xi0 is not an int or a Fraction: '1/2'"),
        (lambda: NodeCounts(3, 0, (0.5,)), "xi weight is not an int or a Fraction: 0.5"),
        (lambda: NodeCounts(2, 0, (), (True,)), "delta_i weight is not an int or a Fraction"),
        (lambda: NodeCounts(2.0, 1), "genus is not an integer: 2.0"),
        (lambda: NodeCounts(True), "genus is not an integer: True"),
        (lambda: genus2_row("II", (True,)), "thickness parameter is not an int or a Fraction"),
        (lambda: genus2_row("III", (0.5,)), "thickness parameter is not an int or a Fraction"),
        (lambda: genus2_graph("VII", (1, "2", 3)), "thickness parameter is not an int or a Fraction"),
        (lambda: chi_from_pairings(2, 0.5, 1), "log_two is not an int or a Fraction: 0.5"),
        (lambda: chi_from_pairings(2, 0, 0.5), "pairing_sum is not an int or a Fraction: 0.5"),
        (lambda: chi_from_pairings(2, "0", "1"), "log_two is not an int or a Fraction: '0'"),
        (lambda: chi_from_pairings(True, F(0), F(1)), "genus is not an integer: True"),
        (lambda: chi_from_pairings(1, F(0), F(1)), "genus must be at least 2"),
    ],
    ids=[
        "chi_nonarch d", "chi_nonarch eps", "chi_nonarch delta", "chi_nonarch genus",
        "NodeCounts xi0", "NodeCounts xi", "NodeCounts delta_i", "NodeCounts float genus",
        "NodeCounts bool genus", "genus2_row bool", "genus2_row float", "genus2_graph str",
        "chi_from_pairings log_two", "chi_from_pairings pairing_sum",
        "chi_from_pairings str", "chi_from_pairings bool genus", "chi_from_pairings genus 1",
    ],
)
def test_scalar_layer_refuses_what_is_not_exact(call, message):
    # once coerced: chi_nonarch(2, 0.1, 0, 0) gave a fraction over 2**56,
    # genus2_row("II", (True,)) the II(1) row, and NodeCounts(2.0, 1) raised
    # TypeError from inside; chi_from_pairings(2, 0.5, 1) gave -6.0,
    # (True, 0, 1) read the genus as 1, and (2, "0", "1") gave ''
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


def test_scalar_layer_keeps_exact_arguments():
    half = F(1, 2)
    assert NodeCounts(2, half).xi0 is half
    assert NodeCounts(2, 1).xi0 == 1 and type(NodeCounts(2, 1).xi0) is F
    assert chi_nonarch(2, 6, F(5, 9), 3) == chi_nonarch(2, F(6), F(5, 9), F(3))
    assert type(chi_from_pairings(2, 0, 1)) is F  # once the int -4


def test_genus2_arity_is_pinned():
    # read off the shape table: the same types, order and arities as ever
    assert GENUS2_ARITY == {"I": 0, "II": 1, "III": 1, "IV": 2, "V": 2, "VI": 3, "VII": 3}
    assert list(GENUS2_ARITY) == ["I", "II", "III", "IV", "V", "VI", "VII"]


def test_genus2_graphs_have_genus_two():
    for fiber_type, arity in GENUS2_ARITY.items():
        graph = genus2_graph(fiber_type, (1,) * arity)
        assert graph.total_genus == 2


def test_chi_consistency_every_row():
    for fiber_type, arity in GENUS2_ARITY.items():
        row = genus2_row(fiber_type, (2,) * arity)
        assert chi_nonarch(2, 2 * row.d_half, row.eps, row.delta) == row.chi


def test_node_counts_from_graph():
    counts, warnings = node_counts_from_graph(genus2_graph("VII", (1, 2, 3)))
    assert counts.xi0 == 6 and counts.delta_i == (0,)
    assert not warnings
    counts, _ = node_counts_from_graph(genus2_graph("II", (5,)))
    assert counts.xi0 == 0 and counts.delta_i == (5,)
    counts, _ = node_counts_from_graph(genus2_graph("IV", (1, 2)))
    assert counts.xi0 == 2 and counts.delta_i == (1,)


def test_node_counts_match_table_d():
    for fiber_type, arity in GENUS2_ARITY.items():
        if fiber_type == "I":
            continue
        params = tuple(range(1, arity + 1))
        counts, _ = node_counts_from_graph(genus2_graph(fiber_type, params))
        assert d_from_counts(counts) == 2 * genus2_row(fiber_type, params).d_half


def test_place_report_validates_chi():
    with pytest.raises(ValueError):
        PlaceReport("p", 2, 1.0, F(6), F(5, 9), F(3), F(1, 9), F(1))
    rep = PlaceReport("p", 2, 1.0, F(6), F(5, 9), F(3), F(1, 9), F(1, 9))
    assert rep.chi == F(1, 9)
    with pytest.raises(ValueError):
        PlaceReport("p", 2, 0.0, F(0), F(0), F(0), F(0), F(0))


def test_aggregate_global():
    p1 = PlaceReport("3", 2, math.log(3), F(6), F(5, 9), F(3), F(1, 9), F(1, 9))
    p2 = PlaceReport("5", 2, math.log(5), F(2), F(1, 6), F(1), F(1, 12), F(1, 12))
    total = aggregate_global([p1, p2])
    expect = F(2, 5) * (F(1, 9) * math.log(3) + F(1, 12) * math.log(5))
    assert math.isclose(total, float(expect))
    assert aggregate_global([]) == 0.0
    bad = PlaceReport("7", 3, 1.0, F(0), F(0), F(0), F(0), F(0))
    with pytest.raises(ValueError):
        aggregate_global([p1, bad])


def test_place_report_from_graph():
    rep = place_report_from_graph("theta", genus2_graph("VII", (1, 1, 1)))
    assert (rep.d, rep.eps, rep.delta, rep.phi, rep.chi) == (
        6,
        F(5, 9),
        F(3),
        F(1, 9),
        F(1, 9),
    )
    assert rep.phi == rep.chi


def test_epsilon_matches_table_spot():
    graph = genus2_graph("VI", (1, 2, 3))
    row = genus2_row("VI", (1, 2, 3))
    eps, ph = metgraph.epsilon_phi(graph)
    assert eps == row.eps
    assert ph == row.chi
    assert metgraph.delta(graph) == row.delta
