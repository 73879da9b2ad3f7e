"""Place reports against the per-edge-search oracle.

``oracle_places`` classifies each edge by its own reachability search and
sums ``Fraction``s; the library runs one bridge search per graph and sums
integers over one denominator.  Both are exact, so counts, warnings and
every scalar of a place report must agree exactly.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given

import oracle_places as old
from hypinv import invariants, verify
from hypinv.invariants import NodeCounts
from test_metgraph import RANDOM
from test_metgraph_properties import PROPERTY, graphs

F = Fraction
GENUS2 = list(verify._genus2_sweep())


def report_values(graph):
    rep = invariants.place_report_from_graph("p", graph)
    return rep.d, rep.eps, rep.delta, rep.phi, rep.chi


def test_the_sweep_is_the_whole_genus2_table():
    assert len(GENUS2) == 79


@pytest.mark.parametrize("fiber_type, params", GENUS2)
def test_genus2_place_reports_match_the_oracle(fiber_type, params):
    graph = invariants.genus2_graph(fiber_type, params)
    assert report_values(graph) == old.place_values(graph)
    assert invariants.node_counts_from_graph(graph) == old.node_counts_from_graph(graph)


@pytest.mark.parametrize("graph", RANDOM)
def test_random_place_reports_match_the_oracle(graph):
    assert report_values(graph) == old.place_values(graph)


@PROPERTY
@given(graphs(max_vertices=8))
def test_node_counts_and_warnings_match_the_oracle(graph):
    counts, warnings = invariants.node_counts_from_graph(graph)
    assert (counts, warnings) == old.node_counts_from_graph(graph)
    assert invariants.d_from_counts(counts) == old.d_from_counts(counts)


def random_counts(rng):
    g = rng.randint(2, 8)

    def weight():
        return F(rng.randint(0, 9), rng.randint(1, 12))

    return NodeCounts(
        g,
        weight(),
        tuple(weight() for _ in range((g - 1) // 2)),
        tuple(weight() for _ in range(g // 2)),
    )


@pytest.mark.parametrize("seed", range(20))
def test_scalar_assembly_matches_the_oracle(seed):
    rng = random.Random(f"places-oracle:{seed}")
    counts = random_counts(rng)
    d = invariants.d_from_counts(counts)
    assert type(d) is Fraction and d == old.d_from_counts(counts)
    eps = F(rng.randint(-50, 50), rng.randint(1, 40))
    dlt = rng.choice((rng.randint(0, 9), F(rng.randint(0, 90), rng.randint(1, 30))))
    for g in (counts.genus, rng.randint(2, 30)):
        for args in ((g, d, eps, dlt), (g, str(d), 0, "1/3"), (g, 1, 2, 3)):
            assert invariants.chi_nonarch(*args) == old.chi_nonarch(*args)


@pytest.mark.parametrize(
    "args", [(1, 0, 0, 0), (2, "x", 0, 0), (2, 0, None, 0), (2, 0, 0, F(1, 2) + 1j)]
)
def test_chi_nonarch_errors_match_the_oracle(args):
    with pytest.raises(Exception) as want:
        old.chi_nonarch(*args)
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        invariants.chi_nonarch(*args)
