"""The public names of ``hypinv``, frozen: a change that drops one says why
in CHANGES.md (ROADMAP aim 2)."""

import hypinv

PUBLIC = [
    "INF",
    "GENUS2_ARITY",
    "SUITES",
    "ClusterTree",
    "Genus2Row",
    "Measure",
    "MetrizedGraph",
    "NodeCounts",
    "NormalFormReport",
    "PlaceReport",
    "RootConfig",
    "admissible_measure",
    "aggregate_global",
    "build_tree",
    "canonical_divisor",
    "canonical_measure",
    "check_normal_form",
    "chi_from_pairings",
    "chi_nonarch",
    "cross_ratio",
    "d_from_counts",
    "delta",
    "epsilon",
    "epsilon_phi",
    "format_rat",
    "genus2_graph",
    "genus2_row",
    "green",
    "green_diagonal",
    "is_prime",
    "node_counts_from_graph",
    "normalize_finite",
    "pairing_combination",
    "pairing_cross_ratio",
    "pairing_difference",
    "parse_rat",
    "phi",
    "place_report_from_graph",
    "resistance",
    "run_suite",
    "scale",
    "subdivide",
    "sym_discriminant",
    "symroot_pow",
    "symroot_val",
    "val",
    "verify_admissible",
    "yamaki_bound",
]


def test_public_names_are_frozen():
    assert hypinv.__all__ == PUBLIC
    assert all(hasattr(hypinv, name) for name in PUBLIC)
