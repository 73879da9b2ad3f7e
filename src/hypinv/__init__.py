"""Exact non-archimedean invariants of semistable hyperelliptic curves.

Everything downstream of the branch points is computed in exact rational
arithmetic: symmetric roots and discriminants of a branch configuration,
intersection pairings read off the tree of proper clusters (one node per
cluster, its level the cluster's depth), the metrized-graph invariants
epsilon, phi, delta and chi of reduction graphs, and adelic aggregation
across places.
"""

#: home module -> the public names it defines; a layer is imported on first
#: access to one of its names (PEP 562), so ``import hypinv`` loads none.
_LAYERS = {
    "clustertree": "ClusterTree NormalFormReport build_tree check_normal_form "
    "pairing_combination",
    "invariants": "GENUS2_ARITY Genus2Row NodeCounts PlaceReport aggregate_global "
    "chi_from_pairings chi_nonarch d_from_counts genus2_graph genus2_row "
    "node_counts_from_graph place_report_from_graph yamaki_bound",
    "metgraph": "Measure MetrizedGraph admissible_measure canonical_divisor "
    "canonical_measure delta epsilon epsilon_phi green green_diagonal phi "
    "resistance scale subdivide verify_admissible",
    "rational": "INF format_rat is_prime parse_rat val",
    "symroots": "RootConfig cross_ratio pairing_cross_ratio pairing_difference "
    "sym_discriminant symroot_pow symroot_val",
    "verify": "SUITES run_suite",
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names.split()}

__version__ = "0.1.0"

#: the three constants first, then every other public name in sorted order
__all__ = ["INF", "GENUS2_ARITY", "SUITES"]
__all__ += sorted(_HOME.keys() - set(__all__))


def __getattr__(name):
    """``hypinv.X`` is ``X`` of its home module, read on every access."""
    layer = name if name in _LAYERS else _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{layer}")  # the import statement's path: -X importtime sees it
    module = globals()[layer]
    return module if layer == name else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
