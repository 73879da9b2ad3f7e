"""Batch JSON front-end.

Subcommands: symroots, cluster, graph, genus2, invariants, global, verify.
All exact values are emitted as rational strings "n/d"; real (log-scaled)
companions are decimal strings and never replace the exact values.  Exit
codes: 0 success, 1 input/validation error, 2 internal failure, 3 a verify
suite ran and one of its checks failed (its document is printed as on 0).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

# each handler imports the layers it runs, so a subcommand loads no other
from .rational import format_rat, parse_int, parse_point, parse_rat
from .rational import require_int, require_keys


class _Parser(argparse.ArgumentParser):
    # argument errors are validation errors (exit 1), not internal failures
    def error(self, message):
        raise ValueError(message)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _load_curve(args):
    """``(cfg, prime)`` from ``--curve``, a ``docs/schemas/curve.schema.json``
    document, and ``--prime``, which overrides the document's prime."""
    from .symroots import RootConfig, normalize_finite

    doc = _load_json(args.curve)
    require_keys(doc, ("genus", "roots"), "curve", ("note",), ("prime", "note"))
    roots = doc["roots"]
    if not isinstance(roots, list) or not all(isinstance(r, str) for r in roots):
        raise ValueError(f"curve roots must be a list of strings: {roots!r}")
    cfg = RootConfig(
        require_int(doc["genus"], "curve genus"), tuple(parse_point(r) for r in roots)
    )
    prime = doc.get("prime")
    # checked even where --prime overrides it, as the schema refuses it there too
    if "prime" in doc and require_int(prime, "curve prime") < 2:
        raise ValueError(f"curve prime must be at least 2: {prime}")
    if args.prime is not None:
        prime = args.prime
    return normalize_finite(cfg), prime


def _triples(cfg, args):
    if args.triple:
        from .symroots import _check_triple

        triple = tuple(parse_int(x) for x in args.triple.split(","))
        if len(triple) != 3:
            raise ValueError(f"expected 3 comma-separated indices: {args.triple!r}")
        _check_triple(cfg, *triple)
        return [triple]
    if args.all_triples:
        return list(itertools.permutations(range(len(cfg.roots)), 3))
    raise ValueError("one of --triple or --all-triples is required")


def _curve_fields(cfg, prime):
    """The head of a symroots or cluster document: the genus, the prime if
    any, and the substitution if ``normalize_finite`` moved a root at inf."""
    out = {"genus": cfg.genus}
    if prime is not None:
        out["prime"] = prime
    if cfg.note:
        out["substitution"] = cfg.note
    return out


def _triple_record(cfg, prime, i, j, k):
    from . import symroots

    rec = {"l_pow_2g": format_rat(symroots.symroot_pow(cfg, i, j, k))}
    if prime is not None:
        half = symroots.pairing_difference(cfg, prime, i, j, k)
        rec["nu_l"] = format_rat(symroots.symroot_val(cfg, prime, i, j, k))
        rec["pairing_nu"] = format_rat(half)
        rec["pairing_log"] = str(float(half) * math.log(prime))
    return rec


def _cmd_symroots(args):
    cfg, prime = _load_curve(args)
    triples = _triples(cfg, args)
    out = _curve_fields(cfg, prime)
    if args.triple:
        out.update(_triple_record(cfg, prime, *triples[0]))
    else:
        out["results"] = {
            f"({i},{j},{k})": _triple_record(cfg, prime, i, j, k)
            for i, j, k in triples
        }
    return out


def _cmd_cluster(args):
    from . import clustertree, symroots

    cfg, prime = _load_curve(args)
    if prime is None:
        raise ValueError("cluster requires --prime (or a prime in the curve JSON)")
    out = _curve_fields(cfg, prime)
    # a malformed --triple exits 1 whether or not the curve is in normal form
    triples = _triples(cfg, args) if args.triple or args.all_triples else None
    try:
        tree = clustertree.build_tree(cfg, prime)
    except clustertree.NormalFormError as err:
        out["checks"] = list(err.report.violations)
        return out
    out["checks"] = ["ok"]
    out["tree"] = {
        "nodes": [
            {
                "level": n,
                "members": sorted(node.members),
                "representative": format_rat(node.representative),
            }
            for n, alive in tree.levels().items()
            for node in alive
        ]
    }
    g = cfg.genus
    if triples is not None:
        pairings = out["pairings"] = {}
        for i, j, k in triples:
            lhs = clustertree.pairing_from_tree(tree, i, j, k)
            rhs = 2 * g * (g - 1) * symroots.symroot_val(cfg, prime, i, j, k)
            pairings[f"({i},{j},{k})"] = {
                "combination": format_rat(lhs),
                "expected_from_symroots": format_rat(rhs),
                "match": lhs == rhs,
            }
    return out


def _place_fields(rep):
    """The fields that ``graph eval`` and ``genus2 --graph-check`` print
    from a ``PlaceReport``."""
    return {
        "epsilon": format_rat(rep.eps),
        "phi": format_rat(rep.phi),
        "delta": format_rat(rep.delta),
        "warnings": rep.warnings,
    }


def _cmd_graph(args):
    from . import invariants, metgraph

    graph = metgraph.MetrizedGraph.from_json(_load_json(args.infile))
    rep = invariants.place_report_from_graph(args.infile, graph)
    return {**_place_fields(rep), "genus": str(rep.genus)}


def _cmd_genus2(args):
    from . import invariants

    params = (
        tuple(parse_rat(x) for x in args.params.split(",")) if args.params else ()
    )
    row = invariants.genus2_row(args.type, params)
    out = {
        "type": args.type,
        "params": [format_rat(x) for x in params],
        "d_half": format_rat(row.d_half),
        "delta": format_rat(row.delta),
        "epsilon": format_rat(row.eps),
        "chi": format_rat(row.chi),
    }
    if args.graph_check:
        graph = invariants.genus2_graph(args.type, params)
        rep = invariants.place_report_from_graph(args.type, graph)
        out["graph_check"] = {
            **_place_fields(rep),
            "d_half": format_rat(rep.d / 2),
            "matches_table": (rep.eps, rep.phi, rep.delta, rep.d)
            == (row.eps, row.chi, row.delta, 2 * row.d_half),
        }
    return out


def _cmd_invariants(args):
    from . import invariants

    chi = invariants.chi_nonarch(
        args.genus, parse_rat(args.d), parse_rat(args.eps), parse_rat(args.delta)
    )
    return {"chi": format_rat(chi)}


def _cmd_global(args):
    from .invariants import PlaceReport, aggregate_global

    doc = _load_json(args.places)
    if not isinstance(doc, list):
        raise ValueError("places JSON must be a list of place records")
    places = []
    values = ("d", "eps", "delta", "phi", "chi")
    required, strings = ("genus", "logNv") + values, ("label",) + values
    for rec in doc:
        require_keys(rec, required, "place record", strings, ("label",))
        label = rec.get("label", str(len(places)))
        places.append(
            PlaceReport(
                label=label,
                genus=require_int(rec["genus"], f"genus of place {label!r}"),
                log_nv=rec["logNv"],
                d=parse_rat(rec["d"]),
                eps=parse_rat(rec["eps"]),
                delta=parse_rat(rec["delta"]),
                phi=parse_rat(rec["phi"]),
                chi=parse_rat(rec["chi"]),
            )
        )
    return {
        "places": len(places),
        "omega_omega_adm": str(aggregate_global(places)),
    }


def _cmd_verify(args):
    from . import verify

    return verify.run_suite(args.suite, args.seed)


def build_parser():
    parser = _Parser(prog="hypinv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, func, help, curve=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write the JSON document to a file")
        if curve:
            p.add_argument("--curve", required=True)
            p.add_argument("--prime", type=parse_int)
            mode = p.add_mutually_exclusive_group()
            mode.add_argument("--triple")
            mode.add_argument("--all-triples", action="store_true")
        return p

    add_parser("symroots", _cmd_symroots, "symmetric roots and pairings", curve=True)
    add_parser("cluster", _cmd_cluster, "residue-class tree cross-check", curve=True)

    p = add_parser("graph", _cmd_graph, "metrized-graph invariants")
    p.add_argument("action", choices=["eval"])
    p.add_argument("--in", dest="infile", required=True)

    p = add_parser("genus2", _cmd_genus2, "genus-2 closed-form table")
    p.add_argument("--type", required=True)
    p.add_argument("--params", default="")
    p.add_argument("--graph-check", action="store_true")

    p = add_parser("invariants", _cmd_invariants, "scalar invariant algebra")
    p.add_argument("action", choices=["chi"])
    p.add_argument("--d", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--genus", type=parse_int, required=True)

    p = add_parser("global", _cmd_global, "adelic aggregation over places")
    p.add_argument("--places", required=True)

    p = add_parser("verify", _cmd_verify, "built-in verification suites")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=parse_int, default=0)

    return parser


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc}") from exc


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        doc = args.func(args)
        _emit(doc, args.out)
    except ValueError as exc:
        _emit({"error": "validation", "detail": str(exc)}, None)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _emit({"error": "internal", "detail": f"{type(exc).__name__}: {exc}"}, None)
        return 2
    return 3 if args.func is _cmd_verify and doc["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
