"""The ``cli-verify`` workload: sequential runs of ``python -m hypinv.cli``.

Untraced, each operation is one child process, started from the source tree
with ``PYTHONPATH=src`` and waited for before the next one starts.  Traced,
the same argument vectors go to ``hypinv.cli.main`` in-process, so that the
tracer sees the library calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import gen
import reference
from harness import Op, Workload

#: The verify suites run at this fixed seed, so that their cost does not
#: move with the benchmark seed.
SUITE_SEED = 7
SUITES = ("identities", "cluster-vs-symroots", "genus2-table", "phi-equals-chi", "subdivision")
GENUS2_TYPES = tuple(reference.GENUS2_ARITY)
PARAMS = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3))
#: (genus, prime) of the curve files, each run through `cluster` and `symroots`.
#: With the two family graphs they make a group of 12 similar commands
#: above the start-up-bound ones, so the tail (11th-largest op) lies inside
#: it and the median inside the start-up-bound group.
CURVES = ((3, 3), (3, 5), (3, 7), (3, 3), (3, 5))
GRAPH_TYPES = ("III", "IV", "V", "VI", "VII")
CHI_RUNS = 9
PLACE_FILES = 4
CHILD_TIMEOUT_S = 150


def _rat(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _write(env, name, doc):
    path = env.work / name
    path.write_text(json.dumps(doc))
    return str(path)


def _graph_doc(genus, edges):
    return {
        "vertices": [{"id": v, "genus": g} for v, g in genus.items()],
        "edges": [{"u": u, "v": v, "length": _rat(x)} for u, v, x in edges],
    }


def commands(seed, env):
    """[(kind, argv, data)]: writes the input files and lists the commands.

    The five suites are spread evenly through the list, so that the short
    commands sample the whole pass and not one stretch of it."""
    rng = gen.rng_for(seed, "cli-verify")
    cmds = []
    for t in GENUS2_TYPES:
        params = [rng.choice(PARAMS) for _ in range(reference.GENUS2_ARITY[t])]
        argv = ["genus2", "--type", t, "--graph-check"]
        if params:
            argv += ["--params", ",".join(_rat(x) for x in params)]
        cmds.append(("genus2", argv, {"row": (t, params)}))
    for t in GRAPH_TYPES:
        params = [rng.choice(PARAMS) for _ in range(reference.GENUS2_ARITY[t])]
        path = _write(env, f"graph-{t}.json", _graph_doc(*reference.genus2_shape(t, params)))
        cmds.append(("graph", ["graph", "eval", "--in", path], {"row": (t, params)}))
    for name, graph in (("banana", gen.banana(rng, 5)), ("necklace", gen.necklace(rng, 3))):
        path = _write(env, f"graph-{name}.json", _graph_doc(*graph))
        cmds.append(("graph", ["graph", "eval", "--in", path], {"graph": graph}))
    for n, (g, p) in enumerate(CURVES):
        roots = gen.shallow_config(rng, g, p)
        path = _write(env, f"curve-{n}.json", {"genus": g, "roots": [_rat(r) for r in roots]})
        data = {"genus": g, "prime": p, "roots": roots}
        cmds.append(("cluster", ["cluster", "--curve", path, "--prime", str(p), "--all-triples"], data))
        cmds.append(("symroots", ["symroots", "--curve", path, "--prime", str(p), "--all-triples"], data))
    for _ in range(CHI_RUNS):
        g = rng.randint(2, 6)
        d, eps, dlt = (Fraction(rng.randint(0, 40), rng.randint(1, 12)) for _ in range(3))
        argv = ["invariants", "chi", "--d", _rat(d), "--eps", _rat(eps),
                "--delta", _rat(dlt), "--genus", str(g)]
        cmds.append(("chi", argv, {"want": reference.chi(g, d, eps, dlt)}))
    for n in range(PLACE_FILES):
        places = []
        for k in range(3 + n):
            t = rng.choice(GENUS2_TYPES[1:])
            d, dlt, eps, chi = reference.genus2_row(t, [rng.choice(PARAMS) for _ in range(reference.GENUS2_ARITY[t])])
            places.append({"label": f"{t}#{k}", "genus": 2, "logNv": math.log(rng.choice((3, 5, 7, 11))),
                           "d": _rat(d), "eps": _rat(eps), "delta": _rat(dlt),
                           "phi": _rat(chi), "chi": _rat(chi)})
        path = _write(env, f"places-{n}.json", places)
        want = reference.omega_sum(2, [(Fraction(r["chi"]), r["logNv"]) for r in places])
        cmds.append(("global", ["global", "--places", path], {"places": len(places), "want": want}))
    rng.shuffle(cmds)
    step = len(cmds) // len(SUITES)
    for k, suite in enumerate(SUITES):
        argv = ["verify", "--suite", suite, "--seed", str(SUITE_SEED)]
        cmds.insert(k * (step + 1), ("verify", argv, None))
    return cmds


def _child_env(env):
    return dict(os.environ, PYTHONPATH=str(env.root / "src"))


def run_child(argv, env):
    """One CLI run in a child process: (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "hypinv.cli", *argv],
        cwd=env.work,
        env=_child_env(env),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def run_in_process(argv):
    """The same run through hypinv.cli.main in this process."""
    from hypinv import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def prepare(seed, env):
    ops = []
    for kind, argv, data in commands(seed, env):
        if env.traced:
            fn = lambda _, argv=argv: run_in_process(argv)
        else:
            fn = lambda _, argv=argv: run_child(argv, env)
        factors = {}
        if data and "graph" in data:
            genus, edges = data["graph"]
            factors = {"V": len(genus), "E": len(edges), "genus": reference.total_genus(genus, edges)}
        elif data and "roots" in data:
            n = len(data["roots"])
            factors = {"genus": data["genus"], "prime": data["prime"],
                       "depth": max(reference.cluster_depths(data["roots"], data["prime"]).values()),
                       "triples": n * (n - 1) * (n - 2)}
        label = " ".join(os.path.basename(a) if a.startswith(str(env.work)) else a for a in argv)
        ops.append(Op(kind, label, fn, factors, data))
    return ops


def warm_up(env):
    argv = ["invariants", "chi", "--d", "1", "--eps", "0", "--delta", "0", "--genus", "2"]
    if env.traced:
        run_in_process(argv)
    else:
        run_child(argv, env)


def startup_seconds(env, repeats=5):
    """Median wall time of a child that only imports hypinv.cli."""
    import statistics
    import time

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hypinv.cli"], env=_child_env(env),
                       cwd=env.work, check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def check(ops, results):
    problems = {}
    for i, (op, got) in enumerate(zip(ops, results)):
        if not isinstance(got, tuple):
            problems[i] = ["operation raised"]
            continue
        code, text = got
        if code != 0:
            problems[i] = [f"exit code {code}: {text[:200]}"]
            continue
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            problems[i] = [f"output is not JSON: {exc}"]
            continue
        try:
            found = CHECKS[op.kind](doc, op.data)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            found = [f"malformed output: {type(exc).__name__}: {exc}"]
        if found:
            problems[i] = found
    return problems


def _equal(text, want):
    try:
        return Fraction(text) == want
    except (TypeError, ValueError):
        return False


def _check_verify(doc, data):
    if doc.get("failed") != 0 or not doc.get("passed", 0) > 0:
        return [f"suite {doc.get('suite')}: passed {doc.get('passed')}, failed {doc.get('failed')}"]
    return []


def _table(data):
    d, dlt, eps, chi = reference.genus2_row(*data["row"])
    return {"d_half": d / 2, "delta": dlt, "epsilon": eps, "phi": chi, "chi": chi}


def _check_genus2(doc, data):
    want = _table(data)
    found = []
    check = doc.get("graph_check", {})
    if check.get("matches_table") is not True:
        found.append("matches_table is not true")
    for key in ("d_half", "delta", "epsilon", "chi"):
        if not _equal(doc.get(key), want[key]):
            found.append(f"{key} = {doc[key]}, table {want[key]}")
    for key in ("epsilon", "phi", "delta", "d_half"):
        if not _equal(check.get(key), want[key]):
            found.append(f"graph_check {key} = {check.get(key)}, table {want[key]}")
    return found


def _check_graph(doc, data):
    if "row" in data:
        want = _table(data)
        want = {"epsilon": want["epsilon"], "phi": want["phi"], "delta": want["delta"], "genus": 2}
    else:
        genus, edges = data["graph"]
        want = {"delta": sum((x for _, _, x in edges), Fraction(0)),
                "genus": reference.total_genus(genus, edges)}
    return [
        f"{key} = {doc.get(key)}, expected {value}"
        for key, value in want.items()
        if not _equal(doc.get(key), value)
    ]


def _check_cluster(doc, data):
    found = []
    if doc.get("checks") != ["ok"]:
        found.append(f"checks = {doc.get('checks')}")
    pairings = doc.get("pairings", {})
    n = len(data["roots"])
    if len(pairings) != n * (n - 1) * (n - 2):
        found.append(f"{len(pairings)} triples reported")
    bad = [t for t, rec in pairings.items()
           if rec["match"] is not True or rec["combination"] != rec["expected_from_symroots"]]
    if bad:
        found.append(f"{len(bad)} triples do not match, first {bad[0]}")
    depth = max(reference.cluster_depths(data["roots"], data["prime"]).values())
    levels = [node["level"] for node in doc.get("tree", {}).get("nodes", [])]
    if max(levels, default=-1) != depth:
        found.append(f"deepest tree level {max(levels, default=None)}, own depth {depth}")
    return found


def _check_symroots(doc, data):
    p, g2 = data["prime"], 2 * data["genus"]
    found = []
    results = doc.get("results", {})
    n = len(data["roots"])
    if len(results) != n * (n - 1) * (n - 2):
        found.append(f"{len(results)} triples reported")
    for t, rec in results.items():
        nu = Fraction(rec["nu_l"])
        own = reference.valuation(Fraction(rec["l_pow_2g"]), p)
        if g2 * nu != own or not _equal(rec.get("pairing_nu"), nu / 2):
            found.append(f"triple {t}: nu_l {nu}, pairing {rec['pairing_nu']}, own 2g nu {own}")
            break
    return found


def _check_chi(doc, data):
    if not _equal(doc.get("chi"), data["want"]):
        return [f"chi = {doc.get('chi')}, expected {data['want']}"]
    return []


def _check_global(doc, data):
    try:
        got = float(doc["omega_omega_adm"])
    except (KeyError, TypeError, ValueError):
        got = math.nan
    if doc.get("places") != data["places"] or not math.isclose(got, data["want"], rel_tol=1e-12):
        return [f"global = {doc}, expected {data}"]
    return []


CHECKS = {
    "verify": _check_verify,
    "genus2": _check_genus2,
    "graph": _check_graph,
    "cluster": _check_cluster,
    "symroots": _check_symroots,
    "chi": _check_chi,
    "global": _check_global,
}

CLI_VERIFY = Workload(
    prepare,
    warm_up,
    check,
    children=True,
    traced_extras=lambda env: {"cli.startup_s": startup_seconds(env)},
)
