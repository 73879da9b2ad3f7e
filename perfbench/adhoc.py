#!/usr/bin/env python3
"""Re-measure the single-call reference figures quoted in the README.

    python3 perfbench/adhoc.py

Each figure is one call (best of three for calls under a second), timed
with perf_counter from the checkout's src/.  These are point figures for
orientation; the benchmark proper is run.py.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
from hypinv import clustertree, invariants, metgraph, symroots, verify  # noqa: E402
from tracing import Tracer  # noqa: E402


def timed(fn, repeats=3):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
        if dt > 1:
            break
    return best


def unit_necklace(n):
    genus = {f"v{i}": 0 for i in range(n)}
    edges = []
    for i in range(n):
        u, v = f"v{i}", f"v{(i + 1) % n}"
        edges += [(u, v, 1), (u, v, 1)]
    return metgraph.MetrizedGraph(genus, edges)


def unit_complete(n):
    genus = {f"v{i}": 0 for i in range(n)}
    return metgraph.MetrizedGraph(
        genus, [(f"v{i}", f"v{j}", 1) for i in range(n) for j in range(i + 1, n)]
    )


def unit_banana(n):
    return metgraph.MetrizedGraph({"a": 0, "b": 0}, [("a", "b", 1)] * n)


def child_seconds(args, repeats=3):
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=300)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    rows = []

    def row(what, seconds, note=""):
        rows.append((what, seconds, note))
        print(f"{what:<52} {seconds:9.4f} s  {note}", flush=True)

    for n in (8, 12, 16):
        g = unit_necklace(n)
        row(f"epsilon_phi necklace({n}), unit lengths", timed(lambda: metgraph.epsilon_phi(g)))
    k6 = unit_complete(6)
    row("epsilon_phi K_6, unit lengths", timed(lambda: metgraph.epsilon_phi(k6)))
    row("place_report_from_graph K_6 (two epsilon_phi)",
        timed(lambda: invariants.place_report_from_graph("K_6", k6)))
    b12 = unit_banana(12)
    row("epsilon_phi banana(12), unit lengths", timed(lambda: metgraph.epsilon_phi(b12)))
    n8 = unit_necklace(8)
    mu = metgraph.admissible_measure(n8)
    x, y = "v0", (5, Fraction(1, 3))
    row("green(mu_ad, v0, interior) on necklace(8)", timed(lambda: metgraph.green(n8, mu, x, y)))
    row("resistance(v0, interior) on necklace(8)", timed(lambda: metgraph.resistance(n8, x, y)))

    rng = gen.rng_for(0, "adhoc")
    cfg = symroots.RootConfig(2, tuple(gen.deep_config(rng, 2, 3, 800)))
    tree = clustertree.build_tree(cfg, 3)
    row("build_tree, cluster depth 800 (genus 2, p = 3)",
        timed(lambda: clustertree.build_tree(cfg, 3)), f"{len(tree.nodes)} nodes")

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        verify.run_suite("cluster-vs-symroots", 7)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    counts = tracer.snapshot()
    t0 = time.perf_counter()
    verify.run_suite("cluster-vs-symroots", 7)
    row("run_suite cluster-vs-symroots seed 7, in-process", time.perf_counter() - t0,
        f"{counts['rational.val.calls']} val, {counts['rational.is_prime.calls']} is_prime calls"
        f" ({traced:.2f} s traced)")

    row("child: python -c 'import hypinv.cli'", child_seconds(["-c", "import hypinv.cli"]))
    row("child: hypinv invariants chi", child_seconds(
        ["-m", "hypinv.cli", "invariants", "chi", "--d", "6", "--eps", "5/9", "--delta", "3", "--genus", "2"]))
    for suite in ("cluster-vs-symroots", "identities", "phi-equals-chi"):
        row(f"child: hypinv verify --suite {suite}",
            child_seconds(["-m", "hypinv.cli", "verify", "--suite", suite, "--seed", "7"], repeats=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
