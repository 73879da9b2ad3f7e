"""Seeded input generators, independent of ``hypinv.verify.random_*``.

Every generator takes a ``random.Random`` and returns plain data: graphs as
``(genus, edges)`` (see ``reference``), configurations as a list of
``Fraction`` roots.  Sizes are fixed by the caller; the seed only picks
lengths, genus marks, residues and orderings, so that the cost of a batch
moves little from seed to seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

#: Edge lengths: small numerators and denominators keep the exact
#: arithmetic's bit growth comparable across seeds.
LENGTHS = tuple(
    Fraction(n, d) for n in (1, 2, 3, 4, 5) for d in (1, 2, 3) if n % d or d == 1
)


def rng_for(seed, stream):
    """An independent generator per (seed, stream); string seeding is stable."""
    return random.Random(f"{stream}:{seed}")


def family_rng():
    """Lengths of the scaling families: the same for every seed, so that a
    family member costs the same in every run."""
    return rng_for(0, "scaling families")


def banana(rng, n):
    """Two genus-0 vertices joined by n parallel edges (genus n-1)."""
    return {"a": 0, "b": 0}, [("a", "b", rng.choice(LENGTHS)) for _ in range(n)]


def necklace(rng, n):
    """A cycle of n beads, each bead a pair of parallel edges (genus n+1)."""
    genus = {f"v{i}": 0 for i in range(n)}
    edges = []
    for i in range(n):
        u, v = f"v{i}", f"v{(i + 1) % n}"
        edges += [(u, v, rng.choice(LENGTHS)), (u, v, rng.choice(LENGTHS))]
    return genus, edges


def wheel(rng, n):
    """A hub joined to every vertex of an n-cycle (genus n)."""
    genus = {"hub": 0, **{f"v{i}": 0 for i in range(n)}}
    edges = [("hub", f"v{i}", rng.choice(LENGTHS)) for i in range(n)]
    edges += [(f"v{i}", f"v{(i + 1) % n}", rng.choice(LENGTHS)) for i in range(n)]
    return genus, edges


def complete(rng, n):
    """K_n with genus-0 vertices (genus (n-1)(n-2)/2)."""
    genus = {f"v{i}": 0 for i in range(n)}
    edges = [
        (f"v{i}", f"v{j}", rng.choice(LENGTHS))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return genus, edges


def random_graph(rng, n_vertices, n_edges):
    """Connected genus-marked multigraph: a random spanning tree plus extra
    edges that may be loops or parallel edges.  n_edges >= n_vertices + 1
    keeps the total genus at least 2."""
    genus = {f"v{i}": rng.choice((0, 0, 0, 1, 2)) for i in range(n_vertices)}
    names = list(genus)
    edges = [
        (names[rng.randrange(i)], names[i], rng.choice(LENGTHS))
        for i in range(1, n_vertices)
    ]
    while len(edges) < n_edges:
        edges.append((rng.choice(names), rng.choice(names), rng.choice(LENGTHS)))
    rng.shuffle(edges)
    return genus, edges


def interior_point(rng, edges, eid):
    """An interior point of edge ``eid`` at a seeded fraction of its length."""
    return (eid, edges[eid][2] * Fraction(rng.randint(1, 4), 5))


def shallow_config(rng, g, p):
    """Normal-form configuration with random shallow clusters.

    Roots are residue + p**2 * (sub-cluster value), so every pairwise
    valuation is even; the top level has at least three residue classes.
    """

    def build(count, top):
        if count == 1:
            return [0]
        lo = min(3 if top else 2, count, p)
        k = rng.randint(lo, min(count, p))
        sizes = [1] * k
        for _ in range(count - k):
            sizes[rng.randrange(k)] += 1
        out = []
        for res, size in zip(rng.sample(range(p), k), sizes):
            out += [res + p * p * x for x in build(size, False)]
        return out

    roots = build(2 * g + 2, True)
    rng.shuffle(roots)
    return [Fraction(x) for x in roots]


def deep_config(rng, g, p, depth):
    """Normal-form configuration with a nested cluster chain ``depth`` levels
    deep: two roots in their own residue classes, the other 2g roots in one
    class, each nested inside the previous at evenly spaced even levels."""
    n_chain = 2 * g
    steps = [depth // 2 * k // (n_chain - 1) for k in range(1, n_chain)]
    r0, r1, r2 = rng.sample(range(p), 3)
    chain, acc = [r0], r0
    for d in steps:
        acc += rng.randint(1, p - 1) * p ** (2 * d)
        chain.append(acc)
    roots = [r1, r2] + chain
    rng.shuffle(roots)
    return [Fraction(x) for x in roots]
