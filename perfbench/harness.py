"""Operations, passes, checks and end-to-end metrics shared by all workloads.

A workload is a list of operations.  One pass runs every operation once, in
order, in a single closed loop: the next operation starts when the previous
one has returned.  A run repeats whole passes for the requested time, so
every run attempts a whole number of passes.
"""

from __future__ import annotations

import re
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable


@dataclass
class Op:
    """One timed operation.

    ``fn`` receives the results of the operations before it in the same
    pass, so that a batch operation (``aggregate_global``) can consume them.
    ``factors`` holds the input's cost factors (|V|, |E|, genus, depth,
    triples) for the trace output.
    """

    kind: str
    label: str
    fn: Callable[[list], object]
    factors: dict = field(default_factory=dict)
    data: object = None  # what the workload's check needs about the input


@dataclass
class Env:
    root: Path  # checkout root: holds src/ and perfbench/
    work: Path  # scratch directory for input files, removed after the run
    traced: bool = False


@dataclass
class Workload:
    prepare: Callable[[int, Env], list]  # (seed, env) -> timed ops
    warm_up: Callable[[Env], None]  # runs fixed inputs outside the timed set
    check: Callable[[list, list], dict]  # (ops, results) -> {op index: [problem]}
    children: bool = False  # ops run in child processes: peak RSS is theirs
    traced_extras: Callable[[Env], dict] | None = None  # extra layer metrics


@dataclass(frozen=True)
class Raised:
    """Result slot of an operation that raised."""

    detail: str


#: Reference time of one calibration loop.  Op latencies are reported at
#: the machine speed where ``calibrate()`` takes exactly this long.
CAL_REF_S = 0.001


def calibrate(loops=1):
    """Time a fixed pure-Python Fraction loop that uses no hypinv code
    (median of ``loops`` runs).

    The effective speed of a shared machine swings by up to 2x from one
    second to the next.  Scaling a latency by CAL_REF_S / (time of this
    loop next to it) cancels that swing; a change in hypinv moves the
    latency and not the loop.
    """
    times = []
    for _ in range(loops):
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 300):
            s += Fraction(i % 13 + 1, i % 97 + 1)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(raw, cal_before, cal_after):
    """A raw latency at the reference speed of CAL_REF_S."""
    return raw * CAL_REF_S / ((cal_before + cal_after) / 2)


@dataclass
class Pass:
    results: list
    times: list  # per-op latency at reference speed, s
    raw: list  # per-op wall time as measured, s


def run_pass(ops, call=None):
    """Run every op once, with a calibration loop before each op and after
    the last one."""
    results, raw, cals = [], [], [calibrate()]
    clock = time.perf_counter
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            r = call(i, op, results) if call else op.fn(results)
        except Exception as exc:  # noqa: BLE001 - an op failure is data
            r = Raised(f"{type(exc).__name__}: {exc}")
        raw.append(clock() - t0)
        results.append(r)
        cals.append(calibrate())
    times = [scaled(t, cals[i], cals[i + 1]) for i, t in enumerate(raw)]
    return Pass(results, times, raw)


def run_passes(ops, seconds, call=None, after_pass=None, first=None):
    """Repeat whole passes while the next one is predicted to end within
    ``seconds`` of wall time; at least one pass.

    Only the reference results (``first``, else the first pass's) are kept.
    Any other pass keeps, per op, whether its result equals the reference
    (or the Raised marker), so memory does not grow with the passes.
    """
    passes, walls = [], []
    while True:
        t0 = time.perf_counter()
        p = run_pass(ops, call)
        walls.append(time.perf_counter() - t0)
        ref = first if first is not None else passes[0].results if passes else None
        if ref is not None:
            p.results = [r if isinstance(r, Raised) else r == ref[i] for i, r in enumerate(p.results)]
        passes.append(p)
        if after_pass is not None:
            after_pass()
        if sum(walls) + statistics.median(walls) > seconds:
            return passes


def count_failures(workload, ops, passes):
    """(attempted, failed, problems, reproducible) over all passes.

    The first pass's results are checked in full.  An op that raised or
    whose first result failed a check counts as failed in every pass: the
    ops are deterministic, so the verdict carries over to equal results.
    ``reproducible`` is false if a later pass returned a different result.
    """
    first = passes[0].results
    problems = {
        i: [r.detail] for i, r in enumerate(first) if isinstance(r, Raised)
    }
    for i, found in workload.check(ops, first).items():
        if found:
            problems.setdefault(i, []).extend(found)
    failed = sum(len(problems) for _ in passes)
    reproducible = True
    for p in passes[1:]:
        for i, same in enumerate(p.results):
            if isinstance(same, Raised) and i not in problems:
                failed += 1
            elif same is False:
                reproducible = False
    return len(ops) * len(passes), failed, problems, reproducible


def latency_stats(passes):
    """Per-op latency (median over passes), then median and tail over ops.

    The tail is the highest percentile that still has at least ten ops
    above it: the 11th-largest per-op latency.
    """
    n = len(passes[0].times)
    per_op = sorted(statistics.median(p.times[i] for p in passes) for i in range(n))
    tail_index = max(n - 11, 0)
    return {
        "p50_s": statistics.median(per_op),
        "tail_s": per_op[tail_index],
        "tail_percentile": 100 * (tail_index + 1) / n,
        "ops": n,
        "passes": len(passes),
    }


def pass_seconds(passes, raw=False):
    """run_s: median over passes of the summed op latencies of one pass."""
    return statistics.median(sum(p.raw if raw else p.times) for p in passes)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def max_bits(obj):
    """Largest numerator/denominator bit length among the rationals in obj."""
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, Fraction):
        return max(abs(obj.numerator).bit_length(), obj.denominator.bit_length())
    if isinstance(obj, str):
        return max_bits(Fraction(obj)) if _RATIONAL.fullmatch(obj) else 0
    if isinstance(obj, dict):
        return max((max_bits(v) for v in obj.values()), default=0)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return max((max_bits(v) for v in obj), default=0)
    if hasattr(obj, "__dict__"):
        return max_bits(vars(obj))
    return 0
