#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload graph-places --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program under test is imported from
its ``src/`` directory, never from an installed copy.  One client runs one
operation at a time.  The run sets up (the workload module's import,
timed once in this fresh process; input generation and warm-up, repeated
``SETUP_REPEATS`` times), then repeats whole passes over the operations for
about ``--seconds`` seconds, then checks the outputs.  Latencies are
reported at reference speed (see ``harness.calibrate``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs one untraced pass, then traced passes, and reports the
per-layer metrics.  It writes the spans and each operation's cost factors
to ``perfbench/out/trace-<workload>.json``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = {
    "graph-places": ("wl_graph", "GRAPH_PLACES"),
    "graph-queries": ("wl_graph", "GRAPH_QUERIES"),
    "cluster-sweep": ("wl_cluster", "CLUSTER_SWEEP"),
    "cli-verify": ("wl_cli", "CLI_VERIFY"),
}
SETUP_REPEATS = 11
SETUP_CAL_LOOPS = 5

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "hypinv" / "__init__.py").is_file():
        print(f"perfbench: no hypinv source tree under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The machine's speed swings differently on each vCPU.  Keeping this
    # process and its children on one vCPU makes the calibration loop
    # measure the vCPU that runs the op.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        return run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, spec, work):
    from harness import Env, calibrate, count_failures, latency_stats, pass_seconds, run_passes, scaled

    env = Env(ROOT, work, traced=bool(args.trace))
    module_name, attr = WORKLOADS[args.workload]
    # The import (hypinv too, for the in-process workloads) is mostly
    # file reads and module start-up, so it is reported as measured.
    t0 = time.perf_counter()
    workload = getattr(importlib.import_module(module_name), attr)
    import_s = time.perf_counter() - t0
    _require_source_tree()
    setups, raw_setups, cals = [], [], [calibrate(SETUP_CAL_LOOPS)]
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workload.prepare(args.seed, env)
        workload.warm_up(env)
        raw_setups.append(time.perf_counter() - t0)
        cals.append(calibrate(SETUP_CAL_LOOPS))
        setups.append(scaled(raw_setups[-1], cals[-2], cals[-1]))
    if args.trace:
        return run_traced(args, spec, workload, ops, env)

    passes = run_passes(ops, args.seconds)
    # read before the checks, whose own work must not count
    who = resource.RUSAGE_CHILDREN if workload.children else resource.RUSAGE_SELF
    peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024
    attempted, failed, problems, reproducible = count_failures(workload, ops, passes)
    stats = latency_stats(passes)
    values = {
        "setup_s": import_s + statistics.median(setups),
        "run_s": pass_seconds(passes),
        "op_p50_ms": 1000 * stats["p50_s"],
        "op_tail_ms": 1000 * stats["tail_s"],
        "peak_rss_mib": peak_rss_mib,
    }
    print(
        f"workload {args.workload}  seed {args.seed}  {stats['passes']} passes x "
        f"{stats['ops']} ops, one closed-loop client"
    )
    print(
        f"op_tail_ms is p{stats['tail_percentile']:.1f} over {stats['ops']} per-op "
        f"latencies, each the median of {stats['passes']} passes"
    )
    print(
        f"times are at reference speed (calibration loop = 1 ms); as measured: "
        f"setup {import_s + statistics.median(raw_setups):.4f} s, "
        f"run {pass_seconds(passes, raw=True):.4f} s"
    )
    return finish(spec["end_to_end"], values, attempted, failed, problems, reproducible, ops)


def run_traced(args, spec, workload, ops, env):
    from harness import count_failures, max_bits, pass_seconds, run_pass, run_passes
    from tracing import Tracer

    t0 = time.perf_counter()
    base = run_pass(ops)
    base_wall = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    wrappers = [tracer.wrap(f"op.{op.kind}", op.fn) for op in ops]

    def call(i, op, prior):
        tracer.op = i
        return wrappers[i](prior)

    per_pass, last = [], [tracer.snapshot()]

    def after_pass():
        now = tracer.snapshot()
        layer = {k: now[k] - last[0][k] for k in now}
        layer["metgraph.result_bits_max"] = tracer.bits_max
        per_pass.append(layer)
        last[0] = now
        tracer.bits_max = 0

    try:
        traced = run_passes(ops, args.seconds - base_wall, call, after_pass, base.results)
    finally:
        tracer.uninstall()
    # median_low keeps counts whole: it returns one pass's value
    layer = {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
    if workload.traced_extras is not None:
        layer.update(workload.traced_extras(env))
    passes = [base] + traced
    attempted, failed, problems, reproducible = count_failures(workload, ops, passes)
    untraced_s, traced_s = pass_seconds([base]), pass_seconds(traced)
    print(
        f"workload {args.workload}  seed {args.seed}  1 untraced + {len(traced)} traced "
        f"passes x {len(ops)} ops"
    )
    print(
        f"tracing overhead: traced pass {traced_s:.3f} s vs untraced pass "
        f"{untraced_s:.3f} s ({100 * (traced_s / untraced_s - 1):+.1f} %)"
    )
    names = [m["name"] for m in spec["per_layer"]]
    unknown = set(names) - set(layer) - {"cli.startup_s"}
    if unknown:
        raise SystemExit(f"perfbench: no tracer counter for {sorted(unknown)}")
    # cli.startup_s is measured on cli-verify only; elsewhere it stays 0
    values = {name: layer.get(name, 0) for name in names}
    trace_ops = [
        dict(op=i, kind=op.kind, label=op.label, **op.factors,
             result_bits=max_bits(_decoded(base.results[i])),
             latency_ms=1000 * statistics.median(t.times[i] for t in traced))
        for i, op in enumerate(ops)
    ]
    path = OUT / f"trace-{args.workload}.json"
    tracer.write(path, {
        "workload": args.workload, "seed": args.seed, "untraced_run_s": untraced_s,
        "traced_run_s": traced_s, "layer": values, "ops": trace_ops,
    })
    print(f"spans and cost factors: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return finish(spec["per_layer"], values, attempted, failed, problems, reproducible, ops)


def _decoded(result):
    # a CLI op returns (exit code, JSON text)
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], str):
        try:
            return json.loads(result[1])
        except ValueError:
            return None
    return result


def _require_source_tree():
    mod = sys.modules.get("hypinv")
    if mod is not None and not Path(mod.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: hypinv imported from {mod.__file__}, not {ROOT / 'src'}")


def finish(metric_specs, values, attempted, failed, problems, reproducible, ops):
    for m in metric_specs:
        print(f"{m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"attempted {attempted}  failed {failed}")
    for i, found in list(problems.items())[:10]:
        print(f"FAILED op {i} ({ops[i].kind} {ops[i].label}): {'; '.join(found)[:300]}", file=sys.stderr)
    if not reproducible:
        print("a later pass returned a different result than the first", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    correct = reproducible and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
