#!/usr/bin/env python3
"""Steadiness report: repeat each workload in fresh processes.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 1            # one run of every workload
    python3 perfbench/steady.py --runs 5 --workloads graph-queries --traced 1

Run ``k`` (from 1) of a workload uses seed ``k`` and measures for
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric the
report gives the median, the quartiles (as ``statistics.quantiles(values,
n=4)``) and the spread (q3 - q1) / median, next to a third of the metric's
bound in ``BENCHMARK.json``.  It also gives
the share of failed operations.  With ``--traced N`` it adds N traced runs
per workload and reports the tracing overhead: the median traced ``run_s``
minus the median untraced ``run_s``, and the traced run's own comparison
against its untraced pass.  The last line of output is the whole report as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if trace:
        doc = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
        result["traced_run_s"] = doc["traced_run_s"]
        result["untraced_run_s"] = doc["untraced_run_s"]
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    report = {}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, k, seconds, 0) for k in range(1, args.runs + 1)]
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": {},
        }
        print(f"== {workload}: {args.runs} runs, seeds 1..{args.runs}")
        print(f"   attempted {entry['attempted']}  failed {entry['failed']}  correct {entry['correct']}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(values) >= 2:
                s = spread(values)
                verdict = "ok" if s["spread"] < m["bound"] / 3 else "WIDE"
                print(f"   {m['name']:<14} median {s['median']:>11.5g} {m['unit']:<4} "
                      f"q1 {s['q1']:>11.5g}  q3 {s['q3']:>11.5g}  spread {s['spread']:6.1%} "
                      f"(bound/3 {m['bound'] / 3:5.1%}) {verdict}")
            else:
                s = {"median": values[0]}
                print(f"   {m['name']:<14} {values[0]:>11.5g} {m['unit']}")
            entry["metrics"][m["name"]] = dict(s, values=values, unit=m["unit"])
        if args.traced:
            traced = [one_run(workload, k, seconds, 1) for k in range(1, args.traced + 1)]
            t_med = statistics.median(r["traced_run_s"] for r in traced)
            u_med = statistics.median(r["untraced_run_s"] for r in traced)
            e2e = entry["metrics"]["run_s"]["median"]
            entry["tracing"] = {"traced_run_s": t_med, "untraced_pass_run_s": u_med,
                                "untraced_run_s": e2e, "overhead_s": t_med - e2e}
            print(f"   tracing: traced run_s {t_med:.4g} s vs untraced run_s {e2e:.4g} s "
                  f"(overhead {t_med - e2e:+.4g} s); traced run's own untraced pass {u_med:.4g} s")
        report[workload] = entry
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
