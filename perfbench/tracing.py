"""Per-layer tracing from outside the library.

The tracer replaces each public function named in ``TARGETS`` by a wrapper
in every hypinv namespace that holds it (``symroots.val``,
``clustertree.val``, the ``hypinv.*`` re-exports, ...), so that no call is
missed whichever name the caller used.  A wrapper records a span (name,
start, end, parent span, operation id) and adds its duration to the
enclosing call's child time; self time is duration minus child time.
Spans stay in memory until ``write``.

``rational.val`` and ``rational.is_prime`` run hundreds of thousands of
times per pass.  They are counted and timed like the others, and their time
is taken out of their caller's self time, but they get no span of their own.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

from harness import max_bits

TARGETS = {
    "metgraph": (
        "epsilon_phi", "canonical_measure", "admissible_measure", "green",
        "green_diagonal", "verify_admissible", "resistance",
    ),
    "invariants": ("place_report_from_graph", "node_counts_from_graph"),
    "rational": ("val", "is_prime"),
    "symroots": ("symroot_val", "symroot_pow", "sym_discriminant"),
    "clustertree": ("check_normal_form", "build_tree", "pairing_from_tree", "v_mult"),
    "verify": ("run_suite",),
    "cli": ("main",),
}
UNSPANNED = {"rational.val", "rational.is_prime"}


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.spans = []
        self.op = -1
        self.bits_max = 0  # largest result bit length of a metgraph call
        self.tree_nodes = 0  # nodes of every tree build_tree returned
        self._ids = {}
        self._stack = []
        self._patches = []
        self._origin = time.perf_counter()

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name, fn, post=None):
        nid = self._name_id(name)
        spanned = name not in UNSPANNED
        calls, self_s, spans, stack = self.calls, self.self_s, self.spans, self._stack
        clock, origin, tracer = time.perf_counter, self._origin, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if spanned:
                idx = len(spans)
                spans.append(None)
            frame = [idx if spanned else parent, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
                if spanned:
                    spans[idx] = (nid, t0 - origin, t1 - origin, parent, tracer.op)
            if post is not None:
                post(result)
            return result

        return wrapper

    def _bits(self, result):
        self.bits_max = max(self.bits_max, max_bits(result))

    def _nodes(self, tree):
        self.tree_nodes += len(tree.nodes)

    def install(self):
        """Wrap every target in every loaded hypinv module."""
        for layer in TARGETS:
            importlib.import_module(f"hypinv.{layer}")
        modules = [m for n, m in sys.modules.items() if n == "hypinv" or n.startswith("hypinv.")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"hypinv.{layer}"]
            for name in names:
                original = getattr(home, name)
                post = self._bits if layer == "metgraph" else None
                if (layer, name) == ("clustertree", "build_tree"):
                    post = self._nodes
                wrapper = self.wrap(f"{layer}.{name}", original, post)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def snapshot(self):
        """Cumulative per-layer counters: {metric name: value}."""
        out = {}
        for layer, names in TARGETS.items():
            for name in names:
                nid = self._name_id(f"{layer}.{name}")
                out[f"{layer}.{name}.calls"] = self.calls[nid]
                out[f"{layer}.{name}.self_s"] = self.self_s[nid]
        out["clustertree.tree_nodes"] = self.tree_nodes
        return out

    def write(self, path, summary):
        """Write the summary and every span as one JSON document."""
        doc = dict(summary, names=self.names, span_fields=["name", "start_s", "end_s", "parent", "op"])
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, separators=(",", ":"))[:-1] + ',"spans":[')
            for k, span in enumerate(self.spans):
                fh.write(("," if k else "") + json.dumps(span, separators=(",", ":")))
            fh.write("]}\n")
