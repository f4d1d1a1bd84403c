"""Outside-in layer tracing: wrap the names the calling modules bind.

Every wrapped call records a span (operation, parent span, start, end) in
memory; nothing inside ``src/`` changes. A layer's self time is its spans'
duration minus the part covered by child spans. A binding that a later
version deletes is skipped, so its operation records zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

#: (module, bound name, layer, operation). Wrapping the name a caller binds
#: catches the calls made through it; the same function bound in another
#: module is wrapped there separately, so no call is counted twice.
#: ``radio.demand_at`` (per UE per sample) is left unwrapped: wrapping it
#: would cost more than the work it times, so it counts as allocation time.
BINDINGS = (
    ("cli", "main", "cli", "main"),
    ("cli", "build_scenario", "model", "build"),
    ("cli", "validate_scenario", "model", "validate"),
    ("cli", "evaluate", "metrics", "evaluate"),
    ("cli", "evaluate_daily", "metrics", "daily"),
    ("cli", "run_sweep", "sweep", "run_sweep"),
    ("cli", "argmax", "sweep", "argmax"),
    ("sweep", "set_parameter", "sweep", "set_parameter"),
    ("sweep", "resolve_parameter", "sweep", "resolve_parameter"),
    ("sweep", "evaluate", "metrics", "evaluate"),
    ("sweep", "evaluate_daily", "metrics", "daily"),
    ("sweep", "total_cost_rate", "energy_cost", "total_cost_rate"),
    ("metrics", "evaluate", "metrics", "evaluate"),
    ("metrics", "associate", "radio", "associate"),
    ("metrics", "allocate", "allocation", "allocate"),
    ("metrics", "dynamic_power", "energy_cost", "dynamic_power"),
    ("metrics", "cost_coefficient", "energy_cost", "cost_coefficient"),
    ("metrics", "resolve_benchmark_cost", "energy_cost", "resolve_benchmark_cost"),
    ("metrics", "total_cost_rate", "energy_cost", "total_cost_rate"),
    ("allocation", "zipf_popularity", "cache", "popularity"),
    ("allocation", "hit_ratio", "cache", "hit_ratio"),
    ("allocation", "radio_capacity", "radio", "capacity"),
    ("allocation", "max_min_rates", "allocation", "max_min"),
)

LAYERS = ("model", "radio", "cache", "allocation", "energy_cost", "metrics", "sweep", "cli")


class Tracer:
    """Installs the span-recording wrappers and aggregates their spans."""

    def __init__(self) -> None:
        self.ops: list[tuple[str, str]] = []
        self.spans: list[tuple[int, int, float, float] | None] = []
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def _op_id(self, layer: str, op: str) -> int:
        if (layer, op) not in self.ops:
            self.ops.append((layer, op))
        return self.ops.index((layer, op))

    def _wrap(self, fn, op_id: int):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (op_id, parent, start, end)

        return traced

    def install(self) -> None:
        for module_name, attr, layer, op in BINDINGS:
            op_id = self._op_id(layer, op)
            try:
                module = importlib.import_module(f"e3sim.{module_name}")
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, op_id))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def summary(self) -> dict:
        """Calls and self seconds per operation and per layer, from the spans."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        op_calls = defaultdict(int)
        op_self = defaultdict(float)
        for i, (op_id, _, start, end) in enumerate(self.spans):
            op_calls[op_id] += 1
            op_self[op_id] += end - start - child[i]
        ops = {
            f"{layer}.{op}": {"calls": op_calls[i], "self_s": op_self[i]}
            for i, (layer, op) in enumerate(self.ops)
        }
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for i, (layer, _) in enumerate(self.ops):
            layers[layer]["calls"] += op_calls[i]
            layers[layer]["self_s"] += op_self[i]
        return {"ops": ops, "layers": layers}

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON: operations, then [op, parent, start, end]."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "ops": [f"{layer}.{op}" for layer, op in self.ops],
                    "spans": [[o, p, round(s - t0, 7), round(e - t0, 7)] for o, p, s, e in self.spans],
                },
                f,
                separators=(",", ":"),
            )
