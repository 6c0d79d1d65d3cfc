"""Span tracing of the simulator's layers, installed from outside ``src/``.

During a traced run the public entry points of each layer are replaced
by thin wrappers that record a span (name, start, duration, parent) in
memory.  Nothing here is imported by the untraced run's hot path, and
:meth:`Tracer.uninstall` restores every original attribute, so the
end-to-end metrics are always measured on the unmodified program.

A layer's self time is its spans' duration minus the part covered by
child spans.  Spans recorded inside forked worker processes stay in the
workers and are lost, which is why ``fleet`` is traced with one worker.
"""

from __future__ import annotations

import json
import os
import time
from functools import wraps

import numpy as np

#: Span name -> layer.  ``bench.*`` spans are the benchmark's own code
#: (the pass loop and one span per operation).
LAYER_OF = {
    "bench.pass": "bench",
    "bench.op": "bench",
    "backend.run": "backend",
    "kernel": "kernel",
    "arena.select": "arena",
    "draw.ppf": "draw",
    "eq8.pairs": "eq8",
    "eq8.scalar": "eq8",
    "dp.plan": "dp",
    "dp.walk": "dp",
    "dp.solve": "dp",
    "oracle": "oracle",
}
LAYERS = ("bench", "backend", "kernel", "arena", "draw", "eq8", "dp", "oracle")


def _broadcast_size(job_lengths, vm_ages, *_, **__) -> int:
    return int(np.broadcast(np.asarray(job_lengths), np.asarray(vm_ages)).size)


def _targets(dist_classes):
    """(owner, attribute, span name, element counter) of every wrapped
    entry point.  Module-level functions are patched in the namespace
    the callers look them up in at call time."""
    from repro.policies import checkpointing, scheduling
    from repro.sim import (
        backend,
        checkpoint_vectorized,
        cluster_vectorized,
        service_vectorized,
        tenancy_vectorized,
        vectorized,
    )

    targets = [
        (backend, "run_replications", "backend.run", None),
        (backend, "run_cluster_replications", "backend.run", None),
        (backend, "run_service_replications", "backend.run", None),
        (backend, "run_tenant_replications", "backend.run", None),
        (backend, "simulate_plan_vectorized", "kernel", None),
        (cluster_vectorized, "simulate_cluster_vectorized", "kernel", None),
        (service_vectorized, "simulate_service_vectorized", "kernel", None),
        (tenancy_vectorized, "simulate_tenancy_vectorized", "kernel", None),
        (backend, "_simulate_plan_event", "oracle", None),
        (backend, "_simulate_cluster_event", "oracle", None),
        (backend, "_simulate_service_event", "oracle", None),
        (backend, "_simulate_tenancy_event", "oracle", None),
        (vectorized.EventArena, "select", "arena.select", None),
        (scheduling.ModelReusePolicy, "decide_pairs", "eq8.pairs", _broadcast_size),
        (scheduling.ModelReusePolicy, "decide", "eq8.scalar", None),
        (checkpointing.CheckpointPolicy, "plan", "dp.plan", None),
        (checkpointing.CheckpointPolicy, "expected_makespan", "dp.plan", None),
        (checkpointing.CheckpointPolicy, "_solve", "dp.solve", None),
        (checkpoint_vectorized.DPPlanWalker, "begin", "dp.walk", None),
        (checkpoint_vectorized.DPPlanWalker, "next_take", "dp.walk", None),
    ]
    for cls in dist_classes:
        targets.append((cls, "ppf", "draw.ppf", None))
    return targets


class Tracer:
    """In-memory span recorder with per-name aggregates.

    ``spans`` holds ``(name, label, start_s, dur_s, parent_index)``;
    aggregates accumulate per span name: calls, inclusive seconds of
    outermost spans (a span nested in one of its own name is not counted
    twice), self seconds, and an optional element count.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.elements: dict[str, int] = {}
        self._stack: list[list] = []  # [name, label, start, child_s, index]
        self._open: dict[str, int] = {}
        self._saved: list[tuple[object, str, object | None]] = []
        self._t0 = time.perf_counter()

    # -- recording ----------------------------------------------------
    def begin(self, name: str, label: str = "") -> None:
        self._open[name] = self._open.get(name, 0) + 1
        self.spans.append((name, label, 0.0, 0.0, -1))
        idx = len(self.spans) - 1
        self._stack.append([name, label, time.perf_counter(), 0.0, idx])

    def end(self) -> None:
        t1 = time.perf_counter()
        name, label, t0, child_s, idx = self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1][4] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += dur
        self.spans[idx] = (name, label, t0 - self._t0, dur, parent)
        self._open[name] -= 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_s
        if self._open[name] == 0:
            self.incl[name] = self.incl.get(name, 0.0) + dur

    def _wrap(self, fn, name: str, count):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                # Bound methods: skip ``self`` when counting elements.
                n = count(*args[1:], **kwargs)
                tracer.elements[name] = tracer.elements.get(name, 0) + n
            tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()

        return traced

    # -- patching -----------------------------------------------------
    def install(self, dist_classes) -> None:
        """Wrap every layer entry point (idempotent per owner/attribute)."""
        seen = set()
        for owner, attr, name, count in _targets(dist_classes):
            if (id(owner), attr) in seen:
                continue
            seen.add((id(owner), attr))
            own = owner.__dict__.get(attr)
            self._saved.append((owner, attr, own))
            original = own if own is not None else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._saved):
            if own is None:  # inherited: drop the override
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._saved.clear()

    # -- reporting ----------------------------------------------------
    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[LAYER_OF[name]] += s
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome-trace complete events (``ph: X``)."""
        pid = os.getpid()
        events = []
        for i, (name, label, start, dur, parent) in enumerate(self.spans):
            events.append(
                {
                    "name": f"{name}:{label}" if label else name,
                    "cat": LAYER_OF[name],
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": dur * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": {"id": i, "parent": parent},
                }
            )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
