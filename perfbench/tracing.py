"""Wall-clock layer tracing from outside the program.

The benchmark times the calls into each layer's public functions without
editing ``src/``: :class:`Tracer` wraps those functions and rebinds every
name a caller looks them up by (the defining module and each module that
imported the function by name; methods are patched on their class).  Each call opens a span on one in-memory
stack; a span's self time is its duration minus the durations of its
direct children.  :meth:`Tracer.uninstall` restores every binding.

Spans of one layer nested directly inside another span of the same layer
(``GF.combine`` -> ``GF.addmul`` -> ``GF.scale``) fold into the outer
span, so a layer's bytes are counted once and the span count stays small.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

MB = float(1 << 20)


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0))


def _count_matmul(counts, args, kwargs, out):
    # gf_matmul(a, b, field): b is the data operand
    counts["gf.matmul.mb"] += _nbytes(args[1] if len(args) > 1 else kwargs.get("b")) / MB


def _count_combine(counts, args, kwargs, out):
    # GF.combine(self, coeffs, blocks)
    blocks = args[2] if len(args) > 2 else kwargs.get("blocks", ())
    counts["gf.combine.mb"] += sum(_nbytes(b) for b in blocks) / MB


def _count_addmul(counts, args, kwargs, out):
    # GF.addmul(self, dst, coeff, src)
    counts["gf.combine.mb"] += _nbytes(args[3] if len(args) > 3 else kwargs.get("src")) / MB


def _count_scale(counts, args, kwargs, out):
    # GF.scale(self, coeff, src)
    counts["gf.combine.mb"] += _nbytes(args[2] if len(args) > 2 else kwargs.get("src")) / MB


def _count_plane(counts, args, kwargs, out):
    # Backend.plane_matmul(self, mat, plane, field)
    counts["gf.plane.mb"] += _nbytes(args[2] if len(args) > 2 else kwargs.get("plane")) / MB


def _count_solve(counts, args, kwargs, out):
    # FluidSimulator.run(self, tasks, ...)
    tasks = args[1] if len(args) > 1 else kwargs.get("tasks", ())
    counts["simnet.solve.tasks"] += len(tasks)
    counts["simnet.solve.rate_updates"] += int(getattr(out, "n_rate_updates", 0))


#: (span name, "module:attr" or "module:Class.method", counter callback).
TARGETS = (
    ("gf.matmul", "repro.gf.matrix:gf_matmul", _count_matmul),
    ("gf.inv", "repro.gf.matrix:gf_inv", None),
    ("gf.combine", "repro.gf.field:GF.combine", _count_combine),
    ("gf.combine", "repro.gf.field:GF.addmul", _count_addmul),
    ("gf.combine", "repro.gf.field:GF.scale", _count_scale),
    ("gf.plane", "repro.gf.backend.native:NativeBackend.plane_matmul", _count_plane),
    ("gf.plane", "repro.gf.backend.numpy_backend:NumpyBackend.plane_matmul", _count_plane),
    ("gf.plane", "repro.gf.backend.isal:IsalBackend.plane_matmul", _count_plane),
    ("ec.encode", "repro.ec.rs:RSCode.encode", None),
    ("ec.decode", "repro.ec.rs:RSCode.decode", None),
    ("ec.repair_matrix", "repro.ec.rs:RSCode.repair_matrix", None),
    ("repair.split_search", "repro.repair.split:search_split", None),
    ("repair.planner", "repro.repair.centralized:plan_centralized", None),
    ("repair.planner", "repro.repair.independent:plan_independent", None),
    ("repair.planner", "repro.repair.hybrid:plan_hybrid", None),
    ("repair.planner", "repro.repair.mlf:plan_mlf", None),
    ("repair.planner", "repro.repair.rackaware:plan_rack_aware_hybrid", None),
    ("repair.planner", "repro.repair.selector:choose_scheme", None),
    ("repair.validate", "repro.repair.validate:validate_plan", None),
    ("repair.batch", "repro.repair.batch:BatchRepairEngine.repair_items", None),
    ("repair.batch", "repro.repair.batch:BatchRepairEngine.decode_batch", None),
    ("simnet.solve", "repro.simnet.fluid:FluidSimulator.run", _count_solve),
    ("system.write", "repro.system.coordinator:Coordinator.write", None),
    ("system.read", "repro.system.coordinator:Coordinator.read", None),
    ("system.update", "repro.system.coordinator:Coordinator.update", None),
    ("system.repair", "repro.system.coordinator:Coordinator.repair", None),
    ("system.plan", "repro.system.coordinator:Coordinator.plan_repair", None),
    ("system.serve", "repro.system.coordinator:Coordinator.serve", None),
    ("system.agent_ops", "repro.system.agent:run_plan_ops", None),
    ("sched.run_pending", "repro.sched.scheduler:RepairScheduler.run_pending", None),
    ("sched.estimate", "repro.sched.scheduler:RepairScheduler.estimate_finish_s", None),
    ("workload.serve", "repro.workload.serving:ServingPlane.run", None),
    ("workload.decode_chunked", "repro.workload.pipeline:decode_chunked", None),
    ("adaptive.engine", "repro.adaptive.engine:AdaptiveEngine.run", None),
    ("faults.runtime", "repro.faults.runtime:FaultRuntime.repair", None),
)

#: the spans each workload must record at least one call of; a rename in
#: ``src/`` then fails the traced run instead of silently reporting zeros.
REQUIRED_SPANS = {
    "repair-wide": (
        "gf.matmul", "gf.inv", "gf.combine", "ec.encode", "ec.decode",
        "ec.repair_matrix", "repair.split_search", "repair.planner",
        "repair.validate", "simnet.solve", "system.write", "system.read",
        "system.repair", "system.agent_ops",
    ),
    "plan-scale": (
        "repair.split_search", "repair.planner", "repair.validate",
        "simnet.solve", "system.plan",
    ),
    "serve-storm": (
        "gf.plane", "repair.batch", "simnet.solve", "sched.run_pending",
        "sched.estimate", "workload.serve", "workload.decode_chunked",
        "system.serve", "system.update",
    ),
    "repair-churn": (
        "gf.combine", "ec.encode", "repair.split_search", "simnet.solve",
        "system.write", "system.repair", "system.agent_ops",
        "adaptive.engine", "faults.runtime",
    ),
}


def _resolve(spec: str):
    """(owner, attr, original) for a ``module:attr`` / ``module:Class.attr`` spec."""
    mod_name, _, path = spec.partition(":")
    owner = importlib.import_module(mod_name)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    if cls_path:
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Span stack + counters over wrapped layer functions.

    ``spans`` holds ``[name, t0, t1, parent_index]`` rows in start order
    (``parent_index`` is -1 for a root span).  Counters accumulate bytes,
    tasks and other per-call work under metric-style names.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: ``[True]`` while a timed call runs; calls outside one (input
        #: building, output checks) record nothing.
        self.active = [False]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------ #
    def wrap(self, name: str, fn, count=None):
        """A wrapper recording one ``name`` span per (non-folded) call."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        active = self.active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not active[0] or (stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            row = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every target's bindings; :meth:`uninstall` reverts them."""
        for name, spec, count in TARGETS:
            owner, attr, original = _resolve(spec)
            wrapper = self.wrap(name, original, count)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # ------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------ #
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s``; plus ``probes``.

        ``probes`` on ``repair.split_search`` counts the ``simnet.solve``
        spans directly under a split search (one per candidate split).
        """
        return summarize(self.spans)

    def root_seconds(self) -> float:
        """Total duration of root spans (what the trace covers)."""
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)

    def chrome_trace(self, meta: dict | None = None) -> dict:
        """The spans as a Chrome/Perfetto ``traceEvents`` document."""
        base = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (t0 - base) * 1e6, "dur": (t1 - t0) * 1e6,
                "pid": 1, "tid": 1, "args": {"id": i, "parent": parent},
            }
            for i, (name, t0, t1, parent) in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": dict(meta or {})}

    def write_chrome_trace(self, path, meta: dict | None = None) -> None:
        """Write :meth:`chrome_trace` as JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(meta), fh)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Self-time arithmetic over ``[name, t0, t1, parent]`` span rows."""
    child_s = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    out: dict[str, dict[str, float]] = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "probes": 0})
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_s[i]
        # a parent starts before its children, so its row already exists
        if name == "simnet.solve" and parent >= 0 and spans[parent][0] == "repair.split_search":
            out["repair.split_search"]["probes"] += 1
    return out
