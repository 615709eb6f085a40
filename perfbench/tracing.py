"""Layer spans for the benchmark's traced passes.

The traced pass wraps the public functions of each ``repro`` layer from
here, outside the program: nothing under ``src/`` knows it is traced.
Every wrapped call records a span (id, parent, op, pid, key, start,
end, attributes).  Spans opened in the parent are inherited by the
engine's forked pool workers, so a worker span's parent is the
``run_plan`` span that forked it and its op is the op that was running.
Workers append their spans to one file each whenever they return to
the depth they were forked at (once per pool task), because forked
pool workers leave through ``os._exit`` and never run ``atexit``.

:func:`account` turns the spans of one pass into wall-clock self time
per span key.  At each instant the innermost running spans across all
processes share the instant equally; a span with a running descendant
(in any process) gets none of it, and an instant with no layer span
running is ``other``.  The shares therefore add up to the traced wall
exactly, even while two pool workers run at once.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

#: One finished span: (id, parent id, op id, pid, key, start, end, attrs).
Span = Tuple[str, Optional[str], Optional[str], int, str, float, float, Any]

#: Program counters compared against the outside counts.
FASTPATH_COUNTERS = ("compiles", "batch.fallback_runs", "python.fast_runs")


class Recorder:
    """Open and finished spans of one process (and, after fork, a worker)."""

    def __init__(self, spans_dir: Path) -> None:
        self.spans_dir = Path(spans_dir)
        self.pid = os.getpid()
        self.stack: List[str] = []
        self.spans: List[Span] = []
        self.serial = 0
        self.fork_depth: Optional[int] = None  # set in forked workers
        self.counters_base: Dict[str, int] = {}
        self._stats: Callable[[], Mapping[str, int]] = dict
        self._fd: Optional[int] = None
        #: id(trace) -> weak reference, mirroring the compile cache's key.
        self.compiled: Dict[int, "weakref.ref"] = {}

    def bind_counters(self, stats: Callable[[], Mapping[str, int]]) -> None:
        self._stats = stats
        self.counters_base = dict(stats())
        os.register_at_fork(after_in_child=self._after_fork)

    def counter_deltas(self) -> Dict[str, int]:
        now = self._stats()
        return {key: now[key] - self.counters_base.get(key, 0) for key in now}

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.serial = 0
        self.fork_depth = len(self.stack)
        self.counters_base = dict(self._stats())
        self._fd = None

    # -- spans -----------------------------------------------------------

    def begin(self) -> Tuple[str, Optional[str], Optional[str]]:
        self.serial += 1
        span_id = f"{self.pid}.{self.serial}"
        parent = self.stack[-1] if self.stack else None
        op = self.stack[0] if self.stack else span_id
        self.stack.append(span_id)
        return span_id, parent, op

    def end(self, opened, key: str, start: float, end: float, attrs) -> None:
        span_id, parent, op = opened
        self.stack.pop()
        self.spans.append((span_id, parent, op, self.pid, key, start, end, attrs))
        if self.fork_depth is not None and len(self.stack) == self.fork_depth:
            self._flush()

    def _flush(self) -> None:
        if self._fd is None:
            path = self.spans_dir / f"spans-{self.pid}-{time.monotonic_ns()}.jsonl"
            self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        line = json.dumps({
            "pid": self.pid,
            "spans": self.spans,
            "counters": self.counter_deltas(),
        })
        os.write(self._fd, (line + "\n").encode())
        self.spans = []

    def collect_workers(self) -> Tuple[List[Span], Dict[str, int]]:
        """Spans and summed counter deltas flushed by pool workers."""
        spans: List[Span] = []
        counters: Counter = Counter()
        for path in sorted(self.spans_dir.glob("spans-*.jsonl")):
            last: Mapping[str, int] = {}
            for line in path.read_text().splitlines():
                record = json.loads(line)
                spans.extend(tuple(span) for span in record["spans"])
                last = record["counters"]
            counters.update(last)
        return spans, dict(counters)


def _wrap(recorder: Recorder, key: str, fn, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        opened = recorder.begin()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.end(opened, key, start, time.perf_counter(), None)
            raise
        finished = time.perf_counter()
        attrs = note(args, kwargs, result) if note is not None else None
        recorder.end(opened, key, start, finished, attrs)
        return result

    return wrapper


def _patch_everywhere(original, wrapper) -> int:
    """Rebind *original* to *wrapper* in every loaded ``repro`` module.

    ``from x import f`` copies the binding, so each importing module's
    name has to be replaced; lazy imports inside functions read the
    defining module's attribute at call time and see the wrapper too.
    """
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
    return count


def install(recorder: Recorder) -> None:
    """Wrap every layer's public entry points (call before any op runs)."""
    import repro.api  # noqa: F401 -- loads every layer module
    from repro.core import fastpath
    from repro.core.base import Simulator
    from repro.core.fastpath import ir
    from repro.explore import build_anchors, screen_space, simulate_specs
    from repro.harness.engine import run_plan, run_source_sweep
    from repro.harness.plans import build_plan
    from repro.kernels.common import KernelInstance
    from repro.limits import compute_limits
    from repro.limits.dataflow import pseudo_dataflow_schedule
    from repro.limits.resource import resource_limit
    from repro.obs.manifest import write_manifest
    from repro.trace.diskcache import DiskCache
    from repro.trace.sources import trace_source
    from repro.verify.fuzz import fuzz_trace
    from repro.verify.invariants import check_invariants
    from repro.verify.oracle import run_oracle

    recorder.bind_counters(fastpath.stats)

    def compile_note(args, kwargs, result):
        trace = args[0] if args else kwargs["trace"]
        seen = recorder.compiled.get(id(trace))
        hit = seen is not None and seen() is trace
        if not hit:
            recorder.compiled[id(trace)] = weakref.ref(trace)
        return hit

    def sweep_note(args, kwargs, results):
        return [len(results), sum(r.instructions for r in results)]

    def items_note(args, kwargs, results):
        return len(results)

    def found_note(args, kwargs, result):
        return result is not None

    def specs_note(args, kwargs, result):
        return len(args[0] if args else kwargs["specs"])

    def screen_note(args, kwargs, result):
        return result.total

    functions = (
        ("trace.source", trace_source, None),
        ("ir.compile", ir.compile_trace, compile_note),
        ("fastpath.sweep", fastpath.simulate_sweep, sweep_note),
        ("limits.compute", compute_limits, None),
        ("limits.dataflow", pseudo_dataflow_schedule, None),
        ("limits.resource", resource_limit, None),
        ("harness.plan", build_plan, None),
        ("harness.run", run_plan, None),
        ("harness.run", run_source_sweep, None),
        ("obs.manifest", write_manifest, None),
        ("verify.fuzz", fuzz_trace, None),
        ("verify.invariants", check_invariants, None),
        ("verify.oracle", run_oracle, None),
        ("explore.anchors", build_anchors, None),
        ("explore.screen", screen_space, screen_note),
        ("explore.exact", simulate_specs, specs_note),
    )
    for key, original, note in functions:
        if not _patch_everywhere(original, _wrap(recorder, key, original, note)):
            raise RuntimeError(f"no binding of {original.__qualname__} to trace")

    methods = [
        (KernelInstance, "trace", "kernels.trace", None),
        (KernelInstance, "verify", "kernels.build", None),
        (DiskCache, "load_trace", "trace.load_trace", found_note),
        (DiskCache, "load_result", "trace.load_result", found_note),
        (DiskCache, "store_trace", "trace.store_trace", None),
        (DiskCache, "store_result", "trace.store_result", None),
        (fastpath.PythonBackend, "simulate_sweep", "fastpath.fallback", items_note),
        (fastpath.PythonBackend, "simulate", "fastpath.python", None),
        (Simulator, "simulate_observed", "core.observed", None),
    ]
    pending = [Simulator]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "reference_simulate" in vars(cls):
            methods.append((cls, "reference_simulate", "core.reference", None))
    for owner, attr, key, note in methods:
        original = vars(owner)[attr]
        setattr(owner, attr, _wrap(recorder, key, original, note))

    # Machines dispatch to their compiled loop through the package
    # attribute (``fastpath.simulate_ruu_fast``); the python backend
    # reaches the same loops through its own table, via
    # ``PythonBackend.simulate`` wrapped above.
    for attr in dir(fastpath):
        if attr.startswith("simulate_") and attr.endswith("_fast"):
            original = getattr(fastpath, attr)
            setattr(fastpath, attr, _wrap(recorder, "fastpath.python", original))


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------

def account(
    spans: Iterable[Span], wall_start: float, wall_end: float
) -> Dict[str, float]:
    """Wall-clock self time per span key over [wall_start, wall_end].

    Returns key -> seconds plus ``"other"``; the values sum to
    ``wall_end - wall_start``.  Spans keyed ``"op"`` (the benchmark's
    own op spans) count as ``other``.
    """
    spans = list(spans)
    parent_of = {span[0]: span[1] for span in spans}
    key_of = {span[0]: span[4] for span in spans}
    ancestors: Dict[str, frozenset] = {}

    def ancestors_of(span_id: str) -> frozenset:
        found = ancestors.get(span_id)
        if found is None:
            chain = []
            parent = parent_of.get(span_id)
            while parent is not None:
                chain.append(parent)
                parent = parent_of.get(parent)
            found = ancestors[span_id] = frozenset(chain)
        return found

    events = []
    for span in spans:
        start, end = max(span[5], wall_start), min(span[6], wall_end)
        if end > start:
            events.append((start, 1, span[0]))
            events.append((end, 0, span[0]))
    events.sort()

    shares: Dict[str, float] = defaultdict(float)
    active: set = set()
    previous = wall_start

    def distribute(until: float) -> None:
        elapsed = until - previous
        if elapsed <= 0:
            return
        covered = set()
        for span_id in active:
            covered |= ancestors_of(span_id)
        leaves = [s for s in active if s not in covered and key_of[s] != "op"]
        if not leaves:
            shares["other"] += elapsed
            return
        for span_id in leaves:
            shares[key_of[span_id]] += elapsed / len(leaves)

    for moment, starting, span_id in events:
        distribute(moment)
        previous = max(previous, moment)
        if starting:
            active.add(span_id)
        else:
            active.discard(span_id)
    distribute(wall_end)
    shares.setdefault("other", 0.0)
    return dict(shares)


def outside_counts(spans: Iterable[Span]) -> Dict[str, float]:
    """What the wrappers saw, as counts named like the program's counters."""
    counts: Dict[str, float] = defaultdict(float)
    by_id = {}
    spans = list(spans)
    for span in spans:
        by_id[span[0]] = span
    for span_id, parent, _op, _pid, key, _start, _end, attrs in spans:
        counts[f"calls.{key}"] += 1
        if key == "ir.compile":
            counts["compiles" if not attrs else "compile_hits"] += 1
        elif key == "fastpath.fallback":
            counts["batch.fallback_runs"] += attrs or 0
        elif key == "fastpath.python":
            counts["python.fast_runs"] += 1
        elif key == "fastpath.sweep" and attrs:
            counts["sweep.members"] += attrs[0]
            counts["sweep.instructions"] += attrs[1]
        elif key in ("trace.load_trace", "trace.load_result"):
            kind = key.split("_")[1]
            counts[f"cache.{kind}.{'hits' if attrs else 'misses'}"] += 1
        elif key == "kernels.build":
            counts["traces_built"] += 1
        elif key == "core.reference":
            outer = by_id.get(parent)
            if outer is None or outer[4] != "core.reference":
                counts["reference_runs"] += 1
            if outer is not None and outer[4] == "fastpath.sweep":
                counts["sweep.gated"] += 1
        elif key.startswith("limits."):
            outer = by_id.get(parent)
            if outer is None or not outer[4].startswith("limits."):
                counts["limits.calls"] += 1
        elif key == "explore.exact":
            counts["explore.simulated"] += attrs or 0
        elif key == "explore.screen":
            counts["explore.screened"] += attrs or 0
    return dict(counts)


def sweep_seconds(spans: Iterable[Span]) -> float:
    """Inclusive time of the outermost ``simulate_sweep`` calls."""
    spans = list(spans)
    sweep_ids = {span[0] for span in spans if span[4] == "fastpath.sweep"}
    return sum(
        span[6] - span[5]
        for span in spans
        if span[4] == "fastpath.sweep" and span[1] not in sweep_ids
    )


def busy_seconds(spans: Iterable[Span], pid: int) -> float:
    """Time covered by any span of process *pid* (union of intervals)."""
    intervals = sorted((s[5], s[6]) for s in spans if s[3] == pid)
    total, reach = 0.0, float("-inf")
    for start, end in intervals:
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
