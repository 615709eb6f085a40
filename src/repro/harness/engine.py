"""Parallel experiment engine: evaluate plans over a process pool.

The engine takes an :class:`~repro.harness.plans.ExperimentPlan`,
evaluates every cell -- in-process for ``workers=1``, over a
``ProcessPoolExecutor`` otherwise -- and merges the per-cell values back
into a :class:`~repro.harness.tables.ResultTable`.  There is one
execution path: the paper's tables and the explorer's source sweeps
(:func:`run_source_sweep`) are both plans run by :func:`run_plan`, and
every cell names its trace by one trace-source spec.

Determinism: cell values depend only on the cell (trace content and
machine timing are fully deterministic), and the merge harmonic-means
grouped values in *plan order*, never in completion order.  Parallel
output is therefore bit-identical to serial output.

Persistence: when given a :class:`~repro.trace.DiskCache`, the parent
looks up each cell result by content hash (:func:`cell_key`) once,
before any fan-out: hits become outcomes on the spot, and only the
groups with a miss are evaluated -- in-process when one group misses,
over a pool otherwise -- so a fully warm table forks nothing.
Evaluation resolves each trace once per process (:func:`_resolve_trace`)
and stores whatever it had to compute.  A corrupted or missing entry is
indistinguishable from a cold cache -- it only costs time (and is
counted: corruption rebuilds surface in the metrics and the footer).  A
``file:`` archive can change under the same path, so its traces and
results are never memoised or stored.

Observability: every evaluation aggregates structured metrics
(:mod:`repro.obs.metrics`) -- per-cell wall time, queue wait, cache
hit/miss/corruption counts, per-worker utilization -- and, with
``observe=True``, records a span trace (plan -> cell -> simulate/limits)
and writes a durable run manifest next to the cache entries
(:mod:`repro.obs.manifest`).  Workers ship their measurements back inside
each :class:`CellOutcome` (plain picklable data); the parent merges, so
no cross-process state is ever shared.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from datetime import datetime, timezone
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core import config_by_name, fastpath
from ..core.registry import build_simulator
from ..limits import compute_limits
from ..obs import (
    TELEMETRY_PREFIX,
    MetricsRegistry,
    RunManifest,
    Tracer,
    current_git_sha,
    new_run_id,
    write_manifest,
)
from ..trace import GLOBAL_TRACE_CACHE, DiskCache, Trace, default_cache_dir
from ..trace.sources import trace_source
from .aggregate import arithmetic_mean, harmonic_mean
from .plans import Cell, ExperimentPlan, kernel_identity, plan_sources
from .progress import ProgressCallback, ProgressEvent
from .tables import ResultTable

#: Bump to invalidate previously stored cell results after a change to
#: the timing models or the record schema.  v2: cell records carry the
#: result's ``detail`` mapping (fast-path ``tlm.*`` telemetry included).
RESULT_SCHEMA_VERSION = 2

#: DiskCache counter key -> metric name published per cell.
_CACHE_METRIC_NAMES = {
    "trace_hits": "cache.trace.hits",
    "trace_misses": "cache.trace.misses",
    "trace_corruptions": "cache.trace.corruptions",
    "result_hits": "cache.result.hits",
    "result_misses": "cache.result.misses",
    "result_corruptions": "cache.result.corruptions",
}

def _fastpath_deltas(
    before: Mapping[str, int], after: Mapping[str, int]
) -> Dict[str, float]:
    """Non-zero ``fastpath.stats()`` deltas as ``fastpath.*`` metrics.

    Every counter the stats expose is published -- including the
    per-backend keys (``python.fast_runs``, ``batch.sweeps``, ...), so
    manifests attribute fast runs to the backend that served them.
    """
    deltas: Dict[str, float] = {}
    for key, value in after.items():
        delta = value - before.get(key, 0)
        if delta:
            deltas[f"fastpath.{key}"] = float(delta)
    return deltas


def _cache_deltas(
    cache: DiskCache, before: Mapping[str, int]
) -> Dict[str, float]:
    """Non-zero DiskCache counter changes since *before*, as ``cache.*``."""
    after = cache.counters()
    deltas: Dict[str, float] = {}
    for key, name in _CACHE_METRIC_NAMES.items():
        delta = after.get(key, 0) - before.get(key, 0)
        if delta:
            deltas[name] = float(delta)
    return deltas


def _add_metrics(into: Dict[str, float], deltas: Mapping[str, float]) -> None:
    for name, value in deltas.items():
        into[name] = into.get(name, 0.0) + value


def _fold_telemetry(into: Dict[str, float], record: Mapping[str, Any]) -> None:
    """Add a cell record's ``tlm.*`` detail entries to *into* as ``sim.*``.

    The rename marks the aggregation boundary: per-replay telemetry
    (``tlm.stall.RAW`` on one result) becomes a run-level counter
    (``sim.stall.RAW`` summed over every cell), alongside the
    ``cache.*`` / ``fastpath.*`` counters in manifests and
    ``repro stats``.
    """
    detail = record.get("detail")
    if not detail:
        return
    plen = len(TELEMETRY_PREFIX)
    for key, value in detail.items():
        if key.startswith(TELEMETRY_PREFIX):
            name = "sim." + key[plen:]
            into[name] = into.get(name, 0.0) + float(value)


def default_workers() -> int:
    """Default fan-out width: one worker per CPU."""
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------

def trace_key(loop: int, n: int) -> Dict[str, Any]:
    """Identity of a verified dynamic trace (scheduled, no unrolling)."""
    return {
        "kind": "trace",
        "loop": loop,
        "n": n,
        "schedule": True,
        "unroll": 1,
        "explicit_addressing": False,
    }


def cell_key(cell: Cell) -> Optional[Dict[str, Any]]:
    """Identity of one cell result (table/row/column independent).

    A kernel cell (``kernel:<loop>:n=<n>``) keys on its trace identity
    (:func:`trace_key`); a cell over any other source keys on the
    normalised spec, so equivalent spellings share an entry.  ``None``
    for a ``file:`` archive, whose results are never stored: the path's
    content can change.
    """
    if cell.loop:
        key = trace_key(cell.loop, cell.n)
        key.update({
            "kind": "cell",
            "machine": cell.machine,
            "config": cell.config,
            "serial": cell.serial,
            "schema": RESULT_SCHEMA_VERSION,
        })
        return key
    if cell.source.startswith("file:"):
        return None
    return {
        "kind": "source-cell",
        "machine": cell.machine,
        "source": cell.source,
        "config": cell.config,
        "schema": RESULT_SCHEMA_VERSION,
    }


# ----------------------------------------------------------------------
# Cell lookup (in the parent) and evaluation (in-process or in workers;
# everything evaluation takes and returns must be picklable)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CellOutcome:
    """What evaluating one cell produced (plus bookkeeping).

    ``started``/``ended`` and the span endpoints are ``time.monotonic()``
    readings; with the default ``fork`` start method that clock is
    system-wide, so the parent can nest worker spans directly under its
    own run trace.
    """

    index: int
    values: Mapping[str, float]
    seconds: float
    result_hit: bool
    trace_source: str  # "memo" | "disk" | "built" | "cached-result"
    pid: int = 0
    queue_wait: float = 0.0
    started: float = 0.0
    ended: float = 0.0
    spans: Tuple[Tuple[str, float, float], ...] = ()
    metrics: Mapping[str, float] = field(default_factory=dict)


#: Per-process DiskCache handle, set by the pool initializer.
_WORKER_CACHE: Optional[DiskCache] = None


def _pool_init(cache_dir: Optional[str]) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = DiskCache(cache_dir) if cache_dir is not None else None


def clear_process_memo() -> None:
    """Forget this process's in-memory traces (tests use this)."""
    GLOBAL_TRACE_CACHE.clear()


def _resolve_trace(
    source: str, cache: Optional[DiskCache]
) -> Tuple[Trace, str]:
    """The trace of *source* and where it came from.

    ``"memo"``: the process-wide trace memo
    (:data:`~repro.trace.GLOBAL_TRACE_CACHE`, keyed by the normalised
    spec; with the default ``fork`` start method pool workers inherit a
    snapshot and then extend their own copy).  ``"disk"``: a kernel
    trace's archive in *cache*.  ``"built"``: the trace-source registry,
    which verifies kernel traces against the NumPy reference; a built
    kernel trace is archived in *cache*.  Only kernel sources use the
    archives, and a ``file:`` archive is read afresh every time.
    """
    if source.startswith("file:"):
        return trace_source(source), "built"
    origin = "memo"

    def build() -> Trace:
        nonlocal origin
        loop, n = kernel_identity(source)
        key = trace_key(loop, n) if loop and cache is not None else None
        if key is not None:
            trace = cache.load_trace(key)
            if trace is not None:
                origin = "disk"
                return trace
        origin = "built"
        trace = trace_source(source)
        if key is not None:
            cache.store_trace(key, trace)
        return trace

    return GLOBAL_TRACE_CACHE.get_or_build(("source", source), build), origin


def _result_record(result: Any) -> Dict[str, Any]:
    """The stored shape of one simulation result."""
    return {
        "trace": result.trace_name,
        "simulator": result.simulator,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "detail": dict(result.detail or {}),
    }


def _values_from_record(cell: Cell, record: Mapping[str, Any]) -> Dict[str, float]:
    if cell.is_limits:
        limits = record["limits"]
        return {column: float(limits[column]) for column in cell.columns}
    if cell.metric != "rate":
        # Detail-backed metric (prediction_accuracy, vp_accuracy, ...).
        # A record missing the key raises KeyError, which the lookup
        # treats exactly like a corrupt entry: recompute and overwrite.
        detail = record.get("detail") or {}
        return {cell.columns[0]: float(detail[cell.metric])}
    rate = int(record["instructions"]) / int(record["cycles"])
    return {cell.columns[0]: rate}


def _lookup_results(
    group: List[Tuple[int, Cell]], cache: Optional[DiskCache]
) -> Tuple[List[CellOutcome], List[Tuple[int, Cell]], Dict[str, float]]:
    """Look each cell's stored result up once, in the calling process.

    The engine's only result-store read, run in the parent before any
    fan-out.  A record that cannot be decoded is a miss like an absent
    or corrupt entry: it is recomputed and overwritten.  A cell without
    a :func:`cell_key` (``file:``) misses without a lookup.  Returns
    ``(hits, misses, miss_metrics)``: the misses in input order and
    their lookups' ``cache.*`` counter deltas summed.  Without a cache
    every cell misses.
    """
    if cache is None:
        return [], list(group), {}
    hits: List[CellOutcome] = []
    misses: List[Tuple[int, Cell]] = []
    miss_metrics: Dict[str, float] = {}
    for index, cell in group:
        key = cell_key(cell)
        if key is None:
            misses.append((index, cell))
            continue
        started = time.monotonic()
        before = cache.counters()
        record = cache.load_result(key)
        metrics = _cache_deltas(cache, before)
        if record is not None:
            try:
                values = _values_from_record(cell, record)
                hit_metrics = dict(metrics)
                _fold_telemetry(hit_metrics, record)
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                pass
            else:
                ended = time.monotonic()
                hits.append(CellOutcome(
                    index=index,
                    values=values,
                    seconds=ended - started,
                    result_hit=True,
                    trace_source="cached-result",
                    pid=os.getpid(),
                    started=started,
                    ended=ended,
                    metrics=hit_metrics,
                ))
                continue
        _add_metrics(miss_metrics, metrics)
        misses.append((index, cell))
    return hits, misses, miss_metrics


def evaluate_sweep(
    group: List[Tuple[int, Cell]],
    cache: Optional[DiskCache],
    *,
    backend: str = "auto",
    enqueued: Optional[float] = None,
    metrics: Optional[Mapping[str, float]] = None,
) -> List[CellOutcome]:
    """Compute same-trace cells as one fast-path sweep.

    Every cell in *group* must share one source; a limits cell has no
    machine to sweep and comes alone.  The result store is not read: the
    engine looks every cell up in the parent before any fan-out and
    hands over only the misses, with their lookups' counter deltas as
    *metrics*.  The cells share one trace resolution and one
    :func:`repro.core.fastpath.simulate_sweep` call through *backend* --
    gating is per sweep member, so a hooked or fast-path-disabled member
    still runs its reference loop and the merged table stays
    bit-identical to per-cell evaluation.  Every result with a
    :func:`cell_key` is stored in *cache*, if given.

    *enqueued* is the parent's ``time.monotonic()`` reading when the
    group was handed out; the difference to the start here is the
    group's queue wait.  The group's metric deltas (lookup and trace
    cache counters, fast-path counters, telemetry) ride on the first
    outcome; the wall time is split evenly across the cells so run
    totals still add up.
    """
    started = time.monotonic()
    start = time.perf_counter()
    queue_wait = max(0.0, started - enqueued) if enqueued is not None else 0.0
    counters_before = cache.counters() if cache is not None else None
    fastpath_before = fastpath.stats()
    spans: List[Tuple[str, float, float]] = []
    first = group[0][1]
    mark = time.monotonic()
    trace, origin = _resolve_trace(first.source, cache)
    spans.append((f"trace:resolve:{first.loop}", mark, time.monotonic()))
    mark = time.monotonic()
    if first.is_limits:
        report = compute_limits(
            trace, config_by_name(first.config), serial=first.serial
        )
        spans.append(("limits", mark, time.monotonic()))
        records = [{
            "limits": {
                "pseudo-dataflow": report.pseudo_dataflow_rate,
                "resource": report.resource_rate,
                "actual": report.actual_rate,
            }
        }]
    else:
        items = [
            (build_simulator(cell.machine), config_by_name(cell.config))
            for _, cell in group
        ]
        results = fastpath.simulate_sweep(trace, items, backend=backend)
        spans.append(
            (f"sweep:{first.loop}x{len(group)}", mark, time.monotonic())
        )
        records = [_result_record(result) for result in results]

    shared = dict(metrics or {})
    if counters_before is not None:
        _add_metrics(shared, _cache_deltas(cache, counters_before))
    shared.update(_fastpath_deltas(fastpath_before, fastpath.stats()))
    for (_, cell), record in zip(group, records):
        key = cell_key(cell) if cache is not None else None
        if key is not None:
            cache.store_result(key, record)
        _fold_telemetry(shared, record)

    ended = time.monotonic()
    share = (time.perf_counter() - start) / len(group)
    return [
        CellOutcome(
            index=index,
            values=_values_from_record(cell, record),
            seconds=share,
            result_hit=False,
            trace_source=origin if position == 0 else "memo",
            pid=os.getpid(),
            queue_wait=queue_wait if position == 0 else 0.0,
            started=started,
            ended=ended,
            spans=tuple(spans) if position == 0 else (),
            metrics=shared if position == 0 else {},
        )
        for position, ((index, cell), record) in enumerate(zip(group, records))
    ]


def _run_in_pool(task: Mapping[str, Any]) -> List[CellOutcome]:
    return evaluate_sweep(cache=_WORKER_CACHE, **task)


def _fan_out(
    tasks: List[Dict[str, Any]],
    cache: Optional[DiskCache],
    workers: int,
    collect: Callable[[List[CellOutcome]], None],
) -> None:
    """Call ``evaluate_sweep(cache=cache, **task)`` once per task.

    In-process when ``workers == 1`` or at most one task; otherwise over
    a pool of ``min(workers, len(tasks))`` processes, each with its own
    handle on *cache*'s root.  ``collect(outcomes)`` runs in the parent
    as each task completes (completion order under a pool), so progress
    streams while the pool is still busy.
    """
    if workers == 1 or len(tasks) <= 1:
        for task in tasks:
            collect(evaluate_sweep(cache=cache, **task))
        return
    cache_dir = str(cache.root) if cache is not None else None
    with ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        initializer=_pool_init,
        initargs=(cache_dir,),
    ) as pool:
        futures = [pool.submit(_run_in_pool, task) for task in tasks]
        for future in as_completed(futures):
            collect(future.result())


# ----------------------------------------------------------------------
# Deterministic merge + stats
# ----------------------------------------------------------------------

@dataclass
class EngineStats:
    """Run accounting: the footer of every engine invocation."""

    table_id: str
    cells: int
    workers: int
    wall_seconds: float = 0.0
    cell_seconds: float = 0.0
    max_cell_seconds: float = 0.0
    result_hits: int = 0
    traces_built: int = 0
    traces_loaded: int = 0
    cache_enabled: bool = False
    corrupt_rebuilds: int = 0
    queue_wait_seconds: float = 0.0
    worker_utilization: Dict[int, float] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def result_misses(self) -> int:
        return self.cells - self.result_hits

    @property
    def cache_hit_rate(self) -> Optional[float]:
        return self.result_hits / self.cells if self.cells else None

    @property
    def mean_worker_utilization(self) -> float:
        if not self.worker_utilization:
            return 0.0
        values = self.worker_utilization.values()
        return sum(values) / len(values)

    def footer(self) -> str:
        if self.cache_enabled:
            cache = (
                f"result cache {self.result_hits} hit / "
                f"{self.result_misses} miss; traces {self.traces_built} "
                f"built, {self.traces_loaded} loaded"
            )
            if self.corrupt_rebuilds:
                cache += f"; {self.corrupt_rebuilds} corrupt rebuilt"
        else:
            cache = "cache disabled"
        return (
            f"[{self.table_id}: {self.cells} cells in "
            f"{self.wall_seconds:.1f}s wall / {self.cell_seconds:.1f}s cell "
            f"time (max {self.max_cell_seconds:.2f}s), "
            f"workers={self.workers}; {cache}]"
        )


@dataclass(frozen=True)
class PlanRun:
    """A finished plan evaluation: the table plus its run statistics."""

    table: ResultTable
    stats: EngineStats
    manifest: Optional[RunManifest] = None


def merge_outcomes(
    plan: ExperimentPlan, outcomes: List[CellOutcome]
) -> ResultTable:
    """Assemble the table from cell outcomes, in plan order.

    Grouped values are harmonic-meaned in cell order (class loop order),
    matching the paper's per-class aggregation exactly -- and making the
    merge independent of completion order.  Columns named in the plan's
    ``aggregators`` fold with the arithmetic mean instead (accuracies);
    with ``speedup_base`` set, the ``speedup_columns`` means are divided
    by the row's base-column mean after folding.  A group of one value
    (every cell of a source sweep) passes through unchanged.
    """
    grouped: Dict[Tuple[str, str], List[float]] = {}
    for outcome in sorted(outcomes, key=lambda o: o.index):
        cell = plan.cells[outcome.index]
        for column, value in outcome.values.items():
            grouped.setdefault((cell.row, column), []).append(value)
    folds = dict(plan.aggregators)
    rows = []
    for row in plan.rows:
        values = {}
        for column in plan.columns:
            if (row, column) not in grouped:
                continue
            samples = grouped[(row, column)]
            if len(samples) == 1:
                # Its own mean, exactly: 1 / (1 / x) can be an ulp off,
                # and a source sweep's rates must pass through unrounded.
                values[column] = samples[0]
            elif folds.get(column) == "amean":
                values[column] = arithmetic_mean(samples)
            else:
                values[column] = harmonic_mean(samples)
        if plan.speedup_base is not None:
            base = values.get(plan.speedup_base)
            if base:
                for column in plan.speedup_columns:
                    if column in values:
                        values[column] = values[column] / base
        rows.append((row, values))
    return ResultTable(
        table_id=plan.table_id,
        title=plan.title,
        columns=plan.columns,
        rows=tuple(rows),
    )


def _aggregate_metrics(
    plan: ExperimentPlan,
    outcomes: List[CellOutcome],
    wall_seconds: float,
    workers: int,
    cache_enabled: bool,
) -> MetricsRegistry:
    """Fold per-cell measurements into one run-level registry."""
    registry = MetricsRegistry()
    registry.inc("engine.cells.total", len(outcomes))
    registry.inc(
        "engine.cells.result_hits",
        sum(1 for o in outcomes if o.result_hit),
    )
    registry.set_gauge("engine.workers", workers)
    registry.set_gauge("engine.wall_seconds", wall_seconds)
    registry.set_gauge("engine.cache_enabled", 1.0 if cache_enabled else 0.0)
    busy_by_pid: Dict[int, float] = {}
    for outcome in outcomes:
        for name, value in outcome.metrics.items():
            registry.inc(name, value)
        registry.inc("engine.cell.seconds_total", outcome.seconds)
        registry.inc("engine.queue.wait_seconds_total", outcome.queue_wait)
        registry.observe("engine.cell.seconds", outcome.seconds)
        registry.observe("engine.queue.wait_seconds", outcome.queue_wait)
        busy_by_pid[outcome.pid] = (
            busy_by_pid.get(outcome.pid, 0.0) + outcome.seconds
        )
    for pid, busy in sorted(busy_by_pid.items()):
        utilization = busy / wall_seconds if wall_seconds > 0 else 0.0
        registry.set_gauge(f"worker.{pid}.busy_seconds", busy)
        registry.set_gauge(f"worker.{pid}.utilization", utilization)
    return registry


def _worker_utilization(
    outcomes: List[CellOutcome], wall_seconds: float
) -> Dict[int, float]:
    busy: Dict[int, float] = {}
    for outcome in outcomes:
        busy[outcome.pid] = busy.get(outcome.pid, 0.0) + outcome.seconds
    if wall_seconds <= 0:
        return {pid: 0.0 for pid in busy}
    return {pid: seconds / wall_seconds for pid, seconds in busy.items()}


def _build_manifest(
    plan: ExperimentPlan,
    outcomes: List[CellOutcome],
    stats: EngineStats,
    registry: MetricsRegistry,
    run_started: float,
    run_ended: float,
) -> RunManifest:
    """Assemble the span trace and the durable run manifest."""
    tracer = Tracer()
    root = tracer.adopt(
        f"plan:{plan.table_id}", run_started, run_ended,
        pid=os.getpid(), cells=len(plan.cells), workers=stats.workers,
    )
    for outcome in sorted(outcomes, key=lambda o: o.index):
        cell = plan.cells[outcome.index]
        cell_span = tracer.adopt(
            f"cell:{cell.loop}/{cell.machine}/{cell.config}",
            outcome.started,
            outcome.ended,
            parent_id=root.span_id,
            pid=outcome.pid,
            loop=cell.loop,
            machine=cell.machine,
            config=cell.config,
            row=cell.row,
            result_hit=outcome.result_hit,
            trace_source=outcome.trace_source,
            queue_wait=round(outcome.queue_wait, 6),
        )
        for name, span_start, span_end in outcome.spans:
            tracer.adopt(
                name, span_start, span_end,
                parent_id=cell_span.span_id, pid=outcome.pid,
            )
    return RunManifest(
        run_id=new_run_id(plan.table_id),
        table_id=plan.table_id,
        # Microsecond resolution so back-to-back runs still list in
        # creation order (list_manifests sorts on this field).
        created=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ"),
        git_sha=current_git_sha(),
        config={
            "workers": stats.workers,
            "cache_enabled": stats.cache_enabled,
            "cells": stats.cells,
            "schema_version": RESULT_SCHEMA_VERSION,
        },
        timings={
            "wall_seconds": stats.wall_seconds,
            "cell_seconds": stats.cell_seconds,
            "max_cell_seconds": stats.max_cell_seconds,
            "queue_wait_seconds": stats.queue_wait_seconds,
        },
        metrics=registry.snapshot(),
        spans=tracer.to_payload(),
    )


def _sweep_groups(
    plan: ExperimentPlan,
) -> List[Tuple[bool, List[Tuple[int, Cell]]]]:
    """Partition plan cells into sweep groups.

    Simulator cells sharing a source -- the same dynamic trace -- form
    one sweep group; limits cells stay singletons (they have no
    machine to sweep).  Returns ``(is_sweep, [(index, cell), ...])``
    pairs in first-appearance order; the deterministic merge sorts by
    cell index, so grouping never changes the table.
    """
    groups: List[Tuple[bool, List[Tuple[int, Cell]]]] = []
    by_trace: Dict[str, List[Tuple[int, Cell]]] = {}
    for index, cell in enumerate(plan.cells):
        if cell.is_limits:
            groups.append((False, [(index, cell)]))
            continue
        bucket = by_trace.get(cell.source)
        if bucket is None:
            by_trace[cell.source] = bucket = []
            groups.append((True, bucket))
        bucket.append((index, cell))
    return groups


def run_plan(
    plan: ExperimentPlan,
    *,
    workers: Optional[int] = None,
    cache: Optional[DiskCache] = None,
    observe: bool = False,
    backend: str = "auto",
    progress: Optional[ProgressCallback] = None,
) -> PlanRun:
    """Evaluate every cell of *plan* and merge deterministically.

    Every cell is first looked up in *cache*, here in the parent; hits
    need no further work.  Only the groups with a miss are evaluated:
    in-process when ``workers=1`` or at most one group misses, otherwise
    over a ``ProcessPoolExecutor`` of ``min(workers, missing groups)``
    processes -- a fully warm table forks nothing.  Simulator cells
    sharing a trace are evaluated as one fast-path sweep through
    *backend* (``"auto"`` resolves to the batch backend; see
    :mod:`repro.core.fastpath`) -- per-cell lookups and gating are
    preserved, so the table is bit-identical to per-cell evaluation.
    *cache* is optional: without it the engine is a pure compute path.
    With ``observe=True`` the run also records a span trace and writes a
    :class:`~repro.obs.manifest.RunManifest` under the cache root
    (``<root>/manifests``), returned on the :class:`PlanRun`.

    *progress* receives one :class:`~repro.harness.progress.ProgressEvent`
    per completed cell, in the parent process, as results arrive
    (completion order across groups; plan order within a group).  The
    merge stays deterministic regardless.
    """
    workers = default_workers() if workers is None else max(1, int(workers))
    run_started = time.monotonic()
    start = time.perf_counter()

    total = len(plan.cells)
    completed = 0
    outcomes: List[CellOutcome] = []

    def collect(batch: List[CellOutcome]) -> None:
        nonlocal completed
        outcomes.extend(batch)
        if progress is None:
            completed += len(batch)
            return
        for outcome in sorted(batch, key=lambda o: o.index):
            completed += 1
            cell = plan.cells[outcome.index]
            progress(ProgressEvent(
                table_id=plan.table_id,
                completed=completed,
                total=total,
                index=outcome.index,
                loop=cell.loop,
                machine="" if cell.is_limits else cell.machine,
                config=cell.config,
                row=cell.row,
                seconds=outcome.seconds,
                result_hit=outcome.result_hit,
                pid=outcome.pid,
            ))

    tasks = []
    for _, group in _sweep_groups(plan):
        hits, misses, metrics = _lookup_results(group, cache)
        collect(hits)
        if misses:
            tasks.append(dict(
                group=misses,
                metrics=metrics,
                backend=backend,
                enqueued=time.monotonic(),
            ))
    _fan_out(tasks, cache, workers, collect)

    table = merge_outcomes(plan, outcomes)
    run_ended = time.monotonic()
    wall_seconds = time.perf_counter() - start
    registry = _aggregate_metrics(
        plan, outcomes, wall_seconds, workers, cache is not None
    )
    stats = EngineStats(
        table_id=plan.table_id,
        cells=len(plan.cells),
        workers=workers,
        wall_seconds=wall_seconds,
        cell_seconds=sum(o.seconds for o in outcomes),
        max_cell_seconds=max((o.seconds for o in outcomes), default=0.0),
        result_hits=sum(1 for o in outcomes if o.result_hit),
        traces_built=sum(1 for o in outcomes if o.trace_source == "built"),
        traces_loaded=sum(1 for o in outcomes if o.trace_source == "disk"),
        cache_enabled=cache is not None,
        corrupt_rebuilds=int(
            registry.value("cache.result.corruptions")
            + registry.value("cache.trace.corruptions")
        ),
        queue_wait_seconds=sum(o.queue_wait for o in outcomes),
        worker_utilization=_worker_utilization(outcomes, wall_seconds),
        metrics=registry.snapshot(),
    )

    manifest: Optional[RunManifest] = None
    if observe:
        manifest = _build_manifest(
            plan, outcomes, stats, registry, run_started, run_ended
        )
        root = cache.root if cache is not None else default_cache_dir()
        write_manifest(manifest, root)
    return PlanRun(table=table, stats=stats, manifest=manifest)


# ----------------------------------------------------------------------
# Source sweeps: exact (machine spec x trace source) evaluation
# ----------------------------------------------------------------------

def run_source_sweep(
    specs: List[str],
    sources: List[str],
    *,
    config: str = "M11BR5",
    workers: Optional[int] = None,
    cache: Optional[DiskCache] = None,
    backend: str = "auto",
    label: str = "source-sweep",
    progress: Optional[ProgressCallback] = None,
) -> PlanRun:
    """Simulate every machine spec against every trace source, exactly.

    The explorer's verification stage: :func:`run_plan` over
    :func:`~repro.harness.plans.plan_sources` -- one row per source, one
    column per spec, one rate cell each -- so all specs replay a
    source's trace in one fast-path sweep, hits are answered in the
    parent, and only sources with a miss are simulated.  Read a rate
    with ``run.table.value(source, spec)``.  *sources* must be
    normalised spec strings; *progress* events carry the source in the
    ``row`` field.
    """
    return run_plan(
        plan_sources(specs, sources, config=config, label=label),
        workers=workers, cache=cache, backend=backend, progress=progress,
    )
