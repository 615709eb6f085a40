"""Parallel experiment engine: evaluate plans over a process pool.

The engine takes an :class:`~repro.harness.plans.ExperimentPlan`,
evaluates every cell -- in-process for ``workers=1``, over a
``ProcessPoolExecutor`` otherwise -- and merges the per-cell values back
into a :class:`~repro.harness.tables.ResultTable`.

Determinism: cell values depend only on the cell (trace content and
machine timing are fully deterministic), and the merge harmonic-means
grouped values in *plan order*, never in completion order.  Parallel
output is therefore bit-identical to serial output.

Persistence: when given a :class:`~repro.trace.DiskCache`, the parent
looks up each cell result by content hash once, before any fan-out:
hits become outcomes on the spot, and only the groups with a miss are
evaluated -- in-process when one group misses, over a pool otherwise --
so a fully warm table forks nothing.  Evaluation looks each trace up
by content hash before building it, and stores whatever it had to
compute.  A corrupted or missing entry is indistinguishable from a cold
cache -- it only costs time (and is counted: corruption rebuilds
surface in the metrics and the footer).

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
from ..trace import DiskCache, Trace, default_cache_dir
from ..trace.sources import trace_source
from .aggregate import arithmetic_mean, harmonic_mean
from .plans import Cell, ExperimentPlan
from .progress import ProgressCallback, ProgressEvent
from .tables import ResultTable

#: Bump to invalidate previously stored cell results after a change to
#: the timing models or the record schema.  v2: cell records carry the
#: result's ``detail`` mapping (fast-path ``tlm.*`` telemetry included).
RESULT_SCHEMA_VERSION = 2

_LIMIT_COLUMNS = ("pseudo-dataflow", "resource", "actual")

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


def _telemetry_metrics(record: Mapping[str, Any]) -> Dict[str, float]:
    """A cell record's ``tlm.*`` detail entries as ``sim.*`` metrics.

    The rename marks the aggregation boundary: per-replay telemetry
    (``tlm.stall.RAW`` on one result) becomes a run-level counter
    (``sim.stall.RAW`` summed over every cell), alongside the
    ``cache.*`` / ``fastpath.*`` counters in manifests and
    ``repro stats``.
    """
    detail = record.get("detail")
    if not detail:
        return {}
    plen = len(TELEMETRY_PREFIX)
    return {
        "sim." + key[plen:]: float(value)
        for key, value in detail.items()
        if key.startswith(TELEMETRY_PREFIX)
    }


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


def cell_key(cell: Cell) -> Dict[str, Any]:
    """Identity of one cell result (table/row/column independent)."""
    key = trace_key(cell.loop, cell.n)
    key.update({
        "kind": "cell",
        "machine": cell.machine,
        "config": cell.config,
        "serial": cell.serial,
        "schema": RESULT_SCHEMA_VERSION,
    })
    return key


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


#: Per-process trace memo: (loop, n) -> verified Trace.  With the default
#: ``fork`` start method child workers inherit a snapshot and then extend
#: their own copy.
_TRACE_MEMO: Dict[Tuple[int, int], Trace] = {}

#: Per-process DiskCache handle, set by the pool initializer.
_WORKER_CACHE: Optional[DiskCache] = None


def _pool_init(cache_dir: Optional[str]) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = DiskCache(cache_dir) if cache_dir is not None else None


def clear_process_memo() -> None:
    """Forget this process's in-memory trace memo (tests use this)."""
    _TRACE_MEMO.clear()


def _resolve_trace(
    loop: int, n: int, cache: Optional[DiskCache]
) -> Tuple[Trace, str]:
    memo_key = (loop, n)
    trace = _TRACE_MEMO.get(memo_key)
    if trace is not None:
        return trace, "memo"
    if cache is not None:
        trace = cache.load_trace(trace_key(loop, n))
        if trace is not None:
            _TRACE_MEMO[memo_key] = trace
            return trace, "disk"
    # The registry resolves kernel:<loop>:n=<n> to build_kernel(...)
    # .trace(), which verifies against the NumPy reference and memoises
    # in the process-wide trace cache as well.
    trace = trace_source(f"kernel:{loop}:n={n}")
    _TRACE_MEMO[memo_key] = trace
    if cache is not None:
        cache.store_trace(trace_key(loop, n), trace)
    return trace, "built"


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
    items: List[Any],
    cache: Optional[DiskCache],
    key: Callable[[Any], Mapping[str, Any]],
    hit: Callable[[Any, Mapping[str, Any], Dict[str, float], float], Any],
) -> Tuple[List[Any], List[Any], Dict[str, float]]:
    """Look each item's stored result up once, in the calling process.

    The engine's only result-store read, run in the parent before any
    fan-out by both :func:`run_plan` and :func:`run_source_sweep`.
    ``hit(item, record, metrics, started)`` turns a stored record into an
    outcome; *metrics* are the lookup's ``cache.*`` counter deltas and
    *started* its ``time.monotonic()`` start.  A record ``hit`` cannot
    decode is a miss like an absent or corrupt entry: it is recomputed
    and overwritten.  Returns ``(hits, misses, miss_metrics)``: the
    misses in input order and their lookups' counter deltas summed.
    Without a cache every item misses.
    """
    if cache is None:
        return [], list(items), {}
    hits: List[Any] = []
    misses: List[Any] = []
    miss_metrics: Dict[str, float] = {}
    for item in items:
        started = time.monotonic()
        before = cache.counters()
        record = cache.load_result(key(item))
        metrics = _cache_deltas(cache, before)
        if record is not None:
            try:
                hits.append(hit(item, record, metrics, started))
                continue
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                pass
        _add_metrics(miss_metrics, metrics)
        misses.append(item)
    return hits, misses, miss_metrics


def _cell_hit(
    item: Tuple[int, Cell],
    record: Mapping[str, Any],
    metrics: Dict[str, float],
    started: float,
) -> CellOutcome:
    index, cell = item
    values = _values_from_record(cell, record)
    ended = time.monotonic()
    return CellOutcome(
        index=index,
        values=values,
        seconds=ended - started,
        result_hit=True,
        trace_source="cached-result",
        pid=os.getpid(),
        started=started,
        ended=ended,
        metrics={**metrics, **_telemetry_metrics(record)},
    )


def evaluate_cell(
    index: int,
    cell: Cell,
    cache: Optional[DiskCache],
    *,
    enqueued: Optional[float] = None,
    metrics: Optional[Mapping[str, float]] = None,
) -> CellOutcome:
    """Compute and store one cell, without reading the result store:
    :func:`evaluate_sweep` of a one-cell group."""
    return evaluate_sweep(
        [(index, cell)], cache, enqueued=enqueued, metrics=metrics
    )[0]


def evaluate_sweep(
    group: List[Tuple[int, Cell]],
    cache: Optional[DiskCache],
    *,
    backend: str = "auto",
    enqueued: Optional[float] = None,
    metrics: Optional[Mapping[str, float]] = None,
) -> List[CellOutcome]:
    """Compute same-trace cells as one fast-path sweep.

    Every cell in *group* must share ``(loop, n)``; a limits cell has no
    machine to sweep and comes alone.  The result store is not read: the
    engine looks every cell up in the parent before any fan-out and
    hands over only the misses, with their lookups' counter deltas as
    *metrics*.  The cells share one trace resolution and one
    :func:`repro.core.fastpath.simulate_sweep` call through *backend* --
    gating is per sweep member, so a hooked or fast-path-disabled member
    still runs its reference loop and the merged table stays
    bit-identical to per-cell evaluation.  Every result is stored in
    *cache*, if given.

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
    trace, source = _resolve_trace(first.loop, first.n, cache)
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
        if cache is not None:
            cache.store_result(cell_key(cell), record)
        _add_metrics(shared, _telemetry_metrics(record))

    ended = time.monotonic()
    share = (time.perf_counter() - start) / len(group)
    return [
        CellOutcome(
            index=index,
            values=_values_from_record(cell, record),
            seconds=share,
            result_hit=False,
            trace_source=source if position == 0 else "memo",
            pid=os.getpid(),
            queue_wait=queue_wait if position == 0 else 0.0,
            started=started,
            ended=ended,
            spans=tuple(spans) if position == 0 else (),
            metrics=shared if position == 0 else {},
        )
        for position, ((index, cell), record) in enumerate(zip(group, records))
    ]


def _run_in_pool(
    function: Callable[..., Any], task: Mapping[str, Any]
) -> Any:
    return function(cache=_WORKER_CACHE, **task)


def _fan_out(
    function: Callable[..., Any],
    tasks: List[Dict[str, Any]],
    cache: Optional[DiskCache],
    workers: int,
    collect: Callable[[int, Any], None],
) -> None:
    """Call ``function(cache=cache, **task)`` once per entry of *tasks*.

    In-process when ``workers == 1`` or at most one task; otherwise over
    a pool of ``min(workers, len(tasks))`` processes, each with its own
    handle on *cache*'s root.  ``collect(position, result)`` runs in the
    parent as each task completes (completion order under a pool), so
    progress streams while the pool is still busy.
    """
    if workers == 1 or len(tasks) <= 1:
        for position, task in enumerate(tasks):
            collect(position, function(cache=cache, **task))
        return
    cache_dir = str(cache.root) if cache is not None else None
    with ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        initializer=_pool_init,
        initargs=(cache_dir,),
    ) as pool:
        futures = {
            pool.submit(_run_in_pool, function, task): position
            for position, task in enumerate(tasks)
        }
        for future in as_completed(futures):
            collect(futures[future], future.result())


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
    by the row's base-column mean after folding.
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
            if folds.get(column) == "amean":
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

    Simulator cells sharing ``(loop, n)`` -- the same dynamic trace --
    form one sweep group; limits cells stay singletons (they have no
    machine to sweep).  Returns ``(is_sweep, [(index, cell), ...])``
    pairs in first-appearance order; the deterministic merge sorts by
    cell index, so grouping never changes the table.
    """
    groups: List[Tuple[bool, List[Tuple[int, Cell]]]] = []
    by_trace: Dict[Tuple[int, int], List[Tuple[int, Cell]]] = {}
    for index, cell in enumerate(plan.cells):
        if cell.is_limits:
            groups.append((False, [(index, cell)]))
            continue
        key = (cell.loop, cell.n)
        bucket = by_trace.get(key)
        if bucket is None:
            by_trace[key] = bucket = []
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
        hits, misses, metrics = _lookup_results(
            group, cache, lambda item: cell_key(item[1]), _cell_hit
        )
        collect(hits)
        if misses:
            tasks.append(dict(
                group=misses,
                metrics=metrics,
                backend=backend,
                enqueued=time.monotonic(),
            ))
    _fan_out(
        evaluate_sweep, tasks, cache, workers, lambda _, batch: collect(batch)
    )

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

def source_cell_key(machine: str, source: str, config: str) -> Dict[str, Any]:
    """Identity of one exact (machine, trace source, config) result.

    The *source* must be a normalised trace-source spec
    (:func:`repro.trace.sources.format_trace_spec`), so equivalent
    spellings share an entry.
    """
    return {
        "kind": "source-cell",
        "machine": machine,
        "source": source,
        "config": config,
        "schema": RESULT_SCHEMA_VERSION,
    }


@dataclass(frozen=True)
class SourceOutcome:
    """One exact simulation result from a source sweep (picklable)."""

    source: str
    machine: str
    config: str
    instructions: int
    cycles: int
    seconds: float
    result_hit: bool
    pid: int = 0

    @property
    def rate(self) -> float:
        """Sustained issue rate, instructions per cycle."""
        return self.instructions / self.cycles


#: Per-process memo of resolved source traces (spec text -> Trace).
_SOURCE_MEMO: Dict[str, Trace] = {}


def _source_cache(source: str, cache: Optional[DiskCache]) -> Optional[DiskCache]:
    """*cache*, unless *source* is a ``file:`` archive (never cached: the
    path's content can change)."""
    return None if source.startswith("file:") else cache


def _evaluate_source_group(
    specs: Tuple[str, ...],
    source: str,
    config_name: str,
    cache: Optional[DiskCache],
    backend: str,
) -> List[SourceOutcome]:
    """Simulate machine specs against one source as one sweep.

    The specs are the misses of the parent's lookup: they share one
    trace resolution and one :func:`repro.core.fastpath.simulate_sweep`
    call, and each result is stored unless the source is a ``file:``
    archive.
    """
    start = time.perf_counter()
    cache = _source_cache(source, cache)
    trace = _SOURCE_MEMO.get(source)
    if trace is None:
        trace = trace_source(source)
        _SOURCE_MEMO[source] = trace
    config = config_by_name(config_name)
    items = [(build_simulator(spec), config) for spec in specs]
    results = fastpath.simulate_sweep(trace, items, backend=backend)
    share = (time.perf_counter() - start) / len(specs)
    outcomes: List[SourceOutcome] = []
    for spec, result in zip(specs, results):
        if cache is not None:
            cache.store_result(
                source_cell_key(spec, source, config_name),
                _result_record(result),
            )
        outcomes.append(SourceOutcome(
            source=source,
            machine=spec,
            config=config_name,
            instructions=result.instructions,
            cycles=result.cycles,
            seconds=share,
            result_hit=False,
            pid=os.getpid(),
        ))
    return outcomes


@dataclass(frozen=True)
class SourceSweepRun:
    """A finished source sweep, in deterministic (source, spec) order."""

    outcomes: Tuple[SourceOutcome, ...]
    wall_seconds: float
    workers: int
    result_hits: int

    def rate(self, source: str, machine: str) -> float:
        """The issue rate of one (source, machine) pair."""
        for outcome in self.outcomes:
            if outcome.source == source and outcome.machine == machine:
                return outcome.rate
        raise KeyError((source, machine))


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
) -> SourceSweepRun:
    """Simulate every machine spec against every trace source, exactly.

    The explorer's verification stage: one sweep group per source (all
    specs replay the same resolved trace through the fast-path sweep
    entry point).  Results are looked up in *cache* in the parent first,
    exactly as in :func:`run_plan`; only sources with a miss are
    simulated, over a process pool when more than one misses.
    Results come back in deterministic (source, spec) input order
    regardless of completion order.  *sources* must be normalised spec
    strings; *progress* receives one event per completed (source, spec)
    cell with the source in the ``row`` field.
    """
    workers = default_workers() if workers is None else max(1, int(workers))
    start = time.perf_counter()
    spec_tuple = tuple(specs)

    total = len(spec_tuple) * len(sources)
    completed = 0

    def emit(batch: List[SourceOutcome]) -> None:
        nonlocal completed
        if progress is None:
            completed += len(batch)
            return
        for outcome in batch:
            completed += 1
            progress(ProgressEvent(
                table_id=label,
                completed=completed,
                total=total,
                index=completed - 1,
                loop=0,
                machine=outcome.machine,
                config=outcome.config,
                row=outcome.source,
                seconds=outcome.seconds,
                result_hit=outcome.result_hit,
                pid=outcome.pid,
            ))

    def hit(
        item: Tuple[str, str],
        record: Mapping[str, Any],
        metrics: Dict[str, float],
        started: float,
    ) -> SourceOutcome:
        spec, source = item
        return SourceOutcome(
            source=source,
            machine=spec,
            config=config,
            instructions=int(record["instructions"]),
            cycles=int(record["cycles"]),
            seconds=time.monotonic() - started,
            result_hit=True,
            pid=os.getpid(),
        )

    by_position: List[List[SourceOutcome]] = []
    tasks = []
    task_positions: List[int] = []
    for position, source in enumerate(sources):
        hits, misses, _ = _lookup_results(
            [(spec, source) for spec in spec_tuple],
            _source_cache(source, cache),
            lambda item: source_cell_key(item[0], item[1], config),
            hit,
        )
        emit(hits)
        by_position.append(hits)
        if misses:
            task_positions.append(position)
            tasks.append(dict(
                specs=tuple(spec for spec, _ in misses),
                source=source,
                config_name=config,
                backend=backend,
            ))

    def collect(task: int, batch: List[SourceOutcome]) -> None:
        by_position[task_positions[task]].extend(batch)
        emit(batch)

    _fan_out(_evaluate_source_group, tasks, cache, workers, collect)

    order = {spec: i for i, spec in enumerate(spec_tuple)}
    outcomes: List[SourceOutcome] = []
    for batch in by_position:
        outcomes.extend(sorted(batch, key=lambda o: order[o.machine]))
    return SourceSweepRun(
        outcomes=tuple(outcomes),
        wall_seconds=time.perf_counter() - start,
        workers=workers,
        result_hits=sum(1 for o in outcomes if o.result_hit),
    )
