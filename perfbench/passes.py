"""One pass of one workload, in a fresh process; prints one JSON line.

Started by ``run.py`` with ``REPRO_CACHE_DIR`` pointing at the pass's
result store and ``PYTHONPATH`` at the checkout's ``src``::

    python3 perfbench/passes.py --workload verify --seed 0 \
        [--trace --workdir DIR] [--cpu N] [--count] [--setup-only]

Times are CPU seconds of this process plus the pool workers it has
waited for (each ``run_table`` joins its pool before returning), except
the pass wall, which the traced run accounts layer by layer.  Set-up
and each op also report their CPU time in the two parts ``probe.scale``
takes, with the ``time.perf_counter`` interval they ran in.  With
``--cpu`` the pass and its pool workers run on that CPU only, beside
``probe.py``.

With ``--trace`` every layer's entry points are wrapped before the
first op (see ``tracing.py``) and the line carries per-layer metrics
and the cross-check of outside counts against the program's own
counters.  With ``--count`` it also carries each op's instruction count;
with ``--setup-only`` it stops when the first op is ready.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

import tracing
import workloads

#: Per-layer metrics that are wall-clock self time; with ``other.self_s``
#: they add up to the traced wall.
SELF_METRICS = {
    "kernels.self_s": ("kernels.trace", "kernels.build"),
    "trace.cache_read_s": ("trace.load_trace", "trace.load_result"),
    "trace.cache_write_s": ("trace.store_trace", "trace.store_result"),
    "trace.source_s": ("trace.source",),
    "ir.compile_s": ("ir.compile",),
    "fastpath.self_s": ("fastpath.sweep", "fastpath.fallback", "fastpath.python"),
    "core.reference_s": ("core.reference", "core.observed"),
    "limits.self_s": ("limits.compute", "limits.dataflow", "limits.resource"),
    "harness.plan_s": ("harness.plan",),
    "harness.self_s": ("harness.run",),
    "obs.manifest_s": ("obs.manifest",),
    "verify.fuzz_s": ("verify.fuzz",),
    "verify.invariants_s": ("verify.invariants",),
    "verify.oracle_s": ("verify.oracle",),
    "explore.anchor_s": ("explore.anchors",),
    "explore.screen_s": ("explore.screen",),
    "explore.exact_s": ("explore.exact",),
    "other.self_s": ("other",),
}

#: Engine counters (``TableRun.stats``) and the outside count each must equal.
TABLE_COUNTERS = {
    "cells": "calls.trace.load_result",
    "result_hits": "cache.result.hits",
    "traces_built": "traces_built",
    "cache.trace.hits": "cache.trace.hits",
    "cache.trace.misses": "cache.trace.misses",
    "cache.result.hits": "cache.result.hits",
    "cache.result.misses": "cache.result.misses",
    "fastpath.compiles": "compiles",
    "fastpath.batch.fallback_runs": "batch.fallback_runs",
    "fastpath.python.fast_runs": "python.fast_runs",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _table_counter(stats, name: str) -> float:
    if hasattr(stats, name):
        return getattr(stats, name)
    return stats.metrics["counters"].get(name, 0)


def cross_check(spans, program_counters, outputs, ops) -> List[str]:
    """Outside counts that differ from the program's own counters."""
    mismatches = []
    totals = tracing.outside_counts(spans)
    for name in tracing.FASTPATH_COUNTERS:
        if totals.get(name, 0) != program_counters.get(name, 0):
            mismatches.append(
                f"fastpath.stats() {name}: program {program_counters.get(name, 0)}"
                f" != outside {totals.get(name, 0)}"
            )
    op_ids = {}
    for span in spans:
        if span[4] == "op":
            op_ids[span[7]] = span[0]
    for op in ops:
        run = outputs.get(op.name)
        if not hasattr(run, "stats"):
            continue
        counts = tracing.outside_counts(s for s in spans if s[2] == op_ids[op.name])
        for name, outside in TABLE_COUNTERS.items():
            program = _table_counter(run.stats, name)
            if program != counts.get(outside, 0):
                mismatches.append(
                    f"{op.name} stats {name}: program {program} != outside "
                    f"{counts.get(outside, 0)}"
                )
    return mismatches


def layer_metrics(spans, wall_start, wall_end, outputs, disk_bytes) -> Dict[str, float]:
    shares = tracing.account(spans, wall_start, wall_end)
    counts = tracing.outside_counts(spans)
    metrics = {
        name: sum(shares.get(key, 0.0) for key in keys)
        for name, keys in SELF_METRICS.items()
    }
    get = lambda key: counts.get(key, 0)  # noqa: E731
    members = get("sweep.members")
    runs = [run for run in outputs.values() if hasattr(run, "stats")]
    explored = [run for run in outputs.values() if hasattr(run, "frontier")]

    pids = {span[3] for span in spans}
    parent_pid = os.getpid()
    pool_spans = {span[1] for span in spans if span[3] != parent_pid}
    pool_runs = [
        span for span in spans
        if span[4] == "harness.run" and span[0] in pool_spans
    ]
    worker_busy = sum(
        tracing.busy_seconds(spans, pid) for pid in pids if pid != parent_pid
    )
    pool_capacity = sum(s[6] - s[5] for s in pool_runs) * workloads.WORKERS

    metrics.update({
        "kernels.builds": get("traces_built"),
        "trace.cache_writes": get("calls.trace.store_trace") + get("calls.trace.store_result"),
        "trace.disk_bytes": disk_bytes,
        "trace.cache_reads": get("calls.trace.load_trace") + get("calls.trace.load_result"),
        "trace.result_hit_ratio": _ratio(
            get("cache.result.hits"), get("cache.result.hits") + get("cache.result.misses")
        ),
        "ir.compiles": get("compiles"),
        "ir.compile_hit_ratio": _ratio(get("compile_hits"), get("calls.ir.compile")),
        "fastpath.sweeps": get("calls.fastpath.sweep"),
        "fastpath.fallback_runs": get("batch.fallback_runs"),
        "fastpath.batch_share": _ratio(
            members - get("batch.fallback_runs") - get("sweep.gated"), members
        ),
        "fastpath.instr_per_s": _ratio(
            get("sweep.instructions"), tracing.sweep_seconds(spans)
        ),
        "core.reference_runs": get("reference_runs"),
        "limits.calls": get("limits.calls"),
        "harness.queue_wait_s": sum(run.stats.queue_wait_seconds for run in runs),
        "harness.worker_util": _ratio(worker_busy, pool_capacity),
        "harness.corrupt_rebuilds": sum(run.stats.corrupt_rebuilds for run in runs),
        "obs.manifest_writes": get("calls.obs.manifest"),
        "verify.invariants_calls": get("calls.verify.invariants"),
        "verify.oracle_calls": get("calls.verify.oracle"),
        "explore.screened": get("explore.screened"),
        "explore.simulated": get("explore.simulated"),
        "explore.frontier_ratio": _ratio(
            sum(len(run.frontier) for run in explored),
            sum(run.simulated_count for run in explored),
        ),
        "model_err_pct": 100 * _ratio(
            sum(run.audit_errors.mean_relative for run in explored), len(explored)
        ),
    })
    return metrics


def cpu_times() -> Tuple[float, float]:
    """CPU seconds of this process and every child it has waited for:
    all but the children's system time, then the children's system time.

    The kernel splits a process's time into user and system by sampling
    at clock ticks, which is too coarse for a 40 ms op, so only the
    children's split -- made over their whole lifetime -- is used.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime, children.ru_stime


def store_bytes(root: Path) -> int:
    return sum(
        path.stat().st_size for path in root.rglob("*") if path.is_file()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, help="span files (with --trace)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, help="pin the pass to this CPU")
    parser.add_argument("--count", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})  # the pool workers inherit it
    import repro.api  # noqa: F401 -- part of set-up, as for any user

    recorder = None
    if args.trace:
        recorder = tracing.Recorder(args.workdir)
        tracing.install(recorder)
    ops = workloads.ops_for(args.workload, args.seed)
    setup = {"spent": cpu_times(), "ready": time.perf_counter()}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    outputs: Dict[str, Any] = {}
    records = []
    for op in ops:
        opened = recorder.begin() if recorder else None
        cpu = cpu_times()
        start = time.perf_counter()
        error = None
        try:
            outputs[op.name] = op.run()
        except Exception:  # one failed op must not hide the others
            error = traceback.format_exc(limit=3)
        end = time.perf_counter()
        spent = [b - a for a, b in zip(cpu, cpu_times())]
        if recorder:
            recorder.end(opened, "op", start, end, op.name)
        records.append({
            "name": op.name, "start": start, "end": end, "spent": spent,
            "error": error,
        })
    wall_start, wall_end = records[0]["start"], records[-1]["end"]

    for op, record in zip(ops, records):
        if record["error"] is None:
            record["error"] = op.check(outputs[op.name])
    digest = hashlib.sha256(json.dumps(
        [op.digest(outputs[op.name]) if op.name in outputs else None for op in ops],
        sort_keys=True,
    ).encode()).hexdigest()

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result: Dict[str, Any] = {
        "setup": setup,
        "wall_s": wall_end - wall_start,
        "ops": records,
        "digest": digest,
        "rss_mb": rss_kb / 1024,
    }

    if recorder:
        worker_spans, worker_counters = recorder.collect_workers()
        spans = recorder.spans + worker_spans
        counters = recorder.counter_deltas()
        for key, value in worker_counters.items():
            counters[key] = counters.get(key, 0) + value
        store = Path(os.environ["REPRO_CACHE_DIR"])
        disk_bytes = store_bytes(store) if store.is_dir() else 0
        metrics = layer_metrics(spans, wall_start, wall_end, outputs, disk_bytes)
        mismatches = cross_check(spans, counters, outputs, ops)
        accounted = sum(metrics[name] for name in SELF_METRICS)
        if abs(accounted - (wall_end - wall_start)) > 1e-6:
            mismatches.append(
                f"self times add to {accounted:.6f}s, traced wall is "
                f"{wall_end - wall_start:.6f}s"
            )
        result["layers"] = metrics
        result["mismatches"] = mismatches
    elif args.count:
        result["instructions"] = workloads.instructions(
            args.workload, args.seed, outputs
        )

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
