"""Tests of the benchmark's own files.

    python3 -m pytest perfbench/test_perfbench.py

The traced-pass tests run real passes in fresh processes (about half a
minute in total): the wrappers' counts must equal the program's own
counters, the self times must add up to the traced wall, and tracing
must not change any simulated output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import passes
import probe
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def _span(span_id, parent, pid, key, start, end, attrs=None, op="op"):
    return (span_id, parent, op, pid, key, start, end, attrs)


def test_account_splits_concurrent_leaves_and_adds_up_to_wall():
    spans = [
        _span("op", None, 1, "op", 0.0, 10.0),
        _span("run", "op", 1, "harness.run", 1.0, 9.0),
        # two pool workers under the parent's run span
        _span("w1", "run", 2, "fastpath.sweep", 2.0, 6.0),
        _span("w1c", "w1", 2, "ir.compile", 2.0, 3.0),
        _span("w2", "run", 3, "trace.store_result", 4.0, 8.0),
    ]
    shares = tracing.account(spans, 0.0, 10.0)
    assert abs(sum(shares.values()) - 10.0) < 1e-12
    assert shares["other"] == 2.0  # only the op span runs in [0,1) and [9,10)
    assert shares["harness.run"] == 1.0 + 1.0  # [1,2) and [8,9): no child runs
    assert shares["ir.compile"] == 1.0
    assert shares["fastpath.sweep"] == 1.0 + 1.0  # [3,4) alone, [4,6) shared
    assert shares["trace.store_result"] == 1.0 + 2.0  # [4,6) shared, [6,8) alone


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, percentile, samples = run.tail([float(i) for i in range(40)])
    assert (value, percentile, samples) == (29.0, 75.0, 40)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_scale_uses_the_probe_samples_taken_while_the_op_ran():
    interpreter, faults = probe.NOMINAL_S
    samples = [
        (0.5, 2 * interpreter, faults),
        (1.5, 4 * interpreter, 2 * faults),
        (9.0, interpreter, faults),
    ]
    # One sample within the op: interpreter work ran at a quarter of the
    # nominal speed, page faults at half.
    assert probe.scale((1.0, 0.5), 1.0, 2.0, samples) == pytest.approx(0.25 + 0.25)
    # None within: the two nearest samples, at 0.5 and 1.5.
    assert probe.scale((1.0, 0.0), 0.9, 1.1, samples) == pytest.approx(1 / 3)


def test_cross_check_reports_a_count_the_program_disagrees_with():
    spans = [
        _span("op", None, 1, "op", 0.0, 1.0, "table1", op="op"),
        _span("a", "op", 1, "trace.load_result", 0.1, 0.2, True),
        _span("b", "op", 1, "trace.load_result", 0.2, 0.3, False),
    ]
    stats = SimpleNamespace(
        cells=2, result_hits=1, traces_built=0,
        metrics={"counters": {"cache.result.hits": 1, "cache.result.misses": 1}},
    )
    ops = [SimpleNamespace(name="table1")]
    outputs = {"table1": SimpleNamespace(stats=stats)}
    assert passes.cross_check(spans, {}, outputs, ops) == []
    assert passes.cross_check(spans[:2], {}, outputs, ops) != []
    assert passes.cross_check(spans, {"compiles": 1}, outputs, ops) != []


def _pass(tmp_path: Path, workload: str, seed: int, *, trace: bool):
    spans = tmp_path / f"spans-{time.monotonic_ns()}"
    spans.mkdir()
    env = dict(
        os.environ,
        REPRO_CACHE_DIR=str(tmp_path / f"store-{workload}-{trace}"),
        PYTHONPATH=str(workloads.ROOT / "src"),
    )
    command = [
        sys.executable, str(HERE / "passes.py"), "--workload", workload,
        "--seed", str(seed), "--workdir", str(spans),
    ] + ["--trace"] * trace
    proc = subprocess.run(
        command, env=env, capture_output=True, text=True, check=True, timeout=300
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_traced_pass_is_consistent(tmp_path, workload, seed):
    plain = _pass(tmp_path, workload, seed, trace=False)
    traced = _pass(tmp_path, workload, seed, trace=True)
    for record in (plain, traced):
        assert [op["error"] for op in record["ops"] if op["error"]] == []
    assert traced["mismatches"] == []
    assert traced["digest"] == plain["digest"]
    accounted = sum(traced["layers"][name] for name in passes.SELF_METRICS)
    assert abs(accounted - traced["wall_s"]) < 1e-6
    return traced["layers"]


def test_traced_cold_tables_match_engine_counters(tmp_path):
    layers = _assert_traced_pass_is_consistent(tmp_path, "tables_cold", 0)
    assert layers["kernels.builds"] > 0
    assert layers["trace.cache_writes"] > 0
    assert layers["fastpath.fallback_runs"] > 0
    assert 0 < layers["harness.worker_util"] <= 1


def test_traced_verify_matches_fastpath_counters_at_held_out_seed(tmp_path):
    layers = _assert_traced_pass_is_consistent(tmp_path, "verify", 7)
    assert layers["verify.invariants_calls"] > 0
    assert layers["core.reference_runs"] > 0
    assert layers["kernels.builds"] == 0


def test_traced_explore_at_default_seed_meets_the_gate(tmp_path):
    layers = _assert_traced_pass_is_consistent(tmp_path, "explore", 0)
    assert layers["explore.simulated"] > 0
    assert 0 < layers["model_err_pct"] < 35
