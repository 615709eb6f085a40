"""Exact stage + end-to-end explorer: determinism, caching, recall.

The golden recall test is the PR's acceptance gate in miniature: on a
27-candidate RUU grid, exhaustively simulated, the screened
frontier+band must recover >= 0.9 of the *true* (simulated) Pareto
frontier for every calibrated scalar workload family.
"""

from __future__ import annotations

import os

import pytest

import repro.api as api
from repro.explore import explore
from repro.explore.exact import ErrorStats, frontier_recall, simulate_specs
from repro.harness import engine
from repro.harness.engine import run_source_sweep
from repro.trace import DiskCache

SOURCES = ["branchy:seed=3:n=200", "pointer:seed=5:n=200"]
SPECS = ["ruu:1:8:nbus", "ruu:2:16:nbus", "ooo:2", "inorder:2:1bus"]

#: The seeded golden recall grid: 3 widths x 3 windows x 3 fu counts.
RECALL_SPACE = "family=ruu;width=1,2,4;window=4,16,64;fu=1,2,4;bus=nbus"
RECALL_SOURCES = [
    "branchy:seed={seed}:n=300",
    "pointer:seed={seed}:n=300",
    "fuzz:seed={seed}:len=300",
]


class TestRunSourceSweep:
    def test_workers_do_not_change_results(self):
        serial = run_source_sweep(SPECS, SOURCES, workers=1)
        parallel = run_source_sweep(SPECS, SOURCES, workers=2)
        assert serial.table.rows == parallel.table.rows
        assert parallel.stats.workers == 2

    def test_result_cache_hits_on_rerun(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cold = run_source_sweep(SPECS, SOURCES, workers=1, cache=cache)
        warm = run_source_sweep(SPECS, SOURCES, workers=1, cache=cache)
        assert cold.stats.result_hits == 0
        assert warm.stats.result_hits == len(SPECS) * len(SOURCES)
        assert warm.table.rows == cold.table.rows

    def test_warm_rerun_starts_no_pool(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path / "cache")
        cold = run_source_sweep(SPECS, SOURCES, workers=2, cache=cache)

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", refuse)
        warm = run_source_sweep(SPECS, SOURCES, workers=2, cache=cache)
        assert warm.stats.result_hits == len(SPECS) * len(SOURCES)
        assert warm.table.rows == cold.table.rows
        assert list(warm.stats.worker_utilization) == [os.getpid()]

    def test_file_source_is_never_stored(self, tmp_path):
        archive = tmp_path / "t.jsonl"
        api.capture_source("fuzz:seed=3:len=48", str(archive))
        sources = [f"file:{archive}", SOURCES[0]]
        cache = DiskCache(tmp_path / "cache")
        cold = run_source_sweep(SPECS, sources, workers=2, cache=cache)
        stored = sorted((cache.root / "results").glob("*.jsonl"))
        assert len(stored) == len(SPECS)

        warm = run_source_sweep(SPECS, sources, workers=2, cache=cache)
        # Only the generated source's cells are looked up, and all hit.
        assert warm.stats.result_hits == len(SPECS)
        counters = warm.stats.metrics["counters"]
        assert counters["cache.result.hits"] == len(SPECS)
        assert "cache.result.misses" not in counters
        assert sorted((cache.root / "results").glob("*.jsonl")) == stored
        assert warm.table.rows == cold.table.rows

    def test_rewritten_file_archive_is_replayed_fresh(self, tmp_path):
        archive = tmp_path / "t.jsonl"
        source = f"file:{archive}"
        api.capture_source("fuzz:seed=3:len=48", str(archive))
        first = run_source_sweep(["ooo:2"], [source], workers=1)
        api.capture_source("fuzz:seed=9:len=200", str(archive))
        second = run_source_sweep(["ooo:2"], [source], workers=1)
        fresh = api.simulate_source(source, "ooo:2")
        assert fresh.instructions == 200
        assert second.table.value(source, "ooo:2") == (
            fresh.instructions / fresh.cycles
        )
        assert second.table.value(source, "ooo:2") != first.table.value(
            source, "ooo:2"
        )

    def test_rates_equal_simulate_source(self):
        run = run_source_sweep(SPECS, SOURCES, workers=1)
        for source in SOURCES:
            for spec in SPECS:
                result = api.simulate_source(source, spec)
                assert run.table.value(source, spec) == (
                    result.instructions / result.cycles
                )

    def test_progress_stream(self):
        events = []
        run_source_sweep(
            SPECS, SOURCES, workers=2, label="probe", progress=events.append
        )
        total = len(SPECS) * len(SOURCES)
        assert len(events) == total
        assert events[-1].completed == events[-1].total == total
        assert sorted(e.index for e in events) == list(range(total))
        assert {(e.row, e.machine) for e in events} == {
            (source, spec) for source in SOURCES for spec in SPECS
        }
        assert all(e.loop == 0 and e.table_id == "probe" for e in events)

    def test_rate_lookup(self):
        run = run_source_sweep(SPECS, SOURCES, workers=1)
        assert run.table.row_labels == tuple(SOURCES)
        assert run.table.columns == tuple(SPECS)
        assert run.table.value(SOURCES[0], SPECS[0]) > 0
        with pytest.raises(KeyError):
            run.table.value("branchy:seed=4:n=200", SPECS[0])


class TestSimulateSpecs:
    def test_harmonic_aggregation(self):
        rates, run = simulate_specs(SPECS, SOURCES, workers=1)
        for spec in SPECS:
            inverse = sum(
                1.0 / run.table.value(source, spec) for source in SOURCES
            )
            assert rates[spec] == pytest.approx(len(SOURCES) / inverse)


class TestErrorStats:
    def test_from_pairs(self):
        stats = ErrorStats.from_pairs([1.0, 2.0], [2.0, 2.0])
        assert stats.count == 2
        assert stats.mean_relative == pytest.approx(0.25)
        assert stats.max_relative == pytest.approx(0.5)

    def test_empty(self):
        stats = ErrorStats.from_pairs([], [])
        assert stats.count == 0
        assert stats.mean_relative == 0.0


class TestFrontierRecall:
    def test_full_and_partial_recall(self):
        costs = {0: 1, 1: 2, 2: 3}
        rates = {0: 0.1, 1: 0.2, 2: 0.3}  # all three on the true frontier
        recall, frontier = frontier_recall(costs, rates, [0, 1, 2])
        assert recall == 1.0 and frontier == [0, 1, 2]
        recall, _ = frontier_recall(costs, rates, [0, 2])
        assert recall == pytest.approx(2 / 3)


class TestExploreEndToEnd:
    def test_simulates_only_selected_candidates(self):
        run = explore(
            "family=ruu;width=1..8;window=4..64:4;bus=nbus,1bus;fu=1,2",
            ["branchy:seed=3:n=200"], workers=1, audit=6,
        )
        assert run.total_candidates == 512
        assert 0 < run.simulated_count < run.total_candidates
        assert len(run.audit) == 6
        # Frontier is cost-ascending with simulated points attached.
        frontier_costs = [p.cost for p in run.frontier]
        assert frontier_costs == sorted(frontier_costs)
        assert all(p.simulated > 0 for p in run.frontier)

    def test_budget_caps_simulation(self):
        run = explore(
            "family=ruu;width=1..8;window=4..64:4;bus=nbus,1bus;fu=1,2",
            ["branchy:seed=3:n=200"], workers=1, budget=10, audit=16,
        )
        assert run.simulated_count <= 10

    def test_deterministic_in_seed(self):
        kwargs = dict(workers=1, audit=5, seed=42)
        a = explore(RECALL_SPACE, ["pointer:seed=5:n=200"], **kwargs)
        b = explore(RECALL_SPACE, ["pointer:seed=5:n=200"], **kwargs)
        assert [p.index for p in a.audit] == [p.index for p in b.audit]
        assert a.errors == b.errors

    def test_warm_cache_rerun_hits_everything(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        space = "family=ruu;width=1,2;window=4,16;bus=nbus;fu=1,2"
        cold = explore(space, ["branchy:seed=3:n=200"], workers=1,
                       cache=cache, audit=2)
        warm = explore(space, ["branchy:seed=3:n=200"], workers=1,
                       cache=cache, audit=2)
        assert not cold.screen_cached and warm.screen_cached
        assert warm.result_hits == warm.simulated_count
        assert [p.index for p in warm.frontier] == [
            p.index for p in cold.frontier
        ]
        for a, b in zip(warm.frontier, cold.frontier):
            assert a.simulated == b.simulated
            assert a.predicted == pytest.approx(b.predicted)

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError, match="capped"):
            explore(
                "family=ruu;width=1..32;window=2..512;bus=nbus;fu=1",
                ["branchy:seed=3:n=200"], exhaustive=True,
            )

    @pytest.mark.parametrize("seed", [3, 7])
    @pytest.mark.parametrize("family", RECALL_SOURCES)
    def test_golden_recall_on_exhaustive_grid(self, family, seed):
        """Acceptance: frontier recall >= 0.9 vs the simulated grid."""
        run = explore(
            RECALL_SPACE, [family.format(seed=seed)],
            workers=1, exhaustive=True,
        )
        assert run.total_candidates == 27
        assert run.recall is not None and run.true_frontier_size > 0
        assert run.recall >= 0.9, (
            f"{family} seed={seed}: recall {run.recall:.2f} "
            f"({run.true_frontier_size} true frontier points)"
        )
