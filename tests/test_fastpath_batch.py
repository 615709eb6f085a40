"""The batch backend's contract: bit-identical, correctly attributed.

Three layers of tests for the structure-of-arrays sweep backend:

* **Differential sweep** -- every fuzzed trace replayed through the full
  oracle machine set as one batch sweep must agree with the per-spec
  python backend *and* the reference loops on cycles, issue rates and
  (for the fast-path machines) the per-instruction issue/completion
  schedule.
* **Broken-backend detection** -- a batch backend replaying under
  mutated latencies must be caught by the oracle's ``fastpath-dual``
  check: the differential layers are what make the batch kernels safe
  to trust, so this pins that they actually fire.
* **Registry, gating and stats** -- backend registration seeds stable
  counter keys, ``set_enabled(False)`` and installed hooks force the
  reference loops uniformly, and every fast run is attributed to the
  backend that served it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import M5BR2, M5BR5, M11BR2, M11BR5, fastpath
from repro.core.registry import build_simulator
from repro.core.scoreboard import cray_like_machine
from repro.obs.events import EventCollector, EventKind
from repro.verify.fuzz import FuzzSpec, fuzz_trace
from repro.verify.oracle import DEFAULT_ORACLE_MACHINES, run_oracle

CONFIGS = (M11BR5, M11BR2, M5BR5, M5BR2)

N_SEEDS = 300

#: One shared trace pool, distinct seeds from test_fastpath_diff's.
_SHAPE = FuzzSpec()
TRACES = tuple(
    fuzz_trace(50_000 + seed, _SHAPE) for seed in range(N_SEEDS)
)


@pytest.fixture(autouse=True)
def _fastpath_on():
    previous = fastpath.set_enabled(True)
    yield
    fastpath.set_enabled(previous)


def _oracle_simulators():
    return [(spec, build_simulator(spec)) for spec in DEFAULT_ORACLE_MACHINES]


# ----------------------------------------------------------------------
# The three-way differential sweep
# ----------------------------------------------------------------------

def test_batch_matches_perspec_and_reference_over_oracle_set():
    """300 fuzzed traces x the full oracle machine set (the speculative
    family included): batch == per-spec fast == reference on cycles,
    rates and instruction counts."""
    machines = _oracle_simulators()
    items = [(sim, None) for _, sim in machines]
    for seed, trace in enumerate(TRACES):
        config = CONFIGS[seed % len(CONFIGS)]
        bound = [(sim, config) for sim, _ in items]
        batch = fastpath.simulate_sweep(trace, bound, backend="batch")
        perspec = fastpath.simulate_sweep(trace, bound, backend="python")
        for (spec, sim), b, p in zip(machines, batch, perspec):
            reference = getattr(sim, "reference_simulate", sim.simulate)
            ref = reference(trace, config)
            context = (spec, trace.name, config.name)
            assert b.cycles == p.cycles == ref.cycles, context
            assert b.issue_rate == p.issue_rate == ref.issue_rate, context
            assert (
                b.instructions == p.instructions == ref.instructions
            ), context


def test_batch_schedules_match_perspec_over_oracle_set():
    """Per-instruction (issue, complete) pairs from the batch kernels
    equal the per-spec fast loops' on every fast-path oracle member."""
    machines = [
        (spec, sim)
        for spec, sim in _oracle_simulators()
        if fastpath.fast_eligible(sim)
    ]
    assert len(machines) >= 12  # the oracle set is mostly fast-path
    for seed, trace in enumerate(TRACES):
        config = CONFIGS[seed % len(CONFIGS)]
        batch_records = [[] for _ in machines]
        perspec_records = [[] for _ in machines]
        fastpath.simulate_sweep(
            trace,
            [
                fastpath.SweepItem(sim, config, record)
                for (_, sim), record in zip(machines, batch_records)
            ],
            backend="batch",
        )
        fastpath.simulate_sweep(
            trace,
            [
                fastpath.SweepItem(sim, config, record)
                for (_, sim), record in zip(machines, perspec_records)
            ],
            backend="python",
        )
        for (spec, _), b, p in zip(machines, batch_records, perspec_records):
            assert len(b) == len(trace)
            assert b == p, (spec, trace.name, config.name)


@pytest.mark.parametrize("spec", ("cray", "ooo:4", "ruu:2:50", "cdc6600"))
def test_batch_schedule_matches_reference_events(spec):
    """Spot-check the batch schedules against the reference loops' event
    streams directly (the python-backend equivalence above plus
    test_fastpath_diff covers the rest of the cross product)."""
    simulator = build_simulator(spec)
    for trace in TRACES[:30]:
        record = []
        fastpath.simulate_sweep(
            trace,
            [fastpath.SweepItem(simulator, M11BR5, record)],
            backend="batch",
        )
        collector = EventCollector()
        simulator.simulate_observed(trace, M11BR5, collector)
        issues = collector.cycles_by_seq(EventKind.ISSUE)
        completes = collector.cycles_by_seq(EventKind.COMPLETE)
        expected = [
            (
                issues[entry.seq],
                completes.get(
                    entry.seq, issues[entry.seq] + M11BR5.branch_latency
                ),
            )
            for entry in trace.entries
        ]
        assert record == expected, (spec, trace.name)


def test_table5_style_sweep_is_bit_identical_across_configs():
    """The acceptance shape: one ooo:4 machine, all four configs, one
    trace, one batch pass -- identical to four reference replays."""
    simulator = build_simulator("ooo:4")
    for trace in TRACES[:50]:
        results = fastpath.simulate_sweep(
            trace,
            [(simulator, config) for config in CONFIGS],
            backend="batch",
        )
        for config, result in zip(CONFIGS, results):
            ref = simulator.reference_simulate(trace, config)
            assert result.cycles == ref.cycles, (trace.name, config.name)


# ----------------------------------------------------------------------
# Speculative family through the batch backend
# ----------------------------------------------------------------------
#
# The batch backend has no spec kernels: spec sweep members are served
# by the python backend's compiled loop inside the same sweep call and
# counted as fallback_runs.  The contract is still full bit-identity --
# cycles, rates, schedules and tlm.* telemetry -- against both the
# per-spec fast loop and the reference.

from repro.obs.telemetry import strip_telemetry

#: Predictor grid x option variants, replayed as one sweep per trace.
SPEC_SWEEP_SPECS = (
    "spec:50:none",
    "spec:50:always",
    "spec:50:btfn",
    "spec:50:1bit",
    "spec:50:2bit",
    "spec:50:perfect",
    "spec:50:wrong",
    "spec:8:2bit",
    "spec:50:2bit:rp=8",
    "spec:50:2bit:vp=last",
    "spec:50:wrong:rp=5:vp=last",
)


def test_batch_serves_spec_grid_bit_identically():
    """Predictor grid x backends: one batch sweep per trace must match
    the python backend and the reference on cycles, rates, detail
    (telemetry included) and per-instruction schedules."""
    machines = [(spec, build_simulator(spec)) for spec in SPEC_SWEEP_SPECS]
    for seed in range(0, N_SEEDS, 4):
        trace = TRACES[seed]
        config = CONFIGS[seed % len(CONFIGS)]
        batch_records = [[] for _ in machines]
        perspec_records = [[] for _ in machines]
        batch = fastpath.simulate_sweep(
            trace,
            [
                fastpath.SweepItem(sim, config, record)
                for (_, sim), record in zip(machines, batch_records)
            ],
            backend="batch",
        )
        perspec = fastpath.simulate_sweep(
            trace,
            [
                fastpath.SweepItem(sim, config, record)
                for (_, sim), record in zip(machines, perspec_records)
            ],
            backend="python",
        )
        for (spec, sim), b, p, br, pr in zip(
            machines, batch, perspec, batch_records, perspec_records
        ):
            ref = sim.reference_simulate(trace, config)
            context = (spec, trace.name, config.name)
            assert b.cycles == p.cycles == ref.cycles, context
            assert b.issue_rate == p.issue_rate == ref.issue_rate, context
            assert b.instructions == p.instructions == ref.instructions, (
                context
            )
            # Identical telemetry from both backends, and the
            # non-telemetry detail matches the reference exactly.
            assert dict(b.detail or {}) == dict(p.detail or {}), context
            assert strip_telemetry(b.detail) == dict(ref.detail or {}), (
                context
            )
            assert len(br) == len(trace), context
            assert br == pr, context


def test_spec_sweep_members_counted_as_batch_fallbacks():
    """Spec members of a batch sweep are attributed as fallback_runs
    (python-loop service inside the sweep), never as batch fast_runs."""
    machines = [build_simulator(spec) for spec in SPEC_SWEEP_SPECS[:4]]
    fastpath.reset_stats()
    fastpath.simulate_sweep(
        TRACES[7],
        [(sim, M11BR5) for sim in machines],
        backend="batch",
    )
    stats = fastpath.stats()
    assert stats["batch.fallback_runs"] == len(machines)
    assert stats["batch.sweeps"] == 1
    assert stats["batch.fast_runs"] == 0


# ----------------------------------------------------------------------
# Registry-sourced workload families through the batch backend
# ----------------------------------------------------------------------

from repro.trace.sources import trace_source

#: Scalar registry families (mixed is vector-only: no batch machines).
FAMILY_SPECS = (
    "branchy:n=96",
    "pointer:n=96:chains=2",
    "fuzz:branchy",
    "fuzz:pointer",
    "fuzz:parallel",
    "synthetic:stride:n=12",
    "synthetic:deep:n=10",
    "synthetic:wide:n=10",
)


def _family_traces(seeds):
    return [
        trace_source(f"{template}:seed={seed}")
        for template in FAMILY_SPECS
        for seed in seeds
    ]


def _batch_agrees_on(trace, config):
    machines = _oracle_simulators()
    bound = [(sim, config) for _, sim in machines]
    batch = fastpath.simulate_sweep(trace, bound, backend="batch")
    perspec = fastpath.simulate_sweep(trace, bound, backend="python")
    for (spec, sim), b, p in zip(machines, batch, perspec):
        reference = getattr(sim, "reference_simulate", sim.simulate)
        ref = reference(trace, config)
        context = (spec, trace.name, config.name)
        assert b.cycles == p.cycles == ref.cycles, context
        assert b.issue_rate == p.issue_rate == ref.issue_rate, context
        assert b.instructions == p.instructions == ref.instructions, context


@pytest.mark.sources
def test_batch_matches_reference_on_registry_families():
    """Fast subset: each family through the full oracle set as a batch."""
    for index, trace in enumerate(_family_traces(range(2))):
        _batch_agrees_on(trace, CONFIGS[index % len(CONFIGS)])


@pytest.mark.sources
@pytest.mark.slow
def test_batch_matches_reference_on_registry_families_full_matrix():
    """Nightly: the full family x seed x config batch matrix."""
    for trace in _family_traces(range(20)):
        for config in CONFIGS:
            _batch_agrees_on(trace, config)


@pytest.mark.sources
def test_batch_schedules_match_perspec_on_registry_families():
    """Per-instruction schedules from the batch kernels equal the
    per-spec fast loops' on every family, not just the default fuzz."""
    machines = [
        (spec, sim)
        for spec, sim in _oracle_simulators()
        if fastpath.fast_eligible(sim)
    ]
    for trace in _family_traces(range(2)):
        batch_records = [[] for _ in machines]
        perspec_records = [[] for _ in machines]
        for backend, records in (
            ("batch", batch_records), ("python", perspec_records)
        ):
            fastpath.simulate_sweep(
                trace,
                [
                    fastpath.SweepItem(sim, M11BR5, record)
                    for (_, sim), record in zip(machines, records)
                ],
                backend=backend,
            )
        for (spec, _), b, p in zip(machines, batch_records, perspec_records):
            assert len(b) == len(trace)
            assert b == p, (spec, trace.name)


# ----------------------------------------------------------------------
# A broken batch backend is caught
# ----------------------------------------------------------------------

class _MutatedLatencyBatch(fastpath.Backend):
    """A deliberately wrong batch backend: replays every sweep member
    under a memory latency one cycle higher than asked."""

    name = "batch"
    counter_names = ("fast_runs", "sweeps", "fallback_runs")

    def __init__(self, real):
        self._real = real

    def simulate(self, simulator, trace, config, record=None):
        return self._real.simulate(simulator, trace, config, record)

    def simulate_sweep(self, trace, items):
        mutated = [
            fastpath.SweepItem(
                item.simulator,
                replace(
                    item.config,
                    memory_latency=item.config.memory_latency + 1,
                ),
                item.record,
            )
            for item in items
        ]
        return self._real.simulate_sweep(trace, mutated)


def test_oracle_catches_mutated_latency_batch_backend():
    """The fastpath-dual check must flag a batch backend whose kernels
    drift from the reference loops -- the safety net behind 'auto'."""
    real = fastpath.get_backend("batch")
    fastpath.register_backend(_MutatedLatencyBatch(real))
    try:
        report = run_oracle(TRACES[0], M11BR5)
    finally:
        fastpath.register_backend(real)
    duals = [v for v in report.violations if v.check == "fastpath-dual"]
    assert duals, "mutated-latency batch backend went undetected"
    # And with the real backend restored the same replay is clean.
    assert run_oracle(TRACES[0], M11BR5).ok


def test_oracle_routes_replays_through_batch_sweeps():
    fastpath.reset_stats()
    report = run_oracle(TRACES[1], M11BR5)
    assert report.ok
    stats = fastpath.stats()
    assert stats["batch.sweeps"] >= 1
    ooo = [s for s in DEFAULT_ORACLE_MACHINES if s.startswith("ooo")]
    perspec = [
        s for s in DEFAULT_ORACLE_MACHINES
        if s != "simple" and not s.startswith("ooo")
    ]
    assert stats["batch.fast_runs"] == len(ooo) == 4
    assert stats["batch.fallback_runs"] == len(perspec) == 18


# ----------------------------------------------------------------------
# Registry, gating, stats
# ----------------------------------------------------------------------

class TestBackendRegistry:
    def test_both_backends_registered(self):
        assert set(fastpath.list_backends()) >= {"batch", "python"}

    def test_auto_resolves_to_batch(self):
        assert fastpath.resolve_backend("auto").name == "batch"
        assert fastpath.resolve_backend("python").name == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown fastpath backend"):
            fastpath.get_backend("fortran")
        with pytest.raises(ValueError, match="unknown fastpath backend"):
            fastpath.simulate_sweep(
                TRACES[0], [(cray_like_machine(), M11BR5)], backend="rust"
            )

    def test_registration_requires_name(self):
        with pytest.raises(ValueError, match="non-empty name"):
            fastpath.register_backend(fastpath.Backend())

    def test_counters_seeded_at_registration(self):
        stats = fastpath.stats()
        for key in (
            "python.fast_runs",
            "batch.fast_runs",
            "batch.sweeps",
            "batch.fallback_runs",
        ):
            assert key in stats


class TestGatingAndStats:
    def test_disabled_fastpath_serves_sweeps_from_reference(self):
        simulator = build_simulator("ooo:2")
        enabled = fastpath.simulate_sweep(
            TRACES[2], [(simulator, M11BR5)]
        )[0]
        previous = fastpath.set_enabled(False)
        try:
            fastpath.reset_stats()
            disabled = fastpath.simulate_sweep(
                TRACES[2], [(simulator, M11BR5)]
            )[0]
            assert fastpath.stats()["fast_runs"] == 0
        finally:
            fastpath.set_enabled(previous)
        assert disabled.cycles == enabled.cycles

    def test_hooked_item_runs_reference_while_others_batch(self):
        hooked = build_simulator("ooo:2")
        hooked.on_event = collector = EventCollector()
        plain = build_simulator("ooo:2")
        fastpath.reset_stats()
        results = fastpath.simulate_sweep(
            TRACES[3], [(hooked, M11BR5), (plain, M11BR5)]
        )
        assert collector.events, "hooked sweep member emitted no events"
        assert results[0].cycles == results[1].cycles
        stats = fastpath.stats()
        assert stats["batch.fast_runs"] == 1

    def test_fast_runs_attributed_per_backend(self):
        """One mixed batch sweep: only the ``ooo`` member takes the batch
        kernel; the rest are counted per-spec replays.  A python-backend
        sweep attributes every member to ``python``."""
        specs = ("cray", "cdc6600", "inorder:2", "ooo:2", "tomasulo")
        items = [(build_simulator(spec), M11BR5) for spec in specs]
        fastpath.reset_stats()
        results = fastpath.simulate_sweep(TRACES[4], items, backend="batch")
        fastpath.simulate_sweep(TRACES[4], items, backend="python")
        stats = fastpath.stats()
        assert stats["batch.sweeps"] == 1
        assert stats["batch.fast_runs"] == 1
        assert stats["batch.fallback_runs"] == len(specs) - 1
        assert stats["python.fast_runs"] == 2 * len(specs) - 1
        assert stats["fast_runs"] == (
            stats["batch.fast_runs"] + stats["python.fast_runs"]
        )
        for spec, (sim, config), result in zip(specs, items, results):
            ref = sim.reference_simulate(TRACES[4], config)
            assert result.cycles == ref.cycles, spec
            assert result.issue_rate == ref.issue_rate, spec

    def test_no_fast_path_machine_falls_back_inside_batch(self):
        """RUU-with-predictor and the simple machine never take a
        compiled loop, even as sweep members."""
        from repro.predict import AlwaysTakenPredictor
        from repro.core.ruu import RUUMachine

        predicted = RUUMachine(2, 50, predictor_factory=AlwaysTakenPredictor)
        simple = build_simulator("simple")
        fastpath.reset_stats()
        results = fastpath.simulate_sweep(
            TRACES[5], [(predicted, M11BR5), (simple, M11BR5)]
        )
        assert all(result.cycles >= 1 for result in results)
        assert fastpath.stats()["fast_runs"] == 0


# ----------------------------------------------------------------------
# The RUU rename plan: one build per compiled trace, shared by sweeps
# ----------------------------------------------------------------------

from repro.core.fastpath import python_backend


def _ruu_sweep_members(count):
    """*count* distinct RUU machines through the registry grammar."""
    specs = [
        f"ruu:{width}:{size}:{bus}:fu={fu}"
        for width in range(1, 9)
        for size in (2, 8, 16, 32, 64)
        for bus in ("nbus", "1bus")
        for fu in (1, 2, 3)
    ]
    assert len(specs) >= count
    return [build_simulator(spec) for spec in specs[:count]]


class TestRUUPlanCache:
    def test_counters_are_new_keys(self):
        stats = fastpath.stats()
        assert "python.ruu_plan_builds" in stats
        assert "python.ruu_plan_hits" in stats

    def test_sweep_builds_the_plan_once(self):
        trace = fuzz_trace(70_001, FuzzSpec(length=120))
        members = _ruu_sweep_members(200)
        fastpath.reset_stats()
        results = fastpath.simulate_sweep(
            trace, [(simulator, M11BR5) for simulator in members]
        )
        stats = fastpath.stats()
        assert stats["python.ruu_plan_builds"] == 1
        assert stats["python.ruu_plan_hits"] == 199
        # The existing counters keep their meaning.
        assert stats["compiles"] == 1
        assert stats["batch.fallback_runs"] == 200
        assert stats["python.fast_runs"] == 200
        for simulator, result in zip(members, results):
            assert result.simulator == simulator.name

    def test_second_sweep_hits_the_cache(self):
        trace = fuzz_trace(70_002, FuzzSpec(length=120))
        members = _ruu_sweep_members(24)
        items = [(simulator, M5BR2) for simulator in members]
        first = fastpath.simulate_sweep(trace, items)
        fastpath.reset_stats()
        second = fastpath.simulate_sweep(trace, items)
        stats = fastpath.stats()
        assert stats["python.ruu_plan_builds"] == 0
        assert stats["python.ruu_plan_hits"] == len(items)
        assert [(r.cycles, r.detail) for r in second] == [
            (r.cycles, r.detail) for r in first
        ]

    def test_plan_evicted_with_its_compiled_trace(self):
        """1k throwaway traces must not grow the plan cache (weakref
        eviction through the compile cache)."""
        import gc

        machine = build_simulator("ruu:2:10")
        gc.collect()
        before = len(python_backend._RUU_PLANS)
        fastpath.reset_stats()
        shape = FuzzSpec(length=8)
        for seed in range(1000):
            throwaway = fuzz_trace(20_000 + seed, shape)
            machine.simulate(throwaway, M11BR5)
            del throwaway
        gc.collect()
        assert len(python_backend._RUU_PLANS) <= before + 2
        stats = fastpath.stats()
        assert stats["python.ruu_plan_builds"] == 1000
        assert stats["evictions"] >= 990

    def test_mixed_family_sweep_keeps_item_order(self):
        """RUU members (ablation flags included) interleaved with every
        other family: results in item order, equal to per-spec runs."""
        from repro.core.buses import BusKind
        from repro.core.ruu import RUUMachine

        specs = (
            "ruu:2:10", "cray", "ruu:4:50:1bus:fu=2", "ooo:4", "tomasulo",
            "ruu:1:4:fu=3", "spec:50:2bit", "inorder:2", "ruu:8:64:fu=2",
            "cdc6600", "ruu:3:16:1bus",
        )
        simulators = [build_simulator(spec) for spec in specs] + [
            RUUMachine(4, 50, bypass=False, ordered_memory=True),
            RUUMachine(2, 8, BusKind.ONE_BUS, ordered_memory=True,
                       fu_copies=2),
        ]
        for seed in range(0, N_SEEDS, 50):
            trace = TRACES[seed]
            config = CONFIGS[seed % len(CONFIGS)]
            swept = fastpath.simulate_sweep(
                trace, [(simulator, config) for simulator in simulators]
            )
            assert [result.simulator for result in swept] == [
                simulator.name for simulator in simulators
            ]
            for simulator, result in zip(simulators, swept):
                single = simulator.simulate(trace, config)
                assert (result.cycles, result.detail) == (
                    single.cycles, single.detail
                ), (simulator.name, trace.name)
