"""Tests for simulator event hooks (repro.obs.events).

Two promises to pin down:

* **Zero-cost when disabled** -- with ``on_event`` unset, every machine
  must produce cycle counts bit-identical to the seed implementation
  (preserved verbatim as ``ScoreboardMachine.reference_simulate``); the
  runtime side of that promise is enforced by
  ``benchmarks/bench_hooks.py`` in CI.
* **Faithful when enabled** -- the typed event stream carries the whole
  schedule: the :class:`~repro.core.scoreboard.EventRecorder` adapter
  reconstructs the exact per-instruction issue records the analysis
  layer used to get directly.
"""

import pytest

from repro.core import config_by_name
from repro.core.registry import build_simulator
from repro.core.scoreboard import (
    EventRecorder,
    StallReason,
    cray_like_machine,
    serial_memory_machine,
)
from repro.obs.events import EventCollector, EventKind, SimEvent, tee
from repro.verify import fuzz_trace

CONFIGS = ("M11BR5", "M5BR2")

#: One spec per machine family that supports event hooks, plus every
#: other event-emitting spec of the default verify oracle (the oracle
#: reads the invariant checker's observed replays of these in place of
#: a reference_simulate replay).
HOOKED_SPECS = (
    "cray",
    "serialmemory",
    "tomasulo",
    "inorder:4",
    "ooo:4",
    "ruu:2:50",
    "cdc6600",
    "inorder:1",
    "ooo:4:1bus",
    "ruu:4:50:1bus",
    "spec:50:none",
    "spec:50:btfn",
    "spec:50:2bit",
    "spec:50:perfect",
    "spec:50:wrong",
)


class TestEventPrimitives:
    def test_events_are_frozen_and_typed(self):
        event = SimEvent(EventKind.STALL, 7, 12, reason="RAW", cycles=3)
        with pytest.raises(AttributeError):
            event.cycle = 0

    def test_collector_counts_and_filters(self):
        collector = EventCollector()
        collector(SimEvent(EventKind.ISSUE, 0, 1))
        collector(SimEvent(EventKind.STALL, 1, 4, reason="RAW", cycles=2))
        collector(SimEvent(EventKind.STALL, 2, 9, reason="UNIT", cycles=1))
        assert collector.counts() == {EventKind.ISSUE: 1, EventKind.STALL: 2}
        assert len(collector.of_kind(EventKind.STALL)) == 2
        assert collector.stall_cycles_by_reason() == {"RAW": 2, "UNIT": 1}

    def test_tee_fans_out(self):
        first, second = EventCollector(), EventCollector()
        fanout = tee(first, second)
        fanout(SimEvent(EventKind.ISSUE, 0, 1))
        assert len(first.events) == len(second.events) == 1


class TestDisabledHooksBitIdentity:
    """simulate() with hooks off must equal the preserved seed loop."""

    @pytest.mark.parametrize("config_name", CONFIGS)
    @pytest.mark.parametrize(
        "factory", [cray_like_machine, serial_memory_machine]
    )
    def test_scoreboard_matches_reference(
        self, small_traces, factory, config_name
    ):
        machine = factory()
        config = config_by_name(config_name)
        for trace in small_traces.values():
            hooked = machine.simulate(trace, config)
            reference = machine.reference_simulate(trace, config)
            assert hooked.cycles == reference.cycles
            assert hooked.instructions == reference.instructions


class TestHooksDoNotChangeResults:
    """Attaching a collector must never change the timing model."""

    @pytest.mark.parametrize("spec", HOOKED_SPECS)
    def test_cycles_unchanged_with_collector(self, small_traces, spec):
        config = config_by_name("M11BR5")
        trace = small_traces[5]
        baseline = build_simulator(spec).simulate(trace, config)
        machine = build_simulator(spec)
        collector = EventCollector()
        observed = machine.simulate_observed(trace, config, collector)
        assert observed.cycles == baseline.cycles
        assert collector.events, f"{spec} emitted no events"

    @pytest.mark.parametrize("config_name", CONFIGS)
    @pytest.mark.parametrize("spec", HOOKED_SPECS)
    def test_observed_replay_equals_reference(
        self, small_traces, spec, config_name
    ):
        """The contract the verify oracle's replay reuse rests on."""
        config = config_by_name(config_name)
        machine = build_simulator(spec)
        for trace in (small_traces[5], small_traces[12], fuzz_trace(3)):
            observed = machine.simulate_observed(
                trace, config, EventCollector()
            )
            reference = machine.reference_simulate(trace, config)
            assert observed.cycles == reference.cycles
            assert observed.detail == reference.detail

    @pytest.mark.parametrize("spec", HOOKED_SPECS)
    def test_hook_is_restored_after_observed_run(self, small_traces, spec):
        machine = build_simulator(spec)
        machine.simulate_observed(
            small_traces[5], config_by_name("M11BR5"), EventCollector()
        )
        assert machine.on_event is None


class TestEventStreamSemantics:
    def test_every_instruction_issues_and_completes(self, small_traces):
        machine = cray_like_machine()
        collector = EventCollector()
        trace = small_traces[5]
        machine.simulate_observed(trace, config_by_name("M11BR5"), collector)
        issues = collector.of_kind(EventKind.ISSUE)
        completes = collector.of_kind(EventKind.COMPLETE)
        assert len(issues) == len(trace) == len(completes)
        assert [e.seq for e in issues] == [e.seq for e in trace.entries]
        for issue, complete in zip(issues, completes):
            assert complete.cycle >= issue.cycle

    def test_stalls_carry_reason_and_cycles(self, small_traces):
        machine = serial_memory_machine()
        collector = EventCollector()
        machine.simulate_observed(
            small_traces[5], config_by_name("M5BR2"), collector
        )
        stalls = collector.of_kind(EventKind.STALL)
        assert stalls
        names = {reason.name for reason in StallReason}
        for stall in stalls:
            assert stall.reason in names
            assert stall.cycles > 0

    def test_recorder_adapter_rebuilds_issue_records(self, small_traces):
        """EventRecorder(record.append) == the seed's direct recording."""
        machine = cray_like_machine()
        config = config_by_name("M11BR5")
        trace = small_traces[7]

        via_events = []
        machine.simulate_observed(
            trace, config, EventRecorder(via_events.append)
        )
        direct = []
        machine.simulate_recorded(trace, config, direct.append)
        assert via_events == direct

    def test_ruu_emits_flush_on_mispredict(self, small_traces):
        from repro.core import RUUMachine
        from repro.predict import AlwaysTakenPredictor

        machine = RUUMachine(2, 50, predictor_factory=AlwaysTakenPredictor)
        collector = EventCollector()
        machine.simulate_observed(
            small_traces[5], config_by_name("M11BR5"), collector
        )
        flushes = collector.of_kind(EventKind.FLUSH)
        # Loop 5's backward branch falls through on the final iteration,
        # so always-taken must mispredict at least once.
        assert flushes
        assert all(f.reason == "MISPREDICT" for f in flushes)
