"""Tests for the cross-machine oracle and the shrinker.

The headline acceptance test: a deliberately broken machine (a mutated
latency table, the classic reproduction bug) must be caught by the
differential oracle, and the failing fuzzed trace must shrink to a
reproducer of at most 20 instructions.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import pytest

from repro import api
from repro.core import M11BR5, M5BR2, MachineConfig, fastpath
from repro.core.registry import build_simulator
from repro.trace import subset_trace
from repro.verify import (
    DEFAULT_EDGES,
    DEFAULT_ORACLE_MACHINES,
    OrderingEdge,
    VerifyOptions,
    check_invariants,
    fuzz_trace,
    run_oracle,
    run_verification,
    shrink_trace,
)
from repro.verify.fuzz import FuzzSpec

from test_verify_invariants import MutatedLatencyMachine


class TestCleanOracle:
    def test_fuzzed_traces_pass(self):
        for seed in range(6):
            report = run_oracle(fuzz_trace(seed), M11BR5)
            assert report.ok, [str(v) for v in report.violations]

    def test_real_kernel_passes(self, loop12_trace):
        for config in (M11BR5, M5BR2):
            report = run_oracle(loop12_trace, config)
            assert report.ok, [str(v) for v in report.violations]

    def test_report_carries_cycles_and_limits(self):
        report = run_oracle(fuzz_trace(3), M11BR5)
        assert report.cycles["cray"] >= report.dataflow_makespan
        assert report.cycles["cray"] >= report.resource_makespan
        assert report.serial_dataflow_makespan >= report.dataflow_makespan
        assert report.cycles["cray"] == report.cycles["inorder:1"]

    def test_machine_subset_skips_dangling_edges(self):
        report = run_oracle(
            fuzz_trace(1), M11BR5, machines=("simple", "cray")
        )
        assert report.ok
        assert set(report.cycles) == {"simple", "cray"}


class DivergentFastPathMachine:
    """simulate() disagrees with reference_simulate() by one cycle --
    exactly the failure mode the fastpath-dual check exists to catch."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def name(self):
        return self._inner.name

    def simulate(self, trace, config):
        result = self._inner.simulate(trace, config)
        return dc_replace(result, cycles=result.cycles + 1)

    def reference_simulate(self, trace, config):
        return self._inner.simulate(trace, config)


class MutatedReferenceMachine:
    """A machine whose reference loop silently runs under a different
    latency table -- the mutated-latency bug landing in *one* of the two
    replay paths, which only the fastpath-dual check can see."""

    def __init__(self, inner, mutated: MachineConfig):
        self._inner = inner
        self._mutated = mutated

    @property
    def name(self):
        return self._inner.name

    def simulate(self, trace, config):
        return self._inner.simulate(trace, config)

    def reference_simulate(self, trace, config):
        return self._inner.reference_simulate(trace, self._mutated)


#: Every machine family whose simulate() dispatches to a compiled fast
#: loop (and therefore exposes a reference_simulate dual).
FAST_LOOP_SPECS = (
    "cray",
    "inorder:4",
    "ooo:4",
    "ruu:2:50",
    "tomasulo",
    "cdc6600",
)


class TestFastpathDualCheck:
    def test_divergent_fast_path_caught(self):
        broken = DivergentFastPathMachine(build_simulator("cray"))
        trace = fuzz_trace(0)
        report = run_oracle(trace, M11BR5, simulators={"cray": broken})
        checks = {v.check for v in report.violations}
        assert "fastpath-dual" in checks, [str(v) for v in report.violations]

    @pytest.mark.parametrize("spec", FAST_LOOP_SPECS)
    def test_off_by_one_divergence_caught_per_machine(self, spec):
        broken = DivergentFastPathMachine(build_simulator(spec))
        trace = fuzz_trace(1)
        report = run_oracle(
            trace, M11BR5, machines=(spec,), edges=(), simulators={spec: broken}
        )
        assert any(
            v.check == "fastpath-dual" and v.machine == spec
            for v in report.violations
        ), [str(v) for v in report.violations]

    @pytest.mark.parametrize("spec", FAST_LOOP_SPECS)
    def test_mutated_latency_divergence_caught_per_machine(self, spec):
        # Memory latency 11 -> 5 in the reference loop only; some fuzzed
        # trace must make the two paths disagree.
        broken = MutatedReferenceMachine(
            build_simulator(spec), MachineConfig(memory_latency=5)
        )
        for seed in range(20):
            trace = fuzz_trace(seed)
            report = run_oracle(
                trace,
                M11BR5,
                machines=(spec,),
                edges=(),
                simulators={spec: broken},
            )
            if any(
                v.check == "fastpath-dual" and v.machine == spec
                for v in report.violations
            ):
                return
        pytest.fail(f"mutated reference loop never caught for {spec}")

    def test_clean_machines_report_no_dual_violations(self):
        report = run_oracle(fuzz_trace(2), M11BR5)
        assert not any(
            v.check == "fastpath-dual" for v in report.violations
        )


class TestBrokenMachineCaught:
    def _broken_cray(self):
        # Memory latency mutated from 11 to 5 in one machine only: the
        # scoreboard now beats its exact dual (and the dataflow bound).
        return MutatedLatencyMachine(
            build_simulator("cray"), MachineConfig(memory_latency=5)
        )

    def _find_failing_trace(self, broken):
        for seed in range(50):
            trace = fuzz_trace(seed)
            report = run_oracle(trace, M11BR5, simulators={"cray": broken})
            if not report.ok:
                return trace, report
        pytest.fail("mutated latency table never caught in 50 seeds")

    def test_oracle_catches_mutated_latency_table(self):
        broken = self._broken_cray()
        trace, report = self._find_failing_trace(broken)
        checks = {violation.check for violation in report.violations}
        # The broken machine must trip the exact hardware dual and/or
        # run faster than physics (the dataflow bound) allows.
        assert checks & {"exact-equality", "dataflow-bound"}

    def test_shrunk_reproducer_is_small(self):
        broken = self._broken_cray()
        trace, report = self._find_failing_trace(broken)
        first = report.violations[0]
        signature = (first.check, first.machine)

        def still_fails(candidate):
            violations = run_oracle(
                candidate, M11BR5, simulators={"cray": broken}
            ).violations
            return any(
                (v.check, v.machine) == signature for v in violations
            )

        assert still_fails(trace)
        repro = shrink_trace(trace, still_fails)
        assert len(repro) <= 20, (
            f"shrunk reproducer still has {len(repro)} instructions"
        )
        assert still_fails(repro)

    def test_oracle_catches_slow_mutation_via_equality(self):
        # Slower is not faster-than-physics, so the bounds stay quiet;
        # only the exact-equality dual can catch an inflated latency.
        broken = MutatedLatencyMachine(
            build_simulator("cray"), MachineConfig(memory_latency=13)
        )
        trace, report = self._find_failing_trace(broken)
        assert any(
            violation.check in ("exact-equality", "partial-order")
            for violation in report.violations
        )


def _observed_replays(trace, config, machines):
    """The replays the runner's invariant pass hands the oracle."""
    replays = {}
    for spec in machines:
        assert not check_invariants(trace, spec, config, replays=replays)
    return replays


class TestReplayReuse:
    """The fastpath-dual check reads the invariant checker's replays."""

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_default_oracle_counts_per_seed(self, telemetry):
        # 18 specs whose reference loop is their observed loop reuse
        # the invariant replay; the scoreboard family and the CDC 6600
        # keep a verbatim seed loop, replayed afresh unless telemetry
        # already asks for the observed loop; "simple" has no dual.
        trace = fuzz_trace(0)
        replays = _observed_replays(trace, M11BR5, DEFAULT_ORACLE_MACHINES)
        report = run_oracle(
            trace, M11BR5, replays=replays, check_telemetry=telemetry
        )
        assert report.ok, [str(v) for v in report.violations]
        expected = (22, 0) if telemetry else (18, 4)
        assert (report.reused_replays, report.fresh_replays) == expected

        campaign = run_verification(
            VerifyOptions(seeds=3, check_telemetry=telemetry)
        )
        assert campaign.ok
        assert campaign.reused_replays == 3 * expected[0]
        assert campaign.fresh_replays == 3 * expected[1]

    def test_without_replays_every_dual_runs_fresh(self):
        report = run_oracle(fuzz_trace(0), M11BR5)
        assert (report.reused_replays, report.fresh_replays) == (0, 22)

    def test_eventless_specs_never_count_as_reused(self):
        machines = ("simple", "cache:16", "banked:4")
        trace = fuzz_trace(1)
        assert _observed_replays(trace, M11BR5, machines) == {}
        campaign = run_verification(VerifyOptions(seeds=2, machines=machines))
        assert campaign.ok
        assert campaign.reused_replays == 0

    def test_injected_simulators_never_reuse(self):
        spec = "ruu:2:10"
        trace = fuzz_trace(2)
        replays = _observed_replays(trace, M11BR5, (spec,))
        report = run_oracle(
            trace, M11BR5, machines=(spec,), edges=(),
            simulators={spec: build_simulator(spec)}, replays=replays,
        )
        assert (report.reused_replays, report.fresh_replays) == (0, 1)

    def test_injected_invariant_simulator_records_no_replay(self):
        replays = {}
        check_invariants(
            fuzz_trace(2), "ruu:2:10", M11BR5,
            simulator=build_simulator("ruu:2:10"), replays=replays,
        )
        assert replays == {}

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_fast_served_replay_falls_back_to_fresh(
        self, monkeypatch, telemetry
    ):
        # A dispatch gate that ignores the collector sends the "observed"
        # replay through the compiled loop: the checker must flag it and
        # the oracle must replay the reference loop instead.
        import repro.core.ruu as ruu_module

        spec = "ruu:2:10"
        trace = fuzz_trace(3)
        replays = {}
        with monkeypatch.context() as patch:
            patch.setattr(ruu_module, "hook_installed", lambda sim: False)
            check_invariants(trace, spec, M11BR5, replays=replays)
        assert replays[spec].fast_served
        assert replays[spec].events == []
        report = run_oracle(
            trace, M11BR5, machines=(spec,), edges=(),
            replays=replays, check_telemetry=telemetry,
        )
        assert report.ok, [str(v) for v in report.violations]
        assert (report.reused_replays, report.fresh_replays) == (0, 1)


def _plant_off_by_one(monkeypatch, spec):
    """Make the oracle's sweep report one extra cycle for *spec*."""
    name = build_simulator(spec).name
    sweep = fastpath.simulate_sweep

    def planted(trace, items, *args, **kwargs):
        results = sweep(trace, items, *args, **kwargs)
        return [
            dc_replace(result, cycles=result.cycles + 1)
            if item[0].name == name else result
            for item, result in zip(items, results)
        ]

    monkeypatch.setattr(fastpath, "simulate_sweep", planted)


class TestPlantedFastResultCaught:
    """A one-cycle-off fast result is still a fastpath-dual failure,
    whether the dual reads a reused replay or a fresh seed loop."""

    @pytest.mark.parametrize("telemetry", [False, True])
    @pytest.mark.parametrize("spec", ["ruu:2:10", "cray"])
    def test_verify_machines_reports_dual(self, monkeypatch, spec, telemetry):
        _plant_off_by_one(monkeypatch, spec)
        report = api.verify_machines(
            1, shrink=False, check_telemetry=telemetry
        )
        assert [(f.check, f.machine) for f in report.failures] == [
            ("fastpath-dual", spec)
        ]


class TestEdges:
    def test_default_edges_reference_default_machines(self):
        from repro.verify import DEFAULT_ORACLE_MACHINES

        for edge in DEFAULT_EDGES:
            assert edge.fast in DEFAULT_ORACLE_MACHINES
            assert edge.slow in DEFAULT_ORACLE_MACHINES

    def test_custom_edge_violation_reported(self):
        # An intentionally wrong claim: the serial machine never beats
        # the CRAY-like scoreboard, so asserting the reverse must fail
        # on some fuzzed trace.
        wrong = (OrderingEdge("simple", "cray", claim="backwards"),)
        seen = False
        for seed in range(10):
            report = run_oracle(
                fuzz_trace(seed),
                M11BR5,
                machines=("simple", "cray"),
                edges=wrong,
            )
            if not report.ok:
                assert report.violations[0].check == "partial-order"
                seen = True
                break
        assert seen


class TestShrinker:
    def test_shrinks_to_single_entry(self):
        trace = fuzz_trace(4, FuzzSpec(length=40))
        target = trace.entries[17].instruction.opcode

        def has_opcode(candidate):
            return any(
                entry.instruction.opcode is target
                for entry in candidate.entries
            )

        repro = shrink_trace(trace, has_opcode)
        count = sum(
            1 for e in trace.entries if e.instruction.opcode is target
        )
        assert count >= 1
        assert len(repro) == 1
        assert has_opcode(repro)

    def test_respects_probe_budget(self):
        trace = fuzz_trace(5, FuzzSpec(length=64))
        probes = []

        def predicate(candidate):
            probes.append(len(candidate))
            return len(candidate) >= 3

        repro = shrink_trace(trace, predicate, max_probes=10)
        assert len(probes) <= 10
        assert len(repro) >= 3

    def test_subset_preserves_metadata(self):
        trace = fuzz_trace(
            6, FuzzSpec(memory_fraction=0.5, branch_fraction=0.3)
        )
        keep = [i for i in range(len(trace)) if i % 3 == 0]
        small = subset_trace(trace, keep)
        for new_entry, old_index in zip(small.entries, keep):
            old_entry = trace.entries[old_index]
            assert new_entry.instruction == old_entry.instruction
            assert new_entry.address == old_entry.address
            assert new_entry.taken == old_entry.taken
