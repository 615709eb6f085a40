"""Per-cycle invariant checks over the simulator event stream.

The checker rides the existing :mod:`repro.obs.events` ``on_event`` hook
(via :meth:`~repro.core.base.Simulator.simulate_observed`), so it adds
zero code to the simulator hot paths.  What can be asserted depends on
the issue discipline, captured by a :class:`MachineProfile`:

* **blocking** machines (the scoreboard family, the multi-issue buffer
  machines) hold an instruction at the issue stage until its operands
  are complete: ``ISSUE(consumer) >= COMPLETE(producer)`` for every true
  dependence, and ``COMPLETE == ISSUE + latency`` exactly -- which is how
  a silently mutated latency table gets caught;
* **buffered** machines (RUU, Tomasulo) issue *past* RAW hazards by
  design -- there the checks are occupancy bounds instead: live RUU
  entries never exceed the configured RUU size, per-unit reservation
  stations never exceed ``stations_per_unit``;
* machines that emit no events at all (Simple, CDC6600-style, the
  memory-system wrappers) get only the black-box checks (instruction
  count, cycle positivity).

Universal checks for every event-emitting machine: exactly one ISSUE per
trace entry (total issued == trace length), completions never precede
issues, no event beyond the reported cycle count, at most ``issue_width``
issues per cycle, one operation per functional unit per cycle for
pipelined-FU machines, and stall/flush reasons drawn from the documented
vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core import fastpath
from ..core.base import Simulator
from ..core.config import MachineConfig
from ..core.registry import build_simulator, parse_spec
from ..core.result import SimulationResult
from ..isa import Register
from ..obs.events import EventCollector, EventKind, SimEvent
from ..trace import Trace

#: Every stall reason any machine documents (see repro.obs.events).
KNOWN_STALL_REASONS = frozenset(
    {"RAW", "WAW", "UNIT", "BUS", "BRANCH", "RUU_FULL", "STATIONS_FULL"}
)
#: Every flush reason.
KNOWN_FLUSH_REASONS = frozenset(
    {"TAKEN_BRANCH", "MISPREDICT", "VALUE_MISPREDICT"}
)


@dataclass(frozen=True)
class MachineProfile:
    """What the event stream of one machine spec is allowed to look like.

    Attributes:
        spec: the registry spec string this profile describes.
        emits_events: whether the machine emits events at all (Simple
            and the memsys wrappers do not).
        blocking: operands are complete at issue time (RAW enforced at
            the issue stage) and completion is exactly issue + latency.
        branch_completes: branches receive COMPLETE events (the buffered
            machines never give branches a window slot, so they do not).
        issue_width: maximum ISSUE events in any one cycle.
        window_size: RUU size bound on simultaneously live entries.
        stations_per_unit: Tomasulo per-unit reservation-station bound.
        fu_single_issue: at most one ISSUE per functional unit per cycle
            (true when issue == dispatch, i.e. for blocking machines).
        speculative: the machine runs a branch predictor and accounts
            wrong-path fetch with ``FLUSH(reason="MISPREDICT")`` events;
            enables the flush-accounting checks.
        recovery_penalty: configured extra recovery cycles beyond the
            branch resolution on a mispredict (speculative machines);
            every MISPREDICT flush must carry exactly
            ``branch_latency + recovery_penalty`` wrong-path cycles.
        value_penalty: configured squash/re-execute cost of a value
            misprediction; set iff value prediction is on, and every
            ``FLUSH(reason="VALUE_MISPREDICT")`` must carry exactly this
            many cycles, anchored at the producer's commit.
    """

    spec: str
    emits_events: bool = True
    blocking: bool = True
    branch_completes: bool = True
    issue_width: Optional[int] = 1
    window_size: Optional[int] = None
    stations_per_unit: Optional[int] = None
    fu_single_issue: bool = True
    speculative: bool = False
    recovery_penalty: Optional[int] = None
    value_penalty: Optional[int] = None


def profile_for_spec(spec: str) -> MachineProfile:
    """Derive the event-stream profile of a registry spec string."""
    parsed = parse_spec(spec)
    head, params = parsed.head, parsed.params

    if head in ("simple", "cache", "banked"):
        return MachineProfile(
            spec=spec,
            emits_events=False,
            blocking=False,
            branch_completes=False,
            issue_width=None,
            fu_single_issue=False,
        )
    if head == "cdc6600":
        # Single in-order issue, but RAW waits at the units: completion
        # is start + latency with start >= issue, so only the latency
        # floor holds, not exactness.
        return MachineProfile(spec=spec, blocking=False)
    if head in ("serialmemory", "nonsegmented", "cray", "cray-like"):
        return MachineProfile(spec=spec)
    if head == "tomasulo":
        return MachineProfile(
            spec=spec,
            blocking=False,
            branch_completes=False,
            stations_per_unit=4,
            fu_single_issue=False,
        )
    if head in ("inorder", "ooo"):
        units = int(params[0])
        return MachineProfile(spec=spec, issue_width=units)
    if head == "ruu":
        units = int(params[0])
        size = int(params[1])
        return MachineProfile(
            spec=spec,
            blocking=False,
            branch_completes=False,
            issue_width=units,
            window_size=size,
            fu_single_issue=False,
        )
    if head == "spec":
        from ..core.spec import parse_spec_params

        spec_params = parse_spec_params(params)
        speculative = spec_params.predictor != "none"
        return MachineProfile(
            spec=spec,
            blocking=False,
            branch_completes=False,
            issue_width=spec_params.units,
            window_size=spec_params.window,
            fu_single_issue=False,
            speculative=speculative,
            recovery_penalty=(
                spec_params.recovery_penalty if speculative else None
            ),
            value_penalty=(
                spec_params.value_penalty
                if spec_params.value_predictor != "off"
                else None
            ),
        )
    # Unknown spec: let build_simulator raise the canonical error.
    build_simulator(spec)
    raise AssertionError(f"no event profile for spec {spec!r}")  # pragma: no cover


@dataclass(frozen=True)
class ObservedReplay:
    """One replay :func:`check_invariants` ran with an event collector.

    The oracle's ``fastpath-dual`` check reads it instead of replaying
    the same reference loop again (see :func:`repro.verify.oracle.
    run_oracle`).

    Attributes:
        result: what the observed replay reported.
        events: the event stream it emitted.
        fast_served: a compiled fast loop ran during the replay (the
            fast-path run counter moved), so *result* is not the
            reference loop's and must not stand in for it.
    """

    result: SimulationResult
    events: List[SimEvent]
    fast_served: bool


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant on one (trace, machine, config) replay.

    Attributes:
        check: stable identifier of the invariant (used by the shrinker
            to test whether a reduced trace still fails the same way).
        machine: the machine spec.
        config: the machine variant name (e.g. ``"M11BR5"``).
        trace_name: the offending trace.
        seq: dynamic instruction index the violation anchors to (-1 for
            whole-run violations).
        message: human-readable description.
    """

    check: str
    machine: str
    config: str
    trace_name: str
    seq: int
    message: str

    def __str__(self) -> str:
        where = f" at seq={self.seq}" if self.seq >= 0 else ""
        return (
            f"[{self.check}] {self.machine} on {self.trace_name} "
            f"({self.config}){where}: {self.message}"
        )


def check_invariants(
    trace: Trace,
    spec: str,
    config: MachineConfig,
    *,
    simulator: Optional[Simulator] = None,
    profile: Optional[MachineProfile] = None,
    replays: Optional[Dict[str, ObservedReplay]] = None,
) -> List[InvariantViolation]:
    """Replay *trace* on the machine for *spec* and check every invariant.

    Passing *simulator* substitutes a specific instance (used by the
    test suite to aim the checker at deliberately broken machines while
    keeping *spec* as the profile key).

    Passing *replays* records the observed replay under *spec* for the
    oracle to reuse.  Only a collector-attached replay of the spec's own
    registry machine is recorded: an eventless machine or an injected
    *simulator* leaves *replays* untouched.
    """
    profile = profile or profile_for_spec(spec)
    sim = simulator if simulator is not None else build_simulator(spec)

    collector = EventCollector()
    keep = replays is not None and simulator is None and profile.emits_events
    fast_runs = fastpath.stats()["fast_runs"] if keep else 0
    result = sim.simulate_observed(
        trace, config, collector if profile.emits_events else None
    )
    if keep:
        replays[spec] = ObservedReplay(
            result=result,
            events=collector.events,
            fast_served=fastpath.stats()["fast_runs"] != fast_runs,
        )

    violations: List[InvariantViolation] = []

    def report(check: str, seq: int, message: str) -> None:
        violations.append(
            InvariantViolation(
                check=check,
                machine=spec,
                config=config.name,
                trace_name=trace.name,
                seq=seq,
                message=message,
            )
        )

    # ---- black-box checks (every machine) -----------------------------
    if result.instructions != len(trace):
        report(
            "result-instruction-count",
            -1,
            f"result reports {result.instructions} instructions for a "
            f"{len(trace)}-entry trace",
        )
    if not profile.emits_events:
        return violations

    events = collector.events

    # ---- event bookkeeping --------------------------------------------
    issue_cycle: Dict[int, int] = {}
    complete_cycle: Dict[int, int] = {}
    issues_per_cycle: Dict[int, int] = {}
    unit_issues: Dict[Tuple[object, int], int] = {}
    flush_events: List[SimEvent] = []

    for event in events:
        if event.kind is EventKind.ISSUE:
            if event.seq in issue_cycle:
                report(
                    "issue-exactly-once",
                    event.seq,
                    f"issued twice (cycles {issue_cycle[event.seq]} and "
                    f"{event.cycle})",
                )
            issue_cycle[event.seq] = event.cycle
            issues_per_cycle[event.cycle] = issues_per_cycle.get(event.cycle, 0) + 1
            if not 0 <= event.seq < len(trace):
                report(
                    "issue-seq-range",
                    event.seq,
                    f"ISSUE for out-of-range seq {event.seq}",
                )
            elif profile.fu_single_issue:
                unit = trace.entries[event.seq].instruction.unit
                key = (unit, event.cycle)
                unit_issues[key] = unit_issues.get(key, 0) + 1
        elif event.kind is EventKind.COMPLETE:
            if event.seq in complete_cycle:
                report(
                    "complete-exactly-once",
                    event.seq,
                    f"completed twice (cycles {complete_cycle[event.seq]} "
                    f"and {event.cycle})",
                )
            complete_cycle[event.seq] = event.cycle
        elif event.kind is EventKind.STALL:
            if event.reason not in KNOWN_STALL_REASONS:
                report(
                    "stall-reason-vocabulary",
                    event.seq,
                    f"unknown stall reason {event.reason!r}",
                )
        elif event.kind is EventKind.FLUSH:
            if event.reason not in KNOWN_FLUSH_REASONS:
                report(
                    "flush-reason-vocabulary",
                    event.seq,
                    f"unknown flush reason {event.reason!r}",
                )
            flush_events.append(event)

    # ---- total issued == trace length ---------------------------------
    missing = [seq for seq in range(len(trace)) if seq not in issue_cycle]
    if missing:
        report(
            "issue-covers-trace",
            missing[0],
            f"{len(missing)} of {len(trace)} instructions never issued "
            f"(first missing seq {missing[0]})",
        )

    # ---- per-seq completion discipline --------------------------------
    latencies = config.latencies
    for seq, entry in enumerate(trace.entries):
        instr = entry.instruction
        issued = issue_cycle.get(seq)
        completed = complete_cycle.get(seq)
        expects_complete = profile.branch_completes or not instr.is_branch
        if expects_complete and completed is None:
            report(
                "complete-covers-trace",
                seq,
                f"{instr.opcode.value} never completed",
            )
        if not profile.branch_completes and instr.is_branch and completed is not None:
            report(
                "branch-complete-unexpected",
                seq,
                "buffered machine emitted COMPLETE for a branch",
            )
        if issued is None or completed is None:
            continue
        if completed < issued:
            report(
                "complete-after-issue",
                seq,
                f"completed at cycle {completed} before issuing at {issued}",
            )
        if instr.is_branch:
            expected = issued + config.branch_latency
        else:
            expected = issued + instr.latency(latencies)
            if instr.is_vector:
                # A vector operation streams its elements through the
                # unit: the full result exists only at
                # issue + latency + vl (see scoreboard.py).
                expected += entry.vector_length or 0
        if profile.blocking:
            if completed != expected:
                report(
                    "completion-latency-exact",
                    seq,
                    f"{instr.opcode.value} issued at {issued} completed at "
                    f"{completed}; expected exactly {expected} "
                    f"(unit latency {expected - issued})",
                )
        elif completed < expected:
            report(
                "completion-latency-floor",
                seq,
                f"{instr.opcode.value} issued at {issued} completed at "
                f"{completed}, faster than the unit latency allows "
                f"(earliest {expected})",
            )

    # ---- operand readiness at issue (blocking machines only) ----------
    if profile.blocking:
        last_writer: Dict[Register, int] = {}
        for seq, entry in enumerate(trace.entries):
            instr = entry.instruction
            issued = issue_cycle.get(seq)
            if issued is not None:
                for src in instr.source_registers:
                    producer = last_writer.get(src)
                    if producer is None:
                        continue
                    producer_instr = trace.entries[producer].instruction
                    if producer_instr.is_vector:
                        # Chained vector producers forward their first
                        # element at issue + latency; a consumer may
                        # legally start there, before the full-vector
                        # COMPLETE, so only that chain point is a floor.
                        producer_issue = issue_cycle.get(producer)
                        ready = None if producer_issue is None else (
                            producer_issue
                            + producer_instr.latency(latencies)
                        )
                    else:
                        ready = complete_cycle.get(producer)
                    if ready is not None and issued < ready:
                        report(
                            "operands-complete-at-issue",
                            seq,
                            f"{instr.opcode.value} issued at cycle {issued} "
                            f"but {src.name} (produced by seq {producer}) "
                            f"completes at {ready}",
                        )
            if instr.dest is not None:
                last_writer[instr.dest] = seq

    # ---- per-cycle widths ---------------------------------------------
    if profile.issue_width is not None:
        for cycle, count in issues_per_cycle.items():
            if count > profile.issue_width:
                report(
                    "issue-width",
                    -1,
                    f"{count} instructions issued in cycle {cycle}; the "
                    f"machine has {profile.issue_width} issue unit(s)",
                )
    if profile.fu_single_issue:
        for (unit, cycle), count in unit_issues.items():
            if count > 1:
                report(
                    "fu-single-issue",
                    -1,
                    f"{count} operations entered {unit} in cycle {cycle}; "
                    "each pipelined unit accepts one per cycle",
                )

    # ---- window / station occupancy (buffered machines) ---------------
    if profile.window_size is not None:
        _check_occupancy(
            trace,
            issue_cycle,
            complete_cycle,
            capacity=profile.window_size,
            by_unit=False,
            check="window-occupancy",
            noun=f"RUU of {profile.window_size}",
            report=report,
        )
    if profile.stations_per_unit is not None:
        _check_occupancy(
            trace,
            issue_cycle,
            complete_cycle,
            capacity=profile.stations_per_unit,
            by_unit=True,
            check="station-occupancy",
            noun=f"{profile.stations_per_unit} stations/unit",
            report=report,
        )

    # ---- speculative flush accounting ---------------------------------
    if profile.speculative or profile.value_penalty is not None:
        _check_flush_accounting(
            trace,
            flush_events,
            issue_cycle,
            complete_cycle,
            config=config,
            profile=profile,
            report=report,
        )

    # ---- events never exceed the reported run length ------------------
    if collector.max_cycle() > result.cycles:
        report(
            "events-within-cycles",
            -1,
            f"an event at cycle {collector.max_cycle()} exceeds the "
            f"reported cycle count {result.cycles}",
        )

    return violations


def _check_flush_accounting(
    trace: Trace,
    flush_events: List[SimEvent],
    issue_cycle: Dict[int, int],
    complete_cycle: Dict[int, int],
    *,
    config: MachineConfig,
    profile: MachineProfile,
    report,
) -> None:
    """Flush events balance the speculation they account for.

    A ``MISPREDICT`` flush must anchor at a conditional branch's issue
    cycle, carry exactly the configured recovery window
    (``branch_latency + recovery_penalty``), and open a wrong-path
    window in which no correct-path instruction issues -- discarded
    wrong-path fetch is exactly what those cycles model, and since the
    trace is the correct path, nothing from it may issue inside them
    (no architectural commit of wrong-path results, by construction).
    A ``VALUE_MISPREDICT`` flush must anchor a value-predicted producer
    (a long-latency FP unit writing a register) at its commit cycle --
    verify-at-complete -- and carry exactly the configured squash cost.
    """
    from ..core.spec import VP_UNITS

    issue_cycles_sorted = sorted(set(issue_cycle.values()))
    flushed_seqs: Dict[int, int] = {}
    for event in flush_events:
        if event.seq in flushed_seqs:
            report(
                "flush-exactly-once",
                event.seq,
                f"flushed twice (cycles {flushed_seqs[event.seq]} and "
                f"{event.cycle})",
            )
            continue
        flushed_seqs[event.seq] = event.cycle
        if not 0 <= event.seq < len(trace):
            report(
                "flush-anchor",
                event.seq,
                f"FLUSH for out-of-range seq {event.seq}",
            )
            continue
        instr = trace.entries[event.seq].instruction

        if event.reason == "MISPREDICT":
            if not profile.speculative:
                report(
                    "flush-anchor",
                    event.seq,
                    "MISPREDICT flush from a machine without a predictor",
                )
                continue
            if not instr.is_conditional_branch:
                report(
                    "flush-anchor",
                    event.seq,
                    f"MISPREDICT flush anchored to {instr.opcode.value}, "
                    "not a conditional branch",
                )
                continue
            issued = issue_cycle.get(event.seq)
            if issued is None or event.cycle != issued:
                report(
                    "flush-anchor",
                    event.seq,
                    f"MISPREDICT flush at cycle {event.cycle} but the "
                    f"branch issued at {issued}",
                )
            expected = config.branch_latency + (profile.recovery_penalty or 0)
            if event.cycles != expected:
                report(
                    "flush-recovery-exact",
                    event.seq,
                    f"MISPREDICT flush carries {event.cycles} wrong-path "
                    f"cycles; the configured recovery window is {expected} "
                    f"(branch latency {config.branch_latency} + penalty "
                    f"{profile.recovery_penalty or 0})",
                )
            # Wrong-path fetch window: no correct-path ISSUE strictly
            # inside (flush cycle, flush cycle + cycles).
            from bisect import bisect_right

            index = bisect_right(issue_cycles_sorted, event.cycle)
            if (
                index < len(issue_cycles_sorted)
                and issue_cycles_sorted[index] < event.cycle + event.cycles
            ):
                report(
                    "wrong-path-window",
                    event.seq,
                    f"an instruction issued at cycle "
                    f"{issue_cycles_sorted[index]}, inside the wrong-path "
                    f"window ({event.cycle}, {event.cycle + event.cycles}) "
                    "opened by this misprediction",
                )
        elif event.reason == "VALUE_MISPREDICT":
            if profile.value_penalty is None:
                report(
                    "flush-anchor",
                    event.seq,
                    "VALUE_MISPREDICT flush from a machine without value "
                    "prediction",
                )
                continue
            if (
                instr.is_branch
                or instr.dest is None
                or instr.unit not in VP_UNITS
            ):
                report(
                    "flush-anchor",
                    event.seq,
                    f"VALUE_MISPREDICT flush anchored to "
                    f"{instr.opcode.value}, not a value-predicted "
                    "long-latency producer",
                )
                continue
            completed = complete_cycle.get(event.seq)
            if completed is None or event.cycle != completed:
                report(
                    "flush-anchor",
                    event.seq,
                    f"VALUE_MISPREDICT flush at cycle {event.cycle} but "
                    f"the producer commits at {completed} "
                    "(verification happens at complete)",
                )
            if event.cycles != profile.value_penalty:
                report(
                    "flush-recovery-exact",
                    event.seq,
                    f"VALUE_MISPREDICT flush carries {event.cycles} squash "
                    f"cycles; the configured penalty is "
                    f"{profile.value_penalty}",
                )


def _check_occupancy(
    trace: Trace,
    issue_cycle: Dict[int, int],
    complete_cycle: Dict[int, int],
    *,
    capacity: int,
    by_unit: bool,
    check: str,
    noun: str,
    report,
) -> None:
    """Sweep (cycle-ordered) occupancy of a buffered machine's window.

    An entry is live from its ISSUE cycle until its COMPLETE cycle
    (exclusive: the slot is reclaimed at the start of the completion
    cycle, matching the RUU commit / Tomasulo station-release order).
    COMPLETE may be emitted ahead of time with a future cycle (Tomasulo
    announces the release at dispatch), so the sweep orders by cycle
    with releases applied before same-cycle allocations.
    """
    changes: List[Tuple[int, int, int, object]] = []  # (cycle, phase, seq, unit)
    for seq, entry in enumerate(trace.entries):
        instr = entry.instruction
        if instr.is_branch:
            continue  # branches never get a window slot
        issued = issue_cycle.get(seq)
        completed = complete_cycle.get(seq)
        if issued is None or completed is None:
            continue
        unit = instr.unit if by_unit else None
        changes.append((completed, 0, seq, unit))  # release first
        changes.append((issued, 1, seq, unit))
    changes.sort(key=lambda item: (item[0], item[1]))
    live: Dict[object, int] = {}
    for cycle, phase, seq, unit in changes:
        if phase == 0:
            live[unit] = live.get(unit, 0) - 1
        else:
            live[unit] = live.get(unit, 0) + 1
            if live[unit] > capacity:
                where = f" on {unit}" if by_unit else ""
                report(
                    check,
                    seq,
                    f"{live[unit]} entries live{where} at cycle {cycle} "
                    f"exceeds {noun}",
                )
