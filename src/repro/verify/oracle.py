"""Cross-machine differential oracle.

Replays one trace through a set of registered machines plus the Section 4
limit calculators and asserts the paper's ordering claims on the *cycle
counts* (every machine runs the same trace, so comparing integer cycles
is exact -- no floating-point tolerance needed):

* **limit bounds** -- no machine finishes before the pseudo-dataflow
  critical path or before the resource (fully-pipelined base machine)
  bound; the serial-WAW dataflow variant is never faster than the pure
  one;
* **partial order** -- relaxing a constraint never loses performance:
  pipelining the units, interleaving the memory, letting RAW hazards
  wait at the units, adding in-order issue units and growing the RUU are
  each monotone improvements (the paper's Tables 1-8 ordering);
* **exact duals** -- the CRAY-like scoreboard and the multi-issue
  machines at one issue station are numerically identical (they model
  the same hardware), as are in-order and out-of-order issue at a
  buffer of one;
* **fastpath duals** -- any machine exposing a ``reference_simulate``
  method (the scoreboard family, the in-order and out-of-order
  multi-issue machines, the RUU, speculative, Tomasulo and CDC6600
  models -- every machine whose default :meth:`simulate` dispatches to
  the compiled fast path in :mod:`repro.core.fastpath`) must report the
  same cycle count from both paths; the nightly fuzz shards replay this
  check over thousands of seeds.  Where the invariant checker already
  ran the same reference loop with a collector, that replay is reused
  rather than run again (see :func:`run_oracle`).

The edge list was calibrated empirically over ~12,000 fuzzed traces
(all four memory/branch variants, trace shapes from length-1 to
all-branch to dependency-free) before being pinned here; every pinned
edge held on every trace.  Many *plausible* edges are deliberately
absent because greedy cycle-level schedulers admit classic scheduling
anomalies -- extra freedom occasionally loses a cycle or two on an
adversarial trace even though it wins on real workloads:

* out-of-order issue vs in-order at the same width (``ooo:N`` can lose
  a cycle to ``inorder:N`` when an eagerly issued young instruction
  steals a unit/bus slot from a critical older one);
* Tomasulo vs the scoreboard (the reservation-station dispatch stage
  costs one cycle on short serial chains);
* pipelined vs unsegmented units, interleaved vs serial memory, RUU
  size and issue width beyond two units, and result-bus width: each
  fails on roughly one fuzzed trace in a few thousand (shifting one
  early completion can re-order a later greedy tie-break against the
  critical path).

Those relations remain true *for the paper's harmonic means*; the
golden-table regression tests pin them at that level instead.  What
survives per-trace -- and is pinned below -- is the serial-execution
edges at the bottom of the hierarchy, the two exact hardware duals,
and the first widening step (one issue slot admits no reordering
choices, so a second slot can only help).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import fastpath
from ..core.base import Simulator
from ..core.config import MachineConfig
from ..core.registry import build_simulator
from ..limits import pseudo_dataflow_schedule, resource_limit
from ..obs.events import EventCollector
from ..obs.telemetry import SimTelemetry, telemetry_from_events
from ..trace import Trace
from .invariants import ObservedReplay

#: The machine set `repro verify` replays by default: every fixed
#: registry spec plus representative points of each parameter sweep.
DEFAULT_ORACLE_MACHINES: Tuple[str, ...] = (
    "simple",
    "serialmemory",
    "nonsegmented",
    "cray",
    "cdc6600",
    "tomasulo",
    "inorder:1",
    "inorder:2",
    "inorder:4",
    "ooo:1",
    "ooo:2",
    "ooo:4",
    "ooo:4:1bus",
    "ruu:1:1",
    "ruu:2:10",
    "ruu:2:50",
    "ruu:4:50",
    "ruu:4:50:1bus",
    "spec:50:none",
    "spec:50:btfn",
    "spec:50:2bit",
    "spec:50:perfect",
    "spec:50:wrong",
)

#: Memory-system wrapper specs use their own access latencies (cache hits
#: can beat the config's memory latency), so the config-derived limit
#: bounds do not apply to them.  The speculative family is exempt too:
#: it is contention-free past the issue stage (it can beat the per-unit
#: resource throughput bound) and speculates past branches (the
#: pseudo-dataflow bound serialises every branch at full latency).
_BOUND_EXEMPT_HEADS = frozenset({"cache", "banked", "spec"})

#: Fast-path families whose ``reference_simulate`` is the event-capable
#: loop with no hook (``_simulate(trace, config, None)``), so an observed
#: replay of it is the reference replay.  The scoreboard family and the
#: CDC 6600 keep a separate verbatim seed loop as their reference.
_REFERENCE_IS_OBSERVED_LOOP = frozenset(
    {"inorder", "ooo", "ruu", "spec", "tomasulo"}
)


@dataclass(frozen=True)
class OrderingEdge:
    """One claim ``cycles(fast) <= cycles(slow)`` (``==`` when exact).

    ``fast`` names the machine with the relaxed constraint -- the one the
    paper argues is at least as good.
    """

    fast: str
    slow: str
    exact: bool = False
    claim: str = ""


#: The paper's partial order, as calibrated edges (see module docstring).
DEFAULT_EDGES: Tuple[OrderingEdge, ...] = (
    OrderingEdge("serialmemory", "simple", claim="overlap beats serial execution"),
    OrderingEdge("cdc6600", "nonsegmented", claim="RAW waits at the units"),
    OrderingEdge("inorder:1", "cray", exact=True, claim="same hardware, two models"),
    OrderingEdge("ooo:1", "inorder:1", exact=True, claim="one slot leaves no reordering"),
    OrderingEdge("inorder:2", "inorder:1", claim="a second issue unit"),
    OrderingEdge("ruu:2:10", "ruu:1:1", claim="wider issue and a larger RUU"),
    # The speculative family's prediction-quality chain.  Unlike the
    # contended machines above, these hold per seed BY CONSTRUCTION:
    # the spec machine is contention-free past the issue stage, so every
    # timing recurrence is isotone (max/+ over earlier issue,
    # availability and commit times) and relaxing any branch's
    # issue-resume window can only help -- perfect relaxes every
    # conditional branch a real predictor gets right, a real predictor
    # relaxes every branch always-wrong stalls on, and always-wrong (at
    # the default zero recovery penalty) still redirects unconditional
    # branches in one cycle where the no-speculation baseline pays the
    # full branch latency (see docs/speculation.md for the argument).
    OrderingEdge(
        "spec:50:perfect", "spec:50:2bit",
        claim="perfect prediction bounds any real predictor",
    ),
    OrderingEdge(
        "spec:50:perfect", "spec:50:btfn",
        claim="perfect prediction bounds any real predictor",
    ),
    OrderingEdge(
        "spec:50:2bit", "spec:50:wrong",
        claim="a real predictor never loses to always-wrong",
    ),
    OrderingEdge(
        "spec:50:btfn", "spec:50:wrong",
        claim="a real predictor never loses to always-wrong",
    ),
    OrderingEdge(
        "spec:50:wrong", "spec:50:none",
        claim="speculation with bounded recovery never loses to "
        "no speculation",
    ),
    OrderingEdge(
        "spec:50:none", "ruu:4:50",
        claim="the contention-free limit machine never loses to the "
        "contended RUU at the same width and window",
    ),
)


@dataclass(frozen=True)
class OracleViolation:
    """One broken ordering or bound on one (trace, config) replay."""

    check: str
    machine: str
    config: str
    trace_name: str
    message: str
    other: str = ""

    def __str__(self) -> str:
        return (
            f"[{self.check}] {self.machine} on {self.trace_name} "
            f"({self.config}): {self.message}"
        )


@dataclass
class OracleReport:
    """Everything the oracle measured for one trace under one config."""

    trace_name: str
    config: str
    cycles: Dict[str, int] = field(default_factory=dict)
    dataflow_makespan: int = 0
    serial_dataflow_makespan: int = 0
    resource_makespan: int = 0
    violations: List[OracleViolation] = field(default_factory=list)
    #: fastpath-dual checks that read the invariant checker's replay.
    reused_replays: int = 0
    #: fastpath-dual checks that ran the reference loop afresh,
    #: including fallbacks from a reused replay a fast loop served.
    fresh_replays: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def run_oracle(
    trace: Trace,
    config: MachineConfig,
    machines: Sequence[str] = DEFAULT_ORACLE_MACHINES,
    edges: Sequence[OrderingEdge] = DEFAULT_EDGES,
    *,
    simulators: Optional[Mapping[str, Simulator]] = None,
    check_telemetry: bool = False,
    replays: Optional[Mapping[str, ObservedReplay]] = None,
) -> OracleReport:
    """Replay *trace* through *machines* and check bounds and orderings.

    Edges whose endpoints are not both in *machines* are skipped, so a
    caller can verify any subset.  *simulators* substitutes specific
    instances by spec (the test suite injects deliberately broken
    machines this way).

    With *check_telemetry* the fastpath-dual replay runs through the
    event stream instead of the bare reference loop: one observed replay
    then serves both the cycle-equality check and a field-by-field
    comparison of the fast loop's aggregate :class:`~repro.obs.telemetry.
    SimTelemetry` record against the event-derived reduction -- the
    nightly telemetry-equality oracle.

    *replays* holds the observed replays :func:`~repro.verify.invariants.
    check_invariants` already ran on this trace and config.  The
    fastpath-dual check (and the telemetry reduction) reads one instead
    of replaying the same loop again: always for a family whose
    reference loop is its observed loop, and for every fast-path family
    under *check_telemetry*.  A replay a fast loop served is not reused:
    the reference loop runs afresh and is counted in
    :attr:`OracleReport.fresh_replays`.  Injected *simulators* never
    reuse a replay.

    The trace is lowered once up front (a strong reference pins the
    compile-cache entry for the whole run), so the limit calculators,
    every fast-path machine, and the fastpath-dual re-replays below all
    share one :func:`repro.core.fastpath.compile_trace` result.
    """
    report = OracleReport(trace_name=trace.name, config=config.name)
    compiled = fastpath.compile_trace(trace)  # noqa: F841 -- keepalive

    dataflow = pseudo_dataflow_schedule(trace, config)
    serial = pseudo_dataflow_schedule(trace, config, serial_waw=True)
    resource = resource_limit(trace, config)
    report.dataflow_makespan = dataflow.makespan
    report.serial_dataflow_makespan = serial.makespan
    report.resource_makespan = resource.makespan

    if serial.makespan < dataflow.makespan:
        report.violations.append(
            OracleViolation(
                check="serial-dataflow-bound",
                machine="limits",
                config=config.name,
                trace_name=trace.name,
                message=(
                    f"serial-WAW dataflow makespan {serial.makespan} beats "
                    f"the unconstrained makespan {dataflow.makespan}"
                ),
            )
        )

    # Non-overridden specs replay as one sweep: eligibility is decided
    # per item inside simulate_sweep (exactly the machines' own dispatch
    # gate), so hooked/disabled/uncompiled members still run their
    # reference loops while the rest share the batch backend.  Injected
    # simulator overrides bypass the sweep on purpose -- the test suite
    # plants broken machines there and expects their own ``simulate`` to
    # be what the oracle observes.
    sims: Dict[str, Simulator] = {}
    sweep_specs: List[str] = []
    results: Dict[str, "object"] = {}
    for spec in machines:
        if simulators is not None and spec in simulators:
            sim = simulators[spec]
            results[spec] = sim.simulate(trace, config)
        else:
            sim = build_simulator(spec)
            sweep_specs.append(spec)
        sims[spec] = sim
    if sweep_specs:
        swept = fastpath.simulate_sweep(
            trace, [(sims[spec], config) for spec in sweep_specs]
        )
        results.update(zip(sweep_specs, swept))

    for spec in machines:
        sim = sims[spec]
        result = results[spec]
        report.cycles[spec] = result.cycles

        reference = getattr(sim, "reference_simulate", None)
        if reference is not None:
            family = fastpath.family_of(sim)
            observe = check_telemetry and family is not None
            replay = None
            if (
                replays is not None
                and (simulators is None or spec not in simulators)
                and (observe or family in _REFERENCE_IS_OBSERVED_LOOP)
            ):
                replay = replays.get(spec)
            events = None
            if replay is not None and not replay.fast_served:
                report.reused_replays += 1
                ref_result, events = replay.result, replay.events
            elif observe:
                # One observed replay serves both the cycle-equality
                # check and the telemetry reduction below.
                report.fresh_replays += 1
                collector = EventCollector()
                ref_result = sim.simulate_observed(trace, config, collector)
                events = collector.events
            else:
                report.fresh_replays += 1
                ref_result = reference(trace, config)
            ref_cycles = ref_result.cycles
            if result.cycles != ref_cycles:
                report.violations.append(
                    OracleViolation(
                        check="fastpath-dual",
                        machine=spec,
                        config=config.name,
                        trace_name=trace.name,
                        message=(
                            f"simulate() reported {result.cycles} cycles but "
                            f"reference_simulate() reported {ref_cycles}; the "
                            "compiled fast path must be bit-identical to the "
                            "reference loop"
                        ),
                    )
                )
            elif observe:
                fast_telemetry = SimTelemetry.from_detail(result.detail)
                if fast_telemetry is not None:
                    expected = telemetry_from_events(
                        events,
                        trace=trace,
                        cycles=ref_cycles,
                        family=family,
                        issue_units=getattr(sim, "issue_units", 0),
                    )
                    if fast_telemetry != expected:
                        fields = [
                            name
                            for name in (
                                "instructions", "cycles", "stall_cycles",
                                "fu_busy_cycles", "issue_width",
                                "occupancy", "flushes", "flush_cycles",
                            )
                            if getattr(fast_telemetry, name)
                            != getattr(expected, name)
                        ]
                        report.violations.append(
                            OracleViolation(
                                check="telemetry",
                                machine=spec,
                                config=config.name,
                                trace_name=trace.name,
                                message=(
                                    "fast-path telemetry diverges from the "
                                    "event-derived record in "
                                    f"{', '.join(fields)}; the aggregate "
                                    "counters must be bit-identical"
                                ),
                            )
                        )

        if spec.split(":", 1)[0] in _BOUND_EXEMPT_HEADS:
            continue
        if result.cycles < dataflow.makespan:
            report.violations.append(
                OracleViolation(
                    check="dataflow-bound",
                    machine=spec,
                    config=config.name,
                    trace_name=trace.name,
                    message=(
                        f"{result.cycles} cycles beats the pseudo-dataflow "
                        f"critical path of {dataflow.makespan}"
                    ),
                )
            )
        if result.cycles < resource.makespan:
            report.violations.append(
                OracleViolation(
                    check="resource-bound",
                    machine=spec,
                    config=config.name,
                    trace_name=trace.name,
                    message=(
                        f"{result.cycles} cycles beats the resource bound "
                        f"of {resource.makespan} "
                        f"(bottleneck {resource.bottleneck})"
                    ),
                )
            )

    for edge in edges:
        fast = report.cycles.get(edge.fast)
        slow = report.cycles.get(edge.slow)
        if fast is None or slow is None:
            continue
        if edge.exact:
            if fast != slow:
                report.violations.append(
                    OracleViolation(
                        check="exact-equality",
                        machine=edge.fast,
                        other=edge.slow,
                        config=config.name,
                        trace_name=trace.name,
                        message=(
                            f"expected identical timing to {edge.slow} "
                            f"({edge.claim}); got {fast} vs {slow} cycles"
                        ),
                    )
                )
        elif fast > slow:
            report.violations.append(
                OracleViolation(
                    check="partial-order",
                    machine=edge.fast,
                    other=edge.slow,
                    config=config.name,
                    trace_name=trace.name,
                    message=(
                        f"took {fast} cycles, slower than {edge.slow} at "
                        f"{slow} ({edge.claim} should never lose)"
                    ),
                )
            )
    return report
