"""The ``repro verify`` driver: fuzz, replay, check, shrink, dump.

For each seed the runner generates a trace (:mod:`repro.verify.fuzz`),
rotates through the requested machine variants, and runs both check
layers: the per-cycle invariant checker on every machine and the
cross-machine oracle over the whole set.  On a failure it re-runs the
single offending check inside a delta-debugging shrink loop
(:mod:`repro.verify.shrink`) and dumps the minimal reproducing trace as
JSON-lines (replayable with ``repro replay`` / ``repro simulate``).
A shrink candidate that crashes a model is a different bug: it is not
followed, but it is counted in the report and the first one is logged
with its machine spec and exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import fastpath
from ..core.config import STANDARD_CONFIGS, MachineConfig
from ..core.registry import build_simulator
from ..trace import Trace, write_trace
from .fuzz import FuzzSpec, fuzz_trace
from .invariants import ObservedReplay, check_invariants, profile_for_spec
from .oracle import DEFAULT_EDGES, DEFAULT_ORACLE_MACHINES, run_oracle
from .shrink import shrink_trace

#: Stop collecting (and shrinking) after this many distinct failures.
MAX_FAILURES = 5


@dataclass(frozen=True)
class VerifyOptions:
    """One verification campaign.

    Attributes:
        seeds: how many fuzzed traces to generate (seeds ``0..seeds-1``,
            offset by ``first_seed``).
        machines: registry specs to verify.
        configs: machine variants; seeds rotate through them.
        fuzz: trace-shape knobs.
        shrink: minimise failing traces before reporting.
        dump_dir: where shrunk reproducer traces are written
            (``None`` disables dumping).
        first_seed: base seed (lets CI shards cover disjoint ranges).
        check_telemetry: additionally compare each fast-path machine's
            aggregate telemetry record against the event-derived
            reduction (the nightly telemetry-equality oracle).
        source: optional trace-source spec (:mod:`repro.trace.sources`)
            the campaign draws its traces from instead of the default
            fuzzer -- e.g. ``"branchy"`` or ``"fuzz:pointer:len=96"``.
            For a seeded family the runner appends ``:seed=<seed>``
            per iteration; a fixed source (``kernel:5``,
            ``file:t.jsonl``) replays the same trace every iteration
            while the configs rotate, so ``--seeds 4`` covers all four
            variants.  ``None`` keeps the legacy ``fuzz`` knobs.
    """

    seeds: int = 50
    machines: Tuple[str, ...] = DEFAULT_ORACLE_MACHINES
    configs: Tuple[MachineConfig, ...] = STANDARD_CONFIGS
    fuzz: FuzzSpec = field(default_factory=FuzzSpec)
    shrink: bool = True
    dump_dir: Optional[Path] = None
    first_seed: int = 0
    check_telemetry: bool = False
    source: Optional[str] = None

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError("need at least one seed")
        if not self.machines:
            raise ValueError("need at least one machine spec")
        if not self.configs:
            raise ValueError("need at least one machine configuration")
        for spec in self.machines:
            profile_for_spec(spec)  # fail fast on unknown specs
        if self.source is not None:
            from ..trace.sources import (
                MIXED_MACHINES,
                UnknownTraceSourceError,
                parse_trace_spec,
                _SOURCES,
            )

            parsed = parse_trace_spec(self.source)
            registered = _SOURCES.get(parsed.head)
            if registered is None:
                raise UnknownTraceSourceError(self.source)
            if parsed.head == "mixed" and any(
                spec not in MIXED_MACHINES for spec in self.machines
            ):
                raise ValueError(
                    "mixed (vector) traces replay only on vector-capable "
                    f"machines; restrict --machines to {MIXED_MACHINES}"
                )


@dataclass(frozen=True)
class VerifyFailure:
    """One verified-and-minimised failure."""

    seed: int
    check: str
    machine: str
    config: str
    message: str
    trace: Trace
    repro_path: Optional[Path] = None

    def __str__(self) -> str:
        dumped = f" (repro: {self.repro_path})" if self.repro_path else ""
        return (
            f"seed {self.seed}: [{self.check}] {self.machine} "
            f"({self.config}), {len(self.trace)}-instruction repro: "
            f"{self.message}{dumped}"
        )


@dataclass
class VerifyReport:
    """Outcome of one verification campaign."""

    options: VerifyOptions
    seeds_run: int = 0
    checks_run: int = 0
    failures: List[VerifyFailure] = field(default_factory=list)
    #: Shrink candidates that crashed a model (not followed: the shrink
    #: stays anchored to the original failure).
    shrink_crashes: int = 0
    #: The first of them: machine spec, candidate length, exception.
    first_shrink_crash: Optional[str] = None
    #: fastpath-dual checks that read the invariant checker's replay,
    #: summed over the seed passes (:attr:`OracleReport.reused_replays`).
    reused_replays: int = 0
    #: fastpath-dual checks that ran a reference loop afresh, fallbacks
    #: included (:attr:`OracleReport.fresh_replays`).
    fresh_replays: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


Logger = Callable[[str], None]


def _failure_signature(violation) -> Tuple[str, str]:
    return (violation.check, violation.machine)


def _first_violation(
    trace: Trace,
    config: MachineConfig,
    machines: Sequence[str],
    *,
    check_telemetry: bool = False,
    report: Optional[VerifyReport] = None,
):
    """All-layer check pass; returns (violation, checks_run) with the
    first violation found (or None).

    The trace is compiled once here (strong reference held for the whole
    pass), so the oracle's limit calculators and every fast-path machine
    across all specs share one lowering per seed.  The invariant
    checker's observed replays are handed to the oracle, so each
    machine's reference loop runs once per pass where the two would
    replay the same loop; the oracle's replay counts are added to
    *report* when given.
    """
    compiled = fastpath.compile_trace(trace)  # noqa: F841 -- keepalive
    checks = 0
    replays: Dict[str, ObservedReplay] = {}
    for spec in machines:
        checks += 1
        violations = check_invariants(trace, spec, config, replays=replays)
        if violations:
            return violations[0], checks
    checks += 1
    oracle = run_oracle(
        trace, config, machines, DEFAULT_EDGES,
        check_telemetry=check_telemetry,
        replays=replays,
    )
    if report is not None:
        report.reused_replays += oracle.reused_replays
        report.fresh_replays += oracle.fresh_replays
    if oracle.violations:
        return oracle.violations[0], checks
    return None, checks


def _crash_culprit(
    candidate: Trace, config: MachineConfig, machines: Sequence[str]
) -> str:
    """The first of *machines* whose simulation raises on *candidate*
    (``"oracle"`` when every machine replays it and the oracle's own
    checks raised)."""
    for spec in machines:
        try:
            build_simulator(spec).simulate(candidate, config)
        except Exception:
            return spec
    return "oracle"


def _still_fails_same_way(
    signature: Tuple[str, str],
    config: MachineConfig,
    machines: Sequence[str],
    *,
    check_telemetry: bool = False,
    on_crash: Optional[
        Callable[[Trace, Exception, Callable[[], str]], None]
    ] = None,
) -> Callable[[Trace], bool]:
    check_id, machine = signature
    uses_oracle = machine == "limits" or check_id in (
        "partial-order",
        "exact-equality",
        "dataflow-bound",
        "resource-bound",
        "serial-dataflow-bound",
        "telemetry",
    )

    def predicate(candidate: Trace) -> bool:
        try:
            if uses_oracle:
                violations = run_oracle(
                    candidate, config, machines, DEFAULT_EDGES,
                    check_telemetry=check_telemetry,
                ).violations
            else:
                violations = check_invariants(candidate, machine, config)
        except Exception as exc:
            # A candidate that crashes a model is a different bug; keep
            # the shrink anchored to the original failure, but report it
            # (naming the crashing spec, when wanted, costs a replay).
            if on_crash is not None:
                on_crash(candidate, exc, lambda: (
                    _crash_culprit(candidate, config, machines)
                    if uses_oracle else machine
                ))
            return False
        return any(_failure_signature(v) == signature for v in violations)

    return predicate


def _seed_trace(options: VerifyOptions, seed: int) -> Trace:
    """The trace for one campaign seed: registry family or legacy fuzz.

    Seeded families get ``:seed=<seed>`` appended; fixed sources
    (``kernel:...``, ``file:...``) resolve to the same trace each
    iteration -- only the config rotation varies.
    """
    if options.source is None:
        return fuzz_trace(seed, options.fuzz)
    from ..trace.sources import (
        MIXED_MACHINES,
        _SOURCES,
        parse_trace_spec,
        trace_source,
    )

    if _SOURCES[parse_trace_spec(options.source).head].seeded:
        trace = trace_source(f"{options.source}:seed={seed}")
    else:
        trace = trace_source(options.source)
    # A file: archive can carry vector operations the head-level guard
    # in VerifyOptions cannot see; apply the same machine restriction
    # here, on the resolved trace.
    if any(entry.instruction.is_vector for entry in trace.entries) and any(
        spec not in MIXED_MACHINES for spec in options.machines
    ):
        raise ValueError(
            f"trace {trace.name!r} contains vector operations, which "
            "replay only on vector-capable machines; restrict "
            f"--machines to {MIXED_MACHINES}"
        )
    return trace


def run_verification(
    options: Optional[VerifyOptions] = None,
    *,
    log: Optional[Logger] = None,
) -> VerifyReport:
    """Run a verification campaign and return its report.

    Stops early once :data:`MAX_FAILURES` distinct failures have been
    collected (each costs a shrink loop); duplicate (check, machine)
    signatures from later seeds are skipped so one systematic bug does
    not flood the report.
    """
    options = options or VerifyOptions()
    report = VerifyReport(options=options)
    seen_signatures = set()

    say = log or (lambda message: None)

    def on_crash(candidate: Trace, exc: Exception, culprit) -> None:
        report.shrink_crashes += 1
        if report.first_shrink_crash is None:
            report.first_shrink_crash = (
                f"{culprit()} on a {len(candidate)}-instruction candidate: "
                f"{type(exc).__name__}: {exc}"
            )
            say(f"  shrink candidate crashed {report.first_shrink_crash}")

    for index in range(options.seeds):
        seed = options.first_seed + index
        config = options.configs[index % len(options.configs)]
        trace = _seed_trace(options, seed)
        violation, checks = _first_violation(
            trace, config, options.machines,
            check_telemetry=options.check_telemetry,
            report=report,
        )
        report.seeds_run += 1
        report.checks_run += checks
        if violation is None:
            continue

        signature = _failure_signature(violation)
        say(
            f"seed {seed} ({config.name}): FAILED [{violation.check}] "
            f"{violation.machine}: {violation.message}"
        )
        if signature in seen_signatures:
            continue
        seen_signatures.add(signature)

        repro = trace
        if options.shrink:
            predicate = _still_fails_same_way(
                signature, config, options.machines,
                check_telemetry=options.check_telemetry,
                on_crash=on_crash,
            )
            repro = shrink_trace(
                trace, predicate, name=f"{trace.name}-shrunk"
            )
            say(
                f"  shrunk {len(trace)} -> {len(repro)} instructions"
            )

        repro_path: Optional[Path] = None
        if options.dump_dir is not None:
            options.dump_dir.mkdir(parents=True, exist_ok=True)
            repro_path = options.dump_dir / (
                f"repro-seed{seed}-{violation.check}.jsonl"
            )
            write_trace(repro, repro_path)
            say(f"  reproducer written to {repro_path}")

        # Re-derive the message on the shrunk trace when possible, so the
        # report points at the minimal witness.
        message = violation.message
        small_violation, _ = _first_violation(
            repro, config, options.machines,
            check_telemetry=options.check_telemetry,
        )
        if small_violation is not None and (
            _failure_signature(small_violation) == signature
        ):
            message = small_violation.message

        report.failures.append(
            VerifyFailure(
                seed=seed,
                check=violation.check,
                machine=violation.machine,
                config=config.name,
                message=message,
                trace=repro,
                repro_path=repro_path,
            )
        )
        if len(report.failures) >= MAX_FAILURES:
            say(f"stopping after {MAX_FAILURES} distinct failures")
            break

    return report


def smoke_options(seeds: int = 25) -> VerifyOptions:
    """A small, fast campaign (used by tier-1 tests and CI smoke)."""
    return replace(
        VerifyOptions(),
        seeds=seeds,
        fuzz=FuzzSpec(length=32),
    )
