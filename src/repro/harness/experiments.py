"""Experiment definitions: one function per table in the paper.

Each ``tableN()`` function rebuilds the paper's Table N from scratch.
Since the engine redesign the functions are thin wrappers: they build the
table's declarative cell decomposition (:mod:`repro.harness.plans`) and
evaluate it with the in-process engine (:mod:`repro.harness.engine`).
Parallel and cached evaluation of the same plans is exposed through
:mod:`repro.api` -- both paths produce bit-identical tables.

Row and column labels match :mod:`repro.harness.paper` exactly, so
results can be compared cell-by-cell against the paper's numbers.

All functions accept ``sizes`` (a loop-number -> problem-size mapping) so
tests can run scaled-down versions; experiments default to the standard
sizes in :mod:`repro.kernels.sizes`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..core.buses import BusKind
from ..core.config import MachineConfig
from ..core.ruu import RUUMachine
from ..kernels import SCALAR_LOOPS, VECTORIZABLE_LOOPS, build_kernel
from ..limits import compute_limits
from ..trace import Trace
from .aggregate import harmonic_mean
from .engine import run_plan
from .plans import PLAN_BUILDERS, build_plan
from .tables import ResultTable

Sizes = Optional[Mapping[int, int]]

_CLASS_LOOPS = {
    "scalar": SCALAR_LOOPS,
    "vectorizable": VECTORIZABLE_LOOPS,
}


def class_traces(class_label: str, sizes: Sizes = None) -> List[Trace]:
    """Verified dynamic traces for every loop in a class."""
    loops = _CLASS_LOOPS[class_label]
    traces = []
    for number in loops:
        n = sizes.get(number) if sizes else None
        instance = build_kernel(number, n)
        traces.append(instance.trace() if n is None else instance.verify())
    return traces


def _class_hmean(simulator, traces, config: MachineConfig) -> float:
    return harmonic_mean(
        simulator.issue_rate(trace, config) for trace in traces
    )


def _run(table_id: str, sizes: Sizes, **overrides) -> ResultTable:
    return run_plan(build_plan(table_id, sizes, **overrides), workers=1).table


def table1(sizes: Sizes = None) -> ResultTable:
    """Issue rates of the four basic single-issue machine organisations."""
    return _run("table1", sizes)


def table2(sizes: Sizes = None) -> ResultTable:
    """Pseudo-dataflow, resource and actual limits ("Pure" and "Serial")."""
    return _run("table2", sizes)


def table3(sizes: Sizes = None, stations: Sequence[int] = range(1, 9)) -> ResultTable:
    """Multiple issue units, sequential issue, scalar code."""
    return _run("table3", sizes, stations=stations)


def table4(sizes: Sizes = None, stations: Sequence[int] = range(1, 9)) -> ResultTable:
    """Multiple issue units, sequential issue, vectorizable code."""
    return _run("table4", sizes, stations=stations)


def table5(sizes: Sizes = None, stations: Sequence[int] = range(1, 9)) -> ResultTable:
    """Multiple issue units, out-of-order issue, scalar code."""
    return _run("table5", sizes, stations=stations)


def table6(sizes: Sizes = None, stations: Sequence[int] = range(1, 9)) -> ResultTable:
    """Multiple issue units, out-of-order issue, vectorizable code."""
    return _run("table6", sizes, stations=stations)


def table7(
    sizes: Sizes = None,
    ruu_sizes: Sequence[int] = None,
    units: Sequence[int] = None,
) -> ResultTable:
    """Multiple issue units with RUU dependency resolution, scalar code."""
    overrides = {}
    if ruu_sizes is not None:
        overrides["ruu_sizes"] = ruu_sizes
    if units is not None:
        overrides["units"] = units
    return _run("table7", sizes, **overrides)


def table8(
    sizes: Sizes = None,
    ruu_sizes: Sequence[int] = None,
    units: Sequence[int] = None,
) -> ResultTable:
    """Multiple issue units with RUU dependency resolution, vectorizable code."""
    overrides = {}
    if ruu_sizes is not None:
        overrides["ruu_sizes"] = ruu_sizes
    if units is not None:
        overrides["units"] = units
    return _run("table8", sizes, **overrides)


def table9(sizes: Sizes = None) -> ResultTable:
    """Speculative issue with branch + value prediction, scalar code.

    Not a table from the paper: the limit study the paper motivates.
    Reports speedup of the speculative family over the contended
    ``ruu:4:50`` baseline, plus predictor / value-predictor accuracies
    (see ``docs/speculation.md``).
    """
    return _run("table9", sizes)


def table10(sizes: Sizes = None) -> ResultTable:
    """Speculative issue with branch + value prediction, vectorizable code."""
    return _run("table10", sizes)


# ----------------------------------------------------------------------
# Appendix-style per-loop breakdown (not a paper table; full transparency)
# ----------------------------------------------------------------------

def per_loop_table(
    sizes: Sizes = None,
    config: Optional[MachineConfig] = None,
) -> ResultTable:
    """Per-loop issue rates across the main machine spectrum.

    The paper reports only class harmonic means; this appendix table
    shows each loop individually (with its dataflow limit), which is
    where the class differences come from.
    """
    from ..core.config import M11BR5
    from ..core.ooo_multi import OutOfOrderMultiIssueMachine
    from ..core.scoreboard import cray_like_machine
    from ..core.simple import SimpleMachine
    from ..kernels import ALL_LOOPS, classify

    config = config or M11BR5
    simulators = (
        ("Simple", SimpleMachine()),
        ("CRAY-like", cray_like_machine()),
        ("ooo x4", OutOfOrderMultiIssueMachine(4)),
        ("RUU x4 R=50", RUUMachine(4, 50)),
    )
    columns = tuple(label for label, _ in simulators) + ("DF limit",)
    rows = []
    for number in ALL_LOOPS:
        n = sizes.get(number) if sizes else None
        instance = build_kernel(number, n)
        trace = instance.trace() if n is None else instance.verify()
        values = {
            label: simulator.issue_rate(trace, config)
            for label, simulator in simulators
        }
        values["DF limit"] = compute_limits(trace, config).actual_rate
        label = f"loop {number:02d} ({classify(number).value[:6]})"
        rows.append((label, values))
    return ResultTable(
        table_id="per-loop",
        title=f"Per-loop issue rates on {config.name}",
        columns=columns,
        rows=tuple(rows),
    )


# ----------------------------------------------------------------------
# Section 3.3 quote
# ----------------------------------------------------------------------

def section33(sizes: Sizes = None) -> Dict[str, float]:
    """Single-issue dependency resolution on M11BR5 (Section 3.3 quote).

    The paper: "the issue rate of an M11BR5 machine with a single issue
    unit can be improved to about 0.72 instructions per cycle for scalar
    code and 0.81 instructions for vectorizable code."
    """
    from ..core.config import M11BR5

    simulator = RUUMachine(1, 50, BusKind.N_BUS)
    return {
        class_label: _class_hmean(
            simulator, class_traces(class_label, sizes), M11BR5
        )
        for class_label in ("scalar", "vectorizable")
    }


#: Experiment id -> builder, for backward compatibility (the CLI and
#: benchmarks now go through :mod:`repro.api`, which uses the plans).
EXPERIMENTS = {
    table_id: globals()[table_id] for table_id in sorted(PLAN_BUILDERS)
}
