"""Experiments outside the table plans: per-loop rates and Section 3.3.

The paper's tables are declarative plans (:mod:`repro.harness.plans`)
evaluated by the engine: ``run_plan(build_plan("table3", sizes))``, or
:func:`repro.api.run_table` with caching and parallelism.  This module
holds the two results that are not tables of the paper: the per-loop
appendix table and the Section 3.3 quote.

Both functions accept ``sizes`` (a loop-number -> problem-size mapping)
so tests can run scaled-down versions; they default to the standard
sizes in :mod:`repro.kernels.sizes`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ..core.buses import BusKind
from ..core.config import MachineConfig
from ..core.ruu import RUUMachine
from ..kernels import SCALAR_LOOPS, VECTORIZABLE_LOOPS, build_kernel
from ..limits import compute_limits
from ..trace import Trace
from .aggregate import harmonic_mean
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

