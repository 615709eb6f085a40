"""The four workloads: what one pass runs, and how its outputs are checked.

A pass is a fixed list of ops run in one fresh process; an op is one
``api.run_table`` call, one verify seed, or one ``api.explore`` call.
Every op goes through the public ``repro.api`` surface with the pool
pinned at two workers.  ``check`` compares an op's output with the
reference it must reproduce and returns why it failed, or ``None``.
``digest`` reduces an op's output to the simulated values that must
repeat exactly across passes, traced or not.

Seeds: ``verify`` fuzzes seeds ``seed .. seed + VERIFY_WINDOW - 1`` and
``explore`` draws its audit sample from the seed; ``tables_cold`` and
``tables_warm`` replay the paper's fixed Livermore kernels and ignore it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FILES = (
    ROOT / "tests" / "data" / "golden_tables.json",
    ROOT / "tests" / "data" / "golden_spec_tables.json",
)
EXPLORE_GATE = ROOT / "benchmarks" / "baselines" / "EXPLORE_accuracy.json"

#: Pool width for every op: this benchmark's host has two cores, and the
#: width is pinned so the load does not follow the host.
WORKERS = 2

#: Seeds per verify pass.
VERIFY_WINDOW = 40

#: The seed at which explore's audit errors must equal the gate file's
#: ``measured`` values.
DEFAULT_SEED = 0

WORKLOADS = ("tables_cold", "tables_warm", "verify", "explore")

#: ``--seconds`` divided by this is the number of passes in a run, so
#: every run does the same work on any host: at ``--seconds 16`` cold 4,
#: warm 6, verify 3, explore 2.  Pinned to one CPU beside the probe
#: (``probe.py``), a pass takes about: cold 8-12 s, warm 2-3 s, verify
#: 3-4 s, explore 6-8 s.
PASS_SHARE_S = {
    "tables_cold": 4.0,
    "tables_warm": 2.6,
    "verify": 5.0,
    "explore": 8.0,
}


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    digest: Callable[[Any], Any]


def required_files() -> List[Path]:
    """Inputs outside the benchmark's directory that every workload reads."""
    return [ROOT / "src" / "repro" / "api.py", *GOLDEN_FILES, EXPLORE_GATE]


def _golden() -> Dict[str, Dict[str, Dict[str, float]]]:
    merged: Dict[str, Dict[str, Dict[str, float]]] = {}
    for path in GOLDEN_FILES:
        merged.update(json.loads(path.read_text()))
    return merged


def _rows(run) -> Dict[str, Dict[str, float]]:
    return {row: dict(values) for row, values in run.table.rows}


def _table_mismatch(table_id: str, expected, warm: bool):
    def check(run) -> Optional[str]:
        if _rows(run) != expected:
            return f"{table_id} differs from the golden table"
        if warm and run.stats.result_hits != run.stats.cells:
            return (
                f"{table_id}: {run.stats.cells - run.stats.result_hits} "
                f"of {run.stats.cells} cells missed the warm result cache"
            )
        return None

    return check


def table_ops(warm: bool) -> List[Op]:
    import repro.api as api
    from repro.kernels import SMALL_SIZES

    golden = _golden()
    return [
        Op(
            name=table_id,
            run=lambda table_id=table_id: api.run_table(
                table_id, sizes=dict(SMALL_SIZES), workers=WORKERS,
                cache=True, observe=True,
            ),
            check=_table_mismatch(table_id, golden[table_id], warm),
            digest=_rows,
        )
        for table_id in api.list_tables()
    ]


def _table_instructions() -> Dict[str, int]:
    """Instructions per table: each cell's trace length, summed."""
    import repro.api as api
    from repro.harness.plans import build_plan
    from repro.kernels import SMALL_SIZES

    lengths: Dict[tuple, int] = {}
    totals: Dict[str, int] = {}
    for table_id in api.list_tables():
        total = 0
        for cell in build_plan(table_id, dict(SMALL_SIZES)).cells:
            key = (cell.loop, cell.n)
            if key not in lengths:
                lengths[key] = len(api.resolve_trace(f"kernel:{cell.loop}:n={cell.n}"))
            total += lengths[key]
        totals[table_id] = total
    return totals


def verify_ops(seed: int) -> List[Op]:
    import repro.api as api
    from repro.core.config import STANDARD_CONFIGS

    def op(first: int) -> Op:
        # Configs rotate with the seed, as a campaign from seed 0 does.
        config = STANDARD_CONFIGS[first % len(STANDARD_CONFIGS)].name
        return Op(
            name=f"seed{first}",
            run=lambda: api.verify_machines(1, first_seed=first, configs=[config]),
            check=lambda report: None if report.ok and report.seeds_run == 1
            else f"seed {first}: {report.failures[:1] or 'not run'}",
            digest=lambda report: [report.seeds_run, report.checks_run],
        )

    return [op(first) for first in range(seed, seed + VERIFY_WINDOW)]


def _verify_instructions(seed: int) -> Dict[str, int]:
    from repro.verify import FuzzSpec
    from repro.verify.fuzz import fuzz_trace
    from repro.verify.oracle import DEFAULT_ORACLE_MACHINES

    return {
        f"seed{first}": len(fuzz_trace(first, FuzzSpec())) * len(DEFAULT_ORACLE_MACHINES)
        for first in range(seed, seed + VERIFY_WINDOW)
    }


def explore_ops(seed: int) -> List[Op]:
    """One ``api.explore`` call per gate source, as the nightly gate makes.

    The seed picks the audit sample (the gate's audit seed plus *seed*).
    The sources stay the gate's: the exact stage's cost depends on which
    candidates land on a source's frontier, and seeding the sources
    moved a pass's wall by a quarter between seeds.
    """
    import repro.api as api

    gate = json.loads(EXPLORE_GATE.read_text())
    limit = gate["audit_mean_relative_error"]

    def op(source: str) -> Op:
        def check(run) -> Optional[str]:
            error = run.audit_errors.mean_relative
            if error > limit:
                return f"{source}: audit error {error:.3f} over the gate {limit}"
            if seed == DEFAULT_SEED and round(error, 3) != gate["measured"][source]:
                return (
                    f"{source}: audit error {error:.3f} != measured "
                    f"{gate['measured'][source]}"
                )
            return None

        return Op(
            name=source,
            run=lambda: api.explore(
                gate["space"], [source], audit=gate["audit"],
                seed=gate["seed"] + seed, cache=False, observe=False,
                workers=WORKERS,
            ),
            check=check,
            digest=lambda run: [
                [[p.spec, p.simulated] for p in run.frontier + run.audit],
                run.audit_errors.mean_relative,
                run.errors.mean_relative,
            ],
        )

    return [op(source) for (source,) in gate["workloads"]]


def _explore_instructions(runs: Dict[str, Any]) -> Dict[str, int]:
    """Instructions replayed by each call's exact stage."""
    import repro.api as api

    return {
        name: run.simulated_count * len(api.resolve_trace(name))
        for name, run in runs.items()
    }


def ops_for(workload: str, seed: int) -> List[Op]:
    if workload in ("tables_cold", "tables_warm"):
        return table_ops(warm=workload == "tables_warm")
    if workload == "verify":
        return verify_ops(seed)
    if workload == "explore":
        return explore_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


def instructions(workload: str, seed: int, outputs: Dict[str, Any]) -> Dict[str, int]:
    """Simulated instructions per op, for ``sim_instr_per_s``."""
    if workload in ("tables_cold", "tables_warm"):
        return _table_instructions()
    if workload == "verify":
        return _verify_instructions(seed)
    return _explore_instructions(outputs)
