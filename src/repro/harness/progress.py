"""Live engine progress: per-cell completion events for ``run_plan``.

The engine evaluates plan cells over a process pool; until a run
finishes, the only signal is the final footer.  This module defines the
streaming contract: ``run_plan(progress=...)`` invokes the callback in
the *parent* process once per completed cell, as worker results arrive
(completion order, not plan order -- the deterministic merge is
unaffected).  The CLI renders the stream as a live ticker
(``repro tables --progress``) or as one JSON object per line
(``--progress-format jsonl``), the seed of the serve-layer streaming
API.

Callbacks run on the engine's result-collection path: keep them cheap
and never raise (a raising callback aborts the run, exactly like any
other exception in the parent).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

__all__ = ["ProgressCallback", "ProgressEvent"]


@dataclass(frozen=True)
class ProgressEvent:
    """One completed plan cell.

    Attributes:
        table_id: the plan being evaluated.
        completed: cells finished so far (this one included).
        total: cells in the plan.
        index: the cell's position in plan order.
        loop: Livermore loop number of the cell's trace (0 when the
            trace source is not a kernel).
        machine: registry spec of the machine (``""`` for limits cells).
        config: machine-configuration name (``"M11BR5"`` etc.).
        row: the table row this cell feeds.
        seconds: the cell's compute time in its worker.
        result_hit: whether the value came from the result cache.
        pid: the worker process that evaluated the cell.
    """

    table_id: str
    completed: int
    total: int
    index: int
    loop: int
    machine: str
    config: str
    row: str
    seconds: float
    result_hit: bool
    pid: int

    def to_payload(self) -> dict:
        """Flat JSON-ready mapping (one ``--progress-format jsonl`` line)."""
        return asdict(self)


#: The ``run_plan(progress=...)`` contract.
ProgressCallback = Callable[[ProgressEvent], None]
