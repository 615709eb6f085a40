"""The fast-path backend registry: gating, selection and statistics.

A *backend* is one strategy for replaying a :class:`CompiledTrace`
through machine timing models.  Two ship with the package (registered on
import by their modules, the same shape as :mod:`repro.core.registry`
for machines):

``python``
    The original per-spec compiled loops
    (:mod:`repro.core.fastpath.python_backend`): one machine, one
    config, one replay.  This is what ``simulate()`` dispatches to.

``batch``
    Sweep evaluation (:mod:`repro.core.fastpath.batch`): one compiled
    trace replayed through *many* (machine, config) pairs in one call.
    Out-of-order members share one structure-of-arrays pass and its
    buffer decomposition and hazard analysis; every other member takes
    its ``python`` per-spec loop, which measures as fast or faster for
    those families.

Gating is uniform across backends and decided here, once, per
(simulator, call):

* ``REPRO_FASTPATH=0`` / :func:`set_enabled` disables every backend --
  ineligible work runs the reference loops via ``simulator.simulate``;
* an installed ``on_event`` hook (:func:`repro.obs.events.hook_installed`)
  forces the reference loop, which is the only event-emitting path;
* machines without a compiled loop (and RUU machines with a branch
  predictor) always take their own ``simulate`` path.

:func:`stats` merges the compile-cache counters from
:mod:`repro.core.fastpath.ir` with per-backend run counters
(``python.fast_runs``, ``batch.fast_runs``, ``batch.sweeps``, ...), so
manifests and ``repro stats`` can attribute every fast run to the
backend that served it; the flat ``fast_runs`` key remains the total
across backends.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..config import MachineConfig
from ..result import SimulationResult
from . import ir

__all__ = [
    "Backend",
    "SweepItem",
    "enabled",
    "fast_eligible",
    "get_backend",
    "list_backends",
    "register_backend",
    "reset_stats",
    "resolve_backend",
    "set_enabled",
    "stats",
]

_ENABLED = os.environ.get("REPRO_FASTPATH", "1") != "0"


def enabled() -> bool:
    """Is fast-path auto-selection on? (``REPRO_FASTPATH=0`` disables.)"""
    return _ENABLED


def set_enabled(value: bool) -> bool:
    """Toggle fast-path auto-selection; returns the previous setting.

    Applies to every backend: with the fast path disabled, machines and
    sweeps run the reference loops regardless of the backend requested.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(value)
    return previous


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

@dataclass
class SweepItem:
    """One member of a sweep: a machine, a config, and optionally a
    schedule list that receives per-instruction ``(issue, complete)``
    pairs (only honoured on the fast path; gated fallbacks run the
    reference loop, which reports through events instead)."""

    simulator: Any
    config: MachineConfig
    record: Optional[ir.Schedule] = None


class Backend:
    """One replay strategy over the compiled IR.

    Subclasses implement :meth:`simulate` (one machine, one config) and
    :meth:`simulate_sweep` (one trace, many machine/config pairs) and
    register an instance with :func:`register_backend`.  Both entry
    points assume the caller already passed the gating checks
    (:func:`fast_eligible`); ineligible work never reaches a backend.
    """

    name: str = ""
    #: Counters this backend reports; seeded to zero at registration so
    #: ``stats()`` exposes a stable key set (the engine diffs snapshots).
    counter_names: Tuple[str, ...] = ("fast_runs",)

    def simulate(
        self, simulator, trace, config, record=None
    ) -> SimulationResult:
        raise NotImplementedError

    def simulate_sweep(self, trace, items) -> List[SimulationResult]:
        raise NotImplementedError


_BACKENDS: Dict[str, Backend] = {}
_RUN_STATS: Dict[str, Dict[str, int]] = {}


def register_backend(backend: Backend) -> Backend:
    """Add *backend* to the registry (last registration wins per name)."""
    if not backend.name:
        raise ValueError("backend must carry a non-empty name")
    _BACKENDS[backend.name] = backend
    counters = _RUN_STATS.setdefault(backend.name, {})
    for key in backend.counter_names:
        counters.setdefault(key, 0)
    return backend


def get_backend(name: str) -> Backend:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown fastpath backend {name!r}; "
            f"registered: {', '.join(sorted(_BACKENDS))}"
        ) from None


def list_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def resolve_backend(name: str) -> Backend:
    """Resolve a backend request, mapping ``"auto"`` to the batch backend
    (the sweep-shaped entry points are the only callers that resolve)."""
    return get_backend("batch" if name == "auto" else name)


def count_run(backend: str, key: str, n: int = 1) -> None:
    """Bump a per-backend run counter (backends call this)."""
    counters = _RUN_STATS.setdefault(backend, {})
    counters[key] = counters.get(key, 0) + n


def stats() -> Dict[str, int]:
    """Compile-cache and per-backend dispatch counters, flattened.

    ``compiles`` / ``cache_hits`` / ``cache_misses`` / ``evictions``
    describe the per-trace compile cache (every miss compiles, so
    ``cache_misses == compiles`` unless the counters were reset between
    the two events; ``evictions`` counts entries dropped by the weak
    reference when their trace was garbage-collected).  ``fast_runs``
    totals fast replays across backends; ``<backend>.<counter>`` keys
    (``python.fast_runs``, ``batch.fast_runs``, ``batch.sweeps``,
    ``batch.fallback_runs``) attribute them to the backend that served
    them.  ``batch.fast_runs`` counts the out-of-order members the batch
    kernel served; ``batch.fallback_runs`` counts the members of a batch
    sweep served by per-spec loops instead -- the chosen kernel for
    every other family, not a failure.
    """
    merged: Dict[str, int] = dict(ir._STATS)
    merged["fast_runs"] = 0
    for name in sorted(_RUN_STATS):
        for key, value in sorted(_RUN_STATS[name].items()):
            merged[f"{name}.{key}"] = value
            if key == "fast_runs":
                merged["fast_runs"] += value
    return merged


def reset_stats() -> None:
    """Zero every counter (tests and benchmarks use this)."""
    ir.reset_compile_stats()
    for counters in _RUN_STATS.values():
        for key in counters:
            counters[key] = 0


# ----------------------------------------------------------------------
# Gating
# ----------------------------------------------------------------------

_FAMILY_CLASSES: Optional[Tuple[Tuple[type, str], ...]] = None


def _family_classes() -> Tuple[Tuple[type, str], ...]:
    # Deferred: the machine modules import this package at module level.
    global _FAMILY_CLASSES
    if _FAMILY_CLASSES is None:
        from ..cdc6600 import CDC6600Machine
        from ..inorder_multi import InOrderMultiIssueMachine
        from ..ooo_multi import OutOfOrderMultiIssueMachine
        from ..ruu import RUUMachine
        from ..scoreboard import ScoreboardMachine
        from ..spec import SpecMachine
        from ..tomasulo import TomasuloMachine

        _FAMILY_CLASSES = (
            (ScoreboardMachine, "scoreboard"),
            (InOrderMultiIssueMachine, "inorder"),
            (OutOfOrderMultiIssueMachine, "ooo"),
            (RUUMachine, "ruu"),
            (SpecMachine, "spec"),
            (TomasuloMachine, "tomasulo"),
            (CDC6600Machine, "cdc6600"),
        )
    return _FAMILY_CLASSES


def family_of(simulator) -> Optional[str]:
    """The compiled-loop family of *simulator*, or ``None`` if it has no
    fast path (memory-system wrappers, the simple machine, ...)."""
    for cls, family in _family_classes():
        if isinstance(simulator, cls):
            return family
    return None


def fast_eligible(simulator) -> bool:
    """May *simulator* be served by a fast-path backend right now?

    The single gating rule every backend shares: the fast path must be
    enabled, the machine must have a compiled loop, no ``on_event`` hook
    may be installed (hooks only fire from the reference loops), and a
    RUU machine must not carry a branch predictor (the compiled loop
    models only the default resolve-at-issue policy).  The speculative
    family is exempt from the predictor rule: its compiled loop replays
    the machine's deterministic predictor itself.
    """
    if not _ENABLED:
        return False
    from ...obs.events import hook_installed

    if hook_installed(simulator):
        return False
    family = family_of(simulator)
    if family is None:
        return False
    if family == "ruu" and simulator.predictor_factory is not None:
        return False
    return True
