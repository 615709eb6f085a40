"""In-process trace cache.

A kernel's dynamic trace depends only on the kernel and its problem size --
*not* on any machine parameter (memory latency, branch time, issue method
are all timing-level concerns).  The paper exploits the same property: one
trace per benchmark drives every machine variant.  Caching traces therefore
makes whole-table experiments dramatically cheaper without changing any
result.  :data:`GLOBAL_TRACE_CACHE` is the process's one trace memo: kernel
builds key it by kernel identity, the experiment engine by normalised
trace-source spec.
"""

from __future__ import annotations

from threading import Lock
from typing import Callable, Dict, Hashable, Optional, Tuple

from .record import Trace

_CacheKey = Tuple[Hashable, ...]


class TraceCache:
    """A small thread-safe memoisation table for traces."""

    def __init__(self) -> None:
        self._traces: Dict[_CacheKey, Trace] = {}
        self._lock = Lock()

    def get_or_build(self, key: _CacheKey, build: Callable[[], Trace]) -> Trace:
        """Return the cached trace for *key*, building it on first use."""
        with self._lock:
            cached = self._traces.get(key)
        if cached is not None:
            return cached
        trace = build()
        with self._lock:
            # Another thread may have raced us; keep the first one stored so
            # callers always see a single canonical object per key.
            return self._traces.setdefault(key, trace)

    def peek(self, key: _CacheKey) -> Optional[Trace]:
        """Return the cached trace for *key*, or None."""
        with self._lock:
            return self._traces.get(key)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


#: Process-wide trace memo used by :mod:`repro.kernels` and the engine.
GLOBAL_TRACE_CACHE = TraceCache()
