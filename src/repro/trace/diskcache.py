"""Persistent content-addressed store for traces and per-cell results.

The process-wide trace memo (:data:`~repro.trace.GLOBAL_TRACE_CACHE`)
forgets everything between runs; this module makes the paper's
capture-once/replay-many split durable.  Entries are keyed by a SHA-256
hash over a canonical JSON encoding of the identifying parameters
(kernel id, problem size, unroll factor, schedule flags, machine spec,
machine config, ...), so a key can never collide across semantically
different cells and never misses across semantically identical ones.

Layout (under ``$REPRO_CACHE_DIR``, default ``~/.cache/repro``)::

    traces/<sha256>.jsonl    -- JSON-lines kernel trace archives, written by
                                repro.trace.io, read by repro.trace.importer
    results/<sha256>.jsonl   -- one header line + one result record

Every read is fail-soft: a missing, truncated, or otherwise corrupted
entry behaves exactly like a cache miss (the file is deleted and rebuilt),
so the cache can only ever change timing, never results.  Writes go
through a temporary file and :func:`os.replace`, so concurrent writers
(the parallel engine's worker processes) never expose partial entries.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from .importer import import_trace
from .io import write_trace
from .record import Trace

logger = logging.getLogger(__name__)

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump to invalidate every existing entry after a format change.
STORE_VERSION = 1


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro"


def content_key(parts: Mapping[str, Any]) -> str:
    """SHA-256 over a canonical JSON encoding of *parts*.

    *parts* must be JSON-serialisable; key order is normalised so
    logically equal mappings hash identically.
    """
    canonical = json.dumps(
        dict(parts, _store_version=STORE_VERSION),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class DiskCache:
    """Content-addressed persistent store for traces and cell results.

    All loads are fail-soft; all stores are atomic and best-effort (an
    unwritable cache directory degrades to a no-op cache rather than
    failing the experiment).
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.trace_hits = 0
        self.trace_misses = 0
        self.result_hits = 0
        self.result_misses = 0
        # Corrupted-entry rebuilds.  A rebuild is silent for correctness
        # (it behaves like a miss) but never silent for observability:
        # each one is counted and logged, and the engine republishes the
        # counts through the repro.obs metrics registry.
        self.trace_corruptions = 0
        self.result_corruptions = 0

    # -- paths ---------------------------------------------------------

    def trace_path(self, key_parts: Mapping[str, Any]) -> Path:
        return self.root / "traces" / f"{content_key(key_parts)}.jsonl"

    def result_path(self, key_parts: Mapping[str, Any]) -> Path:
        return self.root / "results" / f"{content_key(key_parts)}.jsonl"

    # -- traces --------------------------------------------------------

    def load_trace(self, key_parts: Mapping[str, Any]) -> Optional[Trace]:
        """The stored trace for this key, or None on miss/corruption."""
        path = self.trace_path(key_parts)
        try:
            # Opened here, not by import_trace, which would fold a
            # missing file (a plain miss) into a TraceImportError.
            with open(path) as handle:
                trace = import_trace(handle, name=str(path))
        except FileNotFoundError:
            self.trace_misses += 1
            return None
        except (OSError, ValueError) as exc:
            # Corrupted archive: drop it and report a miss so the caller
            # rebuilds (and re-stores) the trace.
            self.trace_corruptions += 1
            logger.warning(
                "corrupted trace cache entry %s (%s); discarding, "
                "it will be rebuilt", path, exc,
            )
            self._discard(path)
            self.trace_misses += 1
            return None
        self.trace_hits += 1
        return trace

    def store_trace(self, key_parts: Mapping[str, Any], trace: Trace) -> None:
        import io as _io

        buffer = _io.StringIO()
        write_trace(trace, buffer)
        try:
            _atomic_write(self.trace_path(key_parts), buffer.getvalue())
        except OSError:
            pass

    # -- cell results --------------------------------------------------

    def load_result(
        self, key_parts: Mapping[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """The stored result record for this key, or None."""
        path = self.result_path(key_parts)
        try:
            lines = [
                line for line in path.read_text().splitlines() if line.strip()
            ]
            if len(lines) != 2:
                raise ValueError("result entry must be header + record")
            header = json.loads(lines[0])
            if header.get("kind") != "header":
                raise ValueError("missing header record")
            if header.get("version") != STORE_VERSION:
                raise ValueError("stale store version")
            record = json.loads(lines[1])
            if not isinstance(record, dict):
                raise ValueError("result record must be an object")
        except FileNotFoundError:
            self.result_misses += 1
            return None
        except (OSError, ValueError) as exc:
            self.result_corruptions += 1
            logger.warning(
                "corrupted result cache entry %s (%s); discarding, "
                "it will be recomputed", path, exc,
            )
            self._discard(path)
            self.result_misses += 1
            return None
        self.result_hits += 1
        return record

    def store_result(
        self, key_parts: Mapping[str, Any], record: Mapping[str, Any]
    ) -> None:
        header = {"kind": "header", "version": STORE_VERSION}
        text = json.dumps(header) + "\n" + json.dumps(dict(record)) + "\n"
        try:
            _atomic_write(self.result_path(key_parts), text)
        except OSError:
            pass

    # -- maintenance ---------------------------------------------------

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def clear(self) -> None:
        """Delete every cached entry (leaves the root directory)."""
        for sub in ("traces", "results"):
            directory = self.root / sub
            if not directory.is_dir():
                continue
            for entry in directory.glob("*.jsonl"):
                self._discard(entry)

    def counters(self) -> Dict[str, int]:
        return {
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "trace_corruptions": self.trace_corruptions,
            "result_corruptions": self.result_corruptions,
        }
