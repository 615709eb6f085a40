"""Dynamic trace layer: capture, representation, statistics and caching."""

from .cache import GLOBAL_TRACE_CACHE, TraceCache
from .diskcache import CACHE_DIR_ENV, DiskCache, content_key, default_cache_dir
from .generator import (
    assemble_trace,
    generate_trace,
    generate_trace_with_result,
    subset_trace,
)
from .importer import (
    SUPPORTED_VERSIONS,
    TraceImportError,
    export_trace,
    import_trace,
)
from .io import TraceFormatError, write_trace
from .record import Trace, TraceEntry
from .sources import (
    FAMILY_ENVELOPES,
    MIXED_MACHINES,
    ParsedTraceSpec,
    SourceStats,
    TraceSource,
    UnknownTraceSourceError,
    available_sources,
    format_trace_spec,
    list_sources,
    parse_trace_spec,
    register_source,
    source_names,
    source_statistics,
    trace_source,
)
from .stats import TraceStats, format_stats, trace_stats

__all__ = [
    "CACHE_DIR_ENV",
    "DiskCache",
    "FAMILY_ENVELOPES",
    "GLOBAL_TRACE_CACHE",
    "MIXED_MACHINES",
    "ParsedTraceSpec",
    "SUPPORTED_VERSIONS",
    "SourceStats",
    "Trace",
    "TraceCache",
    "TraceEntry",
    "TraceFormatError",
    "TraceImportError",
    "TraceSource",
    "TraceStats",
    "UnknownTraceSourceError",
    "assemble_trace",
    "available_sources",
    "content_key",
    "default_cache_dir",
    "export_trace",
    "format_stats",
    "format_trace_spec",
    "generate_trace",
    "generate_trace_with_result",
    "import_trace",
    "list_sources",
    "parse_trace_spec",
    "register_source",
    "source_names",
    "source_statistics",
    "subset_trace",
    "trace_source",
    "trace_stats",
    "write_trace",
]
