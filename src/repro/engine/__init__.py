"""The analysis engine: a persistent content-addressed summary cache,
a forked substitution fan-out, and per-run profiling.

:class:`~repro.engine.core.Engine` is the only object callers touch; it
plugs into :func:`repro.ipcp.driver.analyze_prepared` (and the
``analyze_*`` entry points above it) and replaces the serial
return-function / forward-function / substitution stages with cached,
optionally parallel equivalents whose outputs are byte-identical to the
serial pipeline's. See ``docs/PERFORMANCE.md``.
"""

from repro.engine.batch import BatchResult, FileOutcome, run_batch
from repro.engine.cache import CacheStats, SummaryCache, default_cache_root
from repro.engine.core import Engine
from repro.engine.fingerprint import (
    ENGINE_CACHE_VERSION,
    config_fingerprint,
    procedure_digest,
    source_digest,
    summary_index,
    summary_keys,
)
from repro.engine.incremental import InvalidationReport, diff_manifest
from repro.engine.scheduler import condensation_levels

__all__ = [
    "BatchResult",
    "CacheStats",
    "Engine",
    "ENGINE_CACHE_VERSION",
    "FileOutcome",
    "InvalidationReport",
    "SummaryCache",
    "condensation_levels",
    "config_fingerprint",
    "default_cache_root",
    "diff_manifest",
    "procedure_digest",
    "run_batch",
    "source_digest",
    "summary_index",
    "summary_keys",
]
