"""Persistent on-disk summary cache.

Layout: ``<root>/v<ENGINE_CACHE_VERSION>/<namespace>/<k[:2]>/<k>.json``
— one JSON file per entry, written atomically (temp file + rename), so
concurrent readers/writers (parallel workers, simultaneous CLI runs)
can never observe a torn entry. A version bump simply orphans the old
``v<N>`` directory.

Entries are **checksummed**: the stored object is a wrapper
``{"sha256": <digest of canonical body JSON>, "body": <payload>}``,
verified on every read. The atomic-rename protocol already rules out
*torn* entries, but a long-lived daemon also has to survive what rename
cannot prevent — bit rot, a concurrent writer with a different code
version, an operator editing cache files, or a filesystem that lied
about durability. Any entry that fails to parse, lacks the wrapper
shape, or whose body hashes differently is **quarantined**: counted as
a miss, renamed to ``<entry>.corrupt`` (so the bad bytes are kept for
forensics but never consulted again), and surfaced through the
``cache_quarantined`` metric. Warm reuse is only sound if stale or
corrupt state is detected and evicted; a quarantined entry is simply
recomputed.

Namespaces in use: ``ret`` (return jump functions per procedure),
``fwd`` (forward jump functions per procedure), ``sub`` (substitution
measurements per procedure), ``run`` (whole-run outcomes keyed on
source digest + config fingerprint — the ``repro analyze`` fast path),
``man`` (incremental manifests).

This is the *cross-run* summary tier. Within one run the parent builds
return and forward jump functions itself, and substitution workers
inherit what they read by fork, so only the parent persists summaries
here. Handles may be shared across threads, so the stats counters are
lock-protected; the entry files themselves are safe under concurrency
via atomic rename.

Fault-injection points (:mod:`repro.faults`): ``fail-write`` makes a
store raise mid-write (degrades to a smaller cache), ``truncate-cache``
tears the serialized entry in half, ``corrupt-cache`` flips the stored
digest — the latter two exercise exactly the quarantine path above.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro import faults
from repro.engine import fingerprint


def default_cache_root() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return os.path.join(xdg, "repro")
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def payload_digest(payload) -> str:
    """Canonical content hash of a cache body (key-sorted compact JSON,
    so semantically equal payloads hash equally regardless of insertion
    order)."""
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Lookup/store accounting for one cache handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Misses caused by integrity failures (subset of ``misses``).
    quarantined: int = 0
    #: Stores that failed (full disk, injected write fault).
    store_failures: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "store_failures": self.store_failures,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class SummaryCache:
    """Content-addressed JSON object store with hit/miss accounting
    and payload integrity verification."""

    root: str
    stats: CacheStats = field(default_factory=CacheStats)
    #: Guards ``stats`` (the ``+=`` read-modify-writes would drop
    #: counts under real thread overlap). Not comparable/serializable
    #: state, hence excluded from the dataclass protocol.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def _path(self, namespace: str, key: str) -> str:
        return os.path.join(
            self.root,
            f"v{fingerprint.ENGINE_CACHE_VERSION}",
            namespace,
            key[:2],
            f"{key}.json",
        )

    def get(self, namespace: str, key: str) -> Optional[dict]:
        path = self._path(namespace, key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            with self._lock:
                self.stats.misses += 1
            return None
        try:
            wrapper = json.loads(text)
        except ValueError:
            # Unparseable bytes under the checksummed layout mean the
            # entry was torn or rotted after the atomic rename.
            self._quarantine(namespace, path, "unparseable")
            return None
        if (
            not isinstance(wrapper, dict)
            or "sha256" not in wrapper
            or "body" not in wrapper
        ):
            self._quarantine(namespace, path, "missing checksum wrapper")
            return None
        body = wrapper["body"]
        if payload_digest(body) != wrapper["sha256"]:
            self._quarantine(namespace, path, "digest mismatch")
            return None
        with self._lock:
            self.stats.hits += 1
        return body

    def put(self, namespace: str, key: str, payload: dict) -> None:
        path = self._path(namespace, key)
        directory = os.path.dirname(path)
        digest = payload_digest(payload)
        text = json.dumps(
            {"sha256": digest, "body": payload}, separators=(",", ":")
        )
        # Fault-injection points: tear, rot, or fail this write.
        if faults.fire("truncate-cache", namespace=namespace) is not None:
            text = text[: max(1, len(text) // 2)]
        if faults.fire("corrupt-cache", namespace=namespace) is not None:
            text = text.replace(digest, "0" * len(digest), 1)
        try:
            if faults.fire("fail-write", namespace=namespace) is not None:
                raise OSError("injected cache write failure")
            os.makedirs(directory, exist_ok=True)
            descriptor, temp_path = tempfile.mkstemp(
                dir=directory, suffix=".tmp"
            )
        except OSError:
            self._note_store_failure()
            return
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(temp_path, path)
        except OSError:
            # A full/read-only cache disk degrades to a smaller cache,
            # never to a failed analysis.
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            self._note_store_failure()
            return
        with self._lock:
            self.stats.stores += 1

    def delete(self, namespace: str, key: str) -> bool:
        """Drop one entry (the daemon's ``invalidate`` op). True when
        an entry existed and was removed."""
        try:
            os.unlink(self._path(namespace, key))
        except OSError:
            return False
        return True

    # -- integrity -----------------------------------------------------------

    def _quarantine(self, namespace: str, path: str, reason: str) -> None:
        """Evict a failed entry: count a miss, keep the bytes aside as
        ``<entry>.corrupt``, and make the event visible in metrics and
        the trace. Renaming (not deleting) preserves the evidence while
        guaranteeing the entry can never be served again; if even the
        rename fails the entry stays in place but every future read
        re-fails verification, so correctness never depends on the
        quarantine write succeeding."""
        with self._lock:
            self.stats.misses += 1
            self.stats.quarantined += 1
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            pass
        from repro.obs import metrics, trace

        metrics.inc("cache_quarantined")
        if trace.ENABLED:
            trace.instant(
                "cache.quarantine", namespace=namespace,
                entry=os.path.basename(path), reason=reason,
            )

    def _note_store_failure(self) -> None:
        with self._lock:
            self.stats.store_failures += 1
        from repro.obs import metrics

        metrics.inc("cache_store_failures")
