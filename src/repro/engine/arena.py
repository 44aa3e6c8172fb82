"""Shared-memory summary arena: zero-pickle summary exchange.

The engine's workers historically met only at two boundaries — the
pool's pickle channel (every task carried a full snapshot of the
canonical return-function payload, so wire bytes grew with *waves ×
tasks × summaries*) and the on-disk Merkle cache. A
:class:`SummaryArena` is the third, fast boundary: a memory-mapped
shared segment (``/dev/shm`` when available, so it is backed by RAM,
never the disk) holding an append-only log of summary records, each
keyed like the Merkle cache (``namespace`` ``ret``/``fwd``/``sub`` plus
a key) and encoded with the compact binary codec
(:mod:`repro.engine.codec`). A scheduling wave publishes its results
once; sibling workers read them in place. Task messages shrink to
"apply records ``[a, b)``" markers and tiny result descriptors.

Layout (little-endian)::

    header (64 bytes):
      0  magic  b"RPA1"
      4  u16 arena format version
      6  u16 codec version
      8  u32 owner pid
      12 u32 reserved
      16 u64 capacity (data region bytes)
      24 u64 committed (data region bytes published)
      32 u64 record count
      40.. zero padding
    data region: records, each
      u32 record_len | u8 ns_len | ns | u16 key_len | key |
      u32 body_len | body | u32 crc32(ns + key + body)

**Concurrency.** Appends take an ``flock`` on a ``.lock`` sidecar (plus
an in-process :class:`threading.Lock` — flock does not exclude threads
sharing one file description). The kernel releases flock when its
holder dies, so a SIGKILLed worker can never deadlock the arena: its
partial record sits beyond ``committed`` and is invisible. Readers
trust only ``committed``/``count``, and every record is crc-verified on
read, so a torn or corrupted record is *detected*, never consumed —
the engine quarantines the arena for the run and falls back to the
pickle path (``arena_read_failures`` / ``arena_fallbacks`` metrics),
never to a failed analysis.

**Lifecycle.** Segments are named ``repro-arena-<pid>-<token>.seg``;
the owner pid is embedded in both the name and the header so
:func:`reap_stale` can unlink segments leaked by a crashed host (the
daemon reaps its directory on restart). ``unlink``/``close`` are
idempotent; fork children inherit the mapping (an unlinked segment
stays readable through it, which is exactly POSIX shared-memory
semantics).

Fault-injection points (:mod:`repro.faults`): ``corrupt-arena`` flips
record bytes as they are appended (exercising the crc quarantine),
``unlink-arena`` removes the segment at attach time (exercising the
attach-failure fallback).
"""

from __future__ import annotations

import mmap
import os
import struct
import tempfile
import threading
import zlib
from typing import Dict, List, Optional, Tuple

from repro import faults
from repro.engine import codec

#: Arena format version — bumped when the header/record layout changes.
ARENA_FORMAT = 1

#: Default data-region capacity. The segment file is sparse: pages cost
#: memory only once written, so a generous ceiling is free.
DEFAULT_CAPACITY = 256 * 1024 * 1024

_MAGIC = b"RPA1"
_HEADER = struct.Struct("<4sHHII QQQ")
_HEADER_SIZE = 64
_LEN = struct.Struct("<I")
_NS_LEN = struct.Struct("<B")
_KEY_LEN = struct.Struct("<H")

#: Environment overrides (directory and capacity).
ENV_DIR = "REPRO_ARENA_DIR"
ENV_CAPACITY = "REPRO_ARENA_CAPACITY"


class ArenaError(RuntimeError):
    """Base class: the arena is unusable; fall back to the pickle path."""


class ArenaFullError(ArenaError):
    """An append did not fit in the segment's capacity."""


class ArenaAttachError(ArenaError):
    """The segment is missing, foreign, or version-mismatched."""


class ArenaReadError(ArenaError):
    """A record failed bounds or checksum verification."""


def arena_directory() -> str:
    """``$REPRO_ARENA_DIR``, else ``/dev/shm`` (RAM-backed) when
    usable, else the system temp directory."""
    override = os.environ.get(ENV_DIR)
    if override:
        return override
    if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK):
        return "/dev/shm"
    return tempfile.gettempdir()


def default_capacity() -> int:
    override = os.environ.get(ENV_CAPACITY)
    if override:
        try:
            return max(4096, int(override))
        except ValueError:
            pass
    return DEFAULT_CAPACITY


def _count(name: str, amount: int = 1) -> None:
    from repro.obs import metrics

    metrics.inc(name, amount)


#: Same-process attach short-circuit: the host's created arenas (and a
#: worker's previous attaches) are served by path, so inline tasks
#: share the live object instead of remapping.
_ATTACHED: Dict[str, "SummaryArena"] = {}
_ATTACH_LOCK = threading.Lock()


class SummaryArena:
    """One mapped segment. Use :meth:`create` (host) or
    :meth:`attach_cached` (workers); not the constructor."""

    def __init__(self, path: str, fd: int, view: mmap.mmap, owned: bool):
        self.path = path
        self._fd = fd
        self._map = view
        self.owned = owned
        self._closed = False
        self._tlock = threading.Lock()
        self._lock_fd: Optional[int] = None
        #: pid that opened ``_lock_fd``. flock exclusion is per *open
        #: file description*, which a fork child shares with its parent
        #: — so a child that inherited this object must reopen the lock
        #: file to get a description (and hence a lock) of its own.
        self._lock_pid: Optional[int] = None
        #: Start offsets (data-region relative) of records scanned so
        #: far; extended lazily as readers ask for higher indices.
        self._offsets: List[int] = []
        magic, fmt, codec_version, owner, _, capacity, _, _ = (
            _HEADER.unpack_from(view, 0)
        )
        self.capacity = capacity
        self.owner_pid = owner

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        capacity: Optional[int] = None,
        directory: Optional[str] = None,
        label: str = "",
    ) -> "SummaryArena":
        """Create a fresh segment owned by this process."""
        capacity = capacity or default_capacity()
        directory = directory or arena_directory()
        os.makedirs(directory, exist_ok=True)
        suffix = f"-{label}.seg" if label else ".seg"
        fd, path = tempfile.mkstemp(
            prefix=f"repro-arena-{os.getpid()}-", suffix=suffix,
            dir=directory,
        )
        try:
            os.ftruncate(fd, _HEADER_SIZE + capacity)
            view = mmap.mmap(fd, _HEADER_SIZE + capacity)
            _HEADER.pack_into(
                view, 0, _MAGIC, ARENA_FORMAT, codec.CODEC_VERSION,
                os.getpid() & 0xFFFFFFFF, 0, capacity, 0, 0,
            )
        except (OSError, ValueError) as err:
            os.close(fd)
            try:
                os.unlink(path)
            except OSError:
                pass
            raise ArenaError(f"arena create failed: {err}") from err
        arena = cls(path, fd, view, owned=True)
        with _ATTACH_LOCK:
            _ATTACHED[path] = arena
        _count("arena_created")
        from repro.obs import trace

        if trace.ENABLED:
            trace.instant(
                "arena.create", path=os.path.basename(path),
                capacity=capacity,
            )
        return arena

    @classmethod
    def attach(cls, path: str) -> "SummaryArena":
        """Map an existing segment (a spawn worker, or a diagnostic
        tool). Verifies magic, format, and codec version."""
        try:
            fd = os.open(path, os.O_RDWR)
        except OSError as err:
            _count("arena_attach_failures")
            raise ArenaAttachError(
                f"arena segment missing: {err}"
            ) from err
        try:
            view = mmap.mmap(fd, 0)
        except (OSError, ValueError) as err:
            os.close(fd)
            _count("arena_attach_failures")
            raise ArenaAttachError(f"arena map failed: {err}") from err
        magic, fmt, codec_version, _, _, _, _, _ = _HEADER.unpack_from(
            view, 0
        )
        if (
            magic != _MAGIC
            or fmt != ARENA_FORMAT
            or codec_version != codec.CODEC_VERSION
        ):
            view.close()
            os.close(fd)
            _count("arena_attach_failures")
            raise ArenaAttachError(
                f"arena {path!r} has foreign format "
                f"(magic={magic!r}, format={fmt}, codec={codec_version})"
            )
        return cls(path, fd, view, owned=False)

    @classmethod
    def attach_cached(cls, path: str) -> "SummaryArena":
        """Attach with the same-process short-circuit — the host's own
        created object (inline tasks, fork children) is returned
        live; everyone else maps the file once and caches the handle."""
        if faults.fire("unlink-arena", path=path) is not None:
            # The injected operator mistake: the segment vanishes out
            # from under the run. Every later attach must fail cleanly.
            with _ATTACH_LOCK:
                _ATTACHED.pop(path, None)
            try:
                os.unlink(path)
            except OSError:
                pass
            _count("arena_attach_failures")
            raise ArenaAttachError(f"arena segment unlinked: {path!r}")
        with _ATTACH_LOCK:
            cached = _ATTACHED.get(path)
            if cached is not None and not cached._closed:
                return cached
        arena = cls.attach(path)
        with _ATTACH_LOCK:
            _ATTACHED[path] = arena
        return arena

    # -- lifecycle -----------------------------------------------------------

    @property
    def lock_path(self) -> str:
        return self.path + ".lock"

    def close(self) -> None:
        """Drop this process's mapping (idempotent). Never touches the
        file — other processes may still be mapped."""
        if self._closed:
            return
        self._closed = True
        with _ATTACH_LOCK:
            if _ATTACHED.get(self.path) is self:
                del _ATTACHED[self.path]
        try:
            self._map.close()
        except (OSError, ValueError):
            pass
        for fd in (self._fd, self._lock_fd):
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._fd = None
        self._lock_fd = None

    def unlink(self) -> bool:
        """Remove the segment and its lock file (idempotent; tolerates
        a concurrent or earlier unlink). Existing mappings — our own
        included — stay readable; new attaches fail."""
        removed = False
        for path in (self.path, self.lock_path):
            try:
                os.unlink(path)
                removed = removed or path == self.path
            except OSError:
                pass
        if removed:
            _count("arena_unlinked")
        return removed

    def destroy(self) -> None:
        """Host-side teardown: unlink then close."""
        self.unlink()
        self.close()

    # -- writing -------------------------------------------------------------

    def _acquire(self):
        """flock (cross-process) + thread lock (in-process). The flock
        is released by the kernel if we die mid-append, so a crashed
        writer leaves a recoverable arena, not a deadlock."""
        self._tlock.acquire()
        try:
            pid = os.getpid()
            if self._lock_fd is None or self._lock_pid != pid:
                if self._lock_fd is not None:
                    try:
                        os.close(self._lock_fd)
                    except OSError:
                        pass
                self._lock_fd = os.open(
                    self.lock_path, os.O_CREAT | os.O_RDWR, 0o600
                )
                self._lock_pid = pid
            import fcntl

            fcntl.flock(self._lock_fd, fcntl.LOCK_EX)
        except OSError as err:
            self._tlock.release()
            raise ArenaError(f"arena lock failed: {err}") from err

    def _release(self) -> None:
        try:
            import fcntl

            fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
        except OSError:
            pass
        finally:
            self._tlock.release()

    def append(self, namespace: str, key: str, payload) -> int:
        """Append one record; returns its index. Raises
        :class:`ArenaFullError` when it does not fit (the caller falls
        back to the pickle path) — the arena is never left torn."""
        return self.append_many([(namespace, key, payload)])[0]

    def append_many(
        self, records: List[Tuple[str, str, object]]
    ) -> List[int]:
        """Append a batch under one lock acquisition (the host
        publishes whole waves at once)."""
        if self._closed:
            raise ArenaError("arena is closed")
        encoded = []
        for namespace, key, payload in records:
            ns = namespace.encode("utf-8")
            kb = key.encode("utf-8")
            try:
                body = codec.encode_value(payload)
            except codec.CodecError as err:
                # A payload outside the wire domain is an arena-level
                # failure (callers quarantine and fall back to pickle),
                # not a run-level one.
                raise ArenaError(f"unencodable record: {err}") from err
            crc = zlib.crc32(ns + kb + body)
            if faults.fire(
                "corrupt-arena", namespace=namespace, path=self.path
            ) is not None:
                # Bit-rot the body after the crc is computed over the
                # *intended* bytes — readers must detect the mismatch.
                if len(body) > 1:
                    body = body[:1] + bytes((body[1] ^ 0xFF,)) + body[2:]
                else:
                    body = b"\xff"
            record = b"".join(
                (
                    _NS_LEN.pack(len(ns)), ns,
                    _KEY_LEN.pack(len(kb)), kb,
                    _LEN.pack(len(body)), body,
                    _LEN.pack(crc & 0xFFFFFFFF),
                )
            )
            encoded.append(_LEN.pack(len(record)) + record)
        total = sum(len(r) for r in encoded)
        self._acquire()
        try:
            _, _, _, _, _, capacity, committed, count = _HEADER.unpack_from(
                self._map, 0
            )
            if committed + total > capacity:
                _count("arena_full")
                raise ArenaFullError(
                    f"arena {os.path.basename(self.path)} full: "
                    f"{committed + total} > {capacity} bytes"
                )
            offset = _HEADER_SIZE + committed
            indices = []
            for record in encoded:
                self._map[offset:offset + len(record)] = record
                indices.append(count)
                offset += len(record)
                count += 1
            committed = offset - _HEADER_SIZE
            struct.pack_into("<QQ", self._map, 24, committed, count)
        finally:
            self._release()
        _count("arena_appends", len(records))
        _count("arena_bytes", total)
        return indices

    # -- reading -------------------------------------------------------------

    def committed(self) -> Tuple[int, int]:
        """(bytes, records) published so far."""
        _, _, _, _, _, _, committed, count = _HEADER.unpack_from(
            self._map, 0
        )
        return committed, count

    @property
    def count(self) -> int:
        return self.committed()[1]

    def _scan_to(self, index: int) -> None:
        offsets = self._offsets
        if index < len(offsets):
            return
        committed, count = self.committed()
        if index >= count:
            raise ArenaReadError(
                f"record {index} beyond committed count {count}"
            )
        if not offsets:
            offsets.append(0)
        # Step past the last known record start, then walk forward.
        position = offsets[-1]
        length = _LEN.unpack_from(self._map, _HEADER_SIZE + position)[0]
        position += _LEN.size + length
        while len(offsets) <= index:
            if position >= committed:
                raise ArenaReadError(
                    f"record scan ran past committed bytes at {position}"
                )
            offsets.append(position)
            length = _LEN.unpack_from(
                self._map, _HEADER_SIZE + position
            )[0]
            position += _LEN.size + length

    def read(self, index: int) -> Tuple[str, str, object]:
        """Read record ``index`` as ``(namespace, key, payload)``,
        crc-verified."""
        try:
            self._scan_to(index)
            base = _HEADER_SIZE + self._offsets[index]
            committed, _ = self.committed()
            limit = _HEADER_SIZE + committed
            record_len = _LEN.unpack_from(self._map, base)[0]
            if base + _LEN.size + record_len > limit:
                raise ArenaReadError(f"record {index} overruns arena")
            at = base + _LEN.size
            ns_len = _NS_LEN.unpack_from(self._map, at)[0]
            at += _NS_LEN.size
            ns = bytes(self._map[at:at + ns_len])
            at += ns_len
            key_len = _KEY_LEN.unpack_from(self._map, at)[0]
            at += _KEY_LEN.size
            kb = bytes(self._map[at:at + key_len])
            at += key_len
            body_len = _LEN.unpack_from(self._map, at)[0]
            at += _LEN.size
            body = bytes(self._map[at:at + body_len])
            at += body_len
            crc = _LEN.unpack_from(self._map, at)[0]
            if zlib.crc32(ns + kb + body) & 0xFFFFFFFF != crc:
                raise ArenaReadError(
                    f"record {index} failed checksum verification"
                )
            payload = codec.decode_value(body)
        except (codec.CodecError, struct.error, IndexError, ValueError) as err:
            _count("arena_read_failures")
            raise ArenaReadError(
                f"record {index} unreadable: {err}"
            ) from err
        except ArenaReadError:
            _count("arena_read_failures")
            raise
        _count("arena_reads")
        return ns.decode("utf-8"), kb.decode("utf-8"), payload

    def read_payload(self, index: int, expect_key: Optional[str] = None):
        namespace, key, payload = self.read(index)
        if expect_key is not None and key != expect_key:
            _count("arena_read_failures")
            raise ArenaReadError(
                f"record {index} keyed {key!r}, expected {expect_key!r}"
            )
        return payload

    def read_range(self, start: int, stop: int) -> List[object]:
        """Payloads of records ``[start, stop)`` in order."""
        return [self.read(index)[2] for index in range(start, stop)]


def reap_stale(directory: Optional[str] = None) -> List[str]:
    """Unlink arena segments (and lock sidecars) whose owner process is
    dead — leaked by a crashed host. Returns the reaped segment paths.
    Called by the daemon on restart; safe to call concurrently (unlink
    races are tolerated)."""
    directory = directory or arena_directory()
    reaped: List[str] = []
    try:
        entries = os.listdir(directory)
    except OSError:
        return reaped
    for name in entries:
        if not name.startswith("repro-arena-") or not name.endswith(".seg"):
            continue
        parts = name.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            continue
        if _pid_alive(pid):
            continue
        path = os.path.join(directory, name)
        try:
            os.unlink(path)
        except OSError:
            continue
        try:
            os.unlink(path + ".lock")
        except OSError:
            pass
        reaped.append(path)
        _count("arena_reaped")
    return reaped


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # alive but not ours (EPERM)
    return True
