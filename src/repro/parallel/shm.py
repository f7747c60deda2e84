"""Zero-copy shared-memory payload plane for the parallel engine.

A flow-level sweep runs hundreds of campaigns over the *same* static
inputs -- the array layout's ``packed_boxes``, the characterized
:class:`~repro.sram.PofTable` grids, the electron-yield LUT quantile
rows.  Shipping them to every worker of every map via pickle is the
dominant broadcast cost of the warm pools (:mod:`repro.parallel.pool`).
This module moves those large read-only ndarrays into POSIX shared
memory exactly once and replaces them with tiny fingerprint references
inside the pickled payload:

* :func:`pack_payload` pickles a payload with a custom pickler whose
  ``persistent_id`` diverts every eligible ndarray (``>=``
  :data:`MIN_SHM_BYTES`, non-object dtype) into a
  ``multiprocessing.shared_memory`` segment owned by the process-wide
  :class:`SharedArrayPack`.  Segments are addressed by the sha256
  fingerprint of their contents, so the same array shared twice --
  by a later campaign of the same sweep, say -- reuses the existing
  segment (counted in ``parallel.shm.hits``).
* Workers rebuild the payload with :func:`load_packed`: the unpickler's
  ``persistent_load`` attaches each referenced segment zero-copy (a
  read-only ndarray view over the mapped buffer) and caches the
  attachment by fingerprint, so switching from one campaign to the
  next re-ships only the small dynamic scalars.  A worker keeps the
  last :data:`PAYLOAD_CACHE_MAX` payloads; evicting one unmaps the
  segments no kept payload references.
* Cleanup is refcounted: :func:`release_packed` drops a payload's
  retains and :meth:`SharedArrayPack.release` unlinks a segment when
  its last retaining payload lets go; an ``atexit`` hook
  (:meth:`SharedArrayPack.release_all`) unlinks everything still live
  so no ``/dev/shm`` entries outlive the process.  A segment's memory
  is freed once it is unlinked and every process has unmapped it.
  Forked workers inherit the pack's bookkeeping but never own the
  segments -- every unlink path is guarded by the creating PID -- and
  a pool worker unmaps the inherited segments when it starts
  (:func:`close_inherited`).

When shared memory is unavailable (no writable ``/dev/shm``, exotic
platforms) or disabled with ``REPRO_NO_SHM=1``, arrays stay inline in
the pickle stream -- same results, just a bigger broadcast (counted in
``parallel.shm.fallback``).  ``REPRO_NO_SHM`` is a deployment setting,
read on every share: a tmpfs too small for the payload accepts a
segment's ``ftruncate`` and only fails (SIGBUS) when its pages are
written, which the 16-byte probe of :meth:`SharedArrayPack.available`
cannot detect.

Determinism: a shared array is reconstructed from the exact bytes of
the original (C-contiguous copy), so worker-side values are
bit-identical to the plain-pickle path.
"""

from __future__ import annotations

import atexit
import hashlib
import io
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..obs import get_logger, get_registry, kv

_log = get_logger(__name__)

__all__ = [
    "MIN_SHM_BYTES",
    "PAYLOAD_CACHE_MAX",
    "PackedPayload",
    "SharedArrayPack",
    "ShmArrayRef",
    "array_fingerprint",
    "get_pack",
    "load_packed",
    "pack_payload",
    "release_packed",
]

#: Operator switch: set to any non-empty value to disable the
#: shared-memory plane (arrays ship inline in the pickle stream).
ENV_DISABLE = "REPRO_NO_SHM"

#: Arrays below this size ship inline: a shared-memory segment costs a
#: file descriptor, an mmap and a resource-tracker entry, which only
#: pays off for bulk data (LUT grids, packed boxes), not scalars.
MIN_SHM_BYTES = 1 << 15  # 32 KiB

#: ``persistent_id`` tag marking a diverted array in the pickle stream.
_PID_TAG = "repro.shm.array"


def array_fingerprint(array: np.ndarray) -> str:
    """Content-addressed identity of one ndarray (sha256 hex digest).

    Covers dtype, shape and the exact C-contiguous bytes -- the key
    the shared-memory segment registry dedupes on.
    """
    data = np.ascontiguousarray(array)
    header = f"{data.dtype.str}|{data.shape}|".encode("ascii")
    digest = hashlib.sha256(header)
    digest.update(data.data.cast("B"))
    return digest.hexdigest()


@dataclass(frozen=True)
class ShmArrayRef:
    """Picklable pointer to one array living in a shared segment."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    fingerprint: str


class SharedArrayPack:
    """Process-wide registry of owned shared-memory segments.

    One instance per process (see :func:`get_pack`).  ``share`` is
    called from the packing pickler in the parent; workers only ever
    *attach* (see :func:`_attach`) and never unlink.  Threads of one
    process (a daemon's concurrent campaigns) share and release under
    one lock, so a release cannot unlink a segment that a concurrent
    share is about to retain.
    """

    def __init__(self):
        self._owner_pid = os.getpid()
        self._lock = threading.Lock()
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._refs: Dict[str, ShmArrayRef] = {}
        self._refcounts: Dict[str, int] = {}
        self._available: Optional[bool] = None
        self._atexit_registered = False

    # -- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._segments)

    def segment_names(self) -> Tuple[str, ...]:
        """Names of the currently live segments (tests, leak checks)."""
        return tuple(seg.name for seg in self._segments.values())

    def available(self) -> bool:
        """Probe (once) whether shared memory works on this host."""
        if self._available is None:
            try:
                probe = shared_memory.SharedMemory(create=True, size=16)
                probe.close()
                probe.unlink()
                self._available = True
            except (OSError, ValueError) as exc:  # pragma: no cover
                self._available = False
                _log.warning(
                    "shared memory unavailable, payloads ship inline %s",
                    kv(error=str(exc)),
                )
        return self._available

    # -- parent side: share & release --------------------------------------

    def share(self, array: np.ndarray) -> Optional[ShmArrayRef]:
        """Move one array into a shared segment (deduplicated).

        Returns ``None`` when ``REPRO_NO_SHM`` is set, shared memory is
        unavailable, or segment creation fails -- the caller keeps the
        array inline.
        """
        metrics = get_registry()
        if os.environ.get(ENV_DISABLE):
            if metrics.enabled:
                metrics.counter("parallel.shm.fallback").inc()
            return None
        data = np.ascontiguousarray(array)
        fingerprint = array_fingerprint(data)
        with self._lock:
            return self._share_locked(data, fingerprint, metrics)

    def _share_locked(self, data, fingerprint, metrics):
        existing = self._refs.get(fingerprint)
        if existing is not None:
            self._refcounts[fingerprint] += 1
            if metrics.enabled:
                metrics.counter("parallel.shm.hits").inc()
            return existing

        if not self.available():
            if metrics.enabled:
                metrics.counter("parallel.shm.fallback").inc()
            return None
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=max(int(data.nbytes), 1)
            )
        except (OSError, ValueError) as exc:
            self._available = False
            if metrics.enabled:
                metrics.counter("parallel.shm.fallback").inc()
            _log.warning(
                "shared segment creation failed, array ships inline %s",
                kv(nbytes=int(data.nbytes), error=str(exc)),
            )
            return None

        dst = np.ndarray(data.shape, dtype=data.dtype, buffer=segment.buf)
        dst[...] = data
        ref = ShmArrayRef(
            name=segment.name,
            shape=tuple(data.shape),
            dtype=data.dtype.str,
            fingerprint=fingerprint,
        )
        self._segments[fingerprint] = segment
        self._refs[fingerprint] = ref
        self._refcounts[fingerprint] = 1
        if not self._atexit_registered:
            atexit.register(self.release_all)
            self._atexit_registered = True
        if metrics.enabled:
            metrics.counter("parallel.shm.segments").inc()
            metrics.counter("parallel.shm.bytes").inc(int(data.nbytes))
            metrics.gauge("parallel.shm.active").set(len(self._segments))
        _log.debug(
            "shared segment created %s",
            kv(
                name=segment.name,
                nbytes=int(data.nbytes),
                fingerprint=fingerprint[:12],
            ),
        )
        return ref

    def _unlink(self, fingerprint: str) -> None:
        segment = self._segments.pop(fingerprint, None)
        self._refs.pop(fingerprint, None)
        self._refcounts.pop(fingerprint, None)
        if segment is None:
            return
        try:
            segment.close()
            segment.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover
            pass

    def release(self, fingerprints) -> None:
        """Drop one retain per fingerprint; unlink segments at zero.

        No-op in forked children: only the creating process may unlink
        (a worker inheriting the pack's bookkeeping must not destroy
        segments the parent still serves).
        """
        if os.getpid() != self._owner_pid:
            return
        with self._lock:
            for fingerprint in fingerprints:
                count = self._refcounts.get(fingerprint)
                if count is None:
                    continue
                if count > 1:
                    self._refcounts[fingerprint] = count - 1
                else:
                    self._unlink(fingerprint)
            active = len(self._segments)
        metrics = get_registry()
        if metrics.enabled:
            metrics.gauge("parallel.shm.active").set(active)

    def release_all(self) -> None:
        """Unlink every live segment (atexit hook; PID-guarded).

        A forked child only unmaps the segments it inherited: the
        parent still owns and serves them.
        """
        if os.getpid() != self._owner_pid:
            for segment in self._segments.values():
                try:
                    segment.close()
                except BufferError:  # a view into it is still alive
                    pass
            self._segments.clear()
            self._refs.clear()
            self._refcounts.clear()
            return
        with self._lock:
            for fingerprint in list(self._segments):
                self._unlink(fingerprint)
        metrics = get_registry()
        if metrics.enabled:
            metrics.gauge("parallel.shm.active").set(0)


_PACK: Optional[SharedArrayPack] = None


def get_pack() -> SharedArrayPack:
    """The process-wide :class:`SharedArrayPack` (created lazily)."""
    global _PACK
    if _PACK is None or _PACK._owner_pid != os.getpid():
        # a forked child must never reuse (and later unlink) the
        # parent's bookkeeping -- it gets its own empty pack.
        _PACK = SharedArrayPack()
    return _PACK


def close_inherited() -> None:
    """Unmap the segments a forked child inherited with the parent's pack.

    Left mapped, they would pin every segment the parent owned at fork
    time for the child's whole life, even after the parent unlinks
    them.  Never unlinks.
    """
    global _PACK
    if _PACK is not None and _PACK._owner_pid != os.getpid():
        _PACK.release_all()
        _PACK = None


# -- payload packing (parent side) ------------------------------------------


@dataclass(frozen=True)
class PackedPayload:
    """A payload pre-pickled once and shipped per task.

    ``data`` is the pickle stream with large arrays replaced by
    :class:`ShmArrayRef` persistent ids; when the stream itself is
    bulky (many small grids) it moves into a segment of its own and
    ``data`` is ``None`` with ``blob_ref`` pointing at the stream
    bytes -- per-task IPC then carries only references.
    ``fingerprint`` keys the worker-side payload cache;
    ``shm_fingerprints`` are the segments this payload retains (for
    :meth:`SharedArrayPack.release`).

    Callers that fan out the same payload across many maps (e.g.
    :class:`~repro.core.flow.SerFlow`) can pack once and pass the
    ``PackedPayload`` itself as ``parallel_map``'s ``payload`` -- the
    engine ships it as-is instead of re-packing per map.
    """

    data: Optional[bytes]
    fingerprint: str
    shm_fingerprints: Tuple[str, ...]
    blob_ref: Optional[ShmArrayRef] = None

    @property
    def nbytes(self) -> int:
        """Inline pickle bytes shipped per task (0 when in a segment)."""
        return len(self.data) if self.data is not None else 0


class _PackingPickler(pickle.Pickler):
    """Pickler diverting large ndarrays into the shared-array pack."""

    def __init__(self, file, pack: SharedArrayPack):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._pack = pack
        self.shared: Dict[str, ShmArrayRef] = {}

    def persistent_id(self, obj):
        if (
            type(obj) is np.ndarray
            and obj.nbytes >= MIN_SHM_BYTES
            and not obj.dtype.hasobject
        ):
            ref = self._pack.share(obj)
            if ref is not None:
                if ref.fingerprint in self.shared:
                    # one retain per payload, however often the array
                    # recurs in it: release_packed drops exactly one
                    self._pack.release((ref.fingerprint,))
                self.shared[ref.fingerprint] = ref
                return (_PID_TAG, ref)
        return None


def pack_payload(payload: Any) -> PackedPayload:
    """Serialize a payload once, diverting bulk arrays into shm.

    The returned :class:`PackedPayload` is small (references instead of
    array bytes) and cheap to ship with every task of a warm pool; the
    pack retains one reference per distinct shared array.  Arrays the
    pack declines (see :meth:`SharedArrayPack.share`) stay inline.
    """
    pack = get_pack()
    buffer = io.BytesIO()
    pickler = _PackingPickler(buffer, pack)
    pickler.dump(payload)
    data: Optional[bytes] = buffer.getvalue()
    fingerprint = hashlib.sha256(data).hexdigest()
    blob_ref = None
    if len(data) >= MIN_SHM_BYTES:
        # the pickle stream itself is bulky (many sub-threshold
        # grids): park it in a segment too, so per-task IPC carries
        # references only.
        blob_ref = pack.share(np.frombuffer(data, dtype=np.uint8))
        if blob_ref is not None:
            pickler.shared[blob_ref.fingerprint] = blob_ref
            data = None
    return PackedPayload(
        data=data,
        fingerprint=fingerprint,
        shm_fingerprints=tuple(sorted(pickler.shared)),
        blob_ref=blob_ref,
    )


def release_packed(packed: PackedPayload) -> None:
    """Release the segments a packed payload retains."""
    get_pack().release(packed.shm_fingerprints)


# -- worker side: attach & cache --------------------------------------------

#: Fingerprint -> (segment, read-only array view).  A warm worker keeps
#: serving campaigns against the same static inputs without remapping
#: them; a mapping goes when no cached payload references it.
_ATTACHMENTS: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}

#: Detached segments whose unmapping a live view still blocks
#: (``BufferError``), by ``id``; retried at every eviction.
_UNMAPPING: Dict[int, shared_memory.SharedMemory] = {}

#: Payload-fingerprint -> (rebuilt payload object, fingerprints of the
#: segments it references), so a warm worker unpickles each distinct
#: payload once and switching campaigns back and forth stays cheap.
#: Bounded: payloads can hold large inline state when shm is off, and
#: a segment the parent has unlinked stays in memory until every
#: worker unmaps it.
_PAYLOAD_CACHE: "OrderedDict[str, Tuple[Any, Tuple[str, ...]]]" = OrderedDict()
#: Payloads a warm worker keeps.  The service engine keeps as many
#: built models, so a model it reuses is still rebuilt in the workers.
PAYLOAD_CACHE_MAX = 4


def _attach(ref: ShmArrayRef) -> np.ndarray:
    """Attach (or reuse) the shared array behind a reference."""
    cached = _ATTACHMENTS.get(ref.fingerprint)
    metrics = get_registry()
    if cached is not None:
        if metrics.enabled:
            metrics.counter("parallel.shm.attach_hits").inc()
        return cached[1]
    segment = shared_memory.SharedMemory(name=ref.name)
    array = np.ndarray(
        ref.shape, dtype=np.dtype(ref.dtype), buffer=segment.buf
    )
    array.flags.writeable = False
    _ATTACHMENTS[ref.fingerprint] = (segment, array)
    if metrics.enabled:
        metrics.counter("parallel.shm.attach").inc()
    return array


class _AttachingUnpickler(pickle.Unpickler):
    """Unpickler resolving :class:`ShmArrayRef` persistent ids."""

    def persistent_load(self, pid):
        try:
            tag, ref = pid
        except (TypeError, ValueError):
            tag, ref = None, None
        if tag != _PID_TAG or not isinstance(ref, ShmArrayRef):
            raise pickle.UnpicklingError(
                f"unsupported persistent id {pid!r}"
            )
        return _attach(ref)


def load_packed(packed: PackedPayload) -> Any:
    """Rebuild a packed payload (worker side), cached by fingerprint."""
    cached = packed.fingerprint in _PAYLOAD_CACHE
    if cached:
        _PAYLOAD_CACHE.move_to_end(packed.fingerprint)
        metrics = get_registry()
        if metrics.enabled:
            metrics.counter("parallel.shm.payload_hits").inc()
        return _PAYLOAD_CACHE[packed.fingerprint][0]
    if packed.data is not None:
        stream = packed.data
    else:
        stream = _attach(packed.blob_ref).tobytes()
    payload = _AttachingUnpickler(io.BytesIO(stream)).load()
    _PAYLOAD_CACHE[packed.fingerprint] = (payload, packed.shm_fingerprints)
    if len(_PAYLOAD_CACHE) > PAYLOAD_CACHE_MAX:
        _evict_payloads()
    return payload


def _evict_payloads() -> None:
    """Drop the oldest payloads; unmap segments no kept one references.

    A segment stays mapped while any view into it lives (``close``
    raises ``BufferError``), e.g. an evicted payload not yet collected;
    such segments wait in :data:`_UNMAPPING` for the next eviction.
    """
    while len(_PAYLOAD_CACHE) > PAYLOAD_CACHE_MAX:
        _PAYLOAD_CACHE.popitem(last=False)
    live = {
        fingerprint
        for _, fingerprints in list(_PAYLOAD_CACHE.values())
        for fingerprint in fingerprints
    }
    for fingerprint in [fp for fp in list(_ATTACHMENTS) if fp not in live]:
        # keep only the segment: the dropped view must not block close
        segment = _ATTACHMENTS.pop(fingerprint, (None,))[0]
        if segment is not None:
            _UNMAPPING[id(segment)] = segment
    for key, segment in list(_UNMAPPING.items()):
        try:
            segment.close()
        except BufferError:
            continue
        _UNMAPPING.pop(key, None)
