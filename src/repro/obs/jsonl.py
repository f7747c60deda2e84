"""Crash-safe append-only JSONL sinks with size-based rotation.

Both the tracing spans (:mod:`repro.obs.trace`) and the telemetry
events (:mod:`repro.obs.events`) stream JSON lines to disk while
Monte Carlo campaigns run.  Those campaigns are exactly the code that
gets OOM-killed, ``os._exit``-ed by the fault-injection hook, or
forked into pool workers -- so the sink has to survive all three:

* **No userspace buffering.**  Every record is serialized to one
  ``bytes`` line and written with a single ``os.write`` on an
  ``O_APPEND`` descriptor.  An abrupt process death (``os._exit``,
  ``SIGKILL``) can lose at most the line in flight -- never previously
  written ones, which a buffered ``io`` handle would still be holding.
* **Fork-safe appends.**  A forked worker inheriting the descriptor
  appends whole lines at the file end (``O_APPEND`` positions each
  write atomically), so parent and child lines interleave but never
  tear each other.  Readers must still tolerate a torn *final* line
  from a crash mid-write: :func:`read_jsonl` skips undecodable lines
  instead of raising.
* **Bounded growth.**  When the file would exceed ``max_bytes`` the
  current file is rotated to ``<path>.1`` (replacing any previous
  rotation) and writing continues on a fresh file, re-led by the
  header record -- long campaigns cannot fill the disk.
"""

from __future__ import annotations

import json
import os
import threading
import weakref
from pathlib import Path
from typing import List, Optional, Tuple, Union

__all__ = ["JsonlWriter", "read_jsonl", "DEFAULT_MAX_BYTES"]

#: Writers alive in this process, tracked so a fork can re-arm their
#: locks in the child (see :func:`_reset_locks_after_fork`).
_LIVE_WRITERS: "weakref.WeakSet[JsonlWriter]" = weakref.WeakSet()


def _reset_locks_after_fork():
    """Replace every live writer's lock with a fresh one in the child.

    A pool worker can be forked at any instant -- including while a
    parent thread (a concurrent round emitting events, a span exiting)
    holds a writer's lock mid-``write``.  The child inherits that lock
    *locked* with nobody to release it, so the first child-side
    ``write`` or ``close`` (worker initializers call
    :func:`~repro.obs.events.disable_events`) would deadlock forever.
    The lock only serializes threads *within* one process -- cross-
    process exclusion comes from ``O_APPEND`` whole-line writes -- so
    swapping in an unlocked lock in the child is safe.
    """
    for writer in list(_LIVE_WRITERS):
        writer._lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_locks_after_fork)

#: Default rotation threshold (64 MiB) -- generous for traces and
#: events alike, small enough that a runaway campaign cannot fill a
#: disk with telemetry.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


class JsonlWriter:
    """Append-only JSONL file: one ``os.write`` per record, rotated.

    Parameters
    ----------
    path:
        Destination file.  Truncated on open (each run starts a fresh
        stream), appended afterwards.
    header:
        Optional record written first -- and re-written after every
        rotation, so each file in a rotation chain is self-describing.
    max_bytes:
        Size-based rotation threshold; when a write would push the
        file past it, the file moves to ``<path>.1`` and a fresh file
        (with the header) takes over.  ``None`` disables rotation.
    """

    def __init__(
        self,
        path: Union[str, Path],
        header: Optional[dict] = None,
        max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
    ):
        self.path = str(path)
        self.header = dict(header) if header is not None else None
        if max_bytes is not None and max_bytes < 1024:
            raise ValueError("max_bytes must be >= 1024 (None = no rotation)")
        self.max_bytes = max_bytes
        self.rotations = 0
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        self._owner_pid = os.getpid()
        self._fd: Optional[int] = None
        self._bytes = 0
        _LIVE_WRITERS.add(self)
        self._open(truncate=True)
        if self.header is not None:
            self.write(self.header)

    def _open(self, truncate: bool):
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        if truncate:
            flags |= os.O_TRUNC
        self._fd = os.open(self.path, flags, 0o644)
        self._bytes = 0 if truncate else os.fstat(self._fd).st_size

    @property
    def closed(self) -> bool:
        return self._fd is None

    def write(self, record: dict):
        """Durably append one record (whole-line single ``os.write``)."""
        line = (
            json.dumps(record, sort_keys=True, default=str) + "\n"
        ).encode("utf-8")
        with self._lock:
            if self._fd is None:
                return
            if (
                self.max_bytes is not None
                and self._bytes
                and self._bytes + len(line) > self.max_bytes
                and os.getpid() == self._owner_pid
            ):
                self._rotate_locked()
            os.write(self._fd, line)
            self._bytes += len(line)

    def _rotate_locked(self):
        os.close(self._fd)
        self._fd = None
        os.replace(self.path, self.path + ".1")
        self._open(truncate=True)
        self.rotations += 1
        if self.header is not None:
            header = dict(self.header)
            header["rotated"] = self.rotations
            line = (
                json.dumps(header, sort_keys=True, default=str) + "\n"
            ).encode("utf-8")
            os.write(self._fd, line)
            self._bytes += len(line)

    def close(self):
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


def read_jsonl(path: Union[str, Path]) -> Tuple[List[dict], int]:
    """Tolerantly read a JSONL file: ``(records, invalid line count)``.

    Torn trailing lines (a writer died mid-append), rotated-away
    headers, and hand-damaged entries are skipped and counted, never
    raised -- mirroring the :class:`~repro.parallel.journal.ShardJournal`
    discipline, so an inspection tool pointed at a live or crashed
    run's telemetry always gets the valid prefix.
    """
    records: List[dict] = []
    invalid = 0
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                invalid += 1
                continue
            if not isinstance(record, dict):
                invalid += 1
                continue
            records.append(record)
    return records, invalid
