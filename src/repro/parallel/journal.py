"""Crash-safe shard journals: the campaign checkpoint format.

A :class:`ShardJournal` gives a Monte Carlo campaign partial credit
for the shards it has already finished: every completed shard result
is appended to a JSONL checkpoint file as soon as it is collected, so
a crashed, OOM-killed, or interrupted campaign resumes mid-flight --
journaled shards are replayed from disk, only the missing ones rerun.
Because every shard draws from its own spawned seed stream (see the
determinism contract in :mod:`repro.parallel.engine`), replayed and
freshly computed shards merge bit-identically.

Durability discipline
---------------------
Each record is one self-contained JSON line carrying the campaign key,
the shard index, the encoded result, and a SHA-256 content digest.  A
record is a single ``O_APPEND`` write, flushed and fsynced before
:meth:`ShardJournal.record` returns, so a crash can lose at most the
shard in flight; a torn trailing line (or any hand-edited / bit-rotted
entry) fails the digest check on load and is discarded -- counted in
the ``journal.invalid`` metric -- instead of poisoning the resume.
Campaign keys are sha256 configuration hashes (see
:meth:`repro.io.ArtifactCache.journal_path`), so a journal written
under one configuration can never leak shards into another.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from ..obs import get_logger, get_registry, kv

_log = get_logger(__name__)

__all__ = ["ShardJournal"]

#: Journal line format version; bumped on incompatible layout changes.
_JOURNAL_VERSION = 1


def _identity(value):
    return value


def _canonical(value) -> str:
    """The JSON text a digest covers: sorted keys, compact."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digest(canon: str) -> str:
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _entry_digest(key: str, shard: int, payload) -> str:
    """Content digest of one journal entry (detects torn/corrupt lines)."""
    return _digest(_canonical([key, shard, payload]))


class ShardJournal:
    """Append-only checkpoint of completed shard results.

    Parameters
    ----------
    path:
        The JSONL checkpoint file (conventionally inside the
        :class:`~repro.io.ArtifactCache` directory).
    key:
        Campaign identity -- typically the sha256 config hash of the
        campaign.  Entries whose key does not match are discarded on
        load, so a stale journal from a different configuration can
        never contribute shards.
    encode / decode:
        Optional converters between shard results and JSON-safe
        payloads (identity by default).  ``decode(encode(r))`` must
        reproduce ``r`` exactly for the bit-identical resume contract
        to hold; JSON round-trips Python floats exactly (shortest
        round-trip repr), so ``tolist()``-based encodings qualify.
    """

    def __init__(
        self,
        path: Union[str, Path],
        key: str,
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Optional[Callable[[Any], Any]] = None,
    ):
        self.path = Path(path)
        self.key = str(key)
        self._key_json = _canonical(self.key)
        self._encode = encode if encode is not None else _identity
        self._decode = decode if decode is not None else _identity

    # -- reading -----------------------------------------------------------

    def load(self) -> Dict[int, Any]:
        """Replay the journal: ``{shard index: decoded result}``.

        Corrupt lines -- torn tails from a crash mid-append, checksum
        or key mismatches, undecodable payloads -- are skipped and
        counted in the ``journal.invalid`` counter rather than raised:
        a damaged checkpoint degrades to a smaller head start, never to
        a crash or a wrong result.
        """
        if not self.path.exists():
            return {}
        replayed: Dict[int, Any] = {}
        invalid = 0
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    if not isinstance(entry, dict):
                        raise ValueError("entry is not an object")
                    if entry.get("key") != self.key:
                        raise ValueError("campaign key mismatch")
                    shard = int(entry["shard"])
                    payload = entry["result"]
                    if entry.get("sha") != _entry_digest(
                        self.key, shard, payload
                    ):
                        raise ValueError("checksum mismatch")
                    replayed[shard] = self._decode(payload)
                except Exception:
                    invalid += 1
                    continue
        if invalid:
            get_registry().counter("journal.invalid").inc(invalid)
            _log.warning(
                "discarded corrupt journal entries %s",
                kv(path=str(self.path), invalid=invalid, kept=len(replayed)),
            )
        return replayed

    # -- writing -----------------------------------------------------------

    def record(self, shard: int, result):
        """Durably append one completed shard result.

        The line is written in a single ``write`` on an ``O_APPEND``
        handle, flushed, and fsynced before returning, so a checkpoint
        survives anything short of storage loss.  The payload is
        encoded once: the line embeds the same canonical text the
        digest covers, so the digest is :func:`_entry_digest`'s.
        """
        shard = int(shard)
        key = self._key_json
        text = _canonical(self._encode(result))
        sha = _digest(f"[{key},{shard},{text}]")
        line = (
            f'{{"v":{_JOURNAL_VERSION},"key":{key},"shard":{shard},'
            f'"result":{text},"sha":"{sha}"}}\n'
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        get_registry().counter("journal.records").inc()

    def clear(self):
        """Delete the checkpoint (call once the campaign has merged)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
