"""Parallel campaign execution: sharded Monte Carlo across processes.

See :mod:`repro.parallel.engine` for the determinism contract (fixed
sharding + spawned child streams + ordered merges = bit-identical
results for any worker count) and the fault-tolerance layer
(:class:`RetryPolicy` retry/backoff/watchdog, :class:`ShardJournal`
crash-safe checkpoints, graceful degradation to partial statistics).
:mod:`repro.parallel.pool` keeps worker pools warm across successive
maps and retry rounds, and :mod:`repro.parallel.shm` ships bulk payload
arrays through shared memory -- transport only, never results.
"""

from .engine import (
    AUTO_INLINE_THRESHOLD_S,
    WARM_AUTO_INLINE_THRESHOLD_S,
    ParallelConfig,
    RetryPolicy,
    parallel_map,
    resolve_jobs,
    spawn_seeds,
)
from .journal import ShardJournal
from .pool import PoolLease, get_lease
from .shm import (
    MIN_SHM_BYTES,
    PackedPayload,
    SharedArrayPack,
    array_fingerprint,
    get_pack,
    pack_payload,
)

__all__ = [
    "AUTO_INLINE_THRESHOLD_S",
    "WARM_AUTO_INLINE_THRESHOLD_S",
    "MIN_SHM_BYTES",
    "PackedPayload",
    "ParallelConfig",
    "PoolLease",
    "RetryPolicy",
    "SharedArrayPack",
    "ShardJournal",
    "array_fingerprint",
    "get_lease",
    "get_pack",
    "pack_payload",
    "parallel_map",
    "resolve_jobs",
    "spawn_seeds",
]
