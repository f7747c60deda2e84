"""Run manifests: one JSON document per CLI invocation.

The manifest is the durable record of a run — what was asked
(command, argv, config, seed), what it cost (stage timings, MC trial
counts, rays/sec throughput), how trustworthy the numbers are
(convergence standard errors), and whether the LUT caches worked
(hit/miss/write counts).  ``repro-ser <cmd> --metrics-out run.json``
writes one; :func:`RunManifest.from_dict` round-trips it.

Convenience sections (``stage_timings_s``, ``mc``, ``lut_cache``,
``fault_tolerance``, ``parallel``, ``adaptive``, ``service``) are
*derived* from the full metrics snapshot kept in ``metrics`` — the
snapshot is the ground truth, the sections are what a human greps for
first.  ``convergence_bins`` is the per-bin convergence tracker's
digest (:mod:`repro.obs.convergence`), each bin's numbers included.
The ``environment`` section captures the live execution-plane state
(``REPRO_*`` environment variables, job and CPU counts, start method),
so a run is reproducible — execution plane included — from the
manifest alone.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from ..errors import SerializationError
from .registry import get_registry

#: Environment variables recorded verbatim in the manifest: the
#: shared-memory operator switch plus the fault-injection hook —
#: anything that changes how (never what) a run computes.
TRACKED_ENV = (
    "REPRO_NO_SHM",
    "REPRO_PARALLEL_KILL",
)


def capture_environment(config: Optional[dict] = None) -> dict:
    """Snapshot the execution-plane state active for this run.

    Records every ``REPRO_*`` environment variable (the tracked
    switches explicitly, even when unset), the resolved job count from
    the run config, the host CPU count, and the multiprocessing start
    method.
    """
    env = {name: os.environ.get(name) for name in TRACKED_ENV}
    env.update(
        {
            name: value
            for name, value in os.environ.items()
            if name.startswith("REPRO_")
        }
    )
    config = config or {}
    return {
        "env": env,
        "n_jobs": config.get("jobs"),
        "cpu_count": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(allow_none=True),
    }

__all__ = [
    "RunManifest",
    "build_manifest",
    "capture_environment",
    "MANIFEST_KIND",
    "SCHEMA_VERSION",
    "TRACKED_ENV",
]

MANIFEST_KIND = "run_manifest"
SCHEMA_VERSION = 1

#: Metric-name prefix lifted into the manifest's stage timings.
_STAGE_PREFIX = "stage."


@dataclass
class RunManifest:
    """Schema of one run record (see module docstring)."""

    command: str
    argv: List[str]
    config: dict
    seed: Optional[int]
    started_at: str
    duration_s: float
    exit_code: int
    version: str
    python: str = field(default_factory=platform.python_version)
    stage_timings_s: dict = field(default_factory=dict)
    mc: dict = field(default_factory=dict)
    lut_cache: dict = field(default_factory=dict)
    convergence_bins: dict = field(default_factory=dict)
    fault_tolerance: dict = field(default_factory=dict)
    parallel: dict = field(default_factory=dict)
    adaptive: dict = field(default_factory=dict)
    service: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": MANIFEST_KIND,
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "argv": list(self.argv),
            "config": self.config,
            "seed": self.seed,
            "started_at": self.started_at,
            "duration_s": self.duration_s,
            "exit_code": self.exit_code,
            "version": self.version,
            "python": self.python,
            "stage_timings_s": self.stage_timings_s,
            "mc": self.mc,
            "lut_cache": self.lut_cache,
            "convergence_bins": self.convergence_bins,
            "fault_tolerance": self.fault_tolerance,
            "parallel": self.parallel,
            "adaptive": self.adaptive,
            "service": self.service,
            "environment": self.environment,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        if payload.get("kind") != MANIFEST_KIND:
            raise SerializationError(
                f"payload is not a run manifest (kind={payload.get('kind')!r})"
            )
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise SerializationError(
                "unsupported manifest schema version "
                f"{payload.get('schema_version')!r}"
            )
        required = (
            "command",
            "argv",
            "config",
            "started_at",
            "duration_s",
            "exit_code",
            "version",
        )
        missing = [key for key in required if key not in payload]
        if missing:
            raise SerializationError(
                f"manifest is missing required keys: {missing}"
            )
        return cls(
            command=payload["command"],
            argv=list(payload["argv"]),
            config=dict(payload["config"]),
            seed=payload.get("seed"),
            started_at=payload["started_at"],
            duration_s=float(payload["duration_s"]),
            exit_code=int(payload["exit_code"]),
            version=payload["version"],
            python=payload.get("python", ""),
            stage_timings_s=dict(payload.get("stage_timings_s", {})),
            mc=dict(payload.get("mc", {})),
            lut_cache=dict(payload.get("lut_cache", {})),
            convergence_bins=dict(payload.get("convergence_bins", {})),
            fault_tolerance=dict(payload.get("fault_tolerance", {})),
            parallel=dict(payload.get("parallel", {})),
            adaptive=dict(payload.get("adaptive", {})),
            service=dict(payload.get("service", {})),
            environment=dict(payload.get("environment", {})),
            metrics=dict(payload.get("metrics", {})),
        )

    def write(self, path: Union[str, Path]) -> Path:
        """Atomically write the manifest as pretty-printed JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SerializationError(
                f"cannot load manifest {path}: {exc}"
            ) from exc
        return cls.from_dict(payload)


def build_manifest(
    command: str,
    argv: List[str],
    config: dict,
    seed: Optional[int],
    started_at: str,
    duration_s: float,
    exit_code: int,
    version: str,
    registry=None,
) -> RunManifest:
    """Assemble a manifest from the current metrics registry snapshot."""
    registry = registry if registry is not None else get_registry()
    snapshot = registry.snapshot()
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    timers = snapshot.get("timers", {})

    stage_timings = {
        # drop the raw retention buffer ("samples") from the derived
        # section -- it exists for cross-process merging and stays in
        # the ground-truth ``metrics`` snapshot; the summary keeps the
        # digested p50/p99.
        name[len(_STAGE_PREFIX):]: {
            key: value for key, value in stats.items() if key != "samples"
        }
        for name, stats in timers.items()
        if name.startswith(_STAGE_PREFIX)
    }
    mc = {
        "array_particles": counters.get("array_mc.particles", 0),
        "array_hits": counters.get("array_mc.hits", 0),
        "fin_strikes": counters.get("array_mc.strikes", 0),
        "array_runs": counters.get("array_mc.runs", 0),
        "array_plans": counters.get("array_mc.plans", 0),
        "array_plan_blocks": counters.get("array_mc.plan_blocks", 0),
        "transport_trials": counters.get("transport.trials", 0),
        "characterization_points": counters.get(
            "characterize.grid_points", 0
        ),
        "rays_per_sec": gauges.get("array_mc.rays_per_sec", 0.0),
    }
    lut_cache = {
        "hits": counters.get("lut_cache.hits", 0),
        "misses": counters.get("lut_cache.misses", 0),
        "writes": counters.get("lut_cache.writes", 0),
        "invalid": counters.get("lut_cache.invalid", 0),
    }
    fault_tolerance = {
        "retried_shards": counters.get("parallel.retries", 0),
        "lost_shards": counters.get("parallel.degraded", 0),
        "degraded_maps": counters.get("parallel.degraded_maps", 0),
        "degraded": counters.get("parallel.degraded", 0) > 0,
        "journal_records": counters.get("journal.records", 0),
        "journal_resumed": counters.get("journal.resumed", 0),
        "journal_invalid": counters.get("journal.invalid", 0),
    }
    parallel = {
        "pools_created": counters.get("parallel.pool.created", 0),
        "pools_reused": counters.get("parallel.pool.reused", 0),
        "pools_invalidated": counters.get("parallel.pool.invalidated", 0),
        "shm_segments": counters.get("parallel.shm.segments", 0),
        "shm_bytes": counters.get("parallel.shm.bytes", 0),
        "shm_dedup_hits": counters.get("parallel.shm.hits", 0),
        "shm_fallbacks": counters.get("parallel.shm.fallback", 0),
        "worker_payload_hits": counters.get("parallel.shm.payload_hits", 0),
    }
    adaptive = {
        "rounds": counters.get("adaptive.rounds", 0),
        "blocks": counters.get("adaptive.blocks", 0),
        "trials": counters.get("adaptive.trials", 0),
        "bins": counters.get("adaptive.bins", 0),
        "bins_converged": counters.get("adaptive.bins_converged", 0),
        "bins_at_ceiling": counters.get("adaptive.bins_ceiling", 0),
    }
    from .convergence import get_convergence_tracker

    convergence_bins = get_convergence_tracker().summary()
    request_timer = timers.get("service.request", {})
    campaign_timer = timers.get("service.campaign", {})
    service = {
        "requests": counters.get("service.requests", 0),
        "coalesced": counters.get("service.coalesced", 0),
        "memo_hits": counters.get("service.memo_hits", 0),
        "rejected": counters.get("service.rejected", 0),
        "campaigns": counters.get("service.campaigns", 0),
        "failures": counters.get("service.failures", 0),
        "model_hits": counters.get("service.model_hits", 0),
        "pair_offset_hits": counters.get("service.pair_offset_hits", 0),
        "request_p50_s": request_timer.get("p50_s", 0.0),
        "request_p99_s": request_timer.get("p99_s", 0.0),
        "campaign_p50_s": campaign_timer.get("p50_s", 0.0),
        "campaign_p99_s": campaign_timer.get("p99_s", 0.0),
        "served": _served_campaigns(),
    }
    return RunManifest(
        command=command,
        argv=list(argv),
        config=config,
        seed=seed,
        started_at=started_at,
        duration_s=duration_s,
        exit_code=exit_code,
        version=version,
        stage_timings_s=stage_timings,
        mc=mc,
        lut_cache=lut_cache,
        convergence_bins=convergence_bins,
        fault_tolerance=fault_tolerance,
        parallel=parallel,
        adaptive=adaptive,
        service=service,
        environment=capture_environment(config),
        metrics=snapshot,
    )


def _served_campaigns() -> List[dict]:
    """One ledger entry per campaign this process served (may be [])."""
    # call-time import: repro.service imports repro.obs at module load,
    # so the reverse edge must stay lazy (same pattern as convergence)
    from ..service import get_service_ledger

    return get_service_ledger().summary()
