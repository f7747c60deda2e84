"""Telemetry-overhead harness for the campaign phase of a flow sweep.

Times every ``fit`` of a (particle, vdd) grid -- each one batch plan of
energy-bin campaigns on the leased warm pool -- with metrics only, and
with ``--telemetry-overhead`` again with the full telemetry plane live
(events streamed from the workers plus the span trace), and reports
what the telemetry costs.  Cell characterization and simulator
construction are deterministic shared prep and run before the clock
starts (with a cache directory they are loaded from disk in production
anyway).

Usage (CI runs the tiny scale with a 25% allowance for shared
runners; the budget on a quiet host is the 5% default)::

    PYTHONPATH=src python benchmarks/perf/bench_flow.py \
        --scale tiny --check --telemetry-overhead --max-overhead 0.25

``--check`` asserts that the maps reused a leased pool and that pool
workers served campaigns from the fingerprint-cached payload; with
``--telemetry-overhead`` it also asserts bit-identical fits with the
telemetry plane on and enforces ``--max-overhead``.  ``--out PATH``
appends the run to a JSON trajectory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import FlowConfig, SerFlow
from repro.obs.events import configure_events, disable_events
from repro.obs.registry import disable_metrics, enable_metrics
from repro.obs.trace import configure_tracing, reset_tracing
from repro.parallel import get_lease, get_pack
from repro.sram import CharacterizationConfig

#: Every fit must be big enough to pool: a plan whose estimated work
#: per worker (~2 us per particle) stays below the auto-inline
#: threshold (50 ms) runs inline, leaving no pool to measure -- at
#: ``--jobs 2`` that takes >= 50 000 particles per fit.
SCALES = {
    "tiny": dict(
        vdds=(0.7, 0.8, 0.9, 1.1),
        bins=4,
        particles_per_bin=16384,
        rows=4,
        char_samples=150,
    ),
    "small": dict(
        vdds=(0.7, 0.8, 0.9, 1.1),
        bins=6,
        particles_per_bin=16384,
        rows=8,
        char_samples=150,
    ),
    "full": dict(
        vdds=(0.7, 0.8, 0.9, 1.0, 1.1),
        bins=8,
        particles_per_bin=20000,
        rows=16,
        char_samples=200,
    ),
}


def make_config(scale) -> FlowConfig:
    """A direct-deposition sweep config (no LUT build on the hot path)."""
    return FlowConfig(
        particles=("alpha", "proton"),
        vdd_list=scale["vdds"],
        n_energy_bins=scale["bins"],
        mc_particles_per_bin=scale["particles_per_bin"],
        array_rows=scale["rows"],
        array_cols=scale["rows"],
        deposition_mode="direct",
        process_variation=True,
        characterization=CharacterizationConfig(
            n_charge_points=9,
            n_samples=scale["char_samples"],
            max_pair_points=4,
            max_triple_points=3,
            seed=5,
        ),
        seed=2014,
    )


def bench_mode(flow: SerFlow, reps: int, telemetry_dir=None):
    """Min-of-``reps`` campaign-phase timing.

    Every rep forks a new pool, so a rep is the realistic shape of one
    CLI invocation: the pool is leased by the first fit and reused by
    the rest.  Returns the last rep's fits, the best wall time, and
    the last rep's metrics counters.

    With ``telemetry_dir``, the full observability plane is live for
    every timed rep: the event bus streams worker progress/heartbeats
    to ``events.jsonl`` and spans to ``trace.jsonl``.
    """
    grid = [
        (p, float(v))
        for p in flow.config.particles
        for v in flow.config.vdd_list
    ]
    fits, best, counters = None, float("inf"), {}
    try:
        for _ in range(reps):
            get_lease().shutdown_all()
            registry = enable_metrics(fresh=True)
            if telemetry_dir is not None:
                configure_events(Path(telemetry_dir) / "events.jsonl")
                configure_tracing(Path(telemetry_dir) / "trace.jsonl")
            try:
                t0 = time.perf_counter()
                fits = [flow.fit(p, v) for p, v in grid]
                seconds = time.perf_counter() - t0
                counters = registry.snapshot()["counters"]
            finally:
                if telemetry_dir is not None:
                    disable_events()
                    reset_tracing()
                disable_metrics()
            best = min(best, seconds)
    finally:
        get_lease().shutdown_all()
    return fits, best, counters


def assert_fits_identical(a, b):
    assert len(a) == len(b)
    for fit_a, fit_b in zip(a, b):
        key = (fit_a.particle_name, fit_a.vdd_v)
        for attr in ("fit_total", "fit_seu", "fit_mbu"):
            va, vb = getattr(fit_a, attr), getattr(fit_b, attr)
            assert va == vb, f"{key} {attr}: {va} != {vb}"
        assert np.array_equal(fit_a.pof_per_bin, fit_b.pof_per_bin), (
            f"{key} pof_per_bin differs"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default="tiny",
        choices=sorted(SCALES),
        help="problem size (tiny = CI smoke)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="worker count for every pooled map (default: 2)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        help="repetitions per mode; min is reported (default: 3)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert pool reuse and payload-cache hits (and, with "
        "--telemetry-overhead, bit-identical fits and the budget)",
    )
    parser.add_argument(
        "--telemetry-overhead",
        action="store_true",
        help="also time the sweep with the full telemetry plane "
        "(events + trace) live and report its overhead",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.05,
        help="with --check and --telemetry-overhead, fail if telemetry "
        "costs more than this fraction of wall time (default: 0.05)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="trajectory file to append this run to (default: none)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 2:
        parser.error("--jobs must be >= 2 (pooled maps are the subject)")

    scale = SCALES[args.scale]
    config = make_config(scale)
    n_maps = len(config.particles) * len(config.vdd_list)
    print(
        f"scale={args.scale} jobs={args.jobs} reps={args.reps} "
        f"({len(config.particles)} particles x {len(config.vdd_list)} vdd "
        f"x {config.n_energy_bins} bins = {n_maps} campaign maps/sweep)"
    )

    flow = SerFlow(config=config, cache_dir=None, n_jobs=args.jobs)
    t0 = time.perf_counter()
    flow.simulator()  # characterization + layout: shared deterministic prep
    print(f"prep (characterize + simulator build): {time.perf_counter()-t0:.1f}s")

    try:
        bare_fits, bare_s, counters = bench_mode(flow, args.reps)
        pools_reused = counters.get("parallel.pool.reused", 0)
        payload_hits = counters.get("parallel.shm.payload_hits", 0)
        print(f"campaign phase, metrics only: {bare_s:.3f}s")
        print(
            f"counters: pools_created="
            f"{counters.get('parallel.pool.created', 0)} "
            f"pools_reused={pools_reused} "
            f"shm_segments={counters.get('parallel.shm.segments', 0)} "
            f"shm_bytes={counters.get('parallel.shm.bytes', 0)} "
            f"worker_payload_hits={payload_hits}"
        )

        telemetry = None
        if args.telemetry_overhead:
            with tempfile.TemporaryDirectory(prefix="bench_obs_") as obs_dir:
                tele_fits, tele_s, _ = bench_mode(
                    flow, args.reps, telemetry_dir=obs_dir
                )
                events_bytes = (
                    Path(obs_dir) / "events.jsonl"
                ).stat().st_size
            overhead = tele_s / bare_s - 1.0 if bare_s > 0 else 0.0
            telemetry = {
                "bare_s": bare_s,
                "telemetry_s": tele_s,
                "overhead": overhead,
                "events_bytes": events_bytes,
            }
            print(
                f"telemetry plane (events + trace): {tele_s:.3f}s vs "
                f"{bare_s:.3f}s bare ({overhead:+.1%}, "
                f"{events_bytes} event bytes over {args.reps} reps)"
            )
    finally:
        get_pack().release_all()

    if args.check:
        assert pools_reused > 0, "the sweep never reused a leased pool"
        assert payload_hits > 0, (
            "pool workers never served a campaign from the payload cache"
        )
        print("pool checks passed (leased pool reused, payload cache hit)")
        if telemetry is not None:
            assert_fits_identical(bare_fits, tele_fits)
            assert telemetry["overhead"] <= args.max_overhead, (
                f"telemetry overhead {telemetry['overhead']:+.1%} above "
                f"{args.max_overhead:.0%} budget"
            )
            print(
                "telemetry checks passed (fits bit-identical, overhead "
                f"<= {args.max_overhead:.0%})"
            )

    if args.out is not None:
        entry = {
            "timestamp": datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(),
            "scale": args.scale,
            "jobs": args.jobs,
            "reps": args.reps,
            "checked": bool(args.check),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "bare_s": bare_s,
            "telemetry": telemetry,
            "counters": {
                "pools_created": counters.get("parallel.pool.created", 0),
                "pools_reused": pools_reused,
                "shm_segments": counters.get("parallel.shm.segments", 0),
                "shm_bytes": counters.get("parallel.shm.bytes", 0),
                "worker_payload_hits": payload_hits,
            },
        }
        out = Path(args.out)
        history = []
        if out.exists():
            try:
                history = json.loads(out.read_text())
            except (json.JSONDecodeError, OSError):
                history = []
        history.append(entry)
        out.write_text(json.dumps(history, indent=2) + "\n")
        print(f"trajectory appended to {out} ({len(history)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
