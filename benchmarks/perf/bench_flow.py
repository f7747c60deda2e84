"""Telemetry-overhead gate for the campaign phase of a flow.

Times every ``fit`` of a tiny (particle, Vdd) grid on two workers, first
with metrics only and then with the full telemetry plane live (events
streamed from the workers plus the span trace).  It fails if the FITs
differ by a bit, or if telemetry costs more than ``--max-overhead`` of
the campaign wall time.  Cell characterization and simulator
construction are shared deterministic prep and run before the clock
starts.

Usage (the budget on a quiet host is the 5% default; CI runs on shared
runners with a 25% allowance)::

    PYTHONPATH=src python benchmarks/perf/bench_flow.py --max-overhead 0.25
"""

from __future__ import annotations

import argparse
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

JOBS = 2
#: Repetitions per mode; the minimum wall time is compared.
REPS = 3


def make_flow() -> SerFlow:
    """The tiny grid: 2 particles x 4 Vdds, each fit 4 bins x 16384.

    Direct deposition builds no yield LUT, and a fit's plan must pool:
    below ~50 000 particles (2 us each, over two workers) it would run
    inline under the auto-inline threshold, leaving no pool to measure.
    """
    config = FlowConfig(
        particles=("alpha", "proton"),
        vdd_list=(0.7, 0.8, 0.9, 1.1),
        n_energy_bins=4,
        mc_particles_per_bin=16384,
        array_rows=4,
        array_cols=4,
        deposition_mode="direct",
        characterization=CharacterizationConfig(
            n_charge_points=9, n_samples=150, seed=5
        ),
        seed=2014,
    )
    return SerFlow(config=config, cache_dir=None, n_jobs=JOBS)


def time_fits(flow: SerFlow, telemetry_dir=None):
    """The last rep's fits and the best of ``REPS`` wall times.

    Every rep forks a new pool, the shape of one CLI invocation: the
    first fit leases the pool and the rest reuse it.  With
    ``telemetry_dir`` the event bus streams to ``events.jsonl`` and
    spans go to ``trace.jsonl`` during every rep.
    """
    grid = [
        (particle, vdd)
        for particle in flow.config.particles
        for vdd in flow.config.vdd_list
    ]
    fits, best = None, float("inf")
    try:
        for _ in range(REPS):
            get_lease().shutdown_all()
            enable_metrics(fresh=True)
            if telemetry_dir is not None:
                configure_events(Path(telemetry_dir) / "events.jsonl")
                configure_tracing(Path(telemetry_dir) / "trace.jsonl")
            try:
                t0 = time.perf_counter()
                fits = [flow.fit(particle, vdd) for particle, vdd in grid]
                best = min(best, time.perf_counter() - t0)
            finally:
                if telemetry_dir is not None:
                    disable_events()
                    reset_tracing()
                disable_metrics()
    finally:
        get_lease().shutdown_all()
    return fits, best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.05,
        help="fail if telemetry costs more than this fraction of the "
        "campaign wall time (default: 0.05)",
    )
    args = parser.parse_args(argv)

    flow = make_flow()
    t0 = time.perf_counter()
    flow.simulator()
    print(f"prep (characterize + simulator build): {time.perf_counter()-t0:.1f}s")
    try:
        bare_fits, bare_s = time_fits(flow)
        with tempfile.TemporaryDirectory(prefix="bench_obs_") as obs_dir:
            tele_fits, tele_s = time_fits(flow, telemetry_dir=obs_dir)
    finally:
        get_pack().release_all()
    overhead = tele_s / bare_s - 1.0
    print(
        f"campaign phase, best of {REPS}: {bare_s:.3f}s metrics only, "
        f"{tele_s:.3f}s with events + trace ({overhead:+.1%})"
    )

    for bare, tele in zip(bare_fits, tele_fits):
        same = (bare.fit_total, bare.fit_seu, bare.fit_mbu) == (
            tele.fit_total,
            tele.fit_seu,
            tele.fit_mbu,
        ) and np.array_equal(bare.pof_per_bin, tele.pof_per_bin)
        if not same:
            print(
                f"FAIL: {bare.particle_name} {bare.vdd_v} V fits differ "
                "with telemetry on"
            )
            return 1
    if overhead > args.max_overhead:
        print(
            f"FAIL: telemetry overhead {overhead:+.1%} above the "
            f"{args.max_overhead:.0%} budget"
        )
        return 1
    print(f"fits bit-identical, overhead within {args.max_overhead:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
