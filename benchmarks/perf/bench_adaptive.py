"""Perf harness for adaptive trial allocation (docs/performance.md).

Runs the paper's Fig. 9-style sweep -- alpha particles, two supply
voltages, a log-spaced energy ladder -- twice: once with the uniform
per-bin campaigns of :meth:`ArraySerSimulator.run`, once under the
:class:`~repro.ser.adaptive.AdaptiveCampaignController` with the
uniform campaign's *worst* per-bin standard error as the target.  The
headline figure is ``trial_savings`` -- uniform trials over adaptive
trials at equal-or-better max per-bin SE -- appended to a
``BENCH_adaptive.json`` trajectory artifact that ``repro-ser obs
bench-check`` regression-gates.

Usage (CI runs the tiny scale)::

    PYTHONPATH=src python benchmarks/perf/bench_adaptive.py \
        --scale tiny --check --min-trial-savings 5.0 \
        --out BENCH_adaptive.json

``--check`` additionally asserts the statistical contract:

* unbiasedness -- every bin's adaptive POF within 2 combined standard
  errors of the uniform estimate (the stratified estimator reweights
  exactly, so any systematic gap is a bug, not noise);
* the energy-importance-sampled spectrum campaign agrees with the
  plain :meth:`ArraySerSimulator.run_spectrum` baseline the same way;
* kill-and-resume determinism -- a campaign killed mid-round by the
  :data:`repro.parallel.engine.FAULT_ENV` hook and resumed from its
  round journals replays the identical allocation sequence and
  reproduces the uninterrupted run's results bit for bit.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis import pof_standard_error
from repro.errors import WorkerCrashError
from repro.layout import SramArrayLayout
from repro.parallel import RetryPolicy, ShardJournal
from repro.parallel.engine import FAULT_ENV
from repro.physics import ALPHA, AlphaEmissionSpectrum
from repro.ser import (
    AdaptiveBin,
    AdaptiveCampaignController,
    AdaptiveConfig,
    ArrayMcConfig,
    ArraySerSimulator,
)
from repro.ser.mc import DRAW_BLOCK_SIZE, array_shard_decode, array_shard_encode
from repro.sram import CharacterizationConfig, SramCellDesign, characterize_cell

SCALES = {
    # uniform blocks/bin sizes the baseline; the adaptive run inherits
    # the same per-bin ceiling, so savings come purely from allocation.
    "tiny": dict(
        uniform_blocks=32, pilot_trials=4096, round_blocks=16, n_energies=6
    ),
    "small": dict(
        uniform_blocks=96, pilot_trials=8192, round_blocks=32, n_energies=8
    ),
}

VDDS = (0.7, 0.9)
SEED_ROOT = 4242
SPECTRUM_RANGE = (0.5, 10.0)


def _time(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _make_simulator(n_rows=4, n_cols=4, **overrides):
    """Direct-deposition simulator (no LUT build on the hot path)."""
    design = SramCellDesign()
    table = characterize_cell(
        design,
        CharacterizationConfig(
            vdd_list=VDDS,
            n_charge_points=9,
            n_samples=8,
            max_pair_points=4,
            max_triple_points=3,
            seed=5,
        ),
    )
    layout = SramArrayLayout(n_rows=n_rows, n_cols=n_cols)
    config = ArrayMcConfig(deposition_mode="direct", **overrides)
    return ArraySerSimulator(layout, table, config=config)


def _sweep_bins(scale):
    """Fig. 9-style (vdd, energy) ladder as mono-energetic adaptive bins."""
    energies = np.logspace(
        math.log10(0.8), math.log10(10.0), scale["n_energies"]
    )
    return [
        AdaptiveBin(ALPHA.name, float(energy), float(vdd))
        for vdd in VDDS
        for energy in energies
    ]


def _seed_for(bins):
    """Pure bin -> root SeedSequence map (fresh sequences every call)."""
    index = {bin_.key: i for i, bin_ in enumerate(bins)}

    def seed_for(bin_):
        return np.random.SeedSequence([SEED_ROOT, index[bin_.key]])

    return seed_for


def _combined_se(se_a, n_a, se_b, n_b):
    """2-sigma comparison width; nan SEs fall back to the binomial max."""

    def usable(se, n):
        return se if math.isfinite(se) else math.sqrt(0.25 / max(n, 1))

    return 2.0 * math.hypot(usable(se_a, n_a), usable(se_b, n_b))


def bench_sweep(simulator, scale, jobs, check):
    """Uniform baseline vs adaptive campaign on the mono-energetic sweep."""
    bins = _sweep_bins(scale)
    n_uniform = scale["uniform_blocks"] * DRAW_BLOCK_SIZE

    def run_uniform():
        results = []
        for i, bin_ in enumerate(bins):
            rng = np.random.default_rng(
                np.random.SeedSequence([SEED_ROOT, i])
            )
            results.append(
                simulator.run(
                    ALPHA, bin_.energy_mev, bin_.vdd_v, n_uniform, rng
                )
            )
        return results

    uniform, uniform_s = _time(run_uniform)
    uniform_ses = [pof_standard_error(result) for result in uniform]
    finite = [se for se in uniform_ses if math.isfinite(se)]
    if not finite:
        raise AssertionError(
            "uniform baseline produced no finite standard errors -- "
            "the sweep is too small to compare against"
        )
    target_se = max(finite)
    uniform_trials = n_uniform * len(bins)

    controller = AdaptiveCampaignController(
        simulator,
        AdaptiveConfig(
            target_se=target_se,
            pilot_trials=scale["pilot_trials"],
            max_trials=n_uniform,
            round_blocks=scale["round_blocks"],
        ),
        n_jobs=jobs,
    )
    report, adaptive_s = _time(
        lambda: controller.run(bins, _seed_for(bins))
    )
    adaptive_ses = [
        pof_standard_error(result) for result in report.results
    ]
    savings = uniform_trials / report.total_trials
    max_uniform = max(finite)
    finite_adaptive = [se for se in adaptive_ses if math.isfinite(se)]
    max_adaptive = max(finite_adaptive) if finite_adaptive else math.inf

    print(
        f"{'sweep':>9s}  bins={len(bins)}  uniform: {uniform_trials} trials "
        f"({uniform_s:.2f}s)  adaptive: {report.total_trials} trials "
        f"({adaptive_s:.2f}s)  savings={savings:.2f}x"
    )
    print(
        f"{'':>9s}  max SE uniform={max_uniform:.3e} "
        f"adaptive={max_adaptive:.3e}  rounds={len(report.rounds)}  "
        f"converged={sum(report.converged.values())}/{len(bins)}"
    )
    if check:
        assert max_adaptive <= max_uniform * (1.0 + 1e-9), (
            f"adaptive max per-bin SE {max_adaptive:.3e} worse than "
            f"uniform {max_uniform:.3e}"
        )
        for bin_, a, u, se_a, se_u in zip(
            bins, report.results, uniform, adaptive_ses, uniform_ses
        ):
            width = _combined_se(
                se_a, a.n_particles, se_u, u.n_particles
            )
            gap = abs(a.pof_total - u.pof_total)
            assert gap <= max(width, 1e-12), (
                f"bin {bin_.key}: adaptive POF {a.pof_total:.3e} vs "
                f"uniform {u.pof_total:.3e} differs by {gap:.3e} "
                f"> 2*SE {width:.3e} -- stratified estimator is biased"
            )
        print(f"{'':>9s}  unbiasedness ok (all bins within 2*SE)")
    return {
        "bins": len(bins),
        "uniform_trials": uniform_trials,
        "adaptive_trials": report.total_trials,
        "rounds": len(report.rounds),
        "converged": sum(report.converged.values()),
        "max_se_uniform": max_uniform,
        "max_se_adaptive": max_adaptive,
        "uniform_s": uniform_s,
        "adaptive_s": adaptive_s,
        "savings": savings,
    }


def bench_spectrum(simulator, scale, jobs, check):
    """Energy-stratified spectrum campaign vs plain run_spectrum."""
    spectrum = AlphaEmissionSpectrum()
    e_lo, e_hi = SPECTRUM_RANGE
    n = scale["uniform_blocks"] * DRAW_BLOCK_SIZE

    baseline, baseline_s = _time(
        lambda: simulator.run_spectrum(
            ALPHA,
            spectrum,
            VDDS[0],
            n,
            np.random.default_rng(np.random.SeedSequence([SEED_ROOT, 99])),
            e_min_mev=e_lo,
            e_max_mev=e_hi,
        )
    )
    bins = [
        AdaptiveBin(
            ALPHA.name,
            float(math.sqrt(e_lo * e_hi)),
            VDDS[0],
            e_range=(e_lo, e_hi),
            spectrum=spectrum,
        )
    ]
    se_u = pof_standard_error(baseline)
    controller = AdaptiveCampaignController(
        simulator,
        AdaptiveConfig(
            target_se=max(se_u, 1e-6) if math.isfinite(se_u) else 1e-4,
            pilot_trials=scale["pilot_trials"],
            max_trials=n,
            round_blocks=scale["round_blocks"],
        ),
        n_jobs=jobs,
    )
    report, adaptive_s = _time(
        lambda: controller.run(bins, _seed_for(bins))
    )
    result = report.results[0]
    se_a = pof_standard_error(result)
    print(
        f"{'spectrum':>9s}  baseline: {baseline.pof_total:.4e} "
        f"({baseline.n_particles} trials, {baseline_s:.2f}s)  "
        f"stratified: {result.pof_total:.4e} "
        f"({result.n_particles} trials, {adaptive_s:.2f}s)"
    )
    if check:
        width = _combined_se(
            se_a, result.n_particles, se_u, baseline.n_particles
        )
        gap = abs(result.pof_total - baseline.pof_total)
        assert gap <= max(width, 1e-12), (
            f"spectrum POF gap {gap:.3e} > 2*SE {width:.3e} -- "
            f"energy-stratum reweighting is biased"
        )
        print(f"{'':>9s}  flux-weighted estimate agrees within 2*SE")
    return {
        "baseline_pof": baseline.pof_total,
        "stratified_pof": result.pof_total,
        "baseline_trials": baseline.n_particles,
        "stratified_trials": result.n_particles,
    }


def bench_resume(simulator, scale, jobs):
    """Kill one pilot worker, resume from journals, demand bit-equality."""
    bins = _sweep_bins(scale)[:4]
    # tight enough that refinement runs several rounds past the killed
    # pilot -- the resume must replay the whole allocation sequence,
    # not just finish round 0
    config = AdaptiveConfig(
        target_se=1.5e-4,
        pilot_trials=scale["pilot_trials"],
        max_trials=16 * DRAW_BLOCK_SIZE,
        round_blocks=4,
        max_rounds=16,
    )

    def make_controller(journal_dir):
        factory = None
        if journal_dir is not None:
            def factory(round_index):
                return ShardJournal(
                    Path(journal_dir) / f"round{round_index:04d}.jsonl",
                    f"bench-adaptive-r{round_index}",
                    array_shard_encode,
                    array_shard_decode,
                )
        return AdaptiveCampaignController(
            simulator,
            config,
            n_jobs=jobs,
            retry=RetryPolicy(retries=0),
            journal_factory=factory,
        )

    clean = make_controller(None).run(bins, _seed_for(bins))

    with tempfile.TemporaryDirectory() as td:
        marker = Path(td) / "killed.marker"
        # kill a mid-pilot task (not an early index): the pool breaks
        # at the kill, so only shards completed *before* it are
        # journaled -- a first-task kill would leave nothing to resume
        os.environ[FAULT_ENV] = f"array_mc:3:{marker}"
        try:
            crashed = False
            try:
                make_controller(td).run(bins, _seed_for(bins))
            except WorkerCrashError:
                crashed = True
            assert crashed, (
                "fault hook did not fire -- kill/resume leg proved nothing"
            )
            assert marker.exists(), "worker was not actually killed"
        finally:
            os.environ.pop(FAULT_ENV, None)
        journaled = [p.name for p in Path(td).glob("round*.jsonl")]
        assert journaled, "crashed round left no journal to resume from"
        resumed = make_controller(td).run(bins, _seed_for(bins))

    assert resumed.allocation_history == clean.allocation_history, (
        f"resume diverged from the clean allocation sequence: "
        f"{resumed.allocation_history} vs {clean.allocation_history}"
    )
    assert resumed.total_trials == clean.total_trials
    for a, b in zip(resumed.results, clean.results):
        assert a.pof_total == b.pof_total, (
            f"resumed POF {a.pof_total!r} != clean {b.pof_total!r}"
        )
        assert a.n_particles == b.n_particles
        assert a.n_array_hits == b.n_array_hits
        assert np.array_equal(a.multiplicity_pmf, b.multiplicity_pmf)
    print(
        f"{'resume':>9s}  killed mid-pilot, resumed from "
        f"{len(journaled)} journal(s): allocation + results bit-identical "
        f"({len(clean.rounds)} rounds, {clean.total_trials} trials)"
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
        help="worker processes for the adaptive campaigns (default: 2)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert unbiasedness, SE parity and kill/resume determinism",
    )
    parser.add_argument(
        "--min-trial-savings",
        type=float,
        default=None,
        help="fail unless trial_savings >= this factor (with --check)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_adaptive.json",
        help="trajectory artifact to append this run to",
    )
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]

    print(f"scale={args.scale} jobs={args.jobs} check={args.check}")
    # Normal-incidence beam (accelerated-test geometry) over a launch
    # window inflated well past the array: the core stratum holds ~13%
    # of the area but all of the POF variance -- the regime position
    # stratification exists for.  (At the default 100 nm margin the
    # core bbox IS the window and stratification is a no-op; under the
    # isotropic law frame-launched rays still strike the array at an
    # angle and the frame carries real variance.)
    simulator = _make_simulator(
        margin_nm=1000.0, direction_laws={ALPHA.name: "beam:1.0"}
    )
    sweep = bench_sweep(simulator, scale, args.jobs, args.check)
    spectrum = bench_spectrum(simulator, scale, args.jobs, args.check)
    if args.check:
        bench_resume(simulator, scale, args.jobs)
        if args.min_trial_savings is not None:
            assert sweep["savings"] >= args.min_trial_savings, (
                f"trial savings {sweep['savings']:.2f}x below the "
                f"{args.min_trial_savings:.2f}x gate"
            )
        print("adaptive checks passed")

    entry = {
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(),
        "scale": args.scale,
        "jobs": args.jobs,
        "checked": bool(args.check),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "trial_savings": sweep["savings"],
        "sweep": sweep,
        "spectrum": spectrum,
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
