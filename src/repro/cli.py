"""Command-line interface: ``repro-ser`` / ``python -m repro``.

Subcommands mirror the flow stages:

* ``info``       -- technology card figures of merit.
* ``qcrit``      -- nominal critical charge vs Vdd.
* ``snm``        -- hold/read static noise margins vs Vdd.
* ``build-luts`` -- build and cache the device- and cell-level LUTs.
* ``fit``        -- FIT rate of one (particle, vdd) case.
* ``sweep``      -- the full Fig. 9/10 evaluation sweep.
* ``figures``    -- export every reproduced figure series as CSV.
* ``report``     -- regenerate the paper's evaluation as markdown.
* ``serve``      -- long-lived SER-service daemon: NDJSON queries over
  a unix/TCP socket with single-flight coalescing, memoization,
  admission control, and per-tenant fair scheduling (docs/service.md).
* ``query``      -- client for ``serve``: one sweep (optionally with
  ECC/interleave analysis), streamed progress with ``--watch``.

Every subcommand accepts ``--jobs N`` to fan the Monte Carlo stages
out across N worker processes (``0`` = one per CPU; results are
bit-identical for any value -- see ``docs/performance.md``), the
fault-tolerance knobs (see ``docs/robustness.md``):

* ``--retries N``     -- retry rounds for shards lost to worker
  crashes (default 2).
* ``--task-timeout S`` -- progress watchdog on the worker pool.
* ``--resume/--no-resume`` -- checkpoint completed shards under the
  cache dir and resume interrupted campaigns bit-identically.

the adaptive-sampling knobs (see ``docs/performance.md``):

* ``--adaptive``     -- adaptive trial allocation + stratified
  sampling for the FIT campaigns (``--mc-particles`` becomes the
  per-bin trial ceiling).
* ``--target-se SE`` / ``--target-se-relative`` -- per-bin POF
  standard-error stopping target (absolute, or relative to the POF).
* ``--max-trials N`` / ``--pilot-trials N`` -- per-bin ceiling and
  the uniform pilot budget of round 0.

plus the observability flags (see ``docs/observability.md``):

* ``--log-level {debug,info,warning,error}`` -- diagnostic logging to
  stderr (per-chunk MC progress lives at ``debug``).
* ``--quiet``        -- suppress all non-error output.
* ``--metrics-out``  -- write a JSON run manifest (config, seed, stage
  timings, MC trial counts, throughput, cache hit/miss counts).
* ``--trace``        -- stream nested stage spans to a JSONL file.
* ``--events``       -- stream live progress/heartbeat/convergence
  events to a JSONL file while campaigns run.

The ``obs`` subcommand family inspects what the flags above produce:
``obs tail`` renders an event stream (``--follow`` live-tails a
running campaign with ETA and stall warnings), ``obs summarize``
folds a trace/events/manifest file into per-span p50/p99 tables,
and ``obs diff`` compares two run manifests.
"""

from __future__ import annotations

import argparse
import datetime
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, ReproError
from .obs import (
    build_manifest,
    configure_events,
    configure_logging,
    configure_tracing,
    disable_events,
    enable_metrics,
    get_output_logger,
    reset_convergence,
    reset_tracing,
    span,
)


def _say(message: str):
    """User-facing result line (suppressed by ``--quiet``)."""
    get_output_logger().info(message)


def _add_obs(parser):
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--log-level",
        default="warning",
        choices=["debug", "info", "warning", "error"],
        help="diagnostic log level on stderr (default: warning)",
    )
    group.add_argument(
        "--quiet",
        action="store_true",
        help="suppress all non-error output",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a JSON run manifest (timings, counts, throughput)",
    )
    group.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="stream stage spans to a JSONL trace file",
    )
    group.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="stream live progress/heartbeat/convergence events to a "
        "JSONL file while campaigns run (tail it with 'obs tail')",
    )


def _add_jobs(parser):
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the Monte Carlo stages "
        "(1 = serial, 0 = one per CPU; results are identical "
        "for any value)",
    )
    group = parser.add_argument_group("fault tolerance")
    group.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retry rounds for shards lost to worker crashes "
        "(default: 2; 0 fails on the first loss)",
    )
    group.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help="progress watchdog: retry in-flight shards if no shard "
        "completes for S seconds (default: off)",
    )
    group.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="checkpoint completed Monte Carlo shards under the cache "
        "dir and resume interrupted campaigns bit-identically "
        "(default: on; --no-resume disables checkpointing)",
    )


def _retry_policy(args):
    from .parallel import RetryPolicy

    return RetryPolicy(
        retries=getattr(args, "retries", 2),
        task_timeout_s=getattr(args, "task_timeout", None),
    )


def _add_common(parser):
    parser.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="artifact cache directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--particles",
        default="alpha,proton",
        help="comma-separated particles (default: alpha,proton)",
    )
    parser.add_argument(
        "--mc-particles",
        type=int,
        default=50000,
        help="array-MC particles per energy bin",
    )
    parser.add_argument(
        "--samples", type=int, default=200, help="variation MC samples"
    )
    parser.add_argument(
        "--yield-trials",
        type=int,
        default=20000,
        help="transport MC trials per yield-LUT energy point",
    )
    parser.add_argument(
        "--yield-points",
        type=int,
        default=13,
        help="energy points of the yield LUTs",
    )
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument(
        "--no-variation",
        action="store_true",
        help="neglect process variation (nominal binary POFs)",
    )
    _add_adaptive(parser)


def _add_adaptive(parser):
    group = parser.add_argument_group("adaptive sampling")
    group.add_argument(
        "--adaptive",
        action="store_true",
        help="replace the uniform per-bin trial budget with adaptive "
        "allocation + stratified sampling (see docs/performance.md); "
        "--mc-particles then acts as the per-bin trial ceiling",
    )
    group.add_argument(
        "--target-se",
        type=float,
        default=5e-4,
        metavar="SE",
        help="per-bin POF standard-error target for --adaptive "
        "(default: 5e-4)",
    )
    group.add_argument(
        "--target-se-relative",
        action="store_true",
        help="interpret --target-se relative to each bin's POF "
        "estimate instead of absolutely",
    )
    group.add_argument(
        "--max-trials",
        type=int,
        default=None,
        metavar="N",
        help="hard per-bin trial ceiling for --adaptive "
        "(default: --mc-particles)",
    )
    group.add_argument(
        "--pilot-trials",
        type=int,
        default=8192,
        metavar="N",
        help="uniform pilot trials per bin before adaptive rounds "
        "(default: 8192)",
    )


def _spec_from_args(args, vdd_list=None):
    """Compile parsed arguments into the canonical query spec.

    The CLI no longer builds flows by hand: it states its question as
    a :class:`~repro.service.QuerySpec` — the same schema the daemon
    serves — so a one-shot command and the equivalent service query
    are bit-identical and share every artifact-cache key.
    """
    from .service import QuerySpec

    particles = tuple(p.strip() for p in args.particles.split(",") if p.strip())
    vdds = tuple(vdd_list) if vdd_list else (0.7, 0.8, 0.9, 1.0, 1.1)
    return QuerySpec(
        particles=particles,
        vdd_list=vdds,
        mc_particles=args.mc_particles,
        samples=args.samples,
        yield_trials=args.yield_trials,
        yield_points=args.yield_points,
        seed=args.seed,
        variation=not args.no_variation,
        adaptive=getattr(args, "adaptive", False),
        target_se=getattr(args, "target_se", 5e-4),
        target_se_relative=getattr(args, "target_se_relative", False),
        max_trials=getattr(args, "max_trials", None),
        pilot_trials=getattr(args, "pilot_trials", 8192),
        ecc=getattr(args, "ecc", None),
        interleave=getattr(args, "interleave", 4),
        ecc_pair_particles=getattr(args, "ecc_pair_particles", 20000),
    )


def _exec_options(args):
    from .service import ExecutionOptions

    return ExecutionOptions(
        cache_dir=getattr(args, "cache_dir", None),
        n_jobs=getattr(args, "jobs", 1),
        retry=_retry_policy(args),
        resume=getattr(args, "resume", True),
    )


def _make_flow(args, vdd_list=None):
    from .service import build_flow

    return build_flow(_spec_from_args(args, vdd_list), _exec_options(args))


def cmd_build_luts(args) -> int:
    flow = _make_flow(args)
    luts = flow.yield_luts()
    for name, lut in luts.items():
        _say(
            f"yield LUT [{name}]: {len(lut.energies_mev)} energies, "
            f"{lut.trials_per_energy} trials each, "
            f"peak mean pairs = {np.max(lut.mean_pairs):.1f}"
        )
    table = flow.pof_table()
    _say(
        f"POF table: vdd={table.vdd_list.tolist()}, "
        f"{len(table.charge_axis_c)} charge points, "
        f"PV={'on' if table.process_variation else 'off'}"
    )
    return 0


def cmd_fit(args) -> int:
    flow = _make_flow(args, vdd_list=[args.vdd])
    for particle in flow.config.particles:
        result = flow.fit(particle, args.vdd)
        _say(
            f"{particle:>7s}  vdd={args.vdd:.2f} V  "
            f"FIT={result.fit_total:.4g}  SEU={result.fit_seu:.4g}  "
            f"MBU={result.fit_mbu:.4g}  "
            f"MBU/SEU={100 * result.mbu_to_seu_ratio:.2f}%"
        )
    return 0


def cmd_sweep(args) -> int:
    from .core import fit_report

    vdds = [float(v) for v in args.vdd_list.split(",")]
    flow = _make_flow(args, vdd_list=vdds)
    sweep = flow.sweep()
    _say(fit_report(sweep, normalize=not args.absolute))
    return 0


def cmd_qcrit(args) -> int:
    from .sram import SramCellDesign, critical_charge_vs_vdd

    vdds = [float(v) for v in args.vdd_list.split(",")]
    design = SramCellDesign()
    qcrits = critical_charge_vs_vdd(design, vdds)
    for vdd, qcrit in zip(vdds, qcrits):
        electrons = qcrit / 1.602176634e-19
        _say(f"vdd={vdd:.2f} V  Qcrit={qcrit * 1e15:.4f} fC  ({electrons:.0f} e-)")
    return 0


def cmd_report(args) -> int:
    from .core import write_report

    flow = _make_flow(args)
    path = write_report(
        flow,
        args.out,
        include_pv_comparison=not args.no_variation,
        fig8_particles=args.mc_particles,
    )
    _say(f"report written to {path}")
    return 0


def cmd_figures(args) -> int:
    from .analysis import export_figures

    flow = _make_flow(args)
    written = export_figures(
        flow, args.out_dir, pof_energy_particles=args.mc_particles
    )
    for key, path in sorted(written.items()):
        _say(f"{key}: {path}")
    return 0


def cmd_snm(args) -> int:
    from .sram import SramCellDesign, static_noise_margin_v

    vdds = [float(v) for v in args.vdd_list.split(",")]
    design = SramCellDesign()
    for vdd in vdds:
        hold = static_noise_margin_v(design, vdd, "hold")
        read = static_noise_margin_v(design, vdd, "read")
        _say(
            f"vdd={vdd:.2f} V  hold SNM={hold * 1e3:.1f} mV  "
            f"read SNM={read * 1e3:.1f} mV"
        )
    return 0


def cmd_info(args) -> int:
    from .devices import default_tech

    tech = default_tech()
    _say(f"technology: {tech.name}")
    _say(f"  fin: {tech.fin.length_nm} x {tech.fin.width_nm} x {tech.fin.height_nm} nm")
    for label, model in (("nmos", tech.nmos), ("pmos", tech.pmos)):
        _say(
            f"  {label}: Ion({tech.vdd_nominal_v}V) = "
            f"{model.on_current(tech.vdd_nominal_v) * 1e6:.1f} uA/fin, "
            f"Ioff = {model.off_current(tech.vdd_nominal_v) * 1e9:.2f} nA/fin, "
            f"SS = {model.subthreshold_swing_mv_dec():.0f} mV/dec"
        )
    _say(f"  sigma(Vth) = {tech.sigma_vth_v * 1e3:.0f} mV")
    _say(f"  node cap = {tech.node_cap_f * 1e15:.3f} fF")
    _say(
        f"  transit time tau({tech.vdd_nominal_v} V) = "
        f"{tech.transit_time_s(tech.vdd_nominal_v) * 1e15:.1f} fs"
    )
    return 0


def _add_endpoint(parser):
    group = parser.add_argument_group("service endpoint")
    group.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="unix socket path (default for serve: ./repro-ser.sock)",
    )
    group.add_argument(
        "--host",
        default=None,
        metavar="ADDR",
        help="TCP bind/connect address (with --port; default 127.0.0.1)",
    )
    group.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="TCP port instead of a unix socket",
    )


def cmd_serve(args) -> int:
    import asyncio

    from .obs import get_event_bus
    from .service import CampaignEngine, ServiceDaemon

    socket_path = args.socket
    if socket_path is None and args.port is None:
        socket_path = "repro-ser.sock"
    engine = CampaignEngine(
        options=_exec_options(args),
        max_concurrent=args.max_concurrent,
        max_pending=args.max_pending,
        memo_size=args.memo_size,
    )
    # watchers stream progress out of the ring; make sure one exists
    # even when --events (which also configures a ring) was not given
    if get_event_bus() is None:
        configure_events(path=None)
    daemon = ServiceDaemon(
        engine, socket_path=socket_path, host=args.host, port=args.port
    )
    where = socket_path if socket_path else f"{args.host or '127.0.0.1'}:{args.port}"
    _say(f"serving SER queries on {where} (ctrl-c or 'shutdown' op to stop)")
    try:
        asyncio.run(daemon.serve_until_shutdown())
    except KeyboardInterrupt:  # pragma: no cover -- interactive
        pass
    finally:
        engine.shutdown(wait=True, timeout_s=30.0)
    stats = engine.stats()
    _say(
        f"served {stats['campaigns']} campaign(s) for "
        f"{stats['requests']} request(s) "
        f"({stats['coalesced']} coalesced, {stats['memo_hits']} memo hits)"
    )
    return 0


def cmd_query(args) -> int:
    import json as _json

    from .service import ServiceClient, ServiceError

    spec = _spec_from_args(
        args,
        vdd_list=[float(v) for v in args.vdd_list.split(",")],
    )
    events_seen = [0]

    def on_event(event):
        events_seen[0] += 1
        kind = event.get("kind", "?")
        label = event.get("label", "")
        _say(f"  [{kind}] {label} {event.get('state', '')}".rstrip())

    socket_path = args.socket
    if socket_path is None and args.port is None:
        socket_path = "repro-ser.sock"
    client = ServiceClient(
        socket_path=socket_path,
        host=args.host,
        port=args.port,
        timeout_s=args.timeout,
    )
    try:
        with client:
            reply = client.query(
                spec,
                tenant=args.tenant,
                watch=args.watch,
                on_event=on_event if args.watch else None,
            )
    except (ServiceError, OSError) as exc:
        _say(f"query failed: {exc}")
        return 1
    result = reply["result"]
    _say(
        f"source={reply['source']}  wall={reply['wall_s']:.3f}s  "
        f"key={result['key'][:16]}"
    )
    for case in result["cases"]:
        _say(
            f"{case['particle']:>7s}  vdd={case['vdd']:.2f} V  "
            f"FIT={case['fit_total']:.4g}  SEU={case['fit_seu']:.4g}  "
            f"MBU={case['fit_mbu']:.4g}  "
            f"MBU/SEU={100 * case['mbu_to_seu_ratio']:.2f}%"
        )
    for analysis in result.get("ecc", []):
        _say(
            f"{analysis['particle']:>7s}  vdd={analysis['vdd']:.2f} V  "
            f"{analysis['scheme']} i{analysis['interleave_distance']}: "
            f"uncorrectable={analysis['uncorrectable_rate']:.4g} FIT  "
            f"gain={analysis['correction_gain']:.3g}x"
        )
    if args.json:
        _say(_json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_obs_tail(args) -> int:
    from .obs.inspect import follow_events, tail_events

    if args.follow:
        try:
            for line in follow_events(
                args.path,
                stall_after_s=args.stall_after,
                idle_timeout_s=args.idle_timeout,
            ):
                _say(line)
        except KeyboardInterrupt:  # pragma: no cover -- interactive
            pass
        return 0
    lines, stats = tail_events(args.path, last=args.last)
    for line in lines:
        _say(line)
    kinds = ", ".join(
        f"{kind}={count}" for kind, count in sorted(stats["kinds"].items())
    )
    _say(f"-- {stats['events']} events ({kinds or 'none'})")
    if stats["invalid"]:
        _say(f"-- {stats['invalid']} invalid line(s) skipped")
    return 0


def cmd_obs_summarize(args) -> int:
    import json as _json

    from .obs.inspect import (
        render_span_table,
        render_table,
        summarize_events,
        summarize_manifest,
        summarize_trace,
    )

    kind = args.kind
    if kind == "auto":
        name = str(args.path).lower()
        if name.endswith(".json"):
            kind = "manifest"
        elif "trace" in name:
            kind = "trace"
        else:
            kind = "events"
    if kind == "manifest":
        summary = summarize_manifest(args.path)
        _say(
            f"manifest: command={summary['command']} "
            f"duration={summary['duration_s']:.2f}s"
        )
        if summary["spans"]:
            _say(render_span_table(summary["spans"]))
        bins = summary.get("convergence_bins") or {}
        if bins.get("bins"):
            _say(
                f"convergence: {bins['bins']} bins, "
                f"{bins['total_trials']} trials, "
                f"se p50={bins['p50_se']:.3g} p99={bins['p99_se']:.3g}, "
                f"worst {bins['worst_bin']} ({bins['worst_se']:.3g})"
            )
    elif kind == "trace":
        summary = summarize_trace(args.path)
        _say(render_span_table(summary["spans"]))
        if summary["invalid"]:
            _say(f"-- {summary['invalid']} invalid line(s) skipped")
    else:
        summary = summarize_events(args.path)
        rows = [
            [
                label,
                str(stats["rounds"]),
                str(stats["tasks"]),
                str(stats["finished"]),
                str(stats["retried"]),
                str(stats["lost"]),
                f"{stats['busy_p50_s']:.4f}",
                f"{stats['busy_p99_s']:.4f}",
            ]
            for label, stats in sorted(summary["labels"].items())
        ]
        _say(
            render_table(
                [
                    "label", "rounds", "tasks", "finished",
                    "retried", "lost", "busy_p50", "busy_p99",
                ],
                rows,
            )
        )
        conv = summary["convergence"]
        if conv["bins"]:
            _say(
                f"convergence: {conv['bins']} bins, "
                f"se p50={conv['p50_se']:.3g} p99={conv['p99_se']:.3g}, "
                f"worst {conv['worst_bin']} ({conv['worst_se']:.3g})"
            )
    if args.json:
        _say(_json.dumps(summary, indent=2, sort_keys=True, default=str))
    return 0


def cmd_obs_diff(args) -> int:
    from .obs.inspect import diff_manifests, render_table

    diffs, meta = diff_manifests(args.path_a, args.path_b)
    _say(
        f"comparing {meta['a']['command']} ({meta['a']['started_at']}) "
        f"vs {meta['b']['command']} ({meta['b']['started_at']})"
    )
    if not diffs:
        _say("no differences (wall-time fields within 0.1%)")
        return 0
    _say(
        render_table(
            ["field", "a", "b"],
            [[key, str(va), str(vb)] for key, va, vb in diffs],
        )
    )
    return 1 if args.fail_on_diff else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ser",
        description="Cross-layer SER analysis of SOI FinFET SRAM arrays "
        "(DAC 2014 reproduction)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro-ser {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build-luts", help="build and cache all LUTs")
    _add_common(p_build)
    p_build.set_defaults(func=cmd_build_luts)

    p_fit = sub.add_parser("fit", help="FIT rate at one supply voltage")
    _add_common(p_fit)
    p_fit.add_argument("--vdd", type=float, default=0.8)
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser("sweep", help="FIT and MBU/SEU vs Vdd")
    _add_common(p_sweep)
    p_sweep.add_argument("--vdd-list", default="0.7,0.8,0.9,1.0,1.1")
    p_sweep.add_argument(
        "--absolute", action="store_true", help="print raw FIT (not normalized)"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_qcrit = sub.add_parser("qcrit", help="nominal critical charge vs Vdd")
    p_qcrit.add_argument("--vdd-list", default="0.7,0.8,0.9,1.0,1.1")
    p_qcrit.set_defaults(func=cmd_qcrit)

    p_report = sub.add_parser(
        "report", help="regenerate the paper's evaluation as markdown"
    )
    _add_common(p_report)
    p_report.add_argument("--out", default="reproduction_report.md")
    p_report.set_defaults(func=cmd_report)

    p_figures = sub.add_parser(
        "figures", help="export every reproduced figure series as CSV"
    )
    _add_common(p_figures)
    p_figures.add_argument("--out-dir", default="figures")
    p_figures.set_defaults(func=cmd_figures)

    p_snm = sub.add_parser("snm", help="static noise margins vs Vdd")
    p_snm.add_argument("--vdd-list", default="0.7,0.8,0.9,1.0,1.1")
    p_snm.set_defaults(func=cmd_snm)

    p_info = sub.add_parser("info", help="technology figures of merit")
    p_info.set_defaults(func=cmd_info)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived SER-service daemon (queries over a socket)",
    )
    _add_endpoint(p_serve)
    p_serve.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="artifact cache directory (default: .repro-cache)",
    )
    p_serve.add_argument(
        "--max-concurrent",
        type=int,
        default=1,
        metavar="N",
        help="campaigns running at once (default: 1; each uses --jobs "
        "workers)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=16,
        metavar="N",
        help="admission control: campaigns allowed to wait for a slot "
        "before submissions are rejected (default: 16)",
    )
    p_serve.add_argument(
        "--memo-size",
        type=int,
        default=128,
        metavar="N",
        help="completed results memoized in-process (default: 128)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_query = sub.add_parser(
        "query",
        help="ask a running SER-service daemon for a sweep "
        "(coalesces with identical in-flight queries)",
    )
    _add_common(p_query)
    _add_endpoint(p_query)
    p_query.add_argument("--vdd-list", default="0.7,0.8,0.9,1.0,1.1")
    p_query.add_argument(
        "--tenant",
        default="default",
        help="fair-scheduling tenant this query bills to (default: default)",
    )
    p_query.add_argument(
        "--watch",
        action="store_true",
        help="stream live campaign progress events while waiting",
    )
    p_query.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="socket timeout (default: wait forever)",
    )
    p_query.add_argument(
        "--json",
        action="store_true",
        help="also print the full result as JSON",
    )
    ecc_group = p_query.add_argument_group("ecc / interleaving")
    ecc_group.add_argument(
        "--ecc",
        choices=("none", "SEC-DED", "DEC-TED"),
        default=None,
        help="fold an ECC/interleave word-failure analysis over the sweep",
    )
    ecc_group.add_argument(
        "--interleave",
        type=int,
        default=4,
        metavar="D",
        help="bit-interleaving distance for --ecc (default: 4)",
    )
    ecc_group.add_argument(
        "--ecc-pair-particles",
        type=int,
        default=20000,
        metavar="N",
        help="strikes for the failing-pair offset statistics "
        "(default: 20000)",
    )
    p_query.set_defaults(func=cmd_query)

    p_obs = sub.add_parser(
        "obs", help="inspect telemetry files (events, traces, manifests)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_tail = obs_sub.add_parser(
        "tail", help="render an event stream (optionally live)"
    )
    p_tail.add_argument("path", help="events JSONL file (--events output)")
    p_tail.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="keep tailing as the file grows (live campaign view with "
        "heartbeat ETAs and stall warnings)",
    )
    p_tail.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="only the trailing N events (default: all)",
    )
    p_tail.add_argument(
        "--stall-after",
        type=float,
        default=10.0,
        metavar="S",
        help="flag a stall after S seconds without events (default: 10)",
    )
    p_tail.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="S",
        help="stop following after S idle seconds (default: forever)",
    )
    p_tail.set_defaults(func=cmd_obs_tail)

    p_summ = obs_sub.add_parser(
        "summarize",
        help="per-span p50/p99 tables from a trace, events, or manifest file",
    )
    p_summ.add_argument("path", help="telemetry file to summarize")
    p_summ.add_argument(
        "--kind",
        choices=("auto", "trace", "events", "manifest"),
        default="auto",
        help="file type (default: auto -- .json is a manifest, a path "
        "containing 'trace' is a trace, anything else is events)",
    )
    p_summ.add_argument(
        "--json",
        action="store_true",
        help="also print the structured summary as JSON",
    )
    p_summ.set_defaults(func=cmd_obs_summarize)

    p_diff = obs_sub.add_parser(
        "diff", help="field-level differences between two run manifests"
    )
    p_diff.add_argument("path_a")
    p_diff.add_argument("path_b")
    p_diff.add_argument(
        "--fail-on-diff",
        action="store_true",
        help="exit 1 when the manifests differ",
    )
    p_diff.set_defaults(func=cmd_obs_diff)

    for command_parser in (
        p_build, p_fit, p_sweep, p_qcrit, p_report, p_figures, p_snm,
        p_info, p_serve,
    ):
        _add_jobs(command_parser)
        _add_obs(command_parser)
    _add_obs(p_query)  # the client produces no campaigns, only output
    return parser


def _manifest_config(args) -> dict:
    """JSON-safe view of the parsed arguments (drops the callable)."""
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "func" and not callable(value)
    }


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    # the ``obs`` inspection subcommands carry no observability flags
    # of their own (they *read* telemetry instead of producing it), so
    # every flag lookup below tolerates absence.
    configure_logging(
        level=getattr(args, "log_level", "warning"),
        quiet=getattr(args, "quiet", False),
    )
    # each invocation's manifest counts only its own bins
    enable_metrics(fresh=True)
    reset_convergence()
    trace_path = getattr(args, "trace", None)
    events_path = getattr(args, "events", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace_path:
        configure_tracing(trace_path)
    if events_path:
        configure_events(path=events_path)

    started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    exit_code = 1
    try:
        with span(f"cli.{args.command}", argv=" ".join(argv or sys.argv[1:])):
            exit_code = args.func(args)
    except ReproError as exc:
        # one line, no traceback; a bad option value exits 2, as in argparse
        exit_code = 2 if isinstance(exc, ConfigError) else 1
        print(f"error: {exc}", file=sys.stderr)
    finally:
        duration_s = time.perf_counter() - t0
        if metrics_out:
            manifest = build_manifest(
                command=args.command,
                argv=list(argv) if argv is not None else sys.argv[1:],
                config=_manifest_config(args),
                seed=getattr(args, "seed", None),
                started_at=started_at,
                duration_s=duration_s,
                exit_code=exit_code,
                version=__version__,
            )
            manifest.write(metrics_out)
            _say(f"run manifest written to {metrics_out}")
        if trace_path:
            reset_tracing()
            _say(f"trace written to {trace_path}")
        if events_path:
            disable_events()
            _say(f"events written to {events_path}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
