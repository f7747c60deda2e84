"""Inspection toolkit behind the ``repro-ser obs`` subcommands.

Everything the live telemetry plane writes -- event streams
(:mod:`repro.obs.events`), span traces (:mod:`repro.obs.trace`) and run
manifests (:mod:`repro.obs.manifest`) -- is JSON on disk; this module
turns those files back into human-readable answers:

* :func:`tail_events` / :func:`follow_events` -- render an event
  stream (optionally live, tailing a file another process is still
  appending to), surfacing heartbeat ETAs and flagging stalls.
* :func:`summarize_trace` / :func:`summarize_events` /
  :func:`summarize_manifest` -- fold a telemetry file into per-span
  p50/p99 wall-time tables and per-label round/shard digests.
* :func:`diff_manifests` -- field-by-field comparison of two run
  manifests: stage timings, MC trial counts, execution-plane
  environment, convergence.

All functions are pure (paths in, structured data + rendered text
out) so tests can drive them without a subprocess; the CLI layer in
:mod:`repro.cli` only parses arguments and prints.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from .jsonl import read_jsonl
from .registry import _exact_quantile

__all__ = [
    "diff_manifests",
    "follow_events",
    "format_event",
    "read_event_chain",
    "render_table",
    "summarize_events",
    "summarize_manifest",
    "summarize_trace",
    "tail_events",
]

#: Follow mode flags a stall when no event arrives for this long [s].
DEFAULT_STALL_S = 10.0


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 100:
        return f"{value:.0f}s"
    if value >= 1:
        return f"{value:.2f}s"
    return f"{value * 1e3:.1f}ms"


def format_event(event: dict, t0: Optional[float] = None) -> str:
    """One human-readable line for one telemetry event."""
    seq = event.get("seq", "?")
    t = event.get("t")
    rel = f"+{t - t0:8.3f}s" if t is not None and t0 is not None else " " * 10
    kind = event.get("kind", "?")
    label = event.get("label", event.get("stage", ""))
    if kind == "round":
        body = (
            f"{label} {event.get('phase', '?')}"
            f" path={event.get('path', '?')}"
            f" tasks={event.get('tasks', '?')}"
        )
        if event.get("phase") == "start":
            body += f" workers={event.get('workers', '?')}"
        else:
            body += (
                f" lost={event.get('lost', 0)}"
                f" wall={_fmt_seconds(event.get('wall_s'))}"
            )
    elif kind == "progress":
        body = f"{label}[{event.get('index', '?')}] {event.get('state', '?')}"
        if event.get("pid") is not None:
            body += f" pid={event['pid']}"
        if event.get("busy_s") is not None:
            body += f" busy={_fmt_seconds(event['busy_s'])}"
        if event.get("attempt") is not None:
            body += f" attempt={event['attempt']}/{event.get('retries', '?')}"
    elif kind == "heartbeat":
        body = (
            f"{label} {event.get('done', '?')}/{event.get('total', '?')}"
            f" elapsed={_fmt_seconds(event.get('elapsed_s'))}"
            f" eta={_fmt_seconds(event.get('eta_s'))}"
        )
        if event.get("final"):
            body += " final"
    elif kind == "convergence":
        body = f"{event.get('bin', label)} pof={event.get('pof', 0.0):.3g}"
        se = event.get("pof_standard_error")
        if se is not None:
            body += f" se={se:.3g}"
        body += f" trials={event.get('trials', '?')}"
    elif kind == "allocation":
        bins = event.get("bins") or {}
        body = (
            f"{label} round={event.get('round', '?')}"
            f" blocks={event.get('blocks', '?')}"
            f" trials={event.get('trials', '?')}"
            f" bins={len(bins)}"
            f" converged={event.get('converged', '?')}"
        )
    else:
        body = json.dumps(
            {k: v for k, v in event.items() if k not in ("type", "seq", "t")},
            sort_keys=True,
        )
    return f"#{seq:>5} {rel} {kind:<11} {body}"


def read_event_chain(path: Union[str, Path]) -> Tuple[List[dict], int]:
    """Read a possibly-rotated event stream: ``<path>.1`` + ``<path>``.

    The :class:`~repro.obs.jsonl.JsonlWriter` rotates the live file to
    ``<path>.1`` at the size cap, so the full stream of a long campaign
    is the concatenation of the rotated generation (older events) and
    the live file.  One-shot readers that look only at ``<path>``
    silently drop the rotated prefix; this helper stitches the chain
    back together, deduplicating on the bus ``seq`` (a reader can race
    the rotation and see the same event in both generations) and
    keeping the total order.  Returns ``(records, invalid)`` like
    :func:`~repro.obs.jsonl.read_jsonl`; non-event records (headers)
    pass through undeduplicated.
    """
    path = str(path)
    records: List[dict] = []
    invalid = 0
    seen_seq = set()
    for part in (path + ".1", path):
        if not os.path.exists(part):
            continue
        part_records, part_invalid = read_jsonl(part)
        invalid += part_invalid
        for record in part_records:
            if record.get("type") == "event":
                seq = record.get("seq")
                if seq is not None:
                    if seq in seen_seq:
                        continue
                    seen_seq.add(seq)
            records.append(record)
    return records, invalid


def tail_events(
    path: Union[str, Path], last: Optional[int] = None
) -> Tuple[List[str], dict]:
    """Render an event file; returns ``(lines, stats)``.

    Reads the full rotation chain (``<path>.1`` then ``<path>``) so a
    stream that rotated mid-campaign is rendered whole.  ``last``
    keeps only the trailing N events (like ``tail -n``).  ``stats``
    carries the per-kind counts and the invalid-line count of the
    tolerant reader.
    """
    records, invalid = read_event_chain(path)
    events = [r for r in records if r.get("type") == "event"]
    t0 = events[0].get("t") if events else None
    if last is not None and last >= 0:
        events = events[-last:]
    counts: Dict[str, int] = {}
    for event in events:
        counts[event.get("kind", "?")] = counts.get(event.get("kind", "?"), 0) + 1
    lines = [format_event(e, t0) for e in events]
    return lines, {"events": len(events), "kinds": counts, "invalid": invalid}


def follow_events(
    path: Union[str, Path],
    poll_s: float = 0.2,
    idle_timeout_s: Optional[float] = None,
    stall_after_s: float = DEFAULT_STALL_S,
    stop: Optional[Callable[[], bool]] = None,
    _clock=time.monotonic,
    _sleep=time.sleep,
) -> Iterator[str]:
    """Live-tail a growing event file, yielding rendered lines.

    Reads incrementally (tolerating a torn final line that a writer is
    still appending), yields one formatted line per complete event,
    and interleaves ``!! stalled`` warning lines when no event arrives
    for ``stall_after_s`` -- the silent-stream signal documented in
    :mod:`repro.obs.events`.  Stops when ``stop()`` returns true or
    when nothing arrived for ``idle_timeout_s`` (``None`` = follow
    forever).
    """
    state = {"t0": None, "fresh": False, "last_event": _clock()}
    buffer = b""
    offset = 0
    inode: Optional[int] = None
    stalled = False

    def parse(chunk: bytes):
        nonlocal buffer
        buffer += chunk
        while b"\n" in buffer:
            line, buffer = buffer.split(b"\n", 1)
            try:
                event = json.loads(line.decode("utf-8", errors="replace"))
            except json.JSONDecodeError:
                continue
            if not isinstance(event, dict) or event.get("type") != "event":
                continue
            if state["t0"] is None:
                state["t0"] = event.get("t")
            state["last_event"] = _clock()
            state["fresh"] = True
            yield format_event(event, state["t0"])

    def read_from(source, start: int) -> bytes:
        try:
            with open(source, "rb") as handle:
                handle.seek(start)
                return handle.read()
        except OSError:
            return b""

    while True:
        if stop is not None and stop():
            return
        try:
            st = os.stat(path)
            size, ino = st.st_size, st.st_ino
        except OSError:
            size, ino = 0, inode
        if inode is None:
            inode = ino
        if ino != inode:
            # Rotated under us: the handle we were reading now lives at
            # <path>.1.  Size comparison alone misses this whenever the
            # fresh file grows past our old offset between polls, so
            # the inode is the rotation signal.  Drain the tail of the
            # rotated generation first — no events are skipped across
            # the boundary — then start over on the fresh file.
            yield from parse(read_from(str(path) + ".1", offset))
            if buffer:  # torn tail of the rotated file: nothing follows it
                buffer = b""
            inode = ino
            offset = 0
        elif size < offset:  # truncated in place: start over
            offset = 0
            buffer = b""
        if size > offset:
            chunk = read_from(path, offset)
            offset += len(chunk)
            yield from parse(chunk)
        if state["fresh"]:
            state["fresh"] = False
            stalled = False
        idle = _clock() - state["last_event"]
        if not stalled and idle >= stall_after_s:
            stalled = True
            yield (
                f"!! stalled: no events for {idle:.1f}s "
                f"(heartbeats should arrive every ~1s while a round runs)"
            )
        if idle_timeout_s is not None and idle >= idle_timeout_s:
            return
        _sleep(poll_s)


def render_table(
    headers: List[str], rows: List[List[str]], indent: str = "  "
) -> str:
    """Plain-text column-aligned table (no external deps)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return indent + "  ".join(
            cell.ljust(width) for cell, width in zip(cells, widths)
        ).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def summarize_trace(path: Union[str, Path]) -> dict:
    """Per-span-name wall-time digest of a JSONL trace file.

    Returns ``{"spans": {name: {count, total_s, p50_s, p99_s, max_s}},
    "invalid": n}`` -- the quantiles are exact over the file (the
    trace keeps every completed span, unlike the registry's bounded
    timer samples).
    """
    records, invalid = read_jsonl(path)
    durations: Dict[str, List[float]] = {}
    for record in records:
        if record.get("type") != "span" or record.get("dur_s") is None:
            continue
        durations.setdefault(record["name"], []).append(float(record["dur_s"]))
    spans = {
        name: {
            "count": len(values),
            "total_s": sum(values),
            "p50_s": _exact_quantile(values, 0.5),
            "p99_s": _exact_quantile(values, 0.99),
            "max_s": max(values),
        }
        for name, values in sorted(durations.items())
    }
    return {"spans": spans, "invalid": invalid}


def summarize_events(path: Union[str, Path]) -> dict:
    """Per-label round/shard digest plus convergence tail of an event file.

    Reads the rotation chain (see :func:`read_event_chain`), so long
    campaigns whose streams rotated report full round/trial counts.
    """
    records, invalid = read_event_chain(path)
    labels: Dict[str, dict] = {}
    convergence: Dict[str, dict] = {}
    counts: Dict[str, int] = {}
    for event in records:
        if event.get("type") != "event":
            continue
        kind = event.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "convergence":
            convergence[event.get("bin", "?")] = {
                "trials": event.get("cumulative_trials", event.get("trials")),
                "pof": event.get("pof"),
                "standard_error": event.get("pof_standard_error"),
            }
            continue
        label = event.get("label")
        if label is None:
            continue
        stats = labels.setdefault(
            label,
            {
                "rounds": 0,
                "tasks": 0,
                "finished": 0,
                "retried": 0,
                "lost": 0,
                "wall_s": 0.0,
                "busy": [],
            },
        )
        if kind == "round":
            if event.get("phase") == "start":
                stats["rounds"] += 1
                stats["tasks"] += int(event.get("tasks", 0))
            else:
                stats["wall_s"] += float(event.get("wall_s") or 0.0)
        elif kind == "progress":
            state = event.get("state")
            if state == "finished":
                stats["finished"] += 1
                if event.get("busy_s") is not None:
                    stats["busy"].append(float(event["busy_s"]))
            elif state == "retrying":
                stats["retried"] += 1
            elif state == "lost":
                stats["lost"] += 1
    for stats in labels.values():
        busy = stats.pop("busy")
        stats["busy_p50_s"] = _exact_quantile(busy, 0.5)
        stats["busy_p99_s"] = _exact_quantile(busy, 0.99)
    errors = [
        state["standard_error"]
        for state in convergence.values()
        if state.get("standard_error") is not None
    ]
    worst_bin, worst_se = None, 0.0
    for key, state in convergence.items():
        se = state.get("standard_error")
        if se is not None and math.isfinite(se) and se >= worst_se:
            worst_bin, worst_se = key, se
    return {
        "kinds": counts,
        "labels": labels,
        "convergence": {
            "bins": len(convergence),
            "p50_se": _exact_quantile(errors, 0.5),
            "p99_se": _exact_quantile(errors, 0.99),
            "worst_bin": worst_bin,
            "worst_se": worst_se,
        },
        "invalid": invalid,
    }


def summarize_manifest(path: Union[str, Path]) -> dict:
    """Span p50/p99 table data straight from a run manifest's timers."""
    from .manifest import RunManifest

    manifest = RunManifest.load(path)
    spans = {
        name: {
            "count": stats.get("count", 0),
            "total_s": stats.get("total_s", 0.0),
            "p50_s": stats.get("p50_s", 0.0),
            "p99_s": stats.get("p99_s", 0.0),
            "max_s": stats.get("max_s", 0.0),
        }
        for name, stats in sorted(manifest.stage_timings_s.items())
    }
    return {
        "command": manifest.command,
        "duration_s": manifest.duration_s,
        "spans": spans,
        "convergence_bins": manifest.convergence_bins,
        "environment": manifest.environment,
    }


def render_span_table(spans: Dict[str, dict]) -> str:
    rows = [
        [
            name,
            str(stats["count"]),
            _fmt_seconds(stats["total_s"]),
            _fmt_seconds(stats["p50_s"]),
            _fmt_seconds(stats["p99_s"]),
            _fmt_seconds(stats["max_s"]),
        ]
        for name, stats in spans.items()
    ]
    return render_table(
        ["span", "count", "total", "p50", "p99", "max"], rows
    )


def _flatten(prefix: str, value, out: Dict[str, object]):
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    else:
        out[prefix] = value


def diff_manifests(
    path_a: Union[str, Path], path_b: Union[str, Path]
) -> Tuple[List[Tuple[str, object, object]], dict]:
    """Field-level differences between two run manifests.

    Compares the human-facing sections (config, environment, stage
    timings, MC counts, convergence digest) -- not the raw ``metrics``
    snapshot, whose per-label keys differ run to run by construction.
    Returns ``(diffs, meta)`` where each diff is ``(dotted_key,
    value_a, value_b)``; numeric near-equality (0.1% relative) is not
    reported, so bit-identical reruns on the same host diff clean
    except for wall times.
    """
    from .manifest import RunManifest

    a = RunManifest.load(path_a)
    b = RunManifest.load(path_b)
    sections = (
        "config",
        "environment",
        "stage_timings_s",
        "mc",
        "lut_cache",
        "convergence",
        "convergence_bins",
        "fault_tolerance",
        "parallel",
        "adaptive",
        "service",
    )
    flat_a: Dict[str, object] = {}
    flat_b: Dict[str, object] = {}
    for section in sections:
        _flatten(section, getattr(a, section), flat_a)
        _flatten(section, getattr(b, section), flat_b)
    diffs: List[Tuple[str, object, object]] = []
    for key in sorted(set(flat_a) | set(flat_b)):
        if key.endswith(".samples"):  # raw retention buffers, not facts
            continue
        va = flat_a.get(key, "<absent>")
        vb = flat_b.get(key, "<absent>")
        if va == vb:
            continue
        if (
            isinstance(va, (int, float))
            and isinstance(vb, (int, float))
            and not isinstance(va, bool)
            and not isinstance(vb, bool)
        ):
            scale = max(abs(float(va)), abs(float(vb)))
            if scale > 0 and abs(float(va) - float(vb)) / scale < 1e-3:
                continue
        diffs.append((key, va, vb))
    meta = {
        "a": {"command": a.command, "started_at": a.started_at},
        "b": {"command": b.command, "started_at": b.started_at},
        "compared": len(set(flat_a) | set(flat_b)),
    }
    return diffs, meta
