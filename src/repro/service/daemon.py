"""The asyncio SER-service daemon: NDJSON queries over a socket.

``repro-ser serve`` runs one of these: a long-lived front-end over a
:class:`~repro.service.engine.CampaignEngine`, listening on a unix
socket (the default — same-host clients, file permissions as the
ACL) or a TCP port.  Clients send newline-delimited JSON requests
(see :mod:`repro.service.protocol`) and read responses matched by
``id``; with ``"watch": true`` the daemon interleaves live progress
events — fanned out of the process-wide
:class:`~repro.obs.events.EventRing` — while the campaign runs.

Design notes
------------
* The asyncio loop only moves bytes and futures; campaigns run on the
  engine's worker threads (which in turn fan out to the warm process
  pools).  A slow campaign never blocks another client's admission,
  rejection, or stats round-trip.
* Every request line is dispatched as its own task, so two queries
  pipelined on one connection coalesce in flight exactly like queries
  from two connections.
* A client that disconnects mid-campaign abandons only its *reply*:
  the campaign keeps running, the result lands in the engine memo and
  the artifact cache, and the next asker gets it instantly.  (Killing
  work on disconnect would let one flaky client waste everyone's
  shared single-flight.)
"""

from __future__ import annotations

import asyncio
import os
from typing import Optional

from ..obs import get_event_bus, get_logger, kv
from .engine import AdmissionError, CampaignEngine, ServiceError
from .protocol import QueryError, QuerySpec, decode_line, encode_line

__all__ = ["ServiceDaemon"]

_log = get_logger(__name__)

#: Poll period for fanning ring events out to watching clients [s].
EVENT_POLL_S = 0.2


def _consume_result(future):
    """Mark an abandoned campaign result as retrieved (no loop noise)."""
    if not future.cancelled():
        future.exception()


class ServiceDaemon:
    """Serve a :class:`CampaignEngine` over a unix or TCP socket."""

    def __init__(
        self,
        engine: CampaignEngine,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ):
        if socket_path is None and port is None:
            raise ServiceError("need a unix socket path or a TCP port")
        if socket_path is not None and port is not None:
            raise ServiceError("choose one of unix socket / TCP port")
        self.engine = engine
        self.socket_path = socket_path
        self.host = host if host is not None else "127.0.0.1"
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self):
        self._shutdown = asyncio.Event()
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)  # stale socket from a crash
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.socket_path
            )
            where = self.socket_path
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
            where = f"{self.host}:{self.port}"
        _log.info("ser service listening %s", kv(on=where))

    async def serve_until_shutdown(self):
        """Run until a ``shutdown`` request (or :meth:`stop`) arrives."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()

    async def stop(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.socket_path is not None and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        if self._shutdown is not None:
            self._shutdown.set()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        send_lock = asyncio.Lock()
        tasks = []
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break  # client hung up; in-flight campaigns carry on
                task = asyncio.ensure_future(
                    self._dispatch(line, writer, send_lock)
                )
                tasks.append(task)
                tasks = [t for t in tasks if not t.done()]
        except (
            ConnectionResetError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,  # server closed mid-read at shutdown
        ):
            pass
        finally:
            # replies to a gone client are pointless; the engine-side
            # work is deliberately left running (see module docstring)
            for task in tasks:
                task.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _send(self, writer, send_lock, message: dict):
        async with send_lock:
            writer.write(encode_line(message))
            await writer.drain()

    async def _dispatch(self, line: bytes, writer, send_lock):
        request_id = None
        try:
            message = decode_line(line)
            request_id = message.get("id")
            op = message.get("op", "query")
            if op == "ping":
                await self._send(
                    writer, send_lock, {"id": request_id, "ok": True, "pong": True}
                )
            elif op == "stats":
                await self._send(
                    writer,
                    send_lock,
                    {"id": request_id, "ok": True, "stats": self.engine.stats()},
                )
            elif op == "shutdown":
                await self._send(
                    writer, send_lock, {"id": request_id, "ok": True, "stopping": True}
                )
                self._shutdown.set()
            elif op == "query":
                await self._serve_query(message, writer, send_lock)
            else:
                raise QueryError(f"unknown op {op!r}")
        except QueryError as exc:
            await self._reply_error(
                writer, send_lock, request_id, "bad-request", exc
            )
        except AdmissionError as exc:
            await self._reply_error(
                writer, send_lock, request_id, "rejected", exc
            )
        except (ConnectionResetError, asyncio.CancelledError):
            raise
        except Exception as exc:  # campaign errors -> structured reply
            await self._reply_error(
                writer, send_lock, request_id, "failed", exc
            )

    async def _reply_error(self, writer, send_lock, request_id, code, exc):
        try:
            await self._send(
                writer,
                send_lock,
                {
                    "id": request_id,
                    "ok": False,
                    "code": code,
                    "error": str(exc),
                },
            )
        except (ConnectionResetError, OSError):
            pass  # client is gone; nothing to tell

    async def _serve_query(self, message: dict, writer, send_lock):
        request_id = message.get("id")
        tenant = str(message.get("tenant", "default"))
        spec = QuerySpec.from_dict(message.get("spec") or {})
        loop = asyncio.get_event_loop()
        t0 = loop.time()
        # the watch baseline must predate the submission: a fast
        # campaign can emit its first events before the fan-out task
        # ever runs, and those must still reach the client
        baseline_seq = self._ring_seq()
        future = self.engine.submit(spec, tenant=tenant)
        # shield: cancelling this dispatch task (client hung up, server
        # stopping) must never propagate through wrap_future into the
        # engine's future, which resolves from the worker thread
        inner = asyncio.wrap_future(future)
        inner.add_done_callback(_consume_result)
        aio_future = asyncio.shield(inner)
        watch_task = None
        if message.get("watch"):
            watch_task = asyncio.ensure_future(
                self._fan_out_events(
                    request_id, writer, send_lock, aio_future, baseline_seq
                )
            )
        try:
            result = await aio_future
        except BaseException:
            if watch_task is not None:
                watch_task.cancel()
            raise
        if watch_task is not None:
            await watch_task  # final drain: events precede the reply
        await self._send(
            writer,
            send_lock,
            {
                "id": request_id,
                "ok": True,
                "source": result.get("source", "campaign"),
                "wall_s": loop.time() - t0,
                "result": result,
            },
        )

    @staticmethod
    def _ring_seq() -> int:
        """Highest event seq currently in the ring (0 when dark).

        The bus appends events in ``seq`` order under its lock, so the
        newest retained event holds the highest.
        """
        bus = get_event_bus()
        if bus is None or bus.ring is None:
            return 0
        newest = bus.ring.newest()
        return newest.get("seq", 0) if newest is not None else 0

    async def _fan_out_events(
        self, request_id, writer, send_lock, aio_future, last_seq: int
    ):
        """Stream ring events to a watching client while its query runs.

        The ring is process-global — a watcher sees the progress of
        every running campaign (including the one it shares through
        coalescing, which is exactly the point).  Runs one final drain
        after the query resolves so no event is lost between the last
        poll and the reply.
        """
        bus = get_event_bus()
        if bus is None or bus.ring is None:
            return
        try:
            while True:
                done = aio_future.done()
                for event in bus.ring.snapshot():
                    seq = event.get("seq", 0)
                    if seq <= last_seq:
                        continue
                    last_seq = seq
                    await self._send(
                        writer,
                        send_lock,
                        {"id": request_id, "event": event},
                    )
                if done:
                    return
                await asyncio.sleep(EVENT_POLL_S)
        except (ConnectionResetError, OSError):
            pass  # watcher gone; the query reply path handles the rest
