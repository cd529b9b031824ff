"""The HTTP front door: a stdlib-only asyncio server over the job manager.

API surface (all JSON; see docs/SERVICE.md for the full contract)::

    POST   /v1/runs            submit a spec     -> 202 fresh, 200 dedup,
                                                    429 backpressure,
                                                    503 draining, 400 bad
    GET    /v1/runs/{id}        job record        -> 200 / 404
    GET    /v1/runs/{id}/trace  stream JSONL      -> 200 (chunked, live)
    GET    /v1/runs/{id}/report final report      -> 200 / 409 not done
    DELETE /v1/runs/{id}        cancel            -> 200 / 404
    GET    /v1/stats            counters + queue  -> 200
    GET    /healthz             liveness/drain    -> 200 / 503

The server is deliberately minimal — request line + headers +
Content-Length body, one response, ``Connection: close`` — because the
interesting engineering lives behind it (admission control, supervision,
the run store).  Malformed requests get a 400, unknown paths a 404,
handler bugs a 500 with the error class name; the connection task never
leaks an exception into the event loop.

**Live traces.**  ``GET /v1/runs/{id}/trace`` streams the job's JSONL
trace file as it grows (the worker flushes per event) and closes when
the job reaches a terminal state; ``?follow=0`` returns just the current
contents.  If a retry restarts the trace file, the stream restarts from
the new beginning — the replayed prefix is identical up to the
checkpoint by the resume-equality guarantee.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import signal
from typing import Optional, Tuple

from ..obs.events import TraceEmitter
from ..obs.metrics import MetricsRegistry
from .jobs import AdmissionError, JobManager, ServiceLimits
from .spec import SpecError, SubmissionSpec
from .store import RunStore

__all__ = ["SDEService", "serve_main"]

#: request-head size cap (request line + headers)
MAX_HEAD_BYTES = 16 * 1024
#: request-body size cap (submission specs are small)
MAX_BODY_BYTES = 256 * 1024
#: seconds allowed to read one request head/body
READ_TIMEOUT = 10.0

_RUN_PATH = re.compile(r"^/v1/runs/([A-Za-z0-9-]+)(/trace|/report)?$")

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class SDEService:
    """Store + job manager + HTTP server, wired for one data dir."""

    def __init__(
        self,
        data_dir,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: Optional[ServiceLimits] = None,
        trace: Optional[TraceEmitter] = None,
    ) -> None:
        self.host = host
        self.port = port  # 0 = ephemeral; real port filled in by start()
        self.store = RunStore(data_dir)
        self.metrics = MetricsRegistry()
        self.trace = trace
        self.manager = JobManager(
            self.store, limits=limits, metrics=self.metrics, trace=trace
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Recover + schedule + listen.  Fills in ``self.port``."""
        await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._install_signal_handlers()

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes (signal or explicit)."""
        await self._stopped.wait()

    async def run(self) -> None:
        await self.start()
        await self.serve_forever()

    async def shutdown(self) -> None:
        """Graceful drain: stop admitting, park in-flight work, stop."""
        await self.manager.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._stopped.set()

    def _install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain.

        Only possible when the loop runs in the main thread (the
        ``repro serve`` path); embedded/test loops in worker threads
        fall back to calling :meth:`shutdown` directly.
        """
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.shutdown())
                )
            except (ValueError, NotImplementedError, RuntimeError):
                return

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                await _respond_json(
                    writer, 400, {"error": "malformed request"}
                )
                return
            method, path, headers, body = request
            await self._route(writer, method, path, headers, body)
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
        ):
            pass  # client went away or dawdled; nothing to answer
        except Exception as exc:  # noqa: BLE001 - last-ditch 500
            try:
                await _respond_json(
                    writer,
                    500,
                    {"error": "internal error", "type": type(exc).__name__},
                )
            except Exception:  # noqa: BLE001
                pass
        finally:
            # Half-close first: the client reads EOF as soon as the reply
            # is flushed, even while a forked job worker still holds a
            # copy of this socket (closing our descriptor would not end
            # the connection then).
            with contextlib.suppress(Exception):
                writer.write_eof()
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(
        self, reader
    ) -> Optional[Tuple[str, str, dict, bytes]]:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=READ_TIMEOUT
            )
        except asyncio.LimitOverrunError:
            return None
        if len(head) > MAX_HEAD_BYTES:
            return None
        try:
            text = head.decode("latin-1")
            request_line, _, header_block = text.partition("\r\n")
            method, path, _version = request_line.split(" ", 2)
        except ValueError:
            return None
        headers = {}
        for line in header_block.split("\r\n"):
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            return None
        if length < 0 or length > MAX_BODY_BYTES:
            return None
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=READ_TIMEOUT
            )
        return method.upper(), path, headers, body

    # -- routing ---------------------------------------------------------------

    async def _route(self, writer, method, path, headers, body) -> None:
        path, _, query = path.partition("?")
        if path == "/healthz":
            draining = self.manager.draining
            await _respond_json(
                writer,
                503 if draining else 200,
                {"status": "draining" if draining else "ok"},
            )
            return
        if path == "/v1/stats":
            await _respond_json(writer, 200, self._stats())
            return
        if path == "/v1/runs":
            if method != "POST":
                await _respond_json(
                    writer, 405, {"error": "POST /v1/runs to submit"}
                )
                return
            await self._submit(writer, headers, body)
            return
        match = _RUN_PATH.match(path)
        if match is None:
            await _respond_json(writer, 404, {"error": f"no route {path}"})
            return
        job_id, tail = match.group(1), match.group(2)
        record = self.store.load(job_id)
        if record is None:
            await _respond_json(
                writer, 404, {"error": f"unknown run {job_id}"}
            )
            return
        if tail is None:
            if method == "DELETE":
                cancelled = self.manager.cancel(job_id) or record
                await _respond_json(writer, 200, cancelled.as_dict())
            elif method == "GET":
                await _respond_json(writer, 200, record.as_dict())
            else:
                await _respond_json(writer, 405, {"error": "GET or DELETE"})
            return
        if method != "GET":
            await _respond_json(writer, 405, {"error": "GET only"})
            return
        if tail == "/report":
            await self._report(writer, job_id)
            return
        follow = "follow=0" not in query
        await self._stream_trace(writer, job_id, follow)

    async def _submit(self, writer, headers, body) -> None:
        try:
            data = json.loads(body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError):
            await _respond_json(writer, 400, {"error": "body is not JSON"})
            return
        client = headers.get("x-client-id", "anon")
        try:
            spec = SubmissionSpec.from_dict(data).validated_against_registries()
        except SpecError as exc:
            await _respond_json(writer, 400, {"error": str(exc)})
            return
        try:
            record, disposition = self.manager.submit(spec, client=client)
        except AdmissionError as exc:
            status = 503 if exc.reason == "draining" else 429
            await _respond_json(
                writer,
                status,
                {
                    "error": exc.reason,
                    "retry_after_seconds": exc.retry_after_seconds,
                },
                extra_headers={
                    "Retry-After": str(int(exc.retry_after_seconds) or 1)
                },
            )
            return
        payload = record.as_dict()
        payload["deduplicated"] = disposition != "fresh"
        payload["disposition"] = disposition
        await _respond_json(
            writer, 202 if disposition == "fresh" else 200, payload
        )

    async def _report(self, writer, job_id: str) -> None:
        record = self.store.load(job_id)
        if record.state == "done":
            report = self.store.load_report(job_id)
            if report is not None:
                await _respond_json(writer, 200, report)
                return
            await _respond_json(
                writer, 500, {"error": "report missing for done job"}
            )
            return
        # Explicitly-partial answer: terminal-but-not-done jobs expose
        # their typed failure; live jobs say "not yet".
        await _respond_json(
            writer,
            409,
            {
                "error": f"run is {record.state}",
                "state": record.state,
                "failure": record.failure,
            },
        )

    async def _stream_trace(self, writer, job_id: str, follow: bool) -> None:
        path = self.store.trace_path(job_id)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        offset = 0
        while True:
            offset = await self._stream_tail(writer, path, offset)
            record = self.store.load(job_id)
            if not follow or record is None or record.terminal:
                # flush whatever landed between the read and the check
                await self._stream_tail(writer, path, offset)
                return
            await asyncio.sleep(0.05)

    async def _stream_tail(self, writer, path: str, offset: int) -> int:
        try:
            size = os.path.getsize(path)
        except OSError:
            return offset
        if size < offset:
            offset = 0  # retry truncated the file; restart the stream
        if size == offset:
            return offset
        with open(path, "rb") as handle:
            handle.seek(offset)
            chunk = handle.read(size - offset)
        writer.write(chunk)
        await writer.drain()
        return size

    # -- stats -----------------------------------------------------------------

    def _stats(self) -> dict:
        return {
            "service": self.manager.snapshot(),
            "jobs": self.store.stats(),
            "counters": self.metrics.snapshot()["counters"],
        }


def serve_main(
    data_dir,
    host: str = "127.0.0.1",
    port: int = 8080,
    limits: Optional[ServiceLimits] = None,
    announce=print,
) -> None:
    """Blocking entry point for ``repro serve``: run until SIGTERM/SIGINT.

    On a signal the service drains — stops admitting, parks in-flight
    jobs with their checkpoints — and this function returns; a later
    boot on the same data dir resumes the parked work.
    """

    async def _main() -> None:
        service = SDEService(data_dir, host=host, port=port, limits=limits)
        await service.start()
        announce(
            f"sde service listening on http://{service.host}:{service.port}"
            f" (data dir {service.store.data_dir})"
        )
        await service.serve_forever()
        announce("sde service drained; parked jobs resume on next boot")

    asyncio.run(_main())


async def _respond_json(
    writer, status: int, payload: dict, extra_headers: Optional[dict] = None
) -> None:
    body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
    reason = _REASONS.get(status, "Unknown")
    head_lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        head_lines.append(f"{name}: {value}")
    head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    await writer.drain()
