"""The asyncio HTTP/1.1 face of :class:`CompileService`.

A deliberately small, dependency-free HTTP layer: request line +
headers + ``Content-Length`` body in, canonical-JSON response out,
keep-alive by default. It exists to put ``POST /compile`` on a socket,
not to be a general web server — chunked bodies, pipelining beyond
keep-alive and TLS are all out of scope (and rejected cleanly).

Routes::

    POST /compile      -> compile one kernel request (coalesced)
    POST /stream       -> run one traffic-scenario request (coalesced)
    GET  /cache/stats  -> the shared TieredCache's counters
    GET  /healthz      -> liveness + queue/in-flight depths
    GET  /metrics      -> the obs metrics registry snapshot (JSON)

Status mapping: 400 malformed request, 404 unknown path, 405 wrong
method, 413 oversized body, 422 unmappable kernel, 429 queue full
(with ``Retry-After``), 431 too many header lines, 503 draining.

:class:`BackgroundServer` runs the whole stack — event loop, service,
listener — on a daemon thread, which is how the tests, the load-test
self-host mode and the CI smoke boot a real daemon over real sockets
inside one process.
"""

from __future__ import annotations

import asyncio
import json
import threading
from http import HTTPStatus

from repro import obs
from repro.serve.service import (
    CompileRequest,
    CompileService,
    QueueFullError,
    RequestError,
    ServiceClosedError,
    StreamRequest,
    canonical_json,
)

#: Largest accepted request body, bytes (a compile request is ~200 B).
MAX_BODY_BYTES = 1 << 20

#: Most header lines accepted in one request (a client sends ~5).
MAX_HEADER_LINES = 100

#: Server identity header.
SERVER_NAME = "repro-serve/1"


def _reason(status: int) -> str:
    try:
        return HTTPStatus(status).phrase
    except ValueError:
        return "Unknown"


class CompileServer:
    """One listening socket in front of one :class:`CompileService`."""

    def __init__(self, service: CompileService,
                 host: str = "127.0.0.1", port: int = 8763):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Start the service workers and bind the listener.

        ``port=0`` binds an ephemeral port; ``self.port`` is updated to
        the actual one so callers can address the server.
        """
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Stop accepting connections, then drain the service.

        Connections still writing a drained response get a short grace
        period; idle keep-alive connections (parked in ``readline``)
        are then cancelled.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.shutdown()
        if self._connections:
            _, pending = await asyncio.wait(set(self._connections),
                                            timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _handle_one(self, reader, writer) -> bool:
        request_line = await reader.readline()
        if not request_line:
            return False
        try:
            method, path, version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            await self._respond(writer, 400,
                               {"error": "malformed request line"},
                               close=True)
            return False
        headers = {}
        lines = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            lines += 1
            if lines > MAX_HEADER_LINES:
                await self._respond(writer, 431,
                                   {"error": "too many header lines"},
                                   close=True)
                return False
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                length = int(length)
            except ValueError:
                length = -1
            if length < 0:
                await self._respond(writer, 400,
                                   {"error": "bad Content-Length"},
                                   close=True)
                return False
            if length > MAX_BODY_BYTES:
                await self._respond(writer, 413,
                                   {"error": "request body too large"},
                                   close=True)
                return False
            body = await reader.readexactly(length)
        elif method == "POST":
            await self._respond(
                writer, 411,
                {"error": "POST requires Content-Length"}, close=True)
            return False
        keep_alive = (headers.get("connection", "").lower() != "close"
                      and version != "HTTP/1.0")
        status, payload, extra = await self._route(method, path, body)
        await self._respond(writer, status, payload, extra_headers=extra,
                           close=not keep_alive)
        return keep_alive

    async def _respond(self, writer, status: int, payload: dict, *,
                       extra_headers: dict | None = None,
                       close: bool = False) -> None:
        body = (canonical_json(payload) + "\n").encode("utf-8")
        headers = [
            f"HTTP/1.1 {status} {_reason(status)}",
            f"Server: {SERVER_NAME}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    # -- routing ------------------------------------------------------------

    async def _route(self, method: str, path: str,
                     body: bytes) -> tuple[int, dict, dict]:
        path = path.split("?", 1)[0]
        if path in ("/compile", "/stream"):
            if method != "POST":
                return 405, {"error": f"{path} requires POST"}, {}
            return await self._handle_work(path, body)
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "/healthz requires GET"}, {}
            health = self.service.health()
            return (200 if health["status"] == "ok" else 503), health, {}
        if path == "/cache/stats":
            if method != "GET":
                return 405, {"error": "/cache/stats requires GET"}, {}
            return 200, self.service.cache_stats(), {}
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "/metrics requires GET"}, {}
            return 200, obs.metrics().snapshot(), {}
        return 404, {"error": f"no route for {path}"}, {}

    async def _handle_work(self, path: str,
                           body: bytes) -> tuple[int, dict, dict]:
        try:
            decoded = json.loads(body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "request body is not valid JSON"}, {}
        try:
            request = (CompileRequest.from_dict(decoded)
                       if path == "/compile"
                       else StreamRequest.from_dict(decoded))
            future = self.service.submit(request)
        except RequestError as exc:
            return 400, {"error": str(exc)}, {}
        except QueueFullError as exc:
            return (429, {"error": str(exc)},
                    {"Retry-After": f"{exc.retry_after_s:g}"})
        except ServiceClosedError as exc:
            return 503, {"error": str(exc)}, {}
        outcome = await asyncio.shield(future)
        return outcome["status"], outcome["body"], {}


class BackgroundServer:
    """A real daemon on a daemon thread, for in-process callers.

    Spins up an event loop + :class:`CompileServer` on its own thread
    and blocks until the socket is bound; :meth:`stop` drains the
    service and joins the thread. Tests, ``repro loadtest --self-host``
    and the CI smoke all go through this.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 **service_kwargs):
        self.service = CompileService(**service_kwargs)
        self.server = CompileServer(self.service, host=host, port=port)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_requested: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def url(self) -> str:
        return self.server.url

    def start(self, timeout_s: float = 30.0) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise RuntimeError("BackgroundServer failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                "BackgroundServer startup failed"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def _main():
            self._stop_requested = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            # The listener accepts in the background; the main task
            # just waits for stop() and then drains gracefully, so the
            # loop only exits once every accepted request is resolved.
            await self._stop_requested.wait()
            await self.server.shutdown()
            # Idle keep-alive connections park in readline(); cancel
            # their handler tasks so the loop can close quietly.
            others = [t for t in asyncio.all_tasks()
                      if t is not asyncio.current_task()]
            for task in others:
                task.cancel()
            if others:
                await asyncio.gather(*others, return_exceptions=True)

        try:
            self._loop.run_until_complete(_main())
        finally:
            self._loop.close()

    def stop(self, timeout_s: float = 60.0) -> None:
        """Graceful shutdown: drain in-flight work, then join."""
        if self._loop is None or self._thread is None:
            return
        if self._startup_error is None:
            self._loop.call_soon_threadsafe(self._stop_requested.set)
        self._thread.join(timeout_s)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
