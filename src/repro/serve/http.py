"""The service's one HTTP layer: framing, routes, SSE, lifecycle.

No web framework: requests are parsed off an ``asyncio`` stream reader
(request line, headers, ``Content-Length`` body) and every response is
written with ``Connection: close`` — one request per connection keeps
the parser trivial and is plenty for a simulation service whose jobs
run for milliseconds to minutes.  :class:`HttpListener` owns the one
route table; a backend subclasses it and supplies only the handlers —
:class:`HttpServer` (one broker, ``repro serve``) or
:class:`~repro.cluster.router.Router` (``repro cluster``)::

    POST /v1/simulate            admit one job (202; 200 if already done)
    GET  /v1/jobs/<id>           poll one job
    GET  /v1/jobs/<id>/events    Server-Sent Events progress stream
    GET  /healthz                liveness + package version
    GET  /readyz                 200 while admitting, 503 while draining
    GET  /metrics                Prometheus text (obs + backend stats)

Error mapping: a known path with the wrong method is 405, any other
unknown route 404; protocol/validation failures are 400, unknown jobs
404, admission overflow 429 with ``Retry-After``, drain 503.

:func:`serve_until_stopped` maps SIGTERM/SIGINT onto a graceful drain,
:class:`ThreadedHarness` runs a stack on a background thread, and
:func:`open_upstream`/:func:`fetch` are the client side the router
forwards with and the supervisor probes with.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import sys
import threading
from dataclasses import dataclass
from typing import Any, AsyncGenerator, Awaitable, Callable, Mapping, Union

from repro import obs
from repro.common.errors import ReproError
from repro.obs.prometheus import render_prometheus
from repro.serve.broker import (
    AdmissionFull,
    Broker,
    Draining,
    ServeJob,
    UnknownJob,
)
from repro.serve.protocol import SimulateRequest, dumps, error_body, loads

#: Largest accepted request body (a simulate request is < 1 KB).
MAX_BODY_BYTES = 1 << 20
#: Largest accepted header section.
MAX_HEADER_LINES = 64
#: Marker in the startup line that carries the bound port.
ANNOUNCE_MARKER = "listening on http://"

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}
#: The fixed routes' methods (the job routes live under ``/v1/jobs/``).
_ROUTES = {"/healthz": "GET", "/readyz": "GET", "/metrics": "GET",
           "/v1/simulate": "POST"}
_JOBS_PREFIX = "/v1/jobs/"
_EVENTS_SUFFIX = "/events"
_SSE_HEAD = (b"HTTP/1.1 200 OK\r\n"
             b"Content-Type: text/event-stream\r\n"
             b"Cache-Control: no-store\r\n"
             b"Connection: close\r\n\r\n")


class HttpParseError(Exception):
    """A request violated the HTTP framing; carries the error response."""

    def __init__(self, status: int, body: Mapping[str, Any]) -> None:
        super().__init__(body.get("error", {}).get("message", "bad request"))
        self.status = status
        self.body = body


@dataclass(frozen=True)
class Response:
    """One complete ``Connection: close`` response."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Mapping[str, str] | None = None

    @classmethod
    def json(cls, status: int, document: Mapping[str, Any],
             headers: Mapping[str, str] | None = None) -> "Response":
        """A JSON response (the canonical body encoding)."""
        return cls(status, dumps(document), headers=headers)

    @classmethod
    def prometheus(cls, text: str) -> "Response":
        """A ``/metrics`` text exposition."""
        return cls(200, text.encode("utf-8"), "text/plain; version=0.0.4")

    @classmethod
    def retry_later(cls, status: int, kind: str, message: str,
                    retry_after: float) -> "Response":
        """An error that carries ``Retry-After`` in body and header."""
        return cls.json(status,
                        error_body(kind, message, retry_after=retry_after),
                        {"Retry-After": str(max(1, int(retry_after)))})


#: One SSE frame: the event name and its JSON payload.
Frame = tuple[str, Mapping[str, Any]]
#: What a handler returns: a response, or (events route) a frame stream.
Reply = Union[Response, AsyncGenerator[Frame, None]]


async def _read_head(reader: asyncio.StreamReader,
                     timeout: float | None = None
                     ) -> tuple[str, dict[str, str]]:
    """The start line and header fields of one message."""
    async def line() -> str:
        return (await asyncio.wait_for(reader.readline(),
                                       timeout)).decode("latin-1")

    start = (await line()).strip()
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        text = await line()
        if text in ("\r\n", "\n", ""):
            return start, headers
        name, _, value = text.partition(":")
        headers[name.strip().lower()] = value.strip()
    raise HttpParseError(400, error_body(
        "protocol", "too many request headers"))


async def read_http_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request off a stream: ``(method, path, headers, body)``.

    Returns ``None`` for an empty connection (client connected and went
    away) and raises :class:`HttpParseError` on malformed framing.
    """
    request_line, headers = await _read_head(reader)
    if not request_line:
        return None
    parts = request_line.split()
    if len(parts) != 3:
        raise HttpParseError(400, error_body(
            "protocol", f"malformed request line {request_line!r}"))
    method, target, _ = parts

    body = b""
    length = headers.get("content-length")
    if length is not None:
        if not length.isdecimal():
            raise HttpParseError(400, error_body(
                "protocol", f"bad Content-Length {length!r}"))
        size = int(length)
        if size > MAX_BODY_BYTES:
            raise HttpParseError(413, error_body(
                "protocol", f"body of {size} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"))
        body = await reader.readexactly(size)

    return method, target.split("?", 1)[0], headers, body


async def write_response(writer: asyncio.StreamWriter,
                         response: Response) -> None:
    """Write one complete ``Connection: close`` response."""
    reason = _STATUS_TEXT.get(response.status, "Unknown")
    head = [f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            "Connection: close",
            *(f"{name}: {value}"
              for name, value in (response.headers or {}).items())]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
    writer.write(response.body)
    await writer.drain()


async def write_events(writer: asyncio.StreamWriter,
                       frames: AsyncGenerator[Frame, None]) -> None:
    """Write the SSE head, then every frame until the stream ends."""
    try:
        # Start the stream before writing: only a started generator runs
        # its cleanup (unsubscribe, close upstream) on aclose().
        frame = await anext(frames, None)
        writer.write(_SSE_HEAD)
        while frame is not None:
            name, payload = frame
            data = json.dumps(payload, sort_keys=True)
            writer.write(f"event: {name}\ndata: {data}\n\n".encode("utf-8"))
            await writer.drain()
            frame = await anext(frames, None)
    finally:
        await frames.aclose()


class HttpListener:
    """The asyncio listener: one handler coroutine per connection.

    Subclasses implement the handlers ``healthz()``, ``readyz()``,
    ``metrics()``, ``simulate(body)``, ``job(job_id)`` and
    ``events(job_id)``, each returning a :data:`Reply`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        """Bind and start serving; ``self.port`` holds the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def on_request(self) -> None:
        """Called once per parsed request, before routing."""

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            reply = await self._reply(reader)
            if isinstance(reply, Response):
                await write_response(writer, reply)
            elif reply is not None:
                await write_events(writer, reply)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as error:  # defensive: a handler bug is a 500
            with contextlib.suppress(ConnectionError):
                await write_response(writer, Response.json(500, error_body(
                    "internal", f"unhandled server error: {error}")))
        finally:
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    async def _reply(self, reader: asyncio.StreamReader) -> Reply | None:
        try:
            parsed = await read_http_request(reader)
        except HttpParseError as error:
            return Response.json(error.status, error.body)
        if parsed is None:
            return None
        method, path, _headers, body = parsed
        self.on_request()
        if method == "GET" and path.startswith(_JOBS_PREFIX):
            job_id = path[len(_JOBS_PREFIX):]
            if job_id.endswith(_EVENTS_SUFFIX):
                return await self.events(job_id[:-len(_EVENTS_SUFFIX)])
            return await self.job(job_id)
        if _ROUTES.get(path) == method:
            if method == "POST":
                return await self.simulate(body)
            # The GET routes' handlers are named after their paths.
            return await getattr(self, path[1:])()
        status = 405 if path in _ROUTES else 404
        return Response.json(status, error_body(
            "routing", f"no route for {method} {path}"))


class HttpServer(HttpListener):
    """The broker backend: one :class:`Broker` behind the route table."""

    def __init__(self, broker: Broker, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        super().__init__(host, port)
        self.broker = broker

    async def healthz(self) -> Response:
        import repro

        return Response.json(200, {
            "status": "ok",
            "version": repro.__version__,
            "draining": self.broker.draining,
            "pending_jobs": self.broker.metrics()["gauges"][
                "serve.pending_jobs"],
        })

    async def readyz(self) -> Response:
        if self.broker.draining:
            return Response.json(503, error_body(
                "draining", "server is draining"))
        return Response.json(200, {"status": "ready"})

    async def metrics(self) -> Response:
        stats = self.broker.metrics()
        text = render_prometheus(
            obs.snapshot(),
            counters=stats["counters"],
            gauges=stats["gauges"],
        )
        return Response.prometheus(text)

    async def simulate(self, body: bytes) -> Response:
        try:
            request = SimulateRequest.from_dict(loads(body))
            job, deduplicated = self.broker.submit(request)
        except AdmissionFull as error:
            return Response.retry_later(429, "admission-full", str(error),
                                        error.retry_after)
        except Draining as error:
            return Response.json(503, error_body("draining", str(error)))
        except ReproError as error:
            # ProtocolError, unknown workload/prefetcher, bad config.
            return Response.json(400, error_body(
                type(error).__name__, str(error)))
        status = 200 if job.status.terminal else 202
        return Response.json(status,
                             job.view(deduplicated=deduplicated).to_dict())

    async def job(self, job_id: str) -> Response:
        try:
            job = self.broker.job(job_id)
        except UnknownJob as error:
            return Response.json(404, error_body("unknown-job", str(error)))
        return Response.json(200, job.view().to_dict())

    async def events(self, job_id: str) -> Reply:
        try:
            job = self.broker.job(job_id)
        except UnknownJob as error:
            return Response.json(404, error_body("unknown-job", str(error)))
        return self._frames(job)

    async def _frames(self, job: ServeJob) -> AsyncGenerator[Frame, None]:
        """Replay the job's history, then follow it live to terminal."""
        queue = self.broker.subscribe(job)
        try:
            for event in list(job.events):
                yield self._frame(job, event)
            if job.status.terminal:
                return
            while True:
                event = await queue.get()
                yield self._frame(job, event)
                if event.get("event") == "terminal":
                    return
        finally:
            self.broker.unsubscribe(job, queue)

    @staticmethod
    def _frame(job: ServeJob, event: Mapping[str, Any]) -> Frame:
        payload = dict(event)
        name = str(event.get("event", "message"))
        if name == "terminal":
            payload["job"] = job.view().to_dict()
        return name, payload


# -- the client side: one upstream exchange ---------------------------------

async def open_upstream(endpoint: tuple[str, int], method: str, path: str,
                        body: bytes | None = None, *, timeout: float
                        ) -> tuple[int, dict[str, str],
                                   asyncio.StreamReader,
                                   asyncio.StreamWriter]:
    """Send one request; read back ``(status, headers, reader, writer)``.

    Each step is bounded by ``timeout`` and the caller closes ``writer``.
    An unreachable peer, or one that does not answer HTTP, raises
    :class:`OSError` or a timeout.
    """
    host, port = endpoint
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout)
    try:
        head = [f"{method} {path} HTTP/1.1",
                f"Host: {host}:{port}",
                "Connection: close"]
        if body:
            head += ["Content-Type: application/json",
                     f"Content-Length: {len(body)}"]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + (body or b""))
        await writer.drain()
        status_line, headers = await _read_head(reader, timeout)
        parts = status_line.split()
        if len(parts) < 2 or not parts[1].isdigit():
            raise OSError(f"peer sent a malformed status line "
                          f"{status_line!r}")
    except BaseException:
        writer.close()
        raise
    return int(parts[1]), headers, reader, writer


async def fetch(endpoint: tuple[str, int], method: str, path: str,
                body: bytes | None = None, *, timeout: float
                ) -> tuple[int, dict[str, str], bytes]:
    """One whole round trip: ``(status, headers, body)``."""
    status, headers, reader, writer = await open_upstream(
        endpoint, method, path, body, timeout=timeout)
    try:
        return status, headers, await asyncio.wait_for(reader.read(),
                                                       timeout)
    finally:
        writer.close()


async def read_events(reader: asyncio.StreamReader
                      ) -> AsyncGenerator[Frame, None]:
    """Parse an SSE body into frames until the peer closes."""
    name = "message"
    while line := await reader.readline():
        text = line.decode("utf-8").rstrip("\n")
        if text.startswith("event: "):
            name = text[len("event: "):]
        elif text.startswith("data: "):
            yield name, json.loads(text[len("data: "):])
            name = "message"


# -- lifecycle ---------------------------------------------------------------

def announced_port(text: str) -> int | None:
    """The port named by the first startup line in ``text``, if any."""
    for line in text.splitlines():
        if ANNOUNCE_MARKER in line:
            address = line.split(ANNOUNCE_MARKER, 1)[1].split()[0]
            with contextlib.suppress(ValueError):
                return int(address.rsplit(":", 1)[1])
    return None


async def serve_until_stopped(
    listener: HttpListener,
    *,
    program: str,
    summary: str,
    drain_note: str,
    drain: Callable[[], Awaitable[None]],
    announce: Callable[[str], Any] = print,
    ready_event: "threading.Event | None" = None,
    stop_event: "asyncio.Event | None" = None,
) -> int:
    """Bind ``listener``, run until SIGTERM/SIGINT, then drain.

    Returns the exit code (0 after a clean drain).  ``announce`` gets
    the startup line (bound port after :data:`ANNOUNCE_MARKER`) and the
    drain lines; ``ready_event`` (a *threading* event) is set once the
    port is bound; ``stop_event`` stands in for signals where handlers
    cannot be installed (background threads).  ``drain`` runs while
    the listener still answers, then the listener stops.
    """
    await listener.start()
    if stop_event is None:
        stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop_event.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):
            # Non-main thread or unsupported platform: stop_event only.
            pass

    announce(f"{program}: {ANNOUNCE_MARKER}{listener.host}:{listener.port} "
             f"({summary})")
    if ready_event is not None:
        ready_event.set()
    try:
        await stop_event.wait()
        announce(f"{program}: draining ({drain_note})")
        await drain()
        await listener.stop()
        announce(f"{program}: drained cleanly")
        return 0
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)


async def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8321,
    announce=print,
    ready_event: "threading.Event | None" = None,
    stop_event: "asyncio.Event | None" = None,
    **broker_kwargs: Any,
) -> int:
    """Run broker + HTTP server until SIGTERM/SIGINT, then drain.

    :func:`serve_until_stopped` bound to one :class:`Broker`, with
    ``repro.obs`` enabled for the server's lifetime.
    """
    obs_was_enabled = obs.enabled()
    obs.enable()
    try:
        broker = Broker(**broker_kwargs)
        await broker.start()
        shard_suffix = (f", shard={broker.shard_name}"
                        if broker.shard_name != "broker" else "")
        return await serve_until_stopped(
            HttpServer(broker, host, port), program="repro serve",
            summary=(f"workers={broker.workers}, "
                     f"max_pending={broker.max_pending}{shard_suffix}"),
            drain_note="finishing in-flight jobs", drain=broker.drain,
            announce=announce, ready_event=ready_event,
            stop_event=stop_event)
    finally:
        if not obs_was_enabled:
            obs.disable()


class ThreadedHarness:
    """One ``run_*`` entrypoint on a background thread (tests, loadgen).

    Subclasses name the entrypoint; enter the context, read ``.port``
    for the bound port, and exit for the same graceful drain as SIGTERM
    (exit code in ``.exit_code``).
    """

    #: The ``run_*`` coroutine function this harness drives.
    entrypoint: Callable[..., Awaitable[int]]
    start_timeout = 30.0
    stop_timeout = 60.0

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 **kwargs: Any) -> None:
        self.host = host
        self.port = port
        self.exit_code: int | None = None
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(
            target=self._run, name=type(self).__name__, daemon=True)

    def _run(self) -> None:
        async def main() -> int:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            return await self.entrypoint(
                host=self.host, port=self.port,
                announce=self._capture_announce, ready_event=self._ready,
                stop_event=self._stop, **self._kwargs)

        self.exit_code = asyncio.run(main())

    def _capture_announce(self, line: str) -> None:
        self.port = announced_port(line) or self.port

    def start(self, timeout: float | None = None) -> "ThreadedHarness":
        self._thread.start()
        if not self._ready.wait(timeout or self.start_timeout):
            raise ReproError(f"{type(self).__name__} failed to start")
        return self

    def stop(self, timeout: float | None = None) -> int:
        """Drain gracefully and join the background thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout or self.stop_timeout)
        if self._thread.is_alive():
            raise ReproError(f"{type(self).__name__} did not drain in time")
        return self.exit_code if self.exit_code is not None else 1

    def __enter__(self) -> "ThreadedHarness":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class ThreadedServer(ThreadedHarness):
    """The full serve stack on a background thread.

    Usage::

        with ThreadedServer(workers=1, cache_dir=tmp) as server:
            client = ServeClient(port=server.port)
            ...
    """

    entrypoint = staticmethod(run_server)


def run_main(main: Awaitable[int], program: str) -> int:
    """Run a ``run_*`` coroutine as a CLI command's exit code."""
    try:
        return asyncio.run(main)
    except KeyboardInterrupt:  # SIGINT before the handler was installed
        print(f"{program}: interrupted before drain", file=sys.stderr)
        return 130


def main_serve(args: Any) -> int:
    """``repro serve`` entry point (driven by :mod:`repro.cli`)."""
    import os

    workers = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    return run_main(run_server(
        host=args.host,
        port=args.port,
        workers=workers,
        cache_dir=args.cache_dir,
        max_pending=args.max_pending,
        batch_window=args.batch_window,
        batch_max=args.batch_max,
        task_timeout=args.timeout,
        shard_name=getattr(args, "shard_name", "broker"),
        recover=not getattr(args, "no_recover", False),
    ), "repro serve")
