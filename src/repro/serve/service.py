"""The asyncio preview-table service: sockets, admission, dispatch.

:class:`PreviewService` turns a set of :class:`~repro.serve.EngineHost`\\ s
into a multi-client JSON-line server (``asyncio.start_server``; no
third-party dependencies).  Its responsibilities are exactly the ones
the hosts don't have:

* **framing** — one request per line, one response per line, in order,
  per connection (see :mod:`repro.serve.protocol`).  Malformed frames
  get a structured ``bad-frame`` error and the connection stays usable;
  oversized frames get an ``oversized`` error and the connection is
  closed (the stream can no longer be framed);
* **admission control** — at most ``max_pending`` requests in flight
  service-wide; excess requests are rejected *immediately* with an
  ``overloaded`` error instead of queueing without bound.  Every
  admitted request runs under a per-request timeout and answers
  ``timeout`` when it expires — a client never hangs on a silent
  server.  (A timed-out computation keeps running on its host's worker
  thread and still populates the engine memo: the *next* ask is a hit.)
* **error mapping** — library exceptions become wire codes
  (``infeasible``, ``invalid-query``, ...); unexpected ones become
  ``internal`` without killing the connection;
* **service-level ops** — ``health`` and ``stats`` aggregate across
  hosts.

Use :func:`run_in_background` to drive a service from synchronous code
(tests, benchmarks, notebooks): it runs the event loop in a daemon
thread and returns a handle with the bound port and a ``stop()``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
from typing import Any, Dict, Iterable, Mapping, Optional

from ..exceptions import (
    InfeasiblePreviewError,
    ProtocolError,
    ReproError,
    ServeError,
)
from .host import EngineHost
from .protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
)

logger = logging.getLogger(__name__)


class LineService:
    """Framing, admission and error mapping over JSON-line TCP.

    The transport-level half of a service: everything between the
    socket and :meth:`_dispatch` — the per-connection line loop,
    admission control, per-request timeouts, the exception-to-wire-code
    mapping, and lifecycle.  Subclasses supply the actual request
    handling (:class:`PreviewService` dispatches to dataset hosts; the
    replication router in :mod:`repro.replicate` forwards to backends).

    Two optional hooks specialize the line loop without re-implementing
    it: :meth:`_fast_response` may answer a request synchronously on
    the event loop (the warm response-cache path), and an op listed in
    :attr:`STREAMING_OPS` upgrades its connection to a server-push
    stream via :meth:`_open_stream` (the replication ``subscribe``).

    Parameters
    ----------
    max_pending:
        Admission-control bound on concurrently admitted requests
        across the whole service; request number ``max_pending + 1``
        is answered ``overloaded`` immediately.
    request_timeout:
        Per-request wall-clock budget in seconds; expiry answers
        ``timeout``.  None disables the timeout.
    max_frame:
        Cap on one request line, bytes.
    """

    #: Ops that upgrade their connection to a server-push stream
    #: instead of the request/response loop (see :meth:`_open_stream`).
    STREAMING_OPS: tuple = ()

    def __init__(
        self,
        max_pending: int = 64,
        request_timeout: Optional[float] = 30.0,
        max_frame: int = MAX_FRAME_BYTES,
    ) -> None:
        self.max_pending = max_pending
        self.request_timeout = request_timeout
        self.max_frame = max_frame
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[tuple] = None
        self._inflight = 0
        self._connections: set = set()
        self._counters = {
            "requests": 0,
            "ok": 0,
            "errors": 0,
            "rejected": 0,
            "timeouts": 0,
            "connections": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting connections (port 0 = ephemeral).

        The bound ``(host, port)`` lands in :attr:`address`.
        """
        # The stream limit bounds readline() buffering; +2 so a frame of
        # exactly max_frame bytes (plus its newline) still parses.
        self._server = await asyncio.start_server(
            self._on_connection, host, port, limit=self.max_frame + 2
        )
        self.address = self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        """Serve until cancelled (:meth:`start` must have been awaited)."""
        if self._server is None:
            raise ServeError("PreviewService.start() has not been awaited")
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting and drop every open connection.

        The handlers are cancelled before the server is awaited: since
        Python 3.12 ``Server.wait_closed`` waits for every connection to
        close, so awaiting it first would hang on any idle client.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if server is not None:
            await server.wait_closed()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._counters["connections"] += 1
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            # Only aclose() cancels connection handlers; returning
            # normally (instead of re-raising into the streams
            # done-callback, which would log it) is the clean exit.
            pass
        except Exception:  # pragma: no cover - defensive
            # Never absorb an unexpected crash: log it, then let it
            # propagate into the task (finally still closes the writer;
            # aclose() gathers connection tasks with return_exceptions).
            logger.exception("connection handler crashed")
            raise
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # readline overran the stream limit: the frame is too
                # large and the stream can no longer be split into
                # lines — answer once, then close.
                await self._reply(
                    writer,
                    error_response(
                        None,
                        "oversized",
                        f"request frame exceeds {self.max_frame} bytes",
                    ),
                )
                return
            if not line:
                return  # EOF
            if line.strip() == b"":
                continue  # blank keep-alive line
            if len(line) > self.max_frame:
                # The stream limit admits up to max_frame + 2 bytes, so
                # a line can land here marginally over the cap; the
                # contract is the same as the overrun branch above —
                # answer once, then close.
                await self._reply(
                    writer,
                    error_response(
                        None,
                        "oversized",
                        f"request frame exceeds {self.max_frame} bytes",
                    ),
                )
                return
            fast = self._fast_response(line)
            if fast is not None:
                writer.write(fast)
                await writer.drain()
                continue
            stream = self._streaming_request(line)
            if stream is not None:
                # The connection is upgraded: the stream owns it until
                # it ends, and the line loop never resumes (one stream
                # per connection, trailing requests are undefined).
                await self._open_stream(stream, writer)
                return
            response = await self._respond_to_line(line)
            await self._reply(writer, response)

    async def _reply(self, writer: asyncio.StreamWriter, response: Dict[str, Any]) -> None:
        writer.write(encode_frame(response))
        await writer.drain()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _fast_response(self, line: bytes) -> Optional[bytes]:
        """The synchronous warm path: a fully-encoded response, or None.

        The default has no cache to consult; subclasses with one
        (:class:`PreviewService`) answer warm requests entirely on the
        event loop.  Returning None is never an error — the full path
        re-parses the line and produces the proper response.
        """
        return None

    def _streaming_request(self, line: bytes) -> Optional[Any]:
        """Parse ``line`` iff it opens a stream (op in STREAMING_OPS).

        Malformed lines return None so the normal request path reports
        the error with the standard codes.
        """
        if not self.STREAMING_OPS:
            return None
        try:
            request = parse_request(decode_frame(line, self.max_frame))
        except ProtocolError:
            return None
        return request if request.op in self.STREAMING_OPS else None

    async def _open_stream(
        self, request: Any, writer: asyncio.StreamWriter
    ) -> None:
        """Serve a streaming op until it ends (subclass hook).

        Only reached when :attr:`STREAMING_OPS` names the request's op;
        the base class never streams.
        """
        raise NotImplementedError  # pragma: no cover - subclass hook

    async def _respond_to_line(self, line: bytes) -> Dict[str, Any]:
        """One request line to one response dict (never raises)."""
        self._counters["requests"] += 1
        request_id = None
        try:
            payload = decode_frame(line, self.max_frame)
            request_id = payload.get("id")  # echoed even on parse errors
            request = parse_request(payload)
        except ProtocolError as exc:
            self._counters["errors"] += 1
            return error_response(request_id, exc.code, str(exc))
        if self._inflight >= self.max_pending:
            self._counters["rejected"] += 1
            self._counters["errors"] += 1
            return error_response(
                request.id,
                "overloaded",
                f"service is at its admission limit ({self.max_pending} in flight)",
            )
        self._inflight += 1
        try:
            result = await asyncio.wait_for(
                self._guarded(request), self.request_timeout
            )
        except asyncio.TimeoutError:
            self._counters["timeouts"] += 1
            self._counters["errors"] += 1
            return error_response(
                request.id,
                "timeout",
                f"request exceeded the {self.request_timeout}s budget",
            )
        except ProtocolError as exc:
            self._counters["errors"] += 1
            return error_response(request.id, exc.code, str(exc))
        except InfeasiblePreviewError as exc:
            self._counters["errors"] += 1
            return error_response(request.id, "infeasible", str(exc))
        except ReproError as exc:
            self._counters["errors"] += 1
            return error_response(request.id, "invalid-query", str(exc))
        finally:
            self._inflight -= 1
        self._counters["ok"] += 1
        return ok_response(request.id, request.op, result)

    async def _guarded(self, request) -> Dict[str, Any]:
        """Dispatch a request, wrapping unexpected crashes as structured errors.

        Anything that is not already a :class:`ReproError` is logged and
        re-raised as ``ProtocolError("internal", ...)``, which the caller
        maps to the same ``internal`` wire code a crash always produced —
        but now through the documented error hierarchy instead of a
        swallowed stack trace.  Cancellation (``BaseException``) passes
        through untouched so request timeouts keep working.
        """
        try:
            return await self._dispatch(request)
        except ReproError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("request failed unexpectedly")
            raise ProtocolError(
                "internal", f"{type(exc).__name__}: {exc}"
            ) from exc

    async def _dispatch(self, request) -> Dict[str, Any]:
        """One validated request to one result dict (subclass hook).

        Raise :class:`ProtocolError` (or any :class:`ReproError`) to
        answer a structured error; the caller maps the codes.
        """
        raise NotImplementedError  # pragma: no cover - subclass hook

    def stats(self) -> Dict[str, int]:
        """Service-level counters (requests, errors, rejections, ...)."""
        counters = dict(self._counters)
        counters["active_connections"] = len(self._connections)
        counters["max_pending"] = self.max_pending
        return counters


class PreviewService(LineService):
    """A multi-dataset preview server over JSON-line TCP.

    Parameters
    ----------
    hosts:
        ``name -> EngineHost`` for every served dataset (or an iterable
        of hosts, keyed by their names).
    max_pending, request_timeout, max_frame:
        See :class:`LineService`.

    Raises
    ------
    ServeError
        When constructed with no hosts or duplicate dataset names.
    """

    def __init__(
        self,
        hosts: "Mapping[str, EngineHost] | Iterable[EngineHost]",
        max_pending: int = 64,
        request_timeout: Optional[float] = 30.0,
        max_frame: int = MAX_FRAME_BYTES,
    ) -> None:
        super().__init__(
            max_pending=max_pending,
            request_timeout=request_timeout,
            max_frame=max_frame,
        )
        if isinstance(hosts, Mapping):
            self._hosts: Dict[str, EngineHost] = dict(hosts)
        else:
            self._hosts = {}
            for host in hosts:
                if host.name in self._hosts:
                    raise ServeError(f"duplicate dataset name {host.name!r}")
                self._hosts[host.name] = host
        if not self._hosts:
            raise ServeError("a PreviewService needs at least one dataset host")

    async def aclose(self) -> None:
        """Stop accepting, drop open connections, release every host."""
        await super().aclose()
        loop = asyncio.get_running_loop()
        for host in self._hosts.values():
            # Worker-thread shutdown joins a thread: off the event loop.
            await loop.run_in_executor(None, host.close)

    def _fast_response(self, line: bytes) -> Optional[bytes]:
        """The synchronous warm path: a fully-encoded response, or None.

        A ``preview``/``sweep`` request whose payload sits in its host's
        response cache is answered entirely on the event loop — no
        per-request task, no timeout timer, no worker-thread hop, no
        re-serialization; the cached payload bytes are spliced into a
        frame identical to what the async path would produce.  Anything
        else — cache misses, mutations, service ops, malformed frames —
        returns None and takes the full path (which also produces the
        proper error responses; a request rejected here is never an
        error).  Cache hits bypass admission control deliberately: they
        cannot occupy the service, which exists to bound *computations*.
        """
        try:
            payload = decode_frame(line, self.max_frame)
            request = parse_request(payload)
        except ProtocolError:
            return None
        if request.op not in ("preview", "sweep"):
            return None
        try:
            host = self._resolve_host(request)
        except ProtocolError:
            return None
        encoded = host.encoded_response(request.op, request.params)
        if encoded is None:
            return None
        self._counters["requests"] += 1
        self._counters["ok"] += 1
        # Splices to the exact bytes of encode_frame(ok_response(...)):
        # sort_keys orders id < ok < op < result, same separators.
        id_json = json.dumps(
            request.id, sort_keys=True, separators=(", ", ": ")
        ).encode("utf-8")
        return (
            b'{"id": ' + id_json
            + b', "ok": true, "op": "' + request.op.encode("ascii")
            + b'", "result": ' + encoded + b"}\n"
        )

    def _resolve_host(self, request) -> EngineHost:
        if request.dataset is None:
            if len(self._hosts) == 1:
                return next(iter(self._hosts.values()))
            raise ProtocolError(
                "bad-request",
                f"this service hosts {len(self._hosts)} datasets; "
                f"the request must name one of {sorted(self._hosts)}",
            )
        host = self._hosts.get(request.dataset)
        if host is None:
            raise ProtocolError(
                "unknown-dataset",
                f"unknown dataset {request.dataset!r}; "
                f"hosted: {', '.join(sorted(self._hosts))}",
            )
        return host

    async def _dispatch(self, request) -> Dict[str, Any]:
        if request.op == "health":
            return {"status": "ok", "datasets": sorted(self._hosts)}
        if request.op == "stats":
            datasets = [
                await self._hosts[name].stats() for name in sorted(self._hosts)
            ]
            return {"service": self.stats(), "datasets": datasets}
        host = self._resolve_host(request)
        if request.op == "preview":
            return await host.preview(request.params)
        if request.op == "sweep":
            return await host.sweep(request.params)
        if request.op == "mutate":
            return await host.mutate(request.params)
        # "subscribe" parses but only writer-role services stream it.
        raise ProtocolError(
            "bad-request",
            f"op {request.op!r} is not supported by this service",
        )


class BackgroundServer:
    """Handle for a :class:`LineService` running in a daemon thread.

    Attributes
    ----------
    host, port:
        The bound address, ready for a
        :class:`~repro.serve.ServeClient`.
    service:
        The running service (its counters are safe to *read* from the
        caller's thread).
    """

    def __init__(self, service: LineService, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop, stop_event: asyncio.Event) -> None:
        self.service = service
        self.host, self.port = service.address
        self._thread = thread
        self._loop = loop
        self._stop_event = stop_event

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the service down and join its thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_in_background(
    service: LineService, host: str = "127.0.0.1", port: int = 0
) -> BackgroundServer:
    """Start ``service`` on a daemon thread and wait until it is bound.

    The synchronous entry point tests, benchmarks and notebooks use:
    the event loop lives entirely in the background thread, and the
    returned :class:`BackgroundServer` exposes the ephemeral port plus
    ``stop()``.  Use as a context manager for deterministic teardown.

    Raises
    ------
    ServeError
        When the server fails to bind within 10 seconds (the underlying
        exception is chained).
    """
    started = threading.Event()
    box: Dict[str, Any] = {}

    def target() -> None:
        async def main() -> None:
            try:
                await service.start(host, port)
            except Exception as exc:
                raise ServeError("preview service failed to start") from exc
            box["loop"] = asyncio.get_running_loop()
            box["stop"] = stop_event = asyncio.Event()
            started.set()
            try:
                await stop_event.wait()
            finally:
                await service.aclose()

        try:
            asyncio.run(main())
        except ServeError as exc:
            # Hand the structured startup error to the waiting caller;
            # the daemon thread itself must exit quietly.
            box["error"] = exc
            started.set()

    thread = threading.Thread(
        target=target, name="repro-serve", daemon=True
    )
    thread.start()
    if not started.wait(timeout=10.0):
        raise ServeError("preview service failed to start")
    error = box.get("error")
    if error is not None:
        raise error
    return BackgroundServer(service, thread, box["loop"], box["stop"])
