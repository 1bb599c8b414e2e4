"""HTTP/1.1 transport over the same strict codec and gate.

The NDJSON protocol is transport-agnostic by construction — frames are
lines, replies correlate by ``id`` — so an HTTP binding is a framing
exercise, not a new protocol: ``POST /v1/frame`` carries one or more
request frames as an NDJSON body, and the ``200`` response body carries
exactly one reply line per request line, in order.  Connections are
keep-alive, so a client pays the HTTP header tax per *batch*, not per
operation; :class:`HttpServeClient` exploits that by coalescing every
frame queued while a POST is in flight into the next one.

Everything else is shared with the TCP transport, deliberately:

* the same :func:`~repro.serve.protocol.decode_request` /
  :func:`~repro.serve.protocol.encode_frame` strict codec judges every
  line (an undecodable line earns its :class:`ErrorReply` *line*, not
  an HTTP error — the body stays length-delimited, so unlike raw TCP
  there is a safe resynchronization point at the next newline);
* the same hello/welcome handshake starts every connection (first
  frame of the first POST must be ``hello``);
* the same :class:`~repro.serve.gate.ConnectionGate` screens hellos
  and charges servable ops *before* :meth:`TrustedServer.admit`, so
  gate rejections never touch a sequencer over this transport either;
* the same reply-callback admission: a servable line costs no task,
  and the ``200`` body is written once its last slot is answered;
* the same :func:`~repro.serve.transports.server_ssl_context` /
  :func:`~repro.serve.transports.client_ssl_context` upgrade it to
  HTTPS.

HTTP status codes are reserved for *transport* misuse — ``404``/``405``
for the wrong target or method, ``411`` for a missing Content-Length,
``413`` for an oversized body, ``400`` for unparseable framing — and
all of them close the connection.  Application outcomes (decisions,
sheds, gate rejections) always ride NDJSON lines in a ``200`` body.
"""

from __future__ import annotations

import asyncio
import ssl
from typing import Callable, Set

from repro.obs.config import Telemetry
from repro.serve.gate import ConnectionGate, GatePass
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    DrainReply,
    DrainRequest,
    ErrorReply,
    Frame,
    HealthReply,
    HealthRequest,
    Hello,
    LocationUpdate,
    MetricsReply,
    MetricsRequest,
    ProtocolError,
    ServiceRequest,
    StatsReply,
    StatsRequest,
    TracesReply,
    TracesRequest,
    Welcome,
    decode_reply,
    decode_request,
    encode_frame,
)
from repro.serve.client import ServeClientError
from repro.serve.server import TrustedServer

TARGET = "/v1/frame"
#: Frames the client coalesces into one POST (bounds body size).
MAX_BATCH_FRAMES = 64


class _HttpError(Exception):
    """A transport-level refusal: respond with ``status`` and close."""

    def __init__(self, status: int, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.reason = reason
        self.detail = detail


def _response(
    status: int,
    reason: str,
    body: bytes,
    keep_alive: bool,
) -> bytes:
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/x-ndjson\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


async def _read_headers(
    reader: asyncio.StreamReader,
) -> "tuple[str, str, dict[str, str]] | None":
    """Parse one request head; None on clean EOF before any bytes."""
    try:
        request_line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise _HttpError(400, "Bad Request", "request line too long")
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, "Bad Request", "malformed request line")
    method, target = parts[0], parts[1]
    headers: dict[str, str] = {}
    while True:
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise _HttpError(400, "Bad Request", "header line too long")
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise _HttpError(400, "Bad Request", "truncated headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _HttpError(400, "Bad Request", "malformed header")
        headers[name.strip().lower()] = value.strip()
    return method, target, headers


class HttpTransport:
    """The HTTP/1.1 daemon frontend (see module doc).

    Mirrors :class:`~repro.serve.transports.TcpTransport`'s surface —
    ``start()``/``stop()``, optional ``ssl_context`` and ``gate`` —
    over any :class:`TrustedServer` (including a shard router or a
    worker supervisor).
    """

    def __init__(
        self,
        server: TrustedServer,
        host: str = "127.0.0.1",
        port: int = 0,
        ssl_context: "ssl.SSLContext | None" = None,
        gate: "ConnectionGate | None" = None,
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self.ssl_context = ssl_context
        self.gate = gate
        self.max_body_bytes = server.config.max_frame_bytes * 64
        self._listener: asyncio.AbstractServer | None = None
        self._handlers: Set["asyncio.Task[None]"] = set()

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        await self.server.start()
        self._listener = await asyncio.start_server(
            self._handle,
            self.host,
            self.port,
            limit=self.server.config.max_frame_bytes,
            ssl=self.ssl_context,
        )
        sockname = self._listener.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop listening and wait for open connections to finish."""
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        if self._handlers:
            await asyncio.gather(
                *tuple(self._handlers), return_exceptions=True
            )

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        peer = writer.get_extra_info("peername")
        session = self.server.open_session(client=f"http:{peer}")
        state = _ConnectionState()
        try:
            while True:
                try:
                    head = await _read_headers(reader)
                    if head is None:
                        break
                    body = await self._read_body(reader, head)
                except _HttpError as exc:
                    self.server.note_protocol_error()
                    writer.write(
                        _response(
                            exc.status,
                            exc.reason,
                            exc.detail.encode("ascii") + b"\n",
                            keep_alive=False,
                        )
                    )
                    break
                except asyncio.IncompleteReadError:
                    break
                reply_body, keep_alive = await self._serve_body(
                    session, state, body
                )
                writer.write(
                    _response(200, "OK", reply_body, keep_alive)
                )
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
                if not keep_alive:
                    break
        finally:
            if self.gate is not None:
                self.gate.release(state.ticket)
            self.server.close_session(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_body(
        self,
        reader: asyncio.StreamReader,
        head: "tuple[str, str, dict[str, str]]",
    ) -> bytes:
        method, target, headers = head
        if method != "POST":
            raise _HttpError(
                405, "Method Not Allowed", "only POST is served"
            )
        if target != TARGET:
            raise _HttpError(
                404, "Not Found", f"unknown target (use {TARGET})"
            )
        length_text = headers.get("content-length")
        if length_text is None:
            raise _HttpError(
                411, "Length Required", "Content-Length is required"
            )
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(
                400, "Bad Request", "unparseable Content-Length"
            )
        if length < 0:
            raise _HttpError(
                400, "Bad Request", "negative Content-Length"
            )
        if length > self.max_body_bytes:
            raise _HttpError(
                413,
                "Payload Too Large",
                f"body exceeds the {self.max_body_bytes}-byte limit",
            )
        return await reader.readexactly(length)

    async def _serve_body(
        self,
        session,
        state: "_ConnectionState",
        body: bytes,
    ) -> tuple[bytes, bool]:
        """One POST body in, one NDJSON reply body (+ keep-alive?) out.

        Lines are judged in order; admitted servable ops go through
        :meth:`TrustedServer.admit` (so a batch pipelines through the
        sequencer exactly like pipelined TCP frames, with no task per
        frame) and their replies land back on the line positions the
        requests came from.  The body is written once the last slot
        is answered.
        """
        max_bytes = self.server.config.max_frame_bytes
        batch = _Batch()
        keep_alive = True
        for line in body.split(b"\n"):
            if not line.strip():
                continue
            if not keep_alive:
                # A fatal line (gate/handshake refusal) voids the rest
                # of the batch; unanswered lines are dropped with the
                # connection, exactly like post-refusal TCP frames.
                break
            if len(line) > max_bytes:
                self.server.note_protocol_error()
                batch.answer(
                    ErrorReply(
                        id=None,
                        code="frame_too_large",
                        message=(
                            f"frame exceeds the {max_bytes}-byte limit"
                        ),
                    )
                )
                continue
            try:
                frame = decode_request(line + b"\n", max_bytes)
            except ProtocolError as exc:
                self.server.note_protocol_error()
                batch.answer(
                    ErrorReply(
                        id=None, code=exc.code, message=exc.message
                    )
                )
                continue
            if isinstance(frame, Hello):
                if self.gate is not None:
                    verdict = self.gate.admit_connection(frame)
                    if isinstance(verdict, ErrorReply):
                        batch.answer(verdict)
                        keep_alive = False
                        continue
                    self.gate.release(state.ticket)
                    state.ticket = verdict
                reply = self.server.welcome(session, frame)
                batch.answer(reply)
                if not isinstance(reply, Welcome):
                    keep_alive = False
                    continue
                state.greeted = True
                continue
            if not state.greeted:
                self.server.note_protocol_error()
                batch.answer(
                    ErrorReply(
                        id=getattr(frame, "id", None),
                        code="hello_required",
                        message="first frame must be 'hello'",
                    )
                )
                continue
            if not isinstance(frame, (LocationUpdate, ServiceRequest)):
                # Control ops (stats, drain, …) are answered in line
                # order; ops admitted before a drain are flushed by it.
                batch.answer(await self.server.submit(session, frame))
                continue
            if self.gate is not None and state.ticket is not None:
                rejection = self.gate.admit_op(state.ticket, frame.id)
                if rejection is not None:
                    batch.answer(rejection)
                    continue
            self.server.admit(session, frame, batch.slot())
        await batch.complete()
        body = b"".join(
            encode_frame(reply, max_bytes) for reply in batch.replies
        )
        return body, keep_alive


class _Batch:
    """The reply slots of one POST body, filled in any order."""

    __slots__ = ("replies", "_waiting", "_done")

    def __init__(self) -> None:
        self.replies: "list[Frame | None]" = []
        self._waiting = 0
        self._done: "asyncio.Future[None] | None" = None

    def answer(self, reply: Frame) -> None:
        """Fill the next slot now."""
        self.replies.append(reply)

    def slot(self) -> "Callable[[Frame], None]":
        """Reserve the next slot; returns the callback that fills it."""
        index = len(self.replies)
        self.replies.append(None)
        self._waiting += 1

        def fill(reply: Frame) -> None:
            self.replies[index] = reply
            self._waiting -= 1
            done = self._done
            if not self._waiting and done is not None and not done.done():
                done.set_result(None)

        return fill

    async def complete(self) -> None:
        """Wait until every reserved slot is filled."""
        if self._waiting:
            self._done = asyncio.get_running_loop().create_future()
            await self._done


class _ConnectionState:
    """Per-connection handshake/gate state of the HTTP handler."""

    __slots__ = ("greeted", "ticket")

    def __init__(self) -> None:
        self.greeted = False
        self.ticket: "GatePass | None" = None


# ---------------------------------------------------------------------
# client
# ---------------------------------------------------------------------


async def _read_response(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> tuple[int, bytes]:
    """Read one HTTP response; returns ``(status, body)``."""
    status_line = await reader.readline()
    if not status_line:
        raise ServeClientError("server closed mid-response")
    parts = status_line.decode("latin-1").strip().split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ServeClientError(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ServeClientError("truncated response headers")
        name, _sep, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    if length > max_body_bytes:
        raise ServeClientError(f"response body too large: {length}")
    body = await reader.readexactly(length) if length else b""
    return status, body


class HttpServeClient:
    """Pipelined client for :class:`HttpTransport` (see module doc).

    Same call surface as :class:`~repro.serve.client.ServeClient` —
    ``post`` returns a reply future, plus the awaitable introspection
    wrappers — so loadgen and the fleet scraper drive either transport
    through one facade.  Batching is automatic: one background sender
    runs one POST at a time and sweeps everything posted in the
    meantime (up to :data:`MAX_BATCH_FRAMES`) into the next body.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        welcome: Welcome,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.welcome = welcome
        self._max_frame_bytes = max_frame_bytes
        self._telemetry = telemetry
        #: Client-side trace minting is a TCP-client feature; over
        #: HTTP the server still traces everything behind the POST.
        self.trace_enabled = False
        self._outbox: "list[tuple[Frame, asyncio.Future[Frame]]]" = []
        self._wake = asyncio.Event()
        self._next_id = 0
        self._closed = False
        self._sender_task = asyncio.create_task(
            self._send_loop(), name="repro-serve-http-sender"
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        client: str = "client",
        max_frame_bytes: int = MAX_FRAME_BYTES,
        telemetry: "Telemetry | None" = None,
        trace: bool = False,
        ssl: "ssl.SSLContext | None" = None,
        token: "str | None" = None,
    ) -> "HttpServeClient":
        """Open a keep-alive connection; hello rides the first POST."""
        del trace  # accepted for signature parity with ServeClient
        reader, writer = await asyncio.open_connection(
            host, port, limit=max_frame_bytes, ssl=ssl
        )
        hello = encode_frame(
            Hello(client=client, token=token), max_frame_bytes
        )
        writer.write(
            _post_bytes(host, port, hello)
        )
        await writer.drain()
        status, body = await _read_response(
            reader, max_frame_bytes * 64
        )
        lines = [ln for ln in body.split(b"\n") if ln.strip()]
        if status != 200 or not lines:
            writer.close()
            raise ServeClientError(
                f"handshake failed: HTTP {status}: {body[:200]!r}"
            )
        reply = decode_reply(lines[0] + b"\n", max_frame_bytes)
        if not isinstance(reply, Welcome):
            writer.close()
            rejection = reply if isinstance(reply, ErrorReply) else None
            raise ServeClientError(
                f"handshake rejected: {reply!r}", reply=rejection
            )
        return cls(
            reader, writer, reply, max_frame_bytes, telemetry=telemetry
        )

    # -- pipelined sends ----------------------------------------------

    def post(self, frame: Frame) -> "asyncio.Future[Frame]":
        """Queue one frame for the next POST; future gets its reply."""
        if self._closed:
            raise ServeClientError("client is closed")
        future: "asyncio.Future[Frame]" = (
            asyncio.get_running_loop().create_future()
        )
        self._outbox.append((frame, future))
        self._wake.set()
        return future

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    async def _send_loop(self) -> None:
        try:
            while True:
                await self._wake.wait()
                if not self._outbox:
                    self._wake.clear()
                    continue
                batch = self._outbox[:MAX_BATCH_FRAMES]
                del self._outbox[: len(batch)]
                if not self._outbox:
                    self._wake.clear()
                await self._post_batch(batch)
        except asyncio.CancelledError:
            pass

    async def _post_batch(
        self, batch: "list[tuple[Frame, asyncio.Future[Frame]]]"
    ) -> None:
        try:
            body = b"".join(
                encode_frame(frame, self._max_frame_bytes)
                for frame, _future in batch
            )
            self._writer.write(_post_bytes(None, None, body))
            await self._writer.drain()
            status, reply_body = await _read_response(
                self._reader, self._max_frame_bytes * 64
            )
            if status != 200:
                raise ServeClientError(
                    f"HTTP {status}: {reply_body[:200]!r}"
                )
            lines = [
                line
                for line in reply_body.split(b"\n")
                if line.strip()
            ]
            if len(lines) != len(batch):
                raise ServeClientError(
                    f"reply body holds {len(lines)} lines for a "
                    f"{len(batch)}-frame batch"
                )
            # Replies come back on the request lines' positions (the
            # transport guarantees order), so correlation is the zip.
            for (_frame, future), line in zip(batch, lines):
                if not future.done():
                    future.set_result(
                        decode_reply(
                            line + b"\n", self._max_frame_bytes
                        )
                    )
        except (
            ConnectionError,
            OSError,
            ProtocolError,
            asyncio.IncompleteReadError,
        ) as exc:
            error = (
                exc
                if isinstance(exc, ServeClientError)
                else ServeClientError(f"transport failure: {exc}")
            )
            for _frame, future in batch:
                if not future.done():
                    future.set_exception(error)

    # -- awaitable wrappers (fleet scrape surface) --------------------

    async def _roundtrip(self, frame: Frame) -> Frame:
        return await self.post(frame)

    async def stats(self) -> StatsReply:
        reply = await self._roundtrip(StatsRequest(id=self.next_id()))
        if not isinstance(reply, StatsReply):
            raise ServeClientError(f"unexpected stats reply: {reply!r}")
        return reply

    async def drain(self) -> DrainReply:
        reply = await self._roundtrip(DrainRequest(id=self.next_id()))
        if not isinstance(reply, DrainReply):
            raise ServeClientError(f"unexpected drain reply: {reply!r}")
        return reply

    async def metrics(self, format: str = "prometheus") -> MetricsReply:
        reply = await self._roundtrip(
            MetricsRequest(id=self.next_id(), format=format)
        )
        if not isinstance(reply, MetricsReply):
            raise ServeClientError(f"unexpected metrics reply: {reply!r}")
        return reply

    async def health(self) -> HealthReply:
        reply = await self._roundtrip(HealthRequest(id=self.next_id()))
        if not isinstance(reply, HealthReply):
            raise ServeClientError(f"unexpected health reply: {reply!r}")
        return reply

    async def traces(self, limit: int = 20) -> TracesReply:
        reply = await self._roundtrip(
            TracesRequest(id=self.next_id(), limit=limit)
        )
        if not isinstance(reply, TracesReply):
            raise ServeClientError(f"unexpected traces reply: {reply!r}")
        return reply

    @property
    def pending(self) -> int:
        """Frames queued but not yet answered."""
        return len(self._outbox)

    async def close(self) -> None:
        """Close the connection; queued futures fail."""
        if self._closed:
            return
        self._closed = True
        self._sender_task.cancel()
        try:
            await self._sender_task
        except asyncio.CancelledError:
            pass
        outbox, self._outbox = self._outbox, []
        error = ServeClientError("client closed with frames queued")
        for _frame, future in outbox:
            if not future.done():
                future.set_exception(error)
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _post_bytes(
    host: "str | None", port: "int | None", body: bytes
) -> bytes:
    """One ``POST /v1/frame`` request (Host is optional on keep-alive)."""
    host_header = (
        f"Host: {host}:{port}\r\n" if host is not None else ""
    )
    head = (
        f"POST {TARGET} HTTP/1.1\r\n"
        f"{host_header}"
        "Content-Type: application/x-ndjson\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body
