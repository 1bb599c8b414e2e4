"""HTTP/1.1 transport over the same strict codec and gate.

The NDJSON protocol is transport-agnostic by construction — frames are
lines, replies correlate by ``id`` — so an HTTP binding is a framing
exercise, not a new protocol: ``POST /v1/frame`` carries one or more
request frames as an NDJSON body, and the ``200`` response body carries
exactly one reply line per request line, in order.  Connections are
keep-alive, so a client pays the HTTP header tax per *batch*, not per
operation; :class:`HttpServeClient` exploits that by coalescing every
frame queued while a POST is in flight into the next one.

Everything else is shared with the TCP transport, because every line
of a body goes through the same
:class:`~repro.serve.transports.FrameConnection`:

* the same strict codec judges every line (an undecodable line earns
  its :class:`~repro.serve.protocol.ErrorReply` *line*, not an HTTP
  error);
* the same hello/welcome handshake starts every connection (first
  frame of the first POST must be ``hello``), and a refused hello
  ends the body and the connection;
* the same :class:`~repro.serve.gate.ConnectionGate` screens hellos
  and charges servable ops *before* :meth:`TrustedServer.admit`, so
  gate rejections never touch a sequencer over this transport either;
* the same reply-callback admission: a servable line costs no task,
  and the ``200`` body is written once its last slot is answered;
* the same :func:`~repro.serve.transports.server_ssl_context` /
  :func:`~repro.serve.transports.client_ssl_context` upgrade it to
  HTTPS.

Two things differ from TCP, both because a body is length-delimited
and answered as a whole.  An oversized line is answered and the body
carries on at the next line, since unlike a raw byte stream there is
a safe resynchronization point at the next newline.  Control ops
(``stats``, ``drain``, …) are answered in line order, not in a task
each.

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
from repro.serve.client import FrameClient, ServeClientError, welcomed
from repro.serve.gate import ConnectionGate
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    Frame,
    ProtocolError,
    Welcome,
    decode_reply,
    encode_frame,
)
from repro.serve.server import TrustedServer
from repro.serve.transports import FrameConnection

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
        frames = FrameConnection(
            self.server, self.gate, f"http:{peer}", oversize_closes=False
        )
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
                reply_body = await self._serve_body(frames, body)
                writer.write(
                    _response(200, "OK", reply_body, not frames.closing)
                )
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
                if frames.closing:
                    break
        finally:
            frames.close()
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
        self, frames: FrameConnection, body: bytes
    ) -> bytes:
        """One POST body in, one NDJSON reply body out.

        Each line goes through the connection's
        :class:`~repro.serve.transports.FrameConnection` with a reply
        slot of its own, so a batch pipelines through the sequencer
        exactly like pipelined TCP frames (no task per frame) and every
        reply lands on the position its line came from.  Control ops
        are answered in line order, so ops admitted before a ``drain``
        are flushed by it.  The body is written once the last slot is
        answered.
        """
        batch = _Batch()
        for line in body.split(b"\n"):
            if not line.strip():
                continue
            if frames.closing:
                # A refused hello voids the rest of the batch;
                # unanswered lines are dropped with the connection,
                # exactly like post-refusal TCP frames.
                break
            slot = batch.slot()
            control = frames.serve_line(line + b"\n", slot, slot)
            if control is not None:
                slot(await self.server.submit(frames.session, control))
        await batch.complete()
        max_bytes = frames.max_bytes
        return b"".join(
            encode_frame(reply, max_bytes) for reply in batch.replies
        )


class _Batch:
    """The reply slots of one POST body, filled in any order."""

    __slots__ = ("replies", "_waiting", "_done")

    def __init__(self) -> None:
        self.replies: "list[Frame | None]" = []
        self._waiting = 0
        self._done: "asyncio.Future[None] | None" = None

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


class HttpServeClient(FrameClient):
    """Pipelined client for :class:`HttpTransport` (see module doc).

    The shared :class:`~repro.serve.client.FrameClient` surface —
    ``post`` returns a reply future, ``send`` waits for it, plus the
    awaitable introspection wrappers — so loadgen and the fleet scraper
    drive every transport alike.  Batching is automatic: one background
    sender runs one POST at a time and sweeps everything posted in the
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
        super().__init__(welcome, telemetry)
        self._reader = reader
        self._writer = writer
        self._max_frame_bytes = max_frame_bytes
        self._outbox: "list[tuple[Frame, asyncio.Future[Frame]]]" = []
        self._wake = asyncio.Event()
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
        """Open a keep-alive connection; hello rides the first POST.

        ``trace``, ``ssl`` and ``token`` mean what they mean for
        :meth:`ServeClient.connect <repro.serve.client.ServeClient.connect>`.
        """
        reader, writer = await asyncio.open_connection(
            host, port, limit=max_frame_bytes, ssl=ssl
        )
        hello = cls.hello(client, trace, telemetry, token)
        writer.write(
            _post_bytes(host, port, encode_frame(hello, max_frame_bytes))
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
        return cls(
            reader,
            writer,
            welcomed(reply),
            max_frame_bytes,
            telemetry=telemetry,
        )

    # -- pipelined sends ----------------------------------------------

    def _post(self, frame: Frame) -> "asyncio.Future[Frame]":
        future: "asyncio.Future[Frame]" = (
            asyncio.get_running_loop().create_future()
        )
        self._outbox.append((frame, future))
        self._wake.set()
        return future

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
            if len(lines) > len(batch):
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
            if len(lines) < len(batch):
                # A refused hello voids the rest of its body.
                raise ServeClientError(
                    "connection closed with "
                    f"{len(batch) - len(lines)} frames unanswered"
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

    async def _shutdown(self) -> None:
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
