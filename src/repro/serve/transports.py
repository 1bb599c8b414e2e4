"""Transports binding :class:`TrustedServer` to actual connections.

Every transport runs one per-connection protocol,
:class:`FrameConnection`, which judges the lines a connection carries
without doing any I/O: decode, hello and version check, the gate's
token and rate check, the "hello first" rule, and the hand-off of each
servable op to :meth:`TrustedServer.admit`.  A transport adds only
framing and writing on top:

* :class:`TcpTransport` — the production daemon: one asyncio listener
  whose connections are :class:`TcpConnection` protocols.  A
  connection splits what it receives on newlines and hands every
  complete line to its :class:`FrameConnection`; a servable op goes to
  :meth:`TrustedServer.admit` with the connection's
  :meth:`~TcpConnection.respond` as its reply callback, so its reply
  is written the moment the op executes — no task, future or write
  lock per op.  A connection can pipeline many outstanding operations;
  responses correlate by ``id`` (control ops such as ``stats`` or
  ``drain`` are served in a task each, so their replies may overtake
  queued ops), while each shard's FIFO queue keeps replies of one
  shard in submission order;
* :class:`~repro.serve.http.HttpTransport` — the same lines carried in
  ``POST`` bodies (see :mod:`repro.serve.http`);
* :class:`LoopbackTransport` — the same protocol with no sockets: a
  :class:`LoopbackConnection` encodes every frame to its wire line,
  hands it to its :class:`FrameConnection` and round-trips each reply
  through the reply codec, so tests exercise the exact wire bytes
  while staying in-process and deterministic.

Two differences between transports are deliberate.  An oversized line
closes a TCP connection — the byte stream may be mid-garbage and has
no safe resynchronization point inside the truncated line — while an
HTTP body is length-delimited, so HTTP answers the line and carries on
at the next one.  TCP runs control ops in a task each, while HTTP
answers them in line order within a body.

Backpressure on TCP: when a client stops reading and the socket's
write buffer passes its high-water mark, the connection stops reading
that client until the buffer drains; ``max_inflight`` and the queue
bound shed whatever it pipelined before that.

Framing errors are answered, not fatal: an undecodable line produces an
:class:`ErrorReply` with ``id=None`` and the connection continues at
the next newline.  The lines that do close the connection are a
refused hello (a gate rejection or a failed version handshake) and,
on TCP, an oversized frame — a line longer than ``max_frame_bytes``
(newline included), or an unterminated tail that already reaches it.

Hardening (both optional, off by default):

* ``ssl_context`` wraps the TCP listener in TLS
  (:func:`server_ssl_context` builds the server side from a cert/key
  pair, :func:`client_ssl_context` the CA-pinning client side) —
  plaintext stays available for loopback and tests;
* ``gate`` installs a :class:`~repro.serve.gate.ConnectionGate`:
  hellos are judged (token, connection cap) before the server's
  welcome, and every servable op is charged to the client's token
  bucket *before* :meth:`TrustedServer.admit` — a rejected op is
  answered at the door and never touches a queue or an engine.
"""

from __future__ import annotations

import asyncio
import ssl
from typing import Set

from repro.serve.client import FrameClient, welcomed
from repro.serve.gate import ConnectionGate, GatePass
from repro.serve.protocol import (
    ErrorReply,
    Frame,
    Hello,
    LocationUpdate,
    ProtocolError,
    ServiceRequest,
    Welcome,
    decode_reply,
    decode_request,
    encode_frame,
)
from repro.serve.server import Respond, TrustedServer


def server_ssl_context(
    certfile: str, keyfile: str
) -> ssl.SSLContext:
    """The daemon's TLS context: one cert/key pair, TLS 1.2+."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.minimum_version = ssl.TLSVersion.TLSv1_2
    context.load_cert_chain(certfile, keyfile)
    return context


def client_ssl_context(cafile: str) -> ssl.SSLContext:
    """A CA-pinning client context: trust exactly ``cafile``.

    The pinned CA (for dev deployments, the server's own self-signed
    cert) is the trust anchor — certificate verification is required,
    while hostname checking is off because the pin already binds the
    client to one key holder and the daemons are addressed by IP.
    """
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    context.minimum_version = ssl.TLSVersion.TLSv1_2
    context.check_hostname = False
    context.verify_mode = ssl.CERT_REQUIRED
    context.load_verify_locations(cafile)
    return context


class FrameConnection:
    """The per-connection protocol every transport runs (see module doc).

    It owns the connection's session, whether it has greeted and its
    gate ticket, and judges one line at a time in
    :meth:`serve_line`.  ``oversize_closes`` says whether an oversized
    line ends the connection (a byte stream) or is answered like any
    other bad line (a length-delimited body).
    """

    __slots__ = (
        "server",
        "gate",
        "session",
        "max_bytes",
        "oversize_closes",
        "greeted",
        "ticket",
        "closing",
    )

    def __init__(
        self,
        server: TrustedServer,
        gate: "ConnectionGate | None",
        client: str,
        oversize_closes: bool = True,
    ) -> None:
        self.server = server
        self.gate = gate
        self.session = server.open_session(client)
        self.max_bytes = server.config.max_frame_bytes
        self.oversize_closes = oversize_closes
        self.greeted = False
        self.ticket: "GatePass | None" = None
        #: Set by a fatal line; the transport then closes the
        #: connection and judges nothing more.
        self.closing = False

    def serve_line(
        self, line: bytes, respond: Respond, answer: Respond
    ) -> "Frame | None":
        """Judge one newline-terminated line.

        A servable op that passes the door goes to
        :meth:`TrustedServer.admit` with ``respond``.  Everything
        judged at the door — a codec error, the hello's verdict, a
        gate refusal, ``hello_required`` — is passed to ``answer``.  A
        greeted connection's control frame is returned instead: the
        transport decides when to run it, and its reply goes to
        ``respond``.
        """
        server = self.server
        try:
            frame = decode_request(line, self.max_bytes)
        except ProtocolError as exc:
            server.note_protocol_error()
            answer(ErrorReply(id=None, code=exc.code, message=exc.message))
            if exc.code == "frame_too_large" and self.oversize_closes:
                self.closing = True
            return None
        if isinstance(frame, (LocationUpdate, ServiceRequest)):
            if self.greeted:
                ticket = self.ticket
                if ticket is not None:  # a gate issued it
                    assert self.gate is not None
                    rejection = self.gate.admit_op(ticket, frame.id)
                    if rejection is not None:
                        answer(rejection)
                        return None
                server.admit(self.session, frame, respond)
                return None
        elif isinstance(frame, Hello):
            self._hello(frame, answer)
            return None
        elif self.greeted:
            return frame
        server.note_protocol_error()
        answer(
            ErrorReply(
                id=getattr(frame, "id", None),
                code="hello_required",
                message="first frame must be 'hello'",
            )
        )
        return None

    def _hello(self, hello: Hello, answer: Respond) -> None:
        gate = self.gate
        if gate is not None:
            verdict = gate.admit_connection(hello)
            if isinstance(verdict, ErrorReply):
                # Auth/cap refusal: answered before the server ever
                # sees the hello.
                answer(verdict)
                self.closing = True
                return
            gate.release(self.ticket)  # a re-hello replaces the ticket
            self.ticket = verdict
        reply = self.server.welcome(self.session, hello)
        answer(reply)
        if isinstance(reply, Welcome):
            self.greeted = True
        else:
            self.closing = True

    def close(self) -> None:
        """Release the gate ticket and the session (idempotent)."""
        if self.gate is not None:
            self.gate.release(self.ticket)
        self.server.close_session(self.session)


def _over_the_wire(reply: Frame, max_bytes: int) -> Frame:
    """``reply`` as the peer decodes it from its encoded line."""
    return decode_reply(encode_frame(reply, max_bytes), max_bytes)


class LoopbackConnection(FrameClient):
    """One in-process client connection (see :class:`LoopbackTransport`).

    A servable op is judged and admitted synchronously in :meth:`post`
    — no task per op — so frames posted in order are admitted in
    order, the property the determinism tests lean on.  Control ops
    run in a task each, as on TCP.  With ``trace=True`` (and enabled
    server telemetry) the ``client.request`` roots are recorded on the
    *server's* tracer, loopback being in-process, so loopback tests
    reconstruct the same causal trees the TCP daemon produces.
    """

    def __init__(self, frames: FrameConnection, welcome: Welcome) -> None:
        super().__init__(welcome, frames.server.telemetry)
        self._frames = frames
        self.session = frames.session

    def _post(self, frame: Frame) -> "asyncio.Future[Frame]":
        frames = self._frames
        max_bytes = frames.max_bytes
        future: "asyncio.Future[Frame]" = (
            asyncio.get_running_loop().create_future()
        )

        def respond(reply: Frame) -> None:
            if not future.done():
                future.set_result(_over_the_wire(reply, max_bytes))

        control = frames.serve_line(
            encode_frame(frame, max_bytes), respond, respond
        )
        if control is not None:
            return asyncio.ensure_future(self._control(control))
        if frames.closing:
            self._closed = True
            frames.close()
        return future

    async def _control(self, frame: Frame) -> Frame:
        frames = self._frames
        reply = await frames.server.submit(frames.session, frame)
        return _over_the_wire(reply, frames.max_bytes)

    async def _shutdown(self) -> None:
        self._frames.close()


class LoopbackTransport:
    """Socket-free transport: connections straight into the server."""

    def __init__(
        self,
        server: TrustedServer,
        gate: "ConnectionGate | None" = None,
    ) -> None:
        self.server = server
        self.gate = gate

    def connect(
        self,
        client: str = "loopback",
        trace: bool = False,
        token: "str | None" = None,
    ) -> LoopbackConnection:
        """Open one connection with the hello the socket clients send.

        A refused hello raises
        :class:`~repro.serve.client.ServeClientError` carrying the
        typed reply, and leaves no session behind.
        """
        frames = FrameConnection(self.server, self.gate, client)
        hello = FrameClient.hello(
            client, trace, self.server.telemetry, token
        )
        replies: "list[Frame]" = []
        frames.serve_line(
            encode_frame(hello, frames.max_bytes),
            replies.append,
            replies.append,
        )
        reply = _over_the_wire(replies[0], frames.max_bytes)
        if not isinstance(reply, Welcome):
            frames.close()
        return LoopbackConnection(frames, welcomed(reply))


class TcpTransport:
    """The TCP daemon frontend: one :class:`TcpConnection` per client.

    ``ssl_context`` (see :func:`server_ssl_context`) upgrades the
    listener to TLS; ``gate`` screens hellos and servable ops before
    they reach the server (see module doc).
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
        self._listener: asyncio.AbstractServer | None = None
        #: Open connections; :meth:`stop` waits for each to close.
        self._connections: Set["TcpConnection"] = set()
        #: Control-op tasks, referenced until they finish.
        self._tasks: Set["asyncio.Task[None]"] = set()

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        await self.server.start()
        self._listener = await asyncio.get_running_loop().create_server(
            lambda: TcpConnection(self),
            self.host,
            self.port,
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
        waiting = [
            *(connection.closed for connection in self._connections),
            *self._tasks,
        ]
        if waiting:
            await asyncio.gather(*waiting, return_exceptions=True)


class TcpConnection(asyncio.Protocol):
    """One client connection of :class:`TcpTransport` (see module doc)."""

    def __init__(self, owner: TcpTransport) -> None:
        self._owner = owner
        self._max_bytes = owner.server.config.max_frame_bytes
        self._transport: asyncio.Transport
        self._frames: FrameConnection
        #: The unterminated tail of the received bytes.
        self._buffer = b""
        #: Lines judged and not yet answered.
        self._outstanding = 0
        #: Whether the client half-closed its side.
        self._eof = False
        #: Resolved once the connection is gone (:meth:`TcpTransport.stop`).
        self.closed: "asyncio.Future[None]" = (
            asyncio.get_running_loop().create_future()
        )

    # -- asyncio.Protocol ----------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._transport = transport
        peer = transport.get_extra_info("peername")
        owner = self._owner
        self._frames = FrameConnection(
            owner.server, owner.gate, f"tcp:{peer}"
        )
        owner._connections.add(self)

    def connection_lost(self, exc: "Exception | None") -> None:
        # Ops still queued execute (and are logged) as usual; their
        # replies are dropped by :meth:`respond`.
        self._owner._connections.discard(self)
        self._frames.close()
        self.closed.set_result(None)

    def pause_writing(self) -> None:
        # Backpressure: a client that does not read stops being read.
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()

    def eof_received(self) -> bool:
        # A half-closed plaintext client still gets every reply: the
        # socket closes once the last one is written (asyncio closes a
        # TLS connection at EOF regardless).
        self._eof = True
        return bool(self._outstanding) and self._owner.ssl_context is None

    def data_received(self, data: bytes) -> None:
        if self._buffer:
            data = self._buffer + data
        frames = self._frames
        respond, answer = self.respond, self._answer
        start = 0
        while True:
            end = data.find(b"\n", start)
            if end < 0:
                break
            self._outstanding += 1
            control = frames.serve_line(
                data[start : end + 1], respond, answer
            )
            start = end + 1
            if control is not None:
                task = asyncio.get_running_loop().create_task(
                    self._serve_control(control)
                )
                self._owner._tasks.add(task)
                task.add_done_callback(self._owner._tasks.discard)
            elif frames.closing:
                self._transport.close()
                return  # a fatal line: the rest is not read
        rest = data[start:]
        if len(rest) >= self._max_bytes:
            # The line already exceeds the frame limit; the remainder
            # of the stream is unframed garbage — report, close.
            self._owner.server.note_protocol_error()
            self._transport.write(
                encode_frame(
                    ErrorReply(
                        id=None,
                        code="frame_too_large",
                        message=(
                            f"frame exceeds the {self._max_bytes}-byte "
                            "limit"
                        ),
                    ),
                    self._max_bytes,
                )
            )
            self._transport.close()
            return
        self._buffer = rest

    # -- replies -------------------------------------------------------

    def respond(self, reply: Frame) -> None:
        """Write the reply of one op this connection handed the server."""
        self._outstanding -= 1
        transport = self._transport
        if transport.is_closing():
            return
        transport.write(encode_frame(reply, self._max_bytes))
        if self._eof and not self._outstanding:
            transport.close()

    def _answer(self, reply: Frame) -> None:
        """Write a reply judged at the door (a codec error, the hello's
        verdict, a gate refusal)."""
        self._outstanding -= 1
        self._transport.write(encode_frame(reply, self._max_bytes))

    async def _serve_control(self, frame: Frame) -> None:
        """Control ops (``stats``, ``drain``, …) await the server."""
        frames = self._frames
        self.respond(await frames.server.submit(frames.session, frame))
