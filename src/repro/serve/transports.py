"""Transports binding :class:`TrustedServer` to actual connections.

Two implementations of the same connection contract:

* :class:`TcpTransport` — the production daemon: one asyncio listener
  whose connections are :class:`TcpConnection` protocols.  A
  connection splits what it receives on newlines and handles every
  complete line synchronously: a servable op is handed to
  :meth:`TrustedServer.admit` with the connection's
  :meth:`~TcpConnection.respond` as its reply callback, so its reply
  is written the moment the op executes — no task, future or write
  lock per op.  A connection can
  pipeline many outstanding operations; responses correlate by
  ``id`` (control ops such as ``stats`` or ``drain`` are served in a
  task each, so their replies may overtake queued ops), while each
  shard's FIFO queue keeps replies of one shard in submission order;
* :class:`LoopbackTransport` — the same protocol with no sockets: every
  frame still round-trips through :func:`encode_frame` /
  :func:`decode_request` (and the reply through the reply codec), so
  tests exercise the exact wire bytes while staying in-process and
  deterministic.

Backpressure on TCP: when a client stops reading and the socket's
write buffer passes its high-water mark, the connection stops reading
that client until the buffer drains; ``max_inflight`` and the queue
bound shed whatever it pipelined before that.

Framing errors are answered, not fatal: an undecodable line produces an
:class:`ErrorReply` with ``id=None`` and the connection continues at
the next newline.  The exceptions that do close the connection are
oversized frames — a line longer than ``max_frame_bytes`` (newline
included), or an unterminated tail that already reaches it (the stream
may be mid-garbage; there is no safe resynchronization point within
the truncated line) — a failed
version handshake, and a gate rejection of the hello itself.

Hardening (both optional, off by default):

* ``ssl_context`` wraps the TCP listener in TLS
  (:func:`server_ssl_context` builds the server side from a cert/key
  pair, :func:`client_ssl_context` the CA-pinning client side) —
  plaintext stays available for loopback and tests;
* ``gate`` installs a :class:`~repro.serve.gate.ConnectionGate`:
  hellos are judged (token, connection cap) before the server's
  welcome, and every servable op is charged to the client's token
  bucket *before* :meth:`TrustedServer.admit` — a rejected op is
  answered right here and never touches a queue or an engine.
"""

from __future__ import annotations

import asyncio
import ssl
from typing import Set

from repro.serve.gate import ConnectionGate, GatePass
from repro.serve.protocol import (
    ErrorReply,
    Frame,
    Hello,
    LocationUpdate,
    ProtocolError,
    ServiceRequest,
    Welcome,
    clone_frame,
    decode_reply,
    decode_request,
    encode_frame,
)
from repro.serve.server import ClientSession, TrustedServer


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


class LoopbackConnection:
    """One in-process client connection (see :class:`LoopbackTransport`).

    With ``trace=True`` (and enabled server telemetry) the connection
    behaves like a traced :class:`~repro.serve.client.ServeClient`:
    each sampled update/request frame gets a ``client.request`` root
    span (recorded on the *server's* tracer — loopback is in-process)
    and carries its context on the wire, so loopback tests reconstruct
    the same causal trees the TCP daemon produces.
    """

    def __init__(
        self,
        server: TrustedServer,
        session: ClientSession,
        trace: bool = False,
        gate: "ConnectionGate | None" = None,
    ):
        self._server = server
        self.session = session
        self._closed = False
        self._gate = gate
        self._ticket: "GatePass | None" = None
        self.trace = bool(trace and server.telemetry.enabled)
        if self.trace:
            session.trace = True

    def _screen(self, frame: Frame) -> "Frame | None":
        """The gate verdict on one decoded frame (None = admitted).

        Mirrors the TCP handler: hellos are judged for token and
        connection cap, servable ops are charged to the bucket, and a
        gated connection that never greeted gets ``hello_required``.
        """
        gate = self._gate
        if gate is None:
            return None
        if isinstance(frame, Hello):
            verdict = gate.admit_connection(frame)
            if isinstance(verdict, ErrorReply):
                return verdict
            gate.release(self._ticket)  # a re-hello replaces the ticket
            self._ticket = verdict
            return None
        if not isinstance(frame, (LocationUpdate, ServiceRequest)):
            return None
        if self._ticket is None:
            return ErrorReply(
                id=frame.id,
                code="hello_required",
                message="gated connection: first frame must be 'hello'",
            )
        return gate.admit_op(self._ticket, frame.id)

    async def send(self, frame: Frame) -> Frame:
        """Submit one frame through the full codec path; await reply."""
        if self._closed:
            raise ConnectionError("loopback connection is closed")
        span = None
        if (
            self.trace
            and isinstance(frame, (LocationUpdate, ServiceRequest))
            and frame.trace is None
            and self._server.telemetry.tracer.sample()
        ):
            tracer = self._server.telemetry.tracer
            if tracer.sinks:
                span = self._server.telemetry.start_span(
                    "client.request", op=frame.op
                )
                wire = f"{span.trace_id}-{span.span_id}"
            else:
                # No sink: the root record is undeliverable — mint the
                # wire identity only (same fast path as ServeClient).
                wire = tracer.new_wire()
            frame = clone_frame(frame, trace=wire)
        max_bytes = self._server.config.max_frame_bytes
        try:
            decoded = decode_request(
                encode_frame(frame, max_bytes), max_bytes
            )
        except ProtocolError as exc:
            self._server.note_protocol_error()
            if span is not None:
                span.annotate(error=exc.code).end()
            return ErrorReply(id=None, code=exc.code, message=exc.message)
        rejection = self._screen(decoded)
        if rejection is not None:
            if span is not None:
                span.annotate(error=rejection.code).end()
            return decode_reply(
                encode_frame(rejection, max_bytes), max_bytes
            )
        reply = await self._server.submit(self.session, decoded)
        if span is not None:
            decision = getattr(reply, "decision", None)
            if decision is not None:
                span.annotate(decision=decision)
            elif isinstance(reply, ErrorReply):
                span.annotate(error=reply.code)
            span.end()
        return decode_reply(encode_frame(reply, max_bytes), max_bytes)

    def post(self, frame: Frame) -> "asyncio.Task[Frame]":
        """Fire-and-collect variant of :meth:`send` (open-loop sends).

        Scheduling is FIFO, so frames posted in order are admitted in
        order — the property the determinism test leans on.
        """
        return asyncio.get_running_loop().create_task(self.send(frame))

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self._gate is not None:
                self._gate.release(self._ticket)
            self._server.close_session(self.session)


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
        self, client: str = "loopback", trace: bool = False
    ) -> LoopbackConnection:
        return LoopbackConnection(
            self.server,
            self.server.open_session(client),
            trace=trace,
            gate=self.gate,
        )


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
        self._server = owner.server
        self._gate = owner.gate
        self._max_bytes = owner.server.config.max_frame_bytes
        self._transport: asyncio.Transport
        self.session: ClientSession
        #: The unterminated tail of the received bytes.
        self._buffer = b""
        self._greeted = False
        self._ticket: "GatePass | None" = None
        #: Ops handed to the server and not yet answered.
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
        self.session = self._server.open_session(client=f"tcp:{peer}")
        self._owner._connections.add(self)

    def connection_lost(self, exc: "Exception | None") -> None:
        # Ops still queued execute (and are logged) as usual; their
        # replies are dropped by :meth:`respond`.
        self._owner._connections.discard(self)
        if self._gate is not None:
            self._gate.release(self._ticket)
        self._server.close_session(self.session)
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
        transport = self._transport
        start = 0
        while True:
            end = data.find(b"\n", start)
            if end < 0:
                break
            self._serve_line(data[start : end + 1])
            start = end + 1
            if transport.is_closing():
                return  # a fatal line: the rest is not read
        rest = data[start:]
        if len(rest) >= self._max_bytes:
            # The line already exceeds the frame limit; the remainder
            # of the stream is unframed garbage — report, close.
            self._server.note_protocol_error()
            self._send(
                ErrorReply(
                    id=None,
                    code="frame_too_large",
                    message=f"frame exceeds the {self._max_bytes}-byte limit",
                )
            )
            transport.close()
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

    def _send(self, reply: Frame) -> None:
        """Write a reply produced here (errors, gate refusals, welcome)."""
        self._transport.write(encode_frame(reply, self._max_bytes))

    # -- one line ------------------------------------------------------

    def _serve_line(self, line: bytes) -> None:
        server = self._server
        try:
            frame = decode_request(line, self._max_bytes)
        except ProtocolError as exc:
            server.note_protocol_error()
            self._send(ErrorReply(id=None, code=exc.code, message=exc.message))
            if exc.code == "frame_too_large":
                self._transport.close()
            return
        if isinstance(frame, (LocationUpdate, ServiceRequest)):
            if self._greeted:
                if self._ticket is not None:  # a gate issued it
                    assert self._gate is not None
                    rejection = self._gate.admit_op(self._ticket, frame.id)
                    if rejection is not None:
                        self._send(rejection)
                        return
                self._outstanding += 1
                server.admit(self.session, frame, self.respond)
                return
        elif isinstance(frame, Hello):
            self._hello(frame)
            return
        elif self._greeted:
            self._outstanding += 1
            task = asyncio.get_running_loop().create_task(
                self._serve_control(frame)
            )
            self._owner._tasks.add(task)
            task.add_done_callback(self._owner._tasks.discard)
            return
        server.note_protocol_error()
        self._send(
            ErrorReply(
                id=getattr(frame, "id", None),
                code="hello_required",
                message="first frame must be 'hello'",
            )
        )

    def _hello(self, hello: Hello) -> None:
        gate = self._gate
        if gate is not None:
            verdict = gate.admit_connection(hello)
            if isinstance(verdict, ErrorReply):
                # Auth/cap refusal: answer and close before the server
                # ever sees the hello.
                self._send(verdict)
                self._transport.close()
                return
            gate.release(self._ticket)  # a re-hello replaces the ticket
            self._ticket = verdict
        reply = self._server.welcome(self.session, hello)
        self._send(reply)
        if isinstance(reply, Welcome):
            self._greeted = True
        else:
            self._transport.close()

    async def _serve_control(self, frame: Frame) -> None:
        """Control ops (``stats``, ``drain``, …) await the server."""
        self.respond(await self._server.submit(self.session, frame))
