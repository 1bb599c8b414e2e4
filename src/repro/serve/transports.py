"""Transports binding :class:`TrustedServer` to actual connections.

Two implementations of the same connection contract:

* :class:`TcpTransport` — the production daemon: one asyncio TCP
  listener, one handler task per connection, per-message worker tasks
  so a single connection can pipeline many outstanding operations
  (responses correlate by ``id``, so ordering on the wire is free to
  differ from submission order — except that each shard's FIFO queue
  preserves it for well-ordered clients);
* :class:`LoopbackTransport` — the same protocol with no sockets: every
  frame still round-trips through :func:`encode_frame` /
  :func:`decode_request` (and the reply through the reply codec), so
  tests exercise the exact wire bytes while staying in-process and
  deterministic.

Framing errors are answered, not fatal: an undecodable line produces an
:class:`ErrorReply` with ``id=None`` and the connection continues at
the next newline.  The exceptions that do close the connection are
oversized frames (the stream may be mid-garbage; there is no safe
resynchronization point within the truncated line), a failed version
handshake, and a gate rejection of the hello itself.

Hardening (both optional, off by default):

* ``ssl_context`` wraps the TCP listener in TLS
  (:func:`server_ssl_context` builds the server side from a cert/key
  pair, :func:`client_ssl_context` the CA-pinning client side) —
  plaintext stays available for loopback and tests;
* ``gate`` installs a :class:`~repro.serve.gate.ConnectionGate`:
  hellos are judged (token, connection cap) before the server's
  welcome, and every servable op is charged to the client's token
  bucket *before* :meth:`TrustedServer.submit` — a rejected op is
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
    """The TCP daemon frontend (``asyncio.start_server``).

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
        session = self.server.open_session(client=f"tcp:{peer}")
        write_lock = asyncio.Lock()
        workers: Set["asyncio.Task[None]"] = set()
        max_bytes = self.server.config.max_frame_bytes
        greeted = False
        ticket: "GatePass | None" = None
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line exceeded the stream limit; the remainder
                    # of the stream is unframed garbage — report, close.
                    self.server.note_protocol_error()
                    await self._write(
                        writer,
                        write_lock,
                        ErrorReply(
                            id=None,
                            code="frame_too_large",
                            message=(
                                f"frame exceeds the {max_bytes}-byte "
                                "limit"
                            ),
                        ),
                    )
                    break
                if not line:
                    break
                try:
                    frame = decode_request(line, max_bytes)
                except ProtocolError as exc:
                    self.server.note_protocol_error()
                    await self._write(
                        writer,
                        write_lock,
                        ErrorReply(
                            id=None, code=exc.code, message=exc.message
                        ),
                    )
                    if exc.code == "frame_too_large":
                        break
                    continue
                if isinstance(frame, Hello):
                    if self.gate is not None:
                        verdict = self.gate.admit_connection(frame)
                        if isinstance(verdict, ErrorReply):
                            # Auth/cap refusal: answer and close before
                            # the server ever sees the hello.
                            await self._write(writer, write_lock, verdict)
                            break
                        self.gate.release(ticket)  # re-hello replaces
                        ticket = verdict
                    reply = self.server.welcome(session, frame)
                    await self._write(writer, write_lock, reply)
                    if not isinstance(reply, Welcome):
                        break
                    greeted = True
                    continue
                if not greeted:
                    self.server.note_protocol_error()
                    await self._write(
                        writer,
                        write_lock,
                        ErrorReply(
                            id=getattr(frame, "id", None),
                            code="hello_required",
                            message="first frame must be 'hello'",
                        ),
                    )
                    continue
                if (
                    self.gate is not None
                    and ticket is not None
                    and isinstance(frame, (LocationUpdate, ServiceRequest))
                ):
                    rejection = self.gate.admit_op(ticket, frame.id)
                    if rejection is not None:
                        await self._write(writer, write_lock, rejection)
                        continue
                worker = asyncio.create_task(
                    self._serve_one(session, frame, writer, write_lock)
                )
                workers.add(worker)
                worker.add_done_callback(workers.discard)
        finally:
            if workers:
                await asyncio.gather(
                    *tuple(workers), return_exceptions=True
                )
            if self.gate is not None:
                self.gate.release(ticket)
            self.server.close_session(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(
        self,
        session: ClientSession,
        frame: Frame,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        reply = await self.server.submit(session, frame)
        await self._write(writer, write_lock, reply)

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        reply: Frame,
    ) -> None:
        data = encode_frame(reply, self.server.config.max_frame_bytes)
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
