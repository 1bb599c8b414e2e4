"""Async clients for the Trusted Server wire protocol.

Every client speaks one surface, written once in :class:`FrameClient`:
:meth:`~FrameClient.post` puts one frame on the carrier and returns a
future for its reply, :meth:`~FrameClient.send` posts and waits,
:meth:`~FrameClient.next_id` numbers frames, :meth:`~FrameClient.close`
is awaited, and the ``stats``/``drain``/``metrics``/``health``/
``traces``/``profile`` wrappers send one control frame each.  Three
clients implement it, one per transport:

* :class:`ServeClient` — NDJSON over TCP (or TLS) with full
  pipelining: :meth:`post` writes a frame synchronously (so the on-wire
  order of a single client is exactly its call order) and a background
  reader task resolves each future when the reply with its ``id``
  arrives; it also re-dials dropped sockets (``reconnect=N``);
* :class:`~repro.serve.http.HttpServeClient` — the same frames
  coalesced into ``POST /v1/frame`` bodies;
* :class:`~repro.serve.transports.LoopbackConnection` — in-process, no
  sockets.

Shed replies (``code="overloaded"``) are returned, not raised — they
are the server's explicit backpressure signal and carry the
``retry_after`` hint; only transport failures and handshake rejections
raise :class:`ServeClientError`.  :meth:`ServeClient.request` and
:meth:`ServeClient.update` optionally retry sheds with bounded
exponential backoff honoring that hint (``retries=N``).

Distributed tracing: pass an enabled ``telemetry`` and ``trace=True``
to ``connect`` and every sampled update/request gets a
``client.request`` root span, minted in :meth:`FrameClient.post`, whose
context rides the frame's ``trace`` field — the root of the causal
tree the server's admission/queue/dispatch/engine spans hang under.
Tracing is negotiated in hello/welcome; when either side declines, the
client sends no contexts and pays no tracing cost.
"""

from __future__ import annotations

import asyncio
import ssl as _ssl
from collections import deque
from typing import TypeVar

from repro.obs.config import Telemetry
from repro.obs.tracing import Span
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
    ProfileReply,
    ProfileRequest,
    ProtocolError,
    ServiceRequest,
    StatsReply,
    StatsRequest,
    TracesReply,
    TracesRequest,
    Welcome,
    clone_frame,
    decode_reply,
    encode_frame,
)

_SERVABLE = (LocationUpdate, ServiceRequest)
_Reply = TypeVar("_Reply", bound=Frame)


class ServeClientError(ConnectionError):
    """Handshake failure or transport loss (not a shed).

    When the failure was a typed server rejection (a refused
    handshake, e.g. the gate's ``bad_token`` or ``connection_limit``),
    ``reply`` carries the decoded :class:`ErrorReply` so callers can
    branch on ``reply.code`` instead of parsing the message.
    """

    def __init__(
        self, message: str, reply: "ErrorReply | None" = None
    ) -> None:
        super().__init__(message)
        self.reply = reply


def welcomed(reply: Frame) -> Welcome:
    """The hello's answer if it is a Welcome; else raise the refusal."""
    if isinstance(reply, Welcome):
        return reply
    raise ServeClientError(
        f"handshake rejected: {reply!r}",
        reply=reply if isinstance(reply, ErrorReply) else None,
    )


def backoff_s(
    attempt: int, base_s: float, cap_s: float, hint: float = 0.0
) -> float:
    """Bounded exponential backoff before retry number ``attempt + 1``.

    The larger of the server's ``retry_after`` ``hint`` and
    ``base_s · 2^attempt``, capped at ``cap_s``.
    """
    return min(cap_s, max(hint, base_s * 2.0**attempt))


def _finish_span(span: Span, future: "asyncio.Future[Frame]") -> None:
    """Close a client root span when its reply lands."""
    if future.cancelled() or future.exception() is not None:
        span.annotate(error="transport")
    else:
        reply = future.result()
        decision = getattr(reply, "decision", None)
        if decision is not None:
            span.annotate(decision=decision)
        elif isinstance(reply, ErrorReply):
            span.annotate(error=reply.code)
    span.end()


class FrameClient:
    """The call surface every client shares (see module doc).

    A client supplies :meth:`_post` (put one frame on its carrier and
    return the future of its reply) and :meth:`_shutdown`; socket
    clients also override :meth:`_flush`.
    """

    def __init__(
        self, welcome: Welcome, telemetry: "Telemetry | None"
    ) -> None:
        self.welcome = welcome
        self._telemetry = telemetry
        #: True only when tracing was negotiated (hello asked, welcome
        #: agreed) *and* this client can record spans locally.
        self.trace_enabled = bool(
            welcome.trace and telemetry is not None and telemetry.enabled
        )
        self._next_id = 0
        self._closed = False

    @staticmethod
    def hello(
        client: str,
        trace: bool,
        telemetry: "Telemetry | None",
        token: "str | None",
    ) -> Hello:
        """The hello every client opens with.

        It asks for tracing only when this side can record spans.
        """
        return Hello(
            client=client,
            trace=bool(
                trace and telemetry is not None and telemetry.enabled
            ),
            token=token,
        )

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def post(self, frame: Frame) -> "asyncio.Future[Frame]":
        """Send one frame now; the future resolves with its reply.

        When tracing was negotiated, a sampled update or request that
        carries no context gets one here.  With a sink attached it is
        the context of a ``client.request`` root span, ended when the
        reply lands.  With no sink that span could never be delivered,
        so only the wire identity is minted: the server still records
        exemplars and introspection entries for the trace.
        """
        if self._closed:
            raise ServeClientError("client is closed")
        if not (
            self.trace_enabled
            and isinstance(frame, _SERVABLE)
            and frame.trace is None
        ):
            return self._post(frame)
        assert self._telemetry is not None
        tracer = self._telemetry.tracer
        if not tracer.sample():
            return self._post(frame)
        if not tracer.sinks:
            return self._post(clone_frame(frame, trace=tracer.new_wire()))
        span = self._telemetry.start_span("client.request", op=frame.op)
        assert isinstance(span, Span)
        future = self._post(
            clone_frame(frame, trace=f"{span.trace_id}-{span.span_id}")
        )
        future.add_done_callback(lambda f: _finish_span(span, f))
        return future

    def _post(self, frame: Frame) -> "asyncio.Future[Frame]":
        raise NotImplementedError

    async def _flush(self) -> None:
        """Wait until posted frames are handed to the carrier."""

    async def _shutdown(self) -> None:
        raise NotImplementedError

    async def send(self, frame: Frame) -> Frame:
        """Post one frame and wait for its reply."""
        future = self.post(frame)
        await self._flush()
        return await future

    async def close(self) -> None:
        """Close the connection; replies still outstanding fail."""
        if self._closed:
            return
        self._closed = True
        await self._shutdown()

    # -- control-op wrappers ------------------------------------------

    async def _ask(self, frame: Frame, expected: type[_Reply]) -> _Reply:
        reply = await self.send(frame)
        if not isinstance(reply, expected):
            raise ServeClientError(f"unexpected {frame.op} reply: {reply!r}")
        return reply

    async def stats(self) -> StatsReply:
        """Fetch the server's live serving counters."""
        return await self._ask(StatsRequest(id=self.next_id()), StatsReply)

    async def drain(self) -> DrainReply:
        """Ask the server to drain; resolves when the queue is empty."""
        return await self._ask(DrainRequest(id=self.next_id()), DrainReply)

    async def metrics(self, format: str = "prometheus") -> MetricsReply:
        """Scrape the server's metrics registry (text exposition)."""
        return await self._ask(
            MetricsRequest(id=self.next_id(), format=format), MetricsReply
        )

    async def health(self) -> HealthReply:
        """One-frame liveness/readiness probe."""
        return await self._ask(HealthRequest(id=self.next_id()), HealthReply)

    async def traces(self, limit: int = 20) -> TracesReply:
        """Fetch the server's recent completed traces (JSON body)."""
        return await self._ask(
            TracesRequest(id=self.next_id(), limit=limit), TracesReply
        )

    async def profile(
        self,
        action: str = "status",
        interval_ms: float = 5.0,
        limit: int = 200,
    ) -> ProfileReply:
        """Drive the server's sampling profiler (``profile`` op).

        Unlike sheds, a profiler error is a caller mistake or a server
        without telemetry, so :class:`ErrorReply` raises
        :class:`ServeClientError` carrying the server's code/message.
        """
        reply = await self.send(
            ProfileRequest(
                id=self.next_id(),
                action=action,
                interval_ms=interval_ms,
                limit=limit,
            )
        )
        if isinstance(reply, ErrorReply):
            raise ServeClientError(
                f"profile {action!r} failed: {reply.code}: "
                f"{reply.message}"
            )
        if not isinstance(reply, ProfileReply):
            raise ServeClientError(
                f"unexpected profile reply: {reply!r}"
            )
        return reply


class ServeClient(FrameClient):
    """One pipelined NDJSON connection to a Trusted Server."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        welcome: Welcome,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        telemetry: Telemetry | None = None,
        connect_args: "dict | None" = None,
        reconnect: int = 0,
        reconnect_base_s: float = 0.05,
        reconnect_cap_s: float = 2.0,
    ) -> None:
        super().__init__(welcome, telemetry)
        self._reader = reader
        self._writer = writer
        self._max_frame_bytes = max_frame_bytes
        #: kwargs for :meth:`_handshake`, kept so a dropped socket can
        #: be re-dialed in place (None disables reconnection).
        self._connect_args = connect_args
        self._reconnect_limit = reconnect
        self._reconnect_base_s = reconnect_base_s
        self._reconnect_cap_s = reconnect_cap_s
        self._reconnect_lock = asyncio.Lock()
        #: Bumped on every successful reconnect so concurrent senders
        #: that all saw the same dead socket re-dial only once.
        self._generation = 0
        #: Total successful reconnects over this client's lifetime.
        self.reconnects = 0
        self._pending: dict[int, "asyncio.Future[Frame]"] = {}
        #: Futures of id-less frames (a re-hello), answered in order
        #: by the id-less replies.
        self._unkeyed: "deque[asyncio.Future[Frame]]" = deque()
        self._reader_task = asyncio.create_task(
            self._read_loop(), name="repro-serve-client-reader"
        )

    @staticmethod
    async def _handshake(
        host: str,
        port: int,
        max_frame_bytes: int,
        hello: Hello,
        ssl: "_ssl.SSLContext | None",
    ) -> "tuple[asyncio.StreamReader, asyncio.StreamWriter, Welcome]":
        """Dial, send hello, await welcome; one connection attempt.

        A typed server rejection (the gate's ``bad_token`` /
        ``connection_limit``, or a version refusal) raises
        :class:`ServeClientError` with the decoded reply attached —
        callers must not retry those, only transport-level failures.
        """
        reader, writer = await asyncio.open_connection(
            host, port, limit=max_frame_bytes, ssl=ssl
        )
        writer.write(encode_frame(hello, max_frame_bytes))
        await writer.drain()
        line = await reader.readline()
        if not line:
            writer.close()
            raise ServeClientError("server closed during handshake")
        reply = decode_reply(line, max_frame_bytes)
        if not isinstance(reply, Welcome):
            writer.close()
        return reader, writer, welcomed(reply)

    @classmethod
    async def _dial(
        cls, connect_args: dict, budget: int, base_s: float, cap_s: float
    ) -> "tuple[asyncio.StreamReader, asyncio.StreamWriter, Welcome]":
        """:meth:`_handshake`, re-dialed up to ``budget`` times.

        Only transport failures are retried, after a bounded
        exponential backoff; typed rejections raise at once.
        """
        attempt = 0
        while True:
            try:
                return await cls._handshake(**connect_args)
            except (ConnectionError, OSError) as exc:
                if getattr(exc, "reply", None) is not None or (
                    attempt >= budget
                ):
                    raise
                await asyncio.sleep(backoff_s(attempt, base_s, cap_s))
                attempt += 1

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        client: str = "client",
        max_frame_bytes: int = MAX_FRAME_BYTES,
        telemetry: Telemetry | None = None,
        trace: bool = False,
        ssl: "_ssl.SSLContext | None" = None,
        token: "str | None" = None,
        reconnect: int = 0,
        reconnect_base_s: float = 0.05,
        reconnect_cap_s: float = 2.0,
    ) -> "ServeClient":
        """Open a connection and perform the version handshake.

        ``trace=True`` (with an enabled ``telemetry``) asks the server
        to accept trace contexts; the Welcome's ``trace`` echo decides
        whether they actually flow.  ``ssl`` (usually
        :func:`repro.serve.transports.client_ssl_context`) upgrades the
        dial to TLS; ``token`` rides the hello for the server's gate.

        ``reconnect=N`` makes the client survive a dropped socket
        (connection refused/reset, e.g. a worker respawning): the
        initial dial and every awaitable send re-dial up to N times
        with bounded exponential backoff.  Typed rejections
        (``bad_token``…) never retry.
        """
        connect_args = dict(
            host=host,
            port=port,
            max_frame_bytes=max_frame_bytes,
            hello=cls.hello(client, trace, telemetry, token),
            ssl=ssl,
        )
        reader, writer, welcome = await cls._dial(
            connect_args, reconnect, reconnect_base_s, reconnect_cap_s
        )
        return cls(
            reader,
            writer,
            welcome,
            max_frame_bytes,
            telemetry=telemetry,
            connect_args=connect_args,
            reconnect=reconnect,
            reconnect_base_s=reconnect_base_s,
            reconnect_cap_s=reconnect_cap_s,
        )

    # -- pipelined sends ----------------------------------------------

    def _post(self, frame: Frame) -> "asyncio.Future[Frame]":
        if self._reader_task.done():
            raise ServeClientError("connection closed")
        frame_id = getattr(frame, "id", None)
        if frame_id is not None and int(frame_id) in self._pending:
            # Replies are matched by id: a second frame under a pending
            # id would leave the first future unresolved forever.
            raise ServeClientError(f"id {frame_id} is already pending")
        line = encode_frame(frame, self._max_frame_bytes)
        future: "asyncio.Future[Frame]" = (
            asyncio.get_running_loop().create_future()
        )
        if frame_id is None:
            self._unkeyed.append(future)
        else:
            self._pending[int(frame_id)] = future
        self._writer.write(line)
        return future

    async def _flush(self) -> None:
        await self._writer.drain()

    def post_request(
        self,
        user_id: int,
        x: float,
        y: float,
        t: float,
        service: str = "default",
    ) -> "asyncio.Future[Frame]":
        """Pipeline one service request (open-loop send)."""
        return self.post(
            ServiceRequest(
                id=self.next_id(),
                user_id=user_id,
                x=x,
                y=y,
                t=t,
                service=service,
            )
        )

    def post_update(
        self, user_id: int, x: float, y: float, t: float
    ) -> "asyncio.Future[Frame]":
        """Pipeline one location update."""
        return self.post(
            LocationUpdate(id=self.next_id(), user_id=user_id, x=x, y=y, t=t)
        )

    # -- awaitable wrappers -------------------------------------------

    async def request(
        self,
        user_id: int,
        x: float,
        y: float,
        t: float,
        service: str = "default",
        retries: int = 0,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 5.0,
    ) -> Frame:
        """Issue one service request; returns DecisionReply or ErrorReply.

        ``retries`` resubmits load-shed replies (``code="overloaded"``)
        up to that many times with bounded exponential backoff, waiting
        the larger of the server's ``retry_after`` hint and
        ``backoff_base_s · 2^attempt``, capped at ``backoff_cap_s``.
        Only sheds are retried — every other reply (including
        ``draining``) is final.
        """

        def send() -> "asyncio.Future[Frame]":
            return self.post_request(user_id, x, y, t, service)

        return await self._send_with_retry(
            send, retries, backoff_base_s, backoff_cap_s
        )

    async def update(
        self,
        user_id: int,
        x: float,
        y: float,
        t: float,
        retries: int = 0,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 5.0,
    ) -> Frame:
        """Report one location update; returns UpdateAck or ErrorReply.

        Retry semantics match :meth:`request`.
        """

        def send() -> "asyncio.Future[Frame]":
            return self.post_update(user_id, x, y, t)

        return await self._send_with_retry(
            send, retries, backoff_base_s, backoff_cap_s
        )

    async def _send_with_retry(
        self,
        send,
        retries: int,
        backoff_base_s: float,
        backoff_cap_s: float,
    ) -> Frame:
        attempt = 0
        redials = 0
        while True:
            generation = self._generation
            future: "asyncio.Future[Frame] | None" = None
            try:
                future = send()
                await self._flush()
                reply = await future
            except (ConnectionError, OSError) as exc:
                if future is not None and not future.done():
                    # The op future was never awaited (drain failed
                    # first); cancel it so the reconnect's pending
                    # sweep doesn't strand an unretrieved exception.
                    future.cancel()
                # Transport loss mid-send.  With a reconnect budget the
                # client re-dials and resubmits; typed rejections (a
                # gate refusal on re-hello) and exhausted budgets are
                # final.  The lost op was never acked, so resubmission
                # is the caller's only correct move anyway.
                if (
                    getattr(exc, "reply", None) is not None
                    or self._connect_args is None
                    or redials >= self._reconnect_limit
                ):
                    raise
                await self._reconnect(generation)
                redials += 1
                continue
            shed = isinstance(reply, ErrorReply) and reply.is_shed
            if not shed or attempt >= retries:
                return reply
            await asyncio.sleep(
                backoff_s(
                    attempt,
                    backoff_base_s,
                    backoff_cap_s,
                    hint=reply.retry_after or 0.0,
                )
            )
            attempt += 1

    async def _reconnect(self, generation: int) -> None:
        """Re-dial and re-handshake in place.

        ``generation`` is what the failing sender observed: if another
        sender already restored the connection (generation moved on),
        this is a no-op — one dead socket costs one re-dial no matter
        how many ops were in flight on it.
        """
        assert self._connect_args is not None
        async with self._reconnect_lock:
            if self._closed:
                raise ServeClientError("client is closed")
            if self._generation != generation:
                return
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._writer.close()
            self._fail_pending(
                ServeClientError("connection lost; reconnecting")
            )
            self._reader, self._writer, self.welcome = await self._dial(
                self._connect_args,
                self._reconnect_limit,
                self._reconnect_base_s,
                self._reconnect_cap_s,
            )
            self._generation += 1
            self.reconnects += 1
            self._reader_task = asyncio.create_task(
                self._read_loop(), name="repro-serve-client-reader"
            )

    @property
    def pending(self) -> int:
        """Posted frames still waiting for a reply."""
        return len(self._pending) + len(self._unkeyed)

    # -- reader and teardown ------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    reply = decode_reply(line, self._max_frame_bytes)
                except ProtocolError as exc:
                    self._fail_pending(
                        ServeClientError(f"undecodable reply: {exc}")
                    )
                    break
                reply_id = getattr(reply, "id", None)
                if reply_id is not None:
                    future = self._pending.pop(int(reply_id), None)
                elif self._unkeyed:
                    future = self._unkeyed.popleft()
                else:
                    # Connection-level error: fail everything pending.
                    self._fail_pending(
                        ServeClientError(f"connection error: {reply!r}")
                    )
                    continue
                if future is not None and not future.done():
                    future.set_result(reply)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._fail_pending(
                ServeClientError("connection closed with replies pending")
            )

    def _fail_pending(self, error: Exception) -> None:
        futures = [*self._pending.values(), *self._unkeyed]
        self._pending = {}
        self._unkeyed.clear()
        for future in futures:
            if not future.done():
                future.set_exception(error)

    async def _shutdown(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
