"""Raw-socket open-loop traffic generator.

The generator sends pre-rendered NDJSON lines (only the ``id`` is spliced
in per send) and only pulls the correlation id out of each reply, so
the client spends a fraction of the daemon's CPU per operation: the
numbers measure the daemon, not the load generator.

Each connection (a :class:`Lane`) owns a fixed set of users and walks
their operations in timeline order, wrapping around at the end, so every
user's operations reach the server in per-user order however the
connections interleave.
"""

from __future__ import annotations

import asyncio
import re
from collections import defaultdict
from dataclasses import dataclass, field

from wire import BenchError, dial

#: Longest the generator waits for outstanding replies after sending stops.
REPLY_TIMEOUT_S = 30.0
#: The correlation id of a reply line (``"msgid"`` cannot match).
_REPLY_ID = re.compile(rb'"id":(\d+)')


@dataclass
class Lane:
    """One connection's share of the traffic and everything it saw."""

    #: ``(head, tail)`` per operation: the line is
    #: ``head + str(id) + tail``.
    ops: "list[tuple[bytes, bytes]]"
    #: Index into the global op list of each of ``ops`` (for replay).
    origin: "list[int]"
    #: Per sent op, in send order: when it was due, when its reply
    #: arrived, and the raw reply line.  Lines
    #: stay unparsed until the run ends: bytes are not tracked by the
    #: garbage collector, so the client's collections stay short.
    sent_at: "list[float]" = field(default_factory=list)
    done_at: "list[float]" = field(default_factory=list)
    replies: "list[bytes | None]" = field(default_factory=list)
    answered: int = 0

    @property
    def sent(self) -> int:
        return len(self.sent_at)

    def next_line(self, due: float) -> bytes:
        """Record the next op as sent (due at ``due``); its wire line."""
        k = len(self.sent_at)
        head, tail = self.ops[k % len(self.ops)]
        self.sent_at.append(due)
        self.done_at.append(0.0)
        self.replies.append(None)
        return head + str(k + 1).encode() + tail


def render(op: str, user_id: int, x: float, y: float, t: float) -> tuple:
    """Pre-render one operation as ``(head, tail)``."""
    head = f'{{"op":"{op}","id":'.encode()
    body = f',"user_id":{user_id},"x":{x!r},"y":{y!r},"t":{t!r}'
    if op == "request":
        body += ',"service":"poi"'
    return (head, (body + "}\n").encode())


async def _read_replies(lane: Lane, reader: asyncio.StreamReader) -> None:
    """Match replies to sends by id, forever (the caller cancels)."""
    loop = asyncio.get_running_loop()
    while True:
        line = await reader.readline()
        if not line:
            raise BenchError("daemon closed the connection mid-run")
        now = loop.time()
        match = _REPLY_ID.search(line)
        index = int(match.group(1)) - 1 if match else -1
        if not 0 <= index < lane.sent or lane.replies[index] is not None:
            raise BenchError(f"uncorrelated reply: {line!r}")
        lane.replies[index] = line
        lane.done_at[index] = now
        lane.answered += 1


async def _settle(
    lanes: "list[Lane]", readers: "list[asyncio.Task[None]]"
) -> None:
    """Wait until every sent op is answered, then stop the readers."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + REPLY_TIMEOUT_S
    try:
        while any(lane.answered < lane.sent for lane in lanes):
            for reader in readers:
                if reader.done():
                    reader.result()  # re-raises the reader's failure
            if loop.time() > deadline:
                raise BenchError("replies still missing after sending")
            await asyncio.sleep(0.002)
    finally:
        for reader in readers:
            reader.cancel()
        await asyncio.gather(*readers, return_exceptions=True)


async def _dial_lanes(
    port: int, count: int, spans: "dict[str, list[float]]"
) -> "list[tuple]":
    """One connection per lane; each handshake is a client span."""
    loop = asyncio.get_running_loop()
    dialed = []
    for index in range(count):
        start = loop.time()
        dialed.append(await dial(port, f"perfbench-{index}"))
        spans.setdefault("handshake", []).append(loop.time() - start)
    return dialed


async def open_loop(
    port: int,
    lanes: "list[Lane]",
    rate: float,
    burst: int,
    warmup_s: float,
    seconds: float,
    spans: "dict[str, list[float]]",
) -> "tuple[float, float]":
    """Send on a fixed schedule (``rate`` ops/s over all lanes).

    Once every lane has dialed, ops fall due ``burst`` at a time: op
    ``i`` of the merged schedule is due ``(i // burst) * burst / rate``
    seconds in, whether or not earlier replies came back.  ``sent_at``
    records the due time, so a stall is charged to every op it delays;
    how late each send actually went out is the ``lateness`` span.
    Sending stops ``warmup_s + seconds`` in; returns the measured
    window, the last ``seconds`` of it, in loop time.
    """
    loop = asyncio.get_running_loop()
    dialed = await _dial_lanes(port, len(lanes), spans)
    # Interleave lanes in proportion to their share of the ops.
    total = sum(len(lane.ops) for lane in lanes)
    schedule = [
        index
        for _key, index in sorted(
            (k * total / len(lane.ops), index)
            for index, lane in enumerate(lanes)
            for k in range(len(lane.ops))
        )
    ]
    lateness = spans.setdefault("lateness", [])
    readers = [
        asyncio.create_task(_read_replies(lane, reader))
        for lane, (reader, _writer) in zip(lanes, dialed)
    ]
    # Ops due together leave in one write per connection, so the last
    # op of a burst does not wait on a syscall per op before it.
    pending: "dict[int, list[bytes]]" = defaultdict(list)

    def flush() -> None:
        for index, lines in pending.items():
            dialed[index][1].write(b"".join(lines))
        pending.clear()

    start_at = loop.time()
    stop_at = start_at + warmup_s + seconds
    try:
        i = 0
        while True:
            due = start_at + (i // burst) * burst / rate
            if due >= stop_at:
                break
            now = loop.time()
            if due > now:
                flush()
                await asyncio.sleep(due - now)
                continue
            index = schedule[i % len(schedule)]
            lateness.append(now - due)
            pending[index].append(lanes[index].next_line(due))
            i += 1
        flush()
        await _settle(lanes, readers)
    finally:
        for _reader, writer in dialed:
            writer.close()
    return stop_at - seconds, stop_at
