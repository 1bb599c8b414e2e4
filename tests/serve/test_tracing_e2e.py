"""End-to-end distributed tracing through the serving stack.

One TCP request must reconstruct to a single causal tree — client send
→ admission → queue wait → dispatch → engine stages → reply — from a
JSONL sink by ``trace_id`` alone; interleaved loopback clients (and a
drain racing in-flight work) must never produce orphan spans; and span
trees from any JSONL sink must reconstruct acyclically (a hypothesis
property over arbitrary nesting shapes).  The serving cases run on one
shard (the daemon's default shape) and on four.
"""

from __future__ import annotations

import asyncio
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.config import TelemetryConfig
from repro.obs.sinks import read_jsonl
from repro.obs.tracing import Tracer
from repro.serve.client import ServeClient
from repro.serve.protocol import DecisionReply, ErrorReply
from repro.serve.shard import ShardRouter
from repro.serve.transports import LoopbackTransport, TcpTransport

from tests.serve.test_server import request_frames, update_frame


SHARD_COUNTS = pytest.mark.parametrize("n_shards", [1, 4])


def span_events(events):
    return [e for e in events if e.get("type") == "span"]


def by_trace(events):
    trees: dict[str, list[dict]] = {}
    for event in span_events(events):
        if event.get("trace_id") is not None:
            trees.setdefault(event["trace_id"], []).append(event)
    return trees


def assert_tree_complete(spans):
    """One root, every parent_id resolves in-tree: no orphans."""
    ids = {s["span_id"] for s in spans}
    roots = [s for s in spans if s["parent_id"] is None]
    assert len(roots) == 1, [s["name"] for s in spans]
    assert roots[0]["name"] == "client.request"
    for span in spans:
        if span["parent_id"] is not None:
            assert span["parent_id"] in ids, (
                f"orphan span {span['name']}: parent "
                f"{span['parent_id']} not in tree"
            )


@SHARD_COUNTS
def test_single_tcp_request_is_one_causal_tree(
    workload, workload_config, tmp_path, n_shards
):
    """The acceptance criterion: client → … → reply, one trace_id."""
    jsonl = tmp_path / "trace.jsonl"
    server = ShardRouter(
        workload,
        workload_config,
        n_shards=n_shards,
        telemetry=TelemetryConfig(enabled=True, jsonl_path=str(jsonl)),
    )

    async def run():
        await server.start()
        transport = TcpTransport(server)
        host, port = await transport.start()
        client = await ServeClient.connect(
            host, port, telemetry=server.telemetry, trace=True
        )
        assert client.trace_enabled
        (frame,) = request_frames(workload, 1)
        reply = await client.request(
            frame.user_id, frame.x, frame.y, frame.t, frame.service
        )
        await client.close()
        await transport.stop()
        await server.close()
        return reply

    reply = asyncio.run(run())
    assert isinstance(reply, DecisionReply)
    assert reply.trace is not None
    trace_id = reply.trace.split("-")[0]
    server.telemetry.close()

    trees = by_trace(read_jsonl(str(jsonl)))
    assert list(trees) == [trace_id]
    spans = trees[trace_id]
    assert_tree_complete(spans)
    names = {s["name"] for s in spans}
    # The full serving chain is present in the one tree.
    assert {
        "client.request",
        "serve.admission",
        "serve.queue_wait",
        "serve.dispatch",
        "ts.request",
    } <= names
    stage_spans = {n for n in names if n.startswith("engine.")}
    assert "engine.audit" in stage_spans
    assert len(stage_spans) >= 3
    # Stage spans hang under ts.request, which hangs under dispatch.
    by_id = {s["span_id"]: s for s in spans}
    ts_span = next(s for s in spans if s["name"] == "ts.request")
    assert by_id[ts_span["parent_id"]]["name"] == "serve.dispatch"
    for span in spans:
        if span["name"].startswith("engine."):
            assert by_id[span["parent_id"]]["name"] == "ts.request"
    # The decision event joined the same trace.
    decisions = [
        e
        for e in read_jsonl(str(jsonl))
        if e.get("type") == "ts.decision"
    ]
    assert decisions and decisions[0]["trace_id"] == trace_id


@SHARD_COUNTS
def test_interleaved_loopback_clients_no_orphans(
    workload, workload_config, n_shards
):
    """8 traced clients, interleaved pipelined sends, drain mid-flight."""
    server = ShardRouter(
        workload,
        workload_config,
        n_shards=n_shards,
        telemetry=TelemetryConfig(enabled=True, ring_buffer=16384),
    )

    async def run():
        await server.start()
        transport = LoopbackTransport(server)
        conns = [
            transport.connect(client=f"c{i}", trace=True)
            for i in range(8)
        ]
        frames = request_frames(workload, 32)
        futures = []
        # Interleave: consecutive frames go to different connections.
        for index, frame in enumerate(frames[:24]):
            futures.append(conns[index % 8].post(frame))
            futures.append(
                conns[(index + 3) % 8].post(
                    update_frame(workload, frame_id=1000 + index)
                )
            )
            if index % 5 == 0:
                await asyncio.sleep(0)
        # Drain while sends are still in flight: the tail gets
        # "draining" replies, which must still close their spans.
        drain_task = asyncio.create_task(server.drain())
        for index, frame in enumerate(frames[24:]):
            futures.append(conns[index % 8].post(frame))
        replies = await asyncio.gather(*futures)
        await drain_task
        for conn in conns:
            conn.close()
        await server.close()
        return replies

    replies = asyncio.run(run())
    ring = server.telemetry.ring()
    assert ring is not None
    trees = by_trace(list(ring.events))
    assert trees, "traced run recorded no trace trees"
    for spans in trees.values():
        assert_tree_complete(spans)
    # Every reply (decision, ack, or draining rejection) echoed its
    # trace, and each echoed trace has a complete tree.
    echoed = {
        r.trace.split("-")[0] for r in replies if r.trace is not None
    }
    assert echoed
    assert echoed <= set(trees)
    served = {
        t
        for t, spans in trees.items()
        if any(s["name"] == "serve.dispatch" for s in spans)
    }
    rejected = [
        r
        for r in replies
        if isinstance(r, ErrorReply) and r.code == "draining"
    ]
    assert served, "no request made it through dispatch before drain"
    if rejected:
        # Rejected traces end at admission: root + admission only.
        for reply in rejected:
            if reply.trace is None:
                continue
            spans = trees[reply.trace.split("-")[0]]
            names = {s["name"] for s in spans}
            assert "serve.dispatch" not in names
            assert "serve.admission" in names


@SHARD_COUNTS
def test_untraced_session_pays_no_tracing(
    workload, workload_config, n_shards
):
    """No negotiation → no spans, no trace echoes, no recent_traces."""
    server = ShardRouter(
        workload,
        workload_config,
        n_shards=n_shards,
        telemetry=TelemetryConfig(enabled=True),
    )

    async def run():
        await server.start()
        conn = LoopbackTransport(server).connect()  # trace=False
        (frame,) = request_frames(workload, 1)
        reply = await conn.send(frame)
        await server.close()
        return reply

    reply = asyncio.run(run())
    assert isinstance(reply, DecisionReply)
    assert reply.trace is None
    assert len(server.recent_traces) == 0
    assert server.telemetry.tracer.finished == (
        # Only the engine's own local ts.request span fired.
        1
    )


# ---------------------------------------------------------------------
# acyclic reconstruction property
# ---------------------------------------------------------------------

_FILE_SEQ = itertools.count()

tree_shapes = st.recursive(
    st.just(()),
    lambda children: st.tuples(children, children),
    max_leaves=12,
)


@settings(max_examples=25, deadline=None)
@given(shape=tree_shapes, data=st.data())
def test_jsonl_span_trees_reconstruct_acyclically(
    shape, data, tmp_path_factory
):
    """Arbitrary nesting shapes emit spans whose parent links form a
    forest: every chain terminates at a root without revisiting."""
    path = tmp_path_factory.mktemp("spans") / (
        f"spans_{next(_FILE_SEQ)}.jsonl"
    )
    from repro.obs.sinks import JsonlSink

    sink = JsonlSink(str(path))
    tracer = Tracer(sinks=[sink], seed=data.draw(st.integers(0, 2**16)))

    def walk(node, depth=0):
        with tracer.span(f"n{depth}"):
            for child in node:
                walk(child, depth + 1)

    walk(shape)
    walk(shape)  # a second root: the file holds a forest, not a tree
    sink.close()

    spans = span_events(read_jsonl(str(path)))
    assert len(spans) >= 2
    by_id = {s["span_id"]: s for s in spans}
    assert len(by_id) == len(spans)  # span ids are unique
    for span in spans:
        seen = set()
        node = span
        while node["parent_id"] is not None:
            assert node["span_id"] not in seen, "cycle in span tree"
            seen.add(node["span_id"])
            assert node["parent_id"] in by_id, "orphan parent link"
            node = by_id[node["parent_id"]]
        assert node["parent_id"] is None  # terminated at a root
