"""Ring buffer, JSONL round-trip, console logging routing."""

import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.config import TelemetryConfig
from repro.obs.metrics import MetricsSnapshot
from repro.obs.sinks import (
    JSONL_READ_STATS,
    ConsoleSink,
    JsonlSink,
    RingBufferSink,
    read_jsonl,
    read_jsonl_rotated,
    rotated_paths,
)


class TestRingBuffer:
    def test_keeps_most_recent(self):
        sink = RingBufferSink(capacity=3)
        for i in range(10):
            sink.emit({"type": "span", "name": f"s{i}"})
        assert len(sink) == 3
        assert [e["name"] for e in sink.spans()] == ["s7", "s8", "s9"]

    def test_copies_events(self):
        sink = RingBufferSink()
        event = {"type": "span", "name": "a"}
        sink.emit(event)
        event["name"] = "mutated"
        assert sink.spans()[0]["name"] == "a"


class TestJsonl:
    def test_round_trip_spans_and_snapshot(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        telemetry = TelemetryConfig(
            enabled=True, jsonl_path=str(path)
        ).build()
        with telemetry.span("outer", user=1):
            with telemetry.span("inner"):
                pass
        telemetry.count("ts.decisions", decision="forwarded")
        telemetry.observe("latency_ms", 1.25)
        telemetry.close()

        events = list(read_jsonl(path))
        spans = [e for e in events if e["type"] == "span"]
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert spans[0]["parent"] == "outer"
        assert spans[1]["attributes"] == {"user": 1}

        snapshots = [e for e in events if e["type"] == "metrics_snapshot"]
        assert len(snapshots) == 1
        restored = MetricsSnapshot.from_dict(snapshots[0])
        assert (
            restored.counter_value("ts.decisions", decision="forwarded")
            == 1
        )
        summary = restored.histogram_summary("latency_ms")
        assert summary.count == 1
        assert summary.maximum == 1.25

    def test_append_only(self, tmp_path):
        path = tmp_path / "t.jsonl"
        for _round in range(2):
            sink = JsonlSink(path)
            sink.emit({"type": "span", "name": "x"})
            sink.close()
        assert len(list(read_jsonl(path))) == 2

    def test_flush_every_bounds_buffered_data(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, flush_every=2)
        sink.emit({"type": "span", "name": "a"})
        # One event may still sit in the stdio buffer …
        assert len(list(read_jsonl(path))) <= 1
        sink.emit({"type": "span", "name": "b"})
        # … but the second write crossed the flush threshold.
        assert len(list(read_jsonl(path))) == 2
        sink.emit({"type": "span", "name": "c"})
        sink.emit({"type": "span", "name": "d"})
        assert len(list(read_jsonl(path))) == 4
        sink.close()

    def test_flush_every_zero_defers_to_explicit_flush(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, flush_every=0)
        # Small events stay in the stdio buffer until flushed.
        sink.emit({"type": "span", "name": "a"})
        assert list(read_jsonl(path)) == []
        sink.flush()
        assert len(list(read_jsonl(path))) == 1
        sink.close()

    def test_rejects_negative_flush_every(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            JsonlSink(tmp_path / "t.jsonl", flush_every=-1)

    def test_sync_flushes_and_fsyncs(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit({"i": 0})
        assert list(read_jsonl(path)) == []
        sink.sync()
        assert list(read_jsonl(path)) == [{"i": 0}]
        assert synced == [sink._file.fileno()]
        sink.close()

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"i": 0})

    def test_flush_sync_close_after_close_are_noops(
        self, tmp_path, monkeypatch
    ):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.flush()
        sink.sync()
        sink.close()
        assert synced == []

    def test_config_passes_flush_every_through(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry = TelemetryConfig(
            enabled=True, jsonl_path=str(path), jsonl_flush_every=1
        ).build()
        telemetry.event("ping", n=1)
        assert [e["type"] for e in read_jsonl(path)] == ["ping"]
        telemetry.close()


class TestReadJsonlCorruption:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_truncated_final_line_skipped_with_warning(
        self, tmp_path, caplog
    ):
        path = tmp_path / "t.jsonl"
        self._write(path, ['{"type":"span"}', '{"type":"sp'])
        before = JSONL_READ_STATS.skipped
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            events = list(read_jsonl(path))
        assert events == [{"type": "span"}]
        assert JSONL_READ_STATS.skipped == before + 1
        assert any(
            "truncated final JSONL line" in r.getMessage()
            for r in caplog.records
        )

    def test_corrupt_interior_line_always_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(
            path, ['{"type":"span"}', "garbage", '{"type":"span"}']
        )
        with pytest.raises(ValueError, match="corrupt JSONL line"):
            list(read_jsonl(path))

    def test_strict_raises_on_truncated_final_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(path, ['{"type":"span"}', '{"bad'])
        with pytest.raises(ValueError):
            list(read_jsonl(path, strict=True))

    def test_clean_file_does_not_touch_stats(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(path, ['{"a":1}', "", '{"b":2}'])
        before = JSONL_READ_STATS.skipped
        assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}]
        assert JSONL_READ_STATS.skipped == before


class TestTornTailSeal:
    """A crashed writer's torn tail must stay segment-final forever.

    The failure mode these pin: reopening a crash-truncated live file
    in append mode used to concatenate the next record onto the torn
    line, turning a tolerated segment-final truncation into an
    interior corrupt line that poisoned the whole stream.  WAL
    recovery (repro.serve.wal) depends on these guarantees.
    """

    def test_reopen_seals_torn_live_file_into_segment(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit({"i": 0})
        sink.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"i": 1')  # crash mid-emit, no newline
        reopened = JsonlSink(path)
        reopened.emit({"i": 2})
        reopened.close()
        # The torn file became its own rotated segment...
        assert (tmp_path / "t.jsonl.1").exists()
        assert reopened.rotations == 1
        # ...so the torn record is segment-final and every complete
        # record on either side of it survives a chained read.
        events = list(read_jsonl_rotated(path))
        assert [e["i"] for e in events] == [0, 2]

    def test_reopen_after_clean_close_does_not_rotate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit({"i": 0})
        sink.close()
        reopened = JsonlSink(path)
        reopened.emit({"i": 1})
        reopened.close()
        assert rotated_paths(path) == [path]
        assert [e["i"] for e in read_jsonl(path)] == [0, 1]

    def test_torn_seal_continues_existing_suffix_sequence(
        self, tmp_path
    ):
        path = tmp_path / "t.jsonl"
        for crash in range(3):
            sink = JsonlSink(path)
            for i in range(2):
                sink.emit({"i": 10 * crash + i})
            sink.close()
            with path.open("a", encoding="utf-8") as handle:
                handle.write('{"i": 99')
        reopened = JsonlSink(path)
        reopened.emit({"i": 100})
        reopened.close()
        segments = rotated_paths(path)
        assert [p.name for p in segments] == [
            "t.jsonl.1", "t.jsonl.2", "t.jsonl.3", "t.jsonl",
        ]
        events = [e["i"] for e in read_jsonl_rotated(path)]
        assert events == [0, 1, 10, 11, 20, 21, 100]

    def test_truncated_live_file_tolerated_across_segments(
        self, tmp_path
    ):
        path = tmp_path / "t.jsonl"
        for i in range(2):
            sink = JsonlSink(path)
            sink.emit({"i": i})
            sink.close()
            # Simulate a writer dying mid-line: the first torn tail is
            # sealed by the reopen, the second stays on the live file.
            with path.open("a", encoding="utf-8") as handle:
                handle.write('{"i": 99')
        assert len(rotated_paths(path)) == 2
        assert [e["i"] for e in read_jsonl_rotated(path)] == [0, 1]

    def test_truncated_record_in_rotated_segment_tolerated(
        self, tmp_path
    ):
        # Any segment — not just the live file — may end torn (a
        # sealed pre-crash live file does); reads must tolerate it.
        path = tmp_path / "t.jsonl"
        (tmp_path / "t.jsonl.1").write_text(
            '{"i": 0}\n{"i": 1', encoding="utf-8"
        )
        path.write_text('{"i": 2}\n', encoding="utf-8")
        assert [e["i"] for e in read_jsonl_rotated(path)] == [0, 2]

    def test_torn_tail_followed_by_blank_lines_tolerated(
        self, tmp_path
    ):
        path = tmp_path / "t.jsonl"
        path.write_text('{"i": 0}\n{"i": 1\n\n \n', encoding="utf-8")
        assert [e["i"] for e in read_jsonl(path)] == [0]

    def test_empty_live_file_not_sealed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.touch()
        sink = JsonlSink(path)
        sink.emit({"i": 0})
        sink.close()
        assert rotated_paths(path) == [path]


class TestSegments:
    """Sealed ``<path>.<n>`` segments are read back in numeric order."""

    def test_read_rotated_preserves_order_and_count(self, tmp_path):
        path = tmp_path / "t.jsonl"
        n, per_life = 40, 8
        for start in range(0, n, per_life):
            sink = JsonlSink(path)
            for i in range(start, start + per_life):
                sink.emit({"i": i})
            sink.close()
            with path.open("a", encoding="utf-8") as handle:
                handle.write('{"i": -1')
        assert len(rotated_paths(path)) == n // per_life
        events = list(read_jsonl_rotated(path))
        assert [e["i"] for e in events] == list(range(n))

    def test_reopen_continues_suffix_sequence(self, tmp_path):
        # Suffixes sort as numbers: a seal after ``.9`` is ``.10``, and
        # ``.10`` is read after ``.2`` and ``.9``, not between them.
        path = tmp_path / "t.jsonl"
        (tmp_path / "t.jsonl.2").write_text('{"i": 0}\n', encoding="utf-8")
        (tmp_path / "t.jsonl.9").write_text('{"i": 1}\n', encoding="utf-8")
        path.write_text('{"i": 2}\n{"i": 99', encoding="utf-8")
        sink = JsonlSink(path)
        sink.emit({"i": 3})
        sink.close()
        assert [p.name for p in rotated_paths(path)] == [
            "t.jsonl.2", "t.jsonl.9", "t.jsonl.10", "t.jsonl",
        ]
        assert [e["i"] for e in read_jsonl_rotated(path)] == [0, 1, 2, 3]

    def test_rotated_paths_ignores_non_numeric_suffixes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        for name in ("t.jsonl.bak", "t.jsonl.1x", "t.jsonl.tmp"):
            (tmp_path / name).write_text('{"i": 99}\n', encoding="utf-8")
        (tmp_path / "t.jsonl.1").write_text('{"i": 0}\n', encoding="utf-8")
        path.write_text('{"i": 1}\n', encoding="utf-8")
        assert rotated_paths(path) == [tmp_path / "t.jsonl.1", path]
        assert [e["i"] for e in read_jsonl_rotated(path)] == [0, 1]

    def test_sealed_segments_without_live_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        (tmp_path / "t.jsonl.1").write_text('{"i": 0}\n', encoding="utf-8")
        assert rotated_paths(path) == [tmp_path / "t.jsonl.1"]
        assert [e["i"] for e in read_jsonl_rotated(path)] == [0]

    def test_missing_log_reads_empty(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert rotated_paths(path) == []
        assert list(read_jsonl_rotated(path)) == []


#: One writer of the shared-file test: opens the sink, reports ready,
#: waits for "go" on stdin, then emits its events as fast as it can.
_WRITER = """
import sys
from repro.obs.sinks import JsonlSink
writer, n = int(sys.argv[1]), int(sys.argv[2])
sink = JsonlSink(sys.argv[3])
print("ready", flush=True)
sys.stdin.readline()
for i in range(n):
    sink.emit({"type": "span", "w": writer, "i": i, "pad": "x" * (i % 97)})
sink.close()
"""


class TestSharedFile:
    """A supervised fleet's processes all append to one trace file."""

    def test_concurrent_writers_keep_every_record(self, tmp_path):
        path = tmp_path / "fleet.jsonl"
        n, writers = 20_000, 3
        # The supervisor has written before its workers open the file:
        # a reopen must append to it, never seal it aside.
        supervisor = JsonlSink(path)
        supervisor.emit({"type": "span", "w": -1, "i": 0})
        supervisor.flush()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).parents[2] / "src")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER, str(w), str(n), str(path)],
                env=env,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for w in range(writers)
        ]
        try:
            for proc in procs:
                assert proc.stdout.readline().strip() == "ready"
            for proc in procs:
                proc.stdin.write("go\n")
                proc.stdin.flush()
            for proc in procs:
                assert proc.wait(timeout=120) == 0
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
            supervisor.close()
        before = JSONL_READ_STATS.skipped
        events = list(read_jsonl_rotated(path))
        assert JSONL_READ_STATS.skipped == before
        assert rotated_paths(path) == [path]
        for w in range(writers):
            # Each writer's records arrive whole and in its own order.
            assert [e["i"] for e in events if e["w"] == w] == list(
                range(n)
            )
        assert len(events) == 1 + writers * n


class TestConsole:
    def test_routes_through_repro_logger(self, caplog):
        sink = ConsoleSink()
        with caplog.at_level(logging.INFO, logger="repro.obs"):
            sink.emit(
                {
                    "type": "span",
                    "name": "ts.request",
                    "depth": 0,
                    "duration_ms": 1.5,
                    "attributes": {"decision": "forwarded"},
                }
            )
            sink.emit({"type": "metrics_snapshot", "counters": []})
        messages = [r.getMessage() for r in caplog.records]
        assert any("ts.request" in m for m in messages)
        assert any("metrics snapshot" in m for m in messages)
        assert all(r.name == "repro.obs" for r in caplog.records)

    def test_slo_alerts_log_as_warnings(self, caplog):
        sink = ConsoleSink()
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            sink.emit(
                {
                    "type": "slo_alert",
                    "rule": "k_attainment >= 0.95",
                    "state": "breach",
                    "value": 0.8,
                    "threshold": 0.95,
                    "t": 3600.0,
                }
            )
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "k_attainment >= 0.95" in record.getMessage()

    def test_library_is_silent_by_default(self):
        """The package installs a NullHandler on the "repro" root."""
        logger = logging.getLogger("repro")
        assert any(
            isinstance(h, logging.NullHandler) for h in logger.handlers
        )
