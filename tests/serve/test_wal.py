"""Unit tests of the per-shard write-ahead log (repro.serve.wal)."""

from __future__ import annotations

import json
import os

import pytest

from repro.serve.protocol import LocationUpdate, ServiceRequest
from repro.obs.sinks import read_jsonl, rotated_paths
from repro.serve.wal import (
    WAL_NAME,
    ShardWal,
    WalCorruptionError,
    frame_of_record,
    op_record,
)


def records(n, start=0):
    return [
        {"s": s, "k": "u", "u": s % 3, "x": 1.0 * s,
         "y": 2.0 * s, "t": 10.0 * s}
        for s in range(start, start + n)
    ]


class TestRecords:
    def test_update_roundtrip(self):
        frame = LocationUpdate(
            id=7, user_id=3, x=1.5, y=-2.5, t=99.0, seq=41
        )
        record = op_record(frame, 41)
        back = frame_of_record(record)
        assert isinstance(back, LocationUpdate)
        assert (back.user_id, back.x, back.y, back.t, back.seq) == (
            3, 1.5, -2.5, 99.0, 41
        )

    def test_request_roundtrip_keeps_service(self):
        frame = ServiceRequest(
            id=7, user_id=3, x=1.5, y=-2.5, t=99.0, service="poi"
        )
        back = frame_of_record(op_record(frame, 5))
        assert isinstance(back, ServiceRequest)
        assert back.service == "poi"
        assert back.seq == 5

    def test_non_mutating_frame_rejected(self):
        from repro.serve.protocol import StatsRequest

        with pytest.raises(TypeError):
            op_record(StatsRequest(id=1), 0)


class TestAppendRecover:
    def test_roundtrip(self, tmp_path):
        wal = ShardWal(tmp_path)
        for record in records(10):
            wal.append(record)
        wal.close()
        assert list(ShardWal.recover(tmp_path)) == records(10)

    def test_new_incarnation_appends_after_clean_tail(self, tmp_path):
        first = ShardWal(tmp_path)
        for record in records(5):
            first.append(record)
        first.close()
        second = ShardWal(tmp_path)
        for record in records(5, start=5):
            second.append(record)
        second.close()
        # A log that ends in a newline cannot join two records, so the
        # next incarnation appends to it; recovery reads one stream.
        assert rotated_paths(tmp_path / WAL_NAME) == [tmp_path / WAL_NAME]
        assert list(ShardWal.recover(tmp_path)) == records(10)

    def test_torn_tail_in_crashed_live_segment_tolerated(self, tmp_path):
        wal = ShardWal(tmp_path)
        for record in records(5):
            wal.append(record)
        wal.close()
        # Simulate a crash mid-append: truncate the last line.
        live = tmp_path / WAL_NAME
        data = live.read_bytes()
        live.write_bytes(data[:-9])
        assert list(ShardWal.recover(tmp_path)) == records(4)
        # And a restart writes a fresh live segment, replay still clean.
        restarted = ShardWal(tmp_path)
        restarted.append(records(1, start=4)[0])
        restarted.close()
        assert list(ShardWal.recover(tmp_path)) == records(5)

    def test_recover_of_empty_directory_is_empty(self, tmp_path):
        assert list(ShardWal.recover(tmp_path)) == []
        assert list(ShardWal.recover(tmp_path / "never-made")) == []

    def test_creates_missing_directory(self, tmp_path):
        directory = tmp_path / "shards" / "0"
        wal = ShardWal(directory)
        wal.append(records(1)[0])
        wal.close()
        assert list(ShardWal.recover(directory)) == records(1)

    def test_non_monotonic_seq_raises(self, tmp_path):
        wal = ShardWal(tmp_path)
        wal.append({"s": 3, "k": "u", "u": 1, "x": 0.0, "y": 0.0,
                    "t": 0.0})
        wal.append({"s": 2, "k": "u", "u": 1, "x": 0.0, "y": 0.0,
                    "t": 0.0})
        wal.close()
        with pytest.raises(WalCorruptionError):
            list(ShardWal.recover(tmp_path))

    def test_repeated_seq_raises(self, tmp_path):
        wal = ShardWal(tmp_path)
        for record in records(2) + records(1, start=1):
            wal.append(record)
        wal.close()
        with pytest.raises(WalCorruptionError):
            list(ShardWal.recover(tmp_path))

    def test_record_without_integer_seq_raises(self, tmp_path):
        wal = ShardWal(tmp_path)
        wal.append(records(1)[0])
        wal.append({**records(1, start=1)[0], "s": "1"})
        wal.close()
        with pytest.raises(WalCorruptionError):
            list(ShardWal.recover(tmp_path))

    def test_seq_regression_across_segments_raises(self, tmp_path):
        # The seq check spans the whole chained stream, not one segment.
        wal = ShardWal(tmp_path)
        for record in records(4):
            wal.append(record)
        wal.close()
        live = tmp_path / WAL_NAME
        live.write_bytes(live.read_bytes()[:-5])
        restarted = ShardWal(tmp_path)
        restarted.append(records(1, start=1)[0])
        restarted.close()
        assert len(rotated_paths(live)) == 2
        with pytest.raises(WalCorruptionError):
            list(ShardWal.recover(tmp_path))

    def test_interior_corruption_raises(self, tmp_path):
        wal = ShardWal(tmp_path)
        for record in records(3):
            wal.append(record)
        wal.close()
        live = tmp_path / WAL_NAME
        lines = live.read_text().splitlines()
        lines[1] = lines[1][:-4] + "@@@"
        live.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            list(ShardWal.recover(tmp_path))

    def test_repeated_crashes_recover_in_segment_order(self, tmp_path):
        # Every crash-torn tail is sealed into its own numbered segment
        # on reopen; recovery chains them oldest first and drops only
        # the torn record of each.
        live = tmp_path / WAL_NAME
        for crash in range(3):
            wal = ShardWal(tmp_path)
            for record in records(4, start=4 * crash):
                wal.append(record)
            wal.close()
            live.write_bytes(live.read_bytes()[:-5])
        assert [p.name for p in rotated_paths(live)] == [
            f"{WAL_NAME}.1", f"{WAL_NAME}.2", WAL_NAME,
        ]
        survivors = [
            r for crash in range(3) for r in records(3, start=4 * crash)
        ]
        assert list(ShardWal.recover(tmp_path)) == survivors

    def test_batch_flushes_every_append(self, tmp_path):
        # A SIGKILL loses nothing appended under "batch": each record
        # reaches the OS before the op executes.
        wal = ShardWal(tmp_path)
        for record in records(3):
            wal.append(record)
        assert list(read_jsonl(tmp_path / WAL_NAME)) == records(3)
        wal.close()


class TestFsyncPolicy:
    def test_always_fsyncs_every_append(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        wal = ShardWal(tmp_path, "always")
        for record in records(3):
            wal.append(record)
        assert len(synced) == 3
        assert list(read_jsonl(tmp_path / WAL_NAME)) == records(3)
        wal.close()

    def test_batch_fsyncs_only_on_sync(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        wal = ShardWal(tmp_path, "batch")
        for record in records(3):
            wal.append(record)
        assert synced == []
        wal.sync()
        assert len(synced) == 1
        wal.close()

    def test_never_buffers_until_sync(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        wal = ShardWal(tmp_path, "never")
        for record in records(3):
            wal.append(record)
        # Small records stay in the stdio buffer until the drain.
        assert list(read_jsonl(tmp_path / WAL_NAME)) == []
        assert synced == []
        wal.sync()
        assert list(read_jsonl(tmp_path / WAL_NAME)) == records(3)
        assert len(synced) == 1
        wal.close()


class TestConfigValidation:
    def test_bad_fsync_policy(self, tmp_path):
        with pytest.raises(ValueError):
            ShardWal(tmp_path, "sometimes")

    def test_fsync_always_accepted(self, tmp_path):
        wal = ShardWal(tmp_path, "always")
        wal.append(records(1)[0])
        wal.close()
        assert list(ShardWal.recover(tmp_path)) == records(1)

    def test_records_are_compact_json(self, tmp_path):
        wal = ShardWal(tmp_path)
        wal.append(records(1)[0])
        wal.close()
        line = (tmp_path / f"{WAL_NAME}.1" if (
            tmp_path / f"{WAL_NAME}.1").exists() else tmp_path / WAL_NAME
        ).read_text().strip()
        assert json.loads(line) == records(1)[0]
        assert " " not in line
