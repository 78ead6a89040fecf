"""The commit journal alone: framing, torn tails, replay, generations."""

import os
import struct

import pytest

from repro.errors import CorruptFileError
from repro.series.index import SeriesIndex
from repro.stream.journal import (
    GENESIS_OFFSET,
    JOURNAL_FILENAME,
    SeriesJournal,
    _frame_record,
    load_live_index,
    read_journal,
    replay_journal,
    tail_journal,
)

#: a minimal but fully valid series manifest JSON (no steps)
CONFIG = {
    "format": "amric-series", "version": 1, "codec": "temporal_delta",
    "error_bound": 1e-3, "error_bound_mode": "value_range",
    "keyframe_interval": 4, "unit_block_size": 4096,
    "remove_redundancy": True,
    "components": ["rho"],
    "field_grids": {"rho": {"eb_abs": 1e-3, "offset": 0.0}},
    "steps": [],
}

_RECORD_HEADER_SIZE = struct.calcsize("<4sQI")


def step_json(i):
    """A valid SeriesStepRecord JSON for journal index ``i``."""
    return {
        "index": i, "step": i, "time": float(i),
        "path": f"plt{i:05d}.h5z",
        "kind": "key" if i % 4 == 0 else "delta",
        "fingerprint": f"fp{i}",
        "datasets": [{
            "name": "rho", "mode": "key" if i % 4 == 0 else "delta",
            "ref": None if i % 4 == 0 else i - 1,
            "stored_bytes": 100 + i, "raw_bytes": 1000,
            "key_bytes": 200, "delta_bytes": None if i % 4 == 0 else 100 + i,
            "psnr": 60.0, "layout": "sfc",
        }],
    }


@pytest.fixture()
def journal_dir(tmp_path):
    d = str(tmp_path / "run")
    os.makedirs(d)
    return d


class TestFraming:
    def test_round_trip(self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            for i in range(5):
                j.append_step(step_json(i))
        view = read_journal(os.path.join(journal_dir, JOURNAL_FILENAME))
        assert not view.truncated
        assert [s["step"] for s in view.steps] == list(range(5))
        assert view.config["keyframe_interval"] == 4
        assert "steps" not in view.config       # genesis strips the step list

    def test_create_refuses_existing(self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
        with pytest.raises(ValueError, match="already exists"):
            SeriesJournal(journal_dir).create(CONFIG)

    def test_unknown_record_kinds_are_skipped(self, journal_dir):
        """Additive evolution: a v1 reader steps over records it cannot name."""
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            j.append_step(step_json(0))
            j._fh.write(_frame_record({"record": "from_the_future", "x": 42}))
            j._fh.flush()
            j.append_step(step_json(1))
        view = read_journal(os.path.join(journal_dir, JOURNAL_FILENAME))
        assert [s["step"] for s in view.steps] == [0, 1]
        assert not view.truncated


class TestTornTail:
    def make_journal(self, journal_dir, nsteps=4):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            offsets = []
            for i in range(nsteps):
                j.append_step(step_json(i))
                offsets.append(j.end_offset)
        return os.path.join(journal_dir, JOURNAL_FILENAME), offsets

    def test_truncated_mid_record_drops_only_the_tail(self, journal_dir):
        path, offsets = self.make_journal(journal_dir)
        # cut the last record in half: a crash mid-write
        with open(path, "r+b") as f:
            f.truncate(offsets[-2] + (offsets[-1] - offsets[-2]) // 2)
        view = read_journal(path)
        assert view.truncated
        assert [s["step"] for s in view.steps] == [0, 1, 2]
        assert view.end_offset == offsets[-2]

    def test_corrupt_crc_stops_replay_at_the_bad_record(self, journal_dir):
        path, offsets = self.make_journal(journal_dir)
        # flip a payload byte of the third step record (past its header)
        with open(path, "r+b") as f:
            f.seek(offsets[1] + _RECORD_HEADER_SIZE + 10)
            byte = f.read(1)
            f.seek(offsets[1] + _RECORD_HEADER_SIZE + 10)
            f.write(bytes([byte[0] ^ 0xFF]))
        view = read_journal(path)
        assert view.truncated
        assert [s["step"] for s in view.steps] == [0, 1]

    def test_resume_truncates_the_torn_tail(self, journal_dir):
        path, offsets = self.make_journal(journal_dir)
        with open(path, "r+b") as f:
            f.truncate(offsets[-1] - 3)
        view = read_journal(path)
        with SeriesJournal(journal_dir) as journal:
            journal.resume(view)
        assert [s["step"] for s in view.steps] == [0, 1, 2]
        assert os.path.getsize(path) == offsets[-2]
        # the repaired journal appends cleanly
        with SeriesJournal(journal_dir) as journal:
            journal.resume(read_journal(path))
            journal.append_step(step_json(3))
        assert [s["step"] for s in read_journal(path).steps] == [0, 1, 2, 3]

    def test_headless_file_is_an_error_not_a_tail(self, journal_dir):
        path, _ = self.make_journal(journal_dir)
        with open(path, "r+b") as f:
            f.truncate(GENESIS_OFFSET)
        with pytest.raises(ValueError, match="genesis"):
            read_journal(path)      # no genesis record => never a valid generation


class TestTailFastPath:
    def test_tail_sees_only_new_records(self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            j.append_step(step_json(0))
            offset, crc = j.end_offset, j.genesis_crc
            tail = tail_journal(j.path, offset, crc)
            assert tail.status == "ok" and tail.steps == []
            assert tail.end_offset == offset
            j.append_step(step_json(1))
            j.append_step(step_json(2))
            tail = tail_journal(j.path, offset, crc)
            assert tail.status == "ok"
            assert [s["step"] for s in tail.steps] == [1, 2]
            assert tail.end_offset == j.end_offset

    def test_removed_journal_reports_gone(self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            offset, crc = j.end_offset, j.genesis_crc
            path = j.path
            j.remove()
        assert tail_journal(path, offset, crc).status == "gone"


class TestReplay:
    def test_load_live_index_merges_journal_only_directories(self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            for i in range(3):
                j.append_step(step_json(i))
        index, view = load_live_index(journal_dir)
        assert view is not None
        assert index.nsteps == 3
        assert index.keyframe_interval == 4
        assert [s.kind for s in index.steps] == ["key", "delta", "delta"]

    def test_replay_is_idempotent(self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            for i in range(3):
                j.append_step(step_json(i))
            path = j.path
        index, view = load_live_index(journal_dir)
        appended = replay_journal(index, view, path=path)
        assert appended == 0 and index.nsteps == 3

    def test_replay_refuses_a_gap(self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            j.append_step(step_json(2))      # claims index 2 with 0 known steps
        view = read_journal(os.path.join(journal_dir, JOURNAL_FILENAME))
        index = SeriesIndex.from_json(CONFIG)
        with pytest.raises(ValueError, match="damaged"):
            replay_journal(index, view,
                           path=os.path.join(journal_dir, JOURNAL_FILENAME))

    def test_replay_preserves_existing_step_objects(self, journal_dir):
        """The cache-preservation invariant: replay only ever appends."""
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            for i in range(2):
                j.append_step(step_json(i))
        index, view = load_live_index(journal_dir)
        before = list(index.steps)
        with SeriesJournal(journal_dir) as j:
            j.resume(read_journal(j.path))
            j.append_step(step_json(2))
        tail = tail_journal(os.path.join(journal_dir, JOURNAL_FILENAME),
                            view.end_offset, view.genesis_crc)
        assert tail.status == "ok"
        appended = replay_journal(index, tail, path=journal_dir)
        assert appended == 1 and index.nsteps == 3
        for a, b in zip(before, index.steps):
            assert a is b


class TestOneScanner:
    def test_both_scans_stop_at_a_step_record_that_is_not_an_object(
            self, journal_dir):
        """A full read and a tail read agree record for record."""
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            offset, crc = j.end_offset, j.genesis_crc
            j.append_step(step_json(0))
            j._fh.write(_frame_record({"record": "step", "step": 5}))
            j._fh.flush()
            j.append_step(step_json(1))
        view = read_journal(j.path)
        tail = tail_journal(j.path, offset, crc)
        assert [s["step"] for s in view.steps] == [0]
        assert [s["step"] for s in tail.steps] == [0]
        assert view.truncated and tail.end_offset == view.end_offset


class TestGenerations:
    def test_a_resumed_generation_holds_every_step_under_a_new_id(
            self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            fresh_crc = j.genesis_crc
            j.remove()
        with SeriesJournal(journal_dir) as j:
            j.create(dict(CONFIG, steps=[step_json(i) for i in range(3)]))
            assert j.genesis_crc != fresh_crc
            j.append_step(step_json(3))
        index, view = load_live_index(journal_dir)
        assert index.nsteps == 4 and not view.truncated
        assert view.genesis_crc == j.genesis_crc

    def test_damage_inside_a_written_generation_is_not_a_torn_tail(
            self, journal_dir):
        """Steps a generation was written with are never cut off as a tail."""
        with SeriesJournal(journal_dir) as j:
            j.create(dict(CONFIG, steps=[step_json(i) for i in range(3)]))
            size = j.end_offset
        with open(j.path, "r+b") as f:
            f.seek(size - 1)
            byte = f.read(1)
            f.seek(size - 1)
            f.write(bytes([byte[0] ^ 0xFF]))     # inside step 2's payload
        with pytest.raises(CorruptFileError, match="fewer than the 3"):
            read_journal(j.path)


class TestFormatVersion:
    def test_a_v1_journal_is_refused_by_number(self, journal_dir):
        config = {k: v for k, v in CONFIG.items() if k != "steps"}
        v1 = (struct.pack("<4sI", b"SJNL", 1)
              + _frame_record({"record": "genesis", "journal_version": 1,
                               "base": 0, "config": config})
              + _frame_record({"record": "step", "step": step_json(0)}))
        path = os.path.join(journal_dir, JOURNAL_FILENAME)
        with open(path, "wb") as f:
            f.write(v1)
        with pytest.raises(CorruptFileError, match="version 1 is not supported"):
            read_journal(path)
        with pytest.raises(CorruptFileError, match="version 1"):
            load_live_index(journal_dir)
