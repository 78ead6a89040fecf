"""The commit journal alone: framing, torn tails, damage, replay, finalize."""

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
    load_journal,
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
        "datasets": [{
            "name": "rho", "mode": "key" if i % 4 == 0 else "delta",
            "ref": None if i % 4 == 0 else i - 1,
            "stored_bytes": 100 + i, "raw_bytes": 1000,
            "key_bytes": 200, "delta_bytes": None if i % 4 == 0 else 100 + i,
            "psnr": 60.0,
        }],
    }


def flip(path, offset):
    """Flip every bit of the byte at ``offset``."""
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0xFF]))


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

    def test_a_bad_crc_on_the_last_record_is_a_torn_tail(self, journal_dir):
        path, offsets = self.make_journal(journal_dir)
        flip(path, offsets[-1] - 2)             # inside the last step's payload
        view = read_journal(path)
        assert view.truncated
        assert [s["step"] for s in view.steps] == [0, 1, 2]
        assert view.end_offset == offsets[-2]

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
            assert tail.steps == [] and not tail.final
            assert tail.end_offset == offset
            j.append_step(step_json(1))
            j.append_step(step_json(2))
            tail = tail_journal(j.path, offset, crc)
            assert [s["step"] for s in tail.steps] == [1, 2]
            assert tail.end_offset == j.end_offset and not tail.final
            j.append_final()
            tail = tail_journal(j.path, tail.end_offset, crc)
            assert tail.steps == [] and tail.final

    def test_a_journal_that_shrank_is_corrupt(self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            j.append_step(step_json(0))
            offset, crc = j.end_offset, j.genesis_crc
        with open(j.path, "r+b") as f:
            f.truncate(offset - 1)
        with pytest.raises(CorruptFileError, match="no longer holds"):
            tail_journal(j.path, offset, crc)

    def test_another_genesis_is_corrupt(self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            offset, crc = j.end_offset, j.genesis_crc
        with pytest.raises(CorruptFileError, match="no longer holds"):
            tail_journal(j.path, offset, crc ^ 1)

    def test_a_removed_journal_is_corrupt(self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            offset, crc = j.end_offset, j.genesis_crc
        os.unlink(j.path)
        with pytest.raises(CorruptFileError, match="vanished"):
            tail_journal(j.path, offset, crc)


class TestReplay:
    def test_load_journal_builds_the_index(self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            for i in range(3):
                j.append_step(step_json(i))
        index, view = load_journal(journal_dir)
        assert not view.final
        assert index.nsteps == 3
        assert index.keyframe_interval == 4
        assert [s.kind for s in index.steps] == ["key", "delta", "delta"]

    def test_replay_is_idempotent(self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            for i in range(3):
                j.append_step(step_json(i))
            path = j.path
        index, view = load_journal(journal_dir)
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
        index, view = load_journal(journal_dir)
        before = list(index.steps)
        with SeriesJournal(journal_dir) as j:
            j.resume(read_journal(j.path))
            j.append_step(step_json(2))
        tail = tail_journal(os.path.join(journal_dir, JOURNAL_FILENAME),
                            view.end_offset, view.genesis_crc)
        appended = replay_journal(index, tail, path=journal_dir)
        assert appended == 1 and index.nsteps == 3
        for a, b in zip(before, index.steps):
            assert a is b


class TestDamageIsNotATail:
    """A record is a torn tail only when it reaches end of file."""

    def journal(self, journal_dir, nsteps=4):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            offsets = [j.end_offset]
            for i in range(nsteps):
                j.append_step(step_json(i))
                offsets.append(j.end_offset)
        return j, offsets

    def test_a_bad_crc_with_records_after_it_is_corrupt(self, journal_dir):
        j, offsets = self.journal(journal_dir)
        flip(j.path, offsets[2] + _RECORD_HEADER_SIZE + 10)   # inside step 2
        offset, crc = offsets[0], j.genesis_crc
        with pytest.raises(CorruptFileError, match="fails its CRC"):
            read_journal(j.path)
        with pytest.raises(CorruptFileError, match="fails its CRC"):
            tail_journal(j.path, offset, crc)

    @pytest.mark.parametrize("payload", [[1, 2], "x", {"record": "step", "step": 5}])
    def test_a_record_that_is_not_a_journal_record_is_corrupt(self, journal_dir,
                                                              payload):
        """Both scans agree: a payload passing its CRC is never a tail."""
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            offset, crc = j.end_offset, j.genesis_crc
            j.append_step(step_json(0))
            j._append(payload)
        with pytest.raises(CorruptFileError, match="not a journal record"):
            read_journal(j.path)
        with pytest.raises(CorruptFileError, match="not a journal record"):
            tail_journal(j.path, offset, crc)


class TestFinal:
    def test_finalized_exactly_when_final_is_the_last_record(self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            j.create(CONFIG)
            j.append_step(step_json(0))
            assert not read_journal(j.path).final
            j.append_final()
            assert read_journal(j.path).final
        # resuming appends after the final record; nothing is rewritten
        with open(j.path, "rb") as f:
            before = f.read()
        with SeriesJournal(journal_dir) as j:
            j.resume(read_journal(j.path))
            j.append_step(step_json(1))
        view = read_journal(j.path)
        assert not view.final and [s["index"] for s in view.steps] == [0, 1]
        index, _ = load_journal(journal_dir)
        assert index.nsteps == 2
        with open(j.path, "rb") as f:
            assert f.read(len(before)) == before

    def test_create_writes_the_genesis_only(self, journal_dir):
        with SeriesJournal(journal_dir) as j:
            with pytest.raises(ValueError, match="no steps"):
                j.create(dict(CONFIG, steps=[step_json(0)]))
            j.create(CONFIG)
        view = read_journal(j.path)
        assert view.steps == [] and not view.truncated and not view.final
        assert os.listdir(journal_dir) == [JOURNAL_FILENAME]


class TestFormatVersion:
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_an_older_journal_is_refused_by_number(self, journal_dir, version):
        config = {k: v for k, v in CONFIG.items() if k != "steps"}
        old = (struct.pack("<4sI", b"SJNL", version)
               + _frame_record({"record": "genesis", "resumed": 0, "config": config})
               + _frame_record({"record": "step", "step": step_json(0)}))
        path = os.path.join(journal_dir, JOURNAL_FILENAME)
        with open(path, "wb") as f:
            f.write(old)
        with pytest.raises(CorruptFileError, match=f"version {version} is not supported"):
            read_journal(path)
        with pytest.raises(CorruptFileError, match=f"version {version}"):
            load_journal(journal_dir)

    def test_a_directory_without_a_journal_is_not_a_series(self, journal_dir):
        with open(os.path.join(journal_dir, "series.h5z"), "wb") as f:
            f.write(b"a manifest of an older format")
        with pytest.raises(FileNotFoundError, match=JOURNAL_FILENAME):
            load_journal(journal_dir)
