"""Series writing through the journal: one commit path, crash recovery,
resume, finalize."""

import hashlib
import os

import numpy as np
import pytest

import repro
from repro.errors import CorruptFileError
from repro.series.index import SeriesIndex
from repro.series.writer import SeriesWriter
from repro.stream.journal import JOURNAL_FILENAME, read_journal

NSTEPS = 7                  # matches the conftest simulation run
KEYFRAME_INTERVAL = 3


def assert_series_equal(directory, reference_dir, field="baryon_density"):
    """Element-wise equality of every step against the reference series."""
    with repro.open_series(directory) as got, \
            repro.open_series(reference_dir) as want:
        assert len(got.steps()) == len(want.steps())
        for i in range(len(want.steps())):
            a = got.read_field(field, step=i)
            b = want.read_field(field, step=i)
            assert np.array_equal(a, b), f"step {i} differs"


def file_digests(directory):
    """sha256 of every file in ``directory``, by name."""
    digests = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def journal_path(directory):
    return os.path.join(directory, JOURNAL_FILENAME)


class TestFinalize:
    def test_a_finalized_series_is_step_files_and_its_journal(
            self, hierarchies, reference_dir, tmp_path):
        directory = str(tmp_path / "live")
        repro.write_series(hierarchies, directory,
                           keyframe_interval=KEYFRAME_INTERVAL, error_bound=1e-3,
                           append=True)
        names = set(os.listdir(directory))
        assert names == {JOURNAL_FILENAME} | {f"plt{h.step:05d}.h5z"
                                              for h in hierarchies}
        assert read_journal(journal_path(directory)).final
        assert SeriesIndex.load(directory).nsteps == NSTEPS
        with repro.open_series(directory) as handle:
            assert handle.live is False
        assert_series_equal(directory, reference_dir)

    def test_every_committed_value_matches_non_append(self, hierarchies,
                                                      reference_dir, tmp_path):
        """Same snapshots, same bounds => identical decoded values."""
        directory = str(tmp_path / "live")
        with SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                          error_bound=1e-3, append=True) as writer:
            for h in hierarchies:
                writer.append(h)
        assert_series_equal(directory, reference_dir)


class TestOneCommitPath:
    """``append`` only decides whether an existing directory may be resumed:
    a plain writer commits every step through the journal too."""

    def test_plain_and_append_writes_leave_the_same_files(self, hierarchies,
                                                          tmp_path):
        plain, resumable = str(tmp_path / "plain"), str(tmp_path / "append")
        writers = [SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                                error_bound=1e-3, append=append)
                   for directory, append in ((plain, False), (resumable, True))]
        try:
            for h in hierarchies:
                for writer in writers:
                    writer.append(h)
                # mid-run both are the same live series: step files + journal
                digests = file_digests(plain)
                assert JOURNAL_FILENAME in digests
                assert digests == file_digests(resumable)
        finally:
            for writer in writers:
                writer.close()
        assert file_digests(plain) == file_digests(resumable)

    def test_a_plain_write_that_raises_is_resumable(self, hierarchies,
                                                    reference_dir, tmp_path):
        directory = str(tmp_path / "plain")
        with pytest.raises(RuntimeError, match="sim blew up"):
            with SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3) as writer:
                for h in hierarchies[:4]:
                    writer.append(h)
                raise RuntimeError("sim blew up")
        assert not read_journal(journal_path(directory)).final
        with SeriesWriter(directory, append=True) as writer:
            assert writer.nsteps == 4
            for h in hierarchies[4:]:
                writer.append(h)
        assert_series_equal(directory, reference_dir)

    def test_a_crash_inside_finalize_leaves_a_live_series(self, hierarchies,
                                                          tmp_path):
        """A torn ``final`` record is a torn tail: the series stays live and
        a resume drops the torn bytes and finalizes again."""
        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3)
        for h in hierarchies[:3]:
            writer.append(h)
        committed = writer.journal.end_offset
        writer.close()
        with open(journal_path(directory), "r+b") as f:
            f.truncate(os.path.getsize(journal_path(directory)) - 2)
        with repro.open_series(directory) as handle:
            assert handle.live and len(handle.steps()) == 3
        with SeriesWriter(directory, append=True) as writer:
            assert writer.journal.end_offset == committed
            writer.append(hierarchies[3])
        view = read_journal(journal_path(directory))
        assert view.final and len(view.steps) == 4


class TestLiveDirectory:
    def test_mid_run_directory_opens_live(self, hierarchies, tmp_path):
        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3, append=True)
        try:
            for h in hierarchies[:3]:
                writer.append(h)
            handle = repro.open_series(directory)
            assert handle.live is True
            assert handle.high_water == 2
            arr = handle.read_field("baryon_density", step=2)
            assert arr.size > 0
        finally:
            writer.abort()


class TestCrashRecovery:
    def write_partial(self, hierarchies, directory, upto):
        writer = SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3, append=True)
        for h in hierarchies[:upto]:
            writer.append(h)
        writer.abort()      # leaves the journal exactly as a crash would

    def test_resume_completes_the_series(self, hierarchies, reference_dir,
                                         tmp_path):
        directory = str(tmp_path / "live")
        self.write_partial(hierarchies, directory, 4)
        with SeriesWriter(directory, append=True) as writer:
            assert writer.nsteps == 4
            # recovery adopts the manifest's knobs, not the defaults
            assert writer.keyframe_interval == KEYFRAME_INTERVAL
            assert writer.config.error_bound == 1e-3
            for h in hierarchies[4:]:
                writer.append(h)
        assert_series_equal(directory, reference_dir)

    def test_torn_journal_tail_recovers_to_last_complete_step(
            self, hierarchies, tmp_path):
        directory = str(tmp_path / "live")
        self.write_partial(hierarchies, directory, 4)
        path = os.path.join(directory, JOURNAL_FILENAME)
        # tear the last commit record mid-write
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 7)
        with SeriesWriter(directory, append=True) as writer:
            assert writer.nsteps == 3
            writer.append(hierarchies[3])
            assert writer.nsteps == 4
        with repro.open_series(directory) as handle:
            assert len(handle.steps()) == 4

    def test_orphan_step_file_is_overwritten_on_resume(self, hierarchies,
                                                       tmp_path):
        """A crash between the plt fsync and the journal record leaves an
        orphan file; the resumed commit of that step must reclaim it."""
        directory = str(tmp_path / "live")
        self.write_partial(hierarchies, directory, 3)
        orphan = os.path.join(directory,
                              f"plt{hierarchies[3].step:05d}.h5z")
        with open(orphan, "wb") as f:
            f.write(b"half a plotfile")
        with SeriesWriter(directory, append=True) as writer:
            writer.append(hierarchies[3])
        with repro.open_series(directory) as handle:
            arr = handle.read_field("baryon_density", step=3)
            assert np.isfinite(arr).all()

    def test_resumed_step_is_a_keyframe(self, hierarchies, tmp_path):
        """The rolling delta reference dies with the process: the first step
        after a restart must be self-contained."""
        directory = str(tmp_path / "live")
        self.write_partial(hierarchies, directory, 2)
        with SeriesWriter(directory, append=True) as writer:
            writer.append(hierarchies[2])        # index 2: normally a delta
        with repro.open_series(directory) as handle:
            assert handle.index.steps[2].kind == "key"

    def test_reopening_a_finalized_series_appends_more_steps(
            self, hierarchies, tmp_path):
        directory = str(tmp_path / "live")
        repro.write_series(hierarchies[:4], directory,
                           keyframe_interval=KEYFRAME_INTERVAL, error_bound=1e-3,
                           append=True)
        with open(journal_path(directory), "rb") as f:
            finalized = f.read()
        with SeriesWriter(directory, append=True) as writer:
            assert writer.nsteps == 4
            for h in hierarchies[4:]:
                writer.append(h)
        # the steps land after the final record; no record is rewritten
        with open(journal_path(directory), "rb") as f:
            assert f.read(len(finalized)) == finalized
        with repro.open_series(directory) as handle:
            assert len(handle.steps()) == NSTEPS and not handle.live

    def test_mid_journal_damage_is_refused_not_truncated(self, hierarchies,
                                                         tmp_path):
        """A damaged record with committed records after it is not a torn
        tail: readers and a resume raise, and the journal keeps every byte."""
        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3, append=True)
        offsets = []
        for h in hierarchies[:6]:
            offsets.append(writer.journal.end_offset)
            writer.append(h)
        writer.abort()
        path = journal_path(directory)
        size = os.path.getsize(path)
        at = (offsets[2] + offsets[3]) // 2          # inside step record 2
        with open(path, "r+b") as f:
            f.seek(at)
            byte = f.read(1)
            f.seek(at)
            f.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(CorruptFileError):
            repro.open_series(directory)
        with pytest.raises(CorruptFileError):
            SeriesWriter(directory, append=True)
        assert os.path.getsize(path) == size

    def test_exception_mid_run_leaves_a_resumable_directory(
            self, hierarchies, tmp_path):
        directory = str(tmp_path / "live")
        with pytest.raises(RuntimeError, match="sim blew up"):
            with SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3, append=True) as writer:
                writer.append(hierarchies[0])
                writer.append(hierarchies[1])
                raise RuntimeError("sim blew up")
        assert os.path.exists(os.path.join(directory, JOURNAL_FILENAME))
        with repro.open_series(directory) as handle:
            assert handle.live is True and len(handle.steps()) == 2


class TestGuards:
    def test_non_append_refuses_a_finalized_series(self, hierarchies, tmp_path):
        directory = str(tmp_path / "done")
        repro.write_series(hierarchies[:2], directory, error_bound=1e-3)
        with pytest.raises(ValueError, match="append=True"):
            SeriesWriter(directory)

    def test_non_append_refuses_a_live_journal(self, hierarchies, tmp_path):
        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, error_bound=1e-3, append=True)
        writer.append(hierarchies[0])
        writer.abort()
        with pytest.raises(ValueError, match="append=True"):
            SeriesWriter(directory)

    def test_append_after_finalize_raises(self, hierarchies, tmp_path):
        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, error_bound=1e-3, append=True)
        writer.append(hierarchies[0])
        writer.finalize()
        with pytest.raises(ValueError, match="finalized"):
            writer.append(hierarchies[1])
        writer.close()


class TestAtomicGenesis:
    def test_create_leaves_no_temp_files(self, hierarchies, tmp_path):
        directory = str(tmp_path / "plain")
        repro.write_series(hierarchies[:3], directory, error_bound=1e-3)
        leftovers = [n for n in os.listdir(directory) if n.endswith(".tmp")]
        assert leftovers == []
        assert SeriesIndex.load(directory).nsteps == 3
