"""Live readers: refresh semantics, cache preservation, concurrent access."""

import threading

import numpy as np
import pytest

import repro
from repro.errors import CorruptFileError
from repro.series.writer import SeriesWriter
from repro.stream.journal import JOURNAL_FILENAME

KEYFRAME_INTERVAL = 3


class TestRefresh:
    def test_refresh_picks_up_new_commits(self, hierarchies, tmp_path):
        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3, append=True)
        try:
            writer.append(hierarchies[0])
            handle = repro.open_series(directory)
            assert handle.live and len(handle.steps()) == 1
            writer.append(hierarchies[1])
            writer.append(hierarchies[2])
            assert handle.refresh() == 2
            assert handle.high_water == 2
            assert handle.refresh() == 0        # nothing new: a cheap no-op
        finally:
            writer.abort()

    def test_an_unfinished_plain_write_is_live(self, hierarchies, tmp_path):
        directory = str(tmp_path / "plain")
        writer = SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3)
        try:
            writer.append(hierarchies[0])
            with repro.open_series(directory) as handle:
                assert handle.live and len(handle.steps()) == 1
                for nsteps, h in enumerate(hierarchies[1:4], start=2):
                    writer.append(h)
                    assert handle.refresh() == 1
                    assert len(handle.steps()) == nsteps
        finally:
            writer.abort()

    def test_refresh_across_finalize_and_resume(self, hierarchies, tmp_path):
        """Finalize, then resume, between two polls: the steps after the
        ``final`` record are a tail like any other, neither lost nor repeated."""
        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3)
        writer.append(hierarchies[0])
        handle = repro.open_series(directory)
        try:
            writer.append(hierarchies[1])
            assert handle.refresh() == 1
            writer.close()                       # appends the final record
            writer = SeriesWriter(directory, append=True)   # steps after it
            writer.append(hierarchies[2])
            writer.append(hierarchies[3])
            assert handle.refresh() == 2
            assert handle.live
            assert [s.index for s in handle.index.steps] == list(range(4))
            assert [s.path for s in handle.index.steps] == \
                [f"plt{h.step:05d}.h5z" for h in hierarchies[:4]]
            writer.close()
            assert handle.refresh() == 0 and not handle.live
        finally:
            writer.abort()
            handle.close()

    def test_refresh_keeps_decoded_state_warm(self, hierarchies, tmp_path):
        """Committed steps are immutable: refresh must not invalidate them."""
        from repro.service.cache import ChunkCache

        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3, append=True)
        try:
            writer.append(hierarchies[0])
            cache = ChunkCache(max_bytes=1 << 28)
            handle = repro.open_series(directory, cache=cache)
            before_objects = list(handle.index.steps)
            arr0 = handle.read_field("baryon_density", step=0)
            decoded = cache.stats.misses
            writer.append(hierarchies[1])
            assert handle.refresh() == 1
            # the step-record objects survived the refresh identically
            for a, b in zip(before_objects, handle.index.steps):
                assert a is b
            # re-reading step 0 hits the warm cache: no new decodes
            again = handle.read_field("baryon_density", step=0)
            assert np.array_equal(arr0, again)
            assert cache.stats.misses == decoded
        finally:
            writer.abort()

    def test_refresh_detects_finalize(self, hierarchies, tmp_path):
        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3, append=True)
        writer.append(hierarchies[0])
        handle = repro.open_series(directory)
        assert handle.live
        writer.append(hierarchies[1])
        writer.close()                           # finalizes: a final record
        assert handle.refresh() == 1
        assert handle.live is False
        assert handle.refresh() == 0             # settled: free no-ops forever
        assert handle.describe()["live"] is False

    @pytest.mark.parametrize("damage", ["shrink", "genesis"])
    def test_a_journal_changed_under_the_handle_is_corrupt(self, hierarchies,
                                                           tmp_path, damage):
        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3, append=True)
        for h in hierarchies[:2]:
            writer.append(h)
        writer.abort()
        handle = repro.open_series(directory)
        path = f"{directory}/{JOURNAL_FILENAME}"
        with open(path, "r+b") as f:
            if damage == "shrink":
                f.truncate(handle._journal_offset - 1)
            else:
                f.seek(20)                       # the genesis record's CRC
                crc = f.read(1)
                f.seek(20)
                f.write(bytes([crc[0] ^ 0x01]))
        try:
            with pytest.raises(CorruptFileError, match="no longer holds"):
                handle.refresh()
            assert handle.nsteps == 2
        finally:
            handle.close()

    def test_catch_up_read_equals_post_finalize_read(self, hierarchies,
                                                     reference_dir, tmp_path):
        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3, append=True)
        handle = None
        mid_run = {}
        try:
            for i, h in enumerate(hierarchies):
                writer.append(h)
                if handle is None:
                    handle = repro.open_series(directory)
                else:
                    handle.refresh()
                mid_run[i] = handle.read_field("baryon_density", step=i)
        finally:
            writer.close()
        with repro.open_series(reference_dir) as reference:
            for i, arr in mid_run.items():
                want = reference.read_field("baryon_density", step=i)
                assert np.array_equal(arr, want), f"step {i} differs"


class TestConcurrentRefresh:
    def test_reader_threads_follow_a_writing_thread(self, hierarchies,
                                                    tmp_path):
        """Readers hammering refresh()+reads while the writer commits."""
        directory = str(tmp_path / "live")
        writer = SeriesWriter(directory, keyframe_interval=KEYFRAME_INTERVAL,
                              error_bound=1e-3, append=True)
        writer.append(hierarchies[0])
        handle = repro.open_series(directory)
        stop = threading.Event()
        failures = []

        def reader(tid):
            try:
                while not stop.is_set():
                    handle.refresh()
                    n = len(handle.steps())
                    if n == 0:
                        continue
                    step = (tid + n) % n
                    arr = handle.read_field("baryon_density", step=step)
                    if not np.isfinite(arr).all():
                        failures.append((tid, step, "non-finite"))
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append((tid, repr(exc)))

        threads = [threading.Thread(target=reader, args=(t,)) for t in range(3)]
        for t in threads:
            t.start()
        try:
            for h in hierarchies[1:]:
                writer.append(h)
            writer.close()                       # finalize under the readers
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
        assert failures == []
        handle.refresh()
        assert len(handle.steps()) == len(hierarchies)
        assert handle.live is False
