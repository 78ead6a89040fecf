"""The series subsystem end to end: writer, manifest, reader, delta chains."""

import os

import numpy as np
import pytest

import repro
from repro import open_series
from repro.amr.box import Box
from repro.amr.distribution import DistributionMapping
from repro.amr.upsample import covered_mask
from repro.apps.base import build_two_level_hierarchy
from repro.apps.nyx import NyxSimulation
from repro.compress.huffman import HuffmanCodec
from repro.compress.temporal import MODE_DELTA, TemporalDeltaCodec
from repro.h5lite.file import H5LiteFile
from repro.h5lite.source import LocalFileSource, RangeSource
from repro.parallel.backend import SharedMemoryBackend
from repro.series import SeriesIndex, SeriesWriter
from repro.stream.journal import JOURNAL_FILENAME
from repro.series.reader import _PASS_STREAMS
from repro.service.cache import ChunkCache

NSTEPS = 10                    # the acceptance criterion's series length
KEYFRAME_INTERVAL = 3


def make_sim():
    return NyxSimulation(coarse_shape=(24, 24, 24), nranks=2,
                         target_fine_density=0.03, max_grid_size=12, seed=42,
                         drift_rate=0.05, growth_rate=0.02, regrid_interval=3)


@pytest.fixture(scope="module")
def hierarchies():
    return list(make_sim().run(NSTEPS))


@pytest.fixture(scope="module")
def series_dir(hierarchies, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("series") / "run")
    repro.write_series(hierarchies, path, keyframe_interval=KEYFRAME_INTERVAL,
                       error_bound=1e-3)
    return path


@pytest.fixture(scope="module")
def keyonly_dir(hierarchies, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("series") / "keyonly")
    repro.write_series(hierarchies, path, keyframe_interval=1, error_bound=1e-3)
    return path


class TestSeriesWriter:
    def test_directory_layout(self, series_dir, hierarchies):
        names = set(os.listdir(series_dir))
        assert names == {JOURNAL_FILENAME} | {f"plt{h.step:05d}.h5z"
                                              for h in hierarchies}

    def test_manifest_round_trips(self, series_dir):
        index = SeriesIndex.load(series_dir)
        assert index.nsteps == NSTEPS
        assert index.codec == "temporal_delta"
        assert index.keyframe_interval == KEYFRAME_INTERVAL
        assert set(index.field_grids) == set(index.components)
        reparsed = SeriesIndex.from_json(index.to_json())
        assert reparsed.to_json() == index.to_json()

    def test_keyframe_cadence(self, series_dir):
        index = SeriesIndex.load(series_dir)
        for step in index.steps:
            if step.index % KEYFRAME_INTERVAL == 0:
                assert step.kind == "key"
                assert all(d.mode == "key" for d in step.datasets)

    def test_delta_actually_saves(self, series_dir, keyonly_dir):
        delta_bytes = SeriesIndex.load(series_dir).stored_bytes
        key_bytes = SeriesIndex.load(keyonly_dir).stored_bytes
        assert delta_bytes < key_bytes
        # the manifest's keyframe-only accounting is what the key candidates'
        # tables imply: under the real key-only run, within DESIGN.md §6's band
        assert 0.85 * key_bytes <= SeriesIndex.load(series_dir).key_bytes <= key_bytes

    def test_delta_never_worse_per_dataset(self, series_dir, keyonly_dir):
        index, keyonly = SeriesIndex.load(series_dir), SeriesIndex.load(keyonly_dir)
        for step, key_step in zip(index.steps, keyonly.steps):
            for d, k in zip(step.datasets, key_step.datasets):
                # the rule, from the manifest alone ...
                assert (d.mode == "delta") == (d.delta_bytes is not None
                                               and d.delta_bytes < d.key_bytes)
                # ... and what it bought, in committed bytes
                assert d.name == k.name and d.stored_bytes <= k.stored_bytes

    def test_reports_look_like_write_reports(self, hierarchies, tmp_path):
        reports = repro.write_series(hierarchies[:2], str(tmp_path / "r"),
                                     keyframe_interval=2, error_bound=1e-3)
        assert len(reports) == 2
        assert reports[0].method == "series(temporal_delta)"
        assert reports[0].compression_ratio > 2
        assert reports[0].ndatasets == len(SeriesIndex.load(
            str(tmp_path / "r")).steps[0].datasets)

    def test_refuses_existing_series(self, series_dir, hierarchies):
        with pytest.raises(ValueError, match="already holds a series"):
            SeriesWriter(series_dir)

    def test_refuses_duplicate_step(self, hierarchies, tmp_path):
        with SeriesWriter(str(tmp_path / "dup"), error_bound=1e-3) as writer:
            writer.append(hierarchies[0])
            with pytest.raises(ValueError, match="distinct step"):
                writer.append(hierarchies[0])

    def test_refuses_bad_interval(self, tmp_path):
        with pytest.raises(ValueError, match="keyframe_interval"):
            SeriesWriter(str(tmp_path / "k0"), keyframe_interval=0)


class TestNaiveSeries:
    """A series written without the modified filter (``modify_filter=False``):
    each chunk codes its rank's zero tail too, and records the padded size."""

    def test_uneven_ranks_read_back(self, tmp_path):
        sim = NyxSimulation(coarse_shape=(24, 24, 24), nranks=3,     # 8 boxes: uneven
                            target_fine_density=0.03, max_grid_size=12, seed=42,
                            drift_rate=0.05, growth_rate=0.02, regrid_interval=3)
        hierarchies = list(sim.run(4))
        path = str(tmp_path / "naive")
        with SeriesWriter(path, keyframe_interval=3, error_bound=1e-3,
                          modify_filter=False) as writer:
            for hierarchy in hierarchies:
                writer.append(hierarchy)
        box = Box((4, 4, 4), (9, 9, 9))
        with open_series(path) as series:
            _, values = series.time_slice("temperature", box=box, level=0, refill=False)
            eb_abs = series.index.field_grids["temperature"].eb_abs
            for i, original in enumerate(hierarchies):
                decoded = series.read(step=i)
                ref = original[0].multifab.to_global("temperature", original[0].domain)
                got = decoded[0].multifab.to_global("temperature", original[0].domain)
                kept = ~covered_mask(original, 0)
                assert np.abs(ref - got)[kept].max() <= eb_abs * (1 + 1e-9)
                raw = series.read_field("temperature", step=i, refill=False)
                assert np.array_equal(values[i], raw[4:10, 4:10, 4:10])
            key_path = os.path.join(path, series.steps()[0].path)
            chained = series.read_field("temperature", step=0, refill=False)
        with repro.open(key_path) as handle:      # a keyframe decodes on its own too
            assert np.array_equal(handle.read_field("temperature", refill=False), chained)


class TestBackendIdentity:
    def test_all_backends_write_identical_bytes(self, hierarchies, tmp_path):
        dirs = {}
        with SharedMemoryBackend(max_workers=2) as pool:
            for name, backend in (("serial", None), ("shm", pool)):
                path = str(tmp_path / name)
                repro.write_series(hierarchies[:4], path, keyframe_interval=4,
                                   error_bound=1e-3, backend=backend)
                dirs[name] = path
        reference = dirs.pop("serial")
        files = sorted(f for f in os.listdir(reference) if f.endswith(".h5z"))
        for backend, path in dirs.items():
            for name in files:
                with open(os.path.join(reference, name), "rb") as a, \
                        open(os.path.join(path, name), "rb") as b:
                    assert a.read() == b.read(), (backend, name)


class TestSeriesReader:
    def test_decodes_identical_to_keyframe_only(self, series_dir, keyonly_dir):
        with open_series(series_dir) as delta, open_series(keyonly_dir) as key:
            for i in range(NSTEPS):
                hd = delta.read(step=i)
                hk = key.read(step=i)
                for lvl_d, lvl_k in zip(hd.levels, hk.levels):
                    for fab_d, fab_k in zip(lvl_d.multifab, lvl_k.multifab):
                        assert np.array_equal(fab_d.data, fab_k.data)

    def test_error_bound_on_kept_cells(self, series_dir, hierarchies):
        with open_series(series_dir) as series:
            for i, original in enumerate(hierarchies):
                decoded = series.read(step=i)
                for level in range(original.nlevels):
                    covered = covered_mask(original, level)
                    for name in original.component_names:
                        eb_abs = series.index.field_grids[name].eb_abs
                        ref = original[level].multifab.to_global(
                            name, original[level].domain)
                        got = decoded[level].multifab.to_global(
                            name, original[level].domain)
                        mask = original[level].boxarray.coverage_mask(
                            original[level].domain) & ~covered
                        err = np.abs(ref[mask] - got[mask]).max()
                        assert err <= eb_abs * (1 + 1e-9)

    def test_negative_step_indexing(self, series_dir):
        with open_series(series_dir) as series:
            last = series.read_field("baryon_density", step=-1, refill=False)
            explicit = series.read_field("baryon_density", step=NSTEPS - 1,
                                         refill=False)
            assert np.array_equal(last, explicit)
            with pytest.raises(IndexError):
                series.open_step(NSTEPS)

    def test_keyframe_step_opens_standalone(self, series_dir):
        with open_series(series_dir) as series:
            key_record = series.steps()[KEYFRAME_INTERVAL]
            assert key_record.kind == "key"
            chained = series.read_field("temperature", step=KEYFRAME_INTERVAL,
                                        refill=False)
        path = os.path.join(series_dir, key_record.path)
        with repro.open(path) as handle:
            assert handle.describe()["self_describing"] is True
            standalone = handle.read_field("temperature", refill=False)
        assert np.array_equal(chained, standalone)

    def test_delta_step_refuses_standalone_decode(self, series_dir):
        with open_series(series_dir) as series:
            delta_record = next(s for s in series.steps() if s.kind == "delta")
            delta_dataset = next(d for d in delta_record.datasets
                                 if d.mode == "delta")
        level = int(delta_dataset.name.split("/")[0].removeprefix("level_"))
        field = delta_dataset.name.split("/", 1)[1]
        with repro.open(os.path.join(series_dir, delta_record.path)) as handle:
            with pytest.raises(ValueError, match="open_series"):
                handle.read_field(field, level=level, refill=False)


class TestChainLocality:
    def test_time_slice_touches_only_the_boxes_chains(self, series_dir):
        box = Box((0, 0, 0), (5, 5, 5))
        with open_series(series_dir) as series:
            times, values = series.time_slice("baryon_density", box=box,
                                              level=0, refill=False)
            assert values.shape == (NSTEPS, 6, 6, 6)
            assert np.array_equal(times, np.asarray(series.times))
            decoded = series.stats.chunks_decoded
            total_chunks = sum(
                info.nchunks
                for i in range(NSTEPS)
                for info in series.open_step(i)._file.datasets.values())
            # the box's chains only: far fewer decodes than the whole series,
            # and never more than one decode of the box's dataset chunks per
            # step (the per-series code cache de-duplicates chain walks)
            assert 0 < decoded <= NSTEPS * 2
            assert decoded < total_chunks / 5

    def test_time_slice_matches_full_decode(self, series_dir, keyonly_dir):
        box = Box((4, 4, 4), (9, 9, 9))
        with open_series(series_dir) as series:
            _, values = series.time_slice("temperature", box=box, level=0,
                                          refill=False)
        with open_series(keyonly_dir) as key:
            for i in range(NSTEPS):
                full = key.read_field("temperature", step=i, refill=False)
                assert np.array_equal(values[i], full[4:10, 4:10, 4:10])

    def test_repeated_reads_hit_the_cache(self, series_dir):
        with open_series(series_dir) as series:
            box = Box((0, 0, 0), (3, 3, 3))
            series.read_field("xmom", box=box, step=2, refill=False)
            first = series.stats.chunks_decoded
            series.read_field("xmom", box=box, step=2, refill=False)
            assert series.stats.chunks_decoded == first
            assert series.stats.cache_hits > 0

    def test_step_subset_selection(self, series_dir):
        with open_series(series_dir) as series:
            times, values = series.time_slice(
                "baryon_density", box=Box((0, 0, 0), (1, 1, 1)),
                steps=[0, 2, -1], refill=False)
            assert values.shape[0] == 3
            assert times[2] == series.times[-1]


class TestGroupedChainDecode:
    """A decode group's chains share entropy passes, ``_PASS_STREAMS`` streams
    to a pass; what they resolve to is what one stream at a time resolves to."""

    NSTEPS, INTERVAL = 8, 4

    @pytest.fixture(scope="class")
    def chained_dir(self, hierarchies, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("series") / "chained")
        repro.write_series(hierarchies[:self.NSTEPS], path, keyframe_interval=self.INTERVAL,
                           error_bound=1e-3)
        return path

    @staticmethod
    def _reference_chunks(directory, step):
        """``(dataset, chunk) -> values`` of one step, each stream read and
        decoded on its own, newest first (how the reader walked before)."""
        index = SeriesIndex.load(directory)
        out = {}
        with H5LiteFile(os.path.join(directory, index.steps[step].path), "r") as f:
            shape = {name: (info.nchunks, info.chunk_elements)
                     for name, info in f.datasets.items()}
        for name, (nchunks, chunk_elements) in shape.items():
            for chunk in range(nchunks):
                at, pending = step, []
                while True:
                    with H5LiteFile(os.path.join(directory, index.steps[at].path), "r") as f:
                        mode, codes, meta = TemporalDeltaCodec.unpack_codes(
                            f.read_chunk_payload(name, chunk))
                    if mode != MODE_DELTA:
                        break
                    pending.append(codes)
                    at = index.steps[at].dataset(name).ref
                for deltas in reversed(pending):
                    codes = codes + deltas
                values = np.zeros(chunk_elements)
                values[:codes.size] = TemporalDeltaCodec.grid_values(
                    codes, meta["eb"], meta["offset"])
                out[(name, chunk)] = values
        return out

    @staticmethod
    def _chunks(series, step):
        """Every block of one step through the door, laid back into the flat
        chunks the reference speaks in (slot offsets address the chunked stream)."""
        handle = series.open_step(step)
        datasets = handle._scan().datasets
        got = handle._blocks({d: range(d.layout.nblocks) for d in datasets})
        out = {}
        for d in datasets:
            flat = np.zeros(d.nchunks * d.chunk_elements)
            for index, (offset, size) in enumerate(zip(d.layout.rank_offsets.tolist(),
                                                       d.layout.sizes.tolist())):
                flat[offset:offset + size] = got[d][index].reshape(-1)
            for chunk in range(d.nchunks):
                out[(d.name, chunk)] = flat[chunk * d.chunk_elements:
                                            (chunk + 1) * d.chunk_elements]
        return out

    @staticmethod
    def _same_hierarchy(a, b):
        return all(np.array_equal(fa.data, fb.data)
                   for la, lb in zip(a.levels, b.levels)
                   for fa, fb in zip(la.multifab, lb.multifab))

    @pytest.mark.parametrize("warm", ["cold", "intermediate step resolved",
                                      "byte-bounded cache"])
    def test_every_step_equals_one_stream_at_a_time(self, chained_dir, warm):
        for step in (self.NSTEPS - 1, self.INTERVAL + 1, 0):
            reference = self._reference_chunks(chained_dir, step)
            # small enough that a group's entries evict while it is being folded
            cache = ChunkCache(max_bytes=64 << 10) if warm == "byte-bounded cache" else None
            with open_series(chained_dir, cache=cache) as series:
                if warm == "intermediate step resolved" and step % self.INTERVAL:
                    series.read_field("baryon_density", step=step - 1, refill=False)
                got = self._chunks(series, step)
                assert got.keys() == reference.keys()
                for key, values in reference.items():
                    np.testing.assert_array_equal(got[key], values, err_msg=str(key))

    def test_read_and_time_slice_equal_the_reference(self, chained_dir):
        """The reference: the same geometry code over chunks decoded one stream
        at a time, their blocks planted in the step handles' block caches."""
        box = Box((2, 2, 2), (9, 9, 9))
        with open_series(chained_dir) as planted:
            for step in range(self.NSTEPS):
                handle = planted.open_step(step)
                reference = self._reference_chunks(chained_dir, step)
                for d in handle._scan().datasets:
                    offsets = d.layout.rank_offsets.tolist()
                    for index, (offset, size) in enumerate(zip(offsets,
                                                               d.layout.sizes.tolist())):
                        chunk, local = divmod(offset, d.chunk_elements)
                        planted.cache.put((handle.path, d.name, index),
                                          reference[(d.name, chunk)][local:local + size].copy())
            want_last = planted.read(step=-1)
            _, want_slice = planted.time_slice("temperature", box=box, refill=False)
            assert planted.stats.chunks_decoded == 0 == planted.stats.blocks_decoded
        with open_series(chained_dir) as series:
            assert self._same_hierarchy(series.read(step=-1), want_last)
        with open_series(chained_dir) as series, \
                open_series(chained_dir, cache=ChunkCache(max_bytes=64 << 10)) as bounded:
            for handle in (series, bounded):
                _, values = handle.time_slice("temperature", box=box, refill=False)
                np.testing.assert_array_equal(values, want_slice)
            # newest first: a keyframe interval's steps resolve in one pass each
            assert series.stats.chunks_decoded <= self.NSTEPS * 2

    def test_counters_count_chunks_not_passes(self, chained_dir, monkeypatch):
        passes = []
        decode = HuffmanCodec.decode
        monkeypatch.setattr(HuffmanCodec, "decode",
                            lambda self, enc: passes.append(enc.nsymbols) or decode(self, enc))
        with open_series(chained_dir) as series:
            handle = series.open_step(-1)
            plan = handle._scan()
            nchunks = sum(d.nchunks for d in plan.datasets)
            nslots = sum(d.layout.nblocks for d in plan.datasets)
            def chain_length(name, step=self.NSTEPS - 1):
                ref = series.index.steps[step].dataset(name).ref
                return 1 if ref is None else 1 + chain_length(name, ref)

            streams = [d.nchunks * chain_length(d.name) for d in plan.datasets]
            chain = sum(streams)
            self._chunks(series, -1)
            # cold: every stream of every chain once, a dataset's streams
            # _PASS_STREAMS to a pass
            assert series.stats.chunks_decoded == chain > nchunks
            assert series.stats.blocks_decoded == nslots > nchunks
            assert series.stats.cache_hits == 0
            assert len(passes) == sum(-(-n // _PASS_STREAMS) for n in streams) < chain / 2
            # the chain's other steps were resolved on the way: no stream left
            # to decode, one code-cache hit per chunk
            del passes[:]
            self._chunks(series, -2)
            assert series.stats.chunks_decoded == chain
            assert series.stats.cache_hits == nchunks
            assert passes == []
            # and the decoded blocks themselves are block-cache hits on repeat
            self._chunks(series, -2)
            assert series.stats.cache_hits == nchunks + nslots

    def test_a_long_chain_is_decoded_a_bounded_pass_at_a_time(self, tmp_path, monkeypatch):
        """One keyframe, nine deltas (no regrid in between), a code cache
        smaller than one chain: no pass holds more than ``_PASS_STREAMS``
        decoded streams, however long the chains or large the group, and the
        arrays are the reference's."""
        path = str(tmp_path / "long")
        sim = NyxSimulation(coarse_shape=(16, 16, 16), nranks=2, target_fine_density=0.03,
                            max_grid_size=8, seed=42, drift_rate=0.05, growth_rate=0.02,
                            regrid_interval=NSTEPS + 1)
        repro.write_series(sim.run(NSTEPS), path, keyframe_interval=NSTEPS, error_bound=1e-3)
        passes = []
        unpack = TemporalDeltaCodec.unpack_codes_many
        monkeypatch.setattr(TemporalDeltaCodec, "unpack_codes_many", staticmethod(
            lambda payloads, *lanes: passes.append(len(payloads)) or unpack(payloads, *lanes)))
        reference = self._reference_chunks(path, NSTEPS - 1)
        with open_series(path, cache=ChunkCache(max_bytes=64 << 10)) as series:
            def chain_length(name, step):
                ref = series.index.steps[step].dataset(name).ref
                return 1 if ref is None else 1 + chain_length(name, ref)

            longest = max(chain_length(name, NSTEPS - 1) for name, _ in reference)
            del passes[:]
            got = self._chunks(series, NSTEPS - 1)
            assert series.stats.chunks_decoded == sum(passes)
        assert longest > _PASS_STREAMS          # a chain spans passes
        assert max(passes) == _PASS_STREAMS
        assert got.keys() == reference.keys()
        for key, values in reference.items():
            np.testing.assert_array_equal(got[key], values, err_msg=str(key))

    def test_cold_last_step_read_is_one_request_batch_per_dataset_and_step(self, chained_dir):
        batches = []            # (file, the ranges of one read_many call)

        class Recording(RangeSource):
            def read_many(self, ranges):
                batches.append((self.path, [tuple(r) for r in ranges]))
                return super().read_many(ranges)

        with open_series(chained_dir, source=lambda path: Recording(
                LocalFileSource(path))) as series:
            series.read(step=-1)
            owners = {}         # (file, chunk range) -> dataset
            for handle in list(series._handles.values()):     # the chains' steps
                for name, info in handle._file.datasets.items():
                    for chunk in info.chunks:
                        owners[(handle.path, (chunk.offset, chunk.nbytes))] = name
            assert len(series._handles) > 1
        per_dataset_step = {}
        for path, ranges in batches:
            for name in {owners[(path, r)] for r in ranges if (path, r) in owners}:
                per_dataset_step[(path, name)] = per_dataset_step.get((path, name), 0) + 1
        assert per_dataset_step and set(per_dataset_step.values()) == {1}
        multi = [name for (path, name) in per_dataset_step
                 if sum(1 for (p, _), n in owners.items() if p == path and n == name) > 1]
        assert multi                    # some dataset has several chunks per step

    def test_stream_contradicting_the_manifest_is_refused(self, chained_dir, tmp_path):
        import shutil

        broken = str(tmp_path / "broken")
        shutil.copytree(chained_dir, broken)
        index = SeriesIndex.load(broken)
        # the keyframe's file now holds step 1's delta streams: the manifest
        # still says "key, no reference"
        shutil.copyfile(os.path.join(broken, index.steps[1].path),
                        os.path.join(broken, index.steps[0].path))
        with open_series(broken) as series:
            with pytest.raises(ValueError, match="records no reference step"):
                series.read_field("baryon_density", step=1, refill=False)


class TestRegridFallback:
    @staticmethod
    def _blob_hierarchy(step, fine_boxarray=None):
        shape = (24, 24, 24)
        idx = np.indices(shape)
        centre = (6 + 3 * step, 12, 12)
        dist2 = sum((ax - c) ** 2 for ax, c in zip(idx, centre))
        fields = {"density": np.exp(-dist2 / 20.0) + 0.01}
        return build_two_level_hierarchy(
            fields, "density", 0.05, max_grid_size=12, blocking_factor=4,
            nranks=2, seed=9, step=step, time=float(step),
            fine_boxarray=fine_boxarray)

    def test_regrid_mid_series_forces_keyframes(self, tmp_path):
        h0 = self._blob_hierarchy(0)
        frozen = h0[1].boxarray
        h1 = self._blob_hierarchy(1, fine_boxarray=frozen)   # same grids
        h2 = self._blob_hierarchy(2)                          # regridded
        assert tuple(h2[1].boxarray.boxes) != tuple(frozen.boxes)
        path = str(tmp_path / "regrid")
        repro.write_series([h0, h1, h2], path, keyframe_interval=100,
                           error_bound=1e-3)
        index = SeriesIndex.load(path)
        assert index.steps[0].kind == "key"
        # step 1 shares the structure: the smooth blob drift deltas well
        assert any(d.mode == "delta" for d in index.steps[1].datasets)
        # step 2 regridded: every dataset must fall back to a keyframe
        # (including level 0, whose blocks are carved around the fine boxes)
        assert all(d.mode == "key" for d in index.steps[2].datasets)
        # and the decoded data is still right everywhere
        with open_series(path) as series:
            assert series.open_step(1).header.geometry != series.open_step(2).header.geometry
            for i, original in enumerate([h0, h1, h2]):
                decoded = series.read(step=i)
                name = "density"
                eb_abs = series.index.field_grids[name].eb_abs
                ref = original[1].multifab.to_global(name, original[1].domain)
                got = decoded[1].multifab.to_global(name, original[1].domain)
                mask = original[1].boxarray.coverage_mask(original[1].domain)
                assert np.abs(ref[mask] - got[mask]).max() <= eb_abs * (1 + 1e-9)

    def test_vanishing_fine_level(self, tmp_path):
        # a level that disappears mid-series must not leave a stale reference
        h0 = self._blob_hierarchy(0)
        flat = {"density": np.full((24, 24, 24), 0.01)}
        h1 = build_two_level_hierarchy(flat, "density", 0.05, max_grid_size=12,
                                       nranks=2, seed=9, step=1, time=1.0)
        h2 = self._blob_hierarchy(2)
        path = str(tmp_path / "vanish")
        repro.write_series([h0, h1, h2], path, keyframe_interval=100, error_bound=1e-3)
        with open_series(path) as series:
            assert series.open_step(1).header.geometry != series.open_step(0).header.geometry
            for i in range(3):
                series.read(step=i)  # chains resolve without error

    @pytest.mark.parametrize("move", ["one_box", "every_rank_renamed"])
    def test_a_box_moved_to_another_rank_forces_a_keyframe(self, tmp_path, move):
        # the same boxes, a coarse box on another rank: level 0's chunks hold
        # other blocks, so its delta would subtract misaligned cells.  Ranks
        # renamed one up keep every block in place, and still keyframe: the
        # stream key is exact, never looser than the ranks it was built on.
        h0 = self._blob_hierarchy(0)
        h1 = self._blob_hierarchy(1, fine_boxarray=h0[1].boxarray)
        mapping = h1[0].multifab.distribution
        ranks, nranks = list(mapping.rank_of_box), mapping.nranks
        if move == "one_box":
            ranks[0] = (ranks[0] + 1) % nranks
        else:
            ranks, nranks = [r + 1 for r in ranks], nranks + 1
        h1[0].multifab.distribution = DistributionMapping(ranks, nranks)
        assert list(h1[0].boxarray) == list(h0[0].boxarray)
        path = str(tmp_path / "moved")
        repro.write_series([h0, h1], path, keyframe_interval=100, error_bound=1e-3)
        step = SeriesIndex.load(path).steps[1]
        # level 0 is not even tabled as a delta; level 1 kept its blocks
        assert step.dataset("level_0/density").delta_bytes is None
        assert step.dataset("level_0/density").mode == "key"
        assert step.dataset("level_1/density").mode == "delta"
        with open_series(path) as series:
            eb_abs = series.index.field_grids["density"].eb_abs
            decoded = series.read(step=1)
            for level in (0, 1):
                ref = h1[level].multifab.to_global("density", h1[level].domain)
                got = decoded[level].multifab.to_global("density", h1[level].domain)
                mask = (h1[level].boxarray.coverage_mask(h1[level].domain)
                        & ~covered_mask(h1, level))
                assert np.abs(ref[mask] - got[mask]).max() <= eb_abs * (1 + 1e-9)


class TestManifestValidation:
    @staticmethod
    def _tampered(series_dir, mutate, tmp_path):
        index = SeriesIndex.load(series_dir)
        doc = index.to_json()
        mutate(doc)
        return doc

    def test_rejects_unknown_format(self, series_dir, tmp_path):
        doc = self._tampered(series_dir, lambda d: d.update(format="zip"),
                             tmp_path)
        with pytest.raises(ValueError, match="format"):
            SeriesIndex.from_json(doc)

    def test_rejects_future_version(self, series_dir, tmp_path):
        doc = self._tampered(series_dir, lambda d: d.update(version=99),
                             tmp_path)
        with pytest.raises(ValueError, match="version 99"):
            SeriesIndex.from_json(doc)

    def test_rejects_non_dense_steps(self, series_dir, tmp_path):
        def mutate(d):
            d["steps"][1]["index"] = 5
        with pytest.raises(ValueError, match="dense"):
            SeriesIndex.from_json(self._tampered(series_dir, mutate, tmp_path))

    def test_rejects_forward_reference(self, series_dir, tmp_path):
        def mutate(d):
            for ds in d["steps"][1]["datasets"]:
                ds["mode"] = "delta"
                ds["ref"] = 4
        with pytest.raises(ValueError, match="not earlier"):
            SeriesIndex.from_json(self._tampered(series_dir, mutate, tmp_path))

    def test_rejects_missing_grid(self, series_dir, tmp_path):
        def mutate(d):
            d["field_grids"].pop("temperature")
        with pytest.raises(ValueError, match="quantisation grid"):
            SeriesIndex.from_json(self._tampered(series_dir, mutate, tmp_path))

    def test_rejects_bad_mode(self, series_dir, tmp_path):
        def mutate(d):
            d["steps"][0]["datasets"][0]["mode"] = "diff"
        with pytest.raises(ValueError, match="unknown mode"):
            SeriesIndex.from_json(self._tampered(series_dir, mutate, tmp_path))

    def test_missing_journal(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a plotfile series"):
            open_series(str(tmp_path / "nowhere"))
