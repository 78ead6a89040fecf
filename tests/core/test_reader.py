"""The staged read pipeline: self-describing headers, lazy access, rejection.

* ``repro.open(path)`` reconstructs a hierarchy from the plotfile alone that
  holds the error bound against the written one for every registered codec,
  element-wise identically on every execution backend;
* ``read_field`` with a box decodes only the intersecting chunks (asserted by
  decode-call counting);
* header-less, corrupt, truncated or version-skewed files — and headers that
  list datasets the file lacks — raise :class:`ValueError`, never a garbage
  hierarchy.
"""

import json
import struct

import numpy as np
import pytest

import repro
from repro.amr.box import Box
from repro.compress.registry import available_codecs
from repro.core import AMRICConfig, AMRICWriter
from repro.core.header import FORMAT_VERSION, PlotfileHeader
from repro.core.preprocess import hierarchy_layouts
from repro.core.reader import decode_job, make_decode_job, scan_plotfile
from repro.core import stages
from repro.errors import CorruptFileError
from repro.h5lite.file import H5LiteFile
from repro.parallel import SimComm
from repro.parallel.backend import SharedMemoryBackend

#: names of the backend instances the shared ``backend`` fixture builds
BACKENDS = ("serial", "shm")


def _to_globals(hierarchy):
    return {(lvl, name): hierarchy[lvl].multifab.to_global(name, hierarchy[lvl].domain)
            for lvl in range(hierarchy.nlevels)
            for name in hierarchy.component_names}


def _read(path, **open_kwargs):
    """A full staged read through the one public door."""
    with repro.open(str(path), **open_kwargs) as handle:
        return handle.read()


def _write(hierarchy, path, **cfg_kwargs):
    cfg = AMRICConfig(**cfg_kwargs)
    report = repro.write(hierarchy, str(path), config=cfg)
    return cfg, report


def _rewrite_superblock(path, mutate):
    """Load the trailing JSON superblock, mutate it, rewrite the file."""
    data = path.read_bytes()
    (offset,) = struct.unpack_from("<Q", data, 4)
    superblock = json.loads(data[offset:].decode("utf-8"))
    mutate(superblock)
    path.write_bytes(data[:offset] + json.dumps(superblock).encode("utf-8"))


@pytest.fixture(scope="module")
def multirank_hierarchy():
    """Several coarse boxes across 4 ranks → multi-chunk level-0 datasets."""
    from repro.apps import nyx_run

    return nyx_run(coarse_shape=(32, 32, 32), nranks=4, max_grid_size=16,
                   target_fine_density=0.03, seed=303).hierarchy


def _three_level_hierarchy():
    """Three nested levels, several boxes and ranks per level, two fields."""
    from repro.amr.boxarray import BoxArray
    from repro.amr.distribution import DistributionMapping
    from repro.amr.hierarchy import AmrHierarchy, AmrLevel
    from repro.amr.multifab import MultiFab

    rng = np.random.default_rng(7)
    names = ("rho", "temp")
    domain = Box.from_shape((16, 16, 16))
    boxarrays = [
        BoxArray.decompose(domain, 8),
        BoxArray([Box((4, 4, 4), (15, 11, 11)), Box((16, 8, 8), (23, 23, 15)),
                  Box((0, 24, 24), (7, 31, 31))]),
        BoxArray([Box((12, 12, 12), (27, 19, 19)), Box((36, 20, 20), (43, 35, 27))]),
    ]
    levels = []
    for index, ba in enumerate(boxarrays):
        mf = MultiFab(ba, names, DistributionMapping.knapsack([b.size for b in ba], 3))
        for fab in mf:
            for comp in range(len(names)):
                fab.set_component(comp, rng.normal(size=fab.box.shape).cumsum(axis=0))
        levels.append(AmrLevel(index, domain.refine(2 ** index), ba, mf))
    return AmrHierarchy(levels, [2, 2])


@pytest.fixture(scope="module")
def three_level_plotfile(tmp_path_factory):
    """Redundancy-removed, rank-aligned: coarse cells under finer boxes are gone."""
    path = tmp_path_factory.mktemp("three") / "plt.h5z"
    repro.write(_three_level_hierarchy(), str(path), error_bound=1e-3,
                unit_block_size=4)
    return str(path)


@pytest.fixture(scope="module")
def raw_plotfile(tmp_path_factory):
    """Raw (``nocomp``): every box one block, one uncompressed chunk per rank."""
    path = tmp_path_factory.mktemp("three") / "raw.h5z"
    repro.write(_three_level_hierarchy(), str(path), method="nocomp")
    return str(path)


def _random_boxes(rng, domain, count):
    """Boxes inside, straddling and (now and then) wholly outside ``domain``."""
    out = []
    for _ in range(count):
        lo = tuple(int(rng.integers(l - 4, h + 4)) for l, h in zip(domain.lo, domain.hi))
        out.append(Box(lo, tuple(l + int(rng.integers(0, 14)) for l in lo)))
    return out


# -- the pre-index hit selection, verbatim, as the reference: a per-slot Box
# -- scan over the slots ``ParentChunkDoor`` (tests/conftest.py) derives itself
def _ref_slots_for_box(door, name, level, box):
    dplan = door.dataset(level, name)
    if dplan is None:
        return set()
    region = box if box is not None else door.structure[level].domain
    return {index for index, slot in enumerate(dplan.slots)
            if slot.block.box.intersects(region)}


class TestSelfDescribingRoundTrip:
    @pytest.mark.parametrize("codec", sorted(available_codecs()))
    def test_header_round_trip_holds_error_bound_all_codecs(
            self, nyx_hierarchy, tmp_path, codec):
        from repro.amr.upsample import covered_mask

        path = tmp_path / f"plt_{codec}.h5z"
        _write(nyx_hierarchy, path, compressor=codec, error_bound=1e-3)
        back = _to_globals(_read(path))
        assert set(back) == set(_to_globals(nyx_hierarchy))
        for (lvl, name), rec in back.items():
            level = nyx_hierarchy[lvl]
            orig = level.multifab.to_global(name, level.domain)
            # covered coarse cells are refilled by averaging, not bounded
            kept = level.boxarray.coverage_mask(level.domain) \
                & ~covered_mask(nyx_hierarchy, lvl)
            vrange = level.multifab.value_range(name)
            assert np.max(np.abs(orig[kept] - rec[kept])) <= \
                1e-3 * max(vrange, 1e-30) * (1 + 1e-6), (lvl, name)

    @pytest.mark.parametrize("backend", BACKENDS, indirect=True)
    def test_backends_bit_identical(self, nyx_hierarchy, tmp_path, backend):
        path = tmp_path / "plt.h5z"
        _write(nyx_hierarchy, path, error_bound=1e-3)
        serial = _to_globals(_read(path))
        other = _to_globals(_read(path, backend=backend))
        for key, expected in serial.items():
            np.testing.assert_array_equal(other[key], expected, err_msg=str(key))

    def test_caller_supplied_backend_not_closed(self, nyx_hierarchy, tmp_path):
        path = tmp_path / "plt.h5z"
        _write(nyx_hierarchy, path, error_bound=1e-3)
        with SharedMemoryBackend(max_workers=2) as backend:
            _read(path, backend=backend)         # must not shut the pool down
            assert backend._executor is not None
            _read(path, backend=backend)

    def test_mismatched_comm_rejected(self, nyx_hierarchy, tmp_path):
        path = tmp_path / "plt.h5z"
        _write(nyx_hierarchy, path, error_bound=1e-3)
        nranks = max(lvl.multifab.distribution.nranks
                     for lvl in nyx_hierarchy.levels)
        with repro.open(str(path)) as handle:
            with pytest.raises(ValueError, match="ranks"):
                handle.read(comm=SimComm(nranks + 3))
            back = handle.read(comm=SimComm(nranks))
        assert set(_to_globals(back)) == set(_to_globals(nyx_hierarchy))

    def test_header_round_trips_structure_and_metadata(self, nyx_hierarchy, tmp_path):
        path = tmp_path / "plt.h5z"
        _write(nyx_hierarchy, path, error_bound=1e-3)
        with repro.open(str(path)) as handle:
            assert handle.describe()["self_describing"] is True
            header = handle.header
            assert header.version == FORMAT_VERSION
            assert header.components == tuple(nyx_hierarchy.component_names)
            assert header.ref_ratios == tuple(nyx_hierarchy.ref_ratios)
            assert [lvl.nboxes for lvl in header.levels] == \
                [len(l.boxarray) for l in nyx_hierarchy.levels]
            back = handle.read()
        assert back.time == nyx_hierarchy.time
        assert back.step == nyx_hierarchy.step
        for lvl in range(nyx_hierarchy.nlevels):
            assert list(back[lvl].boxarray.boxes) == \
                list(nyx_hierarchy[lvl].boxarray.boxes)
            assert back[lvl].multifab.distribution == \
                nyx_hierarchy[lvl].multifab.distribution

    def test_nocomp_plotfile_opens_without_template(self, nyx_hierarchy, tmp_path):
        path = tmp_path / "raw.h5z"
        repro.write(nyx_hierarchy, str(path), method="nocomp")
        with repro.open(str(path)) as handle:
            assert handle.codec == "none"
            back = handle.read()
        for (lvl, name), original in _to_globals(nyx_hierarchy).items():
            restored = back[lvl].multifab.to_global(name, back[lvl].domain)
            np.testing.assert_array_equal(restored, original)

    def test_amrex_plotfile_info_but_no_staged_read(self, nyx_hierarchy, tmp_path):
        path = tmp_path / "amrex.h5z"
        repro.write(nyx_hierarchy, str(path), method="amrex_1d", error_bound=1e-2)
        with repro.open(str(path)) as handle:
            assert handle.header.method == "amrex_1d"
            assert handle.describe()["codec"] == "sz_1d"
            with pytest.raises(ValueError, match="box-major"):
                handle.read()


class TestRawFilesStoreOneChunkPerRank:
    """``nocomp`` writes the AMRIC layout uncompressed: one chunk per
    participating rank, each exactly that rank's cells (every box one block)."""

    @pytest.fixture(scope="class")
    def raw(self, multirank_hierarchy, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("raw") / "raw.h5z")
        return path, repro.write(multirank_hierarchy, path, method="nocomp")

    def test_chunk_i_is_rank_i_cells(self, multirank_hierarchy, raw):
        path, report = raw
        layouts = hierarchy_layouts(multirank_hierarchy, 10 ** 6, False)
        assert len(layouts[0].ranks) == 4
        with H5LiteFile(path, "r") as f:
            assert f.header["chunk_alignment"] == "rank"
            assert f.total_stored_bytes() == report.raw_bytes
            for level, layout in enumerate(layouts):
                for name in multirank_hierarchy.component_names:
                    info = f.datasets[f"level_{level}/{name}"]
                    assert info.chunk_elements == layout.chunk_elements
                    assert [c.nbytes for c in info.chunks] == \
                        [8 * n for n in layout.rank_elements]
                    assert [c.actual_elements for c in info.chunks] == layout.rank_elements

    def test_read_returns_the_input_bit_for_bit(self, multirank_hierarchy, raw):
        back = _read(raw[0])
        for level in range(multirank_hierarchy.nlevels):
            for want, got in zip(multirank_hierarchy[level].multifab.fabs,
                                 back[level].multifab.fabs, strict=True):
                assert got.data.tobytes() == want.data.tobytes()

    def test_a_one_block_read_fetches_less_than_the_dataset(self, multirank_hierarchy, raw):
        name = multirank_hierarchy.component_names[0]
        with repro.open(raw[0]) as handle:
            dplan = handle._scan().dataset(0, name)
            box = dplan.layout.box(dplan.layout.nblocks - 1)     # the last rank's
            before = handle.source_stats.bytes_read
            got = handle.read_field(name, level=0, box=box, refill=False)
            fetched = handle.source_stats.bytes_read - before
            stored = handle.dataset_info(dplan.name).stored_nbytes
        assert 0 < fetched < stored
        assert np.array_equal(got, multirank_hierarchy[0].multifab.to_global(name, box))


class TestLazyRandomAccess:
    def test_read_field_decodes_only_intersecting_chunks(self, multirank_hierarchy, tmp_path):
        path = tmp_path / "plt.h5z"
        _write(multirank_hierarchy, path, error_bound=1e-3)
        with repro.open(str(path)) as full_handle:
            info = full_handle.dataset_info("level_0/baryon_density")
            assert info.nchunks > 1, "need a multi-chunk dataset for the test"
            full_handle.read_field("baryon_density", level=0, refill=False)
            full_chunks = full_handle.stats.chunks_decoded
            assert full_chunks >= info.nchunks

        with repro.open(str(path)) as handle:
            # one unit block of one rank: strictly fewer chunks than the dataset
            plan = handle._scan()
            block = plan.dataset(0, "baryon_density").layout.box(0)
            handle.read_field("baryon_density", level=0, box=block, refill=False)
            assert handle.stats.chunks_decoded == 1
            assert handle.stats.chunks_decoded < info.nchunks
            # ... and of that chunk, the one unit block the box lies in
            assert handle.stats.blocks_decoded == 1

    def test_full_read_reuses_random_access_cache(self, multirank_hierarchy, tmp_path):
        path = tmp_path / "plt.h5z"
        _write(multirank_hierarchy, path, error_bound=1e-3)
        with repro.open(str(path)) as fresh:
            fresh.read()
            total = fresh.stats.blocks_decoded
        with repro.open(str(path)) as handle:
            plan = handle._scan()
            block = plan.dataset(0, "baryon_density").layout.box(0)
            handle.read_field("baryon_density", level=0, box=block, refill=False)
            warmed = handle.stats.blocks_decoded
            assert warmed >= 1
            back = handle.read()
            # the full read decoded everything except the cached blocks
            assert handle.stats.blocks_decoded == total
            assert handle.stats.cache_hits >= warmed
        expected = _to_globals(multirank_hierarchy)
        for (lvl, name), orig in expected.items():
            assert back[lvl].multifab.to_global(name, back[lvl].domain).shape \
                == orig.shape

    def test_read_field_cache_hits_on_repeat(self, nyx_hierarchy, tmp_path):
        path = tmp_path / "plt.h5z"
        _write(nyx_hierarchy, path, error_bound=1e-3)
        with repro.open(str(path)) as handle:
            box = Box.from_shape((8, 8, 8))
            handle.read_field("temperature", level=0, box=box, refill=False)
            first = handle.stats.chunks_decoded
            handle.read_field("temperature", level=0, box=box, refill=False)
            assert handle.stats.chunks_decoded == first
            assert handle.stats.cache_hits > 0

    def test_read_field_matches_full_read(self, nyx_hierarchy, tmp_path):
        path = tmp_path / "plt.h5z"
        _write(nyx_hierarchy, path, error_bound=1e-3)
        with repro.open(str(path)) as handle:
            back = handle.read()
            for level in range(back.nlevels):
                expected = back[level].multifab.to_global(
                    "baryon_density", back[level].domain)
                dense = handle.read_field("baryon_density", level=level)
                mask = back[level].boxarray.coverage_mask(back[level].domain)
                np.testing.assert_array_equal(dense[mask], expected[mask])

    def test_read_field_box_subset_matches_dense(self, nyx_hierarchy, tmp_path):
        path = tmp_path / "plt.h5z"
        _write(nyx_hierarchy, path, error_bound=1e-3)
        with repro.open(str(path)) as handle:
            dense = handle.read_field("xmom", level=0)
            box = Box((5, 3, 7), (20, 17, 30))
            window = handle.read_field("xmom", level=0, box=box)
            domain = handle.header.levels[0].domain()
            np.testing.assert_array_equal(
                window, dense[box.slices(origin=domain.lo)])

    def test_read_field_refill_uses_conservative_average(self, nyx_hierarchy, tmp_path):
        from repro.amr.upsample import average_down, covered_mask

        path = tmp_path / "plt.h5z"
        _write(nyx_hierarchy, path, error_bound=1e-3)
        with repro.open(str(path)) as handle:
            back = handle.read()
            coarse = handle.read_field("baryon_density", level=0, refill=True)
        mask = covered_mask(nyx_hierarchy, 0)
        assert mask.any()
        # the refilled region equals the average-down of the reconstruction
        fine = back[1].multifab.to_global("baryon_density", back[1].domain)
        expected = average_down(fine, nyx_hierarchy.ref_ratios[0])
        np.testing.assert_allclose(coarse[mask], expected[mask], rtol=0, atol=1e-12)

    def test_read_field_equals_per_slot_reference(self, three_level_plotfile,
                                                  parent_chunk_door):
        rng = np.random.default_rng(11)
        with repro.open(three_level_plotfile) as handle, \
                repro.open(three_level_plotfile) as ref_handle:
            ref = parent_chunk_door(ref_handle)
            header = handle.header
            assert header.remove_redundancy and header.nlevels == 3
            full = handle.read()
            for level in range(3):
                domain = header.levels[level].domain()
                boxes = _random_boxes(rng, domain, 10) + [None, Box.empty(3)]
                for box in boxes:
                    for refill in (True, False):
                        for max_level in (None, *range(level, 3)):
                            got = handle.read_field(
                                "rho", level=level, box=box, refill=refill,
                                fill_value=-7.5, max_level=max_level)
                            want = ref.read_field("rho", level, box, refill,
                                                  -7.5, max_level)
                            assert got.shape == want.shape
                            assert np.array_equal(got, want)
                # an uncapped refilling read of in-domain cells that the
                # level's own grids cover is a slice of the full read
                dense = full[level].multifab.to_global("temp", domain)
                covered = full[level].boxarray.coverage_mask(domain)
                for box in boxes[:10]:
                    window = box.intersection(domain)
                    if window.is_empty():
                        continue
                    where = window.slices(origin=domain.lo)
                    got = handle.read_field("temp", level=level, box=window)
                    assert np.array_equal(got[covered[where]],
                                          dense[where][covered[where]])

    @pytest.mark.parametrize("which", ["three_level_plotfile", "raw_plotfile"])
    def test_planned_blocks_equal_per_slot_reference(self, which, request,
                                                     parent_chunk_door):
        path = request.getfixturevalue(which)
        rng = np.random.default_rng(13)
        with repro.open(path) as handle:
            plan = handle._scan()
            door = parent_chunk_door(handle)
            spans = 0
            for level in range(3):
                domain = plan.header.levels[level].domain()
                dplan, ref = plan.dataset(level, "rho"), door.dataset(level, "rho")
                # one layout per level, shared by the level's datasets ...
                assert dplan.layout is plan.dataset(level, "temp").layout
                # ... and block for block the slots the door derives itself
                assert [dplan.layout.box(i) for i in range(dplan.layout.nblocks)] \
                    == [s.block.box for s in ref.slots]
                assert dplan.layout.rank_offsets.tolist() == [s.offset for s in ref.slots]
                spans += sum(s.offset // dplan.chunk_elements
                             != (s.offset + s.size - 1) // dplan.chunk_elements
                             for s in ref.slots)
                boxes = _random_boxes(rng, domain, 25) + [
                    None, domain.shift(100),                  # outside the domain
                    Box(domain.hi, domain.hi), Box(domain.lo, domain.lo)]
                if level < 2:       # a region whose cells all live one level up
                    boxes += list(plan.layouts[level].covered)
                for box in boxes:
                    for name in ("rho", "temp"):
                        needed = {}
                        read = handle._plan_box(name, level, box, False, None, needed)
                        want = _ref_slots_for_box(door, name, level, box)
                        assert read.dplan is plan.dataset(level, name) and not read.finer
                        assert needed == ({read.dplan: want} if want else {})
                        assert all(type(i) is int for i in needed.get(read.dplan, ()))
            # every field-major file stores a block inside its rank's chunk
            assert spans == 0
            if which == "three_level_plotfile":
                # cells under a finer box were dropped: nothing to decode there
                covered = plan.layouts[0].covered[0]
                needed = {}
                read = handle._plan_box("rho", 0, covered, True, None, needed)
                assert not read.hits and read.finer
                # ... while the refill under it needs the finer level's blocks
                assert needed and all(d.level > 0 for d in needed)
            # a request the file cannot answer fails in planning, before any decode
            for bad_level in (3, -1):
                with pytest.raises(ValueError, match="out of range"):
                    handle._plan_box("rho", bad_level, None, True, None, {})
            with pytest.raises(KeyError, match="absent"):
                handle._plan_box("absent", 0, None, True, None, {})
            assert handle.stats.chunks_decoded == 0

    def test_raw_reads_equal_per_slot_reference(self, raw_plotfile, parent_chunk_door):
        rng = np.random.default_rng(17)
        with repro.open(raw_plotfile) as handle, repro.open(raw_plotfile) as ref_handle:
            ref = parent_chunk_door(ref_handle)
            for level in range(3):
                domain = handle.header.levels[level].domain()
                for box in _random_boxes(rng, domain, 8):
                    got = handle.read_field("temp", level=level, box=box)
                    assert np.array_equal(got, ref.read_field(
                        "temp", level, box, True, 0.0, None))

    def test_warm_read_scans_no_box_objects(self, three_level_plotfile, monkeypatch):
        calls = {"intersects": 0, "intersection": 0}

        def counted(name):
            original = vars(Box)[name]

            def wrapper(self, other):
                calls[name] += 1
                return original(self, other)
            return wrapper

        with repro.open(three_level_plotfile) as handle:
            box = Box((2, 2, 2), (13, 12, 11))
            cold = handle.read_field("rho", level=0, box=box)
            monkeypatch.setattr(Box, "intersects", counted("intersects"))
            monkeypatch.setattr(Box, "intersection", counted("intersection"))
            warm = handle.read_field("rho", level=0, box=box)
            assert calls == {"intersects": 0, "intersection": 0}
            assert np.array_equal(cold, warm)
            box.intersects(box)                     # the counters are live
            assert calls == {"intersects": 1, "intersection": 1}

    def test_decode_accounting_for_a_fixed_query_list(self, three_level_plotfile):
        """Per request: one lookup per block the plan names, one decoded block
        per miss, one chunk payload per chunk that holds a miss — against a
        model that keeps the cache as a set (a hit-selection change that
        decoded more, or counted cache hits differently, would move them)."""
        queries = [("rho", 0, Box((0, 0, 0), (7, 7, 7)), True),
                   ("rho", 0, Box((0, 0, 0), (7, 7, 7)), True),
                   ("temp", 0, Box((3, 3, 3), (12, 12, 12)), True),
                   ("rho", 1, Box((10, 10, 10), (25, 25, 25)), True),
                   ("temp", 2, None, False),
                   ("rho", 0, None, True),
                   ("rho", 0, Box((5, 5, 5), (6, 6, 6)), False)]
        with repro.open(three_level_plotfile) as handle, \
                repro.open(three_level_plotfile) as probe:
            seen, want = [], []
            cached = set()
            chunks = blocks = hits = 0
            for name, level, box, refill in queries:
                handle.read_field(name, level=level, box=box, refill=refill)
                seen.append((handle.stats.chunks_decoded, handle.stats.blocks_decoded,
                             handle.stats.cache_hits))
                needed = {}
                probe._plan_box(name, level, box, refill, None, needed)
                asked = {(d, slot) for d, slots in needed.items() for slot in slots}
                misses = asked - cached
                chunks += len({(d, d.layout.chunk_of[slot]) for d, slot in misses})
                blocks += len(misses)
                hits += len(asked & cached)
                cached |= asked
                want.append((chunks, blocks, hits))
            assert probe.stats.blocks_decoded == 0
        assert seen == want
        # the second request is the first again: all hits; the last lies in cached blocks
        assert seen[1] == (seen[0][0], seen[0][1], seen[0][1]) and seen[-1][:2] == seen[-2][:2]

    def test_read_field_validates_level_and_field(self, nyx_hierarchy, tmp_path):
        path = tmp_path / "plt.h5z"
        _write(nyx_hierarchy, path, error_bound=1e-3)
        with repro.open(str(path)) as handle:
            with pytest.raises(ValueError, match="level 9"):
                handle.read_field("baryon_density", level=9)
            with pytest.raises(KeyError, match="no_such_field"):
                handle.read_field("no_such_field")


class TestCorruptHeaders:
    def _written(self, nyx_hierarchy, tmp_path):
        path = tmp_path / "plt.h5z"
        _write(nyx_hierarchy, path, error_bound=1e-3)
        return path

    def test_headerless_file_is_rejected(self, nyx_hierarchy, tmp_path):
        path = self._written(nyx_hierarchy, tmp_path)
        _rewrite_superblock(path, lambda sb: sb.__setitem__("header", None))
        with pytest.raises(ValueError, match="no self-describing header") as exc:
            repro.open(str(path))
        assert str(path) in str(exc.value) and "template" not in str(exc.value)
        with pytest.raises(ValueError, match="no self-describing header"):
            _read(path)

    def test_header_listing_an_absent_dataset_raises(self, nyx_hierarchy, tmp_path):
        """What an interrupted write used to leave: full header, no data."""
        path = self._written(nyx_hierarchy, tmp_path)
        _rewrite_superblock(path, lambda sb: sb.__setitem__(
            "datasets", [d for d in sb["datasets"]
                         if d["name"] != "level_1/temperature"]))
        with repro.open(str(path)) as handle:
            with pytest.raises(ValueError, match="level_1/temperature"):
                handle.read()
            with pytest.raises(ValueError, match="stores no such dataset"):
                handle.read_field("baryon_density")

    def test_version_skew_raises(self, nyx_hierarchy, tmp_path):
        path = self._written(nyx_hierarchy, tmp_path)

        def skew(sb):
            sb["header"]["version"] = FORMAT_VERSION + 1

        _rewrite_superblock(path, skew)
        with pytest.raises(ValueError, match="not supported"):
            repro.open(str(path))

    def test_a_stream_chunk_alignment_is_corrupt(self, nyx_hierarchy, tmp_path):
        """Every field-major file stores one chunk per rank: the retired
        "stream" layout is no alignment a reader accepts, refused by name."""
        path = self._written(nyx_hierarchy, tmp_path)
        _rewrite_superblock(path, lambda sb: sb["header"].__setitem__(
            "chunk_alignment", "stream"))
        with pytest.raises(CorruptFileError, match="unknown chunk_alignment 'stream'"):
            repro.open(str(path))

    def test_wrong_format_tag_raises(self, nyx_hierarchy, tmp_path):
        path = self._written(nyx_hierarchy, tmp_path)
        _rewrite_superblock(path, lambda sb: sb["header"].__setitem__(
            "format", "not-a-plotfile"))
        with pytest.raises(ValueError, match="format"):
            repro.open(str(path))

    @pytest.mark.parametrize("key", ["levels", "components", "ref_ratios",
                                     "codec", "unit_block_size"])
    def test_missing_required_key_raises(self, nyx_hierarchy, tmp_path, key):
        path = self._written(nyx_hierarchy, tmp_path)
        _rewrite_superblock(path, lambda sb: sb["header"].pop(key))
        with pytest.raises(ValueError, match="malformed plotfile header"):
            repro.open(str(path))

    def test_garbled_structure_raises_not_garbage(self, nyx_hierarchy, tmp_path):
        path = self._written(nyx_hierarchy, tmp_path)

        def garble(sb):
            # a box whose hi < lo - 1 cannot construct a Box
            sb["header"]["levels"][0]["boxes"][0] = [[0, 0, 0], [-5, -5, -5]]

        _rewrite_superblock(path, garble)
        with pytest.raises(ValueError):
            repro.open(str(path)).read()

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("garble, message", [
        (lambda lo, hi: [[v + 2 ** 70 for v in lo], [v + 2 ** 70 for v in hi]], "int64"),
        (lambda lo, hi: [lo, [v - 1 for v in lo]], "empty")])
    def test_hostile_box_raises_value_error(self, nyx_hierarchy, tmp_path, level, garble,
                                            message):
        """A box past int64 or an empty box: a ValueError where header ints
        become arrays — never an OverflowError, never a numpy error."""
        path = self._written(nyx_hierarchy, tmp_path)

        def hostile(sb):
            boxes = sb["header"]["levels"][level]["boxes"]
            boxes[0] = garble(*boxes[0])

        _rewrite_superblock(path, hostile)
        with repro.open(str(path)) as handle:
            for read in (handle.read, lambda: handle.read_field("baryon_density")):
                with pytest.raises(ValueError, match=message):
                    read()

    @pytest.mark.parametrize("filter_id", ["zlib", "sz_classic", "sz_amric"])
    def test_filter_id_no_writer_emits_is_unknown(self, nyx_hierarchy, tmp_path, filter_id):
        path = self._written(nyx_hierarchy, tmp_path)

        def retag(sb):
            for dataset in sb["datasets"]:
                dataset["filter_id"] = filter_id

        _rewrite_superblock(path, retag)
        with repro.open(str(path)) as handle:
            for read in (handle.read, lambda: handle.read_field("baryon_density")):
                with pytest.raises(ValueError, match=f"unknown filter '{filter_id}'"):
                    read()

    def test_rank_out_of_range_raises(self, nyx_hierarchy, tmp_path):
        path = self._written(nyx_hierarchy, tmp_path)

        def garble(sb):
            sb["header"]["levels"][0]["rank_of_box"][0] = 999

        _rewrite_superblock(path, garble)
        with pytest.raises(ValueError, match="rank assignments"):
            repro.open(str(path))

    def test_structure_mismatching_file_raises(self, multirank_hierarchy, tmp_path):
        """A valid header for a *different* hierarchy must not place garbage."""
        path = self._written(multirank_hierarchy, tmp_path)

        def shrink(sb):
            lvl0 = sb["header"]["levels"][0]
            keep = max(1, len(lvl0["boxes"]) - 1)
            lvl0["boxes"] = lvl0["boxes"][:keep]
            lvl0["rank_of_box"] = lvl0["rank_of_box"][:keep]

        _rewrite_superblock(path, shrink)
        with pytest.raises(ValueError, match="does not match this file"):
            repro.open(str(path)).read()

    def test_truncated_file_raises(self, nyx_hierarchy, tmp_path):
        path = self._written(nyx_hierarchy, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            repro.open(str(path))

    def test_truncated_preamble_raises(self, nyx_hierarchy, tmp_path):
        path = self._written(nyx_hierarchy, tmp_path)
        path.write_bytes(path.read_bytes()[:6])
        with pytest.raises(ValueError, match="truncated"):
            repro.open(str(path))

    def test_non_object_header_raises(self, nyx_hierarchy, tmp_path):
        path = self._written(nyx_hierarchy, tmp_path)
        _rewrite_superblock(path, lambda sb: sb.__setitem__("header", [1, 2, 3]))
        with pytest.raises(ValueError, match="expected an object"):
            repro.open(str(path))


class TestStagedPipelinePieces:
    def test_scan_plan_covers_every_dataset(self, nyx_hierarchy, tmp_path):
        path = tmp_path / "plt.h5z"
        _write(nyx_hierarchy, path, error_bound=1e-3)
        with H5LiteFile(str(path), "r") as f:
            plan = scan_plotfile(f)
            assert {d.name for d in plan.datasets} == set(f.dataset_names())
            for dplan in plan.datasets:
                info = f.datasets[dplan.name]
                assert dplan.nchunks == info.nchunks
                assert dplan.layout.sizes.sum() <= info.nelements
                # every slot stays inside its rank's chunk
                offsets = dplan.layout.rank_offsets
                last = offsets + dplan.layout.sizes - 1
                assert np.array_equal(offsets // dplan.chunk_elements,
                                      last // dplan.chunk_elements)
                assert dplan.layout.chunk_of == (offsets // dplan.chunk_elements).tolist()

    def test_in_memory_write_has_no_header_to_scan(self, nyx_hierarchy):
        # commit_header is a no-op without a file; nothing to assert beyond
        # "doesn't explode" and the report still being complete
        report = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(
            nyx_hierarchy, None)
        assert report.path is None
        assert report.ndatasets > 0

    def test_commit_header_writes_parseable_json(self, nyx_hierarchy, tmp_path):
        path = tmp_path / "hdr.h5z"
        cfg = AMRICConfig(error_bound=1e-3)
        with H5LiteFile(str(path), "w") as f:
            stages.commit_header(f, nyx_hierarchy, cfg)
            f.create_dataset_from_chunks("x", [np.arange(8.0).tobytes()], shape=(8,),
                                         dtype="float64", chunk_elements=8,
                                         filter_id="none", actual_elements_per_chunk=[8])
        with H5LiteFile(str(path), "r") as f:
            header = PlotfileHeader.from_json(f.header)
        assert header.codec == cfg.compressor
        assert header.unit_block_size == cfg.unit_block_size


class TestOnePassPerJob:
    """A job's chunks share one Huffman lane pass; each decodes to what it does alone."""

    #: sz_lr batches its chunks' entropy decode and decodes a block alone; the
    #: others ride ``Filter.decode_blocks``'s whole-chunk default
    CODECS = ("sz_lr", "sz_interp", "sz_1d")
    PRESETS = {"nyx_1": {"coarse_shape": (16, 16, 16), "max_grid_size": 8},
               "warpx_1": {"coarse_shape": (8, 8, 32), "max_grid_size": 16}}

    @pytest.mark.parametrize("backend", BACKENDS, indirect=True)
    @pytest.mark.parametrize("codec", CODECS)
    def test_job_of_n_payloads_equals_n_one_payload_jobs(
            self, multirank_hierarchy, tmp_path, codec, backend):
        path = tmp_path / "plt.h5z"
        _write(multirank_hierarchy, path, compressor=codec, error_bound=1e-3)
        with H5LiteFile(str(path), "r") as f:
            plan = scan_plotfile(f)
            every = [d.pieces_of(range(d.layout.nblocks)) for d in plan.datasets]
            whole = [make_decode_job(f, d, wanted)
                     for d, wanted in zip(plan.datasets, every)]
            single = [make_decode_job(f, d, {chunk: wanted[chunk]})
                      for d, wanted in zip(plan.datasets, every) for chunk in wanted]
            assert max(len(job.payloads) for job in whole) > 1
            alone = iter(backend.map(decode_job, single))
            for job, result in zip(whole, backend.map(decode_job, whole)):
                pieces, blocks = [], []
                for _ in job.chunk_indices:
                    one = next(alone)
                    pieces += one.pieces
                    blocks += one.blocks
                assert result.pieces == pieces == [
                    (chunk, ordinal) for chunk, ordinals in zip(job.chunk_indices, job.wanted)
                    for ordinal in ordinals]
                for block, one in zip(result.blocks, blocks, strict=True):
                    np.testing.assert_array_equal(block, one)
            # part of a chunk's blocks: each is what it is in the whole chunk,
            # and a codec that can decode a block alone decodes only those
            d, wanted = plan.datasets[0], every[0]
            some = {chunk: ordinals[::2] for chunk, ordinals in wanted.items()}
            assert sum(map(len, some.values())) < sum(map(len, wanted.values()))
            full, part = backend.map(decode_job, [whole[0], make_decode_job(f, d, some)])
            by_piece = dict(zip(full.pieces, full.blocks))
            asked = [(chunk, ordinal) for chunk, ordinals in some.items() for ordinal in ordinals]
            assert part.pieces == (asked if codec == "sz_lr" else full.pieces)
            for piece, block in zip(part.pieces, part.blocks):
                assert block.tobytes() == by_piece[piece].tobytes()

    @pytest.mark.parametrize("backend", BACKENDS, indirect=True)
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_preset_read_equals_chunk_at_a_time_reference(self, tmp_path, preset, backend,
                                                          parent_chunk_door):
        from repro.apps import RUN_PRESETS, build_run

        hierarchy = build_run(preset, **self.PRESETS[preset]).hierarchy
        path = str(tmp_path / f"{preset}.h5z")
        repro.write(hierarchy, path, compressor="sz_lr",
                    error_bound=RUN_PRESETS[preset].error_bound_amric)
        with repro.open(path, backend=backend) as handle:
            got = handle.read()
            assert max(d.nchunks for d in handle._scan().datasets) > 1
            want = parent_chunk_door(handle).read()
        for level_want, level_back in zip(want.levels, got.levels):
            for fab_want, fab_back in zip(level_want.multifab, level_back.multifab):
                np.testing.assert_array_equal(fab_back.data, fab_want.data)

    def test_one_entropy_pass_per_dataset_and_chunks_still_count_chunks(
            self, multirank_hierarchy, tmp_path, monkeypatch):
        from repro.compress.huffman import HuffmanCodec

        path = tmp_path / "plt.h5z"
        _write(multirank_hierarchy, path, error_bound=1e-3)
        passes = []
        decode = HuffmanCodec.decode
        monkeypatch.setattr(HuffmanCodec, "decode",
                            lambda self, enc: passes.append(enc.nsymbols) or decode(self, enc))
        with repro.open(str(path)) as handle:
            handle.read()
            plan = handle._scan()
            nchunks = sum(d.nchunks for d in plan.datasets)
            assert len(passes) == len(plan.datasets) < nchunks
            assert handle.stats.chunks_decoded == nchunks
            assert handle.stats.datasets_decoded == len(plan.datasets)
            # a box read decodes its chunks in one pass too, and counts them as chunks
            del passes[:]
            handle._cache.clear()
            handle.stats.reset()
            dplan = max(plan.datasets, key=lambda d: d.nchunks)
            handle.read_field(dplan.field, level=dplan.level, refill=False)
            assert len(passes) == 1
            assert handle.stats.chunks_decoded == dplan.nchunks > 1
