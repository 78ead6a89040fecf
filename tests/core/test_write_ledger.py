"""One write ledger: every writer's records and per-rank workloads.

Every writer measures its datasets with ``core.stages.dataset_record`` and
bills its ranks through one ``WorkloadTally``.  These tests hold the records
to the paper's definitions (footnote 2, via ``compress.metrics``) over what a
file reads back, the baseline writer's in-memory report to its on-disk one,
and every method's workloads to the ranks that actually own cells.
"""

import numpy as np
import pytest

import repro
from repro.apps import RUN_PRESETS, build_run
from repro.baselines.amrex_1d import AMReXOriginalWriter, ClassicSZFilter
from repro.compress.metrics import ErrorTally, max_abs_error, psnr, psnr_from_mse
from repro.compress.sz1d import SZ1DCompressor
from repro.core import AMRICConfig
from repro.core.preprocess import hierarchy_layouts
from repro.core.stages import dataset_record
from repro.h5lite import H5LiteFile


@pytest.fixture(scope="module")
def nyx_1():
    return build_run("nyx_1").hierarchy


@pytest.fixture(scope="module")
def nyx_1_on_32_ranks():
    """nyx_1 spread over 32 ranks: 24 of them own no box."""
    return build_run("nyx_1", nranks=32).hierarchy


def _owners(hierarchy):
    return {rank for lvl in hierarchy.levels for rank in lvl.multifab.distribution.rank_of_box}


class TestIdleRanksAreBilledNothing:
    """A rank that owns no cell writes no chunk, under every method."""

    @pytest.mark.parametrize("method, chunks, launches", [
        ("amric", 66, 66),           # one chunk per participating rank per dataset
        ("nocomp", 66, 0),           # the same writes, no compressor
        ("amrex_1d", 720, 720)])     # ceil(rank cells / 1024) per level
    def test_every_method(self, nyx_1_on_32_ranks, method, chunks, launches):
        hierarchy = nyx_1_on_32_ranks
        report = repro.write(hierarchy, None, method=method)
        owners = _owners(hierarchy)
        assert len(report.rank_workloads) == 32 and len(owners) == 8
        for rank, work in enumerate(report.rank_workloads):
            if rank in owners:
                assert work.chunks_written > 0 and work.raw_bytes > 0
            else:
                assert (work.raw_bytes, work.compressed_bytes, work.compressor_launches,
                        work.padded_bytes, work.chunks_written) == (0, 0, 0, 0, 0)
        assert sum(w.chunks_written for w in report.rank_workloads) == chunks
        assert sum(w.compressor_launches for w in report.rank_workloads) == launches
        assert sum(w.raw_bytes for w in report.rank_workloads) == report.raw_bytes
        assert sum(w.compressed_bytes for w in report.rank_workloads) == \
            report.compressed_bytes


class TestTheBaselineReportsWhatItsFileHolds:
    def test_in_memory_report_equals_on_disk(self, nyx_hierarchy, tmp_path):
        writer = AMReXOriginalWriter(error_bound=1e-2)
        on_disk = writer.write_plotfile(nyx_hierarchy, str(tmp_path / "a.h5z"))
        in_memory = writer.write_plotfile(nyx_hierarchy, None)
        assert in_memory.records == on_disk.records
        assert in_memory.rank_workloads == on_disk.rank_workloads
        assert in_memory.ndatasets == on_disk.ndatasets == nyx_hierarchy.nlevels
        with H5LiteFile(str(tmp_path / "a.h5z"), "r") as f:
            stored = [f.datasets[f"level_{i}/cell_data"] for i in range(nyx_hierarchy.nlevels)]
        assert on_disk.compressed_bytes == sum(info.stored_nbytes for info in stored)
        for record in on_disk.records:
            assert record.filter_calls == round(stored[record.level].nchunks / nyx_hierarchy.ncomp)


    def test_a_chunk_never_spans_two_field_segments(self, nyx_1, tmp_path, reference_blocks):
        """§3.3: in the box-major stream a field segment is one box's field, so
        the chunk is capped at the smallest box, however large it is asked to be."""
        repro.write(nyx_1, str(tmp_path / "a.h5z"), method="amrex_1d", chunk_elements=10 ** 6)
        with H5LiteFile(str(tmp_path / "a.h5z"), "r") as f:
            for index, level in enumerate(nyx_1.levels):
                boxes = reference_blocks(list(level.boxarray),
                                         level.multifab.distribution.rank_of_box, 10 ** 6)
                chunk = f.datasets[f"level_{index}/cell_data"].chunk_elements
                assert chunk == min(b.size for b in boxes) < 10 ** 6


class TestRecordsFollowThePapersDefinition:
    """Each record's PSNR / max error is footnote 2 over the level's cells as
    the file reads them back."""

    def test_one_piece_is_the_metrics_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for size in (1, 17, 4096):
            orig = rng.normal(size=size) * 300.0
            rec = orig + rng.uniform(-1e-3, 1e-3, size=size)
            record = dataset_record(2, "f", ErrorTally.of(orig, rec), compressed_bytes=10,
                                    filter_calls=1, nblocks=1)
            assert record.psnr == psnr(orig, rec)
            assert record.max_error == max_abs_error(orig, rec)
        constant = np.full(8, 5.0)
        assert dataset_record(0, "f", ErrorTally.of(constant, constant), 64, 0, 1).psnr \
            == float("inf")

    @staticmethod
    def _assert_record(record, orig, back):
        assert record.n_elements == orig.size
        assert record.max_error == pytest.approx(max_abs_error(orig, back), rel=1e-9)
        assert record.psnr == pytest.approx(psnr(orig, back), rel=1e-9)

    def test_amrex_1d(self, nyx_1, tmp_path, reference_blocks):
        eb = RUN_PRESETS["nyx_1"].error_bound_amrex
        path = str(tmp_path / "amrex.h5z")
        report = repro.write(nyx_1, path, method="amrex_1d", error_bound=eb)
        records = {(r.level, r.field): r for r in report.records}
        names = list(nyx_1.component_names)
        assert len(records) == nyx_1.nlevels * len(names)
        filt = ClassicSZFilter(SZ1DCompressor(eb))
        with H5LiteFile(path, "r") as f:
            for level_index, level in enumerate(nyx_1.levels):
                dsname = f"level_{level_index}/cell_data"
                info = f.datasets[dsname]
                payloads = f.read_chunk_payloads(dsname, range(info.nchunks))
                back = np.concatenate([
                    filt.decode(payload, info.chunk_elements)[:chunk.actual_elements]
                    for payload, chunk in zip(payloads, info.chunks)])
                # the level's box-major stream — whole boxes rank by rank, each
                # box's fields back to back — and which field each cell is
                mf = level.multifab
                blocks = sorted(reference_blocks(list(level.boxarray),
                                                 mf.distribution.rank_of_box, 10 ** 6),
                                key=lambda b: b.rank)                       # stable
                orig = np.concatenate([
                    mf[b.box_index].component(mf.component_index(name))
                    [b.box.slices(origin=mf[b.box_index].box.lo)].reshape(-1)
                    for b in blocks for name in names])
                field_of = np.concatenate([np.full(b.size, index)
                                           for b in blocks for index in range(len(names))])
                assert orig.size == back.size == field_of.size
                for index, name in enumerate(names):
                    cells = field_of == index
                    self._assert_record(records[(level_index, name)], orig[cells], back[cells])

    def test_amric_sz_lr_over_the_kept_cells(self, nyx_1, tmp_path):
        path = str(tmp_path / "amric.h5z")
        report = repro.write(nyx_1, path, compressor="sz_lr",
                             error_bound=RUN_PRESETS["nyx_1"].error_bound_amric)
        layouts = hierarchy_layouts(nyx_1, AMRICConfig().unit_block_size, remove_redundancy=True)
        with repro.open(path) as handle:
            back = handle.read()
        records = {(r.level, r.field): r for r in report.records}
        assert len(records) == nyx_1.nlevels * nyx_1.ncomp
        for level_index, layout in enumerate(layouts):
            for name in nyx_1.component_names:
                orig = np.concatenate([v.reshape(-1) for v in
                                       layout.views(nyx_1[level_index], name)])
                rec = np.concatenate([v.reshape(-1) for v in
                                      layout.views(back[level_index], name)])
                self._assert_record(records[(level_index, name)], orig, rec)


def _pairs_record(pairs):
    """``(psnr, sq_error, max_error, n)`` of ``(original, read-back)`` pieces the
    way ``dataset_record`` measured its pairs before the numbers were taken at
    the codec's door: squares summed piece by piece, in write order."""
    sq_err, max_err, n, gmin, gmax = 0.0, 0.0, 0, np.inf, -np.inf
    for orig, back in pairs:
        diff = orig - back
        sq_err += float(np.sum(diff * diff))
        max_err = max(max_err, float(np.max(np.abs(diff))))
        n += orig.size
        gmin, gmax = min(gmin, float(orig.min())), max(gmax, float(orig.max()))
    return psnr_from_mse(sq_err / max(n, 1), gmax - gmin), sq_err, max_err, n


class TestTheLedgerIsWhatTheFileReadsBack:
    """Every writer's record states the error of the cells it keeps as the
    file reads them back: ``max_error`` is their worst error, and ``psnr`` /
    ``sq_error`` are the pieces' summed in write order, bit for bit — the
    numbers each encode job measured once, at the codec's door."""

    @staticmethod
    def _assert_records(report, pieces):
        records = {(r.level, r.field): r for r in report.records}
        assert set(records) == set(pieces)
        for key, pairs in pieces.items():
            psnr_, sq_error, max_error, n = _pairs_record(pairs)
            record = records[key]
            assert record.max_error == max(float(np.max(np.abs(orig - back)))
                                           for orig, back in pairs) == max_error
            assert (record.psnr, record.sq_error, record.n_elements) == (psnr_, sq_error, n)

    @staticmethod
    def _rank_pieces(hierarchy, back, layouts, flat=False):
        """Per dataset, its unit blocks (or, ``flat``, each rank's run of
        them as one piece) and their read-back values, rank by rank."""
        pieces = {}
        for level, layout in enumerate(layouts):
            if not layout.nblocks:
                continue
            for name in hierarchy.component_names:
                orig = layout.views(hierarchy[level], name)
                got = layout.views(back[level], name)
                pieces[(level, name)] = [
                    pair for run in layout.rank_runs for pair in (
                        [(np.concatenate([v.reshape(-1) for v in orig[run]]),
                          np.concatenate([v.reshape(-1) for v in got[run]]))] if flat
                        else zip(orig[run], got[run]))]
        return pieces

    @pytest.mark.parametrize("compressor", ["sz_lr", "sz_interp"])
    def test_amric(self, nyx_1, tmp_path, compressor):
        path = str(tmp_path / "a.h5z")
        report = repro.write(nyx_1, path, compressor=compressor,
                             error_bound=RUN_PRESETS["nyx_1"].error_bound_amric)
        with repro.open(path) as handle:
            back = handle.read()
        layouts = hierarchy_layouts(nyx_1, AMRICConfig().unit_block_size, True)
        self._assert_records(report, self._rank_pieces(nyx_1, back, layouts))

    def test_nocomp(self, nyx_1, tmp_path):
        path = str(tmp_path / "n.h5z")
        report = repro.write(nyx_1, path, method="nocomp")
        with repro.open(path) as handle:
            back = handle.read()
        layouts = hierarchy_layouts(nyx_1, 10 ** 6, False)
        pieces = {key: [(np.concatenate([o for o, _ in pairs]),
                         np.concatenate([b for _, b in pairs]))]
                  for key, pairs in self._rank_pieces(nyx_1, back, layouts, flat=True).items()}
        self._assert_records(report, pieces)
        assert all(r.max_error == 0.0 and r.psnr == float("inf") for r in report.records)

    def test_amrex_1d(self, nyx_1, tmp_path):
        from repro.baselines.amrex_1d import box_major_blocks
        from repro.cli import _box_major_read

        path = str(tmp_path / "x.h5z")
        report = repro.write(nyx_1, path, method="amrex_1d",
                             error_bound=RUN_PRESETS["nyx_1"].error_bound_amrex)
        with repro.open(path) as handle:
            back, _ = _box_major_read(handle)
        names = list(nyx_1.component_names)
        pieces = {}
        for level, layout in enumerate(hierarchy_layouts(nyx_1, 10 ** 6, False)):
            segments = zip(box_major_blocks(nyx_1[level], layout, names),
                           box_major_blocks(back[level], layout, names))
            for k, (orig, got) in enumerate(segments):
                pieces.setdefault((level, names[k % len(names)]), []).append(
                    (orig.reshape(-1), got.reshape(-1)))
        self._assert_records(report, pieces)

    def test_series_key_and_delta_steps(self, tmp_path):
        from repro.apps.nyx import NyxSimulation

        sim = NyxSimulation(coarse_shape=(24, 24, 24), nranks=2, target_fine_density=0.03,
                            max_grid_size=12, seed=42, drift_rate=0.05, growth_rate=0.02)
        steps = list(sim.run(2))
        directory = str(tmp_path / "s")
        reports = repro.write_series(steps, directory, error_bound=1e-3)
        with repro.open_series(directory) as series:
            kinds = [record.kind for record in series.steps()]
            backs = [series.read(step) for step in range(2)]
        assert kinds == ["key", "delta"]
        for hierarchy, back, report in zip(steps, backs, reports):
            layouts = hierarchy_layouts(hierarchy, AMRICConfig().unit_block_size, True)
            self._assert_records(report, self._rank_pieces(hierarchy, back, layouts,
                                                            flat=True))
