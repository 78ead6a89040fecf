"""The staged writer pipeline (plan/pack/encode/commit) and backend equivalence."""

import os

import numpy as np
import pytest

import repro
from repro.core import AMRICConfig, AMRICWriter
from repro.core.filter_mod import AMRICLevelFilter
from repro.core.stages import (
    EncodeJob,
    EncodeResult,
    encode_job,
    make_encode_job,
    pack_dataset,
    plan_write,
)
from repro.parallel import SimComm
from repro.parallel.backend import SharedMemoryBackend


class TestPlanStage:
    def test_plan_structure(self, nyx_hierarchy):
        cfg = AMRICConfig(error_bound=1e-3)
        plan = plan_write(nyx_hierarchy, cfg)
        assert len(plan.levels) == nyx_hierarchy.nlevels
        assert plan.total_cells == nyx_hierarchy.num_cells
        assert plan.removed_cells == nyx_hierarchy.covered_cells(0)
        # one dataset per level per field
        assert len(plan.datasets) == nyx_hierarchy.nlevels * nyx_hierarchy.ncomp
        for dplan in plan.datasets:
            layout = dplan.layout
            assert dplan.chunk_elements == max(layout.rank_elements)
            for run, valid, plan_ in zip(layout.rank_runs, layout.rank_elements,
                                         dplan.chunk_plans):
                assert valid == layout.sizes[run].sum() == plan_.nelements
            # modify_filter on: the filter is told what each rank holds
            assert dplan.actual_elements == layout.rank_elements

    def test_plan_naive_filter_pads(self, nyx_hierarchy):
        cfg = AMRICConfig(error_bound=1e-3, modify_filter=False)
        plan = plan_write(nyx_hierarchy, cfg)
        for dplan in plan.datasets:
            assert dplan.actual_elements == [dplan.chunk_elements] * len(dplan.layout.ranks)

    def test_plan_charges_allreduce_per_dataset(self, nyx_hierarchy):
        cfg = AMRICConfig(error_bound=1e-3)
        comm = SimComm(max(lvl.multifab.distribution.nranks
                           for lvl in nyx_hierarchy.levels))
        plan = plan_write(nyx_hierarchy, cfg, comm)
        assert comm.counters.reductions == len(plan.datasets)


class TestPackEncodeStages:
    def test_pack_fills_chunks_and_pads(self, nyx_hierarchy):
        cfg = AMRICConfig(error_bound=1e-3)
        plan = plan_write(nyx_hierarchy, cfg)
        dplan = plan.datasets[0]
        packed = pack_dataset(nyx_hierarchy[dplan.level], dplan)
        assert packed.data.size == dplan.total_elements
        ce = dplan.chunk_elements
        for i, valid in enumerate(dplan.layout.rank_elements):
            chunk = packed.data[i * ce:(i + 1) * ce]
            assert np.all(chunk[valid:] == 0.0)                  # padding tail
            flat = np.concatenate([d.reshape(-1) for d in packed.originals[i]])
            np.testing.assert_array_equal(chunk[:valid], flat)

    def test_encode_job_is_pure(self, nyx_hierarchy):
        """The same job encodes to the same bytes every time (no hidden state)."""
        cfg = AMRICConfig(error_bound=1e-3)
        plan = plan_write(nyx_hierarchy, cfg)
        dplan = plan.datasets[0]
        packed = pack_dataset(nyx_hierarchy[dplan.level], dplan)
        job = make_encode_job(packed, cfg)
        first = encode_job(job)
        second = encode_job(job)
        assert first.payloads == second.payloads
        assert first.filter_calls == len(dplan.layout.ranks)


def _per_chunk_reference(job):
    """The encode stage without the filter: one codec pass per chunk.  A
    multi-array codec predicts each chunk's unit blocks on their own and
    serialises them with the table the previous chunk left while the (field,
    value range) scope holds; a single-array codec gets the chunk's packed
    arrangement."""
    from repro.compress.registry import resolve_codec
    from repro.core.adaptive import select_sz_block_size
    from repro.core.filter_mod import _packed_context
    from repro.core.preprocess import arrange_blocks, pack_blocks, unpack_blocks

    cfg = job.config
    spec = resolve_codec(cfg.compressor)
    block_size = (select_sz_block_size(cfg.unit_block_size, base_block_size=cfg.sz_block_size)
                  if cfg.adaptive_block_size else cfg.sz_block_size)
    many = spec.create(cfg.error_bound_obj, block_size=block_size)
    payloads, reconstructions, codec, scope = [], [], None, None
    for chunk, plan in zip(_chunks_of(job), job.plans):
        ends = np.cumsum([np.prod(shape) for shape in plan.block_shapes])
        blocks = [chunk[end - np.prod(shape):end].reshape(shape)
                  for shape, end in zip(plan.block_shapes, ends)]
        if spec.supports_many:
            if scope != (plan.field, plan.value_range):
                codec, scope = None, (plan.field, plan.value_range)
            abs_eb = many.error_bound.resolve(value_range=plan.value_range)
            codes, side, counts, recons = many._encode_batch(blocks, abs_eb)
            recipe = many.recipe(abs_eb, "float64", cfg.use_sle)
            payload, codec = many._serialize([b.shape for b in blocks], codes, side, counts,
                                             recipe, codec=codec)
        else:
            arrangement = arrange_blocks(plan.block_shapes, plan.block_positions,
                                         cfg.interp_arrangement)
            abs_eb = cfg.error_bound_obj.resolve(value_range=plan.value_range)
            comp = spec.create(abs_eb, mode="abs", anchor_stride=cfg.interp_anchor_stride)
            recipe = dict(comp.recipe(abs_eb), arrangement=cfg.interp_arrangement)
            payload, packed = comp.encode_record(pack_blocks(blocks, arrangement),
                                                 _packed_context(recipe, arrangement))
            recons = unpack_blocks(packed, arrangement)
        payloads.append(payload)
        reconstructions.append(recons)
    return EncodeResult(key=job.key, payloads=payloads, reconstructions=reconstructions,
                        filter_calls=len(payloads), recipe=recipe)


def _dataset_jobs(hierarchy, config=AMRICConfig(), level=0):
    plan = plan_write(hierarchy, config)
    return [make_encode_job(pack_dataset(hierarchy[d.level], d), config)
            for d in plan.datasets if d.level == level]


#: the write configurations the encode stage runs under: (name, config,
#: predictor passes per dataset job — one for sz_lr, none for the others)
CONFIGS = [
    ("sle", AMRICConfig(), 1),
    ("no_sle", AMRICConfig(use_sle=False), 1),
    ("naive_chunks", AMRICConfig(modify_filter=False), 1),   # padding pseudo-block
    ("fixed_sz_block", AMRICConfig(adaptive_block_size=False), 1),
    ("sz_interp", AMRICConfig(compressor="sz_interp"), 0),
    ("sz_interp_linear", AMRICConfig(compressor="sz_interp", interp_arrangement="linear"), 0),
    ("sz_1d", AMRICConfig(compressor="sz_1d"), 0),
]


def _job_of(chunks, plans, config):
    """One job over the given flat chunks, padded to the largest."""
    ce = max(chunk.size for chunk in chunks) + 5
    data = np.zeros(len(chunks) * ce)
    for i, chunk in enumerate(chunks):
        data[i * ce:i * ce + chunk.size] = chunk
    return EncodeJob(key="job", data=data, chunk_elements=ce, plans=plans, config=config)


def _chunks_of(job):
    """Each chunk's cells (its plan's), without the padding tail."""
    ce = job.chunk_elements
    return [job.data[i * ce:i * ce + plan.nelements] for i, plan in enumerate(job.plans)]


class TestOneEncodeManyPerJob:
    """``encode_job`` predicts a dataset's chunks in one pass and serialises
    them one by one: payloads, reconstructions, recipe and filter calls equal
    a per-chunk loop of codec calls byte for byte."""

    @pytest.fixture(scope="class", params=["nyx", "warpx"])
    def ranked(self, request):
        """Level 0 split over four ranks: one to four unit blocks per chunk."""
        from repro.apps import nyx_run, warpx_run

        if request.param == "nyx":
            return nyx_run(coarse_shape=(32, 32, 32), nranks=4, max_grid_size=16,
                           target_fine_density=0.03, seed=101).hierarchy
        return warpx_run(coarse_shape=(16, 16, 64), nranks=4, max_grid_size=16,
                         target_fine_density=0.03, seed=202).hierarchy

    @staticmethod
    def _assert_equal_to_the_loop(job, monkeypatch, predictor_passes=None):
        from repro.compress.sz_lr import SZLRCompressor

        passes = []
        real = SZLRCompressor._encode_batch
        monkeypatch.setattr(SZLRCompressor, "_encode_batch",
                            lambda self, *args: passes.append(1) or real(self, *args))
        result = encode_job(job)
        if predictor_passes is not None:
            assert len(passes) == predictor_passes
        reference = _per_chunk_reference(job)
        assert result.payloads == reference.payloads
        assert result.recipe == reference.recipe
        assert result.filter_calls == reference.filter_calls == len(job.plans)
        assert len(result.reconstructions) == len(reference.reconstructions)
        for ours, theirs in zip(result.reconstructions, reference.reconstructions):
            assert [r.tobytes() for r in ours] == [r.tobytes() for r in theirs]

    @pytest.mark.parametrize("config, passes", [c[1:] for c in CONFIGS],
                             ids=[c[0] for c in CONFIGS])
    def test_every_dataset(self, ranked, monkeypatch, config, passes):
        for job in _dataset_jobs(ranked, config):
            assert len(job.plans) == 4
            self._assert_equal_to_the_loop(job, monkeypatch, predictor_passes=passes)

    @pytest.mark.parametrize("compressor", ["sz_lr", "sz_interp"])
    def test_one_filter_carries_nothing_from_call_to_call(self, ranked, compressor):
        """One filter encoding dataset A, then another field's B, then A again
        returns the same records, reconstructions and recipe for both A calls."""
        a, b = _dataset_jobs(ranked, AMRICConfig(compressor=compressor))[:2]
        assert a.plans[0].field != b.plans[0].field
        filt = AMRICLevelFilter(a.config)
        first = filt.encode(_chunks_of(a), a.plans)
        filt.encode(_chunks_of(b), b.plans)
        again = filt.encode(_chunks_of(a), a.plans)
        assert first[0] == again[0] and first[2] == again[2]
        for ours, theirs in zip(first[1], again[1], strict=True):
            assert [r.tobytes() for r in ours] == [r.tobytes() for r in theirs]

    def test_two_scopes_make_two_calls_and_two_tables(self, ranked, monkeypatch):
        first, second = _dataset_jobs(ranked)[:2]
        assert first.plans[0].field != second.plans[0].field
        plans = first.plans + second.plans
        job = _job_of(_chunks_of(first) + _chunks_of(second), plans, first.config)
        self._assert_equal_to_the_loop(job, monkeypatch, predictor_passes=2)

    def test_a_chunk_the_carried_table_misses_rebuilds_it_mid_dataset(self, monkeypatch):
        from repro.compress.huffman import HuffmanCodec
        from repro.core.filter_mod import ChunkPlan

        rng = np.random.default_rng(5)
        calm = np.full(2 * 8 ** 3, 3.0) + rng.standard_normal(2 * 8 ** 3) * 1e-4
        wild = rng.standard_normal(2 * 8 ** 3) * 10.0
        plans = [ChunkPlan(field="f", block_shapes=[(8, 8, 8)] * 2, value_range=40.0)
                 for _ in range(3)]
        job = _job_of([calm, wild, wild], plans, AMRICConfig())
        built = []
        real = HuffmanCodec.from_multiple
        monkeypatch.setattr(HuffmanCodec, "from_multiple",
                            staticmethod(lambda codes: built.append(1) or real(codes)))
        encode_job(job)
        assert len(built) == 2          # chunk 0 builds, 1 rebuilds, 2 reuses chunk 1's
        self._assert_equal_to_the_loop(job, monkeypatch, predictor_passes=1)


class TestBackendEquivalence:
    """Serial and pooled backends must agree to the byte."""

    @pytest.mark.parametrize("compressor", ["sz_lr", "sz_interp"])
    def test_shm_backend_byte_identical(self, nyx_hierarchy, compressor, tmp_path):
        cfg = AMRICConfig(compressor=compressor, error_bound=1e-3)
        serial_path = str(tmp_path / "serial.h5z")
        pooled_path = str(tmp_path / "pooled.h5z")
        serial = AMRICWriter(cfg).write_plotfile(nyx_hierarchy, serial_path)
        with SharedMemoryBackend(max_workers=2) as backend:
            pooled = AMRICWriter(cfg, backend=backend).write_plotfile(
                nyx_hierarchy, pooled_path)
        assert serial.backend == "serial" and pooled.backend == "shm"
        with open(serial_path, "rb") as a, open(pooled_path, "rb") as b:
            assert a.read() == b.read()
        # identical reports, field by field
        assert serial.records == pooled.records
        assert serial.rank_workloads == pooled.rank_workloads
        assert serial.collectives == pooled.collectives

    def test_mismatched_comm_rejected(self, nyx_hierarchy):
        nranks = max(lvl.multifab.distribution.nranks
                     for lvl in nyx_hierarchy.levels)
        writer = AMRICWriter(AMRICConfig(error_bound=1e-3),
                             comm=SimComm(nranks + 3))
        with pytest.raises(ValueError, match="ranks"):
            writer.write_plotfile(nyx_hierarchy)

    def test_parallel_file_reads_back(self, nyx_hierarchy, tmp_path):
        path = str(tmp_path / "plt.h5z")
        with SharedMemoryBackend(max_workers=2) as backend:
            AMRICWriter(AMRICConfig(error_bound=1e-3), backend=backend).write_plotfile(
                nyx_hierarchy, path)
            with repro.open(path, backend=backend) as handle:
                back = handle.read()
        for name in nyx_hierarchy.component_names:
            vrange = nyx_hierarchy[1].multifab.value_range(name)
            orig = nyx_hierarchy[1].multifab.to_global(name, nyx_hierarchy[1].domain)
            rec = back[1].multifab.to_global(name, back[1].domain)
            mask = nyx_hierarchy[1].boxarray.coverage_mask(nyx_hierarchy[1].domain)
            assert np.max(np.abs(orig[mask] - rec[mask])) <= \
                1e-3 * max(vrange, 1e-30) * (1 + 1e-6)


class TestReportAccounting:
    def test_compressed_bytes_conserved_per_rank(self, nyx_hierarchy):
        """The largest-remainder split must conserve the total exactly."""
        report = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(nyx_hierarchy)
        assert sum(w.compressed_bytes for w in report.rank_workloads) == \
            report.compressed_bytes

    def test_naive_chunks_bill_their_padding(self, warpx_hierarchy):
        """Padding is the tally's to count: a naive chunk pads every rank up to
        the dataset's chunk size, the modified filter pads nothing."""
        naive_cfg = AMRICConfig(error_bound=1e-3, modify_filter=False)
        naive = AMRICWriter(naive_cfg).write_plotfile(warpx_hierarchy)
        datasets = plan_write(warpx_hierarchy, naive_cfg).datasets
        padding = sum((d.chunk_elements - n) * 8
                      for d in datasets for n in d.layout.rank_elements)
        assert sum(w.padded_bytes for w in naive.rank_workloads) == padding > 0
        modified = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(warpx_hierarchy)
        assert all(w.padded_bytes == 0 for w in modified.rank_workloads)
        # one filter call per chunk either way: the payloads a job produced
        assert naive.total_filter_calls == modified.total_filter_calls == \
            sum(len(d.layout.ranks) for d in datasets)

    def test_collective_counters(self, nyx_hierarchy, tmp_path):
        report = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(
            nyx_hierarchy, str(tmp_path / "plt.h5z"))
        assert report.collectives["collective_writes"] == report.ndatasets
        assert report.collectives["reductions"] == report.ndatasets
        # one encode barrier per level that holds data
        assert report.collectives["barriers"] == nyx_hierarchy.nlevels
        assert os.path.exists(report.path)

    def test_psnr_weighted_and_worst(self, nyx_hierarchy):
        report = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(nyx_hierarchy)
        weighted = report.psnr
        assert set(weighted) == set(nyx_hierarchy.component_names)
        for name, recs in ((n, [r for r in report.records if r.field == n])
                           for n in weighted):
            # the weighted aggregate matches pooling the squared errors by hand
            n = sum(r.n_elements for r in recs)
            mse = sum(r.sq_error for r in recs) / n
            vrange = max(r.value_max for r in recs) - min(r.value_min for r in recs)
            expected = 20 * np.log10(vrange) - 10 * np.log10(mse)
            assert weighted[name] == pytest.approx(expected)
            # pooling can only improve on (or match) the worst level
            assert weighted[name] >= min(r.psnr for r in recs) - 1e-9

    def test_record_requires_error_terms(self):
        """The pooled PSNR needs every record's accumulation terms."""
        from repro.core.pipeline import LevelFieldRecord

        with pytest.raises(TypeError, match="sq_error"):
            LevelFieldRecord(level=0, field="f", raw_bytes=800,
                             compressed_bytes=100, psnr=1.0, max_error=0.5,
                             filter_calls=1, nblocks=1)

    def test_records_carry_error_terms(self, nyx_hierarchy):
        report = AMRICWriter(AMRICConfig(error_bound=1e-3)).write_plotfile(nyx_hierarchy)
        for rec in report.records:
            assert rec.n_elements == rec.raw_bytes // 8
            assert rec.value_max >= rec.value_min
            assert rec.sq_error >= 0.0
