"""Tests for SLE strategies, layout change, chunk planning and the AMRIC filter."""

import numpy as np
import pytest

from repro.compress.metrics import psnr
from repro.compress.sz_lr import SZLRCompressor
from repro.core.config import AMRICConfig
from repro.core.filter_mod import AMRICLevelFilter, ChunkPlan
from repro.core.layout import build_rank_buffer_box_major, build_rank_buffer_field_major
from repro.core.preprocess import preprocess_level
from repro.core.sle import (
    STRATEGIES,
    compress_blocks_individual,
    compress_blocks_lm,
    compress_blocks_sle,
)


def _layout_of(payload):
    """``(offset, size)`` of every block an AMRIC chunk payload's header lists."""
    import json
    import struct

    (header_len,) = struct.unpack_from("<Q", payload, 0)
    sizes = [int(np.prod(shape)) for shape in
             json.loads(payload[8:8 + header_len])["plan"]["block_shapes"]]
    ends = np.cumsum(sizes).tolist()
    return [(end - size, size) for end, size in zip(ends, sizes)]


def _unit_blocks_from(hierarchy, level=1, field="baryon_density", unit=16, limit=None):
    from repro.core.preprocess import extract_block_data

    pre = preprocess_level(hierarchy, level, unit_block_size=unit)
    blocks = pre.unit_blocks if limit is None else pre.unit_blocks[:limit]
    return extract_block_data(hierarchy[level], field, blocks)


class TestSLEStrategies:
    @pytest.fixture(scope="class")
    def blocks(self, nyx_hierarchy):
        # many small unit blocks — the regime SLE is designed for (§3.2)
        return _unit_blocks_from(nyx_hierarchy, level=0, unit=8)

    def test_all_strategies_roundtrip_shapes(self, blocks):
        comp = SZLRCompressor(1e-3)
        for name, fn in STRATEGIES.items():
            encoded = fn(blocks, comp)
            assert encoded.strategy == name
            assert len(encoded.reconstructions) == len(blocks)
            for orig, rec in zip(blocks, encoded.reconstructions):
                assert rec.shape == orig.shape

    def test_sle_beats_individual_encoding_size(self, blocks):
        """SLE's premise: a shared Huffman table removes per-block overhead."""
        comp = SZLRCompressor(1e-3)
        sle = compress_blocks_sle(blocks, comp)
        individual = compress_blocks_individual(blocks, comp)
        assert sle.compressed_nbytes < individual.compressed_nbytes

    def test_sle_predicts_better_than_lm(self, blocks):
        """Prediction confined to unit blocks (SLE) beats prediction across the
        artificial seams of linear merging, at matched error bound."""
        comp = SZLRCompressor(1e-3)
        sle = compress_blocks_sle(blocks, comp)
        lm = compress_blocks_lm(blocks, comp)
        orig = np.concatenate([b.reshape(-1) for b in blocks])
        rec_sle = np.concatenate([r.reshape(-1) for r in sle.reconstructions])
        rec_lm = np.concatenate([r.reshape(-1) for r in lm.reconstructions])
        mse_sle = float(np.mean((orig - rec_sle) ** 2))
        mse_lm = float(np.mean((orig - rec_lm) ** 2))
        assert mse_sle <= mse_lm * 1.05

    def test_error_bound_respected_by_all(self, blocks):
        comp = SZLRCompressor(1e-3)
        vrange = max(float(b.max()) for b in blocks) - min(float(b.min()) for b in blocks)
        for fn in STRATEGIES.values():
            encoded = fn(blocks, comp)
            for orig, rec in zip(blocks, encoded.reconstructions):
                assert np.max(np.abs(orig - rec)) <= 1e-3 * vrange * (1 + 1e-9)

    def test_empty_blocks_rejected(self):
        comp = SZLRCompressor(1e-3)
        for fn in STRATEGIES.values():
            with pytest.raises(ValueError):
                fn([], comp)


class TestLayout:
    def test_field_major_groups_fields(self, nyx_hierarchy):
        pre = preprocess_level(nyx_hierarchy, 0, unit_block_size=16)
        rank = pre.unit_blocks[0].rank
        names = nyx_hierarchy.component_names
        fm = build_rank_buffer_field_major(nyx_hierarchy[0], pre.unit_blocks, rank, names)
        assert fm.layout == "field_major"
        # field ranges are contiguous, ordered, and cover the buffer
        stops = [fm.field_ranges[n][1] for n in names]
        starts = [fm.field_ranges[n][0] for n in names]
        assert starts[0] == 0 and stops[-1] == fm.nelements
        assert all(stops[i] == starts[i + 1] for i in range(len(names) - 1))
        # the per-field slice matches the level data
        field0 = fm.field_slice(names[0])
        assert field0.size == fm.nelements // len(names)

    def test_box_major_interleaves_fields(self, nyx_hierarchy):
        pre = preprocess_level(nyx_hierarchy, 0, unit_block_size=16)
        rank = pre.unit_blocks[0].rank
        names = nyx_hierarchy.component_names
        bm = build_rank_buffer_box_major(nyx_hierarchy[0], pre.unit_blocks, rank, names)
        fm = build_rank_buffer_field_major(nyx_hierarchy[0], pre.unit_blocks, rank, names)
        assert bm.nelements == fm.nelements
        # same multiset of values, different order
        np.testing.assert_allclose(np.sort(bm.data), np.sort(fm.data))
        # box-major: consecutive segments cycle through the fields
        seg_fields = [s[0] for s in bm.segments[:len(names)]]
        assert seg_fields == list(names)
        # field-major has no contiguous range bookkeeping for box-major
        with pytest.raises(KeyError):
            bm.field_slice(names[0])

    def test_box_major_smallest_segment_caps_chunk(self, nyx_hierarchy):
        """The §3.3 constraint: the chunk cannot exceed the smallest field segment."""
        pre = preprocess_level(nyx_hierarchy, 0, unit_block_size=16)
        rank = pre.unit_blocks[0].rank
        bm = build_rank_buffer_box_major(nyx_hierarchy[0], pre.unit_blocks, rank,
                                         nyx_hierarchy.component_names)
        fm = build_rank_buffer_field_major(nyx_hierarchy[0], pre.unit_blocks, rank,
                                           nyx_hierarchy.component_names)
        field_elems = fm.nelements // len(nyx_hierarchy.component_names)
        assert bm.smallest_segment < field_elems


class TestAMRICLevelFilter:
    def _blocks_and_chunk(self, hierarchy, field="baryon_density", level=1):
        from repro.core.preprocess import extract_block_data

        pre = preprocess_level(hierarchy, level, unit_block_size=16)
        blocks = [b for b in pre.unit_blocks if b.rank == pre.unit_blocks[0].rank]
        data = extract_block_data(hierarchy[level], field, blocks)
        flat = np.concatenate([d.reshape(-1) for d in data])
        vrange = float(max(d.max() for d in data) - min(d.min() for d in data))
        plan = ChunkPlan(field=field, block_shapes=[d.shape for d in data],
                         value_range=vrange)
        return data, flat, plan

    @pytest.mark.parametrize("compressor", ["sz_lr", "sz_interp"])
    def test_encode_decode_roundtrip(self, nyx_hierarchy, compressor):
        data, flat, plan = self._blocks_and_chunk(nyx_hierarchy)
        chunk_elements = flat.size + 100  # oversized global chunk
        chunk = np.zeros(chunk_elements)
        chunk[:flat.size] = flat
        filt = AMRICLevelFilter(compressor=compressor, error_bound=1e-3)
        filt.queue_plan(plan)
        payload = filt.encode(chunk, actual_elements=flat.size)
        decoded = filt.decode(payload, chunk_elements)
        # decoded valid prefix matches the recorded reconstructions
        recons = filt.last_reconstructions[0]
        rec_flat = np.concatenate([r.reshape(-1) for r in recons])
        np.testing.assert_allclose(decoded[:flat.size], rec_flat, atol=0, rtol=0)
        # error bound holds
        assert np.max(np.abs(decoded[:flat.size] - flat)) <= 1e-3 * plan.value_range * (1 + 1e-9)

    def _payload(self, hierarchy, compressor, level=1):
        _, flat, plan = self._blocks_and_chunk(hierarchy, level=level)
        filt = AMRICLevelFilter(compressor=compressor, error_bound=1e-3)
        filt.queue_plan(plan)
        return filt.encode(flat, actual_elements=flat.size), flat.size

    @pytest.mark.parametrize("compressor, key", [
        ("sz_lr", "mode"), ("sz_lr", "error_bound"), ("sz_lr", "sz_block_size"),
        ("sz_interp", "mode"), ("sz_interp", "error_bound"), ("sz_interp", "arrangement"),
        ("sz_interp", "interp_anchor_stride"),
        *(("sz_interp", f"arrangement.{key}") for key in
          ("mode", "unit_shape", "grid_shape", "block_shapes", "fill_value"))])
    def test_header_missing_a_key_is_a_value_error(self, nyx_hierarchy, compressor, key):
        import json
        import struct

        payload, n = self._payload(nyx_hierarchy, compressor)
        (header_len,) = struct.unpack_from("<Q", payload, 0)
        header = json.loads(payload[8:8 + header_len])
        holder = header
        *path, leaf = key.split(".")
        for part in path:
            holder = holder[part]
        del holder[leaf]
        raw = json.dumps(header).encode("utf-8")
        damaged = struct.pack("<Q", len(raw)) + raw + payload[8 + header_len:]
        with pytest.raises(ValueError, match=leaf):
            AMRICLevelFilter().decode(damaged, n)
        layout = _layout_of(payload)
        with pytest.raises(ValueError, match=leaf):
            AMRICLevelFilter().decode_blocks([payload, damaged], n, [layout] * 2,
                                             [range(len(layout))] * 2)

    @pytest.mark.parametrize("cut", [0, 7, 8, 40])
    def test_payload_cut_inside_its_header_is_a_value_error(self, nyx_hierarchy, cut):
        payload, n = self._payload(nyx_hierarchy, "sz_lr")
        with pytest.raises(ValueError):
            AMRICLevelFilter().decode(payload[:cut], n)

    def test_decode_blocks_equals_decode_one_at_a_time(self, nyx_hierarchy):
        """Mixed codecs and recipes in one call; each block is what it is in
        its chunk decoded alone, whatever else is asked for."""
        payloads = []
        for compressor, bound in (("sz_lr", 1e-3), ("sz_interp", 1e-3), ("sz_lr", 1e-2),
                                  ("sz_lr", 1e-3)):
            _, flat, plan = self._blocks_and_chunk(nyx_hierarchy, level=0)
            filt = AMRICLevelFilter(compressor=compressor, error_bound=bound)
            filt.queue_plan(plan)
            payloads.append(filt.encode(flat, actual_elements=flat.size))
        reader = AMRICLevelFilter()
        layout = _layout_of(payloads[0])
        assert len(layout) > 2
        assert reader.decode_blocks([], 10, [], []) == []
        for wanted in (list(range(len(layout))), [1], [0, len(layout) - 1]):
            together = reader.decode_blocks(payloads, flat.size + 7, [layout] * 4, [wanted] * 4)
            for payload, blocks in zip(payloads, together):
                chunk = reader.decode(payload, flat.size + 7)
                assert set(wanted) <= set(blocks)
                for ordinal, block in blocks.items():
                    offset, size = layout[ordinal]
                    assert block.shape == tuple(plan.block_shapes[ordinal])
                    assert block.reshape(-1).tobytes() == chunk[offset:offset + size].tobytes()
        # sz_lr decodes the wanted blocks only, sz_interp's packed arrangement all
        assert [len(blocks) for blocks in together] == [2, len(layout), 2, 2]

    def test_payload_of_another_layout_is_a_value_error(self, nyx_hierarchy):
        payload, n = self._payload(nyx_hierarchy, "sz_lr", level=0)
        layout = _layout_of(payload)
        for wrong in (layout[:-1], layout + [(n, 8)], [(0, n)]):
            with pytest.raises(ValueError, match="payload 0"):
                AMRICLevelFilter().decode_blocks([payload], n + 8, [wrong], [[0]])
        with pytest.raises(ValueError, match="the chunk has"):
            AMRICLevelFilter().decode(payload, n - 1)

    def test_encode_without_plan_raises(self):
        filt = AMRICLevelFilter()
        with pytest.raises(RuntimeError):
            filt.encode(np.zeros(10))

    def test_plan_size_mismatch_raises(self, nyx_hierarchy):
        data, flat, plan = self._blocks_and_chunk(nyx_hierarchy)
        filt = AMRICLevelFilter()
        filt.queue_plan(plan)
        with pytest.raises(ValueError):
            filt.encode(np.zeros(flat.size + 10), actual_elements=flat.size + 5)

    def test_invalid_compressor_name(self):
        with pytest.raises(ValueError):
            AMRICLevelFilter(compressor="zfp_like")     # deleted: not one of the paper's


class TestConfig:
    def test_defaults_valid(self):
        cfg = AMRICConfig()
        assert cfg.compressor == "sz_lr"
        assert cfg.use_sle and cfg.adaptive_block_size

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            AMRICConfig(compressor="lz4")
        with pytest.raises(ValueError):
            AMRICConfig(unit_block_size=1)
        with pytest.raises(ValueError):
            AMRICConfig(error_bound=-1.0)
        with pytest.raises(ValueError):
            AMRICConfig(interp_arrangement="random")

    def test_with_overrides(self):
        cfg = AMRICConfig()
        off = cfg.with_overrides(use_sle=False, remove_redundancy=False)
        assert not off.use_sle and not off.remove_redundancy
        assert cfg.use_sle  # original untouched

    def test_make_compressors_via_registry(self):
        cfg = AMRICConfig(error_bound=1e-4, sz_block_size=4)
        lr = cfg.make_codec("sz_lr", block_size=cfg.sz_block_size)
        assert lr.block_size == 4
        lr8 = cfg.make_codec("sz_lr", block_size=8)
        assert lr8.block_size == 8
        interp = cfg.make_codec("sz_interp", anchor_stride=cfg.interp_anchor_stride)
        assert interp.anchor_stride == cfg.interp_anchor_stride

    def test_legacy_make_helpers_removed(self):
        # the deprecated make_sz_lr/make_sz_interp shims are gone; everything
        # routes through the codec registry (make_codec)
        cfg = AMRICConfig()
        assert not hasattr(cfg, "make_sz_lr")
        assert not hasattr(cfg, "make_sz_interp")
