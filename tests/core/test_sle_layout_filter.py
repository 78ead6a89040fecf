"""Tests for SLE strategies, chunk planning and the AMRIC filter."""

import numpy as np
import pytest

from repro.compress.metrics import psnr
from repro.compress.sz_lr import SZLRCompressor
from repro.core.config import AMRICConfig
from repro.core.filter_mod import AMRICLevelFilter, ChunkPlan
from repro.core.preprocess import hierarchy_layouts
from repro.errors import CorruptFileError
from repro.core.sle import (
    STRATEGIES,
    compress_blocks_individual,
    compress_blocks_lm,
    compress_blocks_sle,
)


def _layout_of(plan):
    """``(offset, size)`` of every block of a chunk plan, back to back."""
    sizes = [int(np.prod(shape)) for shape in plan.block_shapes]
    ends = np.cumsum(sizes).tolist()
    return [(end - size, size) for end, size in zip(ends, sizes)]


def _unit_blocks_from(hierarchy, level=1, field="baryon_density", unit=16):
    return hierarchy_layouts(hierarchy, unit, remove_redundancy=True)[level] \
        .views(hierarchy[level], field)


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


class TestAMRICLevelFilter:
    def _blocks_and_chunk(self, hierarchy, field="baryon_density", level=1):
        layout = hierarchy_layouts(hierarchy, 16, remove_redundancy=True)[level]
        data = layout.views(hierarchy[level], field)[layout.rank_runs[0]]
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
        filt = AMRICLevelFilter(AMRICConfig(compressor=compressor, error_bound=1e-3))
        (payload,), (recons,), recipe = filt.encode([chunk], [plan])
        decoded = AMRICLevelFilter.reading(recipe).decode(payload, chunk_elements, plan)
        # decoded valid prefix matches the returned reconstructions
        rec_flat = np.concatenate([r.reshape(-1) for r in recons])
        np.testing.assert_allclose(decoded[:flat.size], rec_flat, atol=0, rtol=0)
        # error bound holds
        assert np.max(np.abs(decoded[:flat.size] - flat)) <= 1e-3 * plan.value_range * (1 + 1e-9)

    def _payload(self, hierarchy, compressor, level=1):
        _, flat, plan = self._blocks_and_chunk(hierarchy, level=level)
        filt = AMRICLevelFilter(AMRICConfig(compressor=compressor, error_bound=1e-3))
        (payload,), _, recipe = filt.encode([flat], [plan])
        return payload, flat.size, plan, recipe

    def test_the_record_holds_no_json_and_the_recipe_what_decode_needs(self, nyx_hierarchy):
        payload, _, plan, recipe = self._payload(nyx_hierarchy, "sz_lr")
        assert b"{" not in payload[:16] and b"block_shapes" not in payload
        assert recipe == {"codec": "sz_lr", "abs_eb": recipe["abs_eb"], "radius": 32768,
                          "block_size": 6, "shared": True, "dtype": "float64"}
        assert recipe["abs_eb"] == pytest.approx(1e-3 * plan.value_range)

    @pytest.mark.parametrize("compressor, key", [
        *(("sz_lr", key) for key in ("codec", "abs_eb", "radius", "block_size", "shared",
                                     "dtype")),
        *(("sz_interp", key) for key in ("codec", "abs_eb", "radius", "anchor_stride",
                                         "cubic", "arrangement"))])
    def test_recipe_missing_a_key_is_corrupt(self, nyx_hierarchy, compressor, key):
        payload, n, plan, recipe = self._payload(nyx_hierarchy, compressor)
        del recipe[key]
        with pytest.raises(CorruptFileError, match=key):
            AMRICLevelFilter.reading(recipe).decode(payload, n, plan)

    @pytest.mark.parametrize("cut", [0, 7, 8, 40, -1])
    def test_payload_cut_short_is_corrupt(self, nyx_hierarchy, cut):
        payload, n, plan, recipe = self._payload(nyx_hierarchy, "sz_lr")
        with pytest.raises(CorruptFileError):
            AMRICLevelFilter.reading(recipe).decode(payload[:cut], n, plan)

    def test_decode_needs_the_recipe_and_the_plan(self, nyx_hierarchy):
        payload, n, plan, recipe = self._payload(nyx_hierarchy, "sz_lr")
        with pytest.raises(ValueError, match="ChunkPlan"):
            AMRICLevelFilter.reading(recipe).decode(payload, n)
        with pytest.raises(ValueError, match="recipe"):
            AMRICLevelFilter().decode_blocks([payload], n, [_layout_of(plan)], [[0]])

    @pytest.mark.parametrize("compressor, bound", [("sz_lr", 1e-3), ("sz_interp", 1e-3),
                                                   ("sz_lr", 1e-2)])
    def test_decode_blocks_equals_decode_one_at_a_time(self, nyx_hierarchy, compressor, bound):
        """A job's chunks decoded together; each block is what it is in its
        chunk decoded alone, whatever else is asked for."""
        _, flat, plan = self._blocks_and_chunk(nyx_hierarchy, level=0)
        filt = AMRICLevelFilter(AMRICConfig(compressor=compressor, error_bound=bound))
        payloads, _, recipe = filt.encode([flat, flat * 2.0], [plan, plan])
        reader = AMRICLevelFilter.reading(recipe)
        layout = _layout_of(plan)
        assert len(layout) > 2
        assert reader.decode_blocks([], 10, [], []) == []
        for wanted in (list(range(len(layout))), [1], [0, len(layout) - 1]):
            together = reader.decode_blocks([reader.parse(p, plan) for p in payloads],
                                            flat.size + 7, [layout] * 2, [wanted] * 2)
            for payload, blocks in zip(payloads, together):
                chunk = reader.decode(payload, flat.size + 7, plan)
                assert set(wanted) <= set(blocks)
                for ordinal, block in blocks.items():
                    offset, size = layout[ordinal]
                    assert block.shape == tuple(plan.block_shapes[ordinal])
                    assert block.reshape(-1).tobytes() == chunk[offset:offset + size].tobytes()
            # sz_lr decodes the wanted blocks only, sz_interp's packed arrangement all
            expected = len(wanted) if compressor == "sz_lr" else len(layout)
            assert [len(blocks) for blocks in together] == [expected] * 2

    @pytest.mark.parametrize("compressor", ["sz_lr", "sz_interp"])
    def test_payload_of_another_plan_is_corrupt(self, nyx_hierarchy, compressor):
        payload, n, plan, recipe = self._payload(nyx_hierarchy, compressor, level=0)
        reader = AMRICLevelFilter.reading(recipe)
        shapes = plan.block_shapes
        swapped = list(reversed(shapes)) if shapes[0] != shapes[-1] else \
            [tuple(reversed(shapes[0]))] + shapes[1:]
        for wrong in (shapes[:-1], shapes + [(1, 1, 8)], swapped):
            other = ChunkPlan(wrong, plan.block_positions and
                              plan.block_positions[:len(wrong)] + [(0, 0, 0)] * (len(wrong) - len(shapes)))
            with pytest.raises(CorruptFileError, match="blocks|checksum"):
                reader.decode_blocks([reader.parse(payload, other)], n + 8, [_layout_of(other)],
                                     [[0]])
        with pytest.raises(ValueError, match="the chunk has"):
            reader.decode(payload, n - 1, plan)

    def test_plan_size_mismatch_raises(self, nyx_hierarchy):
        """A chunk that holds fewer cells than its plan names is refused,
        naming both counts."""
        _, flat, plan = self._blocks_and_chunk(nyx_hierarchy)
        with pytest.raises(ValueError, match=f"{flat.size - 5} cells, its plan {flat.size}"):
            AMRICLevelFilter().encode([flat[:-5]], [plan])

    def test_invalid_compressor_name(self):
        with pytest.raises(ValueError):
            AMRICConfig(compressor="zfp_like")     # deleted: not one of the paper's


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

    def test_no_layout_toggle(self):
        # every AMRIC dataset is one field; the box-major side of the §3.3
        # ablation is the amrex_1d writer, not a switch on this config
        with pytest.raises(TypeError):
            AMRICConfig(change_layout=False)

    def test_legacy_make_helpers_removed(self):
        # the deprecated make_sz_lr/make_sz_interp shims are gone; everything
        # routes through the codec registry (create_codec)
        cfg = AMRICConfig()
        assert not hasattr(cfg, "make_sz_lr")
        assert not hasattr(cfg, "make_sz_interp")
