"""SZ_L/R: block-based Lorenzo / linear-regression compression.

This is the reproduction of SZ 2.x's default pipeline, the compressor AMRIC
optimises:

1. the input is truncated into blocks (6×6×6 by default — §3.2 of the paper);
   edge blocks keep their natural (smaller) size exactly like SZ, which is the
   source of the "residue block" problem the adaptive-block-size optimisation
   addresses;
2. every block is predicted either by the Lorenzo predictor (dual-quantisation
   form: :func:`_lorenzo` / :func:`_prefix_sum`, DESIGN.md §1) or by a
   first-order regression plane (:mod:`repro.compress.regression`), whichever
   is estimated to encode smaller;
3. the per-block quantisation codes are Huffman-encoded — with a **single
   shared table** per call (this is exactly what the paper's unit SLE relies
   on when AMRIC hands SZ a list of unit blocks) — and deflated with zlib.

Public entry points
-------------------
``compress_many_with_reconstruction``
    the one write door, over a list of chunks (each a list of arrays): all of
    their arrays predicted in one pass, each chunk serialised to its own
    record, in order, with the recipe it decodes under (the AMRIC filter
    stores the recipe once per dataset and derives the shapes from the level
    layout).  Each array (a "unit block") is predicted independently, while
    the lossless encoding is either shared (``shared_encoding=True`` → unit
    SLE) or per-array (``shared_encoding=False`` → the costly per-block-tree
    alternative).
``parse_record`` / ``decode_parsed``
    one record read and checked short of the entropy pass (what a reader
    fetches, and a box-reading handle keeps), then the arrays of one decode
    job's parsed records, under the job's one recipe: entropy-decoded in one
    Huffman lane pass, reconstructed in one pass — optionally only a
    selection of each record's arrays (the unit blocks a box read meets).
``compress`` / ``compress_many`` / ``decompress`` / ``decompress_many``
    the standalone buffer (:meth:`~repro.compress.base.Compressor.standalone`:
    recipe, shapes and record) of a batch of one.

The record (DESIGN.md §5, "Format v2 chunk record") keeps per array only what
its shape cannot give — its code bits and its two outlier counts — besides the
codes, the table and the side streams; selection bits, anchors and regression
coefficient rows are counted from the shapes and the selection.

How a call is batched (DESIGN.md §1 has the whole account)
----------------------------------------------------------
``_region_plan(shape, block_size)`` is the one description of "regions of a
shape", and every stored stream is in (array, region, cell) order — the order
of the concatenated codes.  The encoder works per shape group over stacks in
that stored order (``_stored_order``), one regression fit per block shape;
the decoder places outliers, anchors and coefficient rows by whole-job
passes and turns each shape group's rows into values through ``_flat_plan``,
the stored order inverted to per-cell index tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.compress import container as ctn
from repro.compress.base import (BOUND_SLACK, CompressedBuffer, Compressor, DEFAULT_RADIUS,
                                 stored_dtype)
from repro.compress.errorbound import ErrorBound
from repro.compress.huffman import HuffmanCodec
from repro.compress import regression
from repro.errors import CorruptFileError, required

__all__ = ["SZLRCompressor"]

#: the per-array side streams, in the column order of the ``counts`` section:
#: selection is uint8 per region (0 = Lorenzo, 1 = regression), anchors int64
#: per Lorenzo region, the outliers int64 / float64, the coefficients float64
#: ``(n_regression_blocks, ndim + 1)``
_SIDE = ("selection", "anchors", "lorenzo_outliers", "regression_outliers",
         "regression_coeffs")

#: what a record decodes under besides its shapes (:meth:`SZLRCompressor.recipe`)
_RECIPE = ("abs_eb", "radius", "block_size", "shared", "dtype")


# ----------------------------------------------------------------------
# the region plan of an array shape (SZ semantics: no padding)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Region:
    """One corner region: uniform in block shape, predicted on its own."""

    slices: Tuple[slice, ...]         # where it sits in the array
    shape: Tuple[int, ...]
    block_shape: Tuple[int, ...]
    grid: Tuple[int, ...]             # blocks per axis
    nblocks: int
    volume: int                       # cells


@lru_cache(maxsize=256)
def _region_plan(shape: Tuple[int, ...], block_size: Tuple[int, ...]):
    """``(segments, regions)`` of an array shape: the one description of
    "regions of a shape" that the encoder and the decoder are both built on.

    Along every axis the array splits into the "full blocks" segment (a
    multiple of the block size) and the remainder segment (shorter than one
    block); ``segments[axis]`` lists them as ``(start, stop)``.  The (up to
    2^ndim) corner regions are the products of one segment per axis, in a
    deterministic order the stored streams rely on.
    """
    segments = []
    for n, b in zip(shape, block_size):
        full = (n // b) * b
        segments.append(tuple(seg for seg in ((0, full), (full, n)) if seg[1] > seg[0]))
    regions = []
    for combo in itertools.product(*segments):
        extent = tuple(e - s for s, e in combo)
        block_shape = tuple(min(b, n) for b, n in zip(block_size, extent))
        grid = tuple(n // b for n, b in zip(extent, block_shape))
        regions.append(_Region(
            slices=tuple(slice(s, e) for s, e in combo), shape=extent,
            block_shape=block_shape, grid=grid, nblocks=math.prod(grid),
            volume=math.prod(extent)))
    return tuple(segments), tuple(regions)


@lru_cache(maxsize=256)
def _stored_order(shape: Tuple[int, ...],
                  block_size: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """``(lorenzo, regression)``: the array-order cell at each stored position
    of a shape, its regions scanned whole (C order) and block by block (int32,
    read-only, shared).  The encoder gathers a shape group into stored order
    with them; :func:`_flat_plan` inverts them for the decoder."""
    _, regions = _region_plan(shape, block_size)
    position = np.arange(math.prod(shape), dtype=np.int32).reshape((1,) + shape)
    whole = np.concatenate([position[(0,) + r.slices].ravel() for r in regions])
    by_block = np.concatenate([_to_blocks(position[(slice(None),) + r.slices], r).ravel()
                               for r in regions])
    whole.setflags(write=False)
    by_block.setflags(write=False)
    return whole, by_block


@dataclass(frozen=True)
class _FlatPlan:
    """Per-cell index tables of one array shape (read-only, shared)."""

    region_volume: np.ndarray         # (nregions,) cells per region, stored order
    region_nblocks: np.ndarray        # (nregions,) SZ blocks per region
    region_of_cell: np.ndarray        # (cells,) array-order cell -> its region
    lorenzo_source: np.ndarray        # (cells,) ... -> stored position, region scanned whole
    regression_source: np.ndarray     # (cells,) ... -> stored position, region scanned by block
    block_of_cell: np.ndarray         # (cells,) ... -> its block within its region
    centred: Tuple[np.ndarray, ...]   # per axis, (cells,) ... -> centred coordinate in its block
    remainder_at: Tuple[int, ...]     # per axis: where the remainder segment starts (0: none)


@lru_cache(maxsize=256)
def _flat_plan(shape: Tuple[int, ...], block_size: Tuple[int, ...]) -> _FlatPlan:
    """What the decoder needs of :func:`_region_plan`, flattened to one entry
    per cell of the array so a whole stack is decoded without walking regions.

    A region is stored in C order when Lorenzo predicted it and block by block
    when regression did; both orders, the cell's region and block, and the
    plane's abscissae depend only on ``(shape, block_size)``.
    """
    segments, regions = _region_plan(shape, block_size)
    ncells = math.prod(shape)
    # built afresh, not through the encoder's cache: a reader keeps only the
    # inverted tables
    whole, by_block = _stored_order.__wrapped__(shape, block_size)
    stored = np.arange(ncells, dtype=np.int32)
    tables = {name: np.empty(ncells, dtype=np.int32)
              for name in ("region_of_cell", "lorenzo_source", "regression_source",
                           "block_of_cell")}
    tables["lorenzo_source"][whole] = stored
    tables["regression_source"][by_block] = stored
    tables["region_of_cell"][whole] = np.repeat(
        np.arange(len(regions), dtype=np.int32), [r.volume for r in regions])
    tables["block_of_cell"][by_block] = np.concatenate(
        [np.repeat(np.arange(r.nblocks, dtype=np.int32), r.volume // r.nblocks)
         for r in regions])
    tables["region_volume"] = np.asarray([r.volume for r in regions], dtype=np.int64)
    tables["region_nblocks"] = np.asarray([r.nblocks for r in regions], dtype=np.int64)
    centred = []
    for axis, extent in enumerate(shape):
        along = np.empty(extent, dtype=np.float64)
        for r in regions:
            along[r.slices[axis]] = np.tile(
                regression._centred_coordinates(r.block_shape[axis]), r.grid[axis])
        along = along.reshape((extent,) + (1,) * (len(shape) - 1 - axis))
        centred.append(np.broadcast_to(along, shape).ravel())
    for table in (*tables.values(), *centred):
        table.setflags(write=False)
    return _FlatPlan(centred=tuple(centred),
                     remainder_at=tuple(s[1][0] if len(s) == 2 else 0 for s in segments),
                     **tables)


def _lorenzo(stack: np.ndarray, segments) -> np.ndarray:
    """Lorenzo differences of every region of every stacked (C-contiguous)
    array; ``stack`` is overwritten, the passes alternating between it and
    one scratch array.

    Regions are products of per-axis segments, so the per-region operator —
    ``diff`` with a prepended zero along each axis — is the same per-axis pass
    over the whole stack restarted at each segment.  A pass is one contiguous
    subtraction of the flat stack from itself shifted by a step along the
    axis, after which the slabs where a segment starts take their values
    back.  Axis 0 of ``stack`` indexes the arrays; int64 throughout, so the
    result is exactly the per-region one.
    """
    source, target = stack, np.empty_like(stack)
    for axis, axis_segments in enumerate(segments, start=1):
        step = math.prod(stack.shape[axis + 1:])
        flat = source.reshape(-1)
        np.subtract(flat[step:], flat[:-step], out=target.reshape(-1)[step:])
        lead = (slice(None),) * axis
        for start, _ in axis_segments:
            target[lead + (start,)] = source[lead + (start,)]
        source, target = target, source
    return source


def _prefix_sum(values: np.ndarray, remainder_at: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`_lorenzo`, in place: along each axis of the stacked
    arrays (axis 0 indexes them) a running sum restarted where the remainder
    segment starts (``remainder_at``; 0: none) — one ``+=`` per slab, where
    numpy's int64 ``cumsum`` is a strided loop (DESIGN.md §1).  int64 addition
    wraps alike in any order, so this is the segmented ``cumsum`` bit for bit.
    """
    for axis, restart in enumerate(remainder_at, start=1):
        lead = (slice(None),) * axis
        for i in range(1, values.shape[axis]):
            if i != restart:
                values[lead + (i,)] += values[lead + (i - 1,)]
    return values


def _to_blocks(stacked_region: np.ndarray, region: _Region) -> np.ndarray:
    """``(m,) + region.shape`` -> a ``(m,) + grid + block_shape`` view, array-major."""
    ndim = len(region.shape)
    interleaved = tuple(v for pair in zip(region.grid, region.block_shape) for v in pair)
    axes = (0,) + tuple(range(1, 2 * ndim, 2)) + tuple(range(2, 2 * ndim + 1, 2))
    return stacked_region.reshape(stacked_region.shape[:1] + interleaved).transpose(axes)


def _group_by_shape(shapes: Sequence[Tuple[int, ...]]) -> Dict[Tuple[int, ...], np.ndarray]:
    """Indices of the arrays of each distinct shape (ascending within a shape)."""
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for index, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(index)
    return {shape: np.asarray(members, dtype=np.int64) for shape, members in groups.items()}


#: ``2·log2(1+|x|) + 1`` for ``|x|`` below the table's size, by the expression
#: :func:`_residual_terms` evaluates past it
_BITS = 2.0 * np.log2(1.0 + np.arange(1 << 12, dtype=np.float64)) + 1.0
_BITS.setflags(write=False)


def _residual_terms(magnitude: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-cell size estimate ``2·log2(1+|x|) + 1`` of int64 residuals, given
    ``|x|`` (C-contiguous): a table lookup below :data:`_BITS`'s size, the
    expression past it — also for ``|int64 min|``, which stays negative, hence
    the unsigned view.  ``out``: a float64 array of ``magnitude``'s shape."""
    terms = _BITS.take(magnitude, mode="clip", out=out)
    unsigned = magnitude.view(np.uint64)
    if unsigned.max() >= _BITS.size:
        far = np.flatnonzero(unsigned >= _BITS.size)
        terms.reshape(-1)[far] = 2.0 * np.log2(1.0 + magnitude.reshape(-1)[far]) + 1.0
    return terms


class SZLRCompressor(Compressor):
    """SZ with Lorenzo + linear-regression block predictors (``SZ_L/R``)."""

    name = "sz_lr"

    def __init__(self, error_bound: ErrorBound | float, block_size: int | Sequence[int] = 6,
                 mode: str = "rel", radius: int = DEFAULT_RADIUS):
        super().__init__(error_bound, mode)
        sizes = (block_size,) if np.isscalar(block_size) else tuple(block_size)
        if not sizes or any(int(b) != b or b < 1 for b in sizes):
            raise ValueError(f"block_size must be positive integers, got {block_size!r}")
        self._block_size_spec = block_size
        self.radius = int(radius)
        if not 2 <= self.radius <= DEFAULT_RADIUS:
            raise ValueError(f"radius must be in [2, {DEFAULT_RADIUS}], got {radius!r}")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _block_size_for(self, ndim: int) -> Tuple[int, ...]:
        bs = self._block_size_spec
        if np.isscalar(bs):
            return (int(bs),) * ndim
        bs = tuple(int(b) for b in bs)  # type: ignore[arg-type]
        if len(bs) != ndim:
            raise ValueError(f"block_size {bs} does not match array dimension {ndim}")
        return bs

    # ------------------------------------------------------------------
    # core predictor: one batched pass per call (a dataset's chunks)
    # ------------------------------------------------------------------
    def _encode_batch(self, arrays: Sequence[np.ndarray], abs_eb: float):
        """Predict and quantise a list of (non-empty, float64) arrays.

        Every array is cut into corner regions (full-block part / remainder
        part per axis).  Each region of each array independently chooses
        between

        * the Lorenzo predictor applied across the *whole region* (dual
          quantisation; prediction freely crosses SZ-block boundaries, exactly
          like the original SZ scan), or
        * the per-SZ-block regression predictor.

        Prediction never crosses region boundaries, and never crosses the
        boundary of the array itself — which is what makes the unit-SLE
        behaviour of AMRIC (prediction confined to unit blocks) fall out of
        the ``compress_many`` API, and what makes thin remainder regions
        ("residue blocks", Fig. 8 of the paper) predict poorly.

        One Lorenzo pass per shape group, in stored order; one regression fit
        per block shape of the call, the trial's other passes once over all
        its rows (DESIGN.md §1); side values sorted by their place in the
        stored order.  Every value is computed by the arithmetic a per-array
        loop would use, so the streams do not depend on grouping.

        Returns ``(codes, side, counts, reconstructions)``: uint32 codes per
        array (one per cell, region/block order), the :data:`_SIDE` streams of
        all arrays concatenated in array order, the int64 ``(narrays, 6)``
        length of each array's share of them (last column: cells), and the
        reconstruction of each array.
        """
        shapes = [a.shape for a in arrays]
        ndim = len(shapes[0])
        if any(len(shape) != ndim for shape in shapes):
            raise ValueError("all arrays of one call must have the same number of dimensions")
        block_size = self._block_size_for(ndim)
        radius, two_eb, narrays = self.radius, 2.0 * abs_eb, len(arrays)
        groups = _group_by_shape(shapes)
        plans = {shape: _region_plan(shape, block_size) for shape in groups}
        cells = np.asarray([math.prod(shape) for shape in shapes], dtype=np.int64)
        nregions = np.asarray([len(plans[shape][1]) for shape in shapes], dtype=np.int64)
        first_cell, first_region = np.cumsum(cells) - cells, np.cumsum(nregions) - nregions
        # one buffer each for codes and reconstructions, a group's rows contiguous
        codes_out, recon_out = np.empty(cells.sum(), np.uint32), np.empty(cells.sum())
        anchors, chosen = np.empty(nregions.sum(), np.int64), np.zeros(nregions.sum(), bool)
        codes, reconstructions = [None] * narrays, [None] * narrays
        # per region of the call: its Lorenzo estimate and stored place
        region_bits, region_cell = np.empty(nregions.sum()), np.empty(nregions.sum(), np.int64)
        # side values keyed by their place in the stored order: a cell for an
        # outlier, a region for a coefficient row; a Lorenzo outlier keeps its
        # region until the choice is made
        lorenzo_outliers = [(np.zeros(0, np.int64),) * 3]
        regression_outliers = (np.zeros(0, np.int64), np.zeros(0))
        coefficient_rows = (np.zeros(0, np.int64), np.zeros((0, ndim + 1)))
        # by block shape, the (group, region) pieces of the rows above regression's
        # floor: cells in block order, region and start, per row its group row
        # and region, and the group's codes and reconstructions
        pools: Dict[Tuple[int, ...], list] = {}

        end = 0
        for shape, members in groups.items():
            segments, regions = plans[shape]
            m, ncells = len(members), math.prod(shape)
            base, end = end, end + m * ncells
            group_codes = codes_out[base:end].reshape(m, ncells)
            group_recon = recon_out[base:end].reshape((m,) + shape)
            for row, index in enumerate(members):
                codes[index], reconstructions[index] = group_codes[row], group_recon[row]
            stack = np.stack([arrays[i] for i in members])
            self._check_magnitude(stack, abs_eb)
            quantised = np.rint(np.divide(stack, two_eb, out=stack), out=stack).astype(np.int64)
            del stack
            np.multiply(quantised, two_eb, out=group_recon)  # Lorenzo's; regression overwrites

            # --- Lorenzo, the group in stored order (two (m, cells) arrays
            # live at most): anchors, codes, outliers and bit estimates -------
            deltas = _lorenzo(quantised, segments)
            del quantised
            lorenzo_order, regression_order = _stored_order(shape, block_size)
            lor = deltas.reshape(m, ncells).take(lorenzo_order, axis=1, mode="clip")
            del deltas
            volume = np.asarray([r.volume for r in regions], dtype=np.int64)
            start = np.cumsum(volume) - volume
            region_id = first_region[members][:, None] + np.arange(len(regions))
            anchors[region_id] = lor[:, start]
            lor[:, start] = 0
            magnitude = np.abs(lor)
            np.add(lor, radius, out=group_codes, casting="unsafe")
            if magnitude.max() >= radius:
                outlier = magnitude >= radius
                group_codes[outlier] = 0
                row, col = np.nonzero(outlier)
                lorenzo_outliers.append((first_cell[members[row]] + col, region_id[
                    row, np.searchsorted(start, col, side="right") - 1], lor[row, col]))
            terms = _residual_terms(magnitude, out=lor.view(np.float64))
            del lor, magnitude
            lorenzo_bits = 64.0 + np.stack([terms[:, s:s + v].sum(axis=1) for s, v in
                                            zip(start.tolist(), volume.tolist())], axis=1)
            del terms
            region_bits[region_id], region_cell[region_id] = lorenzo_bits, \
                first_cell[members][:, None] + start

            # --- regression, for the rows above its floor of a bit per cell
            # plus the coefficients (DESIGN.md §1): their members are stacked
            # again (the whole stack was dropped once quantised) and gathered
            # into block order once, so a region's rows are a column slice
            trial = lorenzo_bits > volume + 32.0 * (ndim + 1) * np.asarray(
                [r.nblocks for r in regions])
            tried = np.flatnonzero(trial.any(axis=1))
            blocked = np.stack([arrays[i] for i in members[tried]]).reshape(-1, ncells).take(
                regression_order, axis=1, mode="clip") if tried.size else None
            for k in np.flatnonzero(trial.any(axis=0)).tolist():
                s, region, in_trial = int(start[k]), regions[k], trial[tried, k]
                rows = tried[in_trial]
                pools.setdefault(region.block_shape, []).append((
                    blocked[in_trial, s:s + region.volume], region, s, rows,
                    region_id[rows, k], group_codes, group_recon))

        # --- the trial of the whole call: one fit per block shape, every other
        # pass once over the rows of all pools --------------------------------
        if pools:
            data, regions, starts, rows, region, piece_codes, piece_recons = zip(
                *(piece for pool in pools.values() for piece in pool))
            bounds = np.cumsum([sum(piece[0].size for piece in pool) for pool in pools.values()])
            data, region = np.concatenate([d.reshape(-1) for d in data]), np.concatenate(region)
            nrows = [len(r) for r in rows]
            volume = np.repeat([r.volume for r in regions], nrows)
            nblocks = np.repeat([r.nblocks for r in regions], nrows)
            first, row_at = np.cumsum(volume) - volume, [0, *itertools.accumulate(nrows)][:-1]
            preds, coefficients = np.empty_like(data), []
            for block_shape, pool, out in zip(pools, np.split(data, bounds[:-1]),
                                              np.split(preds, bounds[:-1])):
                model, pool_preds = regression.fit_and_predict(
                    pool.reshape((-1,) + block_shape), abs_eb)
                out[:] = pool_preds.reshape(-1)
                coefficients.append(model.coefficients)
            del pools
            residuals = np.subtract(data, preds, out=data)
            # the per-array reference's passes in three (cells,) buffers besides
            # residuals and predictions: reg_err is formed twice
            quotient = np.divide(residuals, two_eb)
            reg = np.rint(quotient, out=quotient).astype(np.int64)
            miss = np.multiply(reg, two_eb, out=quotient)                  # reg_err
            np.abs(np.subtract(miss, residuals, out=miss), out=miss)
            outlier = miss > abs_eb * (1 + BOUND_SLACK)
            del miss, quotient
            magnitude = np.abs(reg)
            outlier |= magnitude >= radius
            magnitude[outlier] = 0
            # reconstructions: the prediction plus reg_err, or plus the residual
            # at an outlier (that residual is also its regression_outliers value)
            cell = np.flatnonzero(outlier)
            stored = residuals[cell]
            recon = np.multiply(reg, two_eb, out=residuals)
            recon[cell] = stored
            recon = np.add(preds, recon, out=preds)
            terms = _residual_terms(magnitude, out=data)
            # per row: (its bits, summed as a per-array np.sum would, + 64 per
            # outlier) + its coefficients' bits
            piece_at = first[row_at].tolist()
            row = np.searchsorted(first, cell, side="right") - 1
            won = np.concatenate([
                terms[f:f + n * r.volume].reshape(n, r.volume).sum(axis=1)
                for f, n, r in zip(piece_at, nrows, regions)
            ]) + 64.0 * np.bincount(row, minlength=region.size) \
                + 32.0 * (ndim + 1) * nblocks < region_bits[region]
            chosen[region[won]] = True
            kept = won[row]
            regression_outliers = ((region_cell[region] - first)[row[kept]] + cell[kept],
                                   stored[kept])
            coefficient_rows = (np.repeat(region[won], nblocks[won]),
                                np.concatenate(coefficients)[np.repeat(won, nblocks)])
            # the winners' codes and reconstructions, piece by piece: codes are
            # a column slice of the group's, reconstructions its regions' blocks
            np.add(reg, radius, out=reg)
            reg[cell] = 0
            for i in np.flatnonzero(np.logical_or.reduceat(won, row_at)).tolist():
                r, s, f, n = regions[i], starts[i], piece_at[i], nrows[i]
                w = np.flatnonzero(won[row_at[i]:row_at[i] + n])
                to = rows[i][w]
                piece_codes[i][to, s:s + r.volume] = \
                    reg[f:f + n * r.volume].reshape(n, r.volume).take(w, axis=0)
                _to_blocks(piece_recons[i][(slice(None),) + r.slices], r)[to] = \
                    recon[f:f + n * r.volume].reshape((n,) + r.grid + r.block_shape).take(w, axis=0)

        # --- the side streams, in stored order ------------------------------
        region_owner = np.repeat(np.arange(narrays), nregions)
        key, region, value = map(np.concatenate, zip(*lorenzo_outliers))
        keep = ~chosen[region]
        by_cell = {"lorenzo_outliers": (key[keep], value[keep]),
                   "regression_outliers": regression_outliers}
        region, rows = coefficient_rows
        side = {"selection": chosen.astype(np.uint8), "anchors": anchors[~chosen],
                "regression_coeffs": rows[np.argsort(region, kind="stable")]}
        owner = {"selection": region_owner, "anchors": region_owner[~chosen],
                 "regression_coeffs": region_owner[region]}
        for name, (key, value) in by_cell.items():
            side[name] = value[np.argsort(key, kind="stable")]
            owner[name] = np.searchsorted(first_cell, key, side="right") - 1
        counts = np.stack([np.bincount(owner[name], minlength=narrays) for name in _SIDE]
                          + [cells], axis=1)
        return codes, side, counts, reconstructions

    def _decode_batch(self, shapes: Sequence[Tuple[int, ...]], abs_eb: float,
                      codes: Sequence[np.ndarray], side: Dict[str, np.ndarray],
                      counts: np.ndarray) -> List[np.ndarray]:
        """Invert :meth:`_encode_batch`; ``side`` and ``counts`` are the stored
        concatenations — of one record, or of several put end to end
        (:meth:`decode_parsed` hands over a decode job at once).

        Every stream is stored in (array, region, cell) order, which is the
        order of the concatenated codes, so nothing is walked with a cursor:
        whole-chunk passes put the outliers, the anchors and each region's
        first coefficient row where the codes say they belong, and one pass
        per shape group, under that shape's :func:`_flat_plan`, turns the
        group's ``(members, cells)`` rows into values.  Every length the
        streams must agree on is checked first (:class:`CorruptFileError`), before
        anything is sized from ``shapes``.
        """
        radius = self.radius
        two_eb = 2.0 * abs_eb
        narrays = len(shapes)
        cells = [math.prod(shape) for shape in shapes]
        if not (narrays and narrays == len(codes) == len(counts)
                and cells == [c.size for c in codes] == counts[:, 5].tolist()
                and all(extent > 0 for shape in shapes for extent in shape)):
            raise CorruptFileError("sz_lr payload: shapes, code streams and counts "
                             "disagree on the cells per array")
        ndim = len(shapes[0])
        if any(len(shape) != ndim for shape in shapes):
            raise CorruptFileError("sz_lr payload: arrays of mixed dimension")
        block_size = self._block_size_for(ndim)
        groups = _group_by_shape(shapes)
        plans = {shape: _flat_plan(shape, block_size) for shape in groups}

        # --- per region of the chunk, in stored order ----------------------
        region_volume = np.concatenate([plans[shape].region_volume for shape in shapes])
        region_nblocks = np.concatenate([plans[shape].region_nblocks for shape in shapes])
        nregions = region_volume.size
        if side["selection"].size != nregions:
            raise CorruptFileError("sz_lr payload: selection stream does not match the regions")
        by_regression = side["selection"].astype(bool)
        region_end = np.cumsum(region_volume)
        region_cell = region_end - region_volume
        quantised = np.concatenate(codes, dtype=np.int64)
        # outliers are the cells coded 0; which stream holds one is its region's choice
        outlier_cell = np.flatnonzero(quantised == 0)
        outlier_region = np.searchsorted(region_end, outlier_cell, side="right")
        outlier_in_regression = by_regression[outlier_region]
        outliers = np.bincount(outlier_region, minlength=nregions)
        coeff_rows = region_nblocks * by_regression
        # what every region holds of each _SIDE stream, as the codes imply it
        held = np.stack([np.ones_like(outliers), ~by_regression, outliers * ~by_regression,
                         outliers * by_regression, coeff_rows], axis=1)
        for name, expected in zip(_SIDE[1:], held.sum(axis=0)[1:].tolist()):
            if len(side[name]) != expected:
                raise CorruptFileError(f"sz_lr payload: {name} holds {len(side[name])} "
                                 f"entries, the codes imply {expected}")
        coefficients = side["regression_coeffs"]
        if coefficients.shape[1:] != (ndim + 1,):
            raise CorruptFileError("sz_lr payload: regression_coeffs is not (rows, ndim + 1)")
        regions_per_array = np.asarray([plans[shape].region_volume.size for shape in shapes])
        array_first_region = np.cumsum(regions_per_array) - regions_per_array
        if not np.array_equal(np.add.reduceat(held, array_first_region, axis=0), counts[:, :5]):
            raise CorruptFileError("sz_lr payload: counts disagree with the streams")

        # --- whole-chunk placement: stream order is code order --------------
        quantised -= radius
        quantised[outlier_cell[~outlier_in_regression]] = side["lorenzo_outliers"]
        quantised[region_cell[~by_regression]] = side["anchors"]
        # the k-th of these cells (left at -radius) holds regression_outliers[k]
        regression_outlier_cell = outlier_cell[outlier_in_regression]
        region_coeff = np.cumsum(coeff_rows) - coeff_rows
        coefficients = np.ascontiguousarray(coefficients.T)
        array_first_cell = np.cumsum(cells) - cells

        out: List[np.ndarray] = [None] * narrays                  # type: ignore[list-item]
        for shape, members in groups.items():
            plan = plans[shape]
            stack_shape = (len(members),) + shape
            first_cell = array_first_cell[members][:, None]
            # inverse Lorenzo of every region (regression's cells are
            # overwritten below)
            values = quantised.take(plan.lorenzo_source + first_cell).reshape(stack_shape)
            values = _prefix_sum(values, plan.remainder_at) * two_eb
            regions = array_first_region[members][:, None] + np.arange(plan.region_volume.size)
            chosen = by_regression[regions]
            if chosen.any():
                # regression cells only: the plane from the cell's block's
                # coefficient row, summed as predict_blocks sums it
                member, cell = np.nonzero(chosen.take(plan.region_of_cell, axis=1))
                rows = region_coeff[regions][member, plan.region_of_cell.take(cell)]
                rows += plan.block_of_cell.take(cell)
                planes = coefficients.take(rows, axis=1)
                fitted = planes[0]
                for axis, centred in enumerate(plan.centred):
                    fitted = fitted + planes[axis + 1] * centred.take(cell)
                at = plan.regression_source.take(cell) + array_first_cell[members].take(member)
                residual = quantised.take(at)
                errors = residual * two_eb
                outlier = np.flatnonzero(residual == -radius)
                errors[outlier] = side["regression_outliers"].take(
                    np.searchsorted(regression_outlier_cell, at.take(outlier)))
                fitted += errors
                values.reshape(len(members), -1)[member, cell] = fitted
            for row, index in enumerate(members):
                out[index] = values[row]
        return out

    # ------------------------------------------------------------------
    # serialisation: one lean record per chunk (DESIGN.md §5)
    # ------------------------------------------------------------------
    def recipe(self, abs_eb: float, dtype: str = "float64",
               shared_encoding: bool = True) -> dict:
        """What a record decodes under besides its shapes (the AMRIC filter
        stores it once per dataset; a standalone buffer, beside the shapes)."""
        spec = self._block_size_spec
        return {"codec": self.name, "abs_eb": float(abs_eb), "radius": self.radius,
                "block_size": int(spec) if np.isscalar(spec) else [int(b) for b in spec],
                "shared": bool(shared_encoding), "dtype": str(dtype)}

    def _serialize(self, shapes: Sequence[Tuple[int, ...]], codes: Sequence[np.ndarray],
                   side: Dict[str, np.ndarray], counts: np.ndarray, recipe: dict,
                   codec: HuffmanCodec | None = None) -> Tuple[bytes, HuffmanCodec | None]:
        """One chunk's record under ``recipe`` (its checksum covers the recipe
        too) and the shared table it was encoded under.

        A carried ``codec`` (one SLE table across chunks) is used when it
        covers every stream of the chunk — checked before any is encoded, so
        each stream is encoded exactly once — and otherwise rebuilt from the
        chunk.  Per array the record keeps only what its shape cannot give:
        the code bits and the two outlier counts.
        """
        if not recipe["shared"]:
            tables = [HuffmanCodec.from_data(c) for c in codes]
            streams = [table.encode(c) for table, c in zip(tables, codes)]
            codec = None
        else:
            if codec is None or not all(codec.covers(c) for c in codes):
                codec = HuffmanCodec.from_multiple(codes)
            tables, streams = [codec], [codec.encode(c) for c in codes]
        record = ctn.pack_record(shapes, streams, tables, [
            counts[:, 2].astype("<i8"), counts[:, 3].astype("<i8"),
            np.packbits(side["selection"]), side["anchors"].astype("<i8"),
            side["lorenzo_outliers"].astype("<i8"), side["regression_outliers"].astype("<f8"),
            side["regression_coeffs"].astype("<f4")],
            ctn.recipe_context(recipe, _RECIPE, "sz_lr recipe"))
        return record, codec

    def _decoding(self, recipe: dict) -> dict:
        """The recipe a stored record decodes under: its bound, dtype and
        table mode, with this decoder's block size and radius."""
        return self.recipe(*(required(recipe, key, "sz_lr recipe", kind) for key, kind in
                             (("abs_eb", float), ("dtype", str), ("shared", bool))))

    def parse_record(self, record: bytes, shapes: Sequence[Tuple[int, ...]], recipe: dict):
        """``(shapes, Huffman pairs, side streams, counts)`` of a record:
        every stream read, checked (:class:`CorruptFileError`) and copied out
        of the inflated side blob, the entropy decode left to
        :meth:`decode_parsed`.  ``counts`` rebuilds the per-array ``(selection,
        anchors, outliers x 2, coefficient rows, cells)`` rows from the shapes
        and the selection, since :meth:`_narrow` locates arrays by them."""
        recipe = self._decoding(recipe)
        ndim = len(shapes[0])
        if any(len(shape) != ndim for shape in shapes):
            raise CorruptFileError("sz_lr payload: arrays of mixed dimension")
        cells = np.asarray([math.prod(shape) for shape in shapes], dtype=np.int64)
        # a table spans at most 2 radius codes; per array two outlier counts, per
        # cell at most a selection byte, an anchor, an outlier, a coefficient row
        pairs, reader = ctn.parse_record(
            record, shapes, cells, recipe["shared"], "sz_lr record",
            ctn.recipe_context(recipe, _RECIPE, "sz_lr recipe"),
            (2 * self.radius, 16 * len(shapes) + int(cells.sum()) * (21 + 4 * ndim)))
        block_size = self._block_size_for(ndim)
        narrays = len(shapes)
        outliers = [reader.take("<i8", narrays).astype(np.int64) for _ in range(2)]
        plans = [_region_plan(tuple(shape), block_size)[1] for shape in shapes]
        nregions = np.asarray([len(regions) for regions in plans], dtype=np.int64)
        total = int(nregions.sum())
        selection = np.unpackbits(reader.take("u1", (total + 7) // 8), count=total)
        first = np.cumsum(nregions) - nregions
        chosen = selection.astype(np.int64)
        lorenzo = nregions - np.add.reduceat(chosen, first)
        nblocks = np.asarray([r.nblocks for regions in plans for r in regions], dtype=np.int64)
        coeff_rows = np.add.reduceat(nblocks * chosen, first)
        counts = np.stack([nregions, lorenzo, *outliers, coeff_rows, cells], axis=1)
        if (counts < 0).any():
            raise CorruptFileError("sz_lr record: a negative outlier count")
        side = {"selection": selection}
        for name, dtype in (("anchors", "<i8"), ("lorenzo_outliers", "<i8"),
                            ("regression_outliers", "<f8")):
            side[name] = reader.take(dtype, counts[:, _SIDE.index(name)].sum()).copy()
        side["regression_coeffs"] = reader.take(
            "<f4", coeff_rows.sum() * (ndim + 1)).astype(np.float64).reshape(-1, ndim + 1)
        reader.done()
        return list(shapes), pairs, side, counts

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def compress_many(self, arrays: Sequence[np.ndarray], shared_encoding: bool = True,
                      value_range: float | None = None) -> CompressedBuffer:
        """The standalone buffer of one chunk of arrays."""
        ((record, recons, recipe, _),) = self.compress_many_with_reconstruction(
            [arrays], shared_encoding=shared_encoding, value_range=value_range)
        return self.standalone(record, recipe, [r.shape for r in recons])

    def compress_many_with_reconstruction(
            self, chunks: Sequence[Sequence[np.ndarray]], shared_encoding: bool = True,
            value_range: float | None = None) -> List[Tuple[bytes, List[np.ndarray], dict, list]]:
        """Compress each chunk (a list of arrays) into its own record (AMRIC
        unit-block API); one ``(record, reconstructions, recipe, errors)`` per chunk
        (``errors``: each array's :meth:`measure`, which refuses a missed bound).

        The arrays of all chunks are predicted in one :meth:`_encode_batch`
        (prediction is confined to an array, so nothing stored depends on
        which arrays share the pass); each chunk is then serialised on its own,
        in order.  ``value_range=None`` resolves over every array of every
        chunk; the call's one grid is :meth:`grid_eb`'s for its narrowest
        dtype.  Under ``shared_encoding`` a chunk reuses the Huffman table of
        the chunk before it when that covers its symbols (SLE across chunks)
        and otherwise builds its own, which the next chunk is handed in turn.
        """
        if not len(chunks) or any(not len(arrays) for arrays in chunks):
            raise ValueError("need at least one array")
        if any(isinstance(arrays, np.ndarray) for arrays in chunks):
            raise TypeError("chunks must be a list of lists of arrays")
        dtypes = [sorted({stored_dtype(a) for a in arrays}) for arrays in chunks]
        if mixed := next((kinds for kinds in dtypes if len(kinds) > 1), None):
            raise ValueError(f"sz_lr: a chunk decodes through one dtype; its arrays are "
                             f"{' and '.join(mixed)}")
        arrays = [self._as_input(a) for chunk in chunks for a in chunk]
        if value_range is None:
            gmin = min(float(a.min()) for a in arrays)
            gmax = max(float(a.max()) for a in arrays)
            value_range = gmax - gmin
        abs_eb = self.error_bound.resolve(value_range=value_range)
        grid = self.grid_eb(abs_eb, arrays, [dtype for (dtype,) in dtypes])
        codes, side, counts, reconstructions = self._encode_batch(arrays, grid)
        # where each array's share of every _SIDE stream starts
        side_at = np.zeros((len(arrays) + 1, len(_SIDE)), dtype=np.int64)
        np.cumsum(counts[:, :len(_SIDE)], axis=0, out=side_at[1:])
        out, codec, hi = [], None, 0
        for chunk, (input_dtype,) in zip(chunks, dtypes):
            lo, hi = hi, hi + len(chunk)
            chunk_side = {name: side[name][side_at[lo, column]:side_at[hi, column]]
                          for column, name in enumerate(_SIDE)}
            errors = [self.measure(a, r, abs_eb, input_dtype)
                      for a, r in zip(arrays[lo:hi], reconstructions[lo:hi])]
            recipe = self.recipe(grid, input_dtype, shared_encoding)
            record, codec = self._serialize([a.shape for a in arrays[lo:hi]], codes[lo:hi],
                                            chunk_side, counts[lo:hi], recipe, codec=codec)
            out.append((record, reconstructions[lo:hi], recipe, errors))
        return out

    def decompress_many(self, buffer: CompressedBuffer | bytes) -> List[np.ndarray]:
        return self._arrays_of(buffer)

    def _narrow(self, parsed, select, shared: bool):
        """A parsed record cut down to the arrays ``select`` names, as if only
        they had been compressed (under the record's own tables).

        An array's share of a :data:`_SIDE` stream is located by the ``counts``
        rows before it; ``select`` must ascend within them (``ValueError``
        before anything is cut).
        """
        shapes, pairs, side, counts = parsed
        narrays = len(counts)
        select = np.asarray(select)
        if (select.ndim != 1 or select.size == 0 or select.dtype.kind not in "iu"
                or int(select[0]) < 0 or int(select[-1]) >= narrays
                or bool((np.diff(select) <= 0).any())):
            raise ValueError(f"sz_lr selection: need ascending indices into {narrays} "
                             f"arrays, at least one; got {select.tolist()}")
        keep = np.zeros(narrays, dtype=bool)
        keep[select] = True
        if shared:
            codec, encoded = pairs[0]
            pairs = [(codec, codec.select_streams(encoded, keep))]
        else:
            pairs = [pairs[index] for index in select.tolist()]
        side = {name: side[name][np.repeat(keep, counts[:, column])]
                for column, name in enumerate(_SIDE)}
        return [shapes[index] for index in select.tolist()], pairs, side, counts[select]

    def decode_parsed(self, parsed: Sequence, recipe: dict,
                      select: Sequence[Sequence[int] | None] | None = None,
                      ) -> Iterator[List[np.ndarray]]:
        """The float64 arrays of parsed records (:meth:`parse_record`; a decode
        job's chunks: DESIGN.md §2) under the job's ``recipe`` and this
        decoder's block size and radius, in order: one lane pass, then one
        :meth:`_decode_batch`; ``parsed`` is left as it is (a kept parse
        decodes again).  The records' shapes, codes, side streams and
        ``counts`` rows are put end to end (stream order is code order: nothing
        is re-indexed) and the arrays split back per record; prediction is
        confined to an array, so each comes out exactly as it would alone, and
        one damaged record fails the call before anything is yielded.

        ``select[i]`` lists the arrays wanted of record ``i`` (ascending;
        ``None`` or every one: all).  Each array is its own byte-aligned
        Huffman stream, so only those are entropy-decoded and reconstructed
        (:meth:`_narrow`), to the bytes of the full decode.
        """
        if select is not None and len(select) != len(parsed):
            raise ValueError("one selection per record")
        recipe = self._decoding(recipe)
        parsed = [(shapes, ctn.pairs_of(pairs), side, counts)
                  for shapes, pairs, side, counts in parsed]
        # (a record selected whole — every array, ascending — needs no narrowing)
        parsed = [entry if select is None or select[index] is None
                  or list(select[index]) == list(range(len(entry[0])))
                  else self._narrow(entry, select[index], recipe["shared"])
                  for index, entry in enumerate(parsed)]
        if not parsed:
            return
        decoded = ctn.decode_huffman([pairs for _, pairs, _, _ in parsed])
        arrays = self._decode_batch(
            [shape for shapes, *_ in parsed for shape in shapes], recipe["abs_eb"],
            [c for codes in decoded for c in codes],
            {name: np.concatenate([side[name] for _, _, side, _ in parsed]) for name in _SIDE},
            np.concatenate([counts for *_, counts in parsed]))
        hi = 0
        for shapes, *_ in parsed:
            lo, hi = hi, hi + len(shapes)
            yield arrays[lo:hi]
