"""The Huffman *encode* kernel and table build against independent oracles.

* ``HuffmanCodec.encode`` (dense/sorted lookup + 64-bit window packing) must
  produce the bytes, ``nbits`` and ``sync`` of a bit-by-bit encoder that shares
  no code with it — not even the canonical code assignment;
* ``_huffman_code_lengths_from_counts`` (two-queue merge) must give the lengths
  of a ``(count, node id)`` heap, ties included;
* two pinned file hashes make a byte change in any writer fail tier-1.
"""

import hashlib
import heapq

import numpy as np
import pytest

import repro
from repro.apps import RUN_PRESETS, build_run
from repro.compress.huffman import (
    _DENSE_SPAN,
    MAX_CODE_LEN,
    SYNC_INTERVAL,
    HuffmanCodec,
    _huffman_code_lengths_from_counts,
)

TOP = 2 ** 32 - 1


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def oracle_encode(symbols, lengths, data):
    """``(payload, nbits, sync)`` from a string of code bits, one code at a time."""
    by_length = sorted(range(len(symbols)), key=lambda i: (int(lengths[i]), i))
    words, code, prev = {}, -1, 0
    for i in by_length:                         # canonical assignment
        code = (code + 1) << (int(lengths[i]) - prev)
        prev = int(lengths[i])
        words[int(symbols[i])] = format(code, f"0{prev}b")
    bits, sync, pos = [], [], 0
    for k, value in enumerate(np.asarray(data).ravel().tolist()):
        if k % SYNC_INTERVAL == 0:
            sync.append(pos)
        bits.append(words[value])
        pos += len(words[value])
    string = "".join(bits)
    payload = np.packbits(np.frombuffer(string.encode(), dtype=np.uint8) - ord("0")).tobytes()
    return payload, len(string), sync


def heap_lengths(counts):
    """Code lengths from the textbook heap of ``(count, node id)``."""
    n = len(counts)
    if n == 1:
        return [1]
    heap = [(int(c), i) for i, c in enumerate(counts)]
    heapq.heapify(heap)
    parent = {}
    for new in range(n, 2 * n - 1):
        (c1, a), (c2, b) = heapq.heappop(heap), heapq.heappop(heap)
        parent[a] = parent[b] = new
        heapq.heappush(heap, (c1 + c2, new))
    out = []
    for leaf in range(n):
        depth, node = 0, leaf
        while node in parent:
            depth, node = depth + 1, parent[node]
        out.append(depth)
    return out


def ladder(top):
    """Code lengths 1, 2, ..., top, top: a full prefix code with every length."""
    return np.array(list(range(1, top + 1)) + [top], dtype=np.uint8)


def draw(rng, symbols, n):
    """``n`` symbols, long codes as likely as short ones."""
    return np.asarray(symbols)[rng.integers(0, len(symbols), size=n)]


def cases():
    rng = np.random.default_rng(16)
    # symbol s has code length s + 1 (the last two: 16)
    lengths = ladder(MAX_CODE_LEN)
    low = np.arange(17, dtype=np.uint32)                      # dense table, symbol 0
    high = np.arange(TOP - 16, TOP + 1, dtype=np.uint32)      # dense table, symbol 2**32-1
    yield "one-symbol table", [7], [1], np.full(1000, 7, dtype=np.uint32)
    yield "lengths 1..16, codes straddle words", low, lengths, draw(rng, low, 5000)
    yield "lengths 1..16 at the top of uint32", high, lengths, draw(rng, high, 3000)
    yield "ends on a word boundary", low, lengths, np.array([0, 14, 15], dtype=np.uint32)
    yield "one full word", low, lengths, np.array([15, 16], dtype=np.uint32)
    yield "final code spills into a new word", low, lengths, \
        np.array([14, 15, 2], dtype=np.uint32)
    yield "final code fills the spilled word", low, lengths, \
        np.array([14, 15, 15, 16, 0], dtype=np.uint32)
    yield "a single one-bit code", low, lengths, np.array([0], dtype=np.uint32)
    yield "symbols 0 and 2**32-1", [0, TOP], [1, 1], \
        np.array([0, TOP, TOP, 0, TOP] * 200, dtype=np.uint32)
    sparse = np.unique(rng.integers(0, TOP, size=300, dtype=np.uint64)).astype(np.uint32)
    assert int(sparse[-1]) - int(sparse[0]) >= _DENSE_SPAN
    stream = sparse[np.minimum(rng.geometric(0.05, size=4000), sparse.size) - 1]
    built = HuffmanCodec.from_data(stream)
    yield "sparse alphabet past the dense table", built.symbols, built.lengths, stream
    edge = np.array([10, 10 + _DENSE_SPAN], dtype=np.uint32)  # first span that is not dense
    yield "span == _DENSE_SPAN", edge, [1, 1], draw(rng, edge, 700)
    edge = np.array([10, 9 + _DENSE_SPAN], dtype=np.uint32)   # last span that is
    yield "span == _DENSE_SPAN - 1", edge, [1, 1], draw(rng, edge, 700)
    gauss = (32768 + np.round(rng.normal(0, 9, size=20000))).astype(np.int64)
    built = HuffmanCodec.from_data(gauss)
    yield "quantisation codes, int64 input", built.symbols, built.lengths, gauss
    yield "2-D input is flattened", built.symbols, built.lengths, gauss[:600].reshape(20, 30)


CASES = list(cases())


class TestKernelAgainstBitOracle:
    @pytest.mark.parametrize("symbols, lengths, data", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_payload_nbits_and_sync(self, symbols, lengths, data):
        codec = HuffmanCodec(symbols, lengths)
        got = codec.encode(data)
        payload, nbits, sync = oracle_encode(symbols, lengths, data)
        assert got.nbits == nbits == codec.expected_bits(data)
        assert got.nsymbols == np.asarray(data).size
        assert got.payload == payload
        assert got.sync.dtype == np.int64 and got.sync.tolist() == sync
        assert codec.covers(data)
        np.testing.assert_array_equal(codec.decode(got), np.asarray(data).ravel())

    def test_empty_input(self):
        for codec in (HuffmanCodec(np.arange(17), ladder(MAX_CODE_LEN)), HuffmanCodec([], [])):
            nothing = np.zeros(0, dtype=np.uint32)
            got = codec.encode(nothing)
            assert (got.payload, got.nbits, got.nsymbols, got.sync.size) == (b"", 0, 0, 0)
            assert codec.expected_bits(nothing) == 0 and codec.covers(nothing)

    @pytest.mark.parametrize("symbols", [
        [5, 6, 9, 12],                                   # dense table with holes
        [5, 6, 9, 5 + _DENSE_SPAN],                      # sorted search
    ], ids=["dense", "sparse"])
    def test_missing_symbol_is_a_keyerror(self, symbols):
        codec = HuffmanCodec(symbols, [2, 2, 2, 2])
        for missing in (7, 4, 13, 0, TOP, 6 + _DENSE_SPAN, -1, 2 ** 32 + 5, -2 ** 63):
            data = np.array([5, missing, 9], dtype=np.int64)
            assert not codec.covers(data)
            for call in (codec.encode, codec.expected_bits):
                with pytest.raises(KeyError, match=str(missing)):
                    call(data)
        assert codec.covers(np.array(symbols))
        with pytest.raises(KeyError):
            HuffmanCodec([], []).encode(np.array([1]))

    def test_non_integer_input_is_refused(self):
        with pytest.raises(TypeError):
            HuffmanCodec([5, 6], [1, 1]).encode(np.array([5.0, 6.5]))

    def test_code_past_16_bits_is_a_valueerror(self):
        with pytest.raises(ValueError, match="code length out of range"):
            HuffmanCodec(np.arange(18), ladder(MAX_CODE_LEN + 1))


class TestCodeLengthsAgainstHeap:
    @pytest.mark.parametrize("counts", [
        [3],
        [1, 1],
        [9, 2],
        [4] * 64,                                        # all equal, power-of-two many
        [4] * 100,                                       # all equal, ragged tree
        [2 ** k for k in range(40)],
        [2 ** k for k in range(20)] * 3,                 # powers of two, each three times
        [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987],
        [1, 1, 2, 3, 5, 8, 13, 21, 34, 55][::-1] * 2,    # unsorted, tied leaves and merges
        [1, 1, 1, 1, 2, 2, 4, 4, 8, 8],                  # a merge ties with a leaf
    ], ids=lambda c: f"n{len(c)}-{c[0]}")
    def test_ties_break_like_the_heap(self, counts):
        got = _huffman_code_lengths_from_counts(np.asarray(counts))
        assert got.dtype == np.int64 and got.tolist() == heap_lengths(counts)

    def test_5000_symbols_full_of_ties(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 40, size=5000)
        got = _huffman_code_lengths_from_counts(counts)
        assert got.tolist() == heap_lengths(counts)
        assert float(np.sum(2.0 ** -got)) == 1.0         # a full prefix code

    def test_no_symbols(self):
        assert _huffman_code_lengths_from_counts(np.zeros(0, dtype=np.int64)).size == 0


class TestPinnedWriterBytes:
    """sha256 of small files from the two writers every codec layer feeds.

    A speed-up must leave these alone (the benchmark's FULL-size files are
    compared against the parent commit by hand, see the verify skill); only a
    deliberate format change re-pins them.  Inputs are benchmarks/e2e's TINY
    ``nyx_1`` at seed 0.
    """

    TINY = {"coarse_shape": (16, 16, 16), "max_grid_size": 8}
    #: format v4: records flag raw codes (from 2 bits a symbol), the header
    #: keeps only ``modify_filter`` of its codec options, no ``value_range``
    #: attr (codes, tables and reconstructions unchanged from the v3 pin)
    PLOTFILE = "e1b425aa714c84a7b5157d81ab4726ec23b9ba9841dc6f79fe84f9ef9d9bd211"
    #: format v4: every chunk a record under its dataset's recipe (the codes,
    #: modes and reconstructions are the v3 pin's)
    DELTA_STEP = "dc9e3056eceabe6e012313a220569e99dc8b60fb36b12f8dba83035a687eaa21"

    @staticmethod
    def sha256(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def test_tiny_nyx1_plotfile(self, tmp_path):
        preset = RUN_PRESETS["nyx_1"]
        path = str(tmp_path / "plt.h5z")
        repro.write(build_run("nyx_1", seed=preset.seed, **self.TINY).hierarchy, path,
                    compressor="sz_lr", error_bound=preset.error_bound_amric)
        assert self.sha256(path) == self.PLOTFILE

    def test_tiny_delta_step(self, tmp_path):
        preset = RUN_PRESETS["nyx_1"]
        sim = build_run("nyx_1", seed=preset.seed, regrid_interval=2, **self.TINY)
        repro.write_series(list(sim.run(2)), str(tmp_path), keyframe_interval=2,
                           error_bound=preset.error_bound_amric)
        with repro.open_series(str(tmp_path)) as series:
            step = series.steps()[1]
        assert step.kind != "key"
        assert self.sha256(tmp_path / step.path) == self.DELTA_STEP
