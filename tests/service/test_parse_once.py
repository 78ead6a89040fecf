"""Each chunk record is parsed at most once per open handle.

A box read's miss fetches and parses its chunk records in the fetch stage
(``make_decode_job``); a box-reading handle keeps the parsed records of
record-format (AMRIC) chunks under ``(dataset, chunk)``, so a later miss in
the chunk goes straight to the entropy pass.  These tests hold that to the
answers of fresh handles, to the ``records_parsed`` count, to damage, to the
full read (which keeps nothing), to memory and to threads.
"""

import sys
import threading

import numpy as np
import pytest

import repro
from repro.amr.box import Box
from repro.apps import nyx_run
from repro.compress.huffman import HuffmanCodec, HuffmanEncoded
from repro.errors import CorruptFileError
from repro.service import QueryEngine
from repro.service.cache import ChunkCache

from test_chunk_door import _with_payload

FIELD = "baryon_density"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One hierarchy written as sz_lr, sz_interp and nocomp plotfiles."""
    hierarchy = nyx_run(coarse_shape=(32, 32, 32), nranks=4, target_fine_density=0.03,
                        seed=11).hierarchy
    out = {}
    for name, options in (("sz_lr", {}), ("sz_interp", {"compressor": "sz_interp"}),
                          ("nocomp", {"method": "nocomp"})):
        out[name] = str(tmp_path_factory.mktemp("parse-once") / f"{name}.h5z")
        repro.write(hierarchy, out[name], error_bound=1e-3, **options)
    return out


def _boxes(handle, count=24, seed=3):
    """Seeded box reads over every field and level, refill on and off."""
    rng = np.random.default_rng(seed)
    reads = []
    for i in range(count):
        level = int(rng.integers(handle.nlevels))
        domain = handle.header.levels[level].domain()
        size = np.asarray(domain.hi) - np.asarray(domain.lo) + 1
        lo = np.asarray(domain.lo) + rng.integers(0, size, 3)
        hi = np.minimum(lo + rng.integers(1, 12, 3), np.asarray(domain.hi))
        reads.append((handle.fields[i % len(handle.fields)], level,
                      Box(tuple(lo.tolist()), tuple(hi.tolist())), bool(i % 2)))
    return reads


def _kept(handle):
    return {(name, chunk): record for name, records in handle._records.items()
            for chunk, record in records.items()}


def _leaves(obj):
    """What a kept record holds: its arrays, bytes and other objects."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif isinstance(obj, HuffmanEncoded):
        obj = list(vars(obj).values())
    if isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _leaves(value)
    else:
        yield obj


def _root(leaf):
    """The object whose memory an array views (itself when it owns it)."""
    while isinstance(leaf, np.ndarray) and leaf.base is not None:
        leaf = leaf.base
    return leaf


def _owned_bytes(records):
    """Bytes the kept records hold alive: each array counted by the buffer
    it views (an array over an inflated blob counts the whole blob), once."""
    owners = {id(_root(leaf)): _root(leaf) for leaf in _leaves(records)}
    return sum(memoryview(owner).nbytes for owner in owners.values()
               if isinstance(owner, (np.ndarray, bytes)))


class TestAKeptRecordDecodesAsAFreshOne:
    @pytest.mark.parametrize("kind", ["sz_lr", "sz_interp", "nocomp"])
    def test_a_long_lived_handle_reads_as_fresh_handles(self, files, kind):
        """A 64 KiB block cache evicts all the time, so the long-lived handle
        decodes its misses from the records it kept: bit for bit what a fresh
        handle (which parses everything anew) reads."""
        with repro.open(files[kind], cache=ChunkCache(1 << 16)) as lived:
            for _ in range(2):
                for name, level, box, refill in _boxes(lived):
                    got = lived.read_field(name, level=level, box=box, refill=refill)
                    with repro.open(files[kind]) as fresh:
                        want = fresh.read_field(name, level=level, box=box, refill=refill)
                    assert got.tobytes() == want.tobytes()
            kept = _kept(lived)
            if kind == "nocomp":
                assert kept == {}                   # raw chunks: nothing to parse
            else:
                assert kept and lived.stats.records_parsed == len(kept)
                assert lived.stats.chunks_decoded > len(kept)

    @pytest.mark.parametrize("backend", ["shm"], indirect=True)
    def test_kept_records_decode_on_a_pool_as_inline(self, files, backend):
        reads = None
        with repro.open(files["sz_lr"], cache=ChunkCache(1 << 16)) as inline, \
                repro.open(files["sz_lr"], cache=ChunkCache(1 << 16), backend=backend) as pool:
            reads = _boxes(inline, count=12)
            for _ in range(2):
                for name, level, box, refill in reads:
                    assert np.array_equal(
                        inline.read_field(name, level=level, box=box, refill=refill),
                        pool.read_field(name, level=level, box=box, refill=refill))
            assert _kept(pool).keys() == _kept(inline).keys()


class TestParsedOnce:
    def test_two_cold_misses_in_one_chunk_parse_it_once(self, files):
        with repro.open(files["sz_lr"]) as handle:
            dplan = handle._scan().dataset(0, FIELD)
            layout = dplan.layout
            first = layout.rank_runs[0].start
            boxes = [Box(tuple(layout.lo[slot].tolist()),
                         tuple((layout.lo[slot] + layout.shapes[slot] - 1).tolist()))
                     for slot in (first, first + 1)]
            handle.read_field(FIELD, level=0, box=boxes[0], refill=False)
            fetched = handle.source_stats.requests
            handle.read_field(FIELD, level=0, box=boxes[1], refill=False)
            assert handle.stats.records_parsed == 1
            assert handle.stats.chunks_decoded == handle.stats.blocks_decoded == 2
            assert handle.source_stats.requests == fetched    # not fetched again

    def test_a_full_read_parses_every_record_once_and_keeps_none(self, files):
        with repro.open(files["sz_lr"]) as handle:
            handle.read()
            nchunks = sum(d.nchunks for d in handle._scan().datasets)
            assert handle.stats.records_parsed == nchunks
            assert _kept(handle) == {}

    def test_kept_bytes_stay_within_half_again_the_stored_bytes(self, files):
        """The lean form: codes, sync offsets, side arrays and tables, no
        inflated blob and no decode table held through them."""
        with repro.open(files["sz_lr"], cache=ChunkCache(1 << 16)) as handle:
            for name in handle.fields:
                for level in handle.levels:
                    handle.read_field(name, level=level, refill=False)
            kept = _kept(handle)
            assert len(kept) == sum(d.nchunks for d in handle._scan().datasets)
            stored = sum(handle.dataset_info(name).chunks[chunk].nbytes
                         for name, chunk in kept)
            leaves = list(_leaves(list(kept.values())))
            # no array views bytes (an inflated blob it would keep alive) and
            # no kept codec holds the decode tables its passes built
            assert all(isinstance(_root(leaf), np.ndarray)
                       for leaf in leaves if isinstance(leaf, np.ndarray))
            codecs = [leaf for leaf in leaves if isinstance(leaf, HuffmanCodec)]
            assert codecs and all(c._lut is None and c._dec is None for c in codecs)
            held = _owned_bytes(list(kept.values()))
            assert stored < held <= 1.5 * stored, (held, stored)
        assert handle._records == {}                    # they go with the handle


class TestDamageIsNeverKept:
    def test_a_damaged_chunk_fails_every_request_and_is_never_kept(self, files, tmp_path):
        name = f"level_1/{FIELD}"

        def flip(_, payload):
            return payload[:40] + bytes([payload[40] ^ 0x10]) + payload[41:]

        damaged = _with_payload(files["sz_lr"], str(tmp_path / "damaged.h5z"), name, 1, flip)
        with repro.open(damaged) as handle:
            assert handle.dataset_info(name).nchunks > 1
            for _ in range(2):
                parsed = handle.stats.records_parsed
                with pytest.raises(CorruptFileError, match=f"{name}, chunks \\[1\\]"):
                    handle.read_field(FIELD, level=1, refill=False)
                assert (name, 1) not in _kept(handle)
                assert handle.stats.records_parsed > parsed      # parsed again, refused again


class TestThreads:
    def test_threads_through_one_engine_read_what_a_direct_read_does(self, files):
        """More threads than cores, switching often, through one engine and a
        cache that evicts all the time: the kept records are shared, parsed
        by whichever thread meets a chunk first (or by two at once)."""
        with repro.open(files["sz_lr"]) as direct:
            reads = _boxes(direct, count=30, seed=9)
            want = [direct.read_field(n, level=lv, box=b, refill=r).tobytes()
                    for n, lv, b, r in reads]
        nthreads = 4
        got = [[None] * len(reads) for _ in range(nthreads)]
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryEngine(cache_bytes=1 << 16) as engine:
                start = threading.Barrier(nthreads)

                def reader(slot):
                    try:
                        start.wait(timeout=60)
                        for i, (n, lv, b, r) in enumerate(reads):
                            got[slot][i] = engine.read_field(files["sz_lr"], n, level=lv,
                                                             box=b, refill=r).tobytes()
                    except Exception as exc:  # noqa: BLE001 - reported below
                        errors.append(exc)

                threads = [threading.Thread(target=reader, args=(slot,))
                           for slot in range(nthreads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                kept = _kept(engine.handle(files["sz_lr"]))
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert all(answers == want for answers in got)
        assert kept and all(not isinstance(record, bytes) for record in kept.values())
