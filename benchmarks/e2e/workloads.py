"""The five workloads: set-up, timed loop, correctness gate, traced pass.

Every workload drives the program the way a user does — the ``repro.write`` /
``repro.open`` / ``repro.write_series`` facade in-process, and
``python -m repro serve`` as a real subprocess queried over TCP/HTTP — and
keeps every check *outside* the timed sections.  Serving is a closed loop
with one client: an analysis script waits for each reply before it asks
again, so there is no rate to sweep.

An *operation* is one round (``insitu_write``, ``full_read``,
``series_stream``) or one request (``serve_*``).  An operation that raises,
breaks the error bound on a finite cell, returns an array that differs from
a direct read, or is not reproduced byte-for-byte by the next round counts as
**failed**, not as slow.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.amr.box import Box
from repro.amr.hierarchy import AmrHierarchy
from repro.amr.upsample import covered_mask

import inputs
from host import HostSpeed
from inputs import Sizes
from spans import Recorder, installed

__all__ = ["WORKLOADS", "Timed", "SRC_DIR"]

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

PRESETS = ("nyx_1", "warpx_1")
#: every CHECK_EVERY-th served response is compared with a direct read
CHECK_EVERY = 25


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
@dataclass
class Timed:
    """What one timed loop measured."""

    op_s: List[float] = field(default_factory=list)        #: wall seconds per operation
    op_bytes: List[int] = field(default_factory=list)      #: uncompressed field bytes per op
    latency_s: List[float] = field(default_factory=list)   #: the user-visible wait per op
    failed: int = 0
    rounds: bool = True     #: operations are identical rounds, not sized requests

    def throughput_MBps(self) -> float:
        """Uncompressed MB per second of operation time.

        Rounds all move the same bytes, so the median round stands for them
        (one stalled round out of five does not move it); requests differ in
        size by design, so they are totalled.
        """
        if self.rounds:
            return statistics.median(self.op_bytes) / statistics.median(self.op_s) / 1e6
        return sum(self.op_bytes) / sum(self.op_s) / 1e6


def _digest(paths: Sequence[str]) -> str:
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest()


def _series_files(directory: str) -> List[str]:
    return [os.path.join(directory, n) for n in sorted(os.listdir(directory))]


def _bound_holds(reference: AmrHierarchy, restored: AmrHierarchy, rel_eb: float,
                 abs_eb: Optional[Dict[str, float]] = None) -> bool:
    """``|x - x̂| <= bound`` on every finite kept cell of every level and field.

    The relative bound resolves against each level's own value range, as the
    writer does; ``abs_eb`` (per field) overrides it for a series' frozen
    grid.  Coarse cells under finer data are refilled by averaging, not
    bounded, so they are masked out.
    """
    for level in range(reference.nlevels):
        ref_level = reference[level]
        kept = ref_level.boxarray.coverage_mask(ref_level.domain) \
            & ~covered_mask(reference, level)
        for name in reference.component_names:
            ref = ref_level.multifab.to_global(name, ref_level.domain)[kept]
            got = restored[level].multifab.to_global(name, ref_level.domain)[kept]
            finite = np.isfinite(ref)
            if not finite.any():
                continue
            bound = abs_eb[name] if abs_eb is not None else \
                rel_eb * max(ref_level.multifab.value_range(name), 0.0)
            if float(np.max(np.abs(ref[finite] - got[finite]))) > bound * (1 + 1e-6):
                return False
    return True


def _same_hierarchy(a: AmrHierarchy, b: AmrHierarchy) -> bool:
    return a.nlevels == b.nlevels and all(
        np.array_equal(fa.data, fb.data)
        for la, lb in zip(a.levels, b.levels)
        for fa, fb in zip(la.multifab, lb.multifab))


def _warm_codec(workdir: str, seed: int) -> None:
    """Write and read a tiny plotfile so imports and lazy tables are paid for."""
    path = os.path.join(workdir, "warm.h5z")
    repro.write(inputs.hierarchy("nyx_1", seed, inputs.TINY), path,
                compressor="sz_lr", error_bound=inputs.error_bound("nyx_1"))
    with repro.open(path) as handle:
        handle.read()
    os.unlink(path)


def _span_layers(rec: Recorder, traced_s: float, untraced_s: float) -> Dict[str, float]:
    """The per-layer metrics one recorder yields (absent layers read 0).

    ``traced_s`` is the wall time of the traced work, ``untraced_s`` of the
    same work without wrappers.
    """
    return {
        "trace.round_s": traced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.unattributed_frac": 1.0 - rec.covered_s() / traced_s,
        "core.stages.plan_s": rec.total_s("core.stages.plan"),
        "core.stages.pack_s": rec.total_s("core.stages.pack"),
        "core.stages.encode_s": rec.total_s("core.stages.encode"),
        "core.stages.commit_s": rec.total_s("core.stages.commit"),
        "core.stages.encode_jobs": rec.count("core.stages.encode"),
        "compress.regression.fit_s": rec.total_s("compress.regression.fit"),
        "compress.regression.fit_calls": rec.count("compress.regression.fit"),
        "compress.regression.predict_s": rec.total_s("compress.regression.predict"),
        "compress.huffman.build_s": rec.total_s("compress.huffman.build"),
        "compress.huffman.encode_s": rec.total_s("compress.huffman.encode"),
        "compress.huffman.encode_streams": rec.count("compress.huffman.encode"),
        "compress.huffman.encode_symbols": rec.weight("compress.huffman.encode"),
        "compress.huffman.decode_s": rec.total_s("compress.huffman.decode"),
        "compress.huffman.decode_streams": rec.count("compress.huffman.decode"),
        "compress.huffman.decode_symbols": rec.weight("compress.huffman.decode"),
        "compress.container.pack_s": rec.self_s("compress.container.pack"),
        "compress.container.unpack_s": rec.self_s("compress.container.unpack"),
        "compress.sz_lr.self_s": rec.self_s("compress.sz_lr.encode"),
        "compress.sz_lr.decode_self_s": rec.self_s("compress.sz_lr.decode"),
        "core.filter_mod.self_s": rec.self_s("core.filter_mod.encode")
        + rec.self_s("core.filter_mod.decode"),
        "compress.temporal.encode_s": rec.total_s("compress.temporal.encode"),
        "h5lite.file.open_s": rec.total_s("h5lite.file.open"),
        "h5lite.file.write_s": rec.total_s("h5lite.file.write"),
        "h5lite.source.fetch_s": rec.total_s("h5lite.source.fetch"),
        "core.reader.scan_s": rec.total_s("core.reader.scan"),
        "core.reader.decode_s": rec.total_s("core.reader.decode"),
        "core.reader.place_s": rec.total_s("core.reader.place"),
        "amr.upsample.refill_s": rec.total_s("amr.upsample.refill"),
        "series.writer.append_s": rec.total_s("series.writer.append"),
        "stream.journal.append_s": rec.total_s("stream.journal.append"),
        "stream.journal.records": rec.count("stream.journal.append"),
        "series.reader.open_s": rec.total_s("series.reader.open"),
        "series.reader.time_slice_s": rec.total_s("series.reader.time_slice"),
        "series.reader.read_step_s": rec.total_s("series.reader.read_step"),
    }


class _Parts:
    """Wall seconds of one round, taken part by part.

    A round is two or more facade calls; timing them one by one lets the host
    be probed in between (never inside a call), which is what makes the
    kernel follow a 2.5 s round closely enough.
    """

    def __init__(self, host: Optional[HostSpeed] = None):
        self.host = host
        self.seconds = 0.0

    @contextmanager
    def part(self) -> Iterator[None]:
        start = time.perf_counter()
        yield
        self.seconds += time.perf_counter() - start
        if self.host is not None:
            self.host.probe()


def _shm_round(round_fn, workdir: str) -> Tuple[float, object]:
    """``round_fn(backend) -> (result, seconds)`` on a warm 2-worker shared-memory pool.

    Returns ``(seconds, result)``, or ``(0.0, None)`` where the host offers no
    shared memory (the serial numbers stand on their own).
    """
    from repro.parallel.backend import SharedMemoryBackend
    from repro.parallel.shm import sweep_segments

    try:
        backend = SharedMemoryBackend(max_workers=2)
        try:
            # forks the pool and loads the codecs in both workers, untimed
            repro.write(inputs.hierarchy("nyx_1", 0, inputs.TINY),
                        os.path.join(workdir, "shm_warm.h5z"), backend=backend)
            result, seconds = round_fn(backend)
            return seconds, result
        finally:
            backend.close()
            sweep_segments()
    except (OSError, RuntimeError) as exc:
        print(f"# shm backend unavailable here ({exc!r}); parallel.shm.* read 0")
        return 0.0, None


class Workload:
    """Base: one instance is one set-up; ``teardown`` undoes it."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed = int(seed)
        self.sizes = sizes
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def measure(self, seconds: float, host: HostSpeed) -> Timed:
        raise NotImplementedError

    def check(self, timed: Timed) -> None:
        """Verify outputs (untimed); bumps ``timed.failed``."""

    def quality(self) -> Tuple[float, float]:
        """``(compression_ratio, psnr_db_min)`` of what this workload stores."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layers(self) -> Tuple[Dict[str, float], int, int]:
        """The traced pass: ``(per-layer metrics, attempted, failed)``.

        It does a fixed amount of work (one round, or ``Sizes.traced_requests``
        requests) whatever ``--seconds`` says, so every count repeats exactly.
        """
        raise NotImplementedError

    def _path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)


# ----------------------------------------------------------------------
# insitu_write / full_read
# ----------------------------------------------------------------------
class _Plotfiles(Workload):
    """Shared by the two plotfile workloads: the hierarchies and one writer."""

    def _build(self) -> None:
        self.hierarchies = {p: inputs.hierarchy(p, self.seed, self.sizes)
                            for p in PRESETS}

    def _write_round(self, tag: str, backend=None, host: Optional[HostSpeed] = None):
        """Returns ``(paths, reports, seconds)``."""
        clock = _Parts(host)
        paths = [self._path(f"{tag}_{p}.h5z") for p in PRESETS]
        reports = []
        for preset, path in zip(PRESETS, paths):
            with clock.part():
                reports.append(repro.write(
                    self.hierarchies[preset], path, compressor="sz_lr",
                    error_bound=inputs.error_bound(preset), backend=backend))
        return paths, reports, clock.seconds

    def _read_round(self, paths: Sequence[str], backend=None,
                    host: Optional[HostSpeed] = None):
        """Returns ``(hierarchies, (chunks, bytes, requests) per file, seconds)``."""
        clock = _Parts(host)
        out = []
        stats = []
        for path in paths:
            with clock.part():
                with repro.open(path, backend=backend) as handle:
                    out.append(handle.read())
                    stats.append((handle.stats.chunks_decoded,
                                  handle.source_stats.bytes_read,
                                  handle.source_stats.requests))
        return out, stats, clock.seconds

    def _bounds_hold(self, restored: Sequence[AmrHierarchy]) -> bool:
        return all(_bound_holds(self.hierarchies[p], back, inputs.error_bound(p))
                   for p, back in zip(PRESETS, restored))

    def quality(self) -> Tuple[float, float]:
        raw = sum(r.raw_bytes for r in self.reports)
        stored = sum(os.path.getsize(p) for p in self.paths)
        return raw / stored, min(v for r in self.reports for v in r.psnr.values())


class InsituWrite(_Plotfiles):
    """The paper's headline path: predictor-bound, no entropy decode, no geometry."""

    name = "insitu_write"

    def setup(self) -> None:
        self._build()
        _warm_codec(self.workdir, self.seed)

    def measure(self, seconds: float, host: HostSpeed) -> Timed:
        timed = Timed()
        first = None
        begin = time.perf_counter()
        while True:
            paths, reports, round_s = self._write_round(f"r{len(timed.op_s) % 2}",
                                                        host=host)
            timed.op_s.append(round_s)
            timed.op_bytes.append(sum(r.raw_bytes for r in reports))
            digest = _digest(paths)
            first = first or digest
            timed.failed += digest != first
            self.paths, self.reports = paths, reports
            if time.perf_counter() - begin >= seconds:
                break
        timed.latency_s = timed.op_s
        return timed

    def check(self, timed: Timed) -> None:
        restored, _, _ = self._read_round(self.paths)
        if not self._bounds_hold(restored) and timed.failed < len(timed.op_s):
            timed.failed += 1

    def layers(self) -> Tuple[Dict[str, float], int, int]:
        ref_paths, reports, ref_s = self._write_round("ref")
        rec = Recorder()
        with installed(rec):
            paths, _, traced_s = self._write_round("traced")
        shm_s, shm_paths = _shm_round(
            lambda backend: self._write_round("shm", backend)[::2], self.workdir)
        failed = int(_digest(paths) != _digest(ref_paths))
        if shm_paths is not None:
            failed += int(_digest(shm_paths) != _digest(ref_paths))
        raw = sum(r.raw_bytes for r in reports)
        out = _span_layers(rec, traced_s, ref_s)
        out.update({
            "h5lite.file.bytes_written": sum(os.path.getsize(p) for p in paths),
            "parallel.shm.write_speedup": ref_s / shm_s if shm_s else 0.0,
            "parallel.shm.throughput_MBps": raw / shm_s / 1e6 if shm_s else 0.0,
        })
        return out, 2 + (shm_paths is not None), failed


class FullRead(_Plotfiles):
    """The same codec layers run backwards: entropy-decode-bound, no regression fit."""

    name = "full_read"

    def setup(self) -> None:
        self._build()
        self.paths, self.reports, _ = self._write_round("fixture")
        _warm_codec(self.workdir, self.seed)

    def measure(self, seconds: float, host: HostSpeed) -> Timed:
        timed = Timed()
        raw = sum(r.raw_bytes for r in self.reports)
        self.first = None
        begin = time.perf_counter()
        while True:
            restored, _, round_s = self._read_round(self.paths, host=host)
            timed.op_s.append(round_s)
            timed.op_bytes.append(raw)
            if self.first is None:
                self.first = restored
            else:
                timed.failed += not all(
                    _same_hierarchy(a, b) for a, b in zip(self.first, restored))
            if time.perf_counter() - begin >= seconds:
                break
        timed.latency_s = timed.op_s
        return timed

    def check(self, timed: Timed) -> None:
        if not self._bounds_hold(self.first) and timed.failed < len(timed.op_s):
            timed.failed += 1

    def layers(self) -> Tuple[Dict[str, float], int, int]:
        reference, _, ref_s = self._read_round(self.paths)
        rec = Recorder()
        with installed(rec):
            restored, stats, traced_s = self._read_round(self.paths)
        shm_s, shm_restored = _shm_round(
            lambda backend: self._read_round(self.paths, backend)[::2], self.workdir)
        failed = int(not all(_same_hierarchy(a, b) for a, b in zip(reference, restored)))
        if shm_restored is not None:
            failed += int(not all(_same_hierarchy(a, b)
                                  for a, b in zip(reference, shm_restored)))
        raw = sum(r.raw_bytes for r in self.reports)
        out = _span_layers(rec, traced_s, ref_s)
        out.update({
            "core.reader.chunks_decoded": sum(s[0] for s in stats),
            "h5lite.source.bytes_read": sum(s[1] for s in stats),
            "h5lite.source.requests": sum(s[2] for s in stats),
            "parallel.shm.read_speedup": ref_s / shm_s if shm_s else 0.0,
            "parallel.shm.throughput_MBps": raw / shm_s / 1e6 if shm_s else 0.0,
        })
        return out, 2 + (shm_restored is not None), failed


# ----------------------------------------------------------------------
# serve_warm / serve_cold
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve`` as a subprocess on ephemeral ports."""

    READY_TIMEOUT_S = 60.0

    def __init__(self, workdir: str, cache_bytes: Optional[int] = None):
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--http", "0", "--no-request-log"]
        if cache_bytes is not None:
            cmd += ["--cache-bytes", str(cache_bytes)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._log_path = os.path.join(workdir, "server.log")
        self._log = open(self._log_path, "wb")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self._log,
                                     env=env, cwd=workdir)
        try:
            self.port, self.http_port = self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> Tuple[int, int]:
        """Parse the two ready lines the CLI prints once both listeners are up."""
        text = b""
        deadline = time.monotonic() + self.READY_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if selector.select(timeout=0.2):
                    chunk = os.read(self.proc.stdout.fileno(), 4096)
                    if not chunk:
                        break
                    text += chunk
                tcp = re.search(rb"serving on [^:\s]+:(\d+)", text)
                http = re.search(rb"http gateway on [^:\s]+:(\d+)", text)
                if tcp and http:
                    return int(tcp.group(1)), int(http.group(1))
                if self.proc.poll() is not None:
                    break
        self._log.flush()
        with open(self._log_path, "rb") as fh:
            tail = fh.read()[-2000:].decode("utf-8", "replace")
        raise RuntimeError(f"server did not come up (exit {self.proc.poll()}): "
                           f"{text!r}\n{tail}")

    def peak_rss_mb(self) -> float:
        """The server's resident high-water mark (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _pin(server: Server) -> Optional[set]:
    """Client and server on one core: the one the calibration kernel runs on.

    A closed loop never has both busy at once, so sharing a core costs a
    context switch per request.  On two cores every request waits for two
    cross-core wake-ups, and the request time follows the state of a core the
    client-side kernel (:mod:`host`) cannot see: on the shared sandbox host
    ``serve_cold`` then slowed by 70% where the kernel slowed by 10%.

    Returns the client's previous affinity for :func:`os.sched_setaffinity`
    to restore at teardown, or None where nothing was pinned.
    """
    try:
        before = os.sched_getaffinity(0)
        core = {max(before)}
        os.sched_setaffinity(server.proc.pid, core)
        os.sched_setaffinity(0, core)
        return before
    except (AttributeError, OSError):
        return None


class _Serve(Workload):
    """``read_field(level=0, refill=True)`` box reads against one nyx_1 plotfile."""

    warm = True

    def _cache_bytes(self) -> Optional[int]:
        return None if self.warm else self.sizes.cold_cache_bytes

    def setup(self) -> None:
        from repro.service import ReproClient

        self.server = None
        self.client = None
        self.affinity = None
        self.hierarchy = inputs.hierarchy("nyx_1", self.seed, self.sizes)
        self.path = self._path("nyx_1.h5z")
        self.report = repro.write(self.hierarchy, self.path, compressor="sz_lr",
                                  error_bound=inputs.error_bound("nyx_1"))
        self.fields = tuple(self.hierarchy.component_names)
        self.domain = self.hierarchy[0].domain
        self.server = Server(self.workdir, self._cache_bytes())
        self.affinity = _pin(self.server)
        self.client = ReproClient(port=self.server.port)
        self._prepare(self.client)

    def _prepare(self, client) -> None:
        """Fill the cache (warm) or just open the handle (cold)."""
        if self.warm:
            for name in self.fields:
                client.read_field(self.path, name, level=0)
        else:
            client.describe(self.path)

    def teardown(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
        finally:
            if self.server is not None:
                self.server.stop()
            if self.affinity is not None:
                os.sched_setaffinity(0, self.affinity)
            super().teardown()

    def quality(self) -> Tuple[float, float]:
        return (self.report.raw_bytes / os.path.getsize(self.path),
                min(self.report.psnr.values()))

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def _stream(self) -> Iterator[Tuple[str, Box]]:
        return inputs.queries(self.seed, self.domain, self.fields, self.sizes)

    def _request_loop(self, client, stream, timed: Timed, *,
                      seconds: float = float("inf"),
                      host: Optional[HostSpeed] = None) -> None:
        """One request per item of ``stream`` until it ends or ``seconds`` are up."""
        from repro.service import ServiceError

        begin = time.perf_counter()
        for name, box in stream:
            start = time.perf_counter()
            try:
                array = client.read_field(self.path, name, level=0, box=box)
            except ServiceError:
                array = None
            elapsed = time.perf_counter() - start
            timed.op_s.append(elapsed)
            if array is None:
                timed.op_bytes.append(0)
                timed.failed += 1
            else:
                timed.op_bytes.append(int(array.nbytes))
                if len(timed.op_s) % CHECK_EVERY == 1:
                    self.sampled.append((name, box, array))
            if host is not None:
                host.probe()
            if time.perf_counter() - begin >= seconds:
                break

    def measure(self, seconds: float, host: HostSpeed) -> Timed:
        timed = Timed(rounds=False)
        self.sampled: List[Tuple[str, Box, np.ndarray]] = []
        self._request_loop(self.client, self._stream(), timed, seconds=seconds, host=host)
        timed.latency_s = timed.op_s
        return timed

    def check(self, timed: Timed) -> None:
        with repro.open(self.path) as handle:
            for name, box, array in self.sampled:
                direct = handle.read_field(name, level=0, box=box)
                timed.failed += not np.array_equal(direct, array)

    # -- traced pass ----------------------------------------------------
    def layers(self) -> Tuple[Dict[str, float], int, int]:
        from repro.service import FakeClient, HttpClient, QueryEngine
        from repro.service.cache import DEFAULT_CACHE_BYTES
        from repro.service.wire import decode_line, encode_line

        count = self.sizes.traced_requests[self.name]
        requests = list(itertools.islice(self._stream(), count))

        # the real server: TCP then HTTP over the same stream, counters from
        # its public stats op before/after
        self.sampled = []
        before = self.client.stats()
        tcp = Timed()
        self._request_loop(self.client, requests, tcp)
        after = self.client.stats()
        http = Timed()
        with HttpClient(port=self.server.http_port) as http_client:
            self._request_loop(http_client, requests, http)
        self.check(tcp)
        failed = tcp.failed + http.failed

        def delta(key: str) -> float:
            return float(after[key]) - float(before[key])

        lookups = delta("cache_hits") + delta("cache_misses")

        # the same stream in-process: core + codec with no socket, then the
        # engine alone, then the engine under wrappers
        cache_bytes = self._cache_bytes() or DEFAULT_CACHE_BYTES
        with QueryEngine(cache_bytes=cache_bytes) as engine, \
                FakeClient(engine=engine) as fake:
            self._prepare(fake)
            loop = Timed()
            self._request_loop(fake, requests, loop)
            self._prepare(fake)
            alone = []
            answers = []
            for name, box in requests:
                start = time.perf_counter()
                answers.append(engine.read_field(self.path, name, level=0, box=box))
                alone.append(time.perf_counter() - start)
            encode_s = decode_s = 0.0
            wire_bytes = 0
            for i, answer in enumerate(answers):
                start = time.perf_counter()
                line = encode_line({"v": 2, "id": i, "ok": True, "result": answer})
                mid = time.perf_counter()
                decode_line(line)
                decode_s += time.perf_counter() - mid
                encode_s += mid - start
                wire_bytes += len(line)
            self._prepare(fake)
            rec = Recorder()
            with installed(rec):
                start = time.perf_counter()
                for name, box in requests:
                    with rec.span("service.engine.read"):
                        engine.read_field(self.path, name, level=0, box=box)
                traced_s = time.perf_counter() - start

        ms = 1e3
        tcp_p50 = statistics.median(tcp.op_s) * ms
        http_p50 = statistics.median(http.op_s) * ms
        fake_p50 = statistics.median(loop.op_s) * ms
        engine_p50 = statistics.median(alone) * ms
        encode_ms = encode_s / count * ms
        decode_ms = decode_s / count * ms
        out = _span_layers(rec, traced_s, sum(alone))
        out.update({
            "service.server.latency_ms_p95": statistics.quantiles(tcp.op_s, n=20)[-1] * ms,
            "service.http.latency_ms_p50": http_p50,
            "service.engine.read_ms_p50": engine_p50,
            "amr.box.intersect_calls_per_req": rec.count("amr.box.intersect") / count,
            "amr.box.intersect_ms_per_req": rec.total_s("amr.box.intersect") / count * ms,
            "service.cache.hit_rate": delta("cache_hits") / lookups if lookups else 0.0,
            "service.cache.evictions": delta("cache_evictions"),
            "core.reader.chunks_decoded_per_req": delta("chunks_decoded") / count,
            "h5lite.source.bytes_per_req": delta("io_bytes_read") / count,
            "service.wire.encode_ms_per_resp": encode_ms,
            "service.wire.decode_ms_per_resp": decode_ms,
            "service.wire.bytes_per_resp": wire_bytes / count,
            "service.core.dispatch_ms": fake_p50 - engine_p50 - encode_ms - decode_ms,
            "service.server.transport_ms": tcp_p50 - fake_p50,
            "service.http.transport_ms": http_p50 - fake_p50,
        })
        return out, 2 * count, failed


class ServeWarm(_Serve):
    """Working set fits the cache: geometry + wire + transport are the whole request."""

    name = "serve_warm"
    warm = True


class ServeCold(_Serve):
    """Working set >> cache: chunk decode dominates, geometry and wire vanish."""

    name = "serve_cold"
    warm = False


# ----------------------------------------------------------------------
# series_stream
# ----------------------------------------------------------------------
class SeriesStream(Workload):
    """Append-mode series write (journal + fsync), cold time_slices, last-step read."""

    name = "series_stream"
    FIELD = "baryon_density"

    def setup(self) -> None:
        self.steps = inputs.series_steps(self.seed, self.sizes)
        self.probes = inputs.probe_boxes(self.seed, list(self.steps[0][0].boxarray),
                                         self.sizes)
        self.rel_eb = inputs.error_bound("nyx_1")
        _warm_codec(self.workdir, self.seed)

    def _round(self, tag: str, host: Optional[HostSpeed] = None):
        """Returns ``(directory, reports, slices, last step, round s, slice s, chunks)``."""
        clock = _Parts(host)
        directory = self._path(tag)
        shutil.rmtree(directory, ignore_errors=True)
        with clock.part():
            reports = repro.write_series(
                self.steps, directory, keyframe_interval=self.sizes.keyframe_interval,
                append=True, error_bound=self.rel_eb)
        slices, slice_s = [], []
        for probe in self.probes:       # a fresh handle each: every slice is cold
            before = clock.seconds
            with clock.part():
                with repro.open_series(directory) as series:
                    slices.append(series.time_slice(self.FIELD, probe, refill=False)[1])
            slice_s.append(clock.seconds - before)
        with clock.part():
            with repro.open_series(directory) as series:
                last = series.read(step=-1)
                chunks = series.stats.chunks_decoded
        return directory, reports, slices, last, clock.seconds, slice_s, chunks

    def measure(self, seconds: float, host: HostSpeed) -> Timed:
        timed = Timed()
        first = None
        begin = time.perf_counter()
        while True:
            (self.directory, self.reports, self.slices, self.last,
             total_s, slice_s, _) = self._round(f"r{len(timed.op_s) % 2}", host)
            timed.op_s.append(total_s)
            timed.latency_s.extend(slice_s)
            timed.op_bytes.append(sum(r.raw_bytes for r in self.reports))
            digest = _digest(_series_files(self.directory))
            first = first or digest
            timed.failed += digest != first
            if time.perf_counter() - begin >= seconds:
                break
        return timed

    def check(self, timed: Timed) -> None:
        # the series quantises on one grid frozen from the first dump's range
        abs_eb = {name: self.rel_eb * self.steps[0].value_range(name)
                  for name in self.steps[0].component_names}
        ok = _bound_holds(self.steps[-1], self.last, self.rel_eb, abs_eb)
        with repro.open_series(self.directory) as series:
            for probe, values in zip(self.probes, self.slices):
                stack = np.stack([series.read_field(self.FIELD, box=probe, step=i,
                                                    refill=False)
                                  for i in range(len(self.steps))])
                ok = ok and np.array_equal(stack, values)
            # the end of the first delta chain, decoded through its references
            chain_end = self.sizes.keyframe_interval - 1
            ok = ok and _bound_holds(self.steps[chain_end], series.read(step=chain_end),
                                     self.rel_eb, abs_eb)
        if not ok and timed.failed < len(timed.op_s):
            timed.failed += 1

    def quality(self) -> Tuple[float, float]:
        raw = sum(r.raw_bytes for r in self.reports)
        stored = sum(os.path.getsize(p) for p in _series_files(self.directory))
        return raw / stored, min(v for r in self.reports for v in r.psnr.values())

    def layers(self) -> Tuple[Dict[str, float], int, int]:
        from repro.series import SeriesIndex

        ref_dir, _, ref_slices, ref_last, ref_s, _, _ = self._round("ref")
        rec = Recorder()
        with installed(rec):
            directory, _, slices, last, traced_s, _, chunks = self._round("traced")
        failed = int(_digest(_series_files(directory)) != _digest(_series_files(ref_dir))
                     or not all(np.array_equal(a, b) for a, b in zip(slices, ref_slices))
                     or not _same_hierarchy(last, ref_last))
        kinds = [step.kind for step in SeriesIndex.load(directory).steps]
        out = _span_layers(rec, traced_s, ref_s)
        out.update({
            "series.writer.key_steps": kinds.count("key"),
            "series.writer.delta_steps": len(kinds) - kinds.count("key"),
            "series.reader.chunks_decoded": chunks,
            "h5lite.file.bytes_written": sum(os.path.getsize(p)
                                             for p in _series_files(directory)),
        })
        return out, 2, failed


WORKLOADS = {w.name: w for w in
             (InsituWrite, FullRead, ServeWarm, ServeCold, SeriesStream)}
