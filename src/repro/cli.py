"""The ``python -m repro`` command line: plotfile tooling over the facade.

Six subcommands, all thin shells over :func:`repro.open` / :func:`repro.write`
and their series/service counterparts.  ``info`` and ``verify`` take a
plotfile or a series directory (:func:`repro.series.is_series_dir` tells
them apart):

``info PATH``
    Print the self-describing header summary and per-dataset storage table
    of a plotfile — or a series' manifest summary and per-step temporal
    rate-distortion table (``--step N`` adds that step's datasets).  Nothing
    is decoded.
``compress OUT``
    Produce a compressed plotfile, either from a synthetic run preset
    (``--preset nyx_1``) or by recompressing an existing plotfile
    (``--input other.h5z``).
``decompress IN OUT``
    Fully reconstruct a plotfile and rewrite it uncompressed (method
    "nocomp"), itself self-describing and re-openable; its header keeps the
    source's error bound, which its values still carry.
``verify PATH``
    Scan + decode every chunk of a plotfile and check the reconstruction is
    structurally sound; with ``--against RAW`` also check the decoded data
    stays within the header's error bound of the reference copy.  On a
    series, decode every step (resolving all delta chains) and check
    keyframe cadence, manifest/file consistency, fields and finiteness.
``serve``
    Run the query service (:mod:`repro.service`): one shared chunk cache and
    query engine serving describe/read_field/time_slice to concurrent
    clients, and watching live series for subscribers.  By
    default a JSON-over-TCP listener; ``--http PORT`` adds (or, with
    ``--http-only``, substitutes) the HTTP/JSON gateway — ``POST /v1/query``,
    ``GET /metrics``, ``GET /healthz``, chunked ``GET /v1/subscribe`` — over
    the *same* request core, so both transports share one auth policy
    (``--auth-token``, literal or ``env:NAME`` / ``file:PATH``), one request
    size limit and one per-client rate limiter.
``query``
    One request against a running ``serve`` instance (describe, read-field,
    time-slice, stats, ping, refresh) — or a *stream*: ``query follow DIR``
    subscribes to a live series and prints one JSON line per committed step
    as it lands, pairing each with a box read when ``--field`` is given,
    reconnecting and resuming from the next unseen step if the server drops.
    ``query stats`` is one live telemetry snapshot: engine counters plus the
    full metrics registry (cache hits, I/O bytes and coalescing, per-op
    latency histograms with derived p50/p99, span timings) as two tables;
    ``--prom`` renders the registry in the Prometheus text exposition format,
    ``--json`` prints ``{"engine", "registry"}``.

Every command exits 0 on success and 1 on failure, with errors reported as
one-line messages (corrupt files — and files without a self-describing
header — surface the underlying ``ValueError``; so does a flag that does not
apply to the given path or method, which is refused rather than dropped).
Every subcommand decodes and encodes inline; a process pool is an API choice
(``backend=`` on :func:`repro.write` / :func:`repro.open`), not a flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _add_source_arg(subparser) -> None:
    subparser.add_argument(
        "--source", default=None,
        help="byte-source spec (default: the local file): RangeSource "
             "modifiers like latency:50ms,bandwidth:10m,block:64k,gap:128k,"
             "cache:8m or bare 'range' (simulates a high-latency medium with "
             "coalescing + block cache)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="AMRIC plotfile tooling (self-describing format v4)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print plotfile or series metadata "
                                         "(no decoding)")
    p_info.add_argument("path", help="plotfile or series directory")
    p_info.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the summary as JSON")
    p_info.add_argument("--step", type=int, default=None,
                        help="series only: also print this step's "
                             "per-dataset table")
    _add_source_arg(p_info)
    p_info.add_argument("--stats", action="store_true",
                        help="also print the open's byte-source I/O counters")

    p_comp = sub.add_parser("compress", help="write a compressed plotfile")
    p_comp.add_argument("out", help="output plotfile path")
    src = p_comp.add_mutually_exclusive_group()
    src.add_argument("--preset", default="nyx_1",
                     help="synthetic run preset to compress (default nyx_1)")
    src.add_argument("--input", default=None,
                     help="recompress an existing (self-describing) plotfile")
    p_comp.add_argument("--codec", default="sz_lr",
                        help="codec registry name (default sz_lr)")
    p_comp.add_argument("--error-bound", type=float, default=1e-3)
    p_comp.add_argument("--method", default="amric",
                        help="writer method: amric (default), amrex_1d, nocomp")

    p_dec = sub.add_parser("decompress",
                           help="reconstruct a plotfile and store it raw")
    p_dec.add_argument("input")
    p_dec.add_argument("out")

    p_ver = sub.add_parser("verify", help="decode everything and check integrity")
    p_ver.add_argument("path", help="plotfile or series directory")
    p_ver.add_argument("--against", default=None,
                       help="plotfile only: reference plotfile (e.g. the "
                            "nocomp copy) to check the error bound against")
    _add_source_arg(p_ver)
    p_ver.add_argument("--stats", action="store_true",
                       help="also print the decode's byte-source I/O counters")

    p_srv = sub.add_parser("serve",
                           help="run the JSON-over-TCP query service")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=None,
                       help="TCP port (default 9753; 0 binds an ephemeral "
                            "port, printed on startup)")
    p_srv.add_argument("--cache-bytes", type=int, default=None,
                       help="shared cache budget in bytes for decoded unit "
                            "blocks only (default 128 MiB); the parsed chunk "
                            "records an open file keeps are not counted")
    p_srv.add_argument("--max-workers", type=int, default=8,
                       help="engine calls in flight across all TCP "
                            "connections (default 8)")
    p_srv.add_argument("--watch-interval", type=float, default=None,
                       help="poll period (seconds) for live series watched "
                            "by subscribers (default 0.25)")
    p_srv.add_argument("--no-request-log", action="store_true",
                       help="suppress the structured JSON request log "
                            "(one line per answered request on stderr)")
    p_srv.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="also serve the HTTP/JSON gateway on this port "
                            "(0 binds an ephemeral port, printed on startup)")
    p_srv.add_argument("--http-only", action="store_true",
                       help="serve only the HTTP gateway (requires --http)")
    p_srv.add_argument("--auth-token", default=None, metavar="SPEC",
                       help="require this bearer token on both transports: "
                            "a literal value, env:NAME, or file:PATH")
    p_srv.add_argument("--max-request-bytes", type=int, default=None,
                       help="refuse requests larger than this "
                            "(default 16 MiB; structured oversized_request "
                            "error / HTTP 413)")
    p_srv.add_argument("--rate-limit", type=float, default=None,
                       help="per-client token-bucket rate limit in "
                            "requests/second (default: unlimited)")
    p_srv.add_argument("--rate-burst", type=float, default=None,
                       help="token-bucket depth (default: max(1, rate))")
    _add_source_arg(p_srv)

    p_q = sub.add_parser("query",
                         help="one request against a running serve instance")
    p_q.add_argument("op", help="describe | read-field | time-slice | stats "
                                "| ping | refresh | follow")
    p_q.add_argument("path", nargs="?", default=None,
                     help="plotfile or series directory (describe/read-field/"
                          "time-slice/refresh/follow)")
    p_q.add_argument("--host", default="127.0.0.1")
    p_q.add_argument("--port", type=int, default=None)
    p_q.add_argument("--field", default=None)
    p_q.add_argument("--level", type=int, default=0)
    p_q.add_argument("--box", default=None,
                     help="inclusive cell range per axis, e.g. 0:7,0:7,0:7")
    p_q.add_argument("--step", type=int, default=None,
                     help="series step for read-field")
    p_q.add_argument("--steps", default=None,
                     help="comma-separated step list for time-slice")
    p_q.add_argument("--no-refill", action="store_true",
                     help="do not restore covered coarse cells from finer data")
    p_q.add_argument("--max-level", type=int, default=None,
                     help="progressive-read cap: refill never recurses past "
                          "this level (read-field/time-slice)")
    p_q.add_argument("--from-step", type=int, default=0,
                     help="first step index to stream when following "
                          "(default 0: catch up from the start)")
    p_q.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the full result (arrays included) as JSON")
    p_q.add_argument("--prom", action="store_true",
                     help="stats: render the registry in the Prometheus text "
                          "exposition format")
    p_q.add_argument("--http", action="store_true",
                     help="talk to the HTTP gateway instead of the TCP "
                          "service (default port 9754)")
    p_q.add_argument("--auth-token", default=None, metavar="SPEC",
                     help="bearer token for a server running with "
                          "--auth-token (literal, env:NAME, or file:PATH)")
    return parser


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _print_plotfile_summary(summary: dict) -> None:
    print(f"plotfile {summary['path']}")
    for key in ("self_describing", "format_version", "method", "codec",
                "error_bound", "time", "step", "unit_block_size",
                "remove_redundancy"):
        print(f"  {key:18s} {summary[key]}")
    print(f"  {'fields':18s} {', '.join(summary['fields'])}")
    print(f"  {'levels':18s} {summary['levels']} "
          f"(boxes {summary['boxes_per_level']})")
    print(f"  {'stored':18s} {summary['stored_bytes']} bytes "
          f"({summary['compression_ratio']:.1f}x over {summary['logical_bytes']})")


def _print_series_summary(summary: dict) -> None:
    print(f"series {summary['directory']}")
    for key in ("nsteps", "keyframes", "codec", "error_bound",
                "error_bound_mode", "keyframe_interval"):
        print(f"  {key:20s} {summary[key]}")
    print(f"  {'fields':20s} {', '.join(summary['fields'])}")
    print(f"  {'stored':20s} {summary['stored_bytes']} bytes "
          f"({summary['compression_ratio']:.1f}x over {summary['raw_bytes']})")
    print(f"  {'vs keyframe-only':20s} {summary['keyframe_only_bytes']} bytes implied "
          f"by its tables ({summary['delta_savings_factor']:.2f}x saved "
          f"{summary['delta_saved_bytes']} bytes)")


def _cmd_info(args) -> int:
    import repro
    from repro.analysis.reporting import format_table, io_stats_rows, \
        plotfile_dataset_rows
    from repro.analysis.series_report import series_dataset_rows, \
        series_step_rows
    from repro.series import is_series_dir

    series = is_series_dir(args.path)
    if args.step is not None and not series:
        raise ValueError(
            f"--step only applies to a series directory, not {args.path!r}")
    with (repro.open_series if series else repro.open)(
            args.path, source=args.source) as handle:
        summary = handle.describe()
        step_rows = series_step_rows(handle) if series else None
        if series:
            rows = series_dataset_rows(handle, args.step) \
                if args.step is not None else None
        else:
            rows = plotfile_dataset_rows(handle)
        stats_rows = io_stats_rows(handle) if args.stats else None
    if args.as_json:
        if stats_rows is not None:
            summary["io_stats"] = {row["metric"]: row["value"]
                                   for row in stats_rows}
        if rows is not None:
            summary["dataset_rows"] = rows
        print(json.dumps(summary, indent=2))
        return 0
    (_print_series_summary if series else _print_plotfile_summary)(summary)
    tables = [(None, step_rows)] if series else []
    if rows is not None:
        tables.append((f"step {args.step}" if series else None, rows))
    if stats_rows is not None:
        tables.append(("byte-source I/O", stats_rows))
    for title, table in tables:
        print()
        print(format_table(table, title=title))
    return 0


def _cmd_compress(args) -> int:
    import repro

    # flags the baseline writers cannot honour are refused, not dropped
    if args.method != "amric":
        if args.codec != "sz_lr":
            raise ValueError(
                f"--codec only applies to --method amric, not {args.method!r}")
    if args.input is not None:
        with repro.open(args.input) as handle:
            hierarchy = handle.read()
        source = args.input
    else:
        from repro.apps.driver import build_run

        hierarchy = build_run(args.preset).hierarchy
        source = f"preset {args.preset}"
    if args.method == "amric":
        report = repro.write(hierarchy, args.out, compressor=args.codec,
                             error_bound=args.error_bound)
    else:
        kwargs = {}
        if args.method == "amrex_1d":
            kwargs["error_bound"] = args.error_bound
        elif args.error_bound != 1e-3:
            raise ValueError(
                f"--error-bound does not apply to --method {args.method!r}")
        report = repro.write(hierarchy, args.out, method=args.method, **kwargs)
    print(f"compressed {source} -> {args.out}: method={report.method} "
          f"CR={report.compression_ratio:.1f}x "
          f"mean_psnr={report.mean_psnr:.1f}dB "
          f"datasets={report.ndatasets}")
    return 0


def _cmd_decompress(args) -> int:
    import repro
    from repro.core.header import CHUNK_ALIGNMENT_BOX_MAJOR

    with repro.open(args.input) as handle:
        if handle.header.chunk_alignment == CHUNK_ALIGNMENT_BOX_MAJOR:
            hierarchy, _ = _box_major_read(handle)
        else:
            hierarchy = handle.read()
    report = repro.write(hierarchy, args.out, method="nocomp", error_bound=handle.error_bound,
                         error_bound_mode=handle.header.error_bound_mode)
    print(f"decompressed {args.input} -> {args.out}: "
          f"{report.raw_bytes} bytes over {report.ndatasets} datasets")
    return 0


def _cmd_verify(args) -> int:
    import repro
    from repro.analysis.reporting import format_table, io_stats_rows
    from repro.series import is_series_dir

    series = is_series_dir(args.path)
    if args.against is not None and series:
        raise ValueError(
            f"--against only applies to a plotfile, not {args.path!r}")
    with (repro.open_series if series else repro.open)(
            args.path, source=args.source) as handle:
        if series:
            checks, bound_check = _series_checks(handle), None
            counted = f"{len(handle.steps())} steps, "
        else:
            checks, bound_check = _plotfile_checks(handle, args.against)
            counted = ""
        counted += f"{handle.stats.chunks_decoded} chunks decoded"
        stats_rows = io_stats_rows(handle) if args.stats else None
    passed = all(ok for _, ok in checks)
    status = "PASS" if passed else "FAIL"
    detail = ", ".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in checks)
    print(f"verify {args.path}: {status} ({detail}; {counted})"
          + (f"\n  {bound_check}" if bound_check else ""))
    if stats_rows is not None:
        print(format_table(stats_rows, title="byte-source I/O"))
    return 0 if passed else 1


def _decoded_checks(hierarchies, fields) -> List[tuple]:
    """The checks every decoded hierarchy must pass — a plotfile's one, or
    each step of a series (consumed one at a time): the fields the header
    promises, and finite values."""
    fields_ok = finite_ok = True
    for hierarchy in hierarchies:
        fields_ok &= tuple(hierarchy.component_names) == tuple(fields)
        finite_ok &= all(np.isfinite(fab.data).all()
                         for lvl in hierarchy.levels for fab in lvl.multifab)
    return [("fields", fields_ok), ("finite", finite_ok)]


def _box_major_read(handle) -> tuple:
    """``(hierarchy, chunks)`` of an ``amrex_1d`` (box-major) file, which no
    reader places: every chunk decoded through its filter (``chunks[l]``,
    level ``l``'s, one row each, padding included) and the hierarchy rebuilt
    from ``template_from_header`` in the order the writer cut each level's
    stream (:func:`~repro.baselines.amrex_1d.box_major_blocks`).  A level
    whose chunks hold other than its boxes' cells once per field is corrupt."""
    from repro.baselines.amrex_1d import ClassicSZFilter, box_major_blocks
    from repro.compress.sz1d import SZ1DCompressor
    from repro.core.header import template_from_header
    from repro.core.preprocess import level_layouts
    from repro.errors import CorruptFileError

    filt = ClassicSZFilter(SZ1DCompressor(handle.error_bound))
    hierarchy = template_from_header(handle.header)
    decoded = []
    for level, layout in enumerate(level_layouts(*handle.header.geometry)):
        name = f"level_{level}/cell_data"
        info = handle.dataset_info(name)
        chunks = np.stack([filt.decode(payload, info.chunk_elements) for payload in
                           handle._file.read_chunk_payloads(name, range(info.nchunks))])
        handle.stats.chunks_decoded += info.nchunks
        stream = np.concatenate([chunk[:c.actual_elements]
                                 for chunk, c in zip(chunks, info.chunks)])
        blocks = box_major_blocks(hierarchy[level], layout, handle.fields)
        cells = sum(block.size for block in blocks)
        if stream.size != cells:
            raise CorruptFileError(f"{name}: its chunks hold {stream.size} cells, "
                                   f"its boxes {cells}")
        offset = 0
        for block in blocks:
            block[...] = stream[offset:offset + block.size].reshape(block.shape)
            offset += block.size
        decoded.append(chunks)
    return hierarchy, decoded


def _box_major_worst(handle, chunks, reference) -> float:
    """The worst error of an ``amrex_1d`` file's ``chunks`` relative to each
    chunk's own range, padding included (1.0 for a constant chunk, as
    ``ErrorBound.resolve`` takes it), against each level's stream rebuilt from
    ``reference`` and zero-padded into the file's chunks."""
    from repro.baselines.amrex_1d import box_major_blocks
    from repro.core.preprocess import level_layouts

    worst = 0.0
    for level, (layout, decoded) in enumerate(zip(
            level_layouts(*handle.header.geometry), chunks)):
        stream = np.concatenate([block.reshape(-1) for block in
                                 box_major_blocks(reference[level], layout, handle.fields)])
        ref = np.zeros(decoded.size)
        ref[:stream.size] = stream
        ref = ref.reshape(decoded.shape)
        spread = ref.max(axis=1) - ref.min(axis=1)
        spread[spread <= 0] = 1.0
        worst = max(worst, float((np.abs(decoded - ref).max(axis=1) / spread).max()))
    return worst


def _plotfile_checks(handle, against: Optional[str]) -> tuple:
    """(checks, bound line) of one plotfile: its structure, and with a
    reference copy ``against`` the error bound (an ``amrex_1d`` file's chunk
    by chunk, :func:`_box_major_worst`)."""
    import repro
    from repro.core.header import CHUNK_ALIGNMENT_BOX_MAJOR

    box_major = handle.header.chunk_alignment == CHUNK_ALIGNMENT_BOX_MAJOR
    hierarchy, chunks = _box_major_read(handle) if box_major else (handle.read(), None)
    checks = [("levels", hierarchy.nlevels == handle.nlevels),
              *_decoded_checks([hierarchy], handle.fields)]
    if not against:
        return checks, None
    with repro.open(against) as ref_handle:
        if box_major and ref_handle.header.geometry[:2] != handle.header.geometry[:2]:
            raise ValueError(f"{against!r} holds other boxes than {handle.path!r}")
        reference = ref_handle.read()
    eb = handle.error_bound
    eb_mode = handle.header.error_bound_mode
    if box_major:
        worst = _box_major_worst(handle, chunks, reference)
    else:
        worst = 0.0
        for level in range(hierarchy.nlevels):
            for name in hierarchy.component_names:
                ref = reference[level].multifab.to_global(name, reference[level].domain)
                rec = hierarchy[level].multifab.to_global(name, hierarchy[level].domain)
                mask = reference[level].boxarray.coverage_mask(reference[level].domain)
                # the writer resolves the relative bound against the whole
                # level's range (covered cells included) — use the same
                # range here or a correctly-bounded file can FAIL
                vrange = max(float(ref[mask].max() - ref[mask].min()), 1e-30)
                covered = reference.covered_cells(level)
                if covered and level < hierarchy.nlevels - 1:
                    # refilled coarse cells are averaged, not bounded;
                    # restrict the bound check to the kept cells
                    from repro.amr.upsample import covered_mask

                    mask = mask & ~covered_mask(reference, level)
                err = float(np.max(np.abs(ref[mask] - rec[mask])))
                worst = max(worst, err if eb_mode == "abs" else err / vrange)
    ok = worst <= eb * (1 + 1e-6)
    checks.append(("error_bound", ok))
    kind = "absolute" if eb_mode == "abs" else "relative"
    return checks, (f"worst {kind} error {worst:.3e} "
                     f"{'<=' if ok else '>'} bound {eb:.3e}")


def _series_checks(series) -> List[tuple]:
    """The checks of a series: keyframe cadence, the manifest's sizes against
    the step files, then every step decoded (all delta chains resolved)."""
    steps = series.steps()
    interval = series.index.keyframe_interval
    return [
        ("keyframe_cadence", all(rec.kind == "key" for rec in steps
                                 if rec.index % interval == 0)),
        ("manifest_bytes", all(
            series.open_step(rec.index).dataset_info(d.name).stored_nbytes
            == d.stored_bytes for rec in steps for d in rec.datasets)),
        *_decoded_checks((series.read(step=rec.index) for rec in steps),
                         series.fields),
    ]


def _cmd_serve(args) -> int:
    from repro.service import QueryEngine, ReproServer
    from repro.service.cache import DEFAULT_CACHE_BYTES
    from repro.service.core import RequestHandler, resolve_auth_token
    from repro.service.server import DEFAULT_PORT

    if args.http_only and args.http is None:
        raise ValueError("--http-only needs --http PORT")
    engine = QueryEngine(cache_bytes=args.cache_bytes
                         if args.cache_bytes is not None else DEFAULT_CACHE_BYTES,
                         source=args.source)
    # one shared core: op dispatch, auth, size/rate limits and telemetry are
    # identical no matter which transport a request arrives on.  The request
    # log is one structured JSON line per answered request (op, latency,
    # cache hit rate, client trace ID) — stderr, so piped results of a
    # foreground serve stay clean.
    handler = RequestHandler(
        engine,
        auth_token=resolve_auth_token(args.auth_token),
        max_request_bytes=args.max_request_bytes,
        rate_limit=args.rate_limit, rate_burst=args.rate_burst,
        request_log=None if args.no_request_log else sys.stderr)
    watch_interval = args.watch_interval if args.watch_interval is not None \
        else 0.25
    http_server = None
    try:
        if args.http is not None:
            from repro.service.http import HttpServer

            http_server = HttpServer(handler=handler, host=args.host,
                                     port=args.http,
                                     watch_interval=watch_interval)
        if args.http_only:
            http_server.run(on_ready=lambda s: print(
                f"http gateway on {s.host}:{s.port} "
                f"(cache budget {engine.cache.max_bytes} bytes)", flush=True))
            return 0

        def on_ready(s) -> None:
            print(f"serving on {s.host}:{s.port} "
                  f"(cache budget {engine.cache.max_bytes} bytes)", flush=True)
            if http_server is not None:
                http_server.start()
                print(f"http gateway on {http_server.host}:{http_server.port}",
                      flush=True)

        server = ReproServer(
            handler=handler, host=args.host,
            port=args.port if args.port is not None else DEFAULT_PORT,
            max_workers=args.max_workers,
            watch_interval=watch_interval)
        server.run(on_ready=on_ready)
    finally:
        if http_server is not None:
            http_server.stop()
        engine.close()
    return 0


def _parse_box(spec: Optional[str]):
    if spec is None:
        return None
    from repro.amr.box import Box

    lo, hi = [], []
    for axis in spec.split(","):
        bounds = axis.split(":")
        if len(bounds) != 2:
            raise ValueError(
                f"bad --box {spec!r}; expected lo:hi per axis, e.g. 0:7,0:7,0:7")
        lo.append(int(bounds[0]))
        hi.append(int(bounds[1]))
    return Box(tuple(lo), tuple(hi))


def _print_array_result(label: str, arr: np.ndarray, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"shape": list(arr.shape), "values": arr.tolist()}))
    else:
        print(f"{label}: shape={tuple(arr.shape)} min={arr.min():.6g} "
              f"max={arr.max():.6g} mean={arr.mean():.6g}")


def _cmd_follow(args, port: int, auth_token) -> int:
    from repro.service.client import follow_series

    print(f"following {args.path} from step {args.from_step} "
          f"({args.host}:{port}, field={args.field or '-'})", flush=True)
    stream = follow_series(args.path, args.field, host=args.host, port=port,
                           level=args.level, box=_parse_box(args.box),
                           from_step=args.from_step,
                           refill=not args.no_refill,
                           max_level=args.max_level,
                           auth_token=auth_token)
    for event, arr in stream:
        name = event.get("event")
        if name == "step":
            row = {"event": "step", "step_index": event.get("step_index")}
            summary = event.get("summary")
            if isinstance(summary, dict):
                for key in ("step", "time", "kind", "CR", "psnr_db"):
                    if key in summary:
                        row[key] = summary[key]
            if arr is not None:
                row.update(shape=list(arr.shape), min=float(arr.min()),
                           max=float(arr.max()), mean=float(arr.mean()))
            print(json.dumps(row), flush=True)
        elif name == "finalized":
            print(json.dumps({"event": "finalized",
                              "nsteps": event.get("nsteps"),
                              "high_water": event.get("high_water")}),
                  flush=True)
    return 0


_QUERY_OPS = ("describe", "read-field", "time-slice", "stats", "ping",
              "refresh", "follow")


def _cmd_query(args) -> int:
    from repro.service import ReproClient
    from repro.service.core import resolve_auth_token
    from repro.service.server import DEFAULT_PORT

    if args.op not in _QUERY_OPS:
        raise ValueError(
            f"unknown query op {args.op!r}; expected one of "
            f"{', '.join(_QUERY_OPS)}")
    needs_path = args.op in ("describe", "read-field", "time-slice",
                             "refresh", "follow")
    if needs_path and args.path is None:
        raise ValueError(f"query {args.op} needs a path argument")
    if args.op in ("read-field", "time-slice") and args.field is None:
        raise ValueError(f"query {args.op} needs --field")
    if args.prom and args.op != "stats":
        raise ValueError(f"--prom applies to query stats, not query {args.op}")
    auth_token = resolve_auth_token(args.auth_token)
    if args.http:
        from repro.service.http import DEFAULT_HTTP_PORT, HttpClient

        if args.op == "follow":
            raise ValueError(
                "query follow streams over the TCP service; use it without "
                "--http (the gateway's stream is GET /v1/subscribe)")
        port = args.port if args.port is not None else DEFAULT_HTTP_PORT
        make_client = lambda: HttpClient(host=args.host, port=port,  # noqa: E731
                                         auth_token=auth_token)
    else:
        port = args.port if args.port is not None else DEFAULT_PORT
        make_client = lambda: ReproClient(host=args.host, port=port,  # noqa: E731
                                          auth_token=auth_token)
    if args.op == "follow":
        return _cmd_follow(args, port, auth_token)
    with make_client() as client:
        if args.op == "ping":
            print("pong" if client.ping() else "no pong")
        elif args.op == "describe":
            print(json.dumps(client.describe(args.path), indent=2))
        elif args.op == "read-field":
            arr = client.read_field(args.path, args.field, level=args.level,
                                    box=_parse_box(args.box), step=args.step,
                                    refill=not args.no_refill,
                                    max_level=args.max_level)
            _print_array_result(f"{args.field} L{args.level}", arr, args.as_json)
        elif args.op == "time-slice":
            steps = [int(s) for s in args.steps.split(",")] \
                if args.steps is not None else None
            times, values = client.time_slice(args.path, args.field,
                                              box=_parse_box(args.box),
                                              level=args.level, steps=steps,
                                              refill=not args.no_refill,
                                              max_level=args.max_level)
            if args.as_json:
                print(json.dumps({"times": times.tolist(),
                                  "shape": list(values.shape),
                                  "values": values.tolist()}))
            else:
                print(f"{args.field} over {values.shape[0]} steps "
                      f"t=[{times.min():.6g}, {times.max():.6g}]: "
                      f"shape={tuple(values.shape)} min={values.min():.6g} "
                      f"max={values.max():.6g}")
        elif args.op == "refresh":
            print(json.dumps(client.refresh(args.path)))
        else:
            _print_stats(client.stats(), f"{args.host}:{port}", args)
    return 0


def _print_stats(stats: dict, where: str, args) -> None:
    """The flat engine keys and the registry snapshot: two tables, JSON, or
    the registry as Prometheus text."""
    registry = stats.pop("registry", {})
    if args.prom:
        from repro.obs import render_prometheus

        sys.stdout.write(render_prometheus(registry))
    elif args.as_json:
        print(json.dumps({"engine": stats, "registry": registry}, indent=2))
    else:
        from repro.analysis.reporting import format_table, registry_rows

        rows = [{"metric": k, "value": v} for k, v in stats.items()]
        print(format_table(rows, title=f"engine @ {where}", floatfmt=".4g"))
        print()
        print(format_table(registry_rows(registry), title="metrics registry",
                           floatfmt=".4g"))


def main(argv: Optional[List[str]] = None) -> int:
    handlers = {"info": _cmd_info, "compress": _cmd_compress,
                "decompress": _cmd_decompress, "verify": _cmd_verify,
                "serve": _cmd_serve, "query": _cmd_query}
    from repro.service.client import ServiceError

    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    # OSError covers missing files plus the query transport (connection
    # refused/reset, timeouts); ServiceError is a server-side error reply
    except (ValueError, KeyError, IndexError, OSError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
