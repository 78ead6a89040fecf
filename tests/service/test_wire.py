"""The message codec: framed arrays, bounds on what a peer can declare, the
version rule on the wire, and parity of every transport with a direct read."""

import http.client
import io
import json
import socket

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.amr.box import Box
from repro.service import (
    BoxQuery,
    FakeClient,
    HttpClient,
    HttpServer,
    ReproClient,
    ReproServer,
)
from repro.service import wire
from repro.service.client import read_response
from repro.service.core import RequestHandler
from repro.service.wire import (
    decode_line,
    encode_frames,
    encode_line,
    read_message,
)

DTYPES = [np.dtype(t) for t in
          ("float32", "float64", "int64", "bool", ">f8", ">i4", "uint8",
           "complex128", "float16")]


def arrays():
    """Any shape (0-d and empty included), any wire dtype, any bit pattern."""
    return st.sampled_from(DTYPES).flatmap(lambda dtype: hnp.arrays(
        dtype, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5),
        elements=None if dtype.kind != "f" else
        hnp.from_dtype(dtype, allow_nan=True, allow_infinity=True)))


def same_bits(got, expected):
    assert isinstance(got, np.ndarray)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()      # C order, both
    # fresh, writable, owning its memory — never a view of a receive buffer
    assert got.flags.writeable and got.flags.c_contiguous and got.base is None


def through_a_socket(message):
    """Frame by frame down a real socket pair, read back as a client reads."""
    left, right = socket.socketpair()
    try:
        left.settimeout(30)
        right.settimeout(30)
        for frame in encode_frames(message):
            left.sendall(frame)
        left.shutdown(socket.SHUT_WR)
        with right.makefile("rb") as stream:
            got = read_response(stream, "peer")
            assert stream.read() == b""
        return got
    finally:
        left.close()
        right.close()


class TestRoundTrip:
    @given(arrays())
    def test_an_array_is_bit_identical_writable_and_owned(self, array):
        same_bits(decode_line(encode_line(array)), array)

    @given(st.lists(arrays(), min_size=1, max_size=4))
    def test_nested_results_over_bytes_and_over_a_socket(self, items):
        message = {"id": 1, "ok": True, "result": {
            "times": items[0], "values": items[-1],      # time_slice's shape
            "batch": list(items),                        # read_batch's
            "deep": {"tuple": (items[0], 2.5, "text", None)}}}
        for got in (decode_line(encode_line(message)),
                    through_a_socket(message)):
            result = got["result"]
            same_bits(result["times"], items[0])
            same_bits(result["values"], items[-1])
            for back, item in zip(result["batch"], items):
                same_bits(back, item)
            same_bits(result["deep"]["tuple"][0], items[0])
            assert result["deep"]["tuple"][1:] == [2.5, "text", None]

    def test_payloads_follow_the_header_in_tag_order(self):
        a, b = np.arange(3, dtype=">i4"), np.array([[1.5, np.nan]])
        frames = encode_frames({"second": b, "first": a})
        header = json.loads(frames[0])
        assert frames[0].endswith(b"\n") and frames[0].count(b"\n") == 1
        assert header == {
            "second": {"__ndarray__": {"dtype": "float64", "shape": [1, 2],
                                       "nbytes": 16}},
            "first": {"__ndarray__": {"dtype": ">i4", "shape": [3],
                                      "nbytes": 12}}}
        assert [bytes(f) for f in frames[1:]] == [b.tobytes(), a.tobytes()]
        # frames are views of the arrays, not copies
        assert np.shares_memory(np.frombuffer(frames[2], np.uint8), a)

    def test_nan_payload_bits_survive(self):
        bits = np.array([0x7FF8000000000001, 0xFFF0000000000000,
                         0x7FF00000DEADBEEF, 0x8000000000000000], np.uint64)
        back = decode_line(encode_line(bits.view(np.float64)))
        assert np.array_equal(back.view(np.uint64), bits)

    def test_non_contiguous_and_zero_d(self):
        base = np.arange(24.0).reshape(2, 3, 4)
        for view in (base[:, ::2, 1:3], base.T, np.asfortranarray(base)):
            same_bits(decode_line(encode_line(view)), np.ascontiguousarray(view))
        zero_d = np.array(2.5)
        back = decode_line(encode_line({"x": zero_d}))["x"]
        assert back.shape == () and back == 2.5 and back.base is None
        assert decode_line(encode_line(np.empty((0, 3)))).shape == (0, 3)

    def test_scalars_tuples_and_array_free_messages_are_one_json_line(self):
        message = {"n": np.int64(7), "x": np.float32(1.5), "b": np.bool_(True),
                   "t": (1, (2, 3)), "s": "text", "none": None}
        line = encode_line(message)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert json.loads(line) == decode_line(line) == {
            "n": 7, "x": 1.5, "b": True, "t": [1, [2, 3]], "s": "text",
            "none": None}
        assert encode_frames(message) == [line]

    def test_the_codec_does_not_inspect_the_version(self):
        array = np.arange(6.0).reshape(2, 3)
        back = decode_line(encode_line(
            {"v": 2, "id": 0, "ok": True, "result": array}))
        same_bits(back["result"], array)

    @pytest.mark.parametrize("value", [
        np.array(["a", "b"]), np.array([object()]), np.array([b"xy"]),
        np.zeros(2, dtype=[("a", "f4")]), np.array(["2024-01-01"], "M8[D]"),
        object(), {1, 2}])
    def test_what_has_no_wire_form_is_refused_at_encode(self, value):
        with pytest.raises(TypeError, match="no wire form"):
            encode_line({"result": value})


def tag(dtype="float64", shape=(2,), nbytes=16, **extra):
    return {"__ndarray__": {"dtype": dtype, "shape": list(shape),
                            "nbytes": nbytes, **extra}}


def framed(header, payload=b""):
    if not isinstance(header, bytes):
        header = json.dumps(header).encode()
    return header + b"\n" + payload


class TestHostileHeaders:
    @pytest.fixture()
    def allocations(self, monkeypatch):
        """Every ``np.empty`` the codec performs, as (shape, dtype)."""
        made = []
        real = np.empty

        def counting(shape, dtype=float):
            made.append((shape, dtype))
            return real(shape, dtype)

        monkeypatch.setattr(wire.np, "empty", counting)
        yield made

    @pytest.mark.parametrize("header", [
        tag(dtype="object", nbytes=16),
        tag(dtype="O8"), tag(dtype="S8"), tag(dtype="U2", nbytes=16),
        tag(dtype="M8[ns]"), tag(dtype="V8"),
        tag(dtype="f4,i4"), tag(dtype="(2,)f4"),          # fields, subarray
        tag(dtype="no-such-type"), tag(dtype="(2,3"), tag(dtype=8),
        tag(dtype=["f8"]), tag(dtype=None),
        tag(shape=(-2,), nbytes=16), tag(shape=(-1, -2), nbytes=16),
        tag(shape=(2.0,)), tag(shape=("2",)), tag(shape=(True, 2)),
        {"__ndarray__": {"dtype": "float64", "shape": 2, "nbytes": 16}},
        tag(shape=(2 ** 63, 2), nbytes=0),                # would wrap in int64
        tag(shape=(2 ** 64,), nbytes=0),
        tag(shape=(2 ** 32, 2 ** 32), nbytes=0),
        tag(nbytes=15), tag(nbytes=17), tag(nbytes=-16), tag(nbytes=16.0),
        tag(nbytes="16"), tag(nbytes=None), tag(nbytes=True, shape=(1,),
                                                dtype="bool"),
        tag(shape=(2 ** 40,), nbytes=8 * 2 ** 40),        # consistent, > limit
        tag(data="AAAA"),                                 # a v2 tag's key
        {"__ndarray__": {"dtype": "float64", "shape": [2]}},
        {"__ndarray__": [1, 2]}, {"__ndarray__": None},
        {"__ndarray__": tag()["__ndarray__"], "also": 1},
        b'{"__ndarray__": {"dtype": "float64", "shape": [2], "nbytes": 16},'
        b' "__ndarray__": {"dtype": "float64", "shape": [2], "nbytes": 16}}',
        b'{"__ndarray__": {"dtype": "float64", "dtype": "float64",'
        b' "shape": [2], "nbytes": 16}}',
    ], ids=lambda h: (h if isinstance(h, bytes) else json.dumps(h))[:60])
    def test_refused_before_anything_is_allocated(self, header, allocations):
        with pytest.raises(ValueError):
            decode_line(framed({"result": header}
                               if not isinstance(header, bytes)
                               else b'{"result": ' + header + b"}",
                               b"\0" * 16))
        assert allocations == []

    def test_the_limit_counts_header_and_every_payload(self, monkeypatch,
                                                       allocations):
        message = framed({"a": tag(shape=(8,), nbytes=64),
                          "b": tag(shape=(8,), nbytes=64)}, b"\0" * 128)
        monkeypatch.setattr(wire, "MAX_LINE_BYTES", len(message))
        assert len(decode_line(message)) == 2
        del allocations[:]
        monkeypatch.setattr(wire, "MAX_LINE_BYTES", len(message) - 1)
        with pytest.raises(ValueError, match="limit"):
            decode_line(message)
        assert [shape for shape, _ in allocations] == [[8]]   # never the 2nd
        with pytest.raises(ValueError, match="limit"):
            decode_line(b"x" * len(message))

    def test_truncated_payload_and_trailing_bytes(self):
        good = encode_line({"result": np.arange(4.0)})
        assert np.array_equal(decode_line(good)["result"], np.arange(4.0))
        for cut in (1, 8, 31):
            with pytest.raises(ValueError, match="ends inside"):
                decode_line(good[:-cut])
        with pytest.raises(ValueError, match="trailing"):
            decode_line(good + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            decode_line(encode_line({"ok": True}) + b"{}\n")

    def test_not_json_is_a_value_error(self):
        for junk in (b"this is not json\n", b"\xff\xfe\n", b"{\n", b"",
                     b"[" * 100_000 + b"\n", b'{"a": 1, "a": 2}\n',
                     b'{"n": ' + b"9" * 5000 + b"}\n"):
            with pytest.raises(ValueError):
                decode_line(junk)
            with pytest.raises(ValueError):
                read_message(junk)

    def test_a_request_carries_no_arrays(self, allocations):
        """The server's reading of a line: a tag is refused, whatever it
        declares, with nothing read or allocated."""
        assert read_message(b'{"id": 1, "op": "ping"}\n') \
            == {"id": 1, "op": "ping"}
        line = encode_frames({"op": "read_field", "box": np.arange(6)})[0]
        with pytest.raises(ValueError, match="carries no arrays"):
            read_message(line)
        with pytest.raises(ValueError, match="carries no arrays"):
            read_message(framed({"x": tag(shape=(2 ** 40,),
                                          nbytes=8 * 2 ** 40)}))
        assert allocations == []

    @pytest.mark.parametrize("reply", [
        framed({"id": 1, "ok": True, "result": tag(nbytes=15)}, b"\0" * 16),
        framed({"id": 1, "ok": True, "result": tag(dtype="object")}),
        framed({"id": 1, "ok": True, "result": tag()}, b"\0" * 9),  # short
        b"not json\n", b"[1, 2]\n", b"",
    ], ids=["nbytes", "object", "short", "junk", "not-an-object", "eof"])
    def test_a_client_closes_itself_when_the_framing_is_lost(self, reply):
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            with ReproClient(port=listener.getsockname()[1], timeout=30) as c:
                peer, _ = listener.accept()
                peer.sendall(reply)
                peer.close()
                with pytest.raises(ConnectionError):
                    c.ping()
                assert c._closed
                with pytest.raises(ValueError, match="closed"):
                    c.ping()
        finally:
            listener.close()


@pytest.fixture(scope="module")
def nyx_1(tmp_path_factory):
    """The nyx_1 preset as a plotfile, and a 3-step series of a small one."""
    from repro.apps import build_run

    root = tmp_path_factory.mktemp("wire")
    plotfile, series = str(root / "nyx_1.h5z"), str(root / "run")
    repro.write(build_run("nyx_1").hierarchy, plotfile, error_bound=1e-3)
    repro.write_series(build_run("nyx_1", coarse_shape=(16, 16, 16)).run(3),
                       series, keyframe_interval=2, error_bound=1e-3)
    return plotfile, series


@pytest.fixture(scope="module")
def transports(nyx_1):
    """One core behind a TCP server, an HTTP gateway and a fake."""
    with RequestHandler() as handler, \
            ReproServer(handler=handler, port=0) as tcp, \
            HttpServer(handler=handler, port=0) as gateway, \
            ReproClient(port=tcp.port) as tcp_client, \
            HttpClient(port=gateway.port) as http_client, \
            FakeClient(handler=handler) as fake:
        yield tcp, gateway, (tcp_client, http_client, fake)


class TestEveryTransportEqualsADirectRead:
    def test_read_field_read_batch_time_slice(self, nyx_1, transports):
        plotfile, series = nyx_1
        _, _, clients = transports
        boxes = [Box((3, 2, 1), (20, 19, 18)), Box((0, 0, 0), (7, 7, 7)), None]
        queries = [BoxQuery(path=plotfile, field=field, level=level, box=box)
                   for field in ("baryon_density", "temperature")
                   for level in (0, 1) for box in boxes[:2]]
        with repro.open(plotfile) as direct, \
                repro.open_series(series) as direct_series:
            fields = [direct.read_field("baryon_density", level=level, box=box)
                      for level in (0, 1) for box in boxes]
            batch = [direct.read_field(q.field, level=q.level, box=q.box)
                     for q in queries]
            times, values = direct_series.time_slice(
                "baryon_density", box=boxes[1])
        for client in clients:
            served = [client.read_field(plotfile, "baryon_density",
                                        level=level, box=box)
                      for level in (0, 1) for box in boxes]
            for got, expected in zip(served, fields):
                same_bits(got, expected)
            for got, expected in zip(client.read_batch(queries), batch):
                same_bits(got, expected)
            got_times, got_values = client.time_slice(
                series, "baryon_density", box=boxes[1])
            same_bits(got_times, times)
            same_bits(got_values, values)

    def test_http_bodies_are_the_tcp_messages(self, nyx_1, transports):
        """Same bytes on both transports; ``Content-Length`` is the whole
        message and ``Content-Type`` says whether payloads follow the line."""
        plotfile, _ = nyx_1
        tcp, gateway, _ = transports
        request = {"id": 5, "op": "read_field", "path": plotfile,
                   "field": "temperature", "box": [[0, 0, 0], [5, 6, 7]]}

        def post(body):
            conn = http.client.HTTPConnection("127.0.0.1", gateway.port,
                                              timeout=30)
            try:
                conn.request("POST", "/v1/query", body=json.dumps(body))
                resp = conn.getresponse()
                raw = resp.read()
                assert int(resp.getheader("Content-Length")) == len(raw)
                return resp.getheader("Content-Type"), raw
            finally:
                conn.close()

        ctype, body = post(request)
        assert ctype == "application/vnd.repro.frames"
        with socket.create_connection(("127.0.0.1", tcp.port), 30) as sock:
            sock.sendall(encode_line(request))
            stream = sock.makefile("rb")
            header = stream.readline()
            nbytes = json.loads(header)["result"]["__ndarray__"]["nbytes"]
            assert header + stream.read(nbytes) == body
        # the documented recipe: split at the first newline, frombuffer
        line, _, payload = body.partition(b"\n")
        spec = json.loads(line)["result"]["__ndarray__"]
        raw = np.frombuffer(payload, spec["dtype"]).reshape(spec["shape"])
        with repro.open(plotfile) as direct:
            assert np.array_equal(raw, direct.read_field(
                "temperature", box=Box((0, 0, 0), (5, 6, 7))))
        ctype, body = post({"op": "ping"})
        assert ctype.startswith("application/json") and body.endswith(b"\n")
        assert json.loads(body)["result"]["pong"] is True


class TestVersionRuleOnTheWire:
    def test_a_v2_request_over_tcp_gets_one_readable_line(self, transports):
        tcp, _, _ = transports
        with socket.create_connection(("127.0.0.1", tcp.port), 30) as sock:
            stream = sock.makefile("rb")
            sock.sendall(b'{"v": 2, "id": 9, "op": "read_field", "path": "x",'
                         b' "field": "y"}\n')
            reply = json.loads(stream.readline())    # what a v2 client does
            assert (reply["ok"], reply["id"], reply["kind"]) \
                == (False, 9, "unsupported_version")
            assert "__ndarray__" not in json.dumps(reply)
            # one line and nothing else: the connection stays usable
            sock.sendall(b'{"v": 3, "id": 10, "op": "ping"}\n'
                         b'{"id": 11, "op": "ping"}\n')
            assert [json.loads(stream.readline())["id"] for _ in range(2)] \
                == [10, 11]

    def test_a_v2_request_over_http_is_400_with_the_same_kind(self,
                                                              transports):
        _, gateway, _ = transports
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        try:
            conn.request("POST", "/v1/query",
                         body=json.dumps({"v": 2, "id": 9, "op": "ping"}))
            resp = conn.getresponse()
            reply = json.loads(resp.read())
            assert (resp.status, reply["kind"]) == (400, "unsupported_version")
            conn.request("POST", "/v1/ping", body=b"{}")     # curl: no "v"
            resp = conn.getresponse()
            assert resp.status == 200 and json.loads(resp.read())["ok"] is True
        finally:
            conn.close()

    def test_an_array_in_a_tcp_request_is_a_bad_request(self, transports):
        tcp, _, _ = transports
        with socket.create_connection(("127.0.0.1", tcp.port), 30) as sock:
            stream = sock.makefile("rb")
            sock.sendall(framed({"id": 1, "op": "ping", "blob": tag(
                shape=(2 ** 27,), nbytes=8 * 2 ** 27)}))       # "1 GiB follows"
            reply = json.loads(stream.readline())
            assert (reply["ok"], reply["kind"]) == (False, "bad_request")
            assert "carries no arrays" in reply["error"]
            sock.sendall(b'{"id": 2, "op": "ping"}\n')
            assert json.loads(stream.readline())["id"] == 2

    def test_stream_helpers_accept_a_bytes_stream(self):
        message = encode_line({"id": 1, "ok": True,
                               "result": np.arange(5, dtype="int64")})
        got = read_response(io.BytesIO(message * 2), "peer")
        assert np.array_equal(got["result"], np.arange(5))
