"""A damaged chunk or series journal is ``corrupt_data`` on every
transport (HTTP 422), not a ``bad_request``: the format's one exception type
is classified by the core."""

import http.client
import json
import os
import shutil

import pytest

import repro
from repro.h5lite.file import H5LiteFile
from repro.service import ReproClient, ReproServer
from repro.service.client import ServiceError
from repro.service.core import ERROR_CORRUPT_DATA
from repro.service.fakes import FakeClient
from repro.service.http import HttpClient, HttpServer
from repro.stream.journal import JOURNAL_FILENAME

FIELD = "baryon_density"


@pytest.fixture(scope="module")
def damaged(service_plotfile, tmp_path_factory):
    """The service plotfile with one byte of one chunk payload flipped."""
    path = str(tmp_path_factory.mktemp("corrupt") / "damaged.h5z")
    with H5LiteFile(service_plotfile, "r") as src, H5LiteFile(path, "w") as dst:
        dst.attrs.update(src.attrs)
        dst.header = src.header
        for name, info in src.datasets.items():
            payloads = src.read_chunk_payloads(name, range(info.nchunks))
            if name == f"level_0/{FIELD}":
                flipped = bytearray(payloads[0])
                flipped[len(flipped) // 2] ^= 0x01
                payloads[0] = bytes(flipped)
            dst.create_dataset_from_chunks(
                name, payloads, shape=info.shape, dtype=info.dtype,
                chunk_elements=info.chunk_elements, filter_id=info.filter_id,
                actual_elements_per_chunk=[c.actual_elements for c in info.chunks],
                attrs=info.attrs)
    return path


def test_the_damage_is_a_corrupt_file_error_in_process(damaged):
    with repro.open(damaged) as handle:
        with pytest.raises(repro.CorruptFileError, match="checksum"):
            handle.read_field(FIELD, level=0, refill=False)
        handle.read_field("temperature", level=0, refill=False)      # the rest reads


def test_tcp_answers_corrupt_data(damaged):
    with ReproServer(port=0) as server, ReproClient(port=server.port) as client:
        with pytest.raises(ServiceError) as err:
            client.read_field(damaged, FIELD, level=0, refill=False)
        assert err.value.kind == ERROR_CORRUPT_DATA
        assert client.read_field(damaged, "temperature", level=0, refill=False).size


def test_http_answers_corrupt_data_with_422(damaged):
    with HttpServer(port=0) as server:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/v1/query", body=json.dumps(
                {"op": "read_field", "path": damaged, "field": FIELD, "level": 0,
                 "refill": False}), headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        assert (response.status, body["ok"], body["kind"]) == (422, False, ERROR_CORRUPT_DATA)
        with HttpClient(port=server.port) as client:
            with pytest.raises(ServiceError) as err:
                client.read_field(damaged, FIELD, level=0, refill=False)
            assert err.value.kind == ERROR_CORRUPT_DATA


def _flip(path, offset):
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0x80]))


@pytest.fixture(scope="module")
def damaged_series(service_series, tmp_path_factory):
    """Two damaged copies of the service series: one with a byte in the
    middle of its journal flipped (a step record with records after it), one
    with a byte of its journal preamble flipped."""
    root = tmp_path_factory.mktemp("corrupt_series")
    damaged = {}
    for damage in ("step_record", "journal"):
        directory = damaged[damage] = str(root / damage)
        shutil.copytree(service_series, directory)
        path = os.path.join(directory, JOURNAL_FILENAME)
        _flip(path, os.path.getsize(path) // 2 if damage == "step_record" else 1)
    return damaged


@pytest.mark.parametrize("damage", ["step_record", "journal"])
def test_a_damaged_series_is_corrupt_data_on_every_transport(damaged_series, damage):
    directory = damaged_series[damage]
    with pytest.raises(repro.CorruptFileError):
        repro.open_series(directory)
    with ReproServer(port=0) as tcp, HttpServer(port=0) as gateway, \
            FakeClient() as fake, ReproClient(port=tcp.port) as tcp_client, \
            HttpClient(port=gateway.port) as http_client:
        for client in (fake, tcp_client, http_client):
            with pytest.raises(ServiceError) as err:
                client.describe(directory)
            assert err.value.kind == ERROR_CORRUPT_DATA, type(client).__name__
