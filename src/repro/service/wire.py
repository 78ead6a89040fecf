"""The shared codec of the query service, plus the TCP line framing.

**The codec** (used by *every* transport — TCP, HTTP, fakes): results convert
to JSON-serialisable form with :func:`to_wire` / back with :func:`from_wire`.
Arrays travel as tagged objects carrying their raw bytes base64-encoded::

    {"__ndarray__": {"dtype": "float64", "shape": [8, 8, 8], "data": "..."}}

Base64 of the IEEE-754 bytes — not decimal rendering — is what makes a
server-mediated read *element-wise identical* to a direct one: the decoded
array is bit-for-bit the array the engine produced.  Everything else is plain
JSON; tuples flatten to lists, numpy scalars to Python numbers.

**The framing** (TCP only): one request or response per newline-terminated
JSON line, via :func:`encode_line` / :func:`decode_line`.  The HTTP gateway
does not use it — an HTTP message's extent is its ``Content-Length`` or
chunk framing — but reuses the codec underneath, which is how the two
transports stay bit-compatible.

**Versioning, error envelopes.**  Protocol-version negotiation and the
structured error vocabulary are *transport policy*, not encoding, and live
in :mod:`repro.service.core` (:data:`~repro.service.core.PROTOCOL_VERSION`,
:func:`~repro.service.core.error_envelope`, the ``ERROR_*`` kinds).

**Tracing.**  A request may carry an optional ``"trace"`` string — a
client-minted trace ID (see :func:`repro.obs.new_trace_id`).  The field is
additive within protocol version 2: a server that predates it ignores it; a
server that speaks it binds the ID around the engine call and stamps it into
its structured request log, so one ID follows a query client -> server ->
engine.
"""

from __future__ import annotations

import base64
import json
from typing import Any

import numpy as np

__all__ = ["to_wire", "from_wire", "encode_line", "decode_line", "MAX_LINE_BYTES"]

#: refuse lines past this size when reading (a corrupt peer must not OOM us)
MAX_LINE_BYTES = 512 * 1024 * 1024

def to_wire(obj: Any) -> Any:
    """Recursively convert a result object into JSON-serialisable form."""
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {"__ndarray__": {
            "dtype": str(data.dtype),
            "shape": list(data.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii"),
        }}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): to_wire(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_wire(v) for v in obj]
    return obj


def from_wire(obj: Any) -> Any:
    """Invert :func:`to_wire` (tagged arrays back into numpy arrays)."""
    if isinstance(obj, dict):
        if set(obj) == {"__ndarray__"}:
            spec = obj["__ndarray__"]
            raw = base64.b64decode(spec["data"])
            arr = np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))
            return arr.reshape(tuple(spec["shape"])).copy()
        return {k: from_wire(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [from_wire(v) for v in obj]
    return obj


def encode_line(obj: Any) -> bytes:
    """One message as a single JSON line (terminator included; TCP framing)."""
    return json.dumps(to_wire(obj), separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Any:
    """Parse one received JSON line back into Python objects + arrays."""
    if len(line) > MAX_LINE_BYTES:
        raise ValueError(f"wire message of {len(line)} bytes exceeds the "
                         f"{MAX_LINE_BYTES}-byte limit")
    return from_wire(json.loads(line.decode("utf-8")))
