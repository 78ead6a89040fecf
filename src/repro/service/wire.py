"""The one message codec of the query service — TCP, HTTP and the fakes alike.

**The message.**  One compact JSON *header line* (newline-terminated), then
the raw bytes of every array the header mentions, concatenated in the order
their tags appear in it.  An array is a tag in the header::

    {"__ndarray__": {"dtype": "float64", "shape": [8, 8, 8], "nbytes": 4096}}

and its payload is the array's C-contiguous memory, ``nbytes`` long.  Raw
IEEE-754 bytes — not decimal rendering — make a server-mediated read
*element-wise identical* to a direct one; sending them outside the JSON keeps
the wrapping cheaper than the payload (no 4/3 expansion, no string to build
or scan).  Everything else is plain JSON (tuples flatten to lists, numpy
scalars to Python numbers), so a message without arrays — every request,
``ping`` / ``describe`` / ``stats`` / ``refresh`` replies, error envelopes,
subscribe events — is exactly one JSON line.  Without this package:
``head -1 reply | jq`` shows the header, and ``np.fromfile("reply", dtype,
offset=len(first_line)).reshape(shape)`` is the array.

:func:`encode_frames` writes a message (header and array buffers, nothing
copied) and :func:`read_message` reads one, the array bytes landing straight
in the arrays it returns; :func:`encode_line` / :func:`decode_line` are the
same two over whole-message ``bytes``.  TCP carries messages back to back; an
HTTP body is one message.

**Bounds.**  A header is outside input.  Before anything is allocated a tag
must name a plain numeric dtype (no objects, fields or subarrays), extents
that are non-negative ints and ``nbytes == prod(shape) * itemsize`` in Python
ints, and header plus payloads must fit :data:`MAX_LINE_BYTES`.  A short
payload or trailing bytes raise.  *Requests carry no arrays*: a server reads
one line and refuses a tag in it without reading or allocating what it
declares.

**Not here.**  The codec does not look at ``"v"``: the version rule and the
error vocabulary are *transport policy*, in :mod:`repro.service.core` — as
is the optional ``"trace"`` string of a request, the client-minted ID
(:func:`repro.obs.new_trace_id`) that follows a query client -> server ->
engine.
"""

from __future__ import annotations

import io
import json
import math
from typing import Any, Callable, List, Optional

import numpy as np

__all__ = ["encode_frames", "read_message", "encode_line", "decode_line",
           "MAX_LINE_BYTES"]

#: refuse messages past this size when reading (a corrupt peer must not OOM us)
MAX_LINE_BYTES = 512 * 1024 * 1024

_TAG = "__ndarray__"
#: dtype kinds with a wire form: bool, signed, unsigned, float, complex
#: (objects are 'O'; fields and subarrays are 'V')
_NUMERIC_KINDS = "biufc"


def _byte_view(array: np.ndarray) -> memoryview:
    """A C-contiguous array's memory as flat bytes (0-d and empty included)."""
    return memoryview(array.reshape(-1).view(np.uint8))


def encode_frames(obj: Any) -> List[Any]:
    """One message as the buffers to send in order: the header line, then one
    flat byte view per array in ``obj`` (views of the arrays, not copies)."""
    frames: List[Any] = [b""]

    def wire_form(value: Any) -> Any:
        # json calls this, in document order, for what it cannot serialise
        if isinstance(value, np.ndarray):
            if value.dtype.kind not in _NUMERIC_KINDS:
                raise TypeError(f"{value.dtype!r} arrays have no wire form")
            data = np.asarray(value, order="C")
            frames.append(_byte_view(data))
            return {_TAG: {"dtype": str(data.dtype), "shape": list(data.shape),
                           "nbytes": data.nbytes}}
        if isinstance(value, np.generic):
            return value.item()
        raise TypeError(f"{type(value).__name__} has no wire form")

    frames[0] = json.dumps(obj, separators=(",", ":"),
                           default=wire_form).encode("utf-8") + b"\n"
    return frames


def read_message(line: bytes,
                 readinto: Optional[Callable[[memoryview], int]] = None) -> Any:
    """Decode the message whose header line is ``line``, reading each array's
    payload through ``readinto`` straight into the fresh (writable, owning)
    array returned in its tag's place.  With ``readinto=None`` the message
    must be array-free — a request — and a tag is refused unread."""
    if len(line) > MAX_LINE_BYTES:
        raise ValueError(f"wire message of {len(line)} bytes exceeds the "
                         f"{MAX_LINE_BYTES}-byte limit")
    arrays: List[np.ndarray] = []
    room = MAX_LINE_BYTES - len(line)

    def tagged(pairs: list) -> Any:
        nonlocal room
        obj = dict(pairs)
        if len(obj) != len(pairs):      # parsers disagree on which one wins
            raise ValueError("duplicate key in a wire header")
        if _TAG not in obj:
            return obj
        if readinto is None:
            raise ValueError("a request carries no arrays")
        spec = obj[_TAG]
        if len(obj) != 1 or not isinstance(spec, dict) \
                or set(spec) != {"dtype", "shape", "nbytes"} \
                or not isinstance(spec["dtype"], str) \
                or not isinstance(spec["shape"], list) \
                or not all(type(n) is int and n >= 0
                           for n in (spec["nbytes"], *spec["shape"])):
            raise ValueError(f"malformed array tag: {obj!r:.200}")
        shape, nbytes = spec["shape"], spec["nbytes"]
        try:
            dtype = np.dtype(spec["dtype"])
        except (TypeError, ValueError, SyntaxError) as exc:
            raise ValueError(f"bad array dtype: {exc}") from None
        if dtype.kind not in _NUMERIC_KINDS:
            raise ValueError(f"{dtype!r} arrays have no wire form")
        if nbytes != math.prod(shape) * dtype.itemsize:
            raise ValueError(f"array tag declares {nbytes} bytes for "
                             f"{dtype} {shape}")
        room -= nbytes
        if room < 0:
            raise ValueError(f"wire message exceeds the {MAX_LINE_BYTES}-byte "
                             "limit")
        arrays.append(np.empty(shape, dtype))
        return arrays[-1]

    try:
        obj = json.loads(line, object_pairs_hook=tagged)
    except RecursionError:
        raise ValueError("wire header nested too deeply") from None
    for array in arrays:
        if array.nbytes and readinto(_byte_view(array)) != array.nbytes:
            raise ValueError("wire message ends inside an array payload")
    return obj


def encode_line(obj: Any) -> bytes:
    """One whole message as bytes (header line + payloads)."""
    return b"".join(encode_frames(obj))


def decode_line(data: bytes) -> Any:
    """Invert :func:`encode_line`: exactly one message, nothing after it."""
    stream = io.BytesIO(data)
    obj = read_message(stream.readline(), stream.readinto)
    if stream.read(1):
        raise ValueError("trailing bytes after the wire message")
    return obj
