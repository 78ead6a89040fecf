"""Common compressor interface and the compressed-buffer container."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.compress import container as ctn
from repro.compress.errorbound import ErrorBound
from repro.compress.metrics import ErrorTally
from repro.errors import CorruptFileError, required

__all__ = ["BOUND_SLACK", "CompressedBuffer", "Compressor", "DEFAULT_RADIUS", "is_float",
           "stored_dtype"]

#: Default quantisation radius of the SZ-family codecs (SZ's 2^16-entry
#: interval table): a prediction error quantises to ``round(err / (2*eb))``,
#: stored shifted by the radius so codes are non-negative, with code 0
#: reserved for an unpredictable value (``|code| >= radius``) kept verbatim.
#: Also the largest radius: its ``2 * radius`` codes fill a 16-bit Huffman table.
DEFAULT_RADIUS = 32768

#: within ``abs_eb * (1 + BOUND_SLACK)`` a value holds the bound (a few roundings of it)
BOUND_SLACK = 1e-12


@dataclass
class CompressedBuffer:
    """The result of compressing one array.

    Attributes
    ----------
    payload:
        The standalone buffer: the codec's recipe, the array shapes and the
        record (:meth:`Compressor.standalone`).
    original_shape / original_dtype:
        Shape and dtype of the input array.
    original_nbytes:
        Size of the uncompressed input in bytes.
    codec:
        Name of the compressor that produced the buffer.
    meta:
        Codec-specific metadata useful for reporting (never needed to decode —
        everything required for decoding lives inside ``payload``).
    """

    payload: bytes
    original_shape: Tuple[int, ...]
    original_dtype: str
    original_nbytes: int
    codec: str
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def compressed_nbytes(self) -> int:
        return len(self.payload)

    @property
    def compression_ratio(self) -> float:
        if self.compressed_nbytes == 0:
            return float("inf")
        return self.original_nbytes / self.compressed_nbytes


def is_float(name: str) -> bool:
    """Whether ``name`` is a numpy float dtype (what a stored record decodes to)."""
    try:
        return np.dtype(name).kind == "f"
    except TypeError:
        return False


def stored_dtype(data: np.ndarray) -> str:
    """The dtype a record of ``data`` decodes to: the input's when it is a
    float dtype, else float64 (a lossy integer is no integer)."""
    dtype = np.asarray(data).dtype
    return str(dtype) if dtype.kind == "f" else "float64"


class Compressor:
    """Error-bounded lossy compressor: a codec is its record.

    A codec writes one serialisation, its *record*, decoded against the array
    shapes under its :meth:`recipe` (what the AMRIC filter and the series
    writer store once per dataset).  A single-array codec implements
    ``encode_record(data, context) -> (record, reconstruction)`` (quantised
    under :meth:`grid_eb`; its caller holds it to the bound with :meth:`measure`) and
    ``decode_record(record, shape, context) -> float64 array``, the record's
    checksum covering ``context`` (what the caller decodes it under), read as
    ``parse_record(record, shape, context)`` (checked short of the entropy
    pass) then ``decode_parsed(parsed)``.
    A multi-array codec (the registry's ``supports_many``) implements
    ``compress_many_with_reconstruction``, ``parse_record(record, shapes,
    recipe)`` and ``decode_parsed(parsed, recipe, select)`` instead.

    The standalone buffer is written here, once for every codec: the recipe,
    the shapes and the record (:meth:`standalone`).
    """

    name: str = "base"

    def __init__(self, error_bound: ErrorBound | float, mode: str = "rel"):
        self.error_bound = ErrorBound.coerce(error_bound, mode)

    # ------------------------------------------------------------------
    def _as_input(self, data: np.ndarray) -> np.ndarray:
        """``data`` as float64; no error bound covers an empty array or NaN/Inf."""
        data = np.asarray(data, dtype=np.float64)
        if data.size == 0:
            raise ValueError("cannot compress an empty array")
        if not np.isfinite(data).all():
            raise ValueError(f"{self.name} cannot compress non-finite values (NaN or Inf)")
        return data

    def _check_magnitude(self, data: np.ndarray, abs_eb: float) -> None:
        """Refuse ``data`` whose codes ``rint(x / (2·eb))`` would not fit int64:
        the cast would wrap and the reconstruction silently miss the bound."""
        largest = float(max(data.max(), -data.min()))      # |x| max, without |x|'s copy
        if largest / (2.0 * abs_eb) >= 2.0 ** 62:
            raise ValueError(f"{self.name} cannot quantise magnitude {largest:.6g} at error "
                             f"bound {abs_eb:.6g}: |x| / (2·eb) must stay below 2**62")

    @staticmethod
    def grid_eb(abs_eb: float, arrays: Sequence[np.ndarray], dtypes: Sequence[str]) -> float:
        """The bound ``arrays`` are quantised under so that their reconstructions,
        cast to the narrowest of ``dtypes``, hold ``abs_eb``: itself in float64,
        less the cast's rounding in a narrower float (DESIGN.md §4, "a narrower
        float's grid")."""
        eps = max(float(np.finfo(dtype).eps) for dtype in dtypes)
        if eps <= np.finfo(np.float64).eps:
            return abs_eb
        largest = max(abs_eb, *(float(max(a.max(), -a.min())) for a in arrays))
        return max(abs_eb - (eps + 2.0 ** -50) * largest, abs_eb / 2)

    def hold(self, worst: float, n: int, abs_eb: float) -> None:
        """Refuse a reconstruction of ``n`` cells whose worst error misses ``abs_eb``."""
        if worst > abs_eb * (1 + BOUND_SLACK):
            raise ValueError(f"{self.name}: the reconstruction of {n} cells misses the "
                             f"error bound {abs_eb:.9g} (worst error {worst:.9g})")

    def measure(self, data: np.ndarray, reconstruction: np.ndarray, abs_eb: float,
                dtype: str = "float64") -> ErrorTally:
        """``data``'s :class:`ErrorTally` against its reconstruction as stored (in
        ``dtype``); one past the bound on any cell is refused (:meth:`hold`)."""
        tally = ErrorTally.of(data, reconstruction.astype(dtype, copy=False))
        self.hold(tally.max_error, tally.n_elements, abs_eb)
        return tally

    def decode_record(self, record: bytes, shape: Tuple[int, ...],
                      context: bytes = b"") -> np.ndarray:
        """The float64 array of a single-array codec's record: parsed, then decoded."""
        return self.decode_parsed(self.parse_record(record, shape, context))

    def recipe(self, abs_eb: float, dtype: str = "float64") -> dict:
        """What a record decodes under besides its shapes (stored once per
        dataset by the AMRIC filter); a codec with a lean record adds to it."""
        return {"codec": self.name, "abs_eb": float(abs_eb), "dtype": str(dtype)}

    def resolve_eb(self, data: np.ndarray, value_range: float | None = None) -> float:
        """Absolute error bound for this input."""
        return self.error_bound.resolve(data, value_range=value_range)

    def _context(self, recipe: dict) -> bytes:
        """What a single-array codec's standalone record covers: every key of
        its recipe, so a buffer whose recipe changed fails the checksum."""
        return ctn.recipe_context(recipe, sorted(self.recipe(0.0)), f"{self.name} recipe")

    # -- the standalone buffer: recipe, shapes and record ------------------
    def standalone(self, record: bytes, recipe: dict,
                   shapes: Sequence[Tuple[int, ...]]) -> CompressedBuffer:
        """The buffer of a record written under ``recipe`` for arrays of ``shapes``."""
        ncells = sum(math.prod(shape) for shape in shapes)
        return CompressedBuffer(
            payload=ctn.pack_container(self.name, dict(
                recipe, shapes=[list(shape) for shape in shapes]), {"record": record}),
            original_shape=tuple(shapes[0]) if len(shapes) == 1 else (ncells,),
            original_dtype=recipe["dtype"],
            original_nbytes=ncells * np.dtype(recipe["dtype"]).itemsize,
            codec=self.name, meta={"abs_eb": recipe["abs_eb"]})

    def compress_with_reconstruction(self, data: np.ndarray) -> Tuple[CompressedBuffer, np.ndarray]:
        """The standalone buffer of ``data`` and its reconstruction (what
        :meth:`decompress` returns, produced as a by-product of encoding)."""
        from repro.compress.registry import resolve_codec

        if resolve_codec(self.name).supports_many:
            ((record, (recon,), recipe, _),) = self.compress_many_with_reconstruction([[data]])
        else:
            dtype, values = stored_dtype(data), self._as_input(data)
            abs_eb = self.resolve_eb(values)
            recipe = self.recipe(self.grid_eb(abs_eb, [values], [dtype]), dtype)
            record, recon = self.encode_record(data, self._context(recipe))
            self.measure(values, recon, abs_eb, dtype)
        return self.standalone(record, recipe, [recon.shape]), recon

    def compress(self, data: np.ndarray) -> CompressedBuffer:
        """Compress ``data`` (drops the reconstruction)."""
        buffer, _ = self.compress_with_reconstruction(data)
        return buffer

    def decompress(self, buffer: CompressedBuffer | bytes) -> np.ndarray:
        """The array of a standalone buffer, in the recipe's dtype."""
        arrays = self._arrays_of(buffer)
        if len(arrays) != 1:
            raise ValueError("buffer holds multiple arrays; use decompress_many")
        return arrays[0]

    def _arrays_of(self, buffer: CompressedBuffer | bytes) -> List[np.ndarray]:
        """Invert :meth:`standalone`: the shapes checked, the decoder built
        from the recipe, every array cast to the recipe's dtype."""
        from repro.compress.registry import codec_from_recipe, resolve_codec

        payload = buffer.payload if isinstance(buffer, CompressedBuffer) else buffer
        cont = ctn.unpack_container(payload, expect_codec=self.name)
        what = f"{self.name} meta"
        shapes = required(cont.meta, "shapes", what, list)
        if not (shapes and all(isinstance(shape, list) and shape and all(
                type(n) is int and n > 0 for n in shape) and math.prod(shape) < 2 ** 62
                for shape in shapes)):
            raise CorruptFileError(f"{what}: shapes is not a list of positive extents")
        shapes = [tuple(shape) for shape in shapes]
        dtype = required(cont.meta, "dtype", what, str)
        if not is_float(dtype):
            raise CorruptFileError(f"{what}: dtype {dtype!r} is not a float dtype")
        record = required(cont.sections, "record", f"{self.name} payload")
        decoder = codec_from_recipe(cont.meta)
        if resolve_codec(self.name).supports_many:
            arrays = next(decoder.decode_parsed(
                [decoder.parse_record(record, shapes, cont.meta)], cont.meta))
        elif len(shapes) == 1:
            arrays = [decoder.decode_record(record, shapes[0], self._context(cont.meta))]
        else:
            raise CorruptFileError(f"{what}: a {self.name} record holds one array")
        return [a.astype(dtype) if dtype != "float64" else a for a in arrays]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(error_bound={self.error_bound})"
