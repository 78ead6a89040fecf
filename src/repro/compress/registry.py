"""The codec registry: the one place that maps a codec name to its class
(``AMRICConfig.compressor``, :class:`~repro.core.filter_mod.AMRICLevelFilter`
and the baseline writers resolve through it):

* :func:`register_codec` — declare a codec (name, factory, capabilities);
* :func:`resolve_codec` — name → :class:`CodecSpec`, with a helpful
  :class:`ValueError` listing the registered names on a miss;
* :func:`create_codec` — name → constructed :class:`Compressor`, forwarding
  only the keyword options the codec declares it accepts (so callers can
  offer a superset of options without caring which codec consumes which).

The built-in codecs — the paper's (SZ_L/R, SZ_Interp, AMReX's 1D SZ) and the
series' temporal delta codec — are registered at import time; external code can
register more (the registry is deliberately process-global, mirroring HDF5's
filter registry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.compress.base import Compressor
from repro.errors import CorruptFileError, required
from repro.compress.errorbound import ErrorBound
from repro.compress.sz_lr import SZLRCompressor
from repro.compress.sz_interp import SZInterpCompressor
from repro.compress.sz1d import SZ1DCompressor

__all__ = [
    "CodecSpec",
    "register_codec",
    "resolve_codec",
    "create_codec",
    "codec_from_recipe",
    "available_codecs",
    "is_registered",
]


@dataclass(frozen=True)
class CodecSpec:
    """Everything the rest of the system needs to know about one codec."""

    name: str
    factory: Callable[..., Compressor]
    #: keyword options the factory accepts beyond (error_bound, mode)
    options: Tuple[str, ...] = ()
    #: True when the codec's records hold several arrays (unit blocks) and it
    #: implements them in place of ``encode_record`` / ``decode_record``.
    #: Write side: ``compress_many_with_reconstruction(chunks, shared_encoding,
    #: value_range)``, which unit SLE relies on — ``chunks`` is a list of lists
    #: of arrays, predicted in one pass, answered with one ``(record,
    #: reconstructions, recipe)`` per chunk; ``AMRICLevelFilter.encode`` calls
    #: it once per run of a dataset's chunks of one (field, value range) scope.
    #: Read side: ``parse_record(record, shapes, recipe)`` per record, then
    #: ``decode_parsed(parsed, recipe, select)`` — an iterable of one list of
    #: arrays per record, in order, optionally only the selected arrays of
    #: each — which is what ``AMRICLevelFilter`` calls for such a codec
    supports_many: bool = False
    description: str = ""

    def create(self, error_bound: ErrorBound | float, mode: str = "rel",
               **options) -> Compressor:
        """Build the codec, keeping only the options this codec accepts."""
        kwargs = {k: v for k, v in options.items() if k in self.options}
        return self.factory(error_bound, mode=mode, **kwargs)


_REGISTRY: Dict[str, CodecSpec] = {}


def register_codec(spec: CodecSpec) -> None:
    """Add a codec to the registry (its name must be unused)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"codec name {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec


def is_registered(name: str) -> bool:
    return name in _REGISTRY


def resolve_codec(name: str) -> CodecSpec:
    """Name → spec; ValueError listing known codecs on a miss."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown codec {name!r}; registered codecs: {available_codecs()}")
    return _REGISTRY[name]


def create_codec(name: str, error_bound: ErrorBound | float, mode: str = "rel",
                 **options) -> Compressor:
    """Construct a codec by name (see :meth:`CodecSpec.create`)."""
    return resolve_codec(name).create(error_bound, mode=mode, **options)


def codec_from_recipe(recipe: dict) -> Compressor:
    """The decoder of records written under ``recipe`` (a codec's
    ``recipe()``): its absolute bound and the options the codec declares.
    A recipe lacking a key the codec writes, or one it refuses, is a
    ``CorruptFileError``."""
    try:
        comp = resolve_codec(required(recipe, "codec", "codec recipe")).create(
            required(recipe, "abs_eb", "codec recipe"), mode="abs", **recipe)
        for key in comp.recipe(0.0):
            required(recipe, key, f"{comp.name} recipe")
    except (TypeError, OverflowError, ValueError) as exc:
        raise CorruptFileError(f"codec recipe: {exc}") from exc
    return comp


def available_codecs() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# built-in codecs
# ----------------------------------------------------------------------
register_codec(CodecSpec(
    name="sz_lr", factory=SZLRCompressor,
    options=("block_size", "radius"),
    supports_many=True,
    description="SZ 2.x-style Lorenzo + per-block linear regression"))
register_codec(CodecSpec(
    name="sz_interp", factory=SZInterpCompressor,
    options=("anchor_stride", "radius", "cubic"),
    description="SZ3-style multi-level interpolation prediction"))
register_codec(CodecSpec(
    name="sz_1d", factory=SZ1DCompressor,
    options=("radius",),
    description="1D Lorenzo codec behind AMReX's original in situ compression"))


def _temporal_delta_factory(error_bound, mode: str = "rel", **options):
    # imported lazily: repro.compress.temporal pulls in the h5lite filter base,
    # which would cycle back into this package during its own import
    from repro.compress.temporal import TemporalDeltaCodec

    return TemporalDeltaCodec(error_bound, mode=mode, **options)


register_codec(CodecSpec(
    name="temporal_delta", factory=_temporal_delta_factory,
    options=("offset",),
    description="fixed-grid value quantisation, delta-coded across timesteps"))
