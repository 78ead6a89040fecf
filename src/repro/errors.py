"""The one exception stored bytes raise when they cannot be what a writer
wrote, and the one check of a required key that raises it."""

from typing import Any, Mapping

__all__ = ["CorruptFileError", "required"]


class CorruptFileError(ValueError):
    """A plotfile (header, chunk record, checksum or codec section) that is
    damaged, truncated, of an unsupported format version, or read in a place
    it was not written for.  A :class:`ValueError`, so callers that already
    catch those keep working; the service classifies it as ``corrupt_data``."""


def required(obj: Mapping[str, Any], key: str, record: str, kind: Any = object,
             context: str = "") -> Any:
    """``obj[key]`` checked to be a ``kind``, or the :class:`CorruptFileError`
    naming the stored ``record`` ("plotfile header", "series index", "sz_lr
    meta") and the ``context`` inside it ("levels[0]") that lacks it.

    ``float`` accepts any number and returns a float; ``int`` and ``float``
    refuse bools.  Every parser of stored bytes reads its keys through this,
    so a record that lost one fails like any other damaged record.
    """
    where = f"malformed {record}" + (f": {context}" if context else "")
    if key not in obj:
        raise CorruptFileError(f"{where} is missing {key!r}")
    value = obj[key]
    if kind is float:
        ok, want = isinstance(value, (int, float)), "a number"
    elif kind is int:
        ok, want = isinstance(value, int), "an int"
    else:
        ok, want = isinstance(value, kind), getattr(kind, "__name__", kind)
    if not ok or (kind in (int, float) and isinstance(value, bool)):
        raise CorruptFileError(
            f"{where}[{key!r}] must be {want}, got {type(value).__name__}")
    return float(value) if kind is float else value
