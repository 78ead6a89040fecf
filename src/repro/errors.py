"""The one exception stored bytes raise when they cannot be what a writer wrote."""

__all__ = ["CorruptFileError"]


class CorruptFileError(ValueError):
    """A plotfile (header, chunk record, checksum or codec section) that is
    damaged, truncated, of an unsupported format version, or read in a place
    it was not written for.  A :class:`ValueError`, so callers that already
    catch those keep working; the service classifies it as ``corrupt_data``."""
