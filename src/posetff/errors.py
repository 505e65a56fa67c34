"""Exception types shared across the package."""


class PosetFFError(Exception):
    """Base class for all library errors."""


class FormatError(PosetFFError):
    """An input document lacks a key or holds a value of the wrong shape."""


class CycleError(PosetFFError):
    """The input relation admits a directed cycle, so no strict order exists."""


class IdOutOfRange(PosetFFError):
    """An element or vertex id falls outside [0, n)."""


class SizeMismatch(PosetFFError):
    """Two structures that must share an element universe do not."""


class MalformedInterval(PosetFFError):
    """An interval whose left endpoint exceeds its right, or a span outside its blocks."""


class TooLarge(PosetFFError):
    """Instance exceeds the size limit of an exact (exponential) oracle."""


class CoverageError(PosetFFError):
    """A partition or coloring does not cover the ground set exactly once."""


class InternalError(PosetFFError):
    """A step that is provably unreachable was reached; signals a bug."""


class InvalidDecomposition(PosetFFError):
    """A path decomposition failed validation against its graph."""


class InvalidColoring(PosetFFError):
    """A coloring failed First-Fit validation against its graph."""


class ParamError(PosetFFError):
    """An argument outside the supported domain."""


class GaveUp(PosetFFError):
    """Rejection sampling exceeded its retry allowance."""
