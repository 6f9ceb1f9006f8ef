"""Exception types raised by the coding, decoding and simulation layers."""


class CodingError(Exception):
    """Base class for all errors raised by this package."""


class NotSquare(CodingError):
    """Kernel matrix is not square."""


class SingularKernel(CodingError):
    """Kernel matrix is singular over GF(2)."""


class UnsupportedKernelSize(CodingError):
    """No built-in kernel of the requested size."""


class LengthMismatch(CodingError):
    """An input vector has the wrong length."""


class IndexOutOfRange(CodingError):
    """A bit or stage index is outside its valid range."""


class FrozenViolation(CodingError):
    """An input vector carries a nonzero value on a frozen position."""


class InvalidK(CodingError):
    """Requested information length is outside [0, N]."""


class InvalidRate(CodingError):
    """Code rate outside (0, 1]."""


class NonFiniteInput(CodingError):
    """An LLR input contains NaN or infinity."""


class CodeFileError(CodingError):
    """A code description file is malformed or inconsistent."""
