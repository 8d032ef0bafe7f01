"""Exception types shared across the package."""


class PermsieveError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(PermsieveError):
    """Raised when a permutation is parsed from an empty string."""


class NotAPermutation(PermsieveError):
    """Raised when a sequence is not a rearrangement of 1..n."""


class SizeMismatch(PermsieveError):
    """Raised when two permutations of different sizes are combined."""


class CodeOutOfRange(PermsieveError):
    """Raised when a Lehmer code entry violates 0 <= L_i <= n - i."""


class IndexOutOfRange(PermsieveError):
    """Raised when an entry index lies outside 1..n."""


class WidthOutOfRange(PermsieveError):
    """Raised when a width-k descent statistic is requested with k >= n."""


class ParityViolation(PermsieveError):
    """Raised when an always-even quantity turns out odd (an internal bug)."""


class WeightOutOfRange(PermsieveError):
    """Raised when a colored Motzkin path carries a weight beyond its height bound."""


class NoPreimage(PermsieveError):
    """Raised when a path or arc diagram is not in the image of its encoding."""


class NotAnInvolution(PermsieveError):
    """Raised when a map required to be an involution fails psi(psi(x)) = x."""


class NotABijection(PermsieveError):
    """Raised when orbit chasing detects a non-injective map."""


class UsageError(PermsieveError, ValueError):
    """Raised when a command or scan argument is out of its documented range or names nothing registered."""
