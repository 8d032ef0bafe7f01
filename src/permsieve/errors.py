"""The two exception types of the package.

Input from outside the package that is refused (an argument out of its
range, an unknown name, a malformed permutation, an encoding that decodes to
nothing) raises :class:`UsageError`.  A fault the package finds in itself (a
map or definition that breaks its own invariant) raises
:class:`PermsieveError`.  No caller tells finer cases apart.
"""


class PermsieveError(Exception):
    """A fault the package finds in itself, and the base class of :class:`UsageError`."""


class UsageError(PermsieveError, ValueError):
    """Raised when input from outside the package is refused."""
