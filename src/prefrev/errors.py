"""The package's one error type, and the few subclasses callers catch.

Every error raised on bad input or an exhausted budget is a
:class:`PrefRevError`, so a caller catches one class at its boundary (the
CLI prints it as one ``error:`` line and exits 3).  Every message names the
input it refuses: the file and line, the flag, the label, key or index.  A
subclass exists only where a caller catches it by type to act on it:
:class:`BudgetExceeded` (exit 2 with the units scanned),
:class:`MTooLargeForExactKemeny` (``analyze`` reports the rule as skipped)
and :class:`EdgeMismatch` (the proof checker records a failed check).
Every other error is a plain :class:`PrefRevError`, told apart by its
message.
"""

from __future__ import annotations


class PrefRevError(Exception):
    """Base class for all errors raised by this package."""


class MTooLargeForExactKemeny(PrefRevError):
    pass


class BudgetExceeded(PrefRevError):
    """A scan or search hit its work cap before finishing.

    ``scanned`` and ``total`` count the same unit (e.g. (profile, voter)
    pairs); ``fraction`` reports how much of the space was covered.
    """

    def __init__(self, message: str, *, scanned: int = 0, total: int = 0):
        super().__init__(message)
        self.scanned = scanned
        self.total = total

    @property
    def fraction(self) -> float:
        return self.scanned / self.total if self.total else 0.0


def printable_count(count: int) -> int | str:
    """``count``, or a bound if it has more digits than Python prints."""
    try:
        str(count)
        return count
    except ValueError:
        return f"more than 2^{(count - 1).bit_length() - 1}"


class EdgeMismatch(PrefRevError):
    pass
