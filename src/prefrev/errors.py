"""Exception types shared across the package.

Every error raised on bad input or exhausted budgets derives from
:class:`PrefRevError`, so callers can catch one base class at API
boundaries (the CLI does exactly that).
"""

from __future__ import annotations


class PrefRevError(Exception):
    """Base class for all errors raised by this package."""


# --- preference / profile construction ---------------------------------


class UnknownLabel(PrefRevError):
    def __init__(self, label: str, where: str | None = None):
        message = f"unknown alternative label: {label!r}"
        super().__init__(f"{where}: {message}" if where else message)
        self.label = label


class DuplicateLabel(PrefRevError):
    def __init__(self, label: str):
        super().__init__(f"duplicate alternative label: {label!r}")
        self.label = label


class MissingAlternative(PrefRevError):
    def __init__(self, label: str):
        super().__init__(f"order does not rank alternative: {label!r}")
        self.label = label


class MTooLarge(PrefRevError):
    pass


class IndexOutOfRange(PrefRevError):
    pass


class VoterOutOfRange(PrefRevError):
    pass


# --- rules ---------------------------------------------------------------


class MTooLargeForExactKemeny(PrefRevError):
    pass


class DomainMismatch(PrefRevError):
    pass


class MissingEntry(PrefRevError):
    pass


# --- scans and search budgets --------------------------------------------


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


class MissingSize(PrefRevError):
    pass


class NotAViolation(PrefRevError):
    pass


class EmptyOutcomeSet(PrefRevError):
    pass


# --- proof checking -------------------------------------------------------


class MTooSmall(PrefRevError):
    pass


class EdgeMismatch(PrefRevError):
    pass


# --- CNF pipeline ----------------------------------------------------------


class MalformedModel(PrefRevError):
    pass


class VariableOutOfRange(PrefRevError):
    pass


class NotAFunction(PrefRevError):
    pass


# --- CLI -------------------------------------------------------------------


class UnknownRule(PrefRevError):
    pass


class BadBudget(PrefRevError):
    pass
