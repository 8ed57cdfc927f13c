"""Pairwise majority arithmetic: margin matrices and Condorcet winners."""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .prefs import Alternatives, Profile, enumerate_orders, order_index

Rows = Sequence[Sequence[int]]


@dataclass(frozen=True, slots=True)
class MarginMatrix:
    """Skew-symmetric matrix of pairwise majority margins.

    ``margin(a, b)`` is the number of voters ranking a above b minus the
    number ranking b above a; every entry has the parity of n.
    """

    m: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    def margin(self, a: int, b: int) -> int:
        return self.rows[a][b]

    def to_csv(self, alternatives: Alternatives) -> str:
        out = io.StringIO()
        out.write("," + ",".join(alternatives.labels) + "\n")
        for a in range(self.m):
            out.write(alternatives.label_of(a) + ","
                      + ",".join(str(self.rows[a][b]) for b in range(self.m)) + "\n")
        return out.getvalue()


@lru_cache(maxsize=None)
def comparison_matrices(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The margins of a single vote, by canonical order index: entry (a, b)
    is +1 if the order ranks a above b, -1 below, 0 on the diagonal."""
    matrices = []
    for order in enumerate_orders(m):
        pos = order.positions()
        matrices.append(tuple(
            tuple(0 if a == b else (1 if pos[a] < pos[b] else -1) for b in range(m))
            for a in range(m)))
    return tuple(matrices)


def margin_rows(m: int, order_ixs: Iterable[int]) -> list[list[int]]:
    """Margin rows of the votes with these canonical order indices."""
    matrices = comparison_matrices(m)
    totals = [[0] * m for _ in range(m)]
    for order_ix in order_ixs:
        cmp = matrices[order_ix]
        for a in range(m):
            row = cmp[a]
            trow = totals[a]
            for b in range(m):
                trow[b] += row[b]
    return totals


def margin_matrix(profile: Profile) -> MarginMatrix:
    totals = margin_rows(profile.m, [order_index(vote) for vote in profile.votes])
    return MarginMatrix(m=profile.m, n=profile.n, rows=tuple(tuple(r) for r in totals))


def rows_condorcet_winner(rows: Rows) -> int | None:
    """The alternative with a positive margin over every other, if any."""
    m = len(rows)
    for a in range(m):
        if all(rows[a][b] > 0 for b in range(m) if b != a):
            return a
    return None


def condorcet_winner(profile_or_margins: Profile | MarginMatrix) -> int | None:
    """The alternative beating every other by a strict majority, if any.

    On even electorates strict positivity means a margin of at least 2,
    by parity.
    """
    margins = (profile_or_margins if isinstance(profile_or_margins, MarginMatrix)
               else margin_matrix(profile_or_margins))
    return rows_condorcet_winner(margins.rows)
