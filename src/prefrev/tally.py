"""Pairwise majority arithmetic: margin matrices and Condorcet winners.

Layered on :mod:`prefrev.keyspace` (``prefs`` -> ``keyspace`` -> ``tally``
-> ``rules``): a profile's margins are counted once, into its integer
margin key, and the matrix and the Condorcet test are read off that key.
"""

from __future__ import annotations

import io
from typing import Sequence

from .prefs import Alternatives, Profile, Record
from . import keyspace

Rows = Sequence[Sequence[int]]


class MarginMatrix(Record):
    """Skew-symmetric matrix of pairwise majority margins.

    ``rows[a][b]`` is the number of voters ranking a above b minus the
    number ranking b above a; every entry has the parity of n.
    """

    __slots__ = ("m", "n", "rows")

    def __init__(self, m: int, n: int, rows: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def to_csv(self, alternatives: Alternatives) -> str:
        out = io.StringIO()
        out.write("," + ",".join(alternatives.labels) + "\n")
        for a in range(self.m):
            out.write(alternatives.label_of(a) + ","
                      + ",".join(str(self.rows[a][b]) for b in range(self.m)) + "\n")
        return out.getvalue()


def margin_matrix(profile: Profile) -> MarginMatrix:
    return MarginMatrix(profile.m, profile.n,
                        keyspace.key_rows(keyspace.profile_key(profile), profile.m))


def rows_condorcet_winner(rows: Rows) -> int | None:
    """The alternative with a positive margin over every other, if any."""
    m = len(rows)
    for a in range(m):
        if all(rows[a][b] > 0 for b in range(m) if b != a):
            return a
    return None


def key_condorcet_winner(key: int, m: int) -> int | None:
    """The Condorcet winner of a margin key of m alternatives, if any."""
    return rows_condorcet_winner(keyspace.key_rows(key, m))


class CondorcetWinners(dict):
    """``winners[key]``: :func:`key_condorcet_winner` of a margin key of m
    alternatives, computed once per key.  Make one per scan or encode; it
    holds every key asked about."""

    def __init__(self, m: int) -> None:
        super().__init__()
        self.m = m

    def __missing__(self, key: int) -> int | None:
        winner = self[key] = key_condorcet_winner(key, self.m)
        return winner


def condorcet_winner(profile: Profile) -> int | None:
    """The alternative beating every other by a strict majority, if any.

    On even electorates strict positivity means a margin of at least 2,
    by parity.
    """
    return key_condorcet_winner(keyspace.profile_key(profile), profile.m)
