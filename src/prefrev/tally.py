"""Pairwise majority arithmetic: margin matrices and Condorcet winners.

Layered on :mod:`prefrev.keyspace` (``prefs`` -> ``keyspace`` -> ``tally``
-> ``rules``): a profile's margins are counted once, into its integer
margin key, and the matrix and the Condorcet test are read off that key.
The one Condorcet test reads a key's flat form (``keyspace.key_margins``).
"""

from __future__ import annotations

import io
from typing import Sequence

from .prefs import Alternatives, Profile, Record
from . import keyspace


class MarginMatrix(Record):
    """Skew-symmetric matrix of pairwise majority margins.

    ``rows[a][b]`` is the number of voters ranking a above b minus the
    number ranking b above a; every entry has the parity of n.
    """

    __slots__ = ("m", "n", "rows")

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


def margins_condorcet_winner(margins: Sequence[int], m: int) -> int | None:
    """The alternative whose worst margin in a flat form is positive, if any."""
    for a, over_others in enumerate(keyspace.off_diagonal(m)):
        if all(map((0).__lt__, over_others(margins))):
            return a
    return None


def key_condorcet_winner(key: int, m: int) -> int | None:
    """The Condorcet winner of a margin key of m alternatives, if any."""
    return margins_condorcet_winner(keyspace.key_margins(key, m), m)


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
