"""Realizable margin matrices: the key space of margins-only rules.

A key is the upper triangle of a margin matrix, the margins (a, b) for
a < b in row-major order, packed into one integer: entry i of the
m(m-1)/2 entries sits, offset by 2^31, in bits [32 (L-1-i), 32 (L-i)).
The diagonal is zero and the lower triangle is the negated upper one, so a
key fixes its matrix.  Adding one vote to a profile is one integer
addition of that vote's key change, and integer order is the
lexicographic order of the entries, which is the order of the full
row-major matrices.  Entries, and so electorates, stay below 2^31.

Level k is the set of keys realizable by k voters.  The levels come from
one set DP, since the keys of k voters are the keys of k-1 voters plus one
vote's key change.  McGarvey (1953) and Debord (1987) show that every
skew-symmetric integer matrix whose off-diagonal entries share one parity
is the margin matrix of some profile; the DP decides at which sizes.  An
order o is a *witness order* of a key K at level k, i.e. some realization
of K has a voter with vote o, exactly when K - vote(o) lies at level k-1.
This membership test is the one way witness orders are read: no table of
them is stored, so level k-1, as :func:`margin_levels` returns it, is all
a reader needs.

The c2 encoder and decoder (:mod:`prefrev.satgen`), the margin pass of the
scan kernel (:mod:`prefrev.monotonicity`) and the key-level re-check of c2
tables all take their keys from :func:`margin_levels`; c2 tables and the c2
variable map hold these integers too.  Only files hold :func:`key_text`.

This module is the bottom layer of the margin arithmetic: the layers go
``prefs`` -> ``keyspace`` -> ``tally`` -> ``rules``, and it imports only
``prefs`` (and the exceptions).  Votes become margins only here, through
:func:`vote_key`: :func:`profile_key` sums it over a profile's votes, and
:func:`digits_key` reads it from the table :func:`vote_keys`; every margin
matrix, Condorcet verdict and rule of the margins is read off such a key.
Keys are read in one flat form (:func:`key_margins`), through getters built
once per m; :func:`key_rows` is only the adapter for rules written on rows.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, KeysView, Sequence
from functools import lru_cache
from operator import itemgetter, neg

from .errors import BudgetExceeded
from .prefs import Profile, enumerate_orders

Level = KeysView[int]

_BITS = 32
_OFFSET = 1 << (_BITS - 1)


@lru_cache(maxsize=None)
def _entries(m: int) -> tuple[tuple[int, int, int], ...]:
    """Per key entry, first entry first: its cell (a, b), a < b, and its
    bit position."""
    cells = [(a, b) for a in range(m) for b in range(a + 1, m)]
    return tuple((a, b, _BITS * (len(cells) - 1 - i)) for i, (a, b) in enumerate(cells))


@lru_cache(maxsize=None)
def vote_key(positions: tuple[int, ...]) -> int:
    """The key change of a single vote that puts alternative a at position
    ``positions[a]``: entry (a, b) is +1 if the vote ranks a above b and -1
    if below.  Memoised per vote met, so a profile's key costs a lookup per
    vote."""
    return sum(1 << shift if positions[a] < positions[b] else -(1 << shift)
               for a, b, shift in _entries(len(positions)))


@lru_cache(maxsize=None)
def vote_keys(m: int) -> tuple[int, ...]:
    """:func:`vote_key` of every order, by canonical order index."""
    return tuple(vote_key(order.positions()) for order in enumerate_orders(m))


@lru_cache(maxsize=None)
def empty_key(m: int) -> int:
    """The key of no votes: every margin zero."""
    return sum(_OFFSET << shift for _, _, shift in _entries(m))


def digits_key(m: int, digits) -> int:
    """The key of the votes with these canonical order indices."""
    return empty_key(m) + sum(map(vote_keys(m).__getitem__, digits))


def profile_key(profile: Profile) -> int:
    """The key of a profile's margins, from its votes' positions, so that a
    few profiles of many alternatives build no table of all m! orders."""
    return empty_key(profile.m) + sum(vote_key(vote.positions()) for vote in profile.votes)


def getter(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """``itemgetter(*indices)``, a tuple for fewer than two indices too."""
    return (itemgetter(*indices) if len(indices) > 1
            else lambda seq: tuple(map(seq.__getitem__, indices)))


@lru_cache(maxsize=None)
def _flat_form(m: int) -> tuple[int, int, struct.Struct, Callable]:
    """How :func:`key_margins` reads a key of m alternatives: its offsets, its
    width in bits, the unpacker of its entries, their negations and a zero
    (signed 32-bit big-endian), and the getter of the flat form from them."""
    size = len(_entries(m))
    signed = [2 * size] * (m * m)
    for i, (a, b, _) in enumerate(_entries(m)):
        signed[a * m + b], signed[b * m + a] = i, size + i
    return empty_key(m), _BITS * size, struct.Struct(f">{2 * size + 1}i"), getter(signed)


def key_margins(key: int, m: int) -> tuple[int, ...]:
    """The flat form of a key: its m x m margins row-major, a over b at a * m + b."""
    offsets, width, unpacker, flat = _flat_form(m)
    # 2 * offsets - key is the negated margins' key; ^ offsets removes each offset
    signed = ((key ^ offsets) << width | (2 * offsets - key) ^ offsets) << _BITS
    return flat(unpacker.unpack(signed.to_bytes(unpacker.size, "big")))


@lru_cache(maxsize=None)
def off_diagonal(m: int) -> tuple[Callable[[Sequence[int]], tuple[int, ...]], ...]:
    """Per alternative, the getter of its margins over the others."""
    return tuple(getter([a * m + b for b in range(m) if b != a]) for a in range(m))


@lru_cache(maxsize=None)
def transpose(m: int) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The getter of a flat m x m matrix's transpose."""
    return getter([b * m + a for a in range(m) for b in range(m)])


def key_rows(key: int, m: int) -> tuple[tuple[int, ...], ...]:
    """A key's margin matrix as m rows: the adapter for rules on rows."""
    return tuple(zip(*[iter(key_margins(key, m))] * m))


def key_text(key: int, m: int) -> str:
    """The file form of a key: its flat form in canonical integers, ``_``-joined."""
    return "_".join(map(str, key_margins(key, m)))


def parse_key(text: str, m: int) -> int:
    """The key whose :func:`key_text` is ``text``; ValueError for any other
    text, such as a wrong entry count, a nonzero diagonal, asymmetric
    entries, ``+1``, ``01`` or ``-0``, or an entry of 2^31 or more."""
    try:
        flat = tuple(map(int, text.split("_")))
    except ValueError:
        flat = ()
    # canonically spelt, skew-symmetric (so the diagonal is zero) and in
    # range: exactly what key_text writes
    if (len(flat) == m * m and "_".join(map(str, flat)) == text
            and flat == tuple(map(neg, transpose(m)(flat)))
            and -_OFFSET < min(flat) and max(flat) < _OFFSET):
        return sum((flat[a * m + b] + _OFFSET) << shift for a, b, shift in _entries(m))
    raise ValueError(f"not a margin key of {m} alternatives: {text!r}")


def margin_levels(n: int, m: int, *, budget: int | None = None
                  ) -> tuple[Level, Level]:
    """Levels n-1 and n (level -1 is empty), as the set-like key views of
    the dicts they were built in.

    ``budget`` caps the keys of any level, checked on level 0 and on each
    insertion while a later level is built (levels never shrink: adding one fixed vote maps level
    k into level k+1 one-to-one), so :class:`BudgetExceeded` means level n
    has more than ``budget`` keys.
    """
    if budget is not None and budget < 1:  # level 0 holds one key
        raise BudgetExceeded(f"margin enumeration at n=0 passed {budget} keys",
                             scanned=budget)
    votes = vote_keys(m)
    # levels are built as dicts: walking one in insertion order and probing
    # the next ran about 1.6 times as fast as with sets, whose probing
    # suffers from the shared structure of the keys' hashes
    previous: dict[int, None] = {}
    level = {empty_key(m): None}
    for size in range(1, n + 1):
        reached: dict[int, None] = {}
        for key in level:
            for vote in votes:
                new = key + vote
                if new not in reached:
                    if budget is not None and len(reached) >= budget:
                        raise BudgetExceeded(
                            f"margin enumeration at n={size} passed {budget} keys",
                            scanned=budget)
                    reached[new] = None
        previous, level = level, reached
    return previous.keys(), level.keys()

