"""Alternatives, linear orders, profiles, and the canonical enumerations.

Alternatives are plain integer ids ``0..m-1``; :class:`Alternatives` maps
them to display labels.  A :class:`LinearOrder` is a strict ranking (best
first) and a :class:`Profile` is a voter-indexed sequence of orders.  All
values are immutable; every operation returns a new value.

The canonical enumeration of the m! orders is lexicographic by alternative
id, with index 0 the identity order ``0>1>...>m-1``.  Profile indices use
voter 0 as the most significant digit in base m!.  Both are fixed so that
CNF variable ids and golden files are stable across runs.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from typing import Iterable, Iterator

from .errors import (
    DuplicateLabel,
    IndexOutOfRange,
    MissingAlternative,
    MTooLarge,
    PrefRevError,
    UnknownLabel,
    VoterOutOfRange,
)

MAX_ENUMERABLE_M = 8

# how a record's __init__ sets its fields; bound once, since orders and
# profiles are built in the scan and proof loops
_set = object.__setattr__


class Record:
    """Base of prefrev's immutable records.

    A record names its fields in ``__slots__``, takes them in that order and
    under those names as the parameters of its ``__init__`` and sets each
    once there with ``object.__setattr__``; afterwards assigning or
    deleting a field raises AttributeError.  Records of one class with equal fields are
    equal and hash alike (a record with an unhashable field is unhashable),
    and pickle and copy go through ``__init__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a "
                             f"{type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # pickle and copy rebuild a record through __init__, which the
        # frozen fields leave as the only way to set them
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the named fields changed, validated by ``__init__``
        as a new record is."""
        fields = dict(zip(self.__slots__, self._values()))
        fields.update(changes)
        return type(self)(**fields)


def default_labels(m: int) -> tuple[str, ...]:
    """Display labels a,b,c,d then x1,x2,... for any extra alternatives."""
    base = ("a", "b", "c", "d")
    if m <= 4:
        return base[:m]
    return base + tuple(f"x{i}" for i in range(1, m - 3))


class Alternatives(Record):
    """The label context for one election: id ``i`` displays as ``labels[i]``."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple[str, ...]) -> None:
        if len(set(labels)) != len(labels):
            raise DuplicateLabel(next(x for x in labels if labels.count(x) > 1))
        _set(self, "labels", labels)

    @property
    def m(self) -> int:
        return len(self.labels)

    def id_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(label) from None

    def label_of(self, alt: int) -> str:
        return self.labels[alt]

    def label_set(self, alts: Iterable[int]) -> str:
        inner = ",".join(self.labels[a] for a in sorted(alts))
        return "{" + inner + "}"


class LinearOrder(Record):
    """A strict ranking of the m alternatives, best first."""

    __slots__ = ("ranking",)

    def __init__(self, ranking: tuple[int, ...]) -> None:
        m = len(ranking)
        if sorted(ranking) != list(range(m)):
            raise PrefRevError(f"not a permutation of 0..{m - 1}: {ranking}")
        _set(self, "ranking", ranking)

    # the base's comparison and hash, specialised to the one field: orders
    # and profiles are compared and hashed in the scan and proof loops
    def __eq__(self, other):
        if other.__class__ is not LinearOrder:
            return NotImplemented
        return self.ranking == other.ranking

    def __hash__(self) -> int:
        return hash((self.ranking,))

    @property
    def m(self) -> int:
        return len(self.ranking)

    @property
    def top(self) -> int:
        return self.ranking[0]

    @property
    def bottom(self) -> int:
        return self.ranking[-1]

    def position_of(self, alt: int) -> int:
        """Rank of ``alt``: 0 is best."""
        return self.positions()[alt]

    def positions(self) -> tuple[int, ...]:
        return _positions_of(self.ranking)

    def prefers(self, a: int, b: int) -> bool:
        """True iff this order ranks ``a`` strictly above ``b``."""
        pos = self.positions()
        return pos[a] < pos[b]

    def best_of(self, alts: Iterable[int]) -> int:
        pos = self.positions()
        return min(alts, key=pos.__getitem__)

    def worst_of(self, alts: Iterable[int]) -> int:
        pos = self.positions()
        return max(alts, key=pos.__getitem__)

    def reverse(self) -> "LinearOrder":
        return LinearOrder(self.ranking[::-1])


@lru_cache(maxsize=None)
def _positions_of(ranking: tuple[int, ...]) -> tuple[int, ...]:
    pos = [0] * len(ranking)
    for i, a in enumerate(ranking):
        pos[a] = i
    return tuple(pos)


@lru_cache(maxsize=None)
def enumerate_orders(m: int) -> tuple[LinearOrder, ...]:
    """All m! linear orders over 0..m-1 in lexicographic order by id.

    Index 0 is the identity order; the sequence is stable across runs.
    """
    if not 1 <= m <= MAX_ENUMERABLE_M:
        raise MTooLarge(f"m={m} outside enumerable range 1..{MAX_ENUMERABLE_M}")
    return tuple(LinearOrder(p) for p in permutations(range(m)))


@lru_cache(maxsize=None)
def _order_index_map(m: int) -> dict[tuple[int, ...], int]:
    return {o.ranking: i for i, o in enumerate(enumerate_orders(m))}


def order_index(order: LinearOrder) -> int:
    """Position of ``order`` in :func:`enumerate_orders` of the same m."""
    return _order_index_map(order.m)[order.ranking]


@lru_cache(maxsize=None)
def reverse_index_table(m: int) -> tuple[int, ...]:
    """``reverse()`` on canonical order indices, for scan hot loops."""
    idx = _order_index_map(m)
    return tuple(idx[o.ranking[::-1]] for o in enumerate_orders(m))


class Profile(Record):
    """An ordered assignment of one linear order per voter."""

    __slots__ = ("votes",)

    def __init__(self, votes: tuple[LinearOrder, ...]) -> None:
        if not votes:
            raise PrefRevError("a profile needs at least one voter")
        m = len(votes[0].ranking)
        for vote in votes:
            if len(vote.ranking) != m:
                raise PrefRevError("all voters must rank the same alternatives")
        _set(self, "votes", votes)

    def __eq__(self, other):
        if other.__class__ is not Profile:
            return NotImplemented
        return self.votes == other.votes

    def __hash__(self) -> int:
        return hash((self.votes,))

    @property
    def n(self) -> int:
        return len(self.votes)

    @property
    def m(self) -> int:
        return self.votes[0].m

    def _check_voter(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise VoterOutOfRange(f"voter {i} not in 0..{self.n - 1}")

    def replace_vote(self, i: int, order: LinearOrder) -> "Profile":
        self._check_voter(i)
        votes = list(self.votes)
        votes[i] = order
        return Profile(tuple(votes))

    def reverse_vote(self, i: int) -> "Profile":
        """The profile where voter ``i`` submits the reverse of their vote."""
        return self.replace_vote(i, self.votes[i].reverse())

    def remove_voter(self, i: int) -> "Profile":
        self._check_voter(i)
        if self.n == 1:
            raise VoterOutOfRange("cannot remove the last voter")
        return Profile(self.votes[:i] + self.votes[i + 1:])

    def insert_voter(self, i: int, order: LinearOrder) -> "Profile":
        """Join at position ``i`` (``i == n`` appends); later voters shift."""
        if not 0 <= i <= self.n:
            raise VoterOutOfRange(f"insert position {i} not in 0..{self.n}")
        return Profile(self.votes[:i] + (order,) + self.votes[i:])

    def pad(self, order: LinearOrder) -> "Profile":
        """Append ``order`` and its reverse; majority margins are unchanged."""
        return Profile(self.votes + (order, order.reverse()))


# --- canonical profile indexing -------------------------------------------


def num_profiles(n: int, m: int) -> int:
    return math.factorial(m) ** n


def profile_to_index(profile: Profile) -> int:
    """Canonical index: voter 0 is the most significant base-m! digit."""
    index_of = _order_index_map(profile.m)
    return digits_to_index([index_of[vote.ranking] for vote in profile.votes],
                           profile.m)


def digits_to_index(digits: Iterable[int], m: int) -> int:
    """The canonical index of the profile whose votes have these order
    indices, voter 0 first; the inverse of :func:`profile_digits`."""
    fact = math.factorial(m)
    index = 0
    for digit in digits:
        index = index * fact + digit
    return index


def profile_digits(index: int, n: int, m: int) -> list[int]:
    """The canonical order index of each voter's vote, voter 0 first."""
    fact = math.factorial(m)
    digits = [0] * n
    for voter in range(n - 1, -1, -1):
        index, digits[voter] = divmod(index, fact)
    return digits


def iter_digits(n: int, m: int, *, anonymous: bool = False
                ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """``(index, digits)`` of every profile, in ascending canonical index.

    With ``anonymous`` only the non-decreasing digit tuples come out: one
    profile per multiset of votes, the lowest-index ordering of it.
    """
    fact = math.factorial(m)
    tuples = (combinations_with_replacement(range(fact), n) if anonymous
              else product(range(fact), repeat=n))
    for digits in tuples:
        yield digits_to_index(digits, m), digits


def index_to_profile(index: int, n: int, m: int) -> Profile:
    if not 0 <= index < num_profiles(n, m):
        raise IndexOutOfRange(f"profile index {index} not in 0..{num_profiles(n, m) - 1}")
    orders = enumerate_orders(m)
    return Profile(tuple(orders[d] for d in profile_digits(index, n, m)))


def iter_profiles(n: int, m: int) -> Iterator[Profile]:
    """All (m!)^n profiles in canonical index order."""
    orders = enumerate_orders(m)
    # product varies the last position fastest, matching voter 0 as the
    # most significant digit
    for combo in product(range(len(orders)), repeat=n):
        yield Profile(tuple(orders[d] for d in combo))


# --- text formats -----------------------------------------------------------


def parse_order(text: str, alternatives: Alternatives) -> LinearOrder:
    """Parse ``a>b>c>d`` (whitespace tolerated) into a linear order."""
    labels = [part.strip() for part in text.split(">")]
    seen: set[int] = set()
    ranking = []
    for label in labels:
        alt = alternatives.id_of(label)
        if alt in seen:
            raise DuplicateLabel(label)
        seen.add(alt)
        ranking.append(alt)
    for alt in range(alternatives.m):
        if alt not in seen:
            raise MissingAlternative(alternatives.label_of(alt))
    return LinearOrder(tuple(ranking))


def format_order(order: LinearOrder, alternatives: Alternatives) -> str:
    return ">".join(alternatives.label_of(a) for a in order.ranking)


def parse_profile(text: str, *, source: str = "<string>") -> tuple[Profile, Alternatives]:
    """Parse the profile text format.

    One optional ``# comment`` per line; a header ``m=<int> labels=a,b,...``;
    then ``<count>: <order>`` lines whose counts expand left to right into
    voter positions.
    """
    alternatives: Alternatives | None = None
    votes: list[LinearOrder] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if alternatives is None:
            alternatives = _parse_profile_header(line, source, lineno)
            continue
        if ":" not in line:
            raise PrefRevError(f"{source}:{lineno}: expected '<count>: <order>', got {raw!r}")
        count_part, order_part = line.split(":", 1)
        try:
            count = int(count_part)
        except ValueError:
            raise PrefRevError(f"{source}:{lineno}: bad count {count_part!r}") from None
        if count < 1:
            raise PrefRevError(f"{source}:{lineno}: count must be positive")
        try:
            order = parse_order(order_part, alternatives)
        except PrefRevError as exc:
            raise type(exc)(f"{source}:{lineno}: {exc}") from None
        votes.extend([order] * count)
    if alternatives is None:
        raise PrefRevError(f"{source}: missing 'm=... labels=...' header")
    if not votes:
        raise PrefRevError(f"{source}: profile has no voters")
    return Profile(tuple(votes)), alternatives


def _parse_profile_header(line: str, source: str, lineno: int) -> Alternatives:
    fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
    if "m" not in fields or "labels" not in fields:
        raise PrefRevError(f"{source}:{lineno}: header must be 'm=<int> labels=...'")
    try:
        m = int(fields["m"])
    except ValueError:
        raise PrefRevError(f"{source}:{lineno}: bad m {fields['m']!r}") from None
    labels = tuple(x.strip() for x in fields["labels"].split(","))
    if len(labels) != m:
        raise PrefRevError(f"{source}:{lineno}: m={m} but {len(labels)} labels given")
    return Alternatives(labels)


def format_profile(profile: Profile, alternatives: Alternatives) -> str:
    """Render a profile in the text format, grouping equal consecutive votes."""
    lines = [f"m={profile.m} labels={','.join(alternatives.labels)}"]
    run_order = profile.votes[0]
    run_len = 0
    for vote in profile.votes:
        if vote == run_order:
            run_len += 1
        else:
            lines.append(f"{run_len}: {format_order(run_order, alternatives)}")
            run_order, run_len = vote, 1
    lines.append(f"{run_len}: {format_order(run_order, alternatives)}")
    return "\n".join(lines) + "\n"


def read_profile(path: str) -> tuple[Profile, Alternatives]:
    with open(path, encoding="utf-8") as handle:
        return parse_profile(handle.read(), source=path)


def write_profile(profile: Profile, alternatives: Alternatives, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_profile(profile, alternatives))
