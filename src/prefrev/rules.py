"""The voting-rule suite: scoring rules, Condorcet extensions, set-valued rules.

The top layer of the margin arithmetic (``prefs`` -> ``keyspace`` ->
``tally`` -> ``rules``).  A rule is obtained by name from
:func:`resolute_rule` or :func:`set_rule`: a resolute rule takes a profile
and returns a single alternative id, ties settled by a tie-break order;
a set-valued rule returns a frozenset.  All rules here are pure functions
of the profile, so they can back the paradox checkers directly.
:class:`RuleTable` wraps an explicit lookup table (e.g. decoded from a SAT
model) behind the same callable interface.

Rule callables declare what their outcome depends on in a ``depends_on``
attribute: ``"margins"`` (only the margin matrix), ``"multiset"`` (the
votes cast, not which voter cast which) or ``"order"`` (the voter-indexed
profile, the default for any callable without the attribute).  The
exhaustive scans of :mod:`prefrev.monotonicity` read it.  A "margins" rule
also provides ``on_key(key, n, m)``, its outcome at an integer margin key
(:mod:`prefrev.keyspace`) of n voters over m alternatives; the scan kernel
evaluates it only there, and takes a "margins" rule without ``on_key`` for
a "multiset" one.  Registry rules of the margins are :class:`MarginsRule`
objects, written once on a key's flat form and evaluated only at a key (a
profile's through :func:`prefrev.keyspace.profile_key`), and a c2
:class:`RuleTable` answers ``on_key`` from its entries.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import chain, combinations
from operator import ge
from typing import Callable, Iterable, Sequence, TextIO

from .errors import BudgetExceeded, MTooLargeForExactKemeny, PrefRevError
from .prefs import (
    RESOLUTE_RULES,
    SET_RULES,
    LinearOrder,
    Profile,
    Record,
    default_labels,
    enumerate_orders,
    num_profiles,
    positions_of,
    profile_to_index,
)
from .tally import margins_condorcet_winner
from . import keyspace

Rule = Callable[[Profile], int]
SetRule = Callable[[Profile], frozenset[int]]
Margins = Sequence[int]  # the flat form of a margin matrix

MAX_EXACT_KEMENY_M = 7
MAX_DODGSON_M = 6
MAX_DODGSON_N = 64


class ScoreVector(Record):
    """Points per rank position (0-based), weakly decreasing."""

    __slots__ = ("s",)

    def __init__(self, s: tuple[int, ...]) -> None:
        if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
            raise PrefRevError(f"score vector must be weakly decreasing: {s}")
        super().__init__(s)

    @property
    def m(self) -> int:
        return len(self.s)


def plurality_vector(m: int) -> ScoreVector:
    return ScoreVector((1,) + (0,) * (m - 1))


def _first_top(scores: Sequence[int], tie_break: LinearOrder) -> int:
    """The top scorer that comes first in the tie-break order."""
    return max(_ranking(tie_break, len(scores)), key=scores.__getitem__)


def _ranking(tie_break: LinearOrder, m: int) -> tuple[int, ...]:
    """The tie-break order of 0..m-1 (it may rank more), read by every rule."""
    ranking = tie_break.ranking
    if len(ranking) < m:
        raise PrefRevError(f"tie-break ranks {len(ranking)} alternatives, m={m}")
    return ranking if len(ranking) == m else tuple(a for a in ranking if a < m)


# --- scoring rules ----------------------------------------------------------


def scoring_winner(profile: Profile, score_vector: ScoreVector,
                   tie_break: LinearOrder) -> int:
    if score_vector.m != profile.m:
        raise PrefRevError(f"score vector length {score_vector.m} != m={profile.m}")
    totals = [0] * profile.m
    for vote in profile.votes:
        for pos, alt in enumerate(vote.ranking):
            totals[alt] += score_vector.s[pos]
    return _first_top(totals, tie_break)


def plurality_winner(profile: Profile, tie_break: LinearOrder) -> int:
    return scoring_winner(profile, plurality_vector(profile.m), tie_break)


# --- rules of the margins alone -----------------------------------------------
# Fishburn's C2 class ("Condorcet social choice functions", SIAM J. Appl.
# Math. 1977).  Each rule is written once on the flat form of a margin
# matrix (:func:`prefrev.keyspace.key_margins`: entry a * m + b is the margin
# of a over b), and :class:`MarginsRule` evaluates it on an integer margin
# key, a profile's included.  Restricted to a set A of alternatives, a's
# Borda score is (n (|A| - 1) + the sum of a's margins over A) / 2, so
# Borda and the Borda eliminations rank by row sums over A.


class MarginsRule:
    """A rule of the margin matrix alone: ``impl(margins, m, *args)`` on its
    flat form.  :meth:`on_key` evaluates it on an integer margin key
    (:mod:`prefrev.keyspace`), which is how the scan kernel calls it; called
    on a profile it takes the profile's key and does the same."""

    depends_on = "margins"
    __slots__ = ("impl", "args")

    def __init__(self, impl: Callable, *args):
        self.impl, self.args = impl, args

    def __call__(self, profile: Profile):
        return self.on_key(keyspace.profile_key(profile), profile.n, profile.m)

    def on_key(self, key: int, n: int, m: int):
        """The outcome at margin key ``key`` of n voters over m
        alternatives (the margins do not depend on n)."""
        return self.impl(keyspace.key_margins(key, m), m, *self.args)


def borda_margins(margins: Margins, m: int, tie_break: LinearOrder) -> int:
    return _first_top(list(map(sum, zip(*[iter(margins)] * m))), tie_break)


def black_margins(margins: Margins, m: int, tie_break: LinearOrder) -> int:
    """Condorcet winner if one exists, Borda winner otherwise."""
    winner = margins_condorcet_winner(margins, m)
    return borda_margins(margins, m, tie_break) if winner is None else winner


def maximin_scores(margins: Margins, m: int) -> list[int]:
    """Each alternative's worst margin against another (0 for a lone one)."""
    return [min(over_others(margins) or (0,)) for over_others in keyspace.off_diagonal(m)]


def maximin_margins(margins: Margins, m: int, tie_break: LinearOrder) -> int:
    return _first_top(maximin_scores(margins, m), tie_break)


# --- set-valued rules over the strict majority relation ---------------------


def copeland_margins(margins: Margins, m: int) -> frozenset[int]:
    """Alternatives maximising (majority wins - majority losses); ties count
    for neither side."""
    scores = [sum((x > 0) - (x < 0) for x in margins[i:i + m]) for i in range(0, m * m, m)]
    return frozenset(a for a, score in enumerate(scores) if score == max(scores))


def uncovered_margins(margins: Margins, m: int) -> frozenset[int]:
    """Alternatives not covered by any other.

    b covers a iff b beats a and b beats everything a beats (Gillies
    covering; on tournaments this is the standard uncovered set).
    """

    def covers(b: int, a: int) -> bool:
        row_b, row_a = margins[b * m:b * m + m], margins[a * m:a * m + m]
        return row_b[a] > 0 and all(row_b[c] > 0 for c in range(m)
                                    if c not in (a, b) and row_a[c] > 0)

    return frozenset(a for a in range(m)
                     if not any(covers(b, a) for b in range(m) if b != a))


@lru_cache(maxsize=None)
def _closure_steps(m: int) -> tuple[tuple[int, int, int], ...]:
    """Floyd-Warshall's steps, k then i then j: cells (ik, kj, ij), i, j, k distinct."""
    return tuple((i * m + k, k * m + j, i * m + j) for k in range(m) for i in range(m)
                 for j in range(m) if len({i, j, k}) == 3)


def top_cycle_margins(margins: Margins, m: int) -> frozenset[int]:
    """The smallest set whose members strictly beat every non-member.

    Computed as the top strongly connected component of the ties-or-beats
    relation, which is complete, so the component ordering is linear.
    """
    reach = [x >= 0 for x in margins]  # the diagonal is 0, so reflexive
    for ik, kj, ij in _closure_steps(m):
        if reach[ik] and reach[kj]:
            reach[ij] = True
    return frozenset(a for a in range(m) if all(reach[a * m:a * m + m]))


copeland_set = MarginsRule(copeland_margins)
uncovered_set = MarginsRule(uncovered_margins)
top_cycle = MarginsRule(top_cycle_margins)


# --- Kemeny -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _agreements(m: int) -> tuple[tuple[LinearOrder, Callable], ...]:
    """Per ranking, in canonical order: it and the getter of its pairs' margins."""
    return tuple((order, keyspace.getter([a * m + b for a, b in combinations(order.ranking, 2)]))
                 for order in enumerate_orders(m))


def kemeny_margin_rankings(margins: Margins, m: int) -> tuple[LinearOrder, ...]:
    """All rankings maximising total pairwise agreement, by exhaustive scan.

    Returned in canonical enumeration order; always nonempty.
    """
    if m > MAX_EXACT_KEMENY_M:
        raise MTooLargeForExactKemeny(
            f"exact Kemeny enumerates m! rankings; m={m} > {MAX_EXACT_KEMENY_M}")
    rankings = _agreements(m)
    scores = [sum(agreement(margins)) for _, agreement in rankings]
    top = max(scores)
    return tuple(order for (order, _), score in zip(rankings, scores) if score == top)


def kemeny_rankings(profile: Profile) -> tuple[LinearOrder, ...]:
    return kemeny_margin_rankings(
        keyspace.key_margins(keyspace.profile_key(profile), profile.m), profile.m)


def kemeny_margins(margins: Margins, m: int, tie_break: LinearOrder) -> int:
    place = positions_of(_ranking(tie_break, m)).__getitem__
    return min(kemeny_margin_rankings(margins, m), key=lambda r: tuple(map(place, r.ranking))).top


# --- elimination rules --------------------------------------------------------


def baldwin_margins(margins: Margins, m: int, tie_break: LinearOrder) -> int:
    """Repeatedly eliminate the single lowest-Borda alternative.

    Elimination ties are settled by removing the tie-break-lowest
    alternative among those tied.
    """
    pos = positions_of(_ranking(tie_break, m))
    active = list(range(m))
    while len(active) > 1:
        active.remove(min(active, key=lambda a: (
            sum(map(margins[a * m:a * m + m].__getitem__, active)), -pos[a])))
    return active[0]


def nanson_margins(margins: Margins, m: int, tie_break: LinearOrder) -> int:
    """Repeatedly eliminate everything strictly below the average Borda
    score.  Over the active set the row sums add up to zero, so that is
    everything with a negative row sum there."""
    active = list(range(m))
    while len(active) > 1:
        kept = [a for a in active if sum(map(margins[a * m:a * m + m].__getitem__, active)) >= 0]
        if len(kept) == len(active):
            break
        active = kept
    return next(a for a in _ranking(tie_break, m) if a in active)


# --- Dodgson ------------------------------------------------------------------


def dodgson_cap(m: int, n: int) -> str | None:
    """Why exact Dodgson refuses m alternatives and n voters, or None.  No
    budget lifts this cap."""
    if m > MAX_DODGSON_M or n > MAX_DODGSON_N:
        return (f"exact Dodgson capped at m<={MAX_DODGSON_M}, n<={MAX_DODGSON_N} "
                f"(got m={m}, n={n})")
    return None


def dodgson_scores(profile: Profile) -> dict[int, int]:
    """Minimum adjacent swaps turning each alternative into the Condorcet winner.

    Only swaps that raise the target alternative x ever change x's pairwise
    contests, so the search reduces to choosing how far to raise x in each
    vote; a dynamic program over the remaining per-opponent deficits covers
    the choices exactly.
    """
    m, n = profile.m, profile.n
    cap = dodgson_cap(m, n)
    if cap is not None:
        raise BudgetExceeded(cap)
    margins = keyspace.key_margins(keyspace.profile_key(profile), m)
    scores: dict[int, int] = {}
    for x in range(m):
        # voters that must newly switch to x over y: margin + 2k >= 1
        need = {y: max(0, (2 - margins[x * m + y]) // 2)
                for y in range(m) if y != x}
        need = {y: k for y, k in need.items() if k > 0}
        if not need:
            scores[x] = 0
            continue
        targets = sorted(need)
        slot = {y: i for i, y in enumerate(targets)}
        frontier: dict[tuple[int, ...], int] = {tuple(need[y] for y in targets): 0}
        for vote in profile.votes:
            px = vote.position_of(x)
            # raising x by j passes the j alternatives directly above it;
            # only stop just after passing a deficit alternative
            options: list[tuple[int, tuple[int, ...]]] = [(0, ())]
            passed: list[int] = []
            for j in range(1, px + 1):
                passed.append(vote.ranking[px - j])
                if passed[-1] in need:
                    options.append((j, tuple(passed)))
            if len(options) == 1:
                continue
            new_frontier: dict[tuple[int, ...], int] = {}
            for state, cost in frontier.items():
                for jcost, covered in options:
                    cell = list(state)
                    for alt in covered:
                        i = slot.get(alt)
                        if i is not None and cell[i] > 0:
                            cell[i] -= 1
                    key = tuple(cell)
                    total = cost + jcost
                    if total < new_frontier.get(key, total + 1):
                        new_frontier[key] = total
            frontier = new_frontier
        done = tuple(0 for _ in targets)
        if done not in frontier:
            raise PrefRevError(f"no swap sequence makes {x} the Condorcet winner")
        scores[x] = frontier[done]
    return scores


def dodgson_winner(profile: Profile, tie_break: LinearOrder) -> int:
    scores = dodgson_scores(profile)
    return min(_ranking(tie_break, profile.m), key=scores.__getitem__)


# --- Schulze and Ranked Pairs ---------------------------------------------------


def schulze_margins(margins: Margins, m: int, tie_break: LinearOrder) -> int:
    """Widest-path (beatpath) strengths over the margin matrix."""
    p = list(margins)
    for ik, kj, ij in _closure_steps(m):
        w = p[ik] if p[ik] < p[kj] else p[kj]
        if w > p[ij]:
            p[ij] = w
    # at a * m + b: the path from a to b is at least as strong as back
    holds = list(map(ge, p, keyspace.transpose(m)(p)))
    return next(a for a in _ranking(tie_break, m) if all(holds[a * m:a * m + m]))


def ranked_pairs_margins(margins: Margins, m: int, tie_break: LinearOrder) -> int:
    """Lock majority pairs by descending margin, skipping cycles.

    Equal margins are ordered by tie-break priority of the pair's winner,
    then of its loser.
    """
    tpos = positions_of(_ranking(tie_break, m))
    pairs = sorted((-x, tpos[i // m], tpos[i % m], i // m, i % m)
                   for i, x in enumerate(margins) if x > 0)
    locked: list[set[int]] = [set() for _ in range(m)]

    def reaches(src: int, dst: int) -> bool:
        stack, seen = [src], {src}
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            for nxt in locked[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    for *_, a, b in pairs:
        if not reaches(b, a):
            locked[a].add(b)
    has_in = set().union(*locked)
    return min((a for a in range(m) if a not in has_in), key=tpos.__getitem__)


# --- explicit lookup tables -------------------------------------------------------


class RuleTable(Record):
    """A voting rule given extensionally, keyed by profile index or margins.

    ``chosen`` is a dense tuple over all (m!)^n profile indices in profile
    mode, or in c2 mode a mapping from integer margin keys
    (:mod:`prefrev.keyspace`) to winners.
    """

    __slots__ = ("n", "m", "mode", "chosen")

    def __init__(self, n: int, m: int, mode: str,
                 chosen: tuple[int, ...] | dict[int, int]) -> None:
        if mode not in ("profile", "c2"):
            raise PrefRevError(f"unknown table mode: {mode!r}")
        if mode == "profile" and len(chosen) != num_profiles(n, m):
            raise PrefRevError(f"profile table has {len(chosen)} entries, "
                               f"needs {num_profiles(n, m)}")
        super().__init__(n, m, mode, chosen)

    def __call__(self, profile: Profile) -> int:
        if self.mode == "c2":
            return self.on_key(keyspace.profile_key(profile), profile.n, profile.m)
        self._check_size(profile.n, profile.m)
        return self.chosen[profile_to_index(profile)]

    def on_key(self, key: int, n: int, m: int) -> int:
        """A c2 table's entry at margin key ``key`` of n voters over m
        alternatives."""
        if self.mode != "c2":
            raise PrefRevError("a profile table is not keyed by margins")
        self._check_size(n, m)
        try:
            return self.chosen[key]
        except KeyError:
            raise PrefRevError(f"no entry for margin key "
                               f"{keyspace.key_text(key, self.m)}") from None

    def _check_size(self, n: int, m: int) -> None:
        if n != self.n or m != self.m:
            raise PrefRevError(
                f"table is for n={self.n}, m={self.m}; "
                f"profile has n={n}, m={m}")

    @property
    def depends_on(self) -> str:
        """c2 lookups read only the margin key; profile lookups read the
        voter-indexed profile."""
        return "margins" if self.mode == "c2" else "order"

    def replace_entry(self, key: int, winner: int) -> "RuleTable":
        """A copy with one entry changed (used to plant violations in tests)."""
        if self.mode == "profile":
            chosen = self.chosen[:key] + (winner,) + self.chosen[key + 1:]
        else:
            chosen = {**self.chosen, key: winner}
        return RuleTable(self.n, self.m, self.mode, chosen)


def write_rule_table(table: RuleTable, sink: TextIO) -> None:
    """Profile entries in index order, c2 entries in key-text order."""
    labels = default_labels(table.m)
    sink.write(f"n={table.n} m={table.m} mode={table.mode}\n")
    if table.mode == "profile":
        sink.write(_profile_text(tuple(map(labels.__getitem__, table.chosen))))
        return
    sink.writelines(f"{key},{labels[alt]}\n" for key, alt in
                    sorted((keyspace.key_text(key, table.m), alt)
                           for key, alt in table.chosen.items()))


def _profile_text(labels: Sequence[str]) -> str:
    """The body of a profile table whose entries carry these labels: one
    ``<index>,<label>`` line per entry, in index order."""
    return ("%d,%s\n" * len(labels)) % tuple(chain.from_iterable(enumerate(labels)))


def _written_entries(body: str, n: int, m: int, ids: dict[str, int]
                     ) -> tuple[int, ...] | None:
    """The entries of a profile-table body that is exactly what
    :func:`write_rule_table` writes for a table of (n, m) (the final
    newline optional) with labels that ``ids`` knows; None otherwise."""
    labels = body.replace("\n", ",").split(",")[1::2]
    fact = math.factorial(m)
    # (m!)^n >= 2^(n * floor(log2 m!)): a header whose n alone makes that
    # exceed the labels costs no exact count
    if (n * (fact.bit_length() - 1) >= len(labels).bit_length()
            or fact ** n != len(labels)):
        return None
    chosen = tuple(map(ids.get, labels))
    if None in chosen or _profile_text(labels) != (
            body if body.endswith("\n") else body + "\n"):
        return None
    return chosen


def read_rule_table(source: TextIO) -> RuleTable:
    """What :func:`write_rule_table` writes (blank and ``#`` lines skipped);
    the error for a malformed line or a repeated key names the line.

    A profile table's body is read at once.  When it is exactly the text
    :func:`write_rule_table` writes (keys 0, 1, ... in order, one
    ``<index>,<label>`` line each, every label known, the final newline
    optional), which one comparison with that text decides, its labels map
    to entries in bulk.  Any other profile body, and any c2 body, is read
    line by line, so every accepted file and every error stays the same.
    """
    header = source.readline().strip()
    fields = dict(part.split("=", 1) for part in header.split() if "=" in part)
    try:
        n, m, mode = int(fields["n"]), int(fields["m"]), fields["mode"]
    except (KeyError, ValueError):
        n = m = 0
    if n < 1 or m < 1:
        raise PrefRevError(f"bad rule-table header: {header!r}")
    if mode not in ("profile", "c2"):
        raise PrefRevError(f"unknown table mode: {mode!r}")
    profile = mode == "profile"
    ids = {label: alt for alt, label in enumerate(default_labels(m))}
    rows: Iterable[str] = source
    if profile:
        body = source.read()
        chosen = _written_entries(body, n, m, ids)
        if chosen is not None:
            return RuleTable(n, m, mode, chosen)
        rows = body.split("\n")
    lines: dict[int, int] = {}  # the line of each key, in file order
    labels: list[str] = []
    for lineno, raw in enumerate(rows, start=2):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        text, comma, label = line.rpartition(",")
        try:
            if not comma or profile and not text.isdecimal():
                raise ValueError(f"expected '<key>,<label>', got {line!r}")
            key = int(text) if profile else keyspace.parse_key(text, m)
        except ValueError as exc:
            raise PrefRevError(f"rule-table line {lineno}: {exc}") from None
        if key in lines:
            raise PrefRevError(f"rule-table line {lineno}: key {text} repeats "
                               f"the key of line {lines[key]}")
        lines[key] = lineno
        labels.append(label)
    alts = list(map(ids.get, map(str.strip, labels)))
    if None in alts:
        bad = alts.index(None)
        raise PrefRevError(f"rule-table line {list(lines.values())[bad]}: unknown "
                           f"alternative label: {labels[bad].strip()!r}")
    entries = dict(zip(lines, alts))
    if not profile:
        return RuleTable(n, m, mode, entries)
    # (m!)^n >= 2^floor: keys of fewer bits are in range, and too few
    floor = n * (math.factorial(m).bit_length() - 1)
    if max(entries, default=0).bit_length() >= floor:
        total = num_profiles(n, m)
        if beyond := [ix for ix in entries if ix >= total]:
            raise PrefRevError(f"profile index {beyond[0]} out of range")
        if len(entries) == total:
            return RuleTable(n, m, mode, tuple(map(entries.__getitem__, range(total))))
    # the keys are distinct, so the first gap lies at most at len(entries)
    missing = next(ix for ix in range(len(entries) + 1) if ix not in entries)
    raise PrefRevError(f"no entry for profile index {missing}")


# --- registry -----------------------------------------------------------------


def _condorcet_margins(margins: Margins, m: int) -> int:
    winner = margins_condorcet_winner(margins, m)
    if winner is None:
        raise PrefRevError("the Condorcet rule is only defined on profiles "
                           "with a Condorcet winner")
    return winner


_condorcet_rule = MarginsRule(_condorcet_margins)


# resolute rules of the margin matrix alone, on its flat form
_MARGIN_IMPL: dict[str, Callable[..., int]] = {
    "borda": borda_margins,
    "black": black_margins,
    "maximin": maximin_margins,
    "kemeny": kemeny_margins,
    "baldwin": baldwin_margins,
    "nanson": nanson_margins,
    "schulze": schulze_margins,
    "ranked-pairs": ranked_pairs_margins,
}
# resolute rules of the votes cast, on profiles
_MULTISET_IMPL: dict[str, Callable[..., int]] = {
    "plurality": plurality_winner,
    "dodgson": dodgson_winner,
}

_SET_IMPL: dict[str, SetRule] = {
    "copeland-set": copeland_set,
    "uncovered-set": uncovered_set,
    "top-cycle": top_cycle,
}


def resolute_rule(name: str, m: int, tie_break: LinearOrder | None = None) -> Rule:
    """A resolute rule callable by registry name, declaring ``depends_on``
    "margins" (a :class:`MarginsRule`) or "multiset"."""
    tie_break = tie_break or LinearOrder(tuple(range(m)))
    if name == "condorcet":
        return _condorcet_rule
    if name in _MARGIN_IMPL:
        return MarginsRule(_MARGIN_IMPL[name], tie_break)
    try:
        impl = _MULTISET_IMPL[name]
    except KeyError:
        raise PrefRevError(f"unknown rule {name!r}; known: "
                           f"{', '.join(RESOLUTE_RULES)}") from None
    rule = partial(impl, tie_break=tie_break)
    rule.depends_on = "multiset"
    return rule


def set_rule(name: str) -> SetRule:
    try:
        return _SET_IMPL[name]
    except KeyError:
        raise PrefRevError(f"unknown set rule {name!r}; known: "
                           f"{', '.join(SET_RULES)}") from None
