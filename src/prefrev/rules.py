"""The voting-rule suite: scoring rules, Condorcet extensions, set-valued rules.

Every resolute rule takes a profile plus a :class:`TieBreak` and returns a
single alternative id; set-valued rules return frozensets.  All rules here
are pure functions of the profile, so they can back the paradox checkers
directly.  :class:`RuleTable` wraps an explicit lookup table (e.g. decoded
from a SAT model) behind the same callable interface.

Rule callables declare what their outcome depends on in a ``depends_on``
attribute: ``"margins"`` (only the margin matrix), ``"multiset"`` (the
votes cast, not which voter cast which) or ``"order"`` (the voter-indexed
profile, the default for any callable without the attribute).  The
exhaustive scans of :mod:`prefrev.monotonicity` read it.  A "margins" rule
also provides ``on_key(key, n, m)``, its outcome at an integer margin key
(:mod:`prefrev.keyspace`) of n voters over m alternatives; the scan kernel
evaluates it only there, and takes a "margins" rule without ``on_key`` for
a "multiset" one.  Registry rules of the margins are :class:`MarginsRule`
objects, and a c2 :class:`RuleTable` answers ``on_key`` from its entries.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations
from operator import ge
from typing import Callable, Iterable, TextIO

from .errors import (
    BudgetExceeded,
    DomainMismatch,
    MissingEntry,
    MTooLargeForExactKemeny,
    PrefRevError,
    UnknownLabel,
    UnknownRule,
)
from .prefs import (
    LinearOrder,
    Profile,
    Record,
    default_labels,
    enumerate_orders,
    iter_profiles,
    num_profiles,
    order_index,
    profile_to_index,
)
from .tally import Rows, margin_matrix, rows_condorcet_winner
from . import keyspace

Rule = Callable[[Profile], int]
SetRule = Callable[[Profile], frozenset[int]]

MAX_EXACT_KEMENY_M = 7
MAX_DODGSON_M = 6
MAX_DODGSON_N = 64


class ScoreVector(Record):
    """Points per rank position (0-based), weakly decreasing."""

    __slots__ = ("s",)

    def __init__(self, s: tuple[int, ...]) -> None:
        if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
            raise PrefRevError(f"score vector must be weakly decreasing: {s}")
        object.__setattr__(self, "s", s)

    @property
    def m(self) -> int:
        return len(self.s)


def borda_vector(m: int) -> ScoreVector:
    return ScoreVector(tuple(range(m - 1, -1, -1)))


def plurality_vector(m: int) -> ScoreVector:
    return ScoreVector((1,) + (0,) * (m - 1))


class TieBreak(Record):
    """A fixed priority order over alternatives that resolves every tie."""

    __slots__ = ("priority",)

    def __init__(self, priority: LinearOrder) -> None:
        object.__setattr__(self, "priority", priority)

    @classmethod
    def lexicographic(cls, m: int) -> "TieBreak":
        return cls(LinearOrder(tuple(range(m))))

    def best(self, alts: Iterable[int]) -> int:
        return self.priority.best_of(alts)

    def worst(self, alts: Iterable[int]) -> int:
        return self.priority.worst_of(alts)


def _argmax_set(scores: list[int]) -> list[int]:
    top = max(scores)
    return [a for a, v in enumerate(scores) if v == top]


# --- scoring rules ----------------------------------------------------------


def scoring_winner(profile: Profile, score_vector: ScoreVector,
                   tie_break: TieBreak) -> int:
    if score_vector.m != profile.m:
        raise DomainMismatch(f"score vector length {score_vector.m} != m={profile.m}")
    totals = [0] * profile.m
    for vote in profile.votes:
        for pos, alt in enumerate(vote.ranking):
            totals[alt] += score_vector.s[pos]
    return tie_break.best(_argmax_set(totals))


def plurality_winner(profile: Profile, tie_break: TieBreak) -> int:
    return scoring_winner(profile, plurality_vector(profile.m), tie_break)


# --- rules of the margins alone -----------------------------------------------
# Fishburn's C2 class ("Condorcet social choice functions", SIAM J. Appl.
# Math. 1977).  Each rule is written once on margin rows, ``rows[a][b]`` the
# margin of a over b as a tuple of tuples; its Profile form counts the
# margins and calls it, and :class:`MarginsRule` also evaluates it on an
# integer margin key.  Restricted to a set A of alternatives, a's Borda score
# is (n (|A| - 1) + the sum of rows[a][b] over b in A) / 2, so Borda and the
# Borda eliminations rank by row sums over A.


class MarginsRule:
    """A rule of the margin matrix alone: ``impl(rows, *args)`` on margin
    rows.  Called on a profile it counts the margins first; :meth:`on_key`
    evaluates it on an integer margin key (:mod:`prefrev.keyspace`), which
    is how the scan kernel calls it."""

    depends_on = "margins"
    __slots__ = ("impl", "args")

    def __init__(self, impl: Callable, *args):
        self.impl, self.args = impl, args

    def __call__(self, profile: Profile):
        return self.impl(margin_matrix(profile).rows, *self.args)

    def on_key(self, key: int, n: int, m: int):
        """The outcome at margin key ``key`` of n voters over m
        alternatives (the rows do not depend on n)."""
        return self.impl(keyspace.key_rows(key, m), *self.args)


def borda_rows(rows: Rows, tie_break: TieBreak) -> int:
    return tie_break.best(_argmax_set(list(map(sum, rows))))


def borda_winner(profile: Profile, tie_break: TieBreak) -> int:
    return borda_rows(margin_matrix(profile).rows, tie_break)


def black_rows(rows: Rows, tie_break: TieBreak) -> int:
    """Condorcet winner if one exists, Borda winner otherwise."""
    winner = rows_condorcet_winner(rows)
    return borda_rows(rows, tie_break) if winner is None else winner


def black_winner(profile: Profile, tie_break: TieBreak) -> int:
    return black_rows(margin_matrix(profile).rows, tie_break)


def maximin_row_scores(rows: Rows) -> list[int]:
    """Each alternative's worst margin against another."""
    return [min(row[:a] + row[a + 1:], default=0) for a, row in enumerate(rows)]


def maximin_scores(profile: Profile) -> list[int]:
    return maximin_row_scores(margin_matrix(profile).rows)


def maximin_rows(rows: Rows, tie_break: TieBreak) -> int:
    return tie_break.best(_argmax_set(maximin_row_scores(rows)))


def maximin_winner(profile: Profile, tie_break: TieBreak) -> int:
    return maximin_rows(margin_matrix(profile).rows, tie_break)


# --- set-valued rules over the strict majority relation ---------------------


def copeland_rows(rows: Rows) -> frozenset[int]:
    """Alternatives maximising (majority wins - majority losses); ties count
    for neither side."""
    return frozenset(_argmax_set([sum((x > 0) - (x < 0) for x in row) for row in rows]))


def uncovered_rows(rows: Rows) -> frozenset[int]:
    """Alternatives not covered by any other.

    b covers a iff b beats a and b beats everything a beats (Gillies
    covering; on tournaments this is the standard uncovered set).
    """
    m = len(rows)

    def covers(b: int, a: int) -> bool:
        row_b, row_a = rows[b], rows[a]
        if row_b[a] <= 0:
            return False
        return all(row_b[c] > 0 for c in range(m) if c not in (a, b) and row_a[c] > 0)

    return frozenset(a for a in range(m)
                     if not any(covers(b, a) for b in range(m) if b != a))


def top_cycle_rows(rows: Rows) -> frozenset[int]:
    """The smallest set whose members strictly beat every non-member.

    Computed as the top strongly connected component of the ties-or-beats
    relation, which is complete, so the component ordering is linear.
    """
    m = len(rows)
    reach = [[x >= 0 or a == b for b, x in enumerate(row)] for a, row in enumerate(rows)]
    for k in range(m):
        for i in range(m):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(m):
                    if row_k[j]:
                        row_i[j] = True
    return frozenset(a for a in range(m) if all(reach[a]))


copeland_set = MarginsRule(copeland_rows)
uncovered_set = MarginsRule(uncovered_rows)
top_cycle = MarginsRule(top_cycle_rows)


# --- Kemeny -----------------------------------------------------------------


def _check_exact_kemeny(m: int) -> None:
    if m > MAX_EXACT_KEMENY_M:
        raise MTooLargeForExactKemeny(
            f"exact Kemeny enumerates m! rankings; m={m} > {MAX_EXACT_KEMENY_M}")


@lru_cache(maxsize=None)
def _agreement_cells(m: int) -> tuple[tuple[LinearOrder, tuple[int, ...]], ...]:
    """Per ranking, in canonical enumeration order: the ranking and the
    row-major cells a * m + b of its pairs a above b."""
    return tuple((order, tuple(a * m + b for a, b in combinations(order.ranking, 2)))
                 for order in enumerate_orders(m))


def kemeny_row_rankings(rows: Rows) -> tuple[LinearOrder, ...]:
    """All rankings maximising total pairwise agreement, by exhaustive scan.

    Returned in canonical enumeration order; always nonempty.
    """
    _check_exact_kemeny(len(rows))
    flat = sum(rows, ())
    best_score: int | None = None
    best: list[LinearOrder] = []
    for order, cells in _agreement_cells(len(rows)):
        score = sum(map(flat.__getitem__, cells))
        if best_score is None or score > best_score:
            best_score, best = score, [order]
        elif score == best_score:
            best.append(order)
    return tuple(best)


def kemeny_rankings(profile: Profile) -> tuple[LinearOrder, ...]:
    _check_exact_kemeny(profile.m)  # before counting margins over m! orders
    return kemeny_row_rankings(margin_matrix(profile).rows)


def kemeny_rows(rows: Rows, tie_break: TieBreak) -> int:
    pos = tie_break.priority.positions()
    chosen = min(kemeny_row_rankings(rows),
                 key=lambda r: tuple(pos[a] for a in r.ranking))
    return chosen.top


def kemeny_winner(profile: Profile, tie_break: TieBreak) -> int:
    return kemeny_rows(margin_matrix(profile).rows, tie_break)


# --- elimination rules --------------------------------------------------------


def baldwin_rows(rows: Rows, tie_break: TieBreak) -> int:
    """Repeatedly eliminate the single lowest-Borda alternative.

    Elimination ties are settled by removing the tie-break-lowest
    alternative among those tied.
    """
    active = list(range(len(rows)))
    while len(active) > 1:
        scores = [sum(map(rows[a].__getitem__, active)) for a in active]
        low = min(scores)
        active.remove(tie_break.worst(
            [a for a, score in zip(active, scores) if score == low]))
    return active[0]


def baldwin_winner(profile: Profile, tie_break: TieBreak) -> int:
    return baldwin_rows(margin_matrix(profile).rows, tie_break)


def nanson_rows(rows: Rows, tie_break: TieBreak) -> int:
    """Repeatedly eliminate everything strictly below the average Borda
    score.  Over the active set the row sums add up to zero, so that is
    everything with a negative row sum there."""
    active = list(range(len(rows)))
    while len(active) > 1:
        kept = [a for a in active if sum(map(rows[a].__getitem__, active)) >= 0]
        if len(kept) == len(active):
            break
        active = kept
    return tie_break.best(active)


def nanson_winner(profile: Profile, tie_break: TieBreak) -> int:
    return nanson_rows(margin_matrix(profile).rows, tie_break)


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
    margins = margin_matrix(profile)
    scores: dict[int, int] = {}
    for x in range(m):
        # voters that must newly switch to x over y: margin + 2k >= 1
        need = {y: max(0, (2 - margins.rows[x][y]) // 2)
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


def dodgson_winner(profile: Profile, tie_break: TieBreak) -> int:
    scores = dodgson_scores(profile)
    low = min(scores.values())
    return tie_break.best([a for a, s in scores.items() if s == low])


# --- Schulze and Ranked Pairs ---------------------------------------------------


def schulze_rows(rows: Rows, tie_break: TieBreak) -> int:
    """Widest-path (beatpath) strengths over the margin matrix."""
    m = len(rows)
    p = [list(row) for row in rows]
    for k in range(m):
        p_k = p[k]
        for i in range(m):
            if i == k:
                continue
            p_i = p[i]
            pik = p_i[k]
            for j in range(m):
                if j != i and j != k:
                    w = pik if pik < p_k[j] else p_k[j]
                    if w > p_i[j]:
                        p_i[j] = w
    columns = list(zip(*p))  # a's column: the strengths of paths into a
    return tie_break.best([a for a in range(m) if all(map(ge, p[a], columns[a]))])


def schulze_winner(profile: Profile, tie_break: TieBreak) -> int:
    return schulze_rows(margin_matrix(profile).rows, tie_break)


def ranked_pairs_rows(rows: Rows, tie_break: TieBreak) -> int:
    """Lock majority pairs by descending margin, skipping cycles.

    Equal margins are ordered by tie-break priority of the pair's winner,
    then of its loser.
    """
    m = len(rows)
    tpos = tie_break.priority.positions()
    pairs = sorted((-x, tpos[a], tpos[b], a, b)
                   for a, row in enumerate(rows) for b, x in enumerate(row) if x > 0)
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
    has_in = set()
    for a in range(m):
        has_in |= locked[a]
    return tie_break.best([a for a in range(m) if a not in has_in])


def ranked_pairs_winner(profile: Profile, tie_break: TieBreak) -> int:
    return ranked_pairs_rows(margin_matrix(profile).rows, tie_break)


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
            raise MissingEntry(f"profile table has {len(chosen)} entries, "
                               f"needs {num_profiles(n, m)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "chosen", chosen)

    def lookup(self, profile: Profile) -> int:
        if self.mode == "c2":
            key = keyspace.digits_key(profile.m, map(order_index, profile.votes))
            return self.on_key(key, profile.n, profile.m)
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
            raise MissingEntry(f"no entry for margin key "
                               f"{keyspace.key_text(key, self.m)}") from None

    def _check_size(self, n: int, m: int) -> None:
        if n != self.n or m != self.m:
            raise DomainMismatch(
                f"table is for n={self.n}, m={self.m}; "
                f"profile has n={n}, m={m}")

    __call__ = lookup

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


def tabulate_rule(rule: Rule, n: int, m: int) -> RuleTable:
    """Materialise any resolute rule as a profile-mode table."""
    return RuleTable(n, m, "profile",
                     tuple(rule(p) for p in iter_profiles(n, m)))


def write_rule_table(table: RuleTable, sink: TextIO) -> None:
    """Profile entries in index order, c2 entries in key-text order."""
    labels = default_labels(table.m)
    sink.write(f"n={table.n} m={table.m} mode={table.mode}\n")
    entries = (enumerate(table.chosen) if table.mode == "profile" else
               sorted((keyspace.key_text(key, table.m), alt)
                      for key, alt in table.chosen.items()))
    sink.writelines(f"{key},{labels[alt]}\n" for key, alt in entries)


def read_rule_table(source: TextIO) -> RuleTable:
    """What :func:`write_rule_table` writes (blank and ``#`` lines skipped);
    the error for a malformed line or a repeated key names the line."""
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
    lines: dict[int, int] = {}  # the line of each key, in file order
    labels: list[str] = []
    for lineno, raw in enumerate(source, start=2):
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
    ids = {label: alt for alt, label in enumerate(default_labels(m))}
    alts = list(map(ids.get, map(str.strip, labels)))
    if None in alts:
        bad = alts.index(None)
        raise UnknownLabel(labels[bad].strip(),
                           f"rule-table line {list(lines.values())[bad]}")
    entries = dict(zip(lines, alts))
    if not profile:
        return RuleTable(n, m, mode, entries)
    total = num_profiles(n, m)
    if beyond := [ix for ix in entries if ix >= total]:
        raise MissingEntry(f"profile index {beyond[0]} out of range")
    if len(entries) < total:
        # the keys are distinct, so the first gap lies at most at len(entries)
        missing = next(ix for ix in range(len(entries) + 1) if ix not in entries)
        raise MissingEntry(f"no entry for profile index {missing}")
    return RuleTable(n, m, mode, tuple(map(entries.__getitem__, range(total))))


# --- registry -----------------------------------------------------------------


def _condorcet_rows(rows: Rows) -> int:
    winner = rows_condorcet_winner(rows)
    if winner is None:
        raise DomainMismatch("the Condorcet rule is only defined on profiles "
                             "with a Condorcet winner")
    return winner


_condorcet_rule = MarginsRule(_condorcet_rows)


RESOLUTE_RULES = ("plurality", "borda", "black", "maximin", "kemeny",
                  "baldwin", "nanson", "dodgson", "schulze", "ranked-pairs",
                  "condorcet")
SET_RULES = ("copeland-set", "uncovered-set", "top-cycle")

# resolute rules of the margin matrix alone, on margin rows
_MARGIN_IMPL: dict[str, Callable[..., int]] = {
    "borda": borda_rows,
    "black": black_rows,
    "maximin": maximin_rows,
    "kemeny": kemeny_rows,
    "baldwin": baldwin_rows,
    "nanson": nanson_rows,
    "schulze": schulze_rows,
    "ranked-pairs": ranked_pairs_rows,
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


def resolute_rule(name: str, m: int, tie_break: TieBreak | None = None) -> Rule:
    """A resolute rule callable by registry name, declaring ``depends_on``
    "margins" (a :class:`MarginsRule`) or "multiset"."""
    tie_break = tie_break or TieBreak.lexicographic(m)
    if name == "condorcet":
        return _condorcet_rule
    if name in _MARGIN_IMPL:
        return MarginsRule(_MARGIN_IMPL[name], tie_break)
    try:
        impl = _MULTISET_IMPL[name]
    except KeyError:
        raise UnknownRule(f"unknown rule {name!r}; known: "
                          f"{', '.join(RESOLUTE_RULES)}") from None
    rule = partial(impl, tie_break=tie_break)
    rule.depends_on = "multiset"
    return rule


def set_rule(name: str) -> SetRule:
    try:
        return _SET_IMPL[name]
    except KeyError:
        raise UnknownRule(f"unknown set rule {name!r}; known: "
                          f"{', '.join(SET_RULES)}") from None
