"""The flat margin form against the rows-based code it replaced.

Every rule of the margins reads a key's flat form
(:func:`prefrev.keyspace.key_margins`).  The reference below is the
earlier implementation on margin rows, kept verbatim (its helpers come
from the package): :func:`key_rows` built a tuple of row tuples from a key,
every rule of the margins was written on those rows, and
:func:`rows_condorcet_winner` was the Condorcet test.  Each key's outcome,
set or error must be the same under both, for every registry rule of the
margins, the three set rules, the Condorcet rule and the Condorcet test,
and ``key_text``/``parse_key`` must round-trip the reference rows.
"""

import random
import struct
from functools import lru_cache
from itertools import combinations
from operator import ge
from typing import Sequence

import pytest

from prefrev import keyspace, rules, tally
from prefrev.errors import MTooLargeForExactKemeny, PrefRevError
from prefrev.keyspace import _entries, empty_key
from prefrev.prefs import SET_RULES, LinearOrder, Profile, enumerate_orders
from prefrev.rules import MAX_EXACT_KEMENY_M

Rows = Sequence[Sequence[int]]


# --- reference: the rows-based code, verbatim ----------------------------------


@lru_cache(maxsize=None)
def _unpacking(m: int) -> tuple[struct.Struct, int, tuple[tuple[int, int], ...]]:
    """How :func:`key_rows` reads a key of m alternatives: the signed
    32-bit big-endian entries of ``key ^ empty_key(m)`` (flipping each
    entry's top bit removes its offset), that text's length in bytes, and
    each entry's two cells of the flat row-major matrix."""
    entries = _entries(m)
    return (struct.Struct(f">{len(entries)}i"), 4 * len(entries),
            tuple((a * m + b, b * m + a) for a, b, _ in entries))


def key_rows(key: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The full margin matrix of a key."""
    unpacker, size, cells = _unpacking(m)
    margins = unpacker.unpack((key ^ empty_key(m)).to_bytes(size, "big"))
    flat = [0] * (m * m)
    for (ab, ba), margin in zip(cells, margins):
        flat[ab] = margin
        flat[ba] = -margin
    return tuple(zip(*[iter(flat)] * m))


def rows_condorcet_winner(rows: Rows) -> int | None:
    """The alternative with a positive margin over every other, if any."""
    m = len(rows)
    for a in range(m):
        if all(rows[a][b] > 0 for b in range(m) if b != a):
            return a
    return None


def _argmax_set(scores: list[int]) -> list[int]:
    top = max(scores)
    return [a for a, v in enumerate(scores) if v == top]


def borda_rows(rows: Rows, tie_break: LinearOrder) -> int:
    return tie_break.best_of(_argmax_set(list(map(sum, rows))))


def black_rows(rows: Rows, tie_break: LinearOrder) -> int:
    """Condorcet winner if one exists, Borda winner otherwise."""
    winner = rows_condorcet_winner(rows)
    return borda_rows(rows, tie_break) if winner is None else winner


def maximin_row_scores(rows: Rows) -> list[int]:
    """Each alternative's worst margin against another."""
    return [min(row[:a] + row[a + 1:], default=0) for a, row in enumerate(rows)]


def maximin_rows(rows: Rows, tie_break: LinearOrder) -> int:
    return tie_break.best_of(_argmax_set(maximin_row_scores(rows)))


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


def kemeny_rows(rows: Rows, tie_break: LinearOrder) -> int:
    pos = tie_break.positions()
    chosen = min(kemeny_row_rankings(rows),
                 key=lambda r: tuple(pos[a] for a in r.ranking))
    return chosen.top


def baldwin_rows(rows: Rows, tie_break: LinearOrder) -> int:
    """Repeatedly eliminate the single lowest-Borda alternative.

    Elimination ties are settled by removing the tie-break-lowest
    alternative among those tied.
    """
    active = list(range(len(rows)))
    while len(active) > 1:
        scores = [sum(map(rows[a].__getitem__, active)) for a in active]
        low = min(scores)
        active.remove(tie_break.worst_of(
            [a for a, score in zip(active, scores) if score == low]))
    return active[0]


def nanson_rows(rows: Rows, tie_break: LinearOrder) -> int:
    """Repeatedly eliminate everything strictly below the average Borda
    score.  Over the active set the row sums add up to zero, so that is
    everything with a negative row sum there."""
    active = list(range(len(rows)))
    while len(active) > 1:
        kept = [a for a in active if sum(map(rows[a].__getitem__, active)) >= 0]
        if len(kept) == len(active):
            break
        active = kept
    return tie_break.best_of(active)


def schulze_rows(rows: Rows, tie_break: LinearOrder) -> int:
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
    return tie_break.best_of([a for a in range(m) if all(map(ge, p[a], columns[a]))])


def ranked_pairs_rows(rows: Rows, tie_break: LinearOrder) -> int:
    """Lock majority pairs by descending margin, skipping cycles.

    Equal margins are ordered by tie-break priority of the pair's winner,
    then of its loser.
    """
    m = len(rows)
    tpos = tie_break.positions()
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
    return tie_break.best_of([a for a in range(m) if a not in has_in])


def _condorcet_rows(rows: Rows) -> int:
    winner = rows_condorcet_winner(rows)
    if winner is None:
        raise PrefRevError("the Condorcet rule is only defined on profiles "
                           "with a Condorcet winner")
    return winner



REFERENCE_RESOLUTE = {
    "borda": borda_rows,
    "black": black_rows,
    "maximin": maximin_rows,
    "kemeny": kemeny_rows,
    "baldwin": baldwin_rows,
    "nanson": nanson_rows,
    "schulze": schulze_rows,
    "ranked-pairs": ranked_pairs_rows,
}
REFERENCE_SET = {
    "copeland-set": copeland_rows,
    "uncovered-set": uncovered_rows,
    "top-cycle": top_cycle_rows,
}


# --- the comparison --------------------------------------------------------------


EXHAUSTIVE = ((3, 7), (4, 4))


def keys_of(m: int, n: int) -> list[int]:
    """Every key of n voters over m alternatives for the small spaces, else
    2,000 keys of seeded random profiles."""
    if (m, n) in EXHAUSTIVE:
        return sorted(keyspace.margin_levels(n, m)[1])
    rng = random.Random(f"margin-form:{m}:{n}")
    count = len(keyspace.vote_keys(m))
    return [keyspace.digits_key(m, [rng.randrange(count) for _ in range(n)])
            for _ in range(2000)]


def outcome(call, *args):
    try:
        return call(*args)
    except PrefRevError as exc:
        return ("error", str(exc))


def test_the_reference_covers_every_rule_of_the_margins():
    assert set(REFERENCE_RESOLUTE) == set(rules._MARGIN_IMPL)
    assert set(REFERENCE_SET) == set(SET_RULES)


@pytest.mark.parametrize("m,n", [*EXHAUSTIVE, (4, 6), (5, 4), (6, 3)])
def test_flat_form_matches_the_rows_reference(m, n):
    """Each key of the small spaces under all three tie-breaks; the sampled
    keys take the tie-breaks in turn, which keeps Kemeny at m=6 cheap."""
    rng = random.Random(f"tie-breaks:{m}:{n}")
    resolute = [[(name, tie_break, rules.resolute_rule(name, m, tie_break), impl)
                 for name, impl in REFERENCE_RESOLUTE.items()]
                for tie_break in (LinearOrder(tuple(rng.sample(range(m), m)))
                                  for _ in range(3))]
    sets = [(name, rules.set_rule(name), impl) for name, impl in REFERENCE_SET.items()]
    condorcet = rules.resolute_rule("condorcet", m)
    errors = 0
    for i, key in enumerate(keys_of(m, n)):
        rows = key_rows(key, m)
        text = "_".join(str(x) for row in rows for x in row)
        assert keyspace.key_rows(key, m) == rows
        assert keyspace.key_text(key, m) == text
        assert keyspace.parse_key(text, m) == key
        winner = rows_condorcet_winner(rows)
        assert tally.key_condorcet_winner(key, m) == winner
        expected = outcome(_condorcet_rows, rows)
        assert outcome(condorcet.on_key, key, n, m) == expected, text
        errors += winner is None
        for name, rule, impl in sets:
            assert rule.on_key(key, n, m) == impl(rows), (name, text)
        for cases in resolute if (m, n) in EXHAUSTIVE else [resolute[i % 3]]:
            for name, tie_break, rule, impl in cases:
                assert rule.on_key(key, n, m) == impl(rows, tie_break), (
                    name, tie_break.ranking, text)
    assert errors  # some key has no Condorcet winner


def test_a_tie_break_over_more_alternatives():
    # a rule built for more alternatives than the key's: its tie-break
    # orders the alternatives it shares with the key
    m, n = 3, 5
    rng = random.Random("wide-tie-break")
    tie_break = LinearOrder(tuple(rng.sample(range(m + 2), m + 2)))
    for key in keyspace.margin_levels(n, m)[1]:
        rows = key_rows(key, m)
        for name, impl in REFERENCE_RESOLUTE.items():
            rule = rules.resolute_rule(name, m + 2, tie_break)
            assert rule.on_key(key, n, m) == impl(rows, tie_break), name


def test_a_tie_break_over_fewer_alternatives_is_refused():
    # the rows-based code raised IndexError only when an unranked
    # alternative was among the top scorers; every resolute rule reads its
    # tie-break through rules._ranking, which refuses it
    tie_break = LinearOrder((1, 0))
    digits = (0, 5)  # a vote and its reverse: all tied
    key = keyspace.digits_key(3, digits)
    profile = Profile(tuple(enumerate_orders(3)[d] for d in digits))
    for name in REFERENCE_RESOLUTE:
        with pytest.raises(PrefRevError, match="tie-break ranks 2 alternatives, m=3"):
            rules.resolute_rule(name, 3, tie_break).on_key(key, 2, 3)
    for name in ("plurality", "dodgson"):
        with pytest.raises(PrefRevError, match="tie-break ranks 2 alternatives, m=3"):
            rules.resolute_rule(name, 3, tie_break)(profile)
