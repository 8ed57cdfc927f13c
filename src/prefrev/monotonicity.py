"""Checkers and witness searchers for the reversal and no-show paradoxes.

Every paradox here is one event: a voter compares the outcome of the
truthful profile with the outcome after one deviation of their own.  All
six checkers run a single scan kernel over *units*, each naming an n-voter
truthful profile (by canonical index), a voter and a deviation, in
ascending unit order, so the first witness returned is deterministic.  A
``None`` result from an exhaustive scan is a certificate that the property
holds on the whole domain; sampled scans visit seeded random blocks of
consecutive units and only report on those.

Unit layouts and sampled block spans, with ``index`` the truthful n-voter
profile:

- reversal (half-way monotonicity, strong reversal, and the optimistic and
  pessimistic set-valued variants): unit ``index * n + voter``, the voter
  submits the reverse of their vote; a block is one profile, n units.
- manipulation: unit ``(index * n + voter) * m! + order``, the voter
  reports the order with that canonical index; a block is one
  (profile, voter) pair, m! units.
- participation: unit ``index``, the last voter abstains.  The same number
  reads as ``index_{n-1} * m! + joiner``, the (n-1)-voter profile the
  joiner joins at the end; a block is one (n-1)-voter profile, m! units.

The kernel walks truthful profiles in ascending index and, inside each
one, its voters (and a misreporting voter's orders), clipped to the
region.  The deviated profile's index and margin key come from arithmetic
on the truthful one's: a voter of order o deviating to o' adds
(o' - o) * (m!)^(n-1-voter) to the index and cmp[o'] - cmp[o] to the key.
A truthful profile outside the Condorcet domain (a test on its margin key)
is tested once and all its units are skipped, and comparisons read each
order's precomputed position row.

What a rule declares (``depends_on``, see :mod:`prefrev.rules`) fixes
once how its outcomes are read, the same on every path:

- a profile-mode table of the scan's own (n, m): by profile index, from
  its entries (recognised by ``mode``, ``chosen``, ``n`` and ``m``, so a
  wrapper that forwards them qualifies), with no memo and no profile built;
- a "margins" rule (one with an ``on_key`` entry point): memoised by
  margin key and evaluated on the key, with no profile built and no
  margins recounted;
- a "multiset" rule: memoised by sorted digit tuple and evaluated on the
  sorted profile;
- an "order" rule: memoised by profile index and evaluated on the profile.

A sampled scan keeps the key memo across its blocks, so the rule runs once
per margin key visited, and memory is bounded by the distinct keys visited
(at most ``sample * (span + 1)``, span the block's units); it clears the
other memos after each block.  Participation stores no n-voter outcome of
an "order" rule: it meets each such profile once.  An empty outcome set
names the profile met, or the margin key in the margin pass.

The paths (one odometer walks the truthful profiles of the first two):

- the ordered path meets every profile with a unit in the region.
  Sampled scans and scans over a rule that depends on voter order take it.
- the quotient path serves exhaustive scans when every rule the scan calls
  declares "multiset" or "margins".  It keeps the digits sorted (a carry
  resets the digits after the one that moved to that digit, not to 0;
  participation's joiner, the last digit, runs free), starts at the first
  sorted profile with a unit in the region, and on each profile tries only
  the first voter of each distinct order.  The rule runs once per multiset
  of votes (once per margin key for a "margins" rule).
- the margin pass serves exhaustive scans when every rule the scan calls
  declares "margins".  Its unit is (K, o): K a margin key realizable by
  n-1 voters, o the deviating voter's order.  The truthful key is
  K + cmp[o]; reversal goes to K - cmp[o], a misreport o' to K + cmp[o'],
  abstention to K itself at n-1 voters.  An order o is a witness order of
  an n-voter key M (some realization of M has a voter of order o) exactly
  when M - cmp[o] is realizable by n-1 voters (:mod:`prefrev.keyspace`,
  after McGarvey 1953 and Debord 1987).  So every unit of the other paths
  is a unit (K, o), with K the margins of the other n-1 voters, and every
  (K, o) is a unit of theirs: a realization of K joined by a voter of
  order o.  A rule of the margins alone thus violates on some unit of the
  margin pass exactly when it does on some unit of the other paths.  Each
  rule runs once per key, on the key, and never on a key that the
  Condorcet-domain filter (a Condorcet winner of the key) rejects.  The
  pass only certifies: if it meets a violation, or the rule raises, it
  hands over to the quotient path, which shares its key memo and returns
  the first witness, or the error, as before.

Budgets count units of the path taken.  The margin pass runs when its
keys(n-1) * m! units (keys(n-1) * m!^2 for manipulation) fit in the
budget; otherwise, and after a hand-over, the scan covers the units
[0, min(total, budget)) of the ordered numbering.

The quotient path returns the same first witness as the ordered path.  If
the rule ignores voter order, the votes of a witness P, sorted, with the
deviating voter moved to the first position of their order, form a
witness too (for participation: the (n-1)-voter profile sorted, the same
joiner), and its unit is no larger.  So the first witness already lies on
a unit of the quotient path, and the argument holds inside any budget
region [0, budget) as well, so budget verdicts and counts do not change.

Every witness is revalidated before it is returned: the rule is called
again on both the truthful and the deviated profile and the comparison is
re-applied.

Rules are plain callables from :class:`~prefrev.prefs.Profile` to an
alternative id (or to a frozenset for the set-valued checkers), so tables,
registry rules, and test fixtures all plug in unchanged; a callable without
a ``depends_on`` attribute is taken to depend on voter order, and one that
declares "margins" without an ``on_key`` entry point to depend on the
multiset of votes.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import Mapping

from .errors import (
    BudgetExceeded,
    EmptyOutcomeSet,
    MissingSize,
    NotAViolation,
)
from .prefs import (
    Alternatives,
    LinearOrder,
    Profile,
    Record,
    digits_to_index,
    enumerate_orders,
    format_order,
    format_profile,
    index_to_profile,
    num_profiles,
    profile_digits,
    reverse_index_table,
)
from .rules import Rule, SetRule
from .tally import CondorcetWinners
from . import keyspace

# either one rule valid at every electorate size, or a mapping size -> rule
RuleFamily = Rule | Mapping[int, Rule]

DEFAULT_BUDGET = 10_000_000


class ReversalWitness(Record):
    """A voter who strictly gains by submitting their reversed ranking."""

    __slots__ = ("profile", "voter", "winner_before", "winner_after")

    def __init__(self, profile: Profile, voter: int, winner_before: int,
                 winner_after: int) -> None:
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "voter", voter)
        object.__setattr__(self, "winner_before", winner_before)
        object.__setattr__(self, "winner_after", winner_after)

    @property
    def truthful_order(self) -> LinearOrder:
        return self.profile.votes[self.voter]

    def is_violation(self) -> bool:
        return self.truthful_order.prefers(self.winner_after, self.winner_before)

    def is_strong(self) -> bool:
        return (self.winner_after == self.truthful_order.top
                and self.winner_after != self.winner_before)

    def _event(self):
        return (self.truthful_order, self.profile, self.winner_before,
                self.profile.reverse_vote(self.voter), self.winner_after)

    def describe(self, alternatives: Alternatives) -> dict:
        return {
            "profile": format_profile(self.profile, alternatives),
            "voter": self.voter,
            "winner_before": alternatives.label_of(self.winner_before),
            "winner_after": alternatives.label_of(self.winner_after),
        }


class SetReversalWitness(Record):
    """Set-valued analogue: the compared representative strictly improves.
    ``mode`` is "optimistic" or "pessimistic"."""

    __slots__ = ("profile", "voter", "set_before", "set_after", "mode")

    def __init__(self, profile: Profile, voter: int, set_before: frozenset[int],
                 set_after: frozenset[int], mode: str) -> None:
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "voter", voter)
        object.__setattr__(self, "set_before", set_before)
        object.__setattr__(self, "set_after", set_after)
        object.__setattr__(self, "mode", mode)

    def _event(self):
        return (self.profile.votes[self.voter], self.profile, self.set_before,
                self.profile.reverse_vote(self.voter), self.set_after)

    def describe(self, alternatives: Alternatives) -> dict:
        return {
            "profile": format_profile(self.profile, alternatives),
            "voter": self.voter,
            "set_before": alternatives.label_set(self.set_before),
            "set_after": alternatives.label_set(self.set_after),
            "mode": self.mode,
        }


class ParticipationWitness(Record):
    """A voter who would have done strictly better by abstaining.

    ``position`` records where the joiner sits in the joined profile;
    profiles here are voter-indexed sequences, so the join point is part
    of the event (anonymous rules ignore it, lookup tables may not).
    """

    __slots__ = ("profile_without", "joiner_order", "winner_without",
                 "winner_with", "position")

    def __init__(self, profile_without: Profile, joiner_order: LinearOrder,
                 winner_without: int, winner_with: int, position: int) -> None:
        object.__setattr__(self, "profile_without", profile_without)
        object.__setattr__(self, "joiner_order", joiner_order)
        object.__setattr__(self, "winner_without", winner_without)
        object.__setattr__(self, "winner_with", winner_with)
        object.__setattr__(self, "position", position)

    def joined_profile(self) -> Profile:
        return self.profile_without.insert_voter(self.position, self.joiner_order)

    def is_violation(self) -> bool:
        return self.joiner_order.prefers(self.winner_without, self.winner_with)

    def _event(self):
        return (self.joiner_order, self.joined_profile(), self.winner_with,
                self.profile_without, self.winner_without)

    def describe(self, alternatives: Alternatives) -> dict:
        return {
            "profile_without": format_profile(self.profile_without, alternatives),
            "joiner_order": format_order(self.joiner_order, alternatives),
            "position": self.position,
            "winner_without": alternatives.label_of(self.winner_without),
            "winner_with": alternatives.label_of(self.winner_with),
        }


class ManipulationWitness(Record):
    """A voter whose misreport strictly beats their truthful vote."""

    __slots__ = ("profile", "voter", "misreport", "winner_truthful",
                 "winner_misreport")

    def __init__(self, profile: Profile, voter: int, misreport: LinearOrder,
                 winner_truthful: int, winner_misreport: int) -> None:
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "voter", voter)
        object.__setattr__(self, "misreport", misreport)
        object.__setattr__(self, "winner_truthful", winner_truthful)
        object.__setattr__(self, "winner_misreport", winner_misreport)

    def is_violation(self) -> bool:
        truthful = self.profile.votes[self.voter]
        return truthful.prefers(self.winner_misreport, self.winner_truthful)

    def _event(self):
        return (self.profile.votes[self.voter], self.profile, self.winner_truthful,
                self.profile.replace_vote(self.voter, self.misreport),
                self.winner_misreport)

    def describe(self, alternatives: Alternatives) -> dict:
        return {
            "profile": format_profile(self.profile, alternatives),
            "voter": self.voter,
            "misreport": format_order(self.misreport, alternatives),
            "winner_truthful": alternatives.label_of(self.winner_truthful),
            "winner_misreport": alternatives.label_of(self.winner_misreport),
        }


# --- comparisons -------------------------------------------------------------
# Each takes the deviating voter's truthful order as its position row
# (``pos[a]`` the rank of a, 0 best) and the outcomes of the truthful and
# the deviated profile, and says whether the deviation paid.


def _weak(pos, before, after) -> bool:
    return pos[after] < pos[before]


def _strong(pos, before, after) -> bool:
    return pos[after] == 0 and after != before


def _optimistic(pos, before, after) -> bool:
    return min(map(pos.__getitem__, after)) < min(map(pos.__getitem__, before))


def _pessimistic(pos, before, after) -> bool:
    return max(map(pos.__getitem__, after)) < max(map(pos.__getitem__, before))


_COMPARE = {"weak": _weak, "strong": _strong,
            "optimistic": _optimistic, "pessimistic": _pessimistic}
_SET_MODES = ("optimistic", "pessimistic")


@lru_cache(maxsize=None)
def _position_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """The position row of every order, by canonical order index."""
    return tuple(order.positions() for order in enumerate_orders(m))


@lru_cache(maxsize=None)
def _places(n: int, m: int) -> tuple[int, ...]:
    """The place value of each voter's digit in a profile index."""
    fact = math.factorial(m)
    return tuple(fact ** (n - 1 - voter) for voter in range(n))


# --- the scan kernel -----------------------------------------------------------


class _Scan(Record):
    """One paradox search: the deviation each unit tries ("reverse",
    "misreport" or "abstain") and how outcomes compare (a key of
    ``_COMPARE``).  ``rule_small`` is the (n-1)-voter rule, used by
    "abstain"."""

    __slots__ = ("rule", "n", "m", "deviation", "compare", "condorcet_only",
                 "rule_small")

    def __init__(self, rule: object, n: int, m: int, deviation: str, compare: str,
                 condorcet_only: bool = False, rule_small: object = None) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "deviation", deviation)
        object.__setattr__(self, "compare", compare)
        object.__setattr__(self, "condorcet_only", condorcet_only)
        object.__setattr__(self, "rule_small", rule_small)

    @property
    def voters(self) -> int:
        """Voters per profile that deviate: only the last one abstains."""
        return 1 if self.deviation == "abstain" else self.n

    @property
    def width(self) -> int:
        """Deviations tried per (profile, voter)."""
        return math.factorial(self.m) if self.deviation == "misreport" else 1

    @property
    def total_units(self) -> int:
        return num_profiles(self.n, self.m) * self.voters * self.width

    @property
    def block_span(self) -> int:
        return self.n if self.deviation == "reverse" else math.factorial(self.m)

    @property
    def called(self) -> tuple:
        """The rules the scan calls."""
        return (self.rule,) if self.rule_small is None else (self.rule, self.rule_small)

    @property
    def anonymous(self) -> bool:
        """Whether no rule the scan calls depends on voter order."""
        return all(_depends_on(rule) != "order" for rule in self.called)

    @property
    def margins_only(self) -> bool:
        """Whether every rule the scan calls reads only the margins."""
        return all(_depends_on(rule) == "margins" for rule in self.called)


def _depends_on(rule) -> str:
    declared = getattr(rule, "depends_on", "order")
    if declared == "margins" and not hasattr(rule, "on_key"):
        return "multiset"  # margins are read by key only through on_key
    return declared


def _table_entries(rule, n: int, m: int, *, sets: bool):
    """The dense entries of a profile-mode table of this (n, m), so that
    ``rule(P)`` is ``entries[index of P]``; None for any other rule.  Duck
    typed (``mode``, ``chosen``, ``n``, ``m``), so a wrapper that forwards
    those attributes is read by index too.  A set-valued table with an
    empty entry is called instead, so that the empty set raises as usual."""
    if (getattr(rule, "mode", None) != "profile" or getattr(rule, "n", None) != n
            or getattr(rule, "m", None) != m):
        return None
    entries = rule.chosen
    return None if sets and not all(entries) else entries


class _Outcomes(dict):
    """The outcomes of one rule at one electorate size, read by the probe
    the rule's declaration fixes (``by``): "index" for a profile table of
    the scan's own (n, m) (its entries, ``chosen``; the dict stays empty)
    and for an "order" rule, "key" for a "margins" rule, "multiset" (the
    sorted digit tuple) for any other.

    :meth:`read` gives any outcome; the kernel reads table entries and
    memo hits inline.
    """

    def __init__(self, rule, n: int, m: int, *, sets: bool):
        super().__init__()
        self.rule = rule
        self.n, self.m = n, m
        self.orders = enumerate_orders(m)
        self.sets = sets
        self.keep = True
        self.chosen = _table_entries(rule, n, m, sets=sets)
        declared = _depends_on(rule)
        self.by = ("index" if self.chosen is not None or declared == "order" else
                   "key" if declared == "margins" else "multiset")
        self.keyed = self.by == "key"

    def read(self, probe, where=None, *args) -> object:
        """The outcome at ``probe``: the stored one, or else the rule's,
        stored unless ``keep`` is false.  A "margins" rule runs on the key,
        a "multiset" rule on the sorted profile the probe spells, an "order"
        rule on the profile whose digits ``where(*args)`` gives.  An empty
        set raises :class:`EmptyOutcomeSet` naming that profile, the one met
        (the margin key without ``where``)."""
        value = self.get(probe)
        if value is not None:
            return value
        if self.keyed:
            value = self.rule.on_key(probe, self.n, self.m)
        else:
            digits = probe if self.by == "multiset" else where(*args)
            value = self.rule(Profile(tuple(map(self.orders.__getitem__, digits))))
        if self.sets and not value:
            place = (f"profile index {digits_to_index(where(*args), self.m)}" if where
                     else f"margin key {keyspace.key_text(probe, self.m)}")
            raise EmptyOutcomeSet(f"set-valued rule returned an empty set at {place}")
        if self.keep:
            self[probe] = value
        return value


def _outcomes(scan: _Scan) -> tuple[_Outcomes, _Outcomes]:
    """The outcomes of the truthful and of the deviated profiles (one
    object, unless the deviation is abstention)."""
    sets = scan.compare in _SET_MODES
    outcome = _Outcomes(scan.rule, scan.n, scan.m, sets=sets)
    if scan.deviation != "abstain":
        return outcome, outcome
    # participation meets each n-voter profile once: storing an "order"
    # rule's outcomes by index is waste
    outcome.keep = outcome.by != "index"
    return outcome, _Outcomes(scan.rule_small, scan.n - 1, scan.m, sets=sets)


def _profiles(scan: _Scan, lo: int, hi: int, quotient: bool):
    """``(index, digits)`` of every truthful profile with a unit in
    [lo, hi), ascending; on the quotient path only the sorted ones (for
    participation a sorted (n-1)-voter prefix and any joiner).  ``digits``
    is one list, advanced in place like an odometer."""
    n, m, per_profile = scan.n, scan.m, scan.voters * scan.width
    top = math.factorial(m) - 1
    end = n - 1 if scan.deviation == "abstain" else n  # the digits kept sorted
    index = lo // per_profile
    digits = profile_digits(index, n, m)
    if quotient:  # up to the next sorted profile
        for voter in range(1, end):
            if digits[voter] < digits[voter - 1]:
                digits[voter:] = [digits[voter - 1]] * (end - voter) + [0] * (n - end)
                index = digits_to_index(digits, m)
                break
    stop = -(-hi // per_profile)
    while index < stop:
        yield index, digits
        voter = n - 1
        while voter and digits[voter] == top:
            digits[voter] = 0
            voter -= 1
        digits[voter] += 1  # past the last profile: an index of at least stop
        if quotient:
            digits[voter + 1:end] = [digits[voter]] * (end - voter - 1)
            index = digits_to_index(digits, m)
        else:
            index += 1


def _scan_chunk(scan: _Scan, lo: int, hi: int, *, quotient: bool = False,
                outcomes: tuple[_Outcomes, _Outcomes] | None = None,
                winners: CondorcetWinners | None = None) -> tuple | None:
    """First violating unit in [lo, hi).

    Returns ``(unit, index, voter, order, before, after)``: the truthful
    profile index, the deviating voter, the order they deviate to (their
    own order when abstaining), and the outcomes of the truthful and the
    deviated profile.

    The scan walks the profiles of :func:`_profiles`, and inside each one
    its voters (and a misreporting voter's orders), clipped to [lo, hi);
    on the quotient path (for anonymous rules only) only the first voter
    of each distinct order.  Both paths return the same first hit.  The
    deviated profile's index and margin key come from arithmetic on the
    truthful one's; its digits are built only for a "multiset" probe or
    for :meth:`_Outcomes.read`.  ``outcomes`` are the outcome memos to use
    and ``winners`` the Condorcet-winner memo (fresh ones by default).
    """
    n, m = scan.n, scan.m
    fact = math.factorial(m)
    places = _places(n, m)
    rev = reverse_index_table(m)
    rows = _position_rows(m)
    votes = keyspace.vote_keys(m)
    compare = _COMPARE[scan.compare]
    reverse = scan.deviation == "reverse"
    abstain = scan.deviation == "abstain"
    misreport = scan.deviation == "misreport"
    condorcet_only = scan.condorcet_only
    width = scan.width
    per_profile = scan.voters * width
    outcome, deviated = outcomes or _outcomes(scan)
    truthful_by, deviated_by = outcome.by, deviated.by
    truthful_table, deviated_table = outcome.chosen, deviated.chosen
    keys = condorcet_only or outcome.keyed or deviated.keyed  # track margin keys
    winners = CondorcetWinners(m) if winners is None else winners
    met = sorted if quotient else list  # the truthful digits as met

    def deviate(digits, voter, target):
        """The deviated profile's digits, sorted on the quotient path."""
        if abstain:
            return tuple(digits[:-1])  # on the quotient path a sorted prefix
        changed = list(digits)
        changed[voter] = target
        return tuple(sorted(changed)) if quotient else changed

    first_voter = n - 1 if abstain else 0  # the first voter who deviates
    for index, digits in _profiles(scan, lo, hi, quotient):
        key = keyspace.digits_key(m, digits) if keys else None
        if condorcet_only and winners[key] is None:
            continue  # a truthful profile outside the domain has no unit to try
        start = index * per_profile
        voters = range(first_voter + max(lo - start, 0) // width,
                       first_voter + (min(hi - start, per_profile) - 1) // width + 1)
        if quotient and not abstain:
            voters = [voter for voter in voters
                      if not voter or digits[voter] != digits[voter - 1]]
        before = None
        for voter in voters:
            d = digits[voter]
            first = start + (voter - first_voter) * width
            for target in (range(max(lo - first, 0), min(hi - first, width))
                           if misreport else (rev[d] if reverse else d,)):
                if abstain:
                    other = index // fact
                    other_key = key - votes[d] if keys else None
                else:
                    if misreport and target == d:
                        continue  # a misreport of one's own order
                    other = index + (target - d) * places[voter]
                    other_key = key + votes[target] - votes[d] if keys else None
                if condorcet_only and winners[other_key] is None:
                    continue
                if before is None:
                    if truthful_table is not None:
                        before = truthful_table[index]
                    else:
                        probe = (index if truthful_by == "index" else
                                 key if truthful_by == "key" else tuple(sorted(digits)))
                        before = outcome.get(probe)
                        if before is None:
                            before = outcome.read(probe, met, digits)
                if deviated_table is not None:
                    after = deviated_table[other]
                else:
                    probe = (other if deviated_by == "index" else
                             other_key if deviated_by == "key" else
                             deviate(digits, voter, target) if quotient else
                             tuple(sorted(deviate(digits, voter, target))))
                    after = deviated.get(probe)
                    if after is None:
                        after = deviated.read(probe, deviate, digits, voter, target)
                if compare(rows[d], before, after):
                    return (first + target if misreport else first,
                            index, voter, target, before, after)
    return None


def _margin_pass(scan: _Scan, outcome: _Outcomes, deviated: _Outcomes,
                 budget: int, winners: CondorcetWinners | None = None) -> bool:
    """Whether the margin pass certifies the scan: False when its units do
    not fit in ``budget``, when some unit violates, or when a rule raises.

    Outcomes go into the key memos, so the quotient path that takes over
    asks the rule about no key twice.
    """
    per_key = math.factorial(scan.m) * scan.width
    try:
        level = keyspace.margin_levels(scan.n - 1, scan.m, budget=budget // per_key)[1]
    except BudgetExceeded:
        return False
    if len(level) * per_key > budget:
        return False
    try:
        return not _margin_violation(scan, outcome, deviated, level,
                                     CondorcetWinners(scan.m) if winners is None
                                     else winners)
    except Exception:
        # whatever the rule raised, the quotient path raises it again at
        # the same unit as before, unless a witness comes first
        return False


def _margin_violation(scan: _Scan, outcome: _Outcomes, deviated: _Outcomes,
                      level: set[int], winners: CondorcetWinners) -> bool:
    """Whether some unit (K, o), K a key of ``level`` (n-1 voters), violates."""
    m = scan.m
    votes = keyspace.vote_keys(m)
    rows = _position_rows(m)
    rev = reverse_index_table(m)
    compare = _COMPARE[scan.compare]
    deviation = scan.deviation

    for key in level:
        truthful = [key + vote for vote in votes]
        tried = ([o for o, here in enumerate(truthful) if winners[here] is not None]
                 if scan.condorcet_only else range(len(votes)))
        if deviation == "misreport" and len(tried) < 2:
            continue  # no misreport stays inside the domain
        before = {o: outcome.read(truthful[o]) for o in tried}
        if deviation == "abstain":
            afters = (deviated.read(key),)
        elif deviation == "misreport":
            # a misreport to one's own order changes nothing, and no
            # comparison counts an unchanged outcome as a gain
            afters = set(before.values())
        for o in tried:
            if deviation == "reverse":
                afters = (before[rev[o]],)
            if any(compare(rows[o], before[o], after) for after in afters):
                return True
    return False


def _run_scan(scan: _Scan, *, budget: int | None, sample: int | None,
              seed: int) -> tuple | None:
    """Dispatch a first-witness scan over all of ``scan``'s units.

    Exhaustive mode first tries the margin pass when every rule reads only
    the margins and its units fit in ``budget``; unless that certifies, it
    covers units [0, min(total, budget)), on the quotient path when the
    rules are anonymous and otherwise on the ordered path, and raises
    :class:`BudgetExceeded` if that had to stop short without a witness.
    Sampled mode visits ``sample`` random blocks of ``scan.block_span``
    units drawn from a seeded generator.  Either way one Condorcet-domain
    memo serves the whole scan.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    total_units = scan.total_units
    winners = CondorcetWinners(scan.m)
    if sample is not None:
        rng = random.Random(seed)
        span = scan.block_span
        blocks = total_units // span
        outcomes = _outcomes(scan)
        hit = None
        for _ in range(sample):
            block = rng.randrange(blocks)
            found = _scan_chunk(scan, block * span, (block + 1) * span,
                                outcomes=outcomes, winners=winners)
            if found is not None and (hit is None or found[0] < hit[0]):
                hit = found
            for memo in outcomes:
                if not memo.keyed:  # a key memo is bounded by the keys
                    memo.clear()
        return hit

    region = min(total_units, budget)
    outcomes = _outcomes(scan)
    if scan.margins_only and _margin_pass(scan, *outcomes, budget, winners):
        return None
    hit = _scan_chunk(scan, 0, region, quotient=scan.anonymous, outcomes=outcomes,
                      winners=winners)
    if hit is None and region < total_units:
        raise BudgetExceeded(
            f"scanned {region} of {total_units} scan units without a verdict",
            scanned=region, total=total_units)
    return hit


def _revalidate(witness, rule, deviated_rule, compare: str) -> None:
    """Call the rules again on the witness's truthful and deviated profiles
    and re-apply the comparison; :class:`NotAViolation` on any mismatch."""
    order, truthful, before, deviated, after = witness._event()
    if (rule(truthful) != before or deviated_rule(deviated) != after
            or not _COMPARE[compare](order.positions(), before, after)):
        raise NotAViolation(f"{type(witness).__name__} failed revalidation "
                            f"against the rule")


def _check(scan: _Scan, *, budget, sample, seed):
    """Run the scan and turn its first hit into a revalidated witness."""
    hit = _run_scan(scan, budget=budget, sample=sample, seed=seed)
    if hit is None:
        return None
    _, index, voter, target, before, after = hit
    profile = index_to_profile(index, scan.n, scan.m)
    order = enumerate_orders(scan.m)[target]
    if scan.deviation == "abstain":
        witness = ParticipationWitness(profile.remove_voter(voter), order,
                                       after, before, position=voter)
    elif scan.deviation == "misreport":
        witness = ManipulationWitness(profile, voter, order, before, after)
    elif scan.compare in _SET_MODES:
        witness = SetReversalWitness(profile, voter, frozenset(before),
                                     frozenset(after), scan.compare)
    else:
        witness = ReversalWitness(profile, voter, before, after)
    deviated_rule = scan.rule if scan.rule_small is None else scan.rule_small
    _revalidate(witness, scan.rule, deviated_rule, scan.compare)
    return witness


# --- checkers ----------------------------------------------------------------


def check_halfway_monotonicity(rule: Rule, n: int, m: int, *,
                               budget: int | None = None,
                               sample: int | None = None,
                               seed: int = 0) -> ReversalWitness | None:
    """Search for a voter who gains by reversing their ranking.

    ``None`` from an exhaustive scan certifies the rule half-way monotonic
    on the whole (n, m) domain.
    """
    return _check(_Scan(rule, n, m, "reverse", "weak"), budget=budget,
                  sample=sample, seed=seed)


def check_strong_reversal(rule: Rule, n: int, m: int, *,
                          budget: int | None = None,
                          sample: int | None = None,
                          seed: int = 0) -> ReversalWitness | None:
    """Like :func:`check_halfway_monotonicity`, but the reversal must make
    the voter's truthful favourite win."""
    return _check(_Scan(rule, n, m, "reverse", "strong"), budget=budget,
                  sample=sample, seed=seed)


def check_hwm_optimistic(set_rule: SetRule, n: int, m: int, *,
                         budget: int | None = None,
                         sample: int | None = None,
                         seed: int = 0) -> SetReversalWitness | None:
    """Half-way monotonicity when outcome sets are compared by their best
    element under the reversing voter's truthful order."""
    return _check(_Scan(set_rule, n, m, "reverse", "optimistic"), budget=budget,
                  sample=sample, seed=seed)


def check_hwm_pessimistic(set_rule: SetRule, n: int, m: int, *,
                          budget: int | None = None,
                          sample: int | None = None,
                          seed: int = 0) -> SetReversalWitness | None:
    """As optimistic, but sets are compared by their worst element."""
    return _check(_Scan(set_rule, n, m, "reverse", "pessimistic"), budget=budget,
                  sample=sample, seed=seed)


def family_rule(family: RuleFamily, size: int) -> Rule:
    """Resolve the rule a variable-electorate family provides for ``size``.

    Accepts a mapping from sizes to rules, a factory taking the size, or a
    single profile-to-winner callable that works at any size.
    """
    if isinstance(family, Mapping):
        try:
            return family[size]
        except KeyError:
            raise MissingSize(f"rule family has no member for n={size}") from None
    if callable(family):
        fixed = getattr(family, "n", None)  # lookup tables are single-size
        if fixed is not None and fixed != size:
            raise MissingSize(f"rule is fixed to n={fixed}, need n={size}")
        return family  # type: ignore[return-value]
    raise MissingSize(f"cannot resolve a rule for n={size}")


def check_participation(family: RuleFamily, n: int, m: int, *,
                        budget: int | None = None,
                        sample: int | None = None,
                        seed: int = 0) -> ParticipationWitness | None:
    """Search for a joiner who would have preferred to abstain, across the
    (n-1, n) electorate boundary."""
    if n <= 1:
        return None  # no outcome is defined for an empty election
    rule_small = family_rule(family, n - 1)
    rule_big = family_rule(family, n)
    return _check(_Scan(rule_big, n, m, "abstain", "weak", rule_small=rule_small),
                  budget=budget, sample=sample, seed=seed)


def check_manipulability(rule: Rule, n: int, m: int, *,
                         domain: str = "full",
                         budget: int | None = None,
                         sample: int | None = None,
                         seed: int = 0) -> ManipulationWitness | None:
    """Search for a profitable misreport.

    With ``domain="condorcet"`` both the truthful and the misreported
    profile must admit a Condorcet winner for the pair to count.
    """
    if domain not in ("full", "condorcet"):
        raise ValueError(f"unknown domain {domain!r}")
    return _check(_Scan(rule, n, m, "misreport", "weak",
                         condorcet_only=domain == "condorcet"),
                  budget=budget, sample=sample, seed=seed)


def explain_hwm_via_participation(witness: ReversalWitness,
                                  family: RuleFamily) -> ParticipationWitness:
    """Locate the no-show violation hiding inside a reversal violation.

    Reversing a vote is the same as that voter leaving and the reversed
    voter joining at the same position.  If the family satisfied
    participation at the (n-1, n) boundary, chaining the two join steps
    through f(P minus the voter) would contradict the reversal witness, so
    one of the two links must fail; the first failing link is returned as
    a participation witness (its join position is the reversing voter's).
    """
    n = witness.profile.n
    rule_big = family_rule(family, n)
    if n < 2:
        raise NotAViolation("a reversal witness needs at least 2 voters to explain")
    rule_small = family_rule(family, n - 1)

    _revalidate(witness, rule_big, rule_big, "weak")
    before, after = witness.winner_before, witness.winner_after

    truthful = witness.truthful_order
    without_profile = witness.profile.remove_voter(witness.voter)
    middle = rule_small(without_profile)

    # link 1: the truthful voter joining must not hurt them
    if truthful.prefers(middle, before):
        return ParticipationWitness(without_profile, truthful, middle, before,
                                    position=witness.voter)
    # link 2: the reversed voter joining must not hurt the reversed order
    reversed_order = truthful.reverse()
    if reversed_order.prefers(middle, after):
        return ParticipationWitness(without_profile, reversed_order, middle,
                                    after, position=witness.voter)
    # both links holding would chain into before >= after, contradicting
    # the revalidated witness
    raise AssertionError("unreachable: a valid reversal witness breaks a link")
