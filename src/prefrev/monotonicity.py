"""Checkers and witness searchers for the reversal and no-show paradoxes.

Every paradox here is one event: a voter compares the outcome of the
truthful profile with the outcome after one deviation of their own.  All
six checkers run a single scan kernel over *units*, each naming an n-voter
truthful profile (by canonical index), a voter and a deviation, in
ascending unit order, so the first witness returned is deterministic.  A
``None`` result from an exhaustive scan is a certificate that the property
holds on the whole domain; sampled scans draw seeded random blocks of
consecutive units, visit the distinct ones in ascending order and only
report on those.  The blocks are disjoint, so the first hit is the least
witness of the sampled region, and as on an exhaustive scan the first
event in unit order, a hit or a rule's error, ends the scan; a scan with
no hit visits every drawn block.

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

What a rule declares (``depends_on``, see :mod:`prefrev.rules`) is read
once, by the reader of its outcomes at one electorate size, which fixes
how they are read, the same on every path; the path follows from the
scan's readers (one, or two when the last voter abstains):

- a profile-mode table of the scan's own (n, m): by profile index, from
  its entries (recognised by ``mode``, ``n`` and ``m``, so a wrapper that
  forwards them is read so too, whatever it declares), with no memo and no
  profile built;
- a "margins" rule (one with an ``on_key`` entry point): memoised by
  margin key and evaluated on the key, with no profile built and no
  margins recounted;
- a "multiset" rule: memoised by sorted digit tuple and evaluated on the
  sorted profile;
- an "order" rule: memoised by profile index and evaluated on the profile.

A sampled scan keeps the key memo across the blocks it visits, in
ascending order up to the first hit, so the rule runs once per margin key
visited, and memory is bounded by the distinct keys visited (at most
``sample * (span + 1)``, span the block's units); it clears the other
memos after each block, the last included.  Participation stores no
n-voter outcome of an "order" rule: it meets each such profile once.  An
empty outcome set names the profile met, or the margin key in the margin
pass.

The paths (one walker, :func:`~prefrev.prefs.iter_digits`, gives the
truthful profiles of the first two):

- the ordered path meets every profile with a unit in the region.
  Sampled scans and scans with a reader by profile index take it.  When
  the deviated profile is not read by profile index, voters of one vote
  give one outcome pair, so only the first voter of each vote whose units
  all lie in the region deviates, and only an index reader gets the
  deviated index.  It steps each voter's place value, (m!)^(n-1-voter):
  one power at the first voter the region reaches in a profile, then one
  division by m! per voter, so no table of all n place values is built.
- the quotient path serves exhaustive scans when no reader reads by
  profile index.  It keeps the digits sorted (a carry resets the digits
  after the one that moved to that digit, not to 0; participation's
  joiner, the last digit, runs free), starts at the first sorted profile
  with a unit in the region, and on each profile tries only the first
  voter of each distinct order.  The rule runs once per multiset of votes
  (once per margin key for a "margins" rule).
- the margin pass serves exhaustive scans when every reader reads by
  margin key, and decides so itself.  Its unit is (K, o): K a margin key
  realizable by n-1 voters, o the deviating voter's order.  The truthful key is
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
- the table pass serves exhaustive reversal scans (half-way monotonicity
  and strong reversal) over a resolute profile table of the scan's own
  (n, m), one whose entries are ints in range(m).  It reads
  the table's entries as bytes and compares, for each voter and order,
  whole slices of truthful profiles with the slices of their reversals, at
  C speed: the sum of the truthful outcomes times m and the deviated
  outcomes, as big-endian integers, spells each pair's code in one byte,
  and a translate table per order marks the codes at which that voter
  gains.  It walks windows of the (m!)^(n-1) profiles that share a first
  vote in ascending order and stops at the first window with a gain, whose
  least unit is the first witness; the kernel then builds that one unit's
  hit.  The CLI checks a resolute table under hwm-optimistic or
  hwm-pessimistic with a half-way monotonicity scan (on singletons both
  set comparisons are the weak one), so those checks take the pass too.
  Misreport, participation, sampled and Condorcet-domain scans, set-valued
  tables, c2 tables and other callables take the paths above.

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
re-applied.  A witness prints as one record of its fields by name, with
profiles, orders and alternatives in labels and voter positions as numbers.

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

from .errors import BudgetExceeded, PrefRevError, printable_count
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
    iter_digits,
    num_profiles,
    reverse_index_table,
)
from .rules import Rule, SetRule
from .tally import CondorcetWinners
from . import keyspace

# either one rule valid at every electorate size, or a mapping size -> rule
RuleFamily = Rule | Mapping[int, Rule]

DEFAULT_BUDGET = 10_000_000


class _Witness(Record):
    """A voter's deviation and the outcomes it compares.

    ``_event()`` gives ``(order, truthful, before, deviated, after)``: the
    deviating voter's truthful order, then each profile and its outcome.
    The deviation pays under the weak comparison, or the witness's own
    ``mode``.  :meth:`describe` prints a profile in the profile text
    format, an order as ``a>b>c``, a set as ``{a,b}``, ``voter``,
    ``position`` and ``mode`` as they are and any other int as its
    alternative's label.
    """

    __slots__ = ()

    def is_violation(self) -> bool:
        order, _, before, _, after = self._event()
        return _COMPARE[getattr(self, "mode", "weak")](order.positions(), before, after)

    def describe(self, alternatives: Alternatives) -> dict:
        record = {}
        for name in self.__slots__:
            value = getattr(self, name)
            if isinstance(value, Profile):
                value = format_profile(value, alternatives)
            elif isinstance(value, LinearOrder):
                value = format_order(value, alternatives)
            elif isinstance(value, frozenset):
                value = alternatives.label_set(value)
            elif name not in ("voter", "position", "mode"):
                value = alternatives.label_of(value)
            record[name] = value
        return record


class ReversalWitness(_Witness):
    """A voter who strictly gains by submitting their reversed ranking."""

    __slots__ = ("profile", "voter", "winner_before", "winner_after")

    @property
    def truthful_order(self) -> LinearOrder:
        return self.profile.votes[self.voter]

    def is_strong(self) -> bool:
        return (self.winner_after == self.truthful_order.top
                and self.winner_after != self.winner_before)

    def _event(self):
        return (self.truthful_order, self.profile, self.winner_before,
                self.profile.reverse_vote(self.voter), self.winner_after)


class SetReversalWitness(_Witness):
    """Set-valued analogue: the compared representative strictly improves.
    ``mode`` is "optimistic" or "pessimistic"."""

    __slots__ = ("profile", "voter", "set_before", "set_after", "mode")

    def _event(self):
        return (self.profile.votes[self.voter], self.profile, self.set_before,
                self.profile.reverse_vote(self.voter), self.set_after)


class ParticipationWitness(_Witness):
    """A voter who would have done strictly better by abstaining.

    ``position`` records where the joiner sits in the joined profile;
    profiles here are voter-indexed sequences, so the join point is part
    of the event (anonymous rules ignore it, lookup tables may not).
    """

    __slots__ = ("profile_without", "joiner_order", "winner_without",
                 "winner_with", "position")

    def joined_profile(self) -> Profile:
        return self.profile_without.insert_voter(self.position, self.joiner_order)

    def _event(self):
        return (self.joiner_order, self.joined_profile(), self.winner_with,
                self.profile_without, self.winner_without)


class ManipulationWitness(_Witness):
    """A voter whose misreport strictly beats their truthful vote."""

    __slots__ = ("profile", "voter", "misreport", "winner_truthful",
                 "winner_misreport")

    def _event(self):
        return (self.profile.votes[self.voter], self.profile, self.winner_truthful,
                self.profile.replace_vote(self.voter, self.misreport),
                self.winner_misreport)


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


# --- the scan kernel -----------------------------------------------------------


class _Scan(Record):
    """One paradox search: the deviation each unit tries ("reverse",
    "misreport" or "abstain") and how outcomes compare (a key of
    ``_COMPARE``).  ``rule_small`` is the (n-1)-voter rule, used by
    "abstain"."""

    __slots__ = ("rule", "n", "m", "deviation", "compare", "condorcet_only",
                 "rule_small")
    _defaults = {"condorcet_only": False, "rule_small": None}

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


class _Outcomes(dict):
    """The outcomes of one rule at one electorate size, read by the probe
    the rule's declaration fixes (``by``): "index" for a profile table of
    the scan's own (n, m) (its entries, ``chosen``, and the dict stays
    empty; a set-valued one with an empty entry is called, so that the
    empty set raises as usual) and for an "order" rule, "key" for a
    "margins" rule with ``on_key``, "multiset" (the sorted digit tuple)
    for any other.

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
        self.chosen = None
        declared = getattr(rule, "depends_on", "order")
        if (getattr(rule, "mode", None) == "profile" and getattr(rule, "n", None) == n
                and getattr(rule, "m", None) == m):  # read by index, whatever declared
            declared = "order"
            if not sets or all(rule.chosen):
                self.chosen = rule.chosen
        self.by = ("index" if declared == "order" else
                   "key" if declared == "margins" and hasattr(rule, "on_key") else
                   "multiset")
        self.keyed = self.by == "key"

    def read(self, probe, where=None, *args) -> object:
        """The outcome at ``probe``: the stored one, or else the rule's,
        stored unless ``keep`` is false.  A "margins" rule runs on the key,
        a "multiset" rule on the sorted profile the probe spells, an "order"
        rule on the profile whose digits ``where(*args)`` gives.  An empty
        set raises :class:`PrefRevError` naming that profile, the one met
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
            raise PrefRevError(f"set-valued rule returned an empty set at {place}")
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


def _scan_chunk(scan: _Scan, lo: int, hi: int, *, quotient: bool = False,
                outcomes: tuple[_Outcomes, _Outcomes] | None = None,
                winners: CondorcetWinners | None = None) -> tuple | None:
    """First violating unit in [lo, hi).

    Returns ``(unit, index, voter, order, before, after)``: the truthful
    profile index, the deviating voter, the order they deviate to (their
    own order when abstaining), and the outcomes of the truthful and the
    deviated profile.

    The scan walks the truthful profiles that
    :func:`~prefrev.prefs.iter_digits` gives, and inside each one its
    voters (and a misreporting voter's orders), clipped to [lo, hi); on
    the quotient path (for anonymous rules only) only the sorted profiles
    and the first voter of each distinct order.  Both paths return the
    same first hit.  Unless the deviated profile is read by index, the
    ordered path too tries a vote once, at its first voter whose units all
    lie in [lo, hi).  The deviated profile's margin key, and its index for
    an index reader, come from arithmetic on the truthful one's; its
    digits are built only for a "multiset" probe or for
    :meth:`_Outcomes.read`.  ``outcomes`` are the
    outcome memos to use and ``winners`` the Condorcet-winner memo (fresh
    ones by default).
    """
    n, m = scan.n, scan.m
    fact = math.factorial(m)
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
    by_index = deviated_by == "index"
    # read by key or multiset, the voters of one vote give one outcome pair
    distinct = not (by_index or abstain)
    # every truthful profile with a unit in [lo, hi); on the quotient path
    # only the sorted ones (for participation a sorted (n-1)-voter prefix
    # and any joiner)
    sorted_prefix = (n - 1 if abstain else n) if quotient else 0
    for index, digits in iter_digits(n, m, lo // per_profile, -(-hi // per_profile),
                                     sorted_prefix=sorted_prefix):
        key = keyspace.digits_key(m, digits) if keys else None
        if condorcet_only and winners[key] is None:
            continue  # a truthful profile outside the domain has no unit to try
        start = index * per_profile
        voters = range(first_voter + max(lo - start, 0) // width,
                       first_voter + (min(hi - start, per_profile) - 1) // width + 1)
        # with ``distinct`` each vote deviates once, at its first voter: on
        # the quotient path its first in the profile, on the ordered path
        # its first whose units all lie in the region
        tried = set(digits[:voters.start]) if quotient and distinct else set()
        before = None
        # an index reader's deviated index steps each voter's place value,
        # (m!)^(n-1-voter), from one power at the first voter reached
        place = fact ** (n - voters.start) if by_index and not abstain else 0
        for voter in voters:
            place //= fact
            d = digits[voter]
            if d in tried:
                continue
            first = start + (voter - first_voter) * width
            if distinct and (quotient or first >= lo):
                tried.add(d)
            for target in (range(max(lo - first, 0), min(hi - first, width))
                           if misreport else (rev[d] if reverse else d,)):
                if abstain:
                    other = index // fact if by_index else None
                    other_key = key - votes[d] if keys else None
                else:
                    if misreport and target == d:
                        continue  # a misreport of one's own order
                    other = index + (target - d) * place if by_index else None
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
    """Whether the margin pass certifies the scan: False for a scan it does
    not serve (a reader not by margin key), when its units do not fit in
    ``budget``, when some unit (K, o), K a key of n-1 voters, violates, or
    when a rule raises.

    Outcomes go into the key memos, so the quotient path that takes over
    asks the rule about no key twice.
    """
    if not (outcome.keyed and deviated.keyed):
        return False
    m, deviation = scan.m, scan.deviation
    per_key = math.factorial(m) * scan.width
    try:
        level = keyspace.margin_levels(scan.n - 1, m, budget=budget // per_key)[1]
    except BudgetExceeded:
        return False
    votes = keyspace.vote_keys(m)
    rows = _position_rows(m)
    rev = reverse_index_table(m)
    compare = _COMPARE[scan.compare]
    winners = CondorcetWinners(m) if winners is None else winners
    try:
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
                    return False
    except Exception:
        # whatever the rule raised, the quotient path raises it again at
        # the same unit as before, unless a witness comes first
        return False
    return True


@lru_cache(maxsize=None)
def _gain_tables(m: int, compare: str) -> tuple[bytes, ...]:
    """Per order, the 256-byte translate table that maps the code
    ``before * m + after`` of two resolute outcomes to 1 when a voter of
    that order gains by the move from ``before`` to ``after``, else to 0."""
    paid = _COMPARE[compare]
    tables = []
    for row in _position_rows(m):
        table = bytearray(256)
        for before in range(m):
            for after in range(m):
                table[before * m + after] = paid(row, before, after)
        tables.append(bytes(table))
    return tuple(tables)


def _first_gain(truthful, deviated, gains: bytes) -> int:
    """The first lane at which an outcome pair gains, or -1.  ``truthful``
    holds outcomes times m and ``deviated`` outcomes, both below m, so each
    lane of their sum as big-endian integers is the pair's code, below m²,
    with no carry into the next lane."""
    codes = int.from_bytes(truthful, "big") + int.from_bytes(deviated, "big")
    return codes.to_bytes(len(truthful), "big").translate(gains).find(1)


def _table_pass(scan: _Scan, outcome: _Outcomes, region: int) -> int | None:
    """The first violating unit of an exhaustive reversal scan over a
    resolute profile table, or ``region`` when no unit before it violates;
    None for a scan the pass does not serve (the kernel takes it).

    The table's entries, as bytes, are compared a whole slice at a time, by
    windows of the (m!)^(n-1) profiles that share a first vote, in
    ascending order.  In a window, voter 0's slice pairs with the window of
    their reversed vote.  Voter v >= 1 of order d, at place p, sits in runs
    of p profiles, one per value of the digits between voter 0 and v; with
    more runs than p, the pass instead takes p strided slices of step
    m! * p, one per value of the digits after v.  Each slice pairs with the
    one whose digit v is the reverse of d.  The least unit with a gain in a
    window is the first witness, so the pass stops at the first window with
    one, and scans no window that starts at or past ``region``.
    """
    n, m, chosen = scan.n, scan.m, outcome.chosen
    if (chosen is None or scan.deviation != "reverse" or scan.condorcet_only
            or scan.compare not in ("weak", "strong")):
        return None
    try:
        outcomes = bytearray(chosen)  # every code, below m² <= 64, fits a byte
    except (TypeError, ValueError):
        return None  # an entry that is not an int in range(256)
    if len(outcomes) != num_profiles(n, m) or outcomes.translate(None, bytes(range(m))):
        return None  # not one entry per profile, or an entry of m or more
    scaled = outcomes.translate(bytes(x * m & 255 for x in range(256)))
    gains = _gain_tables(m, scan.compare)
    rev = reverse_index_table(m)
    fact = math.factorial(m)
    window = fact ** (n - 1)
    for first in range(fact):  # the window of the profiles whose first vote is this
        lo, end = first * window, (first + 1) * window
        if lo * n >= region:
            break
        mirror = rev[first] * window
        k = _first_gain(scaled[lo:end], outcomes[mirror:mirror + window], gains[first])
        found = [] if k < 0 else [(lo + k) * n]
        place = window
        for voter in range(1, n):
            place //= fact  # (m!)^(n-1-voter)
            step = fact * place
            for d in range(fact):
                mine, theirs = lo + d * place, lo + rev[d] * place
                if place >= window // step:  # runs of ascending profiles
                    for run in range(0, window, step):
                        k = _first_gain(scaled[mine + run:mine + run + place],
                                        outcomes[theirs + run:theirs + run + place],
                                        gains[d])
                        if k >= 0:
                            found.append((mine + run + k) * n + voter)
                            break
                else:  # strides, one per low part
                    for low in range(place):
                        k = _first_gain(scaled[mine + low:end:step],
                                        outcomes[theirs + low:end:step], gains[d])
                        if k >= 0:
                            found.append((mine + low + k * step) * n + voter)
        if found:
            return min(min(found), region)
    return region


def _run_scan(scan: _Scan, *, budget: int | None, sample: int | None,
              seed: int) -> tuple | None:
    """Dispatch a first-witness scan over all of ``scan``'s units.

    Exhaustive mode first tries the margin pass, which serves the scan when
    both readers read by margin key and its units fit in ``budget``; unless
    that certifies, it covers units [0, min(total, budget)): by the table
    pass when it serves the scan (the kernel then builds the hit of the one
    unit it found), on the quotient path when no reader probes by profile
    index, and otherwise on the ordered path, and raises
    :class:`BudgetExceeded` if that had to stop short without a witness.
    Sampled mode draws ``sample`` random blocks of ``scan.block_span``
    units from a seeded generator, visits the distinct ones in ascending
    order and returns the first hit, the least one; a rule's error ends
    the scan where it is met, so the first event in unit order wins, as
    on the exhaustive paths.  Either way one Condorcet-domain memo serves
    the whole scan.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    total_units = scan.total_units
    winners = CondorcetWinners(scan.m)
    if sample is not None:
        rng = random.Random(seed)
        span = scan.block_span
        blocks = total_units // span
        drawn = sorted({rng.randrange(blocks) for _ in range(sample)})
        outcomes = _outcomes(scan)
        for block in drawn:  # disjoint ranges of units: the first hit is the least
            found = _scan_chunk(scan, block * span, (block + 1) * span,
                                outcomes=outcomes, winners=winners)
            for memo in outcomes:
                if not memo.keyed:  # a key memo is bounded by the keys
                    memo.clear()
            if found is not None:
                return found
        return None

    region = min(total_units, budget)
    outcomes = _outcomes(scan)
    if _margin_pass(scan, *outcomes, budget, winners):
        return None
    unit = _table_pass(scan, outcomes[0], region)
    if unit is None:
        quotient = all(memo.by != "index" for memo in outcomes)
        hit = _scan_chunk(scan, 0, region, quotient=quotient, outcomes=outcomes,
                          winners=winners)
    else:  # the kernel builds the hit of the one unit the pass found
        hit = (_scan_chunk(scan, unit, unit + 1, outcomes=outcomes, winners=winners)
               if unit < region else None)
    if hit is None and region < total_units:
        raise BudgetExceeded(
            f"scanned {region} of {printable_count(total_units)} scan units without a verdict",
            scanned=region, total=total_units)
    return hit


def _revalidate(witness, rule, deviated_rule, compare: str) -> None:
    """Call the rules again on the witness's truthful and deviated profiles
    and re-apply the comparison; :class:`PrefRevError` on any mismatch."""
    order, truthful, before, deviated, after = witness._event()
    if (rule(truthful) != before or deviated_rule(deviated) != after
            or not _COMPARE[compare](order.positions(), before, after)):
        raise PrefRevError(f"{type(witness).__name__} failed revalidation "
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

    Accepts a mapping from sizes to rules, or a single profile-to-winner
    callable, returned as it is, that works at every size (a table fixed
    to another size raises :class:`PrefRevError`).
    """
    if isinstance(family, Mapping):
        try:
            return family[size]
        except KeyError:
            raise PrefRevError(f"rule family has no member for n={size}") from None
    if callable(family):
        fixed = getattr(family, "n", None)  # lookup tables are single-size
        if fixed is not None and fixed != size:
            raise PrefRevError(f"rule is fixed to n={fixed}, need n={size}")
        return family  # type: ignore[return-value]
    raise PrefRevError(f"cannot resolve a rule for n={size}")


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
        raise PrefRevError("a reversal witness needs at least 2 voters to explain")
    rule_small = family_rule(family, n - 1)

    _revalidate(witness, rule_big, rule_big, "weak")

    truthful = witness.truthful_order
    without_profile = witness.profile.remove_voter(witness.voter)
    middle = rule_small(without_profile)
    # link 1: the truthful voter joining must not hurt them; link 2: the
    # reversed voter joining must not hurt the reversed order
    for joiner, outcome in ((truthful, witness.winner_before),
                            (truthful.reverse(), witness.winner_after)):
        link = ParticipationWitness(without_profile, joiner, middle, outcome,
                                    position=witness.voter)
        if link.is_violation():
            return link
    # both links holding would chain into before >= after, contradicting
    # the revalidated witness
    raise AssertionError("unreachable: a valid reversal witness breaks a link")
