import math
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from conftest import _Singleton, tabulate_rule
from prefrev import errors, keyspace, monotonicity, tally
from prefrev.monotonicity import (
    ManipulationWitness,
    ParticipationWitness,
    ReversalWitness,
    SetReversalWitness,
    _margin_pass,
    _check,
    _outcomes,
    _run_scan,
    _Scan,
    _scan_chunk,
    check_halfway_monotonicity,
    check_hwm_optimistic,
    check_hwm_pessimistic,
    check_manipulability,
    check_participation,
    check_strong_reversal,
    explain_hwm_via_participation,
    family_rule,
)
from prefrev.prefs import (
    LinearOrder,
    Profile,
    enumerate_orders,
    index_to_profile,
    iter_profiles,
    num_profiles,
    order_index,
    profile_to_index,
)
from prefrev.rules import (
    SET_RULES,
    RuleTable,
    resolute_rule,
    set_rule,
)
from prefrev.tally import condorcet_winner

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def key_seed(seed: str, key: int, m: int) -> str:
    """A random seed per margin key, spelt as tables write the key."""
    return f"{seed}:{keyspace.key_text(key, m)}"


def plant_reversal_violation(table: RuleTable, *, strong: bool = False,
                             rng: random.Random | None = None) -> tuple[RuleTable, int, int]:
    """Flip one table entry so some (profile, voter) reversal pays off.

    Returns the corrupted table and the planted (profile index, voter).
    The reversal target entry is set to the voter's truthful favourite, the
    strongest possible gain, which is both a weak and a strong violation.
    """
    n, m = table.n, table.m
    fact = math.factorial(m)
    pairs = range(num_profiles(n, m) * n)
    if rng is not None:
        pairs = rng.sample(list(pairs), k=len(pairs) // 2)
    for pair in pairs:
        index, voter = divmod(pair, n)
        profile = index_to_profile(index, n, m)
        truthful = profile.votes[voter]
        if table.chosen[index] == truthful.top:
            continue
        flipped_index = profile_to_index(profile.reverse_vote(voter))
        if flipped_index == index:
            continue
        corrupted = table.replace_entry(flipped_index, truthful.top)
        return corrupted, index, voter
    raise AssertionError("no plantable pair found")


def first_violation_brute_force(rule, n, m, *, strong=False):
    for index in range(num_profiles(n, m)):
        profile = index_to_profile(index, n, m)
        before = rule(profile)
        for voter in range(n):
            truthful = profile.votes[voter]
            after = rule(profile.reverse_vote(voter))
            if strong:
                hit = after == truthful.top and after != before
            else:
                hit = truthful.prefers(after, before)
            if hit:
                return index, voter, before, after
    return None


class TestHalfwayMonotonicity:
    def test_borda_immune_m3_n3(self):
        assert check_halfway_monotonicity(resolute_rule("borda", 3), 3, 3) is None

    def test_maximin_immune_m3_n3(self):
        assert check_halfway_monotonicity(resolute_rule("maximin", 3), 3, 3) is None

    def test_corrupted_table_names_the_entry(self):
        table = tabulate_rule(resolute_rule("maximin", 3), 3, 3)
        corrupted, index, voter = plant_reversal_violation(table)
        witness = check_halfway_monotonicity(corrupted, 3, 3)
        assert witness is not None
        assert witness.is_violation()
        # the checker returns the first violating pair in scan order; the
        # brute-force double loop is the independent oracle for that
        expected = first_violation_brute_force(corrupted, 3, 3)
        assert (profile_to_index(witness.profile), witness.voter) == expected[:2]
        assert (witness.winner_before, witness.winner_after) == expected[2:]

    def test_budget_exceeded_reports_fraction(self):
        rule = resolute_rule("borda", 3)
        with pytest.raises(errors.BudgetExceeded) as exc:
            check_halfway_monotonicity(rule, 3, 3, budget=100)
        assert exc.value.scanned == 100
        assert exc.value.total == 216 * 3
        assert 0 < exc.value.fraction < 1

    @staticmethod
    def budgeted_peak(rule, n: int, m: int, budget: int) -> tuple[int, int]:
        """The units a budgeted hwm scan covers before it stops, and its
        ``tracemalloc`` peak."""
        tracemalloc.start()
        try:
            with pytest.raises(errors.BudgetExceeded) as exc:
                check_halfway_monotonicity(rule, n, m, budget=budget)
            return exc.value.scanned, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("order_reader", [False, True], ids=["multiset", "order"])
    def test_budget_inside_the_first_profile_builds_few_place_values(self, order_reader):
        # the place values of all 20,000 voters would hold about 110 MiB; a
        # budget of 10 units reaches 10 voters of the first profile.  An
        # undeclared callable reads by profile index, so it steps place
        # values; plurality reads multisets and needs none
        plurality = resolute_rule("plurality", 4)
        rule = (lambda profile: plurality(profile)) if order_reader else plurality
        scanned, peak = self.budgeted_peak(rule, 20_000, 4, budget=10)
        assert scanned == 10
        assert peak < 16 * 2**20, peak

    def test_budget_past_the_first_profile_holds_no_place_table(self):
        # a region over two profiles of an index reader: all 2,000 place
        # values would hold about 1.1 MiB, the deviated indices as much
        n = 2_000
        plurality = resolute_rule("plurality", 4)
        scanned, peak = self.budgeted_peak(lambda profile: plurality(profile), n, 4,
                                           budget=n + 1)
        assert scanned == n + 1
        assert peak < 2 * 2**20, peak

    def test_witness_found_within_budget_is_returned(self):
        table = tabulate_rule(resolute_rule("maximin", 3), 3, 3)
        corrupted, index, voter = plant_reversal_violation(table)
        hit = first_violation_brute_force(corrupted, 3, 3)
        budget = hit[0] * 3 + hit[1] + 1
        witness = check_halfway_monotonicity(corrupted, 3, 3, budget=budget)
        assert witness is not None

    def test_sampled_mode_is_seed_deterministic(self):
        table = tabulate_rule(resolute_rule("maximin", 3), 3, 3)
        corrupted, _, _ = plant_reversal_violation(table)
        runs = [check_halfway_monotonicity(corrupted, 3, 3, sample=50, seed=9)
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_ordered_path_certifies_unplanted_rules(self):
        # a table and an undeclared callable both take the ordered path
        maximin = resolute_rule("maximin", 3)
        for rule in (tabulate_rule(maximin, 3, 3), lambda profile: maximin(profile)):
            assert check_halfway_monotonicity(rule, 3, 3) is None


class TestStrongReversal:
    def test_maximin_no_strong_paradox_m3_n3(self):
        assert check_strong_reversal(resolute_rule("maximin", 3), 3, 3) is None

    def test_strong_witness_is_also_weak(self):
        table = tabulate_rule(resolute_rule("maximin", 3), 3, 3)
        corrupted, _, _ = plant_reversal_violation(table, strong=True)
        witness = check_strong_reversal(corrupted, 3, 3)
        assert witness is not None
        assert witness.is_strong()
        assert witness.is_violation()

    def test_weak_clean_implies_strong_clean(self):
        clean = 0
        for name in ("borda", "plurality", "maximin"):
            rule = resolute_rule(name, 3)
            if check_halfway_monotonicity(rule, 3, 3) is None:
                clean += 1
                assert check_strong_reversal(rule, 3, 3) is None
        assert clean  # the implication was tested on some rule


class TestParticipation:
    def test_borda_family_m3_sizes_2_to_3(self):
        assert check_participation(resolute_rule("borda", 3), 3, 3) is None

    def test_planted_family_violation(self):
        small = tabulate_rule(resolute_rule("borda", 3), 2, 3)
        big = tabulate_rule(resolute_rule("borda", 3), 3, 3)
        # abstaining gives the joiner their second choice c; joining hands
        # the win to their least favourite a
        orders = enumerate_orders(3)
        cba, bca = orders[5], orders[3]
        assert (cba.ranking, bca.ranking) == ((2, 1, 0), (1, 2, 0))
        base = Profile((cba, cba))
        joined = base.insert_voter(base.n, bca)
        corrupted = big.replace_entry(profile_to_index(joined), bca.bottom)
        witness = check_participation({2: small, 3: corrupted}, 3, 3)
        assert witness is not None
        assert witness.is_violation()
        assert witness.profile_without == base
        assert witness.joiner_order == bca
        assert (witness.winner_without, witness.winner_with) == (2, 0)

    def test_single_voter_boundary_is_vacuous(self):
        assert check_participation(resolute_rule("borda", 3), 1, 3) is None

    def test_missing_size(self):
        with pytest.raises(errors.PrefRevError,
                           match="rule family has no member for n=2"):
            check_participation({3: resolute_rule("borda", 3)}, 3, 3)

    def test_single_size_table_cannot_span_the_boundary(self):
        table = tabulate_rule(resolute_rule("borda", 3), 3, 3)
        with pytest.raises(errors.PrefRevError, match="rule is fixed to n=3, need n=2"):
            check_participation(table, 3, 3)

    def test_family_neither_mapping_nor_callable(self):
        with pytest.raises(errors.PrefRevError) as caught:
            family_rule(42, 2)
        assert str(caught.value) == "cannot resolve a rule for n=2"


class TestExplainViaParticipation:
    def test_planted_fixtures_yield_valid_participation_witnesses(self):
        rng = random.Random(77)
        base_small = tabulate_rule(resolute_rule("borda", 3), 2, 3)
        base_big = tabulate_rule(resolute_rule("borda", 3), 3, 3)
        produced = 0
        attempts = 0
        while produced < 50 and attempts < 400:
            attempts += 1
            corrupted, index, voter = plant_reversal_violation(base_big, rng=rng)
            family = {2: base_small, 3: corrupted}
            witness = check_halfway_monotonicity(corrupted, 3, 3)
            assert witness is not None
            explained = explain_hwm_via_participation(witness, family)
            assert isinstance(explained, ParticipationWitness)
            assert explained.is_violation()
            # revalidate by direct recomputation through the family
            without = family[2](explained.profile_without)
            joined = family[3](explained.joined_profile())
            assert without == explained.winner_without
            assert joined == explained.winner_with
            assert explained.joiner_order.prefers(without, joined)
            produced += 1
        assert produced >= 50

    def test_equal_winners_is_not_a_violation(self):
        table = tabulate_rule(resolute_rule("borda", 3), 3, 3)
        profile = index_to_profile(7, 3, 3)
        winner = table(profile)
        fake = ReversalWitness(profile, 0, winner, winner)
        with pytest.raises(errors.PrefRevError,
                           match="failed revalidation against the rule"):
            explain_hwm_via_participation(fake, {2: tabulate_rule(
                resolute_rule("borda", 3), 2, 3), 3: table})

    def test_single_voter_witness_is_not_explained(self):
        profile = index_to_profile(0, 1, 3)
        fake = ReversalWitness(profile, 0, 0, 2)
        with pytest.raises(errors.PrefRevError) as caught:
            explain_hwm_via_participation(fake, resolute_rule("borda", 3))
        assert str(caught.value) == ("a reversal witness needs at least 2 "
                                     "voters to explain")

    def test_fabricated_witness_fails_revalidation(self):
        table = tabulate_rule(resolute_rule("borda", 3), 3, 3)
        small = tabulate_rule(resolute_rule("borda", 3), 2, 3)
        profile = index_to_profile(10, 3, 3)
        truthful = profile.votes[0]
        fake = ReversalWitness(profile, 0, truthful.bottom, truthful.top)
        with pytest.raises(errors.PrefRevError,
                           match="failed revalidation against the rule"):
            explain_hwm_via_participation(fake, {2: small, 3: table})


class _SingletonRule:
    def __init__(self, rule):
        self.rule = rule

    def __call__(self, profile):
        return frozenset((self.rule(profile),))


class TestSetValuedCheckers:
    def test_singleton_lift_agrees_with_resolute_on_clean_rule(self):
        rule = resolute_rule("borda", 3)
        lifted = _SingletonRule(rule)
        assert check_halfway_monotonicity(rule, 3, 3) is None
        assert check_hwm_optimistic(lifted, 3, 3) is None
        assert check_hwm_pessimistic(lifted, 3, 3) is None

    def test_singleton_lift_agrees_with_resolute_on_violating_rule(self):
        table = tabulate_rule(resolute_rule("maximin", 3), 3, 3)
        corrupted, _, _ = plant_reversal_violation(table)
        resolute_witness = check_halfway_monotonicity(corrupted, 3, 3)
        lifted = _SingletonRule(corrupted)
        for checker in (check_hwm_optimistic, check_hwm_pessimistic):
            set_witness = checker(lifted, 3, 3)
            assert set_witness is not None
            assert set_witness.profile == resolute_witness.profile
            assert set_witness.voter == resolute_witness.voter
            assert set_witness.set_before == {resolute_witness.winner_before}
            assert set_witness.set_after == {resolute_witness.winner_after}

    def test_top_cycle_m3_n3_matches_golden(self):
        results = {
            "optimistic": check_hwm_optimistic(set_rule("top-cycle"), 3, 3),
            "pessimistic": check_hwm_pessimistic(set_rule("top-cycle"), 3, 3),
        }
        golden = {}
        for line in (GOLDEN_DIR / "topcycle_hwm_m3_n3.txt").read_text().splitlines():
            mode, verdict = line.split()
            golden[mode] = verdict
        for mode, witness in results.items():
            assert golden[mode] == ("none" if witness is None else "violation")

    def test_constant_full_set_is_clean(self):
        full = lambda profile: frozenset(range(profile.m))  # noqa: E731
        assert check_hwm_optimistic(full, 2, 3) is None
        assert check_hwm_pessimistic(full, 2, 3) is None

    def test_empty_outcome_set_rejected(self):
        empty = lambda profile: frozenset()  # noqa: E731
        with pytest.raises(errors.PrefRevError,
                           match="set-valued rule returned an empty set at profile index 0"):
            check_hwm_optimistic(empty, 2, 3)


def dictatorship_of_first_voter(profile: Profile) -> int:
    return profile.votes[0].top


class TestManipulability:
    def test_condorcet_rule_strategyproof_on_its_domain(self):
        rule = resolute_rule("condorcet", 3)
        assert check_manipulability(rule, 3, 3, domain="condorcet") is None

    def test_borda_manipulable_on_full_domain(self):
        witness = check_manipulability(resolute_rule("borda", 3), 3, 3)
        assert witness is not None
        assert witness.is_violation()
        # revalidate through the rule directly
        rule = resolute_rule("borda", 3)
        truthful_winner = rule(witness.profile)
        lie_winner = rule(witness.profile.replace_vote(witness.voter,
                                                       witness.misreport))
        assert (truthful_winner, lie_winner) == (witness.winner_truthful,
                                                 witness.winner_misreport)

    def test_dictatorship_is_strategyproof(self):
        assert check_manipulability(dictatorship_of_first_voter, 3, 3) is None

    def test_unknown_domain(self):
        with pytest.raises(ValueError):
            check_manipulability(resolute_rule("borda", 3), 2, 3,
                                 domain="weird")


# --- uniform revalidation ------------------------------------------------------


def last_voters_bottom(profile: Profile) -> int:
    """Pays every deviation of the last voter: reversing, misreporting or
    abstaining all move the win off their bottom choice."""
    return profile.votes[-1].bottom


class FickleRule:
    """Answers like :func:`last_voters_bottom` the first time it sees a
    profile and with the last voter's top choice every later time."""

    def __init__(self, *, sets: bool = False):
        self.sets = sets
        self.seen: set = set()

    def __call__(self, profile: Profile):
        first = profile.votes not in self.seen
        self.seen.add(profile.votes)
        vote = profile.votes[-1]
        winner = vote.bottom if first else vote.top
        return frozenset((winner,)) if self.sets else winner


ALL_CHECKERS = {
    "hwm": check_halfway_monotonicity,
    "strong-reversal": check_strong_reversal,
    "participation": check_participation,
    "manipulability": check_manipulability,
    "hwm-optimistic": check_hwm_optimistic,
    "hwm-pessimistic": check_hwm_pessimistic,
}
SET_PROPERTIES = ("hwm-optimistic", "hwm-pessimistic")


class TestRevalidation:
    @pytest.mark.parametrize("prop", sorted(ALL_CHECKERS))
    def test_steady_rule_witness_is_returned(self, prop):
        rule = last_voters_bottom
        if prop in SET_PROPERTIES:
            rule = _SingletonRule(rule)
        assert ALL_CHECKERS[prop](rule, 3, 3) is not None

    @pytest.mark.parametrize("prop", sorted(ALL_CHECKERS))
    def test_rule_answering_differently_on_recheck_is_rejected(self, prop):
        rule = FickleRule(sets=prop in SET_PROPERTIES)
        with pytest.raises(errors.PrefRevError,
                           match="failed revalidation against the rule"):
            ALL_CHECKERS[prop](rule, 3, 3)

    def test_explain_revalidates_through_the_family(self):
        witness = check_halfway_monotonicity(last_voters_bottom, 3, 3)
        fickle = FickleRule()
        fickle(witness.profile)
        with pytest.raises(errors.PrefRevError,
                           match="failed revalidation against the rule"):
            explain_hwm_via_participation(witness, fickle)


# --- the scan kernel against plain nested loops -----------------------------------


class SetTable:
    def __init__(self, sets: list[frozenset[int]]):
        self.sets = sets

    def __call__(self, profile: Profile) -> frozenset[int]:
        return self.sets[profile_to_index(profile)]


def reference_hits(prop: str, rule, n: int, m: int, *, small=None,
                   domain: str = "full") -> list[tuple[int, object, object, object]]:
    """Every violating unit in ascending order, as (unit, before, after,
    witness), from nested loops over iter_profiles calling the rule directly."""
    orders = enumerate_orders(m)
    fact = len(orders)
    hits = []
    if prop == "participation":
        for base_index, base in enumerate(iter_profiles(n - 1, m)):
            without = small(base)
            for joiner_ix, joiner in enumerate(orders):
                with_joiner = rule(base.insert_voter(n - 1, joiner))
                if joiner.prefers(without, with_joiner):
                    witness = ParticipationWitness(base, joiner, without,
                                                   with_joiner, n - 1)
                    hits.append((base_index * fact + joiner_ix, with_joiner,
                                 without, witness))
        return hits
    for index, profile in enumerate(iter_profiles(n, m)):
        before = rule(profile)
        for voter, vote in enumerate(profile.votes):
            if prop == "manipulability":
                for lie_ix, lie in enumerate(orders):
                    lied = profile.replace_vote(voter, lie)
                    if lie == vote or domain == "condorcet" and (
                            condorcet_winner(profile) is None
                            or condorcet_winner(lied) is None):
                        continue
                    after = rule(lied)
                    if vote.prefers(after, before):
                        witness = ManipulationWitness(profile, voter, lie, before, after)
                        hits.append(((index * n + voter) * fact + lie_ix,
                                     before, after, witness))
                continue
            after = rule(profile.reverse_vote(voter))
            if prop == "hwm":
                hit = vote.prefers(after, before)
            elif prop == "strong-reversal":
                hit = after == vote.top and after != before
            elif prop == "hwm-optimistic":
                hit = vote.prefers(vote.best_of(after), vote.best_of(before))
            else:
                hit = vote.prefers(vote.worst_of(after), vote.worst_of(before))
            if hit:
                if prop in SET_PROPERTIES:
                    witness = SetReversalWitness(profile, voter, before, after,
                                                 prop[len("hwm-"):])
                else:
                    witness = ReversalWitness(profile, voter, before, after)
                hits.append((index * n + voter, before, after, witness))
    return hits


def random_case(prop: str, n: int, m: int, rng: random.Random):
    """A random rule for ``prop`` plus the checker call and the kernel scan."""
    def table(size):
        return RuleTable(size, m, "profile", tuple(
            rng.randrange(m) for _ in range(num_profiles(size, m))))

    if prop in SET_PROPERTIES:
        rule = SetTable([frozenset(a for a in range(m) if rng.random() < 0.5)
                         or frozenset((rng.randrange(m),))
                         for _ in range(num_profiles(n, m))])
        scan = _Scan(rule, n, m, "reverse", prop[len("hwm-"):])
        return rule, {}, scan, lambda **kw: ALL_CHECKERS[prop](rule, n, m, **kw)
    rule = table(n)
    if prop == "participation":
        small = table(n - 1)
        scan = _Scan(rule, n, m, "abstain", "weak", rule_small=small)
        return rule, {"small": small}, scan, lambda **kw: check_participation(
            {n - 1: small, n: rule}, n, m, **kw)
    if prop.startswith("manipulability"):
        domain = prop.partition(":")[2] or "full"
        scan = _Scan(rule, n, m, "misreport", "weak",
                     condorcet_only=domain == "condorcet")
        return rule, {"domain": domain}, scan, lambda **kw: check_manipulability(
            rule, n, m, domain=domain, **kw)
    scan = _Scan(rule, n, m, "reverse", "strong" if prop == "strong-reversal" else "weak")
    return rule, {}, scan, lambda **kw: ALL_CHECKERS[prop](rule, n, m, **kw)


KERNEL_PROPERTIES = ("hwm", "strong-reversal", "participation", "manipulability",
                     "manipulability:condorcet", "hwm-optimistic", "hwm-pessimistic")


class TestScanKernelAgainstBruteForce:
    @pytest.mark.parametrize("m,n", [(3, 2), (3, 3)])
    @pytest.mark.parametrize("prop", KERNEL_PROPERTIES)
    def test_every_unit_block_and_first_witness_agree(self, prop, m, n):
        rng = random.Random(f"{prop}:{m}:{n}")
        rule, extra, scan, check = random_case(prop, n, m, rng)
        reference = reference_hits(prop.partition(":")[0], rule, n, m, **extra)
        assert reference, "the random rule should violate the property somewhere"

        # the exhaustive checker returns the reference's first witness
        assert check() == reference[0][3]

        # split at every unit boundary: each one-unit chunk is a hit exactly
        # when the reference says so, with the same outcomes
        expected = {unit: (unit, before, after)
                    for unit, before, after, _ in reference}
        found = {}
        for unit in range(scan.total_units):
            hit = _scan_chunk(scan, unit, unit + 1)
            if hit is not None:
                found[unit] = (hit[0], hit[4], hit[5])
        assert found == expected

        # sampled blocks (m! units for manipulation and participation, which
        # start inside a profile's units for manipulation) report the first
        # reference hit inside the block
        span = scan.block_span
        for block in range(scan.total_units // span):
            lo, hi = block * span, (block + 1) * span
            hit = _scan_chunk(scan, lo, hi)
            first = next(((u, b, a) for u, b, a, _ in reference if lo <= u < hi), None)
            assert (None if hit is None else (hit[0], hit[4], hit[5])) == first


class AnonymousRandomRule:
    """A random rule of the multiset of votes.  Each sorted vote tuple seeds
    its own draw, so the outcome depends neither on voter order nor on the
    order of calls.  Most multisets get the outcome {0} (or 0), so
    violations are sparse."""

    depends_on = "multiset"

    def __init__(self, seed: str, m: int, *, sets: bool = False):
        self.seed, self.m, self.sets = seed, m, sets

    def __call__(self, profile: Profile):
        key = tuple(sorted(map(order_index, profile.votes)))
        rng = random.Random(f"{self.seed}:{key}")
        if rng.random() < 0.7:
            winners = frozenset((0,))
        else:
            winners = (frozenset(a for a in range(self.m) if rng.random() < 0.5)
                       or frozenset((rng.randrange(self.m),)))
        return winners if self.sets else min(winners)


class CountingRule:
    """Counts the calls of a rule, on a profile or (declared "margins") on
    a margin key; without ``depends_on`` given it declares nothing, so scans
    over it take the ordered path."""

    def __init__(self, rule, depends_on: str | None = None):
        self.rule, self.calls = rule, 0
        if depends_on is not None:
            self.depends_on = depends_on
        if depends_on == "margins":
            self.on_key = self._on_key

    def __call__(self, profile: Profile):
        self.calls += 1
        return self.rule(profile)

    def _on_key(self, key: int, n: int, m: int):
        self.calls += 1
        return self.rule.on_key(key, n, m)


def anonymous_case(prop: str, n: int, m: int, seed: str):
    """An anonymous random rule for ``prop``, the reference's extra
    arguments, the kernel scan and a checker call over any rule family."""
    kind = prop.partition(":")[0]
    rule = AnonymousRandomRule(seed, m, sets=kind in SET_PROPERTIES)
    if kind == "participation":
        small = AnonymousRandomRule(seed + ":small", m)
        scan = _Scan(rule, n, m, "abstain", "weak", rule_small=small)
        return rule, {"small": small}, scan, lambda wrap, **kw: check_participation(
            {n - 1: wrap(small), n: wrap(rule)}, n, m, **kw)
    if kind == "manipulability":
        domain = prop.partition(":")[2] or "full"
        scan = _Scan(rule, n, m, "misreport", "weak",
                     condorcet_only=domain == "condorcet")
        return rule, {"domain": domain}, scan, lambda wrap, **kw: check_manipulability(
            wrap(rule), n, m, domain=domain, **kw)
    compare = {"hwm": "weak", "strong-reversal": "strong"}.get(kind, kind[len("hwm-"):])
    scan = _Scan(rule, n, m, "reverse", compare)
    return rule, {}, scan, lambda wrap, **kw: ALL_CHECKERS[kind](wrap(rule), n, m, **kw)


def on_quotient_path(witness) -> bool:
    if isinstance(witness, ParticipationWitness):
        votes = witness.profile_without.votes
        return list(votes) == sorted(votes, key=order_index)
    votes = witness.profile.votes
    return (list(votes) == sorted(votes, key=order_index)
            and votes.index(votes[witness.voter]) == witness.voter)


class TestQuotientPath:
    @pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (4, 2)])
    @pytest.mark.parametrize("prop", KERNEL_PROPERTIES)
    def test_quotient_and_ordered_paths_return_the_same_hit(self, prop, m, n):
        # the first seed whose rule violates the property, but not at unit 0,
        # which would leave no budget to truncate
        for attempt in range(20):
            rule, extra, scan, check = anonymous_case(prop, n, m,
                                                      f"{prop}:{m}:{n}:{attempt}")
            reference = reference_hits(prop.partition(":")[0], rule, n, m, **extra)
            if reference and reference[0][0] > 0:
                break
        else:
            pytest.fail("no random rule violates the property past unit 0")
        assert all(memo.by != "index" for memo in _outcomes(scan))
        first = reference[0][0]

        # the full region and budgets ending just before and just after the
        # first hit
        for region in (scan.total_units, first, first + 1):
            ordered = _scan_chunk(scan, 0, region)
            assert _scan_chunk(scan, 0, region, quotient=True) == ordered
            assert (None if ordered is None else ordered[0]) == (
                first if first < region else None)

        # stepping past each hit, the quotient path finds every reference hit
        # on a sorted profile at the first voter of their order (for
        # participation: after a sorted prefix), with the same outcomes
        visible = [(unit, before, after) for unit, before, after, witness in reference
                   if on_quotient_path(witness)]
        found, lo = [], 0
        while (hit := _scan_chunk(scan, lo, scan.total_units, quotient=True)) is not None:
            found.append((hit[0], hit[4], hit[5]))
            lo = hit[0] + 1
        assert found == visible

        # through the checkers: the declared rule takes the quotient path,
        # the undeclared one the ordered path, and both give the reference's
        # first witness, or run out of budget at the same count
        for wrap in (lambda r: r, CountingRule):
            assert check(wrap) == reference[0][3]
            with pytest.raises(errors.BudgetExceeded) as exc:
                check(wrap, budget=first)
            assert (exc.value.scanned, exc.value.total) == (first, scan.total_units)


class TestQuotientFastPath:
    def test_declared_rule_is_called_once_per_multiset(self):
        multisets = math.comb(math.factorial(3) + 6 - 1, 6)
        assert multisets == 462
        declared = CountingRule(resolute_rule("maximin", 3), "multiset")
        assert check_halfway_monotonicity(declared, 6, 3) is None
        assert declared.calls <= multisets

        undeclared = CountingRule(resolute_rule("maximin", 3))
        assert check_halfway_monotonicity(undeclared, 6, 3) is None
        assert undeclared.calls == num_profiles(6, 3)  # the ordered path

    def test_margins_rule_without_entry_point_is_scanned_as_multiset(self):
        # a "margins" declaration is read by key only through on_key
        rule = CountingRule(resolute_rule("maximin", 3))
        rule.depends_on = "margins"
        scan = _Scan(rule, 6, 3, "reverse", "weak")
        assert {memo.by for memo in _outcomes(scan)} == {"multiset"}
        assert check_halfway_monotonicity(rule, 6, 3) is None
        assert rule.calls <= math.comb(math.factorial(3) + 6 - 1, 6)

    def test_participation_calls_each_rule_once_per_multiset(self):
        big = CountingRule(resolute_rule("borda", 3), "multiset")
        small = CountingRule(resolute_rule("borda", 3), "multiset")
        assert check_participation({2: small, 3: big}, 3, 3) is None
        assert big.calls <= math.comb(6 + 3 - 1, 3)
        assert small.calls <= math.comb(6 + 2 - 1, 2)

    def test_order_dependent_participation_family_takes_the_ordered_path(self):
        big = CountingRule(resolute_rule("borda", 3), "multiset")
        small = CountingRule(resolute_rule("borda", 3))
        assert check_participation({2: small, 3: big}, 3, 3) is None
        # the ordered path meets every 2-voter profile, not only the sorted
        # ones, and still evaluates the "multiset" rule once per multiset
        assert small.calls == num_profiles(2, 3)
        assert big.calls == math.comb(6 + 3 - 1, 3) == 56

    def test_ordered_participation_stores_no_n_voter_outcome(self):
        # each 3-voter profile is met once; the 2-voter outcomes are reused
        big = CountingRule(resolute_rule("borda", 3))
        small = CountingRule(resolute_rule("borda", 3))
        scan = _Scan(big, 3, 3, "abstain", "weak", rule_small=small)
        outcomes = _outcomes(scan)
        assert _scan_chunk(scan, 0, scan.total_units, outcomes=outcomes) is None
        assert (big.calls, small.calls) == (num_profiles(3, 3), num_profiles(2, 3))
        assert tuple(map(len, outcomes)) == (0, num_profiles(2, 3))

    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_multiset_rule_is_called_once_per_multiset(self, seed):
        # a sampled block of six voters over six orders almost always repeats
        # a vote, and reversing either copy reaches the same multiset
        seen = Counter()

        def rule(profile):
            seen[tuple(sorted(map(order_index, profile.votes)))] += 1
            return maximin(profile)

        maximin = resolute_rule("maximin", 3)
        rule.depends_on = "multiset"
        assert check_halfway_monotonicity(rule, 6, 3, sample=1, seed=seed) is None
        assert len(seen) > 1 and max(seen.values()) == 1


# --- the margin pass against the quotient path ------------------------------------


class MarginRandomRule:
    """A random rule of the margin matrix, like a random c2 table: each
    margin key seeds its own draw.  Most keys get the outcome {0} (or 0),
    so violations are sparse."""

    depends_on = "margins"

    def __init__(self, seed: str, m: int, *, sets: bool = False):
        self.seed, self.m, self.sets = seed, m, sets

    def __call__(self, profile: Profile):
        return self.on_key(keyspace.profile_key(profile), profile.n, profile.m)

    def on_key(self, key: int, n: int, m: int):
        rng = random.Random(key_seed(self.seed, key, m))
        if rng.random() < 0.7:
            winners = frozenset((0,))
        else:
            winners = (frozenset(a for a in range(self.m) if rng.random() < 0.5)
                       or frozenset((rng.randrange(self.m),)))
        return winners if self.sets else min(winners)


def as_multiset(rule) -> CountingRule:
    """The rule declared "multiset", so that scans over it take the quotient
    path and never the margin pass."""
    return CountingRule(rule, "multiset")


class KeyCountingRule:
    """Counts the calls of a "margins" rule per margin key, on a profile or
    on the key."""

    depends_on = "margins"

    def __init__(self, rule):
        self.rule, self.calls = rule, {}

    def __call__(self, profile: Profile):
        key = keyspace.profile_key(profile)
        self.calls[key] = self.calls.get(key, 0) + 1
        return self.rule(profile)

    def on_key(self, key: int, n: int, m: int):
        self.calls[key] = self.calls.get(key, 0) + 1
        return self.rule.on_key(key, n, m)


def random_c2_table(n: int, m: int, rng: random.Random) -> RuleTable:
    """A c2 table with a random winner at every margin key of n voters."""
    level = keyspace.margin_levels(n, m)[1]
    return RuleTable(n, m, "c2", {
        key: rng.randrange(m) for key in sorted(level)})


def margin_cases(prop: str, n: int, m: int):
    """(name, family) pairs of "margins" rules for ``prop``: a family maps
    each electorate size the scan needs to its rule."""
    kind = prop.partition(":")[0]
    rng = random.Random(f"margin:{prop}:{m}:{n}")
    sizes = (n - 1, n) if kind == "participation" else (n,)
    cases = [(f"random:{i}", {size: MarginRandomRule(f"{prop}:{m}:{n}:{i}", m,
                                                    sets=kind in SET_PROPERTIES)
                              for size in sizes})
             for i in range(2)]
    if kind in SET_PROPERTIES:
        cases += [(name, {n: set_rule(name)})
                  for name in ("copeland-set", "uncovered-set", "top-cycle")]
        cases.append(("c2", {n: _Singleton(random_c2_table(n, m, rng))}))
        return cases
    # inside the Condorcet domain every registry "margins" rule is the
    # Condorcet rule
    names = (("condorcet",) if prop == "manipulability:condorcet" else
             ("maximin", "kemeny", "schulze", "ranked-pairs"))
    for name in names:
        priority = list(range(m))
        rng.shuffle(priority)
        rule = resolute_rule(name, m, LinearOrder(tuple(priority)))
        cases.append((name, {size: rule for size in sizes}))
    cases.append(("c2", {size: random_c2_table(size, m, rng) for size in sizes}))
    return cases


def margin_scan(prop: str, n: int, m: int, family) -> tuple[_Scan, object]:
    """The kernel scan over ``family`` and a checker call taking a wrapper
    for its rules."""
    kind, _, domain = prop.partition(":")
    rule = family[n]
    if kind == "participation":
        scan = _Scan(rule, n, m, "abstain", "weak", rule_small=family[n - 1])
        return scan, lambda wrap, **kw: check_participation(
            {size: wrap(member) for size, member in family.items()}, n, m, **kw)
    if kind == "manipulability":
        scan = _Scan(rule, n, m, "misreport", "weak",
                     condorcet_only=domain == "condorcet")
        return scan, lambda wrap, **kw: check_manipulability(
            wrap(rule), n, m, domain=domain or "full", **kw)
    compare = {"hwm": "weak", "strong-reversal": "strong"}.get(kind, kind[len("hwm-"):])
    return (_Scan(rule, n, m, "reverse", compare),
            lambda wrap, **kw: ALL_CHECKERS[kind](wrap(rule), n, m, **kw))


def margin_units(scan: _Scan) -> int:
    """The margin pass's unit count: keys(n-1) * m!, times m! for misreports."""
    keys = len(keyspace.margin_levels(scan.n - 1, scan.m)[1])
    return keys * math.factorial(scan.m) * scan.width


class TestMarginPass:
    @pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
    @pytest.mark.parametrize("prop", KERNEL_PROPERTIES)
    def test_margin_pass_and_quotient_path_agree(self, prop, m, n):
        for name, family in margin_cases(prop, n, m):
            scan, check = margin_scan(prop, n, m, family)
            assert all(memo.keyed for memo in _outcomes(scan)), name
            total = scan.total_units
            certified = _margin_pass(scan, *_outcomes(scan), total)
            hit = _scan_chunk(scan, 0, total, quotient=True)
            assert certified == (hit is None), name

            # through the checkers: the same witness as the quotient path
            # alone, and the same budget verdicts just below and just above
            # the first hit
            if hit is None:
                assert check(lambda rule: rule) is None, name
                continue
            expected = check(as_multiset)
            assert check(lambda rule: rule) == expected, name
            first = hit[0]
            for wrap in (lambda rule: rule, as_multiset):
                with pytest.raises(errors.BudgetExceeded) as exc:
                    check(wrap, budget=first)
                assert (exc.value.scanned, exc.value.total) == (first, total), name
                assert check(wrap, budget=first + 1) == expected, name

    @pytest.mark.parametrize("prop,n", [
        pytest.param("hwm", 3, id="hwm"),
        pytest.param("participation", 3, id="participation"),
        pytest.param("manipulability:condorcet", 3, id="manipulability:condorcet"),
        pytest.param("hwm", 1, id="hwm-n1"),
        pytest.param("manipulability", 1, id="manipulability-n1"),
    ])
    def test_budget_counts_margin_units(self, prop, n):
        # maximin certifies all of these at m=3; the margin pass runs
        # exactly when its units fit, else the quotient path runs out.  At
        # n=1 the pass reads level 0, whose one key the level budget checks
        # too, and has as many units as the full space
        m = 3
        rule = resolute_rule("maximin", m)
        scan, check = margin_scan(prop, n, m, {n - 1: rule, n: rule})
        units = margin_units(scan)
        assert units < scan.total_units if n > 1 else units == scan.total_units
        assert check(lambda rule: rule, budget=units) is None
        with pytest.raises(errors.BudgetExceeded) as exc:
            check(lambda rule: rule, budget=units - 1)
        assert (exc.value.scanned, exc.value.total) == (units - 1, scan.total_units)

    def test_condorcet_rule_is_only_called_inside_the_domain(self):
        # the Condorcet rule raises on any key without a Condorcet winner
        n, m = 3, 4
        rule = CountingRule(resolute_rule("condorcet", m), "margins")
        scan = _Scan(rule, n, m, "misreport", "weak", condorcet_only=True)
        assert _margin_pass(scan, *_outcomes(scan), scan.total_units)
        assert 0 < rule.calls <= len(keyspace.margin_levels(n, m)[1])


class TestMarginPassCallCounts:
    KEYS_4_3 = 1136  # margin keys realizable by 3 voters over 4 alternatives

    def test_hwm_kemeny_calls_once_per_key(self):
        rule = KeyCountingRule(resolute_rule("kemeny", 4))
        assert check_halfway_monotonicity(rule, 3, 4) is None
        assert sum(rule.calls.values()) <= self.KEYS_4_3
        assert max(rule.calls.values()) == 1

    def test_condorcet_domain_manipulability_calls_once_per_key(self):
        rule = KeyCountingRule(resolute_rule("maximin", 4))
        assert check_manipulability(rule, 3, 4, domain="condorcet") is None
        assert sum(rule.calls.values()) <= self.KEYS_4_3
        assert max(rule.calls.values()) == 1

    def test_hand_over_evaluates_no_key_twice(self):
        rule = KeyCountingRule(set_rule("top-cycle"))
        witness = check_hwm_pessimistic(rule, 4, 4)
        assert witness is not None
        assert witness == check_hwm_pessimistic(as_multiset(set_rule("top-cycle")), 4, 4)
        # revalidation asks the rule again about the witness's two profiles
        revalidated = {keyspace.profile_key(witness.profile),
                       keyspace.profile_key(witness.profile.reverse_vote(witness.voter))}
        assert all(count == 1 + (key in revalidated)
                   for key, count in rule.calls.items())


# --- sampled scans share the margin-key memo across blocks -------------------------


class EmptyOnSomeKeys:
    """A "margins" set rule that returns the empty set on a seeded share of
    the margin keys and {0} elsewhere."""

    depends_on = "margins"

    def __init__(self, seed: str, share: float):
        self.seed, self.share = seed, share

    def __call__(self, profile: Profile) -> frozenset[int]:
        return self.on_key(keyspace.profile_key(profile), profile.n, profile.m)

    def on_key(self, key: int, n: int, m: int) -> frozenset[int]:
        rng = random.Random(key_seed(self.seed, key, m))
        return frozenset() if rng.random() < self.share else frozenset((0,))


def undeclared(scan: _Scan) -> _Scan:
    """The scan over its rules wrapped without ``depends_on``: every block
    evaluates the rule once per profile it visits."""
    return scan.replace(
        rule=CountingRule(scan.rule),
        rule_small=None if scan.rule_small is None else CountingRule(scan.rule_small))


def drawn_blocks(scan: _Scan, sample: int, seed: int) -> list[int]:
    """The distinct blocks a sampled scan draws, in ascending order."""
    rng = random.Random(seed)
    blocks = scan.total_units // scan.block_span
    return sorted({rng.randrange(blocks) for _ in range(sample)})


def visited_profiles(scan: _Scan, sample: int, seed: int) -> list[Profile]:
    """The profiles a sampled hwm scan visits, block by block in ascending
    order up to the first block with a hit: the truthful one and one per
    reversal tried up to the block's first hit."""
    visited = []
    for block in drawn_blocks(scan, sample, seed):
        hit = _scan_chunk(scan, block * scan.n, (block + 1) * scan.n)
        profile = index_to_profile(block, scan.n, scan.m)
        voters = scan.n if hit is None else hit[2] + 1
        visited += [profile, *map(profile.reverse_vote, range(voters))]
        if hit is not None:
            break
    return visited


class TestSampledKeyMemo:
    @pytest.mark.parametrize("m,n", [(3, 3), (3, 4), (3, 5), (4, 3)])
    @pytest.mark.parametrize("prop", KERNEL_PROPERTIES)
    def test_shared_memo_gives_the_per_block_hit(self, prop, m, n):
        hits = 0
        for name, family in margin_cases(prop, n, m):
            scan, _ = margin_scan(prop, n, m, family)
            for seed, sample in ((0, 4), (1, 25), (2, 100)):
                # the witness names the hit: profile, voter, deviation, outcomes
                kw = dict(budget=None, sample=sample, seed=seed)
                witness = _check(scan, **kw)
                assert witness == _check(undeclared(scan), **kw), (name, seed)
                hits += witness is not None
        # the test compares witnesses, not only empty results
        if prop != "manipulability:condorcet":
            assert hits

    def test_hwm_maximin_evaluates_each_key_once(self):
        n, m, sample, seed = 6, 4, 4000, 5
        declared = KeyCountingRule(resolute_rule("maximin", m))
        witness = check_halfway_monotonicity(declared, n, m, sample=sample, seed=seed)
        assert witness is not None
        # revalidation asks the rule again about the witness's two profiles
        revalidated = {keyspace.profile_key(witness.profile),
                       keyspace.profile_key(witness.profile.reverse_vote(witness.voter))}
        assert all(count == 1 + (key in revalidated)
                   for key, count in declared.calls.items())

        plain = CountingRule(resolute_rule("maximin", m))
        assert check_halfway_monotonicity(plain, n, m, sample=sample, seed=seed) == witness
        visited = visited_profiles(_Scan(resolute_rule("maximin", m), n, m, "reverse",
                                         "weak"), sample, seed)
        assert plain.calls == len(visited) + 2
        # the declared rule runs on exactly the keys of the visited profiles
        assert set(declared.calls) == set(map(keyspace.profile_key, visited))
        assert len(declared.calls) < len(visited)

    def test_hwm_maximin_counts_margins_only_to_revalidate(self, monkeypatch):
        # the kernel evaluates a "margins" rule on the margin key: no profile
        # has its margins counted but the witness's two, on revalidation
        counted = []
        count_margins = keyspace.profile_key

        def counting(profile):
            counted.append(profile)
            return count_margins(profile)

        monkeypatch.setattr(keyspace, "profile_key", counting)
        n, m = 6, 4
        witness = check_halfway_monotonicity(resolute_rule("maximin", m), n, m,
                                             sample=4000, seed=5)
        assert witness is not None
        assert counted == [witness.profile, witness.profile.reverse_vote(witness.voter)]

    def test_empty_set_names_the_same_profile(self):
        raised = 0
        for attempt in range(10):
            rule = EmptyOnSomeKeys(f"empty:{attempt}", 0.01)
            messages = []
            for wrap in (lambda rule: rule, CountingRule):
                try:
                    check_hwm_pessimistic(wrap(rule), 4, 3, sample=300, seed=attempt)
                except errors.PrefRevError as exc:
                    messages.append(str(exc))
            assert len(messages) in (0, 2)
            if messages:
                assert messages[0] == messages[1]
                assert messages[0].startswith("set-valued rule returned an empty set at ")
                raised += 1
        assert raised

    def test_condorcet_domain_is_tested_once_per_key(self, monkeypatch):
        # one domain memo serves every sampled block, not one per block
        tested = []
        winner = tally.key_condorcet_winner

        def counting(key, m):
            tested.append(key)
            return winner(key, m)

        monkeypatch.setattr(tally, "key_condorcet_winner", counting)
        assert check_manipulability(resolute_rule("maximin", 4), 4, 4, sample=300,
                                    seed=3, domain="condorcet") is None
        assert tested and max(Counter(tested).values()) == 1

    @pytest.mark.parametrize("prop", ["hwm", "participation", "manipulability"])
    def test_index_memos_hold_at_most_one_block(self, monkeypatch, prop):
        n, m, sample = 4, 3, 300
        created, sizes = [], []
        make, chunk = monotonicity._outcomes, monotonicity._scan_chunk

        def outcomes(*args, **kwargs):
            created.append(make(*args, **kwargs))
            return created[-1]

        def scan_chunk(*args, outcomes=None, **kwargs):
            sizes.append(tuple(map(len, outcomes)))
            found = chunk(*args, outcomes=outcomes, **kwargs)
            sizes.append(tuple(map(len, outcomes)))
            return found

        monkeypatch.setattr(monotonicity, "_outcomes", outcomes)
        monkeypatch.setattr(monotonicity, "_scan_chunk", scan_chunk)
        rule = resolute_rule("maximin", m)

        # an undeclared rule is memoised by profile index, cleared per block
        scan, _ = margin_scan(prop, n, m, {n - 1: CountingRule(rule), n: CountingRule(rule)})
        _run_scan(scan, budget=None, sample=sample, seed=3)
        (memos,) = created
        assert not any(memo.keyed for memo in memos)
        assert not any(map(any, sizes[::2]))
        assert all(size <= scan.block_span + 1 for pair in sizes[1::2] for size in pair)
        assert all(len(memo) == 0 for memo in memos)

        # a "margins" rule is memoised by margin key only: the memo outlives
        # the blocks, bounded by the profiles visited
        created.clear()
        sizes.clear()
        scan, _ = margin_scan(prop, n, m, {n - 1: rule, n: rule})
        _run_scan(scan, budget=None, sample=sample, seed=3)
        (memos,) = created
        assert all(memo.keyed for memo in memos)
        assert all(x <= y for a, b in zip(sizes, sizes[1:]) for x, y in zip(a, b))
        assert 0 < len(memos[0]) <= sample * (scan.block_span + 1)


class EmptyAtProfile:
    """Maximin as a singleton set rule, declared by voter order, that
    returns the empty set on the one profile with index ``empty``."""

    def __init__(self, m: int, empty: int):
        self.rule, self.empty = resolute_rule("maximin", m), empty

    def __call__(self, profile: Profile) -> frozenset[int]:
        if profile_to_index(profile) == self.empty:
            return frozenset()
        return frozenset((self.rule(profile),))


class TestSampledBlockOrder:
    # the sampled maximin scan of the golden witness: 4000 distinct blocks,
    # the least with a hit the 359th in ascending order and the 1818th drawn
    N, M, SAMPLE, SEED = 6, 4, 4000, 5

    def drawn_and_witness(self):
        scan = _Scan(resolute_rule("maximin", self.M), self.N, self.M, "reverse", "weak")
        witness = check_halfway_monotonicity(scan.rule, self.N, self.M,
                                             sample=self.SAMPLE, seed=self.SEED)
        return drawn_blocks(scan, self.SAMPLE, self.SEED), witness

    def test_an_error_past_the_least_hit_is_not_reached(self):
        drawn, witness = self.drawn_and_witness()
        hit = profile_to_index(witness.profile)
        # the first block drawn lies past the least hit in ascending order
        first = random.Random(self.SEED).randrange(num_profiles(self.N, self.M))
        assert hit < first and first in drawn
        found = check_hwm_optimistic(EmptyAtProfile(self.M, first), self.N, self.M,
                                     sample=self.SAMPLE, seed=self.SEED)
        assert found == SetReversalWitness(witness.profile, witness.voter,
                                           frozenset((witness.winner_before,)),
                                           frozenset((witness.winner_after,)),
                                           "optimistic")

    def test_an_error_before_the_least_hit_names_its_profile(self):
        drawn, witness = self.drawn_and_witness()
        hit = profile_to_index(witness.profile)
        before = drawn[drawn.index(hit) - 1]
        with pytest.raises(errors.PrefRevError) as exc:
            check_hwm_optimistic(EmptyAtProfile(self.M, before), self.N, self.M,
                                 sample=self.SAMPLE, seed=self.SEED)
        assert str(exc.value) == ("set-valued rule returned an empty set at "
                                  f"profile index {before}")

    def test_repeated_draws_visit_each_block_once(self):
        # 3000 draws over 216 blocks draw every block, most of them again and
        # again; the scan gives the exhaustive first witness and meets each
        # block once, up to the one with that witness
        table = tabulate_rule(resolute_rule("maximin", 3), 3, 3)
        corrupted, _, _ = plant_reversal_violation(table, rng=random.Random(1))
        scan = _Scan(corrupted, 3, 3, "reverse", "weak")
        sample, seed = 3000, 4
        assert drawn_blocks(scan, sample, seed) == list(range(num_profiles(3, 3)))
        plain = CountingRule(corrupted)
        witness = check_halfway_monotonicity(plain, 3, 3, sample=sample, seed=seed)
        exhaustive = check_halfway_monotonicity(corrupted, 3, 3)
        assert exhaustive is not None and witness == exhaustive
        assert plain.calls == len(visited_profiles(scan, sample, seed)) + 2

    def test_a_large_block_tries_each_vote_once(self):
        # one block of 20,000 voters over 24 orders: the "multiset" rule runs
        # on the truthful profile and once per distinct vote, and no place
        # values are built (all 20,000 of them hold about 110 MiB)
        rule = CountingRule(resolute_rule("plurality", 4), "multiset")
        tracemalloc.start()
        try:
            assert check_halfway_monotonicity(rule, 20_000, 4, sample=1) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rule.calls <= 1 + 24
        assert peak < 16 * 2**20, peak


# --- the per-profile kernel against a per-unit reference --------------------------


def in_sorted_order(votes) -> bool:
    return list(votes) == sorted(votes, key=order_index)


def first_event(prop: str, family, n: int, m: int, lo: int, hi: int, *,
                quotient: bool = False):
    """The first unit in [lo, hi) that violates or whose rule call raises:
    ``(unit, witness, None)``, ``(unit, None, error)`` or None.

    One divmod decode per unit and no memo: each unit builds its profiles
    and calls the rules afresh, the truthful profile first, and compares
    through :class:`LinearOrder`.  With ``quotient`` only the quotient
    path's units are tried (a sorted profile and the first voter of each
    order; for participation a sorted prefix), and the rules see sorted
    profiles."""
    kind, _, domain = prop.partition(":")
    orders = enumerate_orders(m)
    fact = len(orders)
    winners: dict = {}  # the Condorcet winner by profile, calling no rule

    def has_winner(profile) -> bool:
        if profile not in winners:
            winners[profile] = condorcet_winner(profile)
        return winners[profile] is not None

    def call(rule, profile):
        if quotient:
            profile = Profile(tuple(sorted(profile.votes, key=order_index)))
        value = rule(profile)
        if kind in SET_PROPERTIES and not value:
            raise errors.PrefRevError(f"set-valued rule returned an empty set at "
                                      f"profile index {profile_to_index(profile)}")
        return value

    for unit in range(lo, hi):
        if kind == "participation":
            profile = index_to_profile(unit, n, m)
            voter, vote = n - 1, profile.votes[-1]
            deviated = profile.remove_voter(voter)
            if quotient and not in_sorted_order(deviated.votes):
                continue
        else:
            row, lie = divmod(unit, fact) if kind == "manipulability" else (unit, None)
            index, voter = divmod(row, n)
            profile = index_to_profile(index, n, m)
            vote = profile.votes[voter]
            if quotient and (not in_sorted_order(profile.votes)
                             or voter and profile.votes[voter - 1] == vote):
                continue
            if kind == "manipulability":
                if orders[lie] == vote:
                    continue
                deviated = profile.replace_vote(voter, orders[lie])
                if domain == "condorcet" and not (has_winner(profile)
                                                  and has_winner(deviated)):
                    continue
            else:
                deviated = profile.reverse_vote(voter)
        try:
            before = call(family[n], profile)
            after = call(family[n - 1] if kind == "participation" else family[n], deviated)
        except errors.PrefRevError as exc:
            return unit, None, exc
        if kind == "participation":
            if vote.prefers(after, before):
                return unit, ParticipationWitness(deviated, vote, after, before, voter), None
        elif kind == "manipulability":
            if vote.prefers(after, before):
                return unit, ManipulationWitness(profile, voter, orders[lie], before, after), None
        elif kind in SET_PROPERTIES:
            best = vote.best_of if kind == "hwm-optimistic" else vote.worst_of
            if vote.prefers(best(after), best(before)):
                return unit, SetReversalWitness(profile, voter, before, after,
                                                kind[len("hwm-"):]), None
        elif (vote.prefers(after, before) if kind == "hwm"
              else after == vote.top and after != before):
            return unit, ReversalWitness(profile, voter, before, after), None
    return None


def event_result(event, region: int, total: int):
    """A checker's result when ``event`` is the first event of its scan and
    it covers the units [0, region)."""
    if event is not None and event[0] < region:
        unit, witness, error = event
        if error is not None:
            return ("error", type(error).__name__, str(error))
        return ("witness", unit, witness)
    return ("budget", region, total) if region < total else ("none",)


def witness_unit(prop: str, witness, n: int, m: int) -> int:
    if isinstance(witness, ParticipationWitness):
        return profile_to_index(witness.joined_profile())
    unit = profile_to_index(witness.profile) * n + witness.voter
    if isinstance(witness, ManipulationWitness):
        unit = unit * math.factorial(m) + order_index(witness.misreport)
    return unit


def checker_result(prop: str, check, n: int, m: int, **kw):
    try:
        witness = check(lambda rule: rule, **kw)
    except errors.BudgetExceeded as exc:
        return ("budget", exc.scanned, exc.total)
    except errors.PrefRevError as exc:
        return ("error", type(exc).__name__, str(exc))
    if witness is None:
        return ("none",)
    return ("witness", witness_unit(prop, witness, n, m), witness)


class SetProfileTable:
    """A set-valued profile table, shaped like a profile-mode RuleTable."""

    mode = "profile"

    def __init__(self, n: int, m: int, chosen: tuple):
        self.n, self.m, self.chosen = n, m, chosen

    def __call__(self, profile: Profile) -> frozenset[int]:
        return self.chosen[profile_to_index(profile)]


def kernel_cases(prop: str, n: int, m: int):
    """(name, family) pairs covering every way the kernel reads outcomes."""
    kind = prop.partition(":")[0]
    rng = random.Random(f"kernel:{prop}:{m}:{n}")
    sizes = (n - 1, n) if kind == "participation" else (n,)

    def table(size):
        if prop == "manipulability":  # borda is manipulable
            return tabulate_rule(resolute_rule("borda", m), size, m)
        if kind in ("participation", "manipulability"):
            return RuleTable(size, m, "profile", tuple(
                rng.randrange(m) for _ in range(num_profiles(size, m))))
        return plant_reversal_violation(tabulate_rule(resolute_rule("maximin", m), size, m),
                                        rng=rng)[0]

    def family(rule):
        return {size: rule for size in sizes}

    if kind in SET_PROPERTIES:
        sets = [frozenset(a for a in range(m) if rng.random() < 0.5)
                for _ in range(num_profiles(n, m))]
        cases = [(name, family(set_rule(name))) for name in SET_RULES]
        return cases + [
            ("lifted-table", {n: _Singleton(table(n))}),
            # some entries are empty, so it is called, not read, and raises
            ("set-table", {n: SetProfileTable(n, m, tuple(sets))}),
            ("lifted-borda", {n: _Singleton(resolute_rule("borda", m))}),
            ("undeclared", {n: lambda profile: set_rule("top-cycle")(profile)}),
            ("empty-sets", {n: EmptyOnSomeKeys(f"{prop}:{m}:{n}", 0.05)}),
        ]
    priority = list(range(m))
    rng.shuffle(priority)
    tie_break = LinearOrder(tuple(priority))
    borda = resolute_rule("borda", m, tie_break)
    return [
        ("table", {size: table(size) for size in sizes}),
        ("borda", family(borda)),
        ("plurality", family(resolute_rule("plurality", m, tie_break))),
        ("maximin", family(resolute_rule("maximin", m, tie_break))),
        ("condorcet", family(resolute_rule("condorcet", m))),
        ("undeclared", family(lambda profile: borda(profile))),
    ]


class TestKernelAgainstUnitReference:
    @pytest.mark.parametrize("m,n", [(3, 3), (4, 2)])
    @pytest.mark.parametrize("prop", KERNEL_PROPERTIES)
    def test_exhaustive_budgeted_and_sampled_runs_agree(self, prop, m, n):
        checked = set()
        for name, family in kernel_cases(prop, n, m):
            scan, check = margin_scan(prop, n, m, family)
            total, per_profile = scan.total_units, scan.voters * scan.width
            quotient = all(memo.by != "index" for memo in _outcomes(scan))
            event = first_event(prop, family, n, m, 0, total, quotient=quotient)
            margin_fit = (margin_units(scan) if all(memo.keyed for memo in _outcomes(scan))
                          else total)
            # exhaustive, and budgets cutting just before, at and inside the
            # profile of the first event, or inside the domain and at the
            # margin pass's size when there is none
            cuts = ((event[0], event[0] + 1, event[0] - event[0] % per_profile + 1)
                    if event is not None else
                    (total // 2 + 1, margin_fit - 1, margin_fit))
            budgets = [None] + [budget for budget in cuts if 0 < budget < total]
            for budget in budgets:
                region = total if budget is None else budget
                expected = event_result(event, region, total)
                if event is None and margin_fit <= region:
                    expected = ("none",)  # the margin pass certifies
                assert checker_result(prop, check, n, m, budget=budget) == expected, \
                    (name, budget)
                checked.add(expected[0])

            # sampled runs: the first event, hit or error, over the distinct
            # drawn blocks in ascending order
            for seed, sample in ((0, 1), (1, 7), (2, 40)):
                span = scan.block_span
                events = (first_event(prop, family, n, m, block * span, (block + 1) * span)
                          for block in drawn_blocks(scan, sample, seed))
                expected = event_result(next(filter(None, events), None), total, total)
                assert checker_result(prop, check, n, m, sample=sample, seed=seed) \
                    == expected, (name, seed, sample)
                checked.add(expected[0])
        # the cases reach witnesses and budget verdicts, and errors where the
        # Condorcet rule is called outside its domain
        assert {"witness", "budget"} <= checked
        assert "error" in checked or prop == "manipulability:condorcet"

    def test_table_of_another_size_still_raises(self):
        table = tabulate_rule(resolute_rule("borda", 3), 2, 3)
        message = "table is for n=2, m=3; profile has n=3, m=3"
        with pytest.raises(errors.PrefRevError, match=message):
            check_halfway_monotonicity(table, 3, 3)
        lifted = _Singleton(table)
        with pytest.raises(errors.PrefRevError, match=message):
            check_hwm_pessimistic(lifted, 3, 3)


# --- the table pass ------------------------------------------------------------------


def planted_table(n: int, m: int, rng: random.Random, planted: int | None) -> RuleTable:
    """A table of uniform random entries (``planted`` None), or of one
    constant entry with ``planted`` random entries changed."""
    total = num_profiles(n, m)
    if planted is None:
        return RuleTable(n, m, "profile", tuple(rng.randrange(m) for _ in range(total)))
    chosen = [rng.randrange(m)] * total
    for _ in range(planted):
        chosen[rng.randrange(total)] = rng.randrange(m)
    return RuleTable(n, m, "profile", tuple(chosen))


def scan_result(check, rule, n: int, m: int, budget: int | None):
    try:
        witness = check(rule, n, m, budget=budget)
    except errors.BudgetExceeded as exc:
        return ("budget", str(exc), exc.scanned, exc.total)
    return ("none",) if witness is None else ("witness", witness)


class TestTablePass:
    """The table pass against the kernel, which a plain wrapper forces: it
    exposes no ``mode`` or ``chosen``, so the scan calls it on profiles."""

    # (5, 3) and (6, 2) have strided slices of several low parts
    @pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(1, 5)
                                     if (n, m) != (4, 4)] + [(5, 3), (6, 2)])
    @pytest.mark.parametrize("check", [check_halfway_monotonicity, check_strong_reversal])
    def test_same_first_witness_and_budget_verdicts_as_the_kernel(self, n, m, check):
        rng = random.Random(f"table-pass:{check.__name__}:{n}:{m}")
        total = num_profiles(n, m) * n
        verdicts = set()
        for planted in (None, 0, 1, 2, 3, 4, 5):
            table = planted_table(n, m, rng, planted)
            expected = scan_result(check, lambda profile: table(profile), n, m, None)
            assert scan_result(check, table, n, m, None) == expected, planted
            verdicts.add(expected[0])
            # budgets that cut just before and just after the first witness,
            # or inside the domain when there is none
            cuts = ((witness_unit("hwm", expected[1], n, m),) * 2
                    if expected[0] == "witness" else (total - 1, rng.randrange(1, total + 1)))
            for budget in (cuts[0], cuts[1] + 1):
                if 0 < budget <= total:
                    assert scan_result(check, table, n, m, budget) == scan_result(
                        check, lambda profile: table(profile), n, m, budget), (planted, budget)
        assert "none" in verdicts
        assert "witness" in verdicts or num_profiles(n, m) <= 2

    def test_largest_size_matches_the_kernels_inline_reads(self, monkeypatch):
        # calling a wrapper on each of the 331,776 profiles of (4, 4) takes
        # seconds; the kernel reading the entries inline is the reference
        rng = random.Random("table-pass:4:4")
        tables = [planted_table(4, 4, rng, planted) for planted in (None, 2, 5)]
        results = [scan_result(check, table, 4, 4, budget)
                   for table in tables for budget in (None, 10_000)
                   for check in (check_halfway_monotonicity, check_strong_reversal)]
        monkeypatch.setattr(monotonicity, "_table_pass", lambda *args: None)
        assert results == [scan_result(check, table, 4, 4, budget)
                           for table in tables for budget in (None, 10_000)
                           for check in (check_halfway_monotonicity, check_strong_reversal)]

    def test_other_scans_never_enter_the_pass(self, monkeypatch):
        def entered(*args):
            raise AssertionError("the table pass compared slices")

        rng = random.Random("table-pass:other")
        big, small = planted_table(3, 3, rng, None), planted_table(2, 3, rng, None)
        runs = [
            lambda: check_manipulability(big, 3, 3),
            lambda: check_manipulability(big, 3, 3, domain="condorcet"),
            lambda: check_participation({2: small, 3: big}, 3, 3),
            lambda: check_halfway_monotonicity(big, 3, 3, sample=20, seed=1),
            lambda: check_strong_reversal(big, 3, 3, sample=20, seed=2),
            lambda: check_hwm_optimistic(_Singleton(big), 3, 3),
        ]
        expected = [run() for run in runs]
        monkeypatch.setattr(monotonicity, "_first_gain", entered)
        assert [run() for run in runs] == expected
        with pytest.raises(AssertionError, match="compared slices"):
            check_halfway_monotonicity(big, 3, 3)  # the pass does serve this one
