import io
import random
from collections import deque

import pytest

from conftest import _Singleton, borda_vector, tabulate_rule
from prefrev import errors, keyspace, rules
from prefrev.prefs import (
    Alternatives,
    LinearOrder,
    Profile,
    enumerate_orders,
    iter_profiles,
    parse_order,
)
from prefrev.proofcheck import build_perez_profile
from prefrev.rules import (
    RESOLUTE_RULES,
    SET_RULES,
    MarginsRule,
    RuleTable,
    copeland_set,
    dodgson_scores,
    dodgson_winner,
    kemeny_rankings,
    maximin_scores,
    plurality_vector,
    plurality_winner,
    read_rule_table,
    resolute_rule,
    scoring_winner,
    set_rule,
    uncovered_set,
    write_rule_table,
)
from prefrev.tally import condorcet_winner, margin_matrix

ABC = Alternatives(("a", "b", "c"))
ABCD = Alternatives(("a", "b", "c", "d"))

CONDORCET_EXTENSIONS = ("maximin", "black", "baldwin", "nanson", "dodgson",
                        "kemeny", "schulze", "ranked-pairs")


def profile_from(texts, alternatives):
    return Profile(tuple(parse_order(t, alternatives) for t in texts))


@pytest.fixture(scope="module")
def perez():
    return build_perez_profile()


@pytest.fixture(scope="module")
def tb5():
    return LinearOrder(tuple(range(5)))


class TestPerezSuite:
    """The 41-voter showcase profile; every rule's outcome is pinned."""

    def test_borda_and_black(self, perez, tb5):
        profile, alts = perez
        assert alts.label_of(resolute_rule("borda", 5, tb5)(profile)) == "y"
        assert alts.label_of(resolute_rule("black", 5, tb5)(profile)) == "y"

    def test_maximin_strictly_unique(self, perez, tb5):
        profile, alts = perez
        scores = maximin_scores(keyspace.key_margins(keyspace.profile_key(profile), 5), 5)
        t = alts.id_of("t")
        assert all(scores[t] > scores[a] for a in range(5) if a != t)
        assert resolute_rule("maximin", 5, tb5)(profile) == t

    def test_kemeny_unique_ranking(self, perez, tb5):
        profile, alts = perez
        rankings = kemeny_rankings(profile)
        assert len(rankings) == 1
        assert [alts.label_of(a) for a in rankings[0].ranking] == \
            ["z", "y", "x", "t", "u"]
        assert alts.label_of(resolute_rule("kemeny", 5, tb5)(profile)) == "z"

    def test_baldwin_and_nanson(self, perez, tb5):
        profile, alts = perez
        assert alts.label_of(resolute_rule("baldwin", 5, tb5)(profile)) == "z"
        assert alts.label_of(resolute_rule("nanson", 5, tb5)(profile)) == "z"

    def test_dodgson_winner_and_t_score(self, perez, tb5):
        profile, alts = perez
        scores = dodgson_scores(profile)
        assert scores[alts.id_of("t")] == 15
        assert alts.label_of(dodgson_winner(profile, tb5)) == "y"

    def test_dodgson_y_score_with_constructive_witness(self, perez):
        profile, alts = perez
        y, z = alts.id_of("y"), alts.id_of("z")
        margins = margin_matrix(profile)
        # y trails only z; each adjacent swap moves that tally by at most 1
        deficit = (1 - margins.rows[y][z] + 1) // 2
        assert deficit == 8
        assert all(margins.rows[y][a] > 0 for a in range(5) if a not in (y, z))
        # 8 voters rank z immediately above y; swapping them suffices
        swapped = 0
        votes = list(profile.votes)
        for i, vote in enumerate(votes):
            pos = vote.positions()
            if pos[z] + 1 == pos[y] and swapped < 8:
                ranking = list(vote.ranking)
                ranking[pos[z]], ranking[pos[y]] = ranking[pos[y]], ranking[pos[z]]
                votes[i] = LinearOrder(tuple(ranking))
                swapped += 1
        assert swapped == 8
        assert condorcet_winner(Profile(tuple(votes))) == y
        assert dodgson_scores(profile)[y] == 8

    def test_schulze_and_ranked_pairs(self, perez, tb5):
        profile, alts = perez
        assert alts.label_of(resolute_rule("schulze", 5, tb5)(profile)) == "t"
        assert alts.label_of(resolute_rule("ranked-pairs", 5, tb5)(profile)) == "t"

    def test_uncovered_set(self, perez):
        profile, alts = perez
        assert alts.label_set(uncovered_set(profile)) == "{x,y,z}"


class TestScoringRules:
    def test_plurality_unanimous(self):
        profile = profile_from(["b>a>c"] * 4, ABC)
        assert plurality_winner(profile, LinearOrder(tuple(range(3)))) == 1

    def test_borda_single_voter(self):
        profile = profile_from(["c>a>d>b"], ABCD)
        assert resolute_rule("borda", 4, LinearOrder(tuple(range(4))))(profile) == 2

    def test_score_vector_validation(self):
        with pytest.raises(errors.PrefRevError):
            scoring_winner(profile_from(["a>b>c"], ABC),
                           borda_vector(4), LinearOrder(tuple(range(3))))
        from prefrev.rules import ScoreVector
        with pytest.raises(errors.PrefRevError):
            ScoreVector((0, 1, 2))

    def test_anonymity(self):
        rng = random.Random(5)
        orders = enumerate_orders(4)
        tie = LinearOrder(tuple(range(4)))
        for _ in range(100):
            votes = [rng.choice(orders) for _ in range(5)]
            shuffled = votes[:]
            rng.shuffle(shuffled)
            for vector in (borda_vector(4), plurality_vector(4)):
                assert scoring_winner(Profile(tuple(votes)), vector, tie) == \
                    scoring_winner(Profile(tuple(shuffled)), vector, tie)


def relabel_profile(profile: Profile, sigma: list[int]) -> Profile:
    return Profile(tuple(LinearOrder(tuple(sigma[a] for a in v.ranking))
                         for v in profile.votes))


class TestNeutralityWithTieBreak:
    @pytest.mark.parametrize("name", RESOLUTE_RULES)
    def test_relabelling_commutes(self, name):
        if name == "condorcet":
            pytest.skip("only defined on the Condorcet domain")
        rng = random.Random(17)
        m = 4
        orders = enumerate_orders(m)
        for _ in range(30):
            profile = Profile(tuple(rng.choice(orders) for _ in range(5)))
            sigma = list(range(m))
            rng.shuffle(sigma)
            tie = LinearOrder(tuple(rng.sample(range(m), m)))
            relabeled_tie = LinearOrder(tuple(sigma[a] for a in tie.ranking))
            rule = resolute_rule(name, m, tie)
            relabeled_rule = resolute_rule(name, m, relabeled_tie)
            assert relabeled_rule(relabel_profile(profile, sigma)) == \
                sigma[rule(profile)]


class TestCondorcetExtensions:
    @pytest.mark.parametrize("name", CONDORCET_EXTENSIONS)
    def test_exhaustive_m3_n3(self, name):
        rule = resolute_rule(name, 3)
        for profile in iter_profiles(3, 3):
            winner = condorcet_winner(profile)
            if winner is not None:
                assert rule(profile) == winner

    @pytest.mark.parametrize("name", CONDORCET_EXTENSIONS)
    def test_randomized_larger(self, name):
        rng = random.Random(23)
        for m, n in ((4, 5), (5, 3)):
            orders = enumerate_orders(m)
            rule = resolute_rule(name, m)
            checked = 0
            while checked < 25:
                profile = Profile(tuple(rng.choice(orders) for _ in range(n)))
                winner = condorcet_winner(profile)
                if winner is None:
                    continue
                assert rule(profile) == winner
                checked += 1


class TestSetRules:
    def test_condorcet_winner_collapses_all_sets(self):
        profile = profile_from(["a>b>c", "a>c>b", "b>a>c"], ABC)
        assert condorcet_winner(profile) == 0
        assert copeland_set(profile) == {0}
        assert uncovered_set(profile) == {0}
        assert set_rule("top-cycle")(profile) == {0}

    def test_three_cycle_top_cycle_is_everything(self):
        cycle = profile_from(["a>b>c", "b>c>a", "c>a>b"], ABC)
        assert set_rule("top-cycle")(cycle) == {0, 1, 2}
        assert uncovered_set(cycle) == {0, 1, 2}
        assert copeland_set(cycle) == {0, 1, 2}

    def test_uncovered_contains_copeland_on_tournaments(self):
        rng = random.Random(3)
        orders = enumerate_orders(4)
        for _ in range(100):
            profile = Profile(tuple(rng.choice(orders) for _ in range(5)))
            assert copeland_set(profile) <= uncovered_set(profile)

    def test_top_cycle_members_beat_outsiders(self):
        rng = random.Random(9)
        orders = enumerate_orders(5)
        for _ in range(100):
            profile = Profile(tuple(rng.choice(orders) for _ in range(5)))
            cycle = set_rule("top-cycle")(profile)
            margins = margin_matrix(profile)
            for inside in cycle:
                for outside in set(range(5)) - cycle:
                    assert margins.rows[inside][outside] > 0


class TestKemeny:
    def test_unanimous(self):
        profile = profile_from(["b>c>a"] * 3, ABC)
        assert kemeny_rankings(profile) == (parse_order("b>c>a", ABC),)

    def test_single_voter(self):
        profile = profile_from(["d>a>c>b"], ABCD)
        assert kemeny_rankings(profile) == (parse_order("d>a>c>b", ABCD),)

    def test_all_optima_attain_max_score(self):
        rng = random.Random(31)
        orders = enumerate_orders(4)
        for _ in range(30):
            profile = Profile(tuple(rng.choice(orders) for _ in range(4)))
            margins = margin_matrix(profile)

            def score(ranking):
                total = 0
                for i, a in enumerate(ranking):
                    for b in ranking[i + 1:]:
                        total += margins.rows[a][b]
                return total

            best = kemeny_rankings(profile)
            assert best
            values = {score(r.ranking) for r in best}
            assert len(values) == 1
            peak = values.pop()
            for other in orders:
                assert score(other.ranking) <= peak

    def test_m_too_large(self):
        profile = Profile((LinearOrder(tuple(range(8))),))
        with pytest.raises(errors.MTooLargeForExactKemeny):
            kemeny_rankings(profile)


class TestEliminationRules:
    def test_m2_majority(self):
        ab = Alternatives(("a", "b"))
        profile = profile_from(["b>a", "b>a", "a>b"], ab)
        tie = LinearOrder(tuple(range(2)))
        assert resolute_rule("baldwin", 2, tie)(profile) == 1
        assert resolute_rule("nanson", 2, tie)(profile) == 1

    def test_nanson_all_tied_falls_back_to_tie_break(self):
        cycle = profile_from(["a>b>c", "b>c>a", "c>a>b"], ABC)
        assert resolute_rule("nanson", 3, parse_order("c>b>a", ABC))(cycle) == 2
        assert resolute_rule("nanson", 3, LinearOrder(tuple(range(3))))(cycle) == 0

    def test_baldwin_eliminates_tie_break_worst(self):
        # a,b,c tie at Borda 3; the priority-worst goes first, then the
        # remaining pair is settled by majority (b beats c, a beats b)
        cycle = profile_from(["a>b>c", "b>c>a", "c>a>b"], ABC)
        assert resolute_rule("baldwin", 3, parse_order("c>b>a", ABC))(cycle) == 1
        assert resolute_rule("baldwin", 3, LinearOrder(tuple(range(3))))(cycle) == 0


class TestDodgson:
    def test_condorcet_winner_scores_zero(self):
        profile = profile_from(["a>b>c", "a>c>b", "b>a>c"], ABC)
        assert dodgson_scores(profile)[0] == 0

    def test_bfs_oracle_agreement(self):
        rng = random.Random(41)
        orders = enumerate_orders(3)
        for _ in range(25):
            profile = Profile(tuple(rng.choice(orders) for _ in range(3)))
            scores = dodgson_scores(profile)
            oracle = bfs_swap_distances(profile, cap=4)
            for alt in range(3):
                if oracle[alt] is not None:
                    assert scores[alt] == oracle[alt]
                else:
                    assert scores[alt] > 4

    def test_budget_caps(self):
        profile = Profile(tuple(enumerate_orders(3)[:1]) * 65)
        with pytest.raises(errors.BudgetExceeded):
            dodgson_scores(profile)


def bfs_swap_distances(profile: Profile, cap: int) -> dict[int, int | None]:
    """Breadth-first search over adjacent-swap moves, up to ``cap`` swaps."""
    found: dict[int, int | None] = {a: None for a in range(profile.m)}
    start = tuple(v.ranking for v in profile.votes)
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        state, depth = frontier.popleft()
        winner = condorcet_winner(Profile(tuple(LinearOrder(r) for r in state)))
        if winner is not None and found[winner] is None:
            found[winner] = depth
        if depth == cap:
            continue
        for voter in range(profile.n):
            for pos in range(profile.m - 1):
                ranking = list(state[voter])
                ranking[pos], ranking[pos + 1] = ranking[pos + 1], ranking[pos]
                nxt = state[:voter] + (tuple(ranking),) + state[voter + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((nxt, depth + 1))
    return found


class TestMaximin:
    def test_cycle_tie_break(self):
        cycle = profile_from(["a>b>c", "b>c>a", "c>a>b"], ABC)
        assert resolute_rule("maximin", 3, LinearOrder(tuple(range(3))))(cycle) == 0
        assert resolute_rule("maximin", 3, parse_order("b>a>c", ABC))(cycle) == 1


class TestTwoAlternatives:
    def test_majority_winner_everywhere(self):
        ab = Alternatives(("a", "b"))
        profile = profile_from(["b>a", "b>a", "a>b"], ab)
        tie = LinearOrder(tuple(range(2)))
        for name in ("maximin", "schulze", "ranked-pairs", "black",
                     "kemeny", "dodgson"):
            assert resolute_rule(name, 2, tie)(profile) == 1


class TestBlack:
    def test_no_condorcet_winner_means_borda(self):
        rng = random.Random(13)
        orders = enumerate_orders(4)
        tie = LinearOrder(tuple(range(4)))
        black, borda = resolute_rule("black", 4, tie), resolute_rule("borda", 4, tie)
        seen = 0
        while seen < 20:
            profile = Profile(tuple(rng.choice(orders) for _ in range(5)))
            if condorcet_winner(profile) is not None:
                continue
            assert black(profile) == borda(profile)
            seen += 1


class TestRuleTable:
    def test_tabulated_rule_matches_origin(self):
        table = tabulate_rule(resolute_rule("maximin", 3), 2, 3)
        rule = resolute_rule("maximin", 3)
        for profile in iter_profiles(2, 3):
            assert table(profile) == rule(profile)

    def test_file_round_trip_profile_mode(self):
        table = tabulate_rule(resolute_rule("borda", 3), 2, 3)
        sink = io.StringIO()
        write_rule_table(table, sink)
        again = read_rule_table(io.StringIO(sink.getvalue()))
        assert again == table

    def test_file_round_trip_c2_mode(self):
        chosen = {}
        maximin = resolute_rule("maximin", 3, LinearOrder(tuple(range(3))))
        for profile in iter_profiles(2, 3):
            chosen.setdefault(keyspace.profile_key(profile), maximin(profile))
        table = RuleTable(2, 3, "c2", chosen)
        sink = io.StringIO()
        write_rule_table(table, sink)
        again = read_rule_table(io.StringIO(sink.getvalue()))
        assert again.chosen == table.chosen

    def test_c2_keying_ignores_voter_order(self):
        chosen = {}
        for profile in iter_profiles(2, 3):
            chosen.setdefault(keyspace.profile_key(profile), 0)
        table = RuleTable(2, 3, "c2", chosen)
        orders = enumerate_orders(3)
        p = Profile((orders[1], orders[4]))
        q = Profile((orders[4], orders[1]))
        assert table(p) == table(q)

    def test_domain_mismatch_on_wrong_n(self):
        table = tabulate_rule(resolute_rule("borda", 3), 2, 3)
        three_voters = Profile(tuple(enumerate_orders(3)[:1]) * 3)
        with pytest.raises(errors.PrefRevError,
                           match="table is for n=2, m=3; profile has n=3, m=3"):
            table(three_voters)

    def test_missing_entry_in_c2(self):
        table = RuleTable(2, 3, "c2", {})
        profile = Profile(tuple(enumerate_orders(3)[:1]) * 2)
        with pytest.raises(errors.PrefRevError, match="no entry for margin key "):
            table(profile)

    @pytest.mark.parametrize("mode,lines", [
        ("profile", "0,a\n1,b\n0,b\n"),
        ("profile", "0,a\n1,b\n00,b\n"),
        ("c2", "0_1_-1_0,a\n0_-1_1_0,b\n0_1_-1_0,b\n"),
    ])
    def test_repeated_key_names_both_lines(self, mode, lines):
        source = io.StringIO(f"n=1 m=2 mode={mode}\n{lines}")
        with pytest.raises(errors.PrefRevError,
                           match="line 4: key .* repeats the key of line 2"):
            read_rule_table(source)

    @pytest.mark.parametrize("key", [
        "garbage", "0_1_-1", "0_1_-1_0_0",          # entry count
        "1_1_-1_0", "0_1_-1_2",                     # nonzero diagonal
        "0_1_1_0", "0_3_-1_0",                      # asymmetric
        "0_+1_-1_0", "0_01_-1_0", "-0_1_-1_0",      # non-canonical spelling
        "0_2147483648_-2147483648_0",               # out of range
        "0_-2147483648_2147483648_0",
    ])
    def test_malformed_c2_key_names_the_line(self, key):
        source = io.StringIO(f"n=1 m=2 mode=c2\n0_-1_1_0,b\n{key},a\n")
        with pytest.raises(errors.PrefRevError,
                           match="rule-table line 3: not a margin key"):
            read_rule_table(source)

    def test_unknown_label_in_table(self):
        with pytest.raises(errors.PrefRevError,
                           match="^rule-table line 3: unknown alternative label: 'c'$"):
            read_rule_table(io.StringIO("n=1 m=2 mode=profile\n0,a\n1,c\n"))

    def test_written_body_is_read_in_bulk(self):
        table = tabulate_rule(resolute_rule("maximin", 4), 2, 4)
        sink = io.StringIO()
        write_rule_table(table, sink)
        body = sink.getvalue().partition("\n")[2]
        ids = {"a": 0, "b": 1, "c": 2, "d": 3}
        assert rules._written_entries(body, 2, 4, ids) == table.chosen
        assert rules._written_entries(body[:-1], 2, 4, ids) == table.chosen
        assert rules._written_entries(body.replace("\n", "\r\n"), 2, 4, ids) is None
        for n, m in ((1, 4), (3, 4), (2, 3), (10 ** 9, 8)):  # a domain of another size
            assert rules._written_entries(body, n, m, ids) is None

    @pytest.mark.parametrize("edit", [
        "canonical", "no final newline", "crlf", "blank line", "comment line",
        "space before comma", "space after comma", "space after label", "key +1",
        "key 01", "out of order", "repeated key", "missing key", "empty label",
        "unknown label", "extra comma", "no comma", "two final newlines",
        "key past the end",
    ])
    def test_bulk_read_matches_the_line_by_line_read(self, edit, monkeypatch, tmp_path):
        sink = io.StringIO()
        write_rule_table(tabulate_rule(resolute_rule("maximin", 3), 2, 3), sink)
        header, *lines = sink.getvalue().splitlines()
        edits = {
            "canonical": lambda: lines,
            "no final newline": lambda: lines,
            "crlf": lambda: [line + "\r" for line in lines],
            "blank line": lambda: lines[:5] + [""] + lines[5:],
            "comment line": lambda: ["# decoded"] + lines,
            "space before comma": lambda: [lines[0].replace(",", " ,")] + lines[1:],
            "space after comma": lambda: lines[:-1] + [lines[-1].replace(",", ", ")],
            "space after label": lambda: lines[:7] + [lines[7] + " "] + lines[8:],
            "key +1": lambda: lines[:1] + ["+" + lines[1]] + lines[2:],
            "key 01": lambda: lines[:1] + ["0" + lines[1]] + lines[2:],
            "out of order": lambda: [lines[1], lines[0]] + lines[2:],
            "repeated key": lambda: lines + [lines[3]],
            "missing key": lambda: lines[:-1],
            "empty label": lambda: ["0,,a"] + lines[1:],
            "unknown label": lambda: lines[:-1] + ["35,x1"],
            "extra comma": lambda: lines[:2] + [lines[2] + ",a"] + lines[3:],
            "no comma": lambda: lines[:2] + [lines[2].replace(",", "")] + lines[3:],
            "two final newlines": lambda: lines + [""],
            "key past the end": lambda: lines[:-1] + ["36,a"],
        }
        text = "\n".join([header] + edits[edit]())
        if edit != "no final newline":
            text += "\n"

        def read(source):
            try:
                return read_rule_table(source)
            except errors.PrefRevError as exc:
                return type(exc).__name__, str(exc)

        path = tmp_path / "table.txt"
        path.write_bytes(text.encode())  # opened as the CLI opens it
        with open(path, encoding="utf-8") as handle:
            bulk = read(io.StringIO(text)), read(handle)
        monkeypatch.setattr(rules, "_written_entries", lambda *args: None)
        with open(path, encoding="utf-8") as handle:
            assert bulk == (read(io.StringIO(text)), read(handle))
        if edit in ("canonical", "no final newline", "crlf", "blank line",
                    "comment line", "space after label", "space after comma"):
            assert isinstance(bulk[0], RuleTable)

    def test_partial_profile_table_rejected(self):
        with pytest.raises(errors.PrefRevError,
                           match="profile table has 35 entries, needs 36"):
            RuleTable(2, 3, "profile", (0,) * 35)

    def test_unknown_rule(self):
        with pytest.raises(errors.PrefRevError, match="unknown rule 'approval'; known: "):
            resolute_rule("approval", 3)
        with pytest.raises(errors.PrefRevError,
                           match="unknown set rule 'bipartisan'; known: "):
            set_rule("bipartisan")


# --- declared dependence ----------------------------------------------------------


def outcome_or_undefined(rule, profile):
    try:
        return rule(profile)
    except errors.PrefRevError as exc:  # the Condorcet rule off its domain
        assert str(exc).startswith("the Condorcet rule is only defined")
        return None


def assert_declaration_holds(rule, n: int, m: int) -> None:
    """Every profile gets the outcome of its sorted votes (so permuting the
    voters changes nothing); a "margins" rule also gives one outcome per
    margin key."""
    assert rule.depends_on in ("multiset", "margins")
    by_key = {}
    for profile in iter_profiles(n, m):
        outcome = outcome_or_undefined(rule, profile)
        ordered = Profile(tuple(sorted(profile.votes, key=lambda v: v.ranking)))
        assert outcome_or_undefined(rule, ordered) == outcome, profile
        if rule.depends_on == "margins":
            key = margin_matrix(profile).rows
            assert by_key.setdefault(key, outcome) == outcome, profile


def restricted_borda(profile: Profile, active: list[int]) -> dict[int, int]:
    """Borda scores of the votes restricted to the active alternatives."""
    scores = {a: 0 for a in active}
    for vote in profile.votes:
        below = len(active) - 1
        for alt in vote.ranking:
            if alt in scores:
                scores[alt] += below
                below -= 1
    return scores


def vote_baldwin(profile: Profile, tie: LinearOrder) -> int:
    active = list(range(profile.m))
    while len(active) > 1:
        scores = restricted_borda(profile, active)
        low = min(scores.values())
        active.remove(tie.worst_of([a for a in active if scores[a] == low]))
    return active[0]


def vote_nanson(profile: Profile, tie: LinearOrder) -> int:
    active = list(range(profile.m))
    while len(active) > 1:
        scores = restricted_borda(profile, active)
        average = sum(scores.values()) / len(active)
        kept = [a for a in active if scores[a] >= average]
        if len(kept) == len(active):
            break
        active = kept
    return tie.best_of(active)


class TestDependsOn:
    @pytest.mark.parametrize("m,n", [(3, 3), (4, 2)])
    @pytest.mark.parametrize("name", RESOLUTE_RULES + SET_RULES)
    def test_registry_rule_declaration_holds(self, name, m, n):
        rng = random.Random(f"{name}:{m}:{n}")
        if name in SET_RULES:
            rule = set_rule(name)
        else:
            priority = LinearOrder(tuple(rng.sample(range(m), m)))
            rule = resolute_rule(name, m, priority)
        assert_declaration_holds(rule, n, m)

    def test_margin_rules_are_the_declared_ones(self):
        margins = {name for name in RESOLUTE_RULES
                   if resolute_rule(name, 3).depends_on == "margins"}
        assert margins == {"borda", "black", "maximin", "kemeny", "baldwin",
                           "nanson", "schulze", "ranked-pairs", "condorcet"}
        assert all(set_rule(name).depends_on == "margins" for name in SET_RULES)
        # a "margins" rule is read by margin key through its entry point
        assert all(hasattr(resolute_rule(name, 3), "on_key") for name in margins)
        assert all(hasattr(set_rule(name), "on_key") for name in SET_RULES)

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 2), (4, 3)])
    def test_borda_family_on_margins_matches_the_votes(self, m, n):
        # Borda, Black, Baldwin and Nanson read the margins through row sums;
        # these references count restricted Borda scores from the votes
        rng = random.Random(f"borda-family:{m}:{n}")
        tie = LinearOrder(tuple(rng.sample(range(m), m)))
        rule = {name: resolute_rule(name, m, tie)
                for name in ("borda", "black", "baldwin", "nanson")}
        for profile in iter_profiles(n, m):
            borda = scoring_winner(profile, borda_vector(m), tie)
            assert rule["borda"](profile) == borda
            winner = condorcet_winner(profile)
            assert rule["black"](profile) == (borda if winner is None else winner)
            assert rule["baldwin"](profile) == vote_baldwin(profile, tie)
            assert rule["nanson"](profile) == vote_nanson(profile, tie)

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 2)])
    def test_c2_table_declares_margins_and_holds(self, m, n):
        rng = random.Random(f"c2:{m}:{n}")
        keys = sorted({keyspace.profile_key(p) for p in iter_profiles(n, m)})
        table = RuleTable(n, m, "c2", {key: rng.randrange(m) for key in keys})
        assert table.depends_on == "margins"
        assert_declaration_holds(table, n, m)

    def test_profile_table_depends_on_order(self):
        table = tabulate_rule(resolute_rule("borda", 3), 2, 3)
        assert table.depends_on == "order"


# --- the margin-key entry point -------------------------------------------------


def key_realizations(n: int, m: int) -> dict[int, tuple[int, ...]]:
    """One realization (canonical order indices) of every margin key of n
    voters, by the set DP with the first realization found kept."""
    level = {keyspace.empty_key(m): ()}
    for _ in range(n):
        reached: dict[int, tuple[int, ...]] = {}
        for key, digits in level.items():
            for order_ix, vote in enumerate(keyspace.vote_keys(m)):
                reached.setdefault(key + vote, digits + (order_ix,))
        level = reached
    return level


def sampled_realizations(n: int, m: int, count: int,
                         seed: str) -> dict[int, tuple[int, ...]]:
    """``count`` distinct margin keys of seeded random n-voter profiles."""
    rng = random.Random(seed)
    found: dict[int, tuple[int, ...]] = {}
    while len(found) < count:
        digits = tuple(rng.randrange(len(enumerate_orders(m))) for _ in range(n))
        found.setdefault(keyspace.digits_key(m, digits), digits)
    return found


def outcome_or_error(evaluate, *args):
    try:
        return ("outcome", evaluate(*args))
    except errors.PrefRevError as exc:
        return ("error", type(exc).__name__, str(exc))


def keyed_cases(n: int, m: int, keys, rng: random.Random):
    """(name, rule) for every kind of rule read by margin key: each registry
    "margins" rule under a seeded tie-break, the set rules, the singleton
    lift, and random c2 tables (one with a missing entry)."""
    cases = []
    for name in RESOLUTE_RULES:
        rule = resolute_rule(name, m, LinearOrder(tuple(rng.sample(range(m), m))))
        if rule.depends_on == "margins":
            cases.append((name, rule))
    cases += [(name, set_rule(name)) for name in SET_RULES]
    table = RuleTable(n, m, "c2", {key: rng.randrange(m) for key in sorted(keys)})
    dropped = rng.choice(sorted(keys))
    holed = RuleTable(n, m, "c2", {k: w for k, w in table.chosen.items() if k != dropped})
    cases += [("c2", table), ("c2-missing", holed),
              ("lifted-maximin", _Singleton(resolute_rule("maximin", m))),
              ("lifted-condorcet", _Singleton(resolute_rule("condorcet", m))),
              ("lifted-c2", _Singleton(table))]
    return cases


def recount(votes, m: int) -> tuple[tuple[int, ...], ...]:
    """Margin rows recounted pair by pair with ``LinearOrder.prefers``."""
    return tuple(tuple(sum(v.prefers(a, b) for v in votes)
                       - sum(v.prefers(b, a) for v in votes) for b in range(m))
                 for a in range(m))


def profile_form(rule, profile: Profile, rows):
    """A rule's outcome on a profile apart from its key entry point: a
    :class:`MarginsRule`, lifted or not, runs its implementation on the
    recounted margin rows, flattened row-major; any other rule is called on
    the profile."""
    if isinstance(rule, _Singleton) and isinstance(rule.rule, MarginsRule):
        return frozenset((profile_form(rule.rule, profile, rows),))
    if isinstance(rule, MarginsRule):
        return rule.impl(sum(rows, ()), profile.m, *rule.args)
    return rule(profile)


class TestKeyEntryPoint:
    @pytest.mark.parametrize("m,n", [(3, 4), (4, 3), (3, 5), (4, 6)])
    def test_entry_point_equals_the_profile_form(self, m, n):
        if (m, n) == (4, 6):
            realizations = sampled_realizations(n, m, 2000, f"keys:{m}:{n}")
        else:
            realizations = key_realizations(n, m)
            assert set(realizations) == keyspace.margin_levels(n, m)[1]
        rng = random.Random(f"entry:{m}:{n}")
        orders = enumerate_orders(m)
        cases = keyed_cases(n, m, realizations, rng)
        seen = set()
        for key, digits in realizations.items():
            profile = Profile(tuple(orders[d] for d in digits))
            rows = recount(profile.votes, m)
            for name, rule in cases:
                expected = outcome_or_error(profile_form, rule, profile, rows)
                assert outcome_or_error(rule.on_key, key, n, m) == expected, (name, digits)
                seen.add((name, expected[0]))
        # the Condorcet rule and the holed table raise on some keys
        assert {("condorcet", "error"), ("c2-missing", "error"),
                ("lifted-condorcet", "error")} <= seen

    def test_table_entry_point_checks_the_size(self):
        table = RuleTable(2, 3, "c2", {keyspace.digits_key(3, (0, 1)): 0})
        three_voters = Profile(tuple(enumerate_orders(3)[:1]) * 3)
        key = keyspace.digits_key(3, (0, 0, 0))
        assert (outcome_or_error(table.on_key, key, 3, 3)
                == outcome_or_error(table, three_voters)
                == ("error", "PrefRevError",
                    "table is for n=2, m=3; profile has n=3, m=3"))
        with pytest.raises(errors.PrefRevError, match="not keyed by margins"):
            tabulate_rule(resolute_rule("borda", 3), 2, 3).on_key(key, 2, 3)
