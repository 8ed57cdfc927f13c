import random
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

from prefrev.prefs import (
    Alternatives,
    Profile,
    enumerate_orders,
    iter_profiles,
    parse_order,
)
from prefrev.proofcheck import build_even_tree, build_odd_tree
from prefrev.tally import condorcet_winner, margin_matrix

ABC = Alternatives(("a", "b", "c"))
ABCD = Alternatives(("a", "b", "c", "d"))

# the 41-voter strong-paradox profile, columns as (count, ranking) text
PEREZ_COLUMNS = [
    (5, "xzytu"), (7, "xtuzy"), (3, "yxuzt"), (6, "yxtuz"), (1, "yuzxt"),
    (2, "ytuxz"), (3, "zyuxt"), (5, "zytxu"), (8, "uztyx"), (1, "tyzux"),
]
PEREZ_LABELS = "xyzut"


def profile_from(texts: list[str], alternatives: Alternatives) -> Profile:
    return Profile(tuple(parse_order(t, alternatives) for t in texts))


def string_tally_margin(columns, labels: str, a: str, b: str) -> int:
    # bare string-position recount, independent of the library types
    margin = 0
    for count, ranking in columns:
        margin += count if ranking.index(a) < ranking.index(b) else -count
    return margin


class TestMarginMatrix:
    def test_unanimous(self):
        profile = profile_from(["a>b>c"] * 3, ABC)
        margins = margin_matrix(profile)
        assert margins.rows[0][1] == margins.rows[0][2] == margins.rows[1][2] == 3

    def test_perez_against_string_recount(self):
        alternatives = Alternatives(tuple(PEREZ_LABELS))
        votes = []
        for count, ranking in PEREZ_COLUMNS:
            votes.extend([parse_order(">".join(ranking), alternatives)] * count)
        margins = margin_matrix(Profile(tuple(votes)))
        for i, a in enumerate(PEREZ_LABELS):
            for j, b in enumerate(PEREZ_LABELS):
                if i != j:
                    expected = string_tally_margin(PEREZ_COLUMNS, PEREZ_LABELS, a, b)
                    assert margins.rows[i][j] == expected
                    assert margins.rows[i][j] % 2 == 1
        assert margins.rows[PEREZ_LABELS.index("t")][PEREZ_LABELS.index("u")] > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_invariants_exhaustive_m3(self, n):
        for profile in iter_profiles(n, 3):
            margins = margin_matrix(profile)
            for a in range(3):
                assert margins.rows[a][a] == 0
                for b in range(3):
                    assert margins.rows[a][b] == -margins.rows[b][a]
                    assert abs(margins.rows[a][b]) <= n
                    if a != b:
                        assert (margins.rows[a][b] - n) % 2 == 0

    def test_reversal_changes_each_margin_by_two(self):
        rng = random.Random(11)
        orders = enumerate_orders(4)
        for _ in range(200):
            profile = Profile(tuple(rng.choice(orders) for _ in range(5)))
            voter = rng.randrange(5)
            before = margin_matrix(profile)
            after = margin_matrix(profile.reverse_vote(voter))
            vote = profile.votes[voter]
            assert after.rows == tuple(
                tuple(before.rows[a][b] - 2 * (vote.prefers(a, b) - vote.prefers(b, a))
                      for b in range(4))
                for a in range(4))

    def test_csv(self):
        profile = profile_from(["a>b>c"] * 2, ABC)
        csv_text = margin_matrix(profile).to_csv(ABC)
        assert csv_text == ",a,b,c\na,0,2,2\nb,-2,0,2\nc,-2,-2,0\n"


# leaf profiles of the odd tree, transcribed from their printed tables;
# the proofcheck tests additionally confirm the tree builder derives them
ODD_P2_COLUMNS = [(2, "abcd"), (3, "abdc"), (2, "acdb"), (1, "bdca"),
                  (4, "cabd"), (2, "dcab"), (1, "dcba")]
ODD_P3_COLUMNS = [(2, "abcd"), (3, "abdc"), (1, "bacd"), (3, "bdca"),
                  (2, "cabd"), (2, "dbac"), (1, "dcab"), (1, "dcba")]
ODD_P0_COLUMNS = [(1, "abcd"), (3, "abdc"), (3, "bdca"), (4, "cabd"),
                  (2, "dcab"), (2, "dcba")]


def profile_from_columns(columns, alternatives=ABCD) -> Profile:
    votes = []
    for count, ranking in columns:
        votes.extend([parse_order(">".join(ranking), alternatives)] * count)
    return Profile(tuple(votes))


class TestCondorcetWinner:
    def test_odd_tree_p2_is_c(self):
        assert condorcet_winner(profile_from_columns(ODD_P2_COLUMNS)) == 2

    def test_odd_tree_p3_is_a(self):
        assert condorcet_winner(profile_from_columns(ODD_P3_COLUMNS)) == 0

    def test_three_cycle(self):
        cycle = profile_from(["a>b>c", "b>c>a", "c>a>b"], ABC)
        assert condorcet_winner(cycle) is None

    def test_odd_tree_root_has_none(self):
        assert condorcet_winner(profile_from_columns(ODD_P0_COLUMNS)) is None

    def test_even_electorate_requires_strict_majority(self):
        tied = profile_from(["a>b>c", "b>a>c"], ABC)
        assert condorcet_winner(tied) is None
        clear = profile_from(["a>b>c", "a>c>b"], ABC)
        assert condorcet_winner(clear) == 0

    def test_winner_row_strictly_positive(self):
        # independent recount of the winner's pairwise contests
        for profile in iter_profiles(3, 3):
            winner = condorcet_winner(profile)
            if winner is None:
                continue
            for other in range(3):
                if other == winner:
                    continue
                wins = sum(1 for v in profile.votes if v.prefers(winner, other))
                assert wins > profile.n - wins

    @pytest.mark.parametrize("m", [4, 5, 6])
    @pytest.mark.parametrize("builder", [build_odd_tree, build_even_tree])
    def test_proof_tree_profiles_against_prefers_recount(self, builder, m):
        for profile in builder(m).profiles.values():
            beats = [[sum(v.prefers(a, b) for v in profile.votes) * 2 > profile.n
                      for b in range(m)] for a in range(m)]
            expected = [a for a in range(m) if all(beats[a][b] for b in range(m) if b != a)]
            assert condorcet_winner(profile) == (expected[0] if expected else None)


class TestCondorcetDomain:
    def test_unanimous_member(self):
        assert condorcet_winner(profile_from(["a>b>c"] * 3, ABC)) is not None

    def test_cycle_not_member(self):
        cycle = profile_from(["a>b>c", "b>c>a", "c>a>b"], ABC)
        assert condorcet_winner(cycle) is None

    def test_member_count_m3_n3(self):
        count = sum(condorcet_winner(p) is not None for p in iter_profiles(3, 3))
        total = 216
        # the 12 non-members are the voter-orderings of the two cyclic patterns
        cyclic = 0
        for profile in iter_profiles(3, 3):
            rankings = {v.ranking for v in profile.votes}
            if rankings in ({(0, 1, 2), (1, 2, 0), (2, 0, 1)},
                            {(0, 2, 1), (2, 1, 0), (1, 0, 2)}):
                cyclic += 1
        assert cyclic == 12
        assert count == total - cyclic == 204
        golden = (GOLDEN_DIR / "condorcet_count_m3_n3.txt").read_text().split()
        assert [int(golden[0]), int(golden[1])] == [count, total]
