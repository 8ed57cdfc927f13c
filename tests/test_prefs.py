import io
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefrev import errors
from prefrev.prefs import (
    Alternatives,
    LinearOrder,
    Profile,
    default_labels,
    enumerate_orders,
    format_order,
    format_profile,
    index_to_profile,
    iter_digits,
    iter_profiles,
    num_profiles,
    order_index,
    parse_order,
    parse_profile,
    places,
    profile_to_index,
)
from prefrev.tally import condorcet_winner, margin_matrix

ABCD = Alternatives(("a", "b", "c", "d"))


def order(text: str, alternatives: Alternatives = ABCD) -> LinearOrder:
    return parse_order(text, alternatives)


def random_profile(rng: random.Random, n: int, m: int) -> Profile:
    orders = enumerate_orders(m)
    return Profile(tuple(rng.choice(orders) for _ in range(n)))


class TestParseOrder:
    def test_reads_left_to_right(self):
        assert order("a>b>c>d").ranking == (0, 1, 2, 3)

    def test_reverse_text(self):
        assert order("d>c>b>a").ranking == (3, 2, 1, 0)

    def test_whitespace_tolerated(self):
        assert order(" a > b>c >d ").ranking == (0, 1, 2, 3)

    def test_duplicate_label(self):
        with pytest.raises(errors.PrefRevError,
                           match="^duplicate alternative label: 'b'$"):
            order("a>b>b>d")

    def test_unknown_label(self):
        with pytest.raises(errors.PrefRevError,
                           match="^unknown alternative label: 'e'$"):
            order("a>b>c>e")

    def test_missing_alternative(self):
        with pytest.raises(errors.PrefRevError,
                           match="^order does not rank alternative: 'd'$"):
            order("a>b>c")

    def test_format_round_trip(self):
        for text in ("a>b>c>d", "d>b>a>c", "c>a>d>b"):
            assert format_order(order(text), ABCD) == text


class TestReverse:
    def test_definition(self):
        assert order("a>b>c>d").reverse() == order("d>c>b>a")
        assert order("a>b>d>c").reverse() == order("c>d>b>a")

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_involution_exhaustive(self, m):
        for o in enumerate_orders(m):
            assert o.reverse().reverse() == o

    def test_reverse_flips_every_comparison(self):
        o = order("b>d>a>c")
        r = o.reverse()
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert o.prefers(a, b) != r.prefers(a, b)


class TestEnumerateOrders:
    def test_m3(self):
        orders = enumerate_orders(3)
        assert len(orders) == 6
        assert orders[0].ranking == (0, 1, 2)
        assert orders[5].ranking == (2, 1, 0)

    def test_m4_count(self):
        assert len(enumerate_orders(4)) == 24

    def test_m1(self):
        assert enumerate_orders(1) == (LinearOrder((0,)),)

    def test_too_large(self):
        with pytest.raises(errors.PrefRevError,
                           match=r"m=9 outside enumerable range 1\.\.8"):
            enumerate_orders(9)

    def test_order_index_inverse(self):
        for i, o in enumerate(enumerate_orders(4)):
            assert order_index(o) == i


class TestProfileIndex:
    def test_single_voter_identity(self):
        profile = Profile((enumerate_orders(3)[0],))
        assert profile_to_index(profile) == 0

    def test_positional_encoding(self):
        orders = enumerate_orders(3)
        profile = Profile((orders[1], orders[4]))
        assert profile_to_index(profile) == 1 * 6 + 4

    def test_out_of_range(self):
        with pytest.raises(errors.PrefRevError,
                           match=r"profile index 36 not in 0\.\.35"):
            index_to_profile(num_profiles(2, 3), 2, 3)
        with pytest.raises(errors.PrefRevError,
                           match=r"profile index -1 not in 0\.\.35"):
            index_to_profile(-1, 2, 3)

    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_round_trip(self, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 4))
        index = data.draw(st.integers(0, num_profiles(n, m) - 1))
        assert profile_to_index(index_to_profile(index, n, m)) == index

    def test_places_are_powers_of_m_factorial(self):
        assert places(5, 3) == tuple(6 ** (4 - voter) for voter in range(5))

    def test_iter_profiles_matches_indexing(self):
        for index, profile in enumerate(iter_profiles(2, 3)):
            assert profile_to_index(profile) == index

    @pytest.mark.parametrize("n,m", [(1, 3), (3, 3), (2, 4), (4, 2)])
    def test_iter_digits_matches_itertools(self, n, m):
        # the reference: every digit tuple, numbered, and kept when in
        # [start, stop) with its first k digits non-decreasing
        fact = math.factorial(m)
        every = list(enumerate(itertools.product(range(fact), repeat=n)))
        total = len(every)
        for k in sorted({0, n - 1, n}):
            kept = [i for i, digits in every if list(digits[:k]) == sorted(digits[:k])]
            keep = set(kept)
            # bounds on kept profiles, just past them and between them
            bounds = sorted({0, 1, total // 3, total // 2, total - 1, total,
                             *kept[1:4], *(i + 1 for i in kept[1:4]), kept[-1]})
            for start, stop in itertools.combinations_with_replacement(bounds, 2):
                expected = [(i, digits) for i, digits in every
                            if start <= i < stop and i in keep]
                walked = [(i, tuple(digits)) for i, digits in
                          iter_digits(n, m, start, stop, sorted_prefix=k)]
                assert walked == expected, (k, start, stop)
            assert ([(i, tuple(d)) for i, d in iter_digits(n, m, sorted_prefix=k)]
                    == [every[i] for i in kept])


class TestProfileEditing:
    def setup_method(self):
        self.profile = Profile((order("a>b>c>d"), order("b>a>d>c"),
                                order("d>c>b>a")))

    def test_replace_with_own_vote_is_identity(self):
        assert self.profile.replace_vote(1, self.profile.votes[1]) == self.profile

    def test_replace_is_value_producing(self):
        changed = self.profile.replace_vote(0, order("d>a>b>c"))
        assert self.profile.votes[0] == order("a>b>c>d")
        assert changed.votes[0] == order("d>a>b>c")

    def test_remove_then_add_permutes_multiset(self):
        removed = self.profile.remove_voter(0)
        back = removed.insert_voter(removed.n, self.profile.votes[0])
        assert sorted(v.ranking for v in back.votes) == \
            sorted(v.ranking for v in self.profile.votes)

    def test_reverse_vote(self):
        flipped = self.profile.reverse_vote(2)
        assert flipped.votes[2] == order("a>b>c>d")
        assert flipped.votes[:2] == self.profile.votes[:2]

    def test_voter_out_of_range(self):
        with pytest.raises(errors.PrefRevError, match=r"voter 3 not in 0\.\.2"):
            self.profile.replace_vote(3, order("a>b>c>d"))
        with pytest.raises(errors.PrefRevError, match=r"voter -1 not in 0\.\.2"):
            self.profile.remove_voter(-1)

    def test_last_voter_cannot_be_removed(self):
        single = Profile((order("a>b>c>d"),))
        with pytest.raises(errors.PrefRevError) as caught:
            single.remove_voter(0)
        assert str(caught.value) == "cannot remove the last voter"

    @pytest.mark.parametrize("position", [-1, 4])
    def test_insert_position_out_of_range(self, position):
        with pytest.raises(errors.PrefRevError) as caught:
            self.profile.insert_voter(position, order("a>b>c>d"))
        assert str(caught.value) == f"insert position {position} not in 0..3"


class TestPadProfile:
    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_margins_unchanged(self, data):
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, 4))
        orders = enumerate_orders(m)
        profile = Profile(tuple(
            orders[data.draw(st.integers(0, len(orders) - 1))] for _ in range(n)))
        pad = orders[data.draw(st.integers(0, len(orders) - 1))]
        padded = profile.pad(pad)
        assert padded.n == n + 2
        assert margin_matrix(padded).rows == margin_matrix(profile).rows

    def test_condorcet_winner_preserved(self):
        rng = random.Random(2024)
        hits = 0
        for _ in range(200):
            profile = random_profile(rng, 5, 4)
            pad = random_profile(rng, 1, 4).votes[0]
            before = condorcet_winner(profile)
            assert condorcet_winner(profile.pad(pad)) == before
            hits += before is not None
        assert hits > 0  # the property was not vacuous

    def test_pad_twice(self):
        profile = Profile((order("a>b>c>d"), order("c>d>a>b")))
        twice = profile.pad(order("b>c>a>d")).pad(order("d>a>c>b"))
        assert twice.n == profile.n + 4
        assert margin_matrix(twice).rows == margin_matrix(profile).rows

    def test_exhaustive_small(self):
        # every m=3 profile with n<=3, padded by every order
        for n in (1, 2, 3):
            for profile in iter_profiles(n, 3):
                for pad in enumerate_orders(3):
                    assert margin_matrix(profile.pad(pad)).rows == \
                        margin_matrix(profile).rows


class TestProfileTextFormat:
    TEXT = """\
# a comment
m=4 labels=a,b,c,d
2: a>b>c>d
1: d>c>b>a
"""

    def test_parse(self):
        profile, alternatives = parse_profile(self.TEXT)
        assert alternatives.labels == ("a", "b", "c", "d")
        assert profile.n == 3
        assert profile.votes[0] == profile.votes[1] == order("a>b>c>d")
        assert profile.votes[2] == order("d>c>b>a")

    def test_round_trip(self):
        profile, alternatives = parse_profile(self.TEXT)
        again, _ = parse_profile(format_profile(profile, alternatives))
        assert again == profile

    def test_counts_expand_left_to_right(self):
        profile, _ = parse_profile("m=2 labels=a,b\n1: a>b\n2: b>a\n1: a>b\n")
        assert [v.ranking[0] for v in profile.votes] == [0, 1, 1, 0]

    def test_missing_header(self):
        with pytest.raises(errors.PrefRevError, match="header"):
            parse_profile("1: a>b\n")

    def test_bad_line_reports_position(self):
        bad = "m=2 labels=a,b\n1: a>b\nnonsense\n"
        with pytest.raises(errors.PrefRevError, match=":3"):
            parse_profile(bad)

    def test_default_labels(self):
        assert default_labels(3) == ("a", "b", "c")
        assert default_labels(6) == ("a", "b", "c", "d", "x1", "x2")


class TestFactorialBounds:
    def test_num_profiles(self):
        assert num_profiles(3, 3) == 216
        assert num_profiles(2, 4) == 576
        assert num_profiles(1, 1) == 1
        assert num_profiles(15, 4) == math.factorial(4) ** 15
