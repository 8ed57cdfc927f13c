import json
import os
import random
import subprocess
import sys
from collections.abc import KeysView

import pytest

from conftest import REPO_ROOT
from prefrev import errors, keyspace
from prefrev.prefs import (
    LinearOrder,
    enumerate_orders,
    iter_digits,
    iter_profiles,
    order_index,
)


def recount(votes, m: int) -> tuple[tuple[int, ...], ...]:
    """Margin rows recounted pair by pair with ``LinearOrder.prefers``."""
    return tuple(tuple(sum(v.prefers(a, b) for v in votes)
                       - sum(v.prefers(b, a) for v in votes) for b in range(m))
                 for a in range(m))


def digit_votes(m: int, digits) -> list:
    return [enumerate_orders(m)[d] for d in digits]


def brute_force_keys(n: int, m: int) -> dict[tuple, set[int]]:
    """Every margin matrix of n voters with the orders its realizations use."""
    keys: dict[tuple, set[int]] = {}
    for profile in iter_profiles(n, m):
        keys.setdefault(recount(profile.votes, m), set()).update(
            order_index(v) for v in profile.votes)
    return keys


def decoded(keys, m: int) -> set:
    return {keyspace.key_rows(key, m) for key in keys}


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4)])
def test_levels_match_profile_enumeration(n, m):
    previous, level = keyspace.margin_levels(n, m)
    expected = brute_force_keys(n, m)
    # the views of the dicts the levels were built in, not copies
    assert isinstance(level, KeysView) and isinstance(previous, KeysView)
    assert decoded(level, m) == set(expected)
    assert len(level) == len(expected)  # one integer per margin matrix
    assert decoded(previous, m) == set(brute_force_keys(n - 1, m))
    # o is a witness order of K exactly when K - vote(o) lies at level n-1
    votes = keyspace.vote_keys(m)
    assert {keyspace.key_rows(key, m): {o for o, vote in enumerate(votes)
                                        if key - vote in previous}
            for key in level} == expected


def test_level_zero_is_the_empty_profile():
    assert keyspace.margin_levels(0, 4) == (set(), {keyspace.empty_key(4)})
    assert keyspace.key_rows(keyspace.empty_key(4), 4) == ((0,) * 4,) * 4


def test_key_order_is_the_order_of_full_matrices():
    m = 4
    keys = sorted(keyspace.margin_levels(3, m)[1])
    full = [sum(keyspace.key_rows(key, m), ()) for key in keys]
    assert full == sorted(full)


def test_keys_add_like_margins():
    m = 4
    for digits in [(0,), (5, 17, 23), (23, 23, 0, 11)]:
        key = keyspace.digits_key(m, digits)
        for order_ix, vote in enumerate(keyspace.vote_keys(m)):
            rows = recount(digit_votes(m, digits + (order_ix,)), m)
            assert keyspace.key_rows(key + vote, m) == rows


@pytest.mark.parametrize("m", range(1, 7))
def test_vote_keys_are_each_orders_comparisons(m):
    for order, vote in zip(enumerate_orders(m), keyspace.vote_keys(m), strict=True):
        pos = order.positions()
        assert keyspace.key_rows(keyspace.empty_key(m) + vote, m) == tuple(
            tuple((pos[a] < pos[b]) - (pos[b] < pos[a]) for b in range(m))
            for a in range(m))


def test_profile_key_is_the_key_of_its_votes():
    for profile in iter_profiles(3, 3):
        assert keyspace.key_rows(keyspace.profile_key(profile), 3) == \
            recount(profile.votes, 3)


def test_a_few_profiles_of_many_alternatives_build_no_order_table():
    # in a fresh process, so that no other test has filled the caches: the
    # Condorcet winner of one m=8 profile takes a key change per vote, and
    # neither the m!-entry key table nor the order-index map of m=8
    code = """if True:
        import json, random
        from prefrev import keyspace, prefs, tally
        from prefrev.prefs import LinearOrder, Profile
        rng = random.Random(8)
        top = LinearOrder(tuple(rng.sample(range(8), 8)))
        votes = [top] * 3 + [LinearOrder(tuple(rng.sample(range(8), 8))) for _ in range(4)]
        profile = Profile(tuple(votes))
        winner = tally.condorcet_winner(profile)
        rows = keyspace.key_rows(keyspace.profile_key(profile), 8)
        print(json.dumps([winner, top.top, rows, [v.ranking for v in votes],
                          keyspace.vote_keys.cache_info().currsize,
                          prefs._order_index_map.cache_info().currsize]))
    """
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    winner, top, rows, rankings, vote_tables, index_maps = json.loads(proc.stdout)
    votes = [LinearOrder(tuple(ranking)) for ranking in rankings]
    assert rows == [list(row) for row in recount(votes, 8)]
    assert winner == (top if all(rows[top][b] > 0 for b in range(8) if b != top)
                      else None)
    assert (vote_tables, index_maps) == (0, 0)


def test_budget_caps_every_level():
    # (3, 4) has exactly 1136 keys, and no smaller level has more
    assert len(keyspace.margin_levels(3, 4, budget=1136)[1]) == 1136
    with pytest.raises(errors.BudgetExceeded, match="n=3 passed 1135 keys"):
        keyspace.margin_levels(3, 4, budget=1135)


def test_budget_caps_level_zero():
    # level 0 holds the empty key alone: a budget of 1 fits it, 0 does not
    assert keyspace.margin_levels(0, 3, budget=1)[1] == {keyspace.empty_key(3)}
    with pytest.raises(errors.BudgetExceeded, match="n=0 passed 0 keys"):
        keyspace.margin_levels(0, 3, budget=0)


@pytest.mark.parametrize("n,m", [(3, 4), (2, 5)])
def test_key_text_round_trips(n, m):
    for key in keyspace.margin_levels(n, m)[1]:
        assert keyspace.parse_key(keyspace.key_text(key, m), m) == key


@pytest.mark.parametrize("n,m", [(3, 3), (2, 4)])
def test_key_text_is_the_row_major_margins(n, m):
    for _, digits in iter_digits(n, m):
        text = "_".join(str(x) for row in recount(digit_votes(m, digits), m) for x in row)
        assert keyspace.key_text(keyspace.digits_key(m, digits), m) == text


@pytest.mark.parametrize("text", [
    "", "garbage", "0_1_-1", "0_1_-1_0_0", "0__1_-1_0", "0_1_-1_0_",  # count
    "1_1_-1_0", "0_1_-1_-2",                                       # diagonal
    "0_1_1_0", "0_3_-1_0",                                         # asymmetric
    "0_+1_-1_0", "0_01_-1_0", "-0_1_-1_0", "0_1_-01_0", " 0_1_-1_0",  # spelling
    "0_2147483648_-2147483648_0", "0_-2147483648_2147483648_0",   # range
])
def test_parse_key_rejects_what_key_text_never_writes(text):
    with pytest.raises(ValueError, match="not a margin key of 2 alternatives"):
        keyspace.parse_key(text, 2)


def test_parse_key_accepts_the_largest_entries():
    text = "0_2147483647_-2147483647_0"
    assert keyspace.key_text(keyspace.parse_key(text, 2), 2) == text


def shifted_rows(key: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The margin matrix of a key read entry by entry with shifts and masks."""
    rows = [[0] * m for _ in range(m)]
    cells = [(a, b) for a in range(m) for b in range(a + 1, m)]
    for i, (a, b) in enumerate(cells):
        shift = 32 * (len(cells) - 1 - i)
        rows[a][b] = ((key >> shift) & 0xFFFFFFFF) - 2 ** 31
        rows[b][a] = -rows[a][b]
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("m", range(1, 7))
def test_key_rows_unpacks_like_shifts_and_masks(m):
    rng = random.Random(f"key_rows:{m}")
    largest = 2 ** 31 - 1
    size = m * (m - 1) // 2
    for _ in range(200):
        entries = [rng.choice((rng.randrange(-largest, largest + 1), largest, -largest,
                               0, rng.randrange(-3, 4)))
                   for _ in range(size)]
        key = sum((x + 2 ** 31) << (32 * (size - 1 - i)) for i, x in enumerate(entries))
        assert keyspace.key_rows(key, m) == shifted_rows(key, m)
    # the extreme keys: every entry at the top or the bottom of the range
    for x in (largest, -largest):
        key = sum((x + 2 ** 31) << (32 * i) for i in range(size))
        assert keyspace.key_rows(key, m) == shifted_rows(key, m)
