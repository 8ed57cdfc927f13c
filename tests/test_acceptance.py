"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is exact (discrete outputs, zero tolerance); runtime
ceilings are asserted where the criterion states one.  Run with ``-s`` to
see the per-criterion lines as they pass.
"""

import io
import json
import random
import time

import pytest

from conftest import tabulate_rule, without_leaf_unit
from prefrev import satgen
from prefrev.cli import main
from prefrev.monotonicity import (
    check_halfway_monotonicity,
    explain_hwm_via_participation,
)
from prefrev.prefs import (
    LinearOrder,
    Profile,
    enumerate_orders,
    index_to_profile,
    iter_profiles,
    num_profiles,
    profile_to_index,
    read_profile,
)
from prefrev.proofcheck import (
    build_even_tree,
    build_odd_tree,
    build_perez_profile,
    verify_perez,
    verify_tree,
    verify_tree_irresolute,
)
from prefrev.rules import dodgson_scores, resolute_rule
from prefrev.tally import condorcet_winner, margin_matrix


class Stopwatch:
    def __init__(self, limit_seconds: float):
        self.limit = limit_seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def check(self) -> float:
        elapsed = self.elapsed
        assert elapsed < self.limit, (
            f"ran {elapsed:.2f}s, criterion allows {self.limit:.0f}s")
        return elapsed


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_perez_multirule_table(capsys, perez_profile_path):
    watch = Stopwatch(10.0)
    code = main(["analyze", str(perez_profile_path), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    by_rule = {r["rule"]: r for r in records if "rule" in r}

    assert by_rule["borda"]["winner"] == "y"
    assert by_rule["black"]["winner"] == "y"
    assert by_rule["kemeny"]["winner"] == "z"
    assert by_rule["kemeny"]["rankings"] == "z>y>x>t>u"  # unique: no bar
    assert by_rule["baldwin"]["winner"] == "z"
    assert by_rule["nanson"]["winner"] == "z"
    assert by_rule["dodgson"]["winner"] == "y"
    assert by_rule["dodgson"]["scores"]["t"] == 15
    assert by_rule["uncovered-set"]["winners"] == "{x,y,z}"
    assert by_rule["maximin"]["winner"] == "t"
    assert by_rule["schulze"]["winner"] == "t"
    assert by_rule["ranked-pairs"]["winner"] == "t"
    elapsed = watch.check()
    with capsys.disabled():
        report(1, f"multi-rule table on the 41-voter profile ({elapsed:.2f}s)")


def test_criterion_01_dodgson_y_swap_count_as_stated(perez_profile_path):
    profile, alternatives = build_perez_profile()
    y = alternatives.id_of("y")
    computed = dodgson_scores(profile)[y]
    print(f"ACCEPTANCE 1 (dodgson y swap count): stated 9, computed {computed}")
    assert computed == 9, (
        f"stated swap count for y is 9, exact minimisation gives {computed}; "
        f"8 single z/y swaps demonstrably make y the Condorcet winner and "
        f"the y-z tally moves by at most 1 per adjacent swap, so 8 is tight")


def test_criterion_01_dodgson_y_swap_count_is_eight(perez_profile_path):
    # the bounds on y's Dodgson score, found without calling dodgson_scores
    profile, alternatives = read_profile(perez_profile_path)
    ids = {label: alternatives.id_of(label) for label in "xyzut"}
    y, z = ids["y"], ids["z"]
    rows = margin_matrix(profile).rows
    assert {label: rows[y][ids[label]] for label in "xzut"} == {
        "x": 17, "z": -15, "u": 11, "t": 9}
    # an adjacent swap moves one voter's y/z order, so y's margin over z by
    # 2 at most: from -15 to positive takes at least 8 swaps
    lower = (-rows[y][z] + 1) // 2
    # and 8 swaps do it: z and y trade places in 8 of the 20 votes where z
    # sits directly above y
    above = [voter for voter, vote in enumerate(profile.votes)
             if vote.position_of(z) + 1 == vote.position_of(y)]
    assert len(above) == 20
    votes = list(profile.votes)
    for voter in above[:8]:
        ranking = list(votes[voter].ranking)
        at = ranking.index(z)
        ranking[at:at + 2] = [y, z]
        votes[voter] = LinearOrder(tuple(ranking))
    assert condorcet_winner(Profile(tuple(votes))) == y
    assert lower == 8
    assert dodgson_scores(profile)[y] == 8


@pytest.mark.parametrize("m", [4, 5, 6])
def test_criterion_02_odd_tree_machine_verification(m, capsys):
    watch = Stopwatch(1.0)
    tree = build_odd_tree(m)
    assert tree.n == 15
    result = verify_tree(tree)
    assert result.ok, result.render()
    labels = tree.alternatives
    winners = {leaf.node: labels.label_of(condorcet_winner(
        tree.profiles[leaf.node])) for leaf in tree.leaves}
    assert winners == {"P2": "c", "P3": "a", "P5": "b", "P6": "d"}
    elapsed = watch.check()
    with capsys.disabled():
        report(2, f"odd tree n=15 m={m} fully verified ({elapsed:.2f}s)")


def test_criterion_03_even_tree_machine_verification(capsys):
    watch = Stopwatch(1.0)
    tree = build_even_tree(4)
    assert tree.n == 24
    result = verify_tree(tree)
    assert result.ok, result.render()
    labels = tree.alternatives
    winners = {leaf.node: labels.label_of(condorcet_winner(
        tree.profiles[leaf.node])) for leaf in tree.leaves}
    assert winners == {"P2": "c", "P3": "a", "P5": "b", "P6": "d"}
    elapsed = watch.check()
    with capsys.disabled():
        report(3, f"even tree n=24 m=4 fully verified ({elapsed:.2f}s)")


def test_criterion_04_irresolute_verifications(capsys):
    watch = Stopwatch(1.0)
    for builder in (build_odd_tree, build_even_tree):
        tree = builder(4)
        pess = verify_tree_irresolute(tree, "pessimistic")
        assert pess.ok, pess.render()
        assert "F(P0) is empty" in pess.render()
        opt = verify_tree_irresolute(tree, "optimistic")
        assert opt.ok, opt.render()
        assert "{a,b,c,d} excluded from F(P0)" in opt.render()
    elapsed = watch.check()
    with capsys.disabled():
        report(4, f"optimistic and pessimistic set-valued runs on both trees "
                  f"({elapsed:.2f}s)")


def test_criterion_05_strong_paradox_cases(capsys):
    result = verify_perez()
    assert result.ok, result.render()
    profile, _ = build_perez_profile()
    assert condorcet_winner(profile) is None
    text = result.render()
    for assumed, expected in (("x", "y"), ("y", "z"), ("z", "u"), ("u", "t")):
        assert f"case f={assumed}" in text
        assert f"Condorcet winner is {expected} (expected {expected})" in text
    with capsys.disabled():
        report(5, "all four reversal cases end in the stated Condorcet winners")


def test_criterion_06_proof_neighborhood_unsat(tmp_path, solver_cmd, capsys):
    solve_time = 0.0
    for which, builder in (("odd", build_odd_tree), ("even", build_even_tree)):
        tree = builder(4)
        encoded = satgen.encode_proof_neighborhood(tree)
        assert encoded.formula.num_vars <= 40
        assert len(encoded.formula.clauses) <= 500
        path = tmp_path / f"{which}.cnf"
        with open(path, "w") as handle:
            satgen.write_dimacs(encoded.formula, handle)
        start = time.perf_counter()
        run = satgen.run_solver(solver_cmd, str(path))
        solve_time = max(solve_time, time.perf_counter() - start)
        assert run.status == "UNSAT"
        if which == "odd":
            for leaf in tree.leaves:
                mutated = without_leaf_unit(encoded, leaf)
                mpath = tmp_path / f"odd_minus_{leaf.node}.cnf"
                with open(mpath, "w") as handle:
                    satgen.write_dimacs(mutated, handle)
                start = time.perf_counter()
                mrun = satgen.run_solver(solver_cmd, str(mpath))
                solve_time = max(solve_time, time.perf_counter() - start)
                assert mrun.status == "SAT", leaf.node
    assert solve_time < 1.0
    with capsys.disabled():
        report(6, f"proof CNFs unsatisfiable, any deleted leaf unit flips the "
                  f"odd one satisfiable (max solve {solve_time:.2f}s)")


def test_criterion_07_full_pipeline_sat_desk_scale(tmp_path, solver_cmd, capsys):
    watch = Stopwatch(30.0)
    encoded = satgen.encode_full(3, 3)
    assert encoded.formula.num_vars == 648
    path = tmp_path / "full33.cnf"
    with open(path, "w") as handle:
        satgen.write_dimacs(encoded.formula, handle)
    run = satgen.run_solver(solver_cmd, str(path))
    assert run.status == "SAT"
    model = satgen.read_dimacs_model(io.StringIO(run.output), encoded.varmap)
    table = satgen.decode_model(model, encoded.varmap)
    result = satgen.verify_rule(table)
    assert result.ok, result.render()
    elapsed = watch.check()
    with capsys.disabled():
        report(7, f"648-variable instance solved, decoded, and independently "
                  f"re-verified ({elapsed:.2f}s)")


def test_criterion_08_scoring_rule_immunity(capsys):
    watch = Stopwatch(120.0)
    domains = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]
    for rule_name in ("borda", "plurality"):
        for m, n in domains:
            rule = resolute_rule(rule_name, m)
            assert check_halfway_monotonicity(rule, n, m) is None, \
                (rule_name, m, n)
    elapsed = watch.check()
    with capsys.disabled():
        report(8, f"Borda and plurality exhaustively immune on all five "
                  f"domains ({elapsed:.2f}s)")


def test_criterion_09_maximin_three_alternatives(capsys):
    watch = Stopwatch(60.0)
    for n in (3, 4, 5):
        rule = resolute_rule("maximin", 3)
        assert check_halfway_monotonicity(rule, n, 3) is None, n
        for profile in iter_profiles(n, 3):
            winner = condorcet_winner(profile)
            if winner is not None:
                assert rule(profile) == winner
    elapsed = watch.check()
    with capsys.disabled():
        report(9, f"maximin reversal-immune and Condorcet-consistent for "
                  f"n=3,4,5 at m=3 ({elapsed:.2f}s)")


def test_criterion_10_padding_invariance(capsys):
    watch = Stopwatch(5.0)
    rng = random.Random(2718)
    preserved_winners = 0
    for _ in range(1000):
        m = rng.choice((3, 4))
        n = rng.randint(1, 6)
        orders = enumerate_orders(m)
        profile = Profile(tuple(rng.choice(orders) for _ in range(n)))
        pad = rng.choice(orders)
        padded = profile.pad(pad)
        assert margin_matrix(padded).rows == margin_matrix(profile).rows
        winner = condorcet_winner(profile)
        assert condorcet_winner(padded) == winner
        preserved_winners += winner is not None
    assert preserved_winners > 100
    elapsed = watch.check()
    with capsys.disabled():
        report(10, f"1000 padded profiles keep margins and winners "
                   f"({elapsed:.2f}s, {preserved_winners} non-vacuous)")


def test_criterion_11_reversal_to_participation_mechanics(capsys):
    rng = random.Random(818)
    small = tabulate_rule(resolute_rule("borda", 3), 2, 3)
    big = tabulate_rule(resolute_rule("borda", 3), 3, 3)
    fixtures = 0
    planted_pairs = set()
    while fixtures < 50:
        pair = rng.randrange(num_profiles(3, 3) * 3)
        index, voter = divmod(pair, 3)
        profile = index_to_profile(index, 3, 3)
        truthful = profile.votes[voter]
        if big.chosen[index] == truthful.top or pair in planted_pairs:
            continue
        planted_pairs.add(pair)
        corrupted = big.replace_entry(
            profile_to_index(profile.reverse_vote(voter)), truthful.top)
        family = {2: small, 3: corrupted}
        witness = check_halfway_monotonicity(corrupted, 3, 3)
        assert witness is not None
        explained = explain_hwm_via_participation(witness, family)
        assert explained.is_violation()
        without = family[2](explained.profile_without)
        joined = family[3](explained.joined_profile())
        assert (without, joined) == (explained.winner_without,
                                     explained.winner_with)
        assert explained.profile_without.n == 2
        assert explained.joined_profile().n == 3
        fixtures += 1
    with capsys.disabled():
        report(11, f"{fixtures} planted reversal witnesses all decompose into "
                   f"validated no-show violations at the 2-to-3 boundary")
