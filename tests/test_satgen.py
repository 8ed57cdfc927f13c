import hashlib
import importlib.util
import io
import random
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from conftest import cnf_formula, run_capped, tabulate_rule, without_leaf_unit
from prefrev import errors, keyspace, satgen, tally
from prefrev.monotonicity import check_halfway_monotonicity
from prefrev.prefs import (
    Alternatives,
    default_labels,
    index_to_profile,
    iter_profiles,
    num_profiles,
    order_index,
    parse_order,
    profile_to_index,
)
from prefrev.proofcheck import apply_reversals, build_even_tree, build_odd_tree, verify_tree
from prefrev.rules import RuleTable, resolute_rule, write_rule_table
from prefrev.tally import condorcet_winner, key_condorcet_winner, margin_matrix

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def dpll():
    """The bundled solver, loaded in process."""
    spec = importlib.util.spec_from_file_location(
        "dpll_solve", Path(__file__).resolve().parent.parent / "tools" / "dpll_solve.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solve(formula, solver_cmd, tmp_path, name="f.cnf"):
    path = tmp_path / name
    with open(path, "w") as handle:
        satgen.write_dimacs(formula, handle)
    return satgen.run_solver(solver_cmd, str(path))


def decoded_c2_table(solver_cmd, tmp_path):
    result = satgen.encode_full(3, 3, mode="c2")
    run = solve(result.formula, solver_cmd, tmp_path, "c2.cnf")
    model = satgen.read_dimacs_model(io.StringIO(run.output), result.varmap)
    return satgen.decode_model(model, result.varmap)


def rule_model(varmap: satgen.VariableMap, rule) -> str:
    """Solver output whose model picks the rule's winner at every key of
    the map: the verdict, then the literals nineteen to a ``v`` line and
    the ``0``, as the bundled solver lays them out."""
    m = varmap.m
    winners = ([rule(profile) for profile in iter_profiles(varmap.n, m)]
               if varmap.keys is None else
               [rule.on_key(key, varmap.n, m) for key in varmap.keys])
    literals = [varmap.var(rank, alt) * (1 if alt == winner else -1)
                for rank, winner in enumerate(winners) for alt in range(m)] + [0]
    return "s SATISFIABLE\n" + "".join(
        "v " + " ".join(map(str, literals[i:i + 19])) + "\n"
        for i in range(0, len(literals), 19))


def traced_peak(call):
    """``call()``, the memory it still holds once it has returned, and its
    ``tracemalloc`` peak."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def mixed_formula(num_clauses: int) -> satgen.CnfFormula:
    """Unit, binary and longer clauses over 1000 variables, in runs and
    alone, with one empty clause."""
    rng = random.Random(5)
    clauses = [tuple(rng.choice((-1, 1)) * rng.randint(1, 1000)
                     for _ in range(rng.choice((1, 2, 2, 2, 3, 4, 7))))
               for _ in range(num_clauses)]
    clauses[num_clauses // 2] = ()
    return cnf_formula(1000, clauses)


class TestClauseCounts:
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (2, 2), (1, 2)])
    def test_family_count_formulas(self, n, m):
        result = satgen.encode_full(n, m)
        keys = num_profiles(n, m)
        pairs = m * (m - 1) // 2
        assert result.counts["keys"] == keys
        assert result.counts["functionality"] == keys * (1 + pairs)
        assert result.counts["hwm"] == keys * n * pairs
        assert result.formula.num_vars == keys * m
        condorcet_profiles = sum(
            condorcet_winner(p) is not None for p in iter_profiles(n, m))
        assert result.counts["condorcet"] == condorcet_profiles

    def test_m3_n3_has_648_variables(self):
        result = satgen.encode_full(3, 3)
        assert result.formula.num_vars == 648
        assert result.counts["functionality"] == 216 * 4

    def test_unanimous_single_voter_forces_unit(self):
        result = satgen.encode_full(1, 2)
        # profile 0 is a>b, so x[0, a] = variable 1 is forced
        assert (1,) in result.formula.clauses

    def test_budget(self):
        with pytest.raises(errors.BudgetExceeded):
            satgen.encode_full(5, 4, budget=1000)

    def test_unknown_mode(self):
        with pytest.raises(errors.PrefRevError) as caught:
            satgen.encode_full(2, 3, "x")
        assert str(caught.value) == "unknown encode mode 'x'"


class TestDimacs:
    def test_golden_bytes_m2_n1(self):
        result = satgen.encode_full(1, 2)
        out = io.StringIO()
        satgen.write_dimacs(result.formula, out)
        assert out.getvalue() == (GOLDEN_DIR / "encode_m2_n1.cnf").read_text()

    def test_golden_bytes_c2_m3_n3(self):
        result = satgen.encode_full(3, 3, mode="c2")
        cnf, varmap = io.StringIO(), io.StringIO()
        satgen.write_dimacs(result.formula, cnf)
        satgen.write_varmap(result.varmap, default_labels(3), varmap)
        assert cnf.getvalue() == (GOLDEN_DIR / "encode_c2_m3_n3.cnf").read_text()
        assert varmap.getvalue() == (GOLDEN_DIR / "encode_c2_m3_n3.map").read_text()

    @pytest.mark.parametrize("mode,n,m,cnf_sha,map_sha", [
        ("c2", 4, 4, "8cfbd9ec3c23a27daf65e00c0fae9e6ab59e887b2e605939c34d3fe20343890b",
         "30e6e0654df1a1f18c1a03b9a970e135a39b254e01b7b7870b0c7bcf0bb98a80"),
        ("c2", 5, 3, "0f7319ab54a82dd00e031b87aa2e431f323caec8c819ce7c1a469783421b2de5",
         "a84978e4c028080b9d58ba2f025480a2bab0256b2ea33d937eb451e7ef1cfc82"),
        ("profile", 3, 4,
         "5ef91ea565d298f02fe079d545633b4cc5611f0385f38532ec127b5e025f0769",
         "ac2deb40ffefd0d934368f0a4cd27f864b95ee8a823734b099ae0a563e76c1ba"),
    ], ids=["c2-4-4", "c2-5-3", "profile-3-4"])
    def test_full_formula_bytes_digest(self, mode, n, m, cnf_sha, map_sha):
        # digests of the .cnf and .map text, too large for golden files
        result = satgen.encode_full(n, m, mode=mode)
        cnf, varmap = io.StringIO(), io.StringIO()
        satgen.write_dimacs(result.formula, cnf)
        satgen.write_varmap(result.varmap, default_labels(m), varmap)
        assert hashlib.sha256(cnf.getvalue().encode()).hexdigest() == cnf_sha
        assert hashlib.sha256(varmap.getvalue().encode()).hexdigest() == map_sha

    @pytest.mark.parametrize("mode,n,m,table_sha", [
        ("profile", 3, 4, "1683ecf32efeb5d0f3802102e24af1ab18dfa32f064a8a275ba20591754f3168"),
        ("c2", 4, 4, "8faa70ffe96e1b2d0f4738339d0190d0e4d96084260ba6ad6f41af17f191cbdf"),
    ], ids=["profile-3-4", "c2-4-4"])
    def test_decoded_table_bytes_digest(self, mode, n, m, table_sha):
        # digests of the table decoded from a model of maximin's winners,
        # too large for a golden file
        varmap = (satgen.VariableMap(n=n, m=m, mode="profile") if mode == "profile"
                  else satgen.c2_variable_map(n, m)[0])
        model = rule_model(varmap, resolute_rule("maximin", m))
        table = satgen.decode_model(satgen.read_dimacs_model(io.StringIO(model), varmap),
                                    varmap)
        out = io.StringIO()
        write_rule_table(table, out)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == table_sha

    def test_varmap_labels_print_as_given(self):
        # a label holding format or % characters prints as it is
        varmap = satgen.VariableMap(n=1, m=3, mode="profile")
        labels = ["{0}", "%s", "}{"]
        out = io.StringIO()
        satgen.write_varmap(varmap, labels, out)
        assert out.getvalue() == "".join(
            f"{key * 3 + alt + 1} {key} {labels[alt]}\n"
            for key in range(varmap.num_keys) for alt in range(3))

    @pytest.mark.parametrize("make", [
        lambda: satgen.encode_full(2, 3).formula,
        lambda: satgen.encode_full(3, 3, mode="c2").formula,
        lambda: satgen.encode_proof_neighborhood(build_odd_tree(4)).formula,
        lambda: satgen.encode_proof_neighborhood(build_even_tree(6)).formula,
        lambda: mixed_formula((1 << 16) + 1000),
    ], ids=["profile-2-3", "c2-3-3", "proof-odd-4", "proof-even-6", "mixed"])
    def test_writer_matches_one_line_per_clause(self, make):
        formula = make()
        out = io.StringIO()
        satgen.write_dimacs(formula, out)
        assert out.getvalue() == (
            f"p cnf {formula.num_vars} {len(formula.clauses)}\n"
            + "".join(" ".join(map(str, clause)) + " 0\n" for clause in formula.clauses))

    @pytest.mark.parametrize("make", [
        lambda: satgen.encode_full(2, 3).formula,
        lambda: satgen.encode_full(3, 3).formula,
        lambda: satgen.encode_full(3, 3, mode="c2").formula,
        lambda: satgen.encode_proof_neighborhood(build_odd_tree(4)).formula,
    ], ids=["profile-2-3", "profile-3-3", "c2-3-3", "proof-odd-4"])
    def test_every_literal_is_one_shared_object(self, make):
        lits = [lit for clause in make().clauses for lit in clause]
        assert len({id(lit) for lit in lits}) == len(set(lits))

    def test_clauses_round_trip_through_the_text(self):
        clauses = mixed_formula(5000).clauses
        assert () in clauses
        assert cnf_formula(1000, clauses).clauses == clauses

    def test_two_var_example(self):
        formula = cnf_formula(2, ((1, -2),))
        out = io.StringIO()
        satgen.write_dimacs(formula, out)
        assert out.getvalue() == "p cnf 2 1\n1 -2 0\n"

    def test_varmap_sidecar(self):
        result = satgen.encode_full(1, 2)
        out = io.StringIO()
        satgen.write_varmap(result.varmap, default_labels(2), out)
        assert out.getvalue() == "1 0 a\n2 0 b\n3 1 a\n4 1 b\n"

    def test_varmap_is_a_bijection(self):
        varmap = satgen.VariableMap(n=2, m=3, mode="profile")
        seen = set()
        for key in range(varmap.num_keys):
            for alt in range(3):
                seen.add(varmap.var(key, alt))
        # the num_keys * m pairs reach all num_vars = num_keys * m
        # variables, so no two pairs share one
        assert seen == set(range(1, varmap.num_vars + 1))


class TestKeySpaceRanges:
    """The renderer range-checks the key spaces it renders, so that every
    literal of every formula lies in 1..num_vars."""

    varmap = satgen.VariableMap(n=1, m=3, mode="profile")  # 6 keys
    reversal = satgen._reversal_templates(3)

    def encode(self, winners=(), edges=()):
        return satgen._encode(self.varmap, winners, edges)

    def test_a_good_key_space_encodes(self):
        result = self.encode([(0, 2)], [(self.reversal[0], 0, 5)])
        # after the six keys' functionality blocks (4 lines each): the
        # Condorcet unit x[0, 2], then a>b>c reversed into key 5
        assert result.formula.text.splitlines()[24:] == ["3 0", "-2 -16 0", "-3 -16 0",
                                                          "-3 -17 0"]
        assert result.formula.num_clauses == result.formula.text.count("\n") == 28

    @pytest.mark.parametrize("winners, edges, message", [
        ([(6, 0)], [], "key 6 is not a key rank in 0..5"),
        ([], [(0, 6, 0)], "key 6 is not a key rank in 0..5"),
        ([(-1, 0)], [], "key -1 is not a key rank"),
        ([], [(0, -1, 0)], "key -1 is not a key rank"),
        ([], [(0, 0, 6)], "key 0: reversal edge to 6, not a key rank in 0..5"),
        ([], [(1, 2, -1)], "key 2: reversal edge to -1"),
        ([(1, 3)], [], "key 1: Condorcet winner 3 is not an alternative in 0..2"),
        ([(1, -1)], [], "key 1: Condorcet winner -1"),
    ], ids=["rank-num-keys", "edge-rank-num-keys", "rank-negative",
            "edge-rank-negative", "edge-num-keys", "edge-negative", "winner-m",
            "winner-negative"])
    def test_out_of_range_is_an_error_naming_the_key(self, winners, edges, message):
        edges = [(self.reversal[order], key, other) for order, key, other in edges]
        with pytest.raises(errors.PrefRevError, match=message):
            self.encode(winners, edges)

    def test_profile_edges_step_each_voter_by_its_place_value(self):
        # voter v's digit sits at place (m!)^(n-1-v): each edge of profile
        # mode joins a profile to the one with that voter's vote reversed
        n, m = 4, 3
        _, edges = satgen._profile_key_space(n, m)
        # a template's picker is an itemgetter, equal by its repr only
        template = lambda t: (t[0], repr(t[1]), t[2])
        expected = [(template(self.reversal[order_index(vote)]), key,
                     profile_to_index(profile.reverse_vote(voter)))
                    for key, profile in enumerate(iter_profiles(n, m))
                    for voter, vote in enumerate(profile.votes)]
        assert [(template(t), key, other) for t, key, other in edges] == expected
        assert len(expected) == n * num_profiles(n, m)


class TestModelReader:
    def varmap(self):
        return satgen.VariableMap(n=1, m=2, mode="profile")

    def test_v_lines(self):
        model = satgen.read_dimacs_model(
            io.StringIO("c comment\ns SATISFIABLE\nv 1 -2 3\nv -4 0\n"),
            self.varmap())
        assert model == {1: True, 2: False, 3: True, 4: False}

    def test_bare_literals(self):
        model = satgen.read_dimacs_model(io.StringIO("SAT\n1 -2 -3 4 0\n"),
                                         self.varmap())
        assert model[1] and model[4]

    def test_stops_at_terminator(self):
        model = satgen.read_dimacs_model(io.StringIO("v 1 0\nv -2\n"),
                                         self.varmap())
        assert model == {1: True}

    def test_unsat_output_gives_hint(self):
        with pytest.raises(errors.PrefRevError, match="unsatisfiable"):
            satgen.read_dimacs_model(io.StringIO("s UNSATISFIABLE\n"),
                                     self.varmap())

    def test_variable_out_of_range(self):
        with pytest.raises(errors.PrefRevError,
                           match="model mentions variable 999, map has 4"):
            satgen.read_dimacs_model(io.StringIO("v 999 0\n"), self.varmap())

    def test_contradictory_assignment(self):
        with pytest.raises(errors.PrefRevError,
                           match="model assigns variable 1 both ways"):
            satgen.read_dimacs_model(io.StringIO("v 1 -1 0\n"), self.varmap())

    def test_non_integer_token(self):
        with pytest.raises(errors.PrefRevError,
                           match="non-integer token 'one' in model"):
            satgen.read_dimacs_model(io.StringIO("v one 0\n"), self.varmap())

    @staticmethod
    def reference_read(text, num_vars):
        """The model reader's earlier per-token loop: its assignment, or
        the message of the first error in token order."""
        assignment, done = {}, False
        for line in map(str.strip, text.splitlines()):
            if not line or line[0] in "cs" or satgen.solver_status(line):
                continue
            for token in (line[1:] if line[0] in "vV" else line).split():
                if done:
                    break
                try:
                    lit = int(token)
                except ValueError:
                    return f"non-integer token {token!r} in model"
                if lit == 0:
                    done = True
                    continue
                var, value = abs(lit), lit > 0
                if var > num_vars:
                    return f"model mentions variable {var}, map has {num_vars}"
                if assignment.setdefault(var, value) != value:
                    return f"model assigns variable {var} both ways"
        return assignment or "no model literals found"

    @pytest.mark.parametrize("text", [
        "v 1 -1 9 0\n", "v 9 1 -1 0\n", "v 1 one -1 0\n", "v 1 -1 one\n",
        "v 9 one\n", "v 1 -0 one\n", "v 1 0 one 9 -1\n", "V 2 2 -3\nv1 0\n",
        "c x\nSAT\n1 2\nv -3 00 4\n", "s SATISFIABLE\nv 0 1\n", "v +1 -2 0\n",
    ])
    def test_first_error_in_token_order(self, text):
        expected = self.reference_read(text, 4)
        if isinstance(expected, dict):
            assert satgen.read_dimacs_model(io.StringIO(text), self.varmap()) == expected
        else:
            with pytest.raises(errors.PrefRevError) as exc:
                satgen.read_dimacs_model(io.StringIO(text), self.varmap())
            assert str(exc.value).startswith(expected)

    def test_round_trip_through_model_text(self):
        varmap = satgen.VariableMap(n=2, m=3, mode="profile")
        assignment = {v: v % 3 == 1 for v in range(1, varmap.num_vars + 1)}
        text = "v " + " ".join(str(v if val else -v)
                               for v, val in assignment.items()) + " 0\n"
        again = satgen.read_dimacs_model(io.StringIO(text), varmap)
        assert again == assignment


class TestDecode:
    def test_not_a_function_on_double_winner(self):
        varmap = satgen.VariableMap(n=1, m=2, mode="profile")
        assignment = {1: True, 2: True, 3: True, 4: False}
        with pytest.raises(errors.PrefRevError, match="key 0 has 2 winners"):
            satgen.decode_model(assignment, varmap)

    def test_not_a_function_on_missing_winner(self):
        varmap = satgen.VariableMap(n=1, m=2, mode="profile")
        with pytest.raises(errors.PrefRevError, match="key 1 has 0 winners"):
            satgen.decode_model({1: True}, varmap)

    def test_decode_rejects_proof_maps(self):
        tree = build_odd_tree(4)
        result = satgen.encode_proof_neighborhood(tree)
        with pytest.raises(errors.PrefRevError):
            satgen.decode_model({}, result.varmap)

    def test_stops_at_the_first_key_without_a_winner(self):
        # the (8, 4) profile map has 24^8 keys.  A decoder that builds the
        # whole table first runs out of memory, so the call runs in a child
        # whose address space is capped
        proc = run_capped(["-c", (
            "from prefrev import errors, satgen\n"
            "varmap = satgen.VariableMap(n=8, m=4, mode='profile')\n"
            "try:\n"
            "    satgen.decode_model({1: True}, varmap)\n"
            "except errors.PrefRevError as exc:\n"
            "    print(exc)\n")])
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "key 1 has 0 winners\n", "")


class TestStreaming:
    """The map is written key by key and the model read token by token, so
    neither holds the whole text."""

    def test_varmap_is_written_a_line_at_a_time(self):
        varmap = satgen.VariableMap(n=3, m=4, mode="profile")
        labels = default_labels(4)

        class Discard:
            def write(self, text):
                pass

        _, _, peak = traced_peak(lambda: satgen.write_varmap(varmap, labels, Discard()))
        # one key's lines are about 60 bytes, the whole map 718 KB
        assert peak < 4096, peak

    def test_model_reader_holds_little_beyond_the_assignment(self):
        varmap = satgen.VariableMap(n=3, m=4, mode="profile")
        source = io.StringIO(rule_model(varmap, resolute_rule("maximin", 4)))
        model, held, peak = traced_peak(lambda: satgen.read_dimacs_model(source, varmap))
        assert len(model) == varmap.num_vars
        # 1.22 under CPython 3.11, from the assignment's last resize; the
        # model's 55,297 tokens held at once would add about 3 MiB to its
        # 4.1 MiB (2.41)
        assert peak < 1.5 * held, (peak, held)


class KeyCountingTable:
    """A table that records the margin key of every profile or key it is
    asked about, and counts the calls on a profile apart."""

    def __init__(self, table: RuleTable):
        self.table, self.calls, self.profile_calls = table, [], 0

    def __getattr__(self, name):
        return getattr(self.table, name)

    def __call__(self, profile):
        self.profile_calls += 1
        self.calls.append(keyspace.profile_key(profile))
        return self.table(profile)

    def on_key(self, key, n, m):
        self.calls.append(key)
        return self.table.on_key(key, n, m)


class TestFullPipeline:
    def test_encode_solve_decode_verify(self, solver_cmd, tmp_path):
        result = satgen.encode_full(3, 3)
        run = solve(result.formula, solver_cmd, tmp_path)
        assert run.status == "SAT"
        model = satgen.read_dimacs_model(io.StringIO(run.output), result.varmap)
        table = satgen.decode_model(model, result.varmap)
        assert len(table.chosen) == 216
        report = satgen.verify_rule(table)
        assert report.ok, report.render()

    def test_corrupted_table_is_located(self, solver_cmd, tmp_path):
        result = satgen.encode_full(3, 3)
        run = solve(result.formula, solver_cmd, tmp_path)
        model = satgen.read_dimacs_model(io.StringIO(run.output), result.varmap)
        table = satgen.decode_model(model, result.varmap)
        # break Condorcet-consistency at the first profile with a winner
        target = next(k for k in range(216)
                      if condorcet_winner(index_to_profile(k, 3, 3)) is not None)
        winner = condorcet_winner(index_to_profile(target, 3, 3))
        corrupted = table.replace_entry(target, (winner + 1) % 3)
        report = satgen.verify_rule(corrupted)
        assert not report.ok
        assert any(str(target) in line.text for line in report.failures)

    def test_profile_table_is_walked_in_voter_order(self):
        # a Condorcet profile with unsorted votes: a walk over sorted
        # profiles only would miss it
        table = tabulate_rule(resolute_rule("maximin", 3), 3, 3)
        target = max(k for k, profile in enumerate(iter_profiles(3, 3))
                     if condorcet_winner(profile) is not None
                     and list(profile.votes) != sorted(profile.votes, key=order_index))
        winner = condorcet_winner(index_to_profile(target, 3, 3))
        report = satgen.verify_rule(table.replace_entry(target, (winner + 1) % 3))
        assert report.failures[0].text.startswith(f"profile {target}: ")

    def test_failure_walk_tests_each_margin_key_once(self, monkeypatch):
        # a profile table is walked at every index, but the Condorcet
        # winner is computed once per margin key
        tested = []
        winner = tally.key_condorcet_winner

        def counting(key, m):
            tested.append(key)
            return winner(key, m)

        monkeypatch.setattr(tally, "key_condorcet_winner", counting)
        table = tabulate_rule(resolute_rule("maximin", 3), 3, 3)
        assert satgen._first_condorcet_failure(table) is None
        assert max(Counter(tested).values()) == 1
        assert len(tested) == len({keyspace.profile_key(profile)
                                   for profile in iter_profiles(3, 3)})

    @pytest.mark.parametrize("seed", range(5))
    def test_c2_table_names_the_first_failing_profile(self, seed):
        # a c2 table is walked over sorted profiles only; the index it names
        # is still the first failing one in voter order
        rule = resolute_rule("maximin", 3)
        chosen = {}
        for profile in iter_profiles(3, 3):
            chosen.setdefault(keyspace.profile_key(profile), rule(profile))
        table = RuleTable(3, 3, "c2", chosen)
        keys = sorted(key for key in chosen
                      if key_condorcet_winner(key, 3) is not None)
        key = random.Random(seed).choice(keys)
        corrupted = table.replace_entry(key, (chosen[key] + 1) % 3)
        first = next(k for k, profile in enumerate(iter_profiles(3, 3))
                     if keyspace.profile_key(profile) == key)
        report = satgen.verify_rule(corrupted)
        assert report.failures[0].text.startswith(f"profile {first}: ")

    def test_c2_table_is_asked_once_per_margin_key_and_pass(self):
        # the key-level Condorcet pass reads the entries without a call, and
        # the reversal scan's margin pass asks about a margin key at most once
        rule = resolute_rule("maximin", 3)
        chosen = {}
        for profile in iter_profiles(4, 3):
            chosen.setdefault(keyspace.profile_key(profile), rule(profile))
        table = KeyCountingTable(RuleTable(4, 3, "c2", chosen))
        assert satgen.verify_rule(table).ok
        assert max(Counter(table.calls).values()) == 1
        assert len(table.calls) <= len(chosen)
        assert table.profile_calls == 0  # read by key, never on a profile

    def test_maximin_table_verifies(self):
        table = tabulate_rule(resolute_rule("maximin", 3), 3, 3)
        report = satgen.verify_rule(table)
        assert report.ok, report.render()

    def test_four_voter_instance(self, solver_cmd, tmp_path):
        result = satgen.encode_full(4, 3)
        assert result.formula.num_vars == 1296 * 3
        run = solve(result.formula, solver_cmd, tmp_path, "full43.cnf")
        assert run.status == "SAT"
        model = satgen.read_dimacs_model(io.StringIO(run.output), result.varmap)
        table = satgen.decode_model(model, result.varmap)
        assert satgen.verify_rule(table).ok

    def test_decoded_c2_table_verifies(self, solver_cmd, tmp_path):
        table = decoded_c2_table(solver_cmd, tmp_path)
        report = satgen.verify_rule(table)
        assert report.ok, report.render()

    def test_corrupted_c2_table_is_located(self, solver_cmd, tmp_path):
        table = decoded_c2_table(solver_cmd, tmp_path)
        # the first profile with a Condorcet winner is also the first with
        # its margin key, so the report names exactly that index
        target = next(k for k in range(216)
                      if condorcet_winner(index_to_profile(k, 3, 3)) is not None)
        profile = index_to_profile(target, 3, 3)
        winner = condorcet_winner(profile)
        corrupted = table.replace_entry(keyspace.profile_key(profile),
                                        (winner + 1) % 3)
        report = satgen.verify_rule(corrupted)
        assert not report.ok
        assert any(line.text.startswith(f"profile {target}: Condorcet winner")
                   for line in report.failures)


def random_mutant(tree, rng: random.Random):
    """The tree with seeded random carried sets and reversal counts, kept
    consistent: leaves forbid what their edge carries, the profiles are
    rebuilt along the edges and each leaf claims its new profile's Condorcet
    winner.  None when a count asks for more voters than a profile has or a
    leaf loses its Condorcet winner."""
    edges = list(tree.edges)
    for _ in range(rng.choice((1, 1, 2))):
        i = rng.randrange(len(edges))
        if rng.random() < 0.5:
            flipped = edges[i].carried ^ {rng.randrange(tree.m)}
            edges[i] = edges[i].replace(carried=frozenset(flipped))
        else:
            ((count, order),) = edges[i].reversals
            count = max(1, count + rng.choice((-2, -1, 1, 2)))
            edges[i] = edges[i].replace(reversals=((count, order),))
    profiles = {tree.root: tree.profiles[tree.root]}
    try:
        for edge in edges:
            profiles[edge.dst] = apply_reversals(profiles[edge.src], edge.reversals)
    except errors.EdgeMismatch:
        return None
    carried = {edge.dst: edge.carried for edge in edges}
    leaves = tuple(leaf.replace(condorcet=condorcet_winner(profiles[leaf.node]),
                                forbidden=carried[leaf.node]) for leaf in tree.leaves)
    if any(leaf.condorcet is None for leaf in leaves):
        return None
    return tree.replace(profiles=profiles, edges=tuple(edges), leaves=leaves)


class TestProofNeighborhood:
    @pytest.mark.parametrize("builder", [build_odd_tree, build_even_tree])
    def test_unsat_and_small(self, builder, solver_cmd, tmp_path):
        tree = builder(4)
        result = satgen.encode_proof_neighborhood(tree)
        assert result.formula.num_vars <= 40
        assert len(result.formula.clauses) <= 500
        assert solve(result.formula, solver_cmd, tmp_path).status == "UNSAT"

    def test_deleting_any_leaf_unit_flips_to_sat(self, solver_cmd, tmp_path):
        tree = build_odd_tree(4)
        result = satgen.encode_proof_neighborhood(tree)
        for leaf in tree.leaves:
            mutated = without_leaf_unit(result, leaf)
            run = solve(mutated, solver_cmd, tmp_path, f"minus_{leaf.node}.cnf")
            assert run.status == "SAT", leaf.node

    @pytest.mark.parametrize("builder", [build_odd_tree, build_even_tree])
    @pytest.mark.parametrize("m", [4, 5])
    def test_tampered_tree_is_rejected(self, builder, m):
        # every node and winner that names a variable is checked: a bad one
        # is a PrefRevError naming the edge, the leaf or the leaf's key,
        # never a KeyError, an IndexError or a unit on another profile's
        # variable
        tree = builder(m)
        first = tree.edges[0]
        bad_leaf = tree.leaves[0]  # not the last node of the tree
        assert bad_leaf.node != list(tree.profiles)[-1]
        tampered = {
            f"edge NOPE -> {first.dst}: NOPE is not a profile of the tree": tree.replace(
                edges=(first.replace(src="NOPE"),) + tree.edges[1:]),
            f"edge {first.src} -> NOPE: NOPE is not a profile of the tree": tree.replace(
                edges=(first.replace(dst="NOPE"),) + tree.edges[1:]),
            f"key {bad_leaf.node}: Condorcet winner {m} is not an alternative "
            f"in 0..{m - 1}": tree.replace(
                leaves=(bad_leaf.replace(condorcet=m),) + tree.leaves[1:]),
            f"key {bad_leaf.node}: Condorcet winner -1 is not an alternative "
            f"in 0..{m - 1}": tree.replace(
                leaves=(bad_leaf.replace(condorcet=-1),) + tree.leaves[1:]),
            "leaf NOPE: not a profile of the tree": tree.replace(
                leaves=(bad_leaf.replace(node="NOPE"),) + tree.leaves[1:]),
        }
        for message, candidate in tampered.items():
            with pytest.raises(errors.PrefRevError) as caught:
                satgen.encode_proof_neighborhood(candidate)
            assert str(caught.value) == message

    def test_unsat_iff_tree_verifies_on_mutations(self, solver_cmd, tmp_path):
        tree = build_odd_tree(4)
        mutants = []
        # wrong Condorcet claim at a leaf
        mutants.append(tree.replace(leaves=tuple(
            l.replace(condorcet=0) if l.node == "P2" else l
            for l in tree.leaves)))
        # a leaf dropped entirely
        mutants.append(tree.replace(leaves=tree.leaves[1:]))
        # an edge reversing the wrong order (destination kept stale)
        abcd = Alternatives(default_labels(4))
        wrong = parse_order("a>b>c>d", abcd)
        edges = tuple(e.replace(reversals=((3, wrong),))
                      if (e.src, e.dst) == ("P4", "P6") else e
                      for e in tree.edges)
        mutants.append(tree.replace(edges=edges))

        cases = [(tree, True)] + [(mutant, False) for mutant in mutants]
        for i, (candidate, expect_sound) in enumerate(cases):
            assert verify_tree(candidate).ok == expect_sound
            formula = satgen.encode_proof_neighborhood(candidate).formula
            run = solve(formula, solver_cmd, tmp_path, f"mutant{i}.cnf")
            assert (run.status == "UNSAT") == expect_sound

    @pytest.mark.parametrize("builder", [build_odd_tree, build_even_tree])
    def test_unsat_iff_tree_verifies_on_random_mutations(self, builder, dpll):
        # the formula replays single reversals and never reads a carried set,
        # so a carried set is the checker's certificate alone: the tree must
        # not verify unless the formula is UNSAT, and with the tree's own
        # carried sets the formula is UNSAT exactly when the tree verifies
        tree = builder(4)
        own = {(edge.src, edge.dst): edge.carried for edge in tree.edges}
        rng = random.Random(f"mutants:{builder.__name__}")
        verdicts = Counter()
        mutants = 0
        while mutants < 60:
            mutant = random_mutant(tree, rng)
            if mutant is None:
                continue
            mutants += 1
            formula = satgen.encode_proof_neighborhood(mutant).formula
            unsat = dpll.solve(formula.num_vars, list(formula.clauses)) is None
            sound = verify_tree(mutant).ok
            assert unsat or not sound
            if all(edge.carried == own[edge.src, edge.dst] for edge in mutant.edges):
                assert unsat == sound
            else:
                restored = mutant.replace(edges=tuple(
                    edge.replace(carried=own[edge.src, edge.dst]) for edge in mutant.edges))
                assert satgen.encode_proof_neighborhood(restored).formula == formula
            verdicts[sound, unsat] += 1
        # the mutants reach both verdicts of the formula and of the checker
        assert verdicts[True, True] and verdicts[False, False] and verdicts[False, True]


class TestC2Mode:
    def test_gate_matches_profile_enumeration(self):
        for n, m in ((1, 3), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4)):
            keys, previous = satgen.enumerate_margin_keys(n, m)
            oracle: dict[tuple, set[int]] = {}
            for profile in iter_profiles(n, m):
                oracle.setdefault(margin_matrix(profile).rows, set()).update(
                    order_index(v) for v in profile.votes)
            assert keys == sorted(keys) and len(keys) == len(oracle)
            # the gate, K - vote(o) at level n-1, gives each key's edges the
            # orders its realizations use, ascending; an edge's order is the
            # one whose reversal template it fills the same way
            varmap = satgen.VariableMap(n=n, m=m, mode="c2", keys=tuple(keys))
            slots = [str(slot) for slot in range(2 * m)]
            order_of = {line % take(slots): o for o, (line, take, _)
                        in enumerate(satgen._reversal_templates(m))}
            edge_orders: dict[tuple, list[int]] = {
                keyspace.key_rows(key, m): [] for key in keys}
            _, edges = satgen._c2_key_space(varmap, previous)
            for (line, take, _), rank, _ in edges:
                edge_orders[keyspace.key_rows(keys[rank], m)].append(
                    order_of[line % take(slots)])
            assert edge_orders == {
                rows: sorted(orders) for rows, orders in oracle.items()}

    def test_pipeline(self, solver_cmd, tmp_path):
        result = satgen.encode_full(3, 3, mode="c2")
        run = solve(result.formula, solver_cmd, tmp_path, "c2.cnf")
        assert run.status == "SAT"
        model = satgen.read_dimacs_model(io.StringIO(run.output), result.varmap)
        table = satgen.decode_model(model, result.varmap)
        assert table.mode == "c2"
        # the induced profile rule satisfies both axioms, checked without
        # any CNF involvement
        for profile in iter_profiles(3, 3):
            winner = condorcet_winner(profile)
            if winner is not None:
                assert table(profile) == winner
        assert check_halfway_monotonicity(table, 3, 3) is None

    def test_budget(self):
        with pytest.raises(errors.BudgetExceeded):
            satgen.enumerate_margin_keys(8, 4, budget=50)

    def test_budget_counts_keys(self):
        # (3, 4) has exactly 1136 realizable margin matrices
        with pytest.raises(errors.BudgetExceeded, match="1135 keys"):
            satgen.enumerate_margin_keys(3, 4, budget=1135)
        keys, _ = satgen.enumerate_margin_keys(3, 4, budget=1136)
        assert len(keys) == 1136

    def test_budget_checked_while_a_level_is_built(self):
        # level 2 at m=7 has 25M candidate sums; the budget must stop the
        # build long before they are all formed
        start = time.perf_counter()
        with pytest.raises(errors.BudgetExceeded):
            satgen.enumerate_margin_keys(2, 7, budget=10_000)
        assert time.perf_counter() - start < 5


class TestRunSolver:
    def test_reports_unsat(self, solver_cmd, tmp_path):
        formula = cnf_formula(1, ((1,), (-1,)))
        assert solve(formula, solver_cmd, tmp_path).status == "UNSAT"

    def test_reports_sat_with_model(self, solver_cmd, tmp_path):
        formula = cnf_formula(2, ((1, -2),))
        run = solve(formula, solver_cmd, tmp_path)
        assert run.status == "SAT"
        varmap = satgen.VariableMap(n=1, m=2, mode="profile")
        model = satgen.read_dimacs_model(io.StringIO(run.output), varmap)
        assert model[1] or not model[2]

    # every verdict line run_solver reads, in the spellings solvers print
    @pytest.mark.parametrize("line, status", [
        ("s SATISFIABLE", "SAT"), ("S SATISFIABLE", "SAT"), ("SATISFIABLE", "SAT"),
        ("satisfiable", "SAT"), ("SAT", "SAT"), ("sat", "SAT"),
        ("  S SATISFIABLE  ", "SAT"),
        ("s UNSATISFIABLE", "UNSAT"), ("S UNSATISFIABLE", "UNSAT"),
        ("UNSATISFIABLE", "UNSAT"), ("unsatisfiable", "UNSAT"),
        ("UNSAT", "UNSAT"), ("unsat", "UNSAT"), ("  S UNSATISFIABLE\t", "UNSAT"),
    ])
    def test_both_readers_take_each_status_line(self, tmp_path, line, status):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 0\n")
        # exits 0, so the verdict can only come from the printed line
        fake = [sys.executable, "-c", f"print({line!r})"]
        assert satgen.run_solver(fake, str(cnf)).status == status
        assert satgen.solver_status(line) == status
        varmap = satgen.VariableMap(n=1, m=2, mode="profile")
        if status == "SAT":
            model = satgen.read_dimacs_model(io.StringIO(f"{line}\nv 1 -2 0\n"),
                                             varmap)
            assert model == {1: True, 2: False}
        else:
            with pytest.raises(errors.PrefRevError, match="no model literals"):
                satgen.read_dimacs_model(io.StringIO(f"{line}\n"), varmap)
