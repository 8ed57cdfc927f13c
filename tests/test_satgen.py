import importlib.util
import io
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from prefrev import errors, keyspace, satgen
from prefrev.monotonicity import check_halfway_monotonicity
from prefrev.prefs import (
    Alternatives,
    default_labels,
    index_to_profile,
    iter_profiles,
    num_profiles,
    order_index,
    parse_order,
)
from prefrev.proofcheck import apply_reversals, build_even_tree, build_odd_tree, verify_tree
from prefrev.rules import RuleTable, resolute_rule, tabulate_rule
from prefrev.tally import condorcet_winner, margin_matrix, rows_condorcet_winner

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def profile_key(profile):
    """The integer margin key of a profile, as c2 tables are keyed."""
    return keyspace.digits_key(profile.m, map(order_index, profile.votes))


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


def mixed_formula(num_clauses: int) -> satgen.CnfFormula:
    """Unit, binary and longer clauses over 1000 variables, in runs and
    alone, with one empty clause."""
    rng = random.Random(5)
    clauses = [tuple(rng.choice((-1, 1)) * rng.randint(1, 1000)
                     for _ in range(rng.choice((1, 2, 2, 2, 3, 4, 7))))
               for _ in range(num_clauses)]
    clauses[num_clauses // 2] = ()
    return satgen.CnfFormula(1000, tuple(clauses))


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

    @pytest.mark.parametrize("make", [
        lambda: satgen.encode_full(2, 3).formula,
        lambda: satgen.encode_full(3, 3, mode="c2").formula,
        lambda: satgen.encode_proof_neighborhood(build_odd_tree(4)).formula,
        lambda: satgen.encode_proof_neighborhood(build_even_tree(6)).formula,
        lambda: mixed_formula(satgen._WRITE_BATCH + 1000),
    ], ids=["profile-2-3", "c2-3-3", "proof-odd-4", "proof-even-6", "mixed"])
    def test_writer_matches_one_line_per_clause(self, make):
        formula = make()
        out = io.StringIO()
        satgen.write_dimacs(formula, out)
        assert out.getvalue() == (
            f"p cnf {formula.num_vars} {len(formula.clauses)}\n"
            + "".join(" ".join(map(str, clause)) + " 0\n" for clause in formula.clauses))

    def test_two_var_example(self):
        formula = satgen.CnfFormula(2, ((1, -2),))
        out = io.StringIO()
        satgen.write_dimacs(formula, out)
        assert out.getvalue() == "p cnf 2 1\n1 -2 0\n"

    def test_bad_literal_rejected(self):
        with pytest.raises(errors.PrefRevError):
            satgen.CnfFormula(2, ((0,),))
        with pytest.raises(errors.PrefRevError):
            satgen.CnfFormula(2, ((3,),))

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
                var = varmap.var(key, alt)
                assert varmap.decode_var(var) == (key, alt)
                seen.add(var)
        assert seen == set(range(1, varmap.num_vars + 1))
        with pytest.raises(errors.VariableOutOfRange):
            varmap.decode_var(varmap.num_vars + 1)


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
        with pytest.raises(errors.MalformedModel, match="unsatisfiable"):
            satgen.read_dimacs_model(io.StringIO("s UNSATISFIABLE\n"),
                                     self.varmap())

    def test_variable_out_of_range(self):
        with pytest.raises(errors.VariableOutOfRange):
            satgen.read_dimacs_model(io.StringIO("v 999 0\n"), self.varmap())

    def test_contradictory_assignment(self):
        with pytest.raises(errors.MalformedModel):
            satgen.read_dimacs_model(io.StringIO("v 1 -1 0\n"), self.varmap())

    def test_non_integer_token(self):
        with pytest.raises(errors.MalformedModel):
            satgen.read_dimacs_model(io.StringIO("v one 0\n"), self.varmap())

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
        with pytest.raises(errors.NotAFunction, match="key 0"):
            satgen.decode_model(assignment, varmap)

    def test_not_a_function_on_missing_winner(self):
        varmap = satgen.VariableMap(n=1, m=2, mode="profile")
        with pytest.raises(errors.NotAFunction, match="key 1"):
            satgen.decode_model({1: True}, varmap)

    def test_decode_rejects_proof_maps(self):
        tree = build_odd_tree(4)
        result = satgen.encode_proof_neighborhood(tree)
        with pytest.raises(errors.PrefRevError):
            satgen.decode_model({}, result.varmap)


class KeyCountingTable:
    """A table that records the margin key of every profile or key it is
    asked about, and counts the calls on a profile apart."""

    def __init__(self, table: RuleTable):
        self.table, self.calls, self.profile_calls = table, [], 0

    def __getattr__(self, name):
        return getattr(self.table, name)

    def __call__(self, profile):
        self.profile_calls += 1
        self.calls.append(profile_key(profile))
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

    @pytest.mark.parametrize("seed", range(5))
    def test_c2_table_names_the_first_failing_profile(self, seed):
        # a c2 table is walked over sorted profiles only; the index it names
        # is still the first failing one in voter order
        rule = resolute_rule("maximin", 3)
        chosen = {}
        for profile in iter_profiles(3, 3):
            chosen.setdefault(profile_key(profile), rule(profile))
        table = RuleTable(3, 3, "c2", chosen)
        keys = sorted(key for key in chosen if rows_condorcet_winner(
            keyspace.key_rows(key, 3)) is not None)
        key = random.Random(seed).choice(keys)
        corrupted = table.replace_entry(key, (chosen[key] + 1) % 3)
        first = next(k for k, profile in enumerate(iter_profiles(3, 3))
                     if profile_key(profile) == key)
        report = satgen.verify_rule(corrupted)
        assert report.failures[0].text.startswith(f"profile {first}: ")

    def test_c2_table_is_asked_once_per_margin_key_and_pass(self):
        # the key-level Condorcet pass reads the entries without a call, and
        # the reversal scan's margin pass asks about a margin key at most once
        rule = resolute_rule("maximin", 3)
        chosen = {}
        for profile in iter_profiles(4, 3):
            chosen.setdefault(profile_key(profile), rule(profile))
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
        corrupted = table.replace_entry(profile_key(profile),
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
            unit = satgen.leaf_unit_clause(tree, result.varmap, leaf.node)
            mutated = result.formula.without_clause(unit)
            run = solve(mutated, solver_cmd, tmp_path, f"minus_{leaf.node}.cnf")
            assert run.status == "SAT", leaf.node

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
            keys, witness = satgen.enumerate_margin_keys(n, m)
            oracle: dict[tuple, set[int]] = {}
            for profile in iter_profiles(n, m):
                oracle.setdefault(margin_matrix(profile).rows, set()).update(
                    order_index(v) for v in profile.votes)
            assert keys == sorted(keys) and set(witness) == set(keys)
            assert {keyspace.key_rows(key, m): witness[key] for key in keys} == oracle

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
        formula = satgen.CnfFormula(1, ((1,), (-1,)))
        assert solve(formula, solver_cmd, tmp_path).status == "UNSAT"

    def test_reports_sat_with_model(self, solver_cmd, tmp_path):
        formula = satgen.CnfFormula(2, ((1, -2),))
        run = solve(formula, solver_cmd, tmp_path)
        assert run.status == "SAT"
        varmap = satgen.VariableMap(n=1, m=2, mode="profile")
        model = satgen.read_dimacs_model(io.StringIO(run.output), varmap)
        assert model[1] or not model[2]
