"""The bundled DIMACS solver: its loader equals the per-line reference
parser on well-formed files and gives a clear error on malformed ones, and
its search returns the reference DPLL's model, byte for byte."""

import gc
import importlib.util
import random
import subprocess
import sys
import tracemalloc
from collections import defaultdict, deque

import pytest

from conftest import GOLDEN, REPO_ROOT, SOLVER_CMD
from prefrev import satgen
from prefrev.proofcheck import build_even_tree, build_odd_tree

SOLVER_PATH = REPO_ROOT / "tools" / "dpll_solve.py"


@pytest.fixture(scope="module")
def dpll():
    spec = importlib.util.spec_from_file_location("dpll_solve", SOLVER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_parse(path):
    """The solver's earlier loader: one clause per line, a trailing 0 dropped."""
    num_vars = 0
    clauses = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                num_vars = int(parts[2])
                continue
            lits = [int(x) for x in line.split()]
            if lits and lits[-1] == 0:
                lits.pop()
            if lits:
                clauses.append(lits)
            else:
                clauses.append([])  # empty clause: trivially unsatisfiable
    return num_vars, clauses


def reference_solve(num_vars, clauses):
    """The solver's earlier search: DPLL over occurrence lists with clause
    counters, unit propagation, chronological backtracking and the static
    most-occurrences order, True first."""
    occ = [[] for _ in range(2 * num_vars + 1)]  # occ[num_vars + lit]: clauses with lit
    for ci, clause in enumerate(clauses):
        if not clause:
            return None
        for lit in clause:
            occ[num_vars + lit].append(ci)
    occ_pos, occ_neg = occ[num_vars:], occ[num_vars::-1]  # by variable

    sat_count = [0] * len(clauses)
    free_count = [len(c) for c in clauses]
    value = [None] * (num_vars + 1)
    trail = []  # (var, is_decision, flipped)
    queue = deque()

    order = sorted(range(1, num_vars + 1),
                   key=lambda v: -(len(occ_pos[v]) + len(occ_neg[v])))

    def on_assign(var, val):
        # returns a conflicting clause index or None
        value[var] = val
        sats = occ_pos[var] if val else occ_neg[var]
        unsats = occ_neg[var] if val else occ_pos[var]
        for ci in sats:
            sat_count[ci] += 1
        conflict = None
        for ci in unsats:
            free_count[ci] -= 1
            if sat_count[ci] == 0:
                if free_count[ci] == 0:
                    conflict = ci
                elif free_count[ci] == 1:
                    queue.append(ci)
        return conflict

    def undo(var):
        val = value[var]
        value[var] = None
        sats = occ_pos[var] if val else occ_neg[var]
        unsats = occ_neg[var] if val else occ_pos[var]
        for ci in sats:
            sat_count[ci] -= 1
        for ci in unsats:
            free_count[ci] += 1

    def propagate():
        while queue:
            ci = queue.popleft()
            if sat_count[ci] > 0 or free_count[ci] != 1:
                continue
            lit = next(l for l in clauses[ci] if value[abs(l)] is None)
            trail.append((abs(lit), False, False))
            conflict = on_assign(abs(lit), lit > 0)
            if conflict is not None:
                return conflict
        return None

    for ci, clause in enumerate(clauses):
        if len(clause) == 1:
            queue.append(ci)

    next_order_pos = 0
    conflict = propagate()
    while True:
        if conflict is not None:
            queue.clear()
            flipped_a_decision = False
            while trail:
                var, is_decision, flipped = trail.pop()
                undo(var)
                if is_decision and not flipped:
                    # retry this decision with the other value
                    trail.append((var, True, True))
                    conflict = on_assign(var, False)
                    next_order_pos = 0
                    flipped_a_decision = True
                    break
            if not flipped_a_decision:
                return None
            if conflict is None:
                conflict = propagate()
            continue
        while next_order_pos < len(order) and value[order[next_order_pos]] is not None:
            next_order_pos += 1
        if next_order_pos == len(order):
            return [v if value[v] else -v for v in range(1, num_vars + 1)]
        var = order[next_order_pos]
        trail.append((var, True, False))
        conflict = on_assign(var, True)
        if conflict is None:
            conflict = propagate()


def solver_output(model):
    """The exit code and stdout the solver gives for ``model``."""
    if model is None:
        return 20, "s UNSATISFIABLE\n"
    words = [str(lit) for lit in model] + ["0"]
    return 10, "s SATISFIABLE\n" + "".join("v " + " ".join(words[i:i + 19]) + "\n"
                                           for i in range(0, len(words), 19))


def random_cnf(rng):
    """A small random formula: clauses of 1-6 literals, some with a repeated
    literal or a tautology, now and then an empty clause, and variables
    above ``used`` that never occur."""
    num_vars = rng.randint(0, 14)
    used = rng.randint(0, num_vars)
    clauses = []
    for _ in range(rng.randint(0, 6 * used)):
        clause = [rng.choice((-1, 1)) * rng.randint(1, used)
                  for _ in range(rng.choice((1, 2, 2, 2, 3, 3, 4, 5, 6)))]
        if rng.random() < 0.1:
            clause.append(clause[0])
        if rng.random() < 0.05:
            clause.append(-clause[0])
        clauses.append(tuple(clause))
    if rng.random() < 0.02:
        clauses.insert(rng.randrange(len(clauses) + 1), ())
    return num_vars, clauses


def loaded(dpll, path):
    num_vars, clauses = dpll.parse_dimacs(path)
    return num_vars, [list(clause) for clause in clauses]


def write(tmp_path, text, name="f.cnf"):
    path = tmp_path / name
    path.write_text(text)
    return path


def one_per_line(num_vars, clauses, comments=0, seed=0):
    """A DIMACS text with one clause per line and ``comments`` comment
    lines spread through the body."""
    lines = [" ".join(map(str, clause)) + " 0\n" for clause in clauses]
    rng = random.Random(seed)
    for _ in range(comments):
        lines.insert(rng.randrange(len(lines) + 1), "c a comment 1 2 0\n")
    return f"p cnf {num_vars} {len(clauses)}\n" + "".join(lines)


def run_solver(path):
    return subprocess.run(SOLVER_CMD + [str(path)], capture_output=True, text=True)


class TestLoaderMatchesReference:
    @pytest.mark.parametrize("name", ["encode_m2_n1.cnf", "encode_c2_m3_n3.cnf"])
    def test_golden_cnfs(self, dpll, name):
        assert loaded(dpll, GOLDEN / name) == reference_parse(GOLDEN / name)

    @pytest.mark.parametrize("builder,m", [(build_odd_tree, 4), (build_even_tree, 6)])
    def test_proof_cnfs(self, dpll, tmp_path, builder, m):
        path = tmp_path / "proof.cnf"
        with open(path, "w") as handle:
            satgen.write_dimacs(satgen.encode_proof_neighborhood(builder(m)).formula, handle)
        assert loaded(dpll, path) == reference_parse(path)

    @pytest.mark.parametrize("text", [
        "c header comment\np cnf 3 2\n1 -2 0\nc a comment 3 0\n  c indented\n\n2 3 0\n",
        "p cnf 2 2\n1 0\n-1 2\n",        # the last clause has no 0
        "p cnf 2 2\n1 2 0\n0\n",         # an empty clause
        "p cnf 300 2\n+1 -0300 0\n-300 0\n",  # odd spellings of in-range literals
    ], ids=["comments", "last-without-0", "empty-clause", "odd-spellings"])
    def test_small_files(self, dpll, tmp_path, text):
        path = write(tmp_path, text)
        assert loaded(dpll, path) == reference_parse(path)

    def test_clauses_split_at_zeros_not_lines(self, dpll, tmp_path):
        # the reference reads a line as one clause, so it is given the same
        # clauses one to a line
        clauses = [[1, -2, 3], [-1], [2], [3, 1]]
        split = write(tmp_path, "p cnf 3 4\n1 -2\n3 0 -1 0 2\n0\n3 1 0\n", "split.cnf")
        lined = write(tmp_path, one_per_line(3, clauses), "lined.cnf")
        assert loaded(dpll, split) == reference_parse(lined) == (3, clauses)

    @pytest.mark.parametrize("layout", ["runs", "mixed", "periodic", "unterminated",
                                        "odd-spellings", "comment-in-run",
                                        "periodic-odd-spellings"])
    def test_uniform_and_mixed_blocks(self, dpll, tmp_path, layout):
        # "runs": families of one length, each longer than a read block, as
        # the encoder writes them; "mixed": one 4-literal clause, then six
        # binary ones, over and over, so that every block mixes lengths;
        # "periodic": that pattern between two uniform families, over many
        # read blocks, from and to the middle of one
        rng = random.Random(layout)

        def family(length, count):
            return [[rng.choice((-1, 1)) * rng.randint(1, 300) for _ in range(length)]
                    for _ in range(count)]

        def pattern(count):
            return [c for _ in range(count) for c in family(4, 1) + family(2, 6)]

        if layout == "mixed":
            clauses = pattern(5000)
        elif layout.startswith("periodic"):
            clauses = family(2, 3001) + pattern(4000) + family(1, 5003)
        else:
            clauses = family(2, 20_000) + family(3, 12_000) + family(1, 30_000)
        lines = [" ".join(map(str, clause)) + " 0\n" for clause in clauses]
        if layout == "unterminated":
            lines[-1] = lines[-1].removesuffix(" 0\n")
        elif layout.endswith("odd-spellings"):
            # inside a run of binary clauses: +1 for 1, -0 for the closing 0
            for i in rng.sample([i for i, c in enumerate(clauses) if len(c) == 2], 50):
                lines[i] = f"+1 {clauses[i][1]} -0\n"
        elif layout == "comment-in-run":
            for i in rng.sample(range(20_000), 20):
                lines[i] += "c a comment 1 2 0\n"
        path = write(tmp_path, "p cnf 300 %d\n" % len(lines) + "".join(lines))
        assert path.stat().st_size > 4 * dpll._BLOCK
        assert loaded(dpll, path) == reference_parse(path)

    def test_a_repeating_pattern_is_cut_into_runs(self, dpll, tmp_path):
        # one 4-literal clause, then six binary ones, from and to the middle
        # of a read block: each block's clauses go to solve as 7 runs, one
        # per place in the pattern, and only the pattern's edges in a block
        # go as single clauses
        rng = random.Random(7)
        clauses = [[rng.randint(1, 300) for _ in range(length)]
                   for _ in range(6000) for length in (4, 2, 2, 2, 2, 2, 2)]
        path = write(tmp_path, one_per_line(300, clauses))
        assert path.stat().st_size > 4 * dpll._BLOCK
        body = dpll._read(path)
        next(body)
        items = list(body)
        runs = [item for item in items if type(item) is dpll._Runs]
        assert [len(item) for item in runs].count(7) > 4
        assert len(items) - len(runs) < 2 * 7 * len(runs)
        assert list(dpll._clauses(items)) == list(map(tuple, clauses))

    def test_zeros_inside_a_run_split_it(self, dpll, tmp_path):
        # a unit and an empty clause on one line in a run of binary clauses
        # put a 0 where the run has a literal: the block is split at its 0s
        clauses = [[1, -2]] * 20_000 + [[3], []] + [[2, 3]] * 20_000
        path = write(tmp_path, "p cnf 3 40002\n" + "1 -2 0\n" * 20_000 + "3 0 0\n"
                     + "2 3 0\n" * 20_000)
        assert path.stat().st_size > 2 * dpll._BLOCK
        assert loaded(dpll, path) == (3, clauses)

    def test_larger_than_a_read_block(self, dpll, tmp_path):
        rng = random.Random(11)
        num_vars = 1000
        clauses = [[rng.choice((-1, 1)) * rng.randint(1, num_vars)
                    for _ in range(rng.randint(1, 4))] for _ in range(30_000)]
        path = write(tmp_path, one_per_line(num_vars, clauses, comments=40))
        assert path.stat().st_size > 4 * dpll._BLOCK
        num_vars_read, read = dpll.parse_dimacs(path)
        assert (num_vars_read, [list(c) for c in read]) == reference_parse(path)
        # every occurrence of a literal is one shared object
        assert (len({id(lit) for clause in read for lit in clause})
                == len({lit for clause in read for lit in clause}))


class TestSolverRuns:
    @pytest.mark.parametrize("name", ["c2_m3_n3", "m2_n1"])
    def test_golden_models(self, name):
        proc = run_solver(GOLDEN / f"encode_{name}.cnf")
        assert proc.returncode == 10
        assert proc.stdout == (GOLDEN / f"dpll_{name}.model").read_text()

    def test_empty_clause_is_unsat(self, tmp_path):
        proc = run_solver(write(tmp_path, "p cnf 2 2\n1 2 0\n0\n"))
        assert (proc.returncode, proc.stdout) == (20, "s UNSATISFIABLE\n")

    @pytest.mark.parametrize("num_vars", [1, 18, 19, 37, 38, 40])
    def test_model_lines_hold_19_words(self, tmp_path, num_vars):
        text = one_per_line(num_vars, [[v] for v in range(1, num_vars + 1)])
        proc = run_solver(write(tmp_path, text))
        assert (proc.returncode, proc.stdout) == solver_output(list(range(1, num_vars + 1)))


class TestPropagation:
    """``_propagate`` on hand-built implication lists and watches, laid out
    as ``solve`` lays them out: the model does not show how much the
    propagation sets, the trail does."""

    @staticmethod
    def propagate(dpll, num_vars, binary, longer, assumed):
        size = 2 * num_vars + 1
        imp = [[] for _ in range(size)]
        for a, b in binary:
            imp[a].append(b)
            imp[b].append(a)
        watch = defaultdict(list)
        for clause in map(list, longer):
            watch[clause[0]].append(clause)
            watch[clause[1]].append(clause)
        value = [None] * size
        for lit in assumed:
            value[lit], value[-lit] = True, False
        trail = list(assumed)
        return dpll._propagate(trail, 0, value, imp, watch), trail

    def test_watched_clause_puts_its_last_literal_on_the_trail(self, dpll):
        assert self.propagate(dpll, 3, [], [(1, 2, 3)], [-1, -2]) == (True, [-1, -2, 3])

    def test_implications_chain_into_a_watched_clause(self, dpll):
        binary = [(-1, 2), (-2, 3)]
        assert self.propagate(dpll, 4, binary, [(-2, -3, 4)], [1]) == (True, [1, 2, 3, 4])

    def test_conflicts(self, dpll):
        assert self.propagate(dpll, 3, [], [(1, 2, 3)], [-1, -2, -3])[0] is False
        assert self.propagate(dpll, 3, [(-1, 2)], [(-1, -2, 3)], [-3, 1])[0] is False


class TestMainInProcess:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_restores_the_callers_gc(self, dpll, tmp_path, monkeypatch, capsys,
                                          enabled):
        solve, seen = dpll.solve, []

        def solve_watching_gc(*args):
            seen.append(gc.isenabled())
            return solve(*args)

        monkeypatch.setattr(dpll, "solve", solve_watching_gc)
        monkeypatch.setattr(sys, "argv", ["dpll_solve.py",
                                          str(write(tmp_path, "p cnf 2 1\n1 -2 0\n"))])
        frozen = gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            status = dpll.main()
            after = gc.isenabled(), gc.get_freeze_count()
        finally:
            gc.enable()
        assert (status, capsys.readouterr().out) == solver_output([1, 2])
        assert seen == [False]  # the search runs with the GC off
        assert after == (enabled, frozen)


class TestSearchMatchesReference:
    def test_random_cnfs(self, dpll):
        verdicts = []
        for seed in range(3000):
            num_vars, clauses = random_cnf(random.Random(seed))
            model = dpll.solve(num_vars, clauses)
            assert model == reference_solve(num_vars, clauses), seed
            # one pass over any iterable, as main hands it the file's clauses
            assert dpll.solve(num_vars, iter(clauses)) == model, seed
            verdicts.append(model is None)
        # both verdicts, each many times over
        assert min(verdicts.count(True), verdicts.count(False)) > 500

    def test_random_cnfs_read_from_files(self, dpll, tmp_path):
        # as main reads them: the reader hands solve single clauses and runs
        for seed in range(200):
            num_vars, clauses = random_cnf(random.Random(seed))
            path = write(tmp_path, one_per_line(num_vars, clauses), f"{seed}.cnf")
            body = dpll._read(path)
            assert dpll.solve(next(body), body) == reference_solve(num_vars, clauses), seed

    @pytest.mark.parametrize("case", ["profile-n2-m3", "c2-n3-m4", "proof-odd-m4",
                                      "proof-even-m6", "profile-n3-m4", "c2-n4-m4"])
    def test_stdout_is_the_reference_model(self, encoded, case):
        path = encoded(case)
        proc = run_solver(path)
        assert (proc.returncode, proc.stdout) == solver_output(
            reference_solve(*reference_parse(path)))


@pytest.fixture(scope="module")
def encoded(tmp_path_factory):
    """The path of a CNF the encoder writes, by case name, each written once:
    ``profile-nN-mM`` and ``c2-nN-mM`` are full formulas, ``proof-odd-m4``
    and ``proof-even-m6`` the proof neighbourhoods."""
    paths = {}

    def path_of(case):
        if case not in paths:
            kind, *sizes = case.split("-")
            if kind == "proof":
                builder = build_odd_tree if sizes[0] == "odd" else build_even_tree
                result = satgen.encode_proof_neighborhood(builder(int(sizes[1][1:])))
            else:
                n, m = (int(size[1:]) for size in sizes)
                result = satgen.encode_full(n, m, mode=kind)
            paths[case] = tmp_path_factory.mktemp("cnf") / f"{case}.cnf"
            with open(paths[case], "w") as handle:
                satgen.write_dimacs(result.formula, handle)
        return paths[case]

    return path_of


def traced_mib(build):
    """``(result, current, peak)``: what ``build()`` returns and the memory
    in MiB that it holds and that it held at most, under tracemalloc."""
    tracemalloc.start()
    try:
        result = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current / 2**20, peak / 2**20


class TestMemory:
    def test_reading_holds_less_than_a_token_table(self, dpll, encoded):
        # the reader turns tokens into literals with int() and one list of
        # the 2 VARS + 1 shared literals: reading the whole body of the
        # profile (3,4) formula peaks below a str -> int table of its tokens
        path = encoded("profile-n3-m4")
        num_vars, clauses = dpll.read_dimacs(path)
        _, table_mib, _ = traced_mib(
            lambda: {str(lit): lit for lit in range(-num_vars, num_vars + 1)})
        _, _, read_mib = traced_mib(lambda: deque(clauses, maxlen=0))
        assert read_mib < table_mib, (read_mib, table_mib)


MALFORMED = {  # file text, expected message
    "literal-beyond-header": ("p cnf 2 1\n1 3 0\n",
                              "line 2: literal 3 beyond the header's 2 variables"),
    "negative-beyond-header": ("p cnf 2 1\n1 0\nc\n-3 0\n",
                               "line 4: literal -3 beyond the header's 2 variables"),
    "non-integer-token": ("p cnf 2 1\n1 x 0\n", "line 2: non-integer token 'x'"),
    "clause-before-header": ("c hi\n1 2 0\np cnf 2 1\n",
                             "line 2: clause before the 'p cnf' header"),
    "no-header": ("c nothing here\n", "no 'p cnf' header"),
    "empty-file": ("", "no 'p cnf' header"),
    "bad-header": ("p cnf two 1\n1 0\n", "line 1: bad header"),
    "second-header": ("p cnf 2 1\n1 0\np cnf 2 1\n", "line 3: a second 'p' line"),
    # refused before the list of shared literals, which would need 2 VARS + 1 entries
    "header-2^31-vars": ("p cnf 2147483648 1\n1 0\n",
                         "line 1: header declares 2147483648 variables, "
                         "more than 2147483647"),
    "header-10^20-vars": ("p cnf 100000000000000000000 1\n1 0\n",
                          "line 1: header declares 100000000000000000000 variables, "
                          "more than 2147483647"),
    # more digits than int() converts: refused by its length, not a traceback
    "header-5000-digit-vars": (f"p cnf {'9' * 5000} 1\n1 0\n",
                               f"line 1: header declares {'9' * 5000} variables, "
                               "more than 2147483647"),
}


class TestMalformed:
    @pytest.mark.parametrize("text,message", MALFORMED.values(), ids=MALFORMED.keys())
    def test_one_error_line_and_exit_1(self, tmp_path, text, message):
        path = write(tmp_path, text)
        proc = run_solver(path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: {path}: {message}")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")

    def test_missing_file(self, tmp_path):
        proc = run_solver(tmp_path / "none.cnf")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "No such file" in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_header_errors_raise_before_the_body_is_read(self, dpll, tmp_path):
        with pytest.raises(dpll.DimacsError, match="line 1: bad header"):
            dpll.read_dimacs(write(tmp_path, "p cnf two 1\n1 0\n"))
        # a body error waits until the clauses are read
        num_vars, clauses = dpll.read_dimacs(write(tmp_path, "p cnf 2 2\n1 0\n1 x 0\n"))
        assert num_vars == 2
        with pytest.raises(dpll.DimacsError, match="line 3: non-integer token 'x'"):
            list(clauses)

    def test_error_past_many_blocks_prints_no_s_line(self, dpll, tmp_path):
        # the clauses are solved as they are read, yet the error is all the
        # output: no s line before the whole file is read
        clauses = [[1, -2], [2, 3, -1]] * 20_000
        path = write(tmp_path, one_per_line(3, clauses) + "1 x 0\n")
        assert path.stat().st_size > 4 * dpll._BLOCK
        proc = run_solver(path)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: {path}: line 40002: non-integer token 'x'\n"

    def test_large_file_names_the_line(self, dpll, tmp_path):
        clauses = [[1, -2]] * 20_000 + [[1, 7]]
        path = write(tmp_path, one_per_line(2, clauses))
        with pytest.raises(dpll.DimacsError, match="line 20002: literal 7 beyond"):
            dpll.parse_dimacs(path)

    @pytest.mark.parametrize("literal", [3, 4, -3, -5, 7, 10**30])
    def test_literal_beyond_the_header_inside_a_run(self, tmp_path, literal):
        # 3 and 4 would index the shared literals within their 2 VARS + 1
        # entries, -5 too, 10**30 past any list: each is an error on its line
        clauses = [[1, -2]] * 20_000
        clauses[10_000] = [literal, 2]
        path = write(tmp_path, one_per_line(2, clauses))
        proc = run_solver(path)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"error: {path}: line 10002: literal {literal} beyond "
                               "the header's 2 variables\n")
