"""The bundled DIMACS solver's loader: equal to the per-line reference parser
on well-formed files, a clear error on malformed ones."""

import importlib.util
import random
import subprocess

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
    def test_empty_clause_is_unsat(self, tmp_path):
        proc = run_solver(write(tmp_path, "p cnf 2 2\n1 2 0\n0\n"))
        assert (proc.returncode, proc.stdout) == (20, "s UNSATISFIABLE\n")

    @pytest.mark.parametrize("num_vars", [1, 18, 19, 37, 38, 40])
    def test_model_lines_hold_19_words(self, tmp_path, num_vars):
        text = one_per_line(num_vars, [[v] for v in range(1, num_vars + 1)])
        proc = run_solver(write(tmp_path, text))
        words = [str(v) for v in range(1, num_vars + 1)] + ["0"]
        expected = "".join("v " + " ".join(words[i:i + 19]) + "\n"
                           for i in range(0, len(words), 19))
        assert (proc.returncode, proc.stdout) == (10, "s SATISFIABLE\n" + expected)


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

    def test_large_file_names_the_line(self, dpll, tmp_path):
        clauses = [[1, -2]] * 20_000 + [[1, 7]]
        path = write(tmp_path, one_per_line(2, clauses))
        with pytest.raises(dpll.DimacsError, match="line 20002: literal 7 beyond"):
            dpll.parse_dimacs(path)
