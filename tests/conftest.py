import os
import subprocess
import sys
from pathlib import Path

import pytest

from prefrev.prefs import iter_profiles
from prefrev.rules import RuleTable, ScoreVector
from prefrev.satgen import CnfFormula

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# any DIMACS solver with the s/v output protocol works here; the repo ships
# a minimal one so the suite has no external dependency
SOLVER_CMD = [sys.executable, str(REPO_ROOT / "tools" / "dpll_solve.py")]


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH, so
    that a child interpreter imports the package under test, installed or
    not."""
    path = [str(REPO_ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_capped(argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``python argv`` with this checkout's package, in a child whose
    address space is capped at 256 MiB: an allocation that grows without
    bound ends in a ``MemoryError`` there, not in the machine running out
    of memory."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (256 * 2**20, 256 * 2**20))

    return subprocess.run([sys.executable, *argv], env=src_env(), capture_output=True,
                          text=True, timeout=60, preexec_fn=cap)


@pytest.fixture(scope="session")
def solver_cmd() -> list[str]:
    return SOLVER_CMD


@pytest.fixture(scope="session")
def perez_profile_path() -> Path:
    return REPO_ROOT / "data" / "perez41.txt"


def borda_vector(m: int) -> ScoreVector:
    return ScoreVector(tuple(range(m - 1, -1, -1)))


def tabulate_rule(rule, n: int, m: int) -> RuleTable:
    """Materialise any resolute rule as a profile-mode table."""
    return RuleTable(n, m, "profile",
                     tuple(rule(p) for p in iter_profiles(n, m)))


# the reference for the CLI's set-valued checks of a resolute rule or table,
# and a set rule whose outcomes the scan reads by table index or margin key
class _Singleton:
    """Lift a resolute rule to a singleton-valued set rule, keeping what
    the rule depends on and its margin-key entry point.  A profile table's
    entries are lifted once, so that the scan still reads them by profile
    index."""

    def __init__(self, rule):
        self.rule = rule
        self.depends_on = getattr(rule, "depends_on", "order")
        on_key = getattr(rule, "on_key", None)
        if on_key is not None:
            self.on_key = lambda key, n, m: frozenset((on_key(key, n, m),))
        if getattr(rule, "mode", None) == "profile":
            singletons = [frozenset((alt,)) for alt in range(rule.m)]
            self.mode, self.n, self.m = rule.mode, rule.n, rule.m
            self.chosen = tuple(map(singletons.__getitem__, rule.chosen))

    def __call__(self, profile):
        return frozenset((self.rule(profile),))


def cnf_formula(num_vars: int, clauses) -> CnfFormula:
    """A formula holding these clause tuples, one DIMACS line each."""
    return CnfFormula(num_vars, len(clauses),
                      "".join(" ".join(map(str, clause)) + " 0\n" for clause in clauses))


def without_leaf_unit(result, leaf) -> CnfFormula:
    """An encoded proof neighborhood's formula with the Condorcet unit line
    of ``leaf`` removed."""
    formula, varmap = result.formula, result.varmap
    lines = formula.text.splitlines(keepends=True)
    lines.remove(f"{varmap.var(varmap.keys.index(leaf.node), leaf.condorcet)} 0\n")
    return formula.replace(num_clauses=formula.num_clauses - 1, text="".join(lines))
