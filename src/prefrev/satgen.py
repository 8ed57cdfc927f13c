"""CNF pipeline: encode the axioms, emit DIMACS, decode models, re-verify.

``encode_full`` writes the three clause families over variables x[P, a]
("the rule picks a at P"): exactly-one-winner functionality, a unit clause
per Condorcet profile, and one binary clause per (voter, profile, ordered
pair) forbidding a reversal from strictly improving the outcome.  A
satisfying assignment is a Condorcet extension immune to the reversal
paradox, decodable into a :class:`~prefrev.rules.RuleTable`;
unsatisfiability is an impossibility proof for that electorate.

``encode_proof_neighborhood`` restricts the variables to the profiles of a
verified proof tree and is expected unsatisfiable; it is small enough to
hand to core-extraction tooling unchanged.

Solving is never done in-process: callers hand the DIMACS file to any
external solver binary and feed its output back through
:func:`read_dimacs_model`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence, TextIO

from .errors import (
    BudgetExceeded,
    MalformedModel,
    NotAFunction,
    PrefRevError,
    VariableOutOfRange,
)
from .prefs import (
    Record,
    enumerate_orders,
    iter_digits,
    num_profiles,
    profile_to_index,
    reverse_index_table,
)
from .rules import RuleTable
from . import keyspace, tally

# proofcheck, monotonicity, report, shlex and subprocess are imported by the
# functions that use them, so that encode and decode processes do not load
# them
if TYPE_CHECKING:
    from .proofcheck import ProofTree
    from .report import Report

DEFAULT_KEY_BUDGET = 1_000_000

Clause = tuple[int, ...]


class CnfFormula(Record):
    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: tuple[Clause, ...]) -> None:
        for clause in clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > num_vars:
                    raise PrefRevError(f"bad literal {lit} in clause {clause}")
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "clauses", clauses)

    def without_clause(self, clause: Clause) -> "CnfFormula":
        """A copy with one occurrence of ``clause`` removed (mutation tests)."""
        clauses = list(self.clauses)
        clauses.remove(clause)
        return CnfFormula(self.num_vars, tuple(clauses))


class VariableMap(Record):
    """Bijection between 1-based CNF variables and (key, alternative) pairs.

    Keys are profile indices (profile mode, ``keys`` None), the sorted
    integer margin keys of :mod:`prefrev.keyspace` (c2 mode), or proof-tree
    node names (proof mode); in every mode
    ``var = key_rank * m + alternative + 1``.
    """

    __slots__ = ("n", "m", "mode", "keys")

    def __init__(self, n: int, m: int, mode: str,
                 keys: tuple[int, ...] | tuple[str, ...] | None = None) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "keys", keys)

    @property
    def num_keys(self) -> int:
        return num_profiles(self.n, self.m) if self.keys is None else len(self.keys)

    @property
    def num_vars(self) -> int:
        return self.num_keys * self.m

    def var(self, key_rank: int, alt: int) -> int:
        return key_rank * self.m + alt + 1

    def decode_var(self, var: int) -> tuple[int, int]:
        if not 1 <= var <= self.num_vars:
            raise VariableOutOfRange(f"variable {var} not in 1..{self.num_vars}")
        return divmod(var - 1, self.m)

    def key_name(self, key_rank: int) -> str:
        if self.keys is None:
            return str(key_rank)
        if self.mode == "c2":
            return keyspace.key_text(self.keys[key_rank], self.m)
        return self.keys[key_rank]


class EncodeResult(Record):
    __slots__ = ("formula", "varmap", "counts")

    def __init__(self, formula: CnfFormula, varmap: VariableMap,
                 counts: dict[str, int]) -> None:
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "varmap", varmap)
        object.__setattr__(self, "counts", counts)


# --- the full formula -----------------------------------------------------------


def encode_full(n: int, m: int, mode: str = "profile", *,
                budget: int | None = None) -> EncodeResult:
    """The full formula whose models are the reversal-immune Condorcet
    extensions at (n, m).

    Profile mode spends one variable block per profile; c2 mode keys the
    blocks by realizable margin matrices instead (see
    :func:`enumerate_margin_keys` for the gating).  Both feed the same
    encoder a key space: per key its Condorcet winner and its reversal
    edges.
    """
    if mode == "profile":
        budget = DEFAULT_KEY_BUDGET if budget is None else budget
        total = num_profiles(n, m)
        if total > budget:
            raise BudgetExceeded(f"profile mode needs {total} keys, budget is {budget}",
                                 scanned=0, total=total)
        varmap = VariableMap(n=n, m=m, mode="profile")
        key_space = _profile_key_space(n, m)
    elif mode == "c2":
        varmap, witness_orders = c2_variable_map(n, m, budget=budget)
        key_space = _c2_key_space(varmap, witness_orders)
    else:
        raise PrefRevError(f"unknown encode mode {mode!r}")
    return _encode_key_space(varmap, key_space)


def _profile_key_space(n: int, m: int):
    """Per profile index: its Condorcet winner and, per voter, the edge
    (vote, index of the profile where that voter reversed)."""
    fact = math.factorial(m)
    places = [fact ** (n - 1 - voter) for voter in range(n)]
    rev = reverse_index_table(m)
    winners = tally.CondorcetWinners(m)  # the margin key fixes the winner
    for key, digits in iter_digits(n, m):
        edges = [(d, key + (rev[d] - d) * place) for d, place in zip(digits, places)]
        yield key, winners[keyspace.digits_key(m, digits)], edges


def c2_variable_map(n: int, m: int, *, budget: int | None = None
                    ) -> tuple[VariableMap, dict[int, set[int]]]:
    """The c2 variable map, keyed by the margin keys realizable by n
    voters, with their witness orders.

    ``encode_full`` and ``cli decode`` both take their c2 keys from here,
    so a model is always read against the key order it was written with.
    """
    keys, witness_orders = enumerate_margin_keys(n, m, budget=budget)
    return VariableMap(n=n, m=m, mode="c2", keys=tuple(keys)), witness_orders


def _c2_key_space(varmap: VariableMap, witness_orders: dict[int, set[int]]):
    """Per margin key: its Condorcet winner and, per witness order, the
    edge (order, rank of the key after one voter of that order reversed)."""
    m = varmap.m
    rank = {key: i for i, key in enumerate(varmap.keys)}
    votes = keyspace.vote_keys(m)
    rev = reverse_index_table(m)
    for key_rank, key in enumerate(varmap.keys):
        # reversing a witness voter lands on a realizable key again
        edges = [(order_ix, rank[key + votes[rev[order_ix]] - votes[order_ix]])
                 for order_ix in sorted(witness_orders[key])]
        yield key_rank, tally.key_condorcet_winner(key, m), edges


def _encode_key_space(varmap: VariableMap, key_space) -> EncodeResult:
    """Functionality, a Condorcet unit clause per key with a Condorcet
    winner, and per edge (order, reversed key) one binary clause per
    ordered pair forbidding the reversal from strictly improving the
    outcome for that order.

    Clauses come from templates of negated 1-based alternatives, shifted
    by a key's ``base = key * m``: ``var(key, a) = base + a + 1``.
    """
    m = varmap.m
    # per order, for each pair it ranks above before below:
    # (-(below + 1), -(above + 1)), shifted by the bases of key and rev_key
    pairs = [[(-below - 1, -above - 1)
              for i, above in enumerate(order.ranking) for below in order.ranking[i + 1:]]
             for order in enumerate_orders(m)]
    at_most_one = _at_most_one(m)
    functionality: list[Clause] = []
    condorcet: list[Clause] = []
    hwm: list[Clause] = []
    for key, winner, edges in key_space:
        base = key * m
        functionality += _functionality(base, m, at_most_one)
        if winner is not None:
            condorcet.append((base + winner + 1,))
        for order_ix, rev_key in edges:
            rev_base = rev_key * m
            hwm += [(below - base, above - rev_base) for below, above in pairs[order_ix]]
    return _encode_result(varmap, functionality, condorcet, hwm)


def _at_most_one(m: int) -> list[tuple[int, int]]:
    """The at-most-one template: (-(a + 1), -(b + 1)) for a < b."""
    return [(-a - 1, -b - 1) for a in range(m) for b in range(a + 1, m)]


def _functionality(base: int, m: int, at_most_one) -> list[Clause]:
    """Exactly one winner at the key with this base: at least one, then
    pairwise at most one."""
    clauses = [tuple(range(base + 1, base + m + 1))]
    clauses += [(a - base, b - base) for a, b in at_most_one]
    return clauses


def _encode_result(varmap: VariableMap, functionality: list[Clause],
                   condorcet: list[Clause], hwm: list[Clause]) -> EncodeResult:
    clauses = tuple(functionality + condorcet + hwm)
    counts = {"keys": varmap.num_keys, "functionality": len(functionality),
              "condorcet": len(condorcet), "hwm": len(hwm)}
    return EncodeResult(CnfFormula(varmap.num_vars, clauses), varmap, counts)


def enumerate_margin_keys(n: int, m: int, *, budget: int | None = None
                          ) -> tuple[list[int], dict[int, set[int]]]:
    """All margin keys realizable by n voters, sorted, with their witness
    orders.

    The keys come from :func:`keyspace.margin_levels`; a key's witness
    orders are those o whose removal lands at n-1 voters, i.e. exactly the
    orders that appear in at least one realization.  That set is what makes
    a reversal clause sound for a margin key, so the encoder gates on it.
    ``budget`` caps the distinct keys at any size, checked while a level is
    built.
    """
    budget = DEFAULT_KEY_BUDGET if budget is None else budget
    previous, level = keyspace.margin_levels(n, m, budget=budget)
    return sorted(level), keyspace.witness_orders(previous, m)


# --- proof-neighborhood encoding ------------------------------------------------


def encode_proof_neighborhood(tree: ProofTree) -> EncodeResult:
    """A small CNF over just the tree's profiles, unsatisfiable iff no rule
    choice survives the tree's constraints.

    Edge clauses are the reversal-monotonicity consequences linking tail
    and head winners directly: picking b at the tail forbids at the head
    everything the replayed single reversals cannot reach from b.
    """
    from .proofcheck import replayed_carry

    names = tuple(tree.profiles)
    rank = {name: i for i, name in enumerate(names)}
    m = tree.m
    varmap = VariableMap(n=tree.n, m=m, mode="proof", keys=names)
    var = varmap.var

    at_most_one = _at_most_one(m)
    functionality: list[Clause] = []
    condorcet: list[Clause] = []
    hwm: list[Clause] = []
    for name in names:
        functionality += _functionality(rank[name] * m, m, at_most_one)
    for leaf in tree.leaves:
        condorcet.append((var(rank[leaf.node], leaf.condorcet),))
    for edge in tree.edges:
        src, dst = rank[edge.src], rank[edge.dst]
        for b in range(m):
            reachable = replayed_carry(edge, frozenset((b,)))
            for a in range(m):
                if a not in reachable:
                    hwm.append((-var(src, b), -var(dst, a)))

    return _encode_result(varmap, functionality, condorcet, hwm)


def leaf_unit_clause(tree: ProofTree, varmap: VariableMap, node: str) -> Clause:
    """The Condorcet unit clause a given leaf contributes to the formula."""
    leaf = next(l for l in tree.leaves if l.node == node)
    rank = varmap.keys.index(node)  # type: ignore[union-attr]
    return (varmap.var(rank, leaf.condorcet),)


# --- DIMACS and models ------------------------------------------------------------


_WRITE_BATCH = 1 << 16  # clauses rendered per write: bounds the text held at once


def write_dimacs(formula: CnfFormula, sink: TextIO) -> None:
    """The header, then each clause's literals and a ``0`` on one line;
    clauses are rendered a batch at a time, one ``%`` format per length."""
    clauses = formula.clauses
    sink.write(f"p cnf {formula.num_vars} {len(clauses)}\n")
    formats = [" ".join(["%d"] * size) + " 0\n"
               for size in range(max(map(len, clauses), default=0) + 1)]
    for start in range(0, len(clauses), _WRITE_BATCH):
        sink.write("".join([formats[len(clause)] % clause
                            for clause in clauses[start:start + _WRITE_BATCH]]))


def write_varmap(varmap: VariableMap, alternatives_labels: Sequence[str],
                 sink: TextIO) -> None:
    """Sidecar map: one ``<variable-id> <key> <alternative-label>`` per line."""
    for key_rank in range(varmap.num_keys):
        name = varmap.key_name(key_rank)
        for alt in range(varmap.m):
            sink.write(f"{varmap.var(key_rank, alt)} {name} "
                       f"{alternatives_labels[alt]}\n")


_STATUS_WORDS = {"SAT", "SATISFIABLE", "UNSAT", "UNSATISFIABLE"}


def read_dimacs_model(source: TextIO, varmap: VariableMap) -> dict[int, bool]:
    """Parse a solver's model output into a variable assignment.

    Accepts ``v``-prefixed literal lines and bare literal lists; ``c`` and
    ``s`` lines are ignored.  The assignment may stop at a ``0`` terminator.
    """
    assignment: dict[int, bool] = {}
    done = False
    saw_literal = False
    for raw in source:
        line = raw.strip()
        if not line or line[0] in "cs":
            continue
        if line.upper() in _STATUS_WORDS:
            continue
        if line.startswith(("v", "V")):
            line = line[1:]
        for token in line.split():
            if done:
                break
            try:
                lit = int(token)
            except ValueError:
                raise MalformedModel(f"non-integer token {token!r} in model") from None
            if lit == 0:
                done = True
                continue
            saw_literal = True
            var = abs(lit)
            if var > varmap.num_vars:
                raise VariableOutOfRange(
                    f"model mentions variable {var}, map has {varmap.num_vars}")
            value = lit > 0
            if assignment.get(var, value) != value:
                raise MalformedModel(f"model assigns variable {var} both ways")
            assignment[var] = value
    if not saw_literal:
        raise MalformedModel("no model literals found; was the formula "
                             "unsatisfiable or the file not a model?")
    return assignment


def decode_model(assignment: Mapping[int, bool], varmap: VariableMap) -> RuleTable:
    """Turn a satisfying assignment into a lookup-table rule.

    Exactly one winner variable must be true per key; unassigned variables
    count as false.
    """
    if varmap.mode not in ("profile", "c2"):
        raise PrefRevError(f"cannot decode a rule from a {varmap.mode!r} map")
    winners: list[int] = []
    for key_rank in range(varmap.num_keys):
        true_alts = [alt for alt in range(varmap.m)
                     if assignment.get(varmap.var(key_rank, alt), False)]
        if len(true_alts) != 1:
            raise NotAFunction(
                f"key {varmap.key_name(key_rank)} has {len(true_alts)} winners")
        winners.append(true_alts[0])
    if varmap.mode == "profile":
        return RuleTable(varmap.n, varmap.m, "profile", tuple(winners))
    return RuleTable(varmap.n, varmap.m, "c2", dict(zip(varmap.keys, winners)))


# --- the independent re-check ------------------------------------------------------


def verify_rule(table: RuleTable) -> Report:
    """Exhaustively re-check a decoded table without touching the CNF.

    Condorcet-consistency is recomputed with the tally module: a c2 table's
    entry is read once per realizable margin key, and only if some key
    fails is the walk below run, to name the first failing profile.  That
    walk reads a profile table at every profile index, and a c2 table by
    margin key on only the sorted profiles (one per multiset of votes).
    The reversal scan comes from the monotonicity checker, which reads a
    c2 table by margin key too.  Together they independently confirm what
    the formula was supposed to assert.
    """
    from . import monotonicity
    from .report import Report

    report = Report(f"rule table verification (n={table.n}, m={table.m})")
    total = num_profiles(table.n, table.m)
    bad = None if _condorcet_keys_hold(table) else _first_condorcet_failure(table)
    report.add(bad is None,
               f"Condorcet-consistency over all {total} profiles"
               if bad is None else
               f"profile {bad[0]}: Condorcet winner {bad[1]}, table picks {bad[2]}")

    try:
        witness = monotonicity.check_halfway_monotonicity(table, table.n, table.m)
    except BudgetExceeded as exc:
        report.add(False, f"reversal scan stopped early: {exc}")
        return report
    if witness is None:
        report.add(True, f"half-way monotonicity over all {total} profiles "
                         f"x {table.n} voters")
    else:
        report.add(False, f"profile index "
                          f"{profile_to_index(witness.profile)}, voter {witness.voter}: "
                          f"reversal moves the winner from "
                          f"{witness.winner_before} to {witness.winner_after}")
    return report


def _condorcet_keys_hold(table: RuleTable) -> bool:
    """Whether a c2 table picks the Condorcet winner at every realizable
    margin key that has one; False for a profile table or a missing key."""
    if table.mode != "c2":
        return False
    try:
        level = keyspace.margin_levels(table.n, table.m,
                                       budget=len(table.chosen))[1]
    except BudgetExceeded:
        return False  # some key has no entry
    for key in level:
        winner = tally.key_condorcet_winner(key, table.m)
        if winner is not None and table.chosen.get(key) != winner:
            return False
    return True


def _first_condorcet_failure(table: RuleTable) -> tuple[int, int, int] | None:
    """(profile index, Condorcet winner, table's pick) of the first profile
    where the table misses the Condorcet winner, if any."""
    n, m = table.n, table.m
    c2 = table.mode == "c2"
    # a c2 table fails first on a sorted profile (its sorted votes fail too,
    # at an index no larger), so walking only those finds the same first
    # failing index; it is read by margin key, a profile table by index
    winners = tally.CondorcetWinners(m)  # the margin key fixes the winner
    for index, digits in iter_digits(n, m, anonymous=c2):
        key = keyspace.digits_key(m, digits)
        winner = winners[key]
        if winner is not None and (chosen := table.on_key(key, n, m) if c2
                                   else table.chosen[index]) != winner:
            return index, winner, chosen
    return None


# --- external solver ------------------------------------------------------------


class SolverRun(Record):
    """``status`` is "SAT", "UNSAT", or "UNKNOWN"."""

    __slots__ = ("status", "output", "returncode")

    def __init__(self, status: str, output: str, returncode: int) -> None:
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "returncode", returncode)


def run_solver(command: str | Sequence[str], cnf_path: str) -> SolverRun:
    """Invoke an external DIMACS solver on a CNF file.

    The solver is any binary that takes the CNF path as its last argument
    and reports ``s SATISFIABLE`` / ``s UNSATISFIABLE`` (exit codes 10/20
    also recognised).  Models are read from its stdout.
    """
    import shlex
    import subprocess

    argv = shlex.split(command) if isinstance(command, str) else list(command)
    proc = subprocess.run(argv + [cnf_path], capture_output=True, text=True)
    status = "UNKNOWN"
    for line in proc.stdout.splitlines():
        upper = line.strip().upper()
        if upper in ("S SATISFIABLE", "SAT", "SATISFIABLE"):
            status = "SAT"
            break
        if upper in ("S UNSATISFIABLE", "UNSAT", "UNSATISFIABLE"):
            status = "UNSAT"
            break
    if status == "UNKNOWN":
        if proc.returncode == 10:
            status = "SAT"
        elif proc.returncode == 20:
            status = "UNSAT"
    return SolverRun(status=status, output=proc.stdout, returncode=proc.returncode)
