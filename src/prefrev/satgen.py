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

A :class:`CnfFormula` holds its clauses as DIMACS text, the lines that
:func:`write_dimacs` writes after the header.  One renderer, :func:`_encode`,
writes it from ``%`` clause templates (see :func:`_template`) for three key
spaces, profile mode, c2 mode and the proof tree, each a stream of Condorcet
winners and of edges; it range-checks the keys and winners it fills in
instead of checking every literal.  ``clauses`` parses the text back.

Solving is never done in-process: callers hand the DIMACS file to any
external solver binary and feed its output back through
:func:`read_dimacs_model`.
"""

from __future__ import annotations

from itertools import combinations, repeat
from operator import truth
from typing import TYPE_CHECKING, Mapping, Sequence, TextIO

from .errors import BudgetExceeded, PrefRevError, printable_count
from .prefs import (
    Record,
    enumerate_orders,
    iter_digits,
    num_profiles,
    places,
    profile_to_index,
    reverse_index_table,
)
from . import keyspace, tally

# proofcheck, monotonicity, report, rules, shlex and subprocess are imported
# by the functions that use them, so that each process loads only what it
# runs
if TYPE_CHECKING:
    from .proofcheck import ProofTree
    from .report import Report
    from .rules import RuleTable

DEFAULT_KEY_BUDGET = 1_000_000

Clause = tuple[int, ...]


class CnfFormula(Record):
    """A CNF over the variables 1..``num_vars``, held as its DIMACS body:
    ``text`` is its ``num_clauses`` clause lines exactly as
    :func:`write_dimacs` writes them after the header.

    The encoders render ``text`` from clause templates and range-check
    every key and winner they fill in, which keeps every literal in
    1..num_vars; the record itself checks nothing.
    """

    __slots__ = ("num_vars", "num_clauses", "text")

    @property
    def clauses(self) -> tuple[Clause, ...]:
        """The clauses parsed from ``text``; every literal value is one
        shared int object."""
        literal = {str(lit): lit for lit in range(-self.num_vars, self.num_vars + 1)}
        return tuple(tuple(map(literal.__getitem__, line.split()[:-1]))
                     for line in self.text.splitlines())


class VariableMap(Record):
    """Bijection between 1-based CNF variables and (key, alternative) pairs.

    Keys are profile indices (profile mode, ``keys`` None), the sorted
    integer margin keys of :mod:`prefrev.keyspace` (c2 mode), or proof-tree
    node names (proof mode); in every mode
    ``var = key_rank * m + alternative + 1``.
    """

    __slots__ = ("n", "m", "mode", "keys")
    _defaults = {"keys": None}

    @property
    def num_keys(self) -> int:
        return num_profiles(self.n, self.m) if self.keys is None else len(self.keys)

    @property
    def num_vars(self) -> int:
        return self.num_keys * self.m

    def var(self, key_rank: int, alt: int) -> int:
        return key_rank * self.m + alt + 1

    def key_name(self, key_rank: int) -> str:
        if self.keys is None:
            return str(key_rank)
        if self.mode == "c2":
            return keyspace.key_text(self.keys[key_rank], self.m)
        return self.keys[key_rank]


class EncodeResult(Record):
    __slots__ = ("formula", "varmap", "counts")


# --- the full formula -----------------------------------------------------------


def encode_full(n: int, m: int, mode: str = "profile", *,
                budget: int | None = None) -> EncodeResult:
    """The full formula whose models are the reversal-immune Condorcet
    extensions at (n, m).

    Profile mode spends one variable block per profile; c2 mode keys the
    blocks by realizable margin matrices instead, and gates a key's
    reversal edges on its witness orders, read off level n-1 (see
    :func:`_c2_key_space`).  Each mode is a key space, its Condorcet
    winners and its reversal edges, that :func:`_encode` renders.
    """
    if mode == "profile":
        budget = DEFAULT_KEY_BUDGET if budget is None else budget
        total = num_profiles(n, m)
        if total > budget:
            raise BudgetExceeded(f"profile mode needs {printable_count(total)} keys, "
                                 f"budget is {budget}", scanned=0, total=total)
        varmap = VariableMap(n=n, m=m, mode="profile")
        winners, edges = _profile_key_space(n, m)
    elif mode == "c2":
        varmap, previous = c2_variable_map(n, m, budget=budget)
        winners, edges = _c2_key_space(varmap, previous)
    else:
        raise PrefRevError(f"unknown encode mode {mode!r}")
    return _encode(varmap, winners, edges)


def _profile_key_space(n: int, m: int):
    """Profile mode's winners, (index, Condorcet winner), and edges, per
    voter (its vote's template, index, index with that voter reversed), in
    index order."""
    place_values = places(n, m)
    rev = reverse_index_table(m)
    condorcet = tally.CondorcetWinners(m)  # the margin key fixes the winner
    templates = _reversal_templates(m)
    winners = ((key, winner) for key, digits in iter_digits(n, m)
               if (winner := condorcet[keyspace.digits_key(m, digits)]) is not None)
    edges = ((templates[d], key, key + (rev[d] - d) * place)
             for key, digits in iter_digits(n, m)
             for d, place in zip(digits, place_values))
    return winners, edges


def c2_variable_map(n: int, m: int, *, budget: int | None = None
                    ) -> tuple[VariableMap, keyspace.Level]:
    """The c2 variable map, keyed by the margin keys realizable by n
    voters, with level n-1, off which their witness orders are read.

    ``encode_full`` and ``cli decode`` both take their c2 keys from here,
    so a model is always read against the key order it was written with.
    """
    keys, previous = enumerate_margin_keys(n, m, budget=budget)
    return VariableMap(n=n, m=m, mode="c2", keys=tuple(keys)), previous


def _c2_key_space(varmap: VariableMap, previous: keyspace.Level):
    """c2 mode's winners, (rank, Condorcet winner), and edges, per witness
    order o ascending (key - vote(o) in ``previous``, level n-1), (o's
    template, rank, rank with one voter of o reversed), in key order."""
    m, keys = varmap.m, varmap.keys
    rank = {key: i for i, key in enumerate(keys)}
    votes = keyspace.vote_keys(m)
    rev = reverse_index_table(m)
    templates = _reversal_templates(m)
    winners = ((i, winner) for i, key in enumerate(keys)
               if (winner := tally.key_condorcet_winner(key, m)) is not None)
    # reversing a witness voter lands on a realizable key again
    edges = ((templates[o], i, rank[key + votes[rev[o]] - vote])
             for i, key in enumerate(keys)
             for o, vote in enumerate(votes) if key - vote in previous)
    return winners, edges


def _reversal_templates(m: int):
    """Per order, its edge template: -x[key, b] -x[reversed key, a] per pair
    it ranks a over b; the reversed key's variables follow the key's."""
    return [_template([[(True, below), (True, m + above)]
                       for above, below in combinations(order.ranking, 2)])
            for order in enumerate_orders(m)]


def _template(clauses: list[list[tuple[bool, int]]]):
    """The ``%`` template of these clauses' DIMACS lines, each literal given
    as (negated, slot), the picker that takes the slots' variable strings,
    in template order, out of a sequence, and the number of clauses."""
    line = "".join(" ".join(("-%s" if negated else "%s") for negated, _ in clause)
                   + " 0\n" for clause in clauses)
    return (line, keyspace.getter([slot for clause in clauses for _, slot in clause]),
            len(clauses))


def _encode(varmap: VariableMap, winners, edges) -> EncodeResult:
    """The formula's DIMACS lines, rendered from ``%`` templates filled with
    the variables' decimal strings, each made once: per key of ``varmap``,
    in rank order, its functionality block (at least one winner, then at
    most one per pair a < b); per (key, winner) of ``winners`` a unit line;
    per (template, key, other) of ``edges`` the template over the key's
    ``m`` variables, then the other's.  Keys are ranks.  Every key, edge end
    and winner is range-checked here, which keeps every literal in
    1..num_vars."""
    m, num_keys = varmap.m, varmap.num_keys
    ranks, alternatives = range(num_keys), range(m)
    # per key rank, its m variables' decimal strings
    own = list(zip(*[map(str, range(1, varmap.num_vars + 1))] * m))

    def bad(key, problem: str) -> PrefRevError:
        if key not in ranks:
            return PrefRevError(f"key {key} is not a key rank in 0..{num_keys - 1}")
        return PrefRevError(f"key {varmap.key_name(key)}: {problem}")

    block, pick, per_key = _template([[(False, a) for a in alternatives]]
                                     + [[(True, a), (True, b)]
                                        for a, b in combinations(alternatives, 2)])
    functionality = [block % pick(variables) for variables in own]
    condorcet: list[str] = []
    for key, winner in winners:
        if key not in ranks or winner not in alternatives:
            raise bad(key, f"Condorcet winner {winner} is not an alternative "
                           f"in 0..{m - 1}")
        condorcet.append(own[key][winner] + " 0\n")
    hwm: list[str] = []
    num_hwm = 0
    for (line, take, count), key, other in edges:
        if key not in ranks or other not in ranks:
            raise bad(key, f"reversal edge to {other}, not a key rank "
                           f"in 0..{num_keys - 1}")
        hwm.append(line % take(own[key] + own[other]))
        num_hwm += count
    counts = {"keys": num_keys, "functionality": num_keys * per_key,
              "condorcet": len(condorcet), "hwm": num_hwm}
    formula = CnfFormula(varmap.num_vars, num_keys * per_key + len(condorcet) + num_hwm,
                         "".join(functionality + condorcet + hwm))
    return EncodeResult(formula, varmap, counts)


def enumerate_margin_keys(n: int, m: int, *, budget: int | None = None
                          ) -> tuple[list[int], keyspace.Level]:
    """All margin keys realizable by n voters, sorted, with level n-1.

    Both come from :func:`keyspace.margin_levels`.  A key's witness orders
    are the o with key - vote(o) in level n-1, i.e. exactly the orders that
    appear in at least one realization.  They are what makes a reversal
    clause sound for a margin key, so the encoder gates on that test.
    ``budget`` caps the distinct keys at any size, checked while a level is
    built.
    """
    budget = DEFAULT_KEY_BUDGET if budget is None else budget
    previous, level = keyspace.margin_levels(n, m, budget=budget)
    return sorted(level), previous


# --- proof-neighborhood encoding ------------------------------------------------


def encode_proof_neighborhood(tree: ProofTree) -> EncodeResult:
    """A small CNF over just the tree's profiles, unsatisfiable iff no rule
    choice survives the tree's constraints.

    Edge clauses are the reversal-monotonicity consequences linking tail
    and head winners directly: picking b at the tail forbids at the head
    everything the replayed single reversals cannot reach from b.

    The tree is a key space of :func:`_encode`: its winners are the
    leaves', its edges ``tree.edges``, each with its own template over the
    tail's and the head's variables.  A leaf or edge on a node that is not
    a profile of the tree is an error naming it.
    """
    from .proofcheck import replayed_carry

    m = tree.m
    varmap = VariableMap(n=tree.n, m=m, mode="proof", keys=tuple(tree.profiles))
    rank = {key: i for i, key in enumerate(varmap.keys)}
    winners = []
    for leaf in tree.leaves:
        if leaf.node not in rank:
            raise PrefRevError(f"leaf {leaf.node}: not a profile of the tree")
        winners.append((rank[leaf.node], leaf.condorcet))
    edges = []
    for edge in tree.edges:
        for node in (edge.src, edge.dst):
            if node not in rank:
                raise PrefRevError(f"edge {edge.src} -> {edge.dst}: {node} is not "
                                   f"a profile of the tree")
        # -x[src, b] -x[dst, a] for each a the reversals cannot reach from b;
        # the head's variables follow the tail's
        reachable = [replayed_carry(edge, frozenset((b,))) for b in range(m)]
        edges.append((_template([[(True, b), (True, m + a)] for b in range(m)
                                 for a in range(m) if a not in reachable[b]]),
                      rank[edge.src], rank[edge.dst]))
    return _encode(varmap, winners, edges)


# --- DIMACS and models ------------------------------------------------------------


def write_dimacs(formula: CnfFormula, sink: TextIO) -> None:
    """The header, then the formula's clause lines."""
    sink.write(f"p cnf {formula.num_vars} {formula.num_clauses}\n")
    sink.write(formula.text)


def write_varmap(varmap: VariableMap, alternatives_labels: Sequence[str],
                 sink: TextIO) -> None:
    """Sidecar map: one ``<variable-id> <key> <alternative-label>`` per line."""
    m, num_vars = varmap.m, varmap.num_vars
    # per key, its m lines: argument a is the key's a-th variable, argument
    # m its name
    labels = [alternatives_labels[alt].replace("{", "{{").replace("}", "}}")
              for alt in range(m)]
    block = "".join(f"{{{alt}}} {{{m}}} {label}\n" for alt, label in enumerate(labels))
    columns = [range(varmap.var(0, alt), num_vars + 1, m) for alt in range(m)]
    names = map(varmap.key_name, range(varmap.num_keys))
    sink.write("".join(map(block.format, *columns, names)))


# a solver's verdict line, upper-cased: the DIMACS ``s`` line or a bare word
_STATUS_LINES = {"S SATISFIABLE": "SAT", "SATISFIABLE": "SAT", "SAT": "SAT",
                 "S UNSATISFIABLE": "UNSAT", "UNSATISFIABLE": "UNSAT",
                 "UNSAT": "UNSAT"}


def solver_status(line: str) -> str | None:
    """"SAT" or "UNSAT" when ``line`` is a solver's verdict line, in any
    case and with any surrounding whitespace; None otherwise."""
    return _STATUS_LINES.get(line.strip().upper())


def read_dimacs_model(source: TextIO, varmap: VariableMap) -> dict[int, bool]:
    """Parse a solver's model output into a variable assignment.

    Accepts ``v``-prefixed literal lines and bare literal lists; ``c`` and
    ``s`` lines and the verdict lines of :func:`solver_status` are ignored.
    The assignment may stop at a ``0`` terminator.
    """
    tokens: list[str] = []
    for raw in source:
        line = raw.strip()
        if line[:1] in ("v", "V"):  # no verdict line starts so
            tokens += line[1:].split()
        elif line and line[0] not in "cs" and not solver_status(line):
            tokens += line.split()
    # the literals up to the first 0, and the first non-integer token before it
    literals: list[int] = []
    try:
        literals += map(int, tokens)
        bad = None
    except ValueError:
        bad = tokens[len(literals)]
    if 0 in literals:
        del literals[literals.index(0):]
        bad = None
    num_vars = varmap.num_vars
    assignment = {abs(lit): lit > 0 for lit in literals}
    if assignment and (max(assignment) > num_vars or len(assignment) < len(literals)
                       and len(set(literals)) > len(assignment)):
        # a variable beyond the map or assigned both ways: name the first
        seen: dict[int, bool] = {}
        for lit in literals:
            var, value = abs(lit), lit > 0
            if var > num_vars:
                raise PrefRevError(f"model mentions variable {var}, map has {num_vars}")
            if seen.setdefault(var, value) != value:
                raise PrefRevError(f"model assigns variable {var} both ways")
    if bad is not None:
        raise PrefRevError(f"non-integer token {bad!r} in model")
    if not assignment:
        raise PrefRevError("no model literals found; was the formula "
                           "unsatisfiable or the file not a model?")
    return assignment


def decode_model(assignment: Mapping[int, bool], varmap: VariableMap) -> RuleTable:
    """Turn a satisfying assignment into a lookup-table rule.

    Exactly one winner variable must be true per key; unassigned variables
    count as false.
    """
    from .rules import RuleTable

    if varmap.mode not in ("profile", "c2"):
        raise PrefRevError(f"cannot decode a rule from a {varmap.mode!r} map")
    # per key rank, the truth of its m variables
    truths = map(truth, map(assignment.get, range(1, varmap.num_vars + 1), repeat(False)))
    rows = list(zip(*[truths] * varmap.m))
    counts = list(map(sum, rows))
    if counts.count(1) != len(counts):
        key_rank = next(rank for rank, count in enumerate(counts) if count != 1)
        raise PrefRevError(
            f"key {varmap.key_name(key_rank)} has {counts[key_rank]} winners")
    winners = list(map(tuple.index, rows, repeat(True)))
    if varmap.mode == "profile":
        return RuleTable(varmap.n, varmap.m, "profile", tuple(winners))
    return RuleTable(varmap.n, varmap.m, "c2", dict(zip(varmap.keys, winners)))


# --- the independent re-check ------------------------------------------------------


def verify_rule(table: RuleTable) -> Report:
    """Exhaustively re-check a decoded table without touching the CNF.

    Condorcet-consistency is recomputed with the tally module: a c2 table's
    entry is read once per realizable margin key, and only if some key
    fails or has no entry are the profiles walked, to name the first
    failing one.  The walk reads a profile table at every profile index,
    and a c2 table by margin key on only the sorted profiles (one per
    multiset of votes).  The reversal scan comes from the monotonicity
    checker, which reads a c2 table by margin key too.  Together they
    independently confirm what the formula was supposed to assert.
    """
    from . import monotonicity
    from .report import Report

    report = Report(f"rule table verification (n={table.n}, m={table.m})")
    total = num_profiles(table.n, table.m)
    bad = _first_condorcet_failure(table)
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


def _first_condorcet_failure(table: RuleTable) -> tuple[int, int, int] | None:
    """(profile index, Condorcet winner, table's pick) of the first profile
    where the table misses the Condorcet winner, if any; a c2 entry on a
    key that no n-voter profile has is an error."""
    n, m = table.n, table.m
    c2 = table.mode == "c2"
    if c2:
        try:
            level = keyspace.margin_levels(n, m, budget=len(table.chosen))[1]
        except BudgetExceeded:
            pass  # some key has no entry: walk
        else:
            if stray := table.chosen.keys() - level:
                raise PrefRevError(f"c2 table entry for margin key "
                                   f"{keyspace.key_text(min(stray), m)}, which no "
                                   f"{n}-voter profile has")
            for key in level:
                winner = tally.key_condorcet_winner(key, m)
                if winner is not None and table.chosen.get(key) != winner:
                    break
            else:
                return None  # every key holds: no profile fails
    # a c2 table fails first on a sorted profile (its sorted votes fail too,
    # at an index no larger), so walking only those finds the same first
    # failing index; it is read by margin key, a profile table by index
    winners = tally.CondorcetWinners(m)  # the margin key fixes the winner
    for index, digits in iter_digits(n, m, sorted_prefix=n if c2 else 0):
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


def run_solver(command: str | Sequence[str], cnf_path: str) -> SolverRun:
    """Invoke an external DIMACS solver on a CNF file.

    The solver is any binary that takes the CNF path as its last argument
    and reports ``s SATISFIABLE`` / ``s UNSATISFIABLE`` (any line that
    :func:`solver_status` reads; exit codes 10/20 also recognised).  Models
    are read from its stdout.
    """
    import shlex
    import subprocess

    argv = shlex.split(command) if isinstance(command, str) else list(command)
    proc = subprocess.run(argv + [cnf_path], capture_output=True, text=True)
    for line in proc.stdout.splitlines():
        status = solver_status(line)
        if status is not None:
            break
    else:
        status = {10: "SAT", 20: "UNSAT"}.get(proc.returncode, "UNKNOWN")
    return SolverRun(status=status, output=proc.stdout, returncode=proc.returncode)
