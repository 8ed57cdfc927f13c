#!/usr/bin/env python3
"""A minimal DIMACS CNF solver with the standard s/v output protocol.

Usage: dpll_solve.py FILE.cnf

Prints ``s SATISFIABLE`` plus ``v`` model lines (exit 10) or
``s UNSATISFIABLE`` (exit 20).  DPLL with unit propagation and
chronological backtracking; static most-occurrences decision order.
Intended as a stand-in external solver for desk-scale formulas; any real
solver (minisat, cadical, glucose, ...) speaks the same protocol and can
be used instead.

The loader reads the file in blocks of about 64 KiB.  After the
``p cnf VARS CLAUSES`` header every token is a literal or a ``0`` that
ends a clause; clauses may span lines or share one, ``c`` lines are
comments, and a last clause may omit its ``0``.  Tokens map to integers
through one table built from the header, so each literal value is a
single shared object.  A malformed file (no header, a clause before it, a
second header, a non-integer token or a literal beyond the header's
variable count) prints one ``error:`` line naming the line to stderr and
exits 1.  The cyclic GC stays off for the run.
"""

import gc
import sys
from collections import deque

_BLOCK = 1 << 16  # about this many characters of lines read at a time


class DimacsError(ValueError):
    """A malformed CNF file; the message names the line."""


def parse_dimacs(path):
    """``(num_vars, clauses)`` of a DIMACS file, each clause a tuple of
    nonzero literals; raises DimacsError on a malformed file."""
    with open(path, encoding="utf-8") as handle:
        num_vars, lineno = _read_header(handle)
        # str(lit) -> lit for every token a well-formed body can hold
        table = {str(lit): lit for lit in range(-num_vars, num_vars + 1)}
        clauses = []
        pending = ()  # the literals after the last 0 read so far
        while block := handle.readlines(_BLOCK):
            try:
                values = tuple(map(table.__getitem__, "".join(block).split()))
            except KeyError:  # a comment, or a token to diagnose
                values = tuple(_block_values(block, lineno, table, num_vars))
            lineno += len(block)
            values = pending + values
            index, start = values.index, 0
            for _ in range(values.count(0)):
                end = index(0, start)
                clauses.append(values[start:end])
                start = end + 1
            pending = values[start:]
    if pending:
        clauses.append(pending)
    return num_vars, clauses


def _read_header(handle):
    """The header's variable count and its line number, read past the
    comments before it."""
    for lineno, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if line[0] != "p":
            raise DimacsError(f"line {lineno}: clause before the 'p cnf' header")
        parts = line.split()
        if (len(parts) != 4 or parts[:2] != ["p", "cnf"]
                or not (parts[2].isdecimal() and parts[3].isdecimal())):
            raise DimacsError(f"line {lineno}: bad header {line!r}, "
                              f"expected 'p cnf VARS CLAUSES'")
        return int(parts[2]), lineno
    raise DimacsError("no 'p cnf' header")


def _block_values(block, lineno, table, num_vars):
    """The literals and 0s of a block line by line, skipping comments;
    ``lineno`` is the number of the line before the block."""
    for lineno, raw in enumerate(block, start=lineno + 1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if line[0] == "p":
            raise DimacsError(f"line {lineno}: a second 'p' line")
        for token in line.split():
            value = table.get(token)
            if value is None:
                try:
                    value = int(token)
                except ValueError:
                    raise DimacsError(
                        f"line {lineno}: non-integer token {token!r}") from None
                if abs(value) > num_vars:
                    raise DimacsError(f"line {lineno}: literal {value} beyond "
                                      f"the header's {num_vars} variables")
                value = table[str(value)]  # an odd spelling, such as +1 or -0
            yield value


def solve(num_vars, clauses):
    """Return a model as a list of signed literals, or None if unsatisfiable."""
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


def main():
    # the loaded clauses, the occurrence lists and the search make no
    # reference cycles, so the cyclic GC only walks them for nothing: it is
    # off for the run, and what is left is frozen before the interpreter's
    # collection at exit
    gc.disable()
    if len(sys.argv) != 2:
        print("usage: dpll_solve.py FILE.cnf", file=sys.stderr)
        return 1
    try:
        num_vars, clauses = parse_dimacs(sys.argv[1])
    except (DimacsError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {sys.argv[1]}: {exc}", file=sys.stderr)
        return 1
    model = solve(num_vars, clauses)
    gc.freeze()
    if model is None:
        print("s UNSATISFIABLE")
        return 20
    print("s SATISFIABLE")
    # the model and its 0, 19 words to a v line
    words = list(map(str, model)) + ["0"]
    print("\n".join("v " + " ".join(words[i:i + 19]) for i in range(0, len(words), 19)))
    return 10


if __name__ == "__main__":
    sys.exit(main())
