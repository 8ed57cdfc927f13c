#!/usr/bin/env python3
"""A minimal DIMACS CNF solver with the standard s/v output protocol.

Usage: dpll_solve.py FILE.cnf

Prints ``s SATISFIABLE`` plus ``v`` model lines (exit 10) or
``s UNSATISFIABLE`` (exit 20).  Intended as a stand-in external solver for
desk-scale formulas; any real solver (minisat, cadical, glucose, ...)
speaks the same protocol and can be used instead.

The search is DPLL: unit propagation, a static decision order (the most
occurrences first, ties by variable id), True tried first, and
chronological backtracking that retries the latest unflipped decision
with False.  Propagation follows the two-watched-literal scheme of Chaff
(Moskewicz et al., DAC 2001).  A binary clause (a, b) is two entries of
implication lists, b in the list of -a and a in the list of -b.  A longer
clause is visited only when one of its two watched literals turns false,
and then either watches another literal that is not false, or is unit or
in conflict.  Backtracking resets values and nothing else.

Such a search returns, of all models, the greatest in the decision order
with True above False: a decision stays True exactly when some model
extends the assignment made so far.  That holds for any sound and complete
propagation, so the model does not depend on how propagation is done; the
tests compare it with a reference search that propagates by per-clause
counters.  On clauses without a repeated literal the two also make the
same decisions, since the closure of unit propagation, and whether it
conflicts, does not depend on the order in which it is computed.

The file is streamed: :func:`read_dimacs` reads the header at once and
returns an iterator that reads the body in blocks of about 64 KiB and
yields its clauses, so no list of the file's clauses is kept
(:func:`parse_dimacs` is the list form, for callers that want one).
After the ``p cnf VARS CLAUSES`` header every token is a literal or a
``0`` that ends a clause; clauses may span lines or share one, ``c``
lines are comments, and a last clause may omit its ``0``.  Tokens map to
integers through one table built from the header, so each literal value
is a single shared object.  A block whose clauses all have one length, as
the encoder writes them family by family, is cut into clauses by slices.
A malformed file (no header, a header that declares more than 2^31 - 1
variables, a clause before the header, a second header, a non-integer
token or a literal beyond the header's variable count) prints one
``error:`` line naming the line to stderr and exits 1; :func:`solve`
reads every clause before it returns, so an error in the body surfaces
before any ``s`` line.

While it reads, :func:`solve` keeps each binary clause as two entries of
two flat lists of literals, and the other clauses as they come.  Only
once the iterator is exhausted, and its token table freed with it, does
it file the binary clauses into the implication lists, so the table and
the lists never coexist; each later set-up structure goes as soon as the
search stops reading it.  The cyclic GC is off while
:func:`main` runs and back as the caller had it on return.
"""

import gc
import sys
from array import array
from collections import Counter, defaultdict
from itertools import chain

_BLOCK = 1 << 16  # about this many characters of lines read at a time
_MAX_VARS = 2**31 - 1  # the signed 32-bit literal range of MiniSat-style solvers


class DimacsError(ValueError):
    """A malformed CNF file; the message names the line."""


def read_dimacs(path):
    """``(num_vars, clauses)`` of a DIMACS file: the header is read now, and
    ``clauses`` is an iterator that reads the body a block at a time and
    yields each clause as a tuple of nonzero literals.  A malformed header
    raises DimacsError here, a malformed body while ``clauses`` is read."""
    body = _read(path)
    return next(body), body


def parse_dimacs(path):
    """``(num_vars, clauses)`` of a DIMACS file, the clauses in a list;
    raises DimacsError on a malformed file."""
    num_vars, clauses = read_dimacs(path)
    return num_vars, list(clauses)


def _read(path):
    """The header's variable count, then each clause of the body."""
    with open(path, encoding="utf-8") as handle:
        num_vars, lineno = _read_header(handle)
        yield num_vars
        # str(lit) -> lit for every token a well-formed body can hold
        table = {str(lit): lit for lit in range(-num_vars, num_vars + 1)}
        pending = ()  # the literals after the last 0 read so far
        while block := handle.readlines(_BLOCK):
            try:
                values = tuple(map(table.__getitem__, "".join(block).split()))
            except KeyError:  # a comment, or a token to diagnose
                values = tuple(_block_values(block, lineno, table, num_vars))
            lineno += len(block)
            values = pending + values
            zeros = values.count(0)
            step = values.index(0) + 1 if zeros else 0  # the first clause's length + 1
            start = zeros * step
            if step > 1 and values[step - 1:start:step].count(0) == zeros:
                # every 0 at a multiple of step: all the block's clauses have
                # the first one's length, one zip of its columns
                yield from zip(*[values[i:start:step] for i in range(step - 1)])
            else:
                index, start = values.index, 0
                for _ in range(zeros):
                    end = index(0, start)
                    yield values[start:end]
                    start = end + 1
            pending = values[start:]
    if pending:
        yield pending


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
        # the digits are counted before they are converted, as a count of
        # thousands of digits is past what int() converts
        declared = parts[2].lstrip("0") or "0"
        if len(declared) > len(str(_MAX_VARS)) or int(declared) > _MAX_VARS:
            raise DimacsError(f"line {lineno}: header declares {declared} variables, "
                              f"more than {_MAX_VARS}")
        return int(declared), lineno
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
    """Return a model as a list of signed literals, or None if unsatisfiable.

    ``clauses`` is any iterable of clauses, read once: a binary clause's
    two literals go to two flat lists and the clauses of other lengths are
    kept, and only once the read has ended are the binary clauses filed
    into the implication lists."""
    heads, tails = [], []  # the binary clauses (heads[i], tails[i])
    others = []  # the clauses of other lengths than 2
    for clause in clauses:
        if len(clause) == 2:
            a, b = clause
            heads.append(a)
            tails.append(b)
        else:
            others.append(clause)
    if not all(others):
        return None  # an empty clause

    # the read has ended, and a reader's token table with it: the implication
    # lists come now, and each set-up structure goes once the search no
    # longer reads it. Lists of 2 VARS + 1 entries are indexed by a literal:
    # -v wraps to the end
    size = 2 * num_vars + 1
    imp = [[] for _ in range(size)]  # imp[lit]: the literals lit true implies
    for a, b in zip(heads, tails):
        imp[-a].append(b)
        imp[-b].append(a)
    del heads, tails

    # frequency[v]: the occurrences of v and -v, every repeat counted;
    # imp[-lit] holds one entry per occurrence of lit in a binary clause
    count = Counter(chain.from_iterable(others)).get
    frequency = [0] + [len(imp[v]) + len(imp[-v]) + count(v, 0) + count(-v, 0)
                       for v in range(1, num_vars + 1)]
    del count
    # the most frequent first, ties by variable id (a stable sort); a C int
    # holds every variable id the header bound lets through
    order = array("i", sorted(range(1, num_vars + 1), key=frequency.__getitem__,
                              reverse=True))
    del frequency

    watch = defaultdict(list)  # watch[lit]: the longer clauses watching lit
    value = [None] * size  # value[lit]: True, False or None (unassigned)
    trail = []  # the true literals in the order they were set
    for clause in others:
        if len(clause) == 1:
            lit = clause[0]
            if value[lit] is None:
                value[lit], value[-lit] = True, False
                trail.append(lit)
            elif not value[lit]:
                return None
            continue
        lits = list(dict.fromkeys(clause))  # a repeat is watched only once
        if len(lits) > 2:
            # the watched literals are lits[0] and lits[1]
            watch[lits[0]].append(lits)
            watch[lits[1]].append(lits)
        else:  # repeats left one or two literals; (a, a) conflicts once a is false
            a, b = lits[0], lits[-1]
            imp[-a].append(b)
            imp[-b].append(a)
    del others  # the watches' lists hold the longer clauses now
    levels = []  # per decision: (trail length before it, order position, flipped)
    pos = 0
    ok = _propagate(trail, 0, value, imp, watch)
    while True:
        if not ok:
            # chronological backtracking: retry the latest unflipped
            # decision with False
            while levels:
                start, pos, flipped = levels.pop()
                if not flipped:
                    break
            else:
                return None
            for lit in trail[start:]:
                value[lit] = value[-lit] = None
            del trail[start:]
            var = order[pos]
            levels.append((start, pos, True))
            value[var], value[-var] = False, True
            trail.append(-var)
            ok = _propagate(trail, start, value, imp, watch)
            continue
        while pos < num_vars and value[order[pos]] is not None:
            pos += 1
        if pos == num_vars:
            del imp, watch
            return [v if value[v] else -v for v in range(1, num_vars + 1)]
        var = order[pos]
        levels.append((len(trail), pos, False))
        value[var], value[-var] = True, False
        trail.append(var)
        ok = _propagate(trail, len(trail) - 1, value, imp, watch)


def _propagate(trail, head, value, imp, watch):
    """Set every literal the clauses imply, from ``trail[head]`` on; False
    on a conflict."""
    while head < len(trail):
        lit = trail[head]
        head += 1
        for implied in imp[lit]:
            state = value[implied]
            if state is None:
                value[implied], value[-implied] = True, False
                trail.append(implied)
            elif not state:
                return False
        false = -lit
        watching = watch.get(false)
        if not watching:
            continue
        watch[false] = kept = []
        for index, clause in enumerate(watching):
            if clause[0] == false:
                clause[0], clause[1] = clause[1], false
            other = clause[0]
            state = value[other]
            if state:
                kept.append(clause)
                continue
            for k in range(2, len(clause)):
                candidate = clause[k]
                if value[candidate] is not False:
                    clause[1], clause[k] = candidate, false
                    watch[candidate].append(clause)
                    break
            else:
                kept.append(clause)
                if state is None:
                    value[other], value[-other] = True, False
                    trail.append(other)
                else:
                    kept += watching[index + 1:]
                    return False
    return True


def main():
    # the kept clauses, the implication lists, the watches and the search
    # make no reference cycles, so the cyclic GC would only walk them for
    # nothing: it is off while main runs, and the caller's setting returns
    enabled = gc.isenabled()
    gc.disable()
    try:
        if len(sys.argv) != 2:
            print("usage: dpll_solve.py FILE.cnf", file=sys.stderr)
            return 1
        try:
            # solve reads every clause before it returns, so a malformed
            # body is reported before any s line
            num_vars, clauses = read_dimacs(sys.argv[1])
            model = solve(num_vars, clauses)
        except (DimacsError, OSError, UnicodeDecodeError) as exc:
            print(f"error: {sys.argv[1]}: {exc}", file=sys.stderr)
            return 1
        if model is None:
            print("s UNSATISFIABLE")
            return 20
        print("s SATISFIABLE")
        # the model and its 0, 19 words to a v line
        words = list(map(str, model)) + ["0"]
        print("\n".join("v " + " ".join(words[i:i + 19])
                        for i in range(0, len(words), 19)))
        return 10
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
