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
implication lists, b in the list of a and a in the list of b, each read
when the literal whose list it is in turns false.  A longer
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
lines are comments, and a last clause may omit its ``0``.  Tokens become
literals through ``int()`` and one list of the 2 VARS + 1 literals, so
each literal value is a single shared object and no table of token
strings is kept.  Where a block's clauses repeat a pattern of lengths, as
the encoder writes them (per key one at-least-one clause, then its
at-most-one pairs, or one family of one length), strided slices cut the
block into runs, one per place in the pattern, each the list of its
clauses' columns: the 0s are checked as text and never converted, and the
literals are converted a column at a time.  The clauses around the runs,
and a block that repeats no pattern, are cut at each 0; a block with a
comment, an odd spelling such as ``+1`` or ``-0`` or a token to diagnose
is read line by line.  A malformed file (no header, a header that declares
more than 2^31 - 1 variables, a clause before the header, a second header,
a non-integer token or a literal beyond the header's variable count)
prints one ``error:`` line naming the line to stderr and exits 1;
:func:`solve` reads every clause before it returns, so an error in the
body surfaces before any ``s`` line.

:func:`solve` files each binary clause into the implication lists as it
arrives, a run's two columns at a time, and keeps the clauses of other
lengths; each later set-up structure goes as soon as the search stops
reading it.  The cyclic GC is off while :func:`main` runs and back as the
caller had it on return.
"""

import gc
import sys
from array import array
from collections import Counter, defaultdict
from itertools import chain
from operator import add

_BLOCK = 1 << 16  # about this many characters of lines read at a time
_MAX_VARS = 2**31 - 1  # the signed 32-bit literal range of MiniSat-style solvers
# the most clauses in a repeating pattern of lengths: the encoder's longest
# is one at-least-one clause and its 28 at-most-one pairs, at m = 8
_PERIOD = 32


class DimacsError(ValueError):
    """A malformed CNF file; the message names the line."""


def read_dimacs(path):
    """``(num_vars, clauses)`` of a DIMACS file: the header is read now, and
    ``clauses`` is an iterator that reads the body a block at a time and
    yields each clause as a tuple of nonzero literals.  A malformed header
    raises DimacsError here, a malformed body while ``clauses`` is read."""
    body = _read(path)
    return next(body), _clauses(body)


def parse_dimacs(path):
    """``(num_vars, clauses)`` of a DIMACS file, the clauses in a list;
    raises DimacsError on a malformed file."""
    num_vars, clauses = read_dimacs(path)
    return num_vars, list(clauses)


class _Runs(tuple):
    """Clauses of a block that repeat a pattern of lengths, one run per
    place in the pattern: a run is the list of its clauses' columns, and
    the file holds the first clause of each run in turn, then the second."""

    __slots__ = ()


def _clauses(items):
    """Each clause of the reader's clauses and runs, in file order."""
    for item in items:
        if type(item) is _Runs:
            yield from chain.from_iterable(zip(*[zip(*run) for run in item]))
        else:
            yield item


def _read(path):
    """The header's variable count, then each clause of the body, or
    :class:`_Runs` of them."""
    with open(path, encoding="utf-8") as handle:
        num_vars, lineno = _read_header(handle)
        yield num_vars
        # lits[x] is the literal x, one shared object, for |x| <= num_vars:
        # -x wraps to the end
        lits = list(range(num_vars + 1)) + list(range(-num_vars, 0))
        pending = ()  # the literals after the last 0 read so far
        while block := handle.readlines(_BLOCK):
            try:
                lead, runs, tail = _cut("".join(block).split(), lits, num_vars)
            except (ValueError, IndexError):  # a comment, an odd spelling or a bad token
                lead, runs = (), None
                tail = tuple(_block_values(block, lineno, lits, num_vars))
            lineno += len(block)
            pending = yield from _split(pending + lead)
            if runs:
                yield runs
            pending = yield from _split(pending + tail)
    if pending:
        yield pending


def _split(values):
    """Yield each clause that a 0 of ``values`` ends, and return the
    literals after the last 0."""
    index, start = values.index, 0
    for _ in range(values.count(0)):
        end = index(0, start)
        yield values[start:end]
        start = end + 1
    return values[start:]


def _cut(tokens, lits, num_vars):
    """``(lead, runs, tail)``: the values of a block's tokens up to its
    first ``0``, the :class:`_Runs` of the whole periods after it if their
    clauses repeat a pattern of lengths (None if not), and the values after
    those.  Raises ValueError or IndexError on a token that is neither a
    literal in range nor 0, and on a 0 in a run where the pattern puts a
    literal."""
    zeros = tokens.count("0")
    base = tokens.index("0") + 1 if zeros else 0
    runs, stop = _runs(tokens, base, zeros - 1, lits) if zeros > 2 else (None, base)
    return (_values(tokens[:base], lits, num_vars), runs,
            _values(tokens[stop:], lits, num_vars))


def _runs(tokens, base, zeros, lits):
    """``(runs, stop)``: the clauses from ``tokens[base]`` on, which hold
    ``zeros`` 0s, cut into columns up to ``tokens[stop]``, the end of their
    last whole period, if they repeat the pattern of lengths of the first
    clauses; ``(None, base)`` if not.  Only the literals are converted:
    the 0s are checked as text, and :func:`_column` finds a 0 elsewhere."""
    index, starts = tokens.index, [base]  # starts[i]: where clause i starts
    for _ in range(min(zeros, 2 * _PERIOD)):
        starts.append(index("0", starts[-1]) + 1)
    lengths = [end - start - 1 for start, end in zip(starts, starts[1:])]
    period = next((p for p in range(1, len(lengths) // 2 + 1)
                   if lengths[p:] == lengths[:-p]), 0)
    if not period or not all(lengths[:period]):
        return None, base  # no pattern, or an empty clause in it
    span, count = starts[period] - base, zeros // period  # a period's tokens, periods
    stop = base + count * span
    # a 0 wherever the pattern puts one, count of them in each 0's column
    if any(tokens[end - 1:stop:span].count("0") != count for end in starts[1:period + 1]):
        return None, base
    runs = _Runs([_column(tokens[start + i:stop:span], lits) for i in range(length)]
                 for start, length in zip(starts, lengths[:period]))
    return runs, stop


def _column(tokens, lits):
    """The shared literals of a column's tokens; ValueError or IndexError
    on one that is 0 or beyond the header."""
    values = list(map(int, tokens))
    column = list(map(lits.__getitem__, values))
    # lits[x] == x exactly when |x| <= num_vars; 0 ends a clause instead
    if column != values or 0 in values:
        raise ValueError("not a column of literals")
    return column


def _values(tokens, lits, num_vars):
    """The shared literals and 0s of tokens; ValueError on any other token."""
    values = list(map(int, tokens))
    if values and (min(values) < -num_vars or max(values) > num_vars):
        raise ValueError("a literal beyond the header")
    return tuple(map(lits.__getitem__, values))


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


def _block_values(block, lineno, lits, num_vars):
    """The literals and 0s of a block line by line, skipping comments;
    ``lineno`` is the number of the line before the block."""
    for lineno, raw in enumerate(block, start=lineno + 1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if line[0] == "p":
            raise DimacsError(f"line {lineno}: a second 'p' line")
        for token in line.split():
            try:
                value = int(token)
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer token {token!r}") from None
            if abs(value) > num_vars:
                raise DimacsError(f"line {lineno}: literal {value} beyond "
                                  f"the header's {num_vars} variables")
            yield lits[value]


def solve(num_vars, clauses):
    """Return a model as a list of signed literals, or None if unsatisfiable.

    ``clauses`` is any iterable of clauses, and of the reader's
    :class:`_Runs`, read once: a binary clause is filed into the
    implication lists as it arrives, and the clauses of other lengths are
    kept."""
    # lists of 2 VARS + 1 entries are indexed by a literal: -v wraps to the end
    size = 2 * num_vars + 1
    imp = [[] for _ in range(size)]  # imp[lit]: the literals lit false implies
    others = []  # the clauses of other lengths than 2
    for clause in clauses:
        if type(clause) is _Runs:
            for run in clause:
                if len(run) == 2:
                    for a, b in zip(*run):
                        imp[a].append(b)
                        imp[b].append(a)
                else:
                    others += zip(*run)
        elif len(clause) == 2:
            a, b = clause
            imp[a].append(b)
            imp[b].append(a)
        else:
            others.append(clause)
    if not all(others):
        return None  # an empty clause

    # each set-up structure goes once the search no longer reads it.
    # frequency[v]: the occurrences of v and -v, every repeat counted;
    # imp[lit] holds one entry per occurrence of lit in a binary clause
    frequency = [0, *map(add, map(len, imp[1:num_vars + 1]), map(len, imp[:num_vars:-1]))]
    for lit, count in Counter(chain.from_iterable(others)).items():
        frequency[abs(lit)] += count
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
        distinct = list(dict.fromkeys(clause))  # a repeat is watched only once
        if len(distinct) > 2:
            # the watched literals are distinct[0] and distinct[1]
            watch[distinct[0]].append(distinct)
            watch[distinct[1]].append(distinct)
        else:  # repeats left one or two literals; (a, a) conflicts once a is false
            a, b = distinct[0], distinct[-1]
            imp[a].append(b)
            imp[b].append(a)
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
        false = -trail[head]
        head += 1
        for implied in imp[false]:
            state = value[implied]
            if state is None:
                value[implied], value[-implied] = True, False
                trail.append(implied)
            elif not state:
                return False
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
            body = _read(sys.argv[1])
            model = solve(next(body), body)
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
