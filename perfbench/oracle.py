"""Independent re-checks of prefrev's verdicts.

Nothing here imports prefrev.  The oracle re-derives what it needs from
the definitions: the canonical order and profile indexing, the handful
of rules the benchmark re-checks witnesses against (Borda, maximin,
Schulze, top cycle, and lookup tables), and the violation conditions of
each property.  A later change that breaks the library therefore cannot
also break the check that catches it.

Every ``expect_*`` factory returns a function ``(exit_code, stdout) ->
Outcome``; an Outcome with a non-empty ``error`` counts as a failed op.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

CERTIFICATE = "result: no violation (exhaustive certificate)"
SAMPLED_CLEAN = "result: no violation (sampled region only)"


@dataclass(frozen=True)
class Outcome:
    error: str | None = None
    units: int = 0      # scan units covered (check ops)
    clauses: int = 0    # clauses emitted (encode ops)


# --- canonical indexing -------------------------------------------------------


def labels(m: int) -> tuple[str, ...]:
    return tuple("abcd"[:m])


@lru_cache(maxsize=None)
def orders(m: int) -> tuple[tuple[int, ...], ...]:
    """All m! rankings, lexicographic by alternative id (prefrev's order)."""
    return tuple(permutations(range(m)))


@lru_cache(maxsize=None)
def order_ids(m: int) -> dict[tuple[int, ...], int]:
    return {o: i for i, o in enumerate(orders(m))}


def profile_index(profile: tuple[tuple[int, ...], ...], m: int) -> int:
    """Voter 0 is the most significant base-m! digit."""
    ids = order_ids(m)
    value = 0
    for vote in profile:
        value = value * math.factorial(m) + ids[vote]
    return value


def index_profile(index: int, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    fact = math.factorial(m)
    digits = []
    for _ in range(n):
        index, d = divmod(index, fact)
        digits.append(d)
    return tuple(orders(m)[d] for d in reversed(digits))


def parse_order(text: str, m: int) -> tuple[int, ...]:
    return tuple(labels(m).index(x.strip()) for x in text.split(">"))


def parse_profile(text: str) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Parse prefrev's profile text (``m=.. labels=..`` then ``k: a>b>..``)."""
    lines = [line for line in text.strip().splitlines() if line.strip()]
    m = int(re.match(r"m=(\d+)", lines[0]).group(1))
    votes = []
    for line in lines[1:]:
        count, order = line.split(":", 1)
        votes.extend([parse_order(order, m)] * int(count))
    return tuple(votes), m


def prefers(order: tuple[int, ...], a: int, b: int) -> bool:
    return order.index(a) < order.index(b)


# --- reference rules ------------------------------------------------------------


def margins(profile, m: int) -> list[list[int]]:
    rows = [[0] * m for _ in range(m)]
    for vote in profile:
        for i, a in enumerate(vote):
            for b in vote[i + 1:]:
                rows[a][b] += 1
                rows[b][a] -= 1
    return rows


def _best(priority: tuple[int, ...], alts) -> int:
    return min(alts, key=priority.index)


def _argmax(scores) -> list[int]:
    top = max(scores)
    return [a for a, s in enumerate(scores) if s == top]


def borda(priority):
    def rule(profile):
        m = len(priority)
        scores = [0] * m
        for vote in profile:
            for pos, a in enumerate(vote):
                scores[a] += m - 1 - pos
        return _best(priority, _argmax(scores))
    return rule


def maximin(priority):
    def rule(profile):
        m = len(priority)
        rows = margins(profile, m)
        scores = [min(rows[a][b] for b in range(m) if b != a) for a in range(m)]
        return _best(priority, _argmax(scores))
    return rule


def schulze(priority):
    def rule(profile):
        m = len(priority)
        p = margins(profile, m)
        for k in range(m):
            for i in range(m):
                for j in range(m):
                    if len({i, j, k}) == 3:
                        p[i][j] = max(p[i][j], min(p[i][k], p[k][j]))
        winners = [a for a in range(m)
                   if all(p[a][b] >= p[b][a] for b in range(m) if b != a)]
        return _best(priority, winners)
    return rule


def top_cycle(profile) -> frozenset[int]:
    """Smallest set whose members each strictly beat every non-member."""
    m = len(profile[0])
    rows = margins(profile, m)
    for size in range(1, m + 1):
        for cand in combinations(range(m), size):
            inside = set(cand)
            if all(rows[a][b] > 0 for a in inside for b in range(m)
                   if b not in inside):
                return frozenset(inside)
    raise AssertionError("the full set always qualifies")


def table_rule(table: list[int], m: int):
    return lambda profile: table[profile_index(profile, m)]


REFERENCE_RULES = {"borda": borda, "maximin": maximin, "schulze": schulze}


# --- output parsing ---------------------------------------------------------------


def _result_line(stdout: str) -> str:
    return next((line for line in stdout.splitlines()
                 if line.startswith("result: ")), "")


def _witness(stdout: str) -> dict | None:
    for line in stdout.splitlines():
        if line.startswith("witness: "):
            return json.loads(line[len("witness: "):])
    return None


def _label(m: int, text: str) -> int:
    return labels(m).index(text)


def _label_set(m: int, text: str) -> frozenset[int]:
    inner = text.strip("{}")
    return frozenset(_label(m, x) for x in inner.split(",")) if inner else frozenset()


# --- witness re-checks --------------------------------------------------------------
# Each returns (error or None, scan unit of the witness).


def reversal_witness(w: dict, rule, *, strong: bool):
    profile, m = parse_profile(w["profile"])
    n, voter = len(profile), w["voter"]
    truthful = profile[voter]
    flipped = profile[:voter] + (truthful[::-1],) + profile[voter + 1:]
    before, after = rule(profile), rule(flipped)
    unit = profile_index(profile, m) * n + voter
    if (_label(m, w["winner_before"]), _label(m, w["winner_after"])) != (before, after):
        return f"witness winners {w['winner_before']}/{w['winner_after']} " \
               f"disagree with the rule ({before}/{after})", unit
    if not prefers(truthful, after, before):
        return "reversal does not improve the outcome for the voter", unit
    if strong and after != truthful[0]:
        return "reversal does not elect the voter's favourite", unit
    return None, unit


def set_reversal_witness(w: dict, set_rule, *, mode: str):
    profile, m = parse_profile(w["profile"])
    n, voter = len(profile), w["voter"]
    truthful = profile[voter]
    flipped = profile[:voter] + (truthful[::-1],) + profile[voter + 1:]
    before, after = set_rule(profile), set_rule(flipped)
    unit = profile_index(profile, m) * n + voter
    if (_label_set(m, w["set_before"]), _label_set(m, w["set_after"])) != (before, after):
        return "witness sets disagree with the rule", unit
    pick = min if mode == "optimistic" else max
    rep_before = pick(before, key=truthful.index)
    rep_after = pick(after, key=truthful.index)
    if not prefers(truthful, rep_after, rep_before):
        return "reversal does not improve the compared representative", unit
    return None, unit


def manipulation_witness(w: dict, rule):
    profile, m = parse_profile(w["profile"])
    n, voter = len(profile), w["voter"]
    lie = parse_order(w["misreport"], m)
    truthful = profile[voter]
    deviated = profile[:voter] + (lie,) + profile[voter + 1:]
    honest, manipulated = rule(profile), rule(deviated)
    unit = ((profile_index(profile, m) * n + voter) * math.factorial(m)
            + order_ids(m)[lie])
    if (_label(m, w["winner_truthful"]), _label(m, w["winner_misreport"])) \
            != (honest, manipulated):
        return "witness winners disagree with the rule", unit
    if lie == truthful or not prefers(truthful, manipulated, honest):
        return "misreport is not profitable", unit
    return None, unit


RECHECKS = {
    "hwm": lambda w, rule: reversal_witness(w, rule, strong=False),
    "strong-reversal": lambda w, rule: reversal_witness(w, rule, strong=True),
    "manipulability": manipulation_witness,
    "hwm-optimistic": lambda w, rule: set_reversal_witness(w, rule, mode="optimistic"),
    "hwm-pessimistic": lambda w, rule: set_reversal_witness(w, rule, mode="pessimistic"),
}


# --- expectations for each op kind --------------------------------------------------


def domain_units(prop: str, n: int, m: int) -> int:
    """Scan units of a full domain, as prefrev's checkers count them."""
    fact = math.factorial(m)
    if prop == "participation":
        return fact ** (n - 1) * fact
    if prop == "manipulability":
        return fact ** n * n * fact
    return fact ** n * n


def expect_certificate(prop: str, n: int, m: int):
    def check(code: int, stdout: str) -> Outcome:
        units = domain_units(prop, n, m)
        if code != 0:
            return Outcome(f"exit {code}, expected 0 (certificate)", units)
        if _result_line(stdout) != CERTIFICATE:
            return Outcome("certificate not reported as exhaustive", units)
        return Outcome(None, units)
    return check


def expect_witness(prop: str, rule, *, expected_unit: int | None = None):
    """An exhaustive scan that must stop at a witness the oracle re-checks.

    With ``expected_unit`` the witness must also sit at exactly that scan
    unit (used for planted tables, whose first witness is known).
    """
    def check(code: int, stdout: str) -> Outcome:
        w = _witness(stdout)
        if code != 1 or w is None or _result_line(stdout) != "result: violation":
            return Outcome(f"exit {code}, expected 1 with a witness")
        error, unit = RECHECKS[prop](w, rule)
        if error is None and expected_unit is not None and unit != expected_unit:
            error = f"first witness at unit {unit}, expected {expected_unit}"
        return Outcome(error, unit + 1)
    return check


def expect_sampled(prop: str, rule, *, blocks: int, span: int):
    """A sampled scan: clean over its region, or a witness that re-checks.

    With ``rule=None`` the scan must come out clean.
    """
    def check(code: int, stdout: str) -> Outcome:
        units = blocks * span
        if code == 0:
            ok = _result_line(stdout) == SAMPLED_CLEAN
            return Outcome(None if ok else "sampled verdict not reported", units)
        w = _witness(stdout)
        if code != 1 or w is None or rule is None:
            return Outcome(f"exit {code}, expected {'0' if rule is None else '0 or 1'}",
                           units)
        return Outcome(RECHECKS[prop](w, rule)[0], units)
    return check


def expect_encode(clauses: int, *, solver_status: str | None = None):
    def check(code: int, stdout: str) -> Outcome:
        found = re.search(r"^clauses: (\d+)", stdout, re.M)
        count = int(found.group(1)) if found else 0
        if code != 0:
            return Outcome(f"exit {code}, expected 0", clauses=count)
        if count != clauses:
            return Outcome(f"{count} clauses, expected {clauses}", clauses=count)
        if solver_status and f"solver: {solver_status}" not in stdout.splitlines():
            return Outcome(f"solver status is not {solver_status}", clauses=count)
        return Outcome(None, clauses=count)
    return check


def expect_solver(status: str):
    code_for = {"SAT": 10, "UNSAT": 20}
    line_for = {"SAT": "s SATISFIABLE", "UNSAT": "s UNSATISFIABLE"}

    def check(code: int, stdout: str) -> Outcome:
        if code != code_for[status] or line_for[status] not in stdout.splitlines():
            return Outcome(f"solver exit {code}, expected {status}")
        return Outcome()
    return check


def expect_decode(entries: int):
    def check(code: int, stdout: str) -> Outcome:
        if code != 0 or f"entries: {entries}" not in stdout.splitlines():
            return Outcome(f"decode exit {code}, expected {entries} entries")
        return Outcome()
    return check


def expect_pass():
    """verify-table / verify-proofs: exit 0, every report line ok."""
    def check(code: int, stdout: str) -> Outcome:
        lines = stdout.splitlines()
        if code != 0 or "result: PASS" not in lines or any(
                line.startswith("[FAIL]") or line == "result: FAIL" for line in lines):
            return Outcome(f"exit {code}, expected every report to PASS")
        return Outcome()
    return check
