"""The three workloads: their ops, their seeded inputs and their expectations.

An op is one ``prefrev`` CLI invocation or one run of the in-repo solver
``tools/dpll_solve.py``.  ``build(name, seed, workdir)`` writes the seeded
inputs into ``workdir`` and returns the op list of one pass.

* ``certify`` - exhaustive scans that end in a certificate.  The seed picks
  each op's ``--tie-break``; relabelling keeps every verdict a certificate
  and the domain the same size.  This is the workload a scan kernel that
  evaluates the rule once per anonymous profile or margin matrix speeds up.
* ``hunt`` - scans that stop at a witness or sample.  Lookup tables are
  order-dependent and sampled blocks are random-access, so quotienting the
  scan gives them nothing; this workload should stay flat when ``certify``
  moves, and shows it when a change moves the first witness.
* ``pipeline`` - the CNF path: encode, solve, decode, re-verify, plus the
  proof CNFs and the proof-tree checks.  Inputs are fixed; the seed does
  not change them.  Most time goes to ``satgen`` and the solver.

``tiny=True`` shrinks every op to m=3, n<=3 (or the smallest proof trees)
for the harness self-test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import add
from typing import Callable

import oracle

WORKLOADS = ("certify", "hunt", "pipeline")

# Op kinds, as the end-to-end metrics group them.
CHECK, ENCODE, SOLVE, DECODE, VERIFY = "check", "encode", "solve", "decode", "verify"


@dataclass(frozen=True)
class Op:
    name: str                  # stable id, also the key of reference digests
    kind: str                  # one of the kinds above
    argv: tuple[str, ...]      # prefrev arguments, or the solver's arguments
    expect: Callable[[int, str], oracle.Outcome]
    solver: bool = False       # run tools/dpll_solve.py instead of prefrev
    stdout_to: str | None = None   # also save stdout here (solver models)
    table: bool = False        # a check over a lookup table (also "verify")
    seeded_output: bool = False    # stdout depends on the workload seed

    def groups(self) -> tuple[str, ...]:
        """End-to-end time groups this op's wall time is summed into."""
        if self.kind == CHECK:
            return ("check", "verify") if self.table else ("check",)
        return ("verify",) if self.kind in (DECODE, VERIFY) else (self.kind,)


def _tie_break(rng: random.Random, m: int) -> str:
    order = list(oracle.labels(m))
    rng.shuffle(order)
    return ">".join(order)


def build(name: str, seed: int, workdir: str, *, tiny: bool = False) -> list[Op]:
    rng = random.Random(f"{name}:{seed}")
    if name == "certify":
        return _certify(rng, tiny)
    if name == "hunt":
        return _hunt(rng, workdir, tiny)
    if name == "pipeline":
        return _pipeline(tiny)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


# --- certify --------------------------------------------------------------------

CERTIFY = (  # (property, rule, m, n, extra flags)
    ("hwm", "maximin", 4, 3, ()),
    ("hwm", "maximin", 3, 6, ()),
    ("participation", "borda", 4, 3, ()),
    ("manipulability", "maximin", 4, 3, ("--domain", "condorcet")),
    ("strong-reversal", "schulze", 3, 5, ()),
    ("hwm", "dodgson", 3, 5, ()),
    ("hwm", "kemeny", 4, 3, ()),
)
CERTIFY_TINY = (
    ("hwm", "maximin", 3, 3, ()),
    ("participation", "borda", 3, 3, ()),
    ("strong-reversal", "schulze", 3, 3, ()),
    ("hwm", "kemeny", 3, 2, ()),
)


def _certify(rng: random.Random, tiny: bool) -> list[Op]:
    ops = []
    for prop, rule, m, n, extra in CERTIFY_TINY if tiny else CERTIFY:
        argv = ("check", "--property", prop, "--rule", rule, "--m", str(m),
                "--n", str(n), "--tie-break", _tie_break(rng, m)) + extra
        ops.append(Op(f"{prop}-{rule}-m{m}-n{n}", CHECK, argv,
                      oracle.expect_certificate(prop, n, m)))
    return ops


# --- hunt -----------------------------------------------------------------------

PLANT_BAND = (0.75, 0.76)   # planted first witness, as a share of the domain
TINY_BAND = (0.5, 0.95)     # tiny domains have too few profiles for a narrow band
SAMPLE_BLOCKS = 4000


def _hunt(rng: random.Random, workdir: str, tiny: bool) -> list[Op]:
    ops = []
    big = (3, 3) if tiny else (6, 3)      # (n, m) of the Borda table
    small = (2, 3) if tiny else (3, 4)    # (n, m) of the maximin table
    for path, rule_name, (n, m), props in (
            ("t_borda.txt", "borda", big, ("hwm",)),
            ("t_maximin.txt", "maximin", small,
             ("hwm", "strong-reversal", "manipulability"))):
        priority = oracle.parse_order(_tie_break(rng, m), m)
        table = tabulate(rule_name, n, m, priority)
        planted = plant(table, n, m, rng, TINY_BAND if tiny else PLANT_BAND)
        table[planted.index] = planted.winner
        write_table(f"{workdir}/{path}", table, n, m)
        rule = oracle.table_rule(table, m)
        for prop in props:
            expected = {"hwm": planted.first_hwm,
                        "strong-reversal": planted.first_strong}.get(prop)
            argv = ("check", "--property", prop, "--table", path,
                    "--m", str(m), "--n", str(n))
            ops.append(Op(f"{prop}-table-{rule_name}-m{m}-n{n}", CHECK, argv,
                          oracle.expect_witness(prop, rule, expected_unit=expected),
                          table=True, seeded_output=True))

    n, m = (3, 3) if tiny else (6, 4)
    blocks = 200 if tiny else SAMPLE_BLOCKS
    for rule_name in ("maximin", "schulze"):
        tie_break = _tie_break(rng, m)
        rule = oracle.REFERENCE_RULES[rule_name](oracle.parse_order(tie_break, m))
        argv = ("check", "--property", "hwm", "--rule", rule_name,
                "--m", str(m), "--n", str(n), "--sample", str(blocks),
                "--seed", str(rng.randrange(2 ** 31)), "--tie-break", tie_break)
        ops.append(Op(f"hwm-{rule_name}-m{m}-n{n}-sampled", CHECK, argv,
                      oracle.expect_sampled("hwm", rule, blocks=blocks, span=n),
                      seeded_output=True))

    n, m = (3, 3) if tiny else (4, 4)
    tie_break = _tie_break(rng, m)
    argv = ("check", "--property", "manipulability", "--rule", "borda",
            "--m", str(m), "--n", str(n), "--tie-break", tie_break)
    ops.append(Op(f"manipulability-borda-m{m}-n{n}", CHECK, argv,
                  oracle.expect_witness("manipulability",
                                        oracle.borda(oracle.parse_order(tie_break, m))),
                  seeded_output=True))
    n = 4  # the top cycle is pessimistic-reversal proof at n=3, m=3
    argv = ("check", "--property", "hwm-pessimistic", "--rule", "top-cycle",
            "--m", str(m), "--n", str(n))
    ops.append(Op(f"hwm-pessimistic-top-cycle-m{m}-n{n}", CHECK, argv,
                  oracle.expect_witness("hwm-pessimistic", oracle.top_cycle)))
    return ops


def tabulate(rule_name: str, n: int, m: int, priority: tuple[int, ...]) -> list[int]:
    """A rule's winners over all (m!)^n profiles, in canonical index order.

    Per-order contributions (Borda scores or pairwise comparisons) are
    summed level by level, one voter per level, so the last level lists
    the totals in index order; each distinct total is decided once.
    """
    pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
    if rule_name == "borda":
        contrib = [tuple(m - 1 - o.index(a) for a in range(m)) for o in oracle.orders(m)]
        def score(totals):
            return totals
    elif rule_name == "maximin":
        contrib = [tuple(1 if o.index(a) < o.index(b) else -1 for a, b in pairs)
                   for o in oracle.orders(m)]
        def score(totals):
            worst = [math.inf] * m
            for (a, _), margin in zip(pairs, totals):
                worst[a] = min(worst[a], margin)
            return worst
    else:
        raise ValueError(f"no tabulation for {rule_name!r}")
    level = [(0,) * len(contrib[0])]
    for _ in range(n):
        level = [tuple(map(add, s, c)) for s in level for c in contrib]
    decided: dict[tuple[int, ...], int] = {}
    for totals in set(level):
        scores = score(totals)
        top = max(scores)
        decided[totals] = min((a for a in range(m) if scores[a] == top),
                              key=priority.index)
    return [decided[totals] for totals in level]


def write_table(path: str, table: list[int], n: int, m: int) -> None:
    names = oracle.labels(m)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"n={n} m={m} mode=profile\n")
        handle.write("".join(f"{i},{names[w]}\n" for i, w in enumerate(table)))


@dataclass(frozen=True)
class Plant:
    index: int
    winner: int
    first_hwm: int                 # scan unit of the first hwm witness
    first_strong: int              # same for strong reversal


def plant(table: list[int], n: int, m: int, rng: random.Random,
          band: tuple[float, float]) -> Plant:
    """Pick one entry to change so the table gets a reversal violation.

    The unplanted table has none (Borda and maximin at these sizes certify
    half-way monotonic under every tie-break), so every violation of the
    planted table involves the planted profile, either as the truthful
    profile or as the reversed one.  That leaves 2n candidate scan units, which gives the
    oracle the exact first witness.  The entry is drawn so that the first
    witness falls inside ``band`` (a share of the domain), which keeps the
    scan length, and with it the op's time, the same for every seed.
    """
    fact = math.factorial(m)
    total = fact ** n
    ids = oracle.order_ids(m)
    rev = [ids[o[::-1]] for o in oracle.orders(m)]
    lo, hi = (int(share * total) for share in band)
    for _ in range(100_000):
        q = rng.randrange(lo, hi)
        w = rng.choice([a for a in range(m) if a != table[q]])
        lookup = lambda x: w if x == q else table[x]  # noqa: E731
        hwm, strong = [], []
        for voter, order in enumerate(oracle.index_profile(q, n, m)):
            d = ids[order]
            r = q + (rev[d] - d) * fact ** (n - 1 - voter)
            for profile, truthful, other in ((q, order, r), (r, order[::-1], q)):
                before, after = lookup(profile), lookup(other)
                unit = profile * n + voter
                if oracle.prefers(truthful, after, before):
                    hwm.append(unit)
                    if after == truthful[0]:
                        strong.append(unit)
        if hwm and strong and min(hwm) >= lo * n:
            return Plant(q, w, min(hwm), min(strong))
    raise RuntimeError(f"no plant with a first witness in {band} at n={n} m={m}")


# --- pipeline -------------------------------------------------------------------

# Clause counts and decoded table sizes at the commit that defined the
# benchmark; a change to the encoding shows up as a failed op.
PIPELINE = {
    "profile": {"n": 3, "m": 4, "clauses": 357888, "entries": 13824},
    "c2-small": {"n": 3, "m": 4, "clauses": 40512, "entries": 1136},
    "c2-large": {"n": 4, "m": 4, "clauses": 194929, "entries": 4175},
    "proof-odd": {"m": 4, "clauses": 102},
    "proof-even": {"m": 6, "clauses": 268},
}
PIPELINE_TINY = {
    "profile": {"n": 2, "m": 3, "clauses": 372, "entries": 36},
    "c2-small": {"n": 3, "m": 3, "clauses": 560, "entries": 44},
    "c2-large": {"n": 2, "m": 3, "clauses": 193, "entries": 19},
    "proof-odd": {"m": 4, "clauses": 102},
    "proof-even": {"m": 4, "clauses": 115},
}
PROOFS = ("odd", "even", "perez", "irresolute-opt", "irresolute-pess")
PIPELINE_SAMPLE_BLOCKS = 6000


def _pipeline(tiny: bool) -> list[Op]:
    sizes = PIPELINE_TINY if tiny else PIPELINE
    ops = []
    for stage, size in sizes.items():
        if stage.startswith("proof-"):
            continue
        n, m = size["n"], size["m"]
        mode = ("--mode", "profile" if stage == "profile" else "c2")
        tag = f"{mode[1]}-n{n}-m{m}"
        cnf, model, table = f"{tag}.cnf", f"{tag}.model", f"{tag}.table"
        sm = ("--n", str(n), "--m", str(m))
        ops.append(Op(f"encode-{tag}", ENCODE, ("encode",) + mode + sm + ("--out", cnf),
                      oracle.expect_encode(size["clauses"])))
        ops.append(Op(f"solve-{tag}", SOLVE, (cnf,), oracle.expect_solver("SAT"),
                      solver=True, stdout_to=model))
        ops.append(Op(f"decode-{tag}", DECODE,
                      ("decode",) + mode + ("--model", model) + sm + ("--out", table),
                      oracle.expect_decode(size["entries"])))
        if stage == "profile":
            ops.append(Op(f"verify-table-{tag}", VERIFY, ("verify-table", table),
                          oracle.expect_pass()))
        # a decoded table is reversal-proof: certificates, or a clean sample
        # where the domain is too large to scan in a pass
        check = ("check", "--table", table, "--m", str(m), "--n", str(n), "--property")
        if stage == "c2-large":
            blocks = 50 if tiny else PIPELINE_SAMPLE_BLOCKS
            ops.append(Op(f"check-hwm-table-{tag}-sampled", CHECK,
                          check + ("hwm", "--sample", str(blocks), "--seed", "0"),
                          oracle.expect_sampled("hwm", None, blocks=blocks, span=n),
                          table=True))
            continue
        for prop in ("hwm", "strong-reversal"):
            ops.append(Op(f"check-{prop}-table-{tag}", CHECK, check + (prop,),
                          oracle.expect_certificate(prop, n, m), table=True))
    for which in ("odd", "even"):
        size = sizes[f"proof-{which}"]
        argv = ("encode", "--proof", which, "--m", str(size["m"]),
                "--out", f"proof-{which}.cnf", "--solve", "--solver", "{solver}")
        ops.append(Op(f"encode-proof-{which}-m{size['m']}", ENCODE, argv,
                      oracle.expect_encode(size["clauses"], solver_status="UNSAT")))
    proof_m = "4" if tiny else "6"
    for which in PROOFS:
        ops.append(Op(f"verify-proofs-{which}-m{proof_m}", VERIFY,
                      ("verify-proofs", which, "--m", proof_m), oracle.expect_pass()))
    return ops
