"""Command-line interface: analyze, check, verify-proofs, encode, decode, verify-table, pad.

Reports are plain text with stable field order; ``--json`` switches the
record-bearing commands to JSON lines.  Identical invocations produce
byte-identical output.  ``check`` exits 0 when no violation was found,
1 when a witness is printed, 2 when the scan budget ran out; ``encode``
exits 2 when its key budget runs out.  Exit 3 covers usage and input
problems: malformed command lines, non-positive size or budget flags,
flags the command would ignore (README lists them), missing, unwritable
or malformed files, and an ``encode --solve`` run whose solver gives no
SAT/UNSAT verdict.  ``verify-table`` re-checks profile and c2 tables.
The SAT solver is only ever an external binary, taken from ``--solver``
or the PREFREV_SOLVER environment variable, and is only invoked when
``--solve`` is passed explicitly.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Sequence

# json, monotonicity, proofcheck and satgen are imported by the commands and
# outputs that use them, so that each process loads only what it runs
from . import rules
from .errors import (
    BadBudget,
    BudgetExceeded,
    MTooLargeForExactKemeny,
    PrefRevError,
    UnknownRule,
)
from .prefs import (
    Alternatives,
    default_labels,
    format_order,
    parse_order,
    read_profile,
    write_profile,
)
from .rules import TieBreak, read_rule_table
from .tally import condorcet_winner, margin_matrix

SOLVER_ENV = "PREFREV_SOLVER"

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_BUDGET = 2
EXIT_ERROR = 3

CHECK_PROPERTIES = ("hwm", "strong-reversal", "participation",
                    "manipulability", "hwm-optimistic", "hwm-pessimistic")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        detail = (f" ({exc.scanned}/{exc.total} units, {100 * exc.fraction:.1f}%)"
                  if exc.total else "")
        print(f"result: budget exceeded: {exc}{detail}")
        return EXIT_BUDGET
    except (PrefRevError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, as input errors do: 2 means "budget exceeded"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prefrev",
        description="Voting rules, reversal-paradox checks, proof "
                    "verification, and the CNF pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="margins, Condorcet winner, and every "
                                       "rule's outcome for a profile file")
    p.add_argument("profile")
    p.add_argument("--tie-break", help="priority order, e.g. b>a>c>d "
                                       "(default: label order)")
    p.add_argument("--margins-out", help="also write the margin matrix CSV here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="scan a domain for paradox witnesses")
    p.add_argument("--property", required=True, choices=CHECK_PROPERTIES)
    named = p.add_mutually_exclusive_group(required=True)
    named.add_argument("--rule", help=f"one of: {', '.join(rules.RESOLUTE_RULES)}; "
                                      f"set-valued: {', '.join(rules.SET_RULES)}")
    named.add_argument("--table", help="rule table file (profile or c2 mode) "
                                       "to check instead of a named rule")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tie-break")
    p.add_argument("--domain", choices=("full", "condorcet"), default="full",
                   help="restrict manipulability to profiles with a "
                        "Condorcet winner")
    scope = p.add_mutually_exclusive_group()
    scope.add_argument("--budget", type=int,
                       help="max scan units before giving up.  An exhaustive "
                            "scan of rules that read only the margins (every "
                            "registry rule but plurality and dodgson, the set "
                            "rules, c2 tables) first tries the margin pass, "
                            "keys(n-1) x m! units (x m! again for "
                            "manipulability), when they fit; every other scan, "
                            "and one whose margin pass meets a violation, counts "
                            "units of the full profile space")
    scope.add_argument("--sample", type=int, help="sampled scan: number of blocks")
    p.add_argument("--seed", type=int, help="seed of a sampled scan (default 0)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify-proofs", help="machine-check the impossibility "
                                             "arguments")
    p.add_argument("which", choices=("odd", "even", "perez",
                                     "irresolute-opt", "irresolute-pess"))
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_proofs)

    p = sub.add_parser("encode", help="emit a DIMACS CNF (full formula or a "
                                      "proof neighborhood)")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int)
    p.add_argument("--mode", choices=("profile", "c2"), default="profile")
    p.add_argument("--proof", choices=("odd", "even"),
                   help="encode a proof-tree neighborhood instead of the "
                        "full formula")
    p.add_argument("--out", required=True)
    p.add_argument("--map", help="sidecar variable map path "
                                 "(default: <out>.map)")
    p.add_argument("--budget", type=int,
                   help="max keys (profiles or margin matrices) before giving up")
    p.add_argument("--solve", action="store_true",
                   help="run the external solver on the result")
    p.add_argument("--solver", help=f"solver command (default: ${SOLVER_ENV})")
    p.add_argument("--model-out", help="write solver output here when solving")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="turn a solver model into a rule table")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=("profile", "c2"), default="profile")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify-table", help="re-check a decoded table "
                                            "independently of any CNF")
    p.add_argument("table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_table)

    p = sub.add_parser("pad", help="append opposed vote pairs to a profile")
    p.add_argument("profile")
    p.add_argument("--order", required=True)
    p.add_argument("--times", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pad)
    return parser


def _tie_break(text: str | None, alternatives: Alternatives) -> TieBreak:
    if text is None:
        return TieBreak.lexicographic(alternatives.m)
    return TieBreak(parse_order(text, alternatives))


def _require_positive(args, *names: str) -> None:
    """Reject a non-positive ``--budget`` or size/count flag with exit 3."""
    budget = getattr(args, "budget", None)
    if budget is not None and budget <= 0:
        raise BadBudget(f"budget must be positive, got {budget}")
    for name in names:
        value = getattr(args, name)
        if value is not None and value <= 0:
            raise PrefRevError(f"--{name} must be positive, got {value}")


def _emit(args, records: list[dict]) -> None:
    if args.json:
        import json

        for record in records:
            cleaned = {k: v for k, v in record.items() if k != "_text"}
            print(json.dumps(cleaned, sort_keys=True))
    else:
        for record in records:
            print(record["_text"])


# --- analyze -------------------------------------------------------------------


def cmd_analyze(args) -> int:
    profile, alternatives = read_profile(args.profile)
    tie_break = _tie_break(args.tie_break, alternatives)
    margins = margin_matrix(profile)
    records: list[dict] = [{
        "_text": f"profile: n={profile.n} m={profile.m} "
                 f"labels={','.join(alternatives.labels)}",
        "record": "profile", "n": profile.n, "m": profile.m,
        "labels": ",".join(alternatives.labels),
    }]
    winner = condorcet_winner(margins)
    winner_label = alternatives.label_of(winner) if winner is not None else "none"
    records.append({"_text": f"condorcet-winner: {winner_label}",
                    "record": "condorcet-winner", "winner": winner_label})

    for name in rules.RESOLUTE_RULES:
        if name == "condorcet":  # undefined without a Condorcet winner
            continue
        try:
            label = alternatives.label_of(
                rules.resolute_rule(name, profile.m, tie_break)(profile))
            detail = _RULE_DETAILS.get(name)
            text, extra = detail(profile, alternatives) if detail else ("", {})
        except (MTooLargeForExactKemeny, BudgetExceeded) as exc:
            records.append({"_text": f"{name}: skipped ({exc})", "record": "rule",
                            "rule": name, "winner": None, "skipped": str(exc)})
            continue
        records.append({"_text": f"{name}: {label}{text}", "record": "rule",
                        "rule": name, "winner": label, **extra})

    for name in rules.SET_RULES:
        chosen = alternatives.label_set(rules.set_rule(name)(profile))
        records.append({"_text": f"{name}: {chosen}",
                        "record": "set-rule", "rule": name, "winners": chosen})

    csv_text = margins.to_csv(alternatives)
    if args.margins_out:
        with open(args.margins_out, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
        records.append({"_text": f"margins-csv: {args.margins_out}",
                        "record": "margins", "path": args.margins_out})
    else:
        records.append({"_text": "margins-csv:\n" + csv_text.rstrip("\n"),
                        "record": "margins", "csv": csv_text})
    _emit(args, records)
    return EXIT_OK


def _kemeny_detail(profile, alternatives) -> tuple[str, dict]:
    text = "|".join(format_order(r, alternatives)
                    for r in rules.kemeny_rankings(profile))
    return f"  rankings={text}", {"rankings": text}


def _dodgson_detail(profile, alternatives) -> tuple[str, dict]:
    scores = rules.dodgson_scores(profile)
    text = " ".join(f"{alternatives.label_of(a)}={scores[a]}"
                    for a in range(profile.m))
    return f"  scores {text}", {
        "scores": {alternatives.label_of(a): s for a, s in scores.items()}}


# per-rule extras after the winner: the text suffix and the JSON fields
_RULE_DETAILS = {"kemeny": _kemeny_detail, "dodgson": _dodgson_detail}


# --- check ----------------------------------------------------------------------


def cmd_check(args) -> int:
    _require_positive(args, "n", "m", "sample")
    _reject_ignored_flags(args)
    alternatives = Alternatives(default_labels(args.m))
    tie_break = _tie_break(args.tie_break, alternatives)
    seed = 0 if args.seed is None else args.seed
    scan = dict(budget=args.budget, sample=args.sample, seed=seed)

    set_valued = args.property in ("hwm-optimistic", "hwm-pessimistic")
    if args.table is not None:
        with open(args.table, encoding="utf-8") as handle:
            rule = read_rule_table(handle)
        rule_name = f"table:{args.table}"
        if rule.n != args.n or rule.m != args.m:
            raise PrefRevError(f"table is for n={rule.n} m={rule.m}, "
                               f"flags say n={args.n} m={args.m}")
    elif args.rule in rules.SET_RULES:
        if not set_valued:
            raise UnknownRule(f"{args.rule} is set-valued; use the "
                              f"hwm-optimistic/hwm-pessimistic properties")
        rule_name, rule = args.rule, rules.set_rule(args.rule)
    else:
        # a size no budget can reach is bad input, not a budget verdict
        cap = rules.dodgson_cap(args.m, args.n) if args.rule == "dodgson" else None
        if cap is not None:
            raise PrefRevError(cap)
        rule_name, rule = args.rule, rules.resolute_rule(args.rule, args.m, tie_break)
    if set_valued and rule_name not in rules.SET_RULES:
        rule = _Singleton(rule)

    mode_text = (f"sampled blocks={args.sample} seed={seed}"
                 if args.sample is not None else "exhaustive")
    header = [
        {"_text": f"check: {args.property}", "record": "check",
         "property": args.property},
        {"_text": f"rule: {rule_name}", "record": "rule", "rule": rule_name},
        {"_text": f"domain: n={args.n} m={args.m} ({args.domain})",
         "record": "domain", "n": args.n, "m": args.m, "domain": args.domain},
        {"_text": f"mode: {mode_text}", "record": "mode", "mode": mode_text},
    ]

    witness = _dispatch_check(args, rule, scan)

    if witness is None:
        verdict = ("no violation (exhaustive certificate)"
                   if args.sample is None else "no violation (sampled region only)")
        header.append({"_text": f"result: {verdict}", "record": "result",
                       "result": "none", "exhaustive": args.sample is None})
        _emit(args, header)
        return EXIT_OK
    import json

    record = dict(witness.describe(alternatives))
    record["check"] = args.property
    header.append({"_text": "result: violation", "record": "result",
                   "result": "violation"})
    header.append({"_text": "witness: " + json.dumps(record, sort_keys=True),
                   "record": "witness", **record})
    _emit(args, header)
    return EXIT_WITNESS


def _reject_ignored_flags(args) -> None:
    """Exit 3 on a flag that the scan would silently ignore."""
    for ignored, message in (
            (args.domain == "condorcet" and args.property != "manipulability",
             "--domain condorcet applies only to --property manipulability"),
            (args.tie_break and (args.table is not None or args.rule in rules.SET_RULES
                                 or args.rule == "condorcet"),
             "--tie-break applies only to a resolute registry rule other "
             "than condorcet"),
            (args.seed is not None and args.sample is None,
             "--seed applies only to a sampled scan (--sample)")):
        if ignored:
            raise PrefRevError(message)


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


def _dispatch_check(args, rule, scan):
    from . import monotonicity

    # looked up per call, not at import, so that wrappers installed on the
    # monotonicity module's attributes (as the benchmark's tracer does) apply
    checkers = {
        "hwm": monotonicity.check_halfway_monotonicity,
        "strong-reversal": monotonicity.check_strong_reversal,
        "participation": monotonicity.check_participation,
        "manipulability": partial(monotonicity.check_manipulability,
                                  domain=args.domain),
        "hwm-optimistic": monotonicity.check_hwm_optimistic,
        "hwm-pessimistic": monotonicity.check_hwm_pessimistic,
    }
    return checkers[args.property](rule, args.n, args.m, **scan)


# --- verify-proofs -----------------------------------------------------------------


def cmd_verify_proofs(args) -> int:
    from . import proofcheck

    reports = []
    if args.which == "perez":
        reports.append(proofcheck.verify_perez())
    elif args.which in ("odd", "even"):
        builder = (proofcheck.build_odd_tree if args.which == "odd"
                   else proofcheck.build_even_tree)
        reports.append(proofcheck.verify_tree(builder(args.m)))
    else:
        mode = "optimistic" if args.which == "irresolute-opt" else "pessimistic"
        for builder in (proofcheck.build_odd_tree, proofcheck.build_even_tree):
            reports.append(proofcheck.verify_tree_irresolute(builder(args.m), mode))
    return _emit_reports(args, reports)


def _emit_reports(args, reports) -> int:
    """Print reports as text or JSON lines; exit 0 iff every line holds."""
    if args.json:
        import json
    for report in reports:
        if args.json:
            for line in report.lines:
                print(json.dumps({"report": report.title, "ok": line.ok,
                                  "text": line.text}, sort_keys=True))
        else:
            print(report.render())
    return EXIT_OK if all(report.ok for report in reports) else EXIT_WITNESS


# --- encode / decode / verify-table -------------------------------------------------


def _solver_command(args) -> str:
    command = args.solver or os.environ.get(SOLVER_ENV)
    if not command:
        raise PrefRevError(f"no solver configured: pass --solver or set "
                           f"${SOLVER_ENV}")
    return command


def cmd_encode(args) -> int:
    from . import satgen

    _require_positive(args, "n", "m")
    if args.proof:
        from . import proofcheck

        if args.n is not None or args.budget is not None or args.mode == "c2":
            raise PrefRevError("--proof encodes a fixed tree; it takes no "
                               "--n, --budget or --mode c2")
        builder = (proofcheck.build_odd_tree if args.proof == "odd"
                   else proofcheck.build_even_tree)
        tree = builder(args.m)
        result = satgen.encode_proof_neighborhood(tree)
        labels = tree.alternatives.labels
    else:
        if args.n is None:
            raise PrefRevError("--n is required unless --proof is given")
        result = satgen.encode_full(args.n, args.m, args.mode,
                                    budget=args.budget)
        labels = default_labels(args.m)

    with open(args.out, "w", encoding="utf-8") as handle:
        satgen.write_dimacs(result.formula, handle)
    map_path = args.map or args.out + ".map"
    with open(map_path, "w", encoding="utf-8") as handle:
        satgen.write_varmap(result.varmap, labels, handle)

    counts = result.counts
    print(f"cnf: {args.out}")
    print(f"map: {map_path}")
    print(f"variables: {result.formula.num_vars}")
    print(f"clauses: {len(result.formula.clauses)} "
          f"(functionality={counts['functionality']} "
          f"condorcet={counts['condorcet']} hwm={counts['hwm']})")
    if args.solve:
        run = satgen.run_solver(_solver_command(args), args.out)
        if run.status == "UNKNOWN":
            raise PrefRevError(f"solver gave no SAT/UNSAT verdict "
                               f"(exit code {run.returncode})")
        print(f"solver: {run.status}")
        if args.model_out:
            with open(args.model_out, "w", encoding="utf-8") as handle:
                handle.write(run.output)
            print(f"model: {args.model_out}")
    return EXIT_OK


def cmd_decode(args) -> int:
    from . import satgen

    _require_positive(args, "n", "m")
    if args.mode == "profile":
        varmap = satgen.VariableMap(n=args.n, m=args.m, mode="profile")
    else:
        varmap = satgen.c2_variable_map(args.n, args.m)[0]
    with open(args.model, encoding="utf-8") as handle:
        assignment = satgen.read_dimacs_model(handle, varmap)
    table = satgen.decode_model(assignment, varmap)
    with open(args.out, "w", encoding="utf-8") as handle:
        rules.write_rule_table(table, handle)
    print(f"table: {args.out}")
    print(f"entries: {varmap.num_keys}")
    return EXIT_OK


def cmd_verify_table(args) -> int:
    from . import satgen

    with open(args.table, encoding="utf-8") as handle:
        table = read_rule_table(handle)
    return _emit_reports(args, [satgen.verify_rule(table)])


def cmd_pad(args) -> int:
    _require_positive(args, "times")
    profile, alternatives = read_profile(args.profile)
    order = parse_order(args.order, alternatives)
    for _ in range(args.times):
        profile = profile.pad(order)
    write_profile(profile, alternatives, args.out)
    print(f"out: {args.out}")
    print(f"n: {profile.n}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
