"""The traced run: per-layer numbers for one pass of a workload.

The layers are prefrev's modules (``prefs``, ``tally``, ``rules``,
``monotonicity``, ``satgen``, ``proofcheck``, ``cli``) plus ``solver``
(``tools/dpll_solve.py``).  The program is not modified: for the length
of the traced pass this module replaces public module attributes with
timing wrappers, and puts every rule object the CLI obtains from
``rules`` behind a counting proxy.  A wrapped name that no longer exists
is reported in ``trace.missing_names`` instead of failing the run.

A traced run is:

1. one untraced pass (fresh processes, as in the end-to-end run), whose
   wall time and per-kind times are the baseline for the overhead;
2. the per-call microbenchmarks, untraced: every registry rule,
   ``index_to_profile`` and ``margin_matrix`` on a fixed profile set at
   (n, m) = (5, 4) and (7, 3);
3. the traced pass: the same ops in this process, through
   ``prefrev.cli.main`` and the solver's ``main``;
4. the layer probe, traced: a tiny encode, solve, decode and re-check
   and a proof-tree check, the same on every workload, so that every
   layer reports work even on workloads that do not otherwise reach it.

Hot inner calls are aggregated per name (calls, total and self time);
op-level calls become spans, kept in memory and written to
``.perfbench/spans-<workload>-<seed>.json`` at the end.  A frame's self
time is its duration minus the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import random
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import oracle
import run
from workloads import SOLVE, Op

RESOLUTE_RULES = ("plurality", "borda", "black", "maximin", "kemeny", "baldwin",
                  "nanson", "dodgson", "schulze", "ranked-pairs", "condorcet")
SET_RULES = ("copeland-set", "uncovered-set", "top-cycle")
MICRO_SIZES = ((5, 4), (7, 3))
MICRO_PROFILES = 100     # profiles per size in the per-call microbenchmarks
MICRO_REPEATS = 3        # per-call cost is the fastest of these repeats
MICRO_SEED = 1707        # the profile set is fixed, not drawn from the workload seed

CHECKERS = {  # monotonicity checker -> property it scans
    "check_halfway_monotonicity": "hwm",
    "check_strong_reversal": "strong-reversal",
    "check_participation": "participation",
    "check_manipulability": "manipulability",
    "check_hwm_optimistic": "hwm-optimistic",
    "check_hwm_pessimistic": "hwm-pessimistic",
}


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.frames: list[list] = []    # open calls: [child seconds, span id]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counts: Counter = Counter()
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.scanning = 0               # depth of open monotonicity checkers
        self._next_span = 0

    def call(self, name: str, fn, args=(), kwargs=None, *, span: bool = False):
        span_id = None
        if span:
            span_id = self._next_span
            self._next_span += 1
        parent = next((f[1] for f in reversed(self.frames) if f[1] is not None), None)
        frame = [0.0, span_id]
        self.frames.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self.frames.pop()
            duration = end - start
            if self.frames:
                self.frames[-1][0] += duration
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[0]
            if span:
                self.spans.append({"id": span_id, "parent": parent, "name": name,
                                   "start_s": start - self.origin,
                                   "end_s": end - self.origin,
                                   "self_s": duration - frame[0]})

    def total(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0


class RuleProxy:
    """Counts and times every evaluation of one rule object.

    ``rules.distinct_inputs`` counts distinct anonymous profiles (multisets
    of votes) the rule was asked about, so ``rules.reuse_ratio`` shows how
    often a scan re-evaluates what the rule has already seen.
    """

    def __init__(self, tracer: Tracer, rule, name: str):
        self._tracer, self._rule, self._name = tracer, rule, name
        self._seen: set = set()

    def __call__(self, profile):
        tracer = self._tracer
        tracer.counts["rules.evals"] += 1
        if tracer.scanning:
            tracer.counts["monotonicity.rule_evals"] += 1
        key = tuple(sorted(vote.ranking for vote in profile.votes))
        if key not in self._seen:
            self._seen.add(key)
            tracer.counts["rules.distinct_inputs"] += 1
        return tracer.call(self._name, self._rule, (profile,))

    def __getattr__(self, attr):
        return getattr(self._rule, attr)


# --- installing wrappers -----------------------------------------------------------


def _votes(profile) -> tuple:
    return tuple(vote.ranking for vote in profile.votes)


def _scan_units(prop: str, args, kwargs, witness) -> int:
    """Units the checker covered, counted as the end-to-end metric counts them."""
    n, m = args[1], args[2]
    fact = math.factorial(m)
    sample = kwargs.get("sample")
    if sample is not None:
        return sample * (fact if prop in ("participation", "manipulability") else n)
    if witness is None:
        return oracle.domain_units(prop, n, m)
    if prop == "participation":
        index = oracle.profile_index(_votes(witness.profile_without), m)
        return index * fact + oracle.order_ids(m)[witness.joiner_order.ranking] + 1
    unit = oracle.profile_index(_votes(witness.profile), m) * n + witness.voter
    if prop == "manipulability":
        unit = unit * fact + oracle.order_ids(m)[witness.misreport.ranking]
    return unit + 1


def _checker(tracer: Tracer, prop: str, fn):
    def wrapper(*args, **kwargs):
        tracer.scanning += 1
        try:
            witness = tracer.call("monotonicity.scan", fn, args, kwargs, span=True)
        finally:
            tracer.scanning -= 1
        try:
            tracer.counts["monotonicity.units"] += _scan_units(prop, args, kwargs, witness)
        except (AttributeError, KeyError):  # a witness type a later change reshaped
            tracer.missing.append(f"monotonicity witness fields ({prop})")
        return witness
    return wrapper


def _timed(tracer: Tracer, name: str, fn, after=None, *, span: bool = False):
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs, span=span)
        if after is not None:
            after(tracer, result, args)
        return result
    return wrapper


def _rule_factory(tracer: Tracer, fn, name: str):
    def wrapper(*args, **kwargs):
        return RuleProxy(tracer, fn(*args, **kwargs), name)
    return wrapper


def _count_clauses(tracer, result, args):
    tracer.counts["satgen.clauses"] += len(result.formula.clauses)


def _count_keys(tracer, result, args):
    tracer.counts["satgen.margin_keys"] += len(result[0])


def _count_bytes(tracer, result, args):
    tracer.counts["satgen.dimacs_bytes"] += args[1].tell()


def _count_cnf(tracer, num_vars: int, num_clauses: int):
    tracer.counts["solver.vars"] += num_vars
    tracer.counts["solver.clauses"] += num_clauses


def _count_external_cnf(tracer, result, args):
    with open(args[1], encoding="utf-8") as handle:
        header = next(line for line in handle if line.startswith("p"))
    _, _, num_vars, num_clauses = header.split()
    _count_cnf(tracer, int(num_vars), int(num_clauses))


def _count_parsed_cnf(tracer, result, args):
    _count_cnf(tracer, result[0], len(result[1]))


# (module, attribute, metric name, after-hook, record a span)
TIMED = (
    ("prefs", "index_to_profile", "prefs.index_to_profile", None, False),
    ("prefs", "profile_to_index", "prefs.profile_to_index", None, False),
    ("tally", "margin_matrix", "tally.margin_matrix", None, False),
    ("tally", "condorcet_winner", "tally.condorcet_winner", None, False),
    ("satgen", "encode_full", "satgen.encode", _count_clauses, True),
    ("satgen", "encode_proof_neighborhood", "satgen.encode", _count_clauses, True),
    ("satgen", "enumerate_margin_keys", "satgen.enumerate_margin_keys", _count_keys, True),
    ("satgen", "write_dimacs", "satgen.write_dimacs", _count_bytes, True),
    ("satgen", "read_dimacs_model", "satgen.read_model", None, True),
    ("satgen", "decode_model", "satgen.decode", None, True),
    ("satgen", "verify_rule", "satgen.verify_rule", None, True),
    ("satgen", "run_solver", "solver.run", _count_external_cnf, True),
    ("proofcheck", "verify_tree", "proofcheck.verify", None, True),
    ("proofcheck", "verify_tree_irresolute", "proofcheck.verify", None, True),
    ("proofcheck", "verify_perez", "proofcheck.verify", None, True),
)
RULE_FACTORIES = (  # rules.<attribute> -> metric name of the rules it returns
    ("resolute_rule", "rules.eval"),
    ("set_rule", "rules.eval"),
    ("read_rule_table", "rules.table_lookup"),
)


class Patches:
    """Replaces public attributes everywhere they are bound, and undoes it.

    Modules that did ``from .prefs import index_to_profile`` hold their own
    binding, so every public attribute of every prefrev module that is the
    same object as the target gets the wrapper.
    """

    def __init__(self, tracer: Tracer, modules: list):
        self.tracer, self.modules = tracer, modules
        self.undo: list[tuple[object, str, object]] = []

    def replace(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.tracer.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = make(original)
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if value is original and not name.startswith("_"):
                    self.undo.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def restore(self) -> None:
        for mod, name, value in reversed(self.undo):
            setattr(mod, name, value)
        self.undo.clear()


def install(tracer: Tracer, pkg: dict, solver) -> Patches:
    modules = [module for name, module in sys.modules.items()
               if name == "prefrev" or name.startswith("prefrev.")]
    patches = Patches(tracer, modules + [solver])
    for module, attr, name, after, span in TIMED:
        patches.replace(pkg[module], attr,
                        lambda fn, name=name, after=after, span=span:
                        _timed(tracer, name, fn, after, span=span))
    for attr, prop in CHECKERS.items():
        patches.replace(pkg["monotonicity"], attr,
                        lambda fn, prop=prop: _checker(tracer, prop, fn))
    for attr, name in RULE_FACTORIES:
        patches.replace(pkg["rules"], attr,
                        lambda fn, name=name: _rule_factory(tracer, fn, name))
    patches.replace(solver, "main", lambda fn: _timed(tracer, "solver.s", fn, span=True))
    patches.replace(solver, "parse_dimacs",
                    lambda fn: _timed(tracer, "solver.parse", fn, _count_parsed_cnf))
    return patches


# --- the passes ----------------------------------------------------------------------


def load_modules() -> tuple[dict, object]:
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    pkg = {name: importlib.import_module(f"prefrev.{name}")
           for name in ("prefs", "tally", "rules", "monotonicity", "satgen",
                        "proofcheck", "cli", "errors")}
    spec = importlib.util.spec_from_file_location("dpll_solve", run.SOLVER)
    solver = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(solver)
    return pkg, solver


def _in_process(op: Op, pkg: dict, solver) -> tuple[int, str]:
    """Run one op's main in this process: (exit code, stdout)."""
    out = io.StringIO()
    saved_argv = sys.argv
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if op.solver:
                sys.argv = [str(run.SOLVER), *op.argv]
                code = solver.main()
            else:
                code = pkg["cli"].main(run.command(op)[3:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing op is a failed op, not a failed benchmark
        out.write(traceback.format_exc())
        code = 1
    finally:
        sys.argv = saved_argv
    return code, out.getvalue()


def in_process(tracer: Tracer, pkg: dict, solver, workdir: Path, workload: str,
               seed: int, digests):
    """Executor that runs each op's main in this process, under a span."""
    def execute(op: Op) -> run.OpResult:
        name = "op.solve" if op.solver else f"op.{op.argv[0]}"
        start = time.perf_counter()
        code, stdout = tracer.call(name, _in_process, (op, pkg, solver), span=True)
        seconds = time.perf_counter() - start
        if op.stdout_to:
            (workdir / op.stdout_to).write_text(stdout, encoding="utf-8")
        return run.judge(op, code, stdout, seconds, 0, workload, seed, digests)
    return execute


def microbenchmarks(pkg: dict) -> tuple[dict[str, float], list[str]]:
    """Per-call cost in microseconds, untraced, on a fixed profile set."""
    prefs, tally, rules = pkg["prefs"], pkg["tally"], pkg["rules"]
    rng = random.Random(MICRO_SEED)
    sets = []
    for n, m in MICRO_SIZES:
        total = math.factorial(m) ** n
        indices = [rng.randrange(total) for _ in range(MICRO_PROFILES)]
        profiles = [prefs.Profile(tuple(map(prefs.LinearOrder, oracle.index_profile(i, n, m))))
                    for i in indices]
        sets.append((n, m, indices, profiles))
    with_winner = [[p for p in profiles if tally.condorcet_winner(p) is not None]
                   for _, _, _, profiles in sets]

    def per_call(evaluate) -> float:
        """``evaluate(n, m, indices, profiles)`` returns its call count."""
        best = math.inf
        for _ in range(MICRO_REPEATS):
            calls, start = 0, time.perf_counter()
            for entry in sets:
                calls += evaluate(*entry)
            best = min(best, (time.perf_counter() - start) / calls * 1e6)
        return best

    def decode(n, m, indices, profiles):
        for index in indices:
            prefs.index_to_profile(index, n, m)
        return len(indices)

    def tally_margins(n, m, indices, profiles):
        for profile in profiles:
            tally.margin_matrix(profile)
        return len(profiles)

    def registry_rule(name):
        if name in SET_RULES:
            rule_for = {m: rules.set_rule(name) for _, m in MICRO_SIZES}
        else:
            rule_for = {m: rules.resolute_rule(name, m) for _, m in MICRO_SIZES}

        def evaluate(n, m, indices, profiles):
            if name == "condorcet":  # only defined where a Condorcet winner exists
                profiles = with_winner[MICRO_SIZES.index((n, m))]
            for profile in profiles:
                rule_for[m](profile)
            return len(profiles)
        return evaluate

    benches = {"prefs.index_to_profile.us_per_call": lambda: decode,
               "tally.margin_matrix.us_per_call": lambda: tally_margins}
    for name in RESOLUTE_RULES + SET_RULES:
        benches[f"rules.{name}.us_per_call"] = lambda name=name: registry_rule(name)
    metrics, missing = {}, []
    for metric, make in benches.items():
        try:
            metrics[metric] = per_call(make())
        except (AttributeError, pkg["errors"].PrefRevError):
            # a name a later change removed is reported, not fatal
            missing.append(metric.rsplit(".", 1)[0])
            metrics[metric] = 0.0
    return metrics, missing


def layer_probe(pkg: dict, solver, workdir: Path) -> None:
    """A tiny end-to-end trip through every layer, run under tracing."""
    satgen, proofcheck, rules = pkg["satgen"], pkg["proofcheck"], pkg["rules"]
    satgen.encode_full(2, 3, "c2")
    result = satgen.encode_full(2, 3, "profile")
    cnf = workdir / "probe.cnf"
    with open(cnf, "w", encoding="utf-8") as handle:
        satgen.write_dimacs(result.formula, handle)
    solve = Op("probe-solve", SOLVE, (str(cnf),), oracle.expect_solver("SAT"), solver=True)
    _, model = _in_process(solve, pkg, solver)
    table = satgen.decode_model(satgen.read_dimacs_model(io.StringIO(model), result.varmap),
                                result.varmap)
    text = io.StringIO()
    rules.write_rule_table(table, text)
    text.seek(0)
    satgen.verify_rule(rules.read_rule_table(text))
    proofcheck.verify_tree(proofcheck.build_odd_tree(4))


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    counts = tracer.counts
    units, evals = counts["monotonicity.units"], counts["rules.evals"]
    scan_evals, distinct = counts["monotonicity.rule_evals"], counts["rules.distinct_inputs"]
    return {
        "monotonicity.units": (units, "count"),
        "monotonicity.rule_evals": (scan_evals, "count"),
        "monotonicity.evals_per_unit": (scan_evals / units if units else 0.0, "ratio"),
        "monotonicity.self_s": (tracer.self_time("monotonicity.scan"), "s"),
        "rules.evals": (evals, "count"),
        "rules.distinct_inputs": (distinct, "count"),
        "rules.reuse_ratio": (evals / distinct if distinct else 0.0, "ratio"),
        "rules.self_s": (tracer.self_time("rules.eval")
                         + tracer.self_time("rules.table_lookup"), "s"),
        "rules.table_lookup.calls": (tracer.calls("rules.table_lookup"), "count"),
        "rules.table_lookup.self_s": (tracer.self_time("rules.table_lookup"), "s"),
        "prefs.index_to_profile.calls": (tracer.calls("prefs.index_to_profile"), "count"),
        "prefs.index_to_profile.self_s": (tracer.self_time("prefs.index_to_profile"), "s"),
        "prefs.profile_to_index.calls": (tracer.calls("prefs.profile_to_index"), "count"),
        "prefs.profile_to_index.self_s": (tracer.self_time("prefs.profile_to_index"), "s"),
        "tally.margin_matrix.calls": (tracer.calls("tally.margin_matrix"), "count"),
        "tally.margin_matrix.self_s": (tracer.self_time("tally.margin_matrix"), "s"),
        "tally.condorcet_winner.calls": (tracer.calls("tally.condorcet_winner"), "count"),
        "tally.condorcet_winner.self_s": (tracer.self_time("tally.condorcet_winner"), "s"),
        "satgen.enumerate_margin_keys.s": (tracer.total("satgen.enumerate_margin_keys"), "s"),
        "satgen.margin_keys": (counts["satgen.margin_keys"], "count"),
        "satgen.encode.self_s": (tracer.self_time("satgen.encode"), "s"),
        "satgen.clauses": (counts["satgen.clauses"], "count"),
        "satgen.write_dimacs.s": (tracer.total("satgen.write_dimacs"), "s"),
        "satgen.dimacs_bytes": (counts["satgen.dimacs_bytes"], "B"),
        "satgen.read_model.s": (tracer.total("satgen.read_model"), "s"),
        "satgen.decode.s": (tracer.total("satgen.decode"), "s"),
        "satgen.verify_rule.s": (tracer.total("satgen.verify_rule"), "s"),
        "solver.s": (tracer.total("solver.s") + tracer.total("solver.run"), "s"),
        "solver.vars": (counts["solver.vars"], "count"),
        "solver.clauses": (counts["solver.clauses"], "count"),
        "proofcheck.verify.s": (tracer.total("proofcheck.verify"), "s"),
    }


def traced_run(workload: str, seed: int, prepared, workdir: Path, scratch: Path,
               digests) -> dict:
    _, untraced = run.run_pass(prepared.ops,
                               run.in_subprocess(workdir, workload, seed, digests))
    pkg, solver = load_modules()
    micro, missing = microbenchmarks(pkg)

    tracer = Tracer()
    tracer.missing.extend(missing)
    patches = install(tracer, pkg, solver)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        _, traced = run.run_pass(prepared.ops, in_process(tracer, pkg, solver, workdir,
                                                          workload, seed, digests))
        tracer.call("probe", layer_probe, (pkg, solver, workdir), span=True)
    finally:
        os.chdir(cwd)
        patches.restore()

    metrics = layer_metrics(tracer)
    metrics.update((name, (value, "us")) for name, value in micro.items())
    metrics["cli.startup_s"] = (prepared.startup_s, "s")
    metrics["cli.ops"] = (len(traced), "count")
    metrics["cli.check_s"] = (run.group_seconds([untraced], "check"), "s")
    traced_wall = sum(r.scaled for r in traced)
    untraced_wall = sum(r.scaled for r in untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.missing_names"] = (len(tracer.missing), "count")

    spans_path = scratch / f"spans-{workload}-{seed}.json"
    spans_path.write_text(json.dumps({"missing": tracer.missing, "spans": tracer.spans,
                                      "counters": {k: {"calls": v[0], "total_s": v[1],
                                                       "self_s": v[2]}
                                                   for k, v in tracer.stats.items()}},
                                     indent=1), encoding="utf-8")
    for name in tracer.missing:
        print(f"missing: {name}", file=sys.stderr)
    failures = [r for r in untraced + traced if r.error]
    return run.report(failures, len(untraced) + len(traced), metrics, {})
