import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import _Singleton, tabulate_rule
from prefrev import keyspace, monotonicity, tally
from prefrev.cli import main
from prefrev.errors import BudgetExceeded, PrefRevError, printable_count
from prefrev.monotonicity import SetReversalWitness, check_halfway_monotonicity
from prefrev.prefs import (
    RESOLUTE_RULES,
    Alternatives,
    default_labels,
    num_profiles,
    profile_to_index,
    read_profile,
)
from prefrev.rules import RuleTable, read_rule_table, resolute_rule, write_rule_table
from prefrev.tally import margin_matrix

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture()
def run(capsys):
    def invoke(command: str) -> tuple[int, str]:
        code = main(shlex.split(command))
        return code, capsys.readouterr().out

    return invoke


def plant_corrupted_table(path: Path) -> None:
    from prefrev.prefs import index_to_profile, profile_to_index

    table = tabulate_rule(resolute_rule("maximin", 3), 3, 3)
    for index in range(216):
        profile = index_to_profile(index, 3, 3)
        top = profile.votes[0].top
        if table.chosen[index] != top:
            flipped = profile.reverse_vote(0)
            corrupted = table.replace_entry(profile_to_index(flipped), top)
            break
    with open(path, "w") as handle:
        write_rule_table(corrupted, handle)
    assert check_halfway_monotonicity(corrupted, 3, 3) is not None


class TestAnalyze:
    def test_perez_matches_golden(self, run, perez_profile_path):
        code, out = run(f"analyze {perez_profile_path}")
        assert code == 0
        assert out == (GOLDEN_DIR / "analyze_perez41.txt").read_text()

    @pytest.mark.parametrize("profile,tie_break,golden", [
        (GOLDEN_DIR / "profile_all_ties_m4.txt", "b>d>a>c",
         "analyze_all_ties_m4_tie_break.txt"),
        (REPO_ROOT / "data" / "perez41.txt", "t>u>z>y>x",
         "analyze_perez41_tie_break.txt"),
    ], ids=["all-ties", "perez"])
    def test_tie_break_matches_golden(self, run, profile, tie_break, golden):
        # every margin is 0 in the all-ties profile, so each rule falls back
        # to the tie-break: plurality gives d, every other resolute rule b
        code, out = run(f"analyze {profile} --tie-break {tie_break}")
        assert code == 0
        assert out == (GOLDEN_DIR / golden).read_text()

    def test_byte_identical_across_runs(self, run, perez_profile_path):
        outputs = {run(f"analyze {perez_profile_path}")[1] for _ in range(2)}
        assert len(outputs) == 1

    def test_json_records(self, run, perez_profile_path):
        code, out = run(f"analyze {perez_profile_path} --json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        by_rule = {r.get("rule"): r for r in records if "rule" in r}
        assert by_rule["maximin"]["winner"] == "t"
        assert by_rule["dodgson"]["scores"]["t"] == 15
        assert by_rule["uncovered-set"]["winners"] == "{x,y,z}"
        assert all("_text" not in r for r in records)

    def test_margins_out(self, run, perez_profile_path, tmp_path):
        target = tmp_path / "margins.csv"
        code, _ = run(f"analyze {perez_profile_path} --margins-out {target}")
        assert code == 0
        profile, alternatives = read_profile(str(perez_profile_path))
        assert target.read_text() == margin_matrix(profile).to_csv(alternatives)

    def test_unanimous_profile_all_rules_agree(self, run, tmp_path):
        path = tmp_path / "unanimous.txt"
        path.write_text("m=4 labels=a,b,c,d\n5: c>a>d>b\n")
        code, out = run(f"analyze {path} --json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        winners = {r["rule"]: r["winner"] for r in records
                   if r.get("record") == "rule"}
        assert set(winners.values()) == {"c"}
        sets = {r["rule"]: r["winners"] for r in records
                if r.get("record") == "set-rule"}
        assert set(sets.values()) == {"{c}"}

    def test_odd_root_profile_has_no_winner(self, run, tmp_path):
        path = tmp_path / "p0.txt"
        path.write_text("m=4 labels=a,b,c,d\n"
                        "1: a>b>c>d\n3: a>b>d>c\n3: b>d>c>a\n"
                        "4: c>a>b>d\n2: d>c>a>b\n2: d>c>b>a\n")
        code, out = run(f"analyze {path}")
        assert code == 0
        assert "condorcet-winner: none" in out

    def test_parse_error_names_the_line(self, run, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("m=2 labels=a,b\n1: a>b\n1: a>a\n")
        code = main(["analyze", str(bad)])
        err = capsys.readouterr().err
        assert code == 3
        assert ":3" in err

    def test_large_m_degrades_gracefully(self, run, tmp_path):
        # exact Dodgson is capped at m=6; the other rules still report
        labels = ",".join("abcdefg")
        path = tmp_path / "wide.txt"
        path.write_text(f"m=7 labels={labels}\n2: {'>'.join('abcdefg')}\n"
                        f"1: {'>'.join('gfedcba')}\n")
        code, out = run(f"analyze {path}")
        assert code == 0
        assert "dodgson: skipped" in out
        assert "kemeny: a" in out
        assert "borda: a" in out

    def test_encode_budget_exceeded_exits_two(self, run, tmp_path):
        code, out = run(f"encode --m 4 --n 5 --out {tmp_path / 'big.cnf'} "
                        f"--budget 1000")
        assert code == 2
        assert "budget exceeded" in out


def _assert_rejected(capsys, argv: str) -> None:
    code = main(shlex.split(argv))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ")
    assert "must be positive" in captured.err
    assert captured.out == ""


# check flag combinations whose flag the scan would silently ignore:
# property, flags, the error message
IGNORED_FLAGS = {
    "rule-with-table": ("hwm", "--rule maximin --table {table}",
                        "argument --table: not allowed with argument --rule"),
    "tie-break-with-table": ("hwm", "--table {table} --tie-break c>b>a", "--tie-break"),
    "tie-break-with-set-rule": ("hwm-optimistic", "--rule top-cycle --tie-break c>b>a",
                                "--tie-break"),
    "tie-break-with-condorcet": ("manipulability", "--rule condorcet --domain condorcet "
                                 "--tie-break c>b>a", "--tie-break"),
    "budget-with-sample": ("hwm", "--rule borda --sample 5 --budget 100",
                           "argument --budget: not allowed with argument --sample"),
    "seed-without-sample": ("hwm", "--rule borda --seed 7", "--seed"),
}


class TestCheck:
    def test_exit_zero_on_certificate(self, run):
        code, out = run("check --property hwm --rule maximin --m 3 --n 3")
        assert code == 0
        assert "exhaustive certificate" in out

    def test_exit_one_on_witness(self, run, tmp_path):
        table_path = tmp_path / "bad_table.txt"
        plant_corrupted_table(table_path)
        code, out = run(f"check --property hwm --table {table_path} --m 3 --n 3")
        assert code == 1
        witness_line = next(l for l in out.splitlines()
                            if l.startswith("witness: "))
        record = json.loads(witness_line[len("witness: "):])
        assert record["check"] == "hwm"
        assert "profile" in record and "voter" in record

    def test_exit_two_on_budget(self, run):
        code, out = run("check --property hwm --rule borda --m 3 --n 3 "
                        "--budget 10")
        assert code == 2
        assert "budget exceeded" in out

    @pytest.mark.parametrize("flags", ["--rule borda --m 3 --n 3 --budget 5",
                                       "--rule maximin --m 3 --n 1 --budget 3"])
    def test_json_budget_exceeded_is_json(self, run, flags):
        code, out = run(f"check --property hwm {flags} --json")
        assert code == 2
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["record"] for r in records] == ["check", "rule", "domain", "mode", "result"]
        code, text = run(f"check --property hwm {flags}")
        assert code == 2
        scanned, total = map(int, re.search(r"\((\d+)/(\d+) units", text).groups())
        assert records[-1] == {"record": "result", "result": "budget-exceeded",
                               "scanned": scanned, "total": total}
        assert text.splitlines() == [text.strip()]  # the text verdict line alone

    def test_a_count_too_long_to_print_is_bounded(self, run, tmp_path):
        # (4!)^4000 x 4000 scan units and (4!)^4000 profiles have more
        # digits than int-to-text conversion allows: the verdicts print a
        # bound instead, and the JSON total stays valid JSON
        units = printable_count(num_profiles(4000, 4) * 4000)
        keys = printable_count(num_profiles(4000, 4))
        check = "check --property hwm --rule plurality --m 4 --n 4000 --budget 10"
        assert run(check) == (2, f"result: budget exceeded: scanned 10 of {units} "
                                 f"scan units without a verdict (10/{units} units, "
                                 f"0.0%)\n")
        code, out = run(check + " --json")
        assert code == 2
        assert json.loads(out.splitlines()[-1]) == {
            "record": "result", "result": "budget-exceeded", "scanned": 10,
            "total": units}
        target = tmp_path / "huge.cnf"
        assert run(f"encode --n 4000 --m 4 --out {target}") == (
            2, f"result: budget exceeded: profile mode needs {keys} keys, budget "
               f"is 1000000 (0/{keys} units, 0.0%)\n")
        assert not target.exists()

    @pytest.mark.parametrize("n", [3112, 3113])
    def test_a_count_prints_in_full_while_python_can_print_it(self, run, n):
        # 24^n x n scan units: 4,299 digits at n=3112 and 4,301 at n=3113,
        # either side of int-to-text conversion's default limit of 4,300
        units = num_profiles(n, 4) * n
        limit = sys.get_int_max_str_digits()
        check = f"check --property hwm --rule maximin --m 4 --n {n} --budget 10"
        code, out = run(check + " --json")
        assert code == 2
        total = json.loads(out.splitlines()[-1])["total"]
        if not limit or units < 10 ** limit:
            assert total == units
        else:
            k = int(re.fullmatch(r"more than 2\^(\d+)", total)[1])
            assert 2 ** k < units <= 2 ** (k + 1)
        if limit == 4300:
            assert isinstance(total, int) == (n == 3112)
        shown = units if isinstance(total, int) else total
        assert run(check) == (2, f"result: budget exceeded: scanned 10 of {shown} "
                                 f"scan units without a verdict (10/{shown} units, "
                                 f"0.0%)\n")

    def test_printable_count(self):
        assert printable_count(41472) == 41472
        for count, bound in ((10 ** 5000, "more than 2^16609"),
                             (2 ** 20000, "more than 2^19999")):
            try:
                str(count)
            except ValueError:  # past the digit limit of this Python
                assert printable_count(count) == bound
                assert count > 2 ** int(bound.rpartition("^")[2])
            else:
                assert printable_count(count) == count

    def test_margin_pass_certifies_beyond_the_quotient_budget(self, run):
        # 39.8M scan units, but only 4175 margin keys of 4 voters x 24 orders
        code, out = run("check --property hwm --rule kemeny --m 4 --n 5")
        assert code == 0
        assert out.splitlines()[-1] == "result: no violation (exhaustive certificate)"

    def test_exit_three_on_unknown_rule(self, run, capsys):
        code = main(shlex.split(
            "check --property hwm --rule approval --m 3 --n 3"))
        assert code == 3

    def test_bad_budget(self, run):
        code, _ = run("check --property hwm --rule borda --m 3 --n 3 "
                      "--budget -1")
        assert code == 3

    def test_strong_reversal_and_participation(self, run):
        code, _ = run("check --property strong-reversal --rule maximin "
                      "--m 3 --n 3")
        assert code == 0
        code, _ = run("check --property participation --rule borda --m 3 --n 3")
        assert code == 0

    def test_manipulability_domains(self, run):
        code, _ = run("check --property manipulability --rule condorcet "
                      "--m 3 --n 3 --domain condorcet")
        assert code == 0
        code, out = run("check --property manipulability --rule borda "
                        "--m 3 --n 3")
        assert code == 1

    def test_set_valued_properties(self, run):
        code, _ = run("check --property hwm-pessimistic --rule top-cycle "
                      "--m 3 --n 2")
        assert code == 0
        # resolute rules are lifted to singletons for the set checks
        code, _ = run("check --property hwm-optimistic --rule borda "
                      "--m 3 --n 2")
        assert code == 0

    def test_condorcet_domain_needs_manipulability(self, capsys):
        code = main(shlex.split("check --property hwm --rule borda --m 3 "
                                "--n 2 --domain condorcet"))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: --domain condorcet")
        assert captured.out == ""

    def test_set_rule_needs_set_property(self, run):
        code, _ = run("check --property hwm --rule top-cycle --m 3 --n 2")
        assert code == 3

    def test_table_is_lifted_for_set_properties(self, run, tmp_path):
        table_path = tmp_path / "bad_table.txt"
        plant_corrupted_table(table_path)
        resolute = run(f"check --property hwm --table {table_path} "
                       f"--m 3 --n 3")
        expected = json.loads(resolute[1].splitlines()[-1][len("witness: "):])
        for prop in ("hwm-optimistic", "hwm-pessimistic"):
            code, out = run(f"check --property {prop} --table {table_path} "
                            f"--m 3 --n 3")
            assert code == resolute[0] == 1
            record = json.loads(next(
                l for l in out.splitlines()
                if l.startswith("witness: "))[len("witness: "):])
            assert record["set_after"].strip("{}") != ""
            # the table's set-valued witness is its resolute one
            assert (record["profile"], record["voter"]) == (expected["profile"],
                                                            expected["voter"])
            assert record["set_before"] == "{" + expected["winner_before"] + "}"
            assert record["set_after"] == "{" + expected["winner_after"] + "}"

    def test_planted_table_check_matches_golden(self, run, monkeypatch):
        # Borda at (3, 3) with entry 150 changed from a to b; the output
        # names the table by the path given, so the check runs beside it
        golden = GOLDEN_DIR / "planted_borda_m3_n3.table"
        table = read_rule_table(io.StringIO(golden.read_text()))
        borda = tabulate_rule(resolute_rule("borda", 3), 3, 3)
        assert table == borda.replace_entry(150, 1)
        written = io.StringIO()
        write_rule_table(table, written)
        assert written.getvalue() == golden.read_text()
        monkeypatch.chdir(GOLDEN_DIR)
        code, out = run("check --property hwm --table planted_borda_m3_n3.table "
                        "--m 3 --n 3")
        assert code == 1
        assert out == (GOLDEN_DIR / "planted_borda_m3_n3_hwm.txt").read_text()

    @pytest.mark.parametrize("mode", ["optimistic", "pessimistic"])
    def test_planted_table_set_check_matches_golden(self, run, monkeypatch, mode):
        monkeypatch.chdir(GOLDEN_DIR)
        code, out = run(f"check --property hwm-{mode} --table "
                        f"planted_borda_m3_n3.table --m 3 --n 3")
        assert code == 1
        assert out == (GOLDEN_DIR / f"planted_borda_m3_n3_hwm_{mode}.txt").read_text()

    @pytest.mark.parametrize("rule", ["maximin", "schulze"])
    def test_sampled_check_matches_golden(self, run, rule):
        code, out = run(f"check --property hwm --rule {rule} --m 4 --n 6 "
                        "--sample 500 --seed 7 --tie-break 'c>a>d>b'")
        assert code == 0
        assert out == (GOLDEN_DIR / f"sampled_hwm_{rule}_m4_n6.txt").read_text()

    @pytest.mark.parametrize("flags,suffix", [("", "txt"), (" --json", "json")],
                             ids=["text", "json"])
    def test_sampled_witness_matches_golden(self, run, flags, suffix):
        # the least witness over the 4000 drawn blocks
        code, out = run(f"check --property hwm --rule maximin --m 4 --n 6 "
                        f"--sample 4000 --seed 5{flags}")
        assert code == 1
        golden = GOLDEN_DIR / f"sampled_hwm_maximin_m4_n6_witness.{suffix}"
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("flags,suffix", [("", "txt"), (" --json", "json")],
                             ids=["text", "json"])
    def test_participation_witness_matches_golden(self, run, flags, suffix):
        # the no-show witness's profile_without holds the run 2: d>a>b>c
        code, out = run(f"check --property participation --rule black "
                        f"--m 4 --n 4{flags}")
        assert code == 1
        golden = GOLDEN_DIR / f"participation_black_m4_n4.{suffix}"
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("flags,suffix", [("", "txt"), (" --json", "json")],
                             ids=["text", "json"])
    def test_manipulation_witness_matches_golden(self, run, flags, suffix):
        code, out = run(f"check --property manipulability --rule borda "
                        f"--m 3 --n 3{flags}")
        assert code == 1
        golden = GOLDEN_DIR / f"manipulability_borda_m3_n3.{suffix}"
        assert out.encode() == golden.read_bytes()

    def test_sample_mode_reports_seed(self, run):
        code, out = run("check --property hwm --rule borda --m 3 --n 3 "
                        "--sample 5 --seed 42")
        assert code == 0
        assert "seed=42" in out
        assert "sampled region only" in out
        code, out = run("check --property hwm --rule borda --m 3 --n 3 --sample 5")
        assert code == 0
        assert "seed=0" in out

    def _rejected(self, capsys, flags: str) -> None:
        code = main(shlex.split(f"check --property hwm --rule borda --m 3 {flags}"))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: ")
        assert "result:" not in captured.out

    def test_nonpositive_n_is_an_error(self, capsys):
        for flags in ("--n 0", "--n -2", "--n 0 --property participation"):
            self._rejected(capsys, flags)

    def test_nonpositive_sample_is_an_error(self, capsys):
        for sample in ("0", "-3"):
            self._rejected(capsys, f"--n 3 --sample {sample}")

    @pytest.mark.parametrize("flags", [
        "--property hwm --m 7 --n 3", "--property hwm --m 3 --n 65",
        "--property hwm --m 7 --n 3 --sample 2", "--property hwm --m 3 --n 65 --sample 2",
        "--property participation --m 7 --n 3",
        "--property hwm-optimistic --m 3 --n 65 --sample 2"])
    def test_dodgson_size_cap_is_an_error(self, capsys, flags):
        # no --budget lifts exact Dodgson's cap, so it is not exit 2
        code = main(shlex.split(f"check --rule dodgson {flags}"))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: exact Dodgson capped at m<=6, n<=64")
        assert captured.out == ""

    def test_dodgson_at_its_cap_still_scans(self, run):
        code, out = run("check --property hwm --rule dodgson --m 3 --n 64 --sample 2")
        assert code == 0
        assert out.splitlines()[-1] == "result: no violation (sampled region only)"

    @pytest.mark.parametrize("prop,flags,message", IGNORED_FLAGS.values(),
                             ids=IGNORED_FLAGS.keys())
    def test_ignored_flag_is_an_error(self, capsys, tmp_path, prop, flags, message):
        table = tmp_path / "t.table"
        with open(table, "w") as handle:
            write_rule_table(tabulate_rule(resolute_rule("maximin", 3), 2, 3), handle)
        try:
            code = main(shlex.split(f"check --property {prop} --m 3 --n 2 "
                                    + flags.format(table=table)))
        except SystemExit as exc:  # argparse's own checks
            code = exc.code
        captured = capsys.readouterr()
        assert code == 3
        assert message in captured.err
        assert captured.out == ""


def set_valued_cases(n: int, m: int, tmp_path: Path) -> list[tuple[str, object]]:
    """(CLI flags, rule) for every resolute registry rule, a random profile
    table and a random c2 table at (n, m); the tables are written beside."""
    rng = random.Random(f"set-valued:{n}:{m}")
    tables = {
        "profile": RuleTable(n, m, "profile", tuple(
            rng.randrange(m) for _ in range(num_profiles(n, m)))),
        "c2": RuleTable(n, m, "c2", {key: rng.randrange(m) for key in
                                     sorted(keyspace.margin_levels(n, m)[1])}),
    }
    cases = [(f"--rule {name}", resolute_rule(name, m)) for name in RESOLUTE_RULES]
    for kind, table in tables.items():
        path = tmp_path / f"{kind}.table"
        with open(path, "w") as handle:
            write_rule_table(table, handle)
        cases.append((f"--table {path}", table))
    return cases


def lifted_verdict(rule, n: int, m: int, mode: str, **scan):
    """The set-valued scan of ``rule`` lifted to singletons: its witness
    (or None), and the exit code, records after the header and stderr
    that ``check --json`` prints for that result."""
    try:
        witness = getattr(monotonicity, f"check_hwm_{mode}")(_Singleton(rule), n, m,
                                                               **scan)
    except BudgetExceeded as exc:
        return None, (2, [{"record": "result", "result": "budget-exceeded",
                           "scanned": exc.scanned, "total": exc.total}], "")
    except PrefRevError as exc:
        return None, (3, [], f"error: {exc}\n")
    if witness is None:
        return None, (0, [{"record": "result", "result": "none",
                           "exhaustive": scan.get("sample") is None}], "")
    record = witness.describe(Alternatives(default_labels(m)))
    return witness, (1, [{"record": "result", "result": "violation"},
                         {"record": "witness", **record, "check": f"hwm-{mode}"}], "")


class TestSetValuedResolute:
    """hwm-optimistic and hwm-pessimistic of a resolute rule or table run its
    half-way monotonicity scan; checked against the set-valued scan of the
    rule lifted to singletons, exhaustive, cut by a budget and sampled."""

    @pytest.mark.parametrize("mode", ["optimistic", "pessimistic"])
    @pytest.mark.parametrize("n,m", [(3, 3), (2, 4)])
    def test_matches_the_lifted_scan(self, capsys, tmp_path, n, m, mode):
        cut = 0
        for flags, rule in set_valued_cases(n, m, tmp_path):
            witness, _ = lifted_verdict(rule, n, m, mode)
            # a witness's unit: a budget of that many stops just before it
            budget = (num_profiles(n, m) * n // 2 if witness is None else
                      profile_to_index(witness.profile) * n + witness.voter)
            cut += witness is not None and budget > 0
            runs = [{}, {"sample": 4, "seed": 5}]
            if budget:  # a witness at unit 0 leaves no budget before it
                runs.append({"budget": budget})
            for scan in runs:
                extra = "".join(f" --{name} {value}" for name, value in scan.items())
                code = main(shlex.split(f"check --property hwm-{mode} {flags} "
                                        f"--m {m} --n {n} --json{extra}"))
                captured = capsys.readouterr()
                records = [json.loads(line) for line in captured.out.splitlines()]
                assert ((code, records[4:], captured.err)
                        == lifted_verdict(rule, n, m, mode, **scan)[1]), (flags, extra)
        assert cut  # some budget run stopped before a witness


class TestUsageErrors:
    @pytest.mark.parametrize("flags", ["--m 3 --workers 2", "--m 3 --bogus", "--m x"])
    def test_malformed_command_line_exits_three(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(shlex.split(f"check --property hwm --rule maximin --n 3 {flags}"))
        captured = capsys.readouterr()
        assert exc.value.code == 3
        assert captured.err.startswith("usage: prefrev")
        assert "error: " in captured.err
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: prefrev")

    @pytest.mark.parametrize("argv,value", [
        ("check --property hwm --rule maximin --m 3 --n 3 --budget 0", "0"),
        ("encode --n 2 --m 3 --out {tmp}/x.cnf --budget -1", "-1"),
    ], ids=["check", "encode"])
    def test_nonpositive_budget_names_the_flag(self, capsys, tmp_path, argv, value):
        code = main(shlex.split(argv.format(tmp=tmp_path)))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            3, "", f"error: --budget must be positive, got {value}\n")


    @pytest.mark.parametrize("argv,message", [
        ("check --property hwm --rule maximin --m 3 --n 2 --tie-break a>b>q",
         "--tie-break: unknown alternative label: 'q'"),
        (f"analyze {REPO_ROOT / 'data' / 'perez41.txt'} --tie-break x>y>z>u>q",
         "--tie-break: unknown alternative label: 'q'"),
        ("check --property hwm --rule maximin --m 3 --n 2 --tie-break a>b",
         "--tie-break: order does not rank alternative: 'c'"),
        ("pad {profile} --order a>q --out {tmp}/out.txt",
         "--order: unknown alternative label: 'q'"),
    ], ids=["check-tie-break", "analyze-tie-break", "tie-break-short", "pad-order"])
    def test_bad_order_flag_names_the_flag(self, capsys, tmp_path, argv, message):
        profile = tmp_path / "p.txt"
        profile.write_text("m=3 labels=a,b,c\n1: a>b>c\n")
        code = main(shlex.split(argv.format(profile=profile, tmp=tmp_path)))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


class TestReadmeExamples:
    def test_check_examples_exit_as_documented(self, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        examples = [line for line in readme.splitlines()
                    if line.startswith("prefrev check") and "--table" not in line]
        assert len(examples) >= 5
        for line in examples:
            command, _, comment = line.partition("#")
            documented = re.match(r"\s*exit (\d)", comment)
            assert documented, f"README example without its exit code: {line}"
            try:
                code = main(shlex.split(command)[1:])
            except SystemExit as exc:
                code = exc.code
            capsys.readouterr()
            assert code == int(documented.group(1)), line


class TestVerifyProofs:
    @pytest.mark.parametrize("which", ["odd", "even", "perez",
                                       "irresolute-opt", "irresolute-pess"])
    def test_all_pass(self, run, which):
        code, out = run(f"verify-proofs {which}")
        assert code == 0
        assert "result: PASS" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("m", [5, 6])
    def test_odd_padded_alternatives(self, run, m):
        code, out = run(f"verify-proofs odd --m {m}")
        assert code == 0

    def test_json_lines(self, run):
        code, out = run("verify-proofs odd --json")
        records = [json.loads(line) for line in out.splitlines()]
        assert all(r["ok"] for r in records)

    def test_m_too_small(self, run):
        code, _ = run("verify-proofs even --m 3")
        assert code == 3


class TestEncodeDecodePipeline:
    def test_full_round_trip(self, run, tmp_path, solver_cmd):
        cnf = tmp_path / "full.cnf"
        model = tmp_path / "full.model"
        table = tmp_path / "table.txt"
        solver = " ".join(shlex.quote(part) for part in solver_cmd)
        code, out = run(f"encode --m 3 --n 3 --out {cnf} "
                        f"--solve --solver '{solver}' --model-out {model}")
        assert code == 0
        assert "variables: 648" in out
        assert "solver: SAT" in out
        assert (tmp_path / "full.cnf.map").exists()

        code, out = run(f"decode --model {model} --n 3 --m 3 --out {table}")
        assert code == 0
        assert "entries: 216" in out

        code, out = run(f"verify-table {table}")
        assert code == 0
        assert "result: PASS" in out

    def test_proof_encode_reports_unsat(self, run, tmp_path, solver_cmd):
        solver = " ".join(shlex.quote(part) for part in solver_cmd)
        for which in ("odd", "even"):
            cnf = tmp_path / f"{which}.cnf"
            code, out = run(f"encode --proof {which} --m 4 --out {cnf} "
                            f"--solve --solver '{solver}'")
            assert code == 0
            assert "solver: UNSAT" in out

    @pytest.mark.parametrize("which,m,variables,counts", [
        ("odd", 4, 32, "102 (functionality=56 condorcet=4 hwm=42)"),
        ("even", 6, 54, "268 (functionality=144 condorcet=4 hwm=120)"),
    ])
    def test_proof_encode_matches_golden(self, run, tmp_path, which, m, variables,
                                         counts):
        cnf, varmap = tmp_path / "proof.cnf", tmp_path / "proof.map"
        code, out = run(f"encode --proof {which} --m {m} --out {cnf} --map {varmap}")
        assert code == 0
        assert out == (f"cnf: {cnf}\nmap: {varmap}\nvariables: {variables}\n"
                       f"clauses: {counts}\n")
        golden = GOLDEN_DIR / f"encode_proof_{which}_m{m}"
        assert cnf.read_bytes() == golden.with_suffix(".cnf").read_bytes()
        assert varmap.read_bytes() == golden.with_suffix(".map").read_bytes()

    @pytest.mark.parametrize("flags,golden,variables,counts,map_text", [
        ("--mode c2 --n 3 --m 3", "encode_c2_m3_n3", 132,
         "560 (functionality=176 condorcet=42 hwm=342)",
         (GOLDEN_DIR / "encode_c2_m3_n3.map").read_text()),
        ("--mode profile --n 1 --m 2", "encode_m2_n1", 4,
         "8 (functionality=4 condorcet=2 hwm=2)", "1 0 a\n2 0 b\n3 1 a\n4 1 b\n"),
    ], ids=["c2", "profile"])
    def test_full_encode_matches_golden(self, run, tmp_path, flags, golden, variables,
                                        counts, map_text):
        cnf, varmap = tmp_path / "full.cnf", tmp_path / "full.map"
        code, out = run(f"encode {flags} --out {cnf} --map {varmap}")
        assert code == 0
        assert out == (f"cnf: {cnf}\nmap: {varmap}\nvariables: {variables}\n"
                       f"clauses: {counts}\n")
        assert cnf.read_bytes() == (GOLDEN_DIR / f"{golden}.cnf").read_bytes()
        assert varmap.read_text() == map_text

    def test_proof_rejects_full_formula_flags(self, capsys, tmp_path):
        cnf = tmp_path / "odd.cnf"
        for flags in ("--n 2", "--budget 5", "--mode c2"):
            code = main(shlex.split(f"encode --proof odd {flags} --out {cnf}"))
            captured = capsys.readouterr()
            assert code == 3
            assert captured.err.startswith("error: --proof")
            assert captured.out == ""
        assert not cnf.exists()

    @pytest.mark.parametrize("flags", ["--n 2 --solver true", "--n 2 --model-out m.model",
                                       "--proof odd --model-out m.model"])
    def test_solver_flags_need_solve(self, capsys, tmp_path, flags):
        cnf = tmp_path / "x.cnf"
        code = main(shlex.split(f"encode --m 4 --out {cnf} {flags}"))
        captured = capsys.readouterr()
        assert code == 3
        assert "apply only with --solve" in captured.err
        assert captured.out == ""
        assert not cnf.exists()

    def test_solver_without_verdict_is_an_error(self, capsys, tmp_path):
        solver = f"{shlex.quote(sys.executable)} -c 'import sys; sys.exit(1)'"
        code = main(["encode", "--proof", "odd", "--out", str(tmp_path / "x.cnf"),
                     "--solve", "--solver", solver])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: ")
        assert "exit code 1" in captured.err
        assert "solver:" not in captured.out

    def test_solver_from_environment(self, run, tmp_path, solver_cmd,
                                     monkeypatch):
        monkeypatch.setenv("PREFREV_SOLVER",
                           " ".join(shlex.quote(p) for p in solver_cmd))
        cnf = tmp_path / "env.cnf"
        code, out = run(f"encode --proof odd --out {cnf} --solve")
        assert code == 0
        assert "solver: UNSAT" in out

    def test_missing_solver_is_an_error(self, run, tmp_path, monkeypatch,
                                        capsys):
        # checked before encoding: nothing is printed or written
        monkeypatch.delenv("PREFREV_SOLVER", raising=False)
        monkeypatch.chdir(tmp_path)
        code = main(["encode", "--proof", "odd", "--out", "x.cnf", "--solve"])
        captured = capsys.readouterr()
        assert code == 3
        assert "no solver configured" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        ("--out a.cnf --map a.cnf", "--out and --map name the same file: a.cnf"),
        ("--out a.cnf --map ./sub/../a.cnf", "--out and --map"),
        ("--out a.cnf --solve --solver false --model-out a.cnf", "--out and --model-out"),
        ("--out a.cnf --map b.map --solve --solver false --model-out b.map",
         "--map and --model-out"),
        ("--out a.cnf --solve --solver false --model-out a.cnf.map",
         "--map and --model-out"),
    ], ids=["out-map", "out-map-normalised", "out-model", "map-model",
            "default-map-model"])
    def test_shared_output_path_is_an_error(self, tmp_path, monkeypatch, capsys,
                                            flags, message):
        # checked before encoding or solving: nothing is printed or written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code = main(["encode", "--n", "2", "--m", "3", *shlex.split(flags)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["sub"]

    def test_an_existing_file_under_two_names_is_an_error(self, tmp_path, capsys):
        (tmp_path / "a.cnf").write_text("kept\n")
        (tmp_path / "link.map").symlink_to(tmp_path / "a.cnf")
        code = main(["encode", "--n", "2", "--m", "3", "--out", str(tmp_path / "a.cnf"),
                     "--map", str(tmp_path / "link.map")])
        assert code == 3
        assert "--out and --map name the same file" in capsys.readouterr().err
        assert (tmp_path / "a.cnf").read_text() == "kept\n"

    def test_decode_unsat_output_hints(self, run, tmp_path, capsys):
        model = tmp_path / "unsat.model"
        model.write_text("s UNSATISFIABLE\n")
        code = main(["decode", "--model", str(model), "--n", "3", "--m", "3",
                     "--out", str(tmp_path / "t.txt")])
        err = capsys.readouterr().err
        assert code == 3
        assert "unsatisfiable" in err

    def test_encode_c2_seven_alternatives(self, run, tmp_path):
        # 5040 orders, one key each: deeper than any per-order recursion
        cnf = tmp_path / "m7.cnf"
        code, out = run(f"encode --mode c2 --m 7 --n 1 --out {cnf}")
        assert code == 0
        assert "variables: 35280" in out
        with open(f"{cnf}.map") as handle:
            keys = {line.split()[1] for line in handle}
        assert len(keys) == 5040


    def test_encode_nonpositive_is_an_error(self, capsys, tmp_path):
        out = tmp_path / "x.cnf"
        for flags in ("--n 3 --budget 0", "--n 3 --mode c2 --budget -5",
                      "--n 0", "--n -2 --mode c2", "--n 2 --m -1"):
            _assert_rejected(capsys, f"encode {flags} --out {out}")
        assert not out.exists()

    def test_decode_nonpositive_is_an_error(self, capsys, tmp_path):
        model = tmp_path / "m.model"
        model.write_text("v 1 0\n")
        for flags in ("--n 0 --m 3", "--n -2 --m 3 --mode c2", "--n 3 --m 0"):
            _assert_rejected(capsys, f"decode --model {model} {flags} "
                                     f"--out {tmp_path / 't.txt'}")

    def test_c2_decode_round_trip(self, run, tmp_path, solver_cmd):
        solver = " ".join(shlex.quote(part) for part in solver_cmd)
        cnf = tmp_path / "c2.cnf"
        model = tmp_path / "c2.model"
        table = tmp_path / "c2_table.txt"
        code, _ = run(f"encode --m 3 --n 3 --mode c2 --out {cnf} "
                      f"--solve --solver '{solver}' --model-out {model}")
        assert code == 0
        code, _ = run(f"decode --model {model} --n 3 --m 3 --mode c2 "
                      f"--out {table}")
        assert code == 0
        with open(table) as handle:
            decoded = read_rule_table(handle)
        assert decoded.mode == "c2"
        assert len(decoded.chosen) == 44

    def test_c2_decode_matches_golden_table(self, run, tmp_path, solver_cmd):
        model = tmp_path / "c2.model"
        table = tmp_path / "c2.table"
        solved = subprocess.run(
            solver_cmd + [str(GOLDEN_DIR / "encode_c2_m3_n3.cnf")],
            capture_output=True, text=True)
        assert solved.returncode == 10
        model.write_text(solved.stdout)
        code, _ = run(f"decode --model {model} --n 3 --m 3 --mode c2 "
                      f"--out {table}")
        assert code == 0
        golden = (GOLDEN_DIR / "decode_c2_m3_n3.table").read_text()
        assert table.read_text() == golden
        with open(table) as handle:
            again = io.StringIO()
            write_rule_table(read_rule_table(handle), again)
        assert again.getvalue() == golden


    def test_verify_table_stopped_by_the_budget(self, run, monkeypatch):
        monkeypatch.setattr(monotonicity, "DEFAULT_BUDGET", 5)
        code, out = run(f"verify-table {GOLDEN_DIR / 'decode_c2_m3_n3.table'}")
        assert code == 1
        assert out == (
            "== rule table verification (n=3, m=3) ==\n"
            "[ok] Condorcet-consistency over all 216 profiles\n"
            "[FAIL] reversal scan stopped early: scanned 5 of 648 scan units "
            "without a verdict\n"
            "result: FAIL\n\n")


class TestPad:
    def test_pad_appends_opposed_pairs(self, run, tmp_path, perez_profile_path):
        out_path = tmp_path / "padded.txt"
        code, out = run(f"pad {perez_profile_path} --order x>y>z>u>t "
                        f"--times 2 --out {out_path}")
        assert code == 0
        assert "n: 45" in out
        original, alternatives = read_profile(str(perez_profile_path))
        padded, _ = read_profile(str(out_path))
        assert margin_matrix(padded).rows == margin_matrix(original).rows

    def test_nonpositive_times_is_an_error(self, capsys, tmp_path,
                                           perez_profile_path):
        out_path = tmp_path / "padded.txt"
        for times in ("0", "-1"):
            _assert_rejected(capsys, f"pad {perez_profile_path} "
                                     f"--order x>y>z>u>t --times {times} "
                                     f"--out {out_path}")
        assert not out_path.exists()


BAD_INPUTS = {  # argv (with {tmp}), files to write first, expected message
    "analyze-missing": ("analyze {tmp}/none.txt", {}, "No such file"),
    "verify-table-missing": ("verify-table {tmp}/none.table", {}, "No such file"),
    "decode-model-missing": ("decode --model {tmp}/none.model --n 2 --m 3 "
                             "--out {tmp}/t.table", {}, "No such file"),
    "pad-missing": ("pad {tmp}/none.txt --order a>b>c --out {tmp}/p.txt", {},
                    "No such file"),
    "check-table-missing": ("check --property hwm --table {tmp}/none.table "
                            "--m 3 --n 2", {}, "No such file"),
    "encode-out-no-dir": ("encode --n 2 --m 3 --out {tmp}/no/dir/x.cnf", {},
                          "No such file"),
    "table-header-n": ("verify-table {tmp}/t.table",
                       {"t.table": "n=x m=3 mode=profile\n"}, "rule-table header"),
    "table-line-no-comma": ("verify-table {tmp}/t.table",
                            {"t.table": "n=1 m=3 mode=profile\n0 a\n"},
                            "rule-table line 2"),
    "table-index-q": ("verify-table {tmp}/t.table",
                      {"t.table": "n=1 m=3 mode=profile\nq,a\n"},
                      "rule-table line 2"),
    "table-huge-domain": ("verify-table {tmp}/t.table",
                          {"t.table": "n=4 m=9 mode=profile\n0,a\n"},
                          "no entry for profile index 1"),
    "table-index-out-of-range": ("verify-table {tmp}/t.table",
                                 {"t.table": "n=1 m=2 mode=profile\n0,a\n5,b\n"},
                                 "profile index 5 out of range"),
    "table-repeated-key": ("check --property hwm --table {tmp}/t.table --m 2 --n 1",
                           {"t.table": "n=1 m=2 mode=profile\n0,a\n1,b\n00,b\n"},
                           "rule-table line 4: key 00 repeats the key of line 2"),
    "table-c2-garbage-verify": ("verify-table {tmp}/t.table",
                                {"t.table": "n=1 m=2 mode=c2\n0_1_-1_0,a\n"
                                            "0_-1_1_0,b\ngarbage,a\n"},
                                "rule-table line 4: not a margin key"),
    "table-c2-garbage-check": ("check --property hwm --table {tmp}/t.table --m 2 --n 1",
                               {"t.table": "n=1 m=2 mode=c2\n0_1_-1_0,a\n"
                                           "0_-1_1_0,b\n0_+1_-1_0,a\n"},
                               "rule-table line 4: not a margin key"),
    "table-unknown-label": ("verify-table {tmp}/t.table",
                            {"t.table": "n=1 m=2 mode=profile\n0,a\n1,c\n"},
                            "rule-table line 3: unknown alternative label: 'c'"),
    "table-mode-unknown":("verify-table {tmp}/t.table",
                           {"t.table": "n=1 m=3 mode=weird\n"}, "unknown table mode"),
    "profile-header-m": ("analyze {tmp}/p.txt",
                         {"p.txt": "m=q labels=a,b,c\n1: a>b>c\n"}, "bad m"),
    "profile-labels-m": ("analyze {tmp}/p.txt",
                         {"p.txt": "m=3 labels=a,b\n1: a>b\n"},
                         "p.txt:1: m=3 but 2 labels given"),
    "profile-bad-count": ("analyze {tmp}/p.txt",
                          {"p.txt": "m=2 labels=a,b\n1: a>b\nx: b>a\n"},
                          "p.txt:3: bad count 'x'"),
    "profile-count-zero": ("analyze {tmp}/p.txt",
                           {"p.txt": "m=2 labels=a,b\n1: a>b\n0: b>a\n"},
                           "p.txt:3: count must be positive"),
    "profile-comments-only": ("analyze {tmp}/p.txt",
                              {"p.txt": "# no header\n\n# and no votes\n"},
                              "p.txt: missing 'm=... labels=...' header"),
    "profile-no-voters": ("analyze {tmp}/p.txt",
                          {"p.txt": "m=2 labels=a,b\n# no votes\n"},
                          "p.txt: profile has no voters"),
    "check-table-other-size": ("check --property hwm --table {tmp}/t.table --m 2 --n 2",
                               {"t.table": "n=1 m=2 mode=profile\n0,a\n1,b\n"},
                               "table is for n=1 m=2, flags say n=2 m=2"),
    "encode-no-n": ("encode --m 3 --out {tmp}/x.cnf", {},
                    "--n is required unless --proof is given"),
}


class TestBadInputFiles:
    @pytest.mark.parametrize("argv,files,message", BAD_INPUTS.values(),
                             ids=BAD_INPUTS.keys())
    def test_exits_three_with_an_error_line(self, capsys, tmp_path, argv,
                                            files, message):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code = main(shlex.split(argv.format(tmp=tmp_path)))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("has_winner", [True, False], ids=["winner", "no-winner"])
    @pytest.mark.parametrize("command", ["verify-table {table}",
                                         "check --property hwm --table {table} --m 3 --n 3"])
    def test_c2_table_with_a_key_removed(self, capsys, tmp_path, command, has_winner):
        # the Condorcet re-check meets a removed key with a Condorcet
        # winner, the reversal scan one without
        with open(GOLDEN_DIR / "decode_c2_m3_n3.table", encoding="utf-8") as handle:
            table = read_rule_table(handle)
        removed = next(key for key in table.chosen
                       if (tally.key_condorcet_winner(key, 3) is not None) == has_winner)
        chosen = dict(table.chosen)
        del chosen[removed]
        path = tmp_path / "c2.table"
        with open(path, "w") as handle:
            write_rule_table(RuleTable(3, 3, "c2", chosen), handle)
        code = main(shlex.split(command.format(table=path)))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            3, "", f"error: no entry for margin key {keyspace.key_text(removed, 3)}\n")

    @pytest.mark.parametrize("m, entries, stray", [
        (2, ["0_1_-1_0,a", "0_-1_1_0,b", "0_3_-3_0,a"], "0_3_-3_0"),
        # level 1 of m=3, each key with its Condorcet winner, and a cyclic
        # key whose parity and bounds are fine
        (3, ["0_1_1_-1_0_1_-1_-1_0,a", "0_1_1_-1_0_-1_-1_1_0,a",
             "0_-1_1_1_0_1_-1_-1_0,b", "0_-1_-1_1_0_1_1_-1_0,b",
             "0_1_-1_-1_0_-1_1_1_0,c", "0_-1_-1_1_0_-1_1_1_0,c",
             "0_1_-1_-1_0_1_1_-1_0,a"], "0_1_-1_-1_0_1_1_-1_0"),
    ], ids=["m2-out-of-bounds", "m3-cyclic"])
    def test_c2_table_with_an_unrealizable_key(self, capsys, tmp_path, m, entries,
                                               stray):
        # every realizable key holds its Condorcet winner, so only the level
        # test rejects the table
        path = tmp_path / "c2.table"
        path.write_text(f"n=1 m={m} mode=c2\n" + "".join(f"{e}\n" for e in entries))
        code = main(["verify-table", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            3, "", f"error: c2 table entry for margin key {stray}, which no "
                   f"1-voter profile has\n")

    @pytest.mark.parametrize("body,message", [
        ("m=3 labels=a,b,c\n2: a>b>q\n", "2: unknown alternative label: 'q'"),
        ("m=3 labels=a,b,c\n2: a>b>b\n", "2: duplicate alternative label: 'b'"),
        ("m=3 labels=a,b,c\n2: a>b\n", "2: order does not rank alternative: 'c'"),
        ("m=3 labels=a,a,b\n2: a>b\n", "1: duplicate alternative label: 'a'"),
    ], ids=["unknown-label", "repeated-label", "missing-alternative",
            "header-repeated-label"])
    def test_profile_error_names_file_and_line_once(self, capsys, tmp_path, body,
                                                    message):
        path = tmp_path / "p.txt"
        path.write_text(body)
        code = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", f"error: {path}:{message}\n")

    def test_oversized_table_header_fails_fast(self, capsys, tmp_path):
        # (8!)^3000000 has about 46 million bits: the missing entry is
        # reported without computing it
        table = tmp_path / "big.table"
        table.write_text("n=3000000 m=8 mode=profile\n0,a\n")
        start = time.perf_counter()
        code = main(["check", "--property", "hwm", "--table", str(table),
                     "--m", "8", "--n", "3000000"])
        elapsed = time.perf_counter() - start
        assert (code, capsys.readouterr().err) == (
            3, "error: no entry for profile index 1\n")
        assert elapsed < 1.0


DPLL = f"{sys.executable} {REPO_ROOT / 'tools' / 'dpll_solve.py'}"
PEREZ = str(REPO_ROOT / "data" / "perez41.txt")

# (id, argv, exit code, modules the run must not load, modules it must load);
# run in this order in one directory, so decode reads the c2 encode's model
# and verify-table the decoded table
COMMAND_RUNS = (
    ("analyze", f"analyze {PEREZ}", 0, (), ("prefrev.rules",)),
    ("check-certificate", "check --property hwm --rule borda --m 3 --n 3", 0,
     ("prefrev.satgen", "prefrev.proofcheck", "prefrev.report", "json"),
     ("prefrev.monotonicity",)),
    ("check-certificate-set", "check --property hwm-pessimistic --rule top-cycle "
     "--m 3 --n 3", 0,
     ("prefrev.satgen", "prefrev.proofcheck", "prefrev.report", "json"),
     ("prefrev.monotonicity",)),
    ("check-witness", "check --property manipulability --rule borda --m 3 --n 3",
     1, ("prefrev.satgen", "prefrev.proofcheck"), ("json",)),
    ("check-json", "check --property hwm --rule maximin --m 3 --n 3 --json", 0,
     ("prefrev.satgen", "prefrev.proofcheck"), ("json",)),
    ("verify-proofs-odd", "verify-proofs odd --m 4", 0,
     ("prefrev.monotonicity", "prefrev.satgen", "prefrev.rules"),
     ("prefrev.proofcheck",)),
    ("verify-proofs-perez", "verify-proofs perez --json", 0,
     ("prefrev.monotonicity", "prefrev.satgen", "prefrev.rules"),
     ("prefrev.proofcheck", "json")),
    ("encode-profile", "encode --mode profile --n 2 --m 3 --out profile.cnf", 0,
     ("prefrev.proofcheck", "prefrev.rules"), ("prefrev.satgen",)),
    ("encode-c2", f"encode --mode c2 --n 3 --m 3 --out c2.cnf --solve "
     f"--solver '{DPLL}' --model-out c2.model", 0,
     ("prefrev.proofcheck", "prefrev.rules"), ("prefrev.satgen", "subprocess")),
    ("encode-proof", "encode --proof odd --m 4 --out proof.cnf", 0,
     ("prefrev.rules",), ("prefrev.proofcheck",)),
    ("decode", "decode --model c2.model --n 3 --m 3 --mode c2 --out c2.table", 0,
     ("prefrev.proofcheck",), ("prefrev.satgen",)),
    ("verify-table", "verify-table c2.table", 0,
     ("prefrev.proofcheck",), ("prefrev.monotonicity",)),
    ("pad", f"pad {PEREZ} --order x>y>z>u>t --out padded.txt", 0,
     ("prefrev.rules",), ()),
)


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH, so
    that a child interpreter imports the package under test, installed or
    not."""
    path = [str(REPO_ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def imported_modules(argv: list[str], cwd) -> tuple[int, set[str]]:
    """Exit code and every module whose import ``-X importtime`` reports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=cwd,
                          env=src_env(), capture_output=True, text=True)
    return proc.returncode, {line.rsplit("|", 1)[1].strip()
                             for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


@pytest.fixture(scope="module")
def command_modules(tmp_path_factory):
    """Per run of COMMAND_RUNS, its exit code and the modules it loaded
    beyond those a bare ``python -c pass`` loads."""
    workdir = tmp_path_factory.mktemp("startup")
    _, bare = imported_modules(["-c", "pass"], workdir)
    loaded = {}
    for name, command, *_ in COMMAND_RUNS:
        code, modules = imported_modules(["-m", "prefrev.cli", *shlex.split(command)],
                                         workdir)
        loaded[name] = code, modules - bare
    return loaded


class TestEntryPoint:
    @pytest.mark.parametrize("name, command, code, absent, present", COMMAND_RUNS,
                             ids=[run[0] for run in COMMAND_RUNS])
    def test_each_command_loads_only_what_it_runs(self, command_modules, name,
                                                  command, code, absent, present):
        got, modules = command_modules[name]
        assert got == code, command
        assert "dataclasses" not in modules
        assert not modules & set(absent), sorted(modules & set(absent))
        assert set(present) <= modules, sorted(set(present) - modules)

    def test_installed_script_runs(self, perez_profile_path):
        proc = subprocess.run(
            [sys.executable, "-m", "prefrev.cli", "analyze",
             str(perez_profile_path)],
            env=src_env(), capture_output=True, text=True)
        assert proc.returncode == 0
        assert "maximin: t" in proc.stdout
