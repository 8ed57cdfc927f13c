import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from prefrev import keyspace
from prefrev.cli import _Singleton, main
from prefrev.monotonicity import check_halfway_monotonicity
from prefrev.prefs import read_profile
from prefrev.rules import read_rule_table, resolute_rule, tabulate_rule, write_rule_table
from prefrev.tally import margin_matrix

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
            # the lifted table's witness is the resolute one
            assert (record["profile"], record["voter"]) == (expected["profile"],
                                                            expected["voter"])
            assert record["set_before"] == "{" + expected["winner_before"] + "}"
            assert record["set_after"] == "{" + expected["winner_after"] + "}"

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

    def test_singleton_lift_keeps_the_declaration(self):
        lifted = _Singleton(resolute_rule("maximin", 3))
        assert lifted.depends_on == "margins"
        # the margin-key entry point is lifted too
        key = keyspace.digits_key(3, (0, 5, 2))
        winner = resolute_rule("maximin", 3).on_key(key, 3, 3)
        assert lifted.on_key(key, 3, 3) == frozenset((winner,))
        assert _Singleton(resolute_rule("plurality", 3)).depends_on == "multiset"
        assert not hasattr(_Singleton(resolute_rule("plurality", 3)), "on_key")
        table = tabulate_rule(resolute_rule("borda", 3), 2, 3)
        assert _Singleton(table).depends_on == "order"
        # a profile table's entries are lifted once, so scans read them by index
        assert _Singleton(table).chosen == tuple(frozenset((w,)) for w in table.chosen)

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

    def test_proof_rejects_full_formula_flags(self, capsys, tmp_path):
        cnf = tmp_path / "odd.cnf"
        for flags in ("--n 2", "--budget 5", "--mode c2"):
            code = main(shlex.split(f"encode --proof odd {flags} --out {cnf}"))
            captured = capsys.readouterr()
            assert code == 3
            assert captured.err.startswith("error: --proof")
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
        monkeypatch.delenv("PREFREV_SOLVER", raising=False)
        code = main(["encode", "--proof", "odd", "--out",
                     str(tmp_path / "x.cnf"), "--solve"])
        assert code == 3

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


REPO_ROOT = Path(__file__).resolve().parent.parent
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
     ("prefrev.monotonicity", "prefrev.satgen"), ("prefrev.proofcheck",)),
    ("verify-proofs-perez", "verify-proofs perez --json", 0,
     ("prefrev.monotonicity", "prefrev.satgen"), ("prefrev.proofcheck", "json")),
    ("encode-profile", "encode --mode profile --n 2 --m 3 --out profile.cnf", 0,
     ("prefrev.proofcheck",), ("prefrev.satgen",)),
    ("encode-c2", f"encode --mode c2 --n 3 --m 3 --out c2.cnf --solve "
     f"--solver '{DPLL}' --model-out c2.model", 0,
     ("prefrev.proofcheck",), ("prefrev.satgen", "subprocess")),
    ("encode-proof", "encode --proof odd --m 4 --out proof.cnf", 0, (),
     ("prefrev.proofcheck",)),
    ("decode", "decode --model c2.model --n 3 --m 3 --mode c2 --out c2.table", 0,
     ("prefrev.proofcheck",), ("prefrev.satgen",)),
    ("verify-table", "verify-table c2.table", 0,
     ("prefrev.proofcheck",), ("prefrev.monotonicity",)),
    ("pad", f"pad {PEREZ} --order x>y>z>u>t --out padded.txt", 0, (), ()),
)


def imported_modules(argv: list[str], cwd) -> tuple[int, set[str]]:
    """Exit code and every module whose import ``-X importtime`` reports."""
    path = [str(REPO_ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True)
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
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "maximin: t" in proc.stdout
