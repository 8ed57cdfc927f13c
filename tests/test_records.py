"""The package's records: value equality, frozen fields, copies with
changes, and the validation their constructors run."""

import copy
import pickle

import pytest

from prefrev import errors
from prefrev.monotonicity import (
    ManipulationWitness,
    ParticipationWitness,
    ReversalWitness,
    SetReversalWitness,
    _Scan,
)
from prefrev.prefs import Alternatives, LinearOrder, Profile
from prefrev.proofcheck import Leaf, ProofTree, ReversalEdge
from prefrev.report import CheckLine, Report
from prefrev.rules import RuleTable, ScoreVector, TieBreak, borda_vector
from prefrev.satgen import CnfFormula, EncodeResult, SolverRun, VariableMap
from prefrev.tally import MarginMatrix


def order(*ranking):
    return LinearOrder(tuple(ranking))


def profile(*rankings):
    return Profile(tuple(LinearOrder(r) for r in rankings))


def edge():
    return ReversalEdge("P0", "P1", ((1, order(3, 2, 1, 0)),), frozenset({0, 1}))


def leaf():
    return Leaf("P1", 2, frozenset({0, 1}))


def tree():
    profiles = {"P0": profile((0, 1, 2, 3)), "P1": profile((3, 2, 1, 0))}
    return ProofTree(4, 1, "P0", profiles, (edge(),), (leaf(),))


def formula():
    return CnfFormula(2, ((1, -2), (2,)))


def varmap():
    return VariableMap(n=2, m=3, mode="profile")


def rule(profile):
    return 0


# (id, a function building the record afresh, hashable, a change of field)
RECORDS = (
    ("Alternatives", lambda: Alternatives(("a", "b", "c")), True,
     {"labels": ("a", "c", "b")}),
    ("LinearOrder", lambda: order(2, 0, 1), True, {"ranking": (0, 1, 2)}),
    ("Profile", lambda: profile((0, 1, 2), (2, 1, 0)), True,
     {"votes": (order(0, 1, 2),)}),
    ("MarginMatrix", lambda: MarginMatrix(m=2, n=1, rows=((0, 1), (-1, 0))), True,
     {"n": 3}),
    ("ScoreVector", lambda: borda_vector(3), True, {"s": (1, 0, 0)}),
    ("TieBreak", lambda: TieBreak.lexicographic(3), True,
     {"priority": order(1, 0, 2)}),
    ("RuleTable-profile", lambda: RuleTable(1, 2, "profile", (0, 1)), True,
     {"chosen": (1, 1)}),
    ("RuleTable-c2", lambda: RuleTable(1, 2, "c2", {5: 0}), False,
     {"chosen": {5: 1}}),
    ("ReversalWitness", lambda: ReversalWitness(profile((0, 1, 2)), 0, 1, 0), True,
     {"voter": 1}),
    ("SetReversalWitness",
     lambda: SetReversalWitness(profile((0, 1, 2)), 0, frozenset({1}),
                                frozenset({0}), "optimistic"), True,
     {"mode": "pessimistic"}),
    ("ParticipationWitness",
     lambda: ParticipationWitness(profile((0, 1, 2)), order(1, 0, 2), 0, 1,
                                  position=1), True,
     {"position": 0}),
    ("ManipulationWitness",
     lambda: ManipulationWitness(profile((0, 1, 2)), 0, order(1, 0, 2), 1, 0), True,
     {"winner_misreport": 2}),
    ("_Scan", lambda: _Scan(rule, 3, 3, "reverse", "weak"), True,
     {"condorcet_only": True}),
    ("CheckLine", lambda: CheckLine(True, "holds"), True, {"ok": False}),
    ("ReversalEdge", edge, True, {"carried": frozenset({0})}),
    ("Leaf", leaf, True, {"condorcet": 3}),
    ("ProofTree", tree, False, {"n": 3}),
    ("CnfFormula", formula, True, {"clauses": ((1,),)}),
    ("VariableMap", varmap, True, {"mode": "c2", "keys": (7,)}),
    ("EncodeResult", lambda: EncodeResult(formula(), varmap(), {"keys": 9}), False,
     {"counts": {"keys": 8}}),
    ("SolverRun", lambda: SolverRun(status="SAT", output="s SAT\n", returncode=10),
     True, {"status": "UNSAT"}),
)


@pytest.fixture(params=RECORDS, ids=[record[0] for record in RECORDS])
def record(request):
    return request.param[1:]


class TestRecords:
    def test_equal_fields_give_equal_records(self, record):
        make, hashable, _ = record
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        if hashable:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_a_changed_field_gives_an_unequal_record(self, record):
        make, _, changes = record
        a = make()
        changed = a.replace(**changes)
        assert changed != a and not changed == a
        assert type(changed) is type(a)
        for name in a.__slots__:
            expected = changes.get(name, getattr(a, name))
            assert getattr(changed, name) == expected
        assert a == make()  # the original is untouched

    def test_fields_are_frozen(self, record):
        make, _, _ = record
        a = make()
        for name in a.__slots__:
            value = getattr(a, name)
            with pytest.raises(AttributeError):
                setattr(a, name, value)
            with pytest.raises(AttributeError):
                delattr(a, name)
            assert getattr(a, name) is value
        with pytest.raises(AttributeError):
            a.undeclared = 1

    def test_copies_and_pickles_are_equal(self, record):
        make, _, _ = record
        a = make()
        for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert copied == a and type(copied) is type(a)

    def test_a_record_differs_from_other_types(self, record):
        make, _, _ = record
        a = make()
        assert a != tuple(getattr(a, name) for name in a.__slots__)
        assert a != object()


class TestReport:
    def test_each_report_starts_with_its_own_lines(self):
        first, second = Report("first"), Report("second")
        first.add(True, "holds")
        assert first.lines == [CheckLine(True, "holds")]
        assert second.lines == []
        assert first.ok and second.ok

    def test_lines_are_added_and_extended(self):
        report = Report("checks")
        assert report.add(False, "fails") is False
        other = Report("more")
        other.add(True, "holds")
        report.extend(other)
        assert report.lines == [CheckLine(False, "fails"), CheckLine(True, "holds")]
        assert report.failures == [CheckLine(False, "fails")]
        assert report.render() == ("== checks ==\n[FAIL] fails\n[ok] holds\n"
                                   "result: FAIL\n")


class TestValidation:
    """Each constructor validates as before, also under ``replace``."""

    def test_duplicate_label(self):
        with pytest.raises(errors.DuplicateLabel,
                           match="duplicate alternative label: 'a'"):
            Alternatives(("a", "b", "a"))
        with pytest.raises(errors.DuplicateLabel):
            Alternatives(("a", "b")).replace(labels=("b", "b"))

    def test_not_a_permutation(self):
        with pytest.raises(errors.PrefRevError,
                           match=r"not a permutation of 0\.\.2: \(0, 0, 1\)"):
            order(0, 0, 1)
        with pytest.raises(errors.PrefRevError, match="not a permutation"):
            order(0, 1).replace(ranking=(1, 2))

    def test_empty_profile(self):
        with pytest.raises(errors.PrefRevError,
                           match="a profile needs at least one voter"):
            Profile(())
        with pytest.raises(errors.PrefRevError,
                           match="a profile needs at least one voter"):
            profile((0, 1)).replace(votes=())

    def test_mixed_profile(self):
        with pytest.raises(errors.PrefRevError,
                           match="all voters must rank the same alternatives"):
            Profile((order(0, 1), order(0, 1, 2)))

    def test_score_vector_must_decrease(self):
        with pytest.raises(errors.PrefRevError,
                           match=r"score vector must be weakly decreasing: \(0, 1\)"):
            ScoreVector((0, 1))
        with pytest.raises(errors.PrefRevError, match="weakly decreasing"):
            borda_vector(3).replace(s=(0, 0, 1))

    def test_unknown_table_mode(self):
        with pytest.raises(errors.PrefRevError, match="unknown table mode: 'bogus'"):
            RuleTable(1, 2, "bogus", (0, 1))
        with pytest.raises(errors.PrefRevError, match="unknown table mode"):
            RuleTable(1, 2, "profile", (0, 1)).replace(mode="bogus")

    def test_missing_entry(self):
        with pytest.raises(errors.MissingEntry,
                           match="profile table has 1 entries, needs 2"):
            RuleTable(1, 2, "profile", (0,))
        with pytest.raises(errors.MissingEntry):
            RuleTable(1, 2, "profile", (0, 1)).replace(n=2)

    def test_bad_literal(self):
        with pytest.raises(errors.PrefRevError, match=r"bad literal 3 in clause \(3,\)"):
            CnfFormula(2, ((3,),))
        with pytest.raises(errors.PrefRevError, match="bad literal 0"):
            formula().replace(clauses=((0,),))

    def test_replace_rejects_an_unknown_field(self):
        with pytest.raises(TypeError):
            leaf().replace(colour="red")
