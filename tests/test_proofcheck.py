import io
from collections import Counter

import pytest

from prefrev import errors, proofcheck
from prefrev.prefs import Alternatives, Profile, parse_order
from prefrev.proofcheck import (
    Leaf,
    ProofTree,
    ReversalEdge,
    apply_reversals,
    build_even_tree,
    build_odd_tree,
    build_perez_profile,
    pad_tree,
    read_proof_tree,
    replayed_carry,
    reversal_positions,
    transport_blockers,
    verify_edge,
    verify_perez,
    verify_tree,
    verify_tree_irresolute,
    write_proof_tree,
)
from prefrev.report import Report
from prefrev.tally import condorcet_winner, margin_matrix

ABCD = Alternatives(("a", "b", "c", "d"))

# independently transcribed leaf tables; the builder must derive exactly
# these profiles by applying the stated reversals
ODD_TABLES = {
    "P2": [(2, "abcd"), (3, "abdc"), (2, "acdb"), (1, "bdca"),
           (4, "cabd"), (2, "dcab"), (1, "dcba")],
    "P3": [(2, "abcd"), (3, "abdc"), (1, "bacd"), (3, "bdca"),
           (2, "cabd"), (2, "dbac"), (1, "dcab"), (1, "dcba")],
    "P5": [(3, "abdc"), (3, "bdca"), (2, "cabd"), (2, "dbac"),
           (2, "dcab"), (3, "dcba")],
    "P6": [(3, "bdca"), (4, "cabd"), (3, "cdba"), (2, "dcab"), (3, "dcba")],
}
EVEN_TABLES = {
    "P2": [(4, "abcd"), (4, "abdc"), (3, "acdb"), (3, "bdca"),
           (6, "cabd"), (4, "dcab")],
    "P3": [(4, "abcd"), (4, "abdc"), (2, "bacd"), (6, "bdca"),
           (3, "cabd"), (3, "dbac"), (2, "dcab")],
    "P5": [(4, "abdc"), (6, "bdca"), (3, "cabd"), (3, "dbac"),
           (4, "dcab"), (4, "dcba")],
    "P6": [(2, "abdc"), (3, "acdb"), (3, "bdca"), (6, "cabd"),
           (2, "cdba"), (4, "dcab"), (4, "dcba")],
}
LEAF_WINNERS = {"P2": "c", "P3": "a", "P5": "b", "P6": "d"}


def vote_multiset(profile: Profile) -> Counter:
    return Counter(v.ranking for v in profile.votes)


def table_multiset(columns) -> Counter:
    counts = Counter()
    for count, text in columns:
        counts[parse_order(">".join(text), ABCD).ranking] += count
    return counts


class TestTreeConstruction:
    def test_odd_tree_shape(self):
        tree = build_odd_tree(4)
        assert tree.n == 15
        assert tree.m == 4
        assert set(tree.profiles) == {"P0", "P1", "P2", "G1", "P3",
                                      "P4", "P5", "P6"}
        assert len(tree.edges) == 7

    def test_even_tree_shape(self):
        tree = build_even_tree(4)
        assert tree.n == 24
        assert len(tree.edges) == 8
        assert {"G1", "G2"} <= set(tree.profiles)

    def test_m_too_small(self):
        with pytest.raises(errors.PrefRevError,
                           match=r"the proof trees need m >= 4 alternatives \(got m=3\)"):
            build_odd_tree(3)

    @pytest.mark.parametrize("node", sorted(ODD_TABLES))
    def test_odd_leaves_match_printed_tables(self, node):
        tree = build_odd_tree(4)
        assert vote_multiset(tree.profiles[node]) == table_multiset(ODD_TABLES[node])

    @pytest.mark.parametrize("node", sorted(EVEN_TABLES))
    def test_even_leaves_match_printed_tables(self, node):
        tree = build_even_tree(4)
        assert vote_multiset(tree.profiles[node]) == table_multiset(EVEN_TABLES[node])

    def test_extra_alternatives_sit_at_the_bottom(self):
        tree = build_odd_tree(6)
        # every constructed vote ends x1 then x2; a reversed voter instead
        # starts x2 then x1
        root = tree.profiles["P0"]
        assert all(v.ranking[-2:] == (4, 5) for v in root.votes)
        for profile in tree.profiles.values():
            for vote in profile.votes:
                assert vote.ranking[-2:] == (4, 5) or vote.ranking[:2] == (5, 4)

    def test_carried_sets_include_extras(self):
        tree = build_odd_tree(5)
        for edge in tree.edges:
            assert 4 in edge.carried

    def test_m5_constructed_votes_end_with_x1(self):
        root = build_odd_tree(5).profiles["P0"]
        assert all(v.ranking[-1] == 4 for v in root.votes)


class TestVerifyTree:
    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_odd_tree_passes(self, m):
        report = verify_tree(build_odd_tree(m))
        assert report.ok, report.render()

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_even_tree_passes(self, m):
        report = verify_tree(build_even_tree(m))
        assert report.ok, report.render()

    def test_leaf_condorcet_winners(self):
        for tree in (build_odd_tree(4), build_even_tree(4)):
            for leaf in tree.leaves:
                winner = condorcet_winner(tree.profiles[leaf.node])
                assert ABCD.label_of(winner) == LEAF_WINNERS[leaf.node]

    def test_report_lists_every_edge_and_leaf(self):
        report = verify_tree(build_odd_tree(4))
        text = report.render()
        for name in ("P1", "P2", "P3", "P4", "P5", "P6", "G1"):
            assert name in text


class TestTamperedTrees:
    def test_wrong_reversal_count_is_an_edge_mismatch(self):
        tree = build_odd_tree(4)
        edge = tree.edges[0]
        bad = edge.replace(reversals=((edge.reversals[0][0] + 1,
                                       edge.reversals[0][1]),))
        tampered = tree.replace(edges=(bad,) + tree.edges[1:])
        report = verify_edge(tampered, bad)
        assert not report.ok
        assert any("P1 differs from P0 with the stated reversals applied"
                   in line.text for line in report.failures)

    def test_tampered_destination_profile(self):
        tree = build_odd_tree(4)
        profiles = dict(tree.profiles)
        profiles["P1"] = profiles["P1"].reverse_vote(0)
        tampered = tree.replace(profiles=profiles)
        report = verify_edge(tampered, tampered.edges[0])
        assert not report.ok
        assert not verify_tree(tampered).ok

    def test_unsound_carried_set_names_the_pair(self):
        tree = build_odd_tree(4)
        edge = tree.edges[0]  # reverses dcba carrying {a,b}
        bad = edge.replace(carried=frozenset({0, 2}))  # {a,c}
        tampered = tree.replace(edges=(bad,) + tree.edges[1:])
        report = verify_edge(tampered, bad)
        assert not report.ok
        # the vote d>c>b>a ranks carried c above non-carried b
        assert any("ranks carried c above non-carried b" in line.text
                   for line in report.failures)

    def test_empty_carried_set_fails_a_line(self):
        tree = build_odd_tree(4)
        edge = tree.edges[0]  # P0 -> P1
        bad = edge.replace(carried=frozenset())
        tampered = tree.replace(edges=(bad,) + tree.edges[1:])
        report = verify_edge(tampered, bad)
        assert any("the edge carries no alternative" in line.text
                   for line in report.failures)
        assert replayed_carry(bad, bad.carried) == frozenset()
        assert not verify_tree(tampered).ok
        for mode in ("optimistic", "pessimistic"):
            assert not verify_tree_irresolute(tampered, mode).ok

    def test_wrong_leaf_claim_fails(self):
        tree = build_odd_tree(4)
        leaves = tuple(l.replace(condorcet=0) if l.node == "P2" else l
                       for l in tree.leaves)
        tampered = tree.replace(leaves=leaves)
        report = verify_tree(tampered)
        assert not report.ok
        assert any("P2" in line.text for line in report.failures)

    def test_a_leaf_that_is_no_profile_fails_a_line(self):
        # a leaf renamed in a built tree, and one added with its edge to a
        # tree file read back: every verifier reports it, none raises
        tree = build_odd_tree(4)
        renamed = tree.replace(leaves=tuple(
            leaf.replace(node="ZZ") if leaf.node == "P2" else leaf
            for leaf in tree.leaves))
        out = io.StringIO()
        write_proof_tree(tree, out)
        added = read_proof_tree(io.StringIO(
            out.getvalue() + "EDGE P1 ZZ REVERSE 2xb>d>c>a CARRY a\n"
                             "LEAF ZZ CONDORCET c\n"))
        leaf_line = "[FAIL] leaf ZZ: not a profile of the tree"
        cases = [
            (renamed, ["[FAIL] declared leaves ['P3', 'P5', 'P6', 'ZZ'] are "
                       "exactly the childless profiles", leaf_line]),
            (added, ["[FAIL] edge P1->ZZ references an unknown profile",
                     "[FAIL] every profile is reachable from the root",
                     "[FAIL] declared leaves ['P2', 'P3', 'P5', 'P6', 'ZZ'] are "
                     "exactly the childless profiles",
                     "[FAIL] unknown profile name in edge P1->ZZ", leaf_line]),
        ]
        for tampered, failures in cases:
            for report in (verify_tree(tampered),
                           verify_tree_irresolute(tampered, "optimistic"),
                           verify_tree_irresolute(tampered, "pessimistic")):
                assert not report.ok
                assert [line.render() for line in report.failures] == failures

    def test_undeclared_childless_node_fails(self):
        tree = build_odd_tree(4)
        tampered = tree.replace(leaves=tree.leaves[1:])
        assert not verify_tree(tampered).ok

    def test_coverage_gap_fails(self):
        tree = build_odd_tree(4)
        # shrink the first root case from {a,b} to {b}: 'a' becomes unhandled
        edge = tree.edges[0]
        bad = edge.replace(carried=frozenset({1}))
        tampered = tree.replace(edges=(bad,) + tree.edges[1:])
        report = verify_tree(tampered)
        assert any("cover" in line.text for line in report.failures)

    @pytest.mark.parametrize("counts,message", [
        ((21,), "P0: profile has only 2 unclaimed voters with the order "
                "required for a 21-voter reversal"),
        # the first reversal claims both d>c>b>a voters; the second may not
        # reuse them
        ((2, 1), "P0: profile has only 0 unclaimed voters with the order "
                 "required for a 1-voter reversal"),
    ], ids=["too-many", "claimed-voters-not-reused"])
    def test_reversal_beyond_the_matching_voters(self, counts, message):
        tree = build_odd_tree(4)
        edge = tree.edges[0]  # P0 -> P1 reverses d>c>b>a; P0 has 2 such voters
        bad = edge.replace(reversals=tuple((count, edge.reversals[0][1])
                                           for count in counts))
        report = verify_tree(tree.replace(edges=(bad,) + tree.edges[1:]))
        assert message in [line.text for line in report.failures]

    def test_zero_count_reversal_claims_no_voter(self):
        tree = build_odd_tree(4)
        order = tree.edges[0].reversals[0][1]
        profile = tree.profiles["P0"]
        assert reversal_positions(profile, ((0, order),)) == ()
        assert reversal_positions(profile, ((1, order), (0, order))) == (13,)
        assert apply_reversals(profile, ((0, order),)) == profile

    def test_edge_to_an_unknown_profile(self):
        tree = build_odd_tree(4)
        bad = tree.edges[0].replace(dst="Q")
        tampered = tree.replace(edges=(bad,) + tree.edges[1:])
        assert [line.text for line in verify_edge(tampered, bad).failures] == [
            "unknown profile name in edge P0->Q"]
        assert "edge P0->Q references an unknown profile" in [
            line.text for line in verify_tree(tampered).failures]

    @pytest.mark.parametrize("verify", [
        verify_tree,
        lambda tree: verify_tree_irresolute(tree, "optimistic"),
        lambda tree: verify_tree_irresolute(tree, "pessimistic"),
    ], ids=["resolute", "optimistic", "pessimistic"])
    @pytest.mark.parametrize("copied,src,node", [(1, "P0", "P2"), (0, "P4", "P1")],
                             ids=["into-leaf", "into-inner-node"])
    def test_second_incoming_edge_is_reported_not_raised(self, verify, copied, src, node):
        tree = build_odd_tree(4)
        tampered = tree.replace(edges=tree.edges + (tree.edges[copied].replace(src=src),))
        report = verify(tampered)
        assert not report.ok
        assert f"{node} has exactly one incoming edge" in [line.text for line in report.failures]


class TestTransportHelpers:
    def test_blockers_empty_only_for_bottom_segments(self):
        order = parse_order("d>c>b>a", ABCD)
        assert transport_blockers(order, frozenset({0, 1})) == []
        assert transport_blockers(order, frozenset({0})) == []
        assert transport_blockers(order, frozenset({1})) == [(1, 0)]
        assert transport_blockers(order, frozenset({3, 0})) != []

    def test_replay_matches_carried_on_all_built_edges(self):
        for builder in (build_odd_tree, build_even_tree):
            for m in (4, 5):
                tree = builder(m)
                for edge in tree.edges:
                    assert replayed_carry(edge, edge.carried) == edge.carried

    def test_replay_grows_along_the_vote(self):
        order = parse_order("c>a>b>d", ABCD)
        edge = ReversalEdge("X", "Y", ((2, order),), frozenset({3}))
        # starting from {b}: one reversal reaches {b, d}, the second stays
        assert replayed_carry(edge, frozenset({1})) == frozenset({1, 3})


class TestIrresolute:
    @pytest.mark.parametrize("mode", ["optimistic", "pessimistic"])
    @pytest.mark.parametrize("builder", [build_odd_tree, build_even_tree])
    def test_passes_on_both_trees(self, mode, builder):
        report = verify_tree_irresolute(builder(4), mode)
        assert report.ok, report.render()

    def test_pessimistic_concludes_empty_outcome(self):
        report = verify_tree_irresolute(build_odd_tree(4), "pessimistic")
        assert "F(P0) is empty" in report.render()

    def test_optimistic_back_propagates_cd_through_p4(self):
        report = verify_tree_irresolute(build_odd_tree(4), "optimistic")
        text = report.render()
        assert "{c,d} excluded from F(P4), so excluded from F(P0)" in text
        assert "{a,b,c,d} excluded from F(P0)" in text

    @pytest.mark.parametrize("mode", ["optimistic", "pessimistic"])
    def test_agrees_with_resolute_on_tampered_tree(self, mode):
        tree = build_odd_tree(4)
        leaves = tuple(l.replace(condorcet=0) if l.node == "P2" else l
                       for l in tree.leaves)
        tampered = tree.replace(leaves=leaves)
        assert verify_tree(tampered).ok == verify_tree_irresolute(tampered, mode).ok

    @pytest.mark.parametrize("mode", ["optimistic", "pessimistic"])
    @pytest.mark.parametrize("tamper", ["leaf winner", "carried set"])
    def test_own_lines_fail_a_tampered_tree(self, monkeypatch, mode, tamper):
        # with the shared structure, edge and leaf checks stubbed to pass,
        # the irresolute lines alone must still refute the tampering
        tree = build_odd_tree(4)
        if tamper == "leaf winner":
            tampered = tree.replace(leaves=tuple(
                l.replace(condorcet=0) if l.node == "P2" else l for l in tree.leaves))
        else:
            # P0 -> P1 reverses d>c>b>a, which ranks c above b: {a,c} escapes
            bad = tree.edges[0].replace(carried=frozenset({0, 2}))
            tampered = tree.replace(edges=(bad,) + tree.edges[1:])
        monkeypatch.setattr(proofcheck, "_tree_report",
                            lambda tree, title: Report(title))
        assert verify_tree_irresolute(tree, mode).ok
        assert not verify_tree_irresolute(tampered, mode).ok

    def test_unknown_mode(self):
        with pytest.raises(errors.PrefRevError):
            verify_tree_irresolute(build_odd_tree(4), "optimist")


class TestPadding:
    @pytest.mark.parametrize("times", [1, 2, 3])
    def test_padded_odd_tree_still_verifies(self, times):
        tree = build_odd_tree(4)
        pad = parse_order("b>c>a>d", ABCD)
        padded = pad_tree(tree, pad, times)
        assert padded.n == 15 + 2 * times
        report = verify_tree(padded)
        assert report.ok, report.render()
        for leaf in padded.leaves:
            assert condorcet_winner(padded.profiles[leaf.node]) == leaf.condorcet

    def test_padding_preserves_margins_nodewise(self):
        tree = build_even_tree(4)
        padded = pad_tree(tree, parse_order("a>b>c>d", ABCD), 2)
        for name in tree.profiles:
            assert margin_matrix(padded.profiles[name]).rows == \
                margin_matrix(tree.profiles[name]).rows


class TestPerez:
    def test_report_passes(self):
        report = verify_perez()
        assert report.ok, report.render()

    def test_case_condorcet_winners(self):
        profile, alternatives = build_perez_profile()
        cases = [(8, "u>z>t>y>x", "y"), (7, "x>t>u>z>y", "z"),
                 (6, "y>x>t>u>z", "u"), (5, "x>z>y>t>u", "t")]
        for count, order_text, expected in cases:
            order = parse_order(order_text, alternatives)
            after = apply_reversals(profile, ((count, order),))
            assert condorcet_winner(after) == alternatives.id_of(expected)

    def test_base_profile_has_no_winner(self):
        profile, _ = build_perez_profile()
        assert condorcet_winner(profile) is None

    def test_too_many_reversals_rejected(self):
        profile, alternatives = build_perez_profile()
        order = parse_order("t>y>z>u>x", alternatives)  # only 1 such voter
        with pytest.raises(errors.EdgeMismatch) as caught:
            apply_reversals(profile, ((2, order),))
        assert str(caught.value) == ("profile has only 1 unclaimed voters with "
                                     "the order required for a 2-voter reversal")


class TestFileFormat:
    @pytest.mark.parametrize("builder", [build_odd_tree, build_even_tree])
    def test_round_trip(self, builder):
        tree = builder(4)
        out = io.StringIO()
        write_proof_tree(tree, out)
        text = out.getvalue()
        again = read_proof_tree(io.StringIO(text))
        assert again.n == tree.n and again.m == tree.m
        assert again.root == tree.root
        assert again.profiles == tree.profiles
        assert again.edges == tree.edges
        assert again.leaves == tree.leaves
        assert verify_tree(again).ok

    @pytest.mark.parametrize("builder", [build_odd_tree, build_even_tree])
    def test_blank_and_comment_lines_are_skipped(self, builder):
        tree = builder(4)
        out = io.StringIO()
        write_proof_tree(tree, out)
        # a blank and a comment line after every line, PROFILE blocks included
        padded = "# a proof tree\n\n" + "".join(
            f"{line}\n\n   # after {line}\n" for line in out.getvalue().splitlines())
        assert padded.count("\n") > 3 * out.getvalue().count("\n")
        again = read_proof_tree(io.StringIO(padded))
        assert again == tree

    def test_rendering_is_stable(self):
        first, second = io.StringIO(), io.StringIO()
        write_proof_tree(build_odd_tree(5), first)
        write_proof_tree(build_odd_tree(5), second)
        assert first.getvalue() == second.getvalue()

    def test_header_and_sections(self):
        out = io.StringIO()
        write_proof_tree(build_odd_tree(4), out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "15 4"
        assert sum(1 for l in lines if l.startswith("EDGE ")) == 7
        assert sum(1 for l in lines if l.startswith("LEAF ")) == 4

    def test_bad_header(self):
        with pytest.raises(errors.PrefRevError):
            read_proof_tree(io.StringIO("nonsense\n"))

    @pytest.mark.parametrize("edit,message", [
        (lambda text: "", "empty proof tree file"),
        (lambda text: "# only a comment\n", "empty proof tree file"),
        (lambda text: text[:text.index("END")], "PROFILE P0 not terminated by END"),
        (lambda text: text + "LEAF P2 CONDORCET\n", "bad LEAF line: 'LEAF P2 CONDORCET'"),
        (lambda text: text + "LEAF P2 WINNER c\n", "bad LEAF line: 'LEAF P2 WINNER c'"),
        (lambda text: text + "ROOT P0\n", "unexpected proof tree line: 'ROOT P0'"),
        (lambda text: text + "PROFILE Q\nm=4 labels=a,b,c,d\n1: a>b>c>d\nEND\n",
         "expected exactly one root, found ['P0', 'Q']"),
        (lambda text: text + "LEAF P0 CONDORCET a\n", "leaf P0 has no incoming edge"),
        (lambda text: text + "EDGE P0 P1 CARRY a\n", "bad EDGE line: 'EDGE P0 P1 CARRY a'"),
        (lambda text: text + "EDGE P0\n", "bad EDGE line: 'EDGE P0'"),
        (lambda text: text.replace("REVERSE 1xd>c>b>a", "REVERSE 1xd>c>b>q", 1),
         "bad EDGE line: 'EDGE P0 P1 REVERSE 1xd>c>b>q CARRY a,b': "
         "unknown alternative label: 'q'"),
        (lambda text: text.replace("CARRY a,b", "CARRY a,q", 1),
         "bad EDGE line: 'EDGE P0 P1 REVERSE 1xd>c>b>a CARRY a,q': "
         "unknown alternative label: 'q'"),
        (lambda text: text.replace("LEAF P2 CONDORCET c", "LEAF P2 CONDORCET q", 1),
         "bad LEAF line: 'LEAF P2 CONDORCET q': unknown alternative label: 'q'"),
    ], ids=["empty", "comments-only", "profile-without-end", "leaf-short",
            "leaf-not-condorcet", "unknown-line", "two-roots", "leaf-without-edge",
            "edge-without-reverse", "edge-one-end", "edge-reverse-label",
            "edge-carry-label", "leaf-label"])
    def test_malformed_file_is_a_clear_error(self, edit, message):
        out = io.StringIO()
        write_proof_tree(build_odd_tree(4), out)
        with pytest.raises(errors.PrefRevError) as caught:
            read_proof_tree(io.StringIO(edit(out.getvalue())))
        assert str(caught.value) == message

    @pytest.mark.parametrize("order_text,message", [
        ("a>b>c>q", "unknown alternative label: 'q'"),
        ("a>b>c>c", "duplicate alternative label: 'c'"),
        ("a>b>c", "order does not rank alternative: 'd'"),
    ])
    def test_bad_order_in_a_profile_names_its_line_once(self, order_text, message):
        text = f"2 4\nPROFILE P0\nm=4 labels=a,b,c,d\n1: a>b>c>d\n1: {order_text}\nEND\n"
        with pytest.raises(errors.PrefRevError) as caught:
            read_proof_tree(io.StringIO(text))
        assert str(caught.value) == f"PROFILE P0:3: {message}"

    def test_edge_carrying_nothing_is_a_clear_error(self):
        tree = build_odd_tree(4)
        bad = tree.edges[0].replace(carried=frozenset())
        out = io.StringIO()
        write_proof_tree(tree.replace(edges=(bad,) + tree.edges[1:]), out)
        text = out.getvalue()
        assert any(line.endswith(" CARRY ") for line in text.splitlines())
        with pytest.raises(errors.PrefRevError, match="carries no alternative"):
            read_proof_tree(io.StringIO(text))

    @pytest.mark.parametrize("token", ["2*d>c>b>a", "twoxd>c>b>a", "xd>c>b>a"])
    def test_malformed_reversal_is_a_clear_error(self, token):
        out = io.StringIO()
        write_proof_tree(build_odd_tree(4), out)
        text = out.getvalue()
        bad = text.replace("REVERSE 1xd>c>b>a", f"REVERSE {token}", 1)
        assert bad != text
        with pytest.raises(errors.PrefRevError, match="bad reversal"):
            read_proof_tree(io.StringIO(bad))
