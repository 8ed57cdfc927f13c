"""Machine verification of the impossibility proof trees and the strong-paradox case split.

A :class:`ProofTree` is a rooted tree of named profiles.  Each edge reverses
a stated multiset of voters and carries a winner-set constraint: if the rule
picks inside the carried set at the tail profile, reversal monotonicity
forces it to pick inside the same set at the head profile.  Leaves pin a
Condorcet winner that lies outside the constraint carried into them, so a
Condorcet extension runs out of options in every branch and the tree, once
verified, certifies that no Condorcet extension avoids the reversal paradox
at its (n, m).

Trees are data, not code: they can be written to and read from a plain text
format, and tampered copies are first-class inputs for the checkers.
"""

from __future__ import annotations

from typing import TextIO

from .errors import EdgeMismatch, PrefRevError
from .prefs import (
    Alternatives,
    LinearOrder,
    Profile,
    Record,
    default_labels,
    format_order,
    format_profile,
    parse_order,
    parse_profile,
)
from .report import Report
from .tally import condorcet_winner

ODD_BASE_COLUMNS = ((1, "abcd"), (3, "abdc"), (3, "bdca"),
                    (4, "cabd"), (2, "dcab"), (2, "dcba"))
EVEN_BASE_COLUMNS = ((2, "abcd"), (4, "abdc"), (6, "bdca"),
                     (6, "cabd"), (4, "dcab"), (2, "dcba"))

# (src, dst, count, reversed order, carried core over {a,b,c,d}); the odd
# and even trees share this shape, only the counts differ
_TREE_EDGES = (
    ("P0", "P1", "dcba", "ab"),
    ("P1", "P2", "bdca", "a"),
    ("P1", "G1", "dcab", "b"),
    ("G1", "P3", "cabd", "bd"),
    ("P0", "P4", "abcd", "cd"),
    ("P4", "P5", "cabd", "d"),
)
_ODD_TAIL_EDGES = (("P4", "P6", "abdc", "c"),)
_EVEN_TAIL_EDGES = (("P4", "G2", "abdc", "c"), ("G2", "P6", "bdca", "ac"))
_ODD_EDGE_COUNTS = (1, 2, 1, 2, 1, 2, 3)
_EVEN_EDGE_COUNTS = (2, 3, 2, 3, 2, 3, 2, 3)

_LEAVES = (("P2", "c"), ("P3", "a"), ("P5", "b"), ("P6", "d"))


class ReversalEdge(Record):
    """One proof step: reverse the stated voters, transport the carried set."""

    __slots__ = ("src", "dst", "reversals", "carried")

    @property
    def reversal_count(self) -> int:
        return sum(count for count, _ in self.reversals)


class Leaf(Record):
    __slots__ = ("node", "condorcet", "forbidden")


class ProofTree(Record):
    __slots__ = ("m", "n", "root", "profiles", "edges", "leaves")

    @property
    def alternatives(self) -> Alternatives:
        return Alternatives(default_labels(self.m))

    def incoming(self, node: str) -> tuple[ReversalEdge, ...]:
        """Every edge into ``node``: one in a well-formed tree, but a
        tampered tree may have none or several, which the checks report."""
        return tuple(e for e in self.edges if e.dst == node)

    def children(self, node: str) -> tuple[ReversalEdge, ...]:
        return tuple(e for e in self.edges if e.src == node)


# --- construction -----------------------------------------------------------


def _order_with_tail(core: str, m: int, alternatives: Alternatives) -> LinearOrder:
    # extra alternatives x1..x_{m-4} always sit at the bottom, in that order
    ranking = tuple(alternatives.id_of(ch) for ch in core) + tuple(range(4, m))
    return LinearOrder(ranking)


def _carried_with_tail(core: str, m: int, alternatives: Alternatives) -> frozenset[int]:
    # the extra alternatives travel inside every carried set: they sit below
    # the named ones in each reversed vote, so transport needs them included
    return frozenset(alternatives.id_of(ch) for ch in core) | frozenset(range(4, m))


def reversal_positions(profile: Profile,
                       reversals: tuple[tuple[int, LinearOrder], ...]) -> tuple[int, ...]:
    """Canonical voter positions for the stated reversals: for each order,
    the lowest-index voters submitting it, in ascending order."""
    claimed: set[int] = set()
    for count, order in reversals:
        found = [i for i, vote in enumerate(profile.votes)
                 if vote == order and i not in claimed][:count]
        if len(found) < count:
            raise EdgeMismatch(
                f"profile has only {len(found)} unclaimed voters with the order "
                f"required for a {count}-voter reversal")
        claimed.update(found)
    return tuple(sorted(claimed))


def apply_reversals(profile: Profile,
                    reversals: tuple[tuple[int, LinearOrder], ...]) -> Profile:
    votes = list(profile.votes)
    for i in reversal_positions(profile, reversals):
        votes[i] = votes[i].reverse()
    return Profile(tuple(votes))


def _build_tree(m: int, columns, edge_shape, counts) -> ProofTree:
    if m < 4:
        raise PrefRevError(f"the proof trees need m >= 4 alternatives (got m={m})")
    alternatives = Alternatives(default_labels(m))
    votes: list[LinearOrder] = []
    for count, core in columns:
        votes.extend([_order_with_tail(core, m, alternatives)] * count)
    root_profile = Profile(tuple(votes))

    profiles: dict[str, Profile] = {"P0": root_profile}
    edges: list[ReversalEdge] = []
    for (src, dst, core_order, core_carry), count in zip(edge_shape, counts):
        order = _order_with_tail(core_order, m, alternatives)
        edge = ReversalEdge(src, dst, ((count, order),),
                            _carried_with_tail(core_carry, m, alternatives))
        profiles[dst] = apply_reversals(profiles[src], edge.reversals)
        edges.append(edge)

    leaves = []
    incoming = {e.dst: e for e in edges}
    for node, label in _LEAVES:
        leaves.append(Leaf(node, alternatives.id_of(label), incoming[node].carried))
    return ProofTree(m=m, n=root_profile.n, root="P0", profiles=profiles,
                     edges=tuple(edges), leaves=tuple(leaves))


def build_odd_tree(m: int) -> ProofTree:
    """The 15-voter odd-electorate tree, padded to m alternatives."""
    return _build_tree(m, ODD_BASE_COLUMNS,
                       _TREE_EDGES + _ODD_TAIL_EDGES, _ODD_EDGE_COUNTS)


def build_even_tree(m: int) -> ProofTree:
    """The 24-voter even-electorate tree, padded to m alternatives."""
    return _build_tree(m, EVEN_BASE_COLUMNS,
                       _TREE_EDGES + _EVEN_TAIL_EDGES, _EVEN_EDGE_COUNTS)


def pad_tree(tree: ProofTree, order: LinearOrder, times: int = 1) -> ProofTree:
    """Append ``times`` opposed vote pairs to every node profile.

    Majority margins are untouched, so all leaf claims survive; re-running
    the checker on the result machine-checks the electorate-growth step.
    """
    profiles = dict(tree.profiles)
    for name, profile in profiles.items():
        for _ in range(times):
            profile = profile.pad(order)
        profiles[name] = profile
    return tree.replace(n=tree.n + 2 * times, profiles=profiles)


# --- verification -------------------------------------------------------------


def transport_blockers(order: LinearOrder,
                       carried: frozenset[int]) -> list[tuple[int, int]]:
    """Pairs (carried w, non-carried v) that this reversed vote ranks w above v.

    Empty iff the carried set is a bottom segment of the vote, which is
    exactly when a single reversal cannot move the winner out of the set.
    """
    pos = order.positions()
    blockers = []
    for w in sorted(carried):
        for v in range(order.m):
            if v not in carried and pos[w] < pos[v]:
                blockers.append((w, v))
    return blockers


def replayed_carry(edge: ReversalEdge, start: frozenset[int]) -> frozenset[int]:
    """Transport ``start`` through the edge one reversed voter at a time.

    Each single reversal lets the winner drop anywhere weakly below the
    best carried alternative in that voter's pre-reversal vote.
    """
    current = start
    for count, order in edge.reversals:
        pos = order.positions()
        for _ in range(count):
            # nothing carried reaches nothing
            best = min((pos[w] for w in current), default=order.m)
            current = frozenset(a for a in range(order.m) if pos[a] >= best)
    return current


def verify_edge(tree: ProofTree, edge: ReversalEdge) -> Report:
    """Check one edge: profiles differ by exactly the stated reversals, and
    the carried set survives each single-voter reversal."""
    alternatives = tree.alternatives
    label = alternatives.label_of
    rev_text = " ".join(f"{c}x{format_order(o, alternatives)}"
                        for c, o in edge.reversals)
    report = Report(f"edge {edge.src} -> {edge.dst} (reverse {rev_text})")

    src = tree.profiles.get(edge.src)
    dst = tree.profiles.get(edge.dst)
    if src is None or dst is None:
        report.add(False, f"unknown profile name in edge {edge.src}->{edge.dst}")
        return report

    try:
        positions = reversal_positions(src, edge.reversals)
        expected = apply_reversals(src, edge.reversals)
    except EdgeMismatch as exc:
        report.add(False, f"{edge.src}: {exc}")
        return report

    if expected == dst:
        report.add(True, f"{edge.dst} equals {edge.src} with voters "
                         f"{list(positions)} reversed")
    else:
        diff = [i for i, (x, y) in enumerate(zip(expected.votes, dst.votes)) if x != y]
        report.add(False, f"{edge.dst} differs from {edge.src} with the stated "
                          f"reversals applied (voters {diff})")

    carried_text = alternatives.label_set(edge.carried)
    if not edge.carried:
        report.add(False, f"the edge carries no alternative: {carried_text} "
                          f"cannot contain the winner of {edge.src}")
        return report
    for count, order in edge.reversals:
        blockers = transport_blockers(order, edge.carried)
        if not blockers:
            report.add(True, f"{count}x {format_order(order, alternatives)}: "
                             f"ranks everything outside {carried_text} above it; "
                             f"single reversals keep the winner inside")
        else:
            w, v = blockers[0]
            report.add(False,
                       f"{count}x {format_order(order, alternatives)}: ranks "
                       f"carried {label(w)} above non-carried {label(v)}, so the "
                       f"winner could escape {carried_text}")
    if report.ok:
        replay = replayed_carry(edge, edge.carried)
        report.add(replay == edge.carried,
                   f"replaying the {edge.reversal_count} single reversals "
                   f"returns exactly {carried_text}")
    return report


def _structure_report(tree: ProofTree) -> Report:
    report = Report("tree structure")
    alternatives = tree.alternatives
    names = set(tree.profiles)
    report.add(tree.root in names, f"root {tree.root} is a named profile")
    for edge in tree.edges:
        if edge.src not in names or edge.dst not in names:
            report.add(False, f"edge {edge.src}->{edge.dst} references an "
                              f"unknown profile")
    report.add(not tree.incoming(tree.root), f"{tree.root} has no incoming edge")
    for name in sorted(names - {tree.root}):
        report.add(len(tree.incoming(name)) == 1,
                   f"{name} has exactly one incoming edge")
    reached = {tree.root}
    frontier = [tree.root]
    while frontier:
        node = frontier.pop()
        for edge in tree.children(node):
            if edge.dst not in reached:
                reached.add(edge.dst)
                frontier.append(edge.dst)
    report.add(reached == names, "every profile is reachable from the root")
    for name, profile in tree.profiles.items():
        report.add(profile.m == tree.m and (name != tree.root or profile.n == tree.n),
                   f"{name} has n={profile.n}, m={profile.m}")

    all_alts = frozenset(range(tree.m))
    root_union = frozenset().union(*(e.carried for e in tree.children(tree.root)))
    report.add(root_union == all_alts,
               f"cases out of {tree.root} cover "
               f"{alternatives.label_set(root_union)} = all alternatives")
    for name in sorted(names - {tree.root}):
        children = tree.children(name)
        if not children:
            continue
        union = frozenset().union(*(e.carried for e in children))
        for inc in tree.incoming(name):
            report.add(inc.carried <= union,
                       f"cases out of {name} cover the incoming constraint "
                       f"{alternatives.label_set(inc.carried)}")
    leaf_names = {leaf.node for leaf in tree.leaves}
    childless = {name for name in names if not tree.children(name)}
    report.add(leaf_names == childless,
               f"declared leaves {sorted(leaf_names)} are exactly the "
               f"childless profiles")
    return report


def _leaf_report(tree: ProofTree, leaf: Leaf) -> Report:
    alternatives = tree.alternatives
    label = alternatives.label_of
    report = Report(f"leaf {leaf.node}")
    if leaf.node not in tree.profiles:
        report.add(False, f"leaf {leaf.node}: not a profile of the tree")
        return report
    actual = condorcet_winner(tree.profiles[leaf.node])
    report.add(actual == leaf.condorcet,
               f"{leaf.node}: Condorcet winner is "
               f"{label(actual) if actual is not None else 'none'}, "
               f"claimed {label(leaf.condorcet)}")
    incoming = tree.incoming(leaf.node)
    report.add(len(incoming) == 1 and leaf.forbidden == incoming[0].carried,
               f"{leaf.node}: forbidden set matches the incoming constraint "
               f"{alternatives.label_set(leaf.forbidden)}")
    report.add(leaf.condorcet not in leaf.forbidden,
               f"{leaf.node}: Condorcet winner {label(leaf.condorcet)} lies "
               f"outside {alternatives.label_set(leaf.forbidden)}: contradiction")
    return report


def _tree_report(tree: ProofTree, title: str) -> Report:
    """The structure, edge and leaf checks both tree verifiers start from."""
    report = Report(title)
    report.extend(_structure_report(tree))
    for edge in tree.edges:
        report.extend(verify_edge(tree, edge))
    for leaf in tree.leaves:
        report.extend(_leaf_report(tree, leaf))
    return report


def verify_tree(tree: ProofTree) -> Report:
    """Check the whole tree and conclude the resolute impossibility at (n, m)."""
    report = _tree_report(
        tree, f"reversal-paradox proof tree (n={tree.n}, m={tree.m})")
    if report.ok:
        report.add(True, f"every case forces a Condorcet-winner contradiction: "
                         f"no Condorcet extension on {tree.n} voters and "
                         f"{tree.m} alternatives is half-way monotonic")
    return report


def verify_tree_irresolute(tree: ProofTree, mode: str) -> Report:
    """Re-run the tree for set-valued rules.

    ``pessimistic`` transports "the outcome set meets S" from the root to
    the leaves, where the Condorcet singleton refutes it; ``optimistic``
    pushes "S is disjoint from the outcome set" from the leaves back to the
    root until nothing may be chosen at all.
    """
    if mode not in ("optimistic", "pessimistic"):
        raise PrefRevError(f"unknown irresolute mode {mode!r}")
    alternatives = tree.alternatives
    lbl = alternatives.label_set
    report = _tree_report(
        tree, f"{mode} set-valued proof tree (n={tree.n}, m={tree.m})")
    if not report.ok:
        return report

    if mode == "pessimistic":
        for edge in tree.edges:
            report.add(_transports(edge),
                       f"F({edge.src}) meets {lbl(edge.carried)} implies "
                       f"F({edge.dst}) meets it: the worst carried "
                       f"alternative only drops within the set")
        refuted = [_refutes(tree, leaf) for leaf in tree.leaves]
        for leaf, ok in zip(tree.leaves, refuted):
            report.add(ok, f"F({leaf.node}) = "
                           f"{{{alternatives.label_of(leaf.condorcet)}}} by "
                           f"Condorcet-consistency, disjoint from "
                           f"{lbl(leaf.forbidden)}: case refuted")
        report.add(all(refuted),
                   f"all cases refuted, so F({tree.root}) meets no part "
                   f"of {lbl(frozenset(range(tree.m)))}: F({tree.root}) "
                   f"is empty, contradiction")
        return report

    excluded: dict[str, frozenset[int]] = {}
    order = _postorder(tree)
    for name in order:
        children = tree.children(name)
        if not children:
            leaf = next(l for l in tree.leaves if l.node == name)
            excluded[name] = frozenset(range(tree.m)) - {leaf.condorcet}
            report.add(_refutes(tree, leaf), f"{name}: F = "
                             f"{{{alternatives.label_of(leaf.condorcet)}}}, so "
                             f"{lbl(leaf.forbidden)} is excluded")
        else:
            gained = frozenset()
            for edge in children:
                if edge.carried <= excluded[edge.dst]:
                    gained |= edge.carried
                    report.add(_transports(edge),
                               f"{lbl(edge.carried)} excluded from F({edge.dst}), "
                               f"so excluded from F({name}): the best of the set "
                               f"could only have got worse along the edge")
            excluded[name] = gained
    root_excluded = excluded[tree.root]
    report.add(root_excluded == frozenset(range(tree.m)),
               f"{lbl(root_excluded)} excluded from F({tree.root}): "
               f"F({tree.root}) is empty, contradiction")
    return report


def _transports(edge: ReversalEdge) -> bool:
    """Whether the carried set survives every single reversal of the edge:
    no reversed vote has a transport blocker, and the replay returns it."""
    return (not any(transport_blockers(order, edge.carried)
                    for _, order in edge.reversals)
            and replayed_carry(edge, edge.carried) == edge.carried)


def _refutes(tree: ProofTree, leaf: Leaf) -> bool:
    """Whether the leaf's profile has the claimed Condorcet winner and it
    lies outside the forbidden set."""
    return (condorcet_winner(tree.profiles[leaf.node]) == leaf.condorcet
            and leaf.condorcet not in leaf.forbidden)


def _postorder(tree: ProofTree) -> list[str]:
    out: list[str] = []

    def visit(name: str) -> None:
        for edge in tree.children(name):
            visit(edge.dst)
        out.append(name)

    visit(tree.root)
    return out


# --- the strong-paradox case analysis ----------------------------------------


PEREZ_LABELS = ("x", "y", "z", "u", "t")
PEREZ_COLUMNS = (
    (5, "x>z>y>t>u"),
    (7, "x>t>u>z>y"),
    (3, "y>x>u>z>t"),
    (6, "y>x>t>u>z"),
    (1, "y>u>z>x>t"),
    (2, "y>t>u>x>z"),
    (3, "z>y>u>x>t"),
    (5, "z>y>t>x>u"),
    (8, "u>z>t>y>x"),
    (1, "t>y>z>u>x"),
)
# assumed winner, how many voters of which order reverse, resulting Condorcet winner
PEREZ_CASES = (
    ("x", 8, "u>z>t>y>x", "y"),
    ("y", 7, "x>t>u>z>y", "z"),
    ("z", 6, "y>x>t>u>z", "u"),
    ("u", 5, "x>z>y>t>u", "t"),
)


def build_perez_profile() -> tuple[Profile, Alternatives]:
    """The 41-voter, 5-alternative profile behind the strong-paradox case split."""
    alternatives = Alternatives(PEREZ_LABELS)
    votes: list[LinearOrder] = []
    for count, text in PEREZ_COLUMNS:
        votes.extend([parse_order(text, alternatives)] * count)
    return Profile(tuple(votes)), alternatives


def verify_perez() -> Report:
    """Check the four reversal cases that pin the strong-paradox-free choice.

    Each case assumes the rule picks some alternative other than t; the
    stated voters rank that alternative last, so a rule avoiding the strong
    reversal paradox must keep picking it while they reverse one by one,
    and the resulting profile's Condorcet winner contradicts that.
    """
    profile, alternatives = build_perez_profile()
    report = Report("strong-paradox case analysis (n=41, m=5)")
    report.add(profile.n == 41 and profile.m == 5,
               f"profile has n={profile.n}, m={profile.m}")
    report.add(condorcet_winner(profile) is None,
               "the base profile has no Condorcet winner")
    for assumed, count, order_text, expected in PEREZ_CASES:
        order = parse_order(order_text, alternatives)
        assumed_id = alternatives.id_of(assumed)
        report.add(order.bottom == assumed_id,
                   f"case f={assumed}: the {count} reversing voters rank "
                   f"{assumed} last, so avoiding the strong paradox keeps "
                   f"{assumed} winning while they reverse")
        try:
            after = apply_reversals(profile, ((count, order),))
        except EdgeMismatch as exc:
            report.add(False, f"case f={assumed}: {exc}")
            continue
        actual = condorcet_winner(after)
        report.add(actual == alternatives.id_of(expected),
                   f"case f={assumed}: after reversing {count}x {order_text}, "
                   f"Condorcet winner is "
                   f"{alternatives.label_of(actual) if actual is not None else 'none'} "
                   f"(expected {expected})")
        report.add(expected != assumed,
                   f"case f={assumed}: Condorcet-consistency then forces "
                   f"{expected}, contradiction")
    if report.ok:
        report.add(True, "every choice except t is contradicted: a Condorcet "
                         "extension avoiding the strong reversal paradox "
                         "must pick t here")
    return report


# --- file format ---------------------------------------------------------------


def write_proof_tree(tree: ProofTree, sink: TextIO) -> None:
    alternatives = tree.alternatives
    sink.write(f"{tree.n} {tree.m}\n")
    for name, profile in tree.profiles.items():
        sink.write(f"PROFILE {name}\n")
        sink.write(format_profile(profile, alternatives))
        sink.write("END\n")
    for edge in tree.edges:
        rev_text = " ".join(f"{c}x{format_order(o, alternatives)}"
                            for c, o in edge.reversals)
        carry = ",".join(alternatives.label_of(a) for a in sorted(edge.carried))
        sink.write(f"EDGE {edge.src} {edge.dst} REVERSE {rev_text} CARRY {carry}\n")
    for leaf in tree.leaves:
        sink.write(f"LEAF {leaf.node} CONDORCET "
                   f"{alternatives.label_of(leaf.condorcet)}\n")


def read_proof_tree(source: TextIO) -> ProofTree:
    content = (line for line in map(str.strip, source.read().splitlines())
               if line and not line.startswith("#"))
    header = next(content, None)
    if header is None:
        raise PrefRevError("empty proof tree file")
    try:
        n, m = (int(x) for x in header.split())
    except ValueError:
        raise PrefRevError(f"bad proof tree header: {header!r}") from None
    alternatives = Alternatives(default_labels(m))

    profiles: dict[str, Profile] = {}
    edges: list[ReversalEdge] = []
    leaf_specs: list[tuple[str, int]] = []
    for line in content:
        if line.startswith("PROFILE "):
            name = line.split(maxsplit=1)[1]
            block: list[str] = []
            for inner in content:
                if inner == "END":
                    break
                block.append(inner)
            else:
                raise PrefRevError(f"PROFILE {name} not terminated by END")
            profile, _ = parse_profile("\n".join(block), source=f"PROFILE {name}")
            profiles[name] = profile
        elif line.startswith("EDGE "):
            edges.append(_parse_edge_line(line, alternatives))
        elif line.startswith("LEAF "):
            parts = line.split()
            if len(parts) != 4 or parts[2] != "CONDORCET":
                raise PrefRevError(f"bad LEAF line: {line!r}")
            try:
                winner = alternatives.id_of(parts[3])
            except PrefRevError as exc:
                raise PrefRevError(f"bad LEAF line: {line!r}: {exc}") from None
            leaf_specs.append((parts[1], winner))
        else:
            raise PrefRevError(f"unexpected proof tree line: {line!r}")

    targets = {e.dst for e in edges}
    roots = [name for name in profiles if name not in targets]
    if len(roots) != 1:
        raise PrefRevError(f"expected exactly one root, found {sorted(roots)}")
    incoming = {e.dst: e for e in edges}
    leaves = []
    for node, cw in leaf_specs:
        if node not in incoming:
            raise PrefRevError(f"leaf {node} has no incoming edge")
        leaves.append(Leaf(node, cw, incoming[node].carried))
    return ProofTree(m=m, n=n, root=roots[0], profiles=profiles,
                     edges=tuple(edges), leaves=tuple(leaves))


def _parse_edge_line(line: str, alternatives: Alternatives) -> ReversalEdge:
    parts = line.split()
    try:
        src, dst = parts[1], parts[2]
        rev_at = parts.index("REVERSE")
        carry_at = parts.index("CARRY")
    except (IndexError, ValueError):
        raise PrefRevError(f"bad EDGE line: {line!r}") from None
    if carry_at + 1 >= len(parts):
        raise PrefRevError(f"EDGE line carries no alternative: {line!r}")
    counted = []
    for token in parts[rev_at + 1:carry_at]:
        count_text, x, order_text = token.partition("x")
        if not x or not count_text.isdecimal():
            raise PrefRevError(f"bad reversal {token!r} in EDGE line: {line!r}")
        counted.append((int(count_text), order_text))
    try:
        reversals = tuple((count, parse_order(text, alternatives))
                          for count, text in counted)
        carried = frozenset(map(alternatives.id_of, parts[carry_at + 1].split(",")))
    except PrefRevError as exc:
        raise PrefRevError(f"bad EDGE line: {line!r}: {exc}") from None
    return ReversalEdge(src, dst, reversals, carried)
