"""Voting rules, reversal-paradox checkers, proof verification, CNF pipeline.

The public surface mirrors the module layout: ``prefs`` for orders and
profiles, ``tally`` for majority margins, ``keyspace`` for the margin
matrices realizable by n voters, ``rules`` for the rule suite,
``monotonicity`` for the paradox checkers, ``proofcheck`` for the
machine-checked impossibility trees, ``satgen`` for the CNF pipeline,
``cli`` for the command line.
"""

from .prefs import (
    Alternatives,
    LinearOrder,
    Profile,
    enumerate_orders,
    index_to_profile,
    parse_order,
    parse_profile,
    profile_to_index,
)
from .rules import RuleTable, ScoreVector, TieBreak
from .tally import MarginMatrix, condorcet_winner, margin_matrix

__version__ = "0.1.0"

__all__ = [
    "Alternatives",
    "LinearOrder",
    "MarginMatrix",
    "Profile",
    "RuleTable",
    "ScoreVector",
    "TieBreak",
    "condorcet_winner",
    "enumerate_orders",
    "index_to_profile",
    "margin_matrix",
    "parse_order",
    "parse_profile",
    "profile_to_index",
    "__version__",
]
