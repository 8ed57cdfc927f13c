"""Voting rules, reversal-paradox checkers, proof verification, CNF pipeline.

The public surface mirrors the module layout: ``prefs`` for orders and
profiles, ``tally`` for majority margins, ``keyspace`` for the margin
matrices realizable by n voters, ``rules`` for the rule suite,
``monotonicity`` for the paradox checkers, ``proofcheck`` for the
machine-checked impossibility trees, ``satgen`` for the CNF pipeline,
``cli`` for the command line.  Import those submodules directly: the
package itself imports none of them, so that each command loads only the
modules it runs.
"""

__version__ = "0.1.0"
