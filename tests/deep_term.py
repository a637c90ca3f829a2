"""The deep input of the deep-input tests: an alternating seq/par term.

``alternating_term()`` has 1,100 inner nodes, more than the default
recursion limit, and evaluates to a graph of 1,101 vertices.
"""

from __future__ import annotations

from modgraph.signature import Term

LEVELS = 1100


def alternating_term(levels: int = LEVELS, ops=("seq", "par"),
                     bottom: str = "a") -> Term:
    """ops[0](a, ops[1](a, ops[0](a, ... bottom))) with levels inner nodes."""
    t = Term.leaf(bottom)
    for i in reversed(range(levels)):
        t = Term.node(ops[i % 2], [Term.leaf("a"), t])
    return t
