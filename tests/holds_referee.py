"""Referee of ``PredicateLibrary.holds``.

The wrapper ``holds`` was before each predicate got a holder of its own:
it reads the values in spec order, checks their vertices against the
graph through one union of them all, freezes mutable sets when the values
do not hash and calls the predicate's decider.  Tests require the library's
``holds`` to give the same answer, or an exception of the same type with
the same message, on every binding whose set values are sets or
frozensets.  Set variables bound to other values are outside this
comparison: the referee lets any iterable through, and ``holds`` rejects
them.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping

from modgraph.cms import ELEMENT
from modgraph.errors import UnknownPredicate, VertexNotInGraph
from modgraph.graphs import LabeledGraph
from modgraph.transduction import PredicateLibrary

_union_of = frozenset().union


def referee_holds(lib: PredicateLibrary, name: str, g: LabeledGraph,
                  bindings: Mapping) -> bool:
    if name not in lib.names():
        raise UnknownPredicate(f"no predicate named {name!r}")
    d = lib.definitions[name]
    spec, decide = d.params, lib._decider(name)
    values_of = (itemgetter(*spec) if len(spec) > 1
                 else lambda b, v=spec[0]: (b[v],))
    try:
        values = values_of(bindings)
    except KeyError:
        missing = next(var for var in spec if var not in bindings)
        raise UnknownPredicate(
            f"predicate {name!r} needs binding {missing!r}") from None
    used = (_union_of(*values) if ELEMENT not in d.kinds else _union_of(
        *(v if isinstance(v, (set, frozenset)) else (v,) for v in values)))
    if not used <= g.vertices:
        for var, value in zip(spec, values):
            for v in value if isinstance(value, (set, frozenset)) else (value,):
                if v not in g.vertices:
                    raise VertexNotInGraph(f"predicate {name!r}: vertex {v!r} "
                                           f"of {var!r} is not in the graph")
    try:
        hash(values)
    except TypeError:  # table lookups hash the values: freeze mutable sets
        values = [frozenset(v) if isinstance(v, set) else v for v in values]
    return decide(g, *values)
