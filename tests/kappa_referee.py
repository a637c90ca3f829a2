"""Referee of ``transduction.check_kappa_lemma``.

The kappa lemma check written on frozensets: strong modules by 2^n
subset enumeration, components through ``graphs``, children by a
quadratic containment scan.  Tests require the bitmask check to give an
identical ``KappaLemmaReport``, mismatches included, in the same order.
"""

from __future__ import annotations

import itertools
from typing import Optional

from mdec_referee import co_components, quotient_graph, referee_prime_modules
from modgraph.cms import tree_prime_ops
from modgraph.errors import NotWeaklyRigid
from modgraph.graphs import LabeledGraph, is_internally_disconnected
from modgraph.mdec import MDecPrimeTree, NodeKind, reconstruct
from modgraph.signature import Signature, match_op
from modgraph.transduction import EncodingTables, KappaLemmaReport, KappaMismatch


def is_internally_co_disconnected(g: LabeledGraph, xs: frozenset[int]) -> bool:
    """True iff xs splits into halves fully linked in both directions."""
    return len(co_components(g, xs)) > 1


def is_discrete(g: LabeledGraph, xs: frozenset[int]) -> bool:
    return not any(u in xs and v in xs for (u, v) in g.edges)


def is_clique_set(g: LabeledGraph, xs: frozenset[int]) -> bool:
    es = g.edges
    return all((u, v) in es and (v, u) in es for u, v in itertools.combinations(xs, 2))


def _suffixes(g: LabeledGraph, w: frozenset[int]) -> list[frozenset[int]]:
    """Proper non-empty suffixes of w: sets Z < w such that every pair from
    w - Z to Z is linked forward only.  Each prefix w - Z is the closure of
    one vertex under "u pulls in x unless u -> x is one-way"."""
    if len(w) < 2:
        return []
    out: dict[int, set[int]] = {v: set() for v in w}
    for (u, v) in g.edges:
        if u in w and v in w:
            out[u].add(v)
    prefixes = set()
    for v in w:
        s = {v}
        grew = True
        while grew:
            grew = False
            for x in w - s:
                if any(x not in out[u] or u in out[x] for u in s):
                    s.add(x)
                    grew = True
        if len(s) < len(w):
            prefixes.add(frozenset(s))
    return [w - p for p in prefixes]


def is_sequential_set(g: LabeledGraph, x: frozenset[int]) -> bool:
    """True iff the induced subgraph splits as prefix + fully-linked suffix."""
    return bool(_suffixes(g, x))


def _initial_of(g: LabeledGraph, x: frozenset[int], y: frozenset[int]) -> bool:
    """y is the least prefix of x: the complement is a suffix, y not sequential."""
    if not y or not y < x:
        return False
    rest = x - y
    es = g.edges
    if not all((p, q) in es and (q, p) not in es
               for p in y for q in rest):
        return False
    return not is_sequential_set(g, y)


def referee_check_kappa_lemma(t: MDecPrimeTree, enc: EncodingTables,
                      sig: Optional[Signature] = None) -> KappaLemmaReport:
    """The kappa lemma check as frozenset code over the 2^n module family."""
    g = reconstruct(t)
    mode = enc.classification.mode
    if mode is NodeKind.PAR:
        disc = lambda x: len(x) > 1 and is_internally_disconnected(g, x)
        degenerate = lambda x: is_discrete(g, x)
    else:
        disc = lambda x: len(x) > 1 and is_internally_co_disconnected(g, x)
        degenerate = lambda x: is_clique_set(g, x)

    # independent node family: strong modules plus sequential suffixes
    strongs = referee_prime_modules(g) | {g.vertices}
    node_family = set(strongs)
    for w in strongs:
        if is_sequential_set(g, w):
            for z in _suffixes(g, w):
                if is_sequential_set(g, z):
                    node_family.add(z)

    prime_ops = tree_prime_ops(t, sig)

    def children_of(p: frozenset[int]) -> list[frozenset[int]]:
        inside = [m for m in node_family if m < p]
        return sorted((m for m in inside
                       if not any(m < other < p for other in inside)), key=min)

    def dist_children(p: frozenset[int]) -> set[frozenset[int]]:
        kids = children_of(p)
        if is_sequential_set(g, p):
            return {y for y in kids if _initial_of(g, p, y)}
        matched = match_op(prime_ops, quotient_graph(g.induced(p), kids))
        if matched is None:
            raise NotWeaklyRigid(
                f"connected node on {sorted(p)} matches no signature operation")
        op, sigma = matched
        return {kids[sigma(i) - 1] for i in op.symmetry.distinguished}

    dist_cache: dict[frozenset[int], set[frozenset[int]]] = {}

    def in_dist_child(p: frozenset[int], x: int) -> bool:
        if p not in dist_cache:
            dist_cache[p] = dist_children(p)
        return any(x in y for y in dist_cache[p])

    mismatches: list[KappaMismatch] = []
    for x in sorted(g.vertices):
        chain = sorted((m for m in node_family if x in m), key=len)
        # least disconnected strong module containing x, if degenerate
        lemma1 = None
        for p in chain:
            if p in strongs and disc(p):
                if degenerate(p):
                    lemma1 = p
                break
        # first non-trivial connected node reached from a distinguished child;
        # smaller connected nodes must all hold x in a non-distinguished child
        lemma3 = None
        for q in chain:
            if len(q) < 2 or disc(q):
                continue
            if in_dist_child(q, x):
                lemma3 = q
                break
        lemma2 = None
        if lemma3 is not None:
            above = [m for m in chain if lemma3 < m]
            if above and disc(above[0]):
                lemma2 = above[0]

        path = {1: enc.kappa[1].get(x), 2: enc.kappa[2].get(x),
                3: enc.kappa[3].get(x)}
        for i, lemma_val in ((1, lemma1), (2, lemma2), (3, lemma3)):
            got = path[i].module if path[i] is not None else None
            if lemma_val != got:
                mismatches.append(KappaMismatch(i, x, lemma_val, got))
    return KappaLemmaReport(tuple(mismatches))
