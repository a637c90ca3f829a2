"""Referees for the modular decomposition and the module oracle.

The case analysis below (components, co-components, chain prefixes,
minimal-module closures) computes the same trees as ``mdec.decompose`` at
about n^4 cost, by a different route: it closes every vertex pair to its
smallest module instead of refining partitions.  The differential tests in
``test_mdec.py`` compare the two on inputs the 2^n oracle cannot reach.

``brute_force_modules`` tests every one of the 2^n vertex subsets; it is
the referee of the NextClosure oracle ``mdec.all_modules``.
"""

from __future__ import annotations

import itertools
from typing import Optional

from modgraph.errors import TooSmall
from modgraph.graphs import LabeledGraph, co_components, undirected_components
from modgraph.mdec import (_CASE_TO_KIND, DecompositionCase, MDecNode, MDecTree,
                           NodeKind, _match_quotient, quotient_graph)
from modgraph.signature import Signature


def _min_module(g: LabeledGraph, seed: frozenset[int],
                out_adj: dict[int, set[int]], in_adj: dict[int, set[int]]) -> frozenset[int]:
    """Smallest module containing the seed, by adding outside splitters."""
    s = set(seed)
    changed = True
    while changed:
        changed = False
        for w in g.vertices - s:
            wo, wi = out_adj[w], in_adj[w]
            hit_out = len(wo & s)
            hit_in = len(wi & s)
            if (0 < hit_out < len(s)) or (0 < hit_in < len(s)):
                s.add(w)
                changed = True
    return frozenset(s)


def chain_prefixes(g: LabeledGraph, out_adj: dict[int, set[int]]) -> list[frozenset[int]]:
    """All proper non-empty chain prefixes, sorted by inclusion.

    A prefix P sends every edge forward into its complement and receives
    none back; prefixes are totally ordered by inclusion.
    """
    prefixes = set()
    for v in g.vertices:
        s = {v}
        changed = True
        while changed:
            changed = False
            for w in g.vertices - s:
                # w may stay outside only if every u in s points one-way at w
                if any(w not in out_adj[u] or u in out_adj[w] for u in s):
                    s.add(w)
                    changed = True
        if len(s) < g.n:
            prefixes.add(frozenset(s))
    return sorted(prefixes, key=len)


def _case_split(g: LabeledGraph) -> tuple[DecompositionCase, list[frozenset[int]]]:
    if g.n < 2:
        raise TooSmall("decomposition step needs at least 2 vertices")
    comps = undirected_components(g)
    if len(comps) > 1:
        return DecompositionCase.PAR, comps
    cocomps = co_components(g)
    if len(cocomps) > 1:
        return DecompositionCase.CLIQUE, cocomps
    out_adj = g.out_adj()
    prefixes = chain_prefixes(g, out_adj)
    if prefixes:
        blocks = []
        prev: frozenset[int] = frozenset()
        for p in prefixes + [g.vertices]:
            blocks.append(p - prev)
            prev = p
        return DecompositionCase.SEQ, blocks
    # prime case: vertices u,v share a block iff some proper module holds both
    in_adj = g.in_adj()
    verts = g.sorted_vertices()
    parent = {v: v for v in verts}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in itertools.combinations(verts, 2):
        if root(u) == root(v):
            continue
        if _min_module(g, frozenset((u, v)), out_adj, in_adj) != g.vertices:
            parent[root(u)] = root(v)
    groups: dict[int, set[int]] = {}
    for v in verts:
        groups.setdefault(root(v), set()).add(v)
    blocks = sorted((frozenset(s) for s in groups.values()), key=min)
    return DecompositionCase.PRIME_QUOTIENT, blocks


def referee_decompose(g: LabeledGraph, sig: Optional[Signature] = None) -> MDecTree:
    """The decomposition by case analysis, one induced copy per level."""

    def rec(module: frozenset[int]) -> MDecNode:
        if len(module) == 1:
            (v,) = module
            sym = g.labels[v] if g.labels is not None else None
            return MDecNode(module, NodeKind.LEAF, symbol=sym)
        sub = g.induced(module)
        case, blocks = _case_split(sub)
        if case is DecompositionCase.PRIME_QUOTIENT:
            op, blocks = _match_quotient(quotient_graph(sub, blocks), blocks, sig)
            return MDecNode(module, NodeKind.PRIME,
                            tuple(rec(b) for b in blocks), op=op)
        return MDecNode(module, _CASE_TO_KIND[case], tuple(rec(b) for b in blocks))

    return MDecTree(rec(g.vertices))


def brute_force_modules(g: LabeledGraph) -> list[frozenset[int]]:
    """All non-empty modules, by exhaustive subset enumeration."""
    verts = g.sorted_vertices()
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    out_m = [0] * n
    in_m = [0] * n
    for (u, v) in g.edges:
        out_m[idx[u]] |= 1 << idx[v]
        in_m[idx[v]] |= 1 << idx[u]
    found = []
    for mask in range(1, 1 << n):
        rest = ((1 << n) - 1) & ~mask
        ok = True
        r = rest
        while r:
            b = r & -r
            i = b.bit_length() - 1
            hit = out_m[i] & mask
            if hit and hit != mask:
                ok = False
                break
            hit = in_m[i] & mask
            if hit and hit != mask:
                ok = False
                break
            r ^= b
        if ok:
            found.append(mask)
    return [frozenset(verts[i] for i in range(n) if mask >> i & 1) for mask in found]


def referee_prime_modules(g: LabeledGraph) -> set[frozenset[int]]:
    """Prime (strong) modules by definition: proper modules overlapping
    none, over the 2^n family."""
    verts = g.sorted_vertices()
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    masks = []
    for m in brute_force_modules(g):
        mm = 0
        for v in m:
            mm |= 1 << idx[v]
        masks.append(mm)
    full = (1 << n) - 1
    primes = []
    for x in masks:
        if x == full:
            continue
        if all(not (x & y) or not (x & ~y) or not (y & ~x) for y in masks):
            primes.append(x)
    return {frozenset(verts[i] for i in range(n) if x >> i & 1) for x in primes}
