"""Referees for the modular decomposition and the module oracle.

The case analysis below (components, co-components, chain prefixes,
minimal-module closures) computes the same trees as ``mdec.decompose`` at
about n^4 cost, by a different route: it closes every vertex pair to its
smallest module instead of refining partitions.  The differential tests in
``test_mdec.py`` compare the two on inputs the 2^n oracle cannot reach.

``brute_force_modules`` tests every one of the 2^n vertex subsets; it is
the referee of the NextClosure oracle ``Rows.modules``, which ``modules``
reads as vertex sets.

``referee_binarize`` folds a tree bottom up into new nodes, with the
masks kept in a dict keyed by node, and ``referee_adhoc_name`` sets one
matrix byte per quotient edge: the referees of ``mdec.binarize``, which
makes one pass over positions and shares unchanged subtrees, and of
``mdec._adhoc_name``, which reads the matrix off the quotient's rows.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Iterable, Optional, Sequence

from modgraph.errors import ModgraphError, NotInSignature, TooSmall
from modgraph.graphs import (LabeledGraph, _check_subset, _components_of,
                             is_module, undirected_components)
from modgraph.mdec import (MDecNode, MDecPrimeTree, MDecTree, NodeKind, _match_quotient,
                           fold_tree)
from modgraph.signature import Signature


class NotAModule(ModgraphError):
    """A partition block given to ``quotient_graph`` is not a module."""


def quotient_graph(g: LabeledGraph, partition: Sequence[frozenset[int]]) -> LabeledGraph:
    """Unlabeled graph on 1..k with block i as vertex i, the validating
    quotient: every block must be a module; cross edges are then uniform,
    so a single representative pair decides each quotient edge.
    """
    covered: set[int] = set()
    for block in partition:
        if not block or not is_module(g, block):
            raise NotAModule(f"partition block {sorted(block)} is not a module")
        if block & covered:
            raise NotAModule("partition blocks overlap")
        covered |= block
    if covered != g.vertices:
        raise NotAModule("partition does not cover the vertex set")
    reps = [min(block) for block in partition]
    es = g.edges
    edges = [(i + 1, j + 1)
             for i in range(len(partition)) for j in range(len(partition))
             if i != j and (reps[i], reps[j]) in es]
    return LabeledGraph.on_range(len(partition), edges)


def maximal_prime_modules(g: LabeledGraph, sig: Optional[Signature] = None,
                          ) -> tuple[NodeKind, list[frozenset[int]]]:
    """The root's node kind and the modules of its children, from one
    ``Rows.split`` of g's rows: the seq case in its chain order, par and
    clique by smallest vertex, and a prime quotient in an enumeration
    matching the signature's operation when one matches.
    """
    if g.n < 2:
        raise TooSmall("decomposition step needs at least 2 vertices")
    rows = g.rows
    kind, blocks = rows.split((1 << g.n) - 1)
    if kind is NodeKind.PRIME and sig is not None:
        try:
            _, blocks = _match_quotient(rows.quotient(blocks), blocks, sig.prime_ops)
        except NotInSignature:
            pass  # unmatched: keep the raw smallest-vertex block order
    return kind, [rows.ids(b) for b in blocks]


def co_components(g: LabeledGraph, x: Optional[Iterable[int]] = None) -> list[frozenset[int]]:
    """Components where u,v are adjacent iff they are NOT mutually linked.

    Splitting x into co-components Y, Z means every cross pair carries
    edges in both directions (the clique-product split).
    """
    xs = _check_subset(g, x) if x is not None else g.vertices
    es = g.edges
    adj: dict[int, set[int]] = {v: set() for v in xs}
    for u, v in itertools.combinations(xs, 2):
        if not ((u, v) in es and (v, u) in es):
            adj[u].add(v)
            adj[v].add(u)
    return _components_of(xs, adj)


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


def _case_split(g: LabeledGraph) -> tuple[NodeKind, list[frozenset[int]]]:
    if g.n < 2:
        raise TooSmall("decomposition step needs at least 2 vertices")
    comps = undirected_components(g)
    if len(comps) > 1:
        return NodeKind.PAR, comps
    cocomps = co_components(g)
    if len(cocomps) > 1:
        return NodeKind.CLIQUE, cocomps
    out_adj = g.out_adj()
    prefixes = chain_prefixes(g, out_adj)
    if prefixes:
        blocks = []
        prev: frozenset[int] = frozenset()
        for p in prefixes + [g.vertices]:
            blocks.append(p - prev)
            prev = p
        return NodeKind.SEQ, blocks
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
    return NodeKind.PRIME, blocks


def referee_decompose(g: LabeledGraph, sig: Optional[Signature] = None) -> MDecTree:
    """The decomposition by case analysis, one induced copy per level."""

    def rec(module: frozenset[int]) -> MDecNode:
        if len(module) == 1:
            (v,) = module
            sym = g.labels[v] if g.labels is not None else None
            return MDecNode(module, NodeKind.LEAF, symbol=sym)
        sub = g.induced(module)
        case, blocks = _case_split(sub)
        if case is NodeKind.PRIME:
            op, blocks = _match_quotient(quotient_graph(sub, blocks), blocks,
                                         None if sig is None else sig.prime_ops)
            return MDecNode(module, NodeKind.PRIME,
                            tuple(rec(b) for b in blocks), op=op)
        return MDecNode(module, case, tuple(rec(b) for b in blocks))

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


def modules(g: LabeledGraph) -> list[frozenset[int]]:
    """Every non-empty module of g from ``Rows.modules``, in lectic order."""
    return [g.rows.ids(m) for m in g.rows.modules()]


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


def referee_binarize(t: MDecTree) -> MDecPrimeTree:
    """Every node of t rebuilt bottom up, each seq node with >= 3 children
    as a right comb, the comb masks ORed from their children's."""
    mask = dict(zip(t.nodes(), t.masks or itertools.repeat(0)))

    def combine(node: MDecNode, kids: list[MDecNode]) -> MDecNode:
        if node.kind is NodeKind.SEQ and len(kids) >= 3:
            acc = kids[-1]
            for c in reversed(kids[1:-1]):
                comb = MDecNode(c.module | acc.module, NodeKind.SEQ, (c, acc))
                mask[comb] = mask[c] | mask[acc]
                acc = comb
            made = MDecNode(node.module, NodeKind.SEQ, (kids[0], acc))
        else:
            made = MDecNode(node.module, node.kind, tuple(kids), node.symbol, node.op)
        mask[made] = mask[node]
        return made

    b = MDecPrimeTree(fold_tree(t.root, combine), rows=t.rows)
    if t.masks is not None:
        b.masks = tuple(map(mask.__getitem__, b.nodes()))
    return b


def referee_adhoc_name(q: LabeledGraph) -> str:
    """The ad-hoc name of a quotient on 1..k, its matrix set edge by edge."""
    k = q.n
    matrix = bytearray(k * k)
    for (u, v) in q.edges:
        matrix[u * k + v - k - 1] = 1
    return f"prime{k}_{zlib.crc32(matrix):08x}{zlib.adler32(matrix):08x}"
