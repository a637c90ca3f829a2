"""Modular decomposition: maximal prime modules, quotients, and the trees.

The decomposition is computed by polynomial case analysis (components,
co-components, chain prefixes, minimal-module closures), not by the
linear-time algorithms from the literature; a 2^n brute-force oracle is
kept alongside for testing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Optional, Sequence

from .errors import NotAModule, NotInSignature, TooSmall, UnknownOp
from .graphs import LabeledGraph, Permutation, co_components, is_module, undirected_components
from .signature import Signature, SignatureOp, Term, match_op, prime_op


class DecompositionCase(Enum):
    PRIME_QUOTIENT = "prime"
    SEQ = "seq"
    PAR = "par"
    CLIQUE = "clique"


class NodeKind(Enum):
    LEAF = "leaf"
    PAR = "par"
    SEQ = "seq"
    CLIQUE = "clique"
    PRIME = "prime"


_CASE_TO_KIND = {
    DecompositionCase.PAR: NodeKind.PAR,
    DecompositionCase.SEQ: NodeKind.SEQ,
    DecompositionCase.CLIQUE: NodeKind.CLIQUE,
}


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


def quotient_graph(g: LabeledGraph, partition: Sequence[frozenset[int]]) -> LabeledGraph:
    """Unlabeled graph on 1..k with block i as vertex i.

    Every block must be a module; cross edges are then uniform, so a single
    representative pair decides each quotient edge.
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


def _adhoc_name(q: LabeledGraph) -> str:
    body = ",".join(f"{u}>{v}" for (u, v) in sorted(q.edges))
    return f"prime{q.n}[{body}]"


def _match_quotient(quotient: LabeledGraph, blocks: list[frozenset[int]],
                    sig: Optional[Signature]) -> tuple[SignatureOp, list[frozenset[int]]]:
    """Resolve a prime quotient to an operation and an admissible block order."""
    if sig is not None:
        matched = match_op(sig.prime_ops, quotient)
        if matched is None:
            raise NotInSignature(
                f"prime quotient on {quotient.n} vertices matches no operation "
                "of the signature", quotient=quotient)
        op, sigma = matched
        return op, [blocks[sigma(i) - 1] for i in range(1, quotient.n + 1)]
    return prime_op(_adhoc_name(quotient), quotient, check_prime=False), blocks


def maximal_prime_modules(g: LabeledGraph, sig: Optional[Signature] = None,
                          ) -> tuple[DecompositionCase, list[frozenset[int]]]:
    """Partition into maximal prime modules plus the decomposition case.

    The seq case comes back in its unique chain order, par/clique in
    smallest-vertex order, and a prime quotient in an enumeration matching
    the signature operation when one is given and matches.
    """
    case, blocks = _case_split(g)
    if case is DecompositionCase.PRIME_QUOTIENT and sig is not None:
        try:
            _, blocks = _match_quotient(quotient_graph(g, blocks), blocks, sig)
        except NotInSignature:
            pass  # unmatched: keep the raw smallest-vertex block order
    return case, blocks


@dataclass(eq=False)
class MDecNode:
    """Tree node: a module of the decomposed graph with its product label.

    For prime nodes the child order is one admissible enumeration of the
    operation's arguments; any automorphism image of it is equally valid.
    """

    module: frozenset[int]
    kind: NodeKind
    children: tuple["MDecNode", ...] = ()
    symbol: Optional[str] = None
    op: Optional[SignatureOp] = None

    @property
    def is_leaf(self) -> bool:
        return self.kind is NodeKind.LEAF

    def label_str(self) -> str:
        if self.kind is NodeKind.LEAF:
            return f"leaf {self.symbol}" if self.symbol is not None else "leaf"
        if self.kind is NodeKind.PRIME:
            return self.op.name
        return self.kind.value


@dataclass(eq=False)
class MDecTree:
    """Decomposition tree; leaves are the singletons of the vertex set."""

    root: MDecNode
    leaf_of: dict[int, MDecNode] = field(default_factory=dict)

    def __post_init__(self):
        if not self.leaf_of:
            for node in self.nodes():
                if node.is_leaf:
                    (v,) = node.module
                    self.leaf_of[v] = node

    def nodes(self) -> list[MDecNode]:
        out: list[MDecNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    def parents(self) -> dict[MDecNode, MDecNode]:
        par: dict[MDecNode, MDecNode] = {}
        for node in self.nodes():
            for c in node.children:
                par[c] = node
        return par


@dataclass(eq=False)
class MDecPrimeTree(MDecTree):
    """Binarized variant: every seq node has exactly two children.

    The first child of a seq node is never seq-labeled; the second child of
    a right-comb node stands for the union of the remaining chain blocks.
    """

    def __post_init__(self):
        super().__post_init__()
        for node in self.nodes():
            if node.kind is NodeKind.SEQ:
                if len(node.children) != 2:
                    raise ValueError("seq node in a binarized tree must have 2 children")
                if node.children[0].kind is NodeKind.SEQ:
                    raise ValueError("first child of a seq node must not be seq")

    def first_child(self, node: MDecNode) -> MDecNode:
        if node.kind is not NodeKind.SEQ:
            raise ValueError("first-child is designated on seq nodes only")
        return node.children[0]


def decompose(g: LabeledGraph, sig: Optional[Signature] = None) -> MDecTree:
    """Recursive modular decomposition of a labeled graph.

    With a signature, every prime quotient must match one of its operations
    (NotInSignature carries the quotient otherwise); without one, unmatched
    quotients become ad-hoc operations.
    """
    if g.n == 0:
        raise TooSmall("cannot decompose the empty graph")

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


def binarize(t: MDecTree) -> MDecPrimeTree:
    """Replace each seq node with >= 3 children by a right comb of seq nodes."""

    def rec(node: MDecNode) -> MDecNode:
        kids = tuple(rec(c) for c in node.children)
        if node.kind is NodeKind.SEQ and len(kids) >= 3:
            acc = MDecNode(kids[-2].module | kids[-1].module, NodeKind.SEQ,
                           (kids[-2], kids[-1]))
            for c in reversed(kids[1:-2]):
                acc = MDecNode(c.module | acc.module, NodeKind.SEQ, (c, acc))
            return MDecNode(node.module, NodeKind.SEQ, (kids[0], acc))
        return MDecNode(node.module, node.kind, kids, node.symbol, node.op)

    return MDecPrimeTree(rec(t.root))


def reconstruct(t: MDecTree, sig: Optional[Signature] = None) -> LabeledGraph:
    """Rebuild the concrete graph: vertex set is exactly the union of leaves."""
    edges: set[tuple[int, int]] = set()
    labels: dict[int, str] = {}
    labeled = True

    def rec(node: MDecNode):
        nonlocal labeled
        if node.is_leaf:
            (v,) = node.module
            if node.symbol is None:
                labeled = False
            else:
                labels[v] = node.symbol
            return
        mods = [c.module for c in node.children]
        k = len(mods)
        if node.kind is NodeKind.SEQ:
            pattern = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
        elif node.kind is NodeKind.PAR:
            pattern = []
        elif node.kind is NodeKind.CLIQUE:
            pattern = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]
        else:
            if sig is not None and not sig.has_op(node.op.name):
                raise UnknownOp(f"operation {node.op.name!r} not in signature")
            pattern = node.op.graph.edges
        for (i, j) in pattern:
            edges.update(itertools.product(mods[i - 1], mods[j - 1]))
        for c in node.children:
            rec(c)

    rec(t.root)
    return LabeledGraph(t.root.module, frozenset(edges), labels if labeled else None)


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


def brute_force_prime_modules(g: LabeledGraph) -> set[frozenset[int]]:
    """Prime (strong) modules by definition: proper modules overlapping none."""
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


def tree_prime_modules(t: MDecTree) -> set[frozenset[int]]:
    """The prime-module family encoded by a (non-binarized) tree."""
    return {n.module for n in t.nodes()} - {t.root.module}


def format_tree(t: MDecTree) -> str:
    """Indented text rendering, one node per line."""
    lines: list[str] = []

    def rec(node: MDecNode, depth: int, first: bool):
        ids = ",".join(map(str, sorted(node.module)))
        marker = " [first]" if first else ""
        lines.append("  " * depth + f"{node.label_str()} {{{ids}}}{marker}")
        for i, c in enumerate(node.children):
            rec(c, depth + 1, node.kind is NodeKind.SEQ and i == 0)

    rec(t.root, 0, False)
    return "\n".join(lines)


def tree_to_term(t: MDecTree) -> Term:
    """Re-serialize a tree of a labeled graph as a term."""

    def rec(node: MDecNode) -> Term:
        if node.is_leaf:
            if node.symbol is None:
                raise ValueError("an unlabeled tree has no term form")
            return Term.leaf(node.symbol)
        kids = [rec(c) for c in node.children]
        name = node.op.name if node.kind is NodeKind.PRIME else node.kind.value
        return Term.node(name, kids)

    return rec(t.root)


def shuffle_admissible(t: MDecTree, rng: Random) -> MDecTree:
    """Random admissible re-ordering: permuted par/clique children and
    automorphism images of prime enumerations; seq order is untouched."""

    def rec(node: MDecNode) -> MDecNode:
        kids = [rec(c) for c in node.children]
        if node.kind in (NodeKind.PAR, NodeKind.CLIQUE):
            rng.shuffle(kids)
        elif node.kind is NodeKind.PRIME:
            auts = node.op.symmetry.automorphisms
            if auts:
                sigma = rng.choice(auts + (Permutation.identity(node.op.graph.n),))
                kids = [kids[sigma(i) - 1] for i in range(1, len(kids) + 1)]
        return MDecNode(node.module, node.kind, tuple(kids), node.symbol, node.op)

    shuffled = rec(t.root)
    if isinstance(t, MDecPrimeTree):
        return MDecPrimeTree(shuffled)
    return MDecTree(shuffled)
