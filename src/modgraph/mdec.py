"""Modular decomposition: maximal prime modules, quotients, and the trees.

``decompose`` walks the tree top down with an explicit stack, on bitmask
adjacency rows built once per call (bit i is the i-th smallest vertex id).
Each module M is split by mask operations alone, in the order of the
cases: the components of "linked either way" inside M (par), the
components of "not linked both ways" (clique), the strongly connected
components of the semicomplete relation "u needs w unless u -> w is
one-way", in chain order (seq).  Otherwise M is prime: with v = min M,
partition refinement by splitter rows gives P(M, v), the maximal modules
of M avoiding v, and a part joins v's block exactly when the splitter
closure of v and its smallest vertex stays below M (the vertex-partition
method of Ehrenfeucht, Gabow, McConnell and Sullivan, J. Algorithms 16(2),
1994).  The par, clique and seq tests and each closure cost O(|M|)
operations on n-bit ints; the refinement costs at most O(|M|^3) and far
less in practice: 400 vertices decompose in a fraction of a second.

Beside it stands one exact module oracle, ``all_modules``.  The modules
of a digraph, with the empty set, are closed under intersection, so
Ganter's NextClosure lists them in lectic order with polynomial delay,
the splitter closure serving as closure operator (B. Ganter, "Two basic
algorithms in concept analysis", 1984; ICFCA 2010, LNCS 5986).  It is
output-sensitive, not polynomial: a par node with k children has 2^k
modules.  ``brute_force_prime_modules`` filters its family by overlap.
The test suite keeps the exhaustive subset enumeration as the oracle's
referee and the old pairwise-closure case analysis as a polynomial
referee of the decomposition.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Callable, Optional, Sequence, TypeVar

from .errors import NotAModule, NotInSignature, TooSmall, UnknownOp, VertexNotInGraph
from .graphs import LabeledGraph, Permutation, is_module
from .signature import (CLIQUE_OP, PAR_OP, SEQ_OP, Signature, SignatureOp, Term,
                        edge_pattern, match_op, prime_op)

T = TypeVar("T")


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


class Rows:
    """Bitmask adjacency of one graph: bit i stands for the i-th smallest id.

    ``split(m)`` breaks the module with mask m into its maximal strong
    modules, and ``modules()`` lists every module, by mask operations on
    these rows alone.
    """

    __slots__ = ("verts", "idx", "out", "inn", "und", "co", "fwd", "bwd")

    def __init__(self, g: LabeledGraph):
        self.verts = verts = g.sorted_vertices()
        n = len(verts)
        self.idx = idx = {v: i for i, v in enumerate(verts)}
        out = [0] * n
        inn = [0] * n
        for (u, v) in g.edges:
            out[idx[u]] |= 1 << idx[v]
            inn[idx[v]] |= 1 << idx[u]
        full = (1 << n) - 1
        self.out, self.inn = out, inn
        # linked either way; not linked both ways
        self.und = [o | i for o, i in zip(out, inn)]
        self.co = [full & ~(o & i) for o, i in zip(out, inn)]
        # seq relation R: u R w unless u -> w is one-way; its reverse
        self.fwd = [full & ~(o & ~i) for o, i in zip(out, inn)]
        self.bwd = [full & ~(i & ~o) for o, i in zip(out, inn)]

    def ids(self, m: int) -> frozenset[int]:
        verts = self.verts
        out = []
        while m:
            b = m & -m
            out.append(verts[b.bit_length() - 1])
            m ^= b
        return frozenset(out)

    def mask(self, ids) -> int:
        idx = self.idx
        m = 0
        try:
            for v in ids:
                m |= 1 << idx[v]
        except KeyError as e:
            raise VertexNotInGraph(f"vertex {e.args[0]} not in graph") from None
        return m

    def modules(self) -> list[int]:
        """Every non-empty module, in lectic order: ascending as ints.

        NextClosure: the module after a is the closure of (a above bit i)
        plus bit i, for the lowest bit i outside a whose closure adds no
        bit above i.  The closure adds every vertex outside the set whose
        out-row or in-row meets the set partially, found as the vertices
        that tell some member apart from one pivot member; a candidate is
        dropped as soon as it gains a bit above i.
        """
        out, inn = self.out, self.inn
        n = len(out)
        full = (1 << n) - 1
        found = []
        a = 0
        while a != full:
            for i in range(n):
                bit = 1 << i
                if a & bit:
                    continue
                above = full & ~((bit << 1) - 1)
                s = queue = (a & above) | bit
                ov, iv = out[i], inn[i]
                while queue:
                    b = queue & -queue
                    queue ^= b
                    j = b.bit_length() - 1
                    new = ((out[j] ^ ov) | (inn[j] ^ iv)) & ~s
                    if new & above:
                        break
                    s |= new
                    queue |= new
                else:
                    a = s
                    found.append(s)
                    break
        return found

    def split(self, m: int) -> tuple[DecompositionCase, list[int]]:
        """The case of module m and its maximal strong modules.

        par and clique blocks come by smallest vertex, seq blocks in chain
        order, prime blocks by smallest vertex.
        """
        blocks = _components(m, self.und)
        if len(blocks) > 1:
            return DecompositionCase.PAR, blocks
        blocks = _components(m, self.co)
        if len(blocks) > 1:
            return DecompositionCase.CLIQUE, blocks
        blocks = _chain(m, self.fwd, self.bwd)
        if len(blocks) > 1:
            return DecompositionCase.SEQ, blocks
        return DecompositionCase.PRIME_QUOTIENT, self._prime_blocks(m)

    def _prime_blocks(self, m: int) -> list[int]:
        """Maximal proper modules of a prime node, from P(m, v), v = min m.

        Every part of P(m, v) is either a maximal proper module or lies in
        the one that holds v, and it lies there exactly when the smallest
        module holding v and the part's smallest vertex is proper.
        """
        out, inn = self.out, self.inn
        v = m & -m
        vi = v.bit_length() - 1
        ov, iv = out[vi], inn[vi]
        parts = _modules_avoiding(m, v, out, inn)
        joined = v
        for y in parts:
            if y & joined:
                continue
            # splitter closure of {v, min y}: x joins when it tells a
            # member apart from v
            s = queue = y & -y
            s |= v
            while queue and s != m:
                b = queue & -queue
                queue ^= b
                i = b.bit_length() - 1
                new = ((out[i] ^ ov) | (inn[i] ^ iv)) & m & ~s
                s |= new
                queue |= new
            if s != m:
                joined |= s
        own = v
        blocks = []
        for y in parts:
            if y & joined:
                own |= y
            else:
                blocks.append(y)
        blocks.append(own)
        return sorted(blocks, key=lambda b: b & -b)

    def quotient(self, blocks: Sequence[int]) -> LabeledGraph:
        """Quotient on 1..k of a partition into modules, read off the rows
        of the blocks' smallest vertices."""
        reps = [(b & -b).bit_length() - 1 for b in blocks]
        out = self.out
        edges = [(i + 1, j + 1)
                 for i, r in enumerate(reps) for j, s in enumerate(reps)
                 if out[r] >> s & 1]
        return LabeledGraph.on_range(len(blocks), edges)


def reach(start: int, m: int, rows: list[int]) -> int:
    """Vertices of m reachable from the start bits along rows."""
    seen = frontier = start
    while frontier:
        r = seen
        while frontier:
            b = frontier & -frontier
            r |= rows[b.bit_length() - 1]
            if not m & ~r:
                return m
            frontier ^= b
        frontier = r & m & ~seen
        seen |= frontier
    return seen


def _components(m: int, rows: list[int]) -> list[int]:
    """Components of the symmetric relation rows inside m, by smallest vertex."""
    comps = []
    while m:
        comp = reach(m & -m, m, rows)
        comps.append(comp)
        m &= ~comp
    return comps


def _chain(m: int, fwd: list[int], bwd: list[int]) -> list[int]:
    """Strongly connected components of the seq relation inside m, in chain
    order.

    The relation is semicomplete, so its components are totally ordered:
    from a pivot, forward reachability gives the pivot's component and all
    before it, backward reachability it and all after it.
    """
    chain = []
    stack = [(m, False)]
    while stack:
        x, done = stack.pop()
        if done:
            chain.append(x)
            continue
        v = x & -x
        ahead = reach(v, x, fwd)
        behind = reach(v, x, bwd)
        own = ahead & behind
        if behind != own:
            stack.append((behind & ~own, False))
        stack.append((own, True))
        if ahead != own:
            stack.append((ahead & ~own, False))
    return chain


def _modules_avoiding(m: int, v: int, out: list[int], inn: list[int]) -> list[int]:
    """P(m, v): the maximal modules of m without v, which partition m - v.

    Partition refinement: each work item is a part with the vertices it
    may still be split by.  A part that none of them splits is a module;
    a split sends each piece back with the rest of the part as splitters.
    """
    parts = []
    work = [(m & ~v, v)]
    while work:
        p, splitters = work.pop()
        if not p & (p - 1):
            parts.append(p)
            continue
        pieces = [p]
        while splitters:
            b = splitters & -splitters
            splitters ^= b
            i = b.bit_length() - 1
            xo, xi = out[i], inn[i]
            a, c = p & xo, p & xi
            if (not a or a == p) and (not c or c == p):
                continue  # splits no piece of p either
            cut = []
            for q in pieces:
                a = q & xo
                for h in ((a, q ^ a) if a and a != q else (q,)):
                    c = h & xi
                    if c and c != h:
                        cut += (c, h ^ c)
                    else:
                        cut.append(h)
            pieces = cut
        if len(pieces) == 1:
            parts.append(p)
        else:
            work.extend((q, p & ~q) for q in pieces)
    return parts


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


def _match_quotient(quotient: LabeledGraph, blocks: list[T],
                    sig: Optional[Signature]) -> tuple[SignatureOp, list[T]]:
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
    if g.n < 2:
        raise TooSmall("decomposition step needs at least 2 vertices")
    rows = Rows(g)
    case, blocks = rows.split((1 << g.n) - 1)
    if case is DecompositionCase.PRIME_QUOTIENT and sig is not None:
        try:
            _, blocks = _match_quotient(rows.quotient(blocks), blocks, sig)
        except NotInSignature:
            pass  # unmatched: keep the raw smallest-vertex block order
    return case, [rows.ids(b) for b in blocks]


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
    """Modular decomposition of a labeled graph, top down without recursion.

    With a signature, every prime quotient must match one of its operations
    (NotInSignature carries the quotient otherwise); without one, unmatched
    quotients become ad-hoc operations.
    """
    if g.n == 0:
        raise TooSmall("cannot decompose the empty graph")
    rows = Rows(g)
    verts, labels = rows.verts, g.labels
    top: list[MDecNode] = [None]
    inner: list[tuple[MDecNode, list[MDecNode]]] = []
    # each entry: a module and the slot of its node in the parent's list
    stack: list[tuple[int, list[MDecNode], int]] = [((1 << g.n) - 1, top, 0)]
    while stack:
        m, slot, pos = stack.pop()
        if not m & (m - 1):
            v = verts[m.bit_length() - 1]
            slot[pos] = MDecNode(frozenset((v,)), NodeKind.LEAF,
                                 symbol=labels[v] if labels is not None else None)
            continue
        case, blocks = rows.split(m)
        # modules of inner nodes are filled in bottom-up below
        if case is DecompositionCase.PRIME_QUOTIENT:
            op, blocks = _match_quotient(rows.quotient(blocks), blocks, sig)
            node = MDecNode(None, NodeKind.PRIME, op=op)
        else:
            node = MDecNode(None, _CASE_TO_KIND[case])
        slot[pos] = node
        kids: list[MDecNode] = [None] * len(blocks)
        inner.append((node, kids))
        stack.extend((blocks[i], kids, i) for i in reversed(range(len(blocks))))
    for node, kids in reversed(inner):
        node.children = tuple(kids)
        node.module = frozenset().union(*(c.module for c in kids))
    return MDecTree(top[0])


def fold_tree(root: MDecNode, combine: Callable[[MDecNode, list[T]], T]) -> T:
    """Bottom-up fold without recursion.

    ``combine(node, values)`` gets the values of the node's children in
    order; every child's whole subtree is folded before the next child's,
    left to right, as a recursive fold would.
    """
    # pre-order with children right to left, reversed: left-to-right post-order
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    values: dict[MDecNode, T] = {}
    pop = values.pop
    for node in reversed(order):
        kids = node.children
        values[node] = combine(node, [pop(c) for c in kids] if kids else [])
    return values[root]


def _binarize_node(node: MDecNode, kids: list[MDecNode]) -> MDecNode:
    if node.kind is NodeKind.SEQ and len(kids) >= 3:
        acc = MDecNode(kids[-2].module | kids[-1].module, NodeKind.SEQ,
                       (kids[-2], kids[-1]))
        for c in reversed(kids[1:-2]):
            acc = MDecNode(c.module | acc.module, NodeKind.SEQ, (c, acc))
        return MDecNode(node.module, NodeKind.SEQ, (kids[0], acc))
    return MDecNode(node.module, node.kind, tuple(kids), node.symbol, node.op)


def binarize(t: MDecTree) -> MDecPrimeTree:
    """Replace each seq node with >= 3 children by a right comb of seq nodes."""
    return MDecPrimeTree(fold_tree(t.root, _binarize_node))


_KIND_TO_OP = {NodeKind.PAR: PAR_OP, NodeKind.SEQ: SEQ_OP, NodeKind.CLIQUE: CLIQUE_OP}


def reconstruct(t: MDecTree, sig: Optional[Signature] = None) -> LabeledGraph:
    """Rebuild the concrete graph: vertex set is exactly the union of leaves."""
    edges: set[tuple[int, int]] = set()
    labels: Optional[dict[int, str]] = {}
    for node in t.nodes():
        if node.is_leaf:
            if node.symbol is None:
                labels = None
            elif labels is not None:
                (v,) = node.module
                labels[v] = node.symbol
            continue
        if node.kind is NodeKind.PRIME:
            if sig is not None and not sig.has_op(node.op.name):
                raise UnknownOp(f"operation {node.op.name!r} not in signature")
            op = node.op
        else:
            op = _KIND_TO_OP[node.kind]
        mods = [c.module for c in node.children]
        for (i, j) in edge_pattern(op, len(mods)):
            edges.update(itertools.product(mods[i - 1], mods[j - 1]))
    return LabeledGraph(t.root.module, frozenset(edges), labels)


def strong_modules(masks: list[int]) -> list[int]:
    """The modules among masks that overlap none of them.

    Given the whole module family, these are the strong modules, the
    full vertex set and the singletons included.
    """
    inner = [y for y in masks if y & (y - 1)]  # singletons overlap nothing
    return [x for x in masks
            if not x & (x - 1)
            or not any(x & y and x & ~y and y & ~x for y in inner)]


def all_modules(g: LabeledGraph) -> list[frozenset[int]]:
    """Every non-empty module of g, in lectic order (bit i for the i-th
    smallest id, ascending), each once.

    Output-sensitive, not polynomial: a par node with k children alone
    gives 2^k modules.
    """
    rows = Rows(g)
    return [rows.ids(m) for m in rows.modules()]


def brute_force_prime_modules(g: LabeledGraph) -> set[frozenset[int]]:
    """Prime (strong) modules by definition: proper modules overlapping
    none, filtered from the family of ``all_modules``."""
    rows = Rows(g)
    full = (1 << g.n) - 1
    return {rows.ids(x) for x in strong_modules(rows.modules()) if x != full}


def tree_prime_modules(t: MDecTree) -> set[frozenset[int]]:
    """The prime-module family encoded by a (non-binarized) tree."""
    return {n.module for n in t.nodes()} - {t.root.module}


def format_tree(t: MDecTree) -> str:
    """Indented text rendering, one node per line."""
    lines: list[str] = []
    stack = [(t.root, 0, False)]
    while stack:
        node, depth, first = stack.pop()
        ids = ",".join(map(str, sorted(node.module)))
        marker = " [first]" if first else ""
        lines.append("  " * depth + f"{node.label_str()} {{{ids}}}{marker}")
        seq = node.kind is NodeKind.SEQ
        stack.extend((c, depth + 1, seq and i == 0)
                     for i, c in reversed(list(enumerate(node.children))))
    return "\n".join(lines)


def _term_of(node: MDecNode, kids: list[Term]) -> Term:
    if node.is_leaf:
        if node.symbol is None:
            raise ValueError("an unlabeled tree has no term form")
        return Term.leaf(node.symbol)
    name = node.op.name if node.kind is NodeKind.PRIME else node.kind.value
    return Term.node(name, kids)


def tree_to_term(t: MDecTree) -> Term:
    """Re-serialize a tree of a labeled graph as a term."""
    return fold_tree(t.root, _term_of)


def shuffle_admissible(t: MDecTree, rng: Random) -> MDecTree:
    """Random admissible re-ordering: permuted par/clique children and
    automorphism images of prime enumerations; seq order is untouched."""

    def shuffle(node: MDecNode, kids: list[MDecNode]) -> MDecNode:
        if node.kind in (NodeKind.PAR, NodeKind.CLIQUE):
            rng.shuffle(kids)
        elif node.kind is NodeKind.PRIME:
            auts = node.op.symmetry.automorphisms
            if auts:
                sigma = rng.choice(auts + (Permutation.identity(node.op.graph.n),))
                kids = [kids[sigma(i) - 1] for i in range(1, len(kids) + 1)]
        return MDecNode(node.module, node.kind, tuple(kids), node.symbol, node.op)

    shuffled = fold_tree(t.root, shuffle)
    if isinstance(t, MDecPrimeTree):
        return MDecPrimeTree(shuffled)
    return MDecTree(shuffled)
