"""Modular decomposition: maximal prime modules, quotients, and the trees.

``decompose`` walks the tree top down with an explicit stack, on the
graph's bitmask adjacency rows, ``LabeledGraph.rows``, built once per
graph (bit i is the i-th smallest vertex id).
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
import operator
import zlib
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Callable, Optional, Sequence, TypeVar

from .errors import NotInSignature, TooSmall, UnknownOp, VertexNotInGraph
from .graphs import LabeledGraph, Permutation
from .signature import (CLIQUE_OP, PAR_OP, SEQ_OP, Signature, SignatureOp, Term,
                        edge_pattern, match_op, prime_op)

T = TypeVar("T")


class NodeKind(Enum):
    LEAF = "leaf"
    PAR = "par"
    SEQ = "seq"
    CLIQUE = "clique"
    PRIME = "prime"


class Rows:
    """Bitmask adjacency of one graph: bit i stands for the i-th smallest id.

    ``split(m)`` breaks the module with mask m into its maximal strong
    modules, and ``modules()`` lists every module, by mask operations on
    these rows alone.  ``bit`` maps each id to its bit, and ``out[i]`` and
    ``inn[i]`` are the out- and in-neighbours of the vertex of bit i.

    A graph keeps one set of rows, ``LabeledGraph.rows``.  ``Rows(g)``
    builds them in one pass over the edges, each edge OR-ing one
    endpoint's bit into the other endpoint's row, the rows kept in lists
    indexed by id when the ids are 1..n and in dicts by id otherwise.
    Graphs whose structure is known get rows built from it with no loop
    over the edges: ``signature.eval_term`` from the ranges of a term's
    subterms, ``Rows.of_tree`` from the children of a tree's nodes.  Both
    rest on one fact: a vertex's out-row (and in-row) is the disjoint
    union of one set of siblings per ancestor, the children its ancestor's
    operation links the child holding the vertex to.

    ``split`` remembers its answer for each mask it was asked about, in a
    dict on the rows that lives as long as they do: the rows never change
    once built, so a remembered answer is the one a fresh split gives.
    The answer is a tuple of the kind and a tuple of the blocks, so that
    no caller can change it.  A tree from ``decompose`` carries the rows
    and its masks (``MDecTree.rows``, ``MDecTree.masks``), and the kappa
    check verifies the tree against them, reading each split made.
    """

    __slots__ = ("verts", "bit", "out", "inn", "und", "co", "fwd", "bwd", "_splits")

    def __init__(self, g: LabeledGraph):
        verts = g.sorted_vertices()
        n = len(verts)
        if n and verts[0] == 1 and verts[-1] == n:
            bits = [0]
            bits += [1 << i for i in range(n)]
            out = [0] * (n + 1)
            inn = out.copy()
            for (u, v) in g.edges:
                out[u] |= bits[v]
                inn[v] |= bits[u]
            del bits[0], out[0], inn[0]
            self._fill(verts, dict(zip(verts, bits)), out, inn)
            return
        bit = {v: 1 << i for i, v in enumerate(verts)}
        # by vertex id, in the order of verts
        out = dict.fromkeys(verts, 0)
        inn = out.copy()
        for (u, v) in g.edges:
            out[u] |= bit[v]
            inn[v] |= bit[u]
        self._fill(verts, bit, list(out.values()), list(inn.values()))

    @classmethod
    def _of(cls, verts: list[int], out: list[int], inn: list[int]) -> "Rows":
        """The rows with the given out- and in-rows, for the sorted ids
        verts, without a look at any edge."""
        rows = cls.__new__(cls)
        rows._fill(verts, {v: 1 << i for i, v in enumerate(verts)}, out, inn)
        return rows

    def _fill(self, verts: list[int], bit: dict[int, int],
              out: list[int], inn: list[int]):
        self.verts, self.bit, self.out, self.inn = verts, bit, out, inn
        full = (1 << len(verts)) - 1
        # linked either way; not linked both ways
        self.und = list(map(operator.or_, out, inn))
        self.co = co = list(map(full.__xor__, map(operator.and_, out, inn)))
        # seq relation R: u R w unless u -> w is one-way, rows
        # full & ~(o & ~i) = co ^ o; its reverse
        self.fwd = list(map(operator.xor, co, out))
        self.bwd = list(map(operator.xor, co, inn))
        self._splits: dict[int, tuple[NodeKind, tuple[int, ...]]] = {}

    @classmethod
    def of_tree(cls, t: "MDecTree") -> Optional["Rows"]:
        """The rows of ``reconstruct(t)``, pushed down from the masks of
        t's children, with no graph built and no loop over edges.

        Each node adds to every vertex of its i-th child the children that
        its operation links child i to (and from); a vertex's row is what
        its ancestors add: O(nodes + n) mask operations on the masks that
        ``node_masks`` reads from the modules.  None when t is not a tree
        of modules as ``decompose`` builds them: a leaf with children or
        with more than one vertex, an inner node whose children's modules
        do not partition its own, or a prime node whose operation's arity
        is not its child count.
        """
        verts = sorted(t.root.module)
        n = len(verts)
        # rows with the ids' bits and no links yet, to read the masks over
        rows = cls._of(verts, [], [])
        masks = node_masks(t, rows)
        if masks is None:
            return None
        out = [0] * n
        inn = out.copy()
        # what the ancestors of each node add, by preorder position
        adds = [(0, 0)] * len(masks)
        down = t.child_positions()
        for p, node in enumerate(t.nodes()):
            m, kids, (o, i) = masks[p], down[p], adds[p]
            if node.kind is NodeKind.LEAF:
                if kids or not m or m & (m - 1):
                    return None
                j = m.bit_length() - 1
                out[j], inn[j] = o, i
                continue
            km = [masks[c] for c in kids]
            # non-empty masks adding up to m partition it when the sum has
            # no carries, that is when their bit counts add up to m's
            if 0 in km or sum(km) != m or sum(map(int.bit_count, km)) != m.bit_count():
                return None
            k = len(km)
            if node.kind is NodeKind.PAR:
                add_out = add_in = [0] * k
            elif node.kind is NodeKind.CLIQUE:
                add_out = add_in = [m ^ x for x in km]
            elif node.kind is NodeKind.SEQ:
                # each child links to the children after it
                add_in = list(itertools.accumulate(km[:-1], operator.or_, initial=0))
                add_out = [m ^ x ^ y for x, y in zip(km, add_in)]
            else:
                op = node.op
                if op is None or op.graph.n != k:
                    return None
                add_out, add_in = [0] * k, [0] * k
                for (a, b) in op.graph.edges:
                    add_out[a - 1] |= km[b - 1]
                    add_in[b - 1] |= km[a - 1]
            for c, ao, ai in zip(kids, add_out, add_in):
                adds[c] = (o | ao, i | ai)
        rows._fill(verts, rows.bit, out, inn)
        return rows

    def ids(self, m: int) -> frozenset[int]:
        verts = self.verts
        out = []
        while m:
            b = m & -m
            out.append(verts[b.bit_length() - 1])
            m ^= b
        return frozenset(out)

    def mask(self, ids) -> int:
        bit = self.bit
        m = 0
        try:
            for v in ids:
                m |= bit[v]
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

    def split(self, m: int) -> tuple[NodeKind, tuple[int, ...]]:
        """The node kind of module m and its maximal strong modules.

        par and clique blocks come by smallest vertex, seq blocks in chain
        order, prime blocks by smallest vertex.  Remembered per mask.
        """
        found = self._splits.get(m)
        if found is None:
            found = self._splits[m] = self._split(m)
        return found

    def _split(self, m: int) -> tuple[NodeKind, tuple[int, ...]]:
        blocks = _components(m, self.und)
        if len(blocks) > 1:
            return NodeKind.PAR, tuple(blocks)
        blocks = _components(m, self.co)
        if len(blocks) > 1:
            return NodeKind.CLIQUE, tuple(blocks)
        blocks = _chain(m, self.fwd, self.bwd)
        if len(blocks) > 1:
            return NodeKind.SEQ, tuple(blocks)
        return NodeKind.PRIME, tuple(self._prime_blocks(m))

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
        of the blocks' smallest vertices.

        Each representative's out-row, masked by the set of
        representatives, gives that block's quotient edges, one per bit.
        Built without the constructor's checks: one representative per
        block, so no self-loops, and every endpoint lies in 1..k."""
        reps = [(b & -b).bit_length() - 1 for b in blocks]
        sel = 0
        for r in reps:
            sel |= 1 << r
        # block number by the bit_length of its representative's bit
        at = [0] * (sel.bit_length() + 1)
        for j, r in enumerate(reps, 1):
            at[r + 1] = j
        out = self.out
        edges = []
        add = edges.append
        for i, r in enumerate(reps, 1):
            row = out[r] & sel
            while row:
                b = row & -row
                add((i, at[b.bit_length()]))
                row ^= b
        return LabeledGraph._trusted(frozenset(range(1, len(blocks) + 1)),
                                     frozenset(edges), None)


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
    The splitters of a part stop once its pieces are all singletons.
    """
    parts = []
    work = [(m & ~v, v)]
    while work:
        p, splitters = work.pop()
        if not p & (p - 1):
            parts.append(p)
            continue
        pieces = [p]
        k = p.bit_count()
        while splitters and len(pieces) < k:
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


# the digits "0" and "1" as the bytes 0 and 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _adhoc_name(q: LabeledGraph) -> str:
    """The name of the ad-hoc operation of a prime quotient q on 1..k:
    ``prime<k>_<h>``, where h is 16 hex digits, the CRC-32 and then the
    Adler-32 of q's k-by-k adjacency matrix, row by row, one byte (0 or
    1) per entry.  Its size does not grow with the edges, and equal
    quotients get equal names in every process.  Distinct quotients of
    one size share a name only if both checksums collide.

    The matrix is read off q's rows, one row at a time: bit j of a row is
    its (j+1)-th entry, so the row's binary digits, reversed, are the
    entries in order."""
    k = q.n
    digits = f"0{k}b"
    matrix = "".join([format(row, digits)[::-1] for row in q.rows.out]
                     ).encode().translate(_DIGIT_BYTES)
    return f"prime{k}_{zlib.crc32(matrix):08x}{zlib.adler32(matrix):08x}"


def _match_quotient(quotient: LabeledGraph, blocks: list[T],
                    ops: Optional[Sequence[SignatureOp]],
                    ) -> tuple[SignatureOp, list[T]]:
    """Resolve a prime quotient to one of the prime operations and an
    admissible block order; without operations, to an ad-hoc one."""
    if ops is not None:
        matched = match_op(ops, quotient)
        if matched is None:
            raise NotInSignature(
                f"prime quotient on {quotient.n} vertices matches no operation "
                "of the signature", quotient=quotient)
        op, sigma = matched
        return op, [blocks[sigma(i) - 1] for i in range(1, quotient.n + 1)]
    return prime_op(_adhoc_name(quotient), quotient, check_prime=False), blocks


@dataclass(eq=False)
class MDecNode:
    """Tree node: a module of the decomposed graph with its product label.

    For prime nodes the child order is one admissible enumeration of the
    operation's arguments; any automorphism image of it is equally valid.
    A node may belong to more than one tree (``binarize`` shares subtrees
    with its input), so a built node is never edited: make a new one.
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
    """Decomposition tree; leaves are the singletons of the vertex set.

    A node's id is its preorder position in ``nodes()``, as in
    ``cms.tree_structure``: ``parent_positions()``, ``child_positions()``
    and ``masks`` are by position.  ``decompose`` and ``binarize`` record
    all of them and ``leaf_of``, each vertex's leaf in preorder, as they
    build the nodes; any other tree gets them from one walk at
    construction.  Children re-assigned later are not seen by the tree,
    and a tree from ``binarize`` shares with its input every subtree that
    holds no seq node of three or more children, so build new nodes
    instead of editing built ones.

    ``rows`` are the rows of the graph the tree was split from and
    ``masks`` its modules' bitmasks over them: ``decompose`` records each
    mask as it splits it and ``binarize`` derives those of the comb nodes
    it adds.  Any other tree has no masks, and a hand-built one no rows;
    ``node_masks`` reads its masks from the modules.  Both are a hint,
    not a claim: ``transduction.check_kappa_lemma`` verifies the tree
    against them first, and on a tree that fails, or has none, it takes
    the rows of ``reconstruct(t)`` instead.
    """

    root: MDecNode
    rows: Optional[Rows] = field(default=None, repr=False)

    def __post_init__(self):
        nodes: list[MDecNode] = []
        up: list[Optional[int]] = []
        leaves: dict[int, MDecNode] = {}
        # each entry: a node and its parent's position
        stack: list[tuple[MDecNode, Optional[int]]] = [(self.root, None)]
        while stack:
            node, p = stack.pop()
            i = len(nodes)
            nodes.append(node)
            up.append(p)
            if node.kind is NodeKind.LEAF:
                (v,) = node.module
                leaves[v] = node
            stack.extend([(c, i) for c in reversed(node.children)])
        self._nodes, self._up, self._down = tuple(nodes), up, None
        self.leaf_of = leaves
        self.masks: Optional[tuple[int, ...]] = None

    @classmethod
    def _made(cls, root: MDecNode, rows: Optional[Rows], nodes: tuple[MDecNode, ...],
              up: list[Optional[int]], down: Optional[list[list[int]]],
              leaves: dict[int, MDecNode], masks: Optional[tuple[int, ...]]) -> "MDecTree":
        """The tree with the index form its builder recorded, without the
        walk and the checks of ``__post_init__``."""
        t = cls.__new__(cls)
        t.root, t.rows = root, rows
        t._nodes, t._up, t._down, t.leaf_of, t.masks = nodes, up, down, leaves, masks
        return t

    def nodes(self) -> tuple[MDecNode, ...]:
        """Every node in preorder, children left to right."""
        return self._nodes

    def parent_positions(self) -> list[Optional[int]]:
        """The position of every node's parent, None for the root."""
        return self._up

    def child_positions(self) -> list[list[int]]:
        """The positions of every node's children, left to right."""
        if self._down is None:
            self._down = [[] for _ in self._up]
            for i, p in enumerate(self._up[1:], 1):
                self._down[p].append(i)
        return self._down

    def parents(self) -> dict[MDecNode, MDecNode]:
        """The parent of every node but the root."""
        nodes = self._nodes
        return {nodes[c]: node for node, kids in zip(nodes, self.child_positions())
                for c in kids}


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


def decompose(g: LabeledGraph, sig: Optional[Signature] = None) -> MDecTree:
    """Modular decomposition of a labeled graph, top down without recursion.

    With a signature, every prime quotient must match one of its operations
    (NotInSignature carries the quotient otherwise); without one, unmatched
    quotients become ad-hoc operations.
    """
    return _decompose(g, g.rows, None if sig is None else sig.prime_ops)


def _decompose(g: LabeledGraph, rows: Rows,
               ops: Optional[Sequence[SignatureOp]]) -> MDecTree:
    """``decompose`` on the rows of g, prime quotients matched against ops
    (ad-hoc operations when ops is None).  Modules are split in preorder,
    and the tree's index form and masks are recorded as they are popped.

    A prime split of ids 1..n into singletons has g itself, unlabeled, as
    its quotient: the operation's graph shares g's edges and rows."""
    if g.n == 0:
        raise TooSmall("cannot decompose the empty graph")
    verts, labels = rows.verts, g.labels
    on_range = verts[-1] == g.n
    nodes: list[MDecNode] = []
    up: list[Optional[int]] = []
    down: list[list[int]] = []
    leaves: dict[int, MDecNode] = {}
    masks: list[int] = []
    inner: list[int] = []
    # each entry: a module and its parent's position
    stack: list[tuple[int, Optional[int]]] = [((1 << g.n) - 1, None)]
    while stack:
        m, p = stack.pop()
        i = len(nodes)
        up.append(p)
        down.append([])
        masks.append(m)
        if p is not None:
            down[p].append(i)
        if not m & (m - 1):
            v = verts[m.bit_length() - 1]
            nodes.append(MDecNode(frozenset((v,)), NodeKind.LEAF,
                                  symbol=labels[v] if labels is not None else None))
            leaves[v] = nodes[i]
            continue
        kind, blocks = rows.split(m)
        # modules of inner nodes are filled in bottom-up below
        if kind is NodeKind.PRIME:
            if on_range and len(blocks) == g.n:
                quotient = LabeledGraph._trusted(g.vertices, g.edges, None, rows)
            else:
                quotient = rows.quotient(blocks)
            op, blocks = _match_quotient(quotient, blocks, ops)
            nodes.append(MDecNode(None, kind, op=op))
        else:
            nodes.append(MDecNode(None, kind))
        inner.append(i)
        stack.extend([(b, i) for b in reversed(blocks)])
    for i in reversed(inner):
        node = nodes[i]
        node.children = kids = tuple([nodes[c] for c in down[i]])
        node.module = frozenset().union(*[c.module for c in kids])
    return MDecTree._made(nodes[0], rows, tuple(nodes), up, down, leaves, tuple(masks))


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


def binarize(t: MDecTree) -> MDecPrimeTree:
    """Replace each seq node with >= 3 children by a right comb of seq nodes.

    One pass over t's positions in preorder: a comb node goes in ahead of
    each middle child, holding it and the children after it, and its mask
    is its parent's mask without its previous sibling's.  Every node whose
    subtree holds no such seq node is t's own, so the result shares those
    subtrees with t; the others are new.  The result carries t's rows, and
    its masks when t has them.  A seq node with fewer than two children,
    or a seq child in any place but the last, raises ValueError, as
    ``MDecPrimeTree`` does.
    """
    nodes, up, down = t.nodes(), t.parent_positions(), t.child_positions()
    seq = NodeKind.SEQ
    # the seq nodes of >= 3 children and their ancestors, the nodes made anew
    changed: set[int] = set()
    for p, node in enumerate(nodes):
        if node.kind is seq:
            q = up[p]
            if q is not None and nodes[q].kind is seq and down[q][-1] != p:
                raise ValueError("first child of a seq node must not be seq")
            k = len(down[p])
            if k < 2:
                raise ValueError("seq node in a binarized tree must have 2 children")
            while k > 2 and p is not None and p not in changed:
                changed.add(p)
                p = up[p]
    masks = t.masks
    if not changed:
        return MDecPrimeTree._made(t.root, t.rows, nodes, up, down, t.leaf_of, masks)
    made: list[Optional[MDecNode]] = []  # t's node, or None for a comb node
    made_up: list[Optional[int]] = []
    made_masks: list[int] = []  # zeros when t has no masks
    t_masks = masks if masks is not None else [0] * len(nodes)
    # the children of every new node, by position in the result
    kids_of: dict[int, list[int]] = {}
    at = [0] * len(nodes)  # position in the result, by position in t
    comb: dict[int, int] = {}  # wide node -> position of its latest comb
    for p, node in enumerate(nodes):
        q = up[p]
        parent = None if q is None else at[q]
        if q in comb and p != down[q][0]:
            parent = comb[q]
            if p != down[q][-1]:
                i = comb[q] = len(made)
                made.append(None)
                made_up.append(parent)
                made_masks.append(made_masks[parent] ^ made_masks[kids_of[parent][0]])
                kids_of[parent].append(i)
                kids_of[i] = []
                parent = i
        i = at[p] = len(made)
        made.append(node)
        made_up.append(parent)
        made_masks.append(t_masks[p])
        if parent in kids_of:
            kids_of[parent].append(i)
        if p in changed:
            kids_of[i] = []
            if node.kind is seq and len(down[p]) > 2:
                comb[p] = i
    for i in reversed(kids_of):
        kids = tuple([made[c] for c in kids_of[i]])
        node = made[i]
        if node is None:
            made[i] = MDecNode(kids[0].module | kids[1].module, seq, kids)
        else:
            made[i] = MDecNode(node.module, node.kind, kids, node.symbol, node.op)
    return MDecPrimeTree._made(made[0], t.rows, tuple(made), made_up, None, t.leaf_of,
                               None if masks is None else tuple(made_masks))


def node_masks(t: MDecTree, rows: Rows) -> Optional[Sequence[int]]:
    """The bitmask over rows of every node's module, in preorder: the
    masks t carries when rows are its own, else each read from the node's
    module once.  None when a module holds a vertex outside rows."""
    if rows is t.rows and t.masks is not None:
        return t.masks
    read = rows.bit.__getitem__
    try:
        return [sum(map(read, node.module)) for node in t.nodes()]
    except KeyError:
        return None


def verify_binarized(t: MDecTree, rows: Rows, ops: Sequence[SignatureOp],
                     ) -> Optional[Sequence[int]]:
    """Whether t is ``binarize(_decompose(g, rows, ops))`` for the graph g of
    rows, up to leaf symbols, the order of par and clique children and the
    choice of admissible enumeration at prime nodes.

    ops must hold one operation per isomorphism class, as a signature does.
    Each node's mask comes from ``node_masks``, and each inner node is
    checked against one ``split`` of that mask: par, clique and prime
    nodes must match in kind and in child masks as a set, and a prime
    node's quotient in t's child order must have exactly the edges of its
    operation, one of ops; a seq node must split as its first child plus a
    second child holding the rest of the chain, which is checked in turn
    on the blocks already found.  Gives the masks when it is, else None.
    """
    masks = node_masks(t, rows)
    if masks is None or not masks[0] or masks[0] != (1 << len(rows.verts)) - 1:
        return None
    out = rows.out
    # comb nodes, by position: the chain blocks their seq parent's split gave
    rest: dict[int, tuple[int, ...]] = {}
    for p, (node, kids) in enumerate(zip(t.nodes(), t.child_positions())):
        m, kind = masks[p], node.kind
        if not m & (m - 1):
            if kind is not NodeKind.LEAF or kids:
                return None
            continue
        km = [masks[c] for c in kids]
        chain = rest.pop(p, None)
        split, blocks = (NodeKind.SEQ, chain) if chain else rows.split(m)
        if kind is not split:
            return None
        if kind is NodeKind.SEQ:
            if len(kids) != 2 or km[0] != blocks[0] or km[1] != m & ~blocks[0]:
                return None
            if len(blocks) > 2:
                rest[kids[1]] = blocks[1:]
        elif len(kids) != len(blocks) or set(km) != set(blocks):
            return None
        elif kind is NodeKind.PRIME:
            op = node.op
            if op not in ops or op.graph.n != len(kids):
                return None
            reps = [(b & -b).bit_length() - 1 for b in km]
            if {(i, j) for i, r in enumerate(reps, 1)
                    for j, s in enumerate(reps, 1)
                    if out[r] >> s & 1} != op.graph.edges:
                return None
    return masks


_KIND_TO_OP = {NodeKind.PAR: PAR_OP, NodeKind.SEQ: SEQ_OP, NodeKind.CLIQUE: CLIQUE_OP}


def reconstruct(t: MDecTree, sig: Optional[Signature] = None) -> LabeledGraph:
    """Rebuild the concrete graph: vertex set is exactly the union of leaves."""
    edges: set[tuple[int, int]] = set()
    labels: Optional[dict[int, str]] = {}
    names = None if sig is None else {op.name for op in sig.ops}
    for node in t.nodes():
        if node.is_leaf:
            if node.symbol is None:
                labels = None
            elif labels is not None:
                (v,) = node.module
                labels[v] = node.symbol
            continue
        if node.kind is NodeKind.PRIME:
            op = node.op
            if names is not None and op.name not in names:
                raise UnknownOp(f"operation {op.name!r} not in signature")
        else:
            op = _KIND_TO_OP[node.kind]
        mods = [c.module for c in node.children]
        for (i, j) in edge_pattern(op, len(mods)):
            edges.update(itertools.product(mods[i - 1], mods[j - 1]))
    return LabeledGraph._trusted(t.root.module, frozenset(edges), labels)


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
    rows = g.rows
    return [rows.ids(m) for m in rows.modules()]


def brute_force_prime_modules(g: LabeledGraph) -> set[frozenset[int]]:
    """Prime (strong) modules by definition: proper modules overlapping
    none, filtered from the family of ``all_modules``."""
    rows = g.rows
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
