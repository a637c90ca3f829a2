"""Graph composition operations, term evaluation and weak rigidity.

An n-vertex concrete graph H on 1..n acts as an n-ary operation: compose
takes the disjoint union of the operands and adds, for every edge (i,j)
of H, all edges from operand i to operand j.  The three 2-vertex graphs
give the parallel (par), sequential (seq) and clique products; prime
graphs with >= 3 vertices give everything else.
"""

from __future__ import annotations

import functools
import itertools
import operator
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, TypeVar

from .errors import (ArityMismatch, NotWeaklyRigid, OverlappingOperands,
                     TooSmall, UnknownOp, UnknownSymbol)
from .graphs import (Alphabet, LabeledGraph, Permutation, automorphism_group,
                     find_isomorphism, is_module)

T = TypeVar("T")


class OpKind(Enum):
    PARALLEL = "par"
    SEQUENTIAL = "seq"
    CLIQUE = "clique"
    PRIME = "prime"


BUILTIN_NAMES = ("par", "seq", "clique")

# the 2-vertex graphs behind the three built-in products
H_PAR = LabeledGraph.on_range(2, [])
H_SEQ = LabeledGraph.on_range(2, [(1, 2)])
H_CLIQUE = LabeledGraph.on_range(2, [(1, 2), (2, 1)])


def is_prime(h: LabeledGraph) -> bool:
    """True iff every module of h is a singleton or the full vertex set."""
    if h.n < 2:
        raise TooSmall("primality needs at least 2 vertices")
    verts = h.sorted_vertices()
    for size in range(2, h.n):
        for x in itertools.combinations(verts, size):
            if is_module(h, x):
                return False
    return True


@dataclass(frozen=True)
class OpSymmetry:
    """The automorphism group of an operation graph, in the forms used.

    ``automorphisms`` lists the non-identity automorphisms sorted by image;
    each is one argument-permutation equation of the operation.  ``orbits``
    partitions 1..n, sorted by smallest vertex.  ``distinguished`` is the
    orbit of vertex 1, or None when the group is transitive, that is when
    the operation is not weakly rigid.
    """

    automorphisms: tuple[Permutation, ...]
    orbits: tuple[frozenset[int], ...]
    distinguished: Optional[frozenset[int]]

    def enumerations(self, args: Sequence[T]) -> list[tuple[T, ...]]:
        """The distinct admissible argument orders of args: args itself,
        then its images under the automorphisms, in their order."""
        orders = [tuple(args)] + [tuple(args[i - 1] for i in sigma.image)
                                  for sigma in self.automorphisms]
        return list(dict.fromkeys(orders))


# Keyed on the graph by value and held weakly: one search per live graph,
# and an entry goes when the graph it was stored under does.
_symmetries: "weakref.WeakKeyDictionary[LabeledGraph, OpSymmetry]" = \
    weakref.WeakKeyDictionary()


def _symmetry_of(h: LabeledGraph) -> OpSymmetry:
    sym = _symmetries.get(h)
    if sym is None:
        aut = automorphism_group(h, max_vertices=None)
        auts = sorted((p for p in aut.elements if not p.is_identity()),
                      key=lambda p: p.image)
        dist = aut.orbits[0] if len(aut.orbits) > 1 else None
        sym = _symmetries[h] = OpSymmetry(tuple(auts), aut.orbits, dist)
    return sym


@dataclass(frozen=True)
class SignatureOp:
    """One operation: a built-in product or a concrete prime graph on 1..n."""

    name: str
    kind: OpKind
    graph: Optional[LabeledGraph] = None

    def __post_init__(self):
        if self.kind is OpKind.PRIME:
            if self.graph is None:
                raise ValueError("prime operation needs its defining graph")
            g = self.graph
            if g.vertices != frozenset(range(1, g.n + 1)):
                raise ValueError("prime operation graph must live on 1..n")
            if g.labels is not None:
                raise ValueError("prime operation graphs are unlabeled syntax")
            if g.n < 3:
                raise ValueError("prime operations need at least 3 vertices")
        else:
            if self.graph is not None:
                raise ValueError("built-in operations carry no graph payload")
            if self.name not in BUILTIN_NAMES or self.name != self.kind.value:
                raise ValueError(f"built-in operation must be named {self.kind.value!r}")

    @property
    def arity(self) -> Optional[int]:
        """Exact arity for prime operations; None for the variadic built-ins."""
        return self.graph.n if self.kind is OpKind.PRIME else None

    def op_graph(self) -> LabeledGraph:
        """The concrete graph defining this operation (2-vertex for built-ins)."""
        if self.kind is OpKind.PARALLEL:
            return H_PAR
        if self.kind is OpKind.SEQUENTIAL:
            return H_SEQ
        if self.kind is OpKind.CLIQUE:
            return H_CLIQUE
        return self.graph

    @property
    def symmetry(self) -> OpSymmetry:
        """Automorphisms of the operation graph, searched on first use."""
        return _symmetry_of(self.op_graph())

    def __str__(self):
        return self.name


PAR_OP = SignatureOp("par", OpKind.PARALLEL)
SEQ_OP = SignatureOp("seq", OpKind.SEQUENTIAL)
CLIQUE_OP = SignatureOp("clique", OpKind.CLIQUE)


def prime_op(name: str, graph: LabeledGraph, check_prime: bool = True) -> SignatureOp:
    if check_prime and not is_prime(graph):
        raise ValueError(f"graph of operation {name!r} is not prime")
    return SignatureOp(name, OpKind.PRIME, graph)


@dataclass(frozen=True)
class Signature:
    """Finite list of operations over a fixed alphabet.

    Holds at most one concrete representative per isomorphism class of
    prime graphs; enforced pairwise at construction.
    """

    alphabet: Alphabet
    ops: tuple[SignatureOp, ...]

    def __post_init__(self):
        names = [op.name for op in self.ops]
        if len(set(names)) != len(names):
            raise ValueError("operation names must be distinct")
        primes = self.prime_ops
        for k, b in enumerate(primes):
            twin = match_op(primes[:k], b.graph)
            if twin is not None:
                raise ValueError(
                    f"prime operations {twin[0].name!r} and {b.name!r} are "
                    "isomorphic; keep one representative per isomorphism class")

    def op(self, name: str) -> SignatureOp:
        for op in self.ops:
            if op.name == name:
                return op
        raise UnknownOp(f"operation {name!r} not in signature")

    def has_op(self, name: str) -> bool:
        return name in self._op_names

    # a signature is frozen, so what is derived from it is derived once
    @functools.cached_property
    def _op_names(self) -> frozenset[str]:
        return frozenset(op.name for op in self.ops)

    @functools.cached_property
    def rigidity(self) -> "WeakRigidityReport":
        """``validate_weakly_rigid_signature(self)``, computed on first use."""
        return validate_weakly_rigid_signature(self)

    @property
    def prime_ops(self) -> tuple[SignatureOp, ...]:
        return tuple(op for op in self.ops if op.kind is OpKind.PRIME)

    def builtin(self, kind: OpKind) -> Optional[SignatureOp]:
        for op in self.ops:
            if op.kind is kind:
                return op
        return None


# operation graph -> edge set of a quotient on 1..n -> the isomorphism
# found for it; keyed and held like _symmetries
_matches: "weakref.WeakKeyDictionary[LabeledGraph, dict[frozenset, Permutation]]" = \
    weakref.WeakKeyDictionary()


def match_op(ops: Iterable[SignatureOp], quotient: LabeledGraph,
             ) -> Optional[tuple[SignatureOp, Permutation]]:
    """The first prime op isomorphic to the quotient, with the witnessing map.

    The permutation maps vertices of the op graph onto vertices of the
    quotient (edge pattern carried exactly).

    A quotient on 1..n is first looked up in a cache per operation graph,
    keyed on the graph by value and held weakly like the symmetry table:
    an entry goes when the operation graph it was stored under does.  It
    maps the quotient's edge set to the isomorphism the search found and
    holds hits only, so it keeps at most n!/|Aut| entries per operation
    graph, one per labelled copy; a miss searches again.  The search is
    deterministic in the values of the two graphs, so a cached answer is
    the one a cold search gives.  A quotient on any other vertex set is
    searched without the cache.
    """
    on_range = quotient.vertices == frozenset(range(1, quotient.n + 1))
    for op in ops:
        h = op.graph
        if h.n != quotient.n:
            continue
        if on_range:
            found = _matches.get(h)
            if found is None:
                found = _matches[h] = {}
            sigma = found.get(quotient.edges)
            if sigma is not None:
                return op, sigma
        sigma = find_isomorphism(h, quotient, respect_labels=False,
                                 max_vertices=None)
        if sigma is not None:
            if on_range:
                found[quotient.edges] = sigma
            return op, sigma
    return None


_stored_hash = operator.attrgetter("_hash")


@dataclass(frozen=True, eq=False, init=False)
class Term:
    """Term over a signature: leaf(symbol) or node(op name, children).

    The variadic built-ins are kept flattened: a seq node never has a seq
    child, and likewise for par and clique.  Terms compare by structure;
    each hashes once at construction from its children's stored hashes,
    and equality, ``leaves``, ``str`` and ``repr`` walk with explicit
    stacks, so terms of any depth work without recursion.
    """

    op: Optional[str]
    symbol: Optional[str]
    children: tuple["Term", ...]

    def __init__(self, op: Optional[str], symbol: Optional[str],
                 children: tuple["Term", ...]):
        # frozen, so the fields go straight into the instance dict
        d = self.__dict__
        d["op"] = op
        d["symbol"] = symbol
        d["children"] = children
        d["_hash"] = hash((op, symbol, *map(_stored_hash, children)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (a._hash != b._hash or a.op != b.op or a.symbol != b.symbol
                    or len(a.children) != len(b.children)):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    @staticmethod
    def leaf(symbol: str) -> "Term":
        return Term(None, symbol, ())

    @staticmethod
    def node(op: str, children: Sequence["Term"]) -> "Term":
        kids: list[Term] = []
        for c in children:
            if op in BUILTIN_NAMES and c.op == op:
                kids.extend(c.children)
            else:
                kids.append(c)
        return Term(op, None, tuple(kids))

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    def leaves(self) -> list[str]:
        out = []
        stack = [self]
        while stack:
            t = stack.pop()
            if t.is_leaf:
                out.append(t.symbol)
            else:
                stack.extend(reversed(t.children))
        return out

    def __repr__(self):
        # the dataclass repr, written with an explicit stack
        parts = []
        stack: list = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                parts.append(t)
                continue
            kids = t.children
            parts.append(f"{type(t).__qualname__}(op={t.op!r}, symbol={t.symbol!r}, "
                         "children=(")
            stack.append(",))" if len(kids) == 1 else "))")
            for i in range(len(kids) - 1, -1, -1):
                stack.append(kids[i])
                if i:
                    stack.append(", ")
        return "".join(parts)

    def __str__(self):
        parts = []
        # a string item is emitted as is; a term item opens its text
        stack: list = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                parts.append(t)
            elif t.is_leaf:
                parts.append(t.symbol)
            else:
                head = t.op if t.op in BUILTIN_NAMES else f"prime {t.op}"
                parts.append("(" + head)
                stack.append(")")
                for c in reversed(t.children):
                    stack.append(c)
                    stack.append(" ")
        return "".join(parts)


def compose_graph(h: LabeledGraph, operands: Sequence[LabeledGraph],
                  relabel: bool = True) -> LabeledGraph:
    """Composition by an arbitrary concrete graph h on 1..n.

    With relabel=True the operands are renumbered onto consecutive ids
    (operand i offset by the running vertex count), making evaluation
    reproducible; with relabel=False the operand vertex sets must already
    be pairwise disjoint and are kept as-is.
    """
    n = h.n
    if len(operands) != n:
        raise ArityMismatch(f"operation expects {n} operands, got {len(operands)}")
    if h.vertices != frozenset(range(1, n + 1)):
        raise ValueError("operation graph must live on 1..n")

    if relabel:
        parts = []
        offset = 0
        for g in operands:
            ren = {v: offset + k for k, v in enumerate(g.sorted_vertices(), start=1)}
            parts.append((frozenset(ren.values()),
                          {(ren[u], ren[v]) for (u, v) in g.edges},
                          {ren[v]: g.labels[v] for v in g.vertices}
                          if g.labels is not None else None))
            offset += g.n
    else:
        seen: set[int] = set()
        parts = []
        for g in operands:
            if g.vertices & seen:
                raise OverlappingOperands(
                    f"operands share vertex ids {sorted(g.vertices & seen)}")
            seen |= g.vertices
            parts.append((g.vertices, set(g.edges), dict(g.labels) if g.labels else None))

    vertices: set[int] = set()
    edges: set[tuple[int, int]] = set()
    labels: Optional[dict[int, str]] = {} if all(p[2] is not None for p in parts) else None
    for verts, es, labs in parts:
        vertices |= verts
        edges |= es
        if labels is not None:
            labels.update(labs)
    for (i, j) in h.edges:
        edges |= set(itertools.product(parts[i - 1][0], parts[j - 1][0]))
    return LabeledGraph._trusted(frozenset(vertices), frozenset(edges), labels)


def edge_pattern(op: SignatureOp, k: int) -> Iterable[tuple[int, int]]:
    """Edges (i, j) on 1..k along which op applied to k arguments links
    argument i to argument j: the chain for seq, none for par, all pairs
    for clique, the operation graph for a prime op."""
    if op.kind is OpKind.PRIME:
        return op.graph.edges
    if op.kind is OpKind.PARALLEL:
        return ()
    if op.kind is OpKind.SEQUENTIAL:
        return [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    return [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]


def _check_arity(op: SignatureOp, k: int):
    if op.kind is OpKind.PRIME:
        if k != op.graph.n:
            raise ArityMismatch(f"operation expects {op.graph.n} operands, got {k}")
    elif k < 2:
        raise ArityMismatch(f"{op.name} expects at least 2 operands")


def compose(op: SignatureOp, operands: Sequence[LabeledGraph],
            relabel: bool = True) -> LabeledGraph:
    """Apply a signature operation; the built-ins accept >= 2 operands."""
    if op.kind is OpKind.PRIME:
        return compose_graph(op.graph, operands, relabel=relabel)
    _check_arity(op, len(operands))
    h = LabeledGraph.on_range(len(operands), edge_pattern(op, len(operands)))
    return compose_graph(h, operands, relabel=relabel)


def eval_term(sig: Signature, t: Term) -> LabeledGraph:
    """Evaluate a term into a concrete labeled graph, without recursion.

    Leaves are numbered 1..n from left to right, so every subterm owns a
    contiguous range of ids; each node adds its operation's edge pattern
    between its children's ranges.  The result equals the bottom-up fold
    of ``compose``.

    The graph comes with its rows (``LabeledGraph.rows``), built from the
    ranges with no loop over the edges.  A node adds to the rows of every
    vertex of a child the ranges its operation links that child to (or
    from), and a vertex's row is what its ancestors add, one disjoint set
    each.  Adding a mask to a range is a toggle at each end of the range
    in a difference array, whose prefix XORs are the rows: O(nodes + n)
    mask operations in all.  Under seq and clique the toggles of
    neighbouring children mostly cancel, leaving each child's mask at its
    ends and the node's mask at the node's ends.
    """
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    ranges: list[range] = []  # one per finished subterm, in order
    # difference arrays of the out- and in-rows, by vertex id; the entry
    # past the last leaf so far takes toggles at the end of a range
    d_out, d_in = [0, 0], [0, 0]
    stack: list[tuple[Term, Optional[SignatureOp]]] = [(t, None)]
    while stack:
        term, op = stack.pop()
        if op is not None:  # all children done
            k = len(term.children)
            _check_arity(op, k)
            kids = ranges[len(ranges) - k:]
            del ranges[len(ranges) - k:]
            for (i, j) in edge_pattern(op, k):
                edges.extend(itertools.product(kids[i - 1], kids[j - 1]))
            start, stop = kids[0].start, kids[-1].stop
            kind = op.kind
            if kind is OpKind.PRIME:
                masks = [(1 << (r.stop - 1)) - (1 << (r.start - 1)) for r in kids]
                for (i, j) in op.graph.edges:
                    a, b = kids[i - 1], kids[j - 1]
                    d_out[a.start] ^= masks[j - 1]
                    d_out[a.stop] ^= masks[j - 1]
                    d_in[b.start] ^= masks[i - 1]
                    d_in[b.stop] ^= masks[i - 1]
            elif kind is not OpKind.PARALLEL:
                # seq: each child is linked to the children after it, and
                # from those before it; clique: to and from all the others
                whole = (1 << (stop - 1)) - (1 << (start - 1))
                d_out[start] ^= whole
                d_in[stop] ^= whole
                clique = kind is OpKind.CLIQUE
                if clique:
                    d_out[stop] ^= whole
                    d_in[start] ^= whole
                for r in kids:
                    m = (1 << (r.stop - 1)) - (1 << (r.start - 1))
                    d_out[r.start] ^= m
                    d_in[r.stop] ^= m
                    if clique:
                        d_out[r.stop] ^= m
                        d_in[r.start] ^= m
            ranges.append(range(start, stop))
        elif term.is_leaf:
            if term.symbol not in sig.alphabet:
                raise UnknownSymbol(f"symbol {term.symbol!r} not in alphabet")
            v = len(labels) + 1
            labels[v] = term.symbol
            ranges.append(range(v, v + 1))
            d_out.append(0)
            d_in.append(0)
        else:
            stack.append((term, sig.op(term.op)))
            stack.extend((c, None) for c in reversed(term.children))
    from .mdec import Rows
    rows = Rows._of(list(labels), list(itertools.accumulate(d_out[1:-1], operator.xor)),
                    list(itertools.accumulate(d_in[1:-1], operator.xor)))
    return LabeledGraph._trusted(frozenset(labels), frozenset(edges), labels, rows)


def is_weakly_rigid_op(op: SignatureOp) -> bool:
    """seq is weakly rigid; a prime op is iff its automorphisms are not transitive."""
    if op.kind in (OpKind.PARALLEL, OpKind.CLIQUE):
        raise ValueError("weak rigidity applies to seq and prime operations; "
                         "par and clique are handled at signature level")
    return op.symmetry.distinguished is not None


@dataclass(frozen=True)
class RigidityViolation:
    op_name: str
    reason: str
    witness_orbit: Optional[frozenset[int]] = None

    def __str__(self):
        extra = ""
        if self.witness_orbit is not None:
            extra = " (orbit {" + ", ".join(map(str, sorted(self.witness_orbit))) + "})"
        return f"{self.op_name}: {self.reason}{extra}"


@dataclass(frozen=True)
class WeakRigidityReport:
    signature: Signature
    violations: tuple[RigidityViolation, ...]

    @property
    def accepted(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.accepted:
            return "ACCEPT: signature is weakly rigid"
        lines = ["REJECT: signature is not weakly rigid"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


def validate_weakly_rigid_signature(sig: Signature) -> WeakRigidityReport:
    """Check finiteness (built in), at most one of par/clique, and per-op rigidity."""
    violations: list[RigidityViolation] = []
    if sig.builtin(OpKind.PARALLEL) is not None and sig.builtin(OpKind.CLIQUE) is not None:
        violations.append(RigidityViolation(
            "par,clique", "signature contains both commutative products"))
    for op in sig.prime_ops:
        sym = op.symmetry
        if sym.distinguished is None:
            violations.append(RigidityViolation(
                op.name, "automorphisms act transitively on the vertices",
                sym.orbits[0]))
    return WeakRigidityReport(sig, tuple(violations))


@dataclass(frozen=True)
class DistinguishedSet:
    """Proper, non-empty, automorphism-invariant vertex set of an operation."""

    op: SignatureOp
    vertices: frozenset[int]


def select_distinguished(op: SignatureOp) -> DistinguishedSet:
    """Deterministic choice: the orbit of vertex 1, which is {1} for seq.

    Any automorphism-invariant proper non-empty subset would do; a single
    rule keeps recognizers and transductions reproducible.
    """
    if op.kind in (OpKind.PARALLEL, OpKind.CLIQUE):
        raise NotWeaklyRigid(f"{op.name} has no distinguished vertices")
    dist = op.symmetry.distinguished
    if dist is None:
        raise NotWeaklyRigid(f"operation {op.name} is not weakly rigid")
    return DistinguishedSet(op, dist)


def cp_equations(op: SignatureOp) -> list[Permutation]:
    """Argument permutations under which composition by op is invariant.

    One permutation per non-identity automorphism of the operation graph:
    composing op with operands G_1..G_n equals composing it with
    G_{sigma(1)}..G_{sigma(n)}.
    """
    return list(op.symmetry.automorphisms)
