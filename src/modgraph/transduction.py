"""Executable leaf-encoding of decomposition trees inside their graphs.

Every inner tree node gets represented by one of its leaves through four
partial maps kappa_0..kappa_3 from leaves to nodes; one representative
leaf per node and map gives the tree's nodes as leaf pairs, and the theta
formulas define the tree's relations on those pairs in the graph.  The
module also carries the second-order predicate library that expresses the
whole construction in the logic of the underlying graph, together with a
matching algorithmic implementation of every predicate, so each side can
be checked against the other.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Mapping, Optional, Sequence

from .cms import (SET, And, Call, CmsFormula, Definition, Eq, Exists,
                  ExistsSet, Forall, ForallSet, Implies, In, Not, Or, Pred,
                  RelationalSignature, conj, disj, graph_signature, label_pred,
                  tree_predicates, tree_prime_ops)
from .errors import (NotInSignature, NotWeaklyRigid, NotWeaklyRigidSignature,
                     UnboundVariable, UnknownOp, UnknownPredicate, UnknownSymbol,
                     VertexNotInGraph)
from .graphs import LabeledGraph, is_internally_disconnected, is_module
from .mdec import (MDecNode, MDecPrimeTree, NodeKind, Rows,
                   _decompose, binarize, decompose, reach, reconstruct,
                   verify_binarized)
from .signature import OpKind, Signature, SignatureOp, match_op

PAIR = tuple[int, int]
# the union of any number of vertex sets, its method bound once
_union_of: Callable[..., frozenset[int]] = frozenset().union


def _commutative_mode(sig: Signature) -> NodeKind:
    """Which commutative product plays the disconnected role for this run."""
    if sig.builtin(OpKind.CLIQUE) is not None:
        return NodeKind.CLIQUE
    return NodeKind.PAR


@dataclass
class NodeClassification:
    """Partition of tree nodes into the four encoding classes.

    Class 0 holds the leaves; 1 the commutative nodes with all-leaf
    children; 2 the remaining commutative nodes; 3 the sequential and
    prime nodes (the ones with distinguished children).
    """

    tree: MDecPrimeTree
    mode: NodeKind
    classes: dict[MDecNode, int]

    def nodes_in(self, i: int) -> list[MDecNode]:
        return [n for n in self.tree.nodes() if self.classes[n] == i]


def _require_weakly_rigid(sig: Signature):
    report = sig.rigidity
    if not report.accepted:
        raise NotWeaklyRigidSignature(str(report))


def classify_nodes(t: MDecPrimeTree, sig: Signature) -> NodeClassification:
    _require_weakly_rigid(sig)
    mode = _commutative_mode(sig)
    forbidden = NodeKind.CLIQUE if mode is NodeKind.PAR else NodeKind.PAR
    letters = sig.alphabet.symbols
    leaf, prime = NodeKind.LEAF, NodeKind.PRIME
    classes: dict[MDecNode, int] = {}
    for node in t.nodes():
        kind = node.kind
        if kind is forbidden:
            raise NotWeaklyRigid(
                f"tree contains a {forbidden.value} node, so the graph is not "
                "generated by this signature")
        if kind is leaf:
            if node.symbol is not None and node.symbol not in letters:
                raise UnknownSymbol(f"letter {node.symbol!r} is not in the "
                                    "signature's alphabet")
            classes[node] = 0
        elif kind is mode:
            kinds = {c.kind for c in node.children}
            if mode in kinds:
                raise NotWeaklyRigid(
                    f"{mode.value} node on {sorted(node.module)} has a "
                    f"{mode.value} child, so the tree is not a decomposition")
            classes[node] = 1 if kinds <= {leaf} else 2
        else:
            if kind is prime and not sig.has_op(node.op.name):
                raise UnknownOp(f"operation {node.op.name!r} not in signature")
            classes[node] = 3
    return NodeClassification(t, mode, classes)


def _distinguished_children(node: MDecNode) -> tuple[MDecNode, ...]:
    if node.kind is NodeKind.SEQ:
        return node.children[:1]
    return tuple([node.children[i - 1] for i in node.op.symmetry.distinguished])


@dataclass
class EncodingTables:
    """The leaf sets nu/mu and the leaf-to-node maps kappa.

    kappa[i] inverts mu[i] fiberwise: kappa[i][v] == y iff v in mu[i][y].
    The tables are keyed by the tree's ``MDecNode`` objects; a node's
    preorder index, its element in ``cms.tree_relations`` and
    ``tree_structure``, is its position in ``tree.nodes()``.  nu and mu
    hold nodes children first, kappa vertices in the order of
    ``tree.leaf_of``.
    """

    classification: NodeClassification
    nu: dict[MDecNode, frozenset[int]]
    mu: tuple[dict[MDecNode, frozenset[int]], ...]
    kappa: tuple[dict[int, MDecNode], ...]

    @property
    def tree(self) -> MDecPrimeTree:
        return self.classification.tree

    def format_tables(self) -> str:
        lines = []
        for i in range(4):
            entries = ", ".join(
                f"{v}->{{{','.join(map(str, sorted(self.kappa[i][v].module)))}}}"
                for v in sorted(self.kappa[i]))
            lines.append(f"kappa_{i}: {entries if entries else '(empty)'}")
        return "\n".join(lines)


def compute_encoding(t: MDecPrimeTree, cls: NodeClassification) -> EncodingTables:
    """Fill nu/mu by their defining clauses, bottom up, and kappa in one
    pass down the tree: a subtree inherits the kappa_3/kappa_2 images of
    its leaves from its parent, and a class-3 node overrides them below its
    distinguished children.  A leaf's kappa_1 image is its parent when
    that is of class 1.

    The fiber condition linking the two is checked before returning; a
    failure would mean the construction itself is broken.
    """
    classes = cls.classes
    nu: dict[MDecNode, frozenset[int]] = {}
    mu: tuple[dict[MDecNode, frozenset[int]], ...] = ({}, {}, {}, {})
    dist: dict[MDecNode, tuple[MDecNode, ...]] = {}
    nu_of = nu.__getitem__

    for node in reversed(t.nodes()):  # children before parents
        i, kids = classes[node], node.children
        if i == 0:
            (v,) = m = node.module
            nu[node] = mu[0][node] = m
        elif i == 1:
            nu[node] = mu[1][node] = _union_of(*[c.module for c in kids])
        elif i == 2:
            nu[node] = _union_of(*map(nu_of, kids))
            mu[2][node] = _union_of(*[mu[3][c] for c in kids if not c.is_leaf])
        else:
            d = dist[node] = _distinguished_children(node)
            nu[node] = _union_of(*[nu_of(c) for c in kids if c not in d])
            mu[3][node] = _union_of(*map(nu_of, d))

    # node -> (its parent, the kappa_3 and kappa_2 images of the leaves
    # below it), parents first
    down = {t.root: (None, None, None)}
    for node in t.nodes():
        parent, k3, k2 = down[node]
        d = dist.get(node, ())
        up = parent if parent is not None and classes[parent] == 2 else None
        for c in node.children:
            down[c] = (node, node, up) if c in d else (node, k3, k2)

    kappa: tuple[dict[int, MDecNode], ...] = ({}, {}, {}, {})
    for v, leaf in t.leaf_of.items():
        parent, k3, k2 = down[leaf]
        kappa[0][v] = leaf
        if parent is not None and classes[parent] == 1:
            kappa[1][v] = parent
        if k3 is not None:
            kappa[3][v] = k3
            if k2 is not None:
                kappa[2][v] = k2

    for i in range(4):
        fibers: dict[MDecNode, set[int]] = {}
        for v, node in kappa[i].items():
            fibers.setdefault(node, set()).add(v)
        if fibers != mu[i]:  # a set equals the frozenset of the same vertices
            raise AssertionError(
                f"kappa_{i} fibers disagree with mu_{i}; encoding is broken")
    if not all(nu.values()):
        raise AssertionError("empty nu set")
    return EncodingTables(cls, nu, mu, kappa)


def encode_graph(g: LabeledGraph, sig: Signature,
                 ) -> tuple[MDecPrimeTree, NodeClassification, EncodingTables]:
    """Decompose, binarize, classify and encode in one step."""
    t = binarize(decompose(g, sig))
    cls = classify_nodes(t, sig)
    return t, cls, compute_encoding(t, cls)


# ---------------------------------------------------- module-theoretic check

def _bits(m: int):
    """Indices of the set bits of m, lowest first."""
    while m:
        b = m & -m
        yield b.bit_length() - 1
        m ^= b


def _sequential(rows: Rows, x: int) -> bool:
    """x splits as prefix + suffix linked forward only: the relation "pulls
    in" is not strongly connected on x."""
    if not x & (x - 1):
        return False
    v = x & -x
    return reach(v, x, rows.fwd) != x or reach(v, x, rows.bwd) != x


def _initial(rows: Rows, x: int, y: int) -> bool:
    """y, a non-empty proper subset of x, is the least prefix of x: the
    complement is a suffix, y not sequential."""
    rest, fwd = x & ~y, rows.fwd
    if any(rest & fwd[i] for i in _bits(y)):
        return False
    return not _sequential(rows, y)


@dataclass(frozen=True)
class KappaMismatch:
    index: int
    vertex: int
    lemma_value: Optional[frozenset[int]]
    path_value: Optional[frozenset[int]]

    def __str__(self):
        def show(m):
            return "undefined" if m is None else "{" + ",".join(map(str, sorted(m))) + "}"
        return (f"kappa_{self.index}({self.vertex}): module characterization "
                f"gives {show(self.lemma_value)}, path walk gives "
                f"{show(self.path_value)}")


@dataclass(frozen=True)
class KappaLemmaReport:
    mismatches: tuple[KappaMismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __str__(self):
        if self.ok:
            return "kappa characterization: no mismatches"
        return "\n".join(["kappa characterization mismatches:"] +
                         [f"  - {m}" for m in self.mismatches])


def _distinguished_on_rows(rows: Rows, masks: Sequence[int], p: int, node: MDecNode,
                           kids: Sequence[int]) -> tuple[int, ...]:
    """The distinguished children of the connected node at position p:
    the initial ones if it is sequential, else its enumeration's."""
    m = masks[p]
    if _sequential(rows, m):
        return tuple(c for c in kids if _initial(rows, m, masks[c]))
    if node.kind is not NodeKind.PRIME:
        raise NotWeaklyRigid(f"connected node on {sorted(node.module)} "
                             "matches no signature operation")
    return tuple(kids[i - 1] for i in node.op.symmetry.distinguished)


def check_kappa_lemma(t: MDecPrimeTree, enc: EncodingTables,
                      sig: Optional[Signature] = None) -> KappaLemmaReport:
    """Cross-check the path-based kappa maps against their module-theoretic
    characterization on the graph ``reconstruct(t)``.

    The rows of that graph come from one of two places.  A tree from
    ``decompose`` carries the rows it was split from and its nodes' masks
    over them (``MDecTree.rows`` and ``MDecTree.masks``), and no graph is
    built for it.  A tree with no rows, or whose carried rows fail the
    verification below, takes the rows of ``reconstruct(t)``, built from
    its edges, its masks read from its modules.  On those rows the check
    verifies t with ``mdec.verify_binarized``: one ``Rows.split`` per inner
    node, read from the rows' memo, against its children, and a prime
    node's quotient against its operation, which must be the one of t's
    operations (``cms.tree_prime_ops``) that matches it.  Once t passes,
    it is the binarized decomposition of the graph of those rows, which is
    unique (Gallai 1967), so ``reconstruct(t)`` has exactly those rows, and
    the strong modules are t's nodes, the sequential suffixes its seq comb
    nodes, the members holding a vertex its leaf-to-root path, and a prime
    node's distinguished children those of its enumeration.  A tree that
    fails on the rows of its reconstruction too, such as a hand-built one,
    gets its family from ``binarize(decompose(reconstruct(t)))`` on those
    rows, with the quotients matched against those operations, and a prime
    quotient that matches none raises NotWeaklyRigid; either way the report
    is the same.  The walks run on preorder positions and masks.  Whether
    a member is disconnected, degenerate or sequential, and which children
    of a sequential one are initial, is decided on the rows.

    The family does not come from the graph alone: the split it is
    verified with is the decomposition algorithm that usually built t, so
    a fault in it could show on both sides alike.
    ``tests/mdec_referee.py`` and the NextClosure oracle
    ``Rows.modules`` referee that algorithm, and
    ``tests/kappa_referee.py``, which takes the family from 2^n subset
    enumeration, referees this report.  Each path is walked up from its
    leaf only as far as the lemma needs, so the check runs in polynomial
    time.
    """
    rows = t.rows or reconstruct(t).rows
    ops = tree_prime_ops(t, sig)
    # a quotient matches the first isomorphic operation in ops, and a
    # signature holds one per isomorphism class already
    own = ops if sig is not None else [
        op for k, op in enumerate(ops) if match_op(ops[:k], op.graph) is None]
    masks = verify_binarized(t, rows, own)
    if masks is None and rows is t.rows:
        # not split from the rows it carries: the rows of reconstruct(t)
        rows = reconstruct(t).rows
        masks = verify_binarized(t, rows, own)
    if masks is None:
        try:
            t = binarize(_decompose(reconstruct(t), rows, ops))
        except NotInSignature as e:
            raise NotWeaklyRigid(str(e)) from None
        masks = t.masks
    nodes, up, down = t.nodes(), t.parent_positions(), t.child_positions()
    # the relation whose components split a disconnected set
    sep = rows.und if enc.classification.mode is NodeKind.PAR else rows.co
    # by position: whether a node is disconnected, and, as the walks reach
    # them, whether a disconnected one is degenerate (discrete in par mode,
    # a clique in clique mode) and a connected one's distinguished children
    disc = [m & (m - 1) != 0 and reach(m & -m, m, sep) != m for m in masks]
    degenerate: dict[int, bool] = {}
    dist: dict[int, tuple[int, ...]] = {}
    leaf_at = {m: p for p, m in enumerate(masks) if not m & (m - 1)}  # leaves by bit

    mismatches: list[KappaMismatch] = []
    for j, v in enumerate(rows.verts):
        leaf = leaf_at[1 << j]
        # least disconnected node containing v, if degenerate; it is a
        # strong module, as comb nodes are sequential, so connected
        lemma1 = None
        p = up[leaf]
        while p is not None:
            if disc[p]:
                d = degenerate.get(p)
                if d is None:
                    m = masks[p]
                    d = degenerate[p] = not any(sep[i] & m & ~(1 << i) for i in _bits(m))
                if d:
                    lemma1 = p
                break
            p = up[p]
        # first connected node reached from a distinguished child; smaller
        # connected nodes must all hold v in a non-distinguished child
        lemma2 = lemma3 = None
        child, q = leaf, up[leaf]
        while q is not None:
            if not disc[q]:
                ds = dist.get(q)
                if ds is None:
                    ds = dist[q] = _distinguished_on_rows(rows, masks, q, nodes[q], down[q])
                if child in ds:
                    lemma3 = q
                    above = up[q]
                    if above is not None and disc[above]:
                        lemma2 = above
                    break
            child, q = q, up[q]

        for i, lemma in ((1, lemma1), (2, lemma2), (3, lemma3)):
            path = enc.kappa[i].get(v)
            want = None if lemma is None else nodes[lemma].module
            got = None if path is None else path.module
            if want != got:
                mismatches.append(KappaMismatch(i, v, want, got))
    return KappaLemmaReport(tuple(mismatches))


# ----------------------------------------------------------- repr structures

@dataclass
class ReprStructure:
    """The representative leaf pairs of a tree's nodes.

    Domain elements are pairs (vertex, i), one for each node in the image
    of kappa_i, whose vertex is the representative that the rule chose
    from the node's kappa_i fiber; reps holds the representative sets
    X_0..X_3, and node_of maps each pair to the module of its node.  The
    tree's relations are not stored: the theta formulas of
    ``TransductionSchema`` define them on the graph, and
    ``tests/theta_referee.py`` checks them against ``cms.tree_relations``.
    """

    domain: tuple[PAIR, ...]
    node_of: dict[PAIR, frozenset[int]]
    reps: tuple[frozenset[int], ...]


def min_vertex_rule(fiber: frozenset[int]) -> int:
    return min(fiber)


def build_repr(t: MDecPrimeTree, enc: EncodingTables,
               rule: Callable[[frozenset[int]], int] = min_vertex_rule,
               sig: Optional[Signature] = None) -> ReprStructure:
    """One representative leaf per node and kappa map, chosen by the rule
    from the node's kappa_i fiber.  The tables carry the tree, so t is
    accepted and unused, and so is sig."""
    reps: list[set[int]] = [set(), set(), set(), set()]
    node_of: dict[PAIR, frozenset[int]] = {}
    for i, kappa in enumerate(enc.kappa):
        inverse: dict[MDecNode, list[int]] = {}
        for v, node in kappa.items():
            inverse.setdefault(node, []).append(v)
        for node, vs in inverse.items():
            fiber = frozenset(vs)
            v = rule(fiber)
            if v not in fiber:
                raise ValueError("representative rule left the fiber")
            reps[i].add(v)
            node_of[(v, i)] = node.module
    return ReprStructure(tuple(sorted(node_of)), node_of,
                         tuple(frozenset(r) for r in reps))


def verify_isomorphism(r: ReprStructure, t: MDecPrimeTree,
                       sig: Optional[Signature] = None) -> bool:
    """Check that pair -> kappa image is a bijection onto the tree's nodes.

    Each pair of the domain is mapped, through the module ``node_of``
    gives it, to the preorder index of the tree node with that module
    (``None`` off the tree).  The test passes when the images are
    distinct and cover every node.  Nodes that share a module, possible
    only in hand-built trees, compare as one.  A domain pair that
    ``node_of`` lacks raises KeyError.  sig is accepted and unused.

    The bijection is all there is to check here: the relations on the
    pairs are the theta formulas of ``TransductionSchema``, run on the
    graph, and ``tests/theta_referee.py`` checks them against the tree's.
    """
    index = {n.module: i for i, n in enumerate(t.nodes())}
    image = [index.get(r.node_of[p]) for p in r.domain]
    return None not in image and len(set(image)) == len(image) == len(index)


# --------------------------------------------------------- formula library

def _partition_holds(g: LabeledGraph, X: frozenset[int], *blocks: frozenset[int]) -> bool:
    """The blocks are non-empty and cover X with their sizes adding up to
    |X|, so they are pairwise disjoint."""
    return (all(blocks) and sum(map(len, blocks)) == len(X)
            and X == frozenset().union(*blocks))


def _partition2_holds(g: LabeledGraph, X: frozenset[int], A: frozenset[int],
                      B: frozenset[int]) -> bool:
    """``_partition_holds`` for two blocks, without varargs or a new empty
    set per call: partition2 takes most of formula-agreement's bindings."""
    return bool(A) and bool(B) and len(A) + len(B) == len(X) and X == A | B


def _bound_values(name: str, params: Sequence[str], kinds: Sequence[str],
                  g: LabeledGraph, bindings: Mapping) -> list:
    """The cold path of ``PredicateLibrary.holds``: the values of a binding
    that a holder's quick test turned away, in spec order with every
    ``set`` frozen, or the error the binding calls for."""
    missing = next((var for var in params if var not in bindings), None)
    if missing is not None:
        raise UnknownPredicate(f"predicate {name!r} needs binding {missing!r}")
    values = []
    for var, kind in zip(params, kinds):
        value = bindings[var]
        set_valued = isinstance(value, (set, frozenset))
        if set_valued != (kind == SET):
            raise UnboundVariable(f"predicate {name!r}: variable {var!r} needs a "
                                  + ("set value" if kind == SET else "vertex value"))
        for v in value if set_valued else (value,):
            if v not in g.vertices:
                raise VertexNotInGraph(f"predicate {name!r}: vertex {v!r} "
                                       f"of {var!r} is not in the graph")
        values.append(frozenset(value) if isinstance(value, set) else value)
    return values


def _edge(a: str, b: str) -> CmsFormula:
    return Pred("edge", (a, b))


def _outside(p: str, X: str, P: str) -> CmsFormula:
    """p is in X but not in P."""
    return And((In(p, X), Not(In(p, P))))


def _all_to(P: str, Q: str, cross: CmsFormula) -> CmsFormula:
    """cross holds from every p in P to every q in Q."""
    return Forall("p", Implies(In("p", P), Forall("q", Implies(In("q", Q), cross))))


class PredicateLibrary:
    """Second-order predicates of a graph mirroring its decomposition tree.

    Every predicate exists twice: as a definition over the graph's
    relational signature (edge + one label predicate per letter) and as a
    direct decision procedure; the two are cross-checked in the test suite.
    ``definitions`` maps every name, the helpers and the kappa maps of the
    transduction included, to its ``cms.Definition``; a predicate used
    inside another is a ``cms.Call`` of its definition, so each body exists
    once and a checker tables each predicate on its arguments, one unit of
    work per call.  ``formula(name)`` is the body of a catalogued predicate
    over its own parameters; the test suite's ``expand`` referee turns any
    of these formulas into plain counting-MSO.  The node/child predicates
    quantify over the operations present in the signature, so they only
    see tree nodes labeled by those operations.
    """

    def __init__(self, sig: Signature):
        _require_weakly_rigid(sig)
        self.sig = sig
        self.mode = _commutative_mode(sig)
        self.graph_signature = graph_signature(sig.alphabet.symbols)
        # per-graph tables, kept while the graph (or an equal one) lives
        self._ginfo: "weakref.WeakKeyDictionary[LabeledGraph, dict]" = \
            weakref.WeakKeyDictionary()
        # the last graph looked up, as a weak reference, and its tables
        self._last_info: tuple = (lambda: None, None)
        self.definitions: dict[str, Definition] = {}
        self._catalog: list[str] = []
        self._define_all()
        # name -> holder(g, bindings): the bound decision procedure
        self._holders: dict[str, Callable[[LabeledGraph, Mapping], bool]] = {
            name: self._holder(name) for name in self._catalog}

    def _define(self, name: str, params: str, body: CmsFormula,
                public: bool = False):
        self.definitions[name] = Definition(name, tuple(params.split()), body)
        if public:
            self._catalog.append(name)

    def call(self, name: str, *args: str) -> Call:
        """The named definition applied to the variables."""
        return Call(self.definitions[name], args)

    def _define_all(self):
        d, c = self._define, self.call
        d("nonempty", "X", Exists("p", In("p", "X")))
        d("proper", "X", Exists("p", Not(In("p", "X"))))
        d("subseteq", "A B", Forall("p", Implies(In("p", "A"), In("p", "B"))))
        d("seteq", "A B", Forall("p", And((Implies(In("p", "A"), In("p", "B")),
                                            Implies(In("p", "B"), In("p", "A"))))))
        d("propersub", "A B", conj(c("subseteq", "A", "B"),
                                   Exists("p", _outside("p", "B", "A"))))
        d("nontrivial", "X", Exists("p", Exists("q", conj(
            In("p", "X"), In("q", "X"), Not(Eq("p", "q"))))))
        d("singleton", "X x", conj(In("x", "X"), Forall(
            "q", Implies(In("q", "X"), Eq("q", "x")))), public=True)
        d("is_singleton", "X", Exists("p", c("singleton", "X", "p")))
        for sym in self.sig.alphabet:
            d(f"label_{sym}", "X", Exists("p", conj(
                c("singleton", "X", "p"), Pred(label_pred(sym), ("p",)))), public=True)

        def half(a, b):
            return Implies(Exists("q", And((In("q", "X"), _edge(a, b)))),
                           Forall("q", Implies(In("q", "X"), _edge(a, b))))
        d("module", "X", Forall("p", Implies(Not(In("p", "X")), And(
            (half("q", "p"), half("p", "q"))))), public=True)
        d("overlap", "A B", conj(Exists("p", And((In("p", "A"), In("p", "B")))),
                                 Exists("p", _outside("p", "A", "B")),
                                 Exists("p", _outside("p", "B", "A"))))
        d("strongcore", "X", ForallSet("Q", Implies(
            c("module", "Q"), Not(c("overlap", "X", "Q")))))
        d("pmodule", "X", conj(c("module", "X"), c("nonempty", "X"),
                               c("proper", "X"), c("strongcore", "X")), public=True)
        # like pmodule but keeps the full vertex set: tree roots qualify
        d("pmoduleV", "X", conj(c("module", "X"), c("nonempty", "X"),
                                c("strongcore", "X")))
        # a half P of X with no cross edges (or all of them, both ways)
        for name, cross in (
                ("disconnected", And((Not(_edge("p", "q")), Not(_edge("q", "p"))))),
                ("co-disconnected", And((_edge("p", "q"), _edge("q", "p"))))):
            d(name, "X", ExistsSet("P", conj(
                c("nonempty", "P"), c("subseteq", "P", "X"),
                Exists("q", _outside("q", "X", "P")),
                Forall("p", Implies(In("p", "P"), Forall("q", Implies(
                    _outside("q", "X", "P"), cross)))))),
              public=name == "disconnected")
        d("connected", "X", Not(c("disconnected", "X")), public=True)
        d("discrete", "X", _all_to("X", "X", Not(_edge("p", "q"))))
        d("cliqueset", "X", Forall("p", Implies(In("p", "X"), Forall("q", Implies(
            And((In("q", "X"), Not(Eq("p", "q")))),
            And((_edge("p", "q"), _edge("q", "p"))))))))
        # Z is a proper suffix of X (and Y the complement of one); the
        # prefix links to the suffix forward only
        forward = And((_edge("p", "q"), Not(_edge("q", "p"))))
        d("suffix", "X Z", conj(
            c("nonempty", "Z"), c("subseteq", "Z", "X"),
            Exists("p", _outside("p", "X", "Z")),
            Forall("p", Implies(_outside("p", "X", "Z"), Forall(
                "q", Implies(In("q", "Z"), forward))))), public=True)
        d("sequential", "X", ExistsSet("S", c("suffix", "X", "S")), public=True)
        d("initial", "X Y", conj(
            c("nonempty", "Y"), c("subseteq", "Y", "X"),
            Exists("p", _outside("p", "X", "Y")),
            Forall("p", Implies(In("p", "Y"), Forall(
                "q", Implies(_outside("q", "X", "Y"), forward)))),
            Not(c("sequential", "Y"))), public=True)
        d("label_seq", "X", conj(c("sequential", "X"), disj(
            c("pmoduleV", "X"),
            ExistsSet("P", conj(c("pmoduleV", "P"), c("sequential", "P"),
                                c("suffix", "P", "X"))))), public=True)
        d("label_par", "X", conj(c("disconnected", "X"), c("pmoduleV", "X")),
          public=True)
        d("label_clique", "X", conj(c("co-disconnected", "X"), c("pmoduleV", "X")),
          public=True)
        d("partition2", "X X1 X2", conj(
            c("nonempty", "X1"), c("nonempty", "X2"),
            Forall("p", Not(And((In("p", "X1"), In("p", "X2"))))),
            Forall("q", And((Implies(In("q", "X"), Or((In("q", "X1"), In("q", "X2")))),
                             Implies(In("q", "X1"), In("q", "X")),
                             Implies(In("q", "X2"), In("q", "X")))))), public=True)
        # a chain of partition2; catalogued for the arities of operations
        arities = {op.graph.n for op in self.sig.prime_ops}
        for k in range(3, max(arities, default=2) + 1):
            blocks = " ".join(f"X{i}" for i in range(1, k + 1))
            d(f"partition{k}", "X " + blocks, ExistsSet("R", And((
                c("partition2", "X", "X1", "R"),
                c(f"partition{k - 1}", "R", *blocks.split()[1:])))),
              public=k in arities)
        for op in self.sig.prime_ops:
            self._define_op(op)
        node = [c("is_singleton", "X")]
        for kind, label in ((OpKind.PARALLEL, "label_par"),
                            (OpKind.CLIQUE, "label_clique"),
                            (OpKind.SEQUENTIAL, "label_seq")):
            if self.sig.builtin(kind) is not None:
                node.append(c(label, "X"))
        node += [c(f"label_{op.name}", "X") for op in self.sig.prime_ops]
        d("node", "X", disj(*node), public=True)
        d("child*", "X Y", conj(c("node", "X"), c("node", "Y"),
                                c("propersub", "Y", "X")), public=True)
        d("child", "X Y", conj(
            c("node", "X"), c("node", "Y"), c("propersub", "Y", "X"),
            Not(ExistsSet("K", conj(c("propersub", "Y", "K"), c("propersub", "K", "X"),
                                    c("node", "K"))))), public=True)
        d("first-child", "X Y", conj(c("child", "X", "Y"), c("label_seq", "X"),
                                     c("initial", "X", "Y")), public=True)
        branches = [conj(c("label_seq", "X"), c("initial", "X", "Y"))]
        for op in self.sig.prime_ops:
            picks = [c("seteq", "Y", f"B{i}") for i in sorted(op.symmetry.distinguished)]
            branches.append(self._children_search(op, disj(*picks)))
        d("dist-child", "X Y", conj(c("child", "X", "Y"), disj(*branches)),
          public=True)
        self._define_kappa()

    def _define_op(self, op: SignatureOp):
        """The edge pattern of an operation over blocks B1..Bn, and its
        label and children predicates."""
        d, c = self._define, self.call
        n = op.graph.n
        blocks = [f"B{i}" for i in range(1, n + 1)]
        # cross edges between blocks follow the operation graph exactly
        d(f"pattern_{op.name}", " ".join(blocks), conj(*(
            _all_to(blocks[i - 1], blocks[j - 1],
                    _edge("p", "q") if (i, j) in op.graph.edges
                    else Not(_edge("p", "q")))
            for i in range(1, n + 1) for j in range(1, n + 1) if i != j)))
        d(f"label_{op.name}", "X", self._children_search(op), public=True)
        xs = [f"X{i}" for i in range(1, n + 1)]
        d(f"children_{op.name}", " ".join(["X"] + xs), conj(
            c("pmoduleV", "X"), *(c("pmodule", x) for x in xs),
            c(f"partition{n}", "X", *xs), c(f"pattern_{op.name}", *xs)), public=True)

    def _children_search(self, op: SignatureOp,
                         extra: Optional[CmsFormula] = None) -> CmsFormula:
        """Guarded existential search for the child blocks B1..Bn of an
        H-node X.

        Equivalent to exists B1..Bn children_H(X, B1..Bn) but with subset,
        primality and disjointness guards pushed inward so the brute-force
        checker prunes instead of sweeping full tuple spaces.
        """
        c = self.call
        blocks = [f"B{i}" for i in range(1, op.graph.n + 1)]
        cover = Forall("p", Implies(In("p", "X"), disj(*(In("p", b) for b in blocks))))
        body = conj(cover, c("pmoduleV", "X"), c(f"pattern_{op.name}", *blocks),
                    *(() if extra is None else (extra,)))
        for k in range(len(blocks) - 1, -1, -1):
            guards = [c("subseteq", blocks[k], "X"), c("pmodule", blocks[k])]
            guards += [Forall("q", Not(And((In("q", b), In("q", blocks[k])))))
                       for b in blocks[:k]]
            body = ExistsSet(blocks[k], conj(*guards, body))
        return body

    def _define_kappa(self):
        """kappa_i(x, M): M is the node kappa_i maps the leaf of x to."""
        d, c = self._define, self.call
        disc = "co-disconnected" if self.mode is NodeKind.CLIQUE else "disconnected"
        degenerate = "cliqueset" if self.mode is NodeKind.CLIQUE else "discrete"
        d("kappa_0", "x M", c("singleton", "M", "x"))
        d("kappa_1", "x M", conj(
            In("x", "M"), c("pmoduleV", "M"), c(disc, "M"), c(degenerate, "M"),
            ForallSet("Q", Implies(conj(c("pmoduleV", "Q"), c(disc, "Q"), In("x", "Q")),
                                   c("subseteq", "M", "Q")))))
        # x lies in a distinguished child of M
        d("in_dist", "x M", ExistsSet("Y", conj(c("dist-child", "M", "Y"),
                                               In("x", "Y"))))
        d("kappa_3", "x M", conj(
            c("node", "M"), Not(c(disc, "M")), In("x", "M"), c("in_dist", "x", "M"),
            ForallSet("Q", Implies(
                conj(c("node", "Q"), Not(c(disc, "Q")), c("nontrivial", "Q"),
                     In("x", "Q"), c("propersub", "Q", "M")),
                Not(c("in_dist", "x", "Q"))))))
        d("kappa_2", "x M", ExistsSet("K", conj(c("kappa_3", "x", "K"),
                                               c("child", "M", "K"), c(disc, "M"))))

    def names(self) -> list[str]:
        return sorted(self._catalog)

    def formula(self, name: str) -> CmsFormula:
        """The body of a catalogued predicate, over its parameters."""
        if name not in self._holders:
            raise UnknownPredicate(f"no predicate named {name!r}")
        return self.definitions[name].body

    def free_vars(self, name: str) -> tuple[tuple[str, str], ...]:
        if name not in self._holders:
            raise UnknownPredicate(f"no predicate named {name!r}")
        d = self.definitions[name]
        return tuple(zip(d.params, d.kinds))

    # ------------------------------------------------ algorithmic versions

    def _graph_info(self, g: LabeledGraph) -> dict:
        """The predicate tables of g.

        The last graph asked for is kept in one slot, a weak reference
        beside its tables, and a repeat lookup of that same object is
        answered from the slot by identity, without hashing the graph.
        The slot never keeps a graph alive: once the graph is freed the
        reference is dead and matches nothing, and the tables stay until
        the next lookup replaces them.  Every other lookup goes through
        ``_ginfo``, keyed by the graph's value, where the tables live as
        long as the graph or an equal one.  The tables are a function of
        the graph's value, so no answer depends on which path served it.
        """
        ref, info = self._last_info
        if ref() is g:
            return info
        info = self._ginfo.get(g)
        if info is None:
            info = self._ginfo[g] = self._tables_of(g)
        self._last_info = (weakref.ref(g), info)
        return info

    def _tables_of(self, g: LabeledGraph) -> dict:
        rows = g.rows
        d = _decompose(g, rows, None)
        t = binarize(d)
        nodes, masks = t.nodes(), t.masks

        f_nodes: set[frozenset[int]] = set()
        labels: dict[str, set[frozenset[int]]] = {
            "label_par": set(), "label_clique": set(), "label_seq": set()}
        children_tuples: dict[str, set[tuple]] = {}
        dist_by_node: dict[frozenset[int], set[frozenset[int]]] = {}
        for op in self.sig.prime_ops:
            labels[f"label_{op.name}"] = set()
            children_tuples[op.name] = set()

        builtin = self.sig.builtin
        kind_gate = {NodeKind.PAR: builtin(OpKind.PARALLEL) is not None,
                     NodeKind.SEQ: builtin(OpKind.SEQUENTIAL) is not None,
                     NodeKind.CLIQUE: builtin(OpKind.CLIQUE) is not None}
        kind_label = {NodeKind.PAR: "label_par", NodeKind.SEQ: "label_seq",
                      NodeKind.CLIQUE: "label_clique"}

        # child pairs over the signature-labeled nodes only: a node's parent
        # is the nearest of them above it in the tree, by position
        is_f: list[bool] = []
        f_above: list[Optional[int]] = []
        child_pairs: set[tuple] = set()
        first_pairs: set[tuple] = set()
        for pos, (node, p) in enumerate(zip(nodes, t.parent_positions())):  # parents first
            above = None if p is None else p if is_f[p] else f_above[p]
            f_above.append(above)
            m = node.module
            if node.is_leaf:
                f = True
            elif node.kind in kind_label:
                labels[kind_label[node.kind]].add(m)
                f = kind_gate[node.kind]
            else:
                matched = match_op(self.sig.prime_ops, node.op.graph)
                f = matched is not None
                if f:
                    op, sigma = matched
                    labels[f"label_{op.name}"].add(m)
                    enum = tuple(node.children[sigma(i) - 1].module
                                 for i in range(1, op.graph.n + 1))
                    sym = op.symmetry
                    children_tuples[op.name].update(
                        (m,) + order for order in sym.enumerations(enum))
                    dist_by_node[m] = {enum[i - 1] for i in sym.distinguished}
            is_f.append(f)
            if f:
                f_nodes.add(m)
                if above is not None:
                    x = nodes[above]
                    child_pairs.add((x.module, m))
                    if x.kind is NodeKind.SEQ and _initial(rows, masks[above], masks[pos]):
                        first_pairs.add((x.module, m))
        dist_pairs = set(first_pairs)
        for (x, y) in child_pairs:
            if y in dist_by_node.get(x, ()):
                dist_pairs.add((x, y))

        # the strong modules are the node modules of the unbinarized tree
        return {"strong": {n.module for n in d.nodes()}, "f_nodes": f_nodes,
                "labels": labels, "children": children_tuples,
                "child": child_pairs, "first-child": first_pairs,
                "dist-child": dist_pairs}

    def holds(self, name: str, g: LabeledGraph, bindings: Mapping) -> bool:
        """Direct decision procedure for a predicate; the fast oracle side.

        bindings maps each variable of the predicate (``free_vars``) to its
        value: a set variable to a ``set`` or ``frozenset`` of vertices of
        g, an element variable to a vertex of g.  A name outside the
        catalogue, or a binding without one of the variables, raises
        UnknownPredicate.  A set variable bound to anything else, a list
        say, raises UnboundVariable, and so does an element variable bound
        to a set or frozenset that is not a vertex of g, as the model
        checker does.  A vertex outside g raises VertexNotInGraph.  These
        are raised at the first such variable in spec order.

        Each predicate has one holder, built with the library.  It reads
        the values and calls the decider on them at once when every set
        value is a frozenset inside g and every element a vertex of g.  Any
        other binding takes the cold path, ``_bound_values``, which raises
        as above or freezes each ``set``, and then calls the same decider.
        """
        try:
            hold = self._holders[name]
        except KeyError:
            raise UnknownPredicate(f"no predicate named {name!r}") from None
        return hold(g, bindings)

    def _holder(self, name: str) -> Callable[[LabeledGraph, Mapping], bool]:
        """The holder of one catalogued predicate (see ``holds``).

        Two and three set variables are unrolled: the binary predicates and
        partition2 take 96% of the formula-agreement sweep's calls, and on
        them the generic loop costs about 0.35 us more per call, 23% of
        that workload's throughput.  Every other spec, one set variable
        included, is rare enough there for the loop."""
        d = self.definitions[name]
        params, kinds = d.params, d.kinds
        decide = self._decider(name)

        def cold(g, b):
            return decide(g, *_bound_values(name, params, kinds, g, b))

        if kinds == (SET, SET):
            p, q = params

            def hold(g, b):
                try:
                    X, Y = b[p], b[q]
                except KeyError:
                    return cold(g, b)
                V = g.vertices
                if (X.__class__ is frozenset and X <= V
                        and Y.__class__ is frozenset and Y <= V):
                    return decide(g, X, Y)
                return cold(g, b)
        elif kinds == (SET, SET, SET):
            p, q, r = params

            def hold(g, b):
                try:
                    X, Y, Z = b[p], b[q], b[r]
                except KeyError:
                    return cold(g, b)
                V = g.vertices
                if (X.__class__ is frozenset and X <= V
                        and Y.__class__ is frozenset and Y <= V
                        and Z.__class__ is frozenset and Z <= V):
                    return decide(g, X, Y, Z)
                return cold(g, b)
        else:
            values_of = (itemgetter(*params) if len(params) > 1
                         else lambda b, v=params[0]: (b[v],))
            is_set = tuple(kind == SET for kind in kinds)

            def hold(g, b):
                try:
                    values = values_of(b)
                except KeyError:
                    return cold(g, b)
                V = g.vertices
                for v, set_valued in zip(values, is_set):
                    if not ((v.__class__ is frozenset and v <= V) if set_valued
                            else v in V):
                        return cold(g, b)
                return decide(g, *values)
        return hold

    def _decider(self, name: str) -> Callable[..., bool]:
        """The decision procedure of one predicate, given the graph and the
        values of its variables in the order of its variable spec."""
        if name == "singleton":
            return lambda g, X, x: X == frozenset((x,))
        if name.startswith("label_") and name[6:] in self.sig.alphabet.symbols:
            sym = name[6:]
            return lambda g, X: (len(X) == 1 and g.labels is not None
                                 and g.labels[next(iter(X))] == sym)
        if name == "partition2":
            return _partition2_holds
        if name.startswith("partition"):
            return _partition_holds
        if name == "module":
            return is_module
        if name == "pmodule":
            return self._pmodule_holds
        if name == "disconnected":
            return lambda g, X: len(X) > 1 and is_internally_disconnected(g, X)
        if name == "connected":
            return lambda g, X: not (len(X) > 1 and is_internally_disconnected(g, X))
        if name == "suffix":
            return self._suffix_holds
        if name == "sequential":
            def sequential(g, X):
                rows = g.rows
                return _sequential(rows, rows.mask(X))
            return sequential
        if name == "initial":
            def initial(g, X, Y):
                if not Y or not Y < X:
                    return False
                rows = g.rows
                return _initial(rows, rows.mask(X), rows.mask(Y))
            return initial
        if name.startswith("label_"):
            return lambda g, X: X in self._graph_info(g)["labels"][name]
        if name.startswith("children_"):
            op_name = name[len("children_"):]
            return lambda g, *sets: sets in self._graph_info(g)["children"][op_name]
        if name == "node":
            return lambda g, X: X in self._graph_info(g)["f_nodes"]
        if name == "child*":
            def below(g, X, Y):
                f_nodes = self._graph_info(g)["f_nodes"]
                return X in f_nodes and Y in f_nodes and Y < X
            return below
        if name in ("child", "first-child", "dist-child"):
            return lambda g, X, Y: (X, Y) in self._graph_info(g)[name]
        raise UnknownPredicate(f"no predicate named {name!r}")

    def _pmodule_holds(self, g: LabeledGraph, X: frozenset[int]) -> bool:
        # a nonempty proper module that overlaps no module: a strong module
        return X != g.vertices and X in self._graph_info(g)["strong"]

    @staticmethod
    def _suffix_holds(g: LabeledGraph, x: frozenset[int], z: frozenset[int]) -> bool:
        if not z or not z < x:
            return False
        rest = x - z
        es = g.edges
        return all((p, q) in es and (q, p) not in es for p in rest for q in z)

    # ------------------------------------------------------------- schema

    def schema(self) -> "TransductionSchema":
        return TransductionSchema(self)


class TransductionSchema:
    """The defining formulas of the graph-to-tree transduction.

    Three copies of the leaf set plus the original one (copy_bound 3) and
    four set parameters standing for the representative sets; phi accepts
    exactly the correct parameter assignments, psi_i places (x, i) in the
    output domain, and theta interprets every tree predicate.  The
    formulas call the library's definitions, kappa_0..kappa_3 among them,
    by name.
    """

    copy_bound = 3
    parameter_count = 4
    params = ("X0", "X1", "X2", "X3")

    def __init__(self, library: PredicateLibrary):
        self.library = library
        self.signature = library.sig
        self.mode = library.mode
        self.graph_signature = library.graph_signature
        self.tree_signature = RelationalSignature(tuple(tree_predicates(
            self.signature.alphabet.symbols, self.signature.prime_ops)))
        self.kappa_formulas = tuple(library.definitions[f"kappa_{i}"].body
                                    for i in range(4))
        self.psi = tuple(In("x", p) for p in self.params)
        self.phi = self._build_phi()
        # (tree predicate, index vector) -> its theta, built once
        self._theta: dict[tuple, CmsFormula] = {}

    def kappa_formula(self, i: int) -> CmsFormula:
        """M = kappa_i(x) with free element variable x and free set variable M."""
        return self.kappa_formulas[i]

    def _kappa(self, i: int, x: str, M: str) -> CmsFormula:
        return self.library.call(f"kappa_{i}", x, M)

    def _build_phi(self) -> CmsFormula:
        k = self._kappa
        parts = []
        for i, Xi in enumerate(self.params):
            defined = ExistsSet("M", k(i, "p", "M"))
            shared = ExistsSet("M", conj(k(i, "p", "M"), k(i, "q", "M")))
            in_domain = Forall("p", Implies(In("p", Xi), defined))
            injective = Forall("p", Forall("q", Implies(
                conj(In("p", Xi), In("q", Xi), Not(Eq("p", "q"))), Not(shared))))
            covering = Forall("p", Implies(defined, Exists("q", conj(In("q", Xi), shared))))
            parts += [in_domain, injective, covering]
        return conj(*parts)

    def _build_theta(self, name: str, ivec: tuple[int, ...]) -> CmsFormula:
        c, k = self.library.call, self._kappa
        arity = self.tree_signature.arity(name)
        if len(ivec) != arity or any(not 0 <= i <= 3 for i in ivec):
            raise ValueError(f"index vector {ivec} does not fit {name!r}")
        xs = tuple(f"x{j}" for j in range(1, arity + 1))
        false = Not(Eq(xs[0], xs[0]))
        true = Eq(xs[0], xs[0])
        comm_label = ("label_clique" if self.mode is NodeKind.CLIQUE
                      else "label_par")
        if name.startswith("label_") and name[6:] in self.signature.alphabet.symbols:
            return Pred(name, xs) if ivec[0] == 0 else false
        if name == comm_label:
            return true if ivec[0] in (1, 2) else false
        if name in ("label_par", "label_clique"):
            return false  # the inactive commutative product labels nothing
        if name.startswith("label_"):
            # label_seq or a prime operation's label, on the node of x1
            if ivec[0] != 3:
                return false
            return ExistsSet("M", conj(k(3, xs[0], "M"), c(name, "M")))
        if name in ("child", "first-child") or name.startswith("dist-child_"):
            if name.startswith("dist-child_"):
                rel = conj(c("label_" + name[len("dist-child_"):], "M"),
                           c("dist-child", "M", "N"))
            else:
                rel = c(name, "M", "N")
            return ExistsSet("M", conj(k(ivec[0], xs[0], "M"), ExistsSet(
                "N", conj(k(ivec[1], xs[1], "N"), rel))))
        if name.startswith("children_"):
            # each existsset Mj encloses only its own kappa conjunct and what
            # follows it, so the checker fixes Mj before it guesses M(j+1)
            sets = [f"M{j}" for j in range(1, arity + 1)]
            out = c(name, *sets)
            for j in reversed(range(arity)):
                out = ExistsSet(sets[j], conj(k(ivec[j], xs[j], sets[j]), out))
            return out
        raise UnknownPredicate(f"no tree predicate named {name!r}")

    def theta(self, name: str, ivec: Sequence[int]) -> CmsFormula:
        """The theta formula of a tree predicate and index vector; a key
        gives the same object every time."""
        key = (name, tuple(ivec))
        f = self._theta.get(key)
        if f is None:
            f = self._theta[key] = self._build_theta(*key)
        return f


def transduction_schema(sig: Signature) -> TransductionSchema:
    """Assemble phi, psi_0..psi_3 and the theta family for a signature."""
    return PredicateLibrary(sig).schema()
