import gc
import itertools
import os
import random
import re
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from deep_term import LEVELS, alternating_term
from mdec_referee import (NotAModule, brute_force_modules, maximal_prime_modules,
                          modules, quotient_graph, referee_adhoc_name,
                          referee_binarize, referee_decompose, referee_prime_modules)
from modgraph.errors import NotInSignature, TooSmall, UnknownOp, VertexNotInGraph
from modgraph.generators import random_digraph, random_f_graph, random_term
from modgraph.graphs import Alphabet, LabeledGraph
from modgraph.cms import tree_prime_ops
from modgraph.mdec import (MDecNode, MDecPrimeTree, MDecTree, NodeKind, Rows, _adhoc_name,
                           binarize, brute_force_prime_modules, decompose,
                           fold_tree, format_tree, node_masks, reconstruct,
                           shuffle_admissible, tree_prime_modules, tree_to_term,
                           verify_binarized)
from modgraph.recognizer import evaluate_tree
from modgraph.samples import (even_vertices_algebra, p3_op, scw5_signature,
                              spp3_signature, spw5_signature, w5_op, word_graph)
from modgraph.signature import (CLIQUE_OP, PAR_OP, SEQ_OP, Signature, Term,
                                eval_term, prime_op)
from modgraph.transduction import check_kappa_lemma, encode_graph


def leaf(s):
    return Term.leaf(s)


def node(op, *kids):
    return Term.node(op, list(kids))


SIG = spw5_signature()


class TestMaximalPrimeModules:
    def test_seq_chain_order(self):
        g = eval_term(SIG, node("seq", leaf("a"), leaf("b"), leaf("a")))
        case, blocks = maximal_prime_modules(g)
        assert case is NodeKind.SEQ
        assert blocks == [frozenset({1}), frozenset({2}), frozenset({3})]

    def test_par_two_isolated(self):
        g = eval_term(SIG, node("par", leaf("a"), leaf("b")))
        case, blocks = maximal_prime_modules(g)
        assert case is NodeKind.PAR
        assert blocks == [frozenset({1}), frozenset({2})]

    def test_clique(self):
        g = LabeledGraph.build([1, 2], [(1, 2), (2, 1)], {1: "a", 2: "b"})
        case, _ = maximal_prime_modules(g)
        assert case is NodeKind.CLIQUE

    def test_w5_prime_quotient(self):
        g = eval_term(SIG, node("W5", *[leaf(s) for s in "ababa"]))
        case, blocks = maximal_prime_modules(g)
        assert case is NodeKind.PRIME
        assert len(blocks) == 5 and all(len(b) == 1 for b in blocks)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            maximal_prime_modules(word_graph("a"))

    def test_non_consecutive_chain_blocks(self):
        # a . (b (+) b) . a : middle block is not a singleton
        g = eval_term(SIG, node("seq", leaf("a"),
                                node("par", leaf("b"), leaf("b")), leaf("a")))
        case, blocks = maximal_prime_modules(g)
        assert case is NodeKind.SEQ
        assert blocks == [frozenset({1}), frozenset({2, 3}), frozenset({4})]


class TestQuotient:
    def test_chain_quotient(self):
        g = word_graph("ab")
        q = quotient_graph(g, [frozenset({1}), frozenset({2})])
        assert q.edges == frozenset({(1, 2)})

    def test_block_pair(self):
        g = LabeledGraph.build([1, 2, 3], [(1, 3), (2, 3)],
                               {1: "a", 2: "a", 3: "a"})
        q = quotient_graph(g, [frozenset({1, 2}), frozenset({3})])
        assert q.edges == frozenset({(1, 2)})

    def test_single_block(self):
        g = word_graph("ab")
        q = quotient_graph(g, [g.vertices])
        assert q.n == 1 and not q.edges

    def test_rejects_non_module(self):
        g = eval_term(SIG, node("seq", leaf("a"), leaf("b"), leaf("a")))
        with pytest.raises(NotAModule):
            quotient_graph(g, [frozenset({1, 3}), frozenset({2})])


class TestDecompose:
    def test_single_vertex_leaf(self):
        t = decompose(word_graph("a"))
        assert t.root.is_leaf and t.root.symbol == "a"

    def test_seq_par_tree(self):
        g = eval_term(SIG, node("seq", leaf("a"),
                                node("par", leaf("b"), leaf("b")), leaf("a")))
        t = decompose(g, SIG)
        root = t.root
        assert root.kind is NodeKind.SEQ
        kinds = [c.kind for c in root.children]
        assert kinds == [NodeKind.LEAF, NodeKind.PAR, NodeKind.LEAF]
        # ground truth from the subset-enumeration oracle
        assert tree_prime_modules(t) == brute_force_prime_modules(g)

    def test_w5_children_in_admissible_order(self):
        g = eval_term(SIG, node("W5", *[leaf(s) for s in "ababa"]))
        t = decompose(g, SIG)
        assert t.root.kind is NodeKind.PRIME and t.root.op.name == "W5"
        mods = [c.module for c in t.root.children]
        es = g.edges
        for (i, j) in t.root.op.graph.edges:
            assert all((u, v) in es for u in mods[i - 1] for v in mods[j - 1])

    def test_not_in_signature_carries_quotient(self):
        g = LabeledGraph.build([1, 2, 3], [(1, 2), (2, 3)],
                               {1: "a", 2: "a", 3: "a"})
        with pytest.raises(NotInSignature) as exc:
            decompose(g, SIG)
        assert exc.value.quotient is not None
        assert exc.value.quotient.n == 3

    def test_open_mode_accepts_any_prime(self):
        g = LabeledGraph.build([1, 2, 3], [(1, 2), (2, 3)],
                               {1: "a", 2: "a", 3: "a"})
        t = decompose(g)
        assert t.root.kind is NodeKind.PRIME


class TestBinarize:
    def test_three_children_comb(self):
        g = eval_term(SIG, node("seq", leaf("a"), leaf("b"), leaf("a")))
        t = binarize(decompose(g, SIG))
        root = t.root
        assert [sorted(c.module) for c in root.children] == [[1], [2, 3]]
        inner = root.children[1]
        assert inner.kind is NodeKind.SEQ
        assert [sorted(c.module) for c in inner.children] == [[2], [3]]
        assert root.children[0].module == frozenset({1})

    def test_no_seq_unchanged(self):
        g = eval_term(SIG, node("par", leaf("a"), leaf("b")))
        t = decompose(g, SIG)
        assert reconstruct(binarize(t)) == g

    def test_two_children_kept(self):
        g = eval_term(SIG, node("seq", leaf("a"), leaf("b")))
        t = binarize(decompose(g, SIG))
        assert len(t.root.children) == 2
        assert all(not c.children for c in t.root.children)


class TestBinarizeReferee:
    """``binarize`` against the fold that rebuilds every node, and the
    ad-hoc names against the matrix set edge by edge."""

    @staticmethod
    def _trees(seed, count):
        rng = random.Random(seed)
        for k in range(count):
            if k % 3 == 0:
                g = random_digraph(rng, rng.randint(1, 12), rng.choice((0.2, 0.5)))
                sig = None
            else:
                sig = TERM_SIGS[k % len(TERM_SIGS)]
                g = random_f_graph(rng, sig, max_depth=6, max_leaves=20)
            t = decompose(g, sig)
            yield g, t
            yield g, shuffle_admissible(t, rng)
            yield g, MDecTree(t.root)

    @staticmethod
    def _wide_free(t):
        """The nodes of t whose subtree holds no seq node of >= 3 children."""
        found = set()

        def combine(node, kids):
            free = all(kids) and not (node.kind is NodeKind.SEQ and len(kids) >= 3)
            if free:
                found.add(node)
            return free

        fold_tree(t.root, combine)
        return found

    def test_same_trees_as_the_referee(self):
        combs = 0
        for _, t in self._trees(91, 300):
            got, want = binarize(t), referee_binarize(t)
            assert type(got) is MDecPrimeTree and got.rows is t.rows
            assert format_tree(got) == format_tree(want)
            assert got.masks == want.masks
            assert got.child_positions() == want.child_positions()
            assert got.parent_positions() == want.parent_positions()
            assert list(got.leaf_of) == list(want.leaf_of)
            assert [n.module for n in got.leaf_of.values()] == \
                [n.module for n in want.leaf_of.values()]
            combs += len(got.nodes()) - len(t.nodes())
        assert combs > 300

    def test_unchanged_subtrees_are_shared(self):
        shared = 0
        for _, t in self._trees(92, 150):
            b = binarize(t)
            free = self._wide_free(t)
            assert set(b.nodes()) & set(t.nodes()) == free
            assert all(n.children is b.nodes()[p].children
                       for p, n in enumerate(b.nodes()) if n in free)
            if t.root in free:
                assert b.root is t.root and b.nodes() is t.nodes()
            shared += len(free)
        assert shared > 1000

    @staticmethod
    def _random_root(rng, verts):
        """A tree of any kinds over verts, inner nodes of one to four
        children, not necessarily a decomposition."""
        if len(verts) == 1 and rng.random() < 0.7:
            return _leaf(verts[0])
        k = rng.randint(1, min(4, len(verts)))
        cuts = sorted(rng.sample(range(1, len(verts)), k - 1))
        parts = [verts[a:b] for a, b in zip([0] + cuts, cuts + [len(verts)])]
        kind = rng.choice((NodeKind.SEQ, NodeKind.SEQ, NodeKind.PAR, NodeKind.CLIQUE))
        return _node(kind, [TestBinarizeReferee._random_root(rng, p) for p in parts])

    def test_bad_seq_trees_raise_the_referee_errors(self):
        rng = random.Random(93)
        errors = {}
        for _ in range(600):
            t = MDecTree(self._random_root(rng, list(range(1, rng.randint(2, 9)))))
            try:
                want = format_tree(referee_binarize(t))
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    binarize(t)
                assert str(got.value) == str(e)
                errors[str(e)] = errors.get(str(e), 0) + 1
            else:
                assert format_tree(binarize(t)) == want
        assert len(errors) == 2 and min(errors.values()) > 50

    def test_adhoc_names_as_the_referee(self):
        rng = random.Random(94)
        for k in range(200):
            n = rng.randint(3, 14)
            g = random_digraph(rng, n, rng.choice((0.2, 0.4, 0.6)))
            if k % 2:
                ids = rng.sample(range(1, 60), n)
                g = LabeledGraph.build(ids, [(ids[u - 1], ids[v - 1]) for u, v in g.edges])
            rows = g.rows
            t = decompose(g)
            for p, node in enumerate(t.nodes()):
                if node.kind is not NodeKind.PRIME:
                    continue
                q = node.op.graph
                assert node.op.name == _adhoc_name(q) == referee_adhoc_name(q)
                blocks = [rows.mask(c.module) for c in node.children]
                assert q == rows.quotient(blocks)
                # a prime split of ids 1..n into singletons is g itself
                own = p == 0 and g.vertices == frozenset(range(1, n + 1)) and \
                    len(blocks) == n
                assert (q.edges is g.edges and q.rows is rows) == own


def _leaf(v):
    return MDecNode(frozenset({v}), NodeKind.LEAF, symbol="a")


def _node(kind, kids, op=None):
    return MDecNode(frozenset().union(*(c.module for c in kids)), kind,
                    tuple(kids), op=op)


# (tree root, graph) pairs, each failing exactly one of the checks; the
# last graph is W5 with arguments 1 and 2 swapped
_W5_SWAPPED = LabeledGraph.on_range(5, [(2, 1), (3, 1), (3, 4), (5, 4)])
_NOT_VERIFIED = {
    "kind": (_node(NodeKind.CLIQUE, [_leaf(1), _leaf(2)]),
             LabeledGraph.on_range(2, [])),
    "inner_node_on_one_vertex": (
        _node(NodeKind.PAR, [_leaf(1), _node(NodeKind.PAR, [_leaf(2)])]),
        LabeledGraph.on_range(2, [])),
    "children_are_not_the_blocks": (
        MDecNode(frozenset({1, 2, 3}), NodeKind.PAR, (_leaf(1), _leaf(2), _leaf(2))),
        LabeledGraph.on_range(3, [])),
    "seq_first_child": (
        MDecNode(frozenset({1, 2}), NodeKind.SEQ, (_leaf(2), _leaf(2))),
        LabeledGraph.on_range(2, [(1, 2)])),
    "operation_not_given": (
        _node(NodeKind.PRIME, [_leaf(v) for v in range(1, 6)],
              op=prime_op("W5x", w5_op().graph)),
        w5_op().graph),
    "quotient_is_not_the_operation": (
        _node(NodeKind.PRIME, [_leaf(v) for v in range(1, 6)], op=w5_op()),
        _W5_SWAPPED),
}


class TestVerifyBinarized:
    def test_accepts_the_binarized_decomposition(self):
        rng = random.Random(13)
        for k in range(120):
            if k % 2:
                g = random_f_graph(rng, SIG, max_depth=5, max_leaves=12)
                t = binarize(decompose(g, SIG))
                ops = SIG.prime_ops
            else:
                g = random_digraph(rng, rng.randint(1, 9), 0.4)
                t = binarize(decompose(g))
                ops = tree_prime_ops(t)
            if k % 3 == 0:
                t = shuffle_admissible(t, rng)
            rows = Rows(g)
            masks = verify_binarized(t, rows, ops)
            nodes, up = t.nodes(), t.parent_positions()
            assert list(masks) == [rows.mask(n.module) for n in nodes]
            # the parents and leaves it gave before are the tree's own
            assert t.parents() == {nodes[p]: nodes[q]
                                   for p, q in enumerate(up) if q is not None}
            assert all(masks[p] & ~masks[q] == 0 for p, q in enumerate(up) if q is not None)
            assert list(t.leaf_of.items()) == [(rows.verts[m.bit_length() - 1], n)
                                               for n, m in zip(nodes, masks) if n.is_leaf]
            if t.masks is not None:
                # on its own rows, the masks the tree carries
                assert verify_binarized(t, t.rows, ops) is t.masks

    @pytest.mark.parametrize("case", sorted(_NOT_VERIFIED))
    def test_rejects(self, case):
        root, g = _NOT_VERIFIED[case]
        assert verify_binarized(MDecTree(root), Rows(g), [w5_op()]) is None


def _same_rows(a, b):
    # the adjacency, not the split memo
    return all(getattr(a, s) == getattr(b, s)
               for s in ("verts", "bit", "out", "inn", "und", "co", "fwd", "bwd"))


# terms over every kind of operation: seq, par, clique, W5 and P3
ALL_KINDS = Signature(Alphabet(("a", "b")),
                      (SEQ_OP, PAR_OP, CLIQUE_OP, w5_op(), p3_op()))


class TestRowsFromStructure:
    """Rows built from a term's ranges equal the rows ``Rows(g)`` builds
    from the edges, and a graph keeps the rows it built."""

    def test_eval_term_rows(self):
        rng = random.Random(70)
        sigs = (ALL_KINDS, SIG, scw5_signature(), spp3_signature())
        for k in range(400):
            sig = sigs[k % len(sigs)]
            g = eval_term(sig, random_term(rng, sig, max_depth=6,
                                           max_leaves=rng.randint(1, 24)))
            assert _same_rows(g.rows, Rows(g))

    def test_deep_term(self):
        g = eval_term(SIG, alternating_term())
        assert _same_rows(g.rows, Rows(g))

    def test_unflattened_trees(self):
        # nesting the first two children of a par, clique or seq node in a
        # node of the same kind keeps the graph and fails verification
        rng = random.Random(76)
        rejected = 0
        for k in range(200):
            g = random_f_graph(rng, ALL_KINDS, max_depth=5, max_leaves=16)
            d = decompose(g)

            def unflatten(node, kids):
                if (node.kind in (NodeKind.PAR, NodeKind.CLIQUE, NodeKind.SEQ)
                        and len(kids) > 2 and rng.random() < 0.7):
                    kids = [_node(node.kind, kids[:2])] + kids[2:]
                return MDecNode(node.module, node.kind, tuple(kids), node.symbol, node.op)

            t = MDecTree(fold_tree(d.root, unflatten))
            assert reconstruct(t) == g
            rejected += verify_binarized(t, Rows(g), tree_prime_ops(t)) is None
        assert rejected > 50

    def test_graph_rows_are_kept(self):
        g = random_digraph(random.Random(72), 8)
        assert g.rows is g.rows
        assert decompose(g).root.module == g.vertices and g.rows is g.rows

    def test_sparse_ids_split_like_their_relabelling(self):
        # ids other than 1..n take the dict path of the edge build; every
        # digraph on four vertices, on the ids 2, 5, 9 and 40
        ids = (2, 5, 9, 40)
        pairs = [(u, v) for u in range(1, 5) for v in range(1, 5) if u != v]
        for bits in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
            dense = LabeledGraph.on_range(4, edges)
            sparse = LabeledGraph.build(ids, [(ids[u - 1], ids[v - 1])
                                              for u, v in edges])
            a, b = Rows(dense), Rows(sparse)
            assert b.verts == list(ids)
            assert (a.out, a.inn) == (b.out, b.inn)
            assert a.split(15) == b.split(15)
            assert a.modules() == b.modules()


class TestSplitMemo:
    def test_cold_and_warm_splits_agree(self):
        rng = random.Random(77)
        for k in range(200):
            if k % 2:
                g = random_f_graph(rng, ALL_KINDS, max_depth=5, max_leaves=16)
            else:
                g = random_digraph(rng, rng.randint(2, 9), rng.choice((0.2, 0.5)))
            t = decompose(g)
            warm = g.rows
            # the masks decompose split, and masks that are no module
            masks = [warm.mask(n.module) for n in t.nodes() if not n.is_leaf]
            masks += [rng.randrange(1, 1 << g.n) for _ in range(3)]
            for m in masks:
                found = warm.split(m)
                assert found == Rows(g).split(m)
                assert type(found[1]) is tuple and warm.split(m) is found

    def test_trees_carry_the_rows_they_were_split_on(self):
        g = random_digraph(random.Random(78), 8)
        t = decompose(g)
        assert t.rows is g.rows and binarize(t).rows is g.rows
        assert MDecTree(t.root).rows is None


class TestCarriedMasks:
    """``decompose`` records each node's mask as it splits it, ``binarize``
    ORs those of its comb nodes, and no other tree carries masks."""

    @staticmethod
    def _graphs(seed, count):
        rng = random.Random(seed)
        for k in range(count):
            if k % 3 == 0:
                yield random_digraph(rng, rng.randint(1, 10), rng.choice((0.2, 0.5))), None
            else:
                sig = (SIG, scw5_signature())[k % 3 - 1]
                yield random_f_graph(rng, sig, max_depth=5, max_leaves=14), sig

    def test_decompose_and_binarize_carry_the_module_masks(self):
        combs = 0
        for g, sig in self._graphs(81, 240):
            t = decompose(g, sig)
            b = binarize(t)
            combs += len(b.nodes()) - len(t.nodes())
            rows = g.rows
            for tree in (t, b):
                assert tree.rows is rows
                assert list(tree.masks) == [rows.mask(n.module) for n in tree.nodes()]
                assert node_masks(tree, rows) is tree.masks
                # other rows, even of the same graph, read the modules
                assert node_masks(tree, Rows(g)) == list(tree.masks)
        assert combs > 100

    def test_other_trees_carry_none(self):
        rng = random.Random(82)
        for g, sig in self._graphs(83, 120):
            t = decompose(g, sig)
            rows = g.rows
            rebuilt = [MDecTree(t.root), MDecPrimeTree(binarize(t).root, rows=rows),
                       shuffle_admissible(t, rng), shuffle_admissible(binarize(t), rng)]
            assert all(binarize(tree).masks is None for tree in rebuilt)
            victims = [n for n in t.nodes()[1:] if n.children]
            if victims:
                # the in-place edit of a built tree that a test of the
                # benchmark makes, splicing a node out: the tree rebuilt
                # after it carries no masks
                victim = rng.choice(victims)
                parent = t.parents()[victim]
                parent.children = tuple(c for k in parent.children
                                        for c in (victim.children if k is victim else (k,)))
                rebuilt.append(MDecTree(t.root, rows=rows))
            for tree in rebuilt:
                assert tree.masks is None
                assert node_masks(tree, rows) == [rows.mask(n.module) for n in tree.nodes()]

    def test_a_vertex_outside_the_rows_gives_none(self):
        g = word_graph("abab")
        t = decompose(g)
        assert node_masks(t, word_graph("aba").rows) is None
        assert node_masks(MDecTree(t.root), word_graph("aba").rows) is None
        assert node_masks(t, word_graph("ababa").rows) == list(t.masks)

    def test_index_form(self):
        for g, sig in self._graphs(84, 60):
            for t in (decompose(g, sig), binarize(decompose(g, sig))):
                nodes, up, down = t.nodes(), t.parent_positions(), t.child_positions()
                assert up[0] is None and nodes[0] is t.root
                for p, node in enumerate(nodes):
                    assert [nodes[c] for c in down[p]] == list(node.children)
                    assert all(up[c] == p for c in down[p])
                assert t.parents() == {c: n for n in nodes for c in n.children}
                assert list(t.leaf_of.values()) == [n for n in nodes if n.is_leaf]


class TestAdhocNames:
    NAME = re.compile(r"prime([0-9]+)_[0-9a-f]{16}")

    @staticmethod
    def _names(t):
        return [(n.op.name, n.op.graph) for n in t.nodes() if n.kind is NodeKind.PRIME]

    def test_format(self):
        # P4 in both directions: the CRC-32 and then the Adler-32 of its
        # adjacency matrix, row by row, one byte per entry
        q = LabeledGraph.on_range(4, [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)])
        matrix = bytes((u, v) in q.edges for u in range(1, 5) for v in range(1, 5))
        name = f"prime4_{zlib.crc32(matrix):08x}{zlib.adler32(matrix):08x}"
        assert _adhoc_name(q) == name == "prime4_a32ba4a900430007"
        assert decompose(q).root.op.name == name

    def test_length_does_not_grow_with_the_edges(self):
        rng = random.Random(73)
        for n in (4, 12, 40):
            for p in (0.2, 0.5, 0.9):
                g = random_digraph(rng, n, p)
                for name, q in self._names(decompose(g)):
                    assert self.NAME.fullmatch(name)
                    assert len(name) == len(f"prime{q.n}_") + 16

    def test_distinct_quotients_get_distinct_names(self):
        rng = random.Random(74)
        named = {}
        for _ in range(400):
            g = random_digraph(rng, rng.randint(4, 8), rng.choice((0.3, 0.5, 0.7)))
            for name, q in self._names(decompose(g)):
                named.setdefault(name, set()).add(q.edges)
        assert len(named) > 300
        assert all(len(qs) == 1 for qs in named.values())

    def test_equal_quotients_get_equal_names_in_other_processes(self):
        code = ("import random\n"
                "from modgraph.generators import random_digraph\n"
                "from modgraph.mdec import NodeKind, decompose\n"
                "rng = random.Random(75)\n"
                "for _ in range(20):\n"
                "    t = decompose(random_digraph(rng, 9, 0.4))\n"
                "    print(*[n.op.name for n in t.nodes() if n.kind is NodeKind.PRIME])\n")
        rng = random.Random(75)
        want = "".join(" ".join(name for name, _ in self._names(
            decompose(random_digraph(rng, 9, 0.4)))) + "\n" for _ in range(20))
        root = Path(__file__).resolve().parent.parent
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=seed)
            run = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, timeout=60)
            assert run.returncode == 0, run.stderr
            assert run.stdout == want


class TestReconstruct:
    def test_leaf(self):
        t = decompose(word_graph("a"))
        assert reconstruct(t) == word_graph("a")

    def test_binarized_same_graph(self):
        g = eval_term(SIG, node("seq", leaf("a"), leaf("b"), leaf("a"), leaf("b")))
        t = decompose(g, SIG)
        assert reconstruct(t) == g == reconstruct(binarize(t))

    def test_operation_not_in_the_signature(self):
        g = eval_term(SPW5P3, node("seq", node("P3", leaf("a"), leaf("b"), leaf("a")),
                                   leaf("b")))
        t = decompose(g, SPW5P3)
        assert reconstruct(t, SPW5P3) == g
        with pytest.raises(UnknownOp, match="^operation 'P3' not in signature$"):
            reconstruct(t, SIG)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_roundtrip_random_terms(self, seed):
        rng = random.Random(seed)
        g = eval_term(SIG, random_term(rng, SIG, max_depth=5, max_leaves=10))
        t = decompose(g, SIG)
        assert reconstruct(t) == g
        assert reconstruct(binarize(t)) == g

    @pytest.mark.parametrize("case, vertex", [("children_are_not_the_blocks", 3),
                                              ("seq_first_child", 1)])
    def test_leaves_missing_a_vertex_of_the_root(self, case, vertex):
        # a hand-built tree whose leaves miss a vertex of the root's module:
        # reconstruct names that vertex, and the kappa check and the
        # encoding of its graph stop on it with a package error
        root, g = _NOT_VERIFIED[case]
        message = f"^vertex {vertex} of the root's module is in no leaf$"
        for t in (MDecTree(root), MDecPrimeTree(root)):
            with pytest.raises(VertexNotInGraph, match=message):
                reconstruct(t)
        enc = encode_graph(g, SIG)[2]
        with pytest.raises(VertexNotInGraph, match=message):
            check_kappa_lemma(MDecPrimeTree(root), enc, SIG)

    def test_a_leaf_outside_the_root(self):
        root = MDecNode(frozenset({1, 2}), NodeKind.PAR, (_leaf(1), _leaf(2), _leaf(5)))
        with pytest.raises(VertexNotInGraph,
                           match="^leaf vertex 5 is not in the root's module$"):
            reconstruct(MDecTree(root))


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        g = random_digraph(rng, rng.randint(1, 7))
        assert tree_prime_modules(decompose(g)) == brute_force_prime_modules(g)

    def test_modules_contain_trivial(self):
        g = word_graph("aba")
        mods = set(modules(g))
        assert g.vertices in mods
        assert all(frozenset({v}) in mods for v in g.vertices)


def assert_same_modules(g):
    """NextClosure against the 2^n enumeration: the same modules, each
    once, in lectic order (ascending masks), and the same strong ones."""
    got = modules(g)
    assert got == brute_force_modules(g)
    rows = Rows(g)
    masks = [rows.mask(m) for m in got]
    assert masks == sorted(set(masks))
    assert brute_force_prime_modules(g) == referee_prime_modules(g)


class TestModuleOracle:
    """``Rows.modules`` against the subset-enumeration referee."""

    def test_every_digraph_on_at_most_four_vertices(self):
        for n in range(5):
            pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
            for bits in range(1 << len(pairs)):
                edges = [e for k, e in enumerate(pairs) if bits >> k & 1]
                assert_same_modules(LabeledGraph.build(range(1, n + 1), edges))

    def test_seeded_digraphs_up_to_ten_vertices(self):
        rng = random.Random(31)
        for _ in range(1000):
            g = random_digraph(rng, rng.randint(1, 10), rng.choice((0.15, 0.3, 0.5, 0.8)))
            assert_same_modules(g)

    def test_seeded_f_graphs_with_sparse_ids(self):
        # module-rich inputs, with vertex ids that are not 1..n
        rng = random.Random(32)
        for k in range(200):
            sig = TERM_SIGS[k % len(TERM_SIGS)]
            g = eval_term(sig, random_term(rng, sig, max_depth=5, max_leaves=10))
            ids = rng.sample(range(1, 100), g.n)
            ren = dict(zip(g.sorted_vertices(), ids))
            assert_same_modules(LabeledGraph.build(
                ids, [(ren[u], ren[v]) for u, v in g.edges]))

    def test_par_node_has_two_to_the_k_modules(self):
        # the documented limit: the enumeration is output-sensitive
        g = LabeledGraph.build(range(1, 13), [])
        assert len(modules(g)) == 2 ** 12 - 1


class TestTreeOutput:
    def test_format_marks_first_child(self):
        g = eval_term(SIG, node("seq", leaf("a"), leaf("b"), leaf("a")))
        text = format_tree(binarize(decompose(g, SIG)))
        assert "[first]" in text
        assert text.splitlines()[0].startswith("seq {1,2,3}")

    def test_term_roundtrip(self):
        t0 = node("seq", leaf("a"), node("par", leaf("b"), leaf("b")), leaf("a"))
        g = eval_term(SIG, t0)
        term = tree_to_term(decompose(g, SIG))
        assert eval_term(SIG, term) == g

    def test_binarized_term_is_flattened(self):
        g = eval_term(SIG, node("seq", leaf("a"), leaf("b"), leaf("a")))
        term = tree_to_term(binarize(decompose(g, SIG)))
        assert term.op == "seq" and len(term.children) == 3


class TestShuffle:
    def test_admissible_reorder_reconstructs_same_graph(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_f_graph(rng, SIG, max_depth=4, max_leaves=9)
            t = decompose(g, SIG)
            assert reconstruct(shuffle_admissible(t, rng)) == g


SPW5P3 = Signature(Alphabet(("a", "b")), (SEQ_OP, PAR_OP, w5_op(), p3_op()))
TERM_SIGS = (SIG, scw5_signature(), spp3_signature(), SPW5P3)


def op_names(t):
    return [n.op.name if n.op is not None else n.kind.value for n in t.nodes()]


def assert_same_as_referee(g, sig=None):
    got, want = decompose(g, sig), referee_decompose(g, sig)
    assert format_tree(got) == format_tree(want)
    assert op_names(got) == op_names(want)
    return got


class TestReferee:
    """The decomposition against the pairwise-closure case analysis."""

    def test_every_digraph_on_four_vertices(self):
        pairs = [(u, v) for u in range(1, 5) for v in range(1, 5) if u != v]
        for bits in range(1 << len(pairs)):
            edges = [e for k, e in enumerate(pairs) if bits >> k & 1]
            assert_same_as_referee(LabeledGraph.build(
                range(1, 5), edges, dict.fromkeys(range(1, 5), "a")))

    def test_seeded_small_digraphs(self):
        rng = random.Random(9)
        for _ in range(1000):
            g = random_digraph(rng, rng.randint(1, 9), rng.choice((0.15, 0.3, 0.5, 0.8)))
            t = assert_same_as_referee(g)
            assert tree_prime_modules(t) == brute_force_prime_modules(g)

    def test_seeded_terms(self):
        rng = random.Random(17)
        for k in range(200):
            sig = TERM_SIGS[k % len(TERM_SIGS)]
            g = eval_term(sig, random_term(rng, sig, max_depth=6, max_leaves=30))
            assert_same_as_referee(g, sig)

    def test_large_inputs(self):
        rng = random.Random(23)
        for n in (50, 80):
            assert_same_as_referee(random_digraph(rng, n, 0.3))
        for sig, leaves in ((SIG, 120), (SPW5P3, 100)):
            term = next(t for t in iter(lambda: random_term(rng, sig, 10, leaves), None)
                        if len(t.leaves()) >= leaves // 2)
            assert_same_as_referee(eval_term(sig, term), sig)


def same_term(a, b):
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if (x.op, x.symbol, len(x.children)) != (y.op, y.symbol, len(y.children)):
            return False
        stack.extend(zip(x.children, y.children))
    return True


class TestDeepInput:
    def test_deep_term_through_the_library(self):
        levels = LEVELS
        assert levels > sys.getrecursionlimit()
        term = alternating_term()
        g = eval_term(SIG, term)
        assert g.n == levels + 1
        t = decompose(g, SIG)
        b = binarize(t)
        assert reconstruct(b, SIG) == g
        text = format_tree(b)
        assert len(text.splitlines()) == 2 * levels + 1
        assert text.splitlines()[1] == "  leaf a {1} [first]"
        assert same_term(tree_to_term(b), term)

    def test_term_methods_without_recursion(self):
        levels = LEVELS
        term = alternating_term()
        assert term.leaves() == ["a"] * (levels + 1)
        assert str(term) == "(seq a (par a " * (levels // 2) + "a" + ")" * levels
        twin = alternating_term()
        assert twin is not term and twin == term and hash(twin) == hash(term)
        assert term != alternating_term(ops=("par", "seq"))
        # differs from term in the deepest leaf only
        odd = alternating_term(bottom="b")
        assert odd != term and len({odd, term, twin}) == 2


def _found_term():
    """The fourth spw5 draw with at least 150 leaves: 390 vertices."""
    rng = random.Random(5)
    big = (t for t in iter(lambda: random_term(rng, SIG, max_depth=14, max_leaves=400), None)
           if len(t.leaves()) >= 150)
    return next(itertools.islice(big, 3, None))


class TestScale:
    def test_large_spw5_term_under_two_seconds(self):
        g = eval_term(SIG, _found_term())
        assert g.n == 390
        start = time.perf_counter()
        t = decompose(g, SIG)
        took = time.perf_counter() - start
        assert sorted(len(c.module) for c in t.root.children) == [1, 45, 48, 106, 190]
        assert reconstruct(t) == g
        assert took < 2, f"decompose took {took:.2f} s"

    def test_prime_digraph_of_2000_vertices_under_two_seconds(self):
        g = random_digraph(random.Random(1), 2000, 0.3)
        g.rows
        start = time.perf_counter()
        t = decompose(g)
        took = time.perf_counter() - start
        assert len(t.nodes()) == 2001
        # the root's quotient is g itself, on g's edges
        assert t.root.op.graph.edges is g.edges
        assert took < 2, f"decompose took {took:.2f} s"

    @pytest.mark.parametrize("ops", [("seq", "par"), ("clique", "par")])
    def test_alternating_cograph_under_two_seconds(self, ops):
        sig = Signature(Alphabet(("a",)), (SEQ_OP, PAR_OP, CLIQUE_OP))
        g = eval_term(sig, alternating_term(399, ops))
        assert g.n == 400
        start = time.perf_counter()
        t = decompose(g)
        took = time.perf_counter() - start
        assert len(t.nodes()) == 799
        assert took < 2, f"decompose took {took:.2f} s"


def test_pipeline_leaves_no_reference_cycles():
    rng = random.Random(60)
    term = next(t for t in iter(lambda: random_term(rng, SIG, 8, 60), None)
                if len(t.leaves()) == 60 and "W5" in str(t))
    g = eval_term(SIG, term)
    raw = random_digraph(rng, 60)
    alg = even_vertices_algebra(SIG)
    gc.collect()
    gc.disable()
    try:
        for graph, sig in ((g, SIG), (raw, None)):
            b = binarize(decompose(graph, sig))
            assert reconstruct(b, sig) == graph
            if sig is not None:
                evaluate_tree(b, alg)
        del b
        assert gc.collect() == 0
    finally:
        gc.enable()
