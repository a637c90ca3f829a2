import gc
import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from deep_term import LEVELS, alternating_term
from mdec_referee import brute_force_modules, referee_decompose, referee_prime_modules
from modgraph.errors import NotAModule, NotInSignature, TooSmall, UnknownOp
from modgraph.generators import random_digraph, random_f_graph, random_term
from modgraph.graphs import Alphabet, LabeledGraph
from modgraph.cms import tree_prime_ops
from modgraph.mdec import (MDecNode, MDecTree, NodeKind, Rows, all_modules, binarize,
                           brute_force_prime_modules, decompose, format_tree,
                           maximal_prime_modules, quotient_graph, reconstruct,
                           shuffle_admissible, tree_prime_modules, tree_to_term,
                           verify_binarized)
from modgraph.recognizer import evaluate_tree
from modgraph.samples import (even_vertices_algebra, p3_op, scw5_signature,
                              spp3_signature, spw5_signature, w5_op, word_graph)
from modgraph.signature import (CLIQUE_OP, PAR_OP, SEQ_OP, Signature, Term,
                                eval_term, prime_op)


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
        assert t.first_child(root).module == frozenset({1})

    def test_no_seq_unchanged(self):
        g = eval_term(SIG, node("par", leaf("a"), leaf("b")))
        t = decompose(g, SIG)
        assert reconstruct(binarize(t)) == g

    def test_two_children_kept(self):
        g = eval_term(SIG, node("seq", leaf("a"), leaf("b")))
        t = binarize(decompose(g, SIG))
        assert len(t.root.children) == 2
        assert all(not c.children for c in t.root.children)


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
            mask, parents, leaves = verify_binarized(t, rows, ops)
            assert mask == {n: rows.mask(n.module) for n in t.nodes()}
            assert parents == t.parents() and leaves == t.leaf_of

    @pytest.mark.parametrize("case", sorted(_NOT_VERIFIED))
    def test_rejects(self, case):
        root, g = _NOT_VERIFIED[case]
        assert verify_binarized(MDecTree(root), Rows(g), [w5_op()]) is None


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


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        g = random_digraph(rng, rng.randint(1, 7))
        assert tree_prime_modules(decompose(g)) == brute_force_prime_modules(g)

    def test_modules_contain_trivial(self):
        g = word_graph("aba")
        mods = set(all_modules(g))
        assert g.vertices in mods
        assert all(frozenset({v}) in mods for v in g.vertices)


def assert_same_modules(g):
    """NextClosure against the 2^n enumeration: the same modules, each
    once, in lectic order (ascending masks), and the same strong ones."""
    got = all_modules(g)
    assert got == brute_force_modules(g)
    rows = Rows(g)
    masks = [rows.mask(m) for m in got]
    assert masks == sorted(set(masks))
    assert brute_force_prime_modules(g) == referee_prime_modules(g)


class TestModuleOracle:
    """``all_modules`` against the subset-enumeration referee."""

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
        assert len(all_modules(g)) == 2 ** 12 - 1


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
