import dataclasses
import gc
import itertools
import random
import re
import sys
import time
import weakref

import pytest

from deep_term import LEVELS, alternating_term
from encoding_referee import (referee_build_repr, referee_compute_encoding,
                              referee_verify_isomorphism)
from holds_referee import referee_holds
from kappa_referee import _suffixes, referee_check_kappa_lemma
from mdec_referee import maximal_prime_modules
from modgraph import transduction
from modgraph.cms import (ModelChecker, graph_structure, model_check, tree_prime_ops,
                          tree_relations)
from modgraph.errors import (ModgraphError, NotWeaklyRigid, NotWeaklyRigidSignature,
                             UnboundVariable, UnknownPredicate, UnknownSymbol,
                             VertexNotInGraph)
from modgraph.generators import random_digraph, random_f_graph, random_subset
from modgraph.graphs import Alphabet, LabeledGraph, Permutation, is_module
from modgraph.mdec import (MDecNode, MDecPrimeTree, NodeKind, Rows, binarize, decompose,
                           reconstruct, verify_binarized)
from modgraph.samples import (cycle_graph, p3_op, scw5_signature, spp3_signature,
                              spw5_signature, w5_op, word_graph, word_term)
from modgraph.signature import (CLIQUE_OP, PAR_OP, SEQ_OP, Signature, Term,
                                eval_term, prime_op)
from modgraph.transduction import (PredicateLibrary, ReprStructure, build_repr,
                                   check_kappa_lemma, classify_nodes,
                                   compute_encoding, encode_graph, min_vertex_rule,
                                   transduction_schema, verify_isomorphism)
from theta_referee import f_graph_shapes, graphs_with_a_prime_node, theta_disagreements

SIG = spw5_signature()
DUAL = scw5_signature()
# W5, P3 and the directed path on four vertices: partition3 to partition5
# and every children_H predicate in one catalogue
WIDE = Signature(Alphabet(("a", "b")), (
    SEQ_OP, PAR_OP, w5_op(), p3_op(),
    prime_op("P4", LabeledGraph.on_range(4, [(1, 2), (2, 3), (3, 4)]))))


def leaf(s):
    return Term.leaf(s)


def node(op, *kids):
    return Term.node(op, list(kids))


def tree_of(term, sig=SIG):
    return binarize(decompose(eval_term(sig, term), sig))


class TestClassification:
    def test_leaf_tree(self):
        t = tree_of(leaf("a"))
        cls = classify_nodes(t, SIG)
        assert [cls.classes[n] for n in t.nodes()] == [0]

    def test_par_of_leaves_is_class1(self):
        t = tree_of(node("par", leaf("a"), leaf("b")))
        cls = classify_nodes(t, SIG)
        assert cls.classes[t.root] == 1

    def test_par_with_inner_children_is_class2(self):
        t = tree_of(node("par", node("seq", leaf("a"), leaf("b")),
                    node("seq", leaf("a"), leaf("b"))))
        cls = classify_nodes(t, SIG)
        assert cls.classes[t.root] == 2
        assert all(cls.classes[c] == 3 for c in t.root.children)

    def test_rejects_non_weakly_rigid_signature(self):
        bad = Signature(Alphabet(("a",)),
                        (SEQ_OP, prime_op("C3", cycle_graph(3))))
        t = tree_of(node("seq", leaf("a"), leaf("a")),
                    sig=Signature(Alphabet(("a",)), (SEQ_OP,)))
        with pytest.raises(NotWeaklyRigidSignature):
            classify_nodes(t, bad)

    def test_rejects_foreign_commutative_node(self):
        both = Signature(Alphabet(("a", "b")), (SEQ_OP, CLIQUE_OP))
        t = tree_of(node("clique", leaf("a"), leaf("b")), sig=both)
        with pytest.raises(NotWeaklyRigid):
            classify_nodes(t, SIG)

    def test_rejects_a_foreign_letter(self):
        # the tree of "ab" has a leaf b; the signature's alphabet is {a}
        t = tree_of(node("seq", leaf("a"), leaf("b")))
        with pytest.raises(UnknownSymbol, match="^letter 'b' is not in the signature's"):
            classify_nodes(t, spw5_signature(("a",)))

    def test_dual_mode_clique_classes(self):
        t = tree_of(node("clique", leaf("a"), leaf("b")), sig=DUAL)
        cls = classify_nodes(t, DUAL)
        assert cls.mode is NodeKind.CLIQUE
        assert cls.classes[t.root] == 1

    @pytest.mark.parametrize("sig", [SIG, DUAL], ids=["spw5", "scw5"])
    def test_rejects_nested_commutative_nodes(self, sig):
        # a decomposition never has a par (clique) node under another: the
        # encoding has no class for it, so the tree is rejected up front
        kind = classify_nodes(tree_of(leaf("a"), sig), sig).mode
        inner = MDecNode(frozenset({1, 2}), kind, (_leaf(1), _leaf(2)))
        t = MDecPrimeTree(MDecNode(frozenset({1, 2, 3}), kind, (inner, _leaf(3))))
        message = rf"^{kind.value} node on \[1, 2, 3\] has a {kind.value} child"
        with pytest.raises(NotWeaklyRigid, match=message):
            classify_nodes(t, sig)


class TestEncoding:
    def test_par_of_two_leaves(self):
        t = tree_of(node("par", leaf("a"), leaf("b")))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        assert enc.kappa[1][1] is t.root and enc.kappa[1][2] is t.root
        assert not enc.kappa[2] and not enc.kappa[3]

    def test_word_ab(self):
        t = tree_of(node("seq", leaf("a"), leaf("b")))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        assert enc.kappa[3] == {1: t.root}
        assert not enc.kappa[1] and not enc.kappa[2]

    def test_kappa0_is_identity_on_leaves(self):
        t = tree_of(node("seq", leaf("a"), node("par", leaf("b"), leaf("b"))))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        assert all(enc.kappa[0][v].module == frozenset({v})
                   for v in reconstruct(t).vertices)

    def test_kappa2_above_kappa3(self):
        # (a.b) (+) (a.b): the two seq nodes hang under a class-2 root
        t = tree_of(node("par", node("seq", leaf("a"), leaf("b")),
                    node("seq", leaf("a"), leaf("b"))))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        assert set(enc.kappa[2]) == {1, 3}
        assert all(n is t.root for n in enc.kappa[2].values())

    def test_deep_term_without_recursion(self):
        # 1,100 alternating seq/par levels, deeper than the recursion limit;
        # compute_encoding checks the kappa fibers against mu itself
        assert LEVELS > sys.getrecursionlimit()
        g = eval_term(SIG, alternating_term())
        t, cls, enc = encode_graph(g, SIG)
        assert len(enc.kappa[0]) == g.n == LEVELS + 1
        assert all(enc.kappa[0][v].module == frozenset({v}) for v in g.vertices)
        # each image is a node above the vertex's leaf, and every node
        # has its nu set
        assert all(v in node.module for kappa in enc.kappa for v, node in kappa.items())
        assert set(enc.nu) == set(t.nodes())


class TestKappaLemma:
    def test_small_fixtures(self):
        for term in (leaf("a"), node("par", leaf("a"), leaf("b")),
                     node("seq", leaf("a"), leaf("b"), leaf("a")),
                     node("W5", *[leaf(s) for s in "ababa"])):
            t = tree_of(term)
            enc = compute_encoding(t, classify_nodes(t, SIG))
            assert check_kappa_lemma(t, enc, SIG).ok

    def test_randomized_cross_check(self):
        rng = random.Random(23)
        for _ in range(40):
            sig = SIG if rng.random() < 0.7 else DUAL
            g = random_f_graph(rng, sig, max_depth=4, max_leaves=8)
            t, cls, enc = encode_graph(g, sig)
            assert check_kappa_lemma(t, enc, sig).ok

    def test_deep_term_under_two_seconds(self):
        g = eval_term(SIG, alternating_term())
        t, cls, enc = encode_graph(g, SIG)
        start = time.perf_counter()
        report = check_kappa_lemma(t, enc, SIG)
        took = time.perf_counter() - start
        assert report.ok, str(report)
        assert took < 2, f"check_kappa_lemma took {took:.2f} s on {g.n} vertices"

    def test_deep_term_encoding_under_one_second(self):
        # encode, rebuild and verify on the 1,101-vertex alternating term
        g = eval_term(SIG, alternating_term())
        t = binarize(decompose(g, SIG))
        cls = classify_nodes(t, SIG)
        start = time.perf_counter()
        enc = compute_encoding(t, cls)
        ok = verify_isomorphism(build_repr(t, enc, sig=SIG), t, sig=SIG)
        took = time.perf_counter() - start
        assert ok
        assert took < 1, f"encode, build_repr and verify took {took:.2f} s on {g.n} vertices"

    def test_unmatched_prime_quotient_raises(self):
        # the tree's only operation is P4 with a twin, which is not prime:
        # its graph decomposes into a prime P4 quotient that no operation
        # of the tree matches.  The check raises before it reads the tables.
        twin = LabeledGraph.on_range(5, [(1, 2), (2, 1), (2, 3), (3, 2),
                                         (3, 4), (4, 3), (3, 5), (5, 3)])
        op = prime_op("T5", twin, check_prime=False)
        leaves = tuple(MDecNode(frozenset({v}), NodeKind.LEAF, symbol="a")
                       for v in range(1, 6))
        t = MDecPrimeTree(MDecNode(frozenset(range(1, 6)), NodeKind.PRIME,
                                   leaves, op=op))
        _, _, enc = encode_graph(word_graph("ab"), SIG)
        with pytest.raises(NotWeaklyRigid, match="matches no"):
            check_kappa_lemma(t, enc)

    def test_suffixes_agree_with_the_chain_split(self):
        # the referee's own prefix routine against the decomposition
        rng = random.Random(12)
        for k in range(300):
            if k % 2:
                g = random_f_graph(rng, SIG, max_depth=4, max_leaves=10)
            else:
                g = random_digraph(rng, rng.randint(2, 7), rng.choice((0.3, 0.5)))
            want = set()
            if g.n > 1:
                case, blocks = maximal_prime_modules(g)
                if case is NodeKind.SEQ:
                    want = {frozenset().union(*blocks[i:]) for i in range(1, len(blocks))}
            assert set(_suffixes(g, g.vertices)) == want


def _corrupt(rng, t, enc, i):
    """A copy of the tables with one entry of kappa[i] changed: reassigned
    to another node, dropped, or added where there was none.  Returns the
    tables and the vertex whose entry changed."""
    kappa = [dict(k) for k in enc.kappa]
    table = kappa[i]
    v = rng.choice(sorted(t.leaf_of))
    others = [n for n in t.nodes() if n is not table.get(v)]
    if v in table and rng.random() < 0.5:
        del table[v]
    else:
        table[v] = rng.choice(others)
    return dataclasses.replace(enc, kappa=tuple(kappa)), v


def _leaf(v):
    return MDecNode(frozenset({v}), NodeKind.LEAF, symbol="a")


def _unflattened_par():
    inner = MDecNode(frozenset({1, 2}), NodeKind.PAR, (_leaf(1), _leaf(2)))
    return MDecPrimeTree(MDecNode(frozenset({1, 2, 3}), NodeKind.PAR,
                                  (inner, _leaf(3)))), SIG


def _prime_order_not_admissible():
    # a W5 node whose graph is the signature's W5 with arguments 1 and 2
    # swapped: its child order is no admissible enumeration of W5
    w5 = SIG.op("W5").graph
    swap = Permutation((2, 1, 3, 4, 5))
    op = prime_op("W5", LabeledGraph.on_range(5, [(swap(u), swap(v))
                                                   for u, v in w5.edges]))
    return MDecPrimeTree(MDecNode(frozenset(range(1, 6)), NodeKind.PRIME,
                                  tuple(map(_leaf, range(1, 6))), op=op)), SIG


def _twin_operations():
    # with no signature the check matches quotients against the tree's own
    # operations by name, and the first of two isomorphic ones wins: the
    # node labelled by the second is not what decompose builds
    w5 = SIG.op("W5").graph
    swap = Permutation((2, 1, 3, 4, 5))
    first = prime_op("A5", w5)
    second = prime_op("B5", LabeledGraph.on_range(5, [(swap(u), swap(v))
                                                      for u, v in w5.edges]))
    nodes = tuple(MDecNode(frozenset(range(k, k + 5)), NodeKind.PRIME,
                           tuple(map(_leaf, range(k, k + 5))), op=op)
                  for k, op in ((1, first), (6, second)))
    return MDecPrimeTree(MDecNode(frozenset(range(1, 11)), NodeKind.SEQ,
                                  nodes)), None


def _module_disagrees_with_children():
    seq = MDecNode(frozenset({1, 2, 3}), NodeKind.SEQ, (_leaf(1), _leaf(2)))
    return MDecPrimeTree(MDecNode(frozenset({1, 2, 3}), NodeKind.PAR,
                                  (seq, _leaf(3)))), SIG


_NOT_DECOMPOSITIONS = {
    "unflattened_par": _unflattened_par,
    "prime_order_not_admissible": _prime_order_not_admissible,
    "module_disagrees_with_children": _module_disagrees_with_children,
    "twin_operations": _twin_operations,
}


def _outcome(check, t, enc, sig):
    """The report, or the type and message of the exception raised."""
    try:
        return check(t, enc, sig)
    except ModgraphError as e:
        return type(e), str(e)


class TestKappaReferee:
    """The bitmask check against the frozenset check it replaced."""

    def test_reports_equal_and_corruption_is_caught(self):
        rng = random.Random(41)
        sigs = (SIG, DUAL)
        for k in range(300):
            sig = sigs[k % 2]
            g = random_f_graph(rng, sig, max_depth=5, max_leaves=rng.randint(2, 12))
            t, cls, enc = encode_graph(g, sig)
            report = check_kappa_lemma(t, enc, sig)
            assert report.ok
            assert report == referee_check_kappa_lemma(t, enc, sig)
            for i in (1, 2, 3):
                bad, v = _corrupt(rng, t, enc, i)
                report = check_kappa_lemma(t, bad, sig)
                assert (i, v) in [(m.index, m.vertex) for m in report.mismatches]
                assert report == referee_check_kappa_lemma(t, bad, sig)

    def test_valid_trees_are_not_decomposed_again(self, monkeypatch):
        # every tree above is binarize(decompose(g)), so the check verifies
        # it instead of building a second decomposition
        def refuse(*args):
            raise AssertionError("check_kappa_lemma decomposed a valid tree again")
        monkeypatch.setattr(transduction, "_decompose", refuse)
        self.test_reports_equal_and_corruption_is_caught()

    def test_verified_trees_need_no_graph(self, monkeypatch):
        # a tree that passes verification is checked on the rows it
        # carries: neither reconstruct nor the edge-built Rows is called
        rng = random.Random(42)
        cases = []
        for k in range(60):
            sig = (SIG, DUAL)[k % 2]
            g = random_f_graph(rng, sig, max_depth=5, max_leaves=rng.randint(1, 14))
            t, cls, enc = encode_graph(g, sig)
            if k % 3 == 0 and g.n > 1:
                enc = _corrupt(rng, t, enc, k // 3 % 3 + 1)[0]
            cases.append((t, enc, sig, referee_check_kappa_lemma(t, enc, sig)))

        def refuse(*args):
            raise AssertionError("check_kappa_lemma built a graph or its edge rows")
        monkeypatch.setattr(transduction, "reconstruct", refuse)
        monkeypatch.setattr(Rows, "__init__", refuse)
        for t, enc, sig, want in cases:
            assert check_kappa_lemma(t, enc, sig) == want

    @pytest.mark.parametrize("case", sorted(_NOT_DECOMPOSITIONS))
    def test_trees_that_are_not_the_decomposition(self, case):
        # each rebuilds a valid graph but is not its binarized
        # decomposition: the check decomposes that graph, as the referee does
        t, sig = _NOT_DECOMPOSITIONS[case]()
        g = reconstruct(t)
        if sig is not None:
            assert verify_binarized(t, Rows(g), tree_prime_ops(t, sig)) is None
        enc = encode_graph(g, SIG)[2]
        assert _outcome(check_kappa_lemma, t, enc, sig) == \
            _outcome(referee_check_kappa_lemma, t, enc, sig)

    @pytest.mark.parametrize("sig", [SIG, DUAL], ids=["spw5", "scw5"])
    def test_large_f_graphs_under_two_seconds(self, sig):
        # out of reach of 2^n enumeration
        rng = random.Random(40)
        sizes = []
        while len(sizes) < 4:
            g = random_f_graph(rng, sig, max_depth=9, max_leaves=60)
            if not 40 <= g.n <= 60:
                continue
            sizes.append(g.n)
            t, cls, enc = encode_graph(g, sig)
            start = time.perf_counter()
            report = check_kappa_lemma(t, enc, sig)
            took = time.perf_counter() - start
            assert report.ok, str(report)
            assert took < 2, f"check_kappa_lemma took {took:.2f} s on {g.n} vertices"
        assert max(sizes) == 60


class TestKappaCheckReusesTheDecomposition:
    """A tree from ``decompose`` is checked against the rows it was split
    from, reading the splits ``decompose`` made; every other tree takes
    the rows of its reconstruction, with the same report."""

    @staticmethod
    def _count(monkeypatch):
        """Count the splits that miss the memo and the calls of
        ``reconstruct`` made by the kappa check."""
        made = {"split": 0, "reconstruct": 0}
        split, rebuild = Rows._split, transduction.reconstruct

        def counted_split(rows, m):
            made["split"] += 1
            return split(rows, m)

        def counted_reconstruct(t, *args):
            made["reconstruct"] += 1
            return rebuild(t, *args)
        monkeypatch.setattr(Rows, "_split", counted_split)
        monkeypatch.setattr(transduction, "reconstruct", counted_reconstruct)
        return made

    def test_no_split_and_no_rows_built_again(self, monkeypatch):
        rng = random.Random(43)
        cases = []
        for k in range(60):
            sig = (SIG, DUAL)[k % 2]
            g = random_f_graph(rng, sig, max_depth=5, max_leaves=rng.randint(1, 14))
            t = binarize(decompose(g, sig))
            cases.append((t, compute_encoding(t, classify_nodes(t, sig)), sig))
        made = self._count(monkeypatch)
        for t, enc, sig in cases:
            assert check_kappa_lemma(t, enc, sig).ok
        assert made == {"split": 0, "reconstruct": 0}
        # the same tree without its rows pays both
        t, enc, sig = max(cases, key=lambda case: len(case[0].nodes()))
        assert check_kappa_lemma(MDecPrimeTree(t.root), enc, sig).ok
        assert made["reconstruct"] == 1 and made["split"] > 0

    def test_reports_equal_those_of_a_tree_without_rows(self):
        rng = random.Random(44)
        fell_back = 0
        for k in range(160):
            sig = (SIG, DUAL)[k % 2]
            g = random_f_graph(rng, sig, max_depth=5, max_leaves=rng.randint(1, 12))
            t, cls, enc = encode_graph(g, sig)
            assert t.rows is g.rows
            if k % 3 == 0 and g.n > 1:
                enc = _corrupt(rng, t, enc, k // 3 % 3 + 1)[0]
            want = _outcome(check_kappa_lemma, MDecPrimeTree(t.root), enc, sig)
            assert _outcome(check_kappa_lemma, t, enc, sig) == want
            # rows of another graph: on the same ids, and an f-graph of any size
            other = random_f_graph(rng, sig, max_depth=5, max_leaves=rng.randint(1, 12))
            for rows in (random_digraph(rng, g.n, 0.5).rows, other.rows):
                fell_back += verify_binarized(t, rows, SIG.prime_ops + DUAL.prime_ops) is None
                foreign = MDecPrimeTree(t.root, rows=rows)
                assert _outcome(check_kappa_lemma, foreign, enc, sig) == want
        assert fell_back > 200

    @pytest.mark.parametrize("case", sorted(_NOT_DECOMPOSITIONS))
    def test_trees_that_are_not_the_decomposition(self, case):
        # carrying the rows of their own graph, they fail verification and
        # fall back to a second decomposition, as without rows
        t, sig = _NOT_DECOMPOSITIONS[case]()
        g = reconstruct(t)
        enc = encode_graph(g, SIG)[2]
        carried = MDecPrimeTree(t.root, rows=Rows(g))
        assert _outcome(check_kappa_lemma, carried, enc, sig) == \
            _outcome(check_kappa_lemma, t, enc, sig)


def _all_pairs(enc):
    """Every leaf pair (v, i) with kappa_i defined on v."""
    return {(v, i) for i in range(4) for v in enc.kappa[i]}


class TestRepr:
    def test_leaf_domain(self):
        t = tree_of(leaf("a"))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        assert _all_pairs(enc) == {(1, 0)}

    def test_par_domain_and_equivalence(self):
        t = tree_of(node("par", leaf("a"), leaf("b")))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        assert _all_pairs(enc) == {(1, 0), (1, 1), (2, 0), (2, 1)}
        # (1, 1) and (2, 1) stand for one node, (1, 0) and (2, 0) for two
        assert enc.kappa[1][1] is enc.kappa[1][2]
        assert enc.kappa[0][1] is not enc.kappa[0][2]

    def test_word_ab_domain(self):
        t = tree_of(node("seq", leaf("a"), leaf("b")))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        assert _all_pairs(enc) == {(1, 0), (1, 3), (2, 0)}

    def test_representatives_default_rule(self):
        t = tree_of(node("par", leaf("a"), leaf("b")))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        rep = build_repr(t, enc, sig=SIG)
        assert rep.reps[1] == frozenset({1})

    def test_representative_count_is_node_count(self):
        t = tree_of(node("seq", leaf("a"), node("par", leaf("b"), leaf("b")),
                    leaf("a")))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        rep = build_repr(t, enc, sig=SIG)
        assert sum(map(len, rep.reps)) == len(t.nodes()) == len(rep.domain)


class TestVerifyIsomorphism:
    def test_small_cases_verify(self):
        for term in (leaf("a"), node("par", leaf("a"), leaf("b")),
                     node("seq", leaf("a"), leaf("b"))):
            t = tree_of(term)
            enc = compute_encoding(t, classify_nodes(t, SIG))
            assert verify_isomorphism(build_repr(t, enc, sig=SIG), t, sig=SIG)

    def test_corrupted_structure_fails(self):
        t = tree_of(node("seq", leaf("a"), leaf("b"), leaf("a")))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        rep = build_repr(t, enc, sig=SIG)
        p, q = rep.domain[:2]
        # two pairs on one node, or a pair on a set that is no node
        for node_of in ({**rep.node_of, q: rep.node_of[p]},
                        {**rep.node_of, p: frozenset({1, 2})}):
            bad = dataclasses.replace(rep, node_of=node_of)
            assert not verify_isomorphism(bad, t, sig=SIG)

    def test_repr0_is_not_isomorphic_when_fibers_merge(self):
        # every pair of every kappa fiber, not one per node: (1, 1) and
        # (2, 1) both stand for the root
        t = tree_of(node("par", leaf("a"), leaf("b")))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        node_of = {(v, i): enc.kappa[i][v].module for v, i in _all_pairs(enc)}
        every = ReprStructure(tuple(sorted(node_of)), node_of,
                              tuple(frozenset(k) for k in enc.kappa))
        assert not verify_isomorphism(every, t, sig=SIG)

    def test_randomized_both_modes(self):
        rng = random.Random(37)
        for _ in range(60):
            sig = SIG if rng.random() < 0.6 else DUAL
            g = random_f_graph(rng, sig, max_depth=5, max_leaves=10)
            t, cls, enc = encode_graph(g, sig)
            assert verify_isomorphism(build_repr(t, enc, sig=sig), t, sig=sig)

    def test_max_rule_also_verifies(self):
        rng = random.Random(41)
        for _ in range(20):
            g = random_f_graph(rng, SIG, max_depth=4, max_leaves=9)
            t, cls, enc = encode_graph(g, SIG)
            assert verify_isomorphism(build_repr(t, enc, max, sig=SIG), t, sig=SIG)


def _tables(enc):
    """The encoding's tables as item lists, so that order counts too."""
    return [list(d.items()) for d in (enc.nu, *enc.mu, *enc.kappa)]


def _verdict(verify, rep, t, sig):
    """The verdict, or the type and message of the lookup error raised."""
    try:
        return verify(rep, t, sig=sig)
    except KeyError as e:
        return type(e), str(e)


def _mutants(rng, t, rep):
    """Structures one change away from rep: a pair remapped to a set that is
    not a node, two pairs swapped or sharing a node, a pair missing from
    the domain or replaced by one outside it, and a domain pair that
    node_of lacks."""
    pairs, node_of = list(rep.domain), rep.node_of
    out = []
    modules = {n.module for n in t.nodes()}
    verts = sorted(t.root.module)
    off = [frozenset({0}), frozenset(verts[:2]), frozenset(verts[1:])]
    p = rng.choice(pairs)
    for m in off:
        if m not in modules:
            out.append(dataclasses.replace(rep, node_of={**node_of, p: m}))
    if len(pairs) > 1:
        p, q = rng.sample(pairs, 2)
        out.append(dataclasses.replace(rep, node_of={**node_of, q: node_of[p]}))
        out.append(dataclasses.replace(
            rep, node_of={**node_of, p: node_of[q], q: node_of[p]}))
    # a pair left out of the domain, a pair whose node passes to a new pair
    # outside it, and a new pair in the domain with no node
    p = rng.choice(pairs)
    out.append(dataclasses.replace(rep, domain=tuple(x for x in pairs if x != p)))
    out.append(dataclasses.replace(
        rep, node_of={**node_of, p: frozenset({0}), (p[0], 9): node_of[p]}))
    out.append(dataclasses.replace(rep, domain=(*pairs, (0, 0))))
    return out


class TestEncodingReferee:
    """The index-based encoding, representatives and isomorphism test
    against the frozenset stages they replaced."""

    def _agree(self, rng, t, sig, cls=None):
        cls = cls or classify_nodes(t, sig)
        enc = compute_encoding(t, cls)
        assert _tables(enc) == _tables(referee_compute_encoding(t, cls))
        reps = []
        for rule in (min_vertex_rule, max):
            rep = build_repr(t, enc, rule, sig=sig)
            assert rep == referee_build_repr(t, enc, rule, sig=sig)
            assert verify_isomorphism(rep, t, sig=sig)
            assert referee_verify_isomorphism(rep, t, sig=sig)
            reps.append(rep)
        for rep in reps:
            for bad in _mutants(rng, t, rep):
                assert (_verdict(verify_isomorphism, bad, t, sig) ==
                        _verdict(referee_verify_isomorphism, bad, t, sig))
        return enc

    def test_seeded_f_graphs(self):
        rng = random.Random(53)
        for k in range(160):
            sig = (SIG, DUAL)[k % 2]
            g = random_f_graph(rng, sig, max_depth=5, max_leaves=rng.randint(1, 12))
            t = binarize(decompose(g, sig))
            enc = self._agree(rng, t, sig)
            if g.n > 1:
                # tables whose kappa no longer inverts mu: nodes with no
                # pair or with several
                bad = _corrupt(rng, t, enc, rng.randint(0, 3))[0]
                for rule in (min_vertex_rule, max):
                    rep = build_repr(t, bad, rule, sig=sig)
                    assert rep == referee_build_repr(t, bad, rule, sig=sig)
                    assert (verify_isomorphism(rep, t, sig=sig) ==
                            referee_verify_isomorphism(rep, t, sig=sig))

    def test_a_broken_classification_fails_the_fiber_check(self):
        # the root of (par a b) has only leaf children, so it is class 1;
        # called class 2, its mu_2 set is empty and no kappa_2 reaches it
        t = tree_of(node("par", leaf("a"), leaf("b")))
        cls = classify_nodes(t, SIG)
        bad = dataclasses.replace(cls, classes={**cls.classes, t.root: 2})
        for encode in (compute_encoding, referee_compute_encoding):
            with pytest.raises(AssertionError, match="kappa_2 fibers disagree"):
                encode(t, bad)

    def test_a_rule_leaving_the_fiber(self):
        t = tree_of(node("par", leaf("a"), leaf("b")))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        for build in (build_repr, referee_build_repr):
            with pytest.raises(ValueError, match="left the fiber"):
                build(t, enc, lambda fiber: max(fiber) + 1, sig=SIG)

    def test_deep_term(self):
        t = binarize(decompose(eval_term(SIG, alternating_term()), SIG))
        self._agree(random.Random(54), t, SIG)

    def test_nodes_sharing_a_module(self):
        # a hand-built par node with one child has its child's module; the
        # two nodes compare as one, as they did when compared as modules
        inner = MDecNode(frozenset({2}), NodeKind.PAR, (_leaf(2),))
        t = MDecPrimeTree(MDecNode(frozenset({1, 2}), NodeKind.SEQ, (_leaf(1), inner)))
        cls = classify_nodes(t, SIG)
        enc = compute_encoding(t, cls)
        assert _tables(enc) == _tables(referee_compute_encoding(t, cls))
        rep = build_repr(t, enc, sig=SIG)
        assert rep == referee_build_repr(t, enc, sig=SIG)
        one = dataclasses.replace(rep, domain=tuple(p for p in rep.domain if p != (2, 1)))
        assert not verify_isomorphism(rep, t, sig=SIG)
        assert verify_isomorphism(one, t, sig=SIG)
        for r in _mutants(random.Random(55), t, one):
            assert (_verdict(verify_isomorphism, r, t, SIG) ==
                    _verdict(referee_verify_isomorphism, r, t, SIG))


class TestPredicateLibrary:
    def test_rejects_non_weakly_rigid(self):
        bad = Signature(Alphabet(("a",)),
                        (SEQ_OP, prime_op("C3", cycle_graph(3))))
        with pytest.raises(NotWeaklyRigid):
            PredicateLibrary(bad)

    def test_graph_tables_go_with_their_graphs(self):
        lib = PredicateLibrary(SIG)
        rng = random.Random(300)
        for _ in range(300):
            g = random_digraph(rng, rng.randint(4, 7))
            lib.holds("node", g, {"X": g.vertices})
        assert len(lib._ginfo) == 1  # the last graph is still alive
        del g
        gc.collect()
        assert len(lib._ginfo) == 0

    @staticmethod
    def _probe(rng, lib, g):
        """Seeded bindings of every catalogued predicate on g, its sets drawn
        mostly from the tree's modules so that table predicates answer
        true as well as false."""
        tree_sets = [n.module for n in binarize(decompose(g)).nodes()]
        verts = g.sorted_vertices()
        return [(name, {var: (rng.choice(tree_sets) if rng.random() < 0.7
                              else random_subset(rng, verts))
                        if kind == "set" else rng.choice(verts)
                        for var, kind in lib.free_vars(name)})
                for name in lib.names() for _ in range(8)]

    def test_the_last_graph_slot_answers_as_a_fresh_library(self):
        # graphs A, B, A, a copy of A built apart, A again, and the copy and
        # B once A is freed: each pass answers as a library that saw no
        # other graph
        rng = random.Random(303)
        lib = PredicateLibrary(SIG)
        a = eval_term(SIG, node("W5", leaf("a"), node("par", leaf("b"), leaf("a")),
                                leaf("a"), leaf("b"), node("seq", leaf("a"), leaf("b"))))
        b = eval_term(SIG, node("seq", node("par", leaf("a"), leaf("b")),
                                node("W5", *[leaf(s) for s in "ababa"]), leaf("b")))
        copy = LabeledGraph(a.vertices, a.edges, a.labels)
        assert copy == a and copy is not a
        probe_a, probe_b = self._probe(rng, lib, a), self._probe(rng, lib, b)

        def answers(library, g, probe):
            return [library.holds(name, g, bind) for name, bind in probe]

        want_a = answers(PredicateLibrary(SIG), a, probe_a)
        want_b = answers(PredicateLibrary(SIG), b, probe_b)
        for g, probe, want in ((a, probe_a, want_a), (b, probe_b, want_b),
                               (a, probe_a, want_a), (copy, probe_a, want_a),
                               (a, probe_a, want_a)):
            assert answers(lib, g, probe) == want
        freed = weakref.ref(a)
        del a, g
        gc.collect()
        assert freed() is None  # the slot keeps no graph alive
        assert answers(lib, copy, probe_a) == want_a
        assert answers(lib, b, probe_b) == want_b

    def test_two_libraries_on_one_graph(self):
        rng = random.Random(304)
        libs = (PredicateLibrary(SIG), PredicateLibrary(DUAL))
        g = eval_term(SIG, node("seq", node("par", leaf("a"), leaf("b"), leaf("a")),
                                node("W5", *[leaf(s) for s in "abbab"])))
        probes = [self._probe(rng, lib, g) for lib in libs]
        wants = [[PredicateLibrary(lib.sig).holds(name, g, bind) for name, bind in probe]
                 for lib, probe in zip(libs, probes)]
        for _ in range(2):
            # the libraries take turns, one binding each
            for i in range(max(map(len, probes))):
                for lib, probe, want in zip(libs, probes, wants):
                    if i < len(probe):
                        name, bind = probe[i]
                        assert lib.holds(name, g, bind) == want[i], (lib.sig, name, bind)

    def test_two_block_partition_agrees_with_the_general_decider(self):
        # _partition_holds is the referee here, and stays the decider of
        # three blocks and more (partition5 under W5)
        lib = PredicateLibrary(SIG)
        assert lib._decider("partition2") is transduction._partition2_holds
        assert lib._decider("partition5") is transduction._partition_holds
        g = LabeledGraph.on_range(4, [])
        subsets = [frozenset(c) for k in range(5)
                   for c in itertools.combinations(range(1, 5), k)]
        triples = list(itertools.product(subsets, repeat=3))
        assert len(triples) == 4096
        kinds = list(itertools.product((frozenset, set), repeat=3))
        for X, A, B in triples:
            want = transduction._partition_holds(g, X, A, B)
            for kx, ka, kb in kinds:
                assert transduction._partition2_holds(g, kx(X), ka(A), kb(B)) is want

    def test_one_weak_rigidity_gate(self):
        bad = Signature(Alphabet(("a",)),
                        (SEQ_OP, prime_op("C3", cycle_graph(3))))
        with pytest.raises(NotWeaklyRigidSignature, match="REJECT"):
            PredicateLibrary(bad)

    def test_module_cross_oracle(self):
        lib = PredicateLibrary(SIG)
        g = LabeledGraph.build([1, 2, 3], [(1, 2), (2, 3)],
                               {1: "a", 2: "a", 3: "a"})
        chk = ModelChecker(graph_structure(g, SIG.alphabet.symbols))
        assert not chk.check(lib.formula("module"), {"X": {1, 3}})
        assert not is_module(g, {1, 3})

    def test_singleton(self):
        lib = PredicateLibrary(SIG)
        g = word_graph("ab")
        chk = ModelChecker(graph_structure(g, SIG.alphabet.symbols))
        assert chk.check(lib.formula("singleton"), {"X": {1}, "x": 1})
        assert not chk.check(lib.formula("singleton"), {"X": {1, 2}, "x": 1})
        assert lib.holds("singleton", g, {"X": frozenset({1}), "x": 1})

    def test_pmodule_excludes_full_set(self):
        lib = PredicateLibrary(SIG)
        g = eval_term(SIG, node("seq", leaf("a"), leaf("b")))
        chk = ModelChecker(graph_structure(g, SIG.alphabet.symbols))
        assert not chk.check(lib.formula("pmodule"), {"X": set(g.vertices)})
        assert not lib.holds("pmodule", g, {"X": g.vertices})

    def test_pmodule_reads_the_strong_modules(self):
        # an edgeless graph on 24 vertices has 2^24 modules, 25 of them strong
        lib = PredicateLibrary(SIG)
        g = LabeledGraph.build(range(1, 25), [], {v: "a" for v in range(1, 25)})
        start = time.perf_counter()
        assert lib.holds("pmodule", g, {"X": {1}})
        assert time.perf_counter() - start < 1.0
        assert not lib.holds("pmodule", g, {"X": {1, 2}})
        assert not lib.holds("pmodule", g, {"X": set()})

    def test_node_holds_on_every_tree_module(self):
        rng = random.Random(3)
        lib = PredicateLibrary(SIG)
        for _ in range(15):
            g = random_f_graph(rng, SIG, max_depth=4, max_leaves=7)
            t = binarize(decompose(g, SIG))
            chk = ModelChecker(graph_structure(g, SIG.alphabet.symbols))
            for n in t.nodes():
                assert lib.holds("node", g, {"X": n.module})
                assert chk.check(lib.formula("node"), {"X": n.module})

    def test_dist_child_on_words_matches_first_prefix(self):
        lib = PredicateLibrary(SIG)
        g = eval_term(SIG, word_term("aba"))
        # mdec': root {1,2,3} with first child {1}; inner {2,3} with first {2}
        assert lib.holds("dist-child", g, {"X": g.vertices, "Y": frozenset({1})})
        assert not lib.holds("dist-child", g, {"X": g.vertices,
                                               "Y": frozenset({2, 3})})
        assert lib.holds("dist-child", g, {"X": frozenset({2, 3}),
                                           "Y": frozenset({2})})
        chk = ModelChecker(graph_structure(g, SIG.alphabet.symbols))
        assert chk.check(lib.formula("dist-child"),
                         {"X": g.vertices, "Y": {1}})

    def test_unknown_predicate(self):
        lib = PredicateLibrary(SIG)
        with pytest.raises(UnknownPredicate):
            lib.holds("frobnicate", word_graph("a"), {})
        with pytest.raises(UnknownPredicate):
            lib.formula("frobnicate")

    @pytest.mark.parametrize("name", ["subseteq", "nonempty"])
    def test_definitions_outside_the_catalogue_are_unknown(self, name):
        lib = PredicateLibrary(SIG)
        g = word_graph("ab")
        assert name in lib.definitions and name not in lib.names()
        message = f"^no predicate named {name!r}$"
        with pytest.raises(UnknownPredicate, match=message):
            lib.holds(name, g, {"X": g.vertices, "A": g.vertices, "B": g.vertices})
        with pytest.raises(UnknownPredicate, match=message):
            lib.formula(name)
        with pytest.raises(UnknownPredicate, match=message):
            lib.free_vars(name)

    def test_holds_errors_name_the_predicate_and_the_binding(self):
        lib = PredicateLibrary(SIG)
        g = word_graph("ab")
        with pytest.raises(UnknownPredicate, match="^no predicate named 'frobnicate'$"):
            lib.holds("frobnicate", g, {"X": g.vertices})
        with pytest.raises(UnknownPredicate,
                           match="^predicate 'partition2' needs binding 'X1'$"):
            lib.holds("partition2", g, {"X": g.vertices, "X2": frozenset({1})})
        with pytest.raises(UnknownPredicate,
                           match="^predicate 'singleton' needs binding 'x'$"):
            lib.holds("singleton", g, {"X": frozenset({1})})

    @pytest.mark.parametrize("name", PredicateLibrary(SIG).names())
    def test_holds_rejects_a_vertex_outside_the_graph(self, name):
        # each variable in turn holds vertex 99 of a two-vertex graph
        lib = PredicateLibrary(SIG)
        g = word_graph("ab")
        spec = lib.free_vars(name)
        inside = {var: 1 if kind == "element" else frozenset({1}) for var, kind in spec}
        for var, kind in spec:
            b = {**inside, var: 99 if kind == "element" else frozenset({1, 99})}
            with pytest.raises(VertexNotInGraph, match=re.escape(
                    f"predicate {name!r}: vertex 99 of {var!r} is not in the graph")):
                lib.holds(name, g, b)

    def test_first_holds_on_a_deep_term_under_one_second(self):
        lib = PredicateLibrary(SIG)
        g = eval_term(SIG, alternating_term())
        start = time.perf_counter()
        assert lib.holds("child*", g, {"X": g.vertices, "Y": frozenset({g.n})})
        took = time.perf_counter() - start
        assert took < 1, f"the first holds call took {took:.2f} s on {g.n} vertices"
        assert not lib.holds("child*", g, {"X": frozenset({g.n}), "Y": g.vertices})
        assert lib.holds("child", g, {"X": g.vertices, "Y": frozenset({1})})

    def test_holds_takes_mutable_sets_as_frozensets(self):
        rng = random.Random(808)
        lib = PredicateLibrary(SIG)
        for _ in range(12):
            g = random_f_graph(rng, SIG, max_depth=4, max_leaves=6)
            tree_sets = [n.module for n in binarize(decompose(g, SIG)).nodes()]
            for name in lib.names():
                for _ in range(6):
                    b = {var: (rng.choice(tree_sets) if rng.random() < 0.6
                               else random_subset(rng, g.sorted_vertices()))
                         if kind == "set" else rng.choice(g.sorted_vertices())
                         for var, kind in lib.free_vars(name)}
                    mutable = {var: set(v) if isinstance(v, frozenset) else v
                               for var, v in b.items()}
                    assert lib.holds(name, g, mutable) == lib.holds(name, g, b)

    @staticmethod
    def _outcome(call):
        try:
            return call()
        except ModgraphError as e:
            return type(e), str(e)

    @staticmethod
    def _referee_bindings(rng, lib, g):
        """Seeded bindings of every catalogued predicate on g: frozensets,
        sets and mixes of the two, a vertex outside g in one variable or in
        all of them, a variable left out, and singleton's element bound to a
        set."""
        info = lib._graph_info(g)
        tree_sets = [n.module for n in binarize(decompose(g)).nodes()]
        verts = g.sorted_vertices()
        out = []
        for name in lib.names():
            spec = lib.free_vars(name)
            for i in range(10):
                b = {var: (rng.choice(tree_sets) if rng.random() < 0.7
                           else random_subset(rng, verts))
                     if kind == "set" else rng.choice(verts) for var, kind in spec}
                children = (info["children"].get(name.removeprefix("children_"))
                            if name.startswith("children_") else None)
                if i == 0 and children:  # a binding that holds
                    b = dict(zip((var for var, _ in spec), rng.choice(sorted(
                        children, key=lambda c: [sorted(x) for x in c]))))
                freeze = rng.choice((frozenset, set,
                                     lambda v: rng.choice((frozenset, set))(v)))
                b = {var: freeze(v) if isinstance(v, frozenset) else v
                     for var, v in b.items()}
                out.append((name, b))
                var, kind = rng.choice(spec)
                out.append((name, {**b, var: 99 if kind == "element"
                                   else freeze(b[var] | {99})}))
                out.append((name, {var: 98 if kind == "element" else freeze(b[var] | {98})
                                   for var, kind in spec}))
                out.append((name, {k: v for k, v in b.items() if k != var}))
                if name == "singleton":
                    out.append((name, {**b, "x": freeze(rng.choice(tree_sets))}))
        return out

    @pytest.mark.parametrize("sig", [SIG, DUAL, spp3_signature(), WIDE],
                             ids=["spw5", "scw5", "spp3", "w5-p3-p4"])
    def test_holds_answers_and_raises_as_the_referee(self, sig):
        # the referee is the wrapper holds had before the holders: same
        # answer, or same exception type and message, on every binding
        rng = random.Random(2525)
        lib = PredicateLibrary(sig)
        graphs = [random_f_graph(rng, sig, max_depth=3, max_leaves=7) for _ in range(4)]
        for op in sig.prime_ops:
            kids = [leaf(rng.choice("ab")) for _ in range(op.graph.n)]
            kids[0] = node("seq", leaf("b"), leaf("a"), leaf("a"))
            graphs.append(eval_term(sig, node(op.name, *kids)))
        seen = set()
        for g in graphs:
            for name, b in self._referee_bindings(rng, lib, g):
                want = self._outcome(lambda: referee_holds(lib, name, g, b))
                assert self._outcome(lambda: lib.holds(name, g, b)) == want, (name, b)
                seen.add(want if isinstance(want, bool) else want[0])
            for name in ("subseteq", "nonempty", "partition4", "frobnicate"):
                b = {"X": g.vertices}
                want = self._outcome(lambda: referee_holds(lib, name, g, b))
                assert self._outcome(lambda: lib.holds(name, g, b)) == want, name
        assert seen == {True, False, UnknownPredicate, VertexNotInGraph}

    @pytest.mark.parametrize("name, bindings, var", [
        ("partition2", {"X": [1, 2], "X1": [1], "X2": [2]}, "X"),
        ("partition2", {"X": frozenset({1, 2}), "X1": {1}, "X2": (2,)}, "X2"),
        ("node", {"X": [1]}, "X"),
        ("module", {"X": [1]}, "X"),
        ("children_W5", {"X": frozenset({1, 2}), **{f"X{i}": [i] for i in range(1, 6)}},
         "X1")])
    def test_set_variables_take_sets_only(self, name, bindings, var):
        lib = PredicateLibrary(SIG)
        with pytest.raises(UnboundVariable, match=re.escape(
                f"predicate {name!r}: variable {var!r} needs a set value")):
            lib.holds(name, word_graph("ab"), bindings)

    def test_agreement_sampled_p3(self):
        rng = random.Random(9)
        lib = PredicateLibrary(spp3_signature())
        for _ in range(10):
            g = random_f_graph(rng, lib.sig, max_depth=3, max_leaves=5)
            chk = ModelChecker(graph_structure(g, lib.sig.alphabet.symbols))
            verts = g.sorted_vertices()
            for name in lib.names():
                b = {}
                for var, kind in lib.free_vars(name):
                    b[var] = (random_subset(rng, verts) if kind == "set"
                              else rng.choice(verts))
                assert chk.check(lib.formula(name), b) == lib.holds(name, g, b), \
                    (name, b, sorted(g.edges))

    def test_agreement_dual_library(self):
        # clique-commutative signature: node/child gate on the clique product
        rng = random.Random(13)
        lib = PredicateLibrary(DUAL)
        for _ in range(8):
            g = random_f_graph(rng, DUAL, max_depth=3, max_leaves=5)
            tree = binarize(decompose(g, None))
            mods = [n.module for n in tree.nodes()]
            chk = ModelChecker(graph_structure(g, DUAL.alphabet.symbols))
            verts = g.sorted_vertices()
            for name in lib.names():
                b = {}
                for var, kind in lib.free_vars(name):
                    if kind == "set":
                        b[var] = (rng.choice(mods) if rng.random() < 0.5
                                  else random_subset(rng, verts))
                    else:
                        b[var] = rng.choice(verts)
                assert chk.check(lib.formula(name), b) == lib.holds(name, g, b), \
                    (name, b, sorted(g.edges))


class TestSchema:
    def test_constants(self):
        sch = transduction_schema(SIG)
        assert sch.copy_bound == 3 and sch.parameter_count == 4
        assert sch.params == ("X0", "X1", "X2", "X3")

    def test_psi_is_membership(self):
        sch = transduction_schema(SIG)
        g = eval_term(SIG, node("par", leaf("a"), leaf("b")))
        t, cls, enc = encode_graph(g, SIG)
        rep = build_repr(t, enc, sig=SIG)
        env = {f"X{i}": rep.reps[i] for i in range(4)}
        chk = ModelChecker(graph_structure(g, SIG.alphabet.symbols))
        for i in range(4):
            for v in g.vertices:
                want = v in rep.reps[i]
                assert chk.check(sch.psi[i], dict(env, x=v)) == want

    def test_kappa_formulas_match_encoding(self):
        cases = [(SIG, node("par", leaf("a"), leaf("b"))),
                 (SIG, node("seq", leaf("a"), leaf("b"))),
                 (SIG, node("seq", leaf("a"), node("par", leaf("b"), leaf("b")))),
                 (DUAL, node("clique", leaf("a"), leaf("b"))),
                 (DUAL, node("seq", leaf("a"),
                             node("clique", leaf("b"), leaf("b"))))]
        schemas = {id(SIG): transduction_schema(SIG),
                   id(DUAL): transduction_schema(DUAL)}
        for sig, term in cases:
            sch = schemas[id(sig)]
            g = eval_term(sig, term)
            t, cls, enc = encode_graph(g, sig)
            chk = ModelChecker(graph_structure(g, sig.alphabet.symbols))
            subsets = [frozenset(s) for s in _all_subsets(g.sorted_vertices())]
            for i in range(4):
                for v in g.sorted_vertices():
                    expected = enc.kappa[i].get(v)
                    for X in subsets:
                        want = expected is not None and X == expected.module
                        got = chk.check(sch.kappa_formula(i), {"x": v, "M": X})
                        assert got == want, (i, v, sorted(X))

    def test_phi_accepts_default_representatives(self):
        sch = transduction_schema(SIG)
        g = eval_term(SIG, node("seq", leaf("a"), leaf("b")))
        t, cls, enc = encode_graph(g, SIG)
        rep = build_repr(t, enc, sig=SIG)
        env = {f"X{i}": rep.reps[i] for i in range(4)}
        assert model_check(graph_structure(g, SIG.alphabet.symbols),
                           sch.phi, env)

    def test_phi_rejects_duplicate_representative(self):
        sch = transduction_schema(SIG)
        g = eval_term(SIG, node("par", leaf("a"), leaf("b")))
        t, cls, enc = encode_graph(g, SIG)
        rep = build_repr(t, enc, sig=SIG)
        env = {f"X{i}": rep.reps[i] for i in range(4)}
        env["X1"] = frozenset({1, 2})  # both leaves name the same node
        assert not model_check(graph_structure(g, SIG.alphabet.symbols),
                               sch.phi, env)

    def test_phi_rejects_uncovered_fiber(self):
        sch = transduction_schema(SIG)
        g = eval_term(SIG, node("par", leaf("a"), leaf("b")))
        t, cls, enc = encode_graph(g, SIG)
        rep = build_repr(t, enc, sig=SIG)
        env = {f"X{i}": rep.reps[i] for i in range(4)}
        env["X0"] = frozenset({1})  # leaf node {2} loses its representative
        assert not model_check(graph_structure(g, SIG.alphabet.symbols),
                               sch.phi, env)

    def test_theta_child_matches_repr(self):
        sch = transduction_schema(SIG)
        g = eval_term(SIG, node("seq", leaf("a"), leaf("b")))
        t, cls, enc = encode_graph(g, SIG)
        rep = build_repr(t, enc, sig=SIG)
        _, rels, nodes = tree_relations(t, SIG)
        index = {n.module: k for k, n in enumerate(nodes)}
        env = {f"X{i}": rep.reps[i] for i in range(4)}
        chk = ModelChecker(graph_structure(g, SIG.alphabet.symbols))
        for (i, j) in ((0, 0), (3, 0), (3, 3), (0, 3)):
            f = sch.theta("child", (i, j))
            for (v, iv) in rep.domain:
                for (w, jw) in rep.domain:
                    if iv != i or jw != j:
                        continue
                    want = (index[rep.node_of[(v, iv)]],
                            index[rep.node_of[(w, jw)]]) in rels["child"]
                    got = chk.check(f, dict(env, x1=v, x2=w))
                    assert got == want

    def test_theta_label_leaf(self):
        sch = transduction_schema(SIG)
        g = eval_term(SIG, node("seq", leaf("a"), leaf("b")))
        chk = ModelChecker(graph_structure(g, SIG.alphabet.symbols))
        f = sch.theta("label_a", (0,))
        assert chk.check(f, {"x1": 1}) and not chk.check(f, {"x1": 2})
        assert not model_check(graph_structure(g, SIG.alphabet.symbols),
                               sch.theta("label_a", (3,)), {"x1": 1})

    def test_theta_children_w5_within_the_default_budget(self):
        # (prime W5 a a a a a): x1 stands for the root through kappa_3, the
        # rest for the leaves.  Each check runs on a fresh checker, so each
        # answer fits the default budget on its own
        sch = transduction_schema(SIG)
        g = eval_term(SIG, node("W5", *[leaf("a")] * 5))
        t, cls, enc = encode_graph(g, SIG)
        rep = build_repr(t, enc, sig=SIG)
        ivec = (3, 0, 0, 0, 0, 0)
        f = sch.theta("children_W5", ivec)
        # the tree's tuples, each node index replaced by its pair
        _, rels, nodes = tree_relations(t, SIG)
        index = {n.module: k for k, n in enumerate(nodes)}
        pair_of = {index[m]: p for p, m in rep.node_of.items()}
        rel = {tuple(map(pair_of.__getitem__, tup)) for tup in rels["children_W5"]}
        true = sorted(rel)
        assert true and all(tuple(i for _, i in tup) == ivec for tup in true)
        by_index = [[p for p in rep.domain if p[1] == i] for i in ivec]
        false = sorted(set(itertools.product(*by_index)) - rel)
        structure = graph_structure(g, SIG.alphabet.symbols)
        for tup in true + random.Random(61).sample(false, 16):
            env = {f"x{j}": v for j, (v, _) in enumerate(tup, 1)}
            assert model_check(structure, f, env) == (tup in rel), tup

    def test_schemas_built_apart_compare_equal(self):
        a, b = transduction_schema(SIG), transduction_schema(SIG)
        assert a.phi is not b.phi and a.phi == b.phi
        assert a.kappa_formula(2) is not b.kappa_formula(2)
        assert a.kappa_formula(2) == b.kappa_formula(2)
        assert a.kappa_formula(2) != b.kappa_formula(1)
        assert a.phi != transduction_schema(DUAL).phi

    def test_theta_family_mapping(self):
        sch = transduction_schema(SIG)
        assert sch.theta("child", (0, 3)) is sch.theta("child", [0, 3])
        assert sch.theta("child", (0, 3)) is not sch.theta("child", (3, 0))
        with pytest.raises((UnknownPredicate, ValueError)):
            sch.theta("child", (0, 9))


class TestThetaReferee:
    """The transduction's formulas, run on graphs, against the tree."""

    @pytest.mark.parametrize("sig", [SIG, DUAL], ids=["spw5", "scw5"])
    def test_psi_and_theta_define_the_tree(self, sig):
        # every shape on 1..5 vertices, and graphs of 6 or 7 with a W5 node
        rng = random.Random(19)
        graphs = f_graph_shapes(sig, 5, rng)
        assert len(graphs) == 72  # 71 series-parallel orders and W5
        graphs += graphs_with_a_prime_node(sig, 4, range(6, 8), rng)
        sch = transduction_schema(sig)
        for g in graphs:
            assert theta_disagreements(sch, g, rng) == [], sorted(g.edges)

    @pytest.mark.parametrize("sig", [SIG, DUAL], ids=["spw5", "scw5"])
    def test_phi_accepts_exactly_the_transversals(self, sig):
        # every assignment of X0..X3 on every shape on 1..3 vertices
        sch = transduction_schema(sig)
        graphs = f_graph_shapes(sig, 3, random.Random(20))
        assert len(graphs) == 8
        for g in graphs:
            t, cls, enc = encode_graph(g, sig)
            chk = ModelChecker(graph_structure(g, sig.alphabet.symbols))
            transversals = []
            for kappa in enc.kappa:
                fibers: dict = {}
                for v, n in kappa.items():
                    fibers[n] = fibers.get(n, 0) | chk.to_mask([v])
                inside = sum(fibers.values())
                transversals.append({x for x in range(1 << g.n) if not x & ~inside
                                     and all((x & f).bit_count() == 1
                                             for f in fibers.values())})
            for xs in itertools.product(range(1 << g.n), repeat=4):
                want = all(x in ok for x, ok in zip(xs, transversals))
                assert chk.check_prepared(sch.phi, dict(zip(sch.params, xs))) == want, \
                    (sorted(g.edges), xs)


def _all_subsets(verts):
    import itertools
    for k in range(len(verts) + 1):
        yield from itertools.combinations(verts, k)


class TestSingleOperationSignatures:
    """Degenerate signatures still round-trip through the leaf encoding."""

    def test_words_only(self):
        from modgraph.graphs import Alphabet
        from modgraph.signature import Signature
        sig = Signature(Alphabet(("a", "b")), (SEQ_OP,))
        for w in ("a", "ab", "abab", "baabab"):
            g = word_graph(w)
            t, cls, enc = encode_graph(g, sig)
            assert verify_isomorphism(build_repr(t, enc, sig=sig), t, sig=sig)
            assert check_kappa_lemma(t, enc, sig).ok

    def test_discrete_only(self):
        from modgraph.graphs import Alphabet
        from modgraph.signature import PAR_OP, Signature
        sig = Signature(Alphabet(("a", "b")), (PAR_OP,))
        for n in (1, 2, 5):
            g = LabeledGraph.build(range(1, n + 1), [],
                                   {v: "ab"[v % 2] for v in range(1, n + 1)})
            t, cls, enc = encode_graph(g, sig)
            assert verify_isomorphism(build_repr(t, enc, sig=sig), t, sig=sig)
            assert check_kappa_lemma(t, enc, sig).ok

    def test_cliques_only(self):
        from modgraph.graphs import Alphabet
        from modgraph.signature import Signature
        sig = Signature(Alphabet(("a",)), (CLIQUE_OP,))
        for n in (2, 4):
            edges = [(i, j) for i in range(1, n + 1)
                     for j in range(1, n + 1) if i != j]
            g = LabeledGraph.build(range(1, n + 1), edges,
                                   {v: "a" for v in range(1, n + 1)})
            t, cls, enc = encode_graph(g, sig)
            assert verify_isomorphism(build_repr(t, enc, sig=sig), t, sig=sig)
            assert check_kappa_lemma(t, enc, sig).ok
