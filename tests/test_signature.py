import dataclasses
import gc
import itertools
import math
import weakref
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from deep_term import LEVELS, alternating_term
from modgraph import graphs, signature
from modgraph.cms import tree_structure
from modgraph.errors import ArityMismatch, UnknownOp, UnknownSymbol
from modgraph.formats import parse_term
from modgraph.generators import random_digraph, random_term
from modgraph.graphs import Alphabet, LabeledGraph, Permutation, apply_isomorphism
from modgraph.mdec import NodeKind, binarize, decompose, format_tree
from modgraph.samples import (W5_GRAPH, cycle_graph, p3_op, scw5_signature,
                              sp_signature, spp3_signature, spw5_signature, w5_op)
from modgraph.signature import (CLIQUE_OP, PAR_OP, SEQ_OP, Signature,
                                Term, compose, eval_term, is_prime, match_op,
                                prime_op, validate_weakly_rigid_signature)

D3 = LabeledGraph.on_range(3, [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)])
P4 = LabeledGraph.on_range(4, [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)])


def leaf(s):
    return Term.leaf(s)


def node(op, *kids):
    return Term.node(op, list(kids))


class TestPrimality:
    def test_undirected_triangle_not_prime(self):
        assert not is_prime(D3)

    def test_w5_prime(self):
        assert is_prime(W5_GRAPH)

    def test_undirected_path4_prime(self):
        assert is_prime(P4)

    def test_directed_cycles_prime(self):
        for n in (3, 4, 5, 6):
            assert is_prime(cycle_graph(n))


class TestCompose:
    def test_par_of_two_letters(self):
        g = compose(PAR_OP, [LabeledGraph.single_vertex("a"),
                             LabeledGraph.single_vertex("b")])
        assert g.n == 2 and not g.edges

    def test_seq_of_two_letters(self):
        g = compose(SEQ_OP, [LabeledGraph.single_vertex("a"),
                             LabeledGraph.single_vertex("b")])
        assert g.edges == frozenset({(1, 2)})
        assert g.labels == {1: "a", 2: "b"}

    def test_clique_of_two_letters(self):
        g = compose(CLIQUE_OP, [LabeledGraph.single_vertex("a"),
                                LabeledGraph.single_vertex("b")])
        assert g.edges == frozenset({(1, 2), (2, 1)})

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            compose(w5_op(), [LabeledGraph.single_vertex("a")] * 4)
        with pytest.raises(ArityMismatch):
            compose(SEQ_OP, [LabeledGraph.single_vertex("a")])


def _old_str(t):
    # the recursive rendering the iterative one replaced
    if t.is_leaf:
        return t.symbol
    head = t.op if t.op in ("seq", "par", "clique") else f"prime {t.op}"
    return "(" + head + " " + " ".join(_old_str(c) for c in t.children) + ")"


def _old_eq(a, b):
    # the dataclass field comparison the iterative one replaced
    return ((a.op, a.symbol, len(a.children)) == (b.op, b.symbol, len(b.children))
            and all(_old_eq(x, y) for x, y in zip(a.children, b.children)))


def _old_leaves(t):
    return [t.symbol] if t.is_leaf else [s for c in t.children for s in _old_leaves(c)]


# a plain frozen dataclass with Term's fields: its generated repr is the one
# Term had before it wrote its own
_DataclassTerm = dataclasses.make_dataclass(
    "Term", [("op", object), ("symbol", object), ("children", tuple)], frozen=True)


def _old_repr(t):
    def copy(u):
        return _DataclassTerm(u.op, u.symbol, tuple(copy(c) for c in u.children))
    return repr(copy(t))


class TestTermStructure:
    """Iterative str, repr, leaves, equality and stored hashes, against the
    recursive versions on seeded terms."""

    SIGS = (spw5_signature(), scw5_signature(), spp3_signature(), sp_signature())

    def test_seeded_terms_unchanged(self):
        rng = Random(71)
        prev = None
        for k in range(600):
            sig = self.SIGS[k % len(self.SIGS)]
            t = random_term(rng, sig, max_depth=5, max_leaves=rng.choice((2, 3, 12)))
            assert str(t) == _old_str(t)
            assert repr(t) == _old_repr(t)
            assert t.leaves() == _old_leaves(t)
            again = parse_term(str(t), sig)
            assert again is not t and again == t and hash(again) == hash(t)
            if prev is not None:
                assert (t == prev) is _old_eq(t, prev)
                assert (t != prev) is not _old_eq(t, prev)
            prev = t

    def test_repr_of_a_deep_term(self):
        levels = LEVELS
        t = alternating_term()
        text = repr(t)
        inner = "Term(op=None, symbol='a', children=())"
        assert text.startswith("Term(op='seq', symbol=None, children=(" + inner + ", ")
        assert text.endswith(inner + "))" * levels)
        assert text.count("Term(") == 2 * levels + 1
        assert repr(leaf("b")) == "Term(op=None, symbol='b', children=())"

    def test_one_leaf_apart(self):
        t = node("seq", leaf("a"), node("W5", *[leaf(s) for s in "abab"], leaf("a")))
        u = node("seq", leaf("a"), node("W5", *[leaf(s) for s in "abab"], leaf("b")))
        assert t != u and not _old_eq(t, u)
        assert t != "(seq a (prime W5 a b a b a))"
        assert {t, u, parse_term(str(t), spw5_signature())} == {t, u}


class TestEvalTerm:
    def test_leaf(self):
        g = eval_term(sp_signature(), leaf("a"))
        assert g.n == 1 and g.labels == {1: "a"}

    def test_seq_over_par(self):
        g = eval_term(sp_signature(), node("seq", leaf("a"),
                                           node("par", leaf("b"), leaf("b"))))
        assert g.edges == frozenset({(1, 2), (1, 3)})

    def test_associativity_exact(self):
        sig = sp_signature()
        left = node("seq", node("seq", leaf("a"), leaf("b")), leaf("a"))
        right = node("seq", leaf("a"), node("seq", leaf("b"), leaf("a")))
        assert eval_term(sig, left) == eval_term(sig, right)

    def test_flattening(self):
        t = node("seq", node("seq", leaf("a"), leaf("b")), leaf("a"))
        assert t.op == "seq" and len(t.children) == 3

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            eval_term(sp_signature(), leaf("z"))

    def test_unknown_op(self):
        with pytest.raises(UnknownOp):
            eval_term(sp_signature(), node("W5", *[leaf("a")] * 5))

    def test_leaf_count_is_vertex_count(self):
        sig = spw5_signature()
        t = node("W5", leaf("a"), leaf("b"), node("seq", leaf("a"), leaf("b")),
                 leaf("a"), node("par", leaf("b"), leaf("b")))
        assert eval_term(sig, t).n == len(t.leaves()) == 7

    def test_equals_compose_fold(self):
        def fold(sig, t):
            if t.is_leaf:
                return LabeledGraph.single_vertex(t.symbol)
            return compose(sig.op(t.op), [fold(sig, c) for c in t.children])

        rng = Random(41)
        sigs = (spw5_signature(), sp_signature(),
                Signature(Alphabet(("a", "b")), (SEQ_OP, CLIQUE_OP, p3_op())))
        for k in range(1200):
            sig = sigs[k % len(sigs)]
            t = random_term(rng, sig, max_depth=5, max_leaves=rng.randint(1, 16))
            g, want = eval_term(sig, t), fold(sig, t)
            assert g == want and g.labels == want.labels

    def test_errors_as_the_fold_raised_them(self):
        sig = spw5_signature()
        with pytest.raises(ArityMismatch, match="operation expects 5 operands, got 2"):
            eval_term(sig, Term("W5", None, (leaf("a"), leaf("b"))))
        with pytest.raises(ArityMismatch, match="seq expects at least 2 operands"):
            eval_term(sig, Term("seq", None, (leaf("a"),)))
        # the first fault in a left-to-right walk wins, operations before
        # their arguments
        with pytest.raises(UnknownSymbol):
            eval_term(sig, node("seq", leaf("z"), Term("W5", None, ())))
        with pytest.raises(UnknownOp):
            eval_term(sig, node("seq", leaf("a"), node("P3", leaf("z"))))


class TestSizeLaw:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    def test_w5_edge_count(self, a, b, c):
        # |E| = sum of operand edges + sum over op edges of |V_i|*|V_j|
        sizes = [a, b, c, 1, 1]
        ops = [LabeledGraph.build(range(1, s + 1), [], {v: "a" for v in range(1, s + 1)})
               for s in sizes]
        g = compose(w5_op(), ops)
        expected = sum(sizes[i - 1] * sizes[j - 1] for (i, j) in W5_GRAPH.edges)
        assert len(g.edges) == expected
        assert g.n == sum(sizes)


class TestWeakRigidity:
    # an operation is weakly rigid iff it has a distinguished set
    def test_seq_weakly_rigid(self):
        assert SEQ_OP.symmetry.distinguished is not None

    def test_cycles_not_weakly_rigid(self):
        for n in (3, 4, 5, 6):
            assert prime_op(f"C{n}", cycle_graph(n)).symmetry.distinguished is None

    def test_w5_weakly_rigid(self):
        assert w5_op().symmetry.distinguished is not None

    def test_sp_signature_accepted(self):
        assert validate_weakly_rigid_signature(sp_signature()).accepted

    def test_both_commutative_rejected(self):
        sig = Signature(Alphabet(("a",)), (PAR_OP, CLIQUE_OP))
        report = validate_weakly_rigid_signature(sig)
        assert not report.accepted
        assert any("commutative" in str(v) for v in report.violations)

    def test_cycle_rejected_with_full_orbit(self):
        sig = Signature(Alphabet(("a",)),
                        (SEQ_OP, PAR_OP, prime_op("C3", cycle_graph(3))))
        report = validate_weakly_rigid_signature(sig)
        assert not report.accepted
        (violation,) = report.violations
        assert violation.op_name == "C3"
        assert violation.witness_orbit == frozenset({1, 2, 3})


class TestDistinguished:
    def test_seq_origin(self):
        assert SEQ_OP.symmetry.distinguished == frozenset({1})

    def test_w5_orbit_of_one(self):
        assert w5_op().symmetry.distinguished == frozenset({1, 5})

    def test_invariant_under_automorphisms(self):
        sym = w5_op().symmetry
        dist = sym.distinguished
        for sigma in sym.automorphisms:
            assert frozenset(sigma(i) for i in dist) == dist


class TestCpEquations:
    # one argument-permutation equation per non-identity automorphism
    def test_w5(self):
        assert [str(p) for p in w5_op().symmetry.automorphisms] == ["(1 5)(2 4)"]

    def test_seq_trivial(self):
        assert SEQ_OP.symmetry.automorphisms == ()

    def test_c3_rotations(self):
        perms = prime_op("C3", cycle_graph(3)).symmetry.automorphisms
        assert {str(p) for p in perms} == {"(1 2 3)", "(1 3 2)"}


class TestSignatureInvariants:
    def test_isomorphic_primes_rejected(self):
        mirror = prime_op("W5m", LabeledGraph.on_range(
            5, [(5, 2), (3, 2), (3, 4), (1, 4)]))
        with pytest.raises(ValueError):
            Signature(Alphabet(("a",)), (w5_op(), mirror))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Signature(Alphabet(("a",)), (SEQ_OP, SEQ_OP))

    def test_prime_ops_need_three_vertices(self):
        with pytest.raises(ValueError):
            prime_op("tiny", LabeledGraph.on_range(2, [(1, 2)]))

    def test_non_prime_payload_rejected(self):
        with pytest.raises(ValueError):
            prime_op("D3", D3)


@pytest.fixture
def searches(monkeypatch):
    """Counts isomorphism searches, automorphism searches apart, starting
    from an empty symmetry table."""
    counts = {"aut": 0, "iso": 0}
    search = graphs._iso_search

    def counting(g, h, respect_labels, find_all):
        counts["aut" if find_all else "iso"] += 1
        return search(g, h, respect_labels, find_all)

    monkeypatch.setattr(graphs, "_iso_search", counting)
    monkeypatch.setattr(signature, "_symmetries", weakref.WeakKeyDictionary())
    return counts


class TestSymmetryRecord:
    def test_one_automorphism_search_per_prime_graph(self, searches):
        sig = Signature(Alphabet(("a", "b")), (SEQ_OP, PAR_OP, w5_op(), p3_op()))
        t = node("W5", leaf("a"), node("P3", leaf("a"), leaf("b"), leaf("a")),
                 node("seq", leaf("a"), leaf("b")), leaf("b"),
                 node("par", leaf("a"), leaf("b")))
        tree = binarize(decompose(eval_term(sig, t), sig))
        for _ in range(3):
            for op in sig.prime_ops:
                sym = op.symmetry
                assert sym.distinguished is not None
                assert (len(sym.enumerations(range(op.arity)))
                        == len(sym.automorphisms) + 1)
            assert validate_weakly_rigid_signature(sig).accepted
            tree_structure(tree, sig)
        assert searches["aut"] == 2

    def test_decompose_without_signature_searches_nothing(self, searches):
        g = random_digraph(Random(0), 50)
        tree = decompose(g, None)
        assert any(n.kind is NodeKind.PRIME and n.op.graph.n == 50
                   for n in tree.nodes())
        assert searches == {"aut": 0, "iso": 0}

    def test_enumerations_follow_automorphism_order(self):
        sym = prime_op("C3", cycle_graph(3)).symmetry
        assert [p.image for p in sym.automorphisms] == [(2, 3, 1), (3, 1, 2)]
        assert sym.enumerations("xyz") == [("x", "y", "z"), ("y", "z", "x"),
                                           ("z", "x", "y")]
        assert sym.distinguished is None
        w5 = w5_op().symmetry
        assert w5.enumerations("xyxyx") == [tuple("xyxyx")]
        assert w5.orbits == (frozenset({1, 5}), frozenset({2, 4}),
                             frozenset({3}))


@pytest.fixture
def cold_matches(monkeypatch):
    """An empty isomorphism cache of match_op for the test."""
    table = weakref.WeakKeyDictionary()
    monkeypatch.setattr(signature, "_matches", table)
    return table


SPW5P3 = Signature(Alphabet(("a", "b")), (SEQ_OP, PAR_OP, w5_op(), p3_op()))


def _renamed(g, image):
    """g with its k-th smallest vertex renamed image[k - 1]."""
    return apply_isomorphism(g, Permutation(tuple(image)))


def _cold_match(ops, quotient):
    """match_op by its definition: the first operation a fresh search
    finds isomorphic to the quotient."""
    for op in ops:
        if op.graph.n == quotient.n:
            sigma = graphs.find_isomorphism(op.graph, quotient, respect_labels=False,
                                            max_vertices=None)
            if sigma is not None:
                return op, sigma
    return None


class TestMatchCache:
    def test_warm_answers_are_the_cold_ones(self, cold_matches, searches):
        rng = Random(15)
        for sig in (spw5_signature(), SPW5P3):
            ops = sig.prime_ops
            for op in ops:
                k = op.graph.n
                copies = [_renamed(op.graph, p)
                          for p in itertools.permutations(range(1, k + 1))]
                others = [LabeledGraph.on_range(k, random_digraph(rng, k, p).edges)
                          for p in (0.2, 0.4, 0.6) for _ in range(20)]
                want = [_cold_match(ops, q) for q in copies + others]
                assert any(w is None for w in want)
                for _ in range(2):  # the first pass fills the cache
                    assert [match_op(ops, q) for q in copies + others] == want
                before = searches["iso"]
                assert [match_op(ops, q) for q in copies] == want[:len(copies)]
                assert searches["iso"] == before

    def test_one_entry_per_labelled_copy(self, cold_matches):
        for op in (w5_op(), p3_op(), prime_op("C4", cycle_graph(4)),
                   prime_op("C5", cycle_graph(5))):
            k = op.graph.n
            for p in itertools.permutations(range(1, k + 1)):
                assert match_op([op], _renamed(op.graph, p))[0] is op
            aut = len(op.symmetry.automorphisms) + 1
            assert len(cold_matches[op.graph]) == math.factorial(k) // aut

    def test_quotient_off_the_range_bypasses_the_cache(self, cold_matches):
        op = w5_op()
        q = _renamed(op.graph, (2, 1, 3, 5, 4))
        off = apply_isomorphism(q, Permutation.identity(5), [2, 4, 6, 8, 10])
        assert match_op([op], off) == _cold_match([op], off)
        assert not cold_matches
        assert match_op([op], q) == _cold_match([op], q)
        assert len(cold_matches[op.graph]) == 1

    def test_entry_goes_with_its_operation_graph(self):
        # a graph that no other test builds, in the module's own table
        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4), (2, 6)]
        h = LabeledGraph.on_range(6, edges)
        op = prime_op("H", h, check_prime=False)
        q = _renamed(h, (2, 4, 1, 6, 5, 3))
        assert match_op([op], q) == _cold_match([op], q)
        assert signature._matches[h] == {q.edges: _cold_match([op], q)[1]}
        del op, h
        gc.collect()
        assert LabeledGraph.on_range(6, edges) not in signature._matches

    def test_decompose_same_tree_cold_and_warm(self, cold_matches):
        rng = Random(1515)
        cases = []
        for k in range(200):
            sig = (spw5_signature(), SPW5P3)[k % 2]
            g = eval_term(sig, random_term(rng, sig, max_depth=5, max_leaves=20))
            if k % 4 >= 2:  # the same graph on permuted vertex ids
                g = _renamed(g, rng.sample(range(1, g.n + 1), g.n))
            cases.append((g, sig))
        cold = []
        for g, sig in cases:
            cold_matches.clear()
            cold.append(format_tree(decompose(g, sig)))
        assert sum("W5" in text or "P3" in text for text in cold) > 50
        assert [format_tree(decompose(g, sig)) for g, sig in cases] == cold
        assert cold_matches
