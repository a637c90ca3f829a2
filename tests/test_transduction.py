import dataclasses
import gc
import random
import time

import pytest

from kappa_referee import referee_check_kappa_lemma
from modgraph.cms import ModelChecker, graph_structure, model_check
from modgraph.errors import NotWeaklyRigid, NotWeaklyRigidSignature, UnknownPredicate
from modgraph.generators import random_digraph, random_f_graph, random_subset
from modgraph.graphs import Alphabet, LabeledGraph, is_module
from modgraph.mdec import (DecompositionCase, NodeKind, Rows, binarize, decompose,
                           maximal_prime_modules, reconstruct)
from modgraph.samples import (cycle_graph, scw5_signature, spp3_signature,
                              spw5_signature, word_graph, word_term)
from modgraph.signature import (CLIQUE_OP, SEQ_OP, Signature, Term,
                                eval_term, prime_op)
from modgraph.transduction import (PredicateLibrary, _suffixes, build_repr,
                                   build_repr0, check_kappa_lemma,
                                   classify_nodes, compute_encoding,
                                   encode_graph, transduction_schema,
                                   verify_isomorphism)

SIG = spw5_signature()
DUAL = scw5_signature()


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

    def test_dual_mode_clique_classes(self):
        t = tree_of(node("clique", leaf("a"), leaf("b")), sig=DUAL)
        cls = classify_nodes(t, DUAL)
        assert cls.mode is NodeKind.CLIQUE
        assert cls.classes[t.root] == 1


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

    def test_rho_reaches_root(self):
        t = tree_of(node("seq", leaf("a"), leaf("b"), leaf("a")))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        for v, path in enc.rho.items():
            assert path[0].module == frozenset({v})
            assert path[-1] is t.root


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
                if case is DecompositionCase.SEQ:
                    want = {frozenset().union(*blocks[i:]) for i in range(1, len(blocks))}
            rows = Rows(g)
            assert {rows.ids(z) for z in _suffixes(rows, rows.mask(g.vertices))} == want


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


class TestRepr:
    def test_leaf_domain(self):
        t = tree_of(leaf("a"))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        assert build_repr0(t, enc, sig=SIG).domain == ((1, 0),)

    def test_par_domain_and_equivalence(self):
        t = tree_of(node("par", leaf("a"), leaf("b")))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        r0 = build_repr0(t, enc, sig=SIG)
        assert r0.domain == ((1, 0), (1, 1), (2, 0), (2, 1))
        assert r0.equivalent((1, 1), (2, 1))
        assert not r0.equivalent((1, 0), (2, 0))

    def test_word_ab_domain(self):
        t = tree_of(node("seq", leaf("a"), leaf("b")))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        assert build_repr0(t, enc, sig=SIG).domain == ((1, 0), (1, 3), (2, 0))

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
        pairs = set(rep.relations["child"])
        pairs.pop()
        rep.relations["child"] = frozenset(pairs)
        assert not verify_isomorphism(rep, t, sig=SIG)

    def test_repr0_is_not_isomorphic_when_fibers_merge(self):
        t = tree_of(node("par", leaf("a"), leaf("b")))
        enc = compute_encoding(t, classify_nodes(t, SIG))
        assert not verify_isomorphism(build_repr0(t, enc, sig=SIG), t, sig=SIG)

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
        env = {f"X{i}": rep.reps[i] for i in range(4)}
        chk = ModelChecker(graph_structure(g, SIG.alphabet.symbols))
        for (i, j) in ((0, 0), (3, 0), (3, 3), (0, 3)):
            f = sch.theta("child", (i, j))
            for (v, iv) in rep.domain:
                for (w, jw) in rep.domain:
                    if iv != i or jw != j:
                        continue
                    want = ((v, iv), (w, jw)) in rep.relations["child"]
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

    def test_theta_family_mapping(self):
        sch = transduction_schema(SIG)
        assert sch.theta_family[("child", (0, 0))] is sch.theta("child", (0, 0))
        with pytest.raises((UnknownPredicate, ValueError)):
            sch.theta("child", (0, 9))


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
