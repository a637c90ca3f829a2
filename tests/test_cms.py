import gc
import itertools
import random
import weakref

import pytest

from cms_referee import expand
from modgraph import cms
from modgraph.cms import (And, Exists, ExistsMod, Forall, Implies, In,
                          ModelChecker, Not, Or, Pred, RelationalSignature,
                          Structure, graph_structure, model_check,
                          parse_formula, to_text, tree_predicates,
                          tree_prime_ops, tree_relations, tree_structure,
                          variable_kinds)
from modgraph.errors import (ArityMismatch, BudgetExceeded, FormulaSyntaxError,
                             UnboundVariable, UnknownPredicate)
from modgraph.generators import random_f_graph
from modgraph.mdec import NodeKind, binarize, decompose
from modgraph.samples import (scw5_signature, spp3_signature, spw5_signature,
                              word_graph, word_term)
from modgraph.signature import Term, eval_term

SIG1 = RelationalSignature((("p", 1),))


def unary_structure(n, members=()):
    return Structure(SIG1, tuple(range(1, n + 1)),
                     {"p": frozenset((m,) for m in members)})


class TestParser:
    def test_simple_exists(self):
        gs = graph_structure(word_graph("ab"))
        f = parse_formula("(exists x (label_a x))", gs.signature)
        assert isinstance(f, Exists)

    def test_counting_formula(self):
        f = parse_formula("(existsmod 2 x (= x x))", SIG1)
        assert isinstance(f, ExistsMod) and f.q == 2

    def test_arity_error(self):
        gs = graph_structure(word_graph("ab"))
        with pytest.raises(ArityMismatch):
            parse_formula("(edge x)", gs.signature)

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicate):
            parse_formula("(bogus x)", SIG1)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            parse_formula("(exists x (= x y))", SIG1)

    def test_declared_free_variables(self):
        f = parse_formula("(in x X)", SIG1,
                          free_vars={"x": "element", "X": "set"})
        assert f == In("x", "X")

    def test_kind_clash(self):
        with pytest.raises(UnboundVariable):
            parse_formula("(existsset X (exists y (= X y)))", SIG1)

    def test_syntax_error_with_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("(and (p x)", SIG1, free_vars={"x": "element"})
        assert exc.value.line >= 1

    def test_modulus_bound(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(existsmod 1 x (= x x))", SIG1)

    def test_comments_and_roundtrip(self):
        text = "# even domain\n(existsmod 2 x (= x x))"
        f = parse_formula(text, SIG1)
        assert parse_formula(to_text(f), SIG1) == f

    def test_deep_not_chain_parses_without_recursion(self):
        depth = 5000
        text = "(not " * depth + "(p x)" + ")" * depth
        want = Pred("p", ("x",))
        for _ in range(depth):
            want = Not(want)
        assert parse_formula(text, SIG1, free_vars={"x": "element"}) == want
        # every other walk of the formula layer goes as deep, without recursion
        assert to_text(want) == str(want) == text
        assert parse_formula(to_text(want), SIG1, free_vars={"x": "element"}) == want
        assert repr(want) == "Not(body=" * depth + "Pred(name='p', args=('x',))" + ")" * depth
        assert expand(want) == want
        assert variable_kinds(want) == {"x": "element"} and want.free_vars() == {"x"}
        # an even number of nots: the chain holds where (p x) holds
        s = unary_structure(3, members=[2])
        assert [model_check(s, want, {"x": v}) for v in (1, 2, 3)] == [False, True, False]
        assert [model_check(s, Not(want), {"x": v}) for v in (1, 2, 3)] == [True, False, True]
        assert model_check(s, Exists("x", want)) and not model_check(s, Forall("x", want))


SIG_PR = RelationalSignature((("p", 1), ("r", 2)))


@pytest.mark.parametrize("text, error, message", [
    ("", FormulaSyntaxError, "1:1: expected '('"),
    ("# only a comment", FormulaSyntaxError, "1:1: expected '('"),
    ("(exists x (p x)) (p x)", FormulaSyntaxError, "1:18: unexpected trailing input"),
    ("(exists x\n  (q x))", UnknownPredicate, "2:4: unknown predicate 'q'"),
    ("(exists x\r\n  (r x))", ArityMismatch,
     "2:4: predicate 'r' expects 2 arguments, got 1"),
    ("(exists x # bind x\n  (and (p x)))", FormulaSyntaxError,
     "2:13: and needs at least 2 operands"),
    ("(exists x (p x)) # done\n)", FormulaSyntaxError, "2:1: unexpected trailing input"),
    ("(forall x\x0c(r x x x))", ArityMismatch,
     "2:2: predicate 'r' expects 2 arguments, got 3"),
    ("(existsmod\n\n   q x (p x))", FormulaSyntaxError,
     "3:4: counting modulus must be an integer >= 2"),
    ("(exists (p x))", FormulaSyntaxError, "1:9: expected a variable name"),
    ("(exists x (p x) # trailing", FormulaSyntaxError, "1:16: expected ')', found '<eof>'"),
    ("(exists x (implies (p x)\r(r x)))", ArityMismatch,
     "2:2: predicate 'r' expects 2 arguments, got 1"),
    ("((p x))", FormulaSyntaxError, "1:2: expected an operator or predicate name"),
    ("(exists x (p x#y))", FormulaSyntaxError, "1:15: expected ')', found '<eof>'"),
    ("(not\r\n(p x) (p x))", UnboundVariable, "2:4: variable 'x' is not bound"),
])
def test_parse_error_positions(text, error, message):
    with pytest.raises(error) as exc:
        parse_formula(text, SIG_PR)
    assert type(exc.value) is error and str(exc.value) == message
    if error is FormulaSyntaxError:
        assert f"{exc.value.line}:{exc.value.column}:" == message.split(" ")[0]


class TestSemantics:
    def test_counting_even_domain(self):
        f = parse_formula("(existsmod 2 x (= x x))", SIG1)
        assert model_check(unary_structure(4), f)
        assert not model_check(unary_structure(3), f)

    def test_forall_reflexive(self):
        f = parse_formula("(forall x (= x x))", SIG1)
        assert model_check(unary_structure(3), f)

    def test_edge_exists(self):
        gs = graph_structure(word_graph("ab"))
        f = parse_formula("(exists x (exists y (edge x y)))", gs.signature)
        assert model_check(gs, f)

    def test_set_quantifier(self):
        f = parse_formula(
            "(existsset X (and (exists x (in x X)) (forall y (implies (in y X) (p y)))))",
            SIG1)
        assert model_check(unary_structure(3, members=[2]), f)
        assert not model_check(unary_structure(3), f)

    def test_counting_matches_explicit_count_exhaustive(self):
        f2 = ExistsMod(2, "x", Pred("p", ("x",)))
        f3 = ExistsMod(3, "x", Pred("p", ("x",)))
        for n in range(1, 5):
            for bits in itertools.product((0, 1), repeat=n):
                members = [i + 1 for i in range(n) if bits[i]]
                s = unary_structure(n, members)
                assert model_check(s, f2) == (len(members) % 2 == 0)
                assert model_check(s, f3) == (len(members) % 3 == 0)

    def test_free_set_env(self):
        gs = graph_structure(word_graph("ab"))
        f = parse_formula("(forall x (implies (in x X) (label_a x)))",
                          gs.signature, free_vars={"X": "set"})
        assert model_check(gs, f, {"X": {1}})
        assert not model_check(gs, f, {"X": {1, 2}})

    def test_missing_env_binding(self):
        f = parse_formula("(in x X)", SIG1,
                          free_vars={"x": "element", "X": "set"})
        with pytest.raises(UnboundVariable):
            model_check(unary_structure(2), f, {"x": 1})

    def test_values_outside_the_domain(self):
        f = parse_formula("(in x X)", SIG1,
                          free_vars={"x": "element", "X": "set"})
        with pytest.raises(UnboundVariable, match="'x' is outside the domain"):
            model_check(unary_structure(2), f, {"x": 99, "X": {1}})
        with pytest.raises(UnboundVariable, match="'X' holds 99, outside the domain"):
            model_check(unary_structure(2), f, {"x": 1, "X": {1, 99}})
        for unhashable in ({1}, [1]):
            with pytest.raises(UnboundVariable, match="'x' is outside the domain"):
                model_check(unary_structure(2), f, {"x": unhashable, "X": {1}})

    def test_hand_built_predicate_errors(self):
        chk = ModelChecker(unary_structure(2))
        with pytest.raises(ArityMismatch):
            chk.check(Exists("x", Pred("p", ("x", "x"))))
        with pytest.raises(UnknownPredicate):
            chk.check(Exists("x", Pred("q", ("x",))))

    def test_negation_consistency(self):
        gs = graph_structure(word_graph("aba"))
        f = parse_formula("(exists x (label_b x))", gs.signature)
        assert model_check(gs, f) != model_check(gs, Not(f))


class TestBudget:
    def test_budget_exceeded(self):
        f = parse_formula("(forallset X (forallset Y (existsset Z (= x x))))",
                          SIG1, free_vars={"x": "element"})
        with pytest.raises(BudgetExceeded, match="^work budget of 10 exhausted$"):
            model_check(unary_structure(5), f, {"x": 1}, budget=10)

    def test_work_is_counted(self):
        # one unit per node entry: forall (1) + the first (p x), false (1)
        chk = ModelChecker(unary_structure(3))
        chk.check(parse_formula("(forall x (p x))", SIG1))
        assert chk.work == 2

    def test_memo_hit_costs_one_unit(self):
        # forallset (1) + exists at X = {} (1) + three (in x X) (3); the
        # second check is a memo hit on the forallset node (1)
        chk = ModelChecker(unary_structure(3))
        f = parse_formula("(forallset X (exists x (in x X)))", SIG1)
        assert not chk.check(f)
        assert chk.work == 5
        assert not chk.check(f)
        assert chk.work == 6

    def test_budget_bound_is_inclusive(self):
        # forall (1) + three true (p x) (3) = exactly 4 units
        f = parse_formula("(forall x (p x))", SIG1)
        assert model_check(unary_structure(3, [1, 2, 3]), f, budget=4)
        with pytest.raises(BudgetExceeded):
            model_check(unary_structure(3, [1, 2, 3]), f, budget=3)


EDGE_SENTENCES = ("(exists x (exists y (edge x y)))",
                  "(forall x (exists y (edge x y)))",
                  "(exists x (forall y (not (edge y x))))",
                  "(forall x (forall y (implies (edge x y) (edge y x))))")


class TestFormulaIdentity:
    """Checker tables follow formula structure: equal formulas are one
    object, and a formula freed leaves no entry for another."""

    def test_transient_formulas_on_one_checker(self):
        # transient formulas are freed after each round, so their object ids
        # get recycled; a table keyed on identity would answer for a dead
        # formula or miss its variables
        gs = graph_structure(word_graph("aba"))
        chk = ModelChecker(gs)
        wrong = unbound = 0
        for k in range(3000):
            f = parse_formula(EDGE_SENTENCES[k % 4], gs.signature)
            try:
                if chk.check(f) != model_check(gs, f):
                    wrong += 1
            except UnboundVariable:
                unbound += 1
            del f
        assert (wrong, unbound) == (0, 0)

    def test_reparsed_sentence_reuses_its_entry(self):
        gs = graph_structure(word_graph("aba"))
        chk = ModelChecker(gs)
        chk.check(parse_formula(EDGE_SENTENCES[1], gs.signature))
        work, compiled = chk.work, len(chk._code)
        for _ in range(100):
            chk.check(parse_formula(EDGE_SENTENCES[1], gs.signature))
        # each re-check is one memo hit on the closed top-level quantifier
        assert chk.work == work + 100
        assert len(chk._code) == compiled

    def test_equal_formulas_are_one_key(self):
        sig = graph_structure(word_graph("ab")).signature
        a = parse_formula(EDGE_SENTENCES[3], sig)
        b = parse_formula(EDGE_SENTENCES[3], sig)
        assert a is b
        assert len({a, b}) == 1
        assert a != parse_formula(EDGE_SENTENCES[2], sig)

    def test_deep_formulas_built_apart_compare_without_recursion(self):
        def deep(atom, levels=5000, var="x"):
            f = Pred(atom, (var,))
            for _ in range(levels):
                f = Not(f)
            return Exists(var, f)

        a = deep("p")
        assert a == deep("p") and hash(a) == hash(deep("p"))
        assert a != deep("q")
        # alpha-renamed: equal canonical forms, so one compiled unit, found
        # by its source text on one checker
        b = deep("p", var="y")
        assert a != b
        chk = ModelChecker(unary_structure(3, members=[1, 2, 3]))
        assert chk.check(a) and chk.check(b)
        assert not chk.check(deep("p", levels=4999, var="y"))
        assert cms._unit(a)[0] is cms._unit(b)[0]

    def test_deep_alternating_chain_on_both_evaluation_paths(self):
        # and, or, implies and not in turn over two atoms, 5,000 levels:
        # set-at-a-time under a quantifier, straight-line code with x free
        sig = RelationalSignature((("p", 1), ("r", 2)))
        atoms = (Pred("p", ("x",)), Pred("r", ("x", "x")))
        f = atoms[0]
        for k in range(5000):
            atom = atoms[k // 4 % 2]
            f = (And((f, atom)), Or((f, atom)), Implies(f, atom), Not(f))[k % 4]

        def holds(p, r):
            # the chain on one element, bottom up
            value, truth = p, (p, r)
            for k in range(5000):
                atom = truth[k // 4 % 2]
                value = (value and atom, value or atom, not value or atom,
                         not value)[k % 4]
            return value

        for p, r in (({1, 2}, {1, 3}), ({2}, {2, 4}), (set(), {1, 2, 3, 4})):
            s = Structure(sig, (1, 2, 3, 4), {"p": frozenset((v,) for v in p),
                                              "r": frozenset((v, v) for v in r)})
            want = [holds(v in p, v in r) for v in (1, 2, 3, 4)]
            chk = ModelChecker(s)
            assert [chk.check(f, {"x": v}) for v in (1, 2, 3, 4)] == want
            assert chk.check(Exists("x", f)) == any(want)
            assert chk.check(Forall("x", f)) == all(want)
            assert chk.check(ExistsMod(2, "x", f)) == (sum(want) % 2 == 0)

    def test_shared_subformulas_are_compared_once(self):
        # 2^80 paths from the top, 81 distinct nodes
        def dag(atom, levels=80):
            f = Pred(atom, ("x",))
            for _ in range(levels):
                f = cms.And((f, Not(f)))
            return Exists("x", f)

        a, b = dag("p"), dag("p")
        assert a is b
        assert a != dag("q")
        # two distinct children with equal stored hashes: their parents
        # collide in the intern table and stay two nodes
        p, q = Pred("p", ("x",)), Pred("q", ("x",))
        q.__dict__["_hash"] = p._hash
        a, b = cms.And((p, p)), cms.And((p, q))
        assert hash(a) == hash(b)
        assert a is not b and a != b

    def test_dropped_formulas_leave_the_intern_table(self):
        gc.collect()
        before = len(cms._live)
        # about 1,000 distinct formulas, in a cycle that only the collector frees
        held = [Exists("x", Pred(f"dropped{k}", ("x",))) for k in range(500)]
        held.append(held)
        assert len(cms._live) >= before + 1000
        del held
        gc.collect()
        assert len(cms._live) == before
        assert len(cms._recent) <= 4096

    def test_late_collected_node_keeps_an_equal_successor(self):
        # the collector clears the dead node's reference and then runs the
        # callbacks, one of which builds an equal node before the dead
        # node's own callback runs
        class Holder:
            pass

        gc.collect()
        built, watchers = [], []
        for k in range(20):
            h = Holder()
            h.node, h.cycle = Pred(f"late{k}", ("x",)), h
            watchers.append(weakref.ref(
                h.node, lambda _, k=k: built.append(Pred(f"late{k}", ("x",)))))
            del h
        gc.collect()
        assert len(built) == 20
        assert all(cms._live[f._key]() is f for f in built)

    def test_shadowed_variable_is_restored(self):
        # the inner quantifier rebinds x; the outer (p x) must see the free x
        f = parse_formula("(and (exists x (p x)) (p x))", SIG1,
                          free_vars={"x": "element"})
        s = unary_structure(3, members=[2])
        chk = ModelChecker(s)
        assert not chk.check(f, {"x": 1})
        assert chk.check(f, {"x": 2})
        assert not chk.check(f, {"x": 3})


class TestEncoders:
    def test_single_vertex(self):
        gs = graph_structure(word_graph("a"))
        assert gs.domain == (1,)
        assert gs.relations["label_a"] == frozenset({(1,)})
        assert gs.relations["edge"] == frozenset()

    def test_word_edges(self):
        gs = graph_structure(word_graph("ab"))
        assert gs.relations["edge"] == frozenset({(1, 2)})

    def test_w5_graph_edges(self):
        sig = spw5_signature()
        g = eval_term(sig, Term.node("W5", [Term.leaf("a")] * 5))
        gs = graph_structure(g, sig.alphabet.symbols)
        assert len(gs.relations["edge"]) == 4

    def test_leaf_tree_structure(self):
        sig = spw5_signature()
        t = binarize(decompose(word_graph("a"), sig))
        st = tree_structure(t, sig)
        assert len(st.domain) == 1
        assert st.relations["child"] == frozenset()

    def test_binarized_chain_counts(self):
        sig = spw5_signature()
        t = binarize(decompose(eval_term(sig, word_term("aba")), sig))
        st = tree_structure(t, sig)
        assert len(st.relations["child"]) == 4
        assert len(st.relations["first-child"]) == 2

    def test_children_closed_under_mirror(self):
        sig = spw5_signature()
        g = eval_term(sig, Term.node("W5", [Term.leaf("a")] * 5))
        t = binarize(decompose(g, sig))
        st = tree_structure(t, sig)
        tuples = st.relations["children_W5"]
        assert len(tuples) == 2
        (a, b) = sorted(tuples)
        # the two enumerations differ by the mirror permutation
        assert a[0] == b[0]
        assert [a[1], a[2], a[4], a[5]] == [b[5], b[4], b[2], b[1]]

    def test_dist_child_predicate(self):
        sig = spw5_signature()
        g = eval_term(sig, Term.node("W5", [Term.leaf("a")] * 5))
        t = binarize(decompose(g, sig))
        st = tree_structure(t, sig)
        assert len(st.relations["dist-child_W5"]) == 2

    def test_structure_validation(self):
        with pytest.raises(ValueError):
            Structure(SIG1, (1, 2), {"p": frozenset({(3,)})})
        with pytest.raises(UnknownPredicate):
            Structure(SIG1, (1, 2), {"q": frozenset()})
        with pytest.raises(ValueError, match=r"^bad tuple \(1, 2\) for predicate 'p'$"):
            Structure(SIG1, (1, 2), {"p": frozenset({(1, 2)})})
        with pytest.raises(ValueError, match="distinct"):
            Structure(SIG1, (1, 1), {"p": frozenset()})


def node_keyed_tree_relations(t, sig):
    """The tree predicates over node objects, read straight off their
    definitions: the referee of the index form."""
    nodes = t.nodes()
    symbols = sig.alphabet.symbols if sig is not None else sorted(
        {n.symbol for n in nodes if n.is_leaf and n.symbol is not None})
    rels = {name: set() for name, _ in
            tree_predicates(symbols, tree_prime_ops(t, sig))}
    kind_label = {NodeKind.PAR: "label_par", NodeKind.CLIQUE: "label_clique",
                  NodeKind.SEQ: "label_seq"}
    for node in nodes:
        if node.is_leaf:
            if node.symbol is not None:
                rels[f"label_{node.symbol}"].add((node,))
            continue
        for c in node.children:
            rels["child"].add((node, c))
        if node.kind is NodeKind.SEQ:
            rels["first-child"].add((node, node.children[0]))
        if node.kind in kind_label:
            rels[kind_label[node.kind]].add((node,))
            continue
        name, sym = node.op.name, node.op.symmetry
        rels[f"label_{name}"].add((node,))
        for enum in sym.enumerations(node.children):
            rels[f"children_{name}"].add((node,) + enum)
        for i in sym.distinguished or ():
            rels[f"dist-child_{name}"].add((node, node.children[i - 1]))
    return rels


def _referee_trees():
    rng = random.Random(2024)
    for sig in (spw5_signature(), scw5_signature(), spp3_signature()):
        for _ in range(25):
            g = random_f_graph(rng, sig, max_depth=4, max_leaves=rng.randint(1, 12))
            yield binarize(decompose(g, sig)), sig
    # a W5 node, whose first child is distinguished, under a seq node
    sig = spw5_signature()
    w5 = Term.node("W5", [Term.leaf("a"), Term.leaf("b")] + [Term.leaf("a")] * 3)
    g = eval_term(sig, Term.node("seq", [w5, Term.leaf("b")]))
    yield binarize(decompose(g, sig)), sig
    # no signature: the operations and letters are the tree's own
    yield binarize(decompose(g)), None


class TestTreeRelations:
    def test_index_form_equals_the_node_keyed_relations(self):
        seen = set()
        for t, sig in _referee_trees():
            rsig, rels, nodes = tree_relations(t, sig)
            assert nodes == t.nodes()
            want = {name: frozenset(tuple(nodes.index(n) for n in tup) for tup in tuples)
                    for name, tuples in node_keyed_tree_relations(t, sig).items()}
            assert dict(rels) == want
            assert [name for name, _ in rsig.predicates] == list(want)
            st = tree_structure(t, sig)
            assert st.domain == tuple(range(len(nodes)))
            assert dict(st.relations) == want
            seen.update(name.split("_")[0] for name, tuples in rels.items() if tuples)
        assert {"children", "dist-child", "first-child", "label"} <= seen

    def test_tree_structure_passes_the_checks_it_skips(self):
        for t, sig in _referee_trees():
            st = tree_structure(t, sig)
            checked = Structure(st.signature, st.domain, st.relations)
            assert checked == st and checked._index == st._index
            assert st._rows == {} and type(st) is Structure


class TestCompiledUnits:
    def test_equal_sentences_share_one_unit(self, monkeypatch):
        shapes = []
        shape = cms._shape
        monkeypatch.setattr(cms, "_shape", lambda node: shapes.append(node) or shape(node))
        gs = graph_structure(word_graph("abab"))
        text = "(existsmod 2 x (exists y (and (edge x y) (label_b y))))"
        first, second = (parse_formula(text, gs.signature) for _ in range(2))
        assert first is second
        checkers = [ModelChecker(gs) for _ in range(2)]
        b_parents = {x for x, y in gs.relations["edge"] if (y,) in gs.relations["label_b"]}
        want = len(b_parents) % 2 == 0
        assert [c.check(f) for c, f in zip(checkers, (first, second))] == [want, want]
        assert checkers[0].work == checkers[1].work
        assert shapes == [first]
        assert cms._unit(first) is cms._unit(second)
        # one checker keys both on one node, so they share code and memo
        checker = ModelChecker(gs)
        assert checker._compile(first) is checker._compile(second)

    def test_checkers_on_one_structure_share_its_rows(self):
        gs = graph_structure(word_graph("abab"))
        a, b = ModelChecker(gs), ModelChecker(gs)
        rows = a._table("edge", 2, "out")
        assert isinstance(rows, tuple)
        assert b._table("edge", 2, "out") is rows
        assert isinstance(b._table("edge", 2, "tuples"), frozenset)
        other = ModelChecker(graph_structure(word_graph("abab")))
        assert other._table("edge", 2, "out") == rows
        assert other._table("edge", 2, "out") is not rows


def _reference_eval(s, f, env):
    """Plain recursive semantics: no memoization, sets as frozensets."""
    from modgraph import cms
    dom = list(s.domain)

    def ev(node, env):
        if isinstance(node, cms.In):
            return env[node.elem] in env[node.sett]
        if isinstance(node, cms.Eq):
            return env[node.left] == env[node.right]
        if isinstance(node, cms.Pred):
            return tuple(env[a] for a in node.args) in s.relations.get(
                node.name, frozenset())
        if isinstance(node, cms.Not):
            return not ev(node.body, env)
        if isinstance(node, cms.And):
            return all(ev(p, env) for p in node.parts)
        if isinstance(node, cms.Or):
            return any(ev(p, env) for p in node.parts)
        if isinstance(node, cms.Implies):
            return not ev(node.left, env) or ev(node.right, env)
        if isinstance(node, cms.ExistsMod):
            hits = sum(ev(node.body, {**env, node.var: d}) for d in dom)
            return hits % node.q == 0
        if isinstance(node, cms.Exists):
            return any(ev(node.body, {**env, node.var: d}) for d in dom)
        if isinstance(node, cms.Forall):
            return all(ev(node.body, {**env, node.var: d}) for d in dom)
        subsets = [frozenset(c) for k in range(len(dom) + 1)
                   for c in itertools.combinations(dom, k)]
        if isinstance(node, cms.ExistsSet):
            return any(ev(node.body, {**env, node.var: m}) for m in subsets)
        if isinstance(node, cms.ForallSet):
            return all(ev(node.body, {**env, node.var: m}) for m in subsets)
        raise TypeError(node)

    return ev(f, dict(env))


class TestCheckerAgainstReference:
    """The memoizing checker against plain unmemoized semantics."""

    def _random_formula(self, rng, depth, elems, sets):
        from modgraph import cms
        choices = ["pred", "eq", "in"] if elems and sets else ["pred", "eq"]
        if depth > 0:
            choices += ["not", "and", "or", "implies",
                        "exists", "forall", "existsset", "forallset", "mod"]
        kind = rng.choice(choices)
        if kind == "pred":
            if rng.random() < 0.5 or len(elems) < 2:
                return cms.Pred("p", (rng.choice(elems),))
            return cms.Pred("r", (rng.choice(elems), rng.choice(elems)))
        if kind == "eq":
            return cms.Eq(rng.choice(elems), rng.choice(elems))
        if kind == "in":
            return cms.In(rng.choice(elems), rng.choice(sets))
        if kind == "not":
            return cms.Not(self._random_formula(rng, depth - 1, elems, sets))
        if kind in ("and", "or", "implies"):
            a = self._random_formula(rng, depth - 1, elems, sets)
            b = self._random_formula(rng, depth - 1, elems, sets)
            if kind == "and":
                return cms.And((a, b))
            if kind == "or":
                return cms.Or((a, b))
            return cms.Implies(a, b)
        var = f"v{depth}_{rng.randint(0, 1)}"
        if kind in ("exists", "forall", "mod"):
            body = self._random_formula(rng, depth - 1, elems + [var], sets)
            if kind == "exists":
                return Exists(var, body)
            if kind == "forall":
                return cms.Forall(var, body)
            return ExistsMod(rng.choice((2, 3)), var, body)
        body = self._random_formula(rng, depth - 1, elems, sets + [var])
        if kind == "existsset":
            return cms.ExistsSet(var, body)
        return cms.ForallSet(var, body)

    def test_random_formulas_agree(self):
        import random as random_mod
        from modgraph import cms
        rng = random_mod.Random(517)
        rsig = RelationalSignature((("p", 1), ("r", 2)))
        for trial in range(250):
            n = rng.randint(1, 4)
            dom = tuple(range(n))
            s = Structure(rsig, dom, {
                "p": frozenset((d,) for d in dom if rng.random() < 0.5),
                "r": frozenset((a, b) for a in dom for b in dom
                               if rng.random() < 0.3)})
            f = self._random_formula(rng, rng.randint(1, 3), ["x"], ["X"])
            env = {"x": rng.choice(dom),
                   "X": frozenset(d for d in dom if rng.random() < 0.5)}
            env_used = {k: v for k, v in env.items() if k in f.free_vars()}
            assert model_check(s, f, env_used) == _reference_eval(s, f, env), \
                (to_text(f), env_used, dom)
