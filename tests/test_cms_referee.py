"""Differential tests of ``cms.ModelChecker`` against the closure referee.

The two checkers run the same checks, in the same order, on one checker
each per structure.  After every check they must give the same answer and
the same ``work``.  At a budget one below the total work of a sequence
(or one below the work after any check) both raise ``BudgetExceeded`` on
the same check with the same message, and at the total neither raises.
The library and kappa formulas are checked in their called form: bodies
that call the library's definitions, tabled by both checkers.
"""

import itertools
import random

import pytest

from cms_referee import ClosureChecker
from modgraph.cms import (And, Call, Definition, Eq, Exists, ExistsMod,
                          ExistsSet, Forall, ForallSet, Implies, In,
                          ModelChecker, Not, Or, Pred, RelationalSignature,
                          Structure, conj, graph_structure, parse_formula,
                          to_text, tree_structure)
from modgraph.errors import BudgetExceeded
from modgraph.generators import random_term
from modgraph.graphs import LabeledGraph
from modgraph.mdec import NodeKind, binarize, decompose
from modgraph.samples import spw5_signature
from modgraph.signature import Term, eval_term
from modgraph.transduction import PredicateLibrary, transduction_schema

BIG = 10 ** 9


def labeled_digraphs(n, symbol="a"):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    labels = {v: symbol for v in range(1, n + 1)}
    for bits in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
        yield LabeledGraph.build(range(1, n + 1), edges, labels)


def run_both(structure, checks):
    """Run the checks on one checker of each kind; return the cumulative
    work after each check."""
    fast = ModelChecker(structure, budget=BIG)
    ref = ClosureChecker(structure, budget=BIG)
    cumulative = []
    for f, env in checks:
        got = fast.check_prepared(f, env)
        want = ref.check_prepared(f, env)
        assert (got, fast.work) == (want, ref.work), (to_text(f), env)
        cumulative.append(ref.work)
    return cumulative


def raised_at(cls, structure, checks, budget):
    chk = cls(structure, budget=budget)
    for k, (f, env) in enumerate(checks):
        try:
            chk.check_prepared(f, env)
        except BudgetExceeded as exc:
            return k, str(exc)
    return None


def assert_budget_parity(structure, checks, cumulative, picks=()):
    total = cumulative[-1]
    for budget in (total - 1, total, *(cumulative[k] - 1 for k in picks)):
        got = raised_at(ModelChecker, structure, checks, budget)
        want = raised_at(ClosureChecker, structure, checks, budget)
        assert got == want, budget
        assert (got is None) == (budget >= total)


def library_checks(lib, g):
    """Every library predicate with at most 3 free variables, every
    binding, in the checker's internal form."""
    verts = g.sorted_vertices()
    masks = range(1 << len(verts))
    out = []
    for name in lib.names():
        spec = lib.free_vars(name)
        if len(spec) > 3:
            continue
        formula = lib.formula(name)
        pools = [masks if kind == "set" else range(len(verts)) for _, kind in spec]
        for values in itertools.product(*pools):
            out.append((formula, dict(zip((v for v, _ in spec), values))))
    return out


def test_library_sweep_on_every_digraph_up_to_three_vertices():
    lib = PredicateLibrary(spw5_signature(("a",)))
    assert any(isinstance(p, Call) for p in lib.formula("child").parts)
    graphs = [g for n in (1, 2, 3) for g in labeled_digraphs(n)]
    assert len(graphs) == 1 + 4 + 64
    checks_run = 0
    for k, g in enumerate(graphs):
        structure = graph_structure(g, ("a",))
        checks = library_checks(lib, g)
        cumulative = run_both(structure, checks)
        checks_run += len(checks)
        if k % 16 == 0:
            assert_budget_parity(structure, checks, cumulative,
                                 picks=range(0, len(checks), len(checks) // 5 + 1))
    assert checks_run > 50_000


def spw5_f_graphs_on_four_vertices():
    """One f-graph over spw5 per isomorphism class on 4 vertices."""
    sig = spw5_signature(("a", "b"))
    rng = random.Random(404)
    perms = list(itertools.permutations(range(1, 5)))
    seen, out = set(), []
    for g in labeled_digraphs(4):
        key = min(tuple(sorted((p[u - 1], p[v - 1]) for u, v in g.edges))
                  for p in perms)
        if key in seen:
            continue
        seen.add(key)
        if any(not n.is_leaf and n.kind not in (NodeKind.PAR, NodeKind.SEQ)
               for n in decompose(g, None).nodes()):
            continue
        labels = {v: rng.choice("ab") for v in range(1, 5)}
        out.append(LabeledGraph.build(range(1, 5), g.edges, labels))
    return sig, out


def test_kappa_formulas_on_small_f_graphs():
    sig, graphs = spw5_f_graphs_on_four_vertices()
    assert len(graphs) == 15  # the series-parallel orders on 4 elements
    w5 = eval_term(sig, Term.node("W5", [Term.leaf(c) for c in "abaab"]))
    kappa = transduction_schema(sig).kappa_formulas
    for k, g in enumerate(graphs + [w5]):
        structure = graph_structure(g, sig.alphabet.symbols)
        checks = [(kappa[i], {"x": x, "M": m}) for i in range(4)
                  for x in range(g.n) for m in range(1 << g.n)]
        cumulative = run_both(structure, checks)
        if k % 5 == 0:
            assert_budget_parity(structure, checks, cumulative,
                                 picks=(len(checks) // 3, len(checks) // 2))


TREE_SENTENCES = (
    # children_W5 has arity 6, so the innermost quantifier over it keeps
    # the element-at-a-time loop, and so do the quantifiers around it
    "(exists x (and (label_W5 x) (exists y1 (and (child x y1) (exists y2 (and (child x y2) (exists y3 (and (child x y3) (exists y4 (and (child x y4) (exists y5 (and (child x y5) (children_W5 x y1 y2 y3 y4 y5)))))))))))))",
    "(existsmod 2 x (implies (label_W5 x) (exists y1 (and (child x y1) (exists y2 (and (child x y2) (exists y3 (and (child x y3) (exists y4 (and (child x y4) (exists y5 (and (child x y5) (children_W5 x y1 y2 y3 y4 y5)))))))))))))",
    "(forall x (forall y (implies (dist-child_W5 x y) (exists z (and (child x z) "
    "(not (= y z)))))))",
    "(existsmod 3 x (label_seq x))",
    "(existsmod 2 x (exists y (and (child x y) (label_b y))))",
)


def test_tree_sentences_with_wide_predicates():
    sig = spw5_signature(("a", "b"))
    rng = random.Random(606)
    structures = []
    while len(structures) < 12:
        term = random_term(rng, sig, max_depth=4, max_leaves=10)
        if "W5" not in str(term):
            continue
        structures.append(tree_structure(binarize(decompose(eval_term(sig, term), sig)), sig))
    for structure in structures:
        checks = [(parse_formula(text, structure.signature), {})
                  for text in TREE_SENTENCES]
        cumulative = run_both(structure, checks + checks)
        assert_budget_parity(structure, checks, cumulative[:len(checks)],
                             picks=range(len(checks)))


def _random_formula(rng, depth, elems, sets, names="xyzu"):
    """Random formulas rich in nested element quantifiers that share,
    shadow and skip each other's variables."""
    atoms = ["p", "r", "eq"] + (["in"] if sets else [])
    kinds = atoms if depth == 0 else atoms + [
        "not", "and", "or", "implies", "exists", "forall", "mod",
        "exists", "forall", "existsset"]
    kind = rng.choice(kinds)
    if kind == "p":
        return Pred("p", (rng.choice(elems),))
    if kind == "r":
        return Pred("r", (rng.choice(elems), rng.choice(elems)))
    if kind == "eq":
        return Eq(rng.choice(elems), rng.choice(elems))
    if kind == "in":
        return In(rng.choice(elems), rng.choice(sets))
    sub = lambda: _random_formula(rng, depth - 1, elems, sets, names)  # noqa: E731
    if kind == "not":
        return Not(sub())
    if kind in ("and", "or"):
        parts = tuple(sub() for _ in range(rng.randint(2, 3)))
        return And(parts) if kind == "and" else Or(parts)
    if kind == "implies":
        return Implies(sub(), sub())
    if kind == "existsset":
        var = rng.choice(["S", "T"])
        body = _random_formula(rng, depth - 1, elems, sorted(set(sets) | {var}), names)
        return ExistsSet(var, body) if rng.random() < 0.5 else ForallSet(var, body)
    var = rng.choice(names)
    body = _random_formula(rng, depth - 1, sorted(set(elems) | {var}), sets, names)
    if kind == "exists":
        return Exists(var, body)
    if kind == "forall":
        return Forall(var, body)
    return ExistsMod(rng.choice((2, 3)), var, body)


@pytest.mark.parametrize("names", ["xyzu", [f"v{k}" for k in range(30)]])
def test_random_formulas_same_answers_and_work(names):
    rng = random.Random(2024)
    rsig = RelationalSignature((("p", 1), ("r", 2)))
    for trial in range(300):
        n = rng.randint(1, 5)
        dom = tuple(range(n))
        structure = Structure(rsig, dom, {
            "p": frozenset((d,) for d in dom if rng.random() < 0.5),
            "r": frozenset((a, b) for a in dom for b in dom if rng.random() < 0.4)})
        formulas = [_random_formula(rng, rng.randint(2, 4), ["x", "y"], ["X"], names)
                    for _ in range(4)]
        checks = []
        for _ in range(12):
            f = rng.choice(formulas)
            env = {"x": rng.randrange(n), "y": rng.randrange(n),
                   "X": rng.randrange(1 << n)}
            checks.append((f, {v: env[v] for v in f.free_vars()}))
        cumulative = run_both(structure, checks)
        if trial % 10 == 0:
            assert_budget_parity(structure, checks, cumulative, picks=(3, 7))


@pytest.mark.parametrize("text", [
    "(forall x (implies (p x) (exists y (and (r x y) (forall z (implies (r y z) (p z)))))))",
    "(exists x (and (exists x (p x)) (forall y (r x y))))",
    "(forall x (or (exists y (r y y)) (exists y (and (r x y) (r y x)))))",
    "(existsmod 2 x (and (exists y (r x y)) (exists y (r x y))))",
])
def test_nested_quantifier_shapes(text):
    # deeper nesting, a shadowed variable, a nested quantifier that does not
    # depend on the enclosing one, and one nested quantifier entered twice
    rsig = RelationalSignature((("p", 1), ("r", 2)))
    rng = random.Random(text)
    for n in range(1, 6):
        dom = tuple(range(n))
        structure = Structure(rsig, dom, {
            "p": frozenset((d,) for d in dom if rng.random() < 0.6),
            "r": frozenset((a, b) for a in dom for b in dom if rng.random() < 0.5)})
        f = parse_formula(text, rsig)
        cumulative = run_both(structure, [(f, {}), (f, {})])
        assert_budget_parity(structure, [(f, {})], cumulative[:1])


SINGLE = Definition("single", ("X", "x"), conj(
    In("x", "X"), Forall("q", Implies(In("q", "X"), Eq("q", "x")))))
SUCC = Definition("succ", ("x", "Y"), Exists("q", And((In("q", "Y"),
                                                       Pred("r", ("x", "q"))))))
SUB = Definition("sub", ("A", "B"), Forall("p", Implies(In("p", "A"), In("p", "B"))))
ABOVE = Definition("above", ("X",), ExistsSet("S", conj(Call(SUB, ("S", "X")),
                                                    Exists("p", In("p", "S")))))
SOME = Definition("some", (), Exists("x", Pred("p", ("x",))))
LINK = Definition("link", ("x", "y"), Or((Pred("r", ("x", "y")), Pred("r", ("y", "x")))))
CALL_SHAPES = {
    # a call that passes the quantified variable
    "pointwise": Exists("x", Call(SINGLE, ("X", "x"))),
    "pointwise-and-atom": Exists("x", conj(Call(SINGLE, ("X", "x")), Pred("p", ("x",)))),
    "two-pointwise-definitions": ExistsMod(2, "x", Or((Call(SINGLE, ("X", "x")),
                                                       Call(SUCC, ("x", "Y"))))),
    # one definition called at two sites, which share its table, and a
    # quantifier both in a called body and nested directly, which share
    # its memo
    "one-definition-twice": Forall("x", Implies(Call(SINGLE, ("X", "x")),
                                                Call(SINGLE, ("Y", "x")))),
    "shared-quantifier": Exists("x", conj(
        Call(SINGLE, ("X", "x")), Forall("q", Implies(In("q", "X"), Eq("q", "x"))))),
    # a call that does not pass the quantified variable
    "call-without-the-variable": Exists("y", And((Call(SINGLE, ("X", "x")),
                                                  Pred("r", ("x", "y"))))),
    "set-loop": ForallSet("S", Implies(Call(SUB, ("S", "X")), Call(ABOVE, ("S",)))),
    "no-parameters-and-two-elements": conj(Call(SOME, ()), Call(LINK, ("x", "y"))),
    "element-pairs": Exists("x", Exists("y", Call(LINK, ("x", "y")))),
    "repeated-argument": Or((Call(SUB, ("X", "X")), Call(SINGLE, ("X", "x")))),
    "top-level-call": Call(SINGLE, ("X", "x")),
}


def _structures(rng, count, max_n=5):
    rsig = RelationalSignature((("p", 1), ("r", 2)))
    for _ in range(count):
        dom = tuple(range(rng.randint(1, max_n)))
        yield Structure(rsig, dom, {
            "p": frozenset((d,) for d in dom if rng.random() < 0.5),
            "r": frozenset((a, b) for a in dom for b in dom if rng.random() < 0.4)})


def _bindings(rng, n, formulas, count):
    checks = []
    for _ in range(count):
        f = rng.choice(formulas)
        env = {"x": rng.randrange(n), "y": rng.randrange(n),
               "X": rng.randrange(1 << n), "Y": rng.randrange(1 << n)}
        checks.append((f, {v: env[v] for v in f.free_vars()}))
    return checks


@pytest.mark.parametrize("name", sorted(CALL_SHAPES))
def test_call_shapes(name):
    rng = random.Random(name)
    formulas = [CALL_SHAPES[name], CALL_SHAPES["pointwise"]]
    for k, structure in enumerate(_structures(rng, 60)):
        checks = _bindings(rng, len(structure.domain), formulas, 16)
        cumulative = run_both(structure, checks)
        if k % 6 == 0:
            assert_budget_parity(structure, checks, cumulative, picks=(2, 9))


def test_random_definitions():
    # random bodies over (X, x), called with the quantified variable, a
    # free one, and from a set loop, next to their expansions
    rng = random.Random(31)
    for trial in range(120):
        body = _random_formula(rng, rng.randint(1, 3), ["x"], ["X"], "xyq")
        d = Definition("d", ("X", "x"), body)
        e = Definition("e", ("X", "x"), _random_formula(rng, 2, ["x"], ["X"], "q"))
        formulas = [
            Exists("y", Call(d, ("X", "y"))),
            Forall("y", Or((Call(d, ("Y", "y")), Pred("p", ("y",))))),
            Exists("y", And((Call(e, ("X", "y")), Not(Call(d, ("Y", "y")))))),
            And((Call(d, ("X", "x")), Call(e, ("Y", "y")))),
            ExistsSet("S", Call(d, ("S", "x"))),
        ]
        for k, structure in enumerate(_structures(rng, 4, max_n=4)):
            checks = _bindings(rng, len(structure.domain), formulas, 12)
            cumulative = run_both(structure, checks)
            if trial % 12 == 0 and k == 0:
                assert_budget_parity(structure, checks, cumulative, picks=(3, 7))
