"""Defined predicates: the called forms against their expansions.

The library and the transduction schema call named definitions, which the
checker tables; ``cms_referee.expand`` inlines every call into plain
counting-MSO.
Both forms must give the same answer on every binding, the expansion must
print and parse back to itself, and the schema must stay small.
"""

import itertools
import random
import re

import pytest

from cms_referee import expand
from modgraph import cms
from modgraph.cms import (Call, Definition, Exists, In, ModelChecker,
                          Pred, RelationalSignature, Structure, _children,
                          conj, graph_structure, parse_formula, to_text,
                          variable_kinds)
from modgraph.errors import ArityMismatch, UnboundVariable
from modgraph.samples import spw5_signature
from modgraph.signature import Term, eval_term
from modgraph.transduction import (PredicateLibrary, build_repr, encode_graph,
                                   transduction_schema)
from test_cms_referee import labeled_digraphs, spw5_f_graphs_on_four_vertices


def reachable(formulas):
    """The distinct nodes reachable from the formulas, each definition body
    once."""
    seen, todo = set(), list(formulas)
    while todo:
        f = todo.pop()
        if f not in seen:
            seen.add(f)
            todo.extend(_children(f))
    return seen


def has_call(f):
    return any(isinstance(g, Call) for g in reachable([f]))


def same_answers(structure, pairs, envs):
    """Each (called, expanded) pair agrees on every environment; one
    checker per form."""
    called, expanded = ModelChecker(structure), ModelChecker(structure)
    for f, g in pairs:
        for env in envs(f):
            assert (called.check_prepared(f, env)
                    == expanded.check_prepared(g, env)), (to_text(f), env)


def test_library_expansions_agree_on_every_digraph_up_to_three_vertices():
    lib = PredicateLibrary(spw5_signature(("a",)))
    pairs = []
    for name in lib.names():
        spec = lib.free_vars(name)
        if sum(kind == "set" for _, kind in spec) <= 3:
            f = lib.formula(name)
            pairs.append((f, expand(f)))
            assert not has_call(pairs[-1][1])
    assert sum(has_call(f) for f, _ in pairs) >= 15
    for n in (1, 2, 3):
        pools = {"set": range(1 << n), "element": range(n)}
        for g in labeled_digraphs(n):
            def envs(f):
                names = sorted(f.free_vars())
                kinds = variable_kinds(f)
                for values in itertools.product(*(pools[kinds[v]] for v in names)):
                    yield dict(zip(names, values))
            same_answers(graph_structure(g, ("a",)), pairs, envs)


def test_kappa_and_phi_expansions_agree_on_small_f_graphs():
    sig, graphs = spw5_f_graphs_on_four_vertices()
    w5 = eval_term(sig, Term.node("W5", [Term.leaf(c) for c in "abaab"]))
    small = [eval_term(sig, Term.leaf("a")),
             eval_term(sig, Term.node("seq", [Term.leaf("a"), Term.leaf("b")])),
             eval_term(sig, Term.node("par", [Term.leaf("b"), Term.leaf("a")])),
             eval_term(sig, Term.node("seq", [Term.leaf("a"), Term.node(
                 "par", [Term.leaf("b"), Term.leaf("a")])]))]
    schema = transduction_schema(sig)
    kappa = [(f, expand(f)) for f in schema.kappa_formulas]
    phi = [(schema.phi, expand(schema.phi))]
    rng = random.Random(55)
    for g in small + graphs + [w5]:
        structure = graph_structure(g, sig.alphabet.symbols)
        same_answers(structure, kappa, lambda f: (
            {"x": x, "M": m} for x in range(g.n) for m in range(1 << g.n)))
        # phi: every binding up to 3 vertices, else the representatives of
        # the encoding and random sets
        t, _, enc = encode_graph(g, sig)
        reps = build_repr(t, enc, sig=sig).reps
        to_mask = ModelChecker(structure).to_mask
        good = {f"X{i}": to_mask(reps[i]) for i in range(4)}
        if g.n <= 3:
            envs = [dict(zip(schema.params, values)) for values in
                    itertools.product(range(1 << g.n), repeat=4)]
        else:
            envs = [good] + [{p: rng.randrange(1 << g.n) for p in schema.params}
                             for _ in range(40)]
        assert ModelChecker(structure).check_prepared(schema.phi, good)
        same_answers(structure, phi, lambda f: envs)


def test_schema_size():
    schema = transduction_schema(spw5_signature())
    nodes = reachable(list(schema.kappa_formulas) + [schema.phi])
    assert len(nodes) <= 9_840


def test_expansions_print_and_parse_back():
    lib = PredicateLibrary(spw5_signature())
    schema = lib.schema()
    formulas = [lib.formula(name) for name in lib.names()]
    formulas += list(schema.kappa_formulas) + [
        schema.phi, schema.theta("child", (3, 0)), schema.theta("label_seq", (3,)),
        schema.theta("children_W5", (0, 3, 0, 2, 1, 0))]
    for f in formulas:
        g = expand(f)
        assert parse_formula(to_text(g), lib.graph_signature,
                             free_vars=variable_kinds(f)) == g


def test_library_units_build_each_memo_key_once():
    # a memo key tuple is built once on a path through a unit: a probe
    # whose arguments were keyed before, in an enclosing block or in one
    # whose guard holds wherever the probe runs, reads that key
    lib = PredicateLibrary(spw5_signature())
    schema = lib.schema()
    todo = list(lib.definitions.values()) + list(schema.kappa_formulas) + [
        schema.phi, schema.theta("children_W5", (0, 3, 0, 2, 1, 0))]
    units, keyed = set(), 0
    while todo:
        node = todo.pop()
        if node in units:
            continue
        units.add(node)
        shape, refs = cms._shape(node)
        todo.extend(refs)
        keys = re.findall(r"key_\d+ = (\(.*\))", cms._Codegen(shape).source())
        assert len(keys) == len(set(keys)), getattr(node, "name", to_text(node))
        keyed += bool(keys)
    assert len(units) > 150 and keyed > 50


SIG1 = RelationalSignature((("p", 1),))
PICK = Definition("pick", ("X", "x"), conj(In("x", "X"), Pred("p", ("x",))))


class TestDefinitionNodes:
    def test_structural_identity(self):
        again = Definition("pick", ("X", "x"), conj(In("x", "X"), Pred("p", ("x",))))
        assert again == PICK and hash(again) == hash(PICK)
        assert Call(again, ("Y", "y")) == Call(PICK, ("Y", "y"))
        assert PICK.kinds == ("set", "element")

    def test_validation(self):
        with pytest.raises(ArityMismatch):
            Call(PICK, ("X",))
        with pytest.raises(UnboundVariable):
            Definition("loose", ("X",), In("x", "X"))
        with pytest.raises(ValueError):
            Definition("twice", ("X", "X"), Exists("p", In("p", "X")))
        with pytest.raises(UnboundVariable):
            variable_kinds(conj(Call(PICK, ("Y", "y")), In("Y", "Z")))

    def test_table_hit_costs_one_unit(self):
        structure = Structure(SIG1, (0, 1, 2), {"p": frozenset({(1,), (2,)})})
        chk = ModelChecker(structure)
        f = Call(PICK, ("X", "x"))
        # call (1) + and (1) + in (1) + p (1)
        assert chk.check(f, {"X": {1, 2}, "x": 1}) and chk.work == 4
        assert chk.check(f, {"X": {1, 2}, "x": 1}) and chk.work == 5
        # a call on other variables with the same values reads the same table
        assert chk.check(Call(PICK, ("Y", "y")), {"Y": {1, 2}, "y": 1})
        assert chk.work == 6

    def test_expand_renames_bound_variables_apart(self):
        inner = Definition("some", ("X",), Exists("x", In("x", "X")))
        f = Exists("x", conj(In("x", "Y"), Call(inner, ("Y",))))
        g = expand(f)
        assert to_text(g) == "(exists x (and (in x Y) (exists p1 (in p1 Y))))"

    def test_repr_prints_each_definition_body_once(self):
        # a formula with no call keeps the dataclass repr
        plain = conj(In("x", "X"), Pred("p", ("x",)))
        assert repr(Exists("x", plain)) == (
            "Exists(var='x', body=And(parts=(In(elem='x', sett='X'), "
            "Pred(name='p', args=('x',)))))")
        # a definition equal to one printed already is named only
        again = Definition("pick", ("X", "x"), plain)
        f = conj(Call(PICK, ("X", "x")), Call(again, ("Y", "y")))
        body = ("Definition(name='pick', params=('X', 'x'), body=And(parts=("
                "In(elem='x', sett='X'), Pred(name='p', args=('x',)))))")
        assert repr(f) == (
            f"And(parts=(Call(defn={body}, args=('X', 'x')), "
            "Call(defn=Definition(name='pick', ...), args=('Y', 'y'))))")
        assert repr(PICK) == body
        # the schema's phi calls kappa_0..kappa_3 through many definitions
        phi = repr(transduction_schema(spw5_signature()).phi)
        assert len(phi) < 40_000
        names = PredicateLibrary(spw5_signature()).definitions
        assert all(phi.count(f"Definition(name={name!r}, params=") <= 1
                   for name in names)
