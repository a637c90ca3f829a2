"""Tests of the benchmark's own checks, oracles and reference loop.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import ast
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import checks
import inputs
import refloop
import workloads
from modgraph.formats import parse_signature, parse_term
from modgraph.mdec import MDecTree, brute_force_prime_modules
from modgraph.signature import eval_term
from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
NULL = NullTracer()


def _item(wl, pred):
    return next(item for item in wl.items if pred(item))


def _splice_out(tree, victim):
    """A copy-free edit: replace victim by its children in its parent."""
    parent = tree.parents()[victim]
    kids = []
    for c in parent.children:
        kids.extend(victim.children if c is victim else [c])
    parent.children = tuple(kids)
    return MDecTree(tree.root)


@pytest.mark.parametrize("sig_name", ["scw5", "seq-par-w5-p3", "spp3", "spw5"])
def test_term_family_matches_brute_force(sig_name):
    sig = parse_signature(inputs.signature_text(sig_name))
    rng = Random(11)
    for _ in range(40):
        term = inputs.random_term(rng, inputs.SIGNATURES[sig_name], rng.randint(1, 9))
        g = eval_term(sig, parse_term(inputs.term_text(term), sig))
        n, edges, labels = inputs.term_graph(term)
        assert checks.check_graph(g, n, edges, labels, "eval") == []
        assert brute_force_prime_modules(g) == checks.term_module_family(term)


def test_random_term_has_exact_size_and_root():
    rng = Random(3)
    ops = inputs.SIGNATURES["seq-par-w5-p3"]
    for leaves in (5, 17, 96):
        for root in ops:
            term = inputs.random_term(rng, ops, leaves, root=root)
            assert term[0] == root and len(inputs.term_leaves(term)) == leaves


def test_tree_node_count_matches_program():
    from modgraph.mdec import binarize, decompose
    sig = parse_signature(inputs.signature_text("spw5"))
    rng = Random(5)
    for _ in range(30):
        term = inputs.random_term(rng, inputs.SIGNATURES["spw5"], rng.randint(2, 12))
        g = eval_term(sig, parse_term(inputs.term_text(term), sig))
        tree = decompose(g, sig)
        assert len(tree.nodes()) == checks.tree_node_count(term, False)
        assert len(binarize(tree).nodes()) == checks.tree_node_count(term, True)


@pytest.fixture(scope="module")
def decompose_large():
    return workloads.DecomposeLarge(1, NULL)


def test_decompose_large_flags_dropped_module(decompose_large):
    wl = decompose_large
    item = _item(wl, lambda it: it[0] == "term" and it[2][0] == "P3")
    g, tree, rebuilt, folds = wl.run(item, NULL)
    assert wl.check(item, (g, tree, rebuilt, folds), NULL) == []
    victim = next(n for n in tree.nodes() if n is not tree.root and n.children)
    broken = _splice_out(tree, victim)
    assert any("module family" in p for p in
               wl.check(item, (g, broken, rebuilt, folds), NULL))


def test_decompose_large_flags_wrong_fold_and_graph(decompose_large):
    wl = decompose_large
    item = _item(wl, lambda it: it[0] == "term" and it[2][0] == "P3")
    g, tree, rebuilt, folds = wl.run(item, NULL)
    flipped = ("q1" if folds[0] == "q0" else "q0", folds[1])
    assert any("vertex parity" in p for p in
               wl.check(item, (g, tree, rebuilt, flipped), NULL))
    missing = type(rebuilt)(rebuilt.vertices, rebuilt.edges - {min(rebuilt.edges)},
                            rebuilt.labels)
    assert any("reconstruct" in p for p in
               wl.check(item, (g, tree, missing, folds), NULL))


def test_decompose_large_flags_non_module_node(decompose_large):
    wl = decompose_large
    item = _item(wl, lambda it: it[0] == "digraph" and it[3][0] == 50)
    g, tree, rebuilt, folds = wl.run(item, NULL)
    assert wl.check(item, (g, tree, rebuilt, folds), NULL) == []
    child = tree.root.children[0]
    tree.root.children = (type(child)(child.module | {max(g.vertices) + 1},
                                      child.kind, child.children),) + tree.root.children[1:]
    assert wl.check(item, (g, tree, rebuilt, folds), NULL)


def test_tree_modules_flags_overlap():
    # 1 -> 2 only: {1} and {2} are modules; a node {1, 2} with children
    # {1} and {1, 2} does not partition
    from modgraph.mdec import MDecNode, NodeKind
    leaf1 = MDecNode(frozenset([1]), NodeKind.LEAF, symbol="a")
    leaf2 = MDecNode(frozenset([2]), NodeKind.LEAF, symbol="a")
    good = MDecTree(MDecNode(frozenset([1, 2]), NodeKind.SEQ, (leaf1, leaf2)))
    assert checks.check_tree_modules(good, 2, {(1, 2)}) == []
    bad = MDecTree(MDecNode(frozenset([1, 2]), NodeKind.SEQ, (leaf1, leaf1)))
    assert checks.check_tree_modules(bad, 2, {(1, 2)})


def test_verify_transduction_flags_wrong_outputs():
    wl = workloads.VerifyTransduction(2, NULL)
    item = min(wl.items, key=lambda it: it[3][0])
    out = wl.run(item, NULL)
    assert wl.check(item, out, NULL) == []
    g, tree, rep, iso, lemma, answers, work = out
    assert wl.check(item, (g, tree, rep, False, lemma, answers, work), NULL)
    wrong = [not answers[0]] + answers[1:]
    assert any("tree sentences" in p for p in
               wl.check(item, (g, tree, rep, iso, lemma, wrong, work), NULL))
    rep.domain = rep.domain[1:]
    assert any("elements" in p for p in
               wl.check(item, (g, tree, rep, iso, lemma, answers, work), NULL))


@pytest.fixture(scope="module")
def formula_agreement():
    return workloads.FormulaAgreement(3, NULL)


def test_formula_agreement_flags_flipped_answer(formula_agreement):
    wl = formula_agreement
    item = _item(wl, lambda it: it[0] == "sweep")
    g, checker, answers = wl.run(item, NULL)
    assert wl.check(item, (g, checker, answers), NULL) == []
    k = next(i for i, (name, *_rest) in enumerate(wl.bindings) if name == "child")
    got, want = answers[k]
    flipped = list(answers)
    flipped[k] = ([not got[0]] + got[1:], want)
    assert any("child formula vs holds" in p for p in
               wl.check(item, (g, checker, flipped), NULL))


def test_formula_agreement_flags_wrong_module_answer(formula_agreement):
    wl = formula_agreement
    item = _item(wl, lambda it: it[0] == "sweep")
    g, checker, answers = wl.run(item, NULL)
    k = next(i for i, (name, *_rest) in enumerate(wl.bindings) if name == "module")
    got, _ = answers[k]
    wrong = [not got[0]] + got[1:]  # both sides agree, and both are wrong
    flipped = list(answers)
    flipped[k] = (wrong, wrong)
    assert any(p.startswith("module formula") for p in
               wl.check(item, (g, checker, flipped), NULL))


def test_formula_agreement_flags_wrong_kappa_module(formula_agreement):
    wl = formula_agreement
    item = _item(wl, lambda it: it[0] == "kappa" and it[3][0] == 4)
    g, checker, (tree, enc, answers) = wl.run(item, NULL)
    assert wl.check(item, (g, checker, (tree, enc, answers)), NULL) == []
    v = min(enc.kappa[3])
    enc.kappa[3][v] = next(n for n in enc.tree.nodes() if n is not enc.kappa[3][v])
    assert any("kappa_3" in p for p in
               wl.check(item, (g, checker, (tree, enc, answers)), NULL))


def test_canary_flags_wrong_outputs():
    canary = workloads.Canary(4, NULL)
    out = canary.run(None, NULL)
    assert canary.check(None, out, NULL) == []
    *head, (got, want, work) = out
    flipped = ([not got[0]] + got[1:], want, work)
    assert any("vs holds" in p for p in canary.check(None, (*head, flipped), NULL))
    *head, (answer, cold_work), last = out
    assert any("sentence" in p for p in
               canary.check(None, (*head, (not answer, cold_work), last), NULL))


def test_reference_loop_imports_nothing_from_the_program():
    source = (HERE / "refloop.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] == "time" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module == "__future__"
    done = subprocess.run(
        [sys.executable, "-c", "import sys, refloop; refloop.reference_loop(); "
         "print(sorted(m for m in sys.modules if m.startswith('modgraph')))"],
        cwd=HERE, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_reference_loop_allocates_no_tracked_objects():
    gc.disable()
    try:
        before = gc.get_count()[0]
        refloop.reference_loop()
        assert gc.get_count()[0] - before <= 0
    finally:
        gc.enable()


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    (outer, outer_self, _), (inner, inner_self, _) = tracer.self_times()
    _, start, end, _, _ = tracer.spans[0]
    _, istart, iend, parent, _ = tracer.spans[1]
    assert (outer, inner, parent) == ("outer", "inner", 0)
    assert outer_self == pytest.approx((end - start) - (iend - istart))
    assert inner_self == pytest.approx(iend - istart)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decompose-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
