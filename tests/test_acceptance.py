"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance and instance count is pinned here.
"""

import itertools
import random
import time

from modgraph.cms import (ExistsMod, ModelChecker, graph_structure,
                          model_check, parse_formula)
from modgraph.generators import (random_digraph, random_f_graph, random_subset,
                                 random_term)
from modgraph.graphs import LabeledGraph, automorphism_group
from modgraph.mdec import (binarize, brute_force_prime_modules, decompose,
                           reconstruct, shuffle_admissible, tree_prime_modules)
from modgraph.recognizer import (FiniteAlgebra, binary_table, evaluate_tree,
                                 member, nary_table, validate_algebra)
from modgraph.samples import (cycle_graph, even_vertices_algebra,
                              parity_algebra, scw5_signature, sp_signature,
                              spp3_signature, spw5_signature, word_graph)
from modgraph.selftest import SelfTestConfig, run_selftest
from modgraph.signature import (eval_term, prime_op,
                                validate_weakly_rigid_signature)
from modgraph.transduction import (PredicateLibrary, build_repr,
                                   check_kappa_lemma, encode_graph,
                                   verify_isomorphism)

SEED = 0xA15CE


def announce(number, name, detail):
    print(f"ACCEPTANCE {number} {name}: PASS ({detail})")


def all_digraphs(n, symbol="a"):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    labels = {v: symbol for v in range(1, n + 1)}
    for bits in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
        yield LabeledGraph.build(range(1, n + 1), edges, labels)


def nonisomorphic_digraphs(max_n):
    for n in range(1, max_n + 1):
        seen = set()
        perms = list(itertools.permutations(range(1, n + 1)))
        for g in all_digraphs(n):
            key = min(tuple(sorted((p[u - 1], p[v - 1]) for (u, v) in g.edges))
                      for p in perms)
            if key not in seen:
                seen.add(key)
                yield g


def test_criterion_1_decomposition_oracle_equivalence():
    start = time.time()
    rng = random.Random(SEED)
    graphs = [random_digraph(rng, rng.randint(1, 8)) for _ in range(200)]
    graphs += [g for n in (1, 2, 3) for g in all_digraphs(n)]
    mismatches = 0
    for g in graphs:
        tree = decompose(g)
        if tree_prime_modules(tree) != brute_force_prime_modules(g):
            mismatches += 1
        if reconstruct(tree) != g:
            mismatches += 1
    elapsed = time.time() - start
    assert mismatches == 0
    assert elapsed < 30
    announce(1, "decomposition-oracle-equivalence",
             f"{len(graphs)} graphs, 0 mismatches, {elapsed:.1f}s")


def test_criterion_2_round_trip():
    start = time.time()
    rng = random.Random(SEED + 1)
    sig = spw5_signature()
    failures = 0
    for _ in range(1000):
        t = random_term(rng, sig, max_depth=6, max_leaves=14)
        g = eval_term(sig, t)
        tree = decompose(g, sig)
        if reconstruct(tree) != g or reconstruct(binarize(tree)) != g:
            failures += 1
    elapsed = time.time() - start
    assert failures == 0
    assert elapsed < 10
    announce(2, "round-trip", f"1000 terms, 0 failures, {elapsed:.1f}s")


def test_criterion_3_weak_rigidity_fixtures():
    for n in (3, 4, 5, 6):
        op = prime_op(f"C{n}", cycle_graph(n))
        assert op.symmetry.distinguished is None
        aut = automorphism_group(cycle_graph(n), max_vertices=n)
        assert aut.orbits == (frozenset(range(1, n + 1)),)

    sig = spw5_signature()
    assert validate_weakly_rigid_signature(sig).accepted
    w5 = sig.op("W5")
    aut = automorphism_group(w5.graph)
    assert {str(p) for p in aut.elements} == {"id", "(1 5)(2 4)"}

    from modgraph.graphs import Alphabet
    from modgraph.signature import CLIQUE_OP, PAR_OP, Signature
    both = Signature(Alphabet(("a",)), (PAR_OP, CLIQUE_OP))
    assert not validate_weakly_rigid_signature(both).accepted
    announce(3, "weak-rigidity-fixtures",
             "C3-C6 rejected with full orbits, W5 accepted, par+clique rejected")


def test_criterion_4_leaf_encoding_verification():
    start = time.time()
    failures = 0
    runs = ((spw5_signature(), 500, SEED + 2), (scw5_signature(), 200, SEED + 3))
    total = 0
    for sig, count, seed in runs:
        rng = random.Random(seed)
        for _ in range(count):
            g = random_f_graph(rng, sig, max_depth=6, max_leaves=10)
            t, cls, enc = encode_graph(g, sig)
            rep = build_repr(t, enc, sig=sig)
            if not verify_isomorphism(rep, t, sig=sig):
                failures += 1
            if not check_kappa_lemma(t, enc, sig).ok:
                failures += 1
            total += 1
    elapsed = time.time() - start
    assert failures == 0
    assert elapsed < 60
    announce(4, "leaf-encoding-verification",
             f"{total} graphs both modes, 0 failures, {elapsed:.1f}s")


def _check_one(chk, lib, g, name, binding):
    return chk.check(lib.formula(name), binding) == lib.holds(name, g, binding)


def test_criterion_5_formula_algorithm_agreement():
    start = time.time()
    disagreements = 0
    checks = 0

    # exhaustive sweep: every digraph on <= 4 vertices (one per isomorphism
    # class; the predicates are isomorphism-equivariant), every binding for
    # predicates with <= 3 set variables
    lib = PredicateLibrary(spw5_signature(("a",)))
    rng = random.Random(SEED + 4)
    for g in nonisomorphic_digraphs(4):
        chk = ModelChecker(graph_structure(g, lib.sig.alphabet.symbols),
                           budget=10 ** 9)
        verts = g.sorted_vertices()
        # parallel representations: frozensets for the decision procedures,
        # bitmasks (and vertex indices) for the prepared checker entry
        pairs = [(frozenset(s), chk.to_mask(s))
                 for k in range(len(verts) + 1)
                 for s in itertools.combinations(verts, k)]
        for name in lib.names():
            spec = lib.free_vars(name)
            formula = lib.formula(name)
            set_vars = [v for v, k in spec if k == "set"]
            el_vars = [v for v, k in spec if k == "element"]
            if len(set_vars) > 3:
                # 5 disjoint non-empty blocks cannot fit in <= 4 vertices:
                # both sides must reject every binding
                for _ in range(60):
                    b = {var: (random_subset(rng, verts) if kind == "set"
                               else rng.choice(verts))
                         for var, kind in spec}
                    if lib.holds(name, g, b):
                        disagreements += 1
                    if not _check_one(chk, lib, g, name, b):
                        disagreements += 1
                    checks += 1
                continue
            for combo in itertools.product(pairs, repeat=len(set_vars)):
                for els in itertools.product(range(len(verts)),
                                             repeat=len(el_vars)):
                    b = dict(zip(set_vars, (c[0] for c in combo)))
                    ienv = dict(zip(set_vars, (c[1] for c in combo)))
                    for var, idx in zip(el_vars, els):
                        b[var] = verts[idx]
                        ienv[var] = idx
                    if chk.check_prepared(formula, ienv) != lib.holds(name, g, b):
                        disagreements += 1
                    checks += 1
    exhaustive_checks = checks

    # exhaustive coverage for the prime-children predicates where they can
    # actually hold: the ternary path operation on <= 3 vertices
    lib3 = PredicateLibrary(spp3_signature(("a",)))
    for g in nonisomorphic_digraphs(3):
        chk = ModelChecker(graph_structure(g, lib3.sig.alphabet.symbols),
                           budget=10 ** 9)
        verts = g.sorted_vertices()
        subsets = [frozenset(s) for k in range(len(verts) + 1)
                   for s in itertools.combinations(verts, k)]
        for name in ("children_P3", "label_P3", "partition3", "node",
                     "child", "dist-child"):
            spec = lib3.free_vars(name)
            for combo in itertools.product(
                    subsets, repeat=sum(1 for _, k in spec if k == "set")):
                b = dict(zip((v for v, _ in spec), combo))
                if not _check_one(chk, lib3, g, name, b):
                    disagreements += 1
                checks += 1

    # sampled bindings on larger random graphs, half informed by the tree
    def sampled(lib, sizes, seed, per_pred):
        nonlocal checks, disagreements
        rng = random.Random(seed)
        graphs = []
        for n in sizes:
            g = random_digraph(rng, n, p=0.35, symbols=lib.sig.alphabet.symbols)
            graphs.append((g, binarize(decompose(g, None)),
                           ModelChecker(graph_structure(
                               g, lib.sig.alphabet.symbols), budget=10 ** 9)))
        for name in lib.names():
            spec = lib.free_vars(name)
            for k in range(per_pred):
                g, tree, chk = graphs[k % len(graphs)]
                mods = [n.module for n in tree.nodes()]
                b = {}
                for var, kind in spec:
                    if kind == "set":
                        b[var] = (rng.choice(mods) if rng.random() < 0.5
                                  else random_subset(rng, g.sorted_vertices()))
                    else:
                        b[var] = rng.choice(g.sorted_vertices())
                if not _check_one(chk, lib, g, name, b):
                    disagreements += 1
                checks += 1

    sampled(PredicateLibrary(spp3_signature()), (4, 5, 6, 7, 7), SEED + 5, 100)
    sampled(PredicateLibrary(spw5_signature()), (5, 5, 6), SEED + 6, 100)

    elapsed = time.time() - start
    assert disagreements == 0
    assert elapsed < 60
    announce(5, "formula-algorithm-agreement",
             f"{checks} checks ({exhaustive_checks} exhaustive), "
             f"0 disagreements, {elapsed:.1f}s")


def test_criterion_6_recognizability_specializations():
    # words over the sequential product: the letter-parity recognizer
    alg = parity_algebra()
    words = ["".join(w) for n in range(1, 7)
             for w in itertools.product("ab", repeat=n)]
    assert len(words) == 126
    disagreements = sum(
        member(word_graph(w), alg) != (w.count("a") % 2 == 0) for w in words)
    assert disagreements == 0

    # series-parallel graphs: vertex parity vs the counting sentence
    sig = sp_signature()
    ealg = even_vertices_algebra(sig)
    sentence = parse_formula("(existsmod 2 x (= x x))",
                             graph_structure(word_graph("a")).signature)
    rng = random.Random(SEED + 7)
    disagreements = 0
    for _ in range(300):
        g = random_f_graph(rng, sig, max_depth=6, max_leaves=12)
        algebra_says = member(g, ealg)
        logic_says = model_check(graph_structure(g, sig.alphabet.symbols),
                                 sentence)
        if algebra_says != logic_says:
            disagreements += 1
    assert disagreements == 0
    announce(6, "recognizability-specializations",
             "126 words + 300 series-parallel graphs, 0 disagreements")


def test_criterion_7_algebra_law_validation():
    sig = spw5_signature()
    carrier = ("q0", "q1")
    add = binary_table(carrier, lambda a, b: "q0" if a == b else "q1")

    # projection on the first argument breaks the mirror equation of W5
    bad = FiniteAlgebra(sig, carrier, {"a": "q1", "b": "q0"},
                        {"seq": add, "par": dict(add),
                         "W5": nary_table(carrier, 5, lambda *qs: qs[0])},
                        frozenset(["q0"]))
    report = validate_algebra(bad)
    assert not report.ok
    offending = [v for v in report.violations if v.op_name == "W5"]
    assert offending and all(len(v.instance) == 5 for v in offending)

    assert validate_algebra(parity_algebra(validate=False)).ok

    good = even_vertices_algebra(sig)
    rng = random.Random(SEED + 8)
    failures = 0
    for _ in range(200):
        g = random_f_graph(rng, sig, max_depth=5, max_leaves=10)
        tree = decompose(g, sig)
        reference = evaluate_tree(tree, good)
        for _ in range(20):
            if evaluate_tree(shuffle_admissible(tree, rng), good) != reference:
                failures += 1
    assert failures == 0
    announce(7, "algebra-law-validation",
             "CP violation reported with tuples; 200 graphs x 20 reorders stable")


def test_criterion_8_counting_quantifier_semantics():
    from modgraph.cms import Pred, RelationalSignature, Structure
    rsig = RelationalSignature((("p", 1),))
    disagreements = 0
    checks = 0

    def agree(n, members):
        nonlocal disagreements, checks
        s = Structure(rsig, tuple(range(1, n + 1)),
                      {"p": frozenset((m,) for m in members)})
        for q in (2, 3):
            f = ExistsMod(q, "x", Pred("p", ("x",)))
            if model_check(s, f) != (len(members) % q == 0):
                disagreements += 1
            checks += 1

    for n in range(1, 5):  # exhaustive over interpretations
        for bits in itertools.product((0, 1), repeat=n):
            agree(n, [i + 1 for i in range(n) if bits[i]])
    rng = random.Random(SEED + 9)
    for n in range(5, 9):  # sampled beyond
        for _ in range(40):
            agree(n, [v for v in range(1, n + 1) if rng.random() < 0.5])
    assert disagreements == 0
    announce(8, "counting-quantifier-semantics",
             f"{checks} structure checks, 0 disagreements")


def test_selftest_wall_clock_budget():
    start = time.time()
    report, ok = run_selftest(SelfTestConfig())
    elapsed = time.time() - start
    assert ok
    assert elapsed < 180
    announce("*", "selftest-budget", f"default run in {elapsed:.1f}s")
