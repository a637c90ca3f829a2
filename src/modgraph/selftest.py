"""Randomized property harness exercising every module's invariants.

Each property draws its instances from a stream seeded by (seed, property
name), so the report is byte-identical for a fixed configuration and the
properties are independent of each other's ordering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random
from typing import Callable

from . import cms, generators, recognizer, samples, signature as sig_mod
from .graphs import (LabeledGraph, apply_isomorphism, automorphism_group,
                     find_isomorphism, is_module, is_vertex_transitive)
from .mdec import (MDecNode, NodeKind, binarize, brute_force_prime_modules,
                   decompose, reconstruct, shuffle_admissible,
                   tree_prime_modules)
from .signature import Term, compose, compose_graph, eval_term
from .transduction import (PredicateLibrary, build_repr, check_kappa_lemma,
                           encode_graph, min_vertex_rule, verify_isomorphism)


@dataclass(frozen=True)
class SelfTestConfig:
    seed: int = 193
    count: int = 25
    max_vertices: int = 8
    max_term_depth: int = 5

    def __post_init__(self):
        if self.count < 0 or self.max_term_depth < 1:
            raise ValueError("bounds must be positive")
        # the mdec properties draw graphs of 2 to max_vertices vertices
        if self.max_vertices < 2:
            raise ValueError("max-vertices must be at least 2")


Outcome = tuple[int, int, list[str]]
_REGISTRY: dict[str, Callable[[SelfTestConfig, Random], Outcome]] = {}


def _property(name):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn
    return deco


def _run_cases(cfg, rng, case) -> Outcome:
    passed, failed, notes = 0, 0, []
    for i in range(cfg.count):
        ok, note = case(i)
        if ok:
            passed += 1
        else:
            failed += 1
            if len(notes) < 3:
                notes.append(note)
    return passed, failed, notes


def _module_oracle(g: LabeledGraph, x: frozenset[int]) -> bool:
    # the definition, checked pair by pair without any shortcuts
    for v in g.vertices - x:
        into = [(v, u) in g.edges for u in x]
        outof = [(u, v) in g.edges for u in x]
        if any(into) and not all(into):
            return False
        if any(outof) and not all(outof):
            return False
    return True


@_property("graphs.module-definition-oracle")
def _p_module_oracle(cfg, rng):
    def case(i):
        g = generators.random_digraph(rng, rng.randint(1, cfg.max_vertices))
        x = generators.random_subset(rng, g.sorted_vertices())
        got, want = is_module(g, x), _module_oracle(g, x)
        return got == want, f"is_module {sorted(x)} on {g}: {got} vs {want}"
    return _run_cases(cfg, rng, case)


@_property("graphs.isomorphism-apply-roundtrip")
def _p_iso_roundtrip(cfg, rng):
    def case(i):
        g = generators.random_digraph(rng, rng.randint(1, 6))
        n = g.n
        image = list(range(1, n + 1))
        rng.shuffle(image)
        from .graphs import Permutation
        h = apply_isomorphism(g, Permutation(tuple(image)))
        tau = find_isomorphism(g, h)
        if tau is None:
            return False, f"no isomorphism rediscovered for {g}"
        if apply_isomorphism(g, tau, target_ids=h.sorted_vertices()) != h:
            return False, f"returned map does not carry {g} onto {h}"
        if find_isomorphism(h, g) is None:
            return False, "isomorphism is not symmetric"
        return True, ""
    return _run_cases(cfg, rng, case)


@_property("graphs.automorphism-group-closure")
def _p_aut_closure(cfg, rng):
    def case(i):
        g = generators.random_digraph(rng, rng.randint(1, 6))
        aut = automorphism_group(g)
        els = aut.elements
        closed = all(a.compose(b) in els for a in els for b in els)
        inv = all(a.inverse() in els for a in els)
        orbits_ok = (len(aut.orbits) == 1) == is_vertex_transitive(g)
        ok = closed and inv and orbits_ok
        return ok, f"group closure failed on {g}"
    return _run_cases(cfg, rng, case)


@_property("graphs.self-isomorphism-in-group")
def _p_self_iso(cfg, rng):
    def case(i):
        g = generators.random_digraph(rng, rng.randint(1, 6))
        tau = find_isomorphism(g, g)
        ok = tau is not None and tau in automorphism_group(g).elements
        return ok, f"self-isomorphism outside the group on {g}"
    return _run_cases(cfg, rng, case)


def _edge_count(sig, t: Term) -> int:
    # the size law, computed without building the graph
    if t.is_leaf:
        return 0
    sizes = [len(c.leaves()) for c in t.children]
    total = sum(_edge_count(sig, c) for c in t.children)
    pattern = sig_mod.edge_pattern(sig.op(t.op), len(sizes))
    return total + sum(sizes[i - 1] * sizes[j - 1] for (i, j) in pattern)


@_property("signature.size-law")
def _p_size_law(cfg, rng):
    sig = samples.spw5_signature()

    def case(i):
        t = generators.random_term(rng, sig, cfg.max_term_depth, cfg.max_vertices)
        g = eval_term(sig, t)
        ok = g.n == len(t.leaves()) and len(g.edges) == _edge_count(sig, t)
        return ok, f"size law broken for {t}"
    return _run_cases(cfg, rng, case)


@_property("signature.cp-commutation")
def _p_cp(cfg, rng):
    sig = samples.spw5_signature()
    ops = [sig.op("seq"), sig.op("par"), sig.op("W5"), sig_mod.CLIQUE_OP]

    def case(i):
        op = ops[i % len(ops)]
        n = op.arity if op.arity is not None else 2
        operands, base = [], 0
        for _ in range(n):
            k = rng.randint(1, 3)
            operands.append(generators.random_digraph(rng, k))
        shifted = []
        for g in operands:
            ren = {v: base + idx for idx, v in enumerate(g.sorted_vertices(), 1)}
            shifted.append(LabeledGraph.build(
                ren.values(), {(ren[u], ren[v]) for (u, v) in g.edges},
                {ren[v]: g.labels[v] for v in g.vertices}))
            base += g.n
        ref = compose(op, shifted, relabel=False)
        for sigma in op.symmetry.automorphisms:
            permuted = [shifted[sigma(k) - 1] for k in range(1, n + 1)]
            if compose(op, permuted, relabel=False) != ref:
                return False, f"{op.name} not invariant under {sigma}"
        return True, ""
    return _run_cases(cfg, rng, case)


@_property("signature.compositionality")
def _p_compositionality(cfg, rng):
    kgraphs = [sig_mod.H_SEQ, sig_mod.H_PAR, sig_mod.H_CLIQUE, samples.P3_GRAPH]

    def case(i):
        k = rng.choice(kgraphs)
        parts = [rng.randint(1, 2) for _ in range(k.n)]
        total = sum(parts)
        ls = []
        for p in parts:
            ls.append(LabeledGraph.on_range(p, [(a, b) for a in range(1, p + 1)
                                                for b in range(1, p + 1)
                                                if a != b and rng.random() < 0.4]))
        h = compose_graph(k, ls, relabel=True)
        shifted = [LabeledGraph.single_vertex("a", j + 1) for j in range(total)]
        direct = compose_graph(h, shifted, relabel=False)
        # nested composition: group the operands by the part of h they sit in
        nested_parts = []
        start = 0
        for idx, p in enumerate(parts):
            sub = shifted[start:start + p]
            nested_parts.append(compose_graph(ls[idx], sub, relabel=False)
                                if p > 1 else sub[0])
            start += p
        nested = compose_graph(k, nested_parts, relabel=False)
        return direct == nested, f"compositionality broken for {h}"
    return _run_cases(cfg, rng, case)


@_property("signature.dag-closure")
def _p_dag_closure(cfg, rng):
    sig = samples.spw5_signature()

    def case(i):
        g = generators.random_f_graph(rng, sig, cfg.max_term_depth,
                                      cfg.max_vertices)
        ok = g.is_dag() and g.is_transitive()
        return ok, f"non-poset output {g}"
    return _run_cases(cfg, rng, case)


@_property("mdec.roundtrip")
def _p_roundtrip(cfg, rng):
    sig = samples.spw5_signature()

    def case(i):
        g = generators.random_f_graph(rng, sig, cfg.max_term_depth,
                                      cfg.max_vertices)
        t = decompose(g, sig)
        ok = reconstruct(t) == g and reconstruct(binarize(t)) == g
        return ok, f"roundtrip failed for {g}"
    return _run_cases(cfg, rng, case)


@_property("mdec.oracle-equivalence")
def _p_oracle(cfg, rng):
    def case(i):
        g = generators.random_digraph(rng, rng.randint(1, cfg.max_vertices))
        got = tree_prime_modules(decompose(g))
        want = brute_force_prime_modules(g)
        if got != want:
            return False, f"prime modules differ on {g}: {got} vs {want}"
        # the case tags must be right too: rebuilding is exact
        if reconstruct(decompose(g)) != g:
            return False, f"open-signature reconstruction differs on {g}"
        return True, ""
    return _run_cases(cfg, rng, case)


@_property("mdec.structure-constraints")
def _p_structure(cfg, rng):
    from .signature import is_prime

    def case(i):
        g = generators.random_digraph(rng, rng.randint(2, cfg.max_vertices))
        t = decompose(g)
        for node in t.nodes():
            if node.is_leaf:
                continue
            if len(node.children) < 2:
                return False, "inner node with a single child"
            if node.kind in (NodeKind.PAR, NodeKind.SEQ, NodeKind.CLIQUE):
                if any(c.kind is node.kind for c in node.children):
                    return False, f"nested {node.kind.value} nodes"
            else:
                if len(node.children) != node.op.graph.n:
                    return False, "prime arity mismatch"
                if node.op.graph.n < 3 or not is_prime(node.op.graph):
                    return False, "non-prime quotient stored"
        for node in binarize(t).nodes():
            if node.kind is NodeKind.SEQ:
                if len(node.children) != 2 or node.children[0].kind is NodeKind.SEQ:
                    return False, "binarization shape broken"
        return True, ""
    return _run_cases(cfg, rng, case)


@_property("mdec.aut-stability")
def _p_aut_stability(cfg, rng):
    sig = samples.spw5_signature()

    def case(i):
        g = generators.random_f_graph(rng, sig, cfg.max_term_depth,
                                      cfg.max_vertices)
        t = decompose(g, sig)
        for node in t.nodes():
            if node.kind is not NodeKind.PRIME:
                continue
            mods = [c.module for c in node.children]
            es = g.edges
            for sigma in node.op.symmetry.automorphisms:
                perm = [mods[sigma(k) - 1] for k in range(1, len(mods) + 1)]
                for (a, b) in itertools.product(range(len(perm)), repeat=2):
                    if a == b:
                        continue
                    want = (a + 1, b + 1) in node.op.graph.edges
                    have = all((u, v) in es for u in perm[a] for v in perm[b])
                    none = all((u, v) not in es for u in perm[a] for v in perm[b])
                    if want and not have or not want and not none:
                        return False, f"permuted enumeration no longer matches"
        return True, ""
    return _run_cases(cfg, rng, case)


@_property("mdec.nested-prime-modules")
def _p_nested_primes(cfg, rng):
    def case(i):
        g = generators.random_digraph(rng, rng.randint(2, min(7, cfg.max_vertices)))
        primes = brute_force_prime_modules(g)
        for x in primes:
            if len(x) < 2:
                continue
            inner = brute_force_prime_modules(g.induced(x))
            if not inner <= primes:
                return False, f"prime modules of {sorted(x)} escape the family"
        return True, ""
    return _run_cases(cfg, rng, case)


@_property("recognizer.reorder-invariance")
def _p_reorder(cfg, rng):
    sig = samples.spw5_signature()
    alg = samples.even_vertices_algebra(sig)

    def case(i):
        g = generators.random_f_graph(rng, sig, cfg.max_term_depth,
                                      cfg.max_vertices)
        t = decompose(g, sig)
        ref = recognizer.evaluate_tree(t, alg)
        for _ in range(5):
            if recognizer.evaluate_tree(shuffle_admissible(t, rng), alg) != ref:
                return False, f"re-ordered evaluation differs on {g}"
        return True, ""
    return _run_cases(cfg, rng, case)


@_property("recognizer.term-coherence")
def _p_term_coherence(cfg, rng):
    sig = samples.spw5_signature()
    alg = samples.even_vertices_algebra(sig)

    def fold(t: Term) -> str:
        if t.is_leaf:
            return alg.letter_image[t.symbol]
        vals = [fold(c) for c in t.children]
        op = sig.op(t.op)
        if op.arity is not None:
            return alg.tables[op.name][tuple(vals)]
        acc = vals[0]
        for v in vals[1:]:
            acc = alg.apply2(op.name, acc, v)
        return acc

    def case(i):
        t = generators.random_term(rng, sig, cfg.max_term_depth, cfg.max_vertices)
        got = recognizer.evaluate(eval_term(sig, t), alg)
        return got == fold(t), f"term fold disagrees on {t}"
    return _run_cases(cfg, rng, case)


@_property("recognizer.word-semantics")
def _p_word_semantics(cfg, rng):
    alg = samples.parity_algebra()

    def case(i):
        w = generators.random_word(rng, "ab", max_len=6)
        got = recognizer.member(samples.word_graph(w), alg)
        return got == (w.count("a") % 2 == 0), f"word semantics differ on {w!r}"
    return _run_cases(cfg, rng, case)


@_property("cms.negation-consistency")
def _p_negation(cfg, rng):
    rsig = cms.RelationalSignature((("p", 1), ("r", 2)))

    def case(i):
        n = rng.randint(1, 5)
        dom = tuple(range(n))
        rels = {"p": frozenset((d,) for d in dom if rng.random() < 0.5),
                "r": frozenset((a, b) for a in dom for b in dom
                               if rng.random() < 0.3)}
        s = cms.Structure(rsig, dom, rels)
        a = cms.Exists("x", cms.Pred("p", ("x",)))
        b = cms.Forall("x", cms.Exists("y", cms.Pred("r", ("x", "y"))))
        for f in (a, b, cms.And((a, b)), cms.Or((a, b))):
            if cms.model_check(s, cms.Not(f)) == cms.model_check(s, f):
                return False, "negation inconsistency"
        demorgan = (cms.model_check(s, cms.Not(cms.And((a, b)))) ==
                    cms.model_check(s, cms.Or((cms.Not(a), cms.Not(b)))))
        return demorgan, "de Morgan pair disagrees"
    return _run_cases(cfg, rng, case)


@_property("cms.counting-exhaustive")
def _p_counting(cfg, rng):
    rsig = cms.RelationalSignature((("p", 1),))

    def case(i):
        n = rng.randint(1, cfg.max_vertices)
        dom = tuple(range(n))
        pset = frozenset((d,) for d in dom if rng.random() < 0.5)
        s = cms.Structure(rsig, dom, {"p": pset})
        for q in (2, 3):
            f = cms.ExistsMod(q, "x", cms.Pred("p", ("x",)))
            if cms.model_check(s, f) != (len(pset) % q == 0):
                return False, f"counting quantifier wrong at q={q}"
        return True, ""
    return _run_cases(cfg, rng, case)


@_property("cms.module-formula")
def _p_module_formula(cfg, rng):
    lib = PredicateLibrary(samples.sp_signature())

    def case(i):
        g = generators.random_digraph(rng, rng.randint(1, 6))
        x = generators.random_subset(rng, g.sorted_vertices())
        structure = cms.graph_structure(g, lib.sig.alphabet.symbols)
        got = cms.model_check(structure, lib.formula("module"), {"X": x})
        return got == is_module(g, x), f"module formula differs on {g} X={sorted(x)}"
    return _run_cases(cfg, rng, case)


@_property("transduction.verify-iso")
def _p_verify_iso(cfg, rng):
    sigs = [samples.spw5_signature(), samples.scw5_signature()]

    def case(i):
        sig = sigs[i % 2]
        g = generators.random_f_graph(rng, sig, cfg.max_term_depth,
                                      cfg.max_vertices)
        t, cls, enc = encode_graph(g, sig)
        ok = verify_isomorphism(build_repr(t, enc, sig=sig), t, sig=sig)
        return ok, f"representation not isomorphic for {g}"
    return _run_cases(cfg, rng, case)


@_property("transduction.kappa-lemma")
def _p_kappa_lemma(cfg, rng):
    sigs = [samples.spw5_signature(), samples.scw5_signature()]

    def case(i):
        sig = sigs[i % 2]
        g = generators.random_f_graph(rng, sig, cfg.max_term_depth,
                                      min(8, cfg.max_vertices))
        t, cls, enc = encode_graph(g, sig)
        report = check_kappa_lemma(t, enc, sig)
        return report.ok, str(report)
    return _run_cases(cfg, rng, case)


@_property("transduction.mu2-union")
def _p_mu2(cfg, rng):
    sig = samples.spw5_signature()

    def case(i):
        g = generators.random_f_graph(rng, sig, cfg.max_term_depth,
                                      cfg.max_vertices)
        t, cls, enc = encode_graph(g, sig)
        fibers2: dict[MDecNode, set[int]] = {}
        for v, node in enc.kappa[2].items():
            fibers2.setdefault(node, set()).add(v)
        for y in cls.nodes_in(2):
            union = set()
            for z in y.children:
                if cls.classes.get(z) == 3:
                    union |= {v for v, node in enc.kappa[3].items() if node is z}
            if fibers2.get(y, set()) != union:
                return False, f"mu_2 is not the union of child mu_3 sets on {g}"
        return True, ""
    return _run_cases(cfg, rng, case)


@_property("transduction.representative-rule-independence")
def _p_rule_independence(cfg, rng):
    sig = samples.spw5_signature()

    def case(i):
        g = generators.random_f_graph(rng, sig, cfg.max_term_depth,
                                      cfg.max_vertices)
        t, cls, enc = encode_graph(g, sig)
        ok_min = verify_isomorphism(build_repr(t, enc, min_vertex_rule, sig=sig),
                                    t, sig=sig)
        ok_max = verify_isomorphism(build_repr(t, enc, max, sig=sig), t, sig=sig)
        return ok_min and ok_max, f"a representative rule failed on {g}"
    return _run_cases(cfg, rng, case)


@_property("transduction.formula-agreement-sampled")
def _p_formula_agreement(cfg, rng):
    lib = PredicateLibrary(samples.spp3_signature())
    names = lib.names()

    def case(i):
        g = generators.random_digraph(rng, rng.randint(2, 4), symbols=("a", "b"))
        chk = cms.ModelChecker(cms.graph_structure(g, lib.sig.alphabet.symbols))
        verts = g.sorted_vertices()
        for name in (names[(i * 7 + k) % len(names)] for k in range(4)):
            b = {}
            for var, kind in lib.free_vars(name):
                b[var] = (generators.random_subset(rng, verts)
                          if kind == "set" else rng.choice(verts))
            if chk.check(lib.formula(name), b) != lib.holds(name, g, b):
                return False, f"{name} disagrees on {g} with {b}"
        return True, ""
    return _run_cases(cfg, rng, case)


def run_selftest(cfg: SelfTestConfig) -> tuple[str, bool]:
    """Run every property; returns the canonical report and overall success."""
    lines = [f"selftest seed={cfg.seed} count={cfg.count} "
             f"max-vertices={cfg.max_vertices} max-depth={cfg.max_term_depth}"]
    if cfg.count == 0:
        lines.append("warning: count=0, all properties pass vacuously")
    all_ok = True
    for name in sorted(_REGISTRY):
        rng = Random(f"{cfg.seed}:{name}")
        passed, failed, notes = _REGISTRY[name](cfg, rng)
        status = "PASS" if failed == 0 else "FAIL"
        all_ok = all_ok and failed == 0
        lines.append(f"{status} {name}: {passed}/{passed + failed}")
        lines += [f"    {n}" for n in notes]
    lines.append(f"RESULT: {'all properties passed' if all_ok else 'FAILURES detected'}")
    return "\n".join(lines), all_ok
