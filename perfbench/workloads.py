"""The three workloads: seeded inputs, the calls into the program, checks.

A workload builds all its inputs in its constructor (the set-up phase)
and then offers a fixed list of items, one round; ``Canary`` adds one
small item that every round ends with.  ``run(item, tracer)``
makes the item's calls into the program and returns their outputs; it is
the only timed part.  ``check(item, outputs, tracer)`` compares the
outputs with values computed apart from the program and returns a list of
problems; it also feeds the tracer's deterministic counters.

Each call into a layer sits in a span named ``<layer>.<call>``, so that
the traced run can split an item's time by layer.
"""

from __future__ import annotations

import itertools
from random import Random

import checks
import inputs
from modgraph.cms import ModelChecker, graph_structure, parse_formula, tree_structure
from modgraph.formats import parse_graph, parse_signature, parse_term
from modgraph.mdec import binarize, decompose, reconstruct
from modgraph.recognizer import (FiniteAlgebra, binary_table, evaluate_tree,
                                 nary_table, validate_algebra)
from modgraph.samples import even_vertices_algebra
from modgraph.signature import eval_term
from modgraph.transduction import (PredicateLibrary, build_repr,
                                   check_kappa_lemma, classify_nodes,
                                   compute_encoding, transduction_schema,
                                   verify_isomorphism)


def _sum_mod2(*args):
    return "q1" if sum(a == "q1" for a in args) % 2 else "q0"


def letter_a_algebra(sig) -> FiniteAlgebra:
    """Parity of the number of a-labelled vertices, over any signature."""
    carrier = ("q0", "q1")
    tables = {op.name: (binary_table(carrier, _sum_mod2) if op.arity is None
                        else nary_table(carrier, op.arity, _sum_mod2))
              for op in sig.ops}
    letters = {s: ("q1" if s == "a" else "q0") for s in sig.alphabet}
    return FiniteAlgebra(sig, carrier, letters, tables, frozenset(["q0"]),
                         name="letter-a-parity")


def _validated(alg: FiniteAlgebra, tracer) -> FiniteAlgebra:
    with tracer.span("recognizer.validate"):
        report = validate_algebra(alg)
    if not report.ok:
        raise RuntimeError(f"algebra {alg.name} failed validation:\n{report}")
    return alg


class DecomposeLarge:
    """Large graphs, where modular decomposition does most of the work.

    (a) Flat terms over seq, par, W5 and P3 with 72 leaves and a prime
        operation at the root, W5 and P3 alternately: parse, evaluate,
        decompose with the signature, binarize, reconstruct and fold
        through two parity algebras.
    (b) Random digraphs (p = 0.3) on 50 and 60 vertices: parse,
        decompose, binarize, reconstruct.

    The root operation fixes the sizes of the top blocks, and those set
    most of an item's cost; seq- or par-rooted terms would make the
    round's cost swing with the draw.
    """

    name = "decompose-large"
    batch_size = 1
    TERM_LEAVES = 72
    TERMS_PER_ROOT = 30
    DIGRAPH_SIZES = (50, 60)
    DIGRAPHS_PER_SIZE = 10

    def __init__(self, seed: int, tracer):
        rng = Random(seed)
        self.sig = parse_signature(inputs.signature_text("seq-par-w5-p3"))
        self.even = _validated(even_vertices_algebra(self.sig, validate=False), tracer)
        self.letter_a = _validated(letter_a_algebra(self.sig), tracer)
        ops = inputs.SIGNATURES["seq-par-w5-p3"]
        self.items = []
        for _ in range(self.TERMS_PER_ROOT):
            for root in ("W5", "P3"):
                term = inputs.random_term(rng, ops, self.TERM_LEAVES, root=root)
                self.items.append(("term", inputs.term_text(term), term,
                                   inputs.term_graph(term)))
        for _ in range(self.DIGRAPHS_PER_SIZE):
            for n in self.DIGRAPH_SIZES:
                graph = inputs.random_digraph(rng, n, 0.3)
                self.items.append(("digraph", inputs.graph_text(*graph), None, graph))
        rng.shuffle(self.items)

    def run(self, item, tracer):
        kind, text = item[0], item[1]
        if kind == "term":
            with tracer.span("formats.parse"):
                term = parse_term(text, self.sig)
            with tracer.span("signature.eval_term"):
                g = eval_term(self.sig, term)
            sig = self.sig
        else:
            with tracer.span("formats.parse"):
                g = parse_graph(text)
            sig = None
        with tracer.span("mdec.decompose"):
            tree = decompose(g, sig)
        with tracer.span("mdec.binarize"):
            btree = binarize(tree)
        with tracer.span("mdec.reconstruct"):
            rebuilt = reconstruct(btree, sig)
        folds = None
        if kind == "term":
            with tracer.span("recognizer.fold"):
                folds = (evaluate_tree(btree, self.even),
                         evaluate_tree(btree, self.letter_a))
        return g, tree, rebuilt, folds

    def check(self, item, outputs, tracer):
        kind, _, term, (n, edges, labels) = item
        g, tree, rebuilt, folds = outputs
        tracer.count("mdec.tree_nodes", len(tree.nodes()))
        problems = checks.check_graph(g, n, edges, labels, "input graph")
        problems += checks.check_graph(rebuilt, n, edges, labels, "reconstruct")
        if kind == "term":
            problems += checks.check_term_tree(tree, term)
            problems += checks.check_fold(folds[0], n, "vertex parity")
            problems += checks.check_fold(
                folds[1], sum(1 for s in labels.values() if s == "a"), "letter-a parity")
        else:
            problems += checks.check_tree_modules(tree, n, edges)
        return problems


# sentences over the tree signature, each paired with the count it states
SENTENCES = (
    ("(existsmod 2 x (label_a x))", "a_leaves", 2),
    ("(existsmod 3 x (label_seq x))", "seq_nodes", 3),
    ("(existsmod 2 x (exists y (child x y)))", "inner_nodes", 2),
    ("(existsmod 2 x (exists y (and (child x y) (label_b y))))", "b_leaf_parents", 2),
    ("(existsmod 2 x (label_W5 x))", "w5_nodes", 2),
)


def _tree_counts(term) -> dict[str, int]:
    """Counts on the binarized decomposition tree, read off a flat term.

    Binarizing a seq node with children c1..ck gives a right comb whose
    j-th node has children cj and the next comb node, the last one ck-1
    and ck.
    """
    counts = {"a_leaves": inputs.term_leaves(term).count("a"),
              "seq_nodes": 0, "inner_nodes": 0, "b_leaf_parents": 0,
              "w5_nodes": checks.op_count(term, "W5")}
    for t, _ in inputs.term_ranges(term):
        if isinstance(t, str):
            continue
        kids = t[1:]
        if t[0] == "seq":
            k = len(kids)
            counts["seq_nodes"] += k - 1
            counts["inner_nodes"] += k - 1
            counts["b_leaf_parents"] += sum(
                1 for j in range(k - 1)
                if kids[j] == "b" or (j == k - 2 and kids[k - 1] == "b"))
        else:
            counts["inner_nodes"] += 1
            counts["b_leaf_parents"] += "b" in kids
    return counts


class VerifyTransduction:
    """The verify-transduction path on many small f-graphs.

    Flat terms over spw5 and scw5 with 12 to 16 leaves, one for each
    (size, signature, root operation) per repetition.  Each item parses
    the graph, decomposes and binarizes it, encodes the tree into the
    leaves, rebuilds and verifies the structure, cross-checks the kappa
    maps with the 2^n oracle, then builds the tree structure, parses the
    sentences above and model-checks each on a fresh checker.
    """

    name = "verify-transduction"
    batch_size = 10
    SIZES = (12, 13, 14, 15, 16)
    REPETITIONS = 38

    def __init__(self, seed: int, tracer):
        rng = Random(seed)
        sigs = {name: parse_signature(inputs.signature_text(name))
                for name in ("spw5", "scw5")}
        self.items = []
        for _ in range(self.REPETITIONS):
            for leaves in self.SIZES:
                for name, sig in sigs.items():
                    ops = inputs.SIGNATURES[name]
                    for root in ops:
                        term = inputs.random_term(rng, ops, leaves, root=root,
                                                  max_children=3)
                        graph = inputs.term_graph(term)
                        self.items.append((sig, inputs.graph_text(*graph), term, graph,
                                           checks.tree_node_count(term, True),
                                           _tree_counts(term)))
        rng.shuffle(self.items)

    def run(self, item, tracer):
        sig, text = item[0], item[1]
        with tracer.span("formats.parse"):
            g = parse_graph(text)
        with tracer.span("mdec.decompose"):
            tree = decompose(g, sig)
        with tracer.span("mdec.binarize"):
            btree = binarize(tree)
        with tracer.span("transduction.encode"):
            enc = compute_encoding(btree, classify_nodes(btree, sig))
        with tracer.span("transduction.build_repr"):
            rep = build_repr(btree, enc, sig=sig)
        with tracer.span("transduction.verify"):
            iso = verify_isomorphism(rep, btree, sig=sig)
        with tracer.span("transduction.kappa_lemma"):
            lemma = check_kappa_lemma(btree, enc, sig)
        with tracer.span("cms.tree_structure"):
            structure = tree_structure(btree, sig)
        with tracer.span("cms.parse"):
            formulas = [parse_formula(text, structure.signature)
                        for text, _, _ in SENTENCES]
        answers = []
        work = 0
        with tracer.span("cms.cold_check"):
            for f in formulas:
                checker = ModelChecker(structure)
                answers.append(checker.check(f))
                work += checker.work
        return g, tree, rep, iso, lemma, answers, work

    def check(self, item, outputs, tracer):
        _, _, term, (n, edges, labels), nodes, counts = item
        g, tree, rep, iso, lemma, answers, work = outputs
        tracer.count("mdec.tree_nodes", len(tree.nodes()))
        tracer.count("cms.checks", len(answers))
        tracer.count("cms.cold_work_units", work)
        problems = checks.check_graph(g, n, edges, labels, "input graph")
        problems += checks.check_term_tree(tree, term)
        if not iso:
            problems.append("verify_isomorphism rejected the rebuilt structure")
        if not lemma.ok:
            problems.append(f"kappa lemma: {len(lemma.mismatches)} mismatches")
        if len(rep.domain) != nodes:
            problems.append(f"rebuilt structure has {len(rep.domain)} elements, "
                            f"the binarized tree {nodes} nodes")
        want = [counts[key] % q == 0 for _, key, q in SENTENCES]
        problems += checks.check_answers(answers, want, "tree sentences")
        return problems


class FormulaAgreement:
    """Warm counting-MSO checks on small graphs.

    (a) 180 pairwise non-isomorphic digraphs on 4 vertices: every library
        predicate with at most 3 set variables over every binding, on one
        checker per graph, against ``PredicateLibrary.holds``.
    (b) Every f-graph over spw5 on 4 vertices (the 15 series-parallel
        orders) and W5 on 5 vertices, with seeded letters and vertex
        numbering: the four kappa formulas of the transduction schema for
        every (x, M), against the kappa tables of ``compute_encoding``.
        A kappa item's cost depends on its shape, so every shape is in
        every round.
    """

    name = "formula-agreement"
    batch_size = 1
    SWEEP_GRAPHS = 180
    SWEEP_VERTICES = 4

    def __init__(self, seed: int, tracer):
        rng = Random(seed)
        with tracer.span("transduction.library_build"):
            self.lib = PredicateLibrary(parse_signature(
                inputs.signature_text("spw5", ("a",))))
        self.sig = parse_signature(inputs.signature_text("spw5"))
        with tracer.span("transduction.schema_build"):
            schema = transduction_schema(self.sig)
        self.kappa = schema.kappa_formulas
        n = self.SWEEP_VERTICES
        self.bindings = self._sweep_bindings(n)
        self.items = []
        for edges in inputs.distinct_digraphs(rng, n, self.SWEEP_GRAPHS):
            labels = {v: "a" for v in range(1, n + 1)}
            out_m, in_m = checks.adjacency_masks(n, edges)
            modules = [checks.is_module_mask(n, out_m, in_m, mask)
                       for mask in range(1 << n)]
            self.items.append(("sweep", inputs.graph_text(n, edges, labels), None,
                               (n, edges, labels), modules))
        ops = inputs.SIGNATURES["spw5"]
        shapes = inputs.distinct_shapes(ops, 4) + [("W5",) + ("a",) * 5]
        for shape in shapes:
            term = inputs.relabel_leaves(rng, shape)
            n, edges, labels = inputs.term_graph(term)
            ids = list(range(1, n + 1))
            rng.shuffle(ids)
            perm = dict(zip(range(1, n + 1), ids))
            graph = (n, frozenset((perm[u], perm[v]) for u, v in edges),
                     {perm[v]: s for v, s in labels.items()})
            self.items.append(("kappa", inputs.graph_text(*graph), term, graph, perm))
        rng.shuffle(self.items)

    def _sweep_bindings(self, n: int):
        """Per predicate: holds-style bindings, checker environments and the
        answers known without the program (None where there are none)."""
        verts = list(range(1, n + 1))
        sets = [(frozenset(v for v in verts if mask >> (v - 1) & 1), mask)
                for mask in range(1 << n)]
        out = []
        for name in self.lib.names():
            spec = self.lib.free_vars(name)
            set_vars = [v for v, k in spec if k == "set"]
            el_vars = [v for v, k in spec if k == "element"]
            if len(set_vars) > 3:
                continue
            holds_b, envs = [], []
            for combo in itertools.product(sets, repeat=len(set_vars)):
                for els in itertools.product(verts, repeat=len(el_vars)):
                    b = dict(zip(set_vars, (c[0] for c in combo)))
                    env = dict(zip(set_vars, (c[1] for c in combo)))
                    b.update(zip(el_vars, els))
                    env.update((var, v - 1) for var, v in zip(el_vars, els))
                    holds_b.append(b)
                    envs.append(env)
            known = None
            if name == "singleton":
                known = [b["X"] == {b["x"]} for b in holds_b]
            elif name == "label_a":
                known = [len(b["X"]) == 1 for b in holds_b]
            elif name == "partition2":
                known = [bool(e["X1"]) and bool(e["X2"]) and not e["X1"] & e["X2"]
                         and e["X1"] | e["X2"] == e["X"] for e in envs]
            out.append((name, self.lib.formula(name), holds_b, envs, known))
        return out

    def run(self, item, tracer):
        kind, text = item[0], item[1]
        with tracer.span("formats.parse"):
            g = parse_graph(text)
        if kind == "sweep":
            with tracer.span("cms.check"):
                checker = ModelChecker(graph_structure(g, ("a",)), budget=10 ** 9)
            answers = []
            for name, formula, holds_b, envs, _ in self.bindings:
                with tracer.span("cms.check"):
                    got = [checker.check_prepared(formula, env) for env in envs]
                with tracer.span("transduction.holds"):
                    want = [self.lib.holds(name, g, b) for b in holds_b]
                answers.append((got, want))
            return g, checker, answers
        with tracer.span("mdec.decompose"):
            tree = decompose(g, self.sig)
        with tracer.span("mdec.binarize"):
            btree = binarize(tree)
        with tracer.span("transduction.encode"):
            enc = compute_encoding(btree, classify_nodes(btree, self.sig))
        n = g.n
        with tracer.span("cms.check"):
            checker = ModelChecker(graph_structure(g, self.sig.alphabet.symbols),
                                   budget=10 ** 9)
            answers = [[checker.check_prepared(self.kappa[i], {"x": v, "M": mask})
                        for v in range(n) for mask in range(1 << n)]
                       for i in range(4)]
        return g, checker, (tree, enc, answers)

    def check(self, item, outputs, tracer):
        kind, _, term, (n, edges, labels), extra = item
        g, checker, answers = outputs
        tracer.count("cms.work_units", checker.work)
        problems = checks.check_graph(g, n, edges, labels, "input graph")
        if checker.to_mask(range(1, n + 1)) != (1 << n) - 1:
            problems.append("checker domain is not the vertex order 1..n")
        if kind == "sweep":
            for (name, _, _, envs, known), (got, want) in zip(self.bindings, answers):
                tracer.count("cms.checks", len(got))
                problems += checks.check_answers(got, want, f"{name} formula vs holds")
                if known is not None:
                    problems += checks.check_answers(got, known, f"{name} formula")
                if name == "module":
                    problems += checks.check_answers(
                        got, [extra[e["X"]] for e in envs], "module formula")
            return problems
        tree, enc, kappa_answers = answers
        tracer.count("mdec.tree_nodes", len(tree.nodes()))
        problems += checks.check_term_tree(tree, term, perm=extra)
        for i, got in enumerate(kappa_answers):
            tracer.count("cms.checks", len(got))
            want = []
            for v in range(1, n + 1):
                node = enc.kappa[i].get(v)
                target = checks.to_mask(node.module) if node is not None else None
                want += [mask == target for mask in range(1 << n)]
            problems += checks.check_answers(got, want, f"kappa_{i} formula vs tables")
        # kappa_0 maps every vertex to its own leaf, whatever the graph
        problems += checks.check_answers(
            kappa_answers[0], [mask == 1 << v for v in range(n) for mask in range(1 << n)],
            "kappa_0 formula")
        return problems


class Canary:
    """One small item per round that calls every layer the workloads time.

    Every workload runs it once per round, so that each per-layer figure
    is measured, and each layer's output checked, in every workload.  The
    item is a seeded five-letter word over the seq-only signature: parse,
    evaluate, decompose, binarize, reconstruct and fold it, encode, rebuild
    and verify its tree, check the kappa lemma, model-check a sentence on
    its tree cold, and check the ``module`` predicate on every vertex set
    of its graph against ``holds``.  Its set-up validates a parity algebra
    and builds a predicate library and a transduction schema for that
    signature.
    """

    LETTERS_IN_WORD = 5

    def __init__(self, seed: int, tracer):
        rng = Random(seed)
        self.sig = parse_signature(inputs.signature_text("words"))
        self.parity = _validated(letter_a_algebra(self.sig), tracer)
        with tracer.span("transduction.library_build"):
            self.lib = PredicateLibrary(self.sig)
        with tracer.span("transduction.schema_build"):
            self.lib.schema()
        self.term = ("seq",) + tuple(rng.choice(inputs.LETTERS)
                                     for _ in range(self.LETTERS_IN_WORD))
        self.text = inputs.term_text(self.term)
        self.graph = n, edges, _ = inputs.term_graph(self.term)
        out_m, in_m = checks.adjacency_masks(n, edges)
        self.sets = [(mask, frozenset(v for v in range(1, n + 1) if mask >> (v - 1) & 1),
                      checks.is_module_mask(n, out_m, in_m, mask))
                     for mask in range(1 << n)]

    def run(self, item, tracer):
        sig = self.sig
        with tracer.span("formats.parse"):
            term = parse_term(self.text, sig)
        with tracer.span("signature.eval_term"):
            g = eval_term(sig, term)
        with tracer.span("mdec.decompose"):
            tree = decompose(g, sig)
        with tracer.span("mdec.binarize"):
            btree = binarize(tree)
        with tracer.span("mdec.reconstruct"):
            rebuilt = reconstruct(btree, sig)
        with tracer.span("recognizer.fold"):
            fold = evaluate_tree(btree, self.parity)
        with tracer.span("transduction.encode"):
            enc = compute_encoding(btree, classify_nodes(btree, sig))
        with tracer.span("transduction.build_repr"):
            rep = build_repr(btree, enc, sig=sig)
        with tracer.span("transduction.verify"):
            iso = verify_isomorphism(rep, btree, sig=sig)
        with tracer.span("transduction.kappa_lemma"):
            lemma = check_kappa_lemma(btree, enc, sig)
        with tracer.span("cms.tree_structure"):
            structure = tree_structure(btree, sig)
        with tracer.span("cms.parse"):
            sentence = parse_formula(SENTENCES[0][0], structure.signature)
        with tracer.span("cms.cold_check"):
            cold = ModelChecker(structure)
            answer = cold.check(sentence)
        with tracer.span("cms.check"):
            checker = ModelChecker(graph_structure(g, inputs.LETTERS))
            formula = self.lib.formula("module")
            got = [checker.check_prepared(formula, {"X": mask}) for mask, _, _ in self.sets]
        with tracer.span("transduction.holds"):
            want = [self.lib.holds("module", g, {"X": s}) for _, s, _ in self.sets]
        return (g, tree, rebuilt, fold, rep, iso, lemma, (answer, cold.work),
                (got, want, checker.work))

    def check(self, item, outputs, tracer):
        g, tree, rebuilt, fold, rep, iso, lemma, (answer, cold_work), (got, want, work) = outputs
        n, edges, labels = self.graph
        a_count = inputs.term_leaves(self.term).count("a")
        tracer.count("mdec.tree_nodes", len(tree.nodes()))
        tracer.count("cms.checks", 1 + len(got))
        tracer.count("cms.cold_work_units", cold_work)
        tracer.count("cms.work_units", work)
        problems = checks.check_graph(g, n, edges, labels, "canary graph")
        problems += checks.check_graph(rebuilt, n, edges, labels, "canary reconstruct")
        problems += checks.check_term_tree(tree, self.term)
        problems += checks.check_fold(fold, a_count, "canary letter-a parity")
        if not (iso and lemma.ok):
            problems.append("canary: rebuilt structure or kappa lemma rejected")
        if len(rep.domain) != checks.tree_node_count(self.term, True):
            problems.append("canary: rebuilt structure has the wrong size")
        if answer != (a_count % 2 == 0):
            problems.append("canary: tree sentence answered wrong")
        problems += checks.check_answers(got, want, "canary module formula vs holds")
        problems += checks.check_answers(got, [m for _, _, m in self.sets],
                                         "canary module formula")
        return problems


WORKLOADS = {w.name: w for w in (DecomposeLarge, VerifyTransduction, FormulaAgreement)}
