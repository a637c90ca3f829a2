"""Referee of the leaf representation: the transduction's formulas, run on
the graph, against the tree they define.

``build_repr`` gives the tree's nodes as leaf pairs (v, i) and stores no
relation.  The relations are the theta formulas of ``TransductionSchema``:
theta(R, ivec) must hold of a tuple of domain pairs, on the graph's
structure, exactly when the tuple's nodes, as preorder indices, are in
``cms.tree_relations``' R, and psi_i must pick exactly the domain's pairs
(v, i).  Predicates of arity at most 2 are checked on every tuple of
domain pairs; a children_H predicate on every true tuple and on seeded
false ones, since its arity makes the whole product too large.
"""

from __future__ import annotations

import itertools
from random import Random

from modgraph.cms import ModelChecker, graph_structure, tree_relations
from modgraph.generators import random_f_graph
from modgraph.graphs import LabeledGraph
from modgraph.mdec import NodeKind, binarize, decompose
from modgraph.signature import Signature, Term, eval_term
from modgraph.transduction import (TransductionSchema, build_repr, classify_nodes,
                                   compute_encoding, min_vertex_rule)


def _terms(sig: Signature, n: int) -> list[Term]:
    """Every term with n leaves, all "a", over the signature's binary
    products and its prime operations applied to leaves."""
    leaf = Term.leaf("a")
    if n == 1:
        return [leaf]
    out = []
    products = [op for op in sig.ops if op.arity is None]
    for k in range(1, n):
        for left, right in itertools.product(_terms(sig, k), _terms(sig, n - k)):
            out += [Term.node(op.name, [left, right]) for op in products]
    out += [Term.node(op.name, [leaf] * n) for op in sig.prime_ops
            if op.graph.n == n]
    return out


def f_graph_shapes(sig: Signature, max_n: int, rng: Random) -> list[LabeledGraph]:
    """One f-graph over sig per isomorphism class of its unlabelled graph on
    1..max_n vertices, with letters drawn from rng.  Prime operations are
    applied to leaves only, so every class is found while max_n is at most
    the smallest prime arity."""
    out = []
    for n in range(1, max_n + 1):
        perms = list(itertools.permutations(range(1, n + 1)))
        seen = set()
        for term in _terms(sig, n):
            g = eval_term(sig, term)
            key = min(tuple(sorted((p[u - 1], p[v - 1]) for u, v in g.edges))
                      for p in perms)
            if key not in seen:
                seen.add(key)
                letters = {v: rng.choice(sig.alphabet.symbols) for v in g.vertices}
                out.append(LabeledGraph.build(g.vertices, g.edges, letters))
    return out


def graphs_with_a_prime_node(sig: Signature, count: int, sizes: range,
                             rng: Random) -> list[LabeledGraph]:
    """count random f-graphs over sig, each with a vertex count in sizes
    and a prime node in its tree."""
    out = []
    while len(out) < count:
        g = random_f_graph(rng, sig, max_depth=3, max_leaves=max(sizes))
        if g.n in sizes and any(n.kind is NodeKind.PRIME
                                for n in decompose(g, sig).nodes()):
            out.append(g)
    return out


def theta_disagreements(schema: TransductionSchema, g: LabeledGraph,
                        rng: Random, false_samples: int = 16) -> list[str]:
    """Every answer of psi and theta on g that differs from the tree's, as
    text; empty when all agree.  One checker, with the default budget,
    answers every check on g, and a tuple of pairs that both
    representative rules produce is checked once."""
    sig = schema.signature
    t = binarize(decompose(g, sig))
    enc = compute_encoding(t, classify_nodes(t, sig))
    rsig, rels, nodes = tree_relations(t, sig)
    assert rsig == schema.tree_signature
    index = {n.module: i for i, n in enumerate(nodes)}
    chk = ModelChecker(graph_structure(g, sig.alphabet.symbols))
    at = chk.index
    answers: dict[tuple, bool] = {}
    wrong = []

    def theta(name, tup):
        key = (name, tup)
        if key not in answers:
            f = schema.theta(name, tuple(i for _, i in tup))
            answers[key] = chk.check_prepared(
                f, {f"x{j}": at[v] for j, (v, _) in enumerate(tup, 1)})
        return answers[key]

    for rule in (min_vertex_rule, max):
        rep = build_repr(t, enc, rule, sig=sig)
        node = {p: index[m] for p, m in rep.node_of.items()}
        pair_of = {i: p for p, i in node.items()}
        assert len(pair_of) == len(nodes) == len(rep.domain)
        domain = set(rep.domain)
        for i, psi in enumerate(schema.psi):
            xs = chk.to_mask(rep.reps[i])
            for v in g.sorted_vertices():
                if chk.check_prepared(psi, {"x": at[v], f"X{i}": xs}) != ((v, i) in domain):
                    wrong.append(f"{rule.__name__}: psi_{i} at vertex {v}")
        for name, arity in rsig.predicates:
            true = rels[name]
            if arity <= 2:
                tuples = itertools.product(rep.domain, repeat=arity)
            else:
                tuples = [tuple(map(pair_of.__getitem__, tup)) for tup in sorted(true)]
                tuples += _false_tuples(rng, rep.domain, tuples, arity, false_samples)
            for tup in tuples:
                want = tuple(node[p] for p in tup) in true
                if theta(name, tup) != want:
                    wrong.append(f"{rule.__name__}: theta {name} on {tup} is "
                                 f"{not want}, the tree says {want}")
    return wrong


def _false_tuples(rng: Random, domain, true: list[tuple], arity: int,
                  count: int) -> list[tuple]:
    """count distinct tuples of domain pairs outside true, or all of them if
    fewer: half are a true tuple with one place redrawn or two places
    swapped, the rest uniform draws."""
    excluded = set(true)
    room = len(domain) ** arity - len(excluded)
    out = []
    while len(out) < min(count, room):
        if true and rng.random() < 0.5:
            tup = list(rng.choice(true))
            j, k = rng.sample(range(arity), 2)
            if rng.random() < 0.5:
                tup[j], tup[k] = tup[k], tup[j]
            else:
                tup[j] = rng.choice(domain)
            tup = tuple(tup)
        else:
            tup = tuple(rng.choice(domain) for _ in range(arity))
        if tup not in excluded:
            excluded.add(tup)
            out.append(tup)
    return out
