"""Referee of the leaf encoding: ``compute_encoding``, the relation lifting
of ``build_repr``/``build_repr0`` and ``verify_isomorphism``.

The three stages written on frozenset modules and ``MDecNode`` keys: kappa
by a walk from each leaf up to the root, relations lifted by one
``itertools.product`` per tree tuple, and the isomorphism test on tuples
of modules.  Tests require the index-based stages of
``modgraph.transduction`` to give identical tables, structures and
verdicts.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from modgraph.cms import RelationalSignature, tree_relations
from modgraph.mdec import MDecNode, MDecPrimeTree, NodeKind
from modgraph.signature import Signature
from modgraph.transduction import (PAIR, EncodingTables, NodeClassification,
                                   ReprStructure, min_vertex_rule)


def _distinguished_children(node: MDecNode) -> frozenset[MDecNode]:
    if node.kind is NodeKind.SEQ:
        return frozenset([node.children[0]])
    return frozenset(node.children[i - 1] for i in node.op.symmetry.distinguished)


def referee_compute_encoding(t: MDecPrimeTree,
                             cls: NodeClassification) -> EncodingTables:
    """nu/mu by their defining clauses, kappa by walking each root path."""
    nu: dict[MDecNode, frozenset[int]] = {}
    mu: tuple[dict[MDecNode, frozenset[int]], ...] = ({}, {}, {}, {})
    dist: dict[MDecNode, frozenset[MDecNode]] = {}

    for node in reversed(t.nodes()):  # children before parents
        i = cls.classes[node]
        if i == 0:
            (v,) = node.module
            nu[node] = mu[0][node] = frozenset([v])
        elif i == 1:
            kids = frozenset(v for c in node.children for v in c.module)
            nu[node] = mu[1][node] = kids
        elif i == 2:
            nu[node] = frozenset().union(*(nu[c] for c in node.children))
            inner = [c for c in node.children if not c.is_leaf]
            mu[2][node] = frozenset().union(*(mu[3][c] for c in inner))
        else:
            dist[node] = _distinguished_children(node)
            non_dist = [c for c in node.children if c not in dist[node]]
            nu[node] = frozenset().union(*(nu[c] for c in non_dist))
            mu[3][node] = frozenset().union(*(nu[c] for c in dist[node]))

    parents = t.parents()
    kappa: tuple[dict[int, MDecNode], ...] = ({}, {}, {}, {})
    rho: dict[int, tuple[MDecNode, ...]] = {}
    for v, leaf in t.leaf_of.items():
        path = [leaf]
        while path[-1] in parents:
            path.append(parents[path[-1]])
        rho[v] = tuple(path)
        kappa[0][v] = leaf
        if len(path) > 1:
            parent = path[1]
            if cls.classes[parent] == 1:
                kappa[1][v] = parent
        for child, node in zip(path, path[1:]):
            if cls.classes[node] == 3 and child in dist[node]:
                kappa[3][v] = node
                pos = path.index(node)
                if pos + 1 < len(path) and cls.classes[path[pos + 1]] == 2:
                    kappa[2][v] = path[pos + 1]
                break

    for i in range(4):
        fibers: dict[MDecNode, set[int]] = {}
        for v, node in kappa[i].items():
            fibers.setdefault(node, set()).add(v)
        expected = {node: set(vs) for node, vs in mu[i].items()}
        if fibers != expected:
            raise AssertionError(
                f"kappa_{i} fibers disagree with mu_{i}; encoding is broken")
    for node, s in nu.items():
        if not s:
            raise AssertionError("empty nu set")
    return EncodingTables(cls, nu, mu, kappa, rho)


def _lift_relations(t: MDecPrimeTree, fibers: dict[MDecNode, list[PAIR]],
                    sig: Optional[Signature],
                    ) -> tuple[RelationalSignature, dict[str, frozenset]]:
    """Transport the tree relations through the kappa fibers."""
    rsig, rels, nodes = tree_relations(t, sig)
    by_index = [fibers.get(n, ()) for n in nodes]
    lifted: dict[str, frozenset] = {}
    for name, tuples in rels.items():
        out = set()
        for tup in tuples:
            out.update(itertools.product(*(by_index[i] for i in tup)))
        lifted[name] = frozenset(out)
    return rsig, lifted


def referee_build_repr0(t: MDecPrimeTree, enc: EncodingTables,
                        sig: Optional[Signature] = None) -> ReprStructure:
    fibers: dict[MDecNode, list[PAIR]] = {}
    node_of: dict[PAIR, frozenset[int]] = {}
    for i in range(4):
        for v, node in enc.kappa[i].items():
            fibers.setdefault(node, []).append((v, i))
            node_of[(v, i)] = node.module
    rsig, lifted = _lift_relations(t, fibers, sig)
    return ReprStructure(rsig, tuple(sorted(node_of)), lifted, node_of)


def referee_build_repr(t: MDecPrimeTree, enc: EncodingTables,
                       rule: Callable[[frozenset[int]], int] = min_vertex_rule,
                       sig: Optional[Signature] = None) -> ReprStructure:
    reps: list[set[int]] = [set(), set(), set(), set()]
    fibers: dict[MDecNode, list[PAIR]] = {}
    node_of: dict[PAIR, frozenset[int]] = {}
    for i in range(4):
        inverse: dict[MDecNode, set[int]] = {}
        for v, node in enc.kappa[i].items():
            inverse.setdefault(node, set()).add(v)
        for node, fiber in inverse.items():
            v = rule(frozenset(fiber))
            if v not in fiber:
                raise ValueError("representative rule left the fiber")
            reps[i].add(v)
            fibers.setdefault(node, []).append((v, i))
            node_of[(v, i)] = node.module
    rsig, lifted = _lift_relations(t, fibers, sig)
    return ReprStructure(rsig, tuple(sorted(node_of)), lifted, node_of,
                         reps=tuple(frozenset(r) for r in reps))


def referee_verify_isomorphism(r: ReprStructure, t: MDecPrimeTree,
                               sig: Optional[Signature] = None) -> bool:
    """pair -> module of its kappa image is a bijection onto the tree's
    modules that carries every relation onto the tree's, compared as
    tuples of modules."""
    rsig, rels, nodes = tree_relations(t, sig)
    modules = [n.module for n in nodes]
    image = [r.node_of[p] for p in r.domain]
    if len(set(image)) != len(image) or set(image) != set(modules):
        return False
    if set(dict(rsig.predicates)) != set(dict(r.signature.predicates)):
        return False
    for name, tuples in rels.items():
        tree_side = {tuple(modules[i] for i in tup) for tup in tuples}
        repr_side = {tuple(r.node_of[p] for p in tup)
                     for tup in r.relations.get(name, frozenset())}
        if tree_side != repr_side:
            return False
    return True
