"""Seeded inputs for the benchmark, made without the program under test.

Terms are generated here as nested tuples and handed to the program as
text; the graphs they denote are also evaluated here, by the benchmark's
own evaluator, so that the program's answers can be compared with a
computation made apart from it.

A term is either a one-letter string (a leaf) or a tuple
``(op, child, child, ...)``.  Generated terms are flat: a ``seq``, ``par``
or ``clique`` node never has a child with the same operation, so every
subterm of a generated term is one node of the graph's decomposition
tree.  Leaves are numbered left to right from 1, as the program's term
evaluator numbers them, so each subterm denotes a contiguous range of
vertex ids.
"""

from __future__ import annotations

import itertools
from random import Random

# prime operation graphs on 1..n: the W-shaped five-vertex dag and the
# three-vertex directed path
PRIMES = {
    "W5": (5, ((1, 2), (3, 2), (3, 4), (5, 4))),
    "P3": (3, ((1, 2), (2, 3))),
}
VARIADIC = ("seq", "par", "clique")
LETTERS = ("a", "b")

SIGNATURES = {
    # name -> operations, in the order of the signature text
    "words": ("seq",),
    "spw5": ("seq", "par", "W5"),
    "scw5": ("seq", "clique", "W5"),
    "spp3": ("seq", "par", "P3"),
    "seq-par-w5-p3": ("seq", "par", "W5", "P3"),
}


def signature_text(name: str, letters: tuple[str, ...] = LETTERS) -> str:
    lines = [f"signature {name}", "alphabet " + " ".join(letters)]
    for op in SIGNATURES[name]:
        if op in PRIMES:
            n, edges = PRIMES[op]
            lines.append(f"prime {op} {n} : "
                         + " ".join(f"{u}->{v}" for u, v in edges))
        else:
            lines.append(f"op {op}")
    return "\n".join(lines) + "\n"


def random_term(rng: Random, ops: tuple[str, ...], leaves: int,
                root: str | None = None, max_children: int = 4,
                parent: str | None = None):
    """A flat term with exactly ``leaves`` leaves, with ``root`` as its
    top operation when given.

    Leaf budgets are split evenly among the children, so that with the
    root operation fixed, the cost of decomposing the term depends on its
    size far more than on the draw.
    """
    if leaves == 1:
        return rng.choice(LETTERS)
    choices = [op for op in ops
               if (op in VARIADIC and op != parent)
               or (op in PRIMES and PRIMES[op][0] <= leaves)]
    op = root if root is not None else rng.choice(choices)
    k = PRIMES[op][0] if op in PRIMES else rng.randint(2, min(max_children, leaves))
    sizes = [leaves // k + (1 if i < leaves % k else 0) for i in range(k)]
    rng.shuffle(sizes)
    return (op,) + tuple(random_term(rng, ops, s, None, max_children, op)
                         for s in sizes)


def term_text(term) -> str:
    if isinstance(term, str):
        return term
    op, kids = term[0], term[1:]
    head = f"prime {op}" if op in PRIMES else op
    return "(" + head + " " + " ".join(term_text(c) for c in kids) + ")"


def term_leaves(term) -> list[str]:
    if isinstance(term, str):
        return [term]
    return [s for c in term[1:] for s in term_leaves(c)]


def _pattern(op: str, k: int) -> list[tuple[int, int]]:
    """Edges between argument positions 0..k-1 that the operation adds."""
    if op == "par":
        return []
    if op == "seq":
        return [(i, j) for i in range(k) for j in range(i + 1, k)]
    if op == "clique":
        return [(i, j) for i in range(k) for j in range(k) if i != j]
    return [(u - 1, v - 1) for u, v in PRIMES[op][1]]


def term_ranges(term) -> list[tuple[object, range]]:
    """Every subterm with the range of vertex ids it denotes, root first."""
    out: list[tuple[object, range]] = []

    def walk(t, start: int) -> int:
        slot = len(out)
        out.append((t, range(0)))
        end = start + 1
        if not isinstance(t, str):
            end = start
            for c in t[1:]:
                end = walk(c, end)
        out[slot] = (t, range(start, end))
        return end

    walk(term, 1)
    return out


def term_graph(term) -> tuple[int, frozenset[tuple[int, int]], dict[int, str]]:
    """The benchmark's own evaluation: vertex count, edges and labels."""
    edges: set[tuple[int, int]] = set()
    labels: dict[int, str] = {}

    def walk(t, start: int) -> int:
        if isinstance(t, str):
            labels[start] = t
            return start + 1
        kids = []
        end = start
        for c in t[1:]:
            nxt = walk(c, end)
            kids.append(range(end, nxt))
            end = nxt
        for i, j in _pattern(t[0], len(kids)):
            edges.update((u, v) for u in kids[i] for v in kids[j])
        return end

    n = walk(term, 1) - 1
    return n, frozenset(edges), labels


def random_digraph(rng: Random, n: int, p: float):
    """Vertices 1..n, each ordered pair an edge with probability p."""
    edges = frozenset((u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                      if u != v and rng.random() < p)
    labels = {v: rng.choice(LETTERS) for v in range(1, n + 1)}
    return n, edges, labels


def graph_text(n: int, edges, labels: dict[int, str], name: str = "g") -> str:
    lines = [f"graph {name}", "alphabet " + " ".join(sorted(set(labels.values())))]
    lines += [f"vertex {v} {labels[v]}" for v in range(1, n + 1)]
    lines += [f"edge {u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def canonical_form(n: int, edges) -> tuple:
    """The least edge list over all relabelings: equal for isomorphic graphs."""
    return min(tuple(sorted((p[u - 1], p[v - 1]) for u, v in edges))
               for p in itertools.permutations(range(1, n + 1)))


def distinct_digraphs(rng: Random, n: int, count: int) -> list[frozenset]:
    """Edge sets of ``count`` pairwise non-isomorphic digraphs on 1..n."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    seen: set[tuple] = set()
    out: list[frozenset] = []
    while len(out) < count:
        edges = frozenset(e for e in pairs if rng.random() < 0.5)
        key = canonical_form(n, edges)
        if key not in seen:
            seen.add(key)
            out.append(edges)
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def flat_term_shapes(ops: tuple[str, ...], leaves: int, parent: str | None = None):
    """Every flat term with ``leaves`` leaves, each leaf written "a"."""
    if leaves == 1:
        yield "a"
        return
    for op in ops:
        if op == parent:
            continue
        arities = ([PRIMES[op][0]] if op in PRIMES
                   else range(2, leaves + 1))
        for k in arities:
            if k > leaves:
                continue
            for sizes in _compositions(leaves, k):
                for kids in itertools.product(
                        *(list(flat_term_shapes(ops, s, op)) for s in sizes)):
                    yield (op,) + kids


def distinct_shapes(ops: tuple[str, ...], leaves: int) -> list:
    """One flat term per isomorphism class of the graphs they denote."""
    seen: set[tuple] = set()
    out = []
    for term in flat_term_shapes(ops, leaves):
        n, edges, _ = term_graph(term)
        key = canonical_form(n, edges)
        if key not in seen:
            seen.add(key)
            out.append(term)
    return out


def relabel_leaves(rng: Random, term):
    """The same shape with seeded leaf letters."""
    if isinstance(term, str):
        return rng.choice(LETTERS)
    return (term[0],) + tuple(relabel_leaves(rng, c) for c in term[1:])
