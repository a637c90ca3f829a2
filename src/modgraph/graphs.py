"""Concrete labeled digraphs, modules, isomorphism and automorphism search.

Graphs are finite, directed, vertex-labeled and never have self-loops.
Vertex ids are arbitrary positive integers; graphs used as operation
syntax live on the canonical vertex set 1..n and carry no labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from .errors import EmptySetError, SizeLimitExceeded, VertexNotInGraph

if TYPE_CHECKING:
    from .mdec import Rows

DEFAULT_SEARCH_BOUND = 8


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free collection of vertex label names."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")

    def __contains__(self, sym: str) -> bool:
        return sym in self.symbols

    def __iter__(self):
        return iter(self.symbols)


@dataclass(frozen=True)
class LabeledGraph:
    """Concrete digraph with an optional total vertex labeling.

    Equality is set equality of (vertices, edges, labeling); isomorphism
    is a separate notion, see :func:`find_isomorphism`.

    ``rows``, the bitmask adjacency that modular decomposition works on
    (``mdec.Rows``), is built from the edges the first time it is read
    and kept with the graph; ``signature.eval_term`` gives the graphs it
    builds their rows from the term's structure instead.
    """

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    labels: Optional[Mapping[int, str]] = field(default=None, hash=False)

    def __post_init__(self):
        for v in self.vertices:
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"vertex ids must be positive integers, got {v!r}")
        for (u, v) in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in self.vertices or v not in self.vertices:
                raise VertexNotInGraph(f"edge ({u},{v}) leaves the vertex set")
        if self.labels is not None and set(self.labels) != self.vertices:
            raise ValueError("labeling must be defined on exactly the vertex set")

    @classmethod
    def _trusted(cls, vertices: frozenset[int], edges: frozenset[tuple[int, int]],
                 labels: Optional[Mapping[int, str]],
                 rows: Optional["Rows"] = None) -> "LabeledGraph":
        """A graph made from parts that are valid by construction, without
        the checks of ``__post_init__``: for graphs derived from valid
        graphs, terms and trees (``induced``, ``compose_graph``,
        ``eval_term``, ``reconstruct``, the prime quotients of
        ``mdec.Rows.quotient``) or checked as they are read
        (``formats.parse_graph``).  rows, when given, must be the rows of
        these edges; they are kept as the graph's ``rows``."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "labels", labels)
        if rows is not None:
            object.__setattr__(g, "_rows", rows)
        return g

    @property
    def rows(self) -> "Rows":
        """The graph's bitmask adjacency rows, built from its edges on
        first use and kept with the graph."""
        # set with object.__setattr__, never through the instance dict:
        # reading __dict__ materializes it, and every attribute read and
        # every hash of the graph then takes longer
        try:
            return self._rows
        except AttributeError:
            from .mdec import Rows
            object.__setattr__(self, "_rows", Rows(self))
            return self._rows

    @staticmethod
    def build(vertices: Iterable[int], edges: Iterable[tuple[int, int]],
              labels: Optional[Mapping[int, str]] = None) -> "LabeledGraph":
        lab = dict(labels) if labels is not None else None
        return LabeledGraph(frozenset(vertices), frozenset(tuple(e) for e in edges), lab)

    @staticmethod
    def single_vertex(symbol: str, vid: int = 1) -> "LabeledGraph":
        return LabeledGraph(frozenset([vid]), frozenset(), {vid: symbol})

    @staticmethod
    def on_range(n: int, edges: Iterable[tuple[int, int]]) -> "LabeledGraph":
        """Unlabeled concrete graph on the vertex set 1..n."""
        return LabeledGraph(frozenset(range(1, n + 1)), frozenset(edges), None)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)

    def out_adj(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for (u, v) in self.edges:
            adj[u].add(v)
        return adj

    def in_adj(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for (u, v) in self.edges:
            adj[v].add(u)
        return adj

    def induced(self, x: Iterable[int]) -> "LabeledGraph":
        xs = frozenset(x)
        missing = xs - self.vertices
        if missing:
            raise VertexNotInGraph(f"vertices {sorted(missing)} not in graph")
        edges = frozenset((u, v) for (u, v) in self.edges if u in xs and v in xs)
        labels = {v: self.labels[v] for v in xs} if self.labels is not None else None
        return LabeledGraph._trusted(xs, edges, labels)

    def is_dag(self) -> bool:
        adj = self.out_adj()
        seen: dict[int, int] = {}  # 1 = on stack, 2 = done

        def visit(v) -> bool:
            seen[v] = 1
            for w in adj[v]:
                s = seen.get(w)
                if s == 1 or (s is None and not visit(w)):
                    return False
            seen[v] = 2
            return True

        return all(visit(v) for v in self.vertices if v not in seen)

    def is_transitive(self) -> bool:
        es = self.edges
        return all((u, w) in es for (u, v) in es for (v2, w) in es
                   if v == v2 and u != w)

    def __str__(self):
        verts = ", ".join(
            f"{v}:{self.labels[v]}" if self.labels else str(v)
            for v in self.sorted_vertices())
        edges = ", ".join(f"{u}->{v}" for (u, v) in sorted(self.edges))
        return f"Graph([{verts}] ; [{edges}])"


def _check_subset(g: LabeledGraph, x: Iterable[int]) -> frozenset[int]:
    xs = frozenset(x)
    missing = xs - g.vertices
    if missing:
        raise VertexNotInGraph(f"vertices {sorted(missing)} not in graph")
    return xs


def is_module(g: LabeledGraph, x: Iterable[int]) -> bool:
    """True iff x interacts uniformly with its complement in both directions."""
    xs = _check_subset(g, x)
    out_adj = g.out_adj()
    for v in g.vertices - xs:
        to_x = out_adj[v] & xs
        if to_x and to_x != xs:
            return False
        from_x = {u for u in xs if v in out_adj[u]}
        if from_x and from_x != xs:
            return False
    return True


def undirected_components(g: LabeledGraph, x: Optional[Iterable[int]] = None) -> list[frozenset[int]]:
    """Connected components of the induced subgraph, ignoring edge direction."""
    xs = _check_subset(g, x) if x is not None else g.vertices
    adj: dict[int, set[int]] = {v: set() for v in xs}
    for (u, v) in g.edges:
        if u in xs and v in xs:
            adj[u].add(v)
            adj[v].add(u)
    return _components_of(xs, adj)


def _components_of(xs: frozenset[int], adj: dict[int, set[int]]) -> list[frozenset[int]]:
    comps = []
    todo = set(xs)
    while todo:
        start = min(todo)
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        todo -= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def is_internally_disconnected(g: LabeledGraph, x: Iterable[int]) -> bool:
    """True iff x splits into non-empty halves with no edges between them."""
    xs = _check_subset(g, x)
    if not xs:
        raise EmptySetError("connectivity of the empty set is undefined")
    return len(undirected_components(g, xs)) > 1


@dataclass(frozen=True)
class Permutation:
    """Bijection of 1..n, stored as the image tuple (image[i-1] = sigma(i))."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.image}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def from_cycles(n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        image = list(range(1, n + 1))
        for cyc in cycles:
            cyc = list(cyc)
            for i, v in enumerate(cyc):
                image[v - 1] = cyc[(i + 1) % len(cyc)]
        return Permutation(tuple(image))

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.image[j - 1] for j in other.image))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.image, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(self.image[i] == i + 1 for i in range(self.n))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self):
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


def apply_isomorphism(g: LabeledGraph, sigma: Permutation,
                      target_ids: Optional[list[int]] = None) -> LabeledGraph:
    """Rename g's vertices by sigma, positionally over sorted vertex ids.

    The k-th smallest vertex of g is sent to the sigma(k)-th smallest id of
    target_ids (defaults to g's own ids).
    """
    src = g.sorted_vertices()
    dst = sorted(target_ids) if target_ids is not None else src
    if len(src) != len(dst) or sigma.n != len(src):
        raise ValueError("degree mismatch")
    ren = {src[k]: dst[sigma(k + 1) - 1] for k in range(len(src))}
    labels = {ren[v]: g.labels[v] for v in src} if g.labels is not None else None
    return LabeledGraph(frozenset(dst),
                        frozenset((ren[u], ren[v]) for (u, v) in g.edges),
                        labels)


def _iso_search(g: LabeledGraph, h: LabeledGraph, respect_labels: bool,
                find_all: bool) -> list[dict[int, int]]:
    """Backtracking search for edge-(and optionally label-)preserving bijections."""
    gv, hv = g.sorted_vertices(), h.sorted_vertices()
    if len(gv) != len(hv) or len(g.edges) != len(h.edges):
        return []
    g_out, g_in = g.out_adj(), g.in_adj()
    h_out, h_in = h.out_adj(), h.in_adj()

    def sig(v, out, inn, labels):
        lab = labels[v] if (respect_labels and labels is not None) else None
        return (len(out[v]), len(inn[v]), lab)

    if sorted(sig(v, g_out, g_in, g.labels) for v in gv) != \
       sorted(sig(v, h_out, h_in, h.labels) for v in hv):
        return []

    # most-constrained-first: high degree vertices drive pruning
    order = sorted(gv, key=lambda v: -(len(g_out[v]) + len(g_in[v])))
    if not order:
        return [{}]
    wanted = [sig(u, g_out, g_in, g.labels) for u in order]
    results: list[dict[int, int]] = []
    mapping: dict[int, int] = {}
    used: set[int] = set()
    # depth-first with one candidate iterator per assigned level
    levels = [iter(hv)]
    while levels:
        k = len(levels) - 1
        u = order[k]
        if u in mapping:  # back at this level: undo its last choice
            used.discard(mapping.pop(u))
        for w in levels[-1]:
            if w in used or sig(w, h_out, h_in, h.labels) != wanted[k]:
                continue
            if all((u2 in g_out[u]) == (w2 in h_out[w])
                   and (u2 in g_in[u]) == (w2 in h_in[w])
                   for u2, w2 in mapping.items()):
                mapping[u] = w
                used.add(w)
                break
        else:
            levels.pop()
            continue
        if k + 1 < len(order):
            levels.append(iter(hv))
        else:
            results.append(dict(mapping))
            if not find_all:
                break
    return results


def find_isomorphism(g: LabeledGraph, h: LabeledGraph, respect_labels: bool = True,
                     max_vertices: Optional[int] = DEFAULT_SEARCH_BOUND,
                     ) -> Optional[Permutation]:
    """Vertex bijection carrying g exactly onto h, or None.

    The returned permutation acts positionally: the k-th smallest vertex of
    g maps to the sigma(k)-th smallest vertex of h.  The search refuses
    graphs beyond max_vertices; None searches without a bound, as done for
    operation graphs and the quotients matched against them.
    """
    if max_vertices is not None and max(g.n, h.n) > max_vertices:
        raise SizeLimitExceeded(
            f"isomorphism search limited to {max_vertices} vertices")
    found = _iso_search(g, h, respect_labels, find_all=False)
    if not found:
        return None
    gv, hv = g.sorted_vertices(), h.sorted_vertices()
    pos_h = {v: i + 1 for i, v in enumerate(hv)}
    mapping = found[0]
    return Permutation(tuple(pos_h[mapping[v]] for v in gv))


@dataclass(frozen=True)
class AutomorphismGroup:
    """Full automorphism group of a graph, with its orbit partition."""

    graph: LabeledGraph
    elements: frozenset[Permutation]
    orbits: tuple[frozenset[int], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def automorphism_group(h: LabeledGraph, respect_labels: bool = False,
                       max_vertices: Optional[int] = DEFAULT_SEARCH_BOUND,
                       ) -> AutomorphismGroup:
    """All edge-preserving vertex bijections of h, plus the orbit partition.

    Bounded like :func:`find_isomorphism`; None searches without a bound.
    """
    if max_vertices is not None and h.n > max_vertices:
        raise SizeLimitExceeded(
            f"automorphism search limited to {max_vertices} vertices")
    hv = h.sorted_vertices()
    pos = {v: i + 1 for i, v in enumerate(hv)}
    perms = set()
    for mapping in _iso_search(h, h, respect_labels, find_all=True):
        perms.add(Permutation(tuple(pos[mapping[v]] for v in hv)))

    parent = {v: v for v in hv}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for sigma in perms:
        for k, v in enumerate(hv, start=1):
            a, b = root(v), root(hv[sigma(k) - 1])
            if a != b:
                parent[a] = b
    groups: dict[int, set[int]] = {}
    for v in hv:
        groups.setdefault(root(v), set()).add(v)
    orbits = tuple(sorted((frozenset(s) for s in groups.values()), key=min))
    return AutomorphismGroup(h, frozenset(perms), orbits)


def is_vertex_transitive(g: LabeledGraph,
                         max_vertices: int = DEFAULT_SEARCH_BOUND) -> bool:
    """True iff the automorphism group has a single orbit."""
    return len(automorphism_group(g, max_vertices=max_vertices).orbits) == 1
