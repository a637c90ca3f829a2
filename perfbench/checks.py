"""Independent checks of the program's outputs.

Nothing here calls the program's algorithms: every expected value is read
off the benchmark's own generating term or computed from the graph with
bitmasks.  Each check returns a list of problems, empty when the output
is right, so that a test can show a check flags a wrong output.
"""

from __future__ import annotations

from inputs import term_ranges


def term_module_family(term) -> set[frozenset[int]]:
    """Strong modules of a flat term's graph, minus the whole vertex set.

    Each subterm of a flat term is a node of the decomposition tree and
    denotes a contiguous range of vertex ids.
    """
    ranges = term_ranges(term)
    return {frozenset(r) for _, r in ranges[1:]}


def tree_node_count(term, binarized: bool) -> int:
    """Nodes of the (binarized) decomposition tree of a flat term's graph.

    Binarizing turns a seq node with k children into k - 1 seq nodes.
    """
    count = 0
    for t, _ in term_ranges(term):
        if binarized and not isinstance(t, str) and t[0] == "seq":
            count += len(t) - 2
        else:
            count += 1
    return count


def op_count(term, op: str) -> int:
    return sum(1 for t, _ in term_ranges(term)
               if not isinstance(t, str) and t[0] == op)


def adjacency_masks(n: int, edges) -> tuple[list[int], list[int]]:
    """Out- and in-neighbour bitmasks; vertex v is bit v - 1."""
    out_m = [0] * (n + 1)
    in_m = [0] * (n + 1)
    for u, v in edges:
        out_m[u] |= 1 << (v - 1)
        in_m[v] |= 1 << (u - 1)
    return out_m, in_m


def is_module_mask(n: int, out_m: list[int], in_m: list[int], mask: int) -> bool:
    """Every vertex outside sees all of the set or none of it, both ways."""
    for w in range(1, n + 1):
        if mask >> (w - 1) & 1:
            continue
        hit = out_m[w] & mask
        if hit and hit != mask:
            return False
        hit = in_m[w] & mask
        if hit and hit != mask:
            return False
    return True


def to_mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


def check_graph(g, n: int, edges, labels: dict[int, str], what: str) -> list[str]:
    """The program's graph object equals the expected one."""
    if g.vertices != frozenset(range(1, n + 1)):
        return [f"{what}: vertex set differs"]
    if g.edges != edges:
        return [f"{what}: {len(g.edges ^ edges)} edges differ"]
    if g.labels is None or dict(g.labels) != labels:
        return [f"{what}: labels differ"]
    return []


def check_term_tree(tree, term, perm: dict[int, int] | None = None) -> list[str]:
    """A tree of a term's graph encodes exactly the term's module family,
    with vertex v renamed perm[v] when a renaming is given."""
    got = {node.module for node in tree.nodes()} - {tree.root.module}
    want = term_module_family(term)
    if perm is not None:
        want = {frozenset(perm[v] for v in m) for m in want}
    if got != want:
        return [f"module family: {len(want - got)} missing, "
                f"{len(got - want)} unexpected"]
    return []


def check_tree_modules(tree, n: int, edges) -> list[str]:
    """Every node is a module, its children partition it, leaves are
    singletons and the root is the whole vertex set."""
    out_m, in_m = adjacency_masks(n, edges)
    problems = []
    if tree.root.module != frozenset(range(1, n + 1)):
        problems.append("root is not the vertex set")
    for node in tree.nodes():
        mask = to_mask(node.module)
        if not is_module_mask(n, out_m, in_m, mask):
            problems.append(f"node on {sorted(node.module)} is not a module")
        if not node.children:
            if len(node.module) != 1:
                problems.append("a leaf holds more than one vertex")
            continue
        union = 0
        for c in node.children:
            cm = to_mask(c.module)
            if not cm or union & cm:
                problems.append("children overlap or one is empty")
            union |= cm
        if union != mask or len(node.children) < 2:
            problems.append(f"children do not partition {sorted(node.module)}")
    return problems


def parity(count: int) -> str:
    """Carrier element of the parity algebras: q1 for an odd count."""
    return "q1" if count % 2 else "q0"


def check_fold(answer: str, count: int, what: str) -> list[str]:
    if answer != parity(count):
        return [f"{what}: folded to {answer}, expected {parity(count)}"]
    return []


def check_answers(got: list[bool], want: list[bool], what: str) -> list[str]:
    """Two answer lists for the same bindings agree everywhere."""
    if len(got) != len(want):
        return [f"{what}: {len(got)} answers against {len(want)}"]
    wrong = sum(1 for a, b in zip(got, want) if a != b)
    if wrong:
        return [f"{what}: {wrong} of {len(want)} answers disagree"]
    return []
