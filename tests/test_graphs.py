import pytest
from hypothesis import given, settings, strategies as st

from modgraph.errors import EmptySetError, SizeLimitExceeded, VertexNotInGraph
from modgraph.graphs import (Alphabet, LabeledGraph, Permutation,
                             apply_isomorphism, automorphism_group,
                             find_isomorphism, is_internally_disconnected,
                             is_module, is_vertex_transitive)
from modgraph.samples import W5_GRAPH, W5_MIRROR_GRAPH, cycle_graph, word_graph


def digraphs(max_n=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        labels = {v: draw(st.sampled_from("ab")) for v in range(1, n + 1)}
        return LabeledGraph.build(range(1, n + 1), edges, labels)
    return build()


class TestLabeledGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            LabeledGraph.build([1, 2], [(1, 1)], {1: "a", 2: "a"})

    def test_rejects_dangling_edge(self):
        with pytest.raises(VertexNotInGraph):
            LabeledGraph.build([1, 2], [(1, 3)], {1: "a", 2: "a"})

    def test_rejects_partial_labeling(self):
        with pytest.raises(ValueError):
            LabeledGraph.build([1, 2], [], {1: "a"})

    @pytest.mark.parametrize("parts, error", [
        (([1, 2], [(1, 1)], {1: "a", 2: "a"}), ValueError),
        (([1, 2], [(1, 3)], {1: "a", 2: "a"}), VertexNotInGraph),
        (([1, 2], [], {1: "a"}), ValueError),
    ], ids=["self-loop", "dangling-edge", "partial-labeling"])
    def test_public_constructor_validates(self, parts, error):
        vertices, edges, labels = parts
        with pytest.raises(error):
            LabeledGraph(frozenset(vertices), frozenset(edges), labels)
        with pytest.raises(error):
            LabeledGraph.build(vertices, edges, labels)

    def test_derived_graphs_equal_validated_ones(self):
        # induced, compose_graph, eval_term and reconstruct skip the checks;
        # their graphs pass them and equal the validated construction
        import random
        from modgraph.generators import random_term
        from modgraph.mdec import decompose, reconstruct
        from modgraph.samples import spw5_signature
        from modgraph.signature import compose_graph, eval_term
        sig = spw5_signature(("a", "b"))
        rng = random.Random(77)
        for _ in range(40):
            g = eval_term(sig, random_term(rng, sig, max_depth=4, max_leaves=9))
            h = compose_graph(W5_GRAPH, [g] * 5)
            derived = [g, h, reconstruct(decompose(g, sig)),
                       h.induced(rng.sample(sorted(h.vertices), h.n // 2))]
            for d in derived:
                checked = LabeledGraph(d.vertices, d.edges, d.labels)
                assert d == checked and hash(d) == hash(checked)

    def test_equality_is_set_equality(self):
        g = LabeledGraph.build([1, 2], [(1, 2)], {1: "a", 2: "b"})
        h = LabeledGraph.build([2, 1], [(1, 2)], {2: "b", 1: "a"})
        assert g == h
        assert g != LabeledGraph.build([1, 2], [(2, 1)], {1: "a", 2: "b"})

    def test_alphabet_invariants(self):
        with pytest.raises(ValueError):
            Alphabet(())
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))


class TestModules:
    def test_full_vertex_set_is_module(self):
        g = word_graph("ab")
        assert is_module(g, g.vertices)

    def test_singleton_is_module(self):
        g = word_graph("ab")
        assert is_module(g, {1})

    def test_path_endpoints_not_module(self):
        # vertex 2 receives an edge from 1 but not from 3
        g = LabeledGraph.build([1, 2, 3], [(1, 2), (2, 3)],
                               {1: "a", 2: "a", 3: "a"})
        assert not is_module(g, {1, 3})

    def test_unknown_vertex(self):
        with pytest.raises(VertexNotInGraph):
            is_module(word_graph("ab"), {1, 9})

    def test_disconnected_singleton(self):
        assert not is_internally_disconnected(word_graph("a"), {1})

    def test_disconnected_two_isolated(self):
        g = LabeledGraph.build([1, 2], [], {1: "a", 2: "b"})
        assert is_internally_disconnected(g, {1, 2})

    def test_connected_single_edge(self):
        assert not is_internally_disconnected(word_graph("ab"), {1, 2})

    def test_empty_set_errors(self):
        with pytest.raises(EmptySetError):
            is_internally_disconnected(word_graph("ab"), set())


class TestIsomorphism:
    def test_mirror_is_transposition(self):
        sigma = find_isomorphism(W5_MIRROR_GRAPH, W5_GRAPH, respect_labels=False)
        assert str(sigma) == "(1 5)"

    def test_identity_on_equal_graphs(self):
        g = word_graph("ab")
        assert find_isomorphism(g, g).is_identity()

    def test_edge_count_mismatch(self):
        g = LabeledGraph.build([1, 2], [(1, 2)], {1: "a", 2: "a"})
        h = LabeledGraph.build([1, 2], [], {1: "a", 2: "a"})
        assert find_isomorphism(g, h) is None

    def test_labels_respected(self):
        g = LabeledGraph.build([1, 2], [(1, 2)], {1: "a", 2: "b"})
        h = LabeledGraph.build([1, 2], [(1, 2)], {1: "b", 2: "a"})
        assert find_isomorphism(g, h) is None
        assert find_isomorphism(g, h, respect_labels=False) is not None

    def test_size_limit(self):
        g = cycle_graph(9)
        with pytest.raises(SizeLimitExceeded):
            find_isomorphism(g, g)

    @settings(max_examples=40, deadline=None)
    @given(digraphs())
    def test_found_map_carries_graph(self, g):
        sigma = find_isomorphism(g, g, respect_labels=False)
        assert sigma is not None
        assert apply_isomorphism(g, sigma) == LabeledGraph(g.vertices, g.edges, None) \
            or apply_isomorphism(g, sigma).edges == g.edges


class TestAutomorphisms:
    def test_w5_group(self):
        aut = automorphism_group(W5_GRAPH)
        assert {str(p) for p in aut.elements} == {"id", "(1 5)(2 4)"}
        assert aut.orbits == (frozenset({1, 5}), frozenset({2, 4}), frozenset({3}))

    def test_directed_4cycle_rotations(self):
        aut = automorphism_group(cycle_graph(4))
        assert len(aut.elements) == 4
        rot = Permutation((2, 3, 4, 1))
        assert {rot, rot.compose(rot), rot.compose(rot).compose(rot),
                Permutation.identity(4)} == set(aut.elements)

    def test_single_edge_rigid(self):
        g = LabeledGraph.on_range(2, [(1, 2)])
        assert {str(p) for p in automorphism_group(g).elements} == {"id"}

    def test_vertex_transitive(self):
        assert is_vertex_transitive(cycle_graph(3))
        assert not is_vertex_transitive(W5_GRAPH)
        assert is_vertex_transitive(LabeledGraph.on_range(1, []))

    @settings(max_examples=30, deadline=None)
    @given(digraphs(5))
    def test_group_closed_under_composition(self, g):
        els = automorphism_group(g).elements
        assert all(a.compose(b) in els for a in els for b in els)
        assert Permutation.identity(g.n) in els


class TestPermutation:
    def test_cycles_roundtrip(self):
        p = Permutation((5, 4, 3, 2, 1))
        assert p.cycles() == [(1, 5), (2, 4)]
        assert str(p) == "(1 5)(2 4)"
        assert p.compose(p).is_identity()

    def test_inverse(self):
        p = Permutation((2, 3, 1))
        assert p.compose(p.inverse()).is_identity()

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
