import pytest
from hypothesis import given, settings, strategies as st

from modgraph.cms import graph_signature, parse_formula
from modgraph.errors import FormatError, FormulaSyntaxError, ModgraphError
from modgraph.formats import (algebra_to_text, graph_to_text, parse_algebra,
                              parse_graph, parse_signature, parse_term,
                              signature_to_text, term_to_text)
from modgraph.recognizer import validate_algebra
from modgraph.samples import parity_algebra, spw5_signature, word_graph
from modgraph.signature import OpKind, eval_term

GRAPH_TEXT = """\
# a two-letter word
graph ab
alphabet a b
vertex 1 a
vertex 2 b
edge 1 2
"""

SIG_TEXT = """\
signature spw5
alphabet a b
op seq
op par
prime W5 5 : 1->2 3->2 3->4 5->4
"""


class TestGraphFormat:
    def test_parse(self):
        g = parse_graph(GRAPH_TEXT)
        assert g == word_graph("ab")

    def test_roundtrip(self):
        g = word_graph("aba")
        assert parse_graph(graph_to_text(g)) == g

    def test_rejects_self_loop_with_line(self):
        text = GRAPH_TEXT + "edge 2 2\n"
        with pytest.raises(FormatError) as exc:
            parse_graph(text)
        assert exc.value.line == 7

    def test_rejects_duplicate_vertex(self):
        text = GRAPH_TEXT.replace("vertex 2 b", "vertex 1 b")
        with pytest.raises(FormatError) as exc:
            parse_graph(text)
        assert exc.value.line == 5

    def test_rejects_unknown_label(self):
        text = GRAPH_TEXT.replace("vertex 2 b", "vertex 2 z")
        with pytest.raises(FormatError) as exc:
            parse_graph(text)
        assert exc.value.line == 5

    def test_rejects_dangling_edge(self):
        with pytest.raises(FormatError):
            parse_graph(GRAPH_TEXT + "edge 1 9\n")


class TestSignatureFormat:
    def test_parse(self):
        sig = parse_signature(SIG_TEXT)
        assert [op.name for op in sig.ops] == ["seq", "par", "W5"]
        assert sig.op("W5").kind is OpKind.PRIME
        assert sig.op("W5").graph.edges == frozenset(
            {(1, 2), (3, 2), (3, 4), (5, 4)})

    def test_roundtrip(self):
        sig = spw5_signature()
        again = parse_signature(signature_to_text(sig))
        assert [op.name for op in again.ops] == [op.name for op in sig.ops]
        assert again.op("W5").graph == sig.op("W5").graph

    def test_rejects_bad_edge_token(self):
        with pytest.raises(FormatError) as exc:
            parse_signature("alphabet a\nprime X 3 : 1=>2\n")
        assert exc.value.line == 2

    def test_rejects_non_prime(self):
        with pytest.raises(FormatError):
            parse_signature("alphabet a\nprime bad 3 : 1->2 2->1 2->3 3->2 1->3 3->1\n")

    def test_rejects_unknown_directive(self):
        with pytest.raises(FormatError):
            parse_signature("alphabet a\nfrobnicate\n")


class TestTermFormat:
    def test_parse_builtin(self):
        sig = spw5_signature()
        t = parse_term("(seq a (par b a))", sig)
        g = eval_term(sig, t)
        assert g.n == 3 and len(g.edges) == 2

    def test_parse_prime(self):
        sig = spw5_signature()
        t = parse_term("(prime W5 a b a b a)", sig)
        assert eval_term(sig, t).n == 5

    def test_roundtrip(self):
        sig = spw5_signature()
        t = parse_term("(seq a (par b a) (prime W5 a a a a a))", sig)
        assert parse_term(term_to_text(t), sig) == t

    def test_arity_checked(self):
        with pytest.raises(FormulaSyntaxError):
            parse_term("(prime W5 a b)", spw5_signature())

    def test_unknown_symbol(self):
        with pytest.raises(FormulaSyntaxError):
            parse_term("(seq a z)", spw5_signature())


ALGEBRA_TEXT = """\
algebra parity
carrier q0 q1
letter a -> q1
letter b -> q0
op seq : q0 q0 -> q0
op seq : q0 q1 -> q1
op seq : q1 q0 -> q1
op seq : q1 q1 -> q0
accept q0
"""


class TestAlgebraFormat:
    def test_parse_and_validate(self):
        from modgraph.samples import seq_signature
        alg = parse_algebra(ALGEBRA_TEXT, seq_signature())
        assert validate_algebra(alg).ok
        assert alg.letter_image == {"a": "q1", "b": "q0"}

    def test_roundtrip(self):
        from modgraph.samples import seq_signature
        alg = parity_algebra()
        again = parse_algebra(algebra_to_text(alg), seq_signature())
        assert again.tables == alg.tables
        assert again.accepting == alg.accepting

    def test_rejects_unknown_carrier_element(self):
        from modgraph.samples import seq_signature
        with pytest.raises(FormatError) as exc:
            parse_algebra(ALGEBRA_TEXT.replace("accept q0", "accept q7"),
                          seq_signature())
        assert exc.value.line == 9

    def test_rejects_duplicate_row(self):
        from modgraph.samples import seq_signature
        with pytest.raises(FormatError):
            parse_algebra(ALGEBRA_TEXT + "op seq : q0 q0 -> q1\n",
                          seq_signature())

    def test_rejects_partial_table(self):
        from modgraph.samples import seq_signature
        text = "\n".join(l for l in ALGEBRA_TEXT.splitlines()
                         if not l.startswith("op seq : q1 q1")) + "\n"
        with pytest.raises(FormatError):
            parse_algebra(text, seq_signature())


# Token soups per format: the format's own keywords and punctuation, names
# and numbers in and out of range, comment marks and line breaks.
SOUP_SIG = spw5_signature()
TOKENS = {
    "graph": ("graph", "alphabet", "vertex", "edge", "a", "b", "1", "2", "3",
              "0", "-1", "x", "#", "\n"),
    "signature": ("signature", "alphabet", "op", "prime", "par", "seq",
                  "clique", "W5", ":", "1->2", "2->3", "3->1", "2->1", "1->1",
                  "9->1", "2", "3", "5", "0", "a", "b", "#", "\n"),
    "term": ("(", ")", "seq", "par", "clique", "prime", "W5", "P3", "a", "b",
             "z"),
    "algebra": ("algebra", "carrier", "letter", "op", "accept", "->", ":",
                "q0", "q1", "seq", "par", "W5", "a", "b", "#", "\n"),
    "formula": ("(", ")", "exists", "forall", "existsset", "forallset",
                "existsmod", "and", "or", "not", "implies", "in", "=", "edge",
                "label_a", "x", "y", "X", "0", "1", "2", "#", "\n"),
}
PARSERS = {
    "graph": parse_graph,
    "signature": parse_signature,
    "term": lambda text: parse_term(text, SOUP_SIG),
    "algebra": lambda text: parse_algebra(text, SOUP_SIG),
    "formula": lambda text: parse_formula(text, graph_signature(("a", "b"))),
}


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_only_package_errors_escape_parsers(kind, data):
    soup = st.lists(st.sampled_from(TOKENS[kind]), max_size=40).map(" ".join)
    text = data.draw(st.one_of(soup, st.text(max_size=40)))
    try:
        PARSERS[kind](text)
    except ModgraphError:
        pass
