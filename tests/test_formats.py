import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from modgraph import cli
from modgraph.cms import graph_signature, parse_formula
from modgraph.errors import FormatError, FormulaSyntaxError, ModgraphError
from modgraph.formats import (algebra_to_text, graph_to_text, parse_algebra,
                              parse_graph, parse_signature, parse_term,
                              signature_to_text, term_to_text)
from modgraph.recognizer import validate_algebra
from modgraph.samples import (parity_algebra, scw5_signature, spw5_signature,
                              word_graph, word_term)
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

    def test_dangling_edge_names_the_first_line(self):
        # an edge may name a vertex declared after it
        text = GRAPH_TEXT + "edge 3 1  # 3 comes later\nedge 2 8\nedge 1 9\nvertex 3 a\n"
        with pytest.raises(FormatError) as exc:
            parse_graph(text)
        assert str(exc.value) == "line 8: edge (2,8) uses an undeclared vertex"
        g = parse_graph(GRAPH_TEXT + "edge 3 1\nvertex 3 a\n")
        assert g.edges == {(1, 2), (3, 1)} and g.labels[3] == "a"


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

    @pytest.mark.parametrize("text, message", [
        ("(seq a", "1:4: unexpected end of term"),
        (")", "1:2: unexpected ')'"),
        ("", "1:1: unexpected end of term"),
        ("(seq a b) a", "1:6: trailing input after term"),
        ("a b", "1:2: trailing input after term"),
        ("(foo a b)", "1:3: unknown operation 'foo'"),
        ("((seq a b) a)", "1:3: unknown operation '('"),
        ("(prime P3 a b c)", "1:4: unknown prime operation 'P3'"),
        ("(prime W5 a b)", "1:7: W5 expects 5 arguments, got 2"),
        ("(seq a (par b a) (prime W5 a a a a))", "1:17: W5 expects 5 arguments, got 4"),
        ("(seq a)", "1:5: seq expects at least 2 arguments"),
        ("(par)", "1:4: par expects at least 2 arguments"),
        ("(seq a z)", "1:5: unknown symbol 'z'"),
        ("(clique a b)", "1:3: operation 'clique' not in signature"),
    ])
    def test_error_messages_and_positions(self, text, message):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_term(text, spw5_signature(("a", "b")))
        assert str(exc.value) == message

    def test_deep_term_without_recursion(self):
        import sys
        sig = spw5_signature(("a", "b"))
        text = "a"
        for k in range(2000):
            text = f"({'seq' if k % 2 else 'par'} {text} b)"
        assert 2000 > sys.getrecursionlimit()
        t = parse_term(text, sig)
        assert term_to_text(t) == text
        assert parse_term(term_to_text(t), sig) == t

    def test_seeded_terms_parse_to_themselves(self):
        import random
        from modgraph.generators import random_term
        sig = spw5_signature(("a", "b"))
        rng = random.Random(2026)
        for _ in range(500):
            t = random_term(rng, sig, max_depth=5, max_leaves=12)
            assert parse_term(term_to_text(t), sig) == t


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


# Integer tokens: ASCII digits only, and vertex ids and arities from 1.
# "²" is a digit to str.isdigit that int() rejects; "٣" is one int() reads.
BAD_INTEGERS = [
    ("graph", "graph g\nalphabet a\nvertex ² a\n", "line 3: vertex id must be a "
     "positive integer, got '²'"),
    ("graph", "graph g\nalphabet a\nvertex ٣ a\n", "line 3: vertex id must be a "
     "positive integer, got '٣'"),
    ("graph", "graph g\nalphabet a\nvertex 0 a\n", "line 3: vertex id must be a "
     "positive integer, got '0'"),
    ("graph", "graph g\nalphabet a\nvertex 1 a\nedge 1 ²\n", "line 4: vertex id "
     "must be a positive integer, got '²'"),
    ("signature", "signature s\nalphabet a\nprime W ² : 1->2\n", "line 3: arity "
     "must be a positive integer, got '²'"),
    ("signature", "signature s\nalphabet a\nprime W 3 : 1->٣\n", "line 3: bad "
     "edge token '1->٣'"),
    ("formula", "(existsmod ² x (= x x))", "1:12: counting modulus must be an "
     "integer >= 2"),
    ("formula", "(existsmod ٣ x (= x x))", "1:12: counting modulus must be an "
     "integer >= 2"),
]


@pytest.mark.parametrize("kind, text, message", BAD_INTEGERS)
def test_integer_tokens_are_ascii_and_positive(kind, text, message):
    error = FormulaSyntaxError if kind == "formula" else FormatError
    with pytest.raises(error) as exc:
        PARSERS[kind](text)
    assert str(exc.value) == message


@pytest.mark.parametrize("kind, text, message", BAD_INTEGERS)
def test_integer_tokens_through_the_cli(kind, text, message, tmp_path, capsys):
    graph = tmp_path / "g.lg"
    graph.write_text("graph g\nalphabet a\nvertex 1 a\n")
    path = tmp_path / "input"
    path.write_text(text)
    argv = {"graph": ["decompose", str(path)],
            "signature": ["check-signature", str(path)],
            "formula": ["modelcheck", str(path), str(graph)]}[kind]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Valid files whose mutants the parsers must reject with package errors only.
MUTATION_SOURCES = {
    "graph": [GRAPH_TEXT, graph_to_text(word_graph("abab")),
              graph_to_text(eval_term(spw5_signature(),
                                      word_term("abba")))],
    "signature": [SIG_TEXT, signature_to_text(scw5_signature())],
    "formula": ["(existsmod 2 x (= x x))",
                "(forall x (exists y (or (edge x y) (edge y x) (= x y))))",
                "(existsset X (and (existsmod 3 x (in x X))\n"
                "  (forall y (implies (label_a y) (in y X)))))  # comment"],
}
_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def _mutant(rng: random.Random, text: str) -> str:
    """One to three edits of text: a token deleted, two tokens swapped, or
    one ASCII digit replaced by 0, ² or ٣."""
    lines = [_TOKEN.findall(line) for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
        if not spots:
            break
        i, j = rng.choice(spots)
        edit = rng.randrange(3)
        if edit == 0:
            del lines[i][j]
        elif edit == 1:
            k, m = rng.choice(spots)
            lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
        else:
            digits = [(i, j, c) for i, toks in enumerate(lines)
                      for j, tok in enumerate(toks)
                      for c, ch in enumerate(tok) if ch in "0123456789"]
            if digits:
                i, j, c = rng.choice(digits)
                tok = lines[i][j]
                lines[i][j] = tok[:c] + rng.choice("0²٣") + tok[c + 1:]
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


def test_only_package_errors_escape_mutated_files():
    rng = random.Random(1729)
    escaped = []
    for kind, sources in sorted(MUTATION_SOURCES.items()):
        for _ in range(2000):
            text = _mutant(rng, rng.choice(sources))
            try:
                PARSERS[kind](text)
            except ModgraphError:
                pass
            except Exception as e:
                escaped.append((kind, text, repr(e)))
    assert not escaped, f"{len(escaped)} escapes, first: {escaped[0]}"
