"""Seeded mutation fuzz of the command line: every file argument of every
verb form, with tokens deleted, swapped, duplicated or replaced.

Whatever the input, the CLI answers with exit status 0 or 1, or exits 2
with ``error:`` on stderr; no exception ever escapes ``cli.main``.
"""

import random
import re

import pytest

from modgraph import cli
from modgraph.formats import algebra_to_text, graph_to_text, signature_to_text
from modgraph.samples import (even_vertices_algebra, parity_algebra, seq_signature,
                              spw5_signature, word_graph)

# replacement tokens: zero, a superscript and an Arabic-Indic digit (both
# str.isdigit), an id outside the graph, a negative number
ODD_TOKENS = ("0", "²", "٣", "99", "-1")
RUNS_PER_ARGUMENT = 30


def _files(tmp_path):
    sig = spw5_signature()
    texts = {
        "graph": graph_to_text(word_graph("abab")),
        "sig": signature_to_text(sig),
        "alg": algebra_to_text(even_vertices_algebra(sig)),
        "seq_sig": signature_to_text(seq_signature()),
        "parity": algebra_to_text(parity_algebra()),
        "graph_formula": "(existsmod 2 x (exists y (edge x y)))\n",
        "tree_formula": "(exists x (exists y (and (child x y) (label_a y))))\n",
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    return texts, paths


# each verb form: its argv, a file argument written as @ and its key in _files
VERB_FORMS = {
    "decompose": ["decompose", "@graph"],
    "decompose-signature": ["decompose", "@graph", "--signature", "@sig"],
    "eval-term": ["eval-term", "@sig", "(seq a (W5 a b a b a))"],
    "check-signature": ["check-signature", "@sig"],
    "validate-algebra": ["validate-algebra", "@sig", "@alg"],
    "recognize-spw5": ["recognize", "@sig", "@alg", "@graph"],
    "recognize-seq": ["recognize", "@seq_sig", "@parity", "@graph"],
    "modelcheck-graph": ["modelcheck", "@graph_formula", "@graph", "--as", "graph"],
    "modelcheck-tree": ["modelcheck", "@tree_formula", "@graph", "--as", "mdectree",
                        "--signature", "@sig"],
    "verify-transduction": ["verify-transduction", "@sig", "@graph"],
    "oracle-modules": ["oracle-modules", "@graph"],
}


def mutate(rng: random.Random, text: str) -> str:
    """One token mutation of text, or two; whitespace is kept."""
    parts = re.split(r"(\s+)", text)
    for _ in range(rng.choice((1, 1, 2))):
        toks = [i for i, p in enumerate(parts) if p and not p.isspace()]
        if not toks:
            break
        i = rng.choice(toks)
        op = rng.randrange(4)
        if op == 0:
            parts[i] = ""
        elif op == 1:
            j = rng.choice(toks)
            parts[i], parts[j] = parts[j], parts[i]
        elif op == 2:
            parts[i] = parts[i] + " " + parts[i]
        else:
            parts[i] = rng.choice(ODD_TOKENS)
    return "".join(parts)


@pytest.mark.parametrize("form", sorted(VERB_FORMS))
def test_mutated_files_get_an_answer_or_an_error(form, tmp_path, capsys):
    texts, paths = _files(tmp_path)
    argv = [str(paths[a[1:]]) if a.startswith("@") else a for a in VERB_FORMS[form]]
    file_args = [a[1:] for a in VERB_FORMS[form] if a.startswith("@")]
    rng = random.Random(f"cli-fuzz {form}")
    for name in file_args:
        for _ in range(RUNS_PER_ARGUMENT):
            text = mutate(rng, texts[name])
            paths[name].write_text(text, encoding="utf-8")
            try:
                code = cli.main(argv)
            except Exception as e:  # a traceback from the command line
                pytest.fail(f"{form}: {type(e).__name__}: {e} on {name}:\n{text}")
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (form, name, text)
            if code == 2:
                assert err.startswith("error:"), (form, name, text, err)
        paths[name].write_text(texts[name], encoding="utf-8")
