"""A verb's output does not depend on what ran before it in one process.

The package keeps per-value caches: the split memo on a graph's rows, the
rows and masks a tree carries, the tree relations per tree, the operation
matches and symmetries per signature, the checker's interned units.  Each
invocation below runs alone in a fresh process for a reference; then all
of them run through ``cli.main`` in this one process, forward, reversed
and in a seeded shuffle, and each must print the same bytes and exit with
the same code.  The inputs share values: one graph text in two files, a
relabelled copy, two signatures that give the same operation graph
different names, and one graph under both W5 signatures.  A 60-vertex
prime digraph is decomposed without a signature twice: its root's
quotient is the graph itself, sharing the graph's rows and split memo.
"""

import contextlib
import gc
import io
import os
import random
import subprocess
import sys
from pathlib import Path

from modgraph import cli
from modgraph.formats import algebra_to_text, graph_to_text, parse_term, signature_to_text
from modgraph.generators import random_digraph
from modgraph.graphs import LabeledGraph
from modgraph.mdec import decompose
from modgraph.samples import even_vertices_algebra, scw5_signature, spw5_signature, word_graph
from modgraph.signature import eval_term

ROOT = Path(__file__).resolve().parent.parent
SPW5_TERM = "(seq (prime W5 a b (par a b) b a) (par (seq a b) b) b)"
SCW5_TERM = "(seq (prime W5 a b (clique a b) b a) (clique (seq a b) b) b)"


def _write(tmp_path):
    spw5, scw5 = spw5_signature(), scw5_signature()
    g1 = eval_term(spw5, parse_term(SPW5_TERM, spw5))
    g2 = eval_term(scw5, parse_term(SCW5_TERM, scw5))
    # a relabelling of g1 onto other ids
    ids = dict(zip(sorted(g1.vertices), random.Random(5).sample(range(20, 60), g1.n)))
    g1r = LabeledGraph.build(ids.values(), [(ids[u], ids[v]) for u, v in g1.edges],
                             {ids[v]: s for v, s in g1.labels.items()})
    prime = random_digraph(random.Random(60), 60, 0.3)
    assert len(decompose(prime).root.children) == 60
    texts = {"spw5.sig": signature_to_text(spw5), "scw5.sig": signature_to_text(scw5),
             # W5's graph under another name
             "v5.sig": signature_to_text(spw5).replace("W5", "V5"),
             "g1.lg": graph_to_text(g1), "g1_again.lg": graph_to_text(g1),
             "g1r.lg": graph_to_text(g1r), "g2.lg": graph_to_text(g2),
             "aba.lg": graph_to_text(word_graph("aba")),
             "prime.lg": graph_to_text(prime), "prime_again.lg": graph_to_text(prime),
             "even.alg": algebra_to_text(even_vertices_algebra(spw5)),
             "child.cms": "(exists x (exists y (and (first-child x y) (label_seq x))))\n",
             "even.cms": "(existsmod 2 x (= x x))\n",
             "three.cms": "(existsmod 3 x (= x x))\n"}
    paths = {}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    return paths


def _invocations(p):
    return [
        ["decompose", p["g1.lg"]],
        ["decompose", p["g1.lg"], "--signature", p["spw5.sig"]],
        ["decompose", p["g1.lg"], "--signature", p["spw5.sig"], "--binarize"],
        ["decompose", p["g1_again.lg"], "--signature", p["v5.sig"], "--binarize"],
        ["decompose", p["g1r.lg"], "--signature", p["spw5.sig"], "--emit", "term"],
        ["verify-transduction", p["spw5.sig"], p["g1.lg"]],
        ["verify-transduction", p["spw5.sig"], p["g1r.lg"]],
        ["verify-transduction", p["scw5.sig"], p["g2.lg"]],
        ["verify-transduction", p["v5.sig"], p["g1_again.lg"]],
        ["verify-transduction", p["scw5.sig"], p["g1.lg"]],
        ["modelcheck", p["child.cms"], p["g1.lg"], "--as", "mdectree"],
        ["modelcheck", p["child.cms"], p["g1r.lg"], "--as", "mdectree",
         "--signature", p["v5.sig"]],
        ["modelcheck", p["even.cms"], p["g1.lg"]],
        ["modelcheck", p["three.cms"], p["g2.lg"], "--signature", p["scw5.sig"]],
        ["eval-term", p["spw5.sig"], SPW5_TERM],
        ["recognize", p["spw5.sig"], p["even.alg"], p["g1.lg"]],
        ["recognize", p["spw5.sig"], p["even.alg"], p["aba.lg"]],
        ["recognize", p["spw5.sig"], p["even.alg"], p["g2.lg"]],
        ["oracle-modules", p["g1r.lg"]],
        ["oracle-modules", p["prime.lg"]],
        ["decompose", p["prime.lg"]],
        ["decompose", p["prime_again.lg"], "--binarize"],
        ["modelcheck", p["even.cms"], p["prime.lg"], "--as", "mdectree"],
    ]


def _fresh(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "modgraph.cli", *argv], env=env,
                          capture_output=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def test_verbs_answer_alike_in_any_order(tmp_path):
    runs = _invocations(_write(tmp_path))
    want = [_fresh(argv) for argv in runs]
    assert {code for code, _, _ in want} == {0, 1, 2}
    shuffled = list(range(len(runs)))
    random.Random(21).shuffle(shuffled)
    for order in (range(len(runs)), reversed(range(len(runs))), shuffled):
        for k in order:
            gc.collect()
            assert _in_process(runs[k]) == want[k], runs[k]
