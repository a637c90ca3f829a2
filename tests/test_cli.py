import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from deep_term import LEVELS, alternating_term
from modgraph import cli, mdec
from modgraph.formats import (algebra_to_text, graph_to_text, parse_graph,
                              signature_to_text)
from modgraph.graphs import LabeledGraph
from modgraph.mdec import MDecNode, NodeKind
from modgraph.samples import parity_algebra, spw5_signature, word_graph
from modgraph.selftest import SelfTestConfig, run_selftest


@pytest.fixture
def files(tmp_path):
    sig = spw5_signature()
    paths = {}
    paths["sig"] = tmp_path / "spw5.sig"
    paths["sig"].write_text(signature_to_text(sig))
    paths["word4"] = tmp_path / "word4.lg"
    paths["word4"].write_text(graph_to_text(word_graph("abab")))
    paths["word3"] = tmp_path / "word3.lg"
    paths["word3"].write_text(graph_to_text(word_graph("aba")))

    from modgraph.samples import even_vertices_algebra
    paths["alg"] = tmp_path / "even.alg"
    paths["alg"].write_text(algebra_to_text(even_vertices_algebra(sig)))

    from modgraph.samples import seq_signature
    paths["seq_sig"] = tmp_path / "seq.sig"
    paths["seq_sig"].write_text(signature_to_text(seq_signature()))
    paths["parity"] = tmp_path / "parity.alg"
    paths["parity"].write_text(algebra_to_text(parity_algebra()))

    paths["even_formula"] = tmp_path / "even.cms"
    paths["even_formula"].write_text("(existsmod 2 x (= x x))\n")
    paths["tree_formula"] = tmp_path / "haschild.cms"
    paths["tree_formula"].write_text("(exists x (exists y (child x y)))\n")
    return {k: str(v) for k, v in paths.items()}


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerbs:
    def test_eval_term(self, capsys, files):
        code, out, _ = run(capsys, "eval-term", files["sig"], "(seq a b)")
        assert code == 0
        assert "edge 1 2" in out

    def test_decompose_tree_and_term(self, capsys, files):
        code, out, _ = run(capsys, "decompose", files["word4"],
                           "--signature", files["sig"], "--binarize")
        assert code == 0 and "[first]" in out
        code, out, _ = run(capsys, "decompose", files["word4"], "--emit", "term")
        assert code == 0 and out.strip() == "(seq a b a b)"

    def test_adhoc_operation_named_in_a_formula(self, capsys, tmp_path):
        # the undirected path on 4 vertices is prime: without a signature
        # it becomes an ad-hoc operation, whose name a formula can use
        p4 = LabeledGraph.on_range(4, [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)])
        graph = tmp_path / "p4.lg"
        graph.write_text(graph_to_text(LabeledGraph(p4.vertices, p4.edges,
                                                    dict.fromkeys(p4.vertices, "a"))))
        formula = tmp_path / "f.cms"
        formula.write_text("(exists x (label_prime4_a32ba4a900430007 x))  # ad-hoc\n")
        code, out, _ = run(capsys, "decompose", str(graph))
        assert code == 0 and out.splitlines()[0] == "prime4_a32ba4a900430007 {1,2,3,4}"
        code, out, _ = run(capsys, "modelcheck", str(formula), str(graph), "--as", "mdectree")
        assert code == 0 and out == "true\n"

    def test_check_signature_accept(self, capsys, files):
        code, out, _ = run(capsys, "check-signature", files["sig"])
        assert code == 0 and "ACCEPT" in out

    def test_check_signature_reject(self, capsys, files, tmp_path):
        bad = tmp_path / "bad.sig"
        bad.write_text("signature bad\nalphabet a\nop par\nop clique\n")
        code, out, _ = run(capsys, "check-signature", str(bad))
        assert code == 1 and "REJECT" in out

    def test_validate_algebra(self, capsys, files):
        code, out, _ = run(capsys, "validate-algebra", files["sig"], files["alg"])
        assert code == 0 and "VALID" in out

    def test_validate_algebra_invalid(self, capsys, files, tmp_path):
        text = open(files["parity"]).read().replace(
            "op seq : q1 q0 -> q1", "op seq : q1 q0 -> q0")
        bad = tmp_path / "bad.alg"
        bad.write_text(text)
        code, out, _ = run(capsys, "validate-algebra", files["seq_sig"], str(bad))
        assert code == 1 and "INVALID" in out

    def test_recognize_invalid_algebra_exit_2(self, capsys, files, tmp_path):
        text = open(files["parity"]).read().replace(
            "op seq : q1 q0 -> q1", "op seq : q1 q0 -> q0")
        bad = tmp_path / "bad.alg"
        bad.write_text(text)
        code, out, err = run(capsys, "recognize", files["seq_sig"], str(bad),
                             files["word4"])
        assert code == 2 and out == "" and err.startswith("error: INVALID")

    def test_recognize_member(self, capsys, files):
        code, out, _ = run(capsys, "recognize", files["seq_sig"],
                           files["parity"], files["word4"])
        assert code == 0 and "member" in out

    def test_recognize_non_member(self, capsys, files, tmp_path):
        word = tmp_path / "ab.lg"
        word.write_text(graph_to_text(word_graph("ab")))
        code, out, _ = run(capsys, "recognize", files["seq_sig"],
                           files["parity"], str(word))
        assert code == 1 and "non-member" in out

    def test_modelcheck_graph(self, capsys, files):
        code, out, _ = run(capsys, "modelcheck", files["even_formula"],
                           files["word4"], "--as", "graph")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "modelcheck", files["even_formula"],
                           files["word3"], "--as", "graph")
        assert code == 1 and out.strip() == "false"

    def test_modelcheck_tree(self, capsys, files):
        code, out, _ = run(capsys, "modelcheck", files["tree_formula"],
                           files["word4"], "--as", "mdectree",
                           "--signature", files["sig"])
        assert code == 0

    def test_verify_transduction(self, capsys, files):
        code, out, _ = run(capsys, "verify-transduction", files["sig"],
                           files["word4"])
        assert code == 0
        assert "ISO" in out and "kappa_3" in out and "X_0" in out

    def test_oracle_modules(self, capsys, files):
        code, out, _ = run(capsys, "oracle-modules", files["word4"])
        assert code == 0
        assert "{1}" in out

    def test_oracle_modules_on_forty_vertices(self, capsys, tmp_path):
        import random
        from modgraph.generators import random_f_graph
        rng = random.Random(7)
        g = next(g for g in iter(lambda: random_f_graph(rng, spw5_signature(), 9, 40), None)
                 if g.n == 40)
        path = tmp_path / "forty.lg"
        path.write_text(graph_to_text(g))
        code, out, _ = run(capsys, "oracle-modules", str(path))
        assert code == 0
        want = sorted(mdec.tree_prime_modules(mdec.decompose(g)),
                      key=lambda s: (len(s), min(s)))
        assert out == "".join("{" + ",".join(map(str, sorted(m))) + "}\n" for m in want)
        assert len(want) > 40

    def test_parse_error_exit_2(self, capsys, files, tmp_path):
        bad = tmp_path / "bad.lg"
        bad.write_text("graph g\nalphabet a\nvertex 1 a\nedge 1 1\n")
        code, _, err = run(capsys, "decompose", str(bad))
        assert code == 2 and "error" in err

    def test_missing_file_exit_2(self, capsys, files):
        code, _, err = run(capsys, "decompose", "/nonexistent.lg")
        assert code == 2

    def test_eval_term_bad_term_exit_2(self, capsys, files):
        code, _, err = run(capsys, "eval-term", files["sig"], "(seq a")
        assert code == 2

    def test_eval_term_deep_term(self, capsys, files):
        # 2,000 levels, deeper than the recursion limit: parsed and
        # evaluated without recursion
        term = "a"
        for k in range(2000):
            term = f"({'seq' if k % 2 else 'par'} {term} b)"
        code, out, err = run(capsys, "eval-term", files["sig"], term)
        assert code == 0 and err == ""
        assert parse_graph(out).n == 2001

    def test_modelcheck_deep_formula(self, capsys, files, tmp_path):
        # 5,000 nested nots, deeper than the recursion limit
        path = tmp_path / "deep.cms"
        path.write_text("(exists x " + "(not " * 5000 + "(label_a x)" + ")" * 5001 + "\n")
        code, out, err = run(capsys, "modelcheck", str(path), files["word3"])
        assert code == 0 and out.strip() == "true" and err == ""

    def test_modelcheck_deep_quantifier_nesting_exit_2(self, capsys, files, tmp_path):
        # each quantifier is a unit that calls the next: 5,000 nested calls
        path = tmp_path / "deep.cms"
        path.write_text("(exists x " * 5000 + "(label_a x)" + ")" * 5000 + "\n")
        code, out, err = run(capsys, "modelcheck", str(path), files["word3"])
        assert code == 2 and out == "" and err == "error: input nests too deeply\n"

    @pytest.mark.parametrize("verb", ["verify-transduction", "modelcheck", "recognize"])
    def test_foreign_letter_exit_2(self, capsys, files, tmp_path, verb):
        # the graph has a letter b; the signature's alphabet is {a}
        from modgraph.recognizer import FiniteAlgebra, binary_table
        from modgraph.samples import seq_signature
        paths = {"graph": tmp_path / "ab.lg", "sig": tmp_path / "a.sig",
                 "seq_sig": tmp_path / "seq_a.sig", "alg": tmp_path / "a.alg"}
        paths["graph"].write_text(graph_to_text(word_graph("ab")))
        paths["sig"].write_text(signature_to_text(spw5_signature(("a",))))
        seq = seq_signature(("a",))
        paths["seq_sig"].write_text(signature_to_text(seq))
        carrier = ("q0", "q1")
        alg = FiniteAlgebra(seq, carrier, {"a": "q1"},
                            {"seq": binary_table(carrier, max)}, frozenset(["q0"]))
        paths["alg"].write_text(algebra_to_text(alg))
        p = {k: str(v) for k, v in paths.items()}
        argv = {"verify-transduction": (p["sig"], p["graph"]),
                "modelcheck": (files["tree_formula"], p["graph"], "--as", "mdectree",
                               "--signature", p["sig"]),
                "recognize": (p["seq_sig"], p["alg"], p["graph"])}[verb]
        code, _, err = run(capsys, verb, *argv)
        assert code == 2
        assert err.startswith("error:") and "'b'" in err

    def test_verify_transduction_on_a_deep_term(self, capsys, files, tmp_path):
        # 1,100 alternating seq/par levels, deeper than the recursion
        # limit; the verb alone is timed, with its input written beforehand
        from modgraph.signature import eval_term
        assert LEVELS > sys.getrecursionlimit()
        path = tmp_path / "deep.lg"
        path.write_text(graph_to_text(eval_term(spw5_signature(), alternating_term())))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify-transduction", files["sig"], str(path))
        took = time.perf_counter() - start
        assert code in (0, 1) and err == ""
        assert out.splitlines()[-1] == ("ISO" if code == 0 else "FAIL")
        assert took < 4, f"verify-transduction took {took:.2f} s on the deep term"


def test_import_does_not_load_hashlib():
    # hashlib loads OpenSSL, several MB of resident memory; ad-hoc
    # operation names are checksums from zlib instead
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-c",
                          "import sys, modgraph.cli; print('hashlib' in sys.modules)"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


class TestSelftestVerb:
    def test_passes_and_deterministic(self, capsys):
        code, out1, _ = run(capsys, "selftest", "--count", "4", "--seed", "7")
        assert code == 0 and "RESULT: all properties passed" in out1
        code, out2, _ = run(capsys, "selftest", "--count", "4", "--seed", "7")
        assert out1 == out2

    def test_seed_is_printed(self, capsys):
        code, out, _ = run(capsys, "selftest", "--count", "1", "--seed", "99")
        assert "seed=99" in out

    def test_count_zero_warns(self, capsys):
        code, out, _ = run(capsys, "selftest", "--count", "0")
        assert code == 0 and "vacuously" in out

    def test_max_vertices_below_two_exit_2(self, capsys):
        code, out, err = run(capsys, "selftest", "--max-vertices", "1")
        assert (code, out, err) == (2, "", "error: max-vertices must be at least 2\n")
        code, out, _ = run(capsys, "selftest", "--max-vertices", "2", "--count", "3")
        assert code == 0 and "RESULT: all properties passed" in out

    def test_fault_injection_is_caught(self, monkeypatch):
        # flip the comb direction: the harness must notice the broken shape
        def broken_binarize(t):
            def rec(node):
                kids = tuple(rec(c) for c in node.children)
                if node.kind is NodeKind.SEQ and len(kids) >= 3:
                    acc = MDecNode(kids[0].module | kids[1].module,
                                   NodeKind.SEQ, (kids[0], kids[1]))
                    for c in kids[2:-1]:
                        acc = MDecNode(acc.module | c.module, NodeKind.SEQ,
                                       (acc, c))
                    return MDecNode(node.module, NodeKind.SEQ,
                                    (acc, kids[-1]))
                return MDecNode(node.module, node.kind, kids, node.symbol,
                                node.op)
            return mdec.MDecTree(rec(t.root))

        import modgraph.selftest as st_mod
        monkeypatch.setattr(st_mod, "binarize", broken_binarize)
        report, ok = run_selftest(SelfTestConfig(count=8))
        assert not ok and "FAIL" in report
