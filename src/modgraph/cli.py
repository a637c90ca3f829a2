"""Command-line front end.

Exit codes: 0 for success / true / member / isomorphic, 1 for false /
reject / non-member, 2 for any parse or semantic error.
"""

from __future__ import annotations

import argparse
import sys

from . import formats
from .cms import graph_structure, model_check, parse_formula, tree_structure
from .errors import ModgraphError
from .mdec import binarize, brute_force_prime_modules, decompose, format_tree, tree_to_term
from .recognizer import member, validate_algebra
from .selftest import SelfTestConfig, run_selftest
from .signature import eval_term, validate_weakly_rigid_signature
from .transduction import (build_repr, check_kappa_lemma, encode_graph,
                           verify_isomorphism)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path):
    return formats.parse_graph(_read(path))


def _load_signature(path):
    return formats.parse_signature(_read(path))


def _cmd_decompose(args) -> int:
    g = _load_graph(args.graph)
    sig = _load_signature(args.signature) if args.signature else None
    tree = decompose(g, sig)
    if args.binarize:
        tree = binarize(tree)
    if args.emit == "term":
        print(formats.term_to_text(tree_to_term(tree)))
    else:
        print(format_tree(tree))
    return 0


def _cmd_eval_term(args) -> int:
    sig = _load_signature(args.signature)
    term = formats.parse_term(args.term, sig)
    print(formats.graph_to_text(eval_term(sig, term)), end="")
    return 0


def _cmd_check_signature(args) -> int:
    report = validate_weakly_rigid_signature(_load_signature(args.signature))
    print(report)
    return 0 if report.accepted else 1


def _cmd_validate_algebra(args) -> int:
    sig = _load_signature(args.signature)
    alg = formats.parse_algebra(_read(args.algebra), sig)
    report = validate_algebra(alg)
    print(report)
    return 0 if report.ok else 1


def _cmd_recognize(args) -> int:
    sig = _load_signature(args.signature)
    alg = formats.parse_algebra(_read(args.algebra), sig)
    report = validate_algebra(alg)
    if not report.ok:
        print(f"error: {report}", file=sys.stderr)
        return 2
    g = _load_graph(args.graph)
    accepted = member(g, alg)
    print("member" if accepted else "non-member")
    return 0 if accepted else 1


def _cmd_modelcheck(args) -> int:
    g = _load_graph(args.graph)
    sig = _load_signature(args.signature) if args.signature else None
    if args.as_what == "graph":
        structure = graph_structure(g, sig.alphabet.symbols if sig else None)
    else:
        tree = binarize(decompose(g, sig))
        structure = tree_structure(tree, sig)
    formula = parse_formula(_read(args.formula), structure.signature)
    holds = model_check(structure, formula, budget=args.budget)
    print("true" if holds else "false")
    return 0 if holds else 1


def _cmd_verify_transduction(args) -> int:
    sig = _load_signature(args.signature)
    g = _load_graph(args.graph)
    t, cls, enc = encode_graph(g, sig)
    print(f"mode: {cls.mode.value}-commutative")
    for i in range(4):
        nodes = cls.nodes_in(i)
        mods = " ".join("{" + ",".join(map(str, sorted(n.module))) + "}"
                        for n in nodes)
        print(f"N_{i}: {len(nodes)} node(s) {mods}")
    print(enc.format_tables())
    rep = build_repr(t, enc, sig=sig)
    for i, xs in enumerate(rep.reps):
        print(f"X_{i}: {{{','.join(map(str, sorted(xs)))}}}")
    lemma = check_kappa_lemma(t, enc, sig)
    print(lemma)
    ok = verify_isomorphism(rep, t, sig=sig) and lemma.ok
    print("ISO" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_oracle_modules(args) -> int:
    g = _load_graph(args.graph)
    for m in sorted(brute_force_prime_modules(g), key=lambda s: (len(s), min(s))):
        print("{" + ",".join(map(str, sorted(m))) + "}")
    return 0


def _cmd_selftest(args) -> int:
    cfg = SelfTestConfig(seed=args.seed, count=args.count,
                         max_vertices=args.max_vertices,
                         max_term_depth=args.max_depth)
    report, ok = run_selftest(cfg)
    print(report)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modgraph",
        description="modular graph algebras: decomposition, recognizers, "
                    "counting-MSO model checking, transduction verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="print the decomposition tree of a graph")
    p.add_argument("graph")
    p.add_argument("--binarize", action="store_true")
    p.add_argument("--signature")
    p.add_argument("--emit", choices=("tree", "term"), default="tree")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("eval-term", help="evaluate a term into a graph")
    p.add_argument("signature")
    p.add_argument("term")
    p.set_defaults(fn=_cmd_eval_term)

    p = sub.add_parser("check-signature", help="check weak rigidity of a signature")
    p.add_argument("signature")
    p.set_defaults(fn=_cmd_check_signature)

    p = sub.add_parser("validate-algebra", help="check the laws of a finite algebra")
    p.add_argument("signature")
    p.add_argument("algebra")
    p.set_defaults(fn=_cmd_validate_algebra)

    p = sub.add_parser("recognize", help="membership of a graph in an algebra's language")
    p.add_argument("signature")
    p.add_argument("algebra")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_recognize)

    p = sub.add_parser("modelcheck", help="check a formula file against a graph")
    p.add_argument("formula")
    p.add_argument("graph")
    p.add_argument("--as", dest="as_what", choices=("graph", "mdectree"),
                   default="graph")
    p.add_argument("--signature")
    p.add_argument("--budget", type=int, default=10 ** 8)
    p.set_defaults(fn=_cmd_modelcheck)

    p = sub.add_parser("verify-transduction",
                       help="rebuild the tree from leaf representatives and verify")
    p.add_argument("signature")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_verify_transduction)

    p = sub.add_parser("oracle-modules",
                       help="prime modules from the exact module oracle")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_oracle_modules)

    p = sub.add_parser("selftest", help="run the randomized property suites")
    p.add_argument("--seed", type=int, default=193)
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--max-vertices", type=int, default=8)
    p.add_argument("--max-depth", type=int, default=5)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ModgraphError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
