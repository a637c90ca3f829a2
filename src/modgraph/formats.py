"""Line-oriented text formats for graphs, signatures, terms and algebras.

All formats are UTF-8, one directive per line, with '#' starting a comment.
Parse errors carry 1-based line numbers.
"""

from __future__ import annotations

import itertools
import re
import warnings
from typing import Optional

from .errors import FormatError, FormulaSyntaxError
from .graphs import Alphabet, LabeledGraph
from .recognizer import FiniteAlgebra
from .signature import (BUILTIN_NAMES, CLIQUE_OP, PAR_OP, SEQ_OP, OpKind,
                        Signature, SignatureOp, Term, prime_op)

LARGE_TABLE_WARNING = 10 ** 6


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _int(tok: str, lineno: int, what: str) -> int:
    """A positive integer written in ASCII digits."""
    if tok.isascii() and tok.isdigit():
        i = int(tok)
        if i:
            return i
    raise FormatError(lineno, f"{what} must be a positive integer, got {tok!r}")


# ------------------------------------------------------------------- graphs

def parse_graph(text: str) -> LabeledGraph:
    """`graph <name>` / `alphabet <sym>...` / `vertex <id> <sym>` / `edge <i> <j>`.

    One pass over the lines, with the most common directive, edge, tested
    first.  Every invariant of a graph is checked here, with its line
    number, so the graph is built without ``LabeledGraph``'s own checks.
    """
    alphabet: Optional[list[str]] = None
    labels: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        toks = line.split()
        if not toks:
            continue
        head = toks[0]
        if head == "edge":
            if len(toks) != 3:
                raise FormatError(lineno, "edge takes two vertex ids")
            u = _int(toks[1], lineno, "vertex id")
            v = _int(toks[2], lineno, "vertex id")
            if u == v:
                raise FormatError(lineno, f"self-loop at vertex {u}")
            edges.append((u, v))
        elif head == "vertex":
            if len(toks) != 3:
                raise FormatError(lineno, "vertex takes an id and a symbol")
            vid = _int(toks[1], lineno, "vertex id")
            if vid in labels:
                raise FormatError(lineno, f"duplicate vertex {vid}")
            if alphabet is None or toks[2] not in alphabet:
                raise FormatError(lineno, f"unknown label {toks[2]!r}")
            labels[vid] = toks[2]
        elif head == "alphabet":
            args = toks[1:]
            if not args:
                raise FormatError(lineno, "alphabet needs at least one symbol")
            if len(set(args)) != len(args):
                raise FormatError(lineno, "duplicate alphabet symbols")
            alphabet = args
        elif head != "graph":
            raise FormatError(lineno, f"unknown directive {head!r}")
    if not labels.keys() >= set(itertools.chain.from_iterable(edges)):
        _undeclared_edge(text, labels)
    if not labels:
        raise FormatError(1, "graph has no vertices")
    return LabeledGraph._trusted(frozenset(labels), frozenset(edges), labels)


def _undeclared_edge(text: str, labels: dict[int, str]):
    """Raise for the first edge line with an undeclared endpoint, of a text
    that ``parse_graph`` has read through."""
    for lineno, toks in _lines(text):
        if toks[0] == "edge":
            u, v = int(toks[1]), int(toks[2])
            if u not in labels or v not in labels:
                raise FormatError(lineno, f"edge ({u},{v}) uses an undeclared vertex")


def graph_to_text(g: LabeledGraph, name: str = "g") -> str:
    lines = [f"graph {name}"]
    if g.labels is not None:
        lines.append("alphabet " + " ".join(sorted(set(g.labels.values()))))
        lines += [f"vertex {v} {g.labels[v]}" for v in g.sorted_vertices()]
    else:
        lines.append("alphabet x")
        lines += [f"vertex {v} x" for v in g.sorted_vertices()]
    lines += [f"edge {u} {v}" for (u, v) in sorted(g.edges)]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- signatures

_ARROW_RE = re.compile(r"^([0-9]+)->([0-9]+)$")


def parse_signature(text: str) -> Signature:
    """`signature <name>` / `alphabet ...` / `op par|seq|clique` /
    `prime <name> <n> : <i>-><j> ...`."""
    alphabet: Optional[Alphabet] = None
    ops: list[SignatureOp] = []
    builtin = {"par": PAR_OP, "seq": SEQ_OP, "clique": CLIQUE_OP}
    for lineno, toks in _lines(text):
        head, args = toks[0], toks[1:]
        if head == "signature":
            continue
        if head == "alphabet":
            if not args:
                raise FormatError(lineno, "alphabet needs at least one symbol")
            try:
                alphabet = Alphabet(tuple(args))
            except ValueError as e:
                raise FormatError(lineno, str(e))
        elif head == "op":
            if len(args) != 1 or args[0] not in builtin:
                raise FormatError(lineno, "op takes one of: par, seq, clique")
            ops.append(builtin[args[0]])
        elif head == "prime":
            if len(args) < 3 or args[2] != ":":
                raise FormatError(lineno, "prime syntax: prime <name> <n> : <i>-><j> ...")
            pname = args[0]
            if pname in BUILTIN_NAMES:
                raise FormatError(lineno, f"{pname!r} is reserved for a built-in")
            n = _int(args[1], lineno, "arity")
            edges = []
            for tok in args[3:]:
                m = _ARROW_RE.match(tok)
                if not m:
                    raise FormatError(lineno, f"bad edge token {tok!r}")
                u, v = int(m.group(1)), int(m.group(2))
                if not (1 <= u <= n and 1 <= v <= n) or u == v:
                    raise FormatError(lineno, f"edge {tok!r} outside 1..{n}")
                edges.append((u, v))
            try:
                ops.append(prime_op(pname, LabeledGraph.on_range(n, edges)))
            except ValueError as e:
                raise FormatError(lineno, str(e))
        else:
            raise FormatError(lineno, f"unknown directive {head!r}")
    if alphabet is None:
        raise FormatError(1, "signature has no alphabet")
    if not ops:
        raise FormatError(1, "signature has no operations")
    try:
        return Signature(alphabet, tuple(ops))
    except ValueError as e:
        raise FormatError(1, str(e))


def signature_to_text(sig: Signature, name: str = "sig") -> str:
    lines = [f"signature {name}", "alphabet " + " ".join(sig.alphabet.symbols)]
    for op in sig.ops:
        if op.kind is OpKind.PRIME:
            edges = " ".join(f"{u}->{v}" for (u, v) in sorted(op.graph.edges))
            lines.append(f"prime {op.name} {op.graph.n} : {edges}")
        else:
            lines.append(f"op {op.name}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------------- terms

def parse_term(text: str, sig: Signature) -> Term:
    """Parenthesized prefix terms: `(seq a (par b c))`, `(prime W5 a b c d e)`.

    Read with an explicit stack of open nodes, so any nesting depth parses.
    """
    toks = re.findall(r"\(|\)|[^\s()]+", text)
    pos = 0

    def fail(msg):
        raise FormulaSyntaxError(1, pos + 1, msg)

    def next_tok():
        nonlocal pos
        if pos >= len(toks):
            fail("unexpected end of term")
        tok = toks[pos]
        pos += 1
        return tok

    # each open node's operation and the children read so far
    open_nodes: list[tuple[str, list[Term]]] = []
    while True:
        tok = next_tok()
        if tok == ")":
            fail("unexpected ')'")
        if tok == "(":
            head = next_tok()
            if head == "prime":
                head = next_tok()
                if not sig.has_op(head) or sig.op(head).kind is not OpKind.PRIME:
                    fail(f"unknown prime operation {head!r}")
            elif head in BUILTIN_NAMES:
                if not sig.has_op(head):
                    fail(f"operation {head!r} not in signature")
            else:
                fail(f"unknown operation {head!r}")
            open_nodes.append((head, []))
            done = None
        else:
            if tok not in sig.alphabet:
                fail(f"unknown symbol {tok!r}")
            done = Term.leaf(tok)
        # hand the finished term to its parent and close every node whose
        # children end here
        while done is None or open_nodes:
            if done is not None:
                open_nodes[-1][1].append(done)
            if pos < len(toks) and toks[pos] != ")":
                break
            next_tok()  # consume ')'
            head, children = open_nodes.pop()
            want = sig.op(head).arity
            if want is not None and len(children) != want:
                fail(f"{head} expects {want} arguments, got {len(children)}")
            if want is None and len(children) < 2:
                fail(f"{head} expects at least 2 arguments")
            done = Term.node(head, children)
        else:
            break
    if pos != len(toks):
        fail("trailing input after term")
    return done


def term_to_text(t: Term) -> str:
    return str(t)


# ----------------------------------------------------------------- algebras

def parse_algebra(text: str, sig: Signature) -> FiniteAlgebra:
    """`algebra <name> over <sig>` / `carrier q...` / `letter <sym> -> <q>` /
    `op <name> : <q>... -> <q>` (one row per line) / `accept <q>...`."""
    name = "algebra"
    carrier: Optional[tuple[str, ...]] = None
    letters: dict[str, str] = {}
    tables: dict[str, dict[tuple[str, ...], str]] = {}
    accepting: list[str] = []

    def check_q(q, lineno):
        if carrier is None or q not in carrier:
            raise FormatError(lineno, f"unknown carrier element {q!r}")
        return q

    for lineno, toks in _lines(text):
        head, args = toks[0], toks[1:]
        if head == "algebra":
            name = args[0] if args else name
        elif head == "carrier":
            if not args:
                raise FormatError(lineno, "carrier needs at least one element")
            carrier = tuple(args)
        elif head == "letter":
            if len(args) != 3 or args[1] != "->":
                raise FormatError(lineno, "letter syntax: letter <sym> -> <q>")
            if args[0] not in sig.alphabet:
                raise FormatError(lineno, f"unknown letter {args[0]!r}")
            letters[args[0]] = check_q(args[2], lineno)
        elif head == "op":
            if len(args) < 5 or args[1] != ":" or args[-2] != "->":
                raise FormatError(lineno, "op syntax: op <name> : <q>... -> <q>")
            op_name = args[0]
            if not sig.has_op(op_name):
                raise FormatError(lineno, f"unknown operation {op_name!r}")
            op = sig.op(op_name)
            arity = op.arity if op.arity is not None else 2
            row = args[2:-2]
            if len(row) != arity:
                raise FormatError(lineno, f"{op_name} rows take {arity} arguments")
            key = tuple(check_q(q, lineno) for q in row)
            table = tables.setdefault(op_name, {})
            if key in table:
                raise FormatError(lineno, f"duplicate row {key} for {op_name}")
            table[key] = check_q(args[-1], lineno)
        elif head == "accept":
            accepting += [check_q(q, lineno) for q in args]
        else:
            raise FormatError(lineno, f"unknown directive {head!r}")
    if carrier is None:
        raise FormatError(1, "algebra has no carrier")
    for op in sig.ops:
        if op.arity is not None:
            rows = len(carrier) ** op.arity
            if rows > LARGE_TABLE_WARNING:
                warnings.warn(f"table for {op.name} has {rows} rows")
    try:
        return FiniteAlgebra(sig, carrier, letters, tables,
                             frozenset(accepting), name=name)
    except ValueError as e:
        raise FormatError(1, str(e))


def algebra_to_text(alg: FiniteAlgebra) -> str:
    lines = [f"algebra {alg.name}", "carrier " + " ".join(alg.carrier)]
    for sym in alg.signature.alphabet:
        lines.append(f"letter {sym} -> {alg.letter_image[sym]}")
    for op_name in sorted(alg.tables):
        for args, out in sorted(alg.tables[op_name].items()):
            lines.append(f"op {op_name} : " + " ".join(args) + f" -> {out}")
    lines.append("accept " + " ".join(sorted(alg.accepting)))
    return "\n".join(lines) + "\n"
