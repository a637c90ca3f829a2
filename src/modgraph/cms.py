"""Counting monadic second-order logic over finite relational structures.

Formulas are syntax trees compared by structure; model checking is
brute-force Tarskian semantics (set quantifiers range over all subsets of
the domain), compiled once per subformula into closures, with a
deterministic work budget and memoization of quantified subformulas.
Structure encoders turn labeled graphs and decomposition trees into
relational structures.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (ArityMismatch, BudgetExceeded, FormulaSyntaxError,
                     UnboundVariable, UnknownPredicate)
from .graphs import LabeledGraph
from .mdec import MDecNode, MDecTree, NodeKind
from .signature import Signature, SignatureOp

DEFAULT_BUDGET = 10 ** 8

ELEMENT = "element"
SET = "set"


@dataclass(frozen=True)
class RelationalSignature:
    predicates: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.predicates]
        if len(set(names)) != len(names):
            raise ValueError("duplicate predicate names")
        if any(a < 1 for _, a in self.predicates):
            raise ValueError("predicate arities must be >= 1")

    def arity(self, name: str) -> int:
        for n, a in self.predicates:
            if n == name:
                return a
        raise UnknownPredicate(f"predicate {name!r} not in signature")

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.predicates)


@dataclass(frozen=True)
class Structure:
    """Finite domain with one relation of matching arity per predicate."""

    signature: RelationalSignature
    domain: tuple
    relations: Mapping[str, frozenset[tuple]]

    def __post_init__(self):
        dom = set(self.domain)
        if len(dom) != len(self.domain):
            raise ValueError("domain elements must be distinct")
        for name, tuples in self.relations.items():
            arity = self.signature.arity(name)
            for tup in tuples:
                if len(tup) != arity or any(e not in dom for e in tup):
                    raise ValueError(f"bad tuple {tup} for predicate {name!r}")


# ---------------------------------------------------------------- formulas

class CmsFormula:
    """A formula node.  Nodes compare by structure, never by object
    identity; each node hashes its fields once at construction (child
    hashes are cached in turn), so hashing is O(1) and equal formulas
    built apart share every table keyed on them."""

    def __post_init__(self):
        key = (type(self),) + tuple(vars(self).values())
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (isinstance(other, CmsFormula)
                                 and self._hash == other._hash
                                 and self._key == other._key)

    def free_vars(self) -> frozenset[str]:
        raise NotImplementedError

    def kinds(self, out: dict[str, str]):
        """Accumulate variable kinds, complaining about mixed usage."""
        raise NotImplementedError

    def __str__(self):
        return to_text(self)


_node = dataclass(frozen=True, eq=False)


@_node
class In(CmsFormula):
    elem: str
    sett: str

    def free_vars(self):
        return frozenset((self.elem, self.sett))

    def kinds(self, out):
        _note_kind(out, self.elem, ELEMENT)
        _note_kind(out, self.sett, SET)


@_node
class Eq(CmsFormula):
    left: str
    right: str

    def free_vars(self):
        return frozenset((self.left, self.right))

    def kinds(self, out):
        _note_kind(out, self.left, ELEMENT)
        _note_kind(out, self.right, ELEMENT)


@_node
class Pred(CmsFormula):
    name: str
    args: tuple[str, ...]

    def free_vars(self):
        return frozenset(self.args)

    def kinds(self, out):
        for a in self.args:
            _note_kind(out, a, ELEMENT)


@_node
class Not(CmsFormula):
    body: CmsFormula

    def free_vars(self):
        return self.body.free_vars()

    def kinds(self, out):
        self.body.kinds(out)


@_node
class And(CmsFormula):
    parts: tuple[CmsFormula, ...]

    def free_vars(self):
        return frozenset().union(*(p.free_vars() for p in self.parts))

    def kinds(self, out):
        for p in self.parts:
            p.kinds(out)


@_node
class Or(CmsFormula):
    parts: tuple[CmsFormula, ...]

    def free_vars(self):
        return frozenset().union(*(p.free_vars() for p in self.parts))

    def kinds(self, out):
        for p in self.parts:
            p.kinds(out)


@_node
class Implies(CmsFormula):
    left: CmsFormula
    right: CmsFormula

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def kinds(self, out):
        self.left.kinds(out)
        self.right.kinds(out)


class _Quantifier(CmsFormula):
    var: str
    body: CmsFormula
    _kind = ELEMENT

    def free_vars(self):
        return self.body.free_vars() - {self.var}

    def kinds(self, out):
        inner: dict[str, str] = {}
        self.body.kinds(inner)
        if self.var in inner and inner[self.var] != self._kind:
            raise UnboundVariable(
                f"variable {self.var!r} used as {inner[self.var]} under a "
                f"{self._kind} quantifier")
        inner.pop(self.var, None)
        for name, kind in inner.items():
            _note_kind(out, name, kind)


@_node
class Exists(_Quantifier):
    var: str
    body: CmsFormula


@_node
class Forall(_Quantifier):
    var: str
    body: CmsFormula


@_node
class ExistsSet(_Quantifier):
    var: str
    body: CmsFormula
    _kind = SET


@_node
class ForallSet(_Quantifier):
    var: str
    body: CmsFormula
    _kind = SET


@_node
class ExistsMod(_Quantifier):
    """Holds iff the number of witnesses is congruent to 0 modulo q."""

    q: int
    var: str
    body: CmsFormula

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("counting modulus must be >= 2")
        super().__post_init__()


def _note_kind(out: dict[str, str], name: str, kind: str):
    prev = out.setdefault(name, kind)
    if prev != kind:
        raise UnboundVariable(f"variable {name!r} used both as {prev} and {kind}")


def conj(*parts: CmsFormula) -> CmsFormula:
    flat: list[CmsFormula] = []
    for p in parts:
        flat.extend(p.parts if isinstance(p, And) else (p,))
    return flat[0] if len(flat) == 1 else And(tuple(flat))


def disj(*parts: CmsFormula) -> CmsFormula:
    flat: list[CmsFormula] = []
    for p in parts:
        flat.extend(p.parts if isinstance(p, Or) else (p,))
    return flat[0] if len(flat) == 1 else Or(tuple(flat))


def variable_kinds(f: CmsFormula) -> dict[str, str]:
    """Kinds of the free variables (element vs set), by usage."""
    out: dict[str, str] = {}
    f.kinds(out)
    return out


def to_text(f: CmsFormula) -> str:
    if isinstance(f, In):
        return f"(in {f.elem} {f.sett})"
    if isinstance(f, Eq):
        return f"(= {f.left} {f.right})"
    if isinstance(f, Pred):
        return "(" + " ".join((f.name,) + f.args) + ")"
    if isinstance(f, Not):
        return f"(not {to_text(f.body)})"
    if isinstance(f, And):
        return "(and " + " ".join(to_text(p) for p in f.parts) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(to_text(p) for p in f.parts) + ")"
    if isinstance(f, Implies):
        return f"(implies {to_text(f.left)} {to_text(f.right)})"
    if isinstance(f, Exists):
        return f"(exists {f.var} {to_text(f.body)})"
    if isinstance(f, Forall):
        return f"(forall {f.var} {to_text(f.body)})"
    if isinstance(f, ExistsSet):
        return f"(existsset {f.var} {to_text(f.body)})"
    if isinstance(f, ForallSet):
        return f"(forallset {f.var} {to_text(f.body)})"
    if isinstance(f, ExistsMod):
        return f"(existsmod {f.q} {f.var} {to_text(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


# ------------------------------------------------------------------ parser

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_KEYWORDS = {"exists", "forall", "existsset", "forallset", "existsmod",
             "and", "or", "not", "implies", "in", "="}


class _Tokens:
    def __init__(self, text: str):
        self.items: list[tuple[str, int, int]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            for m in _TOKEN_RE.finditer(body):
                self.items.append((m.group(), lineno, m.start() + 1))
        self.pos = 0
        last = self.items[-1] if self.items else ("", 1, 1)
        self.eof = ("<eof>", last[1], last[2] + len(last[0]))

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else self.eof

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok


def _fail(tok, msg):
    raise FormulaSyntaxError(tok[1], tok[2], msg)


def parse_formula(text: str, sig: RelationalSignature,
                  free_vars: Optional[Mapping[str, str]] = None) -> CmsFormula:
    """Parse the parenthesized prefix grammar against a relational signature.

    Variables must be bound by a quantifier or declared in free_vars
    (mapping name -> "element" | "set").
    """
    toks = _Tokens(text)
    scope: dict[str, str] = dict(free_vars or {})

    def expect(text_):
        tok = toks.next()
        if tok[0] != text_:
            _fail(tok, f"expected {text_!r}, found {tok[0]!r}")
        return tok

    def var_token():
        tok = toks.next()
        if tok[0] in ("(", ")", "<eof>") or tok[0] in _KEYWORDS:
            _fail(tok, "expected a variable name")
        return tok

    def use(tok, kind):
        name = tok[0]
        if name not in scope:
            raise UnboundVariable(f"{tok[1]}:{tok[2]}: variable {name!r} is not bound")
        if scope[name] != kind:
            raise UnboundVariable(
                f"{tok[1]}:{tok[2]}: variable {name!r} is a {scope[name]} "
                f"variable, used as {kind}")
        return name

    def quantified(kind, build):
        tok = var_token()
        name = tok[0]
        saved = scope.get(name)
        scope[name] = kind
        body = formula()
        if saved is None:
            del scope[name]
        else:
            scope[name] = saved
        return build(name, body)

    def formula() -> CmsFormula:
        open_tok = toks.next()
        if open_tok[0] != "(":
            _fail(open_tok, "expected '('")
        head = toks.next()
        kw = head[0]
        if kw == "exists":
            node = quantified(ELEMENT, Exists)
        elif kw == "forall":
            node = quantified(ELEMENT, Forall)
        elif kw == "existsset":
            node = quantified(SET, ExistsSet)
        elif kw == "forallset":
            node = quantified(SET, ForallSet)
        elif kw == "existsmod":
            qtok = toks.next()
            if not qtok[0].isdigit() or int(qtok[0]) < 2:
                _fail(qtok, "counting modulus must be an integer >= 2")
            q = int(qtok[0])
            node = quantified(ELEMENT, lambda v, b: ExistsMod(q, v, b))
        elif kw == "not":
            node = Not(formula())
        elif kw == "implies":
            node = Implies(formula(), formula())
        elif kw in ("and", "or"):
            parts = [formula()]
            while toks.peek()[0] == "(":
                parts.append(formula())
            if len(parts) < 2:
                _fail(toks.peek(), f"{kw} needs at least 2 operands")
            node = And(tuple(parts)) if kw == "and" else Or(tuple(parts))
        elif kw == "in":
            node = In(use(var_token(), ELEMENT), use(var_token(), SET))
        elif kw == "=":
            node = Eq(use(var_token(), ELEMENT), use(var_token(), ELEMENT))
        elif kw in ("(", ")", "<eof>"):
            _fail(head, "expected an operator or predicate name")
        else:
            if not sig.has(kw):
                raise UnknownPredicate(f"{head[1]}:{head[2]}: unknown predicate {kw!r}")
            arg_toks = []
            while toks.peek()[0] not in (")", "<eof>"):
                arg_toks.append(var_token())
            if len(arg_toks) != sig.arity(kw):
                raise ArityMismatch(
                    f"{head[1]}:{head[2]}: predicate {kw!r} expects "
                    f"{sig.arity(kw)} arguments, got {len(arg_toks)}")
            node = Pred(kw, tuple(use(tok, ELEMENT) for tok in arg_toks))
        expect(")")
        return node

    result = formula()
    trailing = toks.peek()
    if trailing[0] != "<eof>":
        _fail(trailing, "unexpected trailing input")
    return result


# ----------------------------------------------------------- model checking

_Code = Callable[[], bool]


def _free(node: CmsFormula) -> tuple[str, ...]:
    """Sorted free variables of a node, computed once per node."""
    got = node.__dict__.get("_free")
    if got is None:
        got = tuple(sorted(node.free_vars()))
        object.__setattr__(node, "_free", got)
    return got


class _Meter:
    """Work counter shared by the closures of one checker."""

    __slots__ = ("work", "budget")

    def __init__(self, budget: int):
        self.work = 0
        self.budget = budget

    def exhausted(self):
        raise BudgetExceeded(f"work budget of {self.budget} exhausted")


class ModelChecker:
    """Brute-force evaluator over one structure.

    Each distinct formula node is compiled once per checker into a closure
    over one environment dict of variable values.  Formulas are looked up
    by structure, never by object identity, so re-parsing a sentence
    reuses its compiled entry and a transient formula can never inherit
    another formula's tables.  Every quantifier closure owns a memo table
    keyed by the values of its node's free variables; a subformula shared
    between several formulas, such as the library predicates' common
    building blocks, is compiled once and shares one table.  Work is
    counted per formula node entry, memo hits included, against a
    deterministic budget.
    """

    def __init__(self, structure: Structure, budget: int = DEFAULT_BUDGET):
        self.structure = structure
        self.domain = tuple(structure.domain)
        self.n = len(self.domain)
        self.index = {e: i for i, e in enumerate(self.domain)}
        self.rels: dict[str, set] = {name: set() for name, _ in
                                     structure.signature.predicates}
        for name, tuples in structure.relations.items():
            self.rels[name] = {tuple(self.index[e] for e in tup) for tup in tuples}
        self._meter = _Meter(budget)
        self._env: dict[str, int] = {}
        self._code: dict[CmsFormula, _Code] = {}
        # top-level node -> (name, is_set) per free variable
        self._params: dict[CmsFormula, tuple[tuple[str, bool], ...]] = {}

    @property
    def work(self) -> int:
        return self._meter.work

    @property
    def budget(self) -> int:
        return self._meter.budget

    def to_mask(self, value: Iterable) -> int:
        mask = 0
        for e in value:
            mask |= 1 << self.index[e]
        return mask

    def check(self, formula: CmsFormula, env: Optional[Mapping] = None) -> bool:
        code = self._compile(formula)
        params = self._params.get(formula)
        if params is None:
            kinds = variable_kinds(formula)
            params = tuple((name, kinds.get(name) == SET)
                           for name in _free(formula))
            self._params[formula] = params
        env = env or {}
        ienv = self._env
        for name, is_set in params:
            if name not in env:
                raise UnboundVariable(f"no value for free variable {name!r}")
            value = env[name]
            if is_set:
                if not isinstance(value, (set, frozenset)):
                    raise UnboundVariable(f"variable {name!r} needs a set value")
                ienv[name] = self.to_mask(value)
            else:
                if value not in self.index:
                    raise UnboundVariable(f"value of {name!r} is outside the domain")
                ienv[name] = self.index[value]
        return self._run(code)

    def check_prepared(self, formula: CmsFormula, ienv: Mapping[str, int]) -> bool:
        """Like check, with the environment already in internal form
        (element indices and set bitmasks over the domain order)."""
        code = self._compile(formula)
        env = self._env
        for name in _free(formula):
            env[name] = ienv[name]
        return self._run(code)

    def _run(self, code: _Code) -> bool:
        result = bool(code())
        if self._meter.work > self._meter.budget:
            self._meter.exhausted()
        return result

    def _compile(self, node: CmsFormula) -> _Code:
        code = self._code.get(node)
        if code is None:
            code = self._code[node] = self._build(node)
        return code

    def _build(self, node: CmsFormula) -> _Code:
        # One closure per node; each entry charges one unit of work, so a
        # memo hit costs exactly one unit.  The budget is compared only where
        # a quantifier loop begins and at the end of a top-level run: work in
        # between is bounded by the formula's size, and a run raises exactly
        # when its total work exceeds the budget.
        meter = self._meter
        if isinstance(node, (In, Eq, Pred)):
            return self._build_atom(node)
        if isinstance(node, Not):
            body = self._compile(node.body)

            def run():
                meter.work += 1
                return not body()
            return run
        if isinstance(node, Implies):
            left, right = self._compile(node.left), self._compile(node.right)

            def run():
                meter.work += 1
                return not left() or right()
            return run
        if isinstance(node, (And, Or)):
            # and stops at the first false part, or at the first true one
            parts = [self._compile(p) for p in node.parts]
            conjunctive = isinstance(node, And)

            def run():
                meter.work += 1
                for p in parts:
                    if (not p()) is conjunctive:
                        return not conjunctive
                return conjunctive
            return run
        return self._build_quantifier(node)

    def _build_quantifier(self, node: _Quantifier) -> _Code:
        # The body is compiled at the first memo miss, so subformulas under
        # quantifiers that no run enters are never compiled.  The checker is
        # reached through a weak reference: its closures then hold no cycle
        # back to it, and a dropped checker is freed at once.
        meter, env, checker = self._meter, self._env, weakref.ref(self)
        var, free = node.var, _free(node)
        key = itemgetter(*free) if free else (lambda _env: ())
        memo: dict = {}
        values = range(1 << self.n if node._kind == SET else self.n)
        if isinstance(node, ExistsMod):
            q = node.q

            def loop(body):
                count = 0
                for i in values:
                    env[var] = i
                    if body():
                        count += 1
                return count % q == 0
        else:
            # exists stops at the first true body, forall at the first false
            universal = isinstance(node, (Forall, ForallSet))

            def loop(body):
                for i in values:
                    env[var] = i
                    if (not body()) is universal:
                        return not universal
                return universal
        body = None

        def run():
            nonlocal body
            meter.work += 1
            k = key(env)
            hit = memo.get(k)
            if hit is not None:
                return hit
            if meter.work > meter.budget:
                meter.exhausted()
            if body is None:
                body = checker()._compile(node.body)
            saved = env.get(var)
            memo[k] = result = loop(body)
            env[var] = saved
            return result
        return run

    def _build_atom(self, node: CmsFormula) -> _Code:
        meter, env = self._meter, self._env
        if isinstance(node, In):
            e, s = node.elem, node.sett

            def run():
                meter.work += 1
                return env[s] >> env[e] & 1
            return run
        if isinstance(node, Eq):
            a, b = node.left, node.right

            def run():
                meter.work += 1
                return env[a] == env[b]
            return run
        args = node.args
        arity = self.structure.signature.arity(node.name)
        if len(args) != arity:
            raise ArityMismatch(f"predicate {node.name!r} expects {arity} "
                                f"arguments, got {len(args)}")
        rel = self.rels[node.name]
        if arity == 1:
            (a,) = args
            mask = sum(1 << i for (i,) in rel)

            def run():
                meter.work += 1
                return mask >> env[a] & 1
            return run
        tuple_of = itemgetter(*args)

        def run():
            meter.work += 1
            return tuple_of(env) in rel
        return run


def model_check(s: Structure, f: CmsFormula, env: Optional[Mapping] = None,
                budget: int = DEFAULT_BUDGET) -> bool:
    """One-shot satisfaction check with a fresh checker."""
    return ModelChecker(s, budget=budget).check(f, env)


# ------------------------------------------------------------------ encoders

def label_pred(symbol: str) -> str:
    return f"label_{symbol}"


def graph_signature(symbols: Sequence[str]) -> RelationalSignature:
    return RelationalSignature((("edge", 2),) +
                               tuple((label_pred(s), 1) for s in symbols))


def graph_structure(g: LabeledGraph, alphabet: Optional[Sequence[str]] = None) -> Structure:
    """Vertices as domain, with the edge relation and one label predicate
    per alphabet symbol."""
    if alphabet is None:
        if g.labels is None:
            raise ValueError("an unlabeled graph needs an explicit alphabet")
        alphabet = sorted(set(g.labels.values()))
    sig = graph_signature(alphabet)
    rels: dict[str, frozenset] = {"edge": frozenset(g.edges)}
    for sym in alphabet:
        rels[label_pred(sym)] = frozenset(
            (v,) for v in g.vertices if g.labels and g.labels[v] == sym)
    return Structure(sig, tuple(g.sorted_vertices()), rels)


def tree_prime_ops(t: MDecTree, sig: Optional[Signature] = None) -> list[SignatureOp]:
    """The prime operations a tree's predicates cover: the signature's when
    one is given, else the operations labelling the tree, by name.  A tree
    operation outside the signature raises UnknownPredicate."""
    seen: dict[str, SignatureOp] = {}
    for n in t.nodes():
        if n.kind is NodeKind.PRIME:
            seen.setdefault(n.op.name, n.op)
    if sig is None:
        return [seen[k] for k in sorted(seen)]
    missing = set(seen) - {op.name for op in sig.prime_ops}
    if missing:
        raise UnknownPredicate(
            f"tree uses operations {sorted(missing)} not in the signature")
    return list(sig.prime_ops)


def tree_predicates(symbols: Iterable[str], prime_ops: Iterable[SignatureOp],
                    ) -> list[tuple[str, int]]:
    """Predicates of a decomposition tree; transitive operations have no
    distinguished children and so no dist-child predicate."""
    preds = [("child", 2), ("first-child", 2), ("label_par", 1),
             ("label_clique", 1), ("label_seq", 1)]
    preds += [(label_pred(s), 1) for s in symbols]
    for op in prime_ops:
        preds += [(f"label_{op.name}", 1), (f"children_{op.name}", op.graph.n + 1)]
        if op.symmetry.distinguished is not None:
            preds.append((f"dist-child_{op.name}", 2))
    return preds


def tree_relations(t: MDecTree, sig: Optional[Signature] = None,
                   ) -> tuple[RelationalSignature, dict[str, set[tuple]], list[MDecNode]]:
    """Decomposition-tree predicates with nodes as the carrier.

    Returns the relational signature, the relations keyed by node objects,
    and the node list in preorder.  Prime predicates cover the signature's
    operations when one is given, else the operations appearing in the tree.
    """
    nodes = t.nodes()
    symbols = sig.alphabet.symbols if sig is not None else sorted(
        {n.symbol for n in nodes if n.is_leaf and n.symbol is not None})
    preds = tree_predicates(symbols, tree_prime_ops(t, sig))
    rels: dict[str, set[tuple]] = {name: set() for name, _ in preds}

    kind_label = {NodeKind.PAR: "label_par", NodeKind.CLIQUE: "label_clique",
                  NodeKind.SEQ: "label_seq"}
    for node in nodes:
        if node.is_leaf:
            if node.symbol is not None:
                rels[label_pred(node.symbol)].add((node,))
            continue
        for c in node.children:
            rels["child"].add((node, c))
        if node.kind is NodeKind.SEQ:
            rels["label_seq"].add((node,))
            rels["first-child"].add((node, node.children[0]))
        elif node.kind in kind_label:
            rels[kind_label[node.kind]].add((node,))
        else:
            name, sym = node.op.name, node.op.symmetry
            rels[f"label_{name}"].add((node,))
            for enum in sym.enumerations(node.children):
                rels[f"children_{name}"].add((node,) + enum)
            for i in sym.distinguished or ():
                rels[f"dist-child_{name}"].add((node, node.children[i - 1]))
    return RelationalSignature(tuple(preds)), rels, nodes


def tree_structure(t: MDecTree, sig: Optional[Signature] = None) -> Structure:
    """Relational structure of a tree; domain is 0..m-1 in preorder."""
    rsig, rels, nodes = tree_relations(t, sig)
    idx = {node: i for i, node in enumerate(nodes)}
    mapped = {name: frozenset(tuple(idx[n] for n in tup) for tup in tuples)
              for name, tuples in rels.items()}
    return Structure(rsig, tuple(range(len(nodes))), mapped)
