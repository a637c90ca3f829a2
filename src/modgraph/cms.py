"""Counting monadic second-order logic over finite relational structures.

Formulas are hash-consed syntax trees: a node built equal to a live node
is that node, so equal formulas are one object.  A ``Definition`` names a
formula over its parameters and a ``Call`` applies it to variables; a call
abbreviates its definition's body, and the test suite inlines every call
into plain counting-MSO as a referee.  Model checking is brute-force
Tarskian semantics (set quantifiers range over all subsets of the
domain) with a deterministic work budget, memoization of quantified
subformulas and tabling of definitions on their argument values: a call
costs one unit of work, and its body is evaluated once per table entry.
An element quantifier whose body holds only atoms and connectives is
evaluated set-at-a-time on bitmasks over the domain, with the work an
element-at-a-time evaluation would charge counted analytically; every
other quantifier loops, inlining the set-at-a-time quantifiers in its body
and calling the units and definition tables of the rest.  Each
quantifier, definition and checked formula is compiled to generated
Python code once per formula shape.  Structure encoders turn labeled
graphs and decomposition trees into relational structures.
"""

from __future__ import annotations

import collections
import functools
import itertools
import re
import weakref
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (ArityMismatch, BudgetExceeded, FormulaSyntaxError,
                     UnboundVariable, UnknownPredicate, UnknownSymbol)
from .graphs import LabeledGraph
from .mdec import MDecNode, MDecTree, NodeKind
from .signature import Signature, SignatureOp

DEFAULT_BUDGET = 10 ** 8

ELEMENT = "element"
SET = "set"

# the most terms of one generated sum
_SUM_TERMS = 100


@dataclass(frozen=True)
class RelationalSignature:
    predicates: tuple[tuple[str, int], ...]

    def __post_init__(self):
        arities = dict(self.predicates)
        if len(arities) != len(self.predicates):
            raise ValueError("duplicate predicate names")
        if any(a < 1 for a in arities.values()):
            raise ValueError("predicate arities must be >= 1")
        object.__setattr__(self, "_arities", arities)

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise UnknownPredicate(f"predicate {name!r} not in signature") from None

    def has(self, name: str) -> bool:
        return name in self._arities


@dataclass(frozen=True)
class Structure:
    """Finite domain with one relation of matching arity per predicate.

    A structure keeps the relation rows its model checkers read, built on
    first use and shared by every checker on it, so its relations must not
    change after construction."""

    signature: RelationalSignature
    domain: tuple
    relations: Mapping[str, frozenset[tuple]]

    def __post_init__(self):
        index = {e: i for i, e in enumerate(self.domain)}
        if len(index) != len(self.domain):
            raise ValueError("domain elements must be distinct")
        for name, tuples in self.relations.items():
            arity = self.signature.arity(name)
            if set(map(len, tuples)) <= {arity} and all(
                    map(index.__contains__, itertools.chain.from_iterable(tuples))):
                continue
            for tup in tuples:
                if len(tup) != arity or any(e not in index for e in tup):
                    raise ValueError(f"bad tuple {tup} for predicate {name!r}")
        # what checkers read: each element's position in the domain, and
        # (name, arity, form) -> rows, filled by ModelChecker._table
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_rows", {})

    @classmethod
    def _trusted(cls, signature: RelationalSignature, domain: tuple,
                 relations: Mapping[str, frozenset[tuple]]) -> "Structure":
        """A structure made from parts that are valid by construction,
        without the checks of ``__post_init__``: distinct domain elements
        and tuples of the predicates' arities over them, as
        ``tree_relations`` builds for ``tree_structure``."""
        s = object.__new__(cls)
        s.__dict__.update(signature=signature, domain=domain, relations=relations,
                          _index={e: i for i, e in enumerate(domain)}, _rows={})
        return s


# ---------------------------------------------------------------- formulas

def _walk(gen):
    """Run a walk written as a generator, without recursion.  Where the
    walk would call itself it yields the generator of that call, and is
    sent back the call's return value; the suspended walks wait on an
    explicit stack, so a walk goes as deep as its formula does and runs
    in the order the recursion would."""
    stack, value = [gen], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def _each(walks):
    """The results of the walks, in order, as a walk."""
    done = []
    for walk in walks:
        done.append((yield walk))
    return done


# node key -> weak reference to the live node of that structure
_live: dict = {}


class _Interning(type):
    """Builds a node as its class does, then returns the live node of
    equal structure if there is one, and registers the new node if not."""

    def __call__(cls, *args, **kwargs):
        node = super().__call__(*args, **kwargs)
        key = node._key
        ref = _live.get(key)
        if ref is not None:
            live = ref()
            if live is not None:
                return live

        def forget(dead):
            # a node collected late must not evict an equal one built since
            if _live.get(key) is dead:
                del _live[key]

        _live[key] = weakref.ref(node, forget)
        return node


class _Structural(metaclass=_Interning):
    """Hash-consed: a node built equal to a live node is that node, so
    equality is identity and equal nodes built apart share every table
    keyed on them.  The key is the type and the fields; the children in it
    are interned already, so comparing two keys compares the children by
    identity and the lookup does not walk the tree.  Each node hashes its
    key once at construction (a child hashes by its stored hash), so
    hashing is O(1) and never reads a node's id."""

    def __post_init__(self):
        fields = self.__dict__
        key = (type(self), *fields.values())
        fields["_key"] = key
        fields["_hash"] = hash(key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return _walk(_repr(self, set()))


def _repr(node: _Structural, seen: set):
    """The dataclass repr of node, as a walk, except that a definition
    equal to one printed already prints as ``Definition(name=..., ...)``."""
    if isinstance(node, Definition):
        if node in seen:
            return f"Definition(name={node.name!r}, ...)"
        seen.add(node)
    fields = []
    for name in node.__dataclass_fields__:
        value = node.__dict__[name]
        if isinstance(value, tuple) and value and isinstance(value[0], _Structural):
            items = yield _each(_repr(v, seen) for v in value)
            text = f"({', '.join(items)}{',' if len(items) == 1 else ''})"
        else:
            text = ((yield _repr(value, seen)) if isinstance(value, _Structural)
                    else repr(value))
        fields.append(f"{name}={text}")
    return f"{type(node).__qualname__}({', '.join(fields)})"


class CmsFormula(_Structural):
    """A formula node."""

    def free_vars(self) -> frozenset[str]:
        return frozenset(_variables(self)[0])

    def __str__(self):
        return to_text(self)


_node = dataclass(frozen=True, eq=False, repr=False)


@_node
class In(CmsFormula):
    elem: str
    sett: str


@_node
class Eq(CmsFormula):
    left: str
    right: str


@_node
class Pred(CmsFormula):
    name: str
    args: tuple[str, ...]


@_node
class Not(CmsFormula):
    body: CmsFormula


@_node
class And(CmsFormula):
    parts: tuple[CmsFormula, ...]


@_node
class Or(CmsFormula):
    parts: tuple[CmsFormula, ...]


@_node
class Implies(CmsFormula):
    left: CmsFormula
    right: CmsFormula


class _Quantifier(CmsFormula):
    var: str
    body: CmsFormula
    _kind = ELEMENT


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


# keyword -> quantifier, and back
_QUANTIFIERS = {"exists": Exists, "forall": Forall, "existsset": ExistsSet,
                "forallset": ForallSet, "existsmod": ExistsMod}
_KEYWORD = {q: kw for kw, q in _QUANTIFIERS.items()}


@dataclass(frozen=True, eq=False, repr=False)
class Definition(_Structural):
    """A named predicate: its parameters and its body, whose free variables
    are among the parameters.  A parameter's kind (element or set) is read
    from its use in the body."""

    name: str
    params: tuple[str, ...]
    body: CmsFormula

    def __post_init__(self):
        super().__post_init__()
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"definition {self.name!r} repeats a parameter")
        free, clash = _variables(self.body)
        loose = free.keys() - set(self.params)
        if loose:
            raise UnboundVariable(f"definition {self.name!r} leaves "
                                  f"{sorted(loose)} unbound")
        if clash is not None:
            raise UnboundVariable(clash)
        object.__setattr__(self, "kinds", tuple(free.get(p) for p in self.params))


@_node
class Call(CmsFormula):
    """A definition applied to variables, one per parameter."""

    defn: Definition
    args: tuple[str, ...]

    def __post_init__(self):
        if len(self.args) != len(self.defn.params):
            raise ArityMismatch(f"{self.defn.name!r} expects "
                                f"{len(self.defn.params)} arguments, got "
                                f"{len(self.args)}")
        super().__post_init__()


def conj(*parts: CmsFormula) -> CmsFormula:
    return _flat(And, parts)


def disj(*parts: CmsFormula) -> CmsFormula:
    return _flat(Or, parts)


def _flat(junction, parts) -> CmsFormula:
    flat: list[CmsFormula] = []
    for p in parts:
        flat.extend(p.parts if isinstance(p, junction) else (p,))
    return flat[0] if len(flat) == 1 else junction(tuple(flat))


def _children(f: CmsFormula) -> tuple[CmsFormula, ...]:
    """The formulas directly below f; a call's definition body counts as
    below it."""
    if isinstance(f, (And, Or)):
        return f.parts
    if isinstance(f, Implies):
        return (f.left, f.right)
    if isinstance(f, (Not, _Quantifier)):
        return (f.body,)
    if isinstance(f, Call):
        return (f.defn.body,)
    return ()


def _uses(f) -> tuple[tuple[str, Optional[str]], ...]:
    """The variables an atom or a call takes, each with the kind of its
    use: None for a call argument whose parameter the body never uses."""
    if isinstance(f, In):
        return ((f.elem, ELEMENT), (f.sett, SET))
    if isinstance(f, Eq):
        return ((f.left, ELEMENT), (f.right, ELEMENT))
    if isinstance(f, Pred):
        return tuple((a, ELEMENT) for a in f.args)
    return tuple(zip(f.args, f.defn.kinds))


def _variables(f: CmsFormula) -> tuple[dict[str, Optional[str]], Optional[str]]:
    """f's free variables, each with the kind of its uses (None when only
    call arguments of unused parameters take it), and the first use of a
    variable as both kinds in depth-first order, as a message (None if
    there is none).

    The uses under each open quantifier are gathered apart, on an
    explicit stack, and checked against its kind when it closes.  While
    no use clashes, the free uses are kept on f and on every quantifier
    closed below it, so each is walked once; they are shared and must
    not be changed."""
    got = f.__dict__.get("_vars")
    if got is not None:
        return got, None
    clash = None
    # the free uses under each open quantifier, the root's first
    scopes: list[dict[str, Optional[str]]] = [{}]
    todo: list = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, tuple):
            # the quantifier closes
            q, = g
            free = scopes.pop()
            used = free.pop(q.var, None)
            if used is not None and used != q._kind and clash is None:
                clash = f"variable {q.var!r} used as {used} under a {q._kind} quantifier"
            if clash is None:
                q.__dict__["_vars"] = free
            uses = free.items()
        elif "_vars" in g.__dict__:
            uses = g._vars.items()
        elif isinstance(g, _Quantifier):
            scopes.append({})
            todo += ((g,), g.body)
            continue
        elif isinstance(g, (In, Eq, Pred, Call)):
            uses = _uses(g)
        else:
            todo.extend(reversed(_children(g)))
            continue
        out = scopes[-1]
        for name, kind in uses:
            prev = out.get(name)
            if prev is None:
                if kind is not None:
                    # kinded uses stay in the order first met
                    out.pop(name, None)
                out[name] = kind
            elif kind is not None and kind != prev and clash is None:
                clash = f"variable {name!r} used both as {prev} and {kind}"
    if clash is None:
        f.__dict__["_vars"] = scopes[0]
    return scopes[0], clash


def variable_kinds(f: CmsFormula) -> dict[str, str]:
    """Kinds of the free variables (element vs set), by usage."""
    free, clash = _variables(f)
    if clash is not None:
        raise UnboundVariable(clash)
    return {name: kind for name, kind in free.items() if kind is not None}


def to_text(f: CmsFormula) -> str:
    return _walk(_text(f))


def _text(f):
    if isinstance(f, In):
        return f"(in {f.elem} {f.sett})"
    if isinstance(f, Eq):
        return f"(= {f.left} {f.right})"
    if isinstance(f, (Pred, Call)):
        name = f.defn.name if isinstance(f, Call) else f.name
        return "(" + " ".join((name,) + f.args) + ")"
    if isinstance(f, Not):
        return f"(not {(yield _text(f.body))})"
    if isinstance(f, (And, Or)):
        parts = yield _each(map(_text, f.parts))
        return f"({'and' if isinstance(f, And) else 'or'} {' '.join(parts)})"
    if isinstance(f, Implies):
        return f"(implies {(yield _text(f.left))} {(yield _text(f.right))})"
    if isinstance(f, _Quantifier):
        head = _KEYWORD[type(f)] + (f" {f.q}" if isinstance(f, ExistsMod) else "")
        return f"({head} {f.var} {(yield _text(f.body))})"
    raise TypeError(f"not a formula: {f!r}")


# ------------------------------------------------------------------ parser

_TOKEN_RE = re.compile(r"[()]|[^\s()]+")
_NOT_A_VARIABLE = {*_QUANTIFIERS, "and", "or", "not", "implies", "in", "=",
                   "(", ")", "<eof>"}


def _uncommented(text: str) -> str:
    """text without its comments, each from '#' to the end of its line;
    every other token keeps its line and column."""
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def _position(text: str, k: int) -> tuple[int, int]:
    """Line and column of the k-th token of text; past the last token, the
    column just after it (1:1 in a text without tokens)."""
    spans = [m.span() for m in _TOKEN_RE.finditer(text)]
    if not spans:
        return 1, 1
    at, end = spans[min(k, len(spans) - 1)]
    lines = (text[:at] + "x").splitlines()
    return len(lines), len(lines[-1]) + (end - at if k >= len(spans) else 0)


def parse_formula(text: str, sig: RelationalSignature,
                  free_vars: Optional[Mapping[str, str]] = None) -> CmsFormula:
    """Parse the parenthesized prefix grammar against a relational signature.

    Variables must be bound by a quantifier or declared in free_vars
    (mapping name -> "element" | "set").  The parse keeps the operators
    whose operands it is reading on an explicit stack, so it does not
    recurse however deep the formula is; an error names its line:column.
    """
    if "#" in text:
        text = _uncommented(text)
    toks = _TOKEN_RE.findall(text)
    toks.append("<eof>")
    scope: dict[str, str] = dict(free_vars or {})

    def fail(k, msg):
        raise FormulaSyntaxError(*_position(text, k), msg)

    def variable(k, kind=None):
        """Token k as a variable name, bound as kind unless kind is None."""
        name = toks[k]
        if name in _NOT_A_VARIABLE:
            fail(k, "expected a variable name")
        if kind is not None and scope.get(name) != kind:
            line, col = _position(text, k)
            got = scope.get(name)
            raise UnboundVariable(
                f"{line}:{col}: variable {name!r} is not bound" if got is None else
                f"{line}:{col}: variable {name!r} is a {got} variable, used as {kind}")
        return name

    # operators whose operands are being read: (head, operands, binder)
    stack: list = []
    pos = 0
    while True:
        if toks[pos] != "(":
            fail(pos, "expected '('")
        kw = toks[pos + 1]
        pos += 2
        if kw in _QUANTIFIERS:
            build = _QUANTIFIERS[kw]
            if kw == "existsmod":
                q = toks[pos]
                if not (q.isascii() and q.isdigit()) or int(q) < 2:
                    fail(pos, "counting modulus must be an integer >= 2")
                build = functools.partial(ExistsMod, int(q))
                pos += 1
            name = variable(pos)
            pos += 1
            stack.append((build, [], (name, scope.get(name))))
            scope[name] = _QUANTIFIERS[kw]._kind
            continue
        if kw in ("not", "implies", "and", "or"):
            stack.append((kw, [], None))
            continue
        if kw == "in" or kw == "=":
            left = variable(pos, ELEMENT)
            right = variable(pos + 1, SET if kw == "in" else ELEMENT)
            node = In(left, right) if kw == "in" else Eq(left, right)
            pos += 2
        elif kw in ("(", ")", "<eof>"):
            fail(pos - 1, "expected an operator or predicate name")
        else:
            if not sig.has(kw):
                line, col = _position(text, pos - 1)
                raise UnknownPredicate(f"{line}:{col}: unknown predicate {kw!r}")
            start = pos
            while toks[pos] not in (")", "<eof>"):
                variable(pos)
                pos += 1
            if pos - start != sig.arity(kw):
                line, col = _position(text, start - 1)
                raise ArityMismatch(
                    f"{line}:{col}: predicate {kw!r} expects "
                    f"{sig.arity(kw)} arguments, got {pos - start}")
            node = Pred(kw, tuple([variable(k, ELEMENT) for k in range(start, pos)]))
        # close the node, then every operator it completes
        while True:
            if toks[pos] != ")":
                raise FormulaSyntaxError(*_position(text, pos),
                                         f"expected ')', found {toks[pos]!r}")
            pos += 1
            if not stack:
                if toks[pos] != "<eof>":
                    raise FormulaSyntaxError(*_position(text, pos),
                                             "unexpected trailing input")
                return node
            head, parts, binder = stack[-1]
            parts.append(node)
            if head == "not":
                node = Not(node)
            elif head == "implies":
                if len(parts) < 2:
                    break
                node = Implies(*parts)
            elif head in ("and", "or"):
                if toks[pos] == "(":
                    break
                if len(parts) < 2:
                    raise FormulaSyntaxError(*_position(text, pos),
                                             f"{head} needs at least 2 operands")
                node = And(tuple(parts)) if head == "and" else Or(tuple(parts))
            else:
                name, saved = binder
                if saved is None:
                    del scope[name]
                else:
                    scope[name] = saved
                node = head(name, node)
            stack.pop()


# ----------------------------------------------------------- model checking

_Code = Callable[..., bool]


def _free(node: CmsFormula) -> tuple[str, ...]:
    """Sorted free variables of a node."""
    return tuple(sorted(_variables(node)[0]))


_ELEMENT_QUANTIFIERS = (Exists, Forall, ExistsMod)


def _set_at_a_time(f: CmsFormula, var: str) -> bool:
    """Whether f can be evaluated as bitmasks over the values of var: atoms
    (none of arity 3 or more on var) and connectives only."""
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, (Not, And, Or, Implies)):
            todo.extend(_children(g))
        elif (isinstance(g, Pred) and len(g.args) >= 3 and var in g.args
              or not isinstance(g, (In, Eq, Pred))):
            return False
    return True


def _masked(f: CmsFormula) -> bool:
    """Whether f is an element quantifier evaluated set-at-a-time."""
    return (isinstance(f, _ELEMENT_QUANTIFIERS)
            and _set_at_a_time(f.body, f.var))


def _shape(node) -> tuple[tuple, list]:
    """The canonical form of one compiled unit, with the quantifiers and
    definitions it refers to by position.

    Variables become positions: the node's free variables in sorted order
    (a definition's parameters in their order), then each binder in
    depth-first order.  Equal quantifiers share one position, as they
    share one memo table, and so do the calls of one definition.

    A "mask" unit is an element quantifier evaluated set-at-a-time: its
    body holds only atoms and connectives.  A "def" unit is a definition,
    a "loop" unit any other quantifier and a "top" unit a formula that is
    neither.  Their canonical forms hold the set-at-a-time quantifiers
    they enter ("quant", inlined), and "call" the units of the other
    quantifiers and the tables of the definitions they call.  The walk
    is a generator run by ``_walk``, so the form may nest to any depth."""
    nodes: list = []
    slots: dict = {}
    bind = itertools.count().__next__

    def slot_of(x):
        slot = slots.get(x)
        if slot is None:
            slot = slots[x] = len(nodes)
            nodes.append(x)
        return slot

    def args(f, sc):
        """A unit's arguments at a call site, in the order it takes them,
        which are also its memo key."""
        return tuple(sc[v] for v in (f.args if isinstance(f, Call) else _free(f)))

    def walk(f, sc):
        if isinstance(f, In):
            return ("in", sc[f.elem], sc[f.sett])
        if isinstance(f, Eq):
            return ("eq", sc[f.left], sc[f.right])
        if isinstance(f, Pred):
            return ("pred", f.name, tuple(sc[a] for a in f.args))
        if isinstance(f, Not):
            return ("not", (yield walk(f.body, sc)))
        if isinstance(f, (And, Or)):
            parts = yield _each(walk(p, sc) for p in f.parts)
            return ("and" if isinstance(f, And) else "or", tuple(parts))
        if isinstance(f, Implies):
            return ("imp", (yield walk(f.left, sc)), (yield walk(f.right, sc)))
        if isinstance(f, Call):
            return ("call", slot_of(f.defn), args(f, sc))
        if _masked(f):
            return (yield quant(f, sc, slot_of(f)))
        return ("call", slot_of(f), args(f, sc))

    def quant(q, sc, slot):
        inner = dict(sc)
        inner[q.var] = bind()
        return ("quant", _KEYWORD[type(q)], getattr(q, "q", 0), inner[q.var],
                (yield walk(q.body, inner)), (slot, args(q, sc)))

    if isinstance(node, Definition):
        scope = {p: bind() for p in node.params}
        return ("def", (len(scope), _walk(walk(node.body, scope)))), nodes
    scope = {v: bind() for v in _free(node)}
    if not isinstance(node, _Quantifier):
        return ("top", (len(scope), _walk(walk(node, scope)))), nodes
    return ("mask" if _masked(node) else "loop", _walk(quant(node, scope, None))), nodes


class _Codegen:
    """Python source of one unit's factory, from its canonical form.

    Identifiers in the source are generated; formula variables appear only
    as positions, predicate names only as string literals.  A unit takes
    the values of its free variables, in sorted order (a definition's
    parameters, in their order), as arguments.  The walks over the form
    (``straight``, ``inline``, ``quant``, ``mask``) are generators run by
    ``_walk``: what they return is what ``_walk`` returns for them."""

    def __init__(self, unit: tuple):
        self.head: list[str] = []
        self.body: list[str] = []
        self.params = ""
        self.depth = 2
        self.k = 0
        self.wconst = 0
        self.dirty = False
        self.tables: dict[tuple, str] = {}
        self.memos: set[int] = set()
        # the open blocks, outermost first: the flag guarding each (None:
        # none), the memo keys built in it (tuple expression -> name), and
        # the keys built in the guarded blocks closed in it, by guard
        self.blocks: list[tuple[Optional[str], dict, dict]] = [(None, {}, {})]
        # flag -> the entry flag it implies
        self.implies: dict[str, str] = {}
        kind, node = unit
        if kind == "top":
            self.top(node)
        elif kind == "def":
            self.define(node)
        else:
            self.unit(node, kind == "mask")

    def source(self) -> str:
        lines = ["def factory(chk, ref, node, NODES):",
                 "    meter = chk._meter", "    N = chk.n", "    ALL = chk.all",
                 "    inner = None"]
        lines += ["    " + h for h in self.head]
        lines += [f"    def run({self.params}):", "        nonlocal inner"] + self.body
        lines.append("    return run")
        return "\n".join(lines) + "\n"

    # -- emission helpers --

    def emit(self, line: str):
        self.body.append("    " * self.depth + line)

    def indent(self, guard: Optional[str] = None):
        self.depth += 1
        self.blocks.append((guard, {}, {}))

    def dedent(self):
        self.depth -= 1
        guard, keys, _ = self.blocks.pop()
        if guard is not None:
            self.blocks[-1][2].setdefault(guard, {}).update(keys)

    def tmp(self, prefix: str = "t") -> str:
        # no other generated name has an underscore
        self.k += 1
        return f"{prefix}_{self.k}"

    def let(self, expr: str, prefix: str = "t") -> str:
        t = self.tmp(prefix)
        self.emit(f"{t} = {expr}")
        return t

    def table(self, name: str, arity: int, form: str) -> str:
        key = (name, arity, form)
        if key not in self.tables:
            self.tables[key] = local = f"R{len(self.tables)}"
            self.head.append(f"{local} = chk._table({name!r}, {arity}, {form!r})")
        return self.tables[key]

    def memo(self, slot) -> str:
        local = f"M{slot}"
        if slot not in self.memos:
            self.memos.add(slot)
            self.head.append(f"{local} = chk._memo_of(NODES[{slot}])")
        return local

    @staticmethod
    def tuple_expr(items) -> str:
        return "(" + "".join(f"{x}, " for x in items).rstrip(" ") + ")"

    # -- memo tables: one value per key --

    def key(self, args, scope) -> str:
        """A memo key: the value itself for one argument, else a tuple,
        built once on each path through the unit, per loop iteration."""
        if len(args) == 1:
            return scope[args[0]]
        expr = self.tuple_expr(scope[i] for i in args)
        # a key built in a closed block can be read where its guard is
        # known to hold: under a flag that implies the guard
        true = set()
        for guard, _, _ in self.blocks:
            while guard is not None and guard not in true:
                true.add(guard)
                guard = self.implies.get(guard)
        for _, keys, closed in self.blocks:
            if expr in keys:
                return keys[expr]
            for guard in true & closed.keys():
                if expr in closed[guard]:
                    return closed[guard][expr]
        name = self.blocks[-1][1][expr] = self.let(expr, "key")
        return name

    def probe(self, memo: str, key: str) -> str:
        """Emit a memo lookup; return the name of the memoized value (None
        on a miss)."""
        return self.let(f"{memo}.get({key})", "hit")

    # -- units --

    def take(self, n: int) -> dict[int, str]:
        """The unit's free variables, the arguments of run."""
        self.params = ", ".join(f"v{i}" for i in range(n))
        return {i: f"v{i}" for i in range(n)}

    def bind_calls(self, f):
        """Bind the units a loop, def or top unit calls, on first use."""
        slots, todo = set(), [f]
        while todo:
            g = todo.pop()
            if g[0] == "call":
                slots.add(g[1])
            elif g[0] in ("and", "or"):
                todo.extend(g[1])
            elif g[0] in ("not", "imp"):
                todo.extend(g[1:])
        if slots:
            self.emit("if inner is None:")
            self.emit(f"    inner = ref()._bind(NODES, {self.tuple_expr(sorted(slots))})")
            self.emit("C = inner")

    def enter(self, nargs: int) -> tuple[dict[int, str], str]:
        """A unit's entry: one unit of work, its own memo probe (return on a
        hit) and the budget check; return its scope and memo key."""
        scope = self.take(nargs)
        self.head.append("MEMO = chk._memo_of(node)")
        self.emit("meter.work += 1")
        key = self.key(range(nargs), scope)
        hit = self.probe("MEMO", key)
        self.emit(f"if {hit} is not None:")
        self.emit(f"    return {hit}")
        self.emit("if meter.work > meter.budget:")
        self.emit("    meter.exhausted()")
        return scope, key

    def unit(self, q, masked: bool):
        _, kind, qmod, var, body, (_, args) = q
        scope, key = self.enter(len(args))
        if masked:
            value, work = _walk(self.quant(q, scope))
            self.emit(f"meter.work += {work}")
        else:
            value = self.loop(q, scope)
        self.emit(f"MEMO[{key}] = {value}")
        self.emit(f"return {value}")

    def define(self, d):
        nparams, body = d
        scope, key = self.enter(nparams)
        t = self.whole(body, scope)
        self.emit(f"MEMO[{key}] = {t}")
        self.emit(f"return {t}")

    def whole(self, f, scope) -> str:
        """Emit a def or top unit's body f as straight-line code, its work
        charged at the end; return the name of its truth."""
        self.bind_calls(f)
        self.emit("w = 0")
        t = _walk(self.straight(f, scope, None))
        self.flush("meter.work")
        if self.dirty:
            self.emit("meter.work += w")
        return t

    def loop(self, q, scope) -> str:
        _, kind, qmod, var, body, _ = q
        self.bind_calls(body)
        self.emit("w = 0")
        self.emit("count = 0" if kind == "existsmod"
                  else f"res = {kind.startswith('forall')}")
        values = "1 << N" if kind.endswith("set") else "N"
        self.emit(f"for v{var} in range({values}):")
        self.indent()
        scope = dict(scope)
        scope[var] = f"v{var}"
        t = _walk(self.straight(body, scope, None))
        self.flush("w")
        if kind == "existsmod":
            self.emit(f"if {t}:")
            self.emit("    count += 1")
        else:
            universal = kind.startswith("forall")
            self.emit(f"if {'not ' if universal else ''}{t}:")
            self.emit(f"    res = {not universal}")
            self.emit("    break")
        self.dedent()
        if kind == "existsmod":
            self.emit(f"res = count % {qmod} == 0")
        self.emit("meter.work += w")
        return "res"

    def top(self, unit):
        nfree, f = unit
        self.emit(f"return {self.whole(f, self.take(nfree))}")

    # -- one element at a time: straight-line code, one flag per node --

    def count(self, entry):
        """Charge one entry: a constant when always entered, else the flag."""
        if entry is None:
            self.wconst += 1
        else:
            self.emit(f"w += {entry}")
            self.dirty = True

    def flush(self, target: str):
        if self.wconst:
            self.emit(f"{target} += {self.wconst}")
            self.wconst = 0
            self.dirty = self.dirty or target == "w"

    def atom(self, f, scope) -> str:
        tag = f[0]
        if tag == "in":
            return f"{scope[f[2]]} >> {scope[f[1]]} & 1"
        if tag == "eq":
            return f"{scope[f[1]]} == {scope[f[2]]}"
        _, name, args = f
        if len(args) == 1:
            return f"{self.table(name, 1, 'mask')} >> {scope[args[0]]} & 1"
        if len(args) == 2:
            return (f"{self.table(name, 2, 'out')}[{scope[args[0]]}]"
                    f" >> {scope[args[1]]} & 1")
        return (f"{self.tuple_expr(scope[a] for a in args)} in "
                f"{self.table(name, len(args), 'tuples')}")

    def straight(self, f, scope, entry):
        """Emit f's evaluation under the flag entry (None: always entered);
        return a name holding its truth, false wherever f is not entered."""
        t = yield self._straight(f, scope, entry)
        if entry is not None and t != entry:
            self.implies[t] = entry
        return t

    def _straight(self, f, scope, entry):
        tag = f[0]
        if tag == "quant":
            return (yield self.inline(f, scope, entry))
        if tag == "call":
            # the memo probe is inlined; a miss calls the unit, whose budget
            # check then sees every unit of work charged so far
            _, slot, args = f
            self.flush("meter.work")
            t = self.tmp()
            if entry is not None:
                self.emit(f"{t} = 0")
                self.emit(f"if {entry}:")
                self.indent(entry)
            hit = self.probe(self.memo(slot), self.key(args, scope))
            self.emit(f"if {hit} is None:")
            if self.dirty:
                self.emit("    meter.work += w")
                self.emit("    w = 0")
            self.emit(f"    {t} = C[{slot}]({', '.join(scope[a] for a in args)})")
            self.emit("else:")
            self.emit(f"    {t} = {hit}")
            self.emit("    w += 1")
            self.dirty = True
            if entry is not None:
                self.dedent()
            return t
        self.count(entry)
        guard = "" if entry is None else f"{entry} and "
        if tag in ("in", "eq", "pred"):
            return self.let(f"{guard}({self.atom(f, scope)})")
        if tag == "not":
            return self.let(f"{guard}not {(yield self.straight(f[1], scope, entry))}")
        if tag == "and":
            e = entry
            for part in f[1]:
                e = yield self.straight(part, scope, e)
            return e
        if tag == "or":
            e = entry
            for part in f[1]:
                t = yield self.straight(part, scope, e)
                e = self.let(f"not {t}" if e is None else f"{e} and not {t}")
            return self.let(f"{guard}not {e}")
        left = yield self.straight(f[1], scope, entry)
        right = yield self.straight(f[2], scope, left)
        return self.let(f"{guard}(not {left} or {right})")

    def inline(self, q, scope, entry):
        """A set-at-a-time quantifier entered from straight-line code: its
        memo probe, and on a miss its budget check and evaluation, inline."""
        _, _, _, _, _, (slot, args) = q
        self.flush("meter.work")
        t = self.tmp()
        if entry is not None:
            self.emit(f"{t} = 0")
            self.emit(f"if {entry}:")
            self.indent(entry)
        memo, key = self.memo(slot), self.key(args, scope)
        hit = self.probe(memo, key)
        self.emit(f"if {hit} is not None:")
        self.emit(f"    {t} = {hit}")
        self.emit("    w += 1")
        self.emit("else:")
        self.indent()
        self.emit("meter.work += w + 1" if self.dirty else "meter.work += 1")
        if self.dirty:
            self.emit("w = 0")
        self.emit("if meter.work > meter.budget:")
        self.emit("    meter.exhausted()")
        value, work = yield self.quant(q, scope)
        self.emit(f"meter.work += {work}")
        self.emit(f"{memo}[{key}] = {value}")
        self.emit(f"{t} = {value}")
        self.dedent()
        self.dirty = True
        if entry is not None:
            self.dedent()
        return t

    # -- all elements at once: truth and entry masks per node --

    def quant(self, q, scope):
        """Emit the evaluation of a set-at-a-time quantifier; return the
        names of its value and of the work its body charges (one unit per
        node entry, up to the element that decides it, as an
        element-at-a-time loop would charge)."""
        _, kind, qmod, var, body, _ = q
        inner = dict(scope)
        inner[var] = None
        entries: list[str] = []
        truth = yield self.mask(body, inner, "ALL", entries)
        value = self.tmp("val")
        if kind == "existsmod":
            pre = "ALL"
            self.emit(f"{value} = ({truth} & ALL).bit_count() % {qmod} == 0")
        else:
            witness = self.let(f"ALL & {'' if kind == 'exists' else '~'}{truth}", "wit")
            pre = self.let(f"(({witness} & -{witness}) << 1) - 1 if {witness} else ALL",
                           "pre")
            self.emit(f"{value} = {witness} != 0" if kind == "exists"
                      else f"{value} = not {witness}")
        terms = []
        for e, n in collections.Counter(entries).items():
            if pre == "ALL":
                term = "N" if e == "ALL" else f"{e}.bit_count()"
            else:
                term = f"{pre}.bit_count()" if e == "ALL" else f"({e} & {pre}).bit_count()"
            terms.append(term if n == 1 else f"{n} * {term}")
        # a long sum is split into statements of _SUM_TERMS terms: Python's
        # compiler recurses once per term of one expression
        work = self.let(" + ".join(terms[:_SUM_TERMS]), "wk")
        for i in range(_SUM_TERMS, len(terms), _SUM_TERMS):
            self.emit(f"{work} += " + " + ".join(terms[i:i + _SUM_TERMS]))
        return value, work

    def mask_atom(self, f, scope) -> str:
        """A mask over the quantified variable (marked None in scope)."""
        def m(i):
            return scope[i] is None
        tag = f[0]
        if tag == "in":
            _, e, s = f
            return scope[s] if m(e) else f"(ALL if {scope[s]} >> {scope[e]} & 1 else 0)"
        if tag == "eq":
            _, a, b = f
            if m(a) and m(b):
                return "ALL"
            if m(a) or m(b):
                return f"(1 << {scope[b] if m(a) else scope[a]})"
            return f"(ALL if {scope[a]} == {scope[b]} else 0)"
        _, name, args = f
        if len(args) == 1:
            t = self.table(name, 1, "mask")
            return t if m(args[0]) else f"(ALL if {t} >> {scope[args[0]]} & 1 else 0)"
        if len(args) == 2:
            a, b = args
            if m(a) and m(b):
                return self.table(name, 2, "diag")
            if m(b):
                return f"{self.table(name, 2, 'out')}[{scope[a]}]"
            if m(a):
                return f"{self.table(name, 2, 'in')}[{scope[b]}]"
        return f"(ALL if {self.atom(f, scope)} else 0)"

    def mask(self, f, scope, entry, entries):
        """Emit f's truth mask, given the mask of the elements at which it
        is entered; record the entry mask of f and of every node below."""
        entries.append(entry)
        tag = f[0]
        if tag in ("in", "eq", "pred"):
            atom = self.mask_atom(f, scope)
            return atom if atom.isidentifier() else self.let(atom)
        if tag == "not":
            return self.let(f"{entry} & ~{(yield self.mask(f[1], scope, entry, entries))}")
        if tag == "and":
            e = entry
            for part in f[1]:
                e = self.let(f"{e} & {(yield self.mask(part, scope, e, entries))}", "e")
            return e
        if tag == "or":
            e = entry
            for part in f[1]:
                e = self.let(f"{e} & ~{(yield self.mask(part, scope, e, entries))}", "e")
            return self.let(f"{entry} & ~{e}")
        left = yield self.mask(f[1], scope, entry, entries)
        right = yield self.mask(f[2], scope, self.let(f"{entry} & {left}", "e"), entries)
        return self.let(f"{entry} & (~{left} | {right})")


@functools.lru_cache(maxsize=4096)
def _factory(kind: str, source: str) -> Callable:
    """The compiled factory of a unit's source, shared by every formula of
    one canonical form, up to the renaming of variables.  Keyed on the
    text, which compares without recursion, not on the nested form."""
    namespace: dict = {}
    exec(compile(source, f"<cms {kind} unit>", "exec"), namespace)
    return namespace["factory"]


# the nodes whose units were compiled last, kept alive so that a sentence
# parsed again while they live is the same node, with its unit
_recent: collections.deque = collections.deque(maxlen=4096)


def _unit(node):
    """A node's factory, the nodes it refers to and its parameters,
    computed once per node."""
    got = node.__dict__.get("_unit")
    if got is None:
        unit, nodes = _shape(node)
        got = node.__dict__["_unit"] = (
            _factory(unit[0], _Codegen(unit).source()), tuple(nodes), _params(node))
        _recent.append(node)
    return got


def _params(node) -> Optional[tuple[tuple[str, bool], ...]]:
    """(name, is_set) per free variable of a formula, in sorted order; None
    for a definition, or for a formula that uses a variable as both kinds."""
    if not isinstance(node, CmsFormula) or _variables(node)[1] is not None:
        return None
    free = _variables(node)[0]
    return tuple((name, free[name] == SET) for name in sorted(free))


class _Meter:
    """Work counter shared by the units of one checker."""

    __slots__ = ("work", "budget")

    def __init__(self, budget: int):
        self.work = 0
        self.budget = budget

    def exhausted(self):
        raise BudgetExceeded(f"work budget of {self.budget} exhausted")


class ModelChecker:
    """Brute-force evaluator over one structure, set-at-a-time where it can,
    with tabled definitions.

    One rule decides how a quantifier runs.  An element quantifier whose
    body holds only atoms and connectives is evaluated set-at-a-time: every
    body node gets a truth mask over the quantified variable, and the
    quantifier answers from the witness mask.  The work it charges is
    counted analytically: one unit per node entry, as an element-at-a-time
    evaluation that stops at the first deciding element would enter it.
    Every other quantifier loops over the domain or its subsets with its
    body as straight-line code, which inlines the set-at-a-time quantifiers
    that it enters and calls the units of the other quantifiers and the
    tables of the definitions.

    A call of a definition is tabled (Chen and Warren, J. ACM 43(1), 1996,
    without recursion to delay): each definition has one table per checker
    on its argument values, shared by every call site and every formula
    checked on the checker.  A call entry costs one unit of work, and a
    table hit costs only that unit; a miss evaluates the body with the
    parameters bound to the arguments.

    Each looping quantifier, each definition and each formula checked at
    the top is one unit: generated Python code, compiled once per formula
    shape (the same up to the renaming of variables) and bound per checker to
    its domain size, relation rows and memo tables on first use.  Equal
    formulas are one object, so a table keyed on a node follows its
    structure.  Every
    quantifier memoizes its value on the values of its free variables, in
    one table per checker shared by all formulas that contain it: a dict
    from the argument values to the value.

    Cache policy.  Memo and definition tables grow with the distinct
    argument values seen, and they live exactly as long as the checker; to
    free them, drop the checker.  Three tables are shared by every checker.
    The intern table maps a node's structure to the live node, weakly, so a
    formula is held only by its users; a checker keys its units and memo
    tables on nodes and holds them, so they stay interned while it lives.
    A node's compiled unit is stored on the node, and the 4,096 nodes whose
    units were compiled last are kept alive, so a sentence parsed again
    after its checker is dropped is the same node and reuses the unit.  A
    bounded cache maps a unit's generated source to its compiled code, so
    formulas of one canonical form share the code; the text compares
    without recursion, however deep the form.  Relation rows are built once
    per ``Structure``, stored on it as immutable values and shared by every
    checker on it; they live as long as the structure.  Nothing else is
    shared.

    Depth.  No walk of a formula recurses: printing, expansion, the kinds
    and free variables, the canonical form and the code generator keep
    their pending work on explicit stacks, so a formula of any depth of
    connectives gets an answer.  The generated units still call one
    another at run time, one Python frame per unit, so a formula whose
    quantifiers nest deeper than the recursion limit raises
    ``RecursionError``.

    Work is counted per formula node entry, memo and table hits included,
    against a deterministic budget; a check's answer and the work after it
    are those of an element-at-a-time evaluation.  ``BudgetExceeded`` is
    raised on the check whose work passes the budget.  The work recorded
    when it is raised can be larger than an element-at-a-time evaluation
    would have reached, because a set-at-a-time quantifier charges its work
    at once.
    """

    def __init__(self, structure: Structure, budget: int = DEFAULT_BUDGET):
        self.structure = structure
        self.domain = tuple(structure.domain)
        self.n = len(self.domain)
        self.all = (1 << self.n) - 1
        self.index = structure._index
        self._meter = _Meter(budget)
        # units of quantifiers and definitions, and their memo tables
        self._code: dict[object, _Code] = {}
        self._memo: dict[object, dict] = {}
        # relation rows, shared by every checker on the structure
        self._tables: dict[tuple, object] = structure._rows
        # top-level formula -> (unit, its arguments from an environment),
        # and the last one used
        self._tops: dict[CmsFormula, tuple[_Code, Callable]] = {}
        self._last: tuple = (None, None, None)
        # top-level formula -> (its code, (name, is_set) per free variable)
        self._checks: dict[CmsFormula, tuple[_Code, tuple]] = {}

    @property
    def work(self) -> int:
        return self._meter.work

    def to_mask(self, value: Iterable) -> int:
        mask = 0
        for e in value:
            mask |= 1 << self.index[e]
        return mask

    def check(self, formula: CmsFormula, env: Optional[Mapping] = None) -> bool:
        got = self._checks.get(formula)
        if got is None:
            code = self._compile(formula)
            params = _unit(formula)[2]
            if params is None:
                variable_kinds(formula)  # raises on the kind clash
            got = self._checks[formula] = (code, params)
        code, params = got
        env = env or {}
        args = []
        for name, is_set in params:
            if name not in env:
                raise UnboundVariable(f"no value for free variable {name!r}")
            value = env[name]
            if is_set:
                if not isinstance(value, (set, frozenset)):
                    raise UnboundVariable(f"variable {name!r} needs a set value")
                try:
                    args.append(self.to_mask(value))
                except KeyError as e:
                    raise UnboundVariable(f"value of {name!r} holds {e.args[0]!r}, "
                                          "outside the domain") from None
            else:
                try:
                    args.append(self.index[value])
                except (KeyError, TypeError):
                    raise UnboundVariable(f"value of {name!r} is outside the "
                                          "domain") from None
        result = bool(code(*args))
        meter = self._meter
        if meter.work > meter.budget:
            meter.exhausted()
        return result

    def check_prepared(self, formula: CmsFormula, ienv: Mapping[str, int]) -> bool:
        """Like check, with the environment already in internal form
        (element indices and set bitmasks over the domain order).

        The environment is trusted, for speed: it must bind every free
        variable, each element to an index in range(len(domain)) and each
        set to a mask below 1 << len(domain).  Nothing here checks it; a
        value out of range gives an arbitrary answer or a raw error, so
        values from outside the program go through ``check``.
        """
        if formula is not self._last[0]:
            got = self._tops.get(formula)
            if got is None:
                free = _free(formula)
                args = (itemgetter(*free) if len(free) > 1 else
                        (lambda e, v=free[0]: (e[v],)) if free else (lambda e: ()))
                got = self._tops[formula] = (self._compile(formula), args)
            self._last = (formula,) + got
        _, code, args = self._last
        # the unit and the budget test inline, as in check: this runs once
        # per binding of an exhaustive sweep
        result = bool(code(*args(ienv)))
        meter = self._meter
        if meter.work > meter.budget:
            meter.exhausted()
        return result

    def _compile(self, node) -> _Code:
        code = self._code.get(node)
        if code is None:
            factory, nodes, _ = _unit(node)
            # units reach the checker through a weak reference, so they hold
            # no cycle back to it and a dropped checker is freed at once
            code = self._code[node] = factory(self, weakref.ref(self), node, nodes)
        return code

    def _bind(self, nodes: Sequence, slots: Sequence[int]) -> list:
        """The units of the nodes at the given slots, by slot."""
        units: list = [None] * len(nodes)
        for k in slots:
            units[k] = self._compile(nodes[k])
        return units

    def _memo_of(self, node) -> dict:
        memo = self._memo.get(node)
        if memo is None:
            memo = self._memo[node] = {}
        return memo

    def _table(self, name: str, arity: int, form: str):
        """One predicate's relation in the form a unit reads it: a mask
        (unary), out-rows, in-rows or the diagonal (binary), or a set of
        index tuples.  Built once per structure and stored on it, as
        immutable values."""
        key = (name, arity, form)
        got = self._tables.get(key)
        if got is not None:
            return got
        expected = self.structure.signature.arity(name)
        if expected != arity:
            raise ArityMismatch(f"predicate {name!r} expects {expected} "
                                f"arguments, got {arity}")
        index = self.index
        tuples = self.structure.relations.get(name, ())
        if form == "tuples":
            got = frozenset(tuple(map(index.__getitem__, tup)) for tup in tuples)
        elif form in ("out", "in"):
            rows = [0] * self.n
            for a, b in tuples:
                if form == "out":
                    rows[index[a]] |= 1 << index[b]
                else:
                    rows[index[b]] |= 1 << index[a]
            got = tuple(rows)
        else:
            got = 0
            for tup in tuples:
                if form == "mask" or tup[0] == tup[1]:
                    got |= 1 << index[tup[0]]
        self._tables[key] = got
        return got


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
                   ) -> tuple[RelationalSignature, Mapping[str, frozenset[tuple]],
                              tuple[MDecNode, ...]]:
    """Decomposition-tree predicates in index form.

    Returns the relational signature, the relations over preorder indices
    (node ``nodes[i]`` is element i) and the node list in preorder.  Prime
    predicates cover the signature's operations when one is given, else
    the operations appearing in the tree.  A leaf letter outside the
    signature's alphabet raises UnknownSymbol.  The result is computed on
    each call; its relations are frozen, since ``tree_structure`` shares
    them with the structure it builds.
    """
    nodes, down = t.nodes(), t.child_positions()
    symbols = sig.alphabet.symbols if sig is not None else sorted(
        {n.symbol for n in nodes if n.is_leaf and n.symbol is not None})
    letters = frozenset(symbols)
    preds = tree_predicates(symbols, tree_prime_ops(t, sig))
    rels: dict[str, set[tuple]] = {name: set() for name, _ in preds}

    kind_label = {NodeKind.PAR: "label_par", NodeKind.CLIQUE: "label_clique",
                  NodeKind.SEQ: "label_seq"}
    child = rels["child"]
    for i, node in enumerate(nodes):
        if node.is_leaf:
            if node.symbol is not None:
                if node.symbol not in letters:
                    raise UnknownSymbol(f"letter {node.symbol!r} is not in "
                                        "the signature's alphabet")
                rels[label_pred(node.symbol)].add((i,))
            continue
        kids = tuple(down[i])
        child.update((i, c) for c in kids)
        if node.kind is NodeKind.SEQ:
            rels["label_seq"].add((i,))
            rels["first-child"].add((i, kids[0]))
        elif node.kind in kind_label:
            rels[kind_label[node.kind]].add((i,))
        else:
            name, sym = node.op.name, node.op.symmetry
            rels[f"label_{name}"].add((i,))
            rels[f"children_{name}"].update((i,) + enum for enum in sym.enumerations(kids))
            for j in sym.distinguished or ():
                rels[f"dist-child_{name}"].add((i, kids[j - 1]))
    frozen = {name: frozenset(tuples) for name, tuples in rels.items()}
    return RelationalSignature(tuple(preds)), MappingProxyType(frozen), nodes


def tree_structure(t: MDecTree, sig: Optional[Signature] = None) -> Structure:
    """Relational structure of a tree: the domain is 0..m-1 in preorder and
    the relations are those of ``tree_relations``, already in that form
    and valid by construction, so they are not checked again."""
    rsig, rels, nodes = tree_relations(t, sig)
    return Structure._trusted(rsig, tuple(range(len(nodes))), rels)
