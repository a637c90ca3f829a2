"""The closure model checker, kept as the referee of ``cms.ModelChecker``,
and ``expand``, which inlines every call into plain counting-MSO.

Each distinct formula node is compiled once per checker into a closure that
charges one unit of work per entry, with a memo table per quantifier and
one table per definition on the values of its calls' arguments.  This is
the checker ``cms.ModelChecker`` replaced; the differential tests in
``test_cms_referee.py`` require the two to give the same answer and the
same ``work`` after every check; ``test_definitions.py`` requires a
formula and its expansion to give the same answers.
"""

from __future__ import annotations

import itertools
import weakref
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional

from modgraph.cms import (DEFAULT_BUDGET, SET, And, Call, CmsFormula, Eq, ExistsMod,
                          Forall, ForallSet, Implies, In, Not, Or, Pred,
                          Structure, _children, _each, _free, _Meter, _Quantifier,
                          _uses, _walk, variable_kinds)
from modgraph.errors import ArityMismatch, UnboundVariable


_Code = Callable[[], bool]


class ClosureChecker:
    """Brute-force evaluator over one structure.

    Each distinct formula node is compiled once per checker into a closure
    over one environment dict of variable values.  Formulas are looked up
    by structure, which for hash-consed nodes is identity, so re-parsing a
    sentence reuses its compiled entry and a transient formula can never
    inherit another formula's tables.  Every quantifier closure owns a memo table
    keyed by the values of its node's free variables; a subformula shared
    between several formulas, such as the library predicates' common
    building blocks, is compiled once and shares one table.  A call
    looks up its definition's table on its argument values, and on a miss
    evaluates the body with the parameters bound to them.  Work is counted
    per formula node entry, memo and table hits included, against a
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
        self._tables: dict = {}
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
        if isinstance(node, Call):
            return self._build_call(node)
        return self._build_quantifier(node)

    def _build_call(self, node: Call) -> _Code:
        # one table per definition, shared by every call site; the body is
        # compiled at the first miss and run with the parameters bound
        meter, env, checker = self._meter, self._env, weakref.ref(self)
        defn, args = node.defn, node.args
        table = self._tables.setdefault(defn, {})
        body = None

        def run():
            nonlocal body
            meter.work += 1
            k = tuple(env[a] for a in args)
            hit = table.get(k)
            if hit is not None:
                return hit
            if meter.work > meter.budget:
                meter.exhausted()
            if body is None:
                body = checker()._compile(defn.body)
            saved = [env.get(p) for p in defn.params]
            env.update(zip(defn.params, k))
            table[k] = result = bool(body())
            env.update(zip(defn.params, saved))
            return result
        return run

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


def expand(f: CmsFormula) -> CmsFormula:
    """f in plain counting-MSO: every call replaced by its definition's
    body, with the parameters renamed to the arguments and every bound
    variable of the body to a fresh name, so nothing is captured."""
    taken: set[str] = set()
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, (In, Eq, Pred, Call)):
            taken.update(name for name, _ in _uses(g))
        else:
            if isinstance(g, _Quantifier):
                taken.add(g.var)
            todo.extend(_children(g))
    counter = itertools.count(1)

    def fresh(kind: str) -> str:
        names = (f"{'P' if kind == SET else 'p'}{k}" for k in counter)
        return next(name for name in names if name not in taken)

    def inline(g: CmsFormula, ren: dict[str, str], renaming: bool):
        # ren maps free names to their names in the result; binders are
        # renamed apart inside definition bodies and kept outside them
        if isinstance(g, In):
            return In(ren.get(g.elem, g.elem), ren.get(g.sett, g.sett))
        if isinstance(g, Eq):
            return Eq(ren.get(g.left, g.left), ren.get(g.right, g.right))
        if isinstance(g, Pred):
            return Pred(g.name, tuple(ren.get(a, a) for a in g.args))
        if isinstance(g, Call):
            d = g.defn
            inner = {p: ren.get(a, a) for p, a in zip(d.params, g.args)}
            return (yield inline(d.body, inner, True))
        if isinstance(g, Not):
            return Not((yield inline(g.body, ren, renaming)))
        if isinstance(g, (And, Or)):
            parts = yield _each(inline(p, ren, renaming) for p in g.parts)
            return type(g)(tuple(parts))
        if isinstance(g, Implies):
            return Implies((yield inline(g.left, ren, renaming)),
                           (yield inline(g.right, ren, renaming)))
        var = fresh(g._kind) if renaming else g.var
        body = yield inline(g.body, {**ren, g.var: var}, renaming)
        if isinstance(g, ExistsMod):
            return ExistsMod(g.q, var, body)
        return type(g)(var, body)

    return _walk(inline(f, {}, False))
