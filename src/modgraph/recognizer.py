"""Finite algebras over a signature: law validation, evaluation, membership.

A recognizer is a finite carrier with one total table per operation, an
image for each letter, and an accepting subset.  Evaluation folds the
decomposition tree of a graph bottom-up; the validated laws (associativity,
commutativity of the commutative products, the argument-permutation
equations of prime operations) make the result independent of the
admissible presentation choices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import NotInSignature, UnknownSymbol, UnvalidatedAlgebra
from .graphs import LabeledGraph
from .mdec import MDecNode, MDecTree, NodeKind, decompose, fold_tree
from .signature import OpKind, Signature


@dataclass(frozen=True)
class LawViolation:
    law: str
    op_name: str
    instance: tuple[str, ...]
    detail: str

    def __str__(self):
        args = ", ".join(self.instance)
        return f"{self.law} violated by {self.op_name} at ({args}): {self.detail}"


@dataclass(frozen=True)
class AlgebraReport:
    violations: tuple[LawViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "VALID: all laws hold"
        lines = [f"INVALID: {len(self.violations)} violated instances"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


@dataclass
class FiniteAlgebra:
    """Total finite algebra plus an accepting subset.

    Tables map argument tuples of carrier elements to carrier elements;
    built-in products use binary tables (variadic application folds them,
    which validated associativity makes sound).
    """

    signature: Signature
    carrier: tuple[str, ...]
    letter_image: dict[str, str]
    tables: dict[str, dict[tuple[str, ...], str]]
    accepting: frozenset[str]
    name: str = "algebra"
    validation: Optional[AlgebraReport] = field(default=None, repr=False)

    def __post_init__(self):
        if len(set(self.carrier)) != len(self.carrier) or not self.carrier:
            raise ValueError("carrier must be a non-empty list of distinct names")
        qs = set(self.carrier)
        for sym in self.signature.alphabet:
            q = self.letter_image.get(sym)
            if q not in qs:
                raise ValueError(f"letter {sym!r} has no carrier image")
        for op in self.signature.ops:
            table = self.tables.get(op.name)
            if table is None:
                raise ValueError(f"operation {op.name!r} has no table")
            arity = op.arity if op.arity is not None else 2
            want = len(self.carrier) ** arity
            if len(table) != want:
                raise ValueError(
                    f"table for {op.name!r} must be total: "
                    f"{want} rows expected, {len(table)} given")
            for args, out in table.items():
                if len(args) != arity or any(a not in qs for a in args) or out not in qs:
                    raise ValueError(f"bad table row for {op.name!r}: {args} -> {out}")
        if not self.accepting <= qs:
            raise ValueError("accepting elements must come from the carrier")

    def apply2(self, op_name: str, a: str, b: str) -> str:
        return self.tables[op_name][(a, b)]


def validate_algebra(alg: FiniteAlgebra) -> AlgebraReport:
    """Check every law instance over the carrier; the report lists failures.

    A passing report is stored on the algebra and unlocks evaluation.
    """
    violations: list[LawViolation] = []
    qs = alg.carrier
    for op in alg.signature.ops:
        table = alg.tables[op.name]
        if op.kind is not OpKind.PRIME:
            for a, b, c in itertools.product(qs, repeat=3):
                left = table[(table[(a, b)], c)]
                right = table[(a, table[(b, c)])]
                if left != right:
                    violations.append(LawViolation(
                        "associativity", op.name, (a, b, c),
                        f"({a}{b}){c} = {left} but {a}({b}{c}) = {right}"))
            if op.kind in (OpKind.PARALLEL, OpKind.CLIQUE):
                for a, b in itertools.product(qs, repeat=2):
                    if table[(a, b)] != table[(b, a)]:
                        violations.append(LawViolation(
                            "commutativity", op.name, (a, b),
                            f"{a}{b} = {table[(a, b)]} but {b}{a} = {table[(b, a)]}"))
        else:
            n = op.arity
            for sigma in op.symmetry.automorphisms:
                for args in itertools.product(qs, repeat=n):
                    permuted = tuple(args[sigma(i) - 1] for i in range(1, n + 1))
                    if table[args] != table[permuted]:
                        violations.append(LawViolation(
                            "argument-permutation", op.name, args,
                            f"image differs from the {sigma} reordering "
                            f"{permuted}: {table[args]} vs {table[permuted]}"))
    report = AlgebraReport(tuple(violations))
    alg.validation = report
    return report


def _require_validated(alg: FiniteAlgebra, allow_unvalidated: bool):
    if allow_unvalidated:
        return
    if alg.validation is None:
        raise UnvalidatedAlgebra("run validate_algebra before evaluating "
                                 "(or pass allow_unvalidated=True)")
    if not alg.validation.ok:
        raise UnvalidatedAlgebra("algebra failed validation; evaluation would "
                                 "not be well-defined")


_KIND_TO_OP = {NodeKind.PAR: OpKind.PARALLEL, NodeKind.SEQ: OpKind.SEQUENTIAL,
               NodeKind.CLIQUE: OpKind.CLIQUE}


def evaluate_tree(t: MDecTree, alg: FiniteAlgebra,
                  allow_unvalidated: bool = False) -> str:
    """Fold a decomposition tree bottom-up through the algebra's tables."""
    _require_validated(alg, allow_unvalidated)

    def step(node: MDecNode, vals: list[str]) -> str:
        if node.is_leaf:
            if node.symbol is None:
                raise ValueError("cannot evaluate an unlabeled graph")
            q = alg.letter_image.get(node.symbol)
            if q is None:
                raise UnknownSymbol(
                    f"letter {node.symbol!r} is not in the algebra's alphabet")
            return q
        if node.kind is NodeKind.PRIME:
            if not alg.signature.has_op(node.op.name):
                raise NotInSignature(
                    f"operation {node.op.name!r} not in the algebra's signature",
                    quotient=node.op.graph)
            return alg.tables[node.op.name][tuple(vals)]
        op = alg.signature.builtin(_KIND_TO_OP[node.kind])
        if op is None:
            raise NotInSignature(
                f"the {node.kind.value} product is not in the algebra's signature")
        acc = vals[0]
        for v in vals[1:]:
            acc = alg.apply2(op.name, acc, v)
        return acc

    return fold_tree(t.root, step)


def evaluate(g: LabeledGraph, alg: FiniteAlgebra,
             allow_unvalidated: bool = False) -> str:
    """Carrier element of a graph: decompose, then fold."""
    _require_validated(alg, allow_unvalidated)
    tree = decompose(g, alg.signature)
    return evaluate_tree(tree, alg, allow_unvalidated=True)


def member(g: LabeledGraph, alg: FiniteAlgebra,
           allow_unvalidated: bool = False) -> bool:
    """True iff the graph evaluates into the accepting subset."""
    return evaluate(g, alg, allow_unvalidated=allow_unvalidated) in alg.accepting


def binary_table(carrier: Sequence[str], fn) -> dict[tuple[str, ...], str]:
    return {(a, b): fn(a, b) for a in carrier for b in carrier}


def nary_table(carrier: Sequence[str], n: int, fn) -> dict[tuple[str, ...], str]:
    return {args: fn(*args) for args in itertools.product(carrier, repeat=n)}
