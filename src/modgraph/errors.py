"""Exception types shared across the package."""

from __future__ import annotations


class ModgraphError(Exception):
    """Base class for all errors raised by this package."""


class VertexNotInGraph(ModgraphError):
    pass


class EmptySetError(ModgraphError):
    pass


class SizeLimitExceeded(ModgraphError):
    """Search-based operation invoked beyond its configured vertex bound."""


class ArityMismatch(ModgraphError):
    pass


class OverlappingOperands(ModgraphError):
    """Operands passed to an exact-id composition share vertex ids."""


class UnknownOp(ModgraphError):
    pass


class UnknownSymbol(ModgraphError):
    pass


class TooSmall(ModgraphError):
    """Decomposition step applied to a graph with fewer than 2 vertices."""


class NotInSignature(ModgraphError):
    """A prime quotient matched no operation of the signature.

    Carries the offending concrete quotient graph so callers can extend
    the signature or re-run in the open-signature mode.
    """

    def __init__(self, message, quotient=None):
        super().__init__(message)
        self.quotient = quotient


class NotWeaklyRigid(ModgraphError):
    pass


class NotWeaklyRigidSignature(NotWeaklyRigid):
    pass


class UnvalidatedAlgebra(ModgraphError):
    pass


class BudgetExceeded(ModgraphError):
    """The model checker hit its work budget before finishing."""


class UnknownPredicate(ModgraphError):
    pass


class UnboundVariable(ModgraphError):
    pass


class FormatError(ModgraphError):
    """Parse error in one of the text formats, with a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class FormulaSyntaxError(ModgraphError):
    """Parse error in the formula grammar, with line:column position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
