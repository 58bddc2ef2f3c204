"""Exact symbolic kernel: one value class, `Expr`, which is
`poly.RationalFunction` (a canonical rational function over Q), a parser
that builds its values, and their canonical text."""

from .expr import (ONE, ZERO, DomainError, Expr, ExprSyntaxError,
                   UnknownSymbol, esum, eval_rational, lincomb, zero_row)
from .parse import parse_expr, parse_tokens, tokenize
from .poly import DivisionByZeroExpr, render

__all__ = [
    "Expr", "ZERO", "ONE",
    "ExprSyntaxError", "UnknownSymbol", "DivisionByZeroExpr", "DomainError",
    "parse_expr", "parse_tokens", "tokenize",
    "eval_rational", "render", "esum", "lincomb", "zero_row",
]
