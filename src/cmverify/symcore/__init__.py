"""Exact symbolic kernel: expressions held as canonical rational
functions over Q, a parser that builds them, and their canonical text."""

from .expr import (ONE, ZERO, DivisionByZeroExpr, DomainError, Expr,
                   ExprSyntaxError, UnknownSymbol, differentiate, esum,
                   eval_rational, render)
from .parse import parse_expr, parse_tokens, tokenize

__all__ = [
    "Expr", "ZERO", "ONE",
    "ExprSyntaxError", "UnknownSymbol", "DivisionByZeroExpr", "DomainError",
    "parse_expr", "parse_tokens", "tokenize",
    "differentiate", "eval_rational", "render", "esum",
]
