"""Exact symbolic kernel: expression trees over rational functions."""

from .expr import (Add, Const, Div, DivisionByZeroExpr, DomainError, Expr,
                   ExprSyntaxError, Mul, Neg, Point, Pow, Sym, UnknownSymbol,
                   differentiate, esum, eval_rational, evaluate, normalize,
                   render, substitute)
from .parse import parse_expr, parse_tokens, tokenize

ZERO = Expr.const(0)
ONE = Expr.const(1)

__all__ = [
    "Add", "Const", "Div", "Mul", "Neg", "Pow", "Sym",
    "Expr", "Point", "ZERO", "ONE",
    "ExprSyntaxError", "UnknownSymbol", "DivisionByZeroExpr", "DomainError",
    "parse_expr", "parse_tokens", "tokenize",
    "normalize", "differentiate", "evaluate",
    "eval_rational", "substitute", "render", "esum",
]
