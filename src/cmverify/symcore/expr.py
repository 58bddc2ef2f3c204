"""Expressions over coordinates and parameters.

An `Expr` is a `poly.RationalFunction`, the one value class of the
kernel: one canonical quotient num/den over Q, whether it was parsed from
text or built by operators.  Equality and hashing are those of the
canonical form, and `render` prints it, so two equal Exprs print the
same.  This module adds the parser's errors, the shared `zero_row`,
`lincomb`, the one builder of a row that is a sum of scaled rows, and
the one numeric path, `eval_rational`, and exports the kernel's n-ary
sum `esum` with them.
"""
from __future__ import annotations

from functools import cache

from .poly import ONE, ZERO, RationalFunction, esum

__all__ = [
    "Expr", "ZERO", "ONE", "ExprSyntaxError", "UnknownSymbol",
    "DomainError", "eval_rational", "esum", "lincomb", "zero_row",
]

Expr = RationalFunction


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries a character position.  The
    message ends with it; `reason` is the message without it."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.reason = message
        self.position = position


class UnknownSymbol(ValueError):
    pass


class DomainError(ValueError):
    """Evaluation hit a pole or an unassigned symbol."""


@cache
def zero_row(n: int) -> tuple:
    """The one all-zero row of length n that table builders share, so a
    builder can pass a structurally zero row on by identity."""
    return (ZERO,) * n


def lincomb(n: int, terms) -> tuple:
    """The row of n entries sum_t c_t row_t[l] over the pairs (c, row) of
    `terms`: c is an Expr or the int 1 or -1, and row a sequence of n
    Exprs.  A product is formed only where both factors are nonzero (1 and
    -1 form none), and the shared `zero_row` is skipped unread.  Each entry
    sums its products with `esum` in term order; with no nonzero entry the
    result is the shared `zero_row(n)`."""
    zero = zero_row(n)
    rows = [_scaled(c, row) for c, row in terms
            if row is not zero and (c.__class__ is not Expr or c.num.terms)]
    if not rows:
        return zero
    out = rows[0] if len(rows) == 1 else [
        esum(p) if (p := [x for x in xs if x.num.terms]) else ZERO
        for xs in zip(*rows)]
    return tuple(out) if any([x.num.terms for x in out]) else zero


def _scaled(c, row) -> list:
    """c x for each entry x of row, `ZERO` where x is zero."""
    if c.__class__ is Expr:
        return [c * x if x.num.terms else ZERO for x in row]
    return [(x if c == 1 else -x) if x.num.terms else ZERO for x in row]


def eval_rational(e: Expr, bindings: dict):
    """Evaluate the canonical form; raises DomainError exactly at poles."""
    try:
        return e.eval(bindings)
    except ZeroDivisionError:
        raise DomainError("pole at evaluation point") from None
    except KeyError as exc:
        raise DomainError(f"no value assigned to symbol {exc.args[0]!r}") from None
