"""Expressions over coordinates and parameters.

An `Expr` is a `poly.RationalFunction`, the one value class of the
kernel: one canonical quotient num/den over Q, whether it was parsed from
text or built by operators.  Equality and hashing are those of the
canonical form, and `render` prints it, so two equal Exprs print the
same.  This module adds the parser's errors, `esum`, the shared
`zero_row`, `live_slots` and the one numeric path, `eval_rational`.
"""
from __future__ import annotations

from functools import cache

from .poly import _P_ONE, ONE, ZERO, Poly, RationalFunction, _coerce

__all__ = [
    "Expr", "ZERO", "ONE", "ExprSyntaxError", "UnknownSymbol",
    "DomainError", "eval_rational", "esum", "live_slots", "zero_row",
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


def esum(items) -> Expr:
    """Sum of Exprs and numbers.  Zero summands are dropped: with none
    left the sum is `ZERO`, and with one left it is that summand itself.
    Polynomial summands add into one term dict; the others are folded
    with `+`, and the two parts added last."""
    nonzero = []
    for item in items:
        if item.__class__ is not Expr:
            item = _coerce(item)
        if item.num.terms:
            nonzero.append(item)
    if len(nonzero) < 2:
        return nonzero[0] if nonzero else ZERO
    terms = {}
    rest = None
    for item in nonzero:
        if item.den is not _P_ONE:
            rest = item if rest is None else rest + item
            if not rest.num.terms:
                rest = None
            continue
        for m, c in item.num.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                del terms[m]
    if not terms:
        return ZERO if rest is None else rest
    acc = RationalFunction(Poly(terms), _P_ONE, reduced=True)
    return acc if rest is None else acc + rest


@cache
def zero_row(n: int) -> tuple:
    """The one all-zero row of length n that table builders share, so a
    builder can pass a structurally zero row on by identity."""
    return (ZERO,) * n


def live_slots(n: int, *terms) -> list:
    """mask[l], for each slot l < n of a row of residual entries: whether
    some term of the entry has every factor nonzero at l.  A term is a
    tuple of factors, each an Expr, the same in every slot, or a sequence
    of n Exprs; the shared `zero_row` is zero without being read.  Where
    the mask is False every term has a zero factor, so the entry as
    written is zero and builds nothing; a caller puts `ZERO` there and
    calls no operator."""
    zero = zero_row(n)
    mask = [False] * n
    for term in terms:
        rows = []
        for f in term:
            if f.__class__ is not Expr:
                if f is zero:
                    break
                rows.append(f)
            elif not f.num.terms:
                break
        else:
            if not rows:
                return [True] * n
            if len(rows) == 1:
                for l, x in enumerate(rows[0]):
                    if x.num.terms:
                        mask[l] = True
            else:
                for l, xs in enumerate(zip(*rows)):
                    if all([x.num.terms for x in xs]):
                        mask[l] = True
    return mask


def eval_rational(e: Expr, bindings: dict):
    """Evaluate the canonical form; raises DomainError exactly at poles."""
    try:
        return e.eval(bindings)
    except ZeroDivisionError:
        raise DomainError("pole at evaluation point") from None
    except KeyError as exc:
        raise DomainError(f"no value assigned to symbol {exc.args[0]!r}") from None
