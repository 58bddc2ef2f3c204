"""Expressions over coordinates and parameters, held as canonical
rational functions.

An Expr is one canonical quotient num/den over Q (see
`poly.RationalFunction`), whether it was parsed from text or built by
operators.  Equality and hashing are those of the rational function, and
`render` prints the canonical form, so two equal Exprs print the same.
Numeric values come from `eval_rational` alone.
"""
from __future__ import annotations

from fractions import Fraction

from .poly import _P_ONE, Poly, RationalFunction

__all__ = [
    "Expr", "ZERO", "ONE", "ExprSyntaxError", "UnknownSymbol",
    "DivisionByZeroExpr", "DomainError",
    "differentiate", "eval_rational", "render", "esum",
]


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbol(ValueError):
    pass


class DivisionByZeroExpr(ZeroDivisionError):
    """A denominator normalizes to the zero function."""


class DomainError(ValueError):
    """Evaluation hit a pole or an unassigned symbol."""


class Expr:
    """A canonical rational function with operator arithmetic.  `e + 0`,
    `0 + e`, `e - 0`, a product or quotient with a zero factor and `-0`
    return an existing Expr (`ZERO` or the other operand) and build no
    rational function; `0 - e` is `-e`."""

    __slots__ = ("rat",)

    def __init__(self, rat: RationalFunction):
        self.rat = rat

    @staticmethod
    def const(value) -> "Expr":
        return Expr(RationalFunction.const(value))

    @staticmethod
    def sym(name: str) -> "Expr":
        return Expr(RationalFunction.var(name))

    @property
    def is_zero(self) -> bool:
        return not self.rat.num.terms

    def variables(self) -> set:
        return self.rat.variables()

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.rat == other.rat

    def __hash__(self):
        return hash(self.rat)

    def __add__(self, other):
        if other.__class__ is not Expr:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if not other.rat.num.terms:
            return self
        if not self.rat.num.terms:
            return other
        return Expr(self.rat + other.rat)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Expr:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if not other.rat.num.terms:
            return self
        if not self.rat.num.terms:
            return -other
        return Expr(self.rat - other.rat)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if other.__class__ is not Expr:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if not (self.rat.num.terms and other.rat.num.terms):
            return ZERO
        return Expr(self.rat * other.rat)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.rat.is_zero:
            raise DivisionByZeroExpr("division by an identically zero expression")
        if not self.rat.num.terms:
            return ZERO
        return Expr(self.rat / other.rat)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        if not self.rat.num.terms:
            return self
        return Expr(-self.rat)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0 and self.rat.is_zero:
            raise DivisionByZeroExpr("zero raised to a negative power")
        return Expr(self.rat ** n)

    def __repr__(self):
        return f"Expr({render(self)})"

    def __str__(self):
        return render(self)


ZERO = Expr.const(0)
ONE = Expr.const(1)


def _coerce(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Expr.const(x) if x else ZERO
    return None


def esum(items) -> Expr:
    """Sum of Exprs and numbers.  Zero summands are dropped: with none
    left the sum is `ZERO`, and with one left it is that summand itself.
    Polynomial summands add into one term dict; the others are folded
    with `+`, and the two parts added last."""
    nonzero = []
    for item in items:
        if item.__class__ is not Expr:
            item = _coerce(item)
        if item.rat.num.terms:
            nonzero.append(item)
    if len(nonzero) < 2:
        return nonzero[0] if nonzero else ZERO
    terms = {}
    rest = None
    for item in nonzero:
        rat = item.rat
        if rat.den is not _P_ONE:
            rest = rat if rest is None else rest + rat
            if not rest.num.terms:
                rest = None
            continue
        for m, c in rat.num.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                del terms[m]
    if not terms:
        return ZERO if rest is None else Expr(rest)
    acc = RationalFunction(Poly(terms), _P_ONE, reduced=True)
    return Expr(acc if rest is None else acc + rest)


def differentiate(e: Expr, coord: str) -> Expr:
    """Partial derivative by a coordinate; every other symbol is constant."""
    return Expr(e.rat.derivative(coord))


def eval_rational(e: Expr, bindings: dict):
    """Evaluate the canonical form; raises DomainError exactly at poles."""
    try:
        return e.rat.eval(bindings)
    except ZeroDivisionError:
        raise DomainError("pole at evaluation point") from None
    except KeyError as exc:
        raise DomainError(f"no value assigned to symbol {exc.args[0]!r}") from None


def render(e: Expr) -> str:
    """Canonical text, read back by `parse_expr`: the numerator's terms in
    descending graded-lex order, then `/` and the denominator unless it
    is 1.  A numerator that is a sum is parenthesized, and so is a
    denominator that is a sum or a product of two or more factors; a
    fractional constant is parenthesized unless it is the whole text."""
    num, den = e.rat.num, e.rat.den
    if den.is_const:
        return _poly_text(num, False)
    top = _poly_text(num, True)
    if len(num.terms) > 1:
        top = f"({top})"
    bottom = _poly_text(den, True)
    if len(den.terms) > 1 or len(next(iter(den.terms))) > 1:
        bottom = f"({bottom})"
    return f"{top}/{bottom}"


def _poly_text(p: Poly, wrap: bool) -> str:
    """A sum of terms; the signs of all but the first become the joiners.
    `wrap` parenthesizes a fractional constant that is the only term."""
    terms = p.sorted_terms()
    if not terms:
        return "0"
    (mono, coef), rest = terms[0], terms[1:]
    bits = [_term_text(coef, mono, wrap and not rest)]
    for mono, coef in rest:
        bits += [" - " if coef < 0 else " + ",
                 _term_text(abs(coef), mono, True)]
    return "".join(bits)


def _term_text(coef: Fraction, mono, wrap: bool) -> str:
    text = str(coef)
    if coef.denominator != 1 and (wrap or mono):
        text = f"({text})"
    if not mono:
        return text
    body = "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in mono)
    if coef == 1:
        return body
    if coef == -1:
        return f"-({body})" if len(mono) > 1 else f"-{body}"
    return f"{text}*{body}"
