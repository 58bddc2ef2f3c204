"""Expression trees over coordinates and parameters, with exact
rational-function semantics.

An Expr carries a syntax tree, a canonical rational function, or both.
All arithmetic goes through the canonical side, so expressions built by
operators are canonical by construction; `normalize` exposes the same
canonicalization for parsed trees.  Equality and hashing are semantic:
two Exprs compare equal iff they denote the same rational function.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Poly, RationalFunction

__all__ = [
    "Const", "Sym", "Neg", "Add", "Mul", "Div", "Pow",
    "Expr", "Point", "ExprSyntaxError", "UnknownSymbol",
    "DivisionByZeroExpr", "DomainError",
    "normalize", "differentiate", "evaluate",
    "substitute", "render", "esum",
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


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Add:
    terms: tuple


@dataclass(frozen=True)
class Mul:
    factors: tuple


@dataclass(frozen=True)
class Div:
    num: object
    den: object


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


class Expr:
    """Wrapper pairing a syntax tree with its canonical rational function.

    Either side may be materialized lazily; arithmetic never builds
    intermediate trees.
    """

    __slots__ = ("_node", "_rat")

    def __init__(self, node=None, rat=None):
        if node is None and rat is None:
            raise ValueError("empty Expr")
        self._node = node
        self._rat = rat

    @staticmethod
    def from_node(node) -> "Expr":
        return Expr(node=node)

    @staticmethod
    def from_rat(rat: RationalFunction) -> "Expr":
        return Expr(rat=rat)

    @staticmethod
    def const(value) -> "Expr":
        value = Fraction(value)
        return Expr(node=Const(value), rat=RationalFunction.const(value))

    @staticmethod
    def sym(name: str) -> "Expr":
        return Expr(node=Sym(name), rat=RationalFunction.var(name))

    @property
    def node(self):
        if self._node is None:
            self._node = _rat_to_node(self._rat)
        return self._node

    @property
    def rat(self) -> RationalFunction:
        if self._rat is None:
            self._rat = _node_to_rat(self._node)
        return self._rat

    @property
    def is_zero(self) -> bool:
        return self.rat.is_zero

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
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Expr.from_rat(self.rat + other.rat)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Expr.from_rat(self.rat - other.rat)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Expr.from_rat(other.rat - self.rat)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Expr.from_rat(self.rat * other.rat)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.rat.is_zero:
            raise DivisionByZeroExpr("division by an identically zero expression")
        return Expr.from_rat(self.rat / other.rat)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.rat.is_zero:
            raise DivisionByZeroExpr("division by an identically zero expression")
        return Expr.from_rat(other.rat / self.rat)

    def __neg__(self):
        return Expr.from_rat(-self.rat)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0 and self.rat.is_zero:
            raise DivisionByZeroExpr("zero raised to a negative power")
        return Expr.from_rat(self.rat ** n)

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
        return Expr.const(x)
    return None


def esum(items) -> Expr:
    acc = RationalFunction.const(0)
    for item in items:
        e = _coerce(item)
        acc = acc + e.rat
    return Expr.from_rat(acc)


@dataclass(frozen=True)
class Point:
    """Numeric assignment for coordinates and parameters."""

    coords: dict
    params: dict

    def bindings(self) -> dict:
        out = dict(self.coords)
        out.update(self.params)
        return out


def _node_to_rat(node) -> RationalFunction:
    if isinstance(node, Const):
        return RationalFunction.const(node.value)
    if isinstance(node, Sym):
        return RationalFunction.var(node.name)
    if isinstance(node, Neg):
        return -_node_to_rat(node.arg)
    if isinstance(node, Add):
        acc = RationalFunction.const(0)
        for t in node.terms:
            acc = acc + _node_to_rat(t)
        return acc
    if isinstance(node, Mul):
        acc = RationalFunction.const(1)
        for f in node.factors:
            acc = acc * _node_to_rat(f)
        return acc
    if isinstance(node, Div):
        den = _node_to_rat(node.den)
        if den.is_zero:
            raise DivisionByZeroExpr("denominator normalizes to zero")
        return _node_to_rat(node.num) / den
    if isinstance(node, Pow):
        base = _node_to_rat(node.base)
        if node.exp < 0 and base.is_zero:
            raise DivisionByZeroExpr("zero base with negative exponent")
        return base ** node.exp
    raise TypeError(f"not an expression node: {node!r}")


def _mono_factors(mono):
    out = []
    for name, exp in mono:
        out.append(Sym(name) if exp == 1 else Pow(Sym(name), exp))
    return out


def _term_node(coef: Fraction, mono) -> object:
    """Node for one polynomial term with canonical sign placement."""
    if not mono:
        return Const(coef)
    factors = _mono_factors(mono)
    if coef == 1:
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))
    if coef == -1:
        body = factors[0] if len(factors) == 1 else Mul(tuple(factors))
        return Neg(body)
    return Mul(tuple([Const(coef)] + factors))


def _poly_to_node(p: Poly) -> object:
    if p.is_zero:
        return Const(Fraction(0))
    terms = [_term_node(c, m) for m, c in p.sorted_terms()]
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def _rat_to_node(rat: RationalFunction) -> object:
    num = _poly_to_node(rat.num)
    if rat.den.is_const:
        return num
    return Div(num, _poly_to_node(rat.den))


def normalize(e: Expr) -> Expr:
    """Canonical p/q form: gcd(p, q) = 1, q monic under graded lex."""
    return Expr.from_rat(e.rat)


def differentiate(e: Expr, coord: str) -> Expr:
    """Partial derivative by a coordinate; every other symbol is constant."""
    return Expr.from_rat(e.rat.derivative(coord))


def substitute(e: Expr, bindings: dict, known_symbols=None) -> Expr:
    """Simultaneous substitution symbol -> Expr, then normalization."""
    if known_symbols is not None:
        for name in bindings:
            if name not in known_symbols:
                raise UnknownSymbol(f"cannot substitute undeclared symbol {name!r}")
    rmap = {name: _coerce(val).rat for name, val in bindings.items()}
    return Expr.from_rat(_subs_rat(e.rat, rmap))


def _subs_rat(rat: RationalFunction, rmap: dict) -> RationalFunction:
    num = _subs_poly(rat.num, rmap)
    den = _subs_poly(rat.den, rmap)
    if den.is_zero:
        raise DivisionByZeroExpr("substitution makes a denominator vanish")
    return num / den


def _subs_poly(p: Poly, rmap: dict) -> RationalFunction:
    acc = RationalFunction.const(0)
    for mono, coef in p.terms.items():
        term = RationalFunction.const(coef)
        for name, exp in mono:
            base = rmap.get(name)
            if base is None:
                base = RationalFunction.var(name)
            term = term * base ** exp
        acc = acc + term
    return acc


def evaluate(e: Expr, point: Point) -> float:
    """Numeric value at a point.  Exact rational arithmetic is used when
    every binding is rational, so the float is correctly rounded."""
    bindings = point.bindings()
    val = _eval_node(e.node, bindings)
    return float(val)


def _eval_node(node, bindings):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Sym):
        try:
            return bindings[node.name]
        except KeyError:
            raise DomainError(f"no value assigned to symbol {node.name!r}") from None
    if isinstance(node, Neg):
        return -_eval_node(node.arg, bindings)
    if isinstance(node, Add):
        return sum(_eval_node(t, bindings) for t in node.terms)
    if isinstance(node, Mul):
        out = 1
        for f in node.factors:
            out *= _eval_node(f, bindings)
        return out
    if isinstance(node, Div):
        den = _eval_node(node.den, bindings)
        if den == 0:
            raise DomainError("division by zero at evaluation point")
        return _eval_node(node.num, bindings) / den
    if isinstance(node, Pow):
        base = _eval_node(node.base, bindings)
        if node.exp < 0 and base == 0:
            raise DomainError("zero base with negative exponent at evaluation point")
        return base ** node.exp
    raise TypeError(f"not an expression node: {node!r}")


def eval_rational(e: Expr, bindings: dict):
    """Evaluate the canonical form; raises DomainError exactly at poles."""
    try:
        return e.rat.eval(bindings)
    except ZeroDivisionError:
        raise DomainError("pole at evaluation point") from None
    except KeyError as exc:
        raise DomainError(f"no value assigned to symbol {exc.args[0]!r}") from None


# Rendering: precedence levels mirror the parser (higher binds tighter).
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4


def render(e: Expr) -> str:
    return _render(e.node, 0, False)


def _strip_sign(node):
    """(positive body, was_negative) for a term inside a sum."""
    if isinstance(node, Neg):
        return node.arg, True
    if isinstance(node, Const) and node.value < 0:
        return Const(-node.value), True
    if isinstance(node, Mul) and node.factors:
        lead = node.factors[0]
        if isinstance(lead, Const) and lead.value < 0:
            flipped = Const(-lead.value)
            if flipped.value == 1 and len(node.factors) > 1:
                rest = node.factors[1:]
                return (rest[0] if len(rest) == 1 else Mul(rest)), True
            return Mul((flipped,) + node.factors[1:]), True
    return node, False


def _render(node, parent_prec, right_of_op) -> str:
    if isinstance(node, Const):
        v = node.value
        text = str(v.numerator) if v.denominator == 1 else \
            f"{v.numerator}/{v.denominator}"
        if v.denominator != 1 and parent_prec >= _PREC_MUL:
            return f"({text})"
        if right_of_op and v < 0:
            return f"({text})"
        return text
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Neg):
        text = f"-{_render(node.arg, _PREC_NEG, False)}"
        if right_of_op or parent_prec > _PREC_NEG:
            return f"({text})"
        return text
    if isinstance(node, Add):
        bits = [_render(node.terms[0], _PREC_ADD, False)]
        for t in node.terms[1:]:
            body, neg = _strip_sign(t)
            bits.append(" - " if neg else " + ")
            bits.append(_render(body, _PREC_MUL, False))
        text = "".join(bits)
        if parent_prec > _PREC_ADD:
            return f"({text})"
        return text
    if isinstance(node, Mul):
        bits = [_render(f, _PREC_MUL, i > 0) for i, f in enumerate(node.factors)]
        text = "*".join(bits)
        if parent_prec > _PREC_MUL or (right_of_op and parent_prec == _PREC_MUL):
            return f"({text})"
        return text
    if isinstance(node, Div):
        num = _render(node.num, _PREC_MUL, False)
        den = _render(node.den, _PREC_MUL, True)
        text = f"{num}/{den}"
        if parent_prec > _PREC_MUL or (right_of_op and parent_prec == _PREC_MUL):
            return f"({text})"
        return text
    if isinstance(node, Pow):
        base = _render(node.base, _PREC_POW, False)
        if not isinstance(node.base, Sym):
            base = f"({base})"
        exp = str(node.exp)
        return f"{base}^{exp}"
    raise TypeError(f"not an expression node: {node!r}")
