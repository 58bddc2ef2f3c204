"""Expression parser.

Precedence, tightest first: ^, unary -, * and /, binary + and -.
Multiplication is always explicit; identifiers are
[A-Za-z][A-Za-z0-9_]*.  Each operator is applied as Expr arithmetic while
parsing, so the result is canonical and a denominator that is
identically zero raises DivisionByZeroExpr here.
"""
from __future__ import annotations

import operator

from .expr import Expr, ExprSyntaxError, UnknownSymbol

_OPS = set("+-*/^()")
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


def tokenize(text: str):
    """List of (kind, value, position) with kind in {int, name, op}."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens, symbols, end_pos):
        self.tokens = tokens
        self.symbols = set(symbols) if symbols is not None else None
        self.pos = 0
        self.end_pos = end_pos

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", None, self.end_pos)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, at = self.take()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", at)

    def parse_sum(self):
        return self.left_assoc("+-", self.parse_term)

    def parse_term(self):
        return self.left_assoc("*/", self.parse_unary)

    def left_assoc(self, ops, operand):
        value = operand()
        kind, op, _ = self.peek()
        while kind == "op" and op in ops:
            self.take()
            value = _BINARY[op](value, operand())
            kind, op, _ = self.peek()
        return value

    def parse_unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            return base ** self.parse_exponent()
        return base

    def parse_exponent(self):
        kind, value, at = self.take()
        sign = 1
        if kind == "op" and value == "-":
            sign = -1
            kind, value, at = self.take()
        if kind != "int":
            raise ExprSyntaxError("exponent must be an integer literal", at)
        return sign * value

    def parse_atom(self):
        kind, value, at = self.take()
        if kind == "int":
            return Expr.const(value)
        if kind == "name":
            if self.symbols is not None and value not in self.symbols:
                raise UnknownSymbol(
                    f"symbol {value!r} is not a declared coordinate or parameter")
            return Expr.sym(value)
        if kind == "op" and value == "(":
            inner = self.parse_sum()
            self.expect_op(")")
            return inner
        if kind == "end":
            raise ExprSyntaxError("unexpected end of expression", at)
        raise ExprSyntaxError(f"unexpected token {value!r}", at)


def parse_tokens(tokens, symbols=None, end_pos=0):
    """Parse a complete token list into an Expr."""
    parser = _Parser(tokens, symbols, end_pos)
    value = parser.parse_sum()
    kind, token, at = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected token {token!r}", at)
    return value


def parse_expr(text: str, symbols=None) -> Expr:
    """Parse text into an Expr; `symbols`, when given, is the set of
    admissible identifiers."""
    tokens = tokenize(text)
    if not tokens:
        raise ExprSyntaxError("empty expression", 0)
    return parse_tokens(tokens, symbols, len(text))
