import operator
import random
from fractions import Fraction

import pytest

from cmverify.symcore import (ONE, ZERO, DivisionByZeroExpr, DomainError,
                              Expr, ExprSyntaxError, UnknownSymbol, esum,
                              eval_rational, parse_expr, render, tokenize)
from cmverify.symcore import poly
from cmverify.symcore.poly import (_P_ONE, Poly, RationalFunction,
                                   poly_divexact, poly_gcd)

SYMS = {"x", "y", "z"}


def ex(text):
    return parse_expr(text, SYMS)


class TestTokenize:
    def test_token_triples(self):
        assert tokenize("2*x + y^2") == [
            ("int", 2, 0), ("op", "*", 1), ("name", "x", 2),
            ("op", "+", 4), ("name", "y", 6), ("op", "^", 7),
            ("int", 2, 8)]

    def test_multicharacter_names(self):
        toks = tokenize("a1*b12")
        assert [t[:2] for t in toks] == [
            ("name", "a1"), ("op", "*"), ("name", "b12")]

    def test_bad_character(self):
        with pytest.raises(ExprSyntaxError):
            tokenize("x @ y")


class TestParse:
    def test_precedence(self):
        assert ex("1 + 2*x^2") == ex("1 + 2*(x^2)")
        assert ex("2*x^2") != ex("(2*x)^2")

    def test_unary_minus(self):
        assert ex("-x^2") == ex("-(x^2)")
        assert ex("1 - -x") == ex("1 + x")

    def test_division_is_left_associative(self):
        assert ex("x/y/z") == ex("x/(y*z)")

    def test_power_binds_tighter_than_division(self):
        assert ex("1/x^2") == ex("1/(x*x)")

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol, match="'q'"):
            parse_expr("q + 1", {"x"})

    @pytest.mark.parametrize("bad", ["x +", "(x", "x 2", "", "x ^ y"])
    def test_syntax_errors_carry_position(self, bad):
        with pytest.raises(ExprSyntaxError, match="position"):
            parse_expr(bad, SYMS)


class TestCanonicalEquality:
    """Equality and hashing act on the canonical rational function, not on
    the tree shape."""

    def test_rearranged_sums(self):
        assert ex("x + y - x") == ex("y")
        assert hash(ex("x + x")) == hash(ex("2*x"))

    def test_cancelled_quotient(self):
        assert ex("(x^2 - 1)/(x - 1)") == ex("x + 1")

    def test_nested_fractions(self):
        assert ex("1/(1/x)") == ex("x")
        assert ex("(x/y)/(z/y)") == ex("x/z")

    def test_binomial_square(self):
        assert ex("(x + y)^2") == ex("x^2 + 2*x*y + y^2")

    def test_is_zero(self):
        assert ex("x*(x + 1) - x^2 - x").is_zero
        assert not ex("x - y").is_zero

    def test_denominator_normalizing_to_zero(self):
        """Parsing canonicalizes, so the error comes from the parse."""
        for text in ("1/(x - x)", "x/0", "(y - y)^-2"):
            with pytest.raises(DivisionByZeroExpr):
                ex(text)


def test_expr_is_the_kernel_class():
    """One value class: the parser and the kernel build the same objects,
    and the kernel's zero absorbs products."""
    assert Expr is RationalFunction
    e = ex("x/(2*y)")
    assert type(e) is RationalFunction
    assert ZERO * e is ZERO and e * ZERO is ZERO
    assert ONE - e == -(e - ONE) and Expr.const(2) / e == ex("4*y/x")
    assert str(e) == render(e) and repr(e) == "Expr((1/2)*x/y)"


@pytest.mark.parametrize("number", [0, 1, -2, Fraction(3, 2)])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_arithmetic_takes_only_exprs(op, number):
    """A number is not an operand on either side: it enters through
    `Expr.const` or the parser, never by coercion."""
    e = ex("x/(2*y)")
    for a, b in ((e, number), (number, e), (ZERO, number), (number, ONE)):
        with pytest.raises(TypeError):
            op(a, b)


def test_esum_takes_only_exprs():
    for items in ([ONE, 1], [1], [ZERO, Fraction(1, 2)]):
        with pytest.raises((TypeError, AttributeError)):
            esum(items)


def test_equality_agrees_with_hash():
    """An Expr equals no number, so equal objects hash equal and set and
    dict lookups agree with `==`."""
    assert not Expr.const(0) == 0 and Expr.const(0) != 0
    assert not ONE == 1 and not ZERO == Fraction(0)
    assert {ZERO: "zero"}.get(0) is None and 0 not in {ZERO, ONE}
    routes = [ex("(x^2 - 1)/(x - 1)"), ex("x") + ONE,
              esum([ex("x"), ONE]), Expr.sym("x") + Expr.const(1),
              (ex("x^2") - ONE) / (ex("x") - ONE)]
    assert len({hash(r) for r in routes}) == 1 and len(set(routes)) == 1
    table = {routes[0]: "x + 1"}
    assert all(table.get(r) == "x + 1" for r in routes)
    zeros = [ZERO, Expr.const(0), ex("x - x"), ONE - ONE, esum([])]
    assert len(set(zeros)) == 1 and {ZERO: 0}.get(ex("y - y")) == 0


def test_normalize_canonical_render():
    """Parsing normalizes: what is rendered is the canonical form."""
    assert render(ex("(x^2 - 1)/(x - 1)")) == "x + 1"
    assert render(ex("x - x")) == "0"
    assert render(ex("x/(2*y)")) == "(1/2)*x/y"


def test_render_is_canonical():
    """A parsed expression prints in canonical form, not as written."""
    for text, canonical in [
            ("x^2 - 2*x + 1", "x^2 - 2*x + 1"),
            ("-x", "-x"),
            ("x/(2*y)", "(1/2)*x/y"),
            ("2*(x + y)", "2*x + 2*y"),
            ("1/2", "1/2"),
            # a fractional constant after the first term, a -1 coefficient
            # on a product, and a one-term denominator with two factors
            ("1/3 - x/2", "(-1/2)*x + (1/3)"),
            ("-y*x/z", "-(x*y)/z"),
            ("(x*y)^-1", "1/(x*y)")]:
        assert render(ex(text)) == canonical, text


def test_render_parse_round_trip():
    for text in ("(x + y)/(z - 1)", "-(x - y)^3", "x*y/z^2 + 1/2"):
        e = ex(text)
        assert parse_expr(render(e), SYMS) == e


class TestCalculus:
    def test_polynomial_derivative(self):
        assert ex("x^2*y").derivative("x") == ex("2*x*y")
        assert ex("x^2*y").derivative("z").is_zero

    def test_quotient_rule(self):
        assert ex("x/y").derivative("y") == ex("-x/y^2")

    def test_chain_through_powers(self):
        assert ex("(x + y)^3").derivative("x") == ex("3*(x + y)^2")

    def test_linearity(self):
        a, b = ex("x^2/z"), ex("y*z")
        assert (a + b).derivative("z") == a.derivative("z") + b.derivative("z")


class TestEvaluate:
    def test_rational_evaluation(self):
        v = eval_rational(ex("(x + 1)/y"), {"x": Fraction(1), "y": Fraction(1, 2)})
        assert v == Fraction(4)

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            eval_rational(ex("1/x"), {"x": Fraction(0)})

    def test_missing_binding_raises(self):
        with pytest.raises(DomainError):
            eval_rational(ex("x + y"), {"x": Fraction(1)})


def test_esum_accumulates_and_cancels():
    assert esum([ex("x"), ex("y"), ex("-x")]) == ex("y")
    assert esum([]).is_zero


@pytest.mark.parametrize("num,den", [
    (Poly.const(3), Poly.const(6)),
    (Poly.var("x") * Poly.var("y"), Poly.var("x")),
    (Poly.var("x"), Poly.const(1)),
    (Poly.var("x") * Poly.var("x") - Poly.const(1),
     Poly.var("x") - Poly.const(1)),
])
def test_constant_denominator_is_the_shared_one(num, den):
    assert RationalFunction(num, den).den is _P_ONE


def test_expr_constructors():
    assert Expr.const(Fraction(3, 2)) == ex("3/2")
    assert Expr.sym("x") == ex("x")
    assert (Expr.sym("x") ** 3) == ex("x^3")


def _seeded_poly(rng, terms, max_deg):
    """Polynomial in x, y, z with up to `terms` terms and small Fraction
    coefficients."""
    out = {}
    for _ in range(terms):
        mono = tuple((n, e) for n in ("x", "y", "z")
                     if (e := rng.randint(0, max_deg)))
        out[mono] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    return Poly(out)


class TestDivexact:
    X = Poly.var("x")
    ONE = Poly.const(1)

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_products_give_back_their_cofactor(self, seed):
        rng = random.Random(seed)
        a = _seeded_poly(rng, 20, 5)
        b = _seeded_poly(rng, 20, 5)
        product = a * b
        assert len(product.terms) > 100
        assert poly_divexact(product, b) == a
        assert poly_divexact(product, a) == b

    def test_leading_monomial_not_divisible(self):
        y = Poly.var("y")
        with pytest.raises(ValueError):
            poly_divexact(self.X * self.X + y, y * y + self.X)

    def test_nonzero_remainder(self):
        # x^2 + 1 = (x - 1)(x + 1) + 2: every step divides, the
        # remainder 2 does not.
        with pytest.raises(ValueError):
            poly_divexact(self.X * self.X + self.ONE, self.X + self.ONE)

    def test_constant_divisor(self):
        p = self.X * self.X + Poly.const(3)
        assert poly_divexact(p, Poly.const(Fraction(3, 2))) \
            == p.scale(Fraction(2, 3))

    def test_zero_dividend(self):
        assert poly_divexact(Poly({}), self.X + self.ONE).is_zero

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            poly_divexact(self.X, Poly({}))


def _canceling_pair(rng):
    """Two polynomials that share half of a's terms, b with the opposite
    coefficients, so that sums, differences and products cancel."""
    a = _seeded_poly(rng, 8, 3)
    b = dict(_seeded_poly(rng, 6, 3).terms)
    b.update((m, -c) for m, c in list(a.terms.items())[::2])
    return a, Poly(b)


@pytest.mark.parametrize("seed", range(4))
def test_no_result_holds_a_zero_coefficient(seed):
    # Poly stores its term dict as given, so each builder must leave out
    # the coefficients that cancel
    rng = random.Random(seed)
    polys = []
    for _ in range(8):
        a, b = _canceling_pair(rng)
        c = _seeded_poly(rng, 3, 2)
        polys += [a + b, a - b, b - a, a * b, (a + b) * (a - b),
                  a.scale(Fraction(rng.randint(1, 9), 7)), a.derivative("x"),
                  poly_divexact(a * b, b), poly_gcd(a * c, b * c)]
        ra, rb = RationalFunction(a, b), RationalFunction(b, c)
        exprs = [ra + rb, ra - rb, ra * rb, ra / rb, -ra, ra ** 2,
                 ra.derivative("y"), RationalFunction(a) - RationalFunction(a),
                 esum([RationalFunction(a), RationalFunction(b), ra,
                       RationalFunction(-a)])]
        polys += [p for e in exprs for p in (e.num, e.den)]
    assert all(0 not in p.terms.values() for p in polys)
    assert any(p.is_zero for p in polys)


def test_product_runs_no_gcd_for_a_constant_numerator(monkeypatch):
    # Cross-cancelling 1/(y + 1) by x/(x + 1) takes gcd(x, y + 1) only: a
    # constant numerator shares no factor with (x + 1)
    a, b, want = ex("1/(y + 1)"), ex("x/(x + 1)"), ex("x/((x + 1)*(y + 1))")
    calls = []

    def counted(f, g, _fn=poly_gcd):
        calls.append((f, g))
        return _fn(f, g)
    monkeypatch.setattr(poly, "poly_gcd", counted)
    assert a * b == want
    assert calls == [(b.num, a.den)]
