"""poly_gcd and RationalFunction canonicalization against sympy.

Seeded random pairs in one to four variables with Fraction coefficients,
coprime and with a planted common factor, plus hand-built pairs on which
an image modulo the certificate's prime is unlucky: a common factor there
must never be reported as gcd 1."""

import random
from fractions import Fraction
from math import gcd

import pytest

from cmverify.symcore import esum, poly
from cmverify.symcore.poly import (Poly, RationalFunction, poly_divexact,
                                   poly_gcd)

sympy = pytest.importorskip("sympy")

NAMES = ("w", "x", "y", "z")
P = 2 ** 61 - 1  # the prime of the coprimality certificate


def rand_poly(rng, names, max_terms, max_deg):
    """Nonzero polynomial with up to max_terms terms."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple((n, e) for n in names
                     if (e := rng.randint(0, max_deg)))
        terms[mono] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
    return Poly(terms)


def to_sympy(p, gens):
    syms = dict(zip(NAMES, gens))
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[syms[n] ** e for n, e in m])
                for m, c in p.terms.items()), sympy.Integer(0))


def from_sympy(expr, gens):
    out = {}
    for exps, c in sympy.Poly(expr, *gens, domain="QQ").terms():
        mono = tuple((n, e) for n, e in zip(NAMES, exps) if e)
        if c:  # the zero polynomial has one zero term
            out[mono] = Fraction(int(c.p), int(c.q))
    return Poly(out)


def monic(p):
    return p.scale(1 / p.leading()[1])


def check_against_sympy(a, b):
    gens = sympy.symbols(NAMES)
    sa, sb = to_sympy(a, gens), to_sympy(b, gens)
    g = poly_gcd(a, b)
    assert g == monic(from_sympy(sympy.gcd(sa, sb), gens))
    assert g.leading()[1] == 1
    num, den = sympy.fraction(sympy.cancel(sa / sb))
    rf = RationalFunction(a, b)
    scale = 1 / from_sympy(den, gens).leading()[1]
    assert rf.num == from_sympy(num, gens).scale(scale)
    assert rf.den == from_sympy(den, gens).scale(scale)


CASES = [(seed, nvars) for nvars in (1, 2, 3, 4) for seed in range(8)]


@pytest.mark.parametrize("seed,nvars", CASES)
def test_random_pairs(seed, nvars):
    rng = random.Random(1000 * nvars + seed)
    names = NAMES[:nvars]
    a = rand_poly(rng, names, 5, 3)
    b = rand_poly(rng, names, 5, 3)
    check_against_sympy(a, b)


@pytest.mark.parametrize("seed,nvars", CASES)
def test_planted_common_factor(seed, nvars):
    rng = random.Random(5000 + 1000 * nvars + seed)
    names = NAMES[:nvars]
    f = rand_poly(rng, names, 4, 2)
    a = f * rand_poly(rng, names, 4, 2)
    b = f * rand_poly(rng, names, 4, 2)
    g = poly_gcd(a, b)
    if not f.is_const:
        assert not g.is_const
    check_against_sympy(a, b)


def test_univariate_gcd_needing_several_primes():
    # Coefficients near 2^200 need more than one 61-bit prime before the
    # CRT image reconstructs.
    rng = random.Random(7)
    x = Poly.var("x")
    big = [Fraction(rng.randrange(2 ** 200), rng.randrange(1, 2 ** 100))
           for _ in range(4)]
    f = sum((Poly.const(c) * x ** i for i, c in enumerate(big)), Poly({}))
    a = f * (x ** 3 + Poly.const(Fraction(2, 3)))
    b = f * (x ** 2 - Poly.const(5))
    assert poly_gcd(a, b) == monic(f)
    check_against_sympy(a, b)


X = Poly.var("x")
UNLUCKY_PRIME = {
    # The gcd x + P + 1 is x + 1 mod P: the image at the first prime
    # reconstructs to a candidate that divides neither input.
    "wrong-candidate": ((X + Poly.const(P + 1)) * (X + Poly.const(2)),
                        (X + Poly.const(P + 1)) * (X + Poly.const(3)),
                        X + Poly.const(P + 1)),
    # x + 1 and x + P + 1 are coprime but equal mod P, so the image at
    # the first prime has too high a degree.
    "degree-too-high": ((X + Poly.const(2)) * (X + Poly.const(1)),
                        (X + Poly.const(2)) * (X + Poly.const(P + 1)),
                        X + Poly.const(2)),
}


@pytest.mark.parametrize("name", sorted(UNLUCKY_PRIME))
def test_unlucky_first_prime(name):
    a, b, g = UNLUCKY_PRIME[name]
    assert poly_gcd(a, b) == g
    check_against_sympy(a, b)


def xy(*terms):
    """Polynomial in x and y from (coefficient, exp_x, exp_y) triples."""
    return Poly({tuple((n, e) for n, e in zip("xy", exps) if e): Fraction(c)
                 for c, *exps in terms})


UNLUCKY = {
    # A coefficient denominator of exactly the prime.
    "denominator-is-prime": (
        xy((1, 1, 0), (Fraction(1, P), 0, 1)) * xy((1, 1, 0), (1, 0, 0)),
        xy((1, 1, 0), (Fraction(1, P), 0, 1)) * xy((1, 1, 0), (-1, 0, 0))),
    # Common factor P*x*y + 1: its leading coefficients in x and in y are
    # 0 mod P, so its images are the constant 1 and only the degree drop
    # of the inputs' images shows it.
    "leading-coefficient-divisible-by-prime": (
        xy((P, 1, 1), (1, 0, 0)) * xy((1, 1, 0), (1, 0, 0)),
        xy((P, 1, 1), (1, 0, 0)) * xy((1, 1, 0), (2, 0, 0))),
    # Common factor only as monomial content.
    "monomial-content": (
        xy((1, 2, 1), (1, 3, 1)) * xy((1, 0, 1), (1, 0, 0)),
        xy((1, 1, 3), (2, 1, 4)) * xy((1, 1, 0), (3, 0, 0))),
    "monomial-content-times-constant": (xy((4, 2, 1)), xy((6, 1, 3))),
}


@pytest.mark.parametrize("name", sorted(UNLUCKY))
def test_unlucky_images_never_claim_coprime(name):
    a, b = UNLUCKY[name]
    assert not poly_gcd(a, b).is_const
    check_against_sympy(a, b)


class _Ones:
    """Stands in for the point generator: every coordinate is 1."""

    def randrange(self, lo, hi):
        return 1


def test_leading_coefficient_vanishing_at_the_point(monkeypatch):
    # G = (x - 1)(y - 1) + 1 has leading coefficient y - 1 in x and x - 1
    # in y, so at the point (1, 1) both its images are the constant 1 and
    # the images of a and b are coprime; only their lost degree shows G.
    monkeypatch.setattr(poly, "_POINTS", _Ones())
    g = xy((1, 1, 1), (-1, 1, 0), (-1, 0, 1), (2, 0, 0))
    a = g * xy((1, 1, 0), (1, 0, 1))
    b = g * xy((1, 1, 0), (-1, 0, 1), (3, 0, 0))
    assert poly_gcd(a, b) == g
    check_against_sympy(a, b)


def test_points_do_not_touch_the_global_generator():
    state = random.getstate()
    a = xy((1, 2, 1), (3, 0, 1), (1, 0, 0))
    b = xy((1, 1, 2), (-1, 1, 0), (5, 0, 0))
    assert poly_gcd(a, b) == Poly.const(1)
    assert random.getstate() == state


# GCDHEU: integer primitive parts, one variable at a time evaluated at a
# point xi, the gcd of the images found recursively and read back from
# its base-xi digits, accepted only when it divides both inputs.

@pytest.fixture
def prs_calls(monkeypatch):
    """Records the inputs of every fallback to the remainder sequence."""
    calls = []
    prs = poly._gcd_recursive

    def recording(a, b, name):
        calls.append((a, b))
        return prs(a, b, name)

    monkeypatch.setattr(poly, "_gcd_recursive", recording)
    return calls


def int_poly(rng, names, max_terms, max_deg, bits=4):
    """Nonzero polynomial with integer coefficients below 2^bits and
    monomials of total degree at most max_deg."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = dict.fromkeys(names, 0)
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.choice(names)] += 1
        mono = tuple((n, e) for n, e in exps.items() if e)
        terms[mono] = Fraction(rng.randrange(-2 ** bits, 2 ** bits) or 1)
    return Poly(terms)


def test_images_sharing_an_integer_content(monkeypatch, prs_calls):
    # The planted factor x^2 y + x y + 2z + 2 has even images for every
    # integer x, so once x is evaluated the images share the content 2
    # whatever xi is.  The gcd of the images must carry it: the digits of
    # half an image read off a polynomial that divides nothing.
    rng = random.Random(116)
    x, y, z = map(Poly.var, "xyz")
    f = x * x * y + x * y + Poly.const(2) * (z + Poly.const(1))
    a, b = (f * int_poly(rng, NAMES[1:], 3, 2) for _ in range(2))
    contents = []
    heuristic = poly._gcd_heuristic

    def recording(f, g):
        if any(m for m in (*f, *g)):
            contents.append(gcd(*f.values(), *g.values()))
        return heuristic(f, g)

    monkeypatch.setattr(poly, "_gcd_heuristic", recording)
    poly_divexact(poly_gcd(a, b), f)  # ValueError unless f divides the gcd
    assert contents[1] % 2 == 0
    check_against_sympy(a, b)
    assert prs_calls == []


def test_first_xi_fails_trial_division(monkeypatch, prs_calls):
    # Seeded univariate pair with planted factor 3w + 14: gcd(a(xi),
    # b(xi)) at the first xi has a spurious integer factor, so the first
    # candidate divides neither input and a second xi is needed.
    rng = random.Random(73)
    f = int_poly(rng, NAMES[:1], 3, 3)
    a, b = (f * int_poly(rng, NAMES[:1], 3, 3) for _ in range(2))
    points = []
    interpolate = poly._interpolate

    def recording(h, x, xi):
        points.append(xi)
        return interpolate(h, x, xi)

    monkeypatch.setattr(poly, "_interpolate", recording)
    assert poly_gcd(a, b) == monic(f)
    assert len(points) == 2 and points[0] < points[1]
    check_against_sympy(a, b)
    assert prs_calls == []


@pytest.mark.parametrize("seed", range(6))
def test_four_variables_with_large_coefficients(seed, prs_calls):
    # Degree up to 6 in four variables, coefficients near 2^100.
    rng = random.Random(seed)
    f, u, v = (int_poly(rng, NAMES, 5, 6, bits=100) for _ in range(3))
    a, b = f * u, f * v
    poly_divexact(poly_gcd(a, b), f)  # ValueError unless f divides the gcd
    check_against_sympy(a, b)
    assert prs_calls == []


@pytest.mark.parametrize("seed,nvars", CASES)
def test_remainder_sequence_when_heuristic_gives_up(seed, nvars, monkeypatch,
                                                    prs_calls):
    # With no evaluation point to try, every planted case that the
    # images do not prove coprime goes through the remainder sequence;
    # a gcd with more than one term is never a monomial content.
    monkeypatch.setattr(poly, "_HEU_TRIES", 0)
    rng = random.Random(5000 + 1000 * nvars + seed)
    names = NAMES[:nvars]
    f = rand_poly(rng, names, 4, 2)
    a = f * rand_poly(rng, names, 4, 2)
    b = f * rand_poly(rng, names, 4, 2)
    check_against_sympy(a, b)
    if len(poly_gcd(a, b).terms) > 1:
        assert prs_calls


# RationalFunction.__mul__ cancels each numerator against the other
# operand's denominator; the product of what is left is already in
# lowest terms (Henrici 1956), so it is built without a third gcd.

@pytest.mark.parametrize("seed,nvars", CASES)
def test_products_match_sympy_cancel(seed, nvars):
    rng = random.Random(9000 + 1000 * nvars + seed)
    names = NAMES[:nvars]
    f, h = rand_poly(rng, names, 3, 1), rand_poly(rng, names, 3, 1)
    # the numerator of each factor shares f or h with the other's
    # denominator, so the cross cancellation has work to do
    p = RationalFunction(f * rand_poly(rng, names, 3, 2),
                         h * rand_poly(rng, names, 3, 2))
    q = RationalFunction(h * rand_poly(rng, names, 3, 2),
                         f * rand_poly(rng, names, 3, 2))
    gens = sympy.symbols(NAMES)
    want = sympy.cancel(to_sympy(p.num, gens) * to_sympy(q.num, gens)
                        / (to_sympy(p.den, gens) * to_sympy(q.den, gens)))
    num, den = (from_sympy(e, gens) for e in sympy.fraction(want))
    scale = 1 / den.leading()[1]
    got = p * q
    assert (got.num, got.den) == (num.scale(scale), den.scale(scale))
    assert got.den.leading()[1] == 1


def test_cross_coprime_product_makes_two_gcds(kernel):
    x, y = Poly.var("x"), Poly.var("y")
    one = Poly.const(1)
    p = RationalFunction(x, y + one)
    q = RationalFunction(y, x + one)
    kernel.clear()
    got = p * q
    assert kernel["poly_gcd"] == 2
    assert (got.num, got.den) == (x * y, (x + one) * (y + one))


# RationalFunction.__add__ takes g = gcd(b, d) of the denominators and
# t = a (d/g) + c (b/g); only gcd(t, g) can cancel (Henrici 1956).  `esum`
# brings its summands over the lcm of their distinct denominators.  Both
# must give sympy's `cancel` of the sum.

def sympy_sum(items):
    gens = sympy.symbols(NAMES)
    want = sympy.cancel(sum((to_sympy(e.num, gens) / to_sympy(e.den, gens)
                             for e in items), sympy.Integer(0)))
    num, den = (from_sympy(e, gens) for e in sympy.fraction(want))
    scale = 1 / den.leading()[1]
    return num.scale(scale), den.scale(scale)


def shared_factor_terms(rng, names, count):
    """`count` canonical fractions whose denominators are powers of one
    non-constant f times a small random factor, so they overlap."""
    f = rand_poly(rng, names, 2, 1) * Poly.var(names[0]) + Poly.const(1)
    return [RationalFunction(rand_poly(rng, names, 3, 2),
                             f ** rng.randint(1, 2)
                             * rand_poly(rng, names, 2, 1))
            for _ in range(count)]


def rf(text):
    """The RationalFunction of sympy text in w, x, y, z."""
    gens = sympy.symbols(NAMES)
    expr = sympy.cancel(sympy.sympify(text, dict(zip(NAMES, gens))))
    num, den = (from_sympy(e, gens) for e in sympy.fraction(expr))
    return RationalFunction(num, den)


@pytest.mark.parametrize("seed,nvars", CASES)
def test_sums_match_sympy_cancel(seed, nvars):
    rng = random.Random(13000 + 1000 * nvars + seed)
    names = NAMES[:nvars]
    p, q, r = shared_factor_terms(rng, names, 3)
    got = p + q
    assert (got.num, got.den) == sympy_sum([p, q])
    got = p - q
    assert (got.num, got.den) == sympy_sum([p, -q])
    got = esum([p, q, r, q])
    assert (got.num, got.den) == sympy_sum([p, q, r, q])


HAND_SUMS = [
    # y^2 against y^3
    ["x/y^2", "1/y^3"],
    ["x/y^2", "1/y^3", "(x + 1)/(x*y)"],
    # powers of 1 + x^2 + y^2, one summand a polynomial
    ["x/(1 + x^2 + y^2)", "y/(1 + x^2 + y^2)^2",
     "1/((1 + x^2 + y^2)^3*(x - y))", "x*y"],
    # three distinct denominators over the lcm x y (x + y): the numerator
    # 2 y shares y with it, and the sum is 2/(x (x + y))
    ["1/(x*y)", "1/(x*(x + y))", "-1/(y*(x + y))"],
    # the same denominator twice, cancelling to 1/y
    ["1/(1 + x^2 + y^2)", "(x^2 + y^2 - y + 1)/((1 + x^2 + y^2)*y)"],
    # sums that cancel to zero
    ["x/y^2", "-x/y^2"],
    ["x/(1 + x^2 + y^2)", "y/(1 + x^2 + y^2)^2",
     "-(x*(1 + x^2 + y^2) + y)/(1 + x^2 + y^2)^2"],
]


@pytest.mark.parametrize("texts", HAND_SUMS)
def test_hand_sums_match_sympy_cancel(texts):
    items = [rf(t) for t in texts]
    want = sympy_sum(items)
    got = esum(items)
    assert (got.num, got.den) == want
    folded = items[0]
    for e in items[1:]:
        folded = folded + e
    assert (folded.num, folded.den) == want


def test_second_gcd_cancels_the_shared_factor(kernel):
    # b = q, d = q y share g = q; t = 1 * y + (q - y) * 1 = q, so
    # gcd(t, g) = q cancels and the sum is 1/y
    p = rf("1/(1 + x^2 + y^2)")
    r = rf("(x^2 + y^2 - y + 1)/((1 + x^2 + y^2)*y)")
    kernel.clear()
    got = p + r
    assert kernel["poly_gcd"] == 2
    assert (got.num, got.den) == (Poly.const(1), Poly.var("y"))
