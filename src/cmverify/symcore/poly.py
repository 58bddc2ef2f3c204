"""Sparse multivariate polynomials and rational functions with exact
Fraction coefficients.

A monomial is a tuple of (symbol, exponent) pairs sorted by symbol name,
with every exponent positive.  The empty tuple is the constant monomial.
`mono_mul` and `mono_div` intern what they build, so equal monomials are
one tuple per process.
Term order is graded lexicographic with symbols compared alphabetically:
higher total degree first, then the higher exponent of the first symbol
where two monomials differ.  This order fixes leading terms, hence the
monic scaling of gcds and denominators.

`RationalFunction` is the one value class of the program; `symcore`
exports it as `Expr`.  It is kept canonical, num/den with
gcd(num, den) = 1 and den monic, so equal functions have equal terms,
and `render` prints that form.  Its operators take only
`RationalFunction` operands, never an `int` or `Fraction`, and answer a
zero operand without building a value.  A constant denominator is always
the shared `_P_ONE`, so `den is _P_ONE` says a value is a polynomial;
two polynomials add, subtract and multiply without any gcd dispatch.
Products and sums of fractions follow Henrici (1956): a product cancels
crosswise, and a sum a/b + c/d cancels only gcd(t, gcd(b, d)) from its
numerator t.  `esum` adds polynomial summands in one term dict and brings
the others over the lcm of their distinct denominators, canonicalizing
once.
`poly_gcd` splits off the common monomial content and then tries, in order:

- Coprimality certificate.  For each variable x the inputs share, every
  other variable is evaluated at a point mod p = 2^61 - 1.  A common
  factor of positive degree in x keeps that degree in any image where
  the leading coefficients in x survive, so when both images keep their
  degree and their gcd mod p is 1, the true gcd has degree 0 in x.  When
  that holds for every shared variable the gcd is a constant, an exact
  proof.  An unlucky image (a coefficient denominator divisible by p, a
  leading coefficient that vanishes at the point, a nontrivial image
  gcd) proves nothing and sends the pair on.
- GCDHEU (Char, Geddes & Gonnet 1989) on the integer primitive parts:
  one variable at a time is evaluated at a large integer xi down to
  integers, and a candidate is read off the symmetric base-xi digits of
  the gcd of the images.  A candidate that divides both inputs over Z is
  their gcd; after a few values of xi it gives up.
- The primitive polynomial remainder sequence in the first shared
  variable, whose content gcds go through `poly_gcd` again.

Exact division makes one pass over a remainder dict, with a heap of
grlex keys for its leading term.  Evaluation points come from a private
generator with a fixed seed, and every answer is unique, so results do
not depend on the points drawn.
"""
from __future__ import annotations

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm

Monomial = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


# Every monomial `mono_mul` and `mono_div` build, once: equal monomials
# are one tuple per process, however many terms hold them.
_MONOS: dict = {}


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        n1, e1 = m1[i]
        n2, e2 = m2[j]
        if n1 == n2:
            out.append((n1, e1 + e2))
            i += 1
            j += 1
        elif n1 < n2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    m = tuple(out)
    return _MONOS.setdefault(m, m)


def mono_gcd(m1: Monomial, m2: Monomial) -> Monomial:
    d1 = dict(m1)
    return tuple((name, min(exp, d1[name])) for name, exp in m2 if name in d1)


def mono_div(m2: Monomial, m1: Monomial):
    """m2 / m1, or None when m1 does not divide m2."""
    d = dict(m2)
    for name, exp in m1:
        rem = d.get(name, 0) - exp
        if rem < 0:
            return None
        if rem:
            d[name] = rem
        else:
            del d[name]
    m = tuple(d.items())
    return _MONOS.setdefault(m, m)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _grlex_key(m: Monomial):
    """Sort key under which the graded-lex leading monomial is smallest."""
    return (-mono_degree(m), tuple([(name, -exp) for name, exp in m]))


class Poly:
    """Immutable sparse polynomial over Q."""

    __slots__ = ("terms", "_hash", "_lead")

    def __init__(self, terms: dict):
        # stored as given: every builder, `esum` included, passes a fresh
        # dict with no zero coefficient
        self.terms = terms
        self._hash = None

    @staticmethod
    def const(value) -> "Poly":
        value = Fraction(value)
        return Poly({(): value} if value else {})

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({((name, 1),): _ONE})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self) -> Fraction:
        return self.terms.get((), _ZERO)

    def variables(self) -> set:
        return {name for m in self.terms for name, _ in m}

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        try:
            return self._lead
        except AttributeError:  # unset until first asked for
            m = min(self.terms, key=_grlex_key)
            self._lead = m, self.terms[m]
            return self._lead

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=_grlex_key)]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other: "Poly") -> "Poly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        if other.is_zero:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) - c
            if s:
                out[m] = s
            else:
                del out[m]
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return _P_ZERO
        if self.is_const:
            return other.scale(self.const_value())
        if other.is_const:
            return self.scale(other.const_value())
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, _ZERO) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly(out)

    def scale(self, k: Fraction) -> "Poly":
        if k == 0:
            return _P_ZERO
        if k == 1:
            return self
        return Poly({m: c * k for m, c in self.terms.items()})

    def mul_mono(self, mono: Monomial) -> "Poly":
        return Poly({mono_mul(m, mono): c for m, c in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a Poly")
        result = _P_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative(self, name: str) -> "Poly":
        out = {}
        for m, c in self.terms.items():
            mono = mono_div(m, ((name, 1),))
            if mono is not None:  # distinct terms have distinct quotients
                out[mono] = c * dict(m)[name]
        return Poly(out)

    def eval(self, bindings: dict) -> tuple:
        """The value at `bindings` (Fraction or int values) as an integer
        pair (numerator, denominator > 0), not reduced.  Each term is a
        pair of integer products, and the sum is kept over the lcm of
        the term denominators, so no Fraction is built."""
        num, den = 0, 1
        for m, c in self.terms.items():
            tn, td = c.numerator, c.denominator
            for name, exp in m:
                v = bindings[name]
                tn *= v.numerator ** exp
                td *= v.denominator ** exp
            if td == den:
                num += tn
            else:
                g = gcd(den, td)
                num = num * (td // g) + tn * (den // g)
                den = den // g * td
        return num, den

    def degree_in(self, name: str) -> int:
        return max((dict(m).get(name, 0) for m in self.terms), default=0)

    def mono_content(self) -> Monomial:
        """Greatest monomial dividing every term."""
        acc = next(iter(self.terms), ())
        for m in self.terms:
            if not acc:
                break
            acc = mono_gcd(acc, m)
        return acc

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        bits = []
        for m, c in self.sorted_terms():
            mono = "*".join(f"{n}^{e}" if e > 1 else n for n, e in m)
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return "Poly(" + " + ".join(bits) + ")"


_P_ZERO = Poly({})
_P_ONE = Poly({(): _ONE})


def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises ValueError when b does not divide a."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return _P_ZERO
    if b.is_const:
        return a.scale(1 / b.const_value())
    q = _quotient(a.terms, b.terms, integral=False)
    if q is None:
        raise ValueError("inexact polynomial division")
    return Poly(q)


def _quotient(a: dict, b: dict, integral: bool):
    """Terms of a / b for nonzero term dicts, or None when b does not
    divide a; with `integral`, also when a quotient coefficient is not an
    integer.  One pass: the remainder is a dict updated in place, and a
    heap of grlex keys yields its leading term, so each quotient term
    costs O(|b| log |remainder|)."""
    mb = min(b, key=_grlex_key)
    cb = b[mb]
    tail = [(m, c) for m, c in b.items() if m != mb]
    rem = dict(a)
    heap = [(_grlex_key(m), m) for m in rem]
    heapify(heap)
    out = {}
    while heap:
        m = heappop(heap)[1]
        c = rem.pop(m, None)
        if c is None:  # cancelled after it was queued
            continue
        qm = mono_div(m, mb)
        if qm is None:
            return None
        if integral:
            qc, r = divmod(c, cb)
            if r:
                return None
        else:
            qc = c / cb
        out[qm] = qc
        for mt, ct in tail:
            t = mono_mul(mt, qm)
            if t not in rem:
                heappush(heap, (_grlex_key(t), t))
            s = rem.get(t, 0) - qc * ct
            if s:
                rem[t] = s
            else:
                del rem[t]
    return out


def _coeffs_in(p: Poly, name: str) -> dict:
    """Poly as a univariate in `name`: degree -> coefficient Poly."""
    out: dict = {}
    for m, c in p.terms.items():
        d = dict(m)
        e = d.pop(name, 0)
        mono = tuple(sorted(d.items()))
        coeff = out.setdefault(e, {})
        coeff[mono] = coeff.get(mono, _ZERO) + c
    return {e: Poly(t) for e, t in out.items()}


def _content_in(p: Poly, name: str) -> Poly:
    coeffs = _coeffs_in(p, name)
    acc = None
    for cp in coeffs.values():
        acc = cp if acc is None else poly_gcd(acc, cp)
        if acc.is_const and not acc.is_zero:
            return _P_ONE
    return acc if acc is not None else _P_ZERO


def _monic(p: Poly) -> Poly:
    if p.is_zero:
        return p
    _, lc = p.leading()
    return p.scale(1 / lc)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd in Q[symbols].  Constants are units, so any nonzero
    constant input gives gcd 1."""
    if a.is_zero:
        return _monic(b)
    if b.is_zero:
        return _monic(a)
    if a.is_const or b.is_const:
        return _P_ONE

    common = mono_gcd(a.mono_content(), b.mono_content())
    if common:
        a = Poly({mono_div(m, common): c for m, c in a.terms.items()})
        b = Poly({mono_div(m, common): c for m, c in b.terms.items()})
    base = Poly({common: _ONE})
    if a.is_const or b.is_const:
        return base

    va, vb = a.variables(), b.variables()
    shared = va & vb
    if not shared or _coprime_images(a, b, sorted(shared), sorted(va | vb)):
        return base
    g = _gcd_heuristic(_integral(a), _integral(b))
    if g is None:
        g = _gcd_recursive(a, b, min(shared))
    else:
        g = Poly({m: Fraction(c) for m, c in g.items()})
    return _monic(base * g)


# The modulus of the images.
_P = 2 ** 61 - 1

# Evaluation points of the coprimality certificate.  A private generator
# with a fixed seed leaves the global one and the sampler's alone.
_POINTS = random.Random(20170101)


def _coprime_images(a: Poly, b: Poly, shared: list, names: list) -> bool:
    """True when images mod p prove gcd(a, b) constant: for each shared
    variable x, both images in x keep their degree and have gcd 1 mod p.
    False proves nothing."""
    p = _P
    point = {name: _POINTS.randrange(1, p) for name in names}
    powers: dict = {}
    fa = _residues(a, point, p, powers)
    fb = None if fa is None else _residues(b, point, p, powers)
    if fb is None:
        return False
    for x in shared:
        ia = _image(fa, x, p)
        if ia is None:
            return False
        ib = _image(fb, x, p)
        if ib is None or len(_gcd_mod(ia, ib, p)) > 1:
            return False
    return True


def _residues(f: Poly, point: dict, p: int, powers: dict):
    """The terms of f reduced mod p once for every image: (c mod p,
    [(name, exponent, point[name]^exponent mod p)]) per term, each power
    taken once into `powers`.  None when p divides a coefficient
    denominator."""
    out = []
    for m, c in f.terms.items():
        v = _mod(c, p)
        if v is None:
            return None
        factors = []
        for name, k in m:
            pk = powers.get((name, k))
            if pk is None:
                pk = powers[name, k] = pow(point[name], k, p)
            factors.append((name, k, pk))
        out.append((v, factors))
    return out


def _image(residues: list, x: str, p: int):
    """Coefficients mod p, lowest degree first, of f as a univariate in x
    with every other variable at the point, from `_residues` of f.  None
    when the leading coefficient in x vanishes at the point."""
    coeffs: dict = {}
    for v, factors in residues:
        e = 0
        for name, k, pk in factors:
            if name == x:
                e = k
            else:
                v = v * pk % p
        coeffs[e] = (coeffs.get(e, 0) + v) % p
    top = max(coeffs)
    if not coeffs[top]:
        return None
    out = [0] * (top + 1)
    for e, v in coeffs.items():
        out[e] = v
    return out


def _mod(c: Fraction, p: int):
    """c mod p, or None when p divides its denominator."""
    den = c.denominator
    if den == 1:
        return c.numerator % p
    if den % p == 0:
        return None
    return c.numerator * pow(den, -1, p) % p


def _gcd_mod(f: list, g: list, p: int) -> list:
    """Monic gcd mod p of nonzero coefficient lists, lowest degree first."""
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _rem_mod(f, g, p)
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _rem_mod(f: list, g: list, p: int) -> list:
    f = f[:]
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    while len(f) > dg:
        q = f[-1] * inv % p
        off = len(f) - 1 - dg
        for i in range(dg):
            f[off + i] = (f[off + i] - q * g[i]) % p
        f.pop()
        while f and not f[-1]:
            f.pop()
    return f


def _integral(f: Poly) -> dict:
    """Terms of an integer multiple of f."""
    den = lcm(*(c.denominator for c in f.terms.values()))
    return {m: c.numerator * (den // c.denominator)
            for m, c in f.terms.items()}


# Evaluation points GCDHEU tries per level before it gives up.
_HEU_TRIES = 6


def _gcd_heuristic(f: dict, g: dict):
    """gcd over Z of nonzero integer term dicts by GCDHEU (Char, Geddes &
    Gonnet 1989), up to sign; None when it gives up.

    The common integer content is split off and multiplied back into the
    result.  The first variable is evaluated at an integer
    xi > 2 min(|f|, |g|) + 2, the gcd of the two images is found
    recursively, and a candidate is read off from its symmetric base-xi
    digits.  A primitive candidate that divides both primitive parts is
    their gcd (the theorem needs only that bound on xi); otherwise xi
    grows and the next one is tried."""
    cf, cg = gcd(*f.values()), gcd(*g.values())
    content = gcd(cf, cg)
    f = {m: c // cf for m, c in f.items()}
    g = {m: c // cg for m, c in g.items()}
    if () in f and len(f) == 1 or () in g and len(g) == 1:
        return {(): content}
    x = min(name for m in (*f, *g) for name, _ in m)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_TRIES):
        ff, gg = _evaluate(f, x, xi), _evaluate(g, x, xi)
        if ff and gg:
            h = _gcd_heuristic(ff, gg)
            if h is None:
                return None
            h = _interpolate(h, x, xi)
            ch = gcd(*h.values())
            h = {m: c // ch for m, c in h.items()}
            if (_quotient(f, h, integral=True) is not None
                    and _quotient(g, h, integral=True) is not None):
                return {m: c * content for m, c in h.items()}
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _evaluate(f: dict, x: str, xi: int) -> dict:
    """Terms of f with x set to xi."""
    out: dict = {}
    for m, c in f.items():
        d = dict(m)
        e = d.pop(x, 0)
        m = tuple(d.items())
        out[m] = out.get(m, 0) + c * xi ** e
    return {m: c for m, c in out.items() if c}


def _interpolate(h: dict, x: str, xi: int) -> dict:
    """The polynomial in x whose coefficients, in symmetric base-xi
    digits, read off h: each coefficient c becomes sum(d_e x^e) with
    c = sum(d_e xi^e) and |d_e| <= xi/2."""
    out = {}
    for m, c in h.items():
        e = 0
        while c:
            d = c % xi
            if d > xi // 2:
                d -= xi
            if d:
                out[tuple(sorted((*m, (x, e)))) if e else m] = d
            c = (c - d) // xi
            e += 1
    return out


def _gcd_recursive(a: Poly, b: Poly, name: str) -> Poly:
    cont_a = _content_in(a, name)
    cont_b = _content_in(b, name)
    prim_a = poly_divexact(a, cont_a)
    prim_b = poly_divexact(b, cont_b)
    cont = poly_gcd(cont_a, cont_b)

    f, g = prim_a, prim_b
    if f.degree_in(name) < g.degree_in(name):
        f, g = g, f
    while True:
        dg = g.degree_in(name)
        if dg == 0:
            return cont
        r = _pseudo_rem(f, g, name)
        if r.is_zero:
            prim_g = poly_divexact(g, _content_in(g, name))
            return _monic(cont * prim_g)
        r = poly_divexact(r, _content_in(r, name))
        f, g = g, r


def _pseudo_rem(f: Poly, g: Poly, name: str) -> Poly:
    dg = g.degree_in(name)
    lc_g = _coeffs_in(g, name)[dg]
    while True:
        df = f.degree_in(name)
        if f.is_zero or df < dg:
            return f
        lc_f = _coeffs_in(f, name)[df]
        shift = ((name, df - dg),) if df > dg else ()
        f = lc_g * f - (lc_f * g).mul_mono(shift)


class DivisionByZeroExpr(ZeroDivisionError):
    """A denominator normalizes to the zero function."""


class RationalFunction:
    """Canonical quotient num/den: gcd(num, den) = 1 and den monic under
    graded lex.  Zero is 0/1.  Operands are RationalFunctions only: a number
    raises TypeError, and `ZERO == 0` is False, as hashing requires.
    `e + ZERO`, `ZERO + e`, `e - ZERO`, a product or quotient with a zero
    factor and `-ZERO` return an existing value (`ZERO` or an operand) and
    build nothing; `ZERO - e` is `-e`."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _P_ONE, *, reduced: bool = False):
        if not den.terms:
            raise ZeroDivisionError("zero denominator")
        if not num.terms:
            self.num, self.den = _P_ZERO, _P_ONE
            return
        if den is not _P_ONE:
            if not reduced:
                num, den = _cancel(num, den)
            if not den.is_const:
                _, lc = den.leading()
                if lc != 1:
                    num = num.scale(1 / lc)
                    den = den.scale(1 / lc)
            else:
                num = num.scale(1 / den.const_value())
                den = _P_ONE
        self.num, self.den = num, den

    @staticmethod
    def const(value) -> "RationalFunction":
        return RationalFunction(Poly.const(value), _P_ONE, reduced=True)

    @staticmethod
    def sym(name: str) -> "RationalFunction":
        return RationalFunction(Poly.var(name), _P_ONE, reduced=True)

    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    @property
    def is_const(self) -> bool:
        return self.num.is_const and self.den is _P_ONE

    def variables(self) -> set:
        return self.num.variables() | self.den.variables()

    def __eq__(self, other):
        if other.__class__ is not RationalFunction:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if other.__class__ is not RationalFunction:
            return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        if self.den is _P_ONE and other.den is _P_ONE:
            return RationalFunction(self.num + other.num, _P_ONE, reduced=True)
        return _add(self.num, self.den, other.num, other.den)

    def __neg__(self):
        if not self.num.terms:
            return self
        return RationalFunction(-self.num, self.den, reduced=True)

    def __sub__(self, other):
        if other.__class__ is not RationalFunction:
            return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms:
            return -other
        if self.den is _P_ONE and other.den is _P_ONE:
            return RationalFunction(self.num - other.num, _P_ONE, reduced=True)
        return _add(self.num, self.den, -other.num, other.den)

    def __mul__(self, other):
        if other.__class__ is not RationalFunction:
            return NotImplemented
        if not (self.num.terms and other.num.terms):
            return ZERO
        if self.den is _P_ONE and other.den is _P_ONE:
            return RationalFunction(self.num * other.num, _P_ONE, reduced=True)
        # cross-cancel first to keep intermediate products small
        a, d2 = _cancel(self.num, other.den)
        b, d1 = _cancel(other.num, self.den)
        # a b and d1 d2 are coprime (Henrici 1956): each of a, b is prime
        # to d1 and d2, since both operands were canonical and the cross
        # cancellation removed the rest.  d1 d2 is monic, as d1 and d2 are.
        return RationalFunction(a * b, d1 * d2, reduced=True)

    def __truediv__(self, other):
        if other.__class__ is not RationalFunction:
            return NotImplemented
        if not other.num.terms:
            raise DivisionByZeroExpr("division by an identically zero expression")
        if not self.num.terms:
            return ZERO
        return self * RationalFunction(other.den, other.num, reduced=True)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return ONE
        if n < 0:
            if not self.num.terms:
                raise DivisionByZeroExpr("zero raised to a negative power")
            return RationalFunction(self.den ** -n, self.num ** -n,
                                    reduced=True)
        return RationalFunction(self.num ** n, self.den ** n, reduced=True)

    def derivative(self, name: str) -> "RationalFunction":
        """Partial derivative by `name`; every other symbol is constant."""
        dn = self.num.derivative(name)
        if self.den is _P_ONE:
            if not dn.terms:
                return ZERO
            return RationalFunction(dn, _P_ONE, reduced=True)
        dd = self.den.derivative(name)
        return RationalFunction(dn * self.den - self.num * dd,
                                self.den * self.den)

    def eval(self, bindings: dict) -> Fraction:
        """The exact value at `bindings`, the one Fraction built from the
        integer pairs of num and den; ZeroDivisionError at a pole."""
        dn, dd = self.den.eval(bindings)
        if dn == 0:
            raise ZeroDivisionError("pole at evaluation point")
        nn, nd = self.num.eval(bindings)
        return Fraction(nn * dd, nd * dn)

    def __repr__(self):
        return f"Expr({render(self)})"

    def __str__(self):
        return render(self)


def _cancel(num: Poly, den: Poly):
    """num/den with gcd(num, den) divided out; none runs for a constant."""
    if den.is_const or num.is_const:
        return num, den
    g = poly_gcd(num, den)
    if g.is_const:
        return num, den
    return poly_divexact(num, g), poly_divexact(den, g)


def _add(a: Poly, b: Poly, c: Poly, d: Poly) -> RationalFunction:
    """a/b + c/d for canonical operands, by Henrici's sum (Henrici 1956;
    Knuth, TAOCP vol. 2, 4.5.1).  With g = gcd(b, d), b = g b' and
    d = g d', the numerator t = a d' + c b' is prime to b' and to d': a is
    prime to b, c to d, and b' to d'.  So only g2 = gcd(t, g) can cancel,
    and (t/g2) / (b' (d/g2)) is in lowest terms, its denominator monic.
    A polynomial operand (b or d the shared 1) makes g = 1 and takes no
    gcd; b = d takes g = b."""
    if b is _P_ONE:
        return RationalFunction(a * d + c, d, reduced=True)
    if d is _P_ONE:
        return RationalFunction(a + c * b, b, reduced=True)
    if b == d:
        g, b1, t = b, _P_ONE, a + c
    else:
        g = poly_gcd(b, d)
        if g.is_const:
            return RationalFunction(a * d + c * b, b * d, reduced=True)
        b1 = poly_divexact(b, g)
        t = a * poly_divexact(d, g) + c * b1
    if not t.is_const:
        g2 = poly_gcd(t, g)
        if not g2.is_const:
            t, d = poly_divexact(t, g2), poly_divexact(d, g2)
    return RationalFunction(t, d if b1 is _P_ONE else b1 * d, reduced=True)


def _accumulate(acc: dict, p: Poly):
    """Add the terms of p into the term dict acc, dropping any that
    cancel."""
    for m, c in p.terms.items():
        s = acc.get(m, _ZERO) + c
        if s:
            acc[m] = s
        else:
            del acc[m]


def esum(items) -> RationalFunction:
    """Sum of RationalFunctions (a number is no summand).  Zero summands
    are dropped: with none left the sum is `ZERO`, and with one left it is
    that summand itself.  Polynomial summands add into one term dict, which
    is the sum when no other summand is left.  The others are grouped by
    denominator, each group's numerators added, and the sum is N/L over
    the lcm L of the distinct denominators, N = sum n_i (L/d_i) in one
    term dict, canonicalized once: gcds run between denominators and once
    on N, and no partial sum carries a shared factor twice.  A single
    rational summand is added to the polynomial part by Henrici's sum,
    which needs no gcd."""
    nonzero = []
    for item in items:
        if item.num.terms:
            nonzero.append(item)
    if len(nonzero) < 2:
        return nonzero[0] if nonzero else ZERO
    terms = {}
    groups = None
    for item in nonzero:
        if item.den is not _P_ONE:
            if groups is None:
                groups = {}
            groups.setdefault(item.den, []).append(item.num)
            continue
        for m, c in item.num.terms.items():
            s = terms.get(m, _ZERO) + c
            if s:
                terms[m] = s
            else:
                del terms[m]
    if groups is None:
        return RationalFunction(Poly(terms), _P_ONE, reduced=True) \
            if terms else ZERO
    if len(groups) == 1:
        (den, nums), = groups.items()
        if len(nums) == 1:
            return _add(Poly(terms), _P_ONE, nums[0], den)
    parts = []
    for den, nums in groups.items():
        num = nums[0]
        if len(nums) > 1:
            acc = {}
            for n in nums:
                _accumulate(acc, n)
            num = Poly(acc)
        parts.append((den, num))
    lcm = parts[0][0]
    for den, _ in parts[1:]:
        g = poly_gcd(lcm, den)
        lcm = lcm * (den if g.is_const else poly_divexact(den, g))
    total = {}
    if terms:
        _accumulate(total, Poly(terms) * lcm)
    for den, num in parts:
        _accumulate(total, num if den is lcm
                    else num * poly_divexact(lcm, den))
    return RationalFunction(Poly(total), lcm) if total else ZERO


ZERO = RationalFunction.const(0)
ONE = RationalFunction.const(1)


def render(e: RationalFunction) -> str:
    """Canonical text, read back by `parse_expr`: the numerator's terms in
    descending graded-lex order, then `/` and the denominator unless it
    is 1.  A numerator that is a sum is parenthesized, and so is a
    denominator that is a sum or a product of two or more factors; a
    fractional constant is parenthesized unless it is the whole text."""
    num, den = e.num, e.den
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
