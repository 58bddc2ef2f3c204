"""Randomized suites: algebraic laws of the expression kernel under
hypothesis, and differential-geometric invariants on seeded random frames.
Both are fully deterministic run to run."""

import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import _geometry_cases as gc
from cmverify.symcore import (ZERO, DivisionByZeroExpr, DomainError, Expr,
                              esum, eval_rational, parse_expr, render)
from cmverify.symcore.poly import _P_ONE

SYMS = ("x", "y")

settings.register_profile("suite", max_examples=40, deadline=None,
                          derandomize=True)
settings.load_profile("suite")

# A construction is a nested tuple (op, left, right) with op one of
# "+-*/", or ("neg", arg), over integer and symbol-name leaves.  `fold`
# evaluates one with the operators of its leaf values: Exprs give the
# canonical rational function, Fractions at a point give a reference
# value that never passes through the canonical form.
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


def fold(tree, leaf):
    if not isinstance(tree, tuple):
        return leaf(tree)
    op, *args = tree
    vals = [fold(t, leaf) for t in args]
    return -vals[0] if op == "neg" else _BINARY[op](*vals)


def _expr_leaf(leaf):
    return Expr.const(leaf) if isinstance(leaf, int) else Expr.sym(leaf)


def _with_expr(tree):
    """(Expr, construction), or None when a divisor is identically zero."""
    try:
        return fold(tree, _expr_leaf), tree
    except DivisionByZeroExpr:
        return None


def _combine(children):
    return st.one_of(st.tuples(st.sampled_from(sorted(_BINARY)), children,
                               children),
                     st.tuples(st.just("neg"), children))


constructions = st.recursive(
    st.one_of(st.integers(min_value=-4, max_value=4), st.sampled_from(SYMS)),
    _combine, max_leaves=10)
built = constructions.map(_with_expr).filter(lambda pair: pair is not None)
exprs = built.map(lambda pair: pair[0])
bindings = st.fixed_dictionaries(
    {s: st.fractions(min_value=-3, max_value=3).filter(lambda f: f != 0)
     for s in SYMS})


# Quotients whose denominator has two or more terms: `exprs` almost never
# divides by a sum, so the laws are run on these as well.
_long_dens = st.lists(
    st.tuples(st.integers(min_value=-3, max_value=3).filter(bool),
              st.tuples(st.integers(0, 2), st.integers(0, 2))),
    min_size=2, max_size=3, unique_by=lambda term: term[1]).map(
        lambda terms: functools.reduce(operator.add, (
            Expr.const(c) * Expr.sym("x") ** i * Expr.sym("y") ** j
            for c, (i, j) in terms)))
quotients = st.builds(operator.truediv, exprs, _long_dens)


def _long_den(e) -> bool:
    return len(e.den.terms) >= 2


def ring_laws(elems):
    """The ring laws of the canonical form, on draws from `elems`."""

    class RingLaws:
        @given(elems, elems, elems)
        def test_associativity_and_distributivity(self, a, b, c):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

        @given(elems, elems)
        def test_commutativity(self, a, b):
            assert a + b == b + a
            assert a * b == b * a

        @given(elems)
        def test_additive_inverse(self, a):
            assert (a - a).is_zero
            assert (a + (-a)).is_zero

        @given(elems, elems)
        def test_quotient_cancellation(self, a, b):
            assume(not b.is_zero)
            assert (a * b) / b == a

        @given(elems)
        def test_hash_respects_equality(self, a):
            assert hash(a + Expr.const(0)) == hash(a)

    return RingLaws


TestRingLaws = ring_laws(exprs)
TestRingLawsOnQuotients = ring_laws(quotients)


class TestQuotientDraws:
    def test_most_quotients_have_long_denominators(self):
        """The quotient laws cannot pass on draws that never meet a
        denominator of two or more terms."""
        seen = []

        @given(quotients)
        def draw(q):
            seen.append(_long_den(q))

        draw()
        assert len(seen) >= 40
        assert sum(seen) >= 0.5 * len(seen)

    @given(st.lists(st.one_of(exprs, quotients), max_size=8))
    def test_esum_is_the_left_fold(self, items):
        assert esum(items) == functools.reduce(operator.add, items,
                                               Expr.const(0))

    def test_esum_draws_mix_both_kinds(self):
        mixed = []

        @given(st.lists(st.one_of(exprs, quotients), max_size=8))
        def draw(items):
            mixed.append(any(_long_den(e) for e in items)
                         and any(e.den.is_const for e in items))

        draw()
        assert sum(mixed) >= 0.25 * len(mixed)

    @given(st.one_of(exprs, quotients), st.one_of(exprs, quotients))
    def test_constant_denominator_is_the_shared_one(self, a, b):
        results = [a + b, a - b, a * b, -a, a ** 2, esum([a, b]),
                   a.derivative("x")]
        if not b.is_zero:
            results += [a / b, b ** -1]
        for e in results:
            if e.den.is_const:
                assert e.den is _P_ONE


class TestStructuralZeros:
    """A zero operand returns an existing object, never a new one."""

    @given(st.one_of(exprs, quotients))
    def test_zero_operands(self, e):
        assert e + ZERO is e and e - ZERO is e
        assert ZERO * e is ZERO and e * ZERO is ZERO
        assert -ZERO is ZERO
        assert esum([ZERO, ZERO]) is ZERO
        assume(not e.is_zero)
        assert ZERO + e is e
        assert esum([e]) is e and esum([ZERO, e, ZERO]) is e


class TestNormalForm:
    @given(exprs)
    def test_normalize_idempotent(self, a):
        """Parsing normalizes, and the canonical text is a fixed point."""
        n1 = parse_expr(render(a), set(SYMS))
        assert render(n1) == render(a)
        assert n1 == a

    @given(exprs, exprs)
    def test_render_parse_round_trip(self, a, b):
        quotient = () if b.is_zero else (a / b,)
        for e in (a, a * b, *quotient):
            assert parse_expr(render(e), set(SYMS)) == e

    @given(built, built, bindings)
    def test_tree_and_canonical_evaluation_agree(self, p, q, bind):
        """Wherever no step of a construction divides by zero, the
        canonical form has no pole there and takes the same exact value.
        Small draws rarely divide by a sum, so a / b is checked too."""
        (a, ta), (b, tb) = p, q
        cases = [(a, ta), (a * b, ("*", ta, tb))]
        if not b.is_zero:
            cases.append((a / b, ("/", ta, tb)))
        for e, tree in cases:
            try:
                expected = fold(tree, lambda leaf: bind[leaf]
                                if isinstance(leaf, str) else Fraction(leaf))
            except ZeroDivisionError:
                continue
            assert eval_rational(e, bind) == expected


def _fraction_fold(p, bind):
    """A polynomial's value by a term-by-term fold in Fraction arithmetic."""
    total = Fraction(0)
    for mono, c in p.terms.items():
        v = c
        for name, exp in mono:
            v = v * bind[name] ** exp
        total += v
    return total


def _reference_eval(e, bind):
    """The value of e at bind, or the message `eval_rational` must raise:
    den is evaluated first, so its missing symbol or its zero decides."""
    try:
        dv = _fraction_fold(e.den, bind)
        if dv == 0:
            return "pole at evaluation point"
        return _fraction_fold(e.num, bind) / dv
    except KeyError as exc:
        return f"no value assigned to symbol {exc.args[0]!r}"


# Point coordinates as the sampler draws them (thousandths), sevenths,
# and small integers, which put some draws on poles (x = 0, x = y, ...).
_values = st.one_of(
    st.integers(-3000, 3000).map(lambda n: Fraction(n, 1000)),
    st.integers(-21, 21).map(lambda n: Fraction(n, 7)),
    st.integers(-2, 2))
# Some draws leave a symbol unbound.
_partial_bindings = st.dictionaries(st.sampled_from(SYMS), _values)


class TestIntegerEvaluation:
    """`eval_rational` sums integer pairs; the values, the poles and the
    unbound symbols are those of the term-by-term Fraction fold."""

    def test_agrees_with_the_fraction_fold(self):
        outcomes = []

        @settings(max_examples=300)
        @given(st.one_of(exprs, quotients), _partial_bindings)
        def check(e, bind):
            expected = _reference_eval(e, bind)
            try:
                got = eval_rational(e, bind)
            except DomainError as exc:
                got = str(exc)
            else:
                assert type(got) is Fraction
            assert got == expected
            outcomes.append(expected if isinstance(expected, str)
                            else "value")

        check()
        assert {"value", "pole at evaluation point"} <= set(outcomes)
        assert any(o.startswith("no value") for o in outcomes)


def calculus_laws(elems):
    """Differentiation laws of the canonical form, on draws from `elems`."""

    class CalculusLaws:
        @given(elems, elems)
        def test_product_rule(self, a, b):
            for s in SYMS:
                lhs = (a * b).derivative(s)
                rhs = a.derivative(s) * b + a * b.derivative(s)
                assert lhs == rhs

        @given(elems, elems)
        def test_quotient_rule(self, a, b):
            assume(not b.is_zero)
            q = a / b
            for s in SYMS:
                lhs = q.derivative(s)
                rhs = (a.derivative(s) * b - a * b.derivative(s)) / (b * b)
                assert lhs == rhs

        @given(elems)
        def test_mixed_partials_commute(self, a):
            assert a.derivative("x").derivative("y") \
                == a.derivative("y").derivative("x")

    return CalculusLaws


TestCalculusLaws = calculus_laws(exprs)
TestCalculusLawsOnQuotients = calculus_laws(quotients)


CASE_SEEDS = range(50)


@pytest.fixture(scope="module")
def geometry_cases():
    return {seed: gc.build_case(seed) for seed in CASE_SEEDS}


class TestConnectionInvariants:
    def test_torsion_free(self, geometry_cases):
        for seed, (spec, brackets, conn, rt, nrt) in geometry_cases.items():
            res = gc.torsion_residuals(spec, conn, brackets)
            assert all(e.is_zero for e in res), seed

    def test_metric_compatible(self, geometry_cases):
        for seed, (spec, brackets, conn, rt, nrt) in geometry_cases.items():
            res = gc.compatibility_residuals(spec, conn)
            assert all(e.is_zero for e in res), seed


class TestCurvatureInvariants:
    def test_antisymmetries(self, geometry_cases):
        for seed, (spec, brackets, conn, rt, nrt) in geometry_cases.items():
            res = gc.antisymmetry_residuals(spec, rt)
            assert all(e.is_zero for e in res), seed

    def test_first_bianchi_exact(self, geometry_cases):
        for seed, (spec, brackets, conn, rt, nrt) in geometry_cases.items():
            res = gc.first_bianchi_residuals(rt)
            assert all(e.is_zero for e in res), seed

    def test_second_bianchi_sampled(self, geometry_cases):
        for seed, (spec, brackets, conn, rt, nrt) in geometry_cases.items():
            res = gc.second_bianchi_residuals(nrt)
            worst = gc.sampled_max(res, gc.sample_points(seed))
            assert worst <= 1e-9, (seed, worst)

    def test_second_bianchi_exact_on_subset(self, geometry_cases):
        for seed in list(CASE_SEEDS)[:10]:
            _, _, _, _, nrt = geometry_cases[seed]
            res = gc.second_bianchi_residuals(nrt)
            assert all(e.is_zero for e in res), seed
