"""Randomized suites: algebraic laws of the expression kernel under
hypothesis, and differential-geometric invariants on seeded random frames.
Both are fully deterministic run to run."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import _geometry_cases as gc
from cmverify.symcore import (Expr, differentiate, eval_rational, evaluate,
                              normalize, parse_expr, render, Point)

SYMS = ("x", "y")

settings.register_profile("suite", max_examples=40, deadline=None,
                          derandomize=True)
settings.load_profile("suite")

atoms = st.one_of(
    st.integers(min_value=-4, max_value=4).map(Expr.const),
    st.sampled_from(SYMS).map(Expr.sym),
)


def _combine(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda t: t[0] + t[1]),
        pairs.map(lambda t: t[0] - t[1]),
        pairs.map(lambda t: t[0] * t[1]),
        children.map(lambda e: -e),
    )


exprs = st.recursive(atoms, _combine, max_leaves=10)
bindings = st.fixed_dictionaries(
    {s: st.fractions(min_value=-3, max_value=3).filter(lambda f: f != 0)
     for s in SYMS})


class TestRingLaws:
    @given(exprs, exprs, exprs)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(exprs, exprs)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(exprs)
    def test_additive_inverse(self, a):
        assert (a - a).is_zero
        assert (a + (-a)).is_zero

    @given(exprs, exprs)
    def test_quotient_cancellation(self, a, b):
        assume(not b.is_zero)
        assert (a * b) / b == a

    @given(exprs)
    def test_hash_respects_equality(self, a):
        assert hash(a + Expr.const(0)) == hash(a)


class TestNormalForm:
    @given(exprs)
    def test_normalize_idempotent(self, a):
        n1 = normalize(a)
        assert render(normalize(n1)) == render(n1)
        assert n1 == a

    @given(exprs)
    def test_render_parse_round_trip(self, a):
        assert parse_expr(render(a), set(SYMS)) == a

    @given(exprs, bindings)
    def test_tree_and_canonical_evaluation_agree(self, a, bind):
        tree = evaluate(a, Point(dict(bind), {}))
        canon = eval_rational(a, {k: Fraction(v) for k, v in bind.items()})
        assert tree == pytest.approx(float(canon), abs=1e-12)


class TestCalculusLaws:
    @given(exprs, exprs)
    def test_product_rule(self, a, b):
        for s in SYMS:
            lhs = differentiate(a * b, s)
            rhs = differentiate(a, s) * b + a * differentiate(b, s)
            assert lhs == rhs

    @given(exprs, exprs)
    def test_quotient_rule(self, a, b):
        assume(not b.is_zero)
        q = a / b
        for s in SYMS:
            lhs = differentiate(q, s)
            rhs = (differentiate(a, s) * b - a * differentiate(b, s)) / (b * b)
            assert lhs == rhs

    @given(exprs)
    def test_mixed_partials_commute(self, a):
        assert differentiate(differentiate(a, "x"), "y") \
            == differentiate(differentiate(a, "y"), "x")


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
