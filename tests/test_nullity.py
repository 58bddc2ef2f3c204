"""Extraction of the nullity functions and the curvature identity battery."""

from cmverify.curvature import riemann_on
from cmverify.nullity import (RESERVED_NAMES, NullityParams, extract_k_mu,
                              extraction_report, identity_battery,
                              param_check, resolve_params)
from cmverify.symcore import ZERO, parse_expr, render


def ex(text, syms=("x", "y", "z")):
    return parse_expr(text, set(syms))


def extract(geo, h, r_xi=None):
    """`extract_k_mu` on the workspace `geo` for the operator h, with
    `r_xi` in place of its table R(E_i,E_j)xi when given."""
    return extract_k_mu(geo.r_xi if r_xi is None else r_xi, geo.wedge_eta,
                        geo.h_tables(h).wedge_eta_h)


def battery(geo, h, params, label=""):
    return identity_battery(geo, h, params, h_label=label)


def by_id(reports, check_id):
    return next(r for r in reports if r.check_id == check_id)


def test_reserved_names():
    assert set(RESERVED_NAMES) == {"k", "mu"}


class TestExtraction:
    def test_sphere_unit_k_mu_unconstrained(self, sph):
        p = extract(sph, sph.h_computed)
        assert render(p.k) == "1"
        assert p.mu is None
        assert p.status == "mu-indeterminate"
        assert p.kernel == "t*(0, -1)"
        assert "h-terms vanish" in p.notes

    def test_flat_zero_k(self, flat):
        p = extract(flat, flat.h_computed)
        assert render(p.k) == "0"
        assert p.mu is None and p.status == "mu-indeterminate"

    def test_example_declared_h_gives_zero_pair(self, ex3):
        p = extract(ex3, ex3.cs.h_declared)
        assert p.status == "unique"
        assert render(p.k) == "0" and render(p.mu) == "0"

    def test_example_computed_h(self, ex3):
        p = extract(ex3, ex3.h_computed)
        assert render(p.k) == "0"
        assert p.status == "mu-indeterminate"

    def test_inconsistent_when_r_xi_leaves_span(self, flat):
        # hand-built table with R(E1,E2)xi = E1: no (k, mu) can produce it
        zero = ex("0")
        one = ex("1")
        dim = 3
        t = [[[[zero] * dim for _ in range(dim)] for _ in range(dim)]
             for _ in range(dim)]
        t[0][1][2] = [one, zero, zero]
        t[1][0][2] = [-one, zero, zero]
        table = tuple(tuple(tuple(tuple(r) for r in p2) for p2 in p1)
                      for p1 in t)
        p = extract(flat, flat.h_computed, riemann_on(table, flat.cs.xi))
        assert p.status == "inconsistent"
        rep = extraction_report(p, p)
        assert rep.verdict == "fail"


class TestResolve:
    def test_extraction_kept_without_declarations(self, sph):
        p = extract(sph, sph.h_computed)
        used = resolve_params(p, None, None)
        assert used.k is p.k and used.mu is None

    def test_declared_fills_indeterminate(self, sph):
        p = extract(sph, sph.h_computed)
        used = resolve_params(p, None, ex("-2"))
        assert render(used.k) == "1" and render(used.mu) == "-2"
        assert "differs" not in used.notes

    def test_declared_mismatch_is_noted(self, ex3):
        p = extract(ex3, ex3.cs.h_declared)
        used = resolve_params(p, ex("-1/y"), ex("-1/y"))
        assert render(used.k) == "-1/y"
        assert "declared k = -1/y differs from extracted k = 0" in used.notes
        assert "declared mu = -1/y differs from extracted mu = 0" in used.notes


class TestParamCheck:
    def test_symbolic_mu_surviving_means_needs_input(self, sph):
        p = extract(sph, sph.h_computed)
        used = resolve_params(p, None, None)
        reports = battery(sph, sph.h_computed, used)
        for cid in ("I3.9", "I3.10"):
            rep = by_id(reports, cid)
            assert rep.verdict == "needs-input"
            assert "requires mu" in rep.notes and "--mu" in rep.notes

    def test_mu_that_cancels_does_not_block(self, sph):
        # the mu-terms carry h = 0 here, so the verdict is definite
        p = extract(sph, sph.h_computed)
        used = resolve_params(p, None, None)
        assert by_id(battery(sph, sph.h_computed, used), "I3.11").verdict \
            == "pass"

    def test_reads_nothing_past_the_residual_that_proves_needs_input(self):
        # k first appears in the second residual and mu in the fourth; the
        # iterator fails the test if it is advanced once more
        syms = ("x", "k", "mu")

        def residuals():
            yield "a", ZERO
            yield "b", ex("k*x", syms)
            yield "c", ex("x", syms)
            yield "d", ex("mu + k", syms)
            raise AssertionError("read past the proof of needs-input")

        rep = param_check("T", NullityParams(None, None, "underdetermined"),
                          residuals())
        assert rep.verdict == "needs-input"
        assert "requires k and mu" in rep.notes

    def test_reads_every_residual_without_the_missing_symbol(self):
        # only k is indeterminate and it never appears, so every residual
        # is read and the first nonzero one is the verdict's
        syms = ("x", "mu")
        read = []

        def residuals():
            for label, text in (("a", "0"), ("b", "mu*x"), ("c", "x")):
                read.append(label)
                yield label, ex(text, syms)

        rep = param_check("T", NullityParams(None, ex("1"), "k-indeterminate"),
                          residuals())
        assert read == ["a", "b", "c"]
        assert rep.verdict == "fail" and rep.residual_symbolic == "b: mu*x"


class TestBatteryVerdicts:
    def test_sphere_with_mu_declared_all_pass(self, sph):
        p = extract(sph, sph.h_computed)
        used = resolve_params(p, None, ex("-2"))
        reports = battery(sph, sph.h_computed, used)
        assert len(reports) == 13
        assert all(r.verdict == "pass" for r in reports)

    def test_flat_only_sectional_identity_fails(self, flat):
        p = extract(flat, flat.h_computed)
        used = resolve_params(p, None, ex("0"))
        reports = battery(flat, flat.h_computed, used)
        failing = [r.check_id for r in reports if r.verdict == "fail"]
        assert failing == ["I3.3"]
        assert by_id(reports, "I3.3").residual_symbolic == "(E1,E1): -1"

    def test_example_declared_values_fail_battery(self, ex3):
        p = extract(ex3, ex3.cs.h_declared)
        used = resolve_params(p, ex("-1/y"), ex("-1/y"))
        reports = battery(ex3, ex3.cs.h_declared, used, label="declared")
        assert all(r.verdict == "fail" for r in reports)
        assert by_id(reports, "I3.7").residual_symbolic == "X=E3: 2/y"
        assert by_id(reports, "I3.10").residual_symbolic == "r: -4/y^2"
        assert by_id(reports, "I3.13").residual_symbolic \
            == "(E1;E2,E3): 1/y^2"
        assert all("h = declared" in r.notes for r in reports)

    def test_transcribed_shape_notes_present(self, sph):
        p = extract(sph, sph.h_computed)
        used = resolve_params(p, None, ex("-2"))
        reports = battery(sph, sph.h_computed, used)
        assert "lacks the second argument" in by_id(reports, "I3.12").notes


def test_extraction_report_mentions_kernel_and_override(sph):
    p = extract(sph, sph.h_computed)
    used = resolve_params(p, None, ex("-2"))
    rep = extraction_report(p, used, "computed")
    assert rep.check_id == "NULLITY" and rep.verdict == "pass"
    assert "extracted k = 1, mu = indeterminate" in rep.notes
    assert "kernel t*(0, -1)" in rep.notes
    assert "using declared k = 1, mu = -2" in rep.notes
    assert "h = computed" in rep.notes
