"""Recurrence 1-form solver, downstream relation checks, and the audited
parametric chain."""

import pytest

from _geometry_cases import vanishes
from cmverify.nullity import extract_k_mu, resolve_params
from cmverify.recurrence import (KINDS, classification_phrase,
                                 example_pipeline, pipeline_available,
                                 recurrence_report, solve_recurrence,
                                 theorem_checks)
from cmverify.symcore import parse_expr, render


def solve(geo, kind):
    return solve_recurrence(kind, geo)


def used_params(geo, h, k=None, mu=None):
    syms = geo.spec.symbols()
    pk = parse_expr(k, syms) if k else None
    pmu = parse_expr(mu, syms) if mu else None
    ext = extract_k_mu(geo.r_xi, geo.wedge_eta, geo.h_tables(h).wedge_eta_h)
    return resolve_params(ext, pk, pmu)


def by_id(reports, check_id):
    return next(r for r in reports if r.check_id == check_id)


class TestSolver:
    def test_kinds(self):
        assert KINDS == ("full", "ricci", "phi")
        with pytest.raises(ValueError):
            solve_recurrence("weird", None)

    @pytest.mark.parametrize("kind", KINDS)
    def test_example_unique_solution(self, ex3, kind):
        sol = solve(ex3, kind)
        assert [d.status for d in sol.directions] == ["unique"] * 3
        assert [render(c) for c in sol.A] == ["-2/y", "0", "0"]
        assert vanishes(sol.B)
        assert sol.consistent and not sol.lhs_zero

    def test_example_classifications(self, ex3):
        assert solve(ex3, "full").classification == "recurrent"
        assert solve(ex3, "ricci").classification == "recurrent"
        phi = solve(ex3, "phi")
        assert phi.classification == "φ-recurrent"
        assert classification_phrase(phi) == "φ-recurrent, not φ-symmetric"

    @pytest.mark.parametrize("kind,kernel", [
        ("full", "t*(-1, 1)"), ("ricci", "t*(1, -2)"), ("phi", "t*(1, -1)")])
    def test_sphere_underdetermined_with_kernel(self, sph, kind, kernel):
        sol = solve(sph, kind)
        assert sol.lhs_zero and not sol.degenerate
        assert [d.status for d in sol.directions] == ["underdetermined"] * 3
        assert all(d.kernel == kernel for d in sol.directions)
        # representative pins the free direction to zero
        assert vanishes(sol.A) and vanishes(sol.B)
        want = "φ-symmetric" if kind == "phi" else "symmetric"
        assert sol.classification == want
        assert classification_phrase(sol) == want

    @pytest.mark.parametrize("kind", KINDS)
    def test_flat_degenerate(self, flat, kind):
        sol = solve(flat, kind)
        assert sol.degenerate and sol.lhs_zero
        want = "degenerate-φ-symmetric" if kind == "phi" \
            else "degenerate-symmetric"
        assert sol.classification == want
        assert all(d.kernel == "alpha free" for d in sol.directions)


class TestRecurrenceReport:
    def test_pass_line_carries_solution(self, ex3):
        rep = recurrence_report(solve(ex3, "phi"))
        assert rep.check_id == "REC-PHI" and rep.verdict == "pass"
        assert "A = (-2/y, 0, 0); B = (0, 0, 0)" in rep.notes
        assert "classification: φ-recurrent, not φ-symmetric" in rep.notes
        assert "E1 unique" in rep.notes

    def test_ids_match_kind(self, sph):
        assert recurrence_report(solve(sph, "full")).check_id == "REC-FULL"
        assert recurrence_report(solve(sph, "ricci")).check_id == "REC-RICCI"

    def test_degenerate_verdict(self, flat):
        rep = recurrence_report(solve(flat, "full"))
        assert rep.verdict == "degenerate"


class TestTheoremChecks:
    def run(self, geo, h, label, **kw):
        params = used_params(geo, h, **kw)
        sol = solve(geo, "phi")
        return theorem_checks(geo, h, params, sol, h_label=label)

    def test_example_declared_values_break_every_relation(self, ex3):
        reports = self.run(ex3, ex3.cs.h_declared, "declared",
                           k="-1/y", mu="-1/y")
        expected = {
            "T4.7": "W=E1: 2/y^2",
            "T4.9b": "(Y=E1,W=E1): 2/y^3",
            "T4.12": "W=E1: (-4*y + 2)/y^2",
            "T4.14": "(W=E1,E1,E1): 2/y^2",
            "T4.14.cond": "(W=E1,E1,E1): -2/y",
            "T4.17": "(E1,E2;W=E2): (-4*y - 4)/y^2",
        }
        assert {r.check_id for r in reports} == set(expected)
        for cid, residual in expected.items():
            rep = by_id(reports, cid)
            assert rep.verdict == "fail", cid
            assert rep.residual_symbolic == residual, cid

    def test_sphere_only_final_relation_fails(self, sph):
        reports = self.run(sph, sph.h_computed, "computed", mu="-2")
        verdicts = {r.check_id: r.verdict for r in reports}
        assert verdicts == {"T4.7": "pass", "T4.9b": "pass",
                            "T4.12": "pass", "T4.14": "pass",
                            "T4.14.cond": "pass", "T4.17": "fail"}
        assert by_id(reports, "T4.17").residual_symbolic \
            == "(E1,E2;W=E1): -1"

    def test_flat_needs_mu_only_for_final_relation(self, flat):
        reports = self.run(flat, flat.h_computed, "computed")
        assert by_id(reports, "T4.17").verdict == "needs-input"
        others = [r for r in reports if r.check_id != "T4.17"]
        assert all(r.verdict == "pass" for r in others)

    def test_transcription_notes(self, sph):
        reports = self.run(sph, sph.h_computed, "computed", mu="-2")
        assert "W in both slots" in by_id(reports, "T4.9b").notes
        assert "no expected value is asserted" in by_id(reports,
                                                        "T4.17").notes


class TestPipeline:
    def test_gate(self, ex3, sph, flat):
        assert pipeline_available(ex3.spec)
        assert not pipeline_available(sph.spec)
        assert not pipeline_available(flat.spec)

    def test_unavailable_marks_all_steps(self, sph):
        reports = example_pipeline(sph)
        assert [r.check_id for r in reports] \
            == [f"PIPE-5.{i}" for i in range(1, 10)]
        assert all(r.verdict == "needs-input" for r in reports)

    def test_example_chain(self, ex3):
        reports = example_pipeline(ex3)
        verdicts = {r.check_id: r.verdict for r in reports}
        for i in (1, 2, 3, 4, 5, 6, 7, 9):
            assert verdicts[f"PIPE-5.{i}"] == "pass", i
        assert verdicts["PIPE-5.8"] == "fail"

    def test_blocked_quotient_is_spelled_out(self, ex3):
        rep = by_id(example_pipeline(ex3), "PIPE-5.8")
        assert "A(E1) = (v2*p1 - v1*q1)/(u1*v2 - u2*v1) = -2/y" in rep.notes
        assert "u1*q1 - u2*p1 = 0 identically" in rep.notes
        assert rep.residual_symbolic == "0"

    def test_projected_derivative_coefficients_note(self, ex3):
        rep = by_id(example_pipeline(ex3), "PIPE-5.7")
        assert "p2 = q2 = p3 = q3 = 0" in rep.notes
