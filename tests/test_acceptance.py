"""Acceptance gate.  Each test covers one numbered criterion and records a
single PASS/FAIL line that conftest prints in the terminal summary."""

import time

import _acceptance_log
import _geometry_cases as gc
from cmverify.cli import run as cli_run
from cmverify.contact import axiom_suite
from cmverify.frames import FrameDependent, validate_frame
from cmverify.nullity import extract_k_mu, identity_battery, resolve_params
from cmverify.recurrence import (KINDS, classification_phrase,
                                 example_pipeline, solve_recurrence)
from cmverify.specfile import load_spec, resolve_spec_path
from cmverify.symcore import Expr, parse_expr, render
from cmverify.workspace import Workspace


def criterion(tag, body):
    try:
        detail = body()
    except BaseException as exc:
        _acceptance_log.record(tag, False, f"{type(exc).__name__}: {exc}")
        raise
    _acceptance_log.record(tag, True, detail or "")


def _solve(geo, kind):
    return solve_recurrence(kind, geo)


def test_criterion_1_connection_table():
    def body():
        t0 = time.perf_counter()
        conn = Workspace(load_spec(resolve_spec_path("example3d"))).conn
        elapsed = time.perf_counter() - t0
        table = {(i, j): [render(c) for c in conn[i][j]]
                 for i in range(3) for j in range(3)}
        for (i, j), comps in table.items():
            if (i, j) == (1, 0):
                assert comps == ["0", "-1/y", "0"]
            elif (i, j) == (1, 1):
                assert comps == ["1/y", "0", "0"]
            else:
                assert comps == ["0", "0", "0"], (i, j)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        return f"nine entries exact, {elapsed * 1000:.0f} ms"
    criterion("criterion 1: connection table", body)


def test_criterion_2_curvature_table(ex3):
    def body():
        rt = ex3.r_table
        assert [render(c) for c in rt[0][1][0]] == ["0", "2/y^2", "0"]
        assert [render(c) for c in rt[0][1][1]] == ["-2/y^2", "0", "0"]
        for i in range(3):
            for j in range(i + 1, 3):
                for k in range(3):
                    if (i, j, k) in ((0, 1, 0), (0, 1, 1)):
                        continue
                    assert all(c.is_zero for c in rt[i][j][k]), (i, j, k)
        return "both nonzero components exact, rest vanish"
    criterion("criterion 2: curvature table", body)


def test_criterion_3_parametric_pipeline(ex3):
    def body():
        reports = example_pipeline(ex3)
        verdicts = {r.check_id: r.verdict for r in reports}
        for i in (1, 2, 3, 4, 5, 6, 7):
            assert verdicts[f"PIPE-5.{i}"] == "pass", i
        assert "p2 = q2 = p3 = q3 = 0" in \
            next(r for r in reports if r.check_id == "PIPE-5.7").notes
        return "symbolic chain reproduced through the derivative step"
    criterion("criterion 3: parametric pipeline", body)


def test_criterion_4_recurrence_solve(ex3):
    def body():
        sol = _solve(ex3, "phi")
        assert [d.status for d in sol.directions] == ["unique"] * 3
        assert [render(c) for c in sol.A] == ["-2/y", "0", "0"]
        assert gc.vanishes(sol.B)
        assert classification_phrase(sol) == "φ-recurrent, not φ-symmetric"
        pipe = example_pipeline(ex3)
        p58 = next(r for r in pipe if r.check_id == "PIPE-5.8")
        assert p58.verdict == "fail"
        assert "u1*q1 - u2*p1 = 0 identically" in p58.notes
        return "A(E1) = -2/y unique; blocked quotient reported"
    criterion("criterion 4: recurrence solve", body)


def test_criterion_5_golden_sphere(sph):
    def body():
        reports = axiom_suite(sph)
        assert reports and all(r.verdict == "pass" for r in reports)
        p = extract_k_mu(sph.r_xi, sph.wedge_eta,
                         sph.h_tables(sph.h_computed).wedge_eta_h)
        assert render(p.k) == "1" and p.mu is None
        for i in range(3):
            for j in range(3):
                want = Expr.const(2) * sph.spec.metric[i][j]
                assert (sph.ric.S[i][j] - want).is_zero
        assert render(sph.ric.r) == "6"
        used = resolve_params(p, None, parse_expr("-2", set()))
        battery = identity_battery(sph, sph.h_computed, used)
        verdicts = {r.check_id: r.verdict for r in battery}
        assert verdicts["I3.9"] == "pass"
        assert verdicts["I3.10"] == "pass"
        assert verdicts["I3.11"] == "pass"
        assert _solve(sph, "full").classification == "symmetric"
        return "axioms, k = 1, S = 2g, r = 6, symmetric"
    criterion("criterion 5: golden sphere", body)


def test_criterion_6_flat_baseline(flat):
    def body():
        assert all(c.is_zero for plane in flat.conn for row in plane
                   for c in row)
        assert all(c.is_zero for p1 in flat.r_table for p2 in p1
                   for row in p2 for c in row)
        got = {kind: _solve(flat, kind).classification for kind in KINDS}
        # the phi kind keeps its projector in the label
        assert got == {"full": "degenerate-symmetric",
                       "ricci": "degenerate-symmetric",
                       "phi": "degenerate-φ-symmetric"}
        assert all(c.startswith("degenerate-") for c in got.values())
        return "Gamma = 0, R = 0, all kinds degenerate"
    criterion("criterion 6: flat baseline", body)


def test_criterion_7_audit_findings(ex3, capsys):
    def body():
        reports = axiom_suite(ex3)
        by = {}
        for r in reports:
            by.setdefault(r.check_id, []).append(r.verdict)
        assert by["I2.1"] == ["fail"]
        assert by["I2.4"] == ["fail", "fail"]
        assert ex3.cs.h_declared != ex3.h_computed
        assert gc.vanishes(ex3.h_computed)
        p = extract_k_mu(ex3.r_xi, ex3.wedge_eta,
                         ex3.h_tables(ex3.cs.h_declared).wedge_eta_h)
        declared = parse_expr("-1/y", {"y"})
        assert not (p.k - declared).is_zero
        assert not (p.mu - declared).is_zero
        used = resolve_params(p, declared, declared)
        assert "differs from extracted" in used.notes
        assert cli_run(["check", "identities", "example3d",
                        "--k", "-1/y", "--mu", "-1/y"]) == 2
        assert cli_run(["check", "axioms", "example3d-vector"]) == 1
        try:
            validate_frame(load_spec(
                resolve_spec_path("example3d-vector")).spec)
            raise AssertionError("FrameDependent not raised")
        except FrameDependent:
            pass
        return "axiom failures, h mismatch, k disagreement, exit codes"
    criterion("criterion 7: audit findings", body)


def test_criterion_8_property_suite():
    def body():
        t0 = time.perf_counter()
        count = 0
        for seed in range(50):
            spec, brackets, conn, rt, nrt = gc.build_case(seed)
            assert all(e.is_zero for e in
                       gc.torsion_residuals(spec, conn, brackets)), seed
            assert all(e.is_zero for e in
                       gc.compatibility_residuals(spec, conn)), seed
            assert all(e.is_zero for e in
                       gc.antisymmetry_residuals(spec, rt)), seed
            assert all(e.is_zero for e in
                       gc.first_bianchi_residuals(rt)), seed
            worst = gc.sampled_max(gc.second_bianchi_residuals(nrt),
                                   gc.sample_points(seed))
            assert worst <= 1e-9, (seed, worst)
            count += 1
        elapsed = time.perf_counter() - t0
        assert count == 50 and elapsed < 60.0
        return f"50 random frames in {elapsed:.1f} s"
    criterion("criterion 8: property suite", body)
