from fractions import Fraction

import pytest

from _geometry_cases import basis, vanishes
from cmverify.contact import (InconsistentEta, axiom_suite, build_structure,
                              contact_volume, deta_tensor, h_variants,
                              lie_xi_g, phi2_rows)
from cmverify.frames import ShapeError, dot
from cmverify.specfile import parse_spec_text
from cmverify.symcore import render
from cmverify.workspace import Workspace

def _sphere_text():
    from cmverify.specfile import resolve_spec_path
    return resolve_spec_path("sphere3").read_text()


def by_id(reports, check_id, note_part=None):
    hits = [r for r in reports if r.check_id == check_id
            and (note_part is None or note_part in r.notes)]
    assert hits, f"no report {check_id} ({note_part})"
    return hits[0]


def test_eta_is_metric_dual_of_xi(ex3):
    assert [render(c) for c in ex3.cs.eta] == ["0", "0", "1"]
    assert dot(ex3.cs.eta, ex3.cs.xi) == ex3.spec.metric[2][2]


def test_declared_eta_checked_against_metric_dual():
    bad = parse_spec_text(_sphere_text() + "contact eta : 1 E1\n", "t")
    with pytest.raises(InconsistentEta, match="eta\\(E1\\) declared as 1"):
        build_structure(bad.spec, bad.decl)


def test_missing_xi_rejected():
    ps = parse_spec_text("coords x y z\nframe-mode bracket\n"
                         "metric identity\n", "t")
    with pytest.raises(ShapeError, match="no xi declared"):
        build_structure(ps.spec, ps.decl)


def test_even_dimension_rejected():
    ps = parse_spec_text("coords x y\nframe-mode bracket\nmetric identity\n"
                         "contact xi = E2\ncontact phi : E1 -> 0\n", "t")
    with pytest.raises(ShapeError):
        build_structure(ps.spec, ps.decl)


def test_computed_h_vanishes_on_k_contact(sph):
    assert vanishes(sph.h_computed)


def test_computed_h_vanishes_on_audited_example(ex3):
    # the declared operator is nonzero, the Lie derivative is not
    assert vanishes(ex3.h_computed)
    assert not vanishes(ex3.cs.h_declared)


def test_h_variant_labels(ex3, sph):
    assert [lab for lab, _ in h_variants(ex3.cs, ex3.h_computed)] \
        == ["declared", "computed"]
    assert [lab for lab, _ in h_variants(sph.cs, sph.h_computed)] \
        == ["computed"]
    agreed = parse_spec_text(_sphere_text() + "contact h : E1 -> 0\n", "t")
    assert [lab for lab, _ in Workspace(agreed).variants] \
        == ["declared (= computed)"]


def test_deta_halved_bracket_convention(sph):
    deta = deta_tensor(sph.spec, sph.cs, sph.brackets)
    assert render(deta[0][1]) == "-1"
    assert render(deta[1][0]) == "1"
    doubled = deta_tensor(sph.spec, sph.cs, sph.brackets,
                          factor=Fraction(1))
    assert render(doubled[0][1]) == "-2"


def test_contact_volume(sph, flat):
    vol = contact_volume(sph.cs, deta_tensor(sph.spec, sph.cs,
                                             sph.brackets))
    assert render(vol) == "-1"
    flat_vol = contact_volume(flat.cs, deta_tensor(flat.spec, flat.cs,
                                                   flat.brackets))
    assert flat_vol.is_zero


def test_xi_killing_on_sphere(sph):
    assert vanishes(lie_xi_g(sph.spec, sph.cs, sph.brackets))


def test_xi_not_killing_under_declared_h_example(ex3):
    # example frame: Lie_xi g = 0 as well, which is what H-COMP flags
    assert vanishes(lie_xi_g(ex3.spec, ex3.cs, ex3.brackets))


def test_phi2_projection(sph):
    e1, xi = phi2_rows(sph.cs, [basis(0), sph.cs.xi])
    assert [render(c) for c in e1] == ["-1", "0", "0"]
    assert vanishes(xi)


class TestAxiomSuiteVerdicts:
    def test_sphere_all_pass(self, sph):
        reports = axiom_suite(sph)
        assert reports, "empty suite"
        assert all(r.verdict == "pass" for r in reports)
        assert by_id(reports, "CONTACT").residual_symbolic == "-1"

    def test_example_audit_findings(self, ex3):
        reports = axiom_suite(ex3)
        assert by_id(reports, "I2.1").verdict == "fail"
        assert by_id(reports, "I2.1").residual_symbolic == "(E1,E2): -1"
        assert by_id(reports, "I2.4", "declared").verdict == "fail"
        assert by_id(reports, "I2.4", "computed").verdict == "fail"
        for hid in ("H1", "H2", "H3", "H4"):
            assert by_id(reports, hid, "declared").verdict == "pass"
            assert by_id(reports, hid, "computed").verdict == "pass"
        hcomp = by_id(reports, "H-COMP")
        assert hcomp.verdict == "fail"
        assert hcomp.residual_symbolic == "(E1,E1): -1"
        assert by_id(reports, "KILLING").verdict == "pass"
        assert by_id(reports, "CONTACT").verdict == "fail"

    def test_flat_baseline_fails_structure_axioms(self, flat):
        reports = axiom_suite(flat)
        assert by_id(reports, "I2.2").verdict == "fail"
        assert "phi^2 E1: 1" in by_id(reports, "I2.2").residual_symbolic
        assert by_id(reports, "I2.3").verdict == "fail"
        assert by_id(reports, "CONTACT").verdict == "fail"
        assert by_id(reports, "I2.4").verdict == "pass"
        assert by_id(reports, "KILLING").verdict == "pass"

    def test_deta_factor_one_breaks_sphere(self, sph):
        reports = axiom_suite(Workspace(sph.parsed,
                                        deta_factor=Fraction(1)))
        assert by_id(reports, "I2.1").verdict == "fail"
