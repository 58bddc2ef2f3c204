from fractions import Fraction
from pathlib import Path

import pytest

from _geometry_cases import basis, random_spec, vanishes
from cmverify.contact import (ContactDecl, InconsistentEta, axiom_suite,
                              build_structure, contact_volume, deta_tensor,
                              h_variants, lie_xi_g, phi2_rows)
from cmverify.frames import (ShapeError, covariant_derivative_tensor11, dot,
                             frame_apply, matvec, validate_frame)
from cmverify.specfile import (ParsedSpec, load_spec, parse_spec_text,
                               resolve_spec_path)
from cmverify.symcore import Expr, esum, render
from cmverify.workspace import FrameInvalid, Workspace

ROOT = Path(__file__).resolve().parent.parent

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


def test_missing_phi_rejected():
    ps = parse_spec_text("coords x y z\nframe-mode bracket\n"
                         "metric identity\ncontact xi = E3\n", "t")
    with pytest.raises(ShapeError, match="no phi declared"):
        build_structure(ps.spec, ps.decl)


def test_even_dimension_rejected():
    # frame validation, not the contact layer, rejects an even dimension
    ps = parse_spec_text("coords x y\nframe-mode bracket\nmetric identity\n"
                         "contact xi = E2\ncontact phi : E1 -> 0\n", "t")
    with pytest.raises(FrameInvalid, match="odd-dimension: dimension 2 is "
                                           "even; need 2n[+]1"):
        Workspace(ps).validation


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
    deta = deta_tensor(sph.nabla_eta)
    assert render(deta[0][1]) == "-1"
    assert render(deta[1][0]) == "1"
    doubled = deta_tensor(sph.nabla_eta, factor=Fraction(1))
    assert render(doubled[0][1]) == "-2"


def test_contact_volume(sph, flat):
    vol = contact_volume(sph.cs, deta_tensor(sph.nabla_eta))
    assert render(vol) == "-1"
    flat_vol = contact_volume(flat.cs, deta_tensor(flat.nabla_eta))
    assert flat_vol.is_zero


def test_xi_killing_on_sphere(sph):
    assert vanishes(lie_xi_g(sph.nabla_eta))


def test_xi_not_killing_under_declared_h_example(ex3):
    # example frame: Lie_xi g = 0 as well, which is what H-COMP flags
    assert vanishes(lie_xi_g(ex3.nabla_eta))


# --- references: the bracket and 1-form formulas that the Workspace
# tables replaced, h among them, which compute_h reads off nabla ----------

def apply_vector(spec, v, f):
    """v(f) for a vector v."""
    return esum(c * frame_apply(spec, i, f)
                for i, c in enumerate(v) if not c.is_zero)


def ref_lie_bracket(spec, v, w, brackets):
    """[v, w] = v(w) - w(v) + sum_{a,b} v^a w^b [E_a, E_b]."""
    dim = spec.dim
    comps = []
    for l in range(dim):
        terms = [apply_vector(spec, v, w[l]), -apply_vector(spec, w, v[l])]
        terms.extend(v[a] * w[b] * brackets[a][b][l]
                     for a in range(dim) for b in range(dim)
                     if not v[a].is_zero and not w[b].is_zero)
        comps.append(esum(terms))
    return tuple(comps)


def ref_tables(ws):
    """d eta, Lie_xi g, h and nabla eta by the bracket formulas, each
    indexed as its Workspace table: h's column j is
    (1/2)([xi, phi E_j] - phi [xi, E_j])."""
    spec, b, conn = ws.spec, ws.brackets, ws.conn
    dim, g = spec.dim, spec.metric
    xi, eta, phi = ws.cs.xi, ws.cs.eta, ws.cs.phi
    half = Expr.const(Fraction(1, 2))
    lie = [ref_lie_bracket(spec, xi, basis(j, dim), b) for j in range(dim)]

    def pair(u, v):
        return dot(u, matvec(g, v))

    deta = [[half * (frame_apply(spec, i, eta[j])
                     - frame_apply(spec, j, eta[i]) - dot(eta, b[i][j]))
             for j in range(dim)] for i in range(dim)]
    lie_g = [[apply_vector(spec, xi, g[i][j]) - pair(lie[i], basis(j, dim))
              - pair(basis(i, dim), lie[j]) for j in range(dim)]
             for i in range(dim)]
    h_cols = [[half * (a - c) for a, c in zip(
        ref_lie_bracket(spec, xi, col, b), matvec(phi, lie[j]))]
        for j, col in enumerate(zip(*phi))]
    nabla_eta = [[frame_apply(spec, i, eta[j]) - dot(conn[i][j], eta)
                  for j in range(dim)] for i in range(dim)]
    return {"deta": deta, "lie_g": lie_g, "h": _rows(zip(*h_cols)),
            "nabla_eta": nabla_eta}


def ref_tensor11(spec, gamma, i, t):
    """nabla_{E_i} t for a (1,1) operator t, entry by entry."""
    dim = spec.dim
    gi = gamma[i]
    gi_t, cols = tuple(zip(*gi)), tuple(zip(*t))
    return [[frame_apply(spec, i, t[k][j]) + dot(gi_t[k], cols[j])
             - dot(gi[j], t[k]) for j in range(dim)] for k in range(dim)]


def _rows(table):
    return [list(row) for row in table]


ORACLE_SPECS = {
    # example3d-vector is left out: its frame is dependent, so it has no
    # connection
    **{name: resolve_spec_path(name)
       for name in ("sphere3", "flat3", "example3d")},
    **{name: ROOT / "bench" / "specs" / f"{name}.cmspec"
       for name in ("conf3", "heis5", "heis7", "polyboth3", "polyframe3",
                    "polymetric3")},
    # kt3's h has a non-constant eigenvalue
    **{name: ROOT / "tests" / "specs" / f"{name}.cmspec"
       for name in ("asym3", "kt3")},
}


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_xi_tables_match_bracket_formulas(name):
    ws = Workspace(load_spec(ORACLE_SPECS[name]))
    ref = ref_tables(ws)
    assert _rows(ws.deta) == ref["deta"]
    assert _rows(lie_xi_g(ws.nabla_eta)) == ref["lie_g"]
    assert _rows(ws.h_computed) == ref["h"]
    assert _rows(ws.nabla_eta) == ref["nabla_eta"]
    for i in range(ws.spec.dim):
        assert _rows(ws.nabla_phi(i)) \
            == ref_tensor11(ws.spec, ws.conn, i, ws.cs.phi)
        for _, h in ws.variants:
            assert _rows(covariant_derivative_tensor11(ws.spec, ws.conn, i,
                                                       h)) \
                == ref_tensor11(ws.spec, ws.conn, i, h)


def _assert_h_matches_bracket_formula(parsed):
    """Returns h, which must equal the bracket formula's."""
    ws = Workspace(parsed)
    assert _rows(ws.h_computed) == ref_tables(ws)["h"]
    return ws.h_computed


@pytest.mark.parametrize("dim", [3, 5])
def test_h_matches_bracket_formula_on_random_frames(dim):
    # (1/2) Lie_xi phi = (1/2)(nabla_xi phi - A phi + phi A) needs only a
    # torsion-free connection, so any (1,1) phi and any xi will do: a
    # frame vector, as every spec file declares, and a vector with
    # non-constant components
    hs = []
    for seed in range(4):
        spec = random_spec(seed, dim, 0.5)
        for xi in (basis(seed % dim, dim), spec.act[-1]):
            hs.append(_assert_h_matches_bracket_formula(ParsedSpec(
                spec.name, spec, ContactDecl(xi=xi, phi=spec.act),
                None, None)))
    assert sum(not vanishes(h) for h in hs) >= len(hs) // 2


def test_h_matches_bracket_formula_when_brackets_fail_jacobi():
    # Koszul is torsion-free with respect to the declared brackets even
    # when they fail Jacobi and clash with the declared actions
    text = ("coords x y z\nframe-mode bracket\nmetric identity\n"
            "bracket [E1,E2] = x E3\nact E3 : x -> 1\n"
            "contact xi = E3\ncontact phi : E1 -> x E2\n"
            "contact phi : E2 -> -1 E1\ncontact phi : E3 -> 0\n")
    parsed = parse_spec_text(text, "t")
    assert {i.name for i in validate_frame(parsed.spec).warnings} \
        == {"jacobi", "action-compatibility"}
    assert not vanishes(_assert_h_matches_bracket_formula(parsed))


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


FLAT_CHART = ("coords x y z\nframe-mode vector\nvector E1 = 1 dx\n"
              "vector E2 = 1 dy\nvector E3 = 1 dz\ncontact xi = E3\n")


@pytest.mark.parametrize("extra,shown,notes", [
    # phi turns along the Killing field xi = d/dz, so h = (1/2) Lie_xi phi
    # is not zero
    ("metric identity\ncontact phi : E1 -> z E2\n", "0",
     "computed h != 0 and Lie_xi g = 0"),
    # phi = 0 gives h = 0, and g11 = 1 + z^2 grows along xi
    ("metric g11 = 1 + z^2\nmetric g22 = 1\nmetric g33 = 1\n"
     "contact phi : E1 -> 0\n", "2*z", "computed h = 0 and Lie_xi g != 0"),
], ids=["h-nonzero", "not-killing"])
def test_killing_fails_when_h_and_lie_xi_g_disagree(extra, shown, notes):
    ws = Workspace(parse_spec_text(FLAT_CHART + extra, "t"))
    killing = by_id(axiom_suite(ws), "KILLING")
    assert (killing.verdict, killing.residual_symbolic) == ("fail", shown)
    assert killing.notes == notes
