import json
from pathlib import Path

import pytest

import _geometry_cases as gc
from _geometry_cases import basis
from cmverify import frames, linalg
from cmverify.frames import (FrameDependent, compute_brackets,
                             covariant_derivative_vector, dot, frame_apply,
                             frame_pairing, koszul_connection, matvec,
                             validate_frame)
from cmverify.cli import run
from cmverify.specfile import bundled_names, load_spec, resolve_spec_path
from cmverify.symcore import Expr, parse_expr, render
from cmverify.workspace import Workspace

ROOT = Path(__file__).resolve().parent.parent


def test_bracket_mode_structure_constants(ex3):
    b = compute_brackets(ex3.spec, None)
    assert [render(c) for c in b[0][1]] == ["0", "1/y", "0"]
    assert [render(c) for c in b[1][0]] == ["0", "-1/y", "0"]
    assert all(c.is_zero for c in b[0][2]) and all(c.is_zero for c in b[1][2])


def test_vector_mode_brackets_vanish_for_coordinate_basis(flat):
    b = compute_brackets(flat.spec, validate_frame(flat.spec).a_inv)
    assert all(c.is_zero for plane in b for row in plane for c in row)


def test_frame_apply_uses_declared_actions(ex3):
    y = Expr.sym("y")
    assert frame_apply(ex3.spec, 0, y) == Expr.const(1)
    assert frame_apply(ex3.spec, 1, y).is_zero
    z = Expr.sym("z")
    assert render(frame_apply(ex3.spec, 1, z)) == "2*x*y"


def test_koszul_bi_invariant_metric(sph):
    # for the +2 structure constants the connection is half the bracket
    g = sph.conn
    assert [render(c) for c in g[0][1]] == ["0", "0", "1"]
    assert [render(c) for c in g[1][0]] == ["0", "0", "-1"]
    assert all(c.is_zero for c in g[0][0])


def test_koszul_metric_compatibility(ex3):
    spec, conn = ex3.spec, ex3.conn
    g = spec.metric
    for k in range(3):
        # column i of nabla_k is nabla_{E_k} E_i
        nabla_k = tuple(zip(*conn[k]))
        left = frame_pairing(nabla_k, g, None)
        right = frame_pairing(None, g, nabla_k)
        for i in range(3):
            for j in range(3):
                lhs = frame_apply(spec, k, g[i][j])
                rhs = left[i][j] + right[i][j]
                assert (lhs - rhs).is_zero


def test_koszul_torsion_free(sph):
    conn, b = sph.conn, sph.brackets
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert (conn[i][j][k] - conn[j][i][k]
                        - b[i][j][k]).is_zero


# nabla xi, nabla eta, d eta and Lie_xi g are read off one another through
# nabla g = 0 and torsion-freeness, so both are checked exactly on frames
# with polynomial metrics (conf3: its connection only) and at dimension 5.
CONNECTION_SPECS = {
    **{name: ROOT / "bench" / "specs" / f"{name}.cmspec"
       for name in ("polymetric3", "polyframe3", "polyboth3", "heis5",
                    "conf3")},
    "asym3": ROOT / "tests" / "specs" / "asym3.cmspec",
}


@pytest.mark.parametrize("name", CONNECTION_SPECS)
def test_connection_is_torsion_free_and_metric_on_specs(name):
    ws = Workspace(load_spec(CONNECTION_SPECS[name]))
    assert gc.vanishes(tuple(gc.torsion_residuals(ws.spec, ws.conn,
                                                  ws.brackets)))
    assert gc.vanishes(tuple(gc.compatibility_residuals(ws.spec, ws.conn)))


def test_connection_is_torsion_free_and_metric_at_dim5():
    for seed in range(6):
        spec = gc.random_spec(seed, 5, 0.3)
        rep = validate_frame(spec)
        brackets = compute_brackets(spec, rep.a_inv)
        conn = koszul_connection(spec, brackets, rep.ginv)
        assert not gc.vanishes(brackets), seed
        assert gc.vanishes(tuple(gc.torsion_residuals(spec, conn,
                                                      brackets))), seed
        assert gc.vanishes(tuple(gc.compatibility_residuals(spec, conn))), \
            seed


def test_covariant_derivative_leibniz(ex3):
    # nabla_{E2}(y E1) = E2(y) E1 + y nabla_{E2}E1 = -E2
    v = tuple(Expr.sym("y") * c for c in basis(0))
    got = covariant_derivative_vector(ex3.spec, ex3.conn, 1, v)
    assert [render(c) for c in got] == ["0", "-1", "0"]


def test_lower_index_identity_metric(ex3):
    omega = matvec(ex3.spec.metric, basis(2))
    assert [render(c) for c in omega] == ["0", "0", "1"]
    assert dot(omega, basis(2)) == Expr.const(1)


def test_metric_pairing_symmetric_bilinear():
    ps = load_spec(resolve_spec_path("example3d"))
    syms = ps.spec.symbols()
    x = tuple(parse_expr(s, syms) for s in ("1", "y", "0"))
    w = tuple(parse_expr(s, syms) for s in ("x", "0", "2"))
    g = ps.spec.metric
    assert dot(x, matvec(g, w)) == dot(w, matvec(g, x))
    assert render(dot(x, matvec(g, w))) == "x"


def test_validate_frame_clean_specs(ex3, sph, flat):
    for geo in (ex3, sph, flat):
        rep = validate_frame(geo.spec)
        assert rep.ok
        assert rep.warnings == []


def test_validate_frame_rejects_singular_coordinate_frame():
    ps = load_spec(resolve_spec_path("example3d-vector"))
    with pytest.raises(FrameDependent):
        validate_frame(ps.spec)


def _every_spec() -> dict:
    """Every spec the project ships: bundled ones by name, the bench and
    test specs by path."""
    specs = {name: name for name in bundled_names()}
    for folder in ("bench/specs", "tests/specs"):
        for path in sorted((ROOT / folder).glob("*.cmspec")):
            specs[f"{folder}/{path.name}"] = str(path)
    return specs


def test_validation_stderr_is_pinned_for_every_spec(capsys):
    # Exit code and stderr of `check axioms`: the warnings print det g
    # and the frame determinant, and a singular frame is an error, exit 1.
    golden = json.loads((ROOT / "tests" / "goldens"
                         / "validation_stderr.json").read_text())
    got = {}
    for key, spec in _every_spec().items():
        rc = run(["check", "axioms", spec])
        got[key] = [rc, capsys.readouterr().err]
    assert got == golden


@pytest.mark.parametrize("name,calls", [("example3d", 1), ("flat3", 2)])
def test_validation_is_the_one_elimination(capsys, monkeypatch, name, calls):
    # validation inverts g, and in vector mode the frame, once each; the
    # brackets and the connection read those inverses
    counts = []
    original = linalg.mat_inv

    def counted(m):
        counts.append(len(m))
        return original(m)

    for mod in (linalg, frames):
        monkeypatch.setattr(mod, "mat_inv", counted)
    validate_frame(load_spec(resolve_spec_path(name)).spec)
    assert len(counts) == calls
    counts.clear()
    run(["all", name])
    capsys.readouterr()
    assert counts == [3] * calls


def test_validate_frame_flags_bracket_antisymmetry_violation():
    from cmverify.specfile import parse_spec_text
    text = ("coords x y z\nframe-mode bracket\nmetric identity\n"
            "bracket [E1,E2] = 1 E3\n")
    ps = parse_spec_text(text, "t")
    # break antisymmetry by hand
    c = [[list(row) for row in plane] for plane in ps.spec.brackets]
    c[1][0][2] = Expr.const(1)
    from cmverify.frames import FrameSpec
    spec = FrameSpec(ps.spec.name, ps.spec.coords, ps.spec.params,
                     ps.spec.act, ps.spec.metric,
                     tuple(tuple(tuple(r) for r in p) for p in c))
    rep = validate_frame(spec)
    assert not rep.ok
    assert any(i.name == "bracket-antisymmetry" and i.level == "error"
               for i in rep.issues)


def test_validate_frame_warns_on_jacobi_failure():
    from cmverify.specfile import parse_spec_text
    # E3 differentiates the coefficient of [E1,E2] with nothing to cancel it
    text = ("coords x y z\nframe-mode bracket\nmetric identity\n"
            "bracket [E1,E2] = x E3\nact E3 : x -> 1\n")
    rep = validate_frame(parse_spec_text(text, "t").spec)
    assert any(i.name == "jacobi" for i in rep.warnings)
    # [E1,E2] = x E3 declares the coordinate bracket x d/dx, but the
    # declared actions give E1(x) - E2(x) = 0: the residual is -x
    assert [(i.name, i.detail) for i in rep.warnings
            if i.name == "action-compatibility"] == [
        ("action-compatibility",
         "declared actions clash with brackets, e.g. ((0, 1), 'x', '-x')")]


def test_validation_names_no_empty_degeneracy_locus():
    # kt3's frame determinant is 1/x3^3 and the metric below has
    # det g = 1/x^2: a nonzero constant numerator vanishes nowhere, so
    # neither determinant is a warning; nor is an even numerator of one
    # sign with a constant term, and any other non-constant one still is
    from cmverify.specfile import parse_spec_text
    kt3 = validate_frame(load_spec(ROOT / "tests" / "specs"
                                   / "kt3.cmspec").spec)
    levels = {i.name: (i.level, i.detail) for i in kt3.issues}
    assert levels["frame-independent"] == ("ok", "")
    text = ("coords x y z\nframe-mode vector\nvector E1 = 1 dx\n"
            "vector E2 = 1 dy\nvector E3 = (1/y) dz\nmetric g11 = 1/x^2\n"
            "metric g22 = 1\nmetric g33 = 1\n")
    rep = validate_frame(parse_spec_text(text, "t").spec)
    levels = {i.name: (i.level, i.detail) for i in rep.issues}
    assert levels["metric-nondegenerate"] == ("ok", "")
    assert levels["frame-independent"] == ("ok", "")
    rep = validate_frame(parse_spec_text(
        text.replace("(1/y)", "y").replace("1/x^2", "x^2"), "t").spec)
    assert [(i.name, i.detail) for i in rep.warnings] == [
        ("metric-nondegenerate", "metric degenerates where x^2 = 0"),
        ("frame-independent", "frame degenerates where y = 0")]
    # x^2 + y^2 + 1 has even monomials of one sign and a constant term,
    # so it is >= 1 at every real point
    rep = validate_frame(parse_spec_text(
        text.replace("1/x^2", "x^2 + y^2 + 1"), "t").spec)
    assert rep.warnings == []


def test_frame_pairing_pairs_operator_columns():
    # asym3's phi is not g-skew and its h is not g-symmetric, so a
    # transposed operator would change the table
    ps = load_spec(Path(__file__).parent / "specs" / "asym3.cmspec")
    g, phi, h = ps.spec.metric, ps.decl.phi, ps.decl.h
    eye = tuple(basis(i) for i in range(3))
    for a, b in ((h, phi), (phi, h), (None, h), (h, None), (None, None)):
        got = frame_pairing(a, g, b)
        for i in range(3):
            for j in range(3):
                x = tuple(zip(*(a or eye)))[i]
                y = tuple(zip(*(b or eye)))[j]
                assert got[i][j] == dot(x, matvec(g, y))
