"""Connection and curvature tables are frozen against hand-derived values
for the bundled manifolds before any solver consumes them."""

from pathlib import Path

import pytest

import _geometry_cases as gc
from cmverify.curvature import (covariant_ricci_table, g_tensor_table,
                                riemann_apply)
from cmverify.specfile import load_spec, resolve_spec_path
from cmverify.symcore import Expr, render
from cmverify.workspace import Workspace

ROOT = Path(__file__).resolve().parent.parent
CONF3 = ROOT / "bench" / "specs" / "conf3.cmspec"
# Every spec whose nabla R builds within a few seconds: the bundled
# 3-dim specs and all under tests/specs and bench/specs except conf3.
BIANCHI_SPECS = [resolve_spec_path(name)
                 for name in ("sphere3", "flat3", "example3d")] + sorted(
    p for d in ("tests", "bench") for p in (ROOT / d / "specs").glob(
        "*.cmspec") if p != CONF3)


def _nonzero_gamma(conn, dim=3):
    out = {}
    for i in range(dim):
        for j in range(dim):
            comps = [render(c) for c in conn[i][j]]
            if any(c != "0" for c in comps):
                out[(i, j)] = comps
    return out


def test_connection_table_frozen(ex3):
    assert _nonzero_gamma(ex3.conn) == {
        (1, 0): ["0", "-1/y", "0"],
        (1, 1): ["1/y", "0", "0"],
    }


def test_connection_flat_baseline(flat):
    assert _nonzero_gamma(flat.conn) == {}


def test_riemann_table_frozen(ex3):
    rt = ex3.r_table
    assert [render(c) for c in rt[0][1][0]] == ["0", "2/y^2", "0"]
    assert [render(c) for c in rt[0][1][1]] == ["-2/y^2", "0", "0"]
    for (i, j, k) in [(0, 1, 2), (0, 2, 0), (0, 2, 1), (0, 2, 2),
                      (1, 2, 0), (1, 2, 1), (1, 2, 2)]:
        assert all(c.is_zero for c in rt[i][j][k])


def test_riemann_flat_baseline(flat):
    assert all(c.is_zero for p1 in flat.r_table for p2 in p1 for row in p2
               for c in row)


def test_riemann_constant_curvature_sphere(sph):
    # R(X,Y)Z = g(Y,Z)X - g(X,Z)Y at curvature one
    vecs = [gc.basis(i) for i in range(3)]
    g_table = g_tensor_table(sph.spec)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                got = riemann_apply(sph.r_table, vecs[i], vecs[j], vecs[k])
                model = riemann_apply(g_table, vecs[i], vecs[j], vecs[k])
                assert gc.vanishes(tuple(a - b for a, b in zip(got, model)))


def test_riemann_apply_is_multilinear(ex3):
    y = Expr.sym("y")
    e1, e2 = gc.basis(0), gc.basis(1)
    scaled = riemann_apply(ex3.r_table, tuple(y * c for c in e1), e2, e1)
    plain = riemann_apply(ex3.r_table, e1, e2, e1)
    assert gc.vanishes(tuple(a - y * b for a, b in zip(scaled, plain)))


def test_nabla_riemann_frozen(ex3):
    nr = ex3.nr_table
    nonzero = {}
    for w in range(3):
        for i in range(3):
            for j in range(i + 1, 3):
                for k in range(3):
                    comps = [render(c) for c in nr[w][i][j][k]]
                    if any(c != "0" for c in comps):
                        nonzero[(w, i, j, k)] = comps
    assert nonzero == {
        (0, 0, 1, 0): ["0", "-4/y^3", "0"],
        (0, 0, 1, 1): ["4/y^3", "0", "0"],
    }


def test_nabla_riemann_vanishes_on_symmetric_space(sph):
    assert all(c.is_zero
               for p1 in sph.nr_table for p2 in p1 for p3 in p2
               for row in p3 for c in row)


def test_ricci_data_frozen(ex3):
    ric = ex3.ric
    assert [[render(c) for c in row] for row in ric.S] == [
        ["-2/y^2", "0", "0"], ["0", "-2/y^2", "0"], ["0", "0", "0"]]
    assert render(ric.r) == "-4/y^2"
    assert [render(row[0]) for row in ric.Q] == ["-2/y^2", "0", "0"]


def test_ricci_einstein_sphere(sph):
    ric = sph.ric
    for i in range(3):
        for j in range(3):
            want = Expr.const(2) * sph.spec.metric[i][j]
            assert (ric.S[i][j] - want).is_zero
    assert render(ric.r) == "6"
    # Q is g-self-adjoint here because S is symmetric and g the identity
    assert [render(row[0]) for row in ric.Q] == ["2", "0", "0"]


def test_covariant_ricci_frozen(ex3):
    crt = covariant_ricci_table(ex3.nr_table)
    nonzero = {(w, i, j): render(crt[w][i][j])
               for w in range(3) for i in range(3) for j in range(3)
               if not crt[w][i][j].is_zero}
    assert nonzero == {(0, 0, 0): "4/y^3", (0, 1, 1): "4/y^3"}


def test_g_tensor_model(ex3):
    # G(E1,E2)E1 = g(E2,E1)E1 - g(E1,E1)E2 = -E2
    e1, e2 = gc.basis(0), gc.basis(1)
    got = riemann_apply(g_tensor_table(ex3.spec), e1, e2, e1)
    assert [render(c) for c in got] == ["0", "-1", "0"]


def test_conf3_riemann_identities():
    # conf3 has a polynomial frame, a non-orthonormal polynomial metric and
    # a parameter.  Its R table is built skew in the first pair; skewness
    # of the lowered R in the last pair, the first Bianchi identity and
    # pair symmetry hold only if the connection and the kernel are exact.
    ws = Workspace(load_spec(CONF3))
    rt = ws.r_table
    lowered = {(i, j, k, l): gc.lowered(ws.spec, rt, i, j, k, l)
               for i in range(3) for j in range(3)
               for k in range(3) for l in range(3)}
    assert any(not v.is_zero for v in lowered.values())
    for (i, j, k, l), v in lowered.items():
        assert (v + lowered[i, j, l, k]).is_zero, ("last pair", i, j, k, l)
        assert (v - lowered[k, l, i, j]).is_zero, ("pair symmetry", i, j, k, l)
    assert all(e.is_zero for e in gc.first_bianchi_residuals(rt))


@pytest.mark.parametrize("path", BIANCHI_SPECS,
                         ids=[p.stem for p in BIANCHI_SPECS])
def test_bianchi_identities_hold_exactly(path):
    # The first and second Bianchi identities, and their contraction
    # div S = dr / 2, which ties S, nabla S and r to one another.
    ws = Workspace(load_spec(path))
    residuals = (gc.first_bianchi_residuals(ws.r_table)
                 + gc.second_bianchi_residuals(ws.nr_table)
                 + gc.contracted_bianchi_residuals(ws.spec, ws.ginv,
                                                   ws.nabla_s, ws.ric.r))
    assert residuals and all(e.is_zero for e in residuals)
