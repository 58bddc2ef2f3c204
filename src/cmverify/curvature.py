"""Curvature of a framed metric.

Sign convention: R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y].
Tables store R[i][j][k][l], the E_l-component of R(E_i,E_j)E_k.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .frames import (Connection, FrameSpec, Tensor02, Tensor11, VectorField,
                     covariant_derivative_tensor02,
                     covariant_derivative_vector, dot)
from .symcore import ZERO, Expr, esum


def _skew_planes(dim: int, plane):
    """table[i][j] of a tensor skew in (i, j), from `plane(i, j)` for
    i < j only: the diagonal is zero and j < i is the negation."""
    zero = tuple(tuple(ZERO for _ in range(dim)) for _ in range(dim))
    table = [[zero] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            p = plane(i, j)
            table[i][j] = p
            table[j][i] = tuple(tuple(-x for x in row) for row in p)
    return tuple(tuple(row) for row in table)


def riemann(spec: FrameSpec, conn: Connection, brackets):
    dim = spec.dim
    gamma = conn.gamma

    def plane(i, j):
        out = []
        for k in range(dim):
            first = covariant_derivative_vector(spec, conn, i,
                                                VectorField(gamma[j][k]))
            second = covariant_derivative_vector(spec, conn, j,
                                                 VectorField(gamma[i][k]))
            out.append(tuple(
                esum([first.components[l], -second.components[l]]
                     + [-(brackets[i][j][m] * gamma[m][k][l])
                        for m in range(dim) if not brackets[i][j][m].is_zero])
                for l in range(dim)))
        return tuple(out)

    return _skew_planes(dim, plane)


def riemann_apply(r_table, x: VectorField, y: VectorField,
                  z: VectorField) -> VectorField:
    """R(X,Y)Z for arbitrary fields, multilinear over components."""
    dim = len(r_table)
    comps = [[] for _ in range(dim)]
    for i in range(dim):
        xi = x.components[i]
        if xi.is_zero:
            continue
        for j in range(dim):
            yj = y.components[j]
            if yj.is_zero:
                continue
            for k in range(dim):
                zk = z.components[k]
                if zk.is_zero:
                    continue
                coef = xi * yj * zk
                for l in range(dim):
                    if not r_table[i][j][k][l].is_zero:
                        comps[l].append(coef * r_table[i][j][k][l])
    return VectorField(tuple(esum(c) for c in comps))


def riemann_on(table, z: VectorField):
    """R(E_i,E_j)Z for every frame pair, indexed [i][j][l]; `table` is the
    R table or one direction's plane nr_table[w] of the nabla R table."""
    return tuple(tuple(tuple(dot(z.components, col) for col in zip(*plane))
                       for plane in row) for row in table)


def nabla_riemann(nr_table, w: int, x: VectorField, y: VectorField,
                  z: VectorField) -> VectorField:
    """(nabla_{E_w} R)(X,Y)Z for arbitrary fields.  nabla R is tensorial in
    X, Y and Z, so this contracts the table's plane for w."""
    return riemann_apply(nr_table[w], x, y, z)


def nabla_riemann_table(spec: FrameSpec, conn: Connection, r_table):
    """(nabla_{E_w} R)(E_i,E_j)E_k components, indexed [w][i][j][k][l]."""
    dim = spec.dim
    gamma = conn.gamma

    def plane(w, i, j):
        out = []
        for k in range(dim):
            lead = covariant_derivative_vector(
                spec, conn, w, VectorField(r_table[i][j][k]))
            # nabla_w of R(E_i,E_j)E_k, minus R with nabla_w applied to
            # each argument in turn
            corr = ([(gamma[w][i][m], r_table[m][j][k]) for m in range(dim)]
                    + [(gamma[w][j][m], r_table[i][m][k]) for m in range(dim)]
                    + [(gamma[w][k][m], r_table[i][j][m]) for m in range(dim)])
            corr = [(c, r) for c, r in corr if not c.is_zero]
            out.append(tuple(
                esum([lead.components[l]]
                     + [-(c * r[l]) for c, r in corr if not r[l].is_zero])
                for l in range(dim)))
        return tuple(out)

    return tuple(_skew_planes(dim, partial(plane, w)) for w in range(dim))


@dataclass
class RicciData:
    S: Tensor02
    r: Expr
    Q: Tensor11


def ricci(spec: FrameSpec, r_table, ginv) -> RicciData:
    """Ricci tensor S(Y,Z) = g^{ab} g(R(E_a,Y)Z, E_b), its g-trace r, and
    the raised operator Q."""
    dim = spec.dim
    g = spec.metric
    s_rows = []
    for j in range(dim):
        row = []
        for k in range(dim):
            row.append(esum(
                ginv[a][b] * r_table[a][j][k][l] * g[l][b]
                for a in range(dim) for b in range(dim) for l in range(dim)
                if not r_table[a][j][k][l].is_zero))
        s_rows.append(tuple(row))
    s = Tensor02(tuple(s_rows))
    r_scal = esum(ginv[j][k] * s.m[j][k]
                  for j in range(dim) for k in range(dim))
    q = Tensor11(tuple(
        tuple(esum(ginv[i][k] * s.m[k][j] for k in range(dim))
              for j in range(dim))
        for i in range(dim)))
    return RicciData(s, r_scal, q)


def g_tensor(spec: FrameSpec, x: VectorField, y: VectorField,
             z: VectorField) -> VectorField:
    """G(X,Y)Z = g(Y,Z)X - g(X,Z)Y, the constant-curvature model tensor."""
    gyz = Tensor02(spec.metric).apply(y, z)
    gxz = Tensor02(spec.metric).apply(x, z)
    return x.scale(gyz) - y.scale(gxz)


def g_tensor_table(spec: FrameSpec):
    dim = spec.dim
    g = spec.metric
    return tuple(
        tuple(
            tuple(
                tuple((g[j][k] if l == i else ZERO)
                      - (g[i][k] if l == j else ZERO)
                      for l in range(dim))
                for k in range(dim))
            for j in range(dim))
        for i in range(dim))


def covariant_ricci_table(spec: FrameSpec, conn: Connection, s: Tensor02):
    """(nabla_{E_w} S) for each frame direction w."""
    return tuple(covariant_derivative_tensor02(spec, conn, w, s)
                 for w in range(spec.dim))
