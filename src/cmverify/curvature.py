"""Curvature of a framed metric.

Sign convention: R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y].
Tables store R[i][j][k][l], the E_l-component of R(E_i,E_j)E_k, skew in
(i, j) and built by `frames.skew`, as is each plane of nabla R; each row
of either table is one `lincomb`, and nabla R reads the mirrored R rows
where it would negate a product.  The Ricci tensor is the trace
S = tr R, S[j][k] = sum_a R[a][j][k][a], and nabla commutes with that
trace, so nabla S is the same trace of nabla R.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .frames import (FrameSpec, covariant_derivative_vector, matmul,
                     nonzero_entries, skew, wedge, zero_row)
from .symcore import Expr, esum, lincomb


def riemann(spec: FrameSpec, gamma, brackets):
    """The R table, plane i < j by `skew`: row R(E_i,E_j)E_k is one
    `lincomb` of nabla_{E_i}(nabla_{E_j} E_k), -nabla_{E_j}(nabla_{E_i} E_k)
    and -nabla_{[E_i,E_j]} E_k, its bracket coefficients negated once."""
    dim = spec.dim

    def plane(i, j):
        minus_c = [(m, -c) for m, c in nonzero_entries(brackets[i][j])]
        return tuple([lincomb(dim, [
            (1, covariant_derivative_vector(spec, gamma, i, gamma[j][k])),
            (-1, covariant_derivative_vector(spec, gamma, j, gamma[i][k]))]
            + [(c, gamma[m][k]) for m, c in minus_c]) for k in range(dim)])

    return skew(dim, plane, (zero_row(dim),) * dim)


def riemann_apply(r_table, x, y, z):
    """R(X,Y)Z for arbitrary vectors, multilinear over components: the
    rows R(E_i,E_j)Z weighted by x^i y^j, only where x^i y^j is nonzero.
    `r_table` is any table indexed like R, such as G."""
    n = len(z)
    return lincomb(n, [(xi * yj, lincomb(n, zip(z, r_table[i][j])))
                       for i, xi in nonzero_entries(x)
                       for j, yj in nonzero_entries(y)])


def riemann_on(table, z):
    """R(E_i,E_j)Z for every frame pair, indexed [i][j][l]; `table` is the
    R table or one direction's plane nr_table[w] of the nabla R table.
    Both are skew in (i, j), so the rows i < j are contracted and `skew`
    mirrors them."""
    n, live = len(z), nonzero_entries(z)
    return skew(n, lambda i, j: lincomb(n, [(c, table[i][j][k])
                                            for k, c in live]), zero_row(n))


def nabla_riemann(nr_table, w: int, x, y, z):
    """(nabla_{E_w} R)(X,Y)Z for arbitrary vectors.  nabla R is tensorial in
    X, Y and Z, so this contracts the table's plane for w."""
    return riemann_apply(nr_table[w], x, y, z)


def nabla_riemann_table(spec: FrameSpec, gamma, r_table):
    """(nabla_{E_w} R)(E_i,E_j)E_k components, indexed [w][i][j][k][l],
    each plane i < j by `skew`: row (nabla_{E_w} R)(E_i,E_j)E_k is one
    `lincomb` of nabla_{E_w} of the R row, differentiated only where that
    row is not the shared zero row, and minus R with nabla_{E_w} applied
    to E_i, E_j and E_k in turn.  R is skew in its first pair, so those
    terms read the mirrored rows of R(E_j, .) and R(., E_i) with the
    nonzero connection coefficients as they stand, and form no sign."""
    dim = spec.dim
    zero = zero_row(dim)
    conn = [[nonzero_entries(row) for row in gw] for gw in gamma]

    def plane(w, i, j):
        gw, rows, mirror = conn[w], r_table[i][j], r_table[j][i]
        return tuple([lincomb(dim, [
            (1, zero if rows[k] is zero
             else covariant_derivative_vector(spec, gamma, w, rows[k]))]
            + [(c, r_table[j][m][k]) for m, c in gw[i]]
            + [(c, r_table[m][i][k]) for m, c in gw[j]]
            + [(c, mirror[m]) for m, c in gw[k]]) for k in range(dim)])

    return tuple(skew(dim, partial(plane, w), (zero,) * dim)
                 for w in range(dim))


def _trace(table):
    """T[j][k] = sum_a table[a][j][k][a], the trace of X -> T(X,E_j)E_k,
    for the R table or one direction's plane of the nabla R table."""
    dim = len(table)
    return tuple(tuple(esum([table[a][j][k][a] for a in range(dim)])
                       for k in range(dim)) for j in range(dim))


@dataclass
class RicciData:
    S: tuple     # (0,2) table S(E_i, E_j)
    r: Expr
    Q: tuple     # (1,1) operator, g(QX, Y) = S(X, Y)


def ricci(r_table, ginv) -> RicciData:
    """Ricci tensor S(Y,Z) = tr(X -> R(X,Y)Z), the raised operator
    Q = g^-1 S, and the scalar curvature r = tr Q."""
    s = _trace(r_table)
    q = matmul(ginv, s)
    return RicciData(s, esum([row[i] for i, row in enumerate(q)]), q)


def g_tensor_table(spec: FrameSpec):
    """G(E_i,E_j)E_k components of G(X,Y)Z = g(Y,Z)X - g(X,Z)Y, the
    constant-curvature model, indexed like the R table: for each k, the
    wedge of the 1-form g(., E_k)."""
    planes = [wedge(col) for col in zip(*spec.metric)]
    return tuple(tuple(tuple(p[i][j] for p in planes) for j in range(spec.dim))
                 for i in range(spec.dim))


def covariant_ricci_table(nr_table):
    """(nabla_{E_w} S) for each frame direction w, indexed [w][i][j]:
    nabla commutes with the trace, so each is the trace of the plane of
    the nabla R table for w."""
    return tuple(_trace(plane) for plane in nr_table)
