"""Seeded random frame specifications plus the invariant residuals the
property suite measures on them.

Frames are unit lower-triangular perturbations of the coordinate basis so
the frame matrix is always invertible with polynomial inverse; the frame
metric is the identity.  Every connection and curvature quantity then stays
inside the polynomial ring and the exact checks carry no denominators.
With `polynomial_metric` the metric has g_11 = 1 + x^2 instead, so g^-1,
the connection and the curvature carry denominators and the kernel runs
gcds and exact divisions on them.
"""

import random
from fractions import Fraction

from cmverify.frames import (CoordSystem, FrameSpec, compute_brackets,
                             frame_apply, koszul_connection, validate_frame)
from cmverify.curvature import nabla_riemann_table, riemann
from cmverify.symcore import ONE, ZERO, Expr, esum, eval_rational

COORDS = ("x", "y", "z")
DIM = 3

def basis(i, dim=DIM):
    """The frame vector E_{i+1} as a component tuple."""
    return tuple(ONE if j == i else ZERO for j in range(dim))


def vanishes(table) -> bool:
    """Every entry of a frame table, nested to any depth, is zero."""
    if isinstance(table, tuple):
        return all(vanishes(t) for t in table)
    return table.is_zero


def _monomial(rng, coords):
    term = Expr.const(rng.choice((1, -1, 2, -2, 3)))
    for _ in range(rng.choice((0, 1, 1, 2))):
        term = term * Expr.sym(rng.choice(coords))
    return term


def random_spec(seed, dim=DIM, density=0.7, polynomial_metric=False):
    """A unit lower-triangular frame in `dim` coordinates whose entries
    below the diagonal are random monomials, each present with
    probability `density`; the defaults give the frames of the property
    suite.  The metric is the identity, or with `polynomial_metric` has
    g_11 = 1 + x^2, x the first coordinate."""
    coords = (COORDS + ("u", "v", "w", "t"))[:dim]
    rng = random.Random(seed)
    a = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        a[i][i] = ONE
    for i in range(dim):
        for j in range(i):
            if rng.random() < density:
                a[i][j] = _monomial(rng, coords)
    metric = [[ONE if i == j else ZERO for j in range(dim)]
              for i in range(dim)]
    if polynomial_metric:
        metric[0][0] = ONE + Expr.sym(coords[0]) * Expr.sym(coords[0])
    return FrameSpec(name=f"case{seed}", coords=CoordSystem(coords, ()),
                     params=(), act=tuple(map(tuple, a)),
                     metric=tuple(map(tuple, metric)))


def torsion_residuals(spec, conn, brackets):
    """nabla_{E_i} E_j - nabla_{E_j} E_i - [E_i, E_j], per component."""
    dim = spec.dim
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(dim):
                out.append(conn[i][j][k] - conn[j][i][k] - brackets[i][j][k])
    return out


def compatibility_residuals(spec, conn):
    """E_k g_ij - g(nabla_{E_k} E_i, E_j) - g(E_i, nabla_{E_k} E_j)."""
    g = spec.metric
    dim = spec.dim
    out = []
    for k in range(dim):
        for i in range(dim):
            for j in range(i, dim):
                out.append(frame_apply(spec, k, g[i][j])
                           - esum(conn[k][i][m] * g[m][j]
                                  for m in range(dim))
                           - esum(conn[k][j][m] * g[i][m]
                                  for m in range(dim)))
    return out


def lowered(spec, r_table, i, j, k, l):
    return esum(r_table[i][j][k][m] * spec.metric[m][l]
                for m in range(spec.dim))


def antisymmetry_residuals(spec, r_table):
    """Skew symmetry in the last lowered pair and pair interchange."""
    dim = spec.dim
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(dim):
                for l in range(k, dim):
                    out.append(lowered(spec, r_table, i, j, k, l)
                               + lowered(spec, r_table, i, j, l, k))
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(dim):
                for l in range(k + 1, dim):
                    out.append(lowered(spec, r_table, i, j, k, l)
                               - lowered(spec, r_table, k, l, i, j))
    return out


def first_bianchi_residuals(r_table):
    dim = len(r_table)
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                for l in range(dim):
                    out.append(esum((r_table[i][j][k][l],
                                     r_table[j][k][i][l],
                                     r_table[k][i][j][l])))
    return out


def second_bianchi_residuals(nr_table):
    dim = len(nr_table)
    out = []
    for w in range(dim):
        for i in range(w + 1, dim):
            for j in range(i + 1, dim):
                for k in range(dim):
                    for l in range(dim):
                        out.append(esum((nr_table[w][i][j][k][l],
                                         nr_table[i][j][w][k][l],
                                         nr_table[j][w][i][k][l])))
    return out


def contracted_bianchi_residuals(spec, ginv, nabla_s, r):
    """sum_{a,b} g^{ab} (nabla_{E_a} S)(E_b, E_k) - E_k(r) / 2 for each
    k: the divergence of S is half the differential of r."""
    dim = spec.dim
    half = Expr.const(Fraction(1, 2))
    return [esum([ginv[a][b] * nabla_s[a][b][k]
                  for a in range(dim) for b in range(dim)])
            - half * frame_apply(spec, k, r)
            for k in range(dim)]


def sample_points(seed, count=2):
    rng = random.Random(seed * 7919 + 13)
    return [{name: Fraction(rng.randrange(-300, 301), 100) for name in COORDS}
            for _ in range(count)]


def sampled_max(exprs, points):
    """Largest absolute value of the expressions at the points, each
    evaluated exactly and then rounded to a float."""
    worst = 0.0
    for e in exprs:
        for p in points:
            worst = max(worst, abs(float(eval_rational(e, p))))
    return worst


def build_case(seed):
    spec = random_spec(seed)
    rep = validate_frame(spec)
    brackets = compute_brackets(spec, rep.a_inv)
    conn = koszul_connection(spec, brackets, rep.ginv)
    r_table = riemann(spec, conn, brackets)
    nr_table = nabla_riemann_table(spec, conn, r_table)
    return spec, brackets, conn, r_table, nr_table
