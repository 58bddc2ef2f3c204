"""Moving frames over a coordinate chart.

Every frame tensor is a plain nested tuple of `Expr`, indexed by frame
position (E_1 is index 0); there is no wrapper class:

  vector field    v[i] = v^i, so v = sum_i v[i] E_i
  1-form          w[i] = w(E_i)
  (1,1) operator  m[i][j] = (T E_j)^i, so column j is T E_j
  (0,2) tensor    m[i][j] = T(E_i, E_j), as for the metric and S
  connection      gamma[i][j][k]: nabla_{E_i} E_j = sum_k gamma[i][j][k] E_k
  brackets        c[i][j][k]: [E_i, E_j] = sum_k c[i][j][k] E_k
  frame           act[i][j] = E_i(x_j), so E_i = sum_j act[i][j] d/dx_j

Curvature tables extend the same rule (see `curvature`).  `dot` pairs
two component sequences, so w(v) is `dot(w, v)`; `matvec` applies a
(1,1) operator to a vector (T v) or a (0,2) table to its second slot
(g(E_i, v), which lowers an index); `matmul` composes two operators.
A table skew in its first two indices (the brackets, `wedge`'s
a(Y)BX - a(X)BY of the nullity form, R, nabla R and their contractions
R(E_i,E_j)Z) is built by `skew` from its entries i < j.  A row that is a
sum of scaled rows is built by `symcore.lincomb`, which forms only
products of two nonzero factors.
Checks read frame components by index: g(E_i, E_j) is metric[i][j], and
a value such as g(h E_i, phi E_j) is entry [i][j] of
`frame_pairing(h, metric, phi)`.

`koszul_connection` is the Levi-Civita connection: torsion-free,
nabla_X Y - nabla_Y X = [X, Y], and metric, nabla g = 0.  The contact
layer reads nabla eta, d eta and Lie_xi g off nabla xi through these two
identities, and Lie_xi phi off nabla xi and nabla phi, so only
validation, Koszul and R read the brackets.  Column j of nabla_{E_i} t,
for a (1,1) operator t, is nabla_{E_i}(t E_j) - t(nabla_{E_i} E_j).  No
(0,2) table is differentiated here: nabla S is a trace of nabla R (see
`curvature`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .linalg import mat_inv
from .symcore import ZERO, Expr, esum, lincomb, render, zero_row


class FrameDependent(ValueError):
    """The declared coordinate frame is linearly dependent."""


class ShapeError(ValueError):
    pass


def dot(u, v) -> Expr:
    """sum_a u_a v_a over two component sequences; a product with a zero
    factor is never formed."""
    products = []
    for a, b in zip(u, v):
        if a.num.terms and b.num.terms:
            products.append(a * b)
    return esum(products)


def nonzero_entries(v) -> list:
    """(index, entry) for each nonzero entry of v, in index order."""
    return [(a, c) for a, c in enumerate(v) if c.num.terms]


def matvec(m, v):
    """dot(row, v) for each row of the table m."""
    return tuple(dot(row, v) for row in m)


def matmul(p, q):
    """The composite operator p q."""
    cols = tuple(zip(*q))
    return tuple(tuple(dot(row, col) for col in cols) for row in p)


@dataclass(frozen=True)
class DomainConstraint:
    coord: str
    excluded: Fraction


@dataclass(frozen=True)
class CoordSystem:
    names: tuple
    constraints: tuple = ()


@dataclass(frozen=True)
class FrameSpec:
    """`act` is the frame table; `brackets` is the declared bracket table
    of a bracket-mode spec, None when the brackets are derived from act."""
    name: str
    coords: CoordSystem
    params: tuple
    act: tuple
    metric: tuple
    brackets: tuple | None = None

    @property
    def dim(self) -> int:
        return len(self.coords.names)

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2

    def symbols(self) -> set:
        return set(self.coords.names) | set(self.params)


@dataclass
class ValidationIssue:
    name: str
    level: str       # ok | warning | error
    detail: str = ""


@dataclass
class ValidationReport:
    """The issues found, plus the inverses validation computed: g^-1, and
    the inverse frame table when the brackets are derived (else None)."""
    issues: list = field(default_factory=list)
    ginv: tuple | None = None
    a_inv: tuple | None = None

    def add(self, name, level, detail=""):
        self.issues.append(ValidationIssue(name, level, detail))

    @property
    def ok(self) -> bool:
        return not any(i.level == "error" for i in self.issues)

    @property
    def warnings(self) -> list:
        return [i for i in self.issues if i.level == "warning"]


def frame_apply(spec: FrameSpec, i: int, f: Expr) -> Expr:
    """Directional derivative E_i(f); zero, without differentiating, when
    f is a constant."""
    if f.is_const:
        return ZERO
    return esum([c * f.derivative(name)
                 for c, name in zip(spec.act[i], spec.coords.names)
                 if not c.is_zero])


def skew(dim: int, entry, zero):
    """The table t[i][j] of a tensor skew in (i, j), from `entry(i, j)`
    for i < j only: t[i][i] is the shared `zero`, and t[j][i] negates
    t[i][j] by `lincomb`, row by row if entries are tuples of rows."""
    rows = zero[0].__class__ is not Expr
    table = [[zero] * dim for _ in range(dim)]
    for i in range(dim - 1):
        for j in range(i + 1, dim):
            e = table[i][j] = entry(i, j)
            table[j][i] = (tuple([lincomb(dim, [(-1, r)]) for r in e])
                           if rows else lincomb(dim, [(-1, e)]))
    return tuple(map(tuple, table))


def _coordinate_bracket(spec: FrameSpec, i: int, j: int) -> list:
    """The coordinate components E_i(x_m) - E_j(x_m) of [E_i, E_j]."""
    a = spec.act
    return [frame_apply(spec, i, a[j][m]) - frame_apply(spec, j, a[i][m])
            for m in range(spec.dim)]


def compute_brackets(spec: FrameSpec, a_inv):
    """Structure functions c[i][j][k] for the frame: the declared table,
    or else derived for i < j through `a_inv`, the inverse of the frame
    table, and mirrored by `skew`."""
    if spec.brackets is not None:
        return spec.brackets
    dim = spec.dim
    return skew(dim, lambda i, j: lincomb(
        dim, zip(_coordinate_bracket(spec, i, j), a_inv)), zero_row(dim))


def _vanishes_nowhere(p) -> bool:
    """A polynomial whose monomials all have even exponents and whose
    coefficients all have the sign of its nonzero constant term, as a
    nonzero constant or x^2 + y^2 + 1: each monomial is >= 0 on real
    points, so |p| >= |p(0)| > 0."""
    c0 = p.terms.get(())
    return bool(c0) and all(c * c0 > 0 and all(e % 2 == 0 for _, e in m)
                            for m, c in p.terms.items())


def validate_frame(spec: FrameSpec) -> ValidationReport:
    """A determinant degenerates where its numerator vanishes: nowhere
    when `_vanishes_nowhere` holds of it, as for 1/x^3 or
    1/(x^2 + y^2 + 1)."""
    report = ValidationReport()
    dim = spec.dim
    if dim % 2 == 0:
        report.add("odd-dimension", "error",
                   f"dimension {dim} is even; need 2n+1")
    else:
        report.add("odd-dimension", "ok")

    report.ginv, gdet = metric_inverse(spec)
    if gdet.is_zero:
        report.add("metric-nondegenerate", "error",
                   "metric determinant is identically zero")
    elif not _vanishes_nowhere(gdet.num):
        report.add("metric-nondegenerate", "warning",
                   f"metric degenerates where {render(gdet)} = 0")
    else:
        report.add("metric-nondegenerate", "ok")

    if spec.brackets is None:
        report.a_inv, det = mat_inv(spec.act)
        if det.is_zero:
            raise FrameDependent(
                "coordinate frame determinant is identically zero")
        if not _vanishes_nowhere(det.num):
            report.add("frame-independent", "warning",
                       f"frame degenerates where {render(det)} = 0")
        else:
            report.add("frame-independent", "ok")
        return report

    c, act = spec.brackets, spec.act
    anti_bad = [(i, j, k) for i in range(dim) for j in range(dim)
                for k in range(dim)
                if not (c[i][j][k] + c[j][i][k]).is_zero]
    if anti_bad:
        report.add("bracket-antisymmetry", "error",
                   f"c[i][j][k] + c[j][i][k] != 0 at {anti_bad[:3]}")
    else:
        report.add("bracket-antisymmetry", "ok")

    jac_bad = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                for l in range(dim):
                    res = esum(
                        frame_apply(spec, a, c[b][cc][l])
                        + esum(c[b][cc][m] * c[a][m][l] for m in range(dim))
                        for a, b, cc in ((i, j, k), (j, k, i), (k, i, j)))
                    if not res.is_zero:
                        jac_bad.append(((i, j, k), l, render(res)))
    if jac_bad:
        report.add("jacobi", "warning",
                   f"Jacobi residual nonzero, e.g. {jac_bad[0]}")
    else:
        report.add("jacobi", "ok")

    act_bad = []
    for i in range(dim):
        for j in range(i + 1, dim):
            declared = lincomb(dim, zip(c[i][j], act))
            for name, x, y in zip(spec.coords.names,
                                  _coordinate_bracket(spec, i, j), declared):
                if x != y:
                    act_bad.append(((i, j), name, render(x - y)))
    if act_bad:
        report.add("action-compatibility", "warning",
                   f"declared actions clash with brackets, e.g. {act_bad[0]}")
    else:
        report.add("action-compatibility", "ok")
    return report


def metric_inverse(spec: FrameSpec):
    """(g^-1, det g), as `mat_inv` gives them."""
    return mat_inv(spec.metric)


def outer(v, w):
    """The operator X -> w(X) v, for a vector v and a 1-form w."""
    return tuple(lincomb(len(w), [(x, w)]) for x in v)


def scaled_basis(n: int, i: int, x) -> tuple:
    """The n components of x E_i."""
    return tuple([x if l == i else ZERO for l in range(n)])


def wedge(a, b=None):
    """a(E_j)(B E_i) - a(E_i)(B E_j), indexed [i][j][l], for a 1-form a
    and a (1,1) operator b; None is the identity.  This is the skew form
    a(Y)BX - a(X)BY of the (k, mu)-nullity condition, built by `skew`;
    a(E_i) is negated once per i, not once per pair."""
    dim = len(a)
    cols = None if b is None else tuple(zip(*b))
    minus_a = [-x for x in a[:-1]]

    def entry(i, j):
        if b is None:
            return lincomb(dim, [(1, scaled_basis(dim, i, a[j])),
                                 (1, scaled_basis(dim, j, minus_a[i]))])
        return lincomb(dim, [(a[j], cols[i]), (minus_a[i], cols[j])])

    return skew(dim, entry, zero_row(dim))


def frame_pairing(a, t, b):
    """T(A E_i, B E_j), indexed [i][j], for a (0,2) table t such as the
    metric or S, and (1,1) operators a and b; None is the identity."""
    tb = t if b is None else matmul(t, b)
    return tb if a is None else matmul(tuple(zip(*a)), tb)


def koszul_connection(spec: FrameSpec, brackets, ginv):
    """Levi-Civita connection of the frame metric, gamma[i][j][k], by the
    Koszul formula over the lowered brackets b[i][j][k] = g([E_i,E_j],E_k):
      2 g(nabla_{E_i} E_j, E_k) = E_i(g_jk) + E_j(g_ik) - E_k(g_ij)
                                  + b[i][j][k] + b[k][i][j] + b[k][j][i],
    raised through g^-1; b is skew in (i, j).  Each E_i(g_jk) is formed
    once (g is symmetric), and each row b[i][j] once per pair i < j."""
    g = spec.metric
    dim = spec.dim
    half = Expr.const(Fraction(1, 2))
    dg = [[[None] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j in product(range(dim), repeat=2):
        for k in range(j, dim):
            dg[i][j][k] = dg[i][k][j] = frame_apply(spec, i, g[j][k])
    b = skew(dim, lambda i, j: matvec(g, brackets[i][j]), zero_row(dim))

    def half_sum(i, j, k):
        x = dg[k][i][j]
        v = esum([dg[i][j][k], dg[j][i][k], -x if x.num.terms else x,
                  b[i][j][k], b[k][i][j], b[k][j][i]])
        return half * v if v.num.terms else v

    return tuple(tuple(matvec(ginv, [half_sum(i, j, k) for k in range(dim)])
                       for j in range(dim)) for i in range(dim))


def covariant_derivative_vector(spec: FrameSpec, gamma, i: int, v):
    """nabla_{E_i} v for a vector v: E_i(v^k) plus the connection terms
    v^a gamma[i][a][k], summed over the nonzero factors only."""
    conn = lincomb(spec.dim, zip(v, gamma[i]))
    return tuple([frame_apply(spec, i, vk) + c if vk.num.terms else c
                  for vk, c in zip(v, conn)])


def covariant_derivative_tensor11(spec: FrameSpec, gamma, i: int, t):
    """nabla_{E_i} t for a (1,1) operator t: column j is
    nabla_{E_i}(t E_j) - t(nabla_{E_i} E_j), subtracted only where either
    side is nonzero."""
    cols = []
    for j, col in enumerate(zip(*t)):
        a = covariant_derivative_vector(spec, gamma, i, col)
        b = matvec(t, gamma[i][j])
        cols.append(tuple([x - y if x.num.terms or y.num.terms else ZERO
                           for x, y in zip(a, b)]))
    return tuple(zip(*cols))

