"""Exact linear algebra over the rational-function field."""
from __future__ import annotations

from dataclasses import dataclass

from .symcore import ONE, ZERO, Expr, render


def mat_inv(m):
    """(inverse, det) over the rational-function field from one
    Gauss-Jordan pass; det is the signed product of the pivots, the same
    canonical value a cofactor expansion gives.  (None, ZERO) when the
    determinant is identically zero."""
    n = len(m)
    rows = [list(r) + [ONE if i == j else ZERO for j in range(n)]
            for i, r in enumerate(m)]
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero), None)
        if pivot is None:
            return None, ZERO
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        p = rows[col][col]
        det = det * p
        rows[col] = [c / p for c in rows[col]]
        for r in range(n):
            if r == col or rows[r][col].is_zero:
                continue
            f = rows[r][col]
            rows[r] = [rc - f * cc for rc, cc in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows), det


@dataclass
class TwoUnknownSolution:
    """Exact solution of rows alpha*ca + beta*cb = rhs.

    `alpha`/`beta` always hold a representative (free unknowns pinned to
    zero); `worst` is the first nonzero row defect rhs - ca*alpha - cb*beta
    for that representative, in row order, and ZERO unless the status is
    inconsistent.
    """

    status: str                # unique | underdetermined | inconsistent
    alpha: Expr
    beta: Expr
    kernel: str                # human-readable description, "" when unique
    worst: Expr


def solve_two_unknowns(rows) -> TwoUnknownSolution:
    rows = list(rows)

    def finish(alpha, beta, kernel):
        # a row whose every term has a zero factor has no defect to form
        a_live, b_live = alpha.num.terms, beta.num.terms
        defects = (r - a * alpha - b * beta for a, b, r in rows
                   if r.num.terms or (a_live and a.num.terms)
                   or (b_live and b.num.terms))
        worst = next((r for r in defects if not r.is_zero), None)
        if worst is None:
            status = "unique" if kernel == "" else "underdetermined"
            return TwoUnknownSolution(status, alpha, beta, kernel, ZERO)
        return TwoUnknownSolution("inconsistent", alpha, beta, kernel, worst)

    pa = next((i for i, (ca, _, _) in enumerate(rows) if not ca.is_zero), None)
    if pa is None:
        pb = next((i for i, (_, cb, _) in enumerate(rows) if not cb.is_zero), None)
        if pb is None:
            return finish(ZERO, ZERO, "alpha free, beta free")
        _, cb, rhs = rows[pb]
        return finish(ZERO, rhs / cb, "alpha free")

    # Eliminate alpha from the cb column only, up to the first row that
    # keeps a nonzero cb: that row is the second pivot.
    ca_p, cb_p, rhs_p = rows[pa]
    for i, (ca, cb, rhs) in enumerate(rows):
        if i == pa:
            continue
        f = ca / ca_p
        cb_r = cb - f * cb_p
        if not cb_r.is_zero:
            beta = (rhs - f * rhs_p) / cb_r
            alpha = (rhs_p - cb_p * beta) / ca_p
            return finish(alpha, beta, "")
    # second column proportional to the first: one pivot equation only
    alpha = rhs_p / ca_p
    kernel = f"t*({render(cb_p)}, {render(-ca_p)})"
    return finish(alpha, ZERO, kernel)
