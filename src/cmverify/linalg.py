"""Exact linear algebra over the rational-function field."""
from __future__ import annotations

from dataclasses import dataclass

from .symcore import ONE, ZERO, Expr, render


class SingularMatrix(ValueError):
    pass


def mat_det(m) -> Expr:
    n = len(m)
    rows = [list(r) for r in m]
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        p = rows[col][col]
        det = det * p
        for r in range(col + 1, n):
            if rows[r][col].is_zero:
                continue
            f = rows[r][col] / p
            for c in range(col, n):
                rows[r][c] = rows[r][c] - f * rows[col][c]
    return det


def mat_inv(m):
    """Inverse over the rational-function field; SingularMatrix when the
    determinant is identically zero."""
    n = len(m)
    rows = [list(r) + [ONE if i == j else ZERO for j in range(n)]
            for i, r in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero), None)
        if pivot is None:
            raise SingularMatrix("matrix is singular as a rational-function matrix")
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        rows[col] = [c / p for c in rows[col]]
        for r in range(n):
            if r == col or rows[r][col].is_zero:
                continue
            f = rows[r][col]
            rows[r] = [rc - f * cc for rc, cc in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


@dataclass
class TwoUnknownSolution:
    """Exact solution of rows alpha*ca + beta*cb = rhs.

    `alpha`/`beta` always hold a representative (free unknowns pinned to
    zero); `residuals` holds per-row defects for that representative and
    is all-zero unless the status is inconsistent.
    """

    status: str                # unique | underdetermined | inconsistent
    alpha: Expr
    beta: Expr
    kernel: str                # human-readable description, "" when unique
    residuals: list


def solve_two_unknowns(rows) -> TwoUnknownSolution:
    rows = list(rows)

    def residuals_for(alpha, beta):
        return [rhs - ca * alpha - cb * beta for ca, cb, rhs in rows]

    def finish(alpha, beta, kernel):
        res = residuals_for(alpha, beta)
        if all(r.is_zero for r in res):
            status = "unique" if kernel == "" else "underdetermined"
            return TwoUnknownSolution(status, alpha, beta, kernel, res)
        return TwoUnknownSolution("inconsistent", alpha, beta, kernel, res)

    pa = next((i for i, (ca, _, _) in enumerate(rows) if not ca.is_zero), None)
    if pa is None:
        pb = next((i for i, (_, cb, _) in enumerate(rows) if not cb.is_zero), None)
        if pb is None:
            return finish(ZERO, ZERO, "alpha free, beta free")
        _, cb, rhs = rows[pb]
        return finish(ZERO, rhs / cb, "alpha free")

    ca_p, cb_p, rhs_p = rows[pa]
    reduced = []
    for i, (ca, cb, rhs) in enumerate(rows):
        if i == pa:
            continue
        f = ca / ca_p
        reduced.append((cb - f * cb_p, rhs - f * rhs_p))
    pb = next((i for i, (cb, _) in enumerate(reduced) if not cb.is_zero), None)
    if pb is None:
        # second column proportional to the first: one pivot equation only
        alpha = rhs_p / ca_p
        kernel = f"t*({render(cb_p)}, {render(-ca_p)})"
        return finish(alpha, ZERO, kernel)
    cb_r, rhs_r = reduced[pb]
    beta = rhs_r / cb_r
    alpha = (rhs_p - cb_p * beta) / ca_p
    return finish(alpha, beta, "")
