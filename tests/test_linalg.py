"""The two-unknown solver: its three outcomes, the first nonzero defect
it reports, and the rows it never multiplies."""

import pytest

from cmverify.linalg import solve_two_unknowns
from cmverify.symcore import ZERO, Expr, parse_expr, render

SYMS = {"x", "y"}


def ex(text):
    return parse_expr(text, SYMS)


ALPHA, BETA = ex("y/x"), ex("x + 1")


def consistent_row(ca, cb):
    ca, cb = ex(ca), ex(cb)
    return ca, cb, ca * ALPHA + cb * BETA


def test_unique_solution():
    rows = [(ZERO, ZERO, ZERO), consistent_row("0", "y"),
            consistent_row("x", "1"), consistent_row("x + y", "x - y")]
    sol = solve_two_unknowns(rows)
    assert sol.status == "unique"
    assert (sol.alpha, sol.beta) == (ALPHA, BETA)
    assert sol.kernel == ""
    assert sol.worst is ZERO


def test_proportional_columns_leave_a_kernel():
    # cb = y * ca on every row: only alpha + y beta is determined.
    rows = [(ex(ca), ex(ca) * ex("y"), ex(ca) * ex("1 + y"))
            for ca in ("x", "x^2 + 1", "1/(x + y)")]
    sol = solve_two_unknowns(rows)
    assert sol.status == "underdetermined"
    assert sol.kernel == "t*(x*y, -x)"
    assert (sol.alpha, sol.beta) == (ex("1 + y"), ZERO)
    assert sol.worst is ZERO


def test_alpha_column_zero():
    rows = [(ZERO, ex("x"), ex("x*y")), (ZERO, ex("1"), ex("y"))]
    sol = solve_two_unknowns(rows)
    assert (sol.status, sol.kernel) == ("underdetermined", "alpha free")
    assert (sol.alpha, sol.beta) == (ZERO, ex("y"))


def _inconsistent_rows():
    """Two pivot rows, one consistent row, then two rows whose defects
    are x and y^2."""
    rows = [consistent_row("x", "1"), consistent_row("1", "y"),
            consistent_row("x + y", "x - y")]
    for ca, cb, defect in (("y", "x", "x"), ("x*y", "1", "y^2")):
        ca, cb, rhs = consistent_row(ca, cb)
        rows.append((ca, cb, rhs + ex(defect)))
    return rows


def test_inconsistent_reports_first_nonzero_defect():
    sol = solve_two_unknowns(_inconsistent_rows())
    assert sol.status == "inconsistent"
    assert (sol.alpha, sol.beta) == (ALPHA, BETA)
    assert render(sol.worst) == "x"


def test_rows_after_first_nonzero_defect_are_never_multiplied(monkeypatch):
    rows = _inconsistent_rows()
    operands = []
    mul = Expr.__mul__

    def counted(self, other):
        operands.extend((self, other))
        return mul(self, other)

    monkeypatch.setattr(Expr, "__mul__", counted)
    solve_two_unknowns(rows)
    touched = [any(c is op for op in operands for c in row[:2])
               for row in rows]
    assert touched == [True, True, True, True, False]


@pytest.mark.parametrize("rows", [[], [(ZERO, ZERO, ZERO)]])
def test_vacuous_rows_leave_both_free(rows):
    sol = solve_two_unknowns(rows)
    assert (sol.status, sol.kernel) == ("underdetermined",
                                        "alpha free, beta free")
