"""The two-unknown solver: its three outcomes, the first nonzero defect
it reports, and the rows it never multiplies.  The elimination `mat_inv`
against sympy: its inverse and determinant, exactly."""

import random
from pathlib import Path

import pytest

from cmverify.linalg import mat_inv, solve_two_unknowns
from cmverify.specfile import load_spec
from cmverify.symcore import ZERO, Expr, parse_expr, render

ROOT = Path(__file__).resolve().parent.parent

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


def test_defect_of_a_zero_rhs_row_is_formed():
    # Row 2 has rhs 0, but ca * alpha = x * y/x != 0: its defect -y is
    # formed, so the solve is inconsistent.
    rows = [consistent_row("x", "1"), consistent_row("1", "y"),
            (ex("x"), ZERO, ZERO)]
    sol = solve_two_unknowns(rows)
    assert sol.status == "inconsistent"
    assert (sol.alpha, sol.beta) == (ALPHA, BETA)
    assert sol.worst == ex("-y")


@pytest.mark.parametrize("rows", [[], [(ZERO, ZERO, ZERO)]])
def test_vacuous_rows_leave_both_free(rows):
    sol = solve_two_unknowns(rows)
    assert (sol.status, sol.kernel) == ("underdetermined",
                                        "alpha free, beta free")


# --- mat_inv against sympy ---------------------------------------------

def _sympy():
    return pytest.importorskip("sympy")


def to_sympy(e):
    return _sympy().sympify(render(e).replace("^", "**"))


def domain_matrix(m):
    """The sympy DomainMatrix of a table of Expr, over its fraction field."""
    sympy = _sympy()
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix.from_Matrix(
        sympy.Matrix([[to_sympy(e) for e in row] for row in m])).to_field()


def check_inverse_and_det(m):
    """mat_inv(m) is sympy's inverse and determinant of m, compared as
    elements of one rational-function field."""
    inv, det = mat_inv(m)
    want = domain_matrix(m)
    got = domain_matrix(inv)
    field = want.domain.unify(got.domain)
    want, got = want.convert_to(field), got.convert_to(field)
    assert got == want.inv()
    assert field.from_sympy(to_sympy(det)) == want.det()


def random_matrix(rng, n):
    """An n x n matrix of rational functions in x and y drawn from `rng`:
    the diagonal is a constant plus, half the time, a monomial; off the
    diagonal an entry is zero 60 % of the time, else a monomial, over
    1 + x^2 or y a third of the time."""
    def monomial():
        factors = rng.sample("xy", rng.randint(0, 2))
        return (f"{rng.choice((1, -1, 2, -3, '1/2'))}"
                + "".join(f"*{v}" for v in factors))

    def entry(i, j):
        if i == j:
            return rng.choice(("1", "2", "-1")) + (
                " + " + monomial() if rng.random() < 1 / 2 else "")
        if rng.random() < 0.6:
            return "0"
        if rng.random() < 1 / 3:
            return f"({monomial()})/({rng.choice(('1 + x^2', 'y'))})"
        return monomial()

    return tuple(tuple(ex(entry(i, j)) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", range(3))
def test_mat_inv_matches_sympy_on_random_matrices(n, seed):
    check_inverse_and_det(random_matrix(random.Random(100 * n + seed), n))


def test_mat_inv_swaps_rows_past_a_zero_pivot():
    # each row swap flips the sign of the determinant
    m = [[ZERO, ex("x"), ex("1")], [ex("y"), ex("1/x"), ZERO],
         [ex("1"), ZERO, ex("x*y")]]
    check_inverse_and_det(m)
    check_inverse_and_det(m[::-1])


def test_mat_inv_of_a_singular_matrix():
    # row 3 = x row 1 + row 2
    m = [[ex("1"), ex("y"), ex("x + 1/y")], [ex("1/y"), ZERO, ex("2*x")]]
    m.append([ex("x") * a + b for a, b in zip(*m)])
    assert mat_inv(m) == (None, ZERO)
    assert domain_matrix(m).det() == 0


@pytest.mark.parametrize("path,table", [
    (ROOT / "bench" / "specs" / "conf3.cmspec", "metric"),
    (ROOT / "tests" / "specs" / "t1e3.cmspec", "act")])
def test_mat_inv_matches_sympy_on_spec_tables(path, table):
    check_inverse_and_det(getattr(load_spec(path).spec, table))
