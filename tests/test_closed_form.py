"""Specs whose answers are known in closed form, with the facts taken
from the literature, not from the program's output.

t1e3 is the unit tangent bundle T_1 E^3 = E^3 x S^2(4) with its standard
contact metric structure: dim 5 (n = 2), a rational non-constant metric
and h != 0.  For n > 1, R(X,Y)xi = 0 iff M is locally E^{n+1} x S^n(4)
(Blair 1977, Tohoku Math. J. 29), so k = mu = 0, and nabla R = 0 since M
is a product of symmetric spaces.  t1e4 = E^4 x S^3(4) is the same
construction at dim 7 (n = 3), so the same theorem gives the same facts.
T4.17 is not asserted on either: what it should report there is an open
question about the verdict itself.

t1e3a is the D-homothetic deformation of t1e3 by a parameter a (Tanno
1968, Illinois J. Math. 12).  It maps a (k, mu)-space to one with
k' = (k + a^2 - 1)/a^2 and mu' = (mu + 2a - 2)/a (Blair, Koufogiorgos &
Papantoniou 1995, Israel J. Math. 91), so from t1e3's k = mu = 0 it has
k = (a^2 - 1)/a^2 and mu = 2(a - 1)/a.

uni3 is the family of 3-dim unimodular Lie groups (Milnor 1976, Adv.
Math. 21) with their left-invariant contact metric structure, a
(k, mu)-space with k = 1 - (l2 - l3)^2/4 and mu = 2 - (l2 + l3) (Blair
2010, Riemannian Geometry of Contact and Symplectic Manifolds, 2nd ed.).

kt3 is a proper generalized (k, mu)-space (Koufogiorgos & Tsichlias
2000, Canad. Math. Bull. 43), where k and mu are functions.  Its facts
come from a hand derivation on its 3x3 frame, given in the spec's
header: with lam = x3^-2, h = diag(lam, -lam, 0), k = 1 - lam^2 and
mu = 2(1 - lam).  Its I3.4, I3.9, I3.10 and I3.13 fail, since those
relations assume constant k and mu; they are not asserted here.

kt3a is kt3's D-homothetic deformation by a parameter a.  The formulas
above, applied pointwise to kt3's function-valued k and mu, give
k = (a^2 x3^4 - 1)/(a^2 x3^4) and mu = (2a x3^2 - 2)/(a x3^2), and the
deformation maps h to h/a, so h = diag(lam/a, -lam/a, 0).
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cmverify import cli
from cmverify.specfile import load_spec
from cmverify.symcore import ZERO, parse_expr
from cmverify.workspace import Workspace

SPECS = Path(__file__).resolve().parent / "specs"
T1E3, T1E4, T1E3A, UNI3, KT3, KT3A = (
    SPECS / f"{name}.cmspec"
    for name in ("t1e3", "t1e4", "t1e3a", "uni3", "kt3", "kt3a"))
AXIOMS = ("I2.1", "I2.2", "I2.3", "I2.4", "H1", "H2", "H3", "H4",
          "KILLING", "CONTACT", "NULLITY")
IDENTITIES = tuple(f"I3.{i}" for i in range(1, 14))


@pytest.fixture(scope="module")
def runs():
    """`all` of each spec: the checks by id, and stderr."""
    out = {}
    for path in (T1E3, T1E4, T1E3A, UNI3):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            cli.run(["all", str(path), "--format", "json"])
        checks = json.loads(stdout.getvalue())["checks"]
        out[path] = ({c["id"]: c for c in checks}, stderr.getvalue())
    return out


def primary_k_mu(path):
    _, _, ext, _ = Workspace(load_spec(path)).params[0]
    return ext


@pytest.mark.parametrize("path", [T1E3, T1E4, T1E3A, UNI3],
                         ids=["t1e3", "t1e4", "t1e3a", "uni3"])
def test_every_axiom_and_identity_passes(runs, path):
    checks, _ = runs[path]
    assert {cid: checks[cid]["verdict"] for cid in AXIOMS + IDENTITIES} \
        == dict.fromkeys(AXIOMS + IDENTITIES, "pass")


def test_t1e3_has_k_and_mu_zero():
    ext = primary_k_mu(T1E3)
    assert (ext.status, ext.k, ext.mu) == ("unique", ZERO, ZERO)


def test_t1e4_has_k_and_mu_zero():
    ext = primary_k_mu(T1E4)
    assert (ext.status, ext.k, ext.mu) == ("unique", ZERO, ZERO)


def test_t1e3a_k_and_mu_follow_the_d_homothetic_formula():
    ext = primary_k_mu(T1E3A)
    assert ext.status == "unique"
    assert ext.k == parse_expr("(a^2 - 1)/a^2", {"a"})
    assert ext.mu == parse_expr("2*(a - 1)/a", {"a"})


def assert_locally_symmetric(checks):
    """nabla R = 0: every recurrence solve classifies the spec as
    symmetric."""
    for kind, phrase in (("FULL", "symmetric"), ("RICCI", "symmetric"),
                         ("PHI", "φ-symmetric")):
        assert checks[f"REC-{kind}"]["verdict"] == "pass"
        assert f"classification: {phrase};" in checks[f"REC-{kind}"]["notes"]


def test_t1e3_is_locally_symmetric(runs):
    assert_locally_symmetric(runs[T1E3][0])


def test_t1e4_is_locally_symmetric(runs):
    assert_locally_symmetric(runs[T1E4][0])


def test_t1e3_det_g_warning(runs):
    # g = diag(s^2/4, s^2/4, s^2/4, s^2/4, 1) with s = 1 + u1^2 + u2^2, so
    # det g = (s^2/4)^4 > 0 everywhere and names no degeneracy locus
    _, err = runs[T1E3]
    assert "metric-nondegenerate" not in err


def test_uni3_k_and_mu_in_closed_form():
    ext = primary_k_mu(UNI3)
    syms = {"l2", "l3"}
    assert ext.status == "unique"
    assert ext.k == parse_expr("1 - (l2 - l3)^2/4", syms)
    assert ext.mu == parse_expr("2 - (l2 + l3)", syms)


def _kt3_exprs(rows, symbols=("x3",)):
    return tuple(tuple(parse_expr(e, set(symbols)) for e in row)
                 for row in rows)


def test_kt3_brackets_and_h_by_hand():
    # [E1,E2] = x3^-3 E2 + 2 E3, [E1,E3] = -2 x3^-2 E2, [E2,E3] = 0; then
    # [xi, E1] = 2 lam E2 and [xi, E2] = 0 give h = diag(lam, -lam, 0)
    ws = Workspace(load_spec(KT3))
    c = ws.brackets
    assert (c[0][1], c[0][2], c[1][2]) == _kt3_exprs(
        [("0", "x3^-3", "2"), ("0", "-2*x3^-2", "0"), ("0", "0", "0")])
    assert ws.h_computed == _kt3_exprs(
        [("x3^-2", "0", "0"), ("0", "-x3^-2", "0"), ("0", "0", "0")])


def test_kt3_axioms_pass_with_function_k_and_mu(capsys):
    cli.run(["all", str(KT3), "--format", "json"])
    checks = {c["id"]: c
              for c in json.loads(capsys.readouterr().out)["checks"]}
    assert {cid: checks[cid]["verdict"] for cid in AXIOMS} \
        == dict.fromkeys(AXIOMS, "pass")
    ext = primary_k_mu(KT3)
    assert ext.status == "unique"
    assert ext.k == parse_expr("1 - x3^-4", {"x3"})
    assert ext.mu == parse_expr("2*(1 - x3^-2)", {"x3"})


def test_kt3a_follows_the_d_homothetic_formulas(capsys):
    cli.run(["all", str(KT3A), "--format", "json"])
    checks = {c["id"]: c
              for c in json.loads(capsys.readouterr().out)["checks"]}
    assert {cid: checks[cid]["verdict"] for cid in AXIOMS} \
        == dict.fromkeys(AXIOMS, "pass")
    ext = primary_k_mu(KT3A)
    syms = {"a", "x3"}
    assert ext.status == "unique"
    assert ext.k == parse_expr("(a^2*x3^4 - 1)/(a^2*x3^4)", syms)
    assert ext.mu == parse_expr("(2*a*x3^2 - 2)/(a*x3^2)", syms)
    assert Workspace(load_spec(KT3A)).h_computed == _kt3_exprs(
        [("x3^-2/a", "0", "0"), ("0", "-x3^-2/a", "0"), ("0", "0", "0")],
        syms)
