"""The sampler reports no value, rather than 0.0, for a residual it could
not evaluate at any sample point, and draws no value an `assume` excludes."""

from cmverify import sampling
from cmverify.contact import axiom_suite
from cmverify.sampling import Sampler
from cmverify.specfile import parse_spec_text
from cmverify.symcore import ZERO, Expr
from cmverify.workspace import Workspace

# The 3-dim Heisenberg frame with g33 = 1/(x - X0): eta = g(., xi) then
# has a pole at x = X0, and so does the contact volume.
POLE_SPEC = """\
manifold pole3
coords x y z
frame-mode vector
vector E1 = 1 dx + 2*y dz
vector E2 = 1 dy
vector E3 = 1 dz
metric g11 = 1
metric g22 = 1
metric g33 = 1/(x - X0)
contact xi = E3
contact phi : E1 -> -1 E2
contact phi : E2 -> 1 E1
contact phi : E3 -> 0
"""


def _pole_spec():
    """The spec above with X0 the x-coordinate of the one sample point."""
    probe = parse_spec_text(POLE_SPEC.replace("X0", "0"))
    x0 = Sampler(probe.spec, points=1).points()[0]["x"]
    return parse_spec_text(POLE_SPEC.replace("X0", str(x0))), x0


def test_every_point_a_pole_gives_no_value():
    ps, x0 = _pole_spec()
    sampler = Sampler(ps.spec, points=1)
    pole = Expr.const(1) / (Expr.sym("x") - Expr.const(x0))
    assert sampler.max_abs([pole]) is None
    assert sampler.max_abs([Expr.sym("y"), pole]) is None
    assert sampler.min_abs(pole) is None
    # an identically zero residual needs no sample point
    assert sampler.max_abs([Expr.const(0)]) == 0.0
    assert sampler.max_abs([Expr.sym("y")]) > 0.0


def test_contact_without_admissible_point_says_so():
    ps, _ = _pole_spec()
    report = next(r for r in axiom_suite(Workspace(ps, points=1))
                  if r.check_id == "CONTACT")
    assert report.verdict == "fail"
    assert report.residual_sampled_max is None
    assert report.notes.endswith("no admissible sample point")


TWO_ASSUMES = """\
manifold twoassume
coords x y z
assume x != 1
assume x != -1
frame-mode vector
vector E1 = 1 dx
vector E2 = 1 dy
vector E3 = 1 dz
metric identity
contact xi = E3
contact phi : E1 -> -1 E2
contact phi : E2 -> 1 E1
contact phi : E3 -> 0
"""


def test_every_assume_on_a_coordinate_is_honoured():
    # seed 1129 draws x = 1 among its 8 points unless both are excluded
    spec = parse_spec_text(TWO_ASSUMES).spec
    drawn = {p["x"] for p in Sampler(spec, seed=1129).points()}
    assert not drawn & {1, -1}
    alone = parse_spec_text(TWO_ASSUMES.replace("assume x != -1\n", "")).spec
    assert 1 not in {p["x"] for p in Sampler(alone, seed=1129).points()}


def test_one_evaluation_per_nonzero_expression_and_point(monkeypatch):
    ps, x0 = _pole_spec()
    evaluated = []
    eval_rational = sampling.eval_rational

    def counting(e, bindings):
        evaluated.append(e)
        return eval_rational(e, bindings)

    monkeypatch.setattr(sampling, "eval_rational", counting)
    x, y = Expr.sym("x"), Expr.sym("y")
    pole = Expr.const(1) / (x - Expr.const(x0))
    exprs = [x * y + Expr.const(1), ZERO, pole]
    sampler = Sampler(ps.spec, points=4)
    assert sampler.max_abs(exprs) is not None
    assert evaluated == [exprs[0]] * 4 + [pole] * 4
