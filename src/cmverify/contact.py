"""Almost-contact metric structures, the h-operator, and the axiom audit.

The structure carries (phi, xi, eta, g) on a (2n+1)-dimensional frame.  Every
defining relation is a named check that REPORTS violations; nothing beyond
basic shape validity is assumed, so partially broken declarations can be
audited.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .frames import (
    FrameSpec,
    OneForm,
    ShapeError,
    Tensor02,
    Tensor11,
    VectorField,
    apply_vector,
    covariant_derivative_vector,
    dot,
    frame_apply,
    frame_pairing,
    lie_bracket,
    lower_index,
)
from .report import FAIL, PASS, CheckReport, residual_check
from .symcore import ONE, ZERO, Expr, esum

HALF = Expr.const(Fraction(1, 2))


class InconsistentEta(Exception):
    """Declared eta disagrees with g(., xi)."""


@dataclass(frozen=True)
class ContactDecl:
    xi: VectorField | None = None
    phi: Tensor11 | None = None
    eta: OneForm | None = None
    h: Tensor11 | None = None


@dataclass
class ContactStructure:
    spec: FrameSpec
    xi: VectorField
    phi: Tensor11
    eta: OneForm
    h_declared: Tensor11 | None
    n: int

    @property
    def dim(self) -> int:
        return 2 * self.n + 1


def build_structure(spec: FrameSpec, decl: ContactDecl) -> ContactStructure:
    if decl.xi is None:
        raise ShapeError("no xi declared")
    if decl.phi is None:
        raise ShapeError("no phi declared")
    dim = spec.dim
    if dim % 2 == 0:
        raise ShapeError(f"dimension {dim} is even; need 2n+1")
    if len(decl.xi.components) != dim:
        raise ShapeError("xi has wrong number of components")
    if len(decl.phi.m) != dim or any(len(r) != dim for r in decl.phi.m):
        raise ShapeError("phi matrix is not square of frame dimension")
    if decl.h is not None and (len(decl.h.m) != dim or
                               any(len(r) != dim for r in decl.h.m)):
        raise ShapeError("h matrix is not square of frame dimension")
    eta = lower_index(spec, decl.xi)
    if decl.eta is not None:
        if len(decl.eta.components) != dim:
            raise ShapeError("eta has wrong number of components")
        for i, (a, b) in enumerate(zip(decl.eta.components, eta.components)):
            if not (a - b).is_zero:
                raise InconsistentEta(
                    f"eta(E{i + 1}) declared as {a} but g(E{i + 1}, xi) = {b}")
    return ContactStructure(spec, decl.xi, decl.phi, eta, decl.h,
                            (dim - 1) // 2)


def _xi_brackets(spec: FrameSpec, cs: ContactStructure,
                 brackets) -> Tensor11:
    """The operator whose column j is [xi, E_j]."""
    dim = spec.dim
    xi = cs.xi.components
    return Tensor11(tuple(
        tuple(dot(xi, [brackets[a][j][l] for a in range(dim)])
              - frame_apply(spec, j, xi[l]) for j in range(dim))
        for l in range(dim)))


def compute_h(spec: FrameSpec, cs: ContactStructure, brackets) -> Tensor11:
    """Half the Lie derivative of phi along xi, columnwise on frame fields."""
    phi_lie = cs.phi.compose(_xi_brackets(spec, cs, brackets))
    cols = [(lie_bracket(spec, cs.xi, cs.phi.column(j), brackets)
             - phi_lie.column(j)).scale(HALF) for j in range(spec.dim)]
    return Tensor11(tuple(zip(*(c.components for c in cols))))


def h_variants(cs: ContactStructure, h_computed: Tensor11):
    """Labelled h choices for downstream checks.  When a declaration exists
    and differs from the computed operator both are audited; the declared one
    comes first and is the one report consumers treat as primary."""
    if cs.h_declared is None:
        return [("computed", h_computed)]
    if (cs.h_declared - h_computed).is_zero:
        return [("declared (= computed)", cs.h_declared)]
    return [("declared", cs.h_declared), ("computed", h_computed)]


def deta_tensor(spec: FrameSpec, cs: ContactStructure, brackets,
                factor: Fraction = Fraction(1, 2)) -> Tensor02:
    dim = spec.dim
    f = Expr.const(factor)
    m = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        m[i][i] = ZERO
    for i in range(dim):
        for j in range(i + 1, dim):
            br = VectorField(brackets[i][j])
            val = f * (frame_apply(spec, i, cs.eta.components[j])
                       - frame_apply(spec, j, cs.eta.components[i])
                       - cs.eta(br))
            m[i][j] = val
            m[j][i] = -val
    return Tensor02(tuple(tuple(r) for r in m))


def lie_xi_g(spec: FrameSpec, cs: ContactStructure, brackets) -> Tensor02:
    """(Lie_xi g)(E_i, E_j), the Killing residual of xi."""
    dim = spec.dim
    g = spec.metric
    lie = _xi_brackets(spec, cs, brackets)
    g_lie = frame_pairing(lie, g, None)
    g_e_lie = frame_pairing(None, g, lie)
    return Tensor02(tuple(
        tuple(apply_vector(spec, cs.xi, g[i][j]) - g_lie[i][j]
              - g_e_lie[i][j] for j in range(dim))
        for i in range(dim)))


def phi2_project(cs: ContactStructure, v: VectorField) -> VectorField:
    return VectorField(phi2_rows(cs, [v.components])[0])


def phi2_rows(cs: ContactStructure, rows) -> list:
    """phi^2 v = eta(v) xi - v for each row v of frame components, with
    eta(v) summed over the frame indices where eta is nonzero only."""
    eta = [(m, c) for m, c in enumerate(cs.eta.components) if not c.is_zero]
    xi = cs.xi.components
    out = []
    for v in rows:
        e = esum([c * v[m] for m, c in eta])
        out.append(tuple(x * e - c for c, x in zip(v, xi)))
    return out


def _pfaffian(m, rows):
    if not rows:
        return ONE
    i = rows[0]
    rest = rows[1:]
    acc = ZERO
    for pos, j in enumerate(rest):
        entry = m[i][j]
        if entry.is_zero:
            continue
        sub = tuple(x for x in rest if x != j)
        sign = 1 if pos % 2 == 0 else -1
        term = entry * _pfaffian(m, sub)
        acc = acc + (term if sign > 0 else -term)
    return acc


def contact_volume(cs: ContactStructure, deta: Tensor02) -> Expr:
    """eta wedge (d eta)^n evaluated on the frame, up to the constant n!
    factor: sum_i (-1)^(i-1) eta_i Pf(deta with row/col i removed)."""
    dim = cs.dim
    acc = ZERO
    for i in range(dim):
        e = cs.eta.components[i]
        if e.is_zero:
            continue
        rows = tuple(x for x in range(dim) if x != i)
        term = e * _pfaffian(deta.m, rows)
        acc = acc + (term if i % 2 == 0 else -term)
    return acc


def axiom_suite(ws):
    """One CheckReport per defining relation of the workspace's structure."""
    spec, conn, cs, sampler = ws.spec, ws.conn, ws.cs, ws.sampler
    dim = spec.dim
    g = spec.metric
    xi, eta = cs.xi.components, cs.eta.components
    deta = ws.deta
    h_comp = ws.h_computed
    reports = []

    res = [(f"(E{i + 1},E{j + 1})", deta.m[i][j] - ws.g_phi[i][j])
           for i in range(dim) for j in range(i + 1, dim)]
    reports.append(residual_check(
        "I2.1", res, sampler,
        notes="d-eta(X,Y) - g(X, phi Y); eta = g(., xi) holds by "
              "construction"))

    res = [("phi xi", c) for c in cs.phi.apply(cs.xi).components]
    res += [(f"eta(phi E{j + 1})", cs.eta(cs.phi.column(j)))
            for j in range(dim)]
    phi2 = cs.phi.compose(cs.phi)
    for j in range(dim):
        res += [(f"phi^2 E{j + 1}",
                 phi2.m[l][j] + (ONE if l == j else ZERO) - xi[l] * eta[j])
                for l in range(dim)]
    reports.append(residual_check(
        "I2.2", res, sampler,
        notes="phi xi = 0, eta(phi X) = 0, phi^2 = -Id + eta (x) xi"))

    g_phi_phi = frame_pairing(cs.phi, g, cs.phi)
    res = [(f"(E{i + 1},E{j + 1})",
            g_phi_phi[i][j] - g[i][j] + eta[i] * eta[j])
           for i in range(dim) for j in range(i, dim)]
    reports.append(residual_check(
        "I2.3", res, sampler,
        notes="g(phi X, phi Y) - g(X,Y) + eta(X) eta(Y)"))

    nabla_xi = [covariant_derivative_vector(spec, conn, i, cs.xi)
                for i in range(dim)]
    for label, h in ws.variants:
        res = []
        for i in range(dim):
            rhs = -cs.phi.column(i) - cs.phi.apply(h.column(i))
            diff = nabla_xi[i] - rhs
            res += [(f"W=E{i + 1}", c) for c in diff.components]
        reports.append(residual_check(
            "I2.4", res, sampler,
            notes=f"nabla_X xi + phi X + phi h X; h = {label}"))

    for label, h in ws.variants:
        phih = cs.phi.compose(h)
        anticommute = h.compose(cs.phi) + phih
        reports.append(residual_check(
            "H1", [("h phi + phi h", c) for row in anticommute.m
                   for c in row],
            sampler, notes=f"h = {label}"))
        reports.append(residual_check(
            "H2", [("h xi", c) for c in h.apply(cs.xi).components],
            sampler, notes=f"h = {label}"))
        reports.append(residual_check(
            "H3", [("trace h", h.trace()),
                   ("trace phi h", phih.trace())],
            sampler, notes=f"h = {label}"))
        g_h = frame_pairing(h, g, None)
        g_e_h = frame_pairing(None, g, h)
        res = [(f"(E{i + 1},E{j + 1})", g_h[i][j] - g_e_h[i][j])
               for i in range(dim) for j in range(i + 1, dim)]
        reports.append(residual_check(
            "H4", res, sampler, notes=f"g(hX,Y) - g(X,hY); h = {label}"))

    if cs.h_declared is not None:
        diff = cs.h_declared - h_comp
        reports.append(residual_check(
            "H-COMP",
            [(f"(E{i + 1},E{j + 1})", diff.m[i][j])
             for i in range(dim) for j in range(dim)],
            sampler,
            notes="declared h minus (1/2) Lie_xi phi",
            pass_notes="declared h matches the computed operator"))

    lie_g = lie_xi_g(spec, cs, ws.brackets)
    killing = lie_g.is_zero
    h_zero = h_comp.is_zero
    if killing == h_zero:
        verdict, shown = PASS, "0"
    else:
        verdict = FAIL
        shown = next(str(c) for row in lie_g.m for c in row
                     if not c.is_zero) if not killing else "0"
    reports.append(CheckReport(
        "KILLING", verdict, shown,
        sampler.max_abs([c for row in lie_g.m for c in row]),
        notes=f"computed h {'=' if h_zero else '!='} 0 and Lie_xi g "
              f"{'=' if killing else '!='} 0"))

    vol = contact_volume(cs, deta)
    if vol.is_zero:
        reports.append(CheckReport(
            "CONTACT", FAIL, "0",
            notes="eta wedge (d-eta)^n vanishes identically"))
    else:
        worst = sampler.min_abs(vol)
        notes = "min |eta wedge (d-eta)^n| over sample points"
        if worst is None:
            notes += "; no admissible sample point"
        verdict = PASS if worst is not None and worst > sampler.tol \
            else FAIL
        reports.append(CheckReport("CONTACT", verdict, str(vol), worst,
                                   notes=notes))
    return reports
