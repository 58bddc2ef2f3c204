"""Almost-contact metric structures, the h-operator, and the axiom audit.

The structure carries (phi, xi, eta, g) on a (2n+1)-dimensional frame.  Every
defining relation is a named check that REPORTS violations; nothing beyond
basic shape validity is assumed, so partially broken declarations can be
audited.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .frames import (
    FrameSpec,
    ShapeError,
    dot,
    frame_pairing,
    matmul,
    matvec,
    nonzero_entries,
    scaled_basis,
    wedge,
)
from .report import FAIL, PASS, CheckReport, pair_residuals, residual_check
from .symcore import ONE, ZERO, Expr, esum, lincomb

HALF = Expr.const(Fraction(1, 2))


class InconsistentEta(Exception):
    """Declared eta disagrees with g(., xi)."""


@dataclass(frozen=True)
class ContactDecl:
    """Declared frame tables: vector xi, (1,1) operators phi and h, 1-form
    eta; None where the file declares none."""
    xi: tuple | None = None
    phi: tuple | None = None
    eta: tuple | None = None
    h: tuple | None = None


@dataclass
class ContactStructure:
    xi: tuple
    phi: tuple
    eta: tuple
    h_declared: tuple | None


def build_structure(spec: FrameSpec, decl: ContactDecl) -> ContactStructure:
    if decl.xi is None:
        raise ShapeError("no xi declared")
    if decl.phi is None:
        raise ShapeError("no phi declared")
    eta = matvec(spec.metric, decl.xi)
    if decl.eta is not None:
        for i, (a, b) in enumerate(zip(decl.eta, eta)):
            if not (a - b).is_zero:
                raise InconsistentEta(
                    f"eta(E{i + 1}) declared as {a} but g(E{i + 1}, xi) = {b}")
    return ContactStructure(decl.xi, decl.phi, eta, decl.h)


def compute_h(cs: ContactStructure, nabla_xi, nabla_phi):
    """h = (1/2) Lie_xi phi, read off the Levi-Civita connection.  It is
    torsion-free, so (Lie_xi phi) X = (nabla_xi phi) X - nabla_{phi X} xi
    + phi nabla_X xi, that is h = (1/2)(nabla_xi phi - A phi + phi A) for
    the operator A: X -> nabla_X xi, whose column i is nabla_xi[i].
    `nabla_phi(w)` is nabla_{E_w} phi, read for the nonzero components
    of xi only; a component 1 scales no table."""
    dim = len(cs.xi)
    a = tuple(zip(*nabla_xi))
    nabla = [(1 if c == ONE else c, nabla_phi(w))
             for w, c in nonzero_entries(cs.xi)]
    return tuple(
        lincomb(dim, [(HALF, lincomb(dim, [(c, t[l]) for c, t in nabla]
                                     + [(-1, ap), (1, pa)]))])
        for l, (ap, pa) in enumerate(zip(matmul(a, cs.phi),
                                         matmul(cs.phi, a))))


def h_variants(cs: ContactStructure, h_computed):
    """Labelled h choices for downstream checks.  When a declaration exists
    and differs from the computed operator both are audited; the declared one
    comes first and is the one report consumers treat as primary."""
    if cs.h_declared is None:
        return [("computed", h_computed)]
    if cs.h_declared == h_computed:
        return [("declared (= computed)", cs.h_declared)]
    return [("declared", cs.h_declared), ("computed", h_computed)]


class HTables:
    """The frame tables the suites build from one h operator: its products
    with phi and its g-pairings, each indexed [i][j], and the
    `frames.wedge` table of the (k, mu)-nullity form that depends on h,
    indexed [i][j][l].  Each is built on first use, so a command builds
    only the ones its suites read."""

    def __init__(self, g, cs: ContactStructure, h):
        self.g, self.cs, self.h = g, cs, h

    @cached_property
    def idh(self):
        """X -> X + hX"""
        dim = len(self.h)
        return tuple(lincomb(dim, [(1, scaled_basis(dim, i, ONE)), (1, row)])
                     for i, row in enumerate(self.h))

    @cached_property
    def phih(self):
        return matmul(self.cs.phi, self.h)

    @cached_property
    def hphi(self):
        return matmul(self.h, self.cs.phi)

    @cached_property
    def phi_idh(self):
        """X -> phi(X + hX)"""
        return matmul(self.cs.phi, self.idh)

    @cached_property
    def h_phi_idh(self):
        """X -> h phi(X + hX)"""
        return matmul(self.h, self.phi_idh)

    @cached_property
    def eta_h(self):
        """eta(h E_j)"""
        return tuple(dot(self.cs.eta, col) for col in zip(*self.h))

    @cached_property
    def g_h(self):
        """g(h E_i, E_j)"""
        return frame_pairing(self.h, self.g, None)

    @cached_property
    def g_e_h(self):
        """g(E_i, h E_j)"""
        return frame_pairing(None, self.g, self.h)

    @cached_property
    def g_hphi(self):
        """g(E_i, h phi E_j)"""
        return frame_pairing(None, self.g, self.hphi)

    @cached_property
    def g_idh(self):
        """g(E_i + h E_i, E_j)"""
        return frame_pairing(self.idh, self.g, None)

    @cached_property
    def g_idh_phi(self):
        """g(E_i + h E_i, phi E_j)"""
        return frame_pairing(self.idh, self.g, self.cs.phi)

    @cached_property
    def g_h_phi_idh(self):
        """g(h E_i, phi(E_j + h E_j))"""
        return frame_pairing(self.h, self.g, self.phi_idh)

    @cached_property
    def g_phih(self):
        """g(phi h E_i, E_j)"""
        return frame_pairing(self.phih, self.g, None)

    @cached_property
    def wedge_eta_h(self):
        """eta(E_j) h E_i - eta(E_i) h E_j"""
        return wedge(self.cs.eta, self.h)


def deta_tensor(nabla_eta, factor: Fraction = Fraction(1, 2)):
    """factor * ((nabla_{E_i} eta)(E_j) - (nabla_{E_j} eta)(E_i)), indexed
    [i][j], from nabla_eta[i][j] = (nabla_{E_i} eta)(E_j): d eta in the
    convention `factor` picks, since the connection is torsion-free."""
    f = Expr.const(factor)
    return tuple(tuple(f * (a - b) for a, b in zip(row, col))
                 for row, col in zip(nabla_eta, zip(*nabla_eta)))


def lie_xi_g(nabla_eta):
    """(Lie_xi g)(E_i, E_j) = (nabla_{E_i} eta)(E_j) + (nabla_{E_j} eta)(E_i),
    the Killing residual of xi, from the `deta_tensor` table nabla_eta of
    the Levi-Civita connection."""
    return tuple(tuple(a + b for a, b in zip(row, col))
                 for row, col in zip(nabla_eta, zip(*nabla_eta)))


def phi2_rows(cs: ContactStructure, rows) -> list:
    """phi^2 v = eta(v) xi - v for each row v of frame components, with
    eta(v) summed over the indices where eta and v are both nonzero; a
    zero row projects to itself, and no operator gets a zero operand:
    component l is x e - c, x e, -c or `ZERO` as xi^l eta(v) and v^l
    vanish or not."""
    eta = nonzero_entries(cs.eta)
    xi = cs.xi
    out = []
    for v in rows:
        if not any(c.num.terms for c in v):
            out.append(v)
            continue
        e = esum([c * v[m] for m, c in eta if v[m].num.terms])
        live = e.num.terms
        out.append(tuple([
            (x * e - c if c.num.terms else x * e) if live and x.num.terms
            else (-c if c.num.terms else ZERO) for c, x in zip(v, xi)]))
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
        term = entry * _pfaffian(m, tuple(x for x in rest if x != j))
        acc = acc + (term if pos % 2 == 0 else -term)
    return acc


def contact_volume(cs: ContactStructure, deta) -> Expr:
    """eta wedge (d eta)^n evaluated on the frame, up to the constant n!
    factor: the Pfaffian of deta bordered by eta, which expands along the
    border to sum_i (-1)^(i-1) eta_i Pf(deta with row/col i removed).
    `_pfaffian` reads only entries above the diagonal."""
    bordered = ((ZERO, *cs.eta), *((None, *row) for row in deta))
    return _pfaffian(bordered, tuple(range(len(bordered))))


def axiom_suite(ws):
    """One CheckReport per defining relation of the workspace's structure."""
    spec, cs, sampler = ws.spec, ws.cs, ws.sampler
    dim = spec.dim
    g = spec.metric
    xi, eta, phi = cs.xi, cs.eta, cs.phi
    deta = ws.deta
    h_comp = ws.h_computed
    reports = []

    res = pair_residuals(dim, lambda i: [(1, deta[i]), (-1, ws.g_phi[i])], 1)
    reports.append(residual_check(
        "I2.1", res, sampler,
        notes="d-eta(X,Y) - g(X, phi Y); eta = g(., xi) holds by "
              "construction"))

    res = [("phi xi", c) for c in matvec(phi, xi)]
    res += [(f"eta(phi E{j + 1})", c)
            for j, c in enumerate(lincomb(dim, zip(eta, phi)))]
    minus_xi = lincomb(dim, [(-1, xi)])
    for j, col in enumerate(zip(*matmul(phi, phi))):
        res += [(f"phi^2 E{j + 1}", c) for c in lincomb(dim, [
            (1, col), (1, scaled_basis(dim, j, ONE)), (eta[j], minus_xi)])]
    reports.append(residual_check(
        "I2.2", res, sampler,
        notes="phi xi = 0, eta(phi X) = 0, phi^2 = -Id + eta (x) xi"))

    g_phi_phi = frame_pairing(phi, g, phi)
    res = pair_residuals(
        dim, lambda i: [(1, g_phi_phi[i]), (-1, g[i]), (eta[i], eta)], 0)
    reports.append(residual_check(
        "I2.3", res, sampler,
        notes="g(phi X, phi Y) - g(X,Y) + eta(X) eta(Y)"))

    variants = [(label, h, ws.h_tables(h)) for label, h in ws.variants]
    for label, _, t in variants:
        # nabla_{E_i} xi + phi E_i + phi h E_i, per component
        res = [(f"W=E{i + 1}", c)
               for i, cols in enumerate(zip(ws.nabla_xi, zip(*phi),
                                            zip(*t.phih)))
               for c in lincomb(dim, [(1, col) for col in cols])]
        reports.append(residual_check(
            "I2.4", res, sampler,
            notes=f"nabla_X xi + phi X + phi h X; h = {label}"))

    for label, h, t in variants:
        reports.append(residual_check(
            "H1", [("h phi + phi h", c) for rows in zip(t.hphi, t.phih)
                   for c in lincomb(dim, [(1, row) for row in rows])],
            sampler, notes=f"h = {label}"))
        reports.append(residual_check(
            "H2", [("h xi", c) for c in matvec(h, xi)],
            sampler, notes=f"h = {label}"))
        reports.append(residual_check(
            "H3", [("trace h", esum(h[i][i] for i in range(dim))),
                   ("trace phi h", esum(t.phih[i][i] for i in range(dim)))],
            sampler, notes=f"h = {label}"))
        res = pair_residuals(
            dim, lambda i: [(1, t.g_h[i]), (-1, t.g_e_h[i])], 1)
        reports.append(residual_check(
            "H4", res, sampler, notes=f"g(hX,Y) - g(X,hY); h = {label}"))

    if cs.h_declared is not None:
        reports.append(residual_check(
            "H-COMP",
            pair_residuals(dim, lambda i: [(1, cs.h_declared[i]),
                                           (-1, h_comp[i])]),
            sampler,
            notes="declared h minus (1/2) Lie_xi phi",
            pass_notes="declared h matches the computed operator"))

    lie_g = [c for row in lie_xi_g(ws.nabla_eta) for c in row]
    killing = all(c.is_zero for c in lie_g)
    h_zero = all(c.is_zero for row in h_comp for c in row)
    if killing == h_zero:
        verdict, shown = PASS, "0"
    else:
        verdict = FAIL
        shown = next(str(c) for c in lie_g
                     if not c.is_zero) if not killing else "0"
    reports.append(CheckReport(
        "KILLING", verdict, shown, sampler.max_abs(lie_g),
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
