"""Extraction of the (k, mu) structure functions and the identity battery.

Every identity is measured, never assumed: the battery substitutes the
supplied or extracted k and mu into each stated relation and reports the
exact residual.  Checks that need an unavailable function report
needs-input instead of guessing.
"""
from __future__ import annotations

from dataclasses import dataclass

from .curvature import riemann_apply
from .frames import (
    FrameSpec,
    Tensor11,
    VectorField,
    basis_vector,
    covariant_derivative_oneform,
    covariant_derivative_tensor11,
    metric_pairing,
)
from .linalg import solve_two_unknowns
from .report import FAIL, NEEDS_INPUT, PASS, CheckReport, residual_check
from .symcore import Expr, esum

K_NAME = "k"
MU_NAME = "mu"
RESERVED_NAMES = (K_NAME, MU_NAME)


@dataclass
class NullityParams:
    """k and mu as exact expressions; None marks an indeterminate value."""

    k: Expr | None
    mu: Expr | None
    source: str            # extracted | declared
    status: str            # unique | k-indeterminate | mu-indeterminate |
                           # underdetermined | inconsistent
    notes: str = ""
    kernel: str = ""


def extract_k_mu(spec: FrameSpec, r_table, cs, h: Tensor11) -> NullityParams:
    """Solve R(E_i,E_j)xi = k [eta(E_j)E_i - eta(E_i)E_j]
    + mu [eta(E_j) h E_i - eta(E_i) h E_j] exactly over all pairs."""
    dim = spec.dim
    vecs = [basis_vector(dim, i) for i in range(dim)]
    eta = cs.eta
    rows = []
    for i in range(dim):
        for j in range(i + 1, dim):
            lhs = riemann_apply(r_table, vecs[i], vecs[j], cs.xi)
            ei, ej = eta.components[i], eta.components[j]
            ka = vecs[i].scale(ej) - vecs[j].scale(ei)
            ma = h.column(i).scale(ej) - h.column(j).scale(ei)
            for l in range(dim):
                ca, cb = ka.components[l], ma.components[l]
                rhs = lhs.components[l]
                if ca.is_zero and cb.is_zero and rhs.is_zero:
                    continue
                rows.append((ca, cb, rhs))
    if not rows:
        return NullityParams(None, None, "extracted", "underdetermined",
                             notes="nullity equation is vacuous",
                             kernel="k free, mu free")
    mu_column_zero = all(cb.is_zero for _, cb, _ in rows)
    sol = solve_two_unknowns(rows)
    if sol.status == "inconsistent":
        worst = next(r for r in sol.residuals if not r.is_zero)
        return NullityParams(
            None, None, "extracted", "inconsistent",
            notes=f"no exact solution; sample residual {worst}")
    if sol.status == "unique":
        return NullityParams(sol.alpha, sol.beta, "extracted", "unique")
    if mu_column_zero:
        return NullityParams(sol.alpha, None, "extracted",
                             "mu-indeterminate",
                             notes="h-terms vanish, mu is unconstrained",
                             kernel=sol.kernel)
    if sol.kernel == "alpha free":
        return NullityParams(None, sol.beta, "extracted", "k-indeterminate",
                             kernel=sol.kernel)
    return NullityParams(None, None, "extracted", "underdetermined",
                         notes="k and mu only jointly constrained",
                         kernel=sol.kernel)


def resolve_params(extracted: NullityParams, declared_k: Expr | None,
                   declared_mu: Expr | None) -> NullityParams:
    """Declared values take precedence; disagreement with a determinate
    extraction is recorded, not repaired."""
    if declared_k is None and declared_mu is None:
        return extracted
    notes = []
    k = extracted.k
    mu = extracted.mu
    if declared_k is not None:
        if k is not None and not (k - declared_k).is_zero:
            notes.append(f"declared k = {declared_k} differs from "
                         f"extracted k = {k}")
        k = declared_k
    if declared_mu is not None:
        if mu is not None and not (mu - declared_mu).is_zero:
            notes.append(f"declared mu = {declared_mu} differs from "
                         f"extracted mu = {mu}")
        mu = declared_mu
    if extracted.status == "inconsistent":
        notes.append("extraction itself was inconsistent")
    return NullityParams(k, mu, "declared",
                         "unique" if (k is not None and mu is not None)
                         else extracted.status,
                         notes="; ".join(notes), kernel=extracted.kernel)


def param_check(check_id, params: NullityParams, builder, sampler=None,
                notes="") -> CheckReport:
    """Run `builder(k, mu) -> [(label, Expr)]` under the substitution
    policy: indeterminate values enter as fresh symbols, and the check is
    needs-input only if they survive in some canonical residual."""
    k = params.k if params.k is not None else Expr.sym(K_NAME)
    mu = params.mu if params.mu is not None else Expr.sym(MU_NAME)
    residuals = builder(k, mu)
    missing = set()
    for _, e in residuals:
        if e.is_zero:
            continue
        names = e.variables()
        if params.k is None and K_NAME in names:
            missing.add(K_NAME)
        if params.mu is None and MU_NAME in names:
            missing.add(MU_NAME)
    if missing:
        what = " and ".join(sorted(missing))
        flag = ", ".join(f"--{m}" for m in sorted(missing))
        return CheckReport(
            check_id, NEEDS_INPUT, "", None,
            notes=(f"{notes}; " if notes else "")
                  + f"requires {what} (indeterminate here); declare via {flag}")
    return residual_check(check_id, residuals, sampler, notes=notes)


def identity_battery(ws, h: Tensor11, params: NullityParams,
                     h_label="") -> list:
    """Checks I3.1 through I3.13 for one h choice."""
    spec, conn, cs, sampler = ws.spec, ws.conn, ws.cs, ws.sampler
    r_table, nr_table, ric = ws.r_table, ws.nr_table, ws.ric
    dim = spec.dim
    n = spec.n
    vecs = [basis_vector(dim, i) for i in range(dim)]
    eta = cs.eta
    phi = cs.phi
    g = lambda x, y: metric_pairing(spec, x, y)
    note = f"h = {h_label}" if h_label else ""
    extra = f"; {params.notes}" if params.notes else ""
    reports = []

    def vaddmul(*pairs):
        acc = VectorField(tuple(Expr.const(0) for _ in range(dim)))
        for coef, vec in pairs:
            acc = acc + vec.scale(coef)
        return acc

    def b_31(k, mu):
        out = []
        for i in range(dim):
            for j in range(i + 1, dim):
                lhs = riemann_apply(r_table, vecs[i], vecs[j], cs.xi)
                ei, ej = eta.components[i], eta.components[j]
                rhs = vaddmul((k * ej, vecs[i]), (-(k * ei), vecs[j]),
                              (mu * ej, h.column(i)),
                              (-(mu * ei), h.column(j)))
                diff = lhs - rhs
                out += [(f"(E{i + 1},E{j + 1})", c) for c in diff.components]
        return out
    reports.append(param_check("I3.1", params, b_31, sampler,
                               notes=(note + extra).strip("; ")))

    def b_32(k, mu):
        lhs = h.compose(h)
        rhs = phi.compose(phi).scale(k - Expr.const(1))
        diff = lhs - rhs
        return [(f"(E{i + 1},E{j + 1})", diff.m[i][j])
                for i in range(dim) for j in range(dim)]
    reports.append(param_check("I3.2", params, b_32, sampler, notes=note))

    res = []
    for i in range(dim):
        nabla_phi = covariant_derivative_tensor11(spec, conn, i, phi)
        xh = vecs[i] + h.column(i)
        for j in range(dim):
            rhs = cs.xi.scale(g(xh, vecs[j])) - xh.scale(eta.components[j])
            diff = nabla_phi.column(j) - rhs
            res += [(f"(E{i + 1},E{j + 1})", c) for c in diff.components]
    reports.append(residual_check("I3.3", res, sampler, notes=note))

    def b_34(k, mu):
        out = []
        one = Expr.const(1)
        hphi = h.compose(phi)
        phih = phi.compose(h)
        for i in range(dim):
            nabla_h = covariant_derivative_tensor11(spec, conn, i, h)
            for j in range(dim):
                coef = ((one - k) * g(vecs[i], phi.column(j))
                        + g(vecs[i], hphi.column(j)))
                rhs = (cs.xi.scale(coef)
                       + h.apply(phi.column(i)
                                 + phih.column(i)).scale(eta.components[j])
                       - phih.column(j).scale(mu * eta.components[i]))
                diff = nabla_h.column(j) - rhs
                out += [(f"(E{i + 1},E{j + 1})", c) for c in diff.components]
        return out
    reports.append(param_check("I3.4", params, b_34, sampler, notes=note))

    def b_35(k, mu):
        out = []
        for i in range(dim):
            for j in range(dim):
                lhs = riemann_apply(r_table, cs.xi, vecs[i], vecs[j])
                rhs = vaddmul(
                    (k * g(vecs[i], vecs[j]), cs.xi),
                    (-(k * eta.components[j]), vecs[i]),
                    (mu * g(h.column(i), vecs[j]), cs.xi),
                    (-(mu * eta.components[j]), h.column(i)))
                diff = lhs - rhs
                out += [(f"(E{i + 1},E{j + 1})", c) for c in diff.components]
        return out
    reports.append(param_check("I3.5", params, b_35, sampler, notes=note))

    def b_36(k, mu):
        out = []
        for i in range(dim):
            for j in range(i + 1, dim):
                for l in range(dim):
                    lhs = eta(riemann_apply(r_table, vecs[i], vecs[j],
                                            vecs[l]))
                    ei, ej = eta.components[i], eta.components[j]
                    rhs = (k * (g(vecs[j], vecs[l]) * ei
                                - g(vecs[i], vecs[l]) * ej)
                           + mu * (g(h.column(j), vecs[l]) * ei
                                   - g(h.column(i), vecs[l]) * ej))
                    out.append((f"(E{i + 1},E{j + 1},E{l + 1})", lhs - rhs))
        return out
    reports.append(param_check("I3.6", params, b_36, sampler, notes=note))

    two_n = Expr.const(2 * n)

    def b_37(k, mu):
        return [(f"X=E{i + 1}",
                 ric.S.apply(vecs[i], cs.xi)
                 - two_n * k * eta.components[i])
                for i in range(dim)]
    reports.append(param_check("I3.7", params, b_37, sampler, notes=note))

    def b_38(k, mu):
        lhs = ric.Q.compose(phi) - phi.compose(ric.Q)
        coef = Expr.const(2) * (Expr.const(2 * (n - 1)) + mu)
        rhs = h.compose(phi).scale(coef)
        diff = lhs - rhs
        return [(f"(E{i + 1},E{j + 1})", diff.m[i][j])
                for i in range(dim) for j in range(dim)]
    reports.append(param_check("I3.8", params, b_38, sampler, notes=note))

    def b_39(k, mu):
        out = []
        c1 = Expr.const(2 * (n - 1)) - Expr.const(n) * mu
        c2 = Expr.const(2 * (n - 1)) + mu
        c3 = (Expr.const(2 * (1 - n))
              + Expr.const(n) * (Expr.const(2) * k + mu))
        for i in range(dim):
            for j in range(dim):
                rhs = (c1 * g(vecs[i], vecs[j])
                       + c2 * g(h.column(i), vecs[j])
                       + c3 * eta.components[i] * eta.components[j])
                out.append((f"(E{i + 1},E{j + 1})",
                            ric.S.m[i][j] - rhs))
        return out
    reports.append(param_check("I3.9", params, b_39, sampler, notes=note))

    def b_310(k, mu):
        rhs = two_n * (Expr.const(2 * n - 2) + k - Expr.const(n) * mu)
        return [("r", ric.r - rhs)]
    reports.append(param_check("I3.10", params, b_310, sampler, notes=note))

    def b_311(k, mu):
        out = []
        for i in range(dim):
            for j in range(dim):
                lhs = ric.S.apply(phi.column(i), phi.column(j))
                rhs = (ric.S.m[i][j]
                       - two_n * k * eta.components[i] * eta.components[j]
                       - Expr.const(2) * (Expr.const(2 * n - 2) + mu)
                       * g(h.column(i), vecs[j]))
                out.append((f"(E{i + 1},E{j + 1})", lhs - rhs))
        return out
    reports.append(param_check("I3.11", params, b_311, sampler, notes=note))

    res = []
    for i in range(dim):
        nabla_eta = covariant_derivative_oneform(spec, conn, i, eta)
        xh = vecs[i] + h.column(i)
        for j in range(dim):
            res.append((f"(E{i + 1},E{j + 1})",
                        nabla_eta.components[j] - g(xh, phi.column(j))))
    reports.append(residual_check(
        "I3.12", res, sampler,
        notes=(note + "; " if note else "")
              + "stated relation lacks the second argument; "
                "measured as g(X+hX, phi Y)"))

    def b_313(k, mu):
        out = []
        one = Expr.const(1)
        hphi = h.compose(phi)
        phih = phi.compose(h)
        for w in range(dim):
            ew = vecs[w]
            wh = ew + h.column(w)
            for i in range(dim):
                for j in range(dim):
                    if i == j:
                        continue
                    lhs_comp = [esum(cs.xi.components[m]
                                     * nr_table[w][i][j][m][l]
                                     for m in range(dim))
                                for l in range(dim)]
                    lhs = VectorField(tuple(lhs_comp))
                    a_y = g(wh, phi.column(j))
                    a_x = g(wh, phi.column(i))
                    cx = ((one - k) * g(ew, phi.column(i))
                          + g(ew, hphi.column(i)))
                    cy = ((one - k) * g(ew, phi.column(j))
                          + g(ew, hphi.column(j)))
                    inner = vaddmul(
                        (a_y, h.column(i)), (-a_x, h.column(j)),
                        (cx * eta.components[j], cs.xi),
                        (-(cy * eta.components[i]), cs.xi),
                        (mu * eta.components[w] * eta.components[i],
                         phih.column(j)),
                        (-(mu * eta.components[w] * eta.components[j]),
                         phih.column(i)))
                    rhs = (vaddmul((k * a_y, vecs[i]), (-(k * a_x), vecs[j]))
                           + inner.scale(mu)
                           + riemann_apply(r_table, vecs[i], vecs[j],
                                           phi.column(w))
                           + riemann_apply(r_table, vecs[i], vecs[j],
                                           phih.column(w)))
                    diff = lhs - rhs
                    out += [(f"(E{w + 1};E{i + 1},E{j + 1})", c)
                            for c in diff.components]
        return out
    reports.append(param_check("I3.13", params, b_313, sampler, notes=note))
    return reports


def extraction_report(params: NullityParams, used: NullityParams,
                      h_label="") -> CheckReport:
    """Informational entry describing the extraction outcome."""
    fmt = lambda v: "indeterminate" if v is None else str(v)
    bits = [f"extracted k = {fmt(params.k)}, mu = {fmt(params.mu)}",
            f"status {params.status}"]
    if params.kernel:
        bits.append(f"kernel {params.kernel}")
    if params.notes:
        bits.append(params.notes)
    if used is not params:
        bits.append(f"using declared k = {fmt(used.k)}, mu = {fmt(used.mu)}")
        if used.notes:
            bits.append(used.notes)
    if h_label:
        bits.append(f"h = {h_label}")
    verdict = FAIL if params.status == "inconsistent" else PASS
    return CheckReport("NULLITY", verdict, "0", None, "; ".join(bits))
