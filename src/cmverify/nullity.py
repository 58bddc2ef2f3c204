"""Extraction of the (k, mu) structure functions and the identity battery.

Every identity is measured, never assumed: the battery substitutes the
supplied or extracted k and mu into each stated relation and reports the
exact residual.  Checks that need an unavailable function report
needs-input instead of guessing.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .curvature import riemann_on
from .frames import (
    covariant_derivative_tensor11,
    dot,
    frame_pairing,
    matmul,
    outer,
    wedge,
)
from .linalg import solve_two_unknowns
from .report import (FAIL, NEEDS_INPUT, PASS, CheckReport, join_notes,
                     residual_check)
from .symcore import ONE, ZERO, Expr, live_slots

K_NAME = "k"
MU_NAME = "mu"
RESERVED_NAMES = (K_NAME, MU_NAME)


@dataclass
class NullityParams:
    """k and mu as exact expressions; None marks an indeterminate value."""

    k: Expr | None
    mu: Expr | None
    status: str            # unique | k-indeterminate | mu-indeterminate |
                           # underdetermined | inconsistent
    notes: str = ""
    kernel: str = ""


def extract_k_mu(r_xi, t) -> NullityParams:
    """Solve R(E_i,E_j)xi = k [eta(E_j)E_i - eta(E_i)E_j]
    + mu [eta(E_j) h E_i - eta(E_i) h E_j] exactly over all pairs i < j
    and components l, from the table r_xi[i][j][l] of R(E_i,E_j)xi and
    the two wedge tables of the `contact.HTables` t of h."""
    dim = len(r_xi)
    rows = [row for i in range(dim) for j in range(i + 1, dim)
            for row in zip(t.wedge_eta[i][j], t.wedge_eta_h[i][j], r_xi[i][j])
            if any([c.num.terms for c in row])]
    if not rows:
        return NullityParams(None, None, "underdetermined",
                             notes="nullity equation is vacuous",
                             kernel="k free, mu free")
    mu_column_zero = all(cb.is_zero for _, cb, _ in rows)
    sol = solve_two_unknowns(rows)
    if sol.status == "inconsistent":
        return NullityParams(
            None, None, "inconsistent",
            notes=f"no exact solution; sample residual {sol.worst}")
    if sol.status == "unique":
        return NullityParams(sol.alpha, sol.beta, "unique")
    if mu_column_zero:
        return NullityParams(sol.alpha, None, "mu-indeterminate",
                             notes="h-terms vanish, mu is unconstrained",
                             kernel=sol.kernel)
    if sol.kernel == "alpha free":
        return NullityParams(None, sol.beta, "k-indeterminate",
                             kernel=sol.kernel)
    return NullityParams(None, None, "underdetermined",
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
    return NullityParams(k, mu, "unique" if (k is not None and mu is not None)
                         else extracted.status,
                         notes="; ".join(notes), kernel=extracted.kernel)


def k_mu(params: NullityParams) -> tuple:
    """(k, mu) of `params`, with the fresh symbol `k` or `mu` standing for
    an indeterminate value."""
    return (Expr.sym(K_NAME) if params.k is None else params.k,
            Expr.sym(MU_NAME) if params.mu is None else params.mu)


def param_check(check_id, params: NullityParams, residuals, sampler=None,
                notes="") -> CheckReport:
    """`residual_check` of `residuals` ([(label, Expr)], built from
    `k_mu(params)`) under the substitution policy: the check is needs-input
    only if the symbol of an indeterminate value survives in some
    canonical residual."""
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
            check_id, NEEDS_INPUT, "", None, notes=join_notes(
                notes, f"requires {what} (indeterminate here); declare via "
                       f"{flag}"))
    return residual_check(check_id, residuals, sampler, notes=notes)


def identity_battery(ws, h, params: NullityParams, h_label="") -> list:
    """Checks I3.1 through I3.13 for one h choice."""
    spec, conn, cs, sampler = ws.spec, ws.conn, ws.cs, ws.sampler
    r_table, nr_xi, ric = ws.r_table, ws.nr_xi, ws.ric
    t = ws.h_tables(h)
    dim = spec.dim
    n = spec.n
    g = spec.metric
    xi, eta, phi = cs.xi, cs.eta, cs.phi
    g_phi, g_h, g_hphi = ws.g_phi, t.g_h, t.g_hphi
    k, mu = k_mu(params)
    note = f"h = {h_label}" if h_label else ""
    two_n = Expr.const(2 * n)
    reports = []

    res = [(f"(E{i + 1},E{j + 1})", c - (k * a + mu * b))
           for i in range(dim) for j in range(i + 1, dim)
           for a, b, c in zip(t.wedge_eta[i][j], t.wedge_eta_h[i][j],
                              ws.r_xi[i][j])]
    reports.append(param_check("I3.1", params, res, sampler,
                               notes=join_notes(note, params.notes)))

    lhs, f = matmul(h, h), k - ONE
    rhs = [[f * c for c in row] for row in matmul(phi, phi)]
    res = [(f"(E{i + 1},E{j + 1})", lhs[i][j] - rhs[i][j])
           for i in range(dim) for j in range(dim)]
    reports.append(param_check("I3.2", params, res, sampler, notes=note))

    # each residual row below is indexed by l and has one label; an entry
    # is formed only where `live_slots` finds a term with no zero factor
    idh, h_phi_idh, phih = (tuple(zip(*m)) for m in (t.idh, t.h_phi_idh,
                                                      t.phih))
    res = []
    for i in range(dim):
        nabla_phi = zip(*covariant_derivative_tensor11(spec, conn, i, phi))
        for j, col in enumerate(nabla_phi):
            # (nabla_{E_i} phi) E_j - (g(E_i + h E_i, E_j) xi
            #                          - eta(E_j)(E_i + h E_i))
            a, e, x = t.g_idh[i][j], eta[j], idh[i]
            label = f"(E{i + 1},E{j + 1})"
            res += [(label, col[l] - (a * xi[l] - e * x[l]) if m else ZERO)
                    for l, m in enumerate(live_slots(dim, (col,), (a, xi),
                                                     (e, x)))]
    reports.append(residual_check("I3.3", res, sampler, notes=note))

    res = []
    for i in range(dim):
        nabla_h = zip(*covariant_derivative_tensor11(spec, conn, i, h))
        mu_eta = mu * eta[i]
        for j, col in enumerate(nabla_h):
            coef = (ONE - k) * g_phi[i][j] + g_hphi[i][j]
            e, x, y = eta[j], h_phi_idh[i], phih[j]
            label = f"(E{i + 1},E{j + 1})"
            res += [(label, col[l] - (coef * xi[l] + e * x[l]
                                      - mu_eta * y[l]) if m else ZERO)
                    for l, m in enumerate(live_slots(
                        dim, (col,), (coef, xi), (e, x), (mu_eta, y)))]
    reports.append(param_check("I3.4", params, res, sampler, notes=note))

    res = []
    for i in range(dim):
        # column i of the operator k Id + mu h
        k_mu_h = [k * (ONE if l == i else ZERO) + mu * h[l][i]
                  for l in range(dim)]
        for j in range(dim):
            c_xi = k * g[i][j] + mu * g_h[i][j]
            r, e = ws.r_of_xi[i][j], eta[j]
            label = f"(E{i + 1},E{j + 1})"
            res += [(label, r[l] - (c_xi * xi[l] - e * k_mu_h[l])
                     if m else ZERO)
                    for l, m in enumerate(live_slots(
                        dim, (r,), (c_xi, xi), (e, k_mu_h)))]
    reports.append(param_check("I3.5", params, res, sampler, notes=note))

    # eta(X) g(Y, E_l) - eta(Y) g(X, E_l) = -wedge(eta, g); with hX, hY too
    wg, wgh = wedge(eta, g), wedge(eta, t.g_e_h)
    res = [(f"(E{i + 1},E{j + 1},E{l + 1})", dot(eta, r_table[i][j][l])
            + (k * wg[i][j][l] + mu * wgh[i][j][l]))
           for i in range(dim) for j in range(i + 1, dim) for l in range(dim)]
    reports.append(param_check("I3.6", params, res, sampler, notes=note))

    res = [(f"X=E{i + 1}", dot(ric.S[i], xi) - two_n * k * eta[i])
           for i in range(dim)]
    reports.append(param_check("I3.7", params, res, sampler, notes=note))

    q_phi, phi_q = matmul(ric.Q, phi), matmul(phi, ric.Q)
    coef = Expr.const(2) * (Expr.const(2 * (n - 1)) + mu)
    res = [(f"(E{i + 1},E{j + 1})",
            q_phi[i][j] - phi_q[i][j] - coef * t.hphi[i][j])
           for i in range(dim) for j in range(dim)]
    reports.append(param_check("I3.8", params, res, sampler, notes=note))

    c1 = Expr.const(2 * (n - 1)) - Expr.const(n) * mu
    c2 = Expr.const(2 * (n - 1)) + mu
    c3 = Expr.const(2 * (1 - n)) + Expr.const(n) * (Expr.const(2) * k + mu)
    res = [(f"(E{i + 1},E{j + 1})", ric.S[i][j]
            - (c1 * g[i][j] + c2 * g_h[i][j] + c3 * eta[i] * eta[j]))
           for i in range(dim) for j in range(dim)]
    reports.append(param_check("I3.9", params, res, sampler, notes=note))

    rhs = two_n * (Expr.const(2 * n - 2) + k - Expr.const(n) * mu)
    reports.append(param_check("I3.10", params, [("r", ric.r - rhs)],
                               sampler, notes=note))

    s_phi_phi = frame_pairing(phi, ric.S, phi)
    res = [(f"(E{i + 1},E{j + 1})", s_phi_phi[i][j]
            - (ric.S[i][j] - two_n * k * eta[i] * eta[j]
               - Expr.const(2) * (Expr.const(2 * n - 2) + mu) * g_h[i][j]))
           for i in range(dim) for j in range(dim)]
    reports.append(param_check("I3.11", params, res, sampler, notes=note))

    res = [(f"(E{i + 1},E{j + 1})", ws.nabla_eta[i][j] - t.g_idh_phi[i][j])
           for i in range(dim) for j in range(dim)]
    reports.append(residual_check(
        "I3.12", res, sampler,
        notes=join_notes(note, "stated relation lacks the second argument; "
                               "measured as g(X+hX, phi Y)")))

    # R(E_i,E_j)(phi W + phi h W), indexed [w][i][j][l]
    r_phi_idh = [riemann_on(r_table, col) for col in zip(*t.phi_idh)]
    w_phih = wedge(eta, t.phih)
    res = []
    for w in range(dim):
        # a_W = g(W + hW, phi .) and c_W = (1 - k) g(W, phi .) + g(W, h phi .)
        a_w = t.g_idh_phi[w]
        c_w = [(ONE - k) * x + y for x, y in zip(g_phi[w], g_hphi[w])]
        wa, wah, wc = wedge(a_w), wedge(a_w, h), wedge(eta, outer(xi, c_w))
        mu_ew = mu * eta[w]
        for i, j in permutations(range(dim), 2):
            nr, a, ah, c = nr_xi[w][i][j], wa[i][j], wah[i][j], wc[i][j]
            y, r = w_phih[i][j], r_phi_idh[w][i][j]
            label = f"(E{w + 1};E{i + 1},E{j + 1})"
            res += [(label, nr[l] - (k * a[l] + mu * (ah[l] + c[l]
                                                      - mu_ew * y[l])
                                     + r[l]) if m else ZERO)
                    for l, m in enumerate(live_slots(
                        dim, (nr,), (k, a), (mu, ah), (mu, c),
                        (mu, mu_ew, y), (r,)))]
    reports.append(param_check("I3.13", params, res, sampler, notes=note))
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
