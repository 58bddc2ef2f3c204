"""Extraction of the (k, mu) structure functions and the identity battery.

Every identity is measured, never assumed: the battery substitutes the
supplied or extracted k and mu into each stated relation and reports the
exact residual.  Checks that need an unavailable function report
needs-input instead of guessing.
"""
from __future__ import annotations

from dataclasses import dataclass

from .curvature import riemann_on
from .frames import (
    covariant_derivative_tensor11,
    frame_pairing,
    matmul,
    outer,
    scaled_basis,
    wedge,
)
from .linalg import solve_two_unknowns
from .report import (FAIL, NEEDS_INPUT, PASS, CheckReport, join_notes,
                     pair_residuals, residual_check)
from .symcore import ONE, Expr, lincomb

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


def extract_k_mu(r_xi, wedge_eta, wedge_eta_h) -> NullityParams:
    """Solve R(E_i,E_j)xi = k [eta(E_j)E_i - eta(E_i)E_j]
    + mu [eta(E_j) h E_i - eta(E_i) h E_j] exactly over all pairs i < j
    and components l, from the table r_xi[i][j][l] of R(E_i,E_j)xi and
    the two wedge tables, of eta and of eta and h."""
    dim = len(r_xi)
    rows = [row for i in range(dim) for j in range(i + 1, dim)
            for row in zip(wedge_eta[i][j], wedge_eta_h[i][j], r_xi[i][j])
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
    """`residual_check` of `residuals` (a stream of (label, Expr), built
    from `k_mu(params)`) under the substitution policy: the check is
    needs-input only if the symbol of an indeterminate value survives in
    some canonical residual.  The stream is read one residual at a time
    and left at the first at which every indeterminate symbol has
    appeared, so no residual past that proof is built; otherwise what
    was read goes on to `residual_check`."""
    wanted = {name for name, v in zip(RESERVED_NAMES, (params.k, params.mu))
              if v is None}
    missing, read = set(), []
    for item in residuals:
        read.append(item)
        if wanted and item[1].num.terms:
            missing |= wanted & item[1].variables()
            if missing == wanted:
                break
    if missing:
        what = " and ".join(sorted(missing))
        flag = ", ".join(f"--{m}" for m in sorted(missing))
        return CheckReport(
            check_id, NEEDS_INPUT, "", None, notes=join_notes(
                notes, f"requires {what} (indeterminate here); declare via "
                       f"{flag}"))
    return residual_check(check_id, read, sampler, notes=notes)


def identity_battery(ws, h, params: NullityParams, h_label="") -> list:
    """Checks I3.1 through I3.13 for one h choice.  Each residual row is
    one `lincomb` of the terms of its relation, generated as its check
    reads it."""
    spec, conn, cs, sampler = ws.spec, ws.conn, ws.cs, ws.sampler
    r_table, nr_xi, ric = ws.r_table, ws.nr_xi, ws.ric
    t = ws.h_tables(h)
    dim = spec.dim
    n = spec.n
    g = spec.metric
    xi, eta, phi = cs.xi, cs.eta, cs.phi
    k, mu = k_mu(params)
    minus_k, minus_mu, one_k = -k, -mu, ONE - k
    note = f"h = {h_label}" if h_label else ""
    two_n = Expr.const(2 * n)
    minus_xi, minus_eta = (lincomb(dim, [(-1, v)]) for v in (xi, eta))
    mu_eta, two_n_k_eta = (lincomb(dim, [(c, eta)]) for c in (mu, two_n * k))
    # c_i = (1 - k) g(E_i, phi .) + g(E_i, h phi .)
    c_rows = [lincomb(dim, [(one_k, a), (1, b)])
              for a, b in zip(ws.g_phi, t.g_hphi)]
    reports = []

    res = ((f"(E{i + 1},E{j + 1})", c)
           for i in range(dim) for j in range(i + 1, dim)
           for c in lincomb(dim, [(1, ws.r_xi[i][j]),
                                  (minus_k, ws.wedge_eta[i][j]),
                                  (minus_mu, t.wedge_eta_h[i][j])]))
    reports.append(param_check("I3.1", params, res, sampler,
                               notes=join_notes(note, params.notes)))

    hh, phi2 = matmul(h, h), matmul(phi, phi)
    res = pair_residuals(dim, lambda i: [(1, hh[i]), (one_k, phi2[i])])
    reports.append(param_check("I3.2", params, res, sampler, notes=note))

    # (nabla_{E_i} phi) E_j - g(E_i + hE_i, E_j) xi + eta(E_j)(E_i + hE_i)
    idh, h_phi_idh, phih, h_cols = (tuple(zip(*m)) for m in (
        t.idh, t.h_phi_idh, t.phih, h))
    res = ((f"(E{i + 1},E{j + 1})", c) for i in range(dim)
           for j, col in enumerate(zip(*ws.nabla_phi(i)))
           for c in lincomb(dim, [(1, col), (t.g_idh[i][j], minus_xi),
                                  (eta[j], idh[i])]))
    reports.append(residual_check("I3.3", res, sampler, notes=note))

    res = ((f"(E{i + 1},E{j + 1})", c) for i in range(dim)
           for j, col in enumerate(zip(*covariant_derivative_tensor11(
               spec, conn, i, h)))
           for c in lincomb(dim, [(1, col), (c_rows[i][j], minus_xi),
                                  (minus_eta[j], h_phi_idh[i]),
                                  (mu_eta[i], phih[j])]))
    reports.append(param_check("I3.4", params, res, sampler, notes=note))

    # k g(E_i, .) + mu g(h E_i, .), and column i of k Id + mu h
    c_xi = [lincomb(dim, [(k, a), (mu, b)]) for a, b in zip(g, t.g_h)]
    k_mu_h = [lincomb(dim, [(1, scaled_basis(dim, i, k)), (mu, col)])
              for i, col in enumerate(h_cols)]
    res = ((f"(E{i + 1},E{j + 1})", c)
           for i in range(dim) for j in range(dim)
           for c in lincomb(dim, [(1, ws.r_of_xi[i][j]),
                                  (c_xi[i][j], minus_xi),
                                  (eta[j], k_mu_h[i])]))
    reports.append(param_check("I3.5", params, res, sampler, notes=note))

    # eta(X) g(Y, E_l) - eta(Y) g(X, E_l) = -wedge(eta, g); with hX, hY too
    wg, wgh = wedge(eta, g), wedge(eta, t.g_e_h)
    res = ((f"(E{i + 1},E{j + 1},E{l + 1})", c)
           for i in range(dim) for j in range(i + 1, dim)
           for l, c in enumerate(lincomb(dim, [
               *zip(eta, zip(*r_table[i][j])), (k, wg[i][j]),
               (mu, wgh[i][j])])))
    reports.append(param_check("I3.6", params, res, sampler, notes=note))

    res = ((f"X=E{i + 1}", c) for i, c in enumerate(lincomb(
        dim, [*zip(xi, zip(*ric.S)), (-1, two_n_k_eta)])))
    reports.append(param_check("I3.7", params, res, sampler, notes=note))

    q_phi, phi_q = matmul(ric.Q, phi), matmul(phi, ric.Q)
    coef = Expr.const(2) * (Expr.const(2 * (n - 1)) + mu)
    minus_coef = -coef
    res = pair_residuals(dim, lambda i: [(1, q_phi[i]), (-1, phi_q[i]),
                                         (minus_coef, t.hphi[i])])
    reports.append(param_check("I3.8", params, res, sampler, notes=note))

    # S - c1 g - c2 g(h., .) - c3 eta (x) eta
    c1 = Expr.const(2 * (n - 1)) - Expr.const(n) * mu
    c2 = Expr.const(2 * (n - 1)) + mu
    c3 = Expr.const(2 * (1 - n)) + Expr.const(n) * (Expr.const(2) * k + mu)
    minus_c1, minus_c2, minus_c3_eta = -c1, -c2, lincomb(dim, [(-c3, eta)])
    res = pair_residuals(dim, lambda i: [(1, ric.S[i]), (minus_c1, g[i]),
                                         (minus_c2, t.g_h[i]),
                                         (minus_c3_eta[i], eta)])
    reports.append(param_check("I3.9", params, res, sampler, notes=note))

    rhs = two_n * (Expr.const(2 * n - 2) + k - Expr.const(n) * mu)
    reports.append(param_check("I3.10", params, [("r", ric.r - rhs)],
                               sampler, notes=note))

    s_phi_phi = frame_pairing(phi, ric.S, phi)
    res = pair_residuals(dim, lambda i: [(1, s_phi_phi[i]), (-1, ric.S[i]),
                                         (two_n_k_eta[i], eta),
                                         (coef, t.g_h[i])])
    reports.append(param_check("I3.11", params, res, sampler, notes=note))

    res = pair_residuals(dim, lambda i: [(1, ws.nabla_eta[i]),
                                         (-1, t.g_idh_phi[i])])
    reports.append(residual_check(
        "I3.12", res, sampler,
        notes=join_notes(note, "stated relation lacks the second argument; "
                               "measured as g(X+hX, phi Y)")))

    w_phih = wedge(eta, t.phih)
    mu2_eta = lincomb(dim, [(mu * mu, eta)])
    # per W, the wedges of a_W = g(W + hW, phi .), and of eta and xi (x) c_W,
    # and R(E_i,E_j)(phi W + phi h W), each indexed [i][j][l]
    per_w = ((wedge(a_w), wedge(a_w, h), wedge(eta, outer(xi, c_w)),
              riemann_on(r_table, col))
             for a_w, c_w, col in zip(t.g_idh_phi, c_rows, zip(*t.phi_idh)))
    res = ((f"(E{w + 1};E{i + 1},E{j + 1})", c)
           for w, (wa, wah, wc, r_w) in enumerate(per_w)
           for i in range(dim) for j in range(i + 1, dim)
           for c in lincomb(dim, [
               (1, nr_xi[w][i][j]), (minus_k, wa[i][j]),
               (minus_mu, wah[i][j]), (minus_mu, wc[i][j]),
               (mu2_eta[w], w_phih[i][j]), (-1, r_w[i][j])]))
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
