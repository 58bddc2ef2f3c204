"""The geometry of one manifold file, built lazily and once.

A Workspace is the one place tensors are built.  Every suite reads the
brackets, connection, curvature and its contractions with xi, nabla R,
the model tensor G, Ricci data, contact structure, g(E_i, phi E_j),
nabla xi, each nabla_{E_w} phi, the h operators and the tables built
from each h from it instead of rebuilding them, and each is built on
first use, so a command builds only what its suites read: `check
axioms` never builds R or nabla R.
S and nabla S are traces of R and nabla R, so a command that reads
nabla S, such as `solve recurrence --kind ricci`, builds nabla R.
Each is a frame table in the conventions of `frames`.  Every derivative
of xi, eta and phi comes off the connection: nabla eta, d eta and
Lie_xi g off nabla xi, and h = (1/2) Lie_xi phi off nabla xi and
`nabla_phi(w)` along xi, so only validation, Koszul and R read the
brackets.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .contact import (HTables, build_structure, compute_h, deta_tensor,
                      h_variants)
from .curvature import (covariant_ricci_table, g_tensor_table,
                        nabla_riemann_table, ricci, riemann, riemann_on)
from .frames import (compute_brackets, covariant_derivative_tensor11,
                     covariant_derivative_vector, frame_pairing,
                     koszul_connection, matvec, validate_frame, wedge)
from .nullity import extract_k_mu, resolve_params
from .sampling import DEFAULT_POINTS, DEFAULT_SEED, DEFAULT_TOL, Sampler
from .symcore import (DivisionByZeroExpr, ExprSyntaxError, UnknownSymbol,
                      lincomb, parse_expr)


class FrameInvalid(ValueError):
    """Frame validation reported an error."""


class BadOverride(ValueError):
    """A `k` or `mu` override does not parse; the message names the
    option, as in `--k: ...`."""


class Workspace:
    """Lazily built geometric state shared by every suite.

    `k` and `mu` are override expressions (text) and are parsed here, so a
    malformed override fails before any suite runs, with a `BadOverride`
    naming its option.  `h_tables(h)` holds the `contact.HTables` of each
    distinct h operator, and `nabla_phi(w)` nabla_{E_w} phi for each
    direction w.
    """

    def __init__(self, parsed, k=None, mu=None, seed=DEFAULT_SEED,
                 points=DEFAULT_POINTS, tol=DEFAULT_TOL,
                 deta_factor=Fraction(1, 2)):
        self.parsed = parsed
        self.spec = parsed.spec
        symbols = self.spec.symbols()
        self.declared = (
            parsed.declared_k if k is None else _override("k", k, symbols),
            parsed.declared_mu if mu is None
            else _override("mu", mu, symbols))
        self.sampler = Sampler(self.spec, seed=seed, points=points, tol=tol)
        self.deta_factor = deta_factor
        self._h_tables, self._nabla_phi = {}, {}

    @cached_property
    def validation(self):
        rep = validate_frame(self.spec)
        if not rep.ok:
            bad = "; ".join(f"{i.name}: {i.detail}" for i in rep.issues
                            if i.level == "error")
            raise FrameInvalid(f"frame validation failed ({bad})")
        return rep

    @cached_property
    def brackets(self):
        return compute_brackets(self.spec, self.validation.a_inv)

    @cached_property
    def ginv(self):
        return self.validation.ginv

    @cached_property
    def conn(self):
        """The Levi-Civita connection, as its table gamma[i][j][k]."""
        return koszul_connection(self.spec, self.brackets, self.ginv)

    @cached_property
    def r_table(self):
        return riemann(self.spec, self.conn, self.brackets)

    @cached_property
    def nr_table(self):
        return nabla_riemann_table(self.spec, self.conn, self.r_table)

    @cached_property
    def r_xi(self):
        """R(E_i,E_j)xi, indexed [i][j][l]."""
        return riemann_on(self.r_table, self.cs.xi)

    @cached_property
    def r_of_xi(self):
        """R(xi, E_i)E_j, indexed [i][j][l]."""
        dim, r_table = self.spec.dim, self.r_table
        return [[lincomb(dim, [(x, r_table[a][i][j])
                               for a, x in enumerate(self.cs.xi)])
                 for j in range(dim)] for i in range(dim)]

    @cached_property
    def nr_xi(self):
        """(nabla_{E_w} R)(E_i,E_j)xi, indexed [w][i][j][l]."""
        return [riemann_on(plane, self.cs.xi) for plane in self.nr_table]

    @cached_property
    def wedge_eta(self):
        """eta(E_j) E_i - eta(E_i) E_j, indexed [i][j][l]"""
        return wedge(self.cs.eta)

    @cached_property
    def g_table(self):
        """G(E_i,E_j)E_k of the model G(X,Y)Z = g(Y,Z)X - g(X,Z)Y."""
        return g_tensor_table(self.spec)

    @cached_property
    def ric(self):
        return ricci(self.r_table, self.ginv)

    @cached_property
    def nabla_s(self):
        """(nabla_{E_w} S) for each frame direction w, the trace of
        nabla R."""
        return covariant_ricci_table(self.nr_table)

    @cached_property
    def cs(self):
        return build_structure(self.spec, self.parsed.decl)

    @cached_property
    def g_phi(self):
        """g(E_i, phi E_j), indexed [i][j]."""
        return frame_pairing(None, self.spec.metric, self.cs.phi)

    @cached_property
    def nabla_xi(self):
        """nabla_{E_i} xi, indexed [i][l]."""
        return tuple(covariant_derivative_vector(self.spec, self.conn, i,
                                                 self.cs.xi)
                     for i in range(self.spec.dim))

    @cached_property
    def nabla_eta(self):
        """(nabla_{E_i} eta)(E_j) = g(nabla_{E_i} xi, E_j), indexed [i][j];
        eta = g(., xi) and nabla g = 0."""
        return tuple(matvec(self.spec.metric, v) for v in self.nabla_xi)

    def nabla_phi(self, w):
        """nabla_{E_w} phi, built on first use for each direction w."""
        if w not in self._nabla_phi:
            self._nabla_phi[w] = covariant_derivative_tensor11(
                self.spec, self.conn, w, self.cs.phi)
        return self._nabla_phi[w]

    @cached_property
    def h_computed(self):
        return compute_h(self.cs, self.nabla_xi, self.nabla_phi)

    @cached_property
    def variants(self):
        return h_variants(self.cs, self.h_computed)

    def h_tables(self, h) -> HTables:
        if h not in self._h_tables:
            self._h_tables[h] = HTables(self.spec.metric, self.cs, h)
        return self._h_tables[h]

    @cached_property
    def deta(self):
        return deta_tensor(self.nabla_eta, self.deta_factor)

    @cached_property
    def params(self):
        """Per h-variant: (label, h, extracted, used)."""
        k, mu = self.declared
        out = []
        for label, h in self.variants:
            ext = extract_k_mu(self.r_xi, self.wedge_eta,
                               self.h_tables(h).wedge_eta_h)
            out.append((label, h, ext, resolve_params(ext, k, mu)))
        return out


def _override(option, text, symbols):
    try:
        return parse_expr(text, symbols)
    except (ExprSyntaxError, UnknownSymbol, DivisionByZeroExpr) as exc:
        raise BadOverride(f"--{option}: {exc}") from None
