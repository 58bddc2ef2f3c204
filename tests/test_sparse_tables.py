"""The frame and curvature table builders build only the rows that can
be nonzero, and the suites form only the residual entries that can be.

Each builder is checked against a dense reference, a copy of the loop it
replaced: every entry must be equal, and the kernel must do exactly the
same work (the same RationalFunction constructions, Poly products, gcds
and exact divisions), because each sum still gets the same nonzero
summands in the same order.  Seven builders do less than their
references, so their entries must be equal and no kernel count may
exceed the reference's, and `STRICTLY_FEWER` names the counts that must
fall: `compute_brackets` derives [E_i,E_j] for i < j only and mirrors
it; `koszul_connection` forms each E_i(g_jk) and each lowered bracket
g([E_i,E_j],E_k) once; `riemann` negates each bracket coefficient once
per plane, not each product; `nabla_riemann_table` reads the mirrored
rows of the skew R table where its reference negates each product, and
makes exactly its reference's products, gcds and exact divisions;
`riemann_on` contracts the rows i < j of a skew table and negates them
for j < i, where its reference contracts every pair; and `ricci` and
`covariant_ricci_table` take traces of R and nabla R where their
references contract S through g and g^-1 and differentiate it.
`symcore.lincomb`, which builds every residual row, is checked against
`dense_lincomb`, which forms every product: the values agree, no
operator gets a zero operand, and an all-zero row is the shared zero
row.  A residual entry whose every term has a zero factor is the shared
`ZERO`, and no operator is called for it.
"""

import hashlib
import sys
from fractions import Fraction
from collections import Counter
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

import _geometry_cases as gc
from cmverify import cli, curvature
from cmverify.contact import phi2_rows
from cmverify.curvature import (covariant_ricci_table, nabla_riemann_table,
                                ricci, riemann, riemann_on)
from cmverify.frames import (compute_brackets,
                             covariant_derivative_tensor11,
                             covariant_derivative_vector, dot, frame_apply,
                             koszul_connection, matvec, validate_frame,
                             wedge, zero_row)
from cmverify.specfile import load_spec, resolve_spec_path
from cmverify.symcore import (ONE, ZERO, Expr, esum, lincomb, parse_expr,
                              render)
from cmverify.symcore.poly import _P_ZERO, RationalFunction
from cmverify.workspace import Workspace

ROOT = Path(__file__).resolve().parent.parent
SPECS = {
    "heis5": ROOT / "bench" / "specs" / "heis5.cmspec",
    "example3d": resolve_spec_path("example3d"),
    "asym3": ROOT / "tests" / "specs" / "asym3.cmspec",
    "polymetric3": ROOT / "bench" / "specs" / "polymetric3.cmspec",
}
HEIS7 = ROOT / "bench" / "specs" / "heis7.cmspec"
UNI3 = ROOT / "tests" / "specs" / "uni3.cmspec"


# --- dense reference: the builders as they were before zero rows were
# skipped, kept here verbatim apart from names ---------------------------

def dense_compute_brackets(spec, a_inv):
    if spec.brackets is not None:
        return spec.brackets
    a = spec.act
    dim = spec.dim
    c = []
    for i in range(dim):
        row = []
        for j in range(dim):
            w = [frame_apply(spec, i, a[j][m]) - frame_apply(spec, j, a[i][m])
                 for m in range(dim)]
            row.append(tuple(
                esum(w[m] * a_inv[m][k] for m in range(dim))
                for k in range(dim)))
        c.append(tuple(row))
    return tuple(c)


def dense_koszul_connection(spec, brackets, ginv):
    g = spec.metric
    dim = spec.dim
    half = Expr.const(Fraction(1, 2))
    gamma = []
    for i in range(dim):
        gi = []
        for j in range(dim):
            rhs = []
            for k in range(dim):
                val = esum([
                    frame_apply(spec, i, g[j][k]),
                    frame_apply(spec, j, g[i][k]),
                    -frame_apply(spec, k, g[i][j]),
                ] + [brackets[i][j][m] * g[m][k]
                     - brackets[i][k][m] * g[m][j]
                     - brackets[j][k][m] * g[m][i]
                     for m in range(dim)])
                rhs.append(half * val)
            gi.append(tuple(dot(row, rhs) for row in ginv))
        gamma.append(tuple(gi))
    return tuple(gamma)


def dense_covariant_derivative_vector(spec, gamma, i, v):
    return tuple(frame_apply(spec, i, vk) + dot(v, gamma_k)
                 for vk, gamma_k in zip(v, zip(*gamma[i])))


def dense_skew_planes(dim, plane):
    zero = tuple(tuple(ZERO for _ in range(dim)) for _ in range(dim))
    table = [[zero] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            p = plane(i, j)
            table[i][j] = p
            table[j][i] = tuple(tuple(-x for x in row) for row in p)
    return tuple(tuple(row) for row in table)


def dense_riemann(spec, gamma, brackets):
    dim = spec.dim

    def plane(i, j):
        out = []
        for k in range(dim):
            first = dense_covariant_derivative_vector(spec, gamma, i,
                                                      gamma[j][k])
            second = dense_covariant_derivative_vector(spec, gamma, j,
                                                       gamma[i][k])
            out.append(tuple(
                esum([first[l], -second[l]]
                     + [-(brackets[i][j][m] * gamma[m][k][l])
                        for m in range(dim) if not brackets[i][j][m].is_zero])
                for l in range(dim)))
        return tuple(out)

    return dense_skew_planes(dim, plane)


def dense_riemann_on(table, z):
    return tuple(tuple(tuple(dot(z, col) for col in zip(*plane))
                       for plane in row) for row in table)


def dense_nabla_riemann_table(spec, gamma, r_table):
    dim = spec.dim

    def plane(w, i, j):
        out = []
        for k in range(dim):
            lead = dense_covariant_derivative_vector(spec, gamma, w,
                                                     r_table[i][j][k])
            corr = ([(gamma[w][i][m], r_table[m][j][k]) for m in range(dim)]
                    + [(gamma[w][j][m], r_table[i][m][k]) for m in range(dim)]
                    + [(gamma[w][k][m], r_table[i][j][m]) for m in range(dim)])
            corr = [(c, r) for c, r in corr if not c.is_zero]
            out.append(tuple(
                esum([lead[l]]
                     + [-(c * r[l]) for c, r in corr if not r[l].is_zero])
                for l in range(dim)))
        return tuple(out)

    return tuple(dense_skew_planes(dim, lambda i, j, w=w: plane(w, i, j))
                 for w in range(dim))


def dense_ricci(spec, r_table, ginv):
    dim = spec.dim
    g = spec.metric
    s_rows = []
    for j in range(dim):
        row = []
        for k in range(dim):
            row.append(esum(
                ginv[a][b] * r_table[a][j][k][l] * g[l][b]
                for a in range(dim) for b in range(dim) for l in range(dim)
                if not r_table[a][j][k][l].is_zero))
        s_rows.append(tuple(row))
    s = tuple(s_rows)
    r_scal = esum(ginv[j][k] * s[j][k]
                  for j in range(dim) for k in range(dim))
    q = tuple(
        tuple(esum(ginv[i][k] * s[k][j] for k in range(dim))
              for j in range(dim))
        for i in range(dim))
    return s, r_scal, q


def ricci_parts(r_table, ginv):
    data = ricci(r_table, ginv)
    return data.S, data.r, data.Q


def dense_phi2_rows(cs, rows):
    eta = [(m, c) for m, c in enumerate(cs.eta) if not c.is_zero]
    out = []
    for v in rows:
        e = esum([c * v[m] for m, c in eta])
        out.append(tuple(x * e - c for c, x in zip(v, cs.xi)))
    return out


def dense_wedge(a, b=None):
    """a(E_j)(B E_i)^l - a(E_i)(B E_j)^l, every entry formed."""
    dim = len(a)

    def col(i, l):
        if b is None:
            return ONE if l == i else ZERO
        return b[l][i]

    return tuple(tuple(tuple(a[j] * col(i, l) - a[i] * col(j, l)
                             for l in range(dim))
                       for j in range(dim))
                 for i in range(dim))


def dense_covariant_derivative_tensor11(spec, gamma, i, t):
    cols = [tuple(a - b for a, b in zip(
                covariant_derivative_vector(spec, gamma, i, col),
                matvec(t, gamma[i][j])))
            for j, col in enumerate(zip(*t))]
    return tuple(zip(*cols))


def dense_covariant_derivative_tensor02(spec, gamma, i, t):
    dim = spec.dim
    gi = gamma[i]
    cols = tuple(zip(*t))
    return tuple(
        tuple(frame_apply(spec, i, t[j][k]) - dot(gi[j], cols[k])
              - dot(gi[k], t[j])
              for k in range(dim))
        for j in range(dim))


def dense_lincomb(n, terms):
    """Entry l is the sum of c * row[l] over every term (c, row), every
    product formed and added with `+`; an int c is lifted with
    `Expr.const`."""
    terms = [(c if c.__class__ is Expr else Expr.const(c), row)
             for c, row in terms]
    out = []
    for l in range(n):
        acc = ZERO
        for c, row in terms:
            acc = acc + c * row[l]
        out.append(acc)
    return tuple(out)


# --- kernel counts (the `kernel` fixture is in conftest.py) -------------

def _no_more(kernel, seen, dense, sparse):
    """Run the thunks `dense` and `sparse`; every entry must agree and no
    kernel count of `sparse` may exceed that of `dense`.  Adds the dense
    counts to `seen`; returns the result and both counts."""
    kernel.clear()
    want = dense()
    dense_counts = Counter(kernel)
    kernel.clear()
    got = sparse()
    sparse_counts = Counter(kernel)
    assert got == want
    assert sparse_counts <= dense_counts
    seen.update(dense_counts)
    return got, dense_counts, sparse_counts


def _same(kernel, seen, dense, sparse, *args):
    """Run both builders on `args`; every entry and every kernel count
    must agree.  Adds the counts to `seen`; returns the sparse result."""
    got, dense_counts, sparse_counts = _no_more(
        kernel, seen, lambda: dense(*args), lambda: sparse(*args))
    assert sparse_counts == dense_counts, sparse.__name__
    return got


def _check_tables(kernel, spec):
    """The frame and curvature table builders against their dense
    references.  Returns the kernel calls made by the references, the
    (dense, sparse) counts of each builder that may make fewer calls than
    its reference, by name, and the tables built."""
    seen = Counter()
    fewer = {}

    def no_more(name, dense, sparse):
        got, *fewer[name] = _no_more(kernel, seen, dense, sparse)
        return got

    rep = validate_frame(spec)
    ginv = rep.ginv
    brackets = no_more("brackets",
                       lambda: dense_compute_brackets(spec, rep.a_inv),
                       lambda: compute_brackets(spec, rep.a_inv))
    conn = no_more("koszul",
                   lambda: dense_koszul_connection(spec, brackets, ginv),
                   lambda: koszul_connection(spec, brackets, ginv))
    r_table = no_more("riemann",
                      lambda: dense_riemann(spec, conn, brackets),
                      lambda: riemann(spec, conn, brackets))
    nr_table = no_more("nabla_riemann",
                       lambda: dense_nabla_riemann_table(spec, conn, r_table),
                       lambda: nabla_riemann_table(spec, conn, r_table))
    # only constructions may fall: nabla R forms the reference's products,
    # each with one factor negated
    dense, sparse = fewer["nabla_riemann"]
    for count in ("__mul__", "poly_gcd", "poly_divexact"):
        assert sparse[count] == dense[count], count
    s, r, _ = no_more("ricci", lambda: dense_ricci(spec, r_table, ginv),
                      lambda: ricci_parts(r_table, ginv))
    nabla_s = _no_more(
        kernel, seen,
        lambda: tuple(dense_covariant_derivative_tensor02(spec, conn, w, s)
                      for w in range(spec.dim)),
        lambda: covariant_ricci_table(nr_table))[0]
    return seen, fewer, SimpleNamespace(ginv=ginv, r_table=r_table,
                                        nr_table=nr_table, r=r,
                                        nabla_s=nabla_s)


def _check_builders(kernel, spec, cs):
    """Every builder against its dense reference: the tables, then their
    contractions with xi and their phi^2 projections.  Returns the kernel
    calls made by the references, and the (dense, sparse) counts of each
    builder that may make fewer calls than its reference, by name."""
    seen, fewer, t = _check_tables(kernel, spec)
    mixed = tuple(ONE if a % 2 else Expr.sym(spec.coords.names[0])
                  for a in range(spec.dim))
    # riemann_on contracts the rows i < j only and mirrors them, so it is
    # counted over every table and z against the reference's every pair
    on = fewer["riemann_on"] = [Counter(), Counter()]
    for z in (cs.xi, mixed, zero_row(spec.dim)):
        for table in (t.r_table, *t.nr_table):
            _, dense, sparse = _no_more(
                kernel, seen, lambda: dense_riemann_on(table, z),
                lambda: riemann_on(table, z))
            on[0] += dense
            on[1] += sparse
    planes = [(i, j, s) for i in range(spec.dim)
              for j in range(i + 1, spec.dim) for s in range(spec.dim)]
    rows = [t.r_table[i][j][s] for i, j, s in planes]
    rows += [plane[i][j][s] for plane in t.nr_table for i, j, s in planes]
    _same(kernel, seen, dense_phi2_rows, phi2_rows, cs, rows)
    return seen, fewer


# The kernel count that each builder makes strictly fewer of than its
# dense reference, by spec: brackets are derived for i < j only (heis5:
# 4 Poly products, not 8); Koszul forms each E_i(g_jk) and each lowered
# bracket g([E_i,E_j],E_k) once (heis5: 26 products, not 36; example3d:
# 10 products, not 20); R negates each bracket coefficient once per
# plane, not each of its products (heis5: 68 constructions, not 74);
# nabla R reads the mirrored R rows where its reference negates each
# product (heis5: 304 constructions, not 440; asym3 and polymetric3: 76,
# not 92; example3d: 16, not 18); and S = tr R forms no product with an
# entry of g or g^-1.  example3d's Koszul gcds were 7, not 12, until a
# product stopped running a gcd for a constant numerator: every gcd the
# repeats made had one, so both builders now make 2, and its products
# are the count that falls.
STRICTLY_FEWER = {
    "heis5": {"brackets": "__mul__", "koszul": "__mul__",
              "riemann": "__init__", "nabla_riemann": "__init__",
              "ricci": "__mul__", "riemann_on": "__mul__"},
    "example3d": {"koszul": "__mul__", "nabla_riemann": "__init__",
                  "riemann_on": "__mul__"},
    "asym3": {"nabla_riemann": "__init__", "riemann_on": "__mul__"},
    "polymetric3": {"nabla_riemann": "__init__", "ricci": "__mul__",
                    "riemann_on": "__mul__"},
}


@pytest.mark.parametrize("name,gcds", [("asym3", True), ("example3d", True),
                                       ("heis5", False),
                                       ("polymetric3", True)])
def test_builders_match_dense_reference_on_specs(kernel, name, gcds):
    ws = Workspace(load_spec(SPECS[name]))
    seen, fewer = _check_builders(kernel, ws.spec, ws.cs)
    assert seen["__init__"] and seen["__mul__"]
    assert bool(seen["poly_gcd"]) == gcds
    for builder, count in STRICTLY_FEWER.get(name, {}).items():
        dense, sparse = fewer[builder]
        assert sparse[count] < dense[count], (builder, count)


def test_brackets_are_derived_for_i_below_j_only(monkeypatch):
    # heis5 is given by its frame: each pair i < j takes 2 dim frame
    # derivatives, of the coordinate components of E_j and of E_i, and
    # the mirrored pairs and the diagonal take none.  Deriving all 25
    # pairs took 250.
    spec = load_spec(SPECS["heis5"]).spec
    a_inv = validate_frame(spec).a_inv
    calls = []
    frames = sys.modules["cmverify.frames"]
    original = frames.frame_apply
    monkeypatch.setattr(frames, "frame_apply",
                        lambda *args: calls.append(1) or original(*args))
    got = compute_brackets(spec, a_inv)
    monkeypatch.undo()
    assert len(calls) == 2 * spec.dim * spec.dim * (spec.dim - 1) // 2 == 100
    assert got == dense_compute_brackets(spec, a_inv)


def test_riemann_on_contracts_the_pairs_i_below_j_only(kernel):
    # R(E_i,E_j)xi and each (nabla_{E_w} R)(E_i,E_j)xi on heis7: the rows
    # i < j are contracted with xi and `skew` negates them for j < i, so
    # 72 products are formed where contracting every pair formed 144.  A
    # mirrored row is one negation where it was one product by xi's
    # coefficient 1, so the constructions stay 144.
    ws = Workspace(load_spec(HEIS7))
    tables, xi = (ws.r_table, *ws.nr_table), ws.cs.xi
    kernel.clear()
    got = [riemann_on(t, xi) for t in tables]
    assert (kernel["__mul__"], kernel["__init__"]) == (72, 144)
    assert got == [dense_riemann_on(t, xi) for t in tables]


RANDOM_FRAMES = [(3, 0.7, range(10)), (5, 0.3, range(6))]


@pytest.mark.parametrize("dim,density,seeds", RANDOM_FRAMES,
                         ids=["dim3", "dim5"])
def test_builders_match_dense_reference_on_random_frames(kernel, dim,
                                                         density, seeds):
    # The last frame vector stands in for xi and eta: phi2_rows and the
    # contraction with xi read nothing else of a contact structure.
    seen = Counter()
    for seed in seeds:
        spec = gc.random_spec(seed, dim, density)
        last = gc.basis(dim - 1, dim)
        seen += _check_builders(kernel, spec,
                                SimpleNamespace(xi=last, eta=last))[0]
    assert seen["__init__"] and seen["__mul__"]


@pytest.mark.parametrize("dim,density,seeds", RANDOM_FRAMES,
                         ids=["dim3", "dim5"])
def test_tables_match_dense_reference_and_bianchi_with_polynomial_metric(
        kernel, dim, density, seeds):
    # With g_11 = 1 + x^2, g^-1, the connection and the curvature carry
    # denominators, so the table builders meet gcds and exact divisions
    # on frames beyond the pinned specs, and the three Bianchi identities
    # hold exactly on the tables they build.  The contractions of these
    # tables are left to the specs above, to keep tier-1 short.
    seen = Counter()
    for seed in seeds:
        spec = gc.random_spec(seed, dim, density, polynomial_metric=True)
        counts, _, t = _check_tables(kernel, spec)
        seen += counts
        residuals = (gc.first_bianchi_residuals(t.r_table)
                     + gc.second_bianchi_residuals(t.nr_table)
                     + gc.contracted_bianchi_residuals(spec, t.ginv,
                                                       t.nabla_s, t.r))
        assert residuals and all(e.is_zero for e in residuals), seed
    assert seen["poly_gcd"] and seen["poly_divexact"]


def test_random_spec_default_dimension_keeps_the_property_frames():
    # The property suite's 50 frames, as rendered before random_spec took
    # a dimension.
    digest = hashlib.sha256()
    for seed in range(50):
        spec = gc.random_spec(seed)
        digest.update(repr((spec.coords.names,
                            [[render(c) for c in row]
                             for row in spec.act])).encode())
    assert digest.hexdigest() == (
        "3abe345f86a7edce20422fcb04633778287c9856c6ece9177d7239f74c108d8d")


def _nonzero(row):
    return any(not c.is_zero for c in row)


def test_zero_rows_do_no_work(monkeypatch):
    # heis7's R has 108 nonzero entries of 2,401: nabla_riemann_table
    # differentiates only the nonzero R rows R(E_i,E_j)E_k, i < j, once
    # per direction, and passes every other row on as the shared zero row.
    ws = Workspace(load_spec(HEIS7))
    spec, r_table = ws.spec, ws.r_table
    dim = spec.dim
    zero = zero_row(dim)
    derived = []
    original = curvature.covariant_derivative_vector

    def recorded(spec, gamma, w, v):
        derived.append((w, v))
        return original(spec, gamma, w, v)

    monkeypatch.setattr(curvature, "covariant_derivative_vector", recorded)
    nr_table = nabla_riemann_table(spec, ws.conn, r_table)
    live = [r_table[i][j][k] for i in range(dim) for j in range(i + 1, dim)
            for k in range(dim) if _nonzero(r_table[i][j][k])]
    assert 0 < len(live) < dim * dim * (dim - 1) // 2
    assert Counter(w for w, _ in derived) == dict.fromkeys(range(dim),
                                                           len(live))
    assert all(_nonzero(v) for _, v in derived)
    # A row is structurally zero when its R row is zero and no nonzero
    # connection coefficient pairs with a nonzero R row in the terms
    # that apply nabla_{E_w} to E_i, E_j or E_k; each such row is the
    # shared zero row.
    gamma = ws.conn
    dead = 0
    for w, i, j, k in product(range(dim), repeat=4):
        pairs = ([(gamma[w][i][m], r_table[m][j][k]) for m in range(dim)]
                 + [(gamma[w][j][m], r_table[i][m][k]) for m in range(dim)]
                 + [(gamma[w][k][m], r_table[i][j][m]) for m in range(dim)])
        if i == j or not (_nonzero(r_table[i][j][k]) or any(
                not c.is_zero and _nonzero(r) for c, r in pairs)):
            assert nr_table[w][i][j][k] is zero
            dead += 1
    assert dead > dim ** 4 // 2

    # phi^2 of a zero row is that row, and no sum is formed for it
    summed = []
    contact = sys.modules["cmverify.contact"]
    monkeypatch.setattr(contact, "esum",
                        lambda items: summed.append(1) or esum(items))
    rows = [zero, tuple(ZERO for _ in range(dim))]
    projected = phi2_rows(ws.cs, rows)
    assert all(p is row for p, row in zip(projected, rows))
    assert summed == []


def _check_wedge(monkeypatch, a, b):
    """wedge(a, b) equals the dense loop, multiplies no zero operand, and
    gives every all-zero pair the shared zero row."""
    want = dense_wedge(a, b)
    products = []
    mul = RationalFunction.__mul__

    def recorded(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(RationalFunction, "__mul__", recorded)
    got = wedge(a, b)
    monkeypatch.setattr(RationalFunction, "__mul__", mul)
    assert got == want
    assert all(not x.is_zero and not y.is_zero for x, y in products)
    zero = zero_row(len(a))
    assert all((row is zero) == all(c.is_zero for c in row)
               for plane in got for row in plane)
    return len(products)


@pytest.mark.parametrize("path", [SPECS["heis5"], SPECS["asym3"], UNI3],
                         ids=["heis5", "asym3", "uni3"])
def test_wedge_matches_dense_reference_on_specs(monkeypatch, path):
    ws = Workspace(load_spec(path))
    eta, g = ws.cs.eta, ws.spec.metric
    for _, h in ws.variants:
        t = ws.h_tables(h)
        for a in (eta, t.g_idh_phi[0], t.g_idh[-1]):
            for b in (None, h, g, t.g_e_h, t.phih, ws.cs.phi):
                _check_wedge(monkeypatch, a, b)


def test_wedge_matches_dense_reference_on_random_frames(monkeypatch):
    products = 0
    for seed in range(6):
        spec = gc.random_spec(seed, 5, 0.3)
        act = spec.act
        mixed = tuple(x + y for x, y in zip(act[-1], act[2]))
        for a in (act[-1], mixed, gc.basis(0, 5)):
            for b in (None, act, tuple(zip(*act)), spec.metric):
                products += _check_wedge(monkeypatch, a, b)
    assert products


def _check_derivatives(kernel, spec, conn, ops) -> Counter:
    """nabla_{E_i} of each (1,1) operator in `ops`, for every direction
    i, against the dense reference."""
    seen = Counter()
    for i in range(spec.dim):
        for t in ops:
            _same(kernel, seen, dense_covariant_derivative_tensor11,
                  covariant_derivative_tensor11, spec, conn, i, t)
    return seen


@pytest.mark.parametrize("name", ["heis5", "asym3"])
def test_covariant_derivatives_match_dense_reference_on_specs(kernel, name):
    ws = Workspace(load_spec(SPECS[name]))
    ops = [ws.cs.phi] + [h for _, h in ws.variants]
    seen = _check_derivatives(kernel, ws.spec, ws.conn, ops)
    assert seen["__init__"] and seen["__mul__"]


def test_covariant_derivatives_match_dense_reference_on_random_frames(
        kernel):
    seen = Counter()
    for seed in range(6):
        spec = gc.random_spec(seed, 5, 0.3)
        rep = validate_frame(spec)
        conn = koszul_connection(spec, compute_brackets(spec, rep.a_inv),
                                 rep.ginv)
        act = spec.act
        seen += _check_derivatives(kernel, spec, conn,
                                   [act, tuple(zip(*act))])
    assert seen["__init__"] and seen["__mul__"]


def test_lincomb_matches_dense_reference(monkeypatch):
    syms = {"x", "y"}
    rows = [tuple(parse_expr(e, syms) for e in row) for row in (
        ("x/(1 + y)", "0", "1/2", "y"),
        ("0", "y^2 - x", "0", "-1/(x*y)"),
        ("x/(1 + y)", "1", "0", "0"))]
    rows += [zero_row(4), (ZERO,) * 4]
    coefs = [1, -1, ZERO, ONE, Expr.const(Fraction(-3, 2)),
             parse_expr("x - 1/y", syms)]
    terms = list(product(coefs, rows))
    cases = [[t] for t in terms] + [list(p) for p in product(terms, repeat=2)]
    # rows 0 and 2 cancel in entry 0; a row minus itself cancels whole
    cases += [[(1, rows[0]), (-1, rows[2]), (coefs[5], rows[1])],
              [(coefs[5], rows[1]), (-1, rows[1]), (ONE, rows[1])],
              [(1, rows[0]), (-1, rows[0])]]
    wants = [dense_lincomb(4, case) for case in cases]
    zero_operands = []
    for name in OPERATORS:
        def counted(*args, _op=getattr(RationalFunction, name)):
            if any(isinstance(a, RationalFunction) and not a.num.terms
                   for a in args):
                zero_operands.append(args)
            return _op(*args)
        monkeypatch.setattr(RationalFunction, name, counted)
    gots = [lincomb(4, case) for case in cases]
    monkeypatch.undo()
    assert gots == wants
    assert zero_operands == []
    assert all((got is zero_row(4)) == all(c.is_zero for c in got)
               for got in gots)
    assert sum(got is zero_row(4) for got in gots) > len(cases) // 4
    assert lincomb(4, cases[-1]) is zero_row(4)


# The residual lists whose rows are built by `lincomb`: each entry is
# formed only where some term has no zero factor.
SPARSE_CHECKS = ("I2.1", "I2.2", "I2.3", "I2.4", "H1", "H4", "H-COMP",
                 "I3.1", "I3.2", "I3.3", "I3.4", "I3.5", "I3.6", "I3.7",
                 "I3.8", "I3.9", "I3.11", "I3.12", "I3.13", "T4.7", "T4.9b",
                 "T4.12", "T4.14", "T4.14.cond", "T4.17")
OPERATORS = ("__add__", "__sub__", "__mul__", "__neg__")


def _record_residuals(path, patch) -> list:
    """(check id, residual list) of each SPARSE_CHECKS list that `all`
    builds on `path`; `patch(module, name, value)` installs the
    recorders."""
    lists = []
    for mod in (sys.modules["cmverify.contact"],
                sys.modules["cmverify.nullity"],
                sys.modules["cmverify.recurrence"]):
        # the residual list is argument 1 of residual_check and 2 of
        # param_check
        for name, at in (("residual_check", 0), ("param_check", 1)):
            if not hasattr(mod, name):
                continue

            def recorded(check_id, *args, _fn=getattr(mod, name), _at=at,
                         **kwargs):
                # a suite may hand over a generator: read it whole once
                args = list(args)
                args[_at] = list(args[_at])
                if check_id in SPARSE_CHECKS:
                    lists.append((check_id, args[_at]))
                return _fn(check_id, *args, **kwargs)
            patch(mod, name, recorded)
    cli.run(["all", str(path)])
    return lists


def _structural_oracle(patch):
    """Evaluate every entry as written and track which values some term
    with no zero factor reaches: a nonzero value, or a zero that a sum or
    difference of such values cancels to (kept as a fresh zero so that
    `ZERO` itself never carries the mark).  Returns the test `dead(v)`:
    v is zero and no such term reached it."""
    reached = {}

    def live(v):
        return bool(v.num.terms) or id(v) in reached

    for name in ("__add__", "__sub__"):
        def tracked(a, b, _op=getattr(RationalFunction, name)):
            result = _op(a, b)
            if not result.num.terms and (live(a) or live(b)):
                if result is ZERO:
                    result = RationalFunction(_P_ZERO)
                reached[id(result)] = result
            return result
        patch(RationalFunction, name, tracked)
    # every module that imports lincomb forms every product instead
    for name, mod in list(sys.modules.items()):
        if (name.startswith("cmverify.") and "symcore" not in name
                and getattr(mod, "lincomb", None) is lincomb):
            patch(mod, "lincomb", dense_lincomb)
    return lambda v: not live(v)


@pytest.mark.parametrize("path", [HEIS7, SPECS["asym3"], UNI3],
                         ids=["heis7", "asym3", "uni3"])
def test_structurally_zero_residual_entries_are_shared_zero(capsys,
                                                             monkeypatch,
                                                             path):
    with monkeypatch.context() as m:
        dead = _structural_oracle(m.setattr)
        dense = _record_residuals(path, m.setattr)
        dead_slots = [[dead(e) for _, e in res] for _, res in dense]
    # Each operator below, and `esum` given any summand, returns a fresh
    # zero in place of `ZERO`, so an entry that is `ZERO` was formed by no
    # operator and no sum.
    zero_operands = Counter()
    for name in OPERATORS:
        def counted(*args, _name=name, _op=getattr(RationalFunction, name)):
            if any(not a.num.terms for a in args):
                zero_operands[_name] += 1
            result = _op(*args)
            return RationalFunction(_P_ZERO) if result is ZERO else result
        monkeypatch.setattr(RationalFunction, name, counted)

    def fresh_esum(items):
        items = list(items)
        result = esum(items)
        return RationalFunction(_P_ZERO) if result is ZERO and items \
            else result
    for name, mod in list(sys.modules.items()):
        if (name.startswith("cmverify")
                and getattr(mod, "esum", None) is esum):
            monkeypatch.setattr(mod, "esum", fresh_esum)
    sparse = _record_residuals(path, monkeypatch.setattr)
    capsys.readouterr()
    assert [c for c, _ in sparse] == [c for c, _ in dense]
    # of the three specs only asym3 declares an h, which H-COMP needs
    skipped = set() if path == SPECS["asym3"] else {"H-COMP"}
    assert {c for c, _ in sparse} == set(SPARSE_CHECKS) - skipped
    for (check_id, res), (_, want), dead_res in zip(sparse, dense,
                                                    dead_slots):
        assert res == want, check_id
        assert all(e is ZERO for (_, e), d in zip(res, dead_res) if d), \
            check_id
    assert sum(map(sum, dead_slots)) > sum(map(len, dead_slots)) // 2
    if path == HEIS7:
        # `all heis7` made 59,120 operator calls with a zero operand when
        # every entry was formed, and 14,094 when the entries no term
        # reaches were skipped but a live entry still formed its zero
        # terms; 5,676 once every residual row is one `lincomb` (5,190
        # after later changes), and 1,659 once the phi^2 projection and
        # the Koszul and R builders form no term with a zero factor; 1,414
        # after later changes, and still 1,414 once nabla R builds each
        # row with one `lincomb`.
        assert 0 < sum(zero_operands.values()) <= 1_500


def test_solve_recurrence_builds_only_the_tables_it_reads(capsys, kernel):
    # `solve recurrence` reads k and mu, so it builds wedge(eta) once and
    # of the tables of each h only wedge(eta, h); building every table of
    # each h made 186 values, and wedge(eta) once per h 152.  `wedge`
    # negates a(E_i) once per i, not once per pair (i, j), which saves
    # one more value in the model tensor G.  149 became 139 when Koszul
    # formed each lowered bracket and each E_i(g_jk) once (8 fewer),
    # brackets were derived for i < j only and R negated each bracket
    # coefficient once per plane (one fewer each), 137 when nabla R
    # read the mirrored R rows in place of negating its products, and 132
    # when `esum` stopped building a partial sum per rational summand
    # (3 fewer) and `a - b` stopped building -b before the sum (2 fewer).
    kernel.clear()
    cli.run(["solve", "recurrence", "--kind", "full", "example3d"])
    capsys.readouterr()
    assert kernel["__init__"] == 132
