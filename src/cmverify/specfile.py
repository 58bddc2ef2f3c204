"""Line-oriented manifold description files.

Grammar (one directive per line, `#` starts a comment):

    manifold <name>
    coords <id> <id> ...
    assume <coord> != <rational>
    param <id> ...
    frame-mode vector|bracket
    vector E<i> = <expr> d<coord> [+ <expr> d<coord> ...]
    bracket [E<i>,E<j>] = <expr> E<k> [+ ...]
    act E<i> : <coord> -> <expr>
    metric identity
    metric g<i><j> = <expr>
    contact xi = E<i>
    contact phi : E<i> -> <expr> E<j> [+ ...]
    contact h : E<i> -> <expr> E<j> [+ ...]
    contact eta : <expr> E<i> [+ ...]
    declare k = <expr>
    declare mu = <expr>

A right-hand side of `0` denotes the zero field.  Unknown directives are
errors; nothing is silently ignored.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path

from .contact import ContactDecl
from .frames import (
    BracketMode,
    CoordSystem,
    CoordinateMode,
    DomainConstraint,
    FrameSpec,
)
from .nullity import RESERVED_NAMES
from .symcore import (
    ONE,
    ZERO,
    DivisionByZeroExpr,
    Expr,
    ExprSyntaxError,
    UnknownSymbol,
    parse_tokens,
    tokenize,
)

_ID_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_FRAME_RE = re.compile(r"^E(\d+)$")
_BRACKET_RE = re.compile(r"^\[E(\d+),E(\d+)\]$")
_METRIC_RE = re.compile(r"^g(\d)(\d)$")

_PASS1 = {"manifold", "coords", "assume", "param", "frame-mode"}
_PASS2 = {"vector", "bracket", "act", "metric", "contact", "declare"}


class SpecFileError(Exception):
    def __init__(self, message, line_no=None, col=None):
        loc = ""
        if line_no is not None:
            loc = f"line {line_no}"
            if col is not None:
                loc += f", col {col}"
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line_no = line_no
        self.col = col


@dataclass
class ParsedSpec:
    name: str
    spec: FrameSpec
    decl: ContactDecl
    declared_k: Expr | None
    declared_mu: Expr | None
    sha256: str = ""  # of the file `load_spec` read; "" for parsed text


def _numbered_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if body.strip():
            yield line_no, body


class _Loader:
    def __init__(self, text: str, fallback_name: str):
        self.text = text
        self.name = fallback_name
        self.coords: list = []
        self.constraints: list = []
        self.params: list = []
        self.mode: str | None = None
        self.symbols: set = set()

    def err(self, message, line_no=None, col=None):
        raise SpecFileError(message, line_no, col)

    # -- expression plumbing -------------------------------------------

    def parse_expr_at(self, fragment, line_no, col0) -> Expr:
        try:
            toks = tokenize(fragment)
            if not toks:
                self.err("missing expression", line_no, col0 + 1)
            return parse_tokens(toks, self.symbols, len(fragment))
        except ExprSyntaxError as e:
            self.err(str(e), line_no, col0 + e.position + 1)
        except (UnknownSymbol, DivisionByZeroExpr) as e:
            self.err(str(e), line_no, col0 + 1)

    def parse_row(self, fragment, markers, line_no, col0) -> tuple:
        """Split `<expr> <marker> [+ <expr> <marker> ...]`, parse each
        coefficient and return them as a row, at index `markers[marker]`;
        a marker without a term, and every one for `0` alone, gets ZERO."""
        try:
            toks = tokenize(fragment)
        except ExprSyntaxError as e:
            self.err(str(e), line_no, col0 + e.position + 1)
        if not toks:
            self.err("missing right-hand side", line_no, col0 + 1)
        depth = 0
        coef: list = []
        out = []
        after_marker = False
        for tok in toks:
            kind, value, pos = tok
            if after_marker:
                if kind == "op" and value in "+-":
                    after_marker = False
                    coef = [] if value == "+" else [tok]
                    continue
                self.err("expected '+' or '-' after frame term",
                         line_no, col0 + pos + 1)
            if kind == "op" and value == "(":
                depth += 1
            elif kind == "op" and value == ")":
                depth -= 1
            if kind == "name" and depth == 0 and value in markers:
                if any(m == value for m, _ in out):
                    self.err(f"repeated term {value}", line_no,
                             col0 + pos + 1)
                if not coef:
                    coef_expr = ONE
                elif len(coef) == 1 and coef[0][:2] == ("op", "-"):
                    coef_expr = Expr.const(-1)
                else:
                    try:
                        coef_expr = parse_tokens(coef, self.symbols, pos)
                    except ExprSyntaxError as e:
                        self.err(str(e), line_no, col0 + e.position + 1)
                    except (UnknownSymbol, DivisionByZeroExpr) as e:
                        self.err(str(e), line_no, col0 + coef[0][2] + 1)
                out.append((value, coef_expr))
                coef = []
                after_marker = True
                continue
            coef.append(tok)
        if out and not after_marker:
            at = coef[0][2] + 1 if coef else len(fragment)
            self.err("dangling tokens after last frame term", line_no,
                     col0 + at)
        if not out:
            value = self.parse_expr_at(fragment, line_no, col0)
            if not value.is_zero:
                self.err("right-hand side has no frame term and is not 0",
                         line_no, col0 + 1)
        row = [ZERO] * len(markers)
        for marker, coef in out:
            row[markers[marker]] = coef
        return tuple(row)

    def frame_index(self, token, line_no, col) -> int:
        m = _FRAME_RE.match(token)
        dim = len(self.coords)
        if not m or not (1 <= int(m.group(1)) <= dim):
            self.err(f"expected a frame name E1..E{dim}, got {token!r}",
                     line_no, col)
        return int(m.group(1)) - 1

    # -- pass 1 --------------------------------------------------------

    def structural(self, line_no, body):
        words = body.split()
        key = words[0]
        if key == "manifold":
            if len(words) != 2:
                self.err("manifold takes exactly one name", line_no)
            self.name = words[1]
        elif key == "coords":
            if self.coords:
                self.err("coords declared twice", line_no)
            if len(words) < 2:
                self.err("coords needs at least one name", line_no)
            for w in words[1:]:
                self.check_fresh_name(w, line_no)
                self.coords.append(w)
        elif key == "param":
            for w in words[1:]:
                self.check_fresh_name(w, line_no)
                self.params.append(w)
            if len(words) < 2:
                self.err("param needs at least one name", line_no)
        elif key == "assume":
            m = re.match(r"^assume\s+(\w+)\s*!=\s*(-?\d+(?:/\d+)?)$", body)
            if not m:
                self.err("assume must look like: assume <coord> != "
                         "<rational>", line_no)
            coord = m.group(1)
            if coord not in self.coords:
                self.err(f"assume references unknown coordinate {coord!r}",
                         line_no)
            try:
                value = Fraction(m.group(2))
            except ZeroDivisionError:
                self.err(f"assume value {m.group(2)} has a zero denominator",
                         line_no)
            self.constraints.append(DomainConstraint(coord, value))
        elif key == "frame-mode":
            if self.mode is not None:
                self.err("frame-mode declared twice", line_no)
            if len(words) != 2 or words[1] not in ("vector", "bracket"):
                self.err("frame-mode must be 'vector' or 'bracket'", line_no)
            self.mode = words[1]

    def check_fresh_name(self, w, line_no):
        if not _ID_RE.match(w):
            self.err(f"invalid identifier {w!r}", line_no)
        if w in RESERVED_NAMES:
            self.err(f"{w!r} is reserved for the nullity functions", line_no)
        if _FRAME_RE.match(w):
            self.err(f"{w!r} collides with frame names", line_no)
        if w in self.coords or w in self.params:
            self.err(f"duplicate name {w!r}", line_no)

    # -- pass 2 --------------------------------------------------------

    def load(self) -> ParsedSpec:
        lines = list(_numbered_lines(self.text))
        for line_no, body in lines:
            key = body.split()[0]
            if key in _PASS1:
                self.structural(line_no, body)
            elif key not in _PASS2:
                self.err(f"unknown directive {key!r}", line_no)
        if not self.coords:
            self.err("no coords declared")
        if self.mode is None:
            self.err("no frame-mode declared")
        for c in self.coords:
            marker = "d" + c
            if marker in self.coords or marker in self.params:
                self.err(f"name {marker!r} collides with the basis marker "
                         f"for coordinate {c!r}")
        self.symbols = set(self.coords) | set(self.params)
        dim = len(self.coords)

        vec_rows: dict = {}
        brackets: dict = {}
        act: dict = {}
        metric_identity = False
        metric_entries: dict = {}
        xi = None
        phi_cols: dict = {}
        h_cols: dict = {}
        eta = None
        declared: dict = {}

        d_markers = {"d" + c: j for j, c in enumerate(self.coords)}
        e_markers = {f"E{i + 1}": i for i in range(dim)}

        for line_no, body in lines:
            words = body.split()
            key = words[0]
            if key in _PASS1:
                continue
            if key == "vector":
                if self.mode != "vector":
                    self.err("vector line in bracket mode", line_no)
                m = re.match(r"^vector\s+(\S+)\s*=\s*(.*)$", body)
                if not m:
                    self.err("vector must look like: vector E<i> = ...",
                             line_no)
                i = self.frame_index(m.group(1), line_no,
                                     body.find(m.group(1)) + 1)
                if i in vec_rows:
                    self.err(f"duplicate vector line for E{i + 1}", line_no)
                vec_rows[i] = self.parse_row(m.group(2), d_markers, line_no,
                                             m.start(2))
            elif key == "bracket":
                if self.mode != "bracket":
                    self.err("bracket line in vector mode", line_no)
                m = re.match(r"^bracket\s+(\S+)\s*=\s*(.*)$", body)
                if not m:
                    self.err("bracket must look like: bracket [E<i>,E<j>] "
                             "= ...", line_no)
                bm = _BRACKET_RE.match(m.group(1))
                if not bm:
                    self.err(f"bad bracket pair {m.group(1)!r}", line_no)
                i, j = int(bm.group(1)) - 1, int(bm.group(2)) - 1
                if not (0 <= i < dim and 0 <= j < dim):
                    self.err("bracket frame index out of range", line_no)
                if i == j:
                    self.err("bracket of a field with itself is ZERO",
                             line_no)
                if (i, j) in brackets or (j, i) in brackets:
                    self.err(f"duplicate bracket for [E{i + 1},E{j + 1}]",
                             line_no)
                brackets[(i, j)] = self.parse_row(m.group(2), e_markers,
                                                  line_no, m.start(2))
            elif key == "act":
                if self.mode != "bracket":
                    self.err("act line in vector mode", line_no)
                m = re.match(r"^act\s+(\S+)\s*:\s*(\w+)\s*->\s*(.*)$", body)
                if not m:
                    self.err("act must look like: act E<i> : <coord> -> "
                             "<expr>", line_no)
                i = self.frame_index(m.group(1), line_no,
                                     body.find(m.group(1)) + 1)
                coord = m.group(2)
                if coord not in self.coords:
                    self.err(f"act references unknown coordinate {coord!r}",
                             line_no)
                j = self.coords.index(coord)
                if (i, j) in act:
                    self.err(f"duplicate act for E{i + 1} on {coord}",
                             line_no)
                act[(i, j)] = self.parse_expr_at(m.group(3), line_no,
                                                 m.start(3))
            elif key == "metric":
                if len(words) == 2 and words[1] == "identity":
                    if metric_entries:
                        self.err("metric identity mixed with explicit "
                                 "entries", line_no)
                    metric_identity = True
                    continue
                m = re.match(r"^metric\s+(\S+)\s*=\s*(.*)$", body)
                if not m:
                    self.err("metric must be 'metric identity' or "
                             "'metric g<i><j> = <expr>'", line_no)
                gm = _METRIC_RE.match(m.group(1))
                if not gm:
                    self.err(f"bad metric entry {m.group(1)!r}", line_no)
                if metric_identity:
                    self.err("metric identity mixed with explicit entries",
                             line_no)
                i, j = int(gm.group(1)) - 1, int(gm.group(2)) - 1
                if not (0 <= i < dim and 0 <= j < dim):
                    self.err("metric index out of range", line_no)
                if (i, j) in metric_entries or (j, i) in metric_entries:
                    self.err(f"duplicate metric entry g{i + 1}{j + 1}",
                             line_no)
                val = self.parse_expr_at(m.group(2), line_no, m.start(2))
                metric_entries[(i, j)] = val
            elif key == "contact":
                msub = re.match(r"^contact\s+([a-z]+)", body)
                sub = msub.group(1) if msub else ""
                if sub == "xi":
                    m = re.match(r"^contact\s+xi\s*=\s*(\S+)\s*$", body)
                    if not m:
                        self.err("contact xi must look like: contact xi "
                                 "= E<i>", line_no)
                    if xi is not None:
                        self.err("duplicate contact xi", line_no)
                    i = self.frame_index(m.group(1), line_no,
                                         body.find(m.group(1)) + 1)
                    xi = tuple(ONE if w == i else ZERO for w in range(dim))
                elif sub in ("phi", "h"):
                    m = re.match(r"^contact\s+(?:phi|h)\s*:\s*(\S+)\s*->"
                                 r"\s*(.*)$", body)
                    if not m:
                        self.err(f"contact {sub} must look like: contact "
                                 f"{sub} : E<i> -> ...", line_no)
                    i = self.frame_index(m.group(1), line_no,
                                         body.find(m.group(1)) + 1)
                    target = phi_cols if sub == "phi" else h_cols
                    if i in target:
                        self.err(f"duplicate contact {sub} line for "
                                 f"E{i + 1}", line_no)
                    target[i] = self.parse_row(m.group(2), e_markers,
                                               line_no, m.start(2))
                elif sub == "eta":
                    m = re.match(r"^contact\s+eta\s*:\s*(.*)$", body)
                    if not m:
                        self.err("contact eta must look like: contact eta "
                                 ": <expr> E<i> [+ ...]", line_no)
                    if eta is not None:
                        self.err("duplicate contact eta", line_no)
                    eta = self.parse_row(m.group(1), e_markers, line_no,
                                         m.start(1))
                else:
                    self.err(f"unknown contact subkey {sub!r}", line_no)
            elif key == "declare":
                m = re.match(r"^declare\s+(\w+)\s*=\s*(.*)$", body)
                if not m or m.group(1) not in RESERVED_NAMES:
                    self.err("declare must look like: declare k = <expr> "
                             "or declare mu = <expr>", line_no)
                which = m.group(1)
                if which in declared:
                    self.err(f"duplicate declare {which}", line_no)
                declared[which] = self.parse_expr_at(m.group(2), line_no,
                                                     m.start(2))

        if self.mode == "vector":
            missing = [i for i in range(dim) if i not in vec_rows]
            if missing:
                self.err("vector line missing for "
                         + ", ".join(f"E{i + 1}" for i in missing))
            mode = CoordinateMode(tuple(vec_rows[i] for i in range(dim)))
        else:
            c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
            for (i, j), row in brackets.items():
                c[i][j] = list(row)
                c[j][i] = [-e for e in row]
            a = [[ZERO] * dim for _ in range(dim)]
            for (i, j), val in act.items():
                a[i][j] = val
            mode = BracketMode(
                tuple(tuple(tuple(r) for r in plane) for plane in c),
                tuple(tuple(r) for r in a))

        if metric_identity:
            metric = tuple(tuple(ONE if i == j else ZERO
                                 for j in range(dim)) for i in range(dim))
        elif metric_entries:
            g = [[ZERO] * dim for _ in range(dim)]
            for (i, j), val in metric_entries.items():
                g[i][j] = val
                g[j][i] = val
            metric = tuple(tuple(r) for r in g)
        else:
            self.err("no metric declared")

        spec = FrameSpec(self.name, CoordSystem(tuple(self.coords),
                                                tuple(self.constraints)),
                         tuple(self.params), mode, metric)
        decl = ContactDecl(xi=xi, phi=_operator(phi_cols, dim), eta=eta,
                           h=_operator(h_cols, dim))
        return ParsedSpec(self.name, spec, decl,
                          declared.get("k"), declared.get("mu"))


def _operator(cols: dict, dim: int):
    """The (1,1) table whose column j is `cols[j]`, zero where no column is
    given; None when none is."""
    if not cols:
        return None
    return tuple(tuple(cols.get(j, (ZERO,) * dim)[i] for j in range(dim))
                 for i in range(dim))


def parse_spec_text(text: str, fallback_name: str = "spec") -> ParsedSpec:
    return _Loader(text, fallback_name).load()


def load_spec(path) -> ParsedSpec:
    """Parse the file at `path` as UTF-8 text, reading it once; the sha256
    is taken of exactly the bytes parsed.  A file that cannot be read or
    decoded is a SpecFileError naming the path."""
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise SpecFileError(f"cannot read {p}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"cannot decode {p} as UTF-8: {exc.reason} "
                            f"0x{data[exc.start]:02x}",
                            data.count(b"\n", 0, exc.start) + 1) from None
    parsed = parse_spec_text(text, p.stem)
    parsed.sha256 = hashlib.sha256(data).hexdigest()
    return parsed


@cache
def _bundled_dir():
    """The package directory of the bundled spec files, looked up once."""
    return resources.files("cmverify.data")


def bundled_names() -> list:
    return sorted(f.name[:-len(".cmspec")] for f in _bundled_dir().iterdir()
                  if f.name.endswith(".cmspec"))


def resolve_spec_path(name) -> Path:
    """Filesystem path if it exists, else a bundled file of that basename."""
    p = Path(name)
    if p.exists():
        return p
    stem = p.name
    if not stem.endswith(".cmspec"):
        stem += ".cmspec"
    candidate = _bundled_dir() / stem
    if candidate.is_file():
        return Path(str(candidate))
    raise FileNotFoundError(
        f"no spec file {name!r} and no bundled manifold of that name; "
        f"bundled: {', '.join(bundled_names())}")
