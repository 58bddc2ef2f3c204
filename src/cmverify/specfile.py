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
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path

from .contact import ContactDecl
from .frames import CoordSystem, DomainConstraint, FrameSpec
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
_CONTACT_RE = re.compile(r"^\s*contact\s+([a-z]+)")


class SpecFileError(Exception):
    def __init__(self, message, line_no=None, col=None):
        if line_no is not None:
            at = f"line {line_no}" + ("" if col is None else f", col {col}")
            message = f"{at}: {message}"
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
        self.constraints: list = []  # (line_no, col, DomainConstraint)
        self.params: list = []
        self.mode: str | None = None
        self.symbols: set = set()
        self.markers: dict = {}
        self.values = {key: {} for key in _DIRECTIVES}  # read in pass 2

    def err(self, message, line_no=None, col=None):
        raise SpecFileError(message, line_no, col)

    # -- what every directive shares: its entry, match, frame and index --

    def read(self, lines, pass_no: int):
        """Read the lines of pass `pass_no`, each by its `_DIRECTIVES` entry,
        where `contact` goes by subkey and `metric identity` is its own."""
        for line_no, body in lines:
            words = body.split()
            key = words[0]
            if key == "contact":
                sub = _CONTACT_RE.match(body)
                key += " " + (sub[1] if sub else "")
            elif words == ["metric", "identity"]:
                key = "metric identity"
            d = _DIRECTIVES.get(key)
            if d is None:
                if words[0] != "contact":
                    self.err(f"unknown directive {key!r}", line_no)
                if pass_no == 2:
                    self.err(f"unknown contact subkey "
                             f"{key.partition(' ')[2]!r}", line_no)
            elif d.pass_no == pass_no:
                if d.mode and self.mode != d.mode:
                    self.err(f"{key} line in {self.mode} mode", line_no)
                d.read(self, key, line_no, body)

    def match(self, key, line_no, body) -> re.Match:
        """`body` matched against the pattern of `key` after any leading
        whitespace, so group offsets are columns of the raw line."""
        d = _DIRECTIVES[key]
        m = re.fullmatch(r"\s*" + d.pattern, body)
        if not m:
            self.err(d.usage, line_no)
        return m

    def frame(self, m, group, line_no) -> int:
        """The index of the frame name `m[group]`; an error points at it."""
        fm = _FRAME_RE.match(m[group])
        dim = len(self.coords)
        if not fm or not (1 <= int(fm[1]) <= dim):
            self.err(f"expected a frame name E1..E{dim}, got {m[group]!r}",
                     line_no, m.start(group) + 1)
        return int(fm[1]) - 1

    def fresh(self, key, index, what, line_no):
        """Reject a second `key` line for `index`; `what` ends the message."""
        if index in self.values[key]:
            self.err(f"duplicate {key}{what}", line_no)

    def coord_index(self, key, coord, line_no, col) -> int:
        if coord not in self.coords:
            self.err(f"{key} references unknown coordinate {coord!r}",
                     line_no, col)
        return self.coords.index(coord)

    def located(self, line_no, col0, at, parse, *args):
        """`parse(*args)` on the fragment at column `col0`, an expression
        error reported in it: a syntax error at its own position, any other
        at position `at`."""
        try:
            return parse(*args)
        except ExprSyntaxError as e:
            self.err(e.reason, line_no, col0 + e.position + 1)
        except (UnknownSymbol, DivisionByZeroExpr) as e:
            self.err(str(e), line_no, col0 + at + 1)

    def expr(self, m, group, line_no) -> Expr:
        """The expression `m[group]`."""
        fragment, col0 = m[group], m.start(group)
        toks = self.located(line_no, col0, 0, tokenize, fragment)
        if not toks:
            self.err("missing expression", line_no, col0 + 1)
        return self.located(line_no, col0, 0, parse_tokens, toks,
                            self.symbols, len(fragment))

    def row(self, m, group, line_no, basis="E") -> tuple:
        """Split `m[group]`, `<expr> <marker> [+ <expr> <marker> ...]`,
        where the markers are E<i> or, for basis "d", d<coord>; parse each
        coefficient and return them as a row in marker order.  A marker
        without a term, and every one for `0` alone, gets ZERO."""
        fragment, col0 = m[group], m.start(group)
        markers = self.markers[basis]
        toks = self.located(line_no, col0, 0, tokenize, fragment)
        if not toks:
            self.err("missing right-hand side", line_no, col0 + 1)
        depth = 0
        coef: list = []
        out: dict = {}
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
                if value in out:
                    self.err(f"repeated term {value}", line_no,
                             col0 + pos + 1)
                if not coef:
                    out[value] = ONE
                elif len(coef) == 1 and coef[0][:2] == ("op", "-"):
                    out[value] = Expr.const(-1)
                else:
                    out[value] = self.located(line_no, col0, coef[0][2],
                                              parse_tokens, coef,
                                              self.symbols, pos)
                coef = []
                after_marker = True
                continue
            coef.append(tok)
        if out and not after_marker:
            at = coef[0][2] + 1 if coef else len(fragment)
            self.err("dangling tokens after last frame term", line_no,
                     col0 + at)
        if not out:
            value = self.expr(m, group, line_no)
            if not value.is_zero:
                self.err("right-hand side has no frame term and is not 0",
                         line_no, col0 + 1)
        return tuple(out.get(marker, ZERO) for marker in markers)

    # -- pass 1: names, chart and frame mode -----------------------------

    def manifold(self, key, line_no, body):
        self.name = self.match(key, line_no, body)[1]

    def names(self, key, line_no, body):
        """coords and param lines."""
        if key == "coords" and self.coords:
            self.err("coords declared twice", line_no)
        m = self.match(key, line_no, body)
        for wm in re.finditer(r"\S+", m[1]):
            w, col = wm[0], m.start(1) + wm.start() + 1
            if not _ID_RE.match(w):
                self.err(f"invalid identifier {w!r}", line_no, col)
            if w in RESERVED_NAMES:
                self.err(f"{w!r} is reserved for the nullity functions",
                         line_no, col)
            if _FRAME_RE.match(w):
                self.err(f"{w!r} collides with frame names", line_no, col)
            if w in self.coords or w in self.params:
                self.err(f"duplicate name {w!r}", line_no, col)
            (self.coords if key == "coords" else self.params).append(w)

    def assume(self, key, line_no, body):
        m = self.match(key, line_no, body)
        col = m.start(1) + 1
        if self.coords:  # else checked once pass 1 has read every line
            self.coord_index(key, m[1], line_no, col)
        try:
            value = Fraction(m[2])
        except ZeroDivisionError:
            self.err(f"assume value {m[2]} has a zero denominator", line_no)
        self.constraints.append((line_no, col,
                                 DomainConstraint(m[1], value)))

    def frame_mode(self, key, line_no, body):
        if self.mode is not None:
            self.err("frame-mode declared twice", line_no)
        self.mode = self.match(key, line_no, body)[1]

    # -- pass 2: frame, metric, contact data and declarations ------------

    def frame_row(self, key, line_no, body):
        """vector, contact phi and contact h lines: a row for one E<i>."""
        m = self.match(key, line_no, body)
        i = self.frame(m, 1, line_no)
        self.fresh(key, i, f" line for E{i + 1}", line_no)
        basis = "d" if key == "vector" else "E"
        self.values[key][i] = self.row(m, 2, line_no, basis)

    def bracket(self, key, line_no, body):
        m = self.match(key, line_no, body)
        bm, col = _BRACKET_RE.match(m[1]), m.start(1) + 1
        if not bm:
            self.err(f"bad bracket pair {m[1]!r}", line_no, col)
        i, j = int(bm[1]) - 1, int(bm[2]) - 1
        if not (0 <= i < len(self.coords) and 0 <= j < len(self.coords)):
            self.err("bracket frame index out of range", line_no, col)
        if i == j:
            self.err("bracket of a field with itself is ZERO", line_no)
        self.fresh(key, (i, j), f" for [E{i + 1},E{j + 1}]", line_no)
        row = self.row(m, 2, line_no)
        self.values[key][i, j] = row
        self.values[key][j, i] = tuple(-e for e in row)

    def act(self, key, line_no, body):
        m = self.match(key, line_no, body)
        i = self.frame(m, 1, line_no)
        j = self.coord_index(key, m[2], line_no, m.start(2) + 1)
        self.fresh(key, (i, j), f" for E{i + 1} on {m[2]}", line_no)
        self.values[key][i, j] = self.expr(m, 3, line_no)

    def metric_identity(self, key, line_no, body):
        if self.values["metric"]:
            self.err("metric identity mixed with explicit entries", line_no)
        self.values[key] = {(i, i): ONE for i in range(len(self.coords))}

    def metric(self, key, line_no, body):
        m = self.match(key, line_no, body)
        gm, col = _METRIC_RE.match(m[1]), m.start(1) + 1
        if not gm:
            self.err(f"bad metric entry {m[1]!r}", line_no, col)
        if self.values["metric identity"]:
            self.err("metric identity mixed with explicit entries", line_no)
        i, j = int(gm[1]) - 1, int(gm[2]) - 1
        if not (0 <= i < len(self.coords) and 0 <= j < len(self.coords)):
            self.err("metric index out of range", line_no, col)
        self.fresh(key, (i, j), f" entry g{i + 1}{j + 1}", line_no)
        self.values[key][i, j] = self.values[key][j, i] = self.expr(m, 2,
                                                                    line_no)

    def single(self, key, line_no, body):
        """contact xi, contact eta and declare lines: one value each."""
        m = self.match(key, line_no, body)
        index = m[1] if key == "declare" else None
        self.fresh(key, index, f" {index}" if index else "", line_no)
        if key == "contact xi":
            i = self.frame(m, 1, line_no)
            value = tuple(ONE if w == i else ZERO
                          for w in range(len(self.coords)))
        elif key == "contact eta":
            value = self.row(m, 1, line_no)
        else:
            value = self.expr(m, 2, line_no)
        self.values[key][index] = value

    def load(self) -> ParsedSpec:
        lines = list(_numbered_lines(self.text))
        self.read(lines, 1)
        for line_no, col, c in self.constraints:
            self.coord_index("assume", c.coord, line_no, col)
        if not self.coords:
            self.err("no coords declared")
        if self.mode is None:
            self.err("no frame-mode declared")
        self.symbols = set(self.coords) | set(self.params)
        dim = len(self.coords)
        self.markers = {"d": tuple("d" + c for c in self.coords),
                        "E": tuple(f"E{i + 1}" for i in range(dim))}
        for c, marker in zip(self.coords, self.markers["d"]):
            if marker in self.symbols:
                self.err(f"name {marker!r} collides with the basis marker "
                         f"for coordinate {c!r}")
        self.read(lines, 2)

        v = self.values
        if self.mode == "vector":
            missing = [i for i in range(dim) if i not in v["vector"]]
            if missing:
                self.err("vector line missing for "
                         + ", ".join(f"E{i + 1}" for i in missing))
            act, brackets = tuple(v["vector"][i] for i in range(dim)), None
        else:
            act = _table(v["act"], dim, ZERO)
            brackets = _table(v["bracket"], dim, (ZERO,) * dim)
        metric = v["metric identity"] or v["metric"]
        if not metric:
            self.err("no metric declared")
        chart = CoordSystem(tuple(self.coords),
                            tuple(c for _, _, c in self.constraints))
        spec = FrameSpec(self.name, chart, tuple(self.params), act,
                         _table(metric, dim, ZERO), brackets)
        decl = ContactDecl(xi=v["contact xi"].get(None),
                           phi=_operator(v["contact phi"], dim),
                           eta=v["contact eta"].get(None),
                           h=_operator(v["contact h"], dim))
        return ParsedSpec(self.name, spec, decl, v["declare"].get("k"),
                          v["declare"].get("mu"))


# How each directive's lines are read: in pass 1, or in pass 2 when they
# hold expressions, which need every name pass 1 declares; only in the
# frame-mode `mode`, if one is given; and by the `_Loader` method `read`,
# which takes the line apart with `pattern`: a line that does not fully
# match it is the error `usage`.
_Directive = namedtuple("_Directive", "pass_no read pattern usage mode",
                        defaults=("", "", ""))
_DIRECTIVES = {key: _Directive(*entry) for key, entry in {
    "manifold": (1, _Loader.manifold, r"manifold\s+(\S+)",
                 "manifold takes exactly one name"),
    "coords": (1, _Loader.names, r"coords\s+(.*)",
               "coords needs at least one name"),
    "assume": (1, _Loader.assume, r"assume\s+(\w+)\s*!=\s*(-?\d+(?:/\d+)?)",
               "assume must look like: assume <coord> != <rational>"),
    "param": (1, _Loader.names, r"param\s+(.*)",
              "param needs at least one name"),
    "frame-mode": (1, _Loader.frame_mode, r"frame-mode\s+(vector|bracket)",
                   "frame-mode must be 'vector' or 'bracket'"),
    "vector": (2, _Loader.frame_row, r"vector\s+(\S+)\s*=\s*(.*)",
               "vector must look like: vector E<i> = ...", "vector"),
    "bracket": (2, _Loader.bracket, r"bracket\s+(\S+)\s*=\s*(.*)",
                "bracket must look like: bracket [E<i>,E<j>] = ...",
                "bracket"),
    "act": (2, _Loader.act, r"act\s+(\S+)\s*:\s*(\w+)\s*->\s*(.*)",
            "act must look like: act E<i> : <coord> -> <expr>", "bracket"),
    "metric identity": (2, _Loader.metric_identity),
    "metric": (2, _Loader.metric, r"metric\s+(\S+)\s*=\s*(.*)",
               "metric must be 'metric identity' or "
               "'metric g<i><j> = <expr>'"),
    "contact xi": (2, _Loader.single, r"contact\s+xi\s*=\s*(\S+)\s*",
                   "contact xi must look like: contact xi = E<i>"),
    "contact phi": (2, _Loader.frame_row,
                    r"contact\s+phi\s*:\s*(\S+)\s*->\s*(.*)",
                    "contact phi must look like: contact phi : E<i> -> ..."),
    "contact h": (2, _Loader.frame_row,
                  r"contact\s+h\s*:\s*(\S+)\s*->\s*(.*)",
                  "contact h must look like: contact h : E<i> -> ..."),
    "contact eta": (2, _Loader.single, r"contact\s+eta\s*:\s*(.*)",
                    "contact eta must look like: contact eta : <expr> E<i> "
                    "[+ ...]"),
    "declare": (2, _Loader.single, r"declare\s+(k|mu)\s*=\s*(.*)",
                "declare must look like: declare k = <expr> or "
                "declare mu = <expr>"),
}.items()}


def _table(entries: dict, dim: int, zero):
    """The dim x dim table of `entries` ({(i, j): value}), `zero` elsewhere."""
    return tuple(tuple(entries.get((i, j), zero) for j in range(dim))
                 for i in range(dim))


def _operator(cols: dict, dim: int):
    """The (1,1) table whose column j is `cols[j]`, zero where no column is
    given; None when none is."""
    if not cols:
        return None
    zero = (ZERO,) * dim
    return tuple(zip(*(cols.get(j, zero) for j in range(dim))))


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
