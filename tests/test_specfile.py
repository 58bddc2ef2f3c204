import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from cmverify.cli import run
from cmverify.specfile import (SpecFileError, bundled_names, load_spec,
                               parse_spec_text, resolve_spec_path)
from cmverify.symcore import render

MINIMAL = """\
manifold t
coords x y z
frame-mode bracket
metric identity
"""


def test_minimal_bracket_spec():
    ps = parse_spec_text(MINIMAL, "t")
    assert ps.spec.dim == 3
    assert ps.spec.coords.names == ("x", "y", "z")
    # unspecified brackets and actions default to zero
    assert all(c.is_zero for plane in ps.spec.brackets for row in plane
               for c in row)
    assert ps.decl.xi is None and ps.declared_k is None


def test_comments_and_blank_lines_ignored():
    text = "# header\n\n" + MINIMAL.replace("coords x y z",
                                            "coords x y z  # chart")
    ps = parse_spec_text(text, "t")
    assert ps.spec.coords.names == ("x", "y", "z")


def test_bracket_terms_and_assume():
    text = MINIMAL + "assume y != 0\nbracket [E1,E2] = 1/y E2 - 2 E3\n"
    ps = parse_spec_text(text, "t")
    c = ps.spec.brackets
    assert render(c[0][1][1]) == "1/y"
    assert render(c[0][1][2]) == "-2"
    # antisymmetric completion
    assert render(c[1][0][1]) == "-1/y"
    con = ps.spec.coords.constraints
    assert len(con) == 1 and con[0].coord == "y" and con[0].excluded == 0


def test_metric_entries_fill_symmetric():
    text = MINIMAL.replace("metric identity", "metric g11 = 2\nmetric g12 = x")
    ps = parse_spec_text(text, "t")
    g = ps.spec.metric
    assert render(g[0][0]) == "2"
    assert render(g[0][1]) == "x" == render(g[1][0])
    assert render(g[2][2]) == "0"


def test_vector_mode_spec():
    text = ("manifold t\ncoords x y z\nframe-mode vector\nmetric identity\n"
            "vector E1 = 1 dx\nvector E2 = x dy + 1 dz\nvector E3 = 1 dz\n")
    ps = parse_spec_text(text, "t")
    a = ps.spec.act
    assert ps.spec.brackets is None
    assert render(a[1][1]) == "x"
    assert render(a[1][2]) == "1"


def test_contact_block_and_declares():
    text = (MINIMAL
            + "contact xi = E3\n"
            + "contact phi : E1 -> -1 E2\ncontact phi : E2 -> 1 E1\n"
            + "contact h : E1 -> -1 E1\n"
            + "declare k = -1/y\ndeclare mu = 2\n")
    ps = parse_spec_text(text, "t")
    assert [render(c) for c in ps.decl.xi] == ["0", "0", "1"]
    assert render(ps.decl.phi[1][0]) == "-1"
    assert render(ps.decl.phi[2][2]) == "0"
    assert render(ps.decl.h[0][0]) == "-1"
    assert render(ps.declared_k) == "-1/y"
    assert render(ps.declared_mu) == "2"


def test_bare_frame_terms_have_unit_coefficients():
    text = MINIMAL + "contact phi : E1 -> E2\ncontact phi : E2 -> -E1\n"
    phi = parse_spec_text(text, "t").decl.phi
    assert [render(phi[1][0]), render(phi[0][1])] == ["1", "-1"]
    assert render(phi[0][0]) == render(phi[1][1]) == "0"


def test_zero_term_literal():
    text = MINIMAL + "contact xi = E3\ncontact phi : E1 -> 0\n"
    ps = parse_spec_text(text, "t")
    assert all(ps.decl.phi[i][0].is_zero for i in range(3))


class TestErrors:
    def err(self, text):
        with pytest.raises(SpecFileError) as info:
            parse_spec_text(text, "t")
        return info.value

    def test_unknown_directive(self):
        e = self.err("manifold t\ncoords x\nfrobnicate 1\n")
        assert e.line_no == 3
        assert "unknown directive 'frobnicate'" in str(e)

    def test_missing_metric(self):
        assert "no metric declared" in str(
            self.err("manifold t\ncoords x\nframe-mode bracket\n"))

    def test_missing_coords(self):
        assert "no coords declared" in str(
            self.err("manifold t\nframe-mode bracket\nmetric identity\n"))

    def test_missing_frame_mode(self):
        assert "no frame-mode declared" in str(
            self.err("manifold t\ncoords x\nmetric identity\n"))

    def test_reserved_names_rejected(self):
        e = self.err("manifold t\ncoords k y z\nframe-mode bracket\n"
                     "metric identity\n")
        assert "'k' is reserved" in str(e) and e.line_no == 2

    def test_frame_name_collision(self):
        e = self.err("manifold t\ncoords x\nparam E4\nframe-mode bracket\n"
                     "metric identity\n")
        assert "'E4' collides with frame names" in str(e)

    def test_duplicate_name(self):
        e = self.err("manifold t\ncoords x y\nparam x\nframe-mode bracket\n"
                     "metric identity\n")
        assert "duplicate name 'x'" in str(e)

    def test_missing_separator_between_terms(self):
        e = self.err(MINIMAL + "bracket [E1,E2] = 1 E1 2 E2\n")
        assert "expected '+' or '-' after frame term" in str(e)
        assert e.line_no == 5 and e.col == 24

    def test_repeated_marker(self):
        e = self.err(MINIMAL + "bracket [E1,E2] = 1 E1 + 2 E1\n")
        assert "repeated term E1" in str(e)

    def test_dangling_tokens(self):
        e = self.err(MINIMAL + "bracket [E1,E2] = 1 E1 + y\n")
        assert "dangling tokens" in str(e)

    def test_metric_index_out_of_range(self):
        e = self.err("manifold t\ncoords x y z\nframe-mode bracket\n"
                     "metric g14 = 1\n")
        assert "metric index out of range" in str(e)

    def test_declare_requires_k_or_mu(self):
        e = self.err(MINIMAL + "declare q = 3\n")
        assert "declare must look like" in str(e)

    def test_zero_denominator_names_line_and_column(self):
        e = self.err(MINIMAL + "contact xi = E3\ndeclare k = 1/(x - x)\n")
        assert "division by an identically zero expression" in str(e)
        assert (e.line_no, e.col) == (6, 13)
        e = self.err(MINIMAL + "bracket [E1,E2] = 1 E1 + 2/(y - y) E3\n")
        assert (e.line_no, e.col) == (5, 26)

    @pytest.mark.parametrize("value", ["1/0", "0/0", "-3/00"])
    def test_assume_zero_denominator_names_line(self, value):
        e = self.err(MINIMAL + f"assume y != {value}\n")
        assert e.line_no == 5
        assert f"assume value {value} has a zero denominator" in str(e)

    def test_vector_mode_missing_rows(self):
        e = self.err("manifold t\ncoords x y z\nframe-mode vector\n"
                     "metric identity\nvector E1 = 1 dx\n")
        assert "vector line missing for E2, E3" in str(e)


VECTOR = MINIMAL.replace("bracket", "vector")

# One case per error the loader raises: the spec text, then the exact
# message, line and column.  A column is given for the errors that point at
# a token: a frame name, a declared name, a coordinate, a bracket pair or
# metric entry, or a place in an expression.
LOADER_ERRORS = {
    "unknown-directive": (
        MINIMAL + "frobnicate 1\n",
        "line 5: unknown directive 'frobnicate'", 5, None),
    "unknown-contact-subkey": (
        MINIMAL + "contact foo : 1\n",
        "line 5: unknown contact subkey 'foo'", 5, None),
    "vector-in-bracket-mode": (
        MINIMAL + "vector E1 = 1 dx\n",
        "line 5: vector line in bracket mode", 5, None),
    "bracket-in-vector-mode": (
        VECTOR + "bracket [E1,E2] = 1 E3\n",
        "line 5: bracket line in vector mode", 5, None),
    "act-in-vector-mode": (
        VECTOR + "act E1 : y -> 1\n",
        "line 5: act line in vector mode", 5, None),
    "usage-manifold": (
        "manifold a b\n" + MINIMAL,
        "line 1: manifold takes exactly one name", 1, None),
    "usage-coords": (
        "manifold t\ncoords\n",
        "line 2: coords needs at least one name", 2, None),
    "usage-param": (
        MINIMAL + "param\n",
        "line 5: param needs at least one name", 5, None),
    "usage-assume": (
        MINIMAL + "assume y = 0\n",
        "line 5: assume must look like: assume <coord> != <rational>",
        5, None),
    "usage-frame-mode": (
        "manifold t\ncoords x\nframe-mode other\n",
        "line 3: frame-mode must be 'vector' or 'bracket'", 3, None),
    "usage-vector": (
        VECTOR + "vector E1 1 dx\n",
        "line 5: vector must look like: vector E<i> = ...", 5, None),
    "usage-bracket": (
        MINIMAL + "bracket [E1,E2] 1 E3\n",
        "line 5: bracket must look like: bracket [E<i>,E<j>] = ...",
        5, None),
    "usage-act": (
        MINIMAL + "act E1 y -> 1\n",
        "line 5: act must look like: act E<i> : <coord> -> <expr>",
        5, None),
    "usage-metric": (
        MINIMAL.replace("metric identity", "metric g11"),
        "line 4: metric must be 'metric identity' or "
        "'metric g<i><j> = <expr>'", 4, None),
    "usage-contact-xi": (
        MINIMAL + "contact xi E3\n",
        "line 5: contact xi must look like: contact xi = E<i>", 5, None),
    "usage-contact-phi": (
        MINIMAL + "contact phi E1 -> 1 E2\n",
        "line 5: contact phi must look like: contact phi : E<i> -> ...",
        5, None),
    "usage-contact-h": (
        MINIMAL + "contact h E1 -> 1 E2\n",
        "line 5: contact h must look like: contact h : E<i> -> ...",
        5, None),
    "usage-contact-eta": (
        MINIMAL + "contact eta 1 E3\n",
        "line 5: contact eta must look like: contact eta : <expr> E<i> "
        "[+ ...]", 5, None),
    "usage-declare": (
        MINIMAL + "declare q = 3\n",
        "line 5: declare must look like: declare k = <expr> or "
        "declare mu = <expr>", 5, None),
    # each frame name also occurs earlier on its line
    "frame-name-vector": (
        VECTOR + "vector e = 1 dx\n",
        "line 5, col 8: expected a frame name E1..E3, got 'e'", 5, 8),
    "frame-name-act": (
        MINIMAL + "act c : y -> 1\n",
        "line 5, col 5: expected a frame name E1..E3, got 'c'", 5, 5),
    "frame-name-contact-xi": (
        MINIMAL + "contact xi = c\n",
        "line 5, col 14: expected a frame name E1..E3, got 'c'", 5, 14),
    "frame-name-contact-phi": (
        MINIMAL + "contact phi : c -> 1 E2\n",
        "line 5, col 15: expected a frame name E1..E3, got 'c'", 5, 15),
    "frame-name-contact-h": (
        MINIMAL + "contact h : h -> 1 E1\n",
        "line 5, col 13: expected a frame name E1..E3, got 'h'", 5, 13),
    "duplicate-vector": (
        VECTOR + "vector E1 = 1 dx\nvector E1 = 1 dy\n",
        "line 6: duplicate vector line for E1", 6, None),
    "duplicate-bracket": (
        MINIMAL + "bracket [E1,E2] = 1 E3\nbracket [E2,E1] = 1 E3\n",
        "line 6: duplicate bracket for [E2,E1]", 6, None),
    "duplicate-act": (
        MINIMAL + "act E1 : y -> 1\nact E1 : y -> 2\n",
        "line 6: duplicate act for E1 on y", 6, None),
    "duplicate-metric": (
        MINIMAL.replace("metric identity", "metric g12 = 1\nmetric g21 = 1"),
        "line 5: duplicate metric entry g21", 5, None),
    "duplicate-contact-xi": (
        MINIMAL + "contact xi = E3\ncontact xi = E3\n",
        "line 6: duplicate contact xi", 6, None),
    "duplicate-contact-phi": (
        MINIMAL + "contact phi : E1 -> 1 E2\ncontact phi : E1 -> 1 E2\n",
        "line 6: duplicate contact phi line for E1", 6, None),
    "duplicate-contact-h": (
        MINIMAL + "contact h : E2 -> 1 E2\ncontact h : E2 -> 1 E2\n",
        "line 6: duplicate contact h line for E2", 6, None),
    "duplicate-contact-eta": (
        MINIMAL + "contact eta : 1 E3\ncontact eta : 1 E3\n",
        "line 6: duplicate contact eta", 6, None),
    "duplicate-declare": (
        MINIMAL + "declare mu = 1\ndeclare mu = 2\n",
        "line 6: duplicate declare mu", 6, None),
    "act-unknown-coordinate": (
        MINIMAL + "act E1 : q -> 1\n",
        "line 5, col 10: act references unknown coordinate 'q'", 5, 10),
    "assume-unknown-coordinate": (
        MINIMAL + "assume q != 0\n",
        "line 5, col 8: assume references unknown coordinate 'q'", 5, 8),
    "assume-unknown-coordinate-before-coords": (
        "assume q != 0\n" + MINIMAL,
        "line 1, col 8: assume references unknown coordinate 'q'", 1, 8),
    "assume-zero-denominator": (
        MINIMAL + "assume y != 1/0\n",
        "line 5: assume value 1/0 has a zero denominator", 5, None),
    "coords-twice": (
        MINIMAL + "coords a b c\n",
        "line 5: coords declared twice", 5, None),
    "frame-mode-twice": (
        MINIMAL + "frame-mode vector\n",
        "line 5: frame-mode declared twice", 5, None),
    "invalid-identifier": (
        "manifold t\ncoords x 1y z\n",
        "line 2, col 10: invalid identifier '1y'", 2, 10),
    "reserved-name": (
        "manifold t\ncoords x y z\nparam mu\n",
        "line 3, col 7: 'mu' is reserved for the nullity functions", 3, 7),
    "frame-name-collision": (
        "manifold t\ncoords x y z\nparam E4\n",
        "line 3, col 7: 'E4' collides with frame names", 3, 7),
    "duplicate-name": (
        "manifold t\ncoords x y z\nparam a x\n",
        "line 3, col 9: duplicate name 'x'", 3, 9),
    "bad-bracket-pair": (
        MINIMAL + "bracket [E1;E2] = 1 E3\n",
        "line 5, col 9: bad bracket pair '[E1;E2]'", 5, 9),
    "bracket-out-of-range": (
        MINIMAL + "bracket [E1,E4] = 1 E3\n",
        "line 5, col 9: bracket frame index out of range", 5, 9),
    "bracket-with-itself": (
        MINIMAL + "bracket [E2,E2] = 1 E3\n",
        "line 5: bracket of a field with itself is ZERO", 5, None),
    "bad-metric-entry": (
        MINIMAL.replace("metric identity", "metric gx = 1"),
        "line 4, col 8: bad metric entry 'gx'", 4, 8),
    "metric-entry-after-identity": (
        MINIMAL + "metric g11 = 2\n",
        "line 5: metric identity mixed with explicit entries", 5, None),
    "metric-identity-after-entry": (
        MINIMAL.replace("metric identity",
                        "metric g11 = 2\nmetric identity"),
        "line 5: metric identity mixed with explicit entries", 5, None),
    "metric-out-of-range": (
        MINIMAL.replace("metric identity", "metric g41 = 1"),
        "line 4, col 8: metric index out of range", 4, 8),
    "syntax-error-in-expression": (
        MINIMAL + "declare k = 1 +\n",
        "line 5, col 16: unexpected end of expression", 5, 16),
    "syntax-error-in-tokens": (
        MINIMAL + "bracket [E1,E2] = 1 E3 @\n",
        "line 5, col 24: unexpected character '@'", 5, 24),
    "syntax-error-in-coefficient": (
        MINIMAL + "bracket [E1,E2] = x*E3\n",
        "line 5, col 21: unexpected end of expression", 5, 21),
    "unknown-symbol-in-expression": (
        MINIMAL + "act E1 : y -> q\n",
        "line 5, col 15: symbol 'q' is not a declared coordinate or "
        "parameter", 5, 15),
    "unknown-symbol-in-coefficient": (
        MINIMAL + "bracket [E1,E2] = 1 E1 + 2*q E3\n",
        "line 5, col 26: symbol 'q' is not a declared coordinate or "
        "parameter", 5, 26),
    "zero-division-in-expression": (
        MINIMAL + "declare k = 1/(x - x)\n",
        "line 5, col 13: division by an identically zero expression",
        5, 13),
    "missing-expression": (
        MINIMAL + "declare k =\n",
        "line 5, col 12: missing expression", 5, 12),
    "missing-right-hand-side": (
        MINIMAL + "contact eta :\n",
        "line 5, col 14: missing right-hand side", 5, 14),
    "no-separator-after-term": (
        MINIMAL + "bracket [E1,E2] = 1 E1 2 E2\n",
        "line 5, col 24: expected '+' or '-' after frame term", 5, 24),
    "repeated-term": (
        MINIMAL + "bracket [E1,E2] = 1 E1 + 2 E1\n",
        "line 5, col 28: repeated term E1", 5, 28),
    "dangling-tokens": (
        MINIMAL + "bracket [E1,E2] = 1 E1 + y\n",
        "line 5, col 26: dangling tokens after last frame term", 5, 26),
    "dangling-sign": (
        MINIMAL + "bracket [E1,E2] = 1 E1 +\n",
        "line 5, col 24: dangling tokens after last frame term", 5, 24),
    "no-frame-term": (
        MINIMAL + "bracket [E1,E2] = y\n",
        "line 5, col 19: right-hand side has no frame term and is not 0",
        5, 19),
    "no-coords": (
        "manifold t\nframe-mode bracket\nmetric identity\n",
        "no coords declared", None, None),
    "no-frame-mode": (
        "manifold t\ncoords x y z\nmetric identity\n",
        "no frame-mode declared", None, None),
    "basis-marker-collision": (
        "manifold t\ncoords x y\nparam dx\nframe-mode bracket\n"
        "metric identity\n",
        "name 'dx' collides with the basis marker for coordinate 'x'",
        None, None),
    "vector-line-missing": (
        VECTOR + "vector E2 = 1 dy\n",
        "vector line missing for E1, E3", None, None),
    "no-metric": (
        "manifold t\ncoords x y z\nframe-mode bracket\n",
        "no metric declared", None, None),
}


@pytest.mark.parametrize("text, message, line_no, col",
                         LOADER_ERRORS.values(), ids=LOADER_ERRORS.keys())
def test_loader_error_message_line_and_column(text, message, line_no, col):
    with pytest.raises(SpecFileError) as info:
        parse_spec_text(text, "t")
    e = info.value
    assert (str(e), e.line_no, e.col) == (message, line_no, col)


def _indented(text, pad):
    return "".join(pad + line for line in text.splitlines(keepends=True))


def test_indented_lines_load_like_unindented():
    specs = [resolve_spec_path(name) for name in bundled_names()]
    specs.append(Path(__file__).parent / "specs" / "asym3.cmspec")
    for path in specs:
        text = path.read_text()
        assert parse_spec_text(_indented(text, " \t "), "t") \
            == parse_spec_text(text, "t"), path.name


@pytest.mark.parametrize("text, message, line_no, col",
                         LOADER_ERRORS.values(), ids=LOADER_ERRORS.keys())
def test_indented_line_gives_the_same_error(text, message, line_no, col):
    # columns count from the start of the raw line, indentation included
    pad = " \t "
    with pytest.raises(SpecFileError) as info:
        parse_spec_text(_indented(text, pad), "t")
    e = info.value
    if col is not None:
        message = message.replace(f"col {col}:", f"col {col + len(pad)}:")
        col += len(pad)
    assert (str(e), e.line_no, e.col) == (message, line_no, col)


def test_assume_may_come_before_coords():
    # pass 1 checks an assume's coordinate once it has read every line
    text = "assume y != 1/2\n" + MINIMAL + "assume x != 0\n"
    con = parse_spec_text(text, "t").spec.coords.constraints
    assert [(c.coord, c.excluded) for c in con] == [("y", Fraction(1, 2)),
                                                    ("x", 0)]


def test_assume_zero_denominator_exits_one(tmp_path, capsys):
    path = tmp_path / "t.cmspec"
    path.write_text(MINIMAL + "assume y != 1/0\n")
    assert run(["check", "axioms", str(path)]) == 1
    assert capsys.readouterr().err == (
        "cmverify: error: line 5: assume value 1/0 has a zero denominator\n")


def test_bundled_files_resolve_and_load():
    names = bundled_names()
    assert {"example3d", "sphere3", "flat3"} <= set(names)
    for name in names:
        ps = load_spec(resolve_spec_path(name))
        assert ps.spec.dim % 2 == 1


def test_unknown_name_lists_bundled(tmp_path):
    with pytest.raises(FileNotFoundError, match="sphere3"):
        resolve_spec_path("no-such-spec")


def test_filesystem_path_wins(tmp_path):
    p = tmp_path / "mine.cmspec"
    p.write_text(MINIMAL)
    assert resolve_spec_path(str(p)) == p
    # manifold directive names the spec; the stem is only a fallback
    assert load_spec(p).name == "t"
    p2 = tmp_path / "anon.cmspec"
    p2.write_text(MINIMAL.replace("manifold t\n", ""))
    assert load_spec(p2).name == "anon"


def test_bundled_directory_is_looked_up_once_and_disk_still_wins(
        tmp_path, monkeypatch):
    # The bundled directory is resolved once per process; a file on disk
    # that appears later still wins over the bundled name, and a name
    # found in neither place still lists every bundled spec.
    bundled = resolve_spec_path("sphere3")
    assert bundled.parent.name == "data"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sphere3").write_text(MINIMAL)
    assert resolve_spec_path("sphere3") == Path("sphere3")
    assert resolve_spec_path("flat3").parent == bundled.parent
    with pytest.raises(FileNotFoundError) as info:
        resolve_spec_path("no-such-spec")
    assert str(info.value).endswith(
        "bundled: " + ", ".join(bundled_names()))


def test_hash_is_of_the_bytes_parsed():
    for name in bundled_names():
        path = resolve_spec_path(name)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert load_spec(path).sha256 == digest
    assert parse_spec_text(MINIMAL).sha256 == ""


def test_crlf_file_parses_like_lf(tmp_path):
    lf, crlf = tmp_path / "lf.cmspec", tmp_path / "crlf.cmspec"
    lf.write_bytes(MINIMAL.encode())
    crlf.write_bytes(MINIMAL.replace("\n", "\r\n").encode())
    a, b = load_spec(lf), load_spec(crlf)
    assert (a.name, a.spec, a.decl) == (b.name, b.spec, b.decl)
    assert b.sha256 == hashlib.sha256(crlf.read_bytes()).hexdigest()
