import hashlib
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
    assert all(c.is_zero for plane in ps.spec.mode.c for row in plane
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
    c = ps.spec.mode.c
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
    a = ps.spec.mode.a
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
