import json

from cmverify.report import (CheckReport, ReportDocument, residual_check,
                             render_oneform)
from cmverify.symcore import parse_expr


def ex(s):
    return parse_expr(s, {"x", "y"})


def test_line_layout_pass():
    rep = CheckReport("I2.1", "pass", "0", 0.0, "note here")
    line = rep.line()
    assert line.startswith("[       PASS] I2.1")
    assert "max|sampled| = 0.000e+00" in line
    assert line.endswith("note here")


def test_line_layout_fail_shows_residual():
    rep = CheckReport("T4.7", "fail", "W=E1: 2/y^2", 1.5, "")
    line = rep.line()
    assert "[       FAIL] T4.7" in line
    assert "residual = W=E1: 2/y^2" in line


def test_needs_input_line_has_no_residual_column():
    line = CheckReport("I3.9", "needs-input", "", None, "requires mu").line()
    assert "[NEEDS-INPUT] I3.9" in line
    assert "residual =" not in line and "max|sampled|" not in line


def test_residual_check_first_nonzero_wins():
    rep = residual_check("X", [("a", ex("0")), ("b", ex("x - x")),
                               ("c", ex("2*y")), ("d", ex("x"))])
    assert rep.verdict == "fail"
    assert rep.residual_symbolic == "c: 2*y"


def test_residual_check_pass_notes_replace_context_notes():
    rep = residual_check("X", [("a", ex("0"))], notes="ctx",
                         pass_notes="all good")
    assert rep.verdict == "pass" and rep.notes == "all good"
    failing = residual_check("X", [("a", ex("x"))], notes="ctx",
                             pass_notes="all good")
    assert failing.verdict == "fail" and failing.notes == "ctx"


def test_residual_check_reads_a_stream_as_its_list(ex3):
    # a suite hands over a generator that can be read only once; the
    # report, sampled max included, is the one its list gives
    for res in ([("a", ex("0")), ("b", ex("x*y^3")), ("c", ex("x/y"))],
                [("a", ex("0")), ("b", ex("x - x"))]):
        stream = (item for item in res)
        assert residual_check("X", stream, ex3.sampler, notes="n") \
            == residual_check("X", res, ex3.sampler, notes="n")
        assert next(stream, None) is None


def test_document_exit_code_and_counts():
    doc = ReportDocument("p", "h")
    doc.add(CheckReport("A", "pass", "0", None, ""))
    doc.add(CheckReport("B", "needs-input", "", None, ""))
    doc.add(CheckReport("C", "degenerate", "0", None, ""))
    assert doc.exit_code() == 0
    doc.add(CheckReport("D", "fail", "r", None, ""))
    assert doc.exit_code() == 2
    assert doc.counts() == {"pass": 1, "fail": 1, "needs-input": 1,
                            "degenerate": 1}


def test_document_json_is_stable_and_sorted():
    doc = ReportDocument("p", "h", solutions={"A": None, "B": None,
                                              "k": "1", "mu": None},
                         classification="symmetric")
    doc.add(CheckReport("A", "pass", "0", 0.25, "n"))
    text = doc.to_json()
    assert text == doc.to_json()
    parsed = json.loads(text)
    assert parsed["checks"][0]["residual_sampled_max"] == 0.25
    # keys are emitted in sorted order for byte-stable output
    assert text.index('"checks"') < text.index('"classification"') \
        < text.index('"solutions"') < text.index('"spec_hash"')


def test_render_oneform():
    om = (ex("-2/y"), ex("0"), ex("0"))
    assert render_oneform(om) == ["-2/y", "0", "0"]
