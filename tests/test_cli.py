import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmverify
from cmverify.cli import build_parser, run
from cmverify.specfile import resolve_spec_path

BENCH_SPECS = Path(__file__).resolve().parent.parent / "bench" / "specs"
# A child interpreter imports the package from the tree under test.
CHILD_ENV = dict(os.environ,
                 PYTHONPATH=str(Path(cmverify.__file__).resolve().parents[1]))


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestExitCodes:
    def test_clean_suite_exits_zero(self, capsys):
        assert run(["check", "axioms", "sphere3"]) == 0

    def test_failing_suite_exits_two(self, capsys):
        assert run(["check", "identities", "example3d"]) == 2

    def test_needs_input_does_not_fail(self, capsys):
        assert run(["check", "identities", "sphere3"]) == 0

    def test_solve_phi_on_example_is_clean(self, capsys):
        assert run(["solve", "recurrence", "--kind", "phi",
                    "example3d"]) == 0

    def test_degenerate_solve_is_clean(self, capsys):
        assert run(["solve", "recurrence", "flat3"]) == 0

    def test_pipeline_audit_fails_on_example(self, capsys):
        assert run(["pipeline", "example3d"]) == 2

    def test_pipeline_unavailable_is_clean(self, capsys):
        assert run(["pipeline", "sphere3"]) == 0

    def test_all_collects_failures(self, capsys):
        assert run(["all", "example3d"]) == 2

    def test_dependent_frame_is_an_error(self, capsys):
        assert run(["check", "axioms", "example3d-vector"]) == 1
        _, err = out_of(capsys)
        assert "determinant is identically zero" in err

    @pytest.mark.parametrize("command", [
        ["check", "axioms"], ["check", "identities"],
        ["solve", "recurrence"], ["pipeline"], ["all"]],
        ids=["axioms", "identities", "solve", "pipeline", "all"])
    def test_even_dimension_is_one_error_from_every_command(
            self, tmp_path, capsys, command):
        path = tmp_path / "even.cmspec"
        path.write_text("coords x y\nframe-mode bracket\nmetric identity\n"
                        "contact xi = E2\ncontact phi : E1 -> 0\n")
        assert run(command + [str(path)]) == 1
        assert out_of(capsys) == ("", "cmverify: error: frame validation "
                                      "failed (odd-dimension: dimension 2 "
                                      "is even; need 2n+1)\n")

    def test_degenerate_metric_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "degenerate.cmspec"
        text = resolve_spec_path("sphere3").read_text()
        path.write_text(text.replace(
            "metric identity",
            "metric g11 = 1\nmetric g22 = 1\nmetric g33 = 0"))
        assert run(["all", str(path)]) == 1
        assert out_of(capsys) == ("", "cmverify: error: frame validation "
                                      "failed (metric-nondegenerate: metric "
                                      "determinant is identically zero)\n")

    def test_missing_file_is_an_error(self, capsys):
        assert run(["check", "axioms", "nope"]) == 1
        _, err = out_of(capsys)
        assert "sphere3" in err  # bundled names are listed

    def test_directory_is_an_input_error(self, tmp_path, capsys):
        assert run(["check", "axioms", str(tmp_path)]) == 1
        out, err = out_of(capsys)
        assert out == ""
        assert err == (f"cmverify: error: cannot read {tmp_path}: "
                       "Is a directory\n")

    def test_invalid_utf8_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.cmspec"
        path.write_bytes(b"manifold t\n# caf\xe9\ncoords x y z\n")
        assert run(["check", "axioms", str(path)]) == 1
        out, err = out_of(capsys)
        assert out == ""
        assert err == (f"cmverify: error: line 2: cannot decode {path} as "
                       "UTF-8: invalid continuation byte 0xe9\n")

    def test_bad_override_expression(self, capsys):
        assert run(["check", "identities", "sphere3", "--mu", "2 +"]) == 1

    @pytest.mark.parametrize("argv", [
        ["check", "axioms", "sphere3"],
        ["check", "identities", "sphere3"],
        ["solve", "recurrence", "sphere3"],
        ["pipeline", "sphere3"],
        ["all", "sphere3"],
    ])
    def test_bad_override_fails_every_command(self, capsys, argv):
        assert run(argv + ["--k", "x+("]) == 1
        out, err = out_of(capsys)
        assert out == ""
        assert err == "cmverify: error: --k: unexpected end of expression " \
                      "(at position 3)\n"

    @pytest.mark.parametrize("argv", [
        ["check", "axioms", "sphere3"],
        ["check", "identities", "sphere3"],
        ["solve", "recurrence", "sphere3"],
        ["pipeline", "sphere3"],
        ["all", "sphere3"],
    ])
    def test_zero_denominator_override_fails_every_command(self, capsys,
                                                           argv):
        assert run(argv + ["--k", "1/(x-x)"]) == 1
        out, err = out_of(capsys)
        assert out == ""
        assert err == "cmverify: error: --k: division by an identically " \
                      "zero expression\n"

    def test_unknown_symbol_in_override(self, capsys):
        assert run(["check", "identities", "sphere3", "--mu", "w"]) == 1
        _, err = out_of(capsys)
        assert err.startswith("cmverify: error: --mu: ")

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["check", "nonsense", "sphere3"])
        assert info.value.code == 1

    @pytest.mark.parametrize("option", [
        ["--points", "0"], ["--points", "-3"], ["--points", "two"],
        ["--tol", "-0.5"], ["--tol", "nan"],
    ])
    def test_out_of_range_sampling_option_exits_one(self, capsys, option):
        with pytest.raises(SystemExit) as info:
            run(["check", "axioms", "sphere3"] + option)
        assert info.value.code == 1
        out, err = out_of(capsys)
        assert out == ""
        assert f"argument {option[0]}" in err

    @pytest.mark.parametrize("option", [["--tol", "-1e-9"], ["--tol=-1e-9"]])
    def test_negative_exponent_tol_is_a_range_error(self, capsys, option):
        # argparse alone reads "-1e-9" as an option, not as a value.
        with pytest.raises(SystemExit) as info:
            run(["check", "axioms", "sphere3"] + option)
        assert info.value.code == 1
        _, err = out_of(capsys)
        assert "argument --tol: -1e-9 is not >= 0" in err

    def test_smallest_sampling_options_are_accepted(self, capsys):
        assert run(["check", "axioms", "sphere3", "--points", "1",
                    "--tol", "0"]) == 0
        assert run(["check", "axioms", "sphere3", "--tol", "1e-9"]) == 0


def test_negative_overrides_survive_option_parsing(capsys):
    assert run(["check", "identities", "example3d",
                "--k", "-1/y", "--mu", "-1/y"]) == 2
    out, _ = out_of(capsys)
    assert "using declared k = -1/y, mu = -1/y" in out


def test_deta_factor_one_flips_sphere_verdict(capsys):
    assert run(["check", "axioms", "sphere3", "--deta-factor", "one"]) == 2


def test_text_report_shape(capsys):
    run(["check", "axioms", "sphere3"])
    out, err = out_of(capsys)
    lines = out.splitlines()
    assert lines[0].startswith("manifold file: ")
    assert "(sha256 " in lines[0]
    assert lines[-1].startswith("summary: ")
    assert "[       PASS] I2.1" in out
    assert err == ""


def test_solve_text_report_has_solution_block(capsys):
    run(["solve", "recurrence", "--kind", "phi", "example3d"])
    out, _ = out_of(capsys)
    assert "A = (-2/y, 0, 0)" in out
    assert "B = (0, 0, 0)" in out
    assert "k = -1/y" in out
    assert "classification: φ-recurrent, not φ-symmetric" in out


def _not_json(token):
    raise ValueError(f"{token} is not a JSON value")


class TestJson:
    def doc(self, capsys, argv):
        """The report, read by a strict parser: NaN, Infinity and
        -Infinity raise."""
        run(argv)
        out, _ = out_of(capsys)
        return json.loads(out, parse_constant=_not_json)

    def test_document_shape(self, capsys):
        doc = self.doc(capsys, ["all", "example3d", "--format", "json"])
        assert set(doc) == {"version", "spec_hash", "checks", "solutions",
                            "classification"}
        assert doc["version"] == "0.1.0"
        first = doc["checks"][0]
        assert set(first) == {"id", "verdict", "residual_symbolic",
                              "residual_sampled_max", "notes"}

    def test_spec_hash_is_file_sha256(self, capsys):
        doc = self.doc(capsys, ["check", "axioms", "sphere3",
                                "--format", "json"])
        digest = hashlib.sha256(
            resolve_spec_path("sphere3").read_bytes()).hexdigest()
        assert doc["spec_hash"] == digest

    def test_solutions_and_classification(self, capsys):
        doc = self.doc(capsys, ["solve", "recurrence", "--kind", "phi",
                                "example3d", "--format", "json"])
        assert doc["solutions"] == {"A": ["-2/y", "0", "0"],
                                    "B": ["0", "0", "0"],
                                    "k": "-1/y", "mu": "-1/y"}
        assert doc["classification"] == "φ-recurrent, not φ-symmetric"

    def test_indeterminate_values_serialize_as_null(self, capsys):
        doc = self.doc(capsys, ["check", "identities", "sphere3",
                                "--format", "json"])
        assert doc["solutions"]["mu"] is None
        assert doc["solutions"]["A"] is None

    def test_byte_identical_reruns(self, capsys):
        run(["all", "example3d", "--format", "json"])
        first, _ = out_of(capsys)
        run(["all", "example3d", "--format", "json"])
        second, _ = out_of(capsys)
        assert first == second
        run(["all", "example3d", "--format", "json", "--seed", "7"])
        third, _ = out_of(capsys)
        assert third != first  # sampling is seed-controlled

    def test_byte_identical_reruns_of_a_gcd_heavy_spec(self, capsys):
        # Most gcds of polyboth3 are decided from images at points drawn
        # from one generator, which the second run continues.
        argv = ["all", str(BENCH_SPECS / "polyboth3.cmspec"),
                "--format", "json"]
        run(argv)
        first, _ = out_of(capsys)
        run(argv)
        second, _ = out_of(capsys)
        assert first == second

    def test_verdicts_by_id(self, capsys):
        doc = self.doc(capsys, ["all", "example3d", "--format", "json"])
        verdicts = {}
        for c in doc["checks"]:
            verdicts.setdefault(c["id"], []).append(c["verdict"])
        assert verdicts["I2.1"] == ["fail"]
        assert verdicts["I2.4"] == ["fail", "fail"]  # both h variants
        assert verdicts["REC-FULL"] == ["pass"]
        assert verdicts["PIPE-5.8"] == ["fail"]
        assert "T4.17" in verdicts

    def test_magnitude_beyond_the_float_range_is_inf(self, capsys):
        # 10^400 overflows a float; its residuals still get their verdicts
        # JSON (RFC 8259) has no Infinity token: the maximum is "inf"
        argv = ["check", "identities", "sphere3", "--k", "10^400"]
        doc = self.doc(capsys, [*argv, "--format", "json"])
        maxima = {c["residual_sampled_max"] for c in doc["checks"]
                  if c["verdict"] == "fail"}
        assert "inf" in maxima
        assert run(argv) == 2
        out, _ = out_of(capsys)
        assert "max|sampled| = inf" in out


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "cmverify.cli", "--help"],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert "check" in proc.stdout and "pipeline" in proc.stdout


def test_closed_output_pipe_exits_one_without_traceback():
    # The reader closes its end before the report is printed, as
    # `cmverify all sphere3 --format json | head -0` would.
    proc = subprocess.Popen(
        [sys.executable, "-m", "cmverify.cli", "all", "sphere3",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert code == 1
    assert err == ""


def _fresh_run(argv):
    """(stdout, stderr, exit code) of `argv` in a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "cmverify.cli", *argv],
                          capture_output=True, text=True, env=CHILD_ENV)
    return proc.stdout, proc.stderr, proc.returncode


def _in_process_run(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = out_of(capsys)
    return out, err, code


def test_reused_parser_leaks_no_state(capsys):
    """Runs in one process, a usage error among them, give what the same
    argv gives in a fresh interpreter."""
    sequence = [["all", "sphere3", "--format", "json"],
                ["check", "axioms", "sphere3", "--points", "0"],
                ["check", "identities", "sphere3", "--k", "1", "--mu", "0",
                 "--format", "text"],
                ["all", "sphere3", "--format", "json"]]
    got = [_in_process_run(argv, capsys) for argv in sequence]
    assert got[1][2] == 1 and got[1][1].startswith("usage: cmverify check")
    assert got == [_fresh_run(argv) for argv in sequence]


def test_runs_share_one_parser(monkeypatch, capsys):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    build_parser.cache_clear()
    assert build_parser() is build_parser()
    one_build = len(added)
    assert one_build > 0
    for _ in range(3):
        assert run(["check", "axioms", "sphere3"]) == 0
    assert len(added) == one_build
