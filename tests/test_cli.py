"""End-to-end tests for the command-line interface."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

import cosmo
from cosmo.arith import Slope, dedekind_sum_fast
from cosmo.cli import Command, emit_json, main, parse_args
from cosmo.links import ConwayPoly
from cosmo.obstructions import ObstructionReport, pretzel_analysis
from cosmo.casson_walker import SurgeryResult


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parsing


class TestParseArgs:
    def test_dedekind_flags(self):
        cmd = parse_args(["dedekind", "--p", "1", "--q", "7"])
        assert cmd == Command("dedekind", {"p": 1, "q": 7, "format": "text"})

    def test_negative_slope_as_separate_token(self):
        cmd = parse_args(
            ["lambda", "--lk", "0", "--a2x", "0", "--a2y", "1", "--a3", "-2",
             "--sx", "3/1", "--sy", "-1/1"]
        )
        assert cmd.options["sx"] == Slope(3, 1)
        assert cmd.options["sy"] == Slope(-1, 1)
        assert cmd.options["a3"] == -2
        cmd = parse_args(["obstruct-purely", "--a2x", "0", "--a2y", "1", "--a3", "-2", "--s0", "-1/2"])
        assert cmd.options["s0"] == Slope(-1, 2)
        cmd = parse_args(["obstruct-chirally", "--lambda-w", "-1/18"])
        assert cmd.options["lambda_w"] == Fraction(-1, 18)

    def test_slope_accepts_bare_integer(self):
        cmd = parse_args(["pretzel", "--a", "1", "--b", "1", "--slope", "-1"])
        assert cmd.options["slope"] == Slope(-1, 1)

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            parse_args(["dedekind", "--p", "1", "--q", "7", "--frobnicate"])

    def test_missing_required_flag_rejected(self):
        with pytest.raises(SystemExit):
            parse_args(["dedekind", "--p", "1"])

    def test_malformed_slope_rejected(self):
        with pytest.raises(SystemExit):
            parse_args(["pretzel", "--a", "1", "--b", "1", "--slope", "x/y"])

    def test_infinite_slope_rejected(self):
        with pytest.raises(SystemExit):
            parse_args(["tau", "--unknot", "--slope", "1/0"])

    def test_purely_modes_resolve(self):
        assert parse_args(["obstruct-purely", "--delta2", "2"]).options["mode"] == "bl"
        assert (
            parse_args(["obstruct-purely", "--a2", "1", "--q0", "1", "--a3", "0"]).options["mode"]
            == "thm4"
        )
        assert (
            parse_args(
                ["obstruct-purely", "--a2x", "0", "--a2y", "1", "--a3", "-2", "--s0", "-1/1"]
            ).options["mode"]
            == "quad"
        )

    def test_purely_mode_conflict_rejected(self):
        with pytest.raises(SystemExit):
            parse_args(["obstruct-purely", "--delta2", "2", "--a2", "1", "--q0", "1", "--a3", "0"])
        with pytest.raises(SystemExit):
            parse_args(["obstruct-purely", "--a2", "1"])

    def test_chirally_modes_resolve(self):
        assert parse_args(["obstruct-chirally", "--lambda-w", "1/18"]).options["mode"] == "ihs"
        assert parse_args(["obstruct-chirally", "--a2", "0", "--p0", "5"]).options["mode"] == "family"

    def test_chirally_mode_conflict_rejected(self):
        with pytest.raises(SystemExit):
            parse_args(["obstruct-chirally", "--lambda-w", "0", "--a2", "0", "--p0", "5"])
        with pytest.raises(SystemExit):
            parse_args(["obstruct-chirally", "--a2", "0"])

    def test_chirally_partial_second_mode_rejected(self, capsys):
        # --a2 without --p0 is part of the family mode, so it conflicts with --lambda-w
        code, out, err = run_cli(capsys, ["obstruct-chirally", "--lambda-w", "1", "--a2", "3"])
        assert code == 2 and out == ""
        assert err.endswith("obstruct-chirally needs exactly one mode: --lambda-w | --a2 --p0\n")

    def test_conway_needs_exactly_one_source(self):
        with pytest.raises(SystemExit):
            parse_args(["conway"])
        with pytest.raises(SystemExit):
            parse_args(["conway", "--braid", "1,1,1", "--pd", "x.pd"])


# ---------------------------------------------------------------------------
# JSON emission


class TestEmitJson:
    def test_surgery_result_key_order_and_rationals(self):
        from fractions import Fraction as F

        r = SurgeryResult(
            lambda_w=F(-1, 18), D=F(3), sigma=2, lambda_=F(-1, 36)
        )
        assert emit_json(r) == (
            '{\n  "lambda_w": "-1/18",\n  "D": "3/1",\n  "sigma": 2,\n'
            '  "lambda": "-1/36"\n}'
        )

    def test_conway_poly_string_keys(self):
        payload = json.loads(emit_json(ConwayPoly({2: 1, 0: 1})))
        assert payload == {"coefficients": {"0": 1, "2": 1}}
        assert list(payload["coefficients"]) == ["0", "2"]

    def test_report_candidates_distinguish_none_and_empty(self):
        silent = ObstructionReport(
            verdict="inconclusive", candidates=None, evidence=(), narrative="n"
        )
        ruled_out = ObstructionReport(
            verdict="obstructed", candidates=(), evidence=(), narrative="n"
        )
        assert json.loads(emit_json(silent))["candidates"] is None
        assert json.loads(emit_json(ruled_out))["candidates"] == []

    def test_pretzel_report_discriminant_value(self):
        payload = json.loads(emit_json(pretzel_analysis(1, 1, Slope(-1, 1))))
        assert payload["evidence"]["discriminant"] == "-191"
        assert payload["verdict"] == "obstructed"

    def test_deterministic_across_calls(self):
        a = emit_json(pretzel_analysis(2, -1, Slope(5, 3)))
        b = emit_json(pretzel_analysis(2, -1, Slope(5, 3)))
        assert a == b

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            emit_json(object())


# ---------------------------------------------------------------------------
# full runs


class TestCommands:
    def test_dedekind_text_line(self, capsys):
        code, out, err = run_cli(capsys, ["dedekind", "--p", "1", "--q", "5"])
        assert code == 0 and err == ""
        assert out == "s(1,5) = 1/5\n"

    def test_dedekind_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, ["dedekind", "--p", "1", "--q", "5", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"p": 1, "q": 5, "sum": "1/5", "symbol": "12/5"}

    def test_dedekind_negative_modulus_symbol_sign(self, capsys):
        _, out, _ = run_cli(capsys, ["dedekind", "--p", "1", "--q", "-5", "--format", "json"])
        payload = json.loads(out)
        assert payload["sum"] == "1/5" and payload["symbol"] == "-12/5"

    def test_lambda_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["lambda", "--lk", "0", "--a2x", "0", "--a2y", "0", "--a3", "0",
             "--sx", "3/1", "--sy", "1/1", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out) == {
            "lambda_w": "-1/18",
            "D": "3/1",
            "sigma": 2,
            "lambda": "-1/36",
        }

    def test_lambda_text_layout(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["lambda", "--lk", "0", "--a2x", "0", "--a2y", "0", "--a3", "0",
             "--sx", "3/1", "--sy", "1/1"],
        )
        assert out.splitlines() == [
            "lambda_w = -1/18",
            "lambda   = -1/36",
            "D        = 3",
            "sigma    = 2",
        ]

    def test_conway_braid_trefoil(self, capsys):
        code, out, _ = run_cli(capsys, ["conway", "--braid", "1,1,1", "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"coefficients": {"0": 1, "2": 1}}

    def test_conway_pd_file(self, capsys, tmp_path):
        pd = tmp_path / "hopf.pd"
        pd.write_text("# positive Hopf link\nX 2,4,3,1 +\nX 4,2,1,3 +\n")
        code, out, _ = run_cli(capsys, ["conway", "--pd", str(pd), "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"coefficients": {"1": 1}}

    def test_conway_braid_strands_override(self, capsys):
        # one positive generator on 3 strands closes to a 2-component unlink
        # plus a free circle; the polynomial vanishes
        code, out, _ = run_cli(capsys, ["conway", "--braid", "1", "--strands", "3", "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"coefficients": {}}

    def test_conway_braid_negative_first_letter_as_separate_token(self, capsys):
        spaced = run_cli(capsys, ["conway", "--braid", "-1,2,-1", "--strands", "3"])
        joined = run_cli(capsys, ["conway", "--braid=-1,2,-1", "--strands", "3"])
        assert spaced[0] == 0
        assert spaced[:2] == joined[:2]

    def test_tau_from_matrix_file(self, capsys, tmp_path):
        mat = tmp_path / "trefoil.mat"
        mat.write_text("2\n-1 1\n0 -1\n")
        code, out, _ = run_cli(capsys, ["tau", "--matrix", str(mat), "--slope", "2/1"])
        assert code == 0
        assert out == "tau = 2\n"

    def test_tau_catalog_and_unknot(self, capsys):
        code, out, _ = run_cli(capsys, ["tau", "--torus2", "3", "--slope", "2/1", "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"p": 2, "q": 1, "tau": "2/1"}
        code, out, _ = run_cli(capsys, ["tau", "--unknot", "--slope", "7/3"])
        assert code == 0
        expected = -28 * dedekind_sum_fast(3, 7)
        assert out == f"tau = {expected}\n"

    def test_obstruct_purely_bl(self, capsys):
        code, out, _ = run_cli(capsys, ["obstruct-purely", "--delta2", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "obstructed"
        assert payload["evidence"]["alexander_second_derivative_at_1"] == "2"

    def test_obstruct_purely_quadratic_candidates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["obstruct-purely", "--a2x", "0", "--a2y", "0", "--a3", "0",
             "--s0", "1/1", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "inconclusive"
        assert payload["candidates"] == [1, 2]

    def test_obstruct_chirally_family(self, capsys):
        code, out, _ = run_cli(capsys, ["obstruct-chirally", "--a2", "0", "--p0", "5"])
        assert code == 0
        assert "verdict: obstructed" in out

    def test_report_text_has_aligned_evidence(self, capsys):
        _, out, _ = run_cli(capsys, ["pretzel", "--a", "1", "--b", "1", "--slope", "-1/1"])
        lines = out.splitlines()
        eq_cols = {line.index("=") for line in lines if line.startswith("  ")}
        assert len(eq_cols) == 1
        assert "discriminant" in out and "-191" in out


class TestExitCodes:
    def test_library_error_is_exit_2_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, ["dedekind", "--p", "2", "--q", "4"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_singular_framing_is_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["lambda", "--lk", "1", "--a2x", "0", "--a2y", "0", "--a3", "0",
             "--sx", "1/1", "--sy", "1/1"],
        )
        assert code == 2 and "rational homology sphere" in err

    def test_missing_file_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["conway", "--pd", "/nonexistent/diagram.pd"])
        assert code == 2 and err.startswith("error: ")

    def test_usage_error_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["dedekind", "--p", "1"])
        assert code == 2 and "usage" in err

    def test_nonzero_linking_in_quadratic_mode_is_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["obstruct-purely", "--a2x", "0", "--a2y", "0", "--a3", "0",
             "--s0", "1/1", "--lk", "3"],
        )
        assert code == 2 and "linking number zero" in err

    @pytest.mark.parametrize(
        "pd_text",
        [
            "X 1,3,2,3 +\nX 2,4,1,4 -\n",  # one-arc components each crossing (1,2) once
            "X 1,2,1,2 +\nC 1\nC 2\n",  # two circles crossing once
        ],
    )
    def test_non_planar_pd_is_exit_2(self, capsys, tmp_path, pd_text):
        pd = tmp_path / "odd.pd"
        pd.write_text(pd_text)
        code, out, err = run_cli(capsys, ["conway", "--pd", str(pd)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "planar" in err

    @pytest.mark.parametrize("matrix_text", ["2\n1 0\n0 1\n", "1\n0\n"])
    def test_tau_rejects_non_knot_matrix(self, capsys, tmp_path, matrix_text):
        mat = tmp_path / "notknot.mat"
        mat.write_text(matrix_text)
        code, out, err = run_cli(capsys, ["tau", "--matrix", str(mat), "--slope", "5/1"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "det(S - S^T)" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["conway", "--braid=-1,,2", "--strands", "3"],
            ["conway", "--braid=1,,1,1", "--strands", "2"],
            ["conway", "--braid=1,1,", "--strands", "2"],
        ],
    )
    def test_empty_braid_letter_is_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"cosmo conway: error: argument --braid: expected a comma-separated integer list, got {argv[1][8:]!r}"
        ]

    def test_inexact_elimination_is_exit_2(self, capsys, monkeypatch, tmp_path):
        import cosmo.cli as cli_mod

        def inexact(s, slope):
            raise ArithmeticError("inexact division in signature elimination")

        monkeypatch.setattr(cli_mod, "casson_gordon_tau", inexact)
        mat = tmp_path / "trefoil.mat"
        mat.write_text("2\n-1 1\n0 -1\n")
        code, out, err = run_cli(capsys, ["tau", "--matrix", str(mat), "--slope", "5/1"])
        assert code == 2 and out == ""
        assert err == "error: inexact division in signature elimination\n"

    def test_tau_exact_on_wide_congruent_matrix(self, capsys, tmp_path):
        # congruent to the trefoil's matrix; at e^(2 pi i/5) its form has an eigenvalue of -2.4e-5
        mat = tmp_path / "wide.mat"
        mat.write_text("2\n-10831 -7463\n-7464 -5143\n")
        code, out, err = run_cli(capsys, ["tau", "--matrix", str(mat), "--slope", "5/1"])
        assert (code, out, err) == (0, "tau = 4\n", "")
        code, out, _ = run_cli(capsys, ["tau", "--torus2", "3", "--slope", "5/1"])
        assert (code, out) == (0, "tau = 4\n")

    def test_package_has_no_asserts_or_environment_reads(self):
        # python -O strips assert, so runtime checks must be explicit raises;
        # the package's limits are fixed constants, not environment settings
        def flagged(node):
            if isinstance(node, ast.Attribute):
                return node.attr in ("environ", "getenv")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                return any(alias.name in ("environ", "getenv") for alias in node.names)
            return isinstance(node, ast.Assert)

        scripts = Path(__file__).resolve().parent.parent / "scripts"
        offenders = []
        for path in sorted(Path(cosmo.__file__).parent.glob("*.py")) + sorted(scripts.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if flagged(node)]
        assert offenders == []

    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["selftest"])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "all checks passed"
        assert all(line.startswith("ok   - ") for line in lines[:-1])
        assert len(lines) >= 10

    def test_selftest_failure_exits_1(self, capsys, monkeypatch):
        import cosmo.cli as cli_mod

        def broken_checks():
            yield ("always fails", lambda: False)
            yield ("always passes", lambda: True)
            yield ("raises", lambda: 1 / 0)

        monkeypatch.setattr(cli_mod, "_selftest_checks", broken_checks)
        code, out, _ = run_cli(capsys, ["selftest"])
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("FAIL - always fails")
        assert lines[1].startswith("ok   - always passes")
        assert lines[2].startswith("FAIL - raises (ZeroDivisionError")
        assert lines[-1] == "2 check(s) failed"


class TestSkeinBudget:
    @pytest.mark.parametrize("env", [None, "60"])
    def test_crossing_cap_is_one_line_exit_2(self, capsys, monkeypatch, env):
        # the cap is a fixed constant; the environment does not move it
        if env is not None:
            monkeypatch.setenv("COSMO_CROSSING_LIMIT", env)
        code, out, err = run_cli(capsys, ["conway", "--braid", ",".join(["1"] * 41)])
        assert (code, out) == (2, "")
        assert err == "error: diagram too large for skein oracle: 41 crossings > limit 40\n"

    def test_budget_exceeded_is_one_line_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cosmo.links, "SKEIN_NODE_BUDGET", 5)
        code, out, err = run_cli(capsys, ["conway", "--braid", "1,1,1,1,1"])
        assert code == 2 and out == ""
        assert err == "error: diagram too costly for skein oracle: more than 5 skein nodes expanded\n"

    def test_within_budget_prints_polynomial(self, capsys, monkeypatch):
        # the (2, 5) torus knot's closure expands exactly 6 skein nodes
        monkeypatch.setattr(cosmo.links, "SKEIN_NODE_BUDGET", 6)
        code, out, _ = run_cli(capsys, ["conway", "--braid", "1,1,1,1,1", "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"coefficients": {"0": 1, "2": 3, "4": 1}}
