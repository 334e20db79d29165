"""End-to-end tests for the command-line interface."""

import ast
import json
import os
import random
import subprocess
import sys
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


def fresh_python(args, timeout=60):
    """Run a new ``python -S`` on this checkout's package; -S keeps
    site-packages .pth files from adding modules of their own."""
    env = {**os.environ, "PYTHONPATH": str(Path(cosmo.__file__).resolve().parent.parent)}
    return subprocess.run([sys.executable, "-S", *args], env=env, capture_output=True, text=True, timeout=timeout)


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

    def test_dedekind_at_a_thousand_digits_answers_at_once(self):
        # every Euclidean step works on integers no larger than the modulus
        h, k = 2**3321, 3**2095
        assert len(str(h)) == len(str(k)) == 1000
        out = fresh_python(["-m", "cosmo.cli", "dedekind", "--p", str(h), "--q", str(k)], timeout=20)
        assert (out.returncode, out.stderr) == (0, "")
        head, value = out.stdout.split(" = ")
        assert head == f"s({h},{k})"
        reciprocity = Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4)
        assert Fraction(value) + dedekind_sum_fast(k, h) == reciprocity

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
            "X 4,3,2,1 -\nX 2,4,3,1 +\nC 1,4,2,3\n",  # a knot on the torus, not the sphere
        ],
    )
    def test_non_planar_pd_is_exit_2(self, capsys, tmp_path, pd_text):
        pd = tmp_path / "odd.pd"
        pd.write_text(pd_text)
        code, out, err = run_cli(capsys, ["conway", "--pd", str(pd)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "planar" in err

    # every case has det(S - S^T) = 0; the 3x3 one because a skew matrix of odd order is singular
    @pytest.mark.parametrize("matrix_text", ["2\n1 0\n0 1\n", "1\n0\n", "1\n1\n", "3\n-1 1 0\n0 -1 2\n1 0 3\n"])
    def test_tau_rejects_non_knot_matrix(self, capsys, tmp_path, matrix_text):
        mat = tmp_path / "notknot.mat"
        mat.write_text(matrix_text)
        code, out, err = run_cli(capsys, ["tau", "--matrix", str(mat), "--slope", "5/1"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "det(S - S^T)" in err
        assert err == "error: not a knot Seifert matrix: det(S - S^T) = 0, expected 1\n"

    def test_tau_accepts_scrambled_trefoil(self, capsys, tmp_path):
        # P S P^T for the trefoil's S = [[-1, 1], [0, -1]] and P = [[1, 2], [1, 3]]
        mat = tmp_path / "scrambled.mat"
        mat.write_text("2\n-3 -4\n-5 -7\n")
        for slope in ("5/1", "7/3", "2/1"):
            code, out, err = run_cli(capsys, ["tau", "--matrix", str(mat), "--slope", slope])
            assert (code, err) == (0, "")
            assert out == run_cli(capsys, ["tau", "--torus2", "3", "--slope", slope])[1]

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
        import cosmo.seifert

        def inexact(s, slope):
            raise ArithmeticError("inexact division in signature elimination")

        # the tau handler looks the function up on its module when it runs
        monkeypatch.setattr(cosmo.seifert, "casson_gordon_tau", inexact)
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

    def test_float_code_stays_where_it_is(self):
        # the float Levine-Tristram route is the only float code, and is to be
        # made exact (ROADMAP item 3); no new float code may appear meanwhile
        allowed = {"_ZERO_TOL", "_jacobi_spectrum", "levine_tristram_signature"}
        inexact = {"sqrt", "hypot", "copysign"}

        def flagged(node):
            if isinstance(node, ast.Constant):
                return isinstance(node.value, (float, complex))
            if isinstance(node, ast.Name):
                return node.id in ("float", "complex", "cmath")
            if isinstance(node, ast.Attribute):
                return isinstance(node.value, ast.Name) and node.value.id == "math" and node.attr in inexact
            if isinstance(node, ast.Import):
                return any(alias.name == "cmath" for alias in node.names)
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                return node.module == "cmath" or (node.module == "math" and bool(names & inexact))
            return False

        def name(node):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                return node.name
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            return next((t.id for t in targets if isinstance(t, ast.Name)), None)

        offenders = []
        for path in sorted(Path(cosmo.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for top in tree.body:
                if name(top) not in allowed:
                    offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(top) if flagged(node)]
        assert offenders == []

    def test_compute_modules_import_only_arith(self):
        # at module level a compute module imports only arith, and arith no
        # other cosmo module, so a call loads just the modules it computes with
        package = Path(cosmo.__file__).parent
        imports = {}
        for name in ("arith", "casson_walker", "links", "obstructions", "seifert"):
            tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
            imports[name] = sorted(
                node.module or "." for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
            )
        assert imports == {
            "arith": [],
            "casson_walker": ["arith"],
            "links": ["arith"],
            "obstructions": ["arith"],
            "seifert": ["arith"],
        }

    def test_cli_import_loads_no_dataclasses_or_inspect(self):
        # every cosmo process pays for what importing the CLI loads: of the
        # compute modules, only arith, which parses the slopes
        code = (
            "import sys, cosmo.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
            "print(sorted(m for m in sys.modules if m.startswith('cosmo.')))"
        )
        out = fresh_python(["-c", code])
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["[]", "['cosmo.arith', 'cosmo.cli']"]

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


# ``python -m cosmo.cli ARGV``, after which the last stderr line lists the
# cosmo submodules the call loaded
_CLI_THEN_MODULES = """
import runpy, sys
try:
    runpy.run_module("cosmo.cli", run_name="__main__", alter_sys=True)
finally:
    print(sorted(m[6:] for m in sys.modules if m.startswith("cosmo.")), file=sys.stderr)
"""

_REPORT_MODULES = {"arith", "obstructions"}


class TestLoadedModules:
    """Each call loads only the compute modules it uses."""

    @pytest.mark.parametrize(
        "argv, stdout, loaded",
        [
            (["dedekind", "--p", "3", "--q", "7"], "s(3,7) = -1/14\n", {"arith"}),
            (
                ["lambda", "--lk", "0", "--a2x", "0", "--a2y", "0", "--a3", "0", "--sx", "3/1", "--sy", "1/1"],
                "lambda_w = -1/18\nlambda   = -1/36\nD        = 3\nsigma    = 2\n",
                {"arith", "casson_walker"},
            ),
            (
                ["obstruct-purely", "--delta2", "2", "--format", "json"],
                '{\n  "verdict": "obstructed",\n  "candidates": [],\n'
                '  "evidence": {\n    "alexander_second_derivative_at_1": "2"\n  },\n'
                '  "narrative": "no purely cosmetic surgery pair exists: '
                'the Alexander second derivative at 1 is nonzero"\n}\n',
                _REPORT_MODULES,
            ),
            (
                ["obstruct-purely", "--a2", "1", "--q0", "2", "--a3", "3"],
                "verdict: obstructed\ncandidates: (none)\nevidence:\n  a2_minus_q0_times_a3 = -5\n"
                "narrative: no purely cosmetic pair of distinct denominators exists: a2 - q0*a3 is nonzero\n",
                _REPORT_MODULES,
            ),
            (
                ["obstruct-purely", "--a2x", "0", "--a2y", "0", "--a3", "0", "--s0", "1/1"],
                "verdict: inconclusive\ncandidates: 1, 2\nevidence:\n"
                "  signature_difference         = 2\n  quadratic_linear_coefficient = -3\n"
                "  quadratic_constant_term      = 2\n  discriminant                 = 1\n"
                "narrative: only p in {1, 2} could give a purely cosmetic pair (+p, -p); "
                "all other coefficients are ruled out\n",
                _REPORT_MODULES,
            ),
            (
                ["obstruct-chirally", "--lambda-w", "-1/18"],
                "verdict: obstructed\ncandidates: (none)\nevidence:\n  ambient_casson_walker = -1/18\n"
                "narrative: no integral chirally cosmetic surgery pair exists: "
                "the ambient Casson-Walker value is nonzero\n",
                _REPORT_MODULES,
            ),
            (
                ["obstruct-chirally", "--a2", "0", "--p0", "1"],
                "verdict: inconclusive\ncandidates: not applicable\nevidence:\n  quadratic_value = 0\n"
                "  chirality_sum   = 0\nnarrative: test silent: the sum of the two surgery values vanishes for every p\n",
                _REPORT_MODULES,
            ),
            (
                ["pretzel", "--a", "1", "--b", "1", "--slope", "-1/1", "--format", "json"],
                '{\n  "verdict": "obstructed",\n  "candidates": [],\n  "evidence": {\n'
                '    "a2_unknot_component": "0",\n    "a2_knot_component": "1",\n'
                '    "a3_whole_link": "-2",\n    "signature_difference": "2",\n'
                '    "quadratic_linear_coefficient": "-3",\n    "quadratic_constant_term": "50",\n'
                '    "discriminant": "-191"\n  },\n'
                '  "narrative": "pretzel with twist counts (3, 2, 2): no purely cosmetic surgery pair (+p, -p) '
                'exists for any positive integer p: the candidate quadratic has no positive integer root"\n}\n',
                _REPORT_MODULES,
            ),
            (["conway", "--braid", "1,1,1"], "nabla = 1 + z^2\na0 = 1\na2 = 1\n", {"arith", "links"}),
            (
                ["tau", "--torus2", "3", "--slope", "5/1", "--format", "json"],
                '{\n  "p": 5,\n  "q": 1,\n  "tau": "4/1"\n}\n',
                {"arith", "seifert"},
            ),
        ],
        ids=["dedekind", "lambda", "purely-bl", "purely-thm4", "purely-quad", "chirally-ihs", "chirally-family",
             "pretzel", "conway", "tau"],
    )
    def test_call_prints_and_loads(self, argv, stdout, loaded):
        out = fresh_python(["-c", _CLI_THEN_MODULES, *argv])
        assert (out.returncode, out.stdout) == (0, stdout), out.stderr
        assert out.stderr.splitlines()[-1] == str(sorted(loaded))

    def test_selftest_imports_what_it_checks(self):
        # a module the checks reach without importing it would fail a check
        out = fresh_python(["-c", _CLI_THEN_MODULES, "selftest"])
        assert out.returncode == 0, out.stdout + out.stderr
        assert out.stdout.splitlines()[-1] == "all checks passed"
        assert out.stderr.splitlines()[-1] == str(
            sorted({"arith", "casson_walker", "links", "obstructions", "seifert"})
        )


class TestSkeinBudget:
    @pytest.mark.parametrize("env", [None, "60"])
    def test_crossing_cap_is_one_line_exit_2(self, capsys, monkeypatch, env):
        # the cap is a fixed constant; the environment does not move it
        if env is not None:
            monkeypatch.setenv("COSMO_CROSSING_LIMIT", env)
        code, out, err = run_cli(capsys, ["conway", "--braid", ",".join(["1"] * 41)])
        assert (code, out) == (2, "")
        assert err == "error: diagram too large for skein oracle: 41 crossings > limit 40\n"

    @pytest.mark.parametrize("argv, strands", [(["--braid", "1", "--strands", "42"], 42), (["--braid", "45"], 46)])
    def test_too_many_strands_is_one_line_exit_2(self, capsys, argv, strands):
        # refused before the closure, which has a circle per unused strand, is built
        code, out, err = run_cli(capsys, ["conway", *argv])
        assert (code, out) == (2, "")
        assert err == f"error: braid too wide for skein oracle: {strands} strands > limit 41\n"

    def test_widest_braid_within_bound(self, capsys):
        code, out, _ = run_cli(capsys, ["conway", "--braid", "1", "--strands", "41"])
        assert (code, out) == (0, "nabla = 0\n")

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


class TestOversizeIntegers:
    # Python reads at most sys.get_int_max_str_digits() digits into an int;
    # past that an argument gets one line with its length, not its digits
    LIMIT = sys.get_int_max_str_digits()
    WIDE = "1" * (LIMIT + 101)
    LINE = f"integer too long: {LIMIT + 101} digits > Python's int() limit of {LIMIT} digits"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["tau", "--unknot", "--slope", f"{WIDE}/3"], "--slope"),
            (["tau", "--unknot", "--slope", f"3/{WIDE}"], "--slope"),
            (["dedekind", "--p", WIDE, "--q", "3"], "--p"),
            (["tau", "--torus2", WIDE, "--slope", "2/1"], "--torus2"),
            (["lambda", "--lk", "0", "--a2x", "0", "--a2y", "0", "--a3", f"-{WIDE}", "--sx", "1", "--sy", "1"], "--a3"),
            (["conway", "--braid", f"1,{WIDE}"], "--braid"),
        ],
        ids=["slope-p", "slope-q", "p", "torus2", "a3", "braid"],
    )
    def test_one_line_without_the_digits(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.endswith(f": error: argument {flag}: {self.LINE}\n")
        assert "1111" not in err and len(err) < 400

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["dedekind", "--p", "x", "--q", "3"], "argument --p: invalid int value: 'x'"),
            (["dedekind", "--p", "1.5", "--q", "3"], "argument --p: invalid int value: '1.5'"),
            (["tau", "--torus2", "", "--slope", "2/1"], "argument --torus2: invalid int value: ''"),
            (
                ["tau", "--unknot", "--slope", "x/y"],
                "argument --slope: malformed slope 'x/y': expected 'p/q' with integer p, q",
            ),
            (
                ["conway", "--braid", "1,x"],
                "argument --braid: expected a comma-separated integer list, got '1,x'",
            ),
        ],
        ids=["word", "decimal", "empty", "slope", "braid"],
    )
    def test_malformed_messages_are_unchanged(self, capsys, argv, line):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"cosmo {argv[0]}: error: {line}"

    @pytest.mark.parametrize(
        "value", [WIDE, f"-{WIDE}/7", f"7/{WIDE}", f"0.{WIDE}", f"1e{WIDE}"], ids=["int", "num", "den", "dec", "exp"]
    )
    def test_rational_past_the_limit_is_one_line(self, capsys, value):
        code, out, err = run_cli(capsys, ["obstruct-chirally", "--lambda-w", value])
        assert (code, out) == (2, "")
        assert err.endswith(f": error: argument --lambda-w: {self.LINE}\n")
        assert "1111" not in err and len(err) < 300

    @pytest.mark.parametrize("value", ["1e5000", "1e-5000", f"1e{LIMIT}", f"0e{LIMIT}", f"1e-{LIMIT + 1}"])
    def test_exponent_past_the_limit_is_one_line(self, capsys, value):
        # Fraction would build 10**e first: an exponent form gets the limit
        # of the same value written out, checked before anything is built
        code, out, err = run_cli(capsys, ["obstruct-chirally", "--lambda-w", value])
        assert (code, out) == (2, "")
        line = (
            "cosmo obstruct-chirally: error: argument --lambda-w: exponent too large: "
            f"written out, the value has more digits than Python's int() limit of {self.LIMIT}"
        )
        assert err.splitlines()[-1] == line and len(line) < 300

    @pytest.mark.parametrize(
        "value",
        [f"1e{LIMIT - 1}", f"2.5e{LIMIT - 1}", f"7e-{LIMIT}", f"0.{'0' * (LIMIT - 1)}1e0"],
        ids=["integer", "decimal", "negative", "zero-exponent"],
    )
    def test_exponent_at_the_limit_is_read(self, capsys, value):
        assert parse_args(["obstruct-chirally", "--lambda-w", value]).options["lambda_w"] == Fraction(value)
        code, out, _ = run_cli(capsys, ["obstruct-chirally", "--lambda-w", value])
        assert code == 0 and out.startswith("verdict: obstructed\n")

    @pytest.mark.parametrize("value", ["x", "1/0", "1/x", "1//2", ""])
    def test_malformed_rational_message_is_unchanged(self, capsys, value):
        code, out, err = run_cli(capsys, ["obstruct-chirally", "--lambda-w", value])
        assert (code, out) == (2, "")
        line = f"cosmo obstruct-chirally: error: argument --lambda-w: not an exact rational: {value!r}"
        assert err.splitlines()[-1] == line

    def test_matrix_entry_past_the_limit_is_one_line(self, capsys, tmp_path):
        mat = tmp_path / "wide.mat"
        mat.write_text(f"2\n0 {self.WIDE}\n0 0\n")
        code, out, err = run_cli(capsys, ["tau", "--matrix", str(mat), "--slope", "1/1"])
        assert (code, out, err) == (2, "", f"error: line 2: {self.LINE}\n")
        assert len(err) < 300

    @pytest.mark.parametrize(
        "text, line",
        [
            ("2\n0 x\n0 0\n", "line 2: expected integers, got '0 x'"),
            ("2\n0 1.5\n0 0\n", "line 2: expected integers, got '0 1.5'"),
            ("x\n", "line 1: expected integers, got 'x'"),
            ("2 2\n", "line 1: first line must be the size, a single integer >= 0"),
        ],
        ids=["word", "decimal", "size-word", "size-pair"],
    )
    def test_malformed_matrix_message_is_unchanged(self, capsys, tmp_path, text, line):
        mat = tmp_path / "bad.mat"
        mat.write_text(text)
        assert run_cli(capsys, ["tau", "--matrix", str(mat), "--slope", "1/1"]) == (2, "", f"error: {line}\n")

    def test_integers_at_the_limit_are_read(self, capsys):
        p = 10 ** (self.LIMIT - 1) + 1  # LIMIT digits
        assert parse_args(["dedekind", "--p", str(p), "--q", "3"]).options["p"] == p
        assert parse_args(["tau", "--unknot", "--slope", f"{p}/3"]).options["slope"] == Slope(p, 3)


class TestTauBudget:
    # T(2, 21) has a Seifert matrix of size 20; p/q surgery is charged 20 (p - 1) 21^2
    def test_unknot_at_a_41_digit_slope_answers_at_once(self, capsys):
        # the unknot's form is empty whatever p is, so nothing is built or charged
        from cosmo.seifert import SeifertMatrix, total_p_signature

        p = 10**40 + 1
        assert total_p_signature(SeifertMatrix([]), p) == 0
        code, out, err = run_cli(capsys, ["tau", "--unknot", "--slope", f"{p}/3"])
        assert (code, out, err) == (0, f"tau = {-4 * p * dedekind_sum_fast(3, p)}\n", "")

    def test_unknot_value_past_4300_digits_prints_in_full(self, capsys):
        # the slope is read under Python's int-to-text limit; the value has
        # about 8,000 digits, and the limit is back in place after the call
        p = 10**4000 + 1
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, ["tau", "--unknot", "--slope", f"{p}/3"])
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            expected = f"tau = {-4 * p * dedekind_sum_fast(3, p)}\n"
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out, err) == (0, expected, "")
        assert len(out) > 8000

    def test_catalog_size_is_charged_before_its_matrix_is_built(self, capsys, monkeypatch):
        # charged as --matrix is, max(n, n (p - 1)) rows of size n = 4000, also
        # at p = 1, where tau eliminates nothing
        import cosmo.seifert

        monkeypatch.setattr(cosmo.seifert, "seifert_torus2", lambda n: pytest.fail(f"built T(2, {n})"))
        for slope in ("2/1", "1/1"):
            code, out, err = run_cli(capsys, ["tau", "--torus2", "4001", "--slope", slope])
            assert (code, out) == (2, "")
            assert err == (
                "error: Seifert matrix too costly for tau: 4000 elimination rows at size 4000 "
                f"cost {4000 * 4001**2} > budget 1000000\n"
            )

    def test_last_slope_within_budget_answers(self, capsys):
        code, out, err = run_cli(capsys, ["tau", "--torus2", "21", "--slope", "114/1"])
        assert (code, out, err) == (0, "tau = -9074/3\n", "")

    @pytest.mark.parametrize("p", [115, 10000])
    def test_past_budget_is_one_line_exit_2(self, capsys, p):
        code, out, err = run_cli(capsys, ["tau", "--torus2", "21", "--slope", f"{p}/1"])
        assert (code, out) == (2, "")
        assert err == (
            f"error: Seifert matrix too costly for tau: {20 * (p - 1)} elimination rows at size 20 "
            f"cost {20 * (p - 1) * 21**2} > budget 1000000\n"
        )

    @pytest.mark.parametrize(
        "n, err",
        [
            (99, "error: not a knot Seifert matrix: det(S - S^T) = 0, expected 1\n"),
            (
                100,
                "error: Seifert matrix too costly for tau: 100 elimination rows at size 100 "
                "cost 1020100 > budget 1000000\n",
            ),
        ],
    )
    def test_knot_check_is_charged_before_it_runs(self, capsys, tmp_path, n, err):
        # the knot check is an elimination of size n, charged n (n + 1)^2 even at p = 1
        mat = tmp_path / "zero.mat"
        mat.write_text(f"{n}\n" + f"{' '.join(['0'] * n)}\n" * n)
        assert run_cli(capsys, ["tau", "--matrix", str(mat), "--slope", "1/1"]) == (2, "", err)

    @pytest.mark.parametrize(
        "argv",
        [["--torus2", "101", "--slope", "-1/1"], ["--torus2", "99", "--slope", "-1/1"], ["--slope", "0/1"]],
        ids=["catalog-past-budget", "catalog-within-budget", "matrix-past-budget"],
    )
    def test_slope_range_is_checked_before_the_charge(self, capsys, tmp_path, argv):
        # a call outside tau's range gets that reason, whatever its size
        if "--torus2" not in argv:
            mat = tmp_path / "zero.mat"
            mat.write_text("100\n" + f"{' '.join(['0'] * 100)}\n" * 100)
            argv = ["--matrix", str(mat), *argv]
        assert run_cli(capsys, ["tau", *argv]) == (
            2,
            "",
            "error: formula applied outside its stated range (needs p > 0)\n",
        )


class TestNoTraceback:
    """Seeded random calls of every subcommand: each ends in an exit code, never an exception."""

    @staticmethod
    def files(tmp_path, rng):
        """A few PD and Seifert matrix files: valid, inconsistent, non-planar and garbled."""
        from cosmo.links import braid_closure, format_pd, pretzel_diagram

        pds = [
            format_pd(braid_closure([rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(6)], 4)) for _ in range(3)
        ]
        pds += [format_pd(pretzel_diagram(1, -1)), "X 1,2,1,2 +\nC 1\nC 2\n", "X 2,4,3,1 +\nX 4,2,1,3 +\nC 1,2,3,4\n"]
        pds += ["X 1,2,3 +\n", "C 1,2\n", "", "X 2,4,3,1 *\n", "X a,b,c,d +\n"]
        pds.append("".join(f"X {','.join(str(rng.randint(1, 8)) for _ in range(4))} +\n" for _ in range(4)))
        mats = ["2\n-1 1\n0 -1\n", "2\n-3 -4\n-5 -7\n", "1\n0\n", "2\n1 0\n0 1\n", "", "2\n1 x\n0 1\n", "3\n1 2\n"]
        mats.append(f"2\n{rng.randint(-5, 5)} {rng.randint(-5, 5)}\n{rng.randint(-5, 5)} {rng.randint(-5, 5)}\n")
        paths = {"pd": [], "mat": []}
        for kind, texts in (("pd", pds), ("mat", mats)):
            for i, text in enumerate(texts):
                path = tmp_path / f"{kind}{i}.txt"
                path.write_text(text)
                paths[kind].append(str(path))
        paths["pd"].append(str(tmp_path / "missing.pd"))
        return paths

    def test_seeded_calls(self, capsys, tmp_path):
        rng = random.Random(2103)
        paths = self.files(tmp_path, rng)

        def integer():
            if rng.random() < 0.1:
                return rng.choice(["x", "", "1.5", "9" * 30])
            return str(rng.randint(-12, 31))

        def slope():
            if rng.random() < 0.1:
                return rng.choice(["1/0", "x/y", "0", "2//3"])
            return f"{rng.randint(-12, 31)}/{rng.randint(1, 9)}"

        def word():
            letters = range(rng.randint(0, 8))
            return ",".join(str(rng.choice((1, -1)) * rng.randint(0 if rng.random() < 0.05 else 1, 3)) for _ in letters)

        def pick(*choices):
            return lambda: rng.choice(choices)

        # each subcommand's ways of being called, as {flag: value maker}; None marks a switch
        modes = {
            "dedekind": [{"--p": integer, "--q": integer}],
            "conway": [{"--pd": pick(*paths["pd"])}, {"--braid": word, "--strands": pick("4", "5", "6", "2", "x")}],
            "lambda": [{f: integer for f in ("--lk", "--a2x", "--a2y", "--a3")} | {"--sx": slope, "--sy": slope}],
            "tau": [
                {"--matrix": pick(*paths["mat"]), "--slope": slope},
                {"--torus2": pick("3", "5", "7", "4", "1", "-3"), "--slope": slope},
                {"--unknot": None, "--slope": slope},
            ],
            "obstruct-purely": [
                {"--delta2": integer},
                {"--a2": integer, "--q0": integer, "--a3": integer},
                {"--a2x": integer, "--a2y": integer, "--a3": integer, "--s0": slope, "--lk": pick("0", "0", "1")},
            ],
            "obstruct-chirally": [
                {"--lambda-w": pick("1/18", "0", "-3/4", "2.5", "1e3", "x", "1/0", "7")},
                {"--a2": integer, "--p0": integer},
            ],
            "pretzel": [
                {"--a": pick("1", "2", "3", "0", "-1"), "--b": pick("1", "-1", "2", "-2", "0"), "--slope": slope}
            ],
            "selftest": [{}],
        }
        every = {name: {f: v for mode in ways for f, v in mode.items()} for name, ways in modes.items()}
        codes = {0: 0, 2: 0}
        for _ in range(300):
            name = rng.choice(sorted(modes))
            chosen = dict(rng.choice(modes[name]))
            if rng.random() < 0.15 and every[name]:  # a flag of another mode, or one left out
                extra = rng.choice(sorted(every[name]))
                chosen[extra] = every[name][extra]
            argv = [name]
            for flag, value in chosen.items():
                if rng.random() < 0.93:
                    argv += [flag] if value is None else [flag, value()]
            if name != "selftest" and rng.random() < 0.3:
                argv += ["--format", rng.choice(["json", "text", "json", "xml"])]
            code = main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), argv
            codes[code] = codes.get(code, 0) + 1
            if code == 0:
                assert err == "" and out, argv
                continue
            # one diagnostic line, last; argparse puts its usage lines before it
            lines = err.splitlines()
            assert err.endswith("\n") and [line for line in lines if "error:" in line] == lines[-1:], argv
            assert lines[0].startswith("usage: ") or len(lines) == 1, argv
        assert codes[0] > 100 and codes[2] > 100, codes
