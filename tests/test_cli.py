import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from revcrochet import doc_from_json
from revcrochet.cli import run

from conftest import golden

RUNNING_ARGS = [
    "--function", "x^3 + 2*x^2 - 2*x + 4",
    "--a", "-3", "--b", "1",
    "--stitch-gauge", "22", "--row-gauge", "25",
    "--scale", "0.18",
]


class TestRun:
    def test_running_example_text(self, capsys):
        assert run(RUNNING_ARGS) == 0
        out = capsys.readouterr()
        assert out.out == golden("running_example.txt")
        assert out.err == ""

    def test_invalid_interval_exits_2(self, capsys):
        code = run(["--function", "x", "--a", "1", "--b", "0",
                    "--stitch-gauge", "22", "--row-gauge", "25", "--scale", "0.18"])
        assert code == 2
        err = capsys.readouterr().err
        assert "a must be less than b" in err

    def test_bad_expression_exits_2(self, capsys):
        code = run(["--function", "sin(1/x", "--a", "0", "--b", "1",
                    "--stitch-gauge", "22", "--row-gauge", "25", "--scale", "0.18"])
        assert code == 2
        assert "position" in capsys.readouterr().err

    def test_negative_function_exits_2(self, capsys):
        code = run(["--function", "x - 10", "--a", "0", "--b", "1",
                    "--stitch-gauge", "22", "--row-gauge", "25", "--scale", "0.18"])
        assert code == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_svg_format_without_extrema(self, capsys):
        assert run(RUNNING_ARGS + ["--no-extrema", "--format", "svg"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<svg ")
        assert out.count("<circle") == 17

    def test_json_format(self, capsys):
        assert run(RUNNING_ARGS + ["--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["function"] == "x^3 + 2*x^2 - 2*x + 4"
        assert obj["rows"][6]["k"] == 1

    def test_json_regenerates_identical_text(self, capsys):
        assert run(RUNNING_ARGS + ["--format", "json"]) == 0
        json_text = capsys.readouterr().out
        assert run(RUNNING_ARGS) == 0
        plain_text = capsys.readouterr().out
        assert doc_from_json(json_text).to_text() == plain_text

    def test_deterministic_output(self, capsys):
        assert run(RUNNING_ARGS) == 0
        first = capsys.readouterr().out
        assert run(RUNNING_ARGS) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_output_path(self, tmp_path, capsys):
        target = tmp_path / "pattern.txt"
        assert run(RUNNING_ARGS + ["--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8") == golden("running_example.txt")

    def test_unwritable_output_path_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "pattern.txt"
        assert run(RUNNING_ARGS + ["--output", str(target)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"revcrochet: cannot write {target}: No such file or directory\n"

    def test_output_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        assert run(RUNNING_ARGS + ["--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"revcrochet: cannot write {tmp_path}: ") and err.count("\n") == 1

    def test_warnings_are_not_failures(self, capsys):
        code = run(["--function", "x^2 + 0.05", "--a", "0", "--b", "1",
                    "--stitch-gauge", "40", "--row-gauge", "10", "--scale", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("Note: Row ")

    @pytest.mark.parametrize("extrema", [[], ["--no-extrema"]])
    def test_complex_derivative_exits_2(self, capsys, extrema):
        # f' is complex only where |x - 0.5| < 0.0001, between validation samples
        code = run(["--function", "2 + (abs(x-0.5) - 0.0001)^1.5", "--a", "0", "--b", "1.0003",
                    "--stitch-gauge", "22", "--row-gauge", "25", "--scale", "0.18", *extrema])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("revcrochet: f' ") and err.count("\n") == 1
        assert "x=0.49" in err  # the grid scan or the quadrature says where

    @pytest.mark.parametrize("function", ["2 + sin((x - 0.5)^1.5)", "1 + abs((x - 0.5)^0.5)"])
    def test_complex_function_exits_2(self, capsys, function):
        # (x - 0.5)^p has no real value for x < 0.5, inside sin or abs too
        code = run(["--function", function, "--a", "0", "--b", "1",
                    "--stitch-gauge", "20", "--row-gauge", "20", "--scale", "1"])
        assert code == 2
        assert capsys.readouterr().err == "revcrochet: f is undefined at x=0.0\n"

    def test_numeral_too_large_exits_2(self, capsys):
        code = run(["--function", "1" * 400, "--a", "0", "--b", "1",
                    "--stitch-gauge", "20", "--row-gauge", "20", "--scale", "1"])
        assert code == 2
        assert capsys.readouterr().err == "revcrochet: number too large (at position 0)\n"

    @pytest.mark.parametrize("function, scale, extrema", [
        ("3.042 + abs(x - -0.2677)^1.048*sin(1.456*x)", "1.856", []),
        ("3.426 + abs(x - -0.3226)^1.006*sin(7.1*x)", "1.443", ["--no-extrema"]),
    ])
    def test_cusp_with_finite_arclength_exits_0(self, capsys, function, scale, extrema):
        code = run(["--function", function, "--a", "-1.4", "--b", "1.35",
                    "--stitch-gauge", "12", "--row-gauge", "28", "--scale", scale, *extrema])
        out = capsys.readouterr()
        assert code == 0, out.err
        assert out.out.endswith("Tie off\n")

    def test_vertical_tangent_hit_by_a_landmark_quadrature_exits_2(self, capsys):
        # f' = 0.986*|x + 0.7069|^-0.014*sign(...) is undefined at x = -0.7069
        # only; the whole-interval quadrature misses that float, a landmark
        # bisection step's quadrature lands on it
        code = run(["--function", "1.244 + abs(x - -0.7069)^0.986", "--a", "-1", "--b", "1",
                    "--stitch-gauge", "23", "--row-gauge", "17", "--scale", "1.257",
                    "--no-extrema"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "revcrochet: f' undefined at x=-0.7069\n"

    @pytest.mark.parametrize("function, a, b, fmt", [
        # the point is the second plot sample, between validation samples
        ("2 + 0*ln(abs(x - 0.0019569471624266144))", "0", "1", "svg"),
        # the point is a rounded landmark, where a stitch count is taken
        ("2 + 0*ln(abs(x - 0.5))", "0", "1.0003", "text"),
    ])
    def test_f_undefined_past_validation_is_named(self, capsys, function, a, b, fmt):
        code = run(["--function", function, "--a", a, "--b", b, "--stitch-gauge", "20",
                    "--row-gauge", "20", "--scale", "2", "--no-extrema", "--format", fmt])
        assert code == 2
        point = function.split("x - ")[1].rstrip("))")
        assert capsys.readouterr().err == f"revcrochet: f is undefined at x={point}\n"

    @pytest.mark.parametrize("b, scale", [("1", "1e300"), ("1", "1e308"), ("1e6", "1")])
    def test_too_many_rows_exits_2_at_once(self, capsys, b, scale):
        # 1e300 ran without end, and 1e308 overflowed rows_per_unit to inf
        code = run(["--function", "2", "--a", "0", "--b", b,
                    "--stitch-gauge", "20", "--row-gauge", "25", "--scale", scale])
        assert code == 2
        assert capsys.readouterr().err == (
            "revcrochet: the pattern would have more than 10000 rows; "
            "lower the scale or the row gauge\n"
        )

    @pytest.mark.parametrize("function, stitch_gauge, row_gauge, scale", [
        ("2000", "1000", "4", "5"),
        # finite f, but every stitch count overflows to inf before rounding
        ("1" + "0" * 307, "20", "25", "1"),
    ])
    def test_too_many_stitches_exits_2(self, capsys, function, stitch_gauge, row_gauge, scale):
        code = run(["--function", function, "--a", "0", "--b", "1", "--stitch-gauge",
                    stitch_gauge, "--row-gauge", row_gauge, "--scale", scale])
        assert code == 2
        assert capsys.readouterr().err == (
            "revcrochet: the pattern would have more than 16000000 stitches; "
            "lower the scale or the stitch gauge\n"
        )

    def test_running_example_at_scale_30_is_within_the_caps(self, capsys):
        args = RUNNING_ARGS[:-1] + ["30"]
        assert run(args) == 0
        out = capsys.readouterr().out
        assert out.count("\nRow ") == 2694

    @pytest.mark.parametrize("function", [
        "(" * 1500 + "x + 1" + ")" * 1500,
        "(" + "+".join(["x"] * 300) + ")/300 + 1",
    ])
    def test_deep_nesting_exits_2(self, capsys, function):
        code = run(["--function", function, "--a", "0", "--b", "1",
                    "--stitch-gauge", "22", "--row-gauge", "25", "--scale", "0.18"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("revcrochet: expression nests deeper than 50 levels")
        assert err.count("\n") == 1

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["--function", "x"])
        assert exc.value.code == 2

    def test_help_documents_grammar(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        helptext = capsys.readouterr().out
        assert "expression grammar" in helptext
        assert "2*x, not 2x" in helptext
        assert "nest at most 50 levels" in helptext


class TestColdImport:
    def test_import_defers_heavy_stdlib_modules(self):
        # -S keeps the modules that site imports out of the picture
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, revcrochet.cli; print(' '.join(sys.modules))"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "revcrochet.cli" in loaded
        heavy = {"dataclasses", "inspect", "ast", "decimal", "fractions", "json", "typing"}
        assert heavy & loaded == set()


class TestInstalledEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "revcrochet.cli", *RUNNING_ARGS],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == golden("running_example.txt")
