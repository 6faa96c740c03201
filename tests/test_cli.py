import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from revcrochet import calculus, emit, shaping
from revcrochet.cli import _parse_args, run

from code_lines import code_lines
from conftest import _build_parser, golden, text_from_json

BIG = "1" + "0" * 200
BOUND_MESSAGE = "revcrochet: a and b must be finite and less than 2**1023 in magnitude\n"

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
        assert text_from_json(json.loads(json_text)) == plain_text

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
        # undefined at that landmark and at the second plot sample too:
        # build_plan checks the landmarks before render_svg samples the plot
        ("2 + 0*ln(abs(x - 0.5)) + 0*ln(abs(x - 0.0019575342465753425))", "0", "1.0003", "svg"),
    ])
    def test_f_undefined_past_validation_is_named(self, capsys, function, a, b, fmt):
        code = run(["--function", function, "--a", a, "--b", b, "--stitch-gauge", "20",
                    "--row-gauge", "20", "--scale", "2", "--no-extrema", "--format", fmt])
        assert code == 2
        point = function.split("x - ")[1].split(")")[0]
        assert capsys.readouterr().err == f"revcrochet: f is undefined at x={point}\n"

    @pytest.mark.parametrize("kind", ["inf", "nan"])
    @pytest.mark.parametrize("point, fmt", [
        # a plot sample (100/511), neither a validation sample nor a landmark;
        # the SVG said viewBox="-0.05 -inf 1.1 inf"
        ("0.19569471624266144", "svg"),
        # a landmark: the SVG said cy="-inf", text and json "more than
        # 16000000 stitches"
        ("0.4", "svg"), ("0.4", "text"), ("0.4", "json"),
    ])
    def test_f_not_finite_past_validation_exits_2(self, capsys, point, fmt, kind):
        spike = f"{BIG}*({BIG}*exp(0-((x - {point})*1000000)^2))"
        # inf - inf is nan, which min skips unless it comes first
        function = f"2 + {spike}" if kind == "inf" else f"2 + ({spike} - {spike})"
        code = run(["--function", function, "--a", "0", "--b", "1", "--stitch-gauge", "20",
                    "--row-gauge", "20", "--scale", "1", "--format", fmt])
        assert code == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"revcrochet: f is not finite at x={point}\n")

    @pytest.mark.parametrize("function", ["2", "2 + sin(x)"])
    def test_interval_too_wide_for_a_float_exits_2(self, capsys, function):
        # b - a overflowed to inf: "more than 10000 rows", or "not finite at x=nan"
        code = run(["--function", function, "--a=-1e308", "--b=1e308", "--stitch-gauge", "20",
                    "--row-gauge", "20", "--scale", "1e-300"])
        assert code == 2
        assert capsys.readouterr().err == BOUND_MESSAGE

    @pytest.mark.parametrize("function, a, b, scale", [
        # exited 0 with two rows at b: the landmarks ended 1e308, 1e308
        ("x", "1e307", "1e308", "1e-307"),
        # 0.5 * (a + b) overflowed: "quadrature did not converge on [1.6e+308, inf]"
        ("1", "1.6e308", "1.7e308", "1e-307"),
    ])
    def test_interval_end_past_the_bound_exits_2(self, capsys, function, a, b, scale):
        code = run(["--function", function, f"--a={a}", f"--b={b}", "--stitch-gauge", "2",
                    "--row-gauge", "2", f"--scale={scale}"])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (2, "", BOUND_MESSAGE)

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

    def test_chords_past_the_row_cap_refuse_before_any_quadrature(self, capsys, monkeypatch):
        # about 7e12 rows by its chord; the quadrature spent its whole split
        # budget first (11 s) and said "quadrature did not converge"
        def no_quadrature(*args):
            raise AssertionError("the chord already passes the row cap")

        monkeypatch.setattr(calculus, "adaptive_simpson", no_quadrature)
        code = run(["--function", "1 + (x+1)^exp(x)", "--a", "1.2", "--b", "3.01",
                    "--stitch-gauge", "10", "--row-gauge", "26", "--scale", "0.62"])
        assert code == 2
        assert capsys.readouterr().err == (
            "revcrochet: the pattern would have more than 10000 rows; "
            "lower the scale or the row gauge\n"
        )

    def test_a_sign_that_does_not_change_on_the_span_keeps_the_chord_bound(
        self, capsys, monkeypatch
    ):
        # x stays positive on [1.2, 3.01], so sign(x) does not jump; the whole
        # split budget went first (10 s) and ended in "did not converge"
        def no_quadrature(*args):
            raise AssertionError("the chord already passes the row cap")

        monkeypatch.setattr(calculus, "adaptive_simpson", no_quadrature)
        code = run(["--function", "1 + (x+1)^exp(x) + 0*sign(x)", "--a", "1.2", "--b", "3.01",
                    "--stitch-gauge", "10", "--row-gauge", "26", "--scale", "0.62"])
        assert code == 2
        assert capsys.readouterr().err == (
            "revcrochet: the pattern would have more than 10000 rows; "
            "lower the scale or the row gauge\n"
        )

    def test_the_chords_on_both_sides_of_a_sign_jump_count(self, capsys, monkeypatch):
        # x - 2 crosses 0 on [1.2, 3.01]: the walk halves down to one grid
        # cell around the jump, and the chords right of it pass the cap; the
        # whole split budget went first (6.5 s) and ended in "did not converge"
        def no_quadrature(*args):
            raise AssertionError("the chord already passes the row cap")

        monkeypatch.setattr(calculus, "adaptive_simpson", no_quadrature)
        code = run(["--function", "1 + (x+1)^exp(x) + sign(x - 2)", "--a", "1.2", "--b", "3.01",
                    "--stitch-gauge", "10", "--row-gauge", "26", "--scale", "0.62"])
        assert code == 2
        assert capsys.readouterr().err == (
            "revcrochet: the pattern would have more than 10000 rows; "
            "lower the scale or the row gauge\n"
        )

    @pytest.mark.parametrize("scale, extra", [("1.97", []), ("0.2", []),
                                              ("1.97", ["--no-extrema"])])
    def test_the_chords_next_to_a_pole_refuse_before_any_quadrature(
        self, capsys, monkeypatch, scale, extra
    ):
        # f' changes sign across the pole at -0.13, so an extremum lies 1e-11
        # right of it, inside the pole's grid cell; the chord from the cell's
        # right end to that extremum is about 9e11 rows at scale 1.97 and
        # 9e10 at 0.2.  Without extrema, the chords up to the pole's cell
        # come to about 67,000 rows at 1.97 (at 0.2, 6,800 rows: the
        # quadrature runs into the pole).
        def no_quadrature(*args):
            raise AssertionError("the chords already pass the row cap")

        monkeypatch.setattr(calculus, "adaptive_simpson", no_quadrature)
        code = run(["--function", "1 + abs(sign(pi)/(x+0.13))", "--a=-2.22", "--b=0.9",
                    "--stitch-gauge", "8", "--row-gauge", "17", "--scale", scale, *extra])
        assert code == 2
        assert capsys.readouterr().err == (
            "revcrochet: the pattern would have more than 10000 rows; "
            "lower the scale or the row gauge\n"
        )

    def test_a_jump_of_f_does_not_count_toward_the_row_cap(self, capsys):
        # f' is 0 across the jump, so the arclength is 1 unit, 53 rows, while
        # the chord across the jump is 10,500 rows
        code = run(["--function", "101 + 100*sign(x - 0.5)", "--a", "0", "--b", "1",
                    "--stitch-gauge", "2", "--row-gauge", "30", "--scale", "7",
                    "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["total_rows"] == 53

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

    @pytest.mark.parametrize("gauge", ["stitch", "row"])
    def test_gauge_too_large_for_a_float_exits_2(self, capsys, gauge):
        # int * float raised OverflowError in stitches_per_unit / rows_per_unit
        other = "row" if gauge == "stitch" else "stitch"
        code = run(["--function", "x+1", "--a", "0", "--b", "1", f"--{gauge}-gauge",
                    "1" + "0" * 400, f"--{other}-gauge", "20", "--scale", "1"])
        assert code == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"revcrochet: {gauge} gauge is too large\n")

    @pytest.mark.parametrize("fmt", ["text", "json", "svg"])
    @pytest.mark.parametrize("function, message", [
        # f dips below 0 between validation samples, and landmarks round into the dip
        ("1 - 2*exp(-((x-0.3)*10000)^2)", "f must be nonnegative on [a, b]; f(0.3) = -1.0"),
        ("1 - exp(-((x-0.3)*10000)^2)", "f must be positive on the open interval; f(0.3) = 0"),
    ])
    def test_landmark_where_f_is_not_positive_exits_2(self, capsys, function, message, fmt):
        code = run(["--function", function, "--a", "0", "--b", "1", "--stitch-gauge", "20",
                    "--row-gauge", "25", "--scale", "1", "--format", fmt])
        assert code == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"revcrochet: {message}\n")

    @pytest.mark.parametrize("args", [
        # a = 0.004 is off the 0.01 grid, and f is undefined at 0.0
        ["--function", "10 + ln(x - 0.0039)", "--a", "0.004", "--b", "1", "--stitch-gauge",
         "20", "--row-gauge", "25", "--scale", "2"],
        # b = 3.159: the last rows rounded to 3.16
        ["--function", "0.9332*(x - 0.7121)^2*(x^2 + 0.7861) + 0.5141", "--a", "0.292",
         "--b", "3.159", "--stitch-gauge", "11", "--row-gauge", "25", "--scale", "0.734",
         "--no-extrema"],
    ])
    def test_rounded_landmarks_stay_in_the_interval(self, capsys, args):
        assert run(args + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(doc["a"] <= x <= doc["b"] for x in doc["landmarks"])
        assert all(doc["a"] <= row["x"] <= doc["b"] for row in doc["rows"])

    @pytest.mark.parametrize("fmt", ["text", "json", "svg"])
    def test_pattern_of_zero_stitch_rows_exits_2(self, capsys, fmt):
        code = run(["--function", "0.001", "--a", "0", "--b", "1", "--stitch-gauge", "22",
                    "--row-gauge", "25", "--scale", "1", "--format", fmt])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "revcrochet: every row would have 0 stitches; raise the scale or the stitch gauge\n"
        )

    @pytest.mark.parametrize("args", [
        # f' changes sign across the pole at -0.13, so the walk makes the pole
        # an extremum, and the segment quadrature runs into it.  The chords
        # next to the pole refuse it at once at scale 1.97 and 0.2 (see
        # test_the_chords_next_to_a_pole_refuse_before_any_quadrature); at
        # 1e-9 they come to about 460 rows, and the same quadrature runs.
        ["--function", "1 + abs(sign(pi)/(x+0.13))", "--a=-2.22", "--b=0.9",
         "--stitch-gauge", "8", "--row-gauge", "17", "--scale", "1e-9"],
        # about 80,000 rows in a million oscillations, which the chord (a
        # quarter row) cannot see; the quadrature spends its split budget
        ["--function", "2 + sin(1000000*x)/2", "--a=0", "--b=1",
         "--stitch-gauge", "10", "--row-gauge", "10", "--scale", "0.1", "--no-extrema"],
    ])
    def test_quadrature_without_end_exits_2(self, capsys, monkeypatch, args):
        # with QUAD_MAX_SPLITS = 2**20 these take about 16 s and 3 s (the
        # first ran past 150 s without the bound); 2**12 keeps this test fast
        monkeypatch.setattr(calculus, "QUAD_MAX_SPLITS", 2**12)
        start = time.perf_counter()
        code = run(args)
        elapsed = time.perf_counter() - start
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert re.fullmatch(r"revcrochet: quadrature did not converge on \[\S+, \S+\] "
                            r"within 4096 splits\n", out.err)
        assert elapsed < 5.0

    def test_cast_on_skips_every_leading_zero_stitch_row(self, capsys):
        # x^4 rounds to 0 stitches at x = 0 and at the landmark x = 0.2 too
        code = run(["--function", "x^4", "--a", "0", "--b", "1", "--stitch-gauge", "20",
                    "--row-gauge", "20", "--scale", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "Row 0: Create a magic ring with 1 stitch." in lines

    def test_first_failure_in_scan_order_is_reported(self, capsys):
        # f' is undefined at grid point 3,581 of 4,096, f at point 3,582:
        # the walk reports the odd point, which it reaches first
        code = run(["--function", "1.8748 + (abs(x - 1.3612) - 0.0072)^1.5",
                    "--a=0.306", "--b=1.505", "--stitch-gauge", "12", "--row-gauge", "25",
                    "--scale=0.58"])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "revcrochet: f' is undefined at x=1.354246826171875\n"

    @pytest.mark.parametrize("function", ["x^2 + 1", "sqrt(x)", "1/x", "x"])
    def test_subnormal_grid_step_ends_in_one_outcome(self, capsys, function):
        # (b - a)/4096 is subnormal, so a + 2i*((b - a)/4096) is not a +
        # i*((b - a)/2048) at 2,048 of the 2,049 even grid points
        assert sum(2 * i * (1e-310 / 4096) != i * (1e-310 / 2048) for i in range(2049)) == 2048
        code = run(["--function", function, "--a", "0", "--b", "1e-310", "--stitch-gauge",
                    "20", "--row-gauge", "20", "--scale", "1"])
        out = capsys.readouterr()
        assert code in (0, 2)
        if code == 2:
            assert out.out == ""
            assert len(out.err.splitlines()) == 1 and out.err.startswith("revcrochet: ")
        else:
            assert out.err == "" and out.out.endswith("Tie off\n")

    def test_a_root_at_b_closes_the_shape(self, capsys):
        # the last grid point is b itself; a + 4096*((b - a)/4096) is an ulp
        # past b here, where f is -1e-16
        code = run(["--function", "1.6966*(x - -1.231)*(0.058 - x)", "--a=-1.231",
                    "--b=0.058", "--stitch-gauge", "22", "--row-gauge", "19", "--scale=1.364"])
        out = capsys.readouterr()
        assert (code, out.err) == (0, "")
        assert out.out.endswith(f"\n{emit.CLOSING_LINE}\n")

    def test_f_prime_undefined_at_b_is_named(self, capsys):
        # f' divides by sqrt(0.863 - x), which is 0 at b
        code = run(["--function", "1 + sqrt(0.863 - x)*(0.863 - x)", "--a=-0.761",
                    "--b=0.863", "--stitch-gauge", "20", "--row-gauge", "20", "--scale", "1"])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (2, "", "revcrochet: f' is undefined at x=0.863\n")

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

    def test_missing_flag_exits_2(self, capsys):
        assert run(["--function", "x"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "revcrochet: the following arguments are required: "
            "--a, --b, --stitch-gauge, --row-gauge, --scale\n"
        )

    def test_help_documents_grammar(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        helptext = out.out
        assert helptext.startswith("usage: revcrochet --function F --a A --b B ")
        assert "expression grammar" in helptext
        assert "2*x, not 2x" in helptext
        assert "nest at most 50 levels" in helptext
        assert "  --no-extrema    space rows evenly over [a, b]" in helptext


class TestArgs:
    """The table-driven parser against the argparse parser it replaced."""

    FLAGS = ("--function", "--a", "--b", "--stitch-gauge", "--row-gauge", "--scale",
             "--format", "--no-extrema", "--output", "--help")
    # values argparse takes in either spelling, then ones that fail in one or both
    FLOATS = ("0.5", "2", "-3", "-.5", "-0", "1e3", "1_0", "nan", "-٣")
    INTS = ("22", "7", "-3", "٣", " 8 ")
    GOOD = {
        "--function": ("x^2 + 1", "2 + sin(x)", "-x + 1", "x", "-3", ""),
        "--a": FLOATS, "--b": FLOATS, "--scale": FLOATS,
        "--stitch-gauge": INTS, "--row-gauge": INTS,
        "--format": ("text", "json", "svg"),
        "--output": ("pattern.txt", "-"),
    }
    BAD = ("-1e3", "-inf", "3.5", "one", "", "pdf", "-x", "--", "-h", "--sc", "--s")
    STRAY = ("x", "--", "-h", "--help", "--he", "-x", "--zzz", "--zzz=1", "-", "-1e3", "-3",
             "--no-extrema=1", "--no-extrema=", "--f", "--s=1", "--=x", "---a", "-hh")

    def spellings(self, flag):
        """Unique prefixes of flag, the flag itself included."""
        return [flag[:n] for n in range(3, len(flag) + 1)
                if sum(f.startswith(flag[:n]) for f in self.FLAGS) == 1]

    def random_argv(self, rng):
        """An argv of every flag in random order and spelling, half of them
        with one or two faults: a missing, ambiguous or doubled flag, a bad
        value, a stray token; and -h at any position now and then."""
        faults = rng.choice((0, 0, 1, 2))
        flags = rng.sample(self.FLAGS[:-1], len(self.FLAGS) - 1)
        flags += rng.sample(flags, rng.choice((0, 0, 1, 2)))  # repeated: the last one counts
        argv, kinds = [], [rng.choice(("missing", "ambiguous", "value", "stray"))
                           for _ in range(faults)]
        if "missing" in kinds:
            flags.remove(rng.choice(flags))
        for flag in flags:
            name = flag if rng.random() < 0.6 else rng.choice(self.spellings(flag))
            if "ambiguous" in kinds and rng.random() < 0.2:
                name = rng.choice(("--f", "--s"))
            if flag == "--no-extrema":
                argv.append(name)
                continue
            bad = "value" in kinds and rng.random() < 0.3
            value = rng.choice(self.BAD if bad else self.GOOD[flag])
            # argparse strips "--" from "--b=--" and stores b = [], a defect
            # the table does not copy (see test_usage_errors_are_one_line)
            joined = value != "--" and rng.random() < 0.4
            argv += [f"{name}={value}"] if joined else [name, value]
        if "stray" in kinds:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(self.STRAY))
        if rng.random() < 0.15:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(("-h", "--help", "--he")))
        return argv

    @staticmethod
    def oracle(argv):
        """("ok", namespace dict), ("help", None) or ("error", None) from argparse."""
        parser = _build_parser()
        # The table keeps the negative-number rule of the argparse it replaced
        # (Python 3.10 to 3.13.0): pinned, so the oracle does not depend on
        # the Python version running the tests.
        parser._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$")
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                return "ok", vars(parser.parse_args(argv))
        except SystemExit as exc:
            return ("help" if exc.code == 0 else "error"), None

    def test_agrees_with_argparse(self, capsys):
        rng = random.Random(13)
        seen = Counter()
        for _ in range(1500):
            argv = self.random_argv(rng)
            verdict, expected = self.oracle(argv)
            seen[verdict] += 1
            if verdict == "ok":
                got = _parse_args(argv)
                assert got is not None, argv
                assert {k: repr(v) for k, v in got.items()} == {
                    k: repr(v) for k, v in expected.items()}, argv
                continue
            code = run(argv)
            out = capsys.readouterr()
            if verdict == "help":
                assert (code, out.err) == (0, ""), argv
                assert "expression grammar" in out.out
            else:
                assert code == 2 and out.out == "", argv
                assert out.err.startswith("revcrochet: ") and out.err.count("\n") == 1, argv
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize("argv, expected", [
        (["--func", "x", "--sc=2", "--a", "-3", "--b=-1e3", "--st", "٣", "--row-g", "4"],
         {"function": "x", "scale": 2.0, "a": -3.0, "b": -1000.0, "stitch_gauge": 3,
          "row_gauge": 4}),
        (["--function", "-x + 1", "--a", "-.5", "--b", "1", "--a", "0", "--stitch-gauge", "2",
          "--row-gauge", "2", "--scale", "1", "--fo", "svg", "--no", "--output", "-"],
         {"function": "-x + 1", "a": 0.0, "b": 1.0, "stitch_gauge": 2, "row_gauge": 2,
          "scale": 1.0, "format": "svg", "prioritize_extrema": False, "output": "-"}),
        (["--function=--", "--a=-1e3", "--b=-inf", "--stitch-gauge=-3", "--row-gauge", "-٣",
          "--scale=nan"],
         {"function": "--", "a": -1000.0, "b": -math.inf, "stitch_gauge": -3, "row_gauge": -3,
          "scale": math.nan}),
    ])
    def test_prefixes_repeats_and_negative_numbers(self, argv, expected):
        expected = {"format": "text", "prioritize_extrema": True, "output": None, **expected}
        assert repr(sorted(_parse_args(argv).items())) == repr(sorted(expected.items()))

    @pytest.mark.parametrize("argv, message", [
        (["--f", "x"], "ambiguous option: --f could match --function, --format"),
        (RUNNING_ARGS + ["--a", "-1e3"], "argument --a: expected one argument"),
        (RUNNING_ARGS + ["--a", "-inf"], "argument --a: expected one argument"),
        (RUNNING_ARGS + ["--no-extrema=1"], "argument --no-extrema: ignored explicit argument '1'"),
        (RUNNING_ARGS + ["--format", "pdf"],
         "argument --format: invalid choice: 'pdf' (choose from text, json, svg)"),
        (RUNNING_ARGS + ["--row-gauge", "3.5"], "argument --row-gauge: invalid int value: '3.5'"),
        (RUNNING_ARGS + ["x", "--", "--a"], "unrecognized arguments: 'x' '--' '--a'"),
        # argparse stored b = [] here, and run raised TypeError
        (RUNNING_ARGS + ["--b=--"], "argument --b: invalid float value: '--'"),
        (["-x", "--help"], None),
        (["--a", "one", "--help"], "argument --a: invalid float value: 'one'"),
        (["--help", "--s"], "ambiguous option: --s could match --stitch-gauge, --scale"),
    ])
    def test_usage_errors_are_one_line(self, capsys, argv, message):
        code = run(argv)
        out = capsys.readouterr()
        if message is None:  # --help after an unknown option, which argparse defers
            assert code == 0 and out.out.startswith("usage: ")
        else:
            assert (code, out.out, out.err) == (2, "", f"revcrochet: {message}\n")


class TestCompiledOnce:
    def test_no_module_keeps_a_cache(self):
        for name, module in list(sys.modules.items()):
            if name == "revcrochet" or name.startswith("revcrochet."):
                cached = [k for k, v in vars(module).items() if hasattr(v, "cache_clear")]
                assert cached == [], name

    @pytest.mark.parametrize("fmt", ["text", "json", "svg"])
    def test_each_format_compiles_the_spec_once(self, monkeypatch, capsys, fmt):
        calls = dict.fromkeys(["differentiate", "compile_expr", "compile_enclosure"], 0)

        def counted(name):
            fn = getattr(calculus, name)

            def call(tree):
                calls[name] += 1
                return fn(tree)

            return call

        def refuse(tree):
            raise AssertionError("compiled outside the spec's curve")

        for name in calls:
            monkeypatch.setattr(calculus, name, counted(name))
        monkeypatch.setattr(shaping, "compile_expr", refuse)
        monkeypatch.setattr(emit, "compile_expr", refuse)
        # the chord bound finds sign's jump from the curve's own enclosure of f
        sign_args = ["--function", "101 + 100*sign(x - 0.5)", "--a", "0", "--b", "1",
                     "--stitch-gauge", "22", "--row-gauge", "25", "--scale", "7"]
        for args in (RUNNING_ARGS, sign_args):
            calls.update(dict.fromkeys(calls, 0))
            assert run([*args, "--format", fmt]) == 0
            assert calls == {"differentiate": 1, "compile_expr": 2, "compile_enclosure": 2}


class TestOneUlpBrackets:
    # Near 1e12 an ulp is wider than LANDMARK_XTOL, and near 1e7 wider than
    # EXTREMUM_XTOL: each bisection must end once its midpoint rounds onto an end.
    @pytest.mark.parametrize("args", [
        ["--function", "2", "--a", "1000000000000", "--b", "1000000000000.01",
         "--scale", "1000"],
        ["--function", "2+sin(x)", "--a", "10000000", "--b", "10000010", "--scale", "1"],
    ])
    def test_bisection_ends(self, args):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "revcrochet.cli", *args,
             "--stitch-gauge", "20", "--row-gauge", "20"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=10,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.endswith("Tie off\n")

    # Past |x| = 1.8e306, x * 100 overflows; round_landmark keeps such an x.
    @pytest.mark.parametrize("function, code, out, err", [
        ("1", 2, "", "revcrochet: every row would have 0 stitches; "
                     "raise the scale or the stitch gauge\n"),
        ("1" + "0" * 306, 0, "Tie off\n", ""),
    ])
    def test_landmarks_at_huge_x(self, capsys, function, code, out, err):
        got = run(["--function", function, "--a=1e307", "--b=1.5e307",
                   "--stitch-gauge", "20", "--row-gauge", "20", "--scale=1.6e-307"])
        printed = capsys.readouterr()
        assert (got, printed.err) == (code, err)
        assert printed.out.endswith(out) if out else printed.out == ""


# Run with -S, which keeps the modules that site imports out of the picture.
# It records the calls of eval, exec and compile during the import, with the
# module that made each, then prints them and the loaded modules.  The
# import system itself compiles and execs each module's code; any other call
# compiles code at run time, as collections.namedtuple does for each class.
COLD_IMPORT = """
import builtins, sys
calls = []
def counting(fn):
    def call(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__")
        if caller not in ("_frozen_importlib", "_frozen_importlib_external"):
            calls.append(f"{fn.__name__}@{caller}")
        return fn(*args, **kwargs)
    return call
for name in ("eval", "exec", "compile"):
    setattr(builtins, name, counting(getattr(builtins, name)))
import revcrochet.cli
print(" ".join(calls))
print(" ".join(sys.modules))
"""

# A whole run in one process, its arguments from the command line; the
# loaded modules go to stderr, after the run's own output.
COLD_RUN = """
import sys
from revcrochet import cli
code = cli.run(sys.argv[1:])
print(" ".join(sys.modules), file=sys.stderr)
sys.exit(code)
"""


class TestColdImport:
    def test_a_json_run_loads_no_json_package(self, capsys):
        # render_json takes its escaper from _json; json's __init__ would
        # load json.decoder, and with it re and enum
        src = Path(__file__).resolve().parents[1] / "src"
        args = [*RUNNING_ARGS, "--format", "json"]
        proc = subprocess.run(
            [sys.executable, "-S", "-c", COLD_RUN, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stderr.split())
        assert {"_json", "revcrochet.emit"} <= loaded
        assert {"json", "json.decoder", "re"} & loaded == set()
        assert run(args) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_import_defers_heavy_stdlib_modules(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", COLD_IMPORT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        calls, modules = proc.stdout.split("\n")[:2]
        assert calls == ""
        loaded = set(modules.split())
        assert "revcrochet.cli" in loaded
        heavy = {"dataclasses", "inspect", "ast", "decimal", "fractions", "json", "typing",
                 "argparse", "gettext", "re", "enum", "collections", "functools"}
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


CODE_LINES_SAMPLE = '''"""A module docstring
on two lines."""

# a comment
import math  # code with a comment


class C:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        return """a string that is
not a docstring"""
'''


def test_code_lines_leave_out_comments_docstrings_and_blank_lines():
    # code: import, class, def, and the return's string on two lines
    assert code_lines(CODE_LINES_SAMPLE) == 5
    assert code_lines("x = 1\n# x = 2\n") == 1
