import math
import pickle
import random
import re
from collections import Counter

import numpy as np
import pytest

from revcrochet import (
    PatternSpec,
    SpecValidationError,
    arclength_rows,
    build_plan,
    find_extrema,
    parse,
    solve_landmarks,
)
from revcrochet import calculus, expression, render_pattern, render_svg, shape_rows
from revcrochet.calculus import (
    QuadratureError,
    Segment,
    adaptive_simpson,
    round_half_away,
    round_landmark,
)
from revcrochet.cli import _parse_args
from revcrochet.expression import EvalDomainError

from conftest import (
    EXTREMUM_HI,
    EXTREMUM_LO,
    LANDMARKS_EVEN,
    LANDMARKS_EXTREMA,
    RUNNING_TEXT,
    SEGMENT_ROW_COUNTS,
    SEGMENT_ROW_LENGTHS,
    arc_integrand,
    assert_named_by_compiled_f,
    count_f_calls,
    gl_arclength,
    outcome,
    random_valid_spec,
    reference_extrema,
    reference_landmarks,
    reference_simpson,
    reference_validate,
    same_float,
)
from corpus import _draw as corpus_draw
from corpus import fast_specs
from corpus import specs as corpus_specs
import landmark_oracle


DEEP_TEXT = "3 + sin(5*x)*cos(3*x) + exp(-x^2)*x^2"


# The float just above sqrt(3): sqrt(1.0 + d*d) is exactly 2.0.
SLOPE_FOR_2 = 1.7320508075688774


def integrand_steps(*at):
    """An f' whose integrand sqrt(1 + f'^2) is 1 + the number of at below x, to an ulp."""
    def fp(x):
        k = sum(x > c for c in at)
        return math.sqrt(k * (k + 2.0))

    return fp


def make_spec(text, a, b, stitch_gauge=22, row_gauge=25, scale=0.18):
    return PatternSpec(parse(text), a, b, stitch_gauge, row_gauge, scale, source=text)


def skip_bound_intervals():
    """Seeded (spec, lo, hi), 200 per spec, from the whole rest of [lo, b] down to 1e-7 of it."""
    rng = random.Random(5)
    specs = [random_valid_spec(rng) for _ in range(6)] + [
        make_spec("5", 0.0, 3.0),                # g is exactly 1
        make_spec("2 + 3*x", 0.0, 3.0),          # g is exactly sqrt(10)
        make_spec("2 + sin(20*x)", 0.0, 10.0),   # the ripple anchor
        make_spec(DEEP_TEXT, -4.0, 4.0),         # the deep anchor
        make_spec("2 + abs(x - 0.3)", 0.0, 1.0),  # the kink anchor
    ]
    for spec in specs:
        for _ in range(200):
            lo = rng.uniform(spec.a, spec.b)
            hi = lo + (spec.b - lo) * 10.0 ** -rng.uniform(0.0, 7.0)
            yield spec, lo, hi


class TestRounding:
    def test_round_half_away(self):
        assert round_half_away(2.5) == 3
        assert round_half_away(-2.5) == -3
        assert round_half_away(2.4) == 2
        assert round_half_away(-2.4) == -2
        assert round_half_away(16.162) == 16

    def test_round_landmark(self):
        assert round_landmark(-2.845001) == -2.85
        assert round_landmark(-2.8449) == -2.84
        assert round_landmark(0.81499) == 0.81


class TestValidation:
    def test_interval_order(self):
        with pytest.raises(SpecValidationError, match="a must be less than b"):
            make_spec("x", 1.0, 0.0).validate()

    def test_negative_function(self):
        with pytest.raises(SpecValidationError, match="nonnegative"):
            make_spec("x - 10", 0.0, 1.0).validate()

    def test_zero_inside_interval(self):
        with pytest.raises(SpecValidationError, match="positive on the open interval"):
            make_spec("x^2", -1.0, 1.0).validate()

    def test_zero_at_endpoints_allowed(self):
        make_spec("sin(x)", 0.0, math.pi).validate()

    def test_derivative_must_be_defined(self):
        # sqrt'(x) = 1/(2 sqrt(x)) blows up at 0
        with pytest.raises(SpecValidationError, match="f' is"):
            make_spec("sqrt(x)", 0.0, 1.0).validate()
        for extrema in (True, False):
            with pytest.raises(SpecValidationError, match=r"^f' is undefined at x=0\.0$") as got:
                build_plan(make_spec("sqrt(x)", 0.0, 1.0), prioritize_extrema=extrema)
            assert_named_by_compiled_f(got.value, 0.0, ZeroDivisionError)

    def test_undefined_function(self):
        # positive everywhere it is defined, but blows up at the x=0 sample
        with pytest.raises(SpecValidationError, match="f is"):
            make_spec("1/x^2", -1.0, 1.0).validate()
        for extrema in (True, False):
            with pytest.raises(SpecValidationError, match=r"^f is undefined at x=0\.0$") as got:
                build_plan(make_spec("1/x^2", -1.0, 1.0), prioritize_extrema=extrema)
            assert_named_by_compiled_f(got.value, 0.0, ZeroDivisionError)

    def test_non_finite_derivative(self):
        big = "1" + "0" * 200
        with pytest.raises(SpecValidationError, match=r"^f' is not finite at x=0\.0$"):
            make_spec(f"{big}*({big}*x) + 1", 0.0, 1.0).validate()

    def test_gauge_types(self):
        with pytest.raises(SpecValidationError, match="stitch gauge"):
            PatternSpec(parse("x + 1"), 0.0, 1.0, 0, 25, 0.18, "x + 1").validate()
        with pytest.raises(SpecValidationError, match="scale"):
            PatternSpec(parse("x + 1"), 0.0, 1.0, 22, 25, -0.5, "x + 1").validate()

    @pytest.mark.parametrize("field", ["a", "b", "stitch_gauge", "row_gauge", "scale"])
    @pytest.mark.parametrize("flag", [False, True])
    def test_bools_are_not_numbers(self, field, flag):
        # each would pass as 0 or 1: a = False, b = True and scale = True build a pattern
        spec = make_spec("x^2 + 1", 0.0, 1.0, 22, 25, 1.0)._replace(**{field: flag})
        message = f"^{field} must be a number, not {flag}$"
        with pytest.raises(SpecValidationError, match=message):
            spec.validate()
        with pytest.raises(SpecValidationError, match=message):
            build_plan(spec)

    @pytest.mark.parametrize("field", ["a", "b", "scale"])
    @pytest.mark.parametrize("value", ["0", 1 + 0j, None])
    def test_non_numbers_are_rejected(self, field, value):
        # each ended in TypeError from math.isfinite
        spec = make_spec("x^2 + 1", 0.0, 1.0, 22, 25, 1.0)._replace(**{field: value})
        message = f"^{re.escape(f'{field} must be a number, not {value!r}')}$"
        with pytest.raises(SpecValidationError, match=message):
            spec.validate()
        with pytest.raises(SpecValidationError, match=message):
            build_plan(spec)

    def test_interval_end_past_the_bound(self):
        # int b: math.isfinite(10**400) ended in OverflowError
        spec = PatternSpec(parse("x + 1"), 0, 10**400, 20, 20, 1.0, "x + 1")
        message = r"^a and b must be finite and less than 2\*\*1023 in magnitude$"
        with pytest.raises(SpecValidationError, match=message):
            build_plan(spec)
        # the largest ends the bound admits: b - a and a + b are finite
        top = math.nextafter(2.0**1023, 0.0)
        make_spec("2", -top, top).validate()

    def test_all_bool_spec_is_rejected(self):
        spec = PatternSpec(parse("x^2+1"), False, True, True, 25, True, "x^2+1")
        with pytest.raises(SpecValidationError, match="^a must be a number, not False$"):
            build_plan(spec)


BIG = "1" + "0" * 200

# Every spec this file expects the grid scan to reject, with a few that pass.
SCAN_CASES = [
    ("x - 10", 0.0, 1.0),
    ("x^2", -1.0, 1.0),
    ("sin(x)", 0.0, math.pi),
    ("sqrt(x)", 0.0, 1.0),
    ("1/x^2", -1.0, 1.0),
    (f"{BIG}*({BIG}*x) + 1", 0.0, 1.0),
    ("2 + (abs(x-0.5) - 0.0001)^1.5", 0.0, 1.0003),
    ("2 + sin((x - 0.5)^1.5)", 0.0, 1.0),
    ("1 + 0.5*tan(2*x)", -1.0, 1.0),
    ("2 + 0.5*sign(x - 0.3)", 0.0, 1.0),
    ("1.5 + ln(x + 0.2)", 0.0, 2.0),
    ("2 + 1/(x - 0.25)", 0.0, 1.0),
    ("2 + sin(20*x)", 0.0, 10.0),
    (DEEP_TEXT, -4.0, 4.0),
    (RUNNING_TEXT, -3.0, 1.0),
]


class TestCertifiedScans:
    """validate and find_extrema against the walk of every grid point."""

    @pytest.mark.parametrize("text, a, b", SCAN_CASES)
    def test_listed_specs_match_the_point_by_point_scans(self, text, a, b):
        spec = make_spec(text, a, b)
        assert outcome(spec.validate) == outcome(reference_validate, spec)
        assert outcome(find_extrema, spec) == outcome(reference_extrema, spec)

    def test_seeded_specs_match_the_point_by_point_scans(self):
        rng = random.Random(77)
        for _ in range(25):
            spec = random_valid_spec(rng)
            assert outcome(spec.validate) == outcome(reference_validate, spec) is None
            assert find_extrema(spec) == reference_extrema(spec)

    @pytest.mark.parametrize(
        "cls", ["complex-kink", "pole", "tan", "ln", "sign", "sqrt-abs", "abs-cusp"])
    def test_seeded_corpus_specs_match_the_point_by_point_walk(self, cls):
        # 21 of these 48 specs are rejected, none of the sqrt-abs ones
        rng = random.Random(f"walk:{cls}")
        for _ in range(8):
            spec = make_spec(*corpus_draw(cls, rng))
            assert outcome(find_extrema, spec) == outcome(reference_extrema, spec)
            assert outcome(spec.validate) == outcome(reference_validate, spec)

    def test_plan_evaluates_f_prime_at_no_x_twice(self, monkeypatch):
        # f(0) = 0 and f'(0) = 0 leave the ranges at 0 undecided.  The
        # quadratures and the landmark search, which sample some x more than
        # once, get f' unrecorded.
        spec = make_spec("x^2", 0.0, 1.0)
        fp, xs, landmarks = spec.curve.fp, [], False

        def recorded(x):
            if not landmarks:
                xs.append(x)
            return fp(x)

        def solve(*args):
            nonlocal landmarks
            landmarks = True
            try:
                return solve_landmarks(*args)
            finally:
                landmarks = False

        quadrature = calculus.adaptive_simpson
        monkeypatch.setattr(calculus, "adaptive_simpson", lambda _, *args: quadrature(fp, *args))
        monkeypatch.setattr(calculus, "solve_landmarks", solve)
        spec.curve = spec.curve._replace(fp=recorded)
        build_plan(spec)
        assert xs and len(set(xs)) == len(xs)

    @pytest.mark.parametrize("text", ["2 + abs(x - 0.3)", "2 + abs(sin(7*x))"])
    def test_f_box_alone_spares_the_checks_of_f(self, text):
        # sign in f' leaves f' undecided around each kink; f's own enclosure
        # still proves f > 0 there
        spec = make_spec(text, 0.0, 1.0)
        f, fp, xs = spec.curve.f, spec.curve.fp, []
        spec.curve = spec.curve._replace(f=lambda x: xs.append(x) or f(x))
        fresh = make_spec(text, 0.0, 1.0)
        assert find_extrema(spec) == reference_extrema(fresh)
        assert outcome(spec.validate) == outcome(reference_validate, fresh) is None
        assert xs == []
        # the checks of f' stay where f' is undecided
        x_fp = []
        spec.curve = spec.curve._replace(fp=lambda x: x_fp.append(x) or fp(x))
        spec.validate()
        assert x_fp

    @pytest.mark.parametrize("text, a, b, f_checks", [
        ("2 + sign(sin(50*x))", 0.1, 10.0, 7), ("2 + sign(x - x)", 0.0, 1.0, 2049)])
    def test_a_flat_f_prime_is_not_scanned(self, text, a, b, f_checks):
        # the enclosure of f' = 0 is exactly [0, 0] on [a, b], so f' is 0 at
        # every point and the halves inherit that; f is checked where its
        # enclosure is undecided, in the one-cell pieces around the jumps
        spec = make_spec(text, a, b)
        calls = Counter()

        def counted(name):
            fn = getattr(spec.curve, name)
            return lambda *args: calls.update([name]) or fn(*args)

        spec.curve = spec.curve._replace(
            f=counted("f"), fp=counted("fp"), fp_box=counted("fp_box"))
        assert find_extrema(spec) == reference_extrema(make_spec(text, a, b)) == []
        assert calls == {"f": f_checks, "fp_box": 1}

    @pytest.mark.parametrize("cls", ["pole", "tan", "sign", "abs-cusp"])
    def test_the_walk_pieces_partition_the_interval(self, cls):
        rng = random.Random(f"pieces:{cls}")
        for _ in range(8):
            spec = make_spec(*corpus_draw(cls, rng))
            for extrema in (True, False):
                pieces = []
                try:
                    if extrema:
                        find_extrema(spec, pieces)
                    else:
                        spec.validate(pieces)
                except SpecValidationError:
                    continue
                n = calculus.EXTREMUM_GRID
                step = (spec.b - spec.a) / n
                assert pieces[0][0] == spec.a and pieces[-1][1] == spec.b
                for (_, hi, cont), (lo, _, next_cont) in zip(pieces, pieces[1:]):
                    assert hi == lo and not (cont and next_cont)
                for lo, hi, cont in pieces:
                    cell = round((lo - spec.a) / step)
                    end = spec.a + (cell + 1) * step if cell + 1 < n else spec.b
                    assert cont or (lo, hi) == (spec.a + cell * step, end)
                    assert cont or spec.curve.f_box(lo, hi) is None

    def test_running_example_extrema_skip_most_points(self, running_spec):
        spec = running_spec._replace()  # a curve of its own
        fp = spec.curve.fp
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return fp(x)

        spec.curve = spec.curve._replace(fp=counted)
        assert find_extrema(spec) == reference_extrema(running_spec)
        assert calls <= 1000  # 4,137 with every grid point, bisection included


class TestArclength:
    def test_line_closed_form(self):
        # integrand is the constant sqrt(2)
        spec = make_spec("x", 0.0, 1.0, row_gauge=4, scale=1.0)
        assert arclength_rows(spec, 0.0, 1.0) == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_line_closed_form_scales(self):
        spec = make_spec("x", 0.0, 3.0, row_gauge=25, scale=0.18)
        expected = math.sqrt(2) * 3.0 * 0.18 * 25 / 4
        assert arclength_rows(spec, 0.0, 3.0) == pytest.approx(expected, abs=1e-9)

    def test_running_example_segments(self, running_spec):
        got = [
            arclength_rows(running_spec, -3.0, EXTREMUM_LO),
            arclength_rows(running_spec, EXTREMUM_LO, EXTREMUM_HI),
            arclength_rows(running_spec, EXTREMUM_HI, 1.0),
        ]
        for value, expected in zip(got, SEGMENT_ROW_LENGTHS):
            assert value == pytest.approx(expected, abs=0.005)

    def test_running_example_total_against_trapezoid_oracle(self, running_spec):
        total = arclength_rows(running_spec, -3.0, 1.0)
        assert total == pytest.approx(16.162, abs=0.01)
        xs = np.linspace(-3.0, 1.0, 1_000_001)
        integrand = np.sqrt(1.0 + (3 * xs**2 + 4 * xs - 2) ** 2)
        raw = np.trapezoid(integrand, xs)
        assert raw == pytest.approx(14.366, abs=0.005)
        assert total == pytest.approx(raw * 1.125, abs=1e-4)

    def test_additivity(self, running_spec):
        rng = random.Random(11)
        whole = arclength_rows(running_spec, -3.0, 1.0)
        for _ in range(10):
            c = rng.uniform(-2.9, 0.9)
            split = arclength_rows(running_spec, -3.0, c) + arclength_rows(
                running_spec, c, 1.0
            )
            assert split == pytest.approx(whole, abs=1e-6)

    def test_rejects_bad_bounds(self, running_spec):
        with pytest.raises(ValueError):
            arclength_rows(running_spec, 1.0, -3.0)

    @pytest.mark.parametrize("d, p, w", [(-0.2677, 1.048, 1.456), (-0.3226, 1.006, 7.1)])
    def test_cusp_converges_to_the_trapezoid_oracle(self, d, p, w):
        # f' ~ |x - d|^(p - 1) near d, so the integrand changes too fast for
        # the halved tolerance on intervals a few ulps wide, at the depth limit
        fp = make_spec(f"3 + abs(x - {d})^{p}*sin({w}*x)", -1.4, 1.35).curve.fp
        xs = np.linspace(-1.4, 1.35, 2_000_001)
        u = xs - d
        dy = p * np.abs(u) ** (p - 1) * np.sign(u) * np.sin(w * xs)
        dy += np.abs(u) ** p * w * np.cos(w * xs)
        oracle = np.trapezoid(np.sqrt(1.0 + dy**2), xs)
        whole = adaptive_simpson(fp, -1.4, 1.35)
        split = adaptive_simpson(fp, -1.4, d) + adaptive_simpson(fp, d, 1.35)
        assert whole == pytest.approx(oracle, abs=1e-7)
        assert split == pytest.approx(oracle, abs=1e-7)

    def test_depth_limit_intervals_share_one_allowance(self, monkeypatch):
        # at QUAD_MAX_DEPTH = 6 each unit step of the integrand leaves one
        # interval at the depth limit, with an error estimate of about
        # 0.87*QUAD_TOL
        monkeypatch.setattr(calculus, "QUAD_TOL", 1e-4)
        monkeypatch.setattr(calculus, "QUAD_MAX_DEPTH", 6)
        got = adaptive_simpson(integrand_steps(0.3), 0.0, 1.0)
        assert got == pytest.approx(1.7, abs=0.01)
        with pytest.raises(QuadratureError):
            adaptive_simpson(integrand_steps(0.3, 0.8), 0.0, 1.0)

    def test_non_integrable_singularity_raises(self):
        with pytest.raises(QuadratureError, match="did not converge"):
            adaptive_simpson(lambda x: 1.0 / abs(x - 1.0 / 3.0), 0.0, 1.0)

    def test_splits_past_the_bound_raise(self, monkeypatch):
        # f' is called 5 times on the first level, then twice per step; each
        # split adds two steps
        calls = []

        def fp(x):
            calls.append(x)
            return math.cos(7.0 * x)

        whole = adaptive_simpson(fp, 0.0, 3.0)
        splits = (len(calls) - 5) // 4
        assert len(calls) == 5 + 4 * splits and splits > 100
        monkeypatch.setattr(calculus, "QUAD_MAX_SPLITS", splits)
        assert adaptive_simpson(fp, 0.0, 3.0) == whole
        monkeypatch.setattr(calculus, "QUAD_MAX_SPLITS", splits - 1)
        with pytest.raises(QuadratureError, match=f"within {splits - 1} splits$"):
            adaptive_simpson(fp, 0.0, 3.0)
        # an interval accepted without a split counts none; the integrand
        # sqrt(1 + SLOPE_FOR_2**2) is exactly 2.0
        monkeypatch.setattr(calculus, "QUAD_MAX_SPLITS", 0)
        assert adaptive_simpson(lambda x: SLOPE_FOR_2, 0.0, 3.0) == 6.0


class TestQuadratureOracle:
    """adaptive_simpson(fp) against reference_simpson of the g closure around fp."""

    @staticmethod
    def assert_same(fp, lo, hi):
        got = outcome(adaptive_simpson, fp, lo, hi)
        tol, depth = calculus.QUAD_TOL, calculus.QUAD_MAX_DEPTH
        expected = outcome(reference_simpson, arc_integrand(fp), lo, hi, tol, depth)
        # recording the leaf table changes neither the float nor the error
        recorded = outcome(adaptive_simpson, fp, lo, hi, [])
        if isinstance(expected, float):
            assert isinstance(got, float) and same_float(got, expected)
            assert isinstance(recorded, float) and same_float(recorded, expected)
        else:
            assert got == recorded == expected
        return got

    def test_seeded_intervals(self):
        for spec, lo, hi in skip_bound_intervals():
            self.assert_same(spec.curve.fp, lo, hi)

    def test_depth_limit_allowance(self, monkeypatch):
        assert self.assert_same(lambda x: 1.0 / abs(x - 1.0 / 3.0), 0.0, 1.0)[0] is (
            QuadratureError
        )
        monkeypatch.setattr(calculus, "QUAD_TOL", 1e-4)
        monkeypatch.setattr(calculus, "QUAD_MAX_DEPTH", 6)
        assert isinstance(self.assert_same(integrand_steps(0.3), 0.0, 1.0), float)
        assert self.assert_same(integrand_steps(0.3, 0.8), 0.0, 1.0)[0] is QuadratureError

    def test_split_bound(self, monkeypatch):
        calls = []

        def fp(x):
            calls.append(x)
            return math.cos(7.0 * x)

        adaptive_simpson(fp, 0.0, 3.0)
        needed = (len(calls) - 5) // 4  # the splits it takes; see test_splits_past_the_bound_raise
        for splits in (0, 1, 2, needed - 1, needed):
            monkeypatch.setattr(calculus, "QUAD_MAX_SPLITS", splits)
            assert isinstance(self.assert_same(fp, 0.0, 3.0), float) is (splits == needed)
        monkeypatch.setattr(calculus, "QUAD_TOL", 1e-12)
        assert self.assert_same(fp, 0.0, 3.0)[0] is QuadratureError
        monkeypatch.setattr(calculus, "QUAD_MAX_SPLITS", 0)
        assert self.assert_same(lambda x: SLOPE_FOR_2, 0.0, 3.0) == 6.0

    @pytest.mark.parametrize("bad", [
        lambda x: x == 0.0,                     # the first sample, lo
        lambda x: x == 0.25,                    # the fourth, lmid of [0, 1]
        lambda x: x == 0.75,                    # the fifth, rmid of [0, 1]
        lambda x: abs(x - 0.3) < 1e-3,          # a sample some levels down
        lambda x: x > 0.3,                      # the first level's mid and hi
    ])
    def test_undefined_fprime_names_the_same_x(self, bad):
        def fp(x):
            if bad(x):
                raise EvalDomainError(f"undefined at x={x!r}")
            return math.cos(7.0 * x)

        got = self.assert_same(fp, 0.0, 1.0)
        assert got[0] is EvalDomainError and got[1].startswith("f' is undefined at x=")
        self.assert_chained(fp, 0.0, 1.0)

    def test_undefined_fprime_of_a_compiled_spec(self):
        # f' = 1/(2*sqrt(x - 0.25)) is undefined at and below 0.25
        fp = make_spec("sqrt(x - 0.25)", 0.25, 1.0).curve.fp
        assert self.assert_same(fp, 0.0, 1.0) == (EvalDomainError, "f' is undefined at x=0.0")
        assert self.assert_same(fp, 0.25, 1.0)[0] is EvalDomainError
        assert isinstance(self.assert_same(fp, 0.3, 1.0), float)
        self.assert_chained(fp, 0.0, 1.0)
        self.assert_chained(fp, 0.25, 1.0)

    @staticmethod
    def assert_chained(fp, lo, hi):
        """With and without a leaf table, the error's cause is what fp raised."""
        raised = []

        def keeping(x):
            try:
                return fp(x)
            except EvalDomainError as exc:
                raised.append(exc)
                raise

        for tables in (None, []):
            raised.clear()
            with pytest.raises(EvalDomainError) as info:
                adaptive_simpson(keeping, lo, hi, tables)
            assert len(raised) == 1 and info.value.__cause__ is raised[0]
            assert str(info.value) == f"f' is {raised[0]}"

    def test_gauss_legendre_agrees_on_the_running_example(self, running_spec, running_plan):
        # tests/landmark_oracle.py checks every landmark with gl_arclength;
        # here it meets adaptive_simpson on the three segments
        assert [seg.row_count for seg in running_plan.segments] == SEGMENT_ROW_COUNTS
        for seg in running_plan.segments:
            rows = running_spec.rows_per_unit * gl_arclength(running_spec.curve.fp, seg.lo, seg.hi)
            assert abs(rows - seg.arclength_rows) <= 1e-9

    def test_landmark_oracle_finds_only_the_known_wrong_landmarks(self):
        # ROADMAP item 17: the landmarks that fall in the wrong rounding cell
        # today; a change that moves another landmark or row count on these
        # specs fails here, and placing these right empties the list
        found = []
        for _, spec, extrema in landmark_oracle.specs(
            list(landmark_oracle.RUNGS), landmark_oracle.SEEDED
        ):
            found += landmark_oracle.check(spec, extrema)
        assert [line.split(" (T = ")[0] for line in found] == KNOWN_WRONG_LANDMARKS


KNOWN_WRONG_LANDMARKS = [
    "808 rows: segment 0 landmark 199: -2.68, oracle -2.67",
    "808 rows: segment 1 landmark 284: 0.21, oracle 0.20",
    "2694 rows: segment 0 landmark 595: -2.72, oracle -2.71",
    "2694 rows: segment 0 landmark 1254: -2.14, oracle -2.15",
    "2694 rows: segment 0 landmark 1336: -1.98, oracle -1.99",
    "2694 rows: segment 1 landmark 436: -0.76, oracle -0.75",
    "2694 rows: segment 1 landmark 579: -0.54, oracle -0.53",
    "2694 rows: segment 1 landmark 661: -0.41, oracle -0.40",
    "2694 rows: segment 1 landmark 947: 0.20, oracle 0.21",
]


def leaf_samples(fp, lo, hi):
    """g = sqrt(1 + fp^2) at the five points adaptive_simpson samples on [lo, hi]."""
    mid = 0.5 * (lo + hi)
    xs = (lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi)
    return [math.sqrt(1.0 + d * d) for d in map(fp, xs)]


def assert_leaves_replay(fp, lo, hi, table):
    """The table tiles [lo, hi] left to right, and each leaf's value is its Boole
    value on its samples, taken again: the float the quadrature accepted.
    Returns the number of leaves."""
    assert table[0] == lo and table[-1] == hi and len(table) % 2 == 1
    for k in range(0, len(table) - 1, 2):
        u, value, v = table[k:k + 3]
        assert u < v
        g0, g1, g2, g3, g4 = leaf_samples(fp, u, v)
        mid = 0.5 * (u + v)
        whole = (v - u) / 6.0 * (g0 + 4.0 * g2 + g4)
        left = (mid - u) / 6.0 * (g0 + 4.0 * g1 + g2)
        right = (v - mid) / 6.0 * (g2 + 4.0 * g3 + g4)
        delta = left + right - whole
        assert same_float(value, left + right + delta / 15.0)
    return len(table) // 2


def leaf_tables(spec, prioritize_extrema=True):
    """The plan, and the leaf tables build_plan records for its segments."""
    plan = build_plan(spec, prioritize_extrema)
    tables = []
    for seg in plan.segments:
        arclength_rows(spec, seg.lo, seg.hi, tables)
    return plan, tables


def assert_tables_replay(spec, plan, tables):
    """Every kept table replays, and the running counts of leaves add up; returns the leaves."""
    held = 0
    for seg, (table, count) in zip(plan.segments, tables, strict=True):
        if table is not None:
            held += assert_leaves_replay(spec.curve.fp, seg.lo, seg.hi, table)
        assert count == held
    return held


def concatenated_reference(spec, plan):
    landmarks = []
    for seg in plan.segments:
        pts = reference_landmarks(spec, seg)
        landmarks.extend(pts if not landmarks else pts[1:])
    return tuple(landmarks)


class TestQuadratureTree:
    """The leaves of the segment quadrature's tree, which build_plan tabulates for the landmarks."""

    def test_seeded_specs_replay(self):
        rng = random.Random(24)
        for _ in range(12):
            spec = random_valid_spec(rng)
            plan, tables = leaf_tables(spec, rng.random() < 0.5)
            assert assert_tables_replay(spec, plan, tables)

    @pytest.mark.parametrize("text, a, b, scale", [
        ("2 + sin(20*x)", 0.0, 10.0, 0.3),  # the ripple anchor
        (DEEP_TEXT, -4.0, 4.0, 0.5),        # the deep anchor
    ])
    def test_anchors_replay(self, text, a, b, scale):
        spec = make_spec(text, a, b, scale=scale)
        plan, tables = leaf_tables(spec)
        assert assert_tables_replay(spec, plan, tables) >= 1000  # 4,455 and 1,085
        assert all(table is not None for table, _ in tables)

    def test_depth_limit_nodes_are_missing(self, monkeypatch):
        # f' ~ |x - 0.3|^0.05 changes too fast next to the cusp for the
        # halved tolerance: the one segment starts there, and its quadrature
        # accepts a leaf at the depth limit, so it keeps no table and its
        # landmarks take the plain bisection
        spec = make_spec("2 + abs(x - 0.3)^1.05", 0.3, 1.0, scale=2.0)
        plan, tables = leaf_tables(spec)
        assert [table for table, _ in tables] == [None] and plan.total_rows > 2

        def refuse(*args):
            raise AssertionError("a segment with no table reads one")

        monkeypatch.setattr(calculus, "_crossings", refuse)
        assert build_plan(spec).landmarks == plan.landmarks == concatenated_reference(spec, plan)

    def test_a_plan_past_the_node_cap(self, monkeypatch):
        # a cap of 200 leaves, where the 65 segments take 4,455: a segment
        # whose quadrature would pass what is left of it keeps no table
        monkeypatch.setattr(calculus, "TABLE_LEAVES", 200)
        spec = make_spec("2 + sin(20*x)", 0.0, 10.0, scale=0.3)
        plan, tables = leaf_tables(spec)
        kept = [table is not None for table, _ in tables]
        assert kept[:2] == [True, True] and kept.count(False) > 50
        assert assert_tables_replay(spec, plan, tables) <= 200
        assert plan.landmarks == concatenated_reference(spec, plan)

    def test_a_root_accepted_at_the_first_level(self, monkeypatch):
        # f' is constant, so the segment's first level passes its error
        # test: the table holds one leaf, whose quartic is the constant g,
        # and no landmark step integrates
        spec = make_spec("2 + 0.5*x", 0.0, 3.0, scale=2.0)
        plan, tables = leaf_tables(spec)
        ((table, held),) = tables
        assert len(table) == 3 and held == 1 and plan.segments[0].row_count > 2
        quadrature, solve = calculus.adaptive_simpson, calculus.solve_landmarks
        inside = False

        def refuse(*args):
            if inside:
                raise AssertionError("a landmark step integrates")
            return quadrature(*args)

        def landmarks(*args):
            nonlocal inside
            assert args[2] is not None  # the segment's table
            inside = True
            try:
                return solve(*args)
            finally:
                inside = False

        monkeypatch.setattr(calculus, "adaptive_simpson", refuse)
        monkeypatch.setattr(calculus, "solve_landmarks", landmarks)
        assert build_plan(spec).landmarks == concatenated_reference(spec, plan)

    def test_split_bound(self, monkeypatch):
        # the quadrature splits just as often as the bound allows, and its
        # table holds one leaf more than its splits
        calls = []

        def fp(x):
            calls.append(x)
            return math.cos(7.0 * x)

        adaptive_simpson(fp, 0.0, 3.0)
        needed = (len(calls) - 5) // 4  # see test_splits_past_the_bound_raise
        monkeypatch.setattr(calculus, "QUAD_MAX_SPLITS", needed)
        tables = []
        adaptive_simpson(fp, 0.0, 3.0, tables)
        assert assert_leaves_replay(fp, 0.0, 3.0, tables[0][0]) == tables[0][1] == needed + 1

    def test_depth_limit(self, monkeypatch):
        # at QUAD_MAX_DEPTH = 6 the unit step at 0.3 leaves one interval at
        # the depth limit (see test_depth_limit_intervals_share_one_allowance)
        monkeypatch.setattr(calculus, "QUAD_TOL", 1e-4)
        monkeypatch.setattr(calculus, "QUAD_MAX_DEPTH", 6)
        tables = []
        adaptive_simpson(integrand_steps(0.3), 0.0, 1.0, tables)
        adaptive_simpson(integrand_steps(), 0.0, 1.0, tables)
        assert tables == [(None, 0), (tables[1][0], 1)] and len(tables[1][0]) == 3

    def test_segment_quadratures_go_through_the_module_attribute(self, monkeypatch):
        # perfbench/probe.py counts and times them there, and tests patch it
        spec = make_spec("2 + sin(20*x)", 0.0, 10.0, scale=0.3)
        quadrature, solve = calculus.adaptive_simpson, calculus.solve_landmarks
        spans, before_landmarks = [], []

        def counted(fp, lo, hi, *rest):
            spans.append((lo, hi))
            return quadrature(fp, lo, hi, *rest)

        def landmarks(*args):
            before_landmarks.append(len(spans))
            return solve(*args)

        monkeypatch.setattr(calculus, "adaptive_simpson", counted)
        monkeypatch.setattr(calculus, "solve_landmarks", landmarks)
        plan = build_plan(spec)
        n = len(plan.segments)
        assert before_landmarks[0] == n > 1
        assert spans[:n] == [(seg.lo, seg.hi) for seg in plan.segments]


class TestFindExtrema:
    def test_running_example(self, running_spec):
        got = find_extrema(running_spec)
        assert len(got) == 2
        assert got[0] == pytest.approx(EXTREMUM_LO, abs=1e-8)
        assert got[1] == pytest.approx(EXTREMUM_HI, abs=1e-8)

    def test_monotone_has_none(self):
        assert find_extrema(make_spec("x + 2", 0.0, 1.0)) == []

    def test_sine_plus_two(self):
        spec = make_spec("sin(x) + 2", 0.0, 2 * math.pi, scale=0.5)
        got = find_extrema(spec)
        assert len(got) == 2
        assert got[0] == pytest.approx(math.pi / 2, abs=1e-6)
        assert got[1] == pytest.approx(3 * math.pi / 2, abs=1e-6)


    @pytest.mark.parametrize("text, expected", [
        # two sign changes 2e-7 apart, within EXTREMUM_DEDUPE: the second goes
        ("2 + (x - 0.5)^3/3 - 0.00000000000001*x", [0.49999989988282323]),
        # one sign change within EXTREMUM_DEDUPE of a, and one of b
        ("1 + (x - 0.0000001)^2", []),
        ("1 + (x - 0.9999999)^2", []),
    ])
    def test_extrema_within_the_dedupe_distance_merge(self, text, expected):
        spec = make_spec(text, 0.0, 1.0)
        assert find_extrema(spec) == reference_extrema(spec) == expected


class TestSolveLandmarks:
    def test_uniform_spacing_for_line(self):
        spec = make_spec("x", 0.0, 2.0, row_gauge=25, scale=0.18)
        length = arclength_rows(spec, 0.0, 2.0)
        seg = Segment(0.0, 2.0, length, 4)
        assert solve_landmarks(spec, seg) == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    def test_running_example_segment0(self, running_spec, running_plan):
        seg = running_plan.segments[0]
        got = solve_landmarks(running_spec, seg)
        expected = [-3.0, -2.93, -2.84, -2.75, -2.65, -2.53, -2.38, -2.18, EXTREMUM_LO]
        assert got == pytest.approx(expected, abs=1e-9)

    def test_running_example_segment2(self, running_spec, running_plan):
        seg = running_plan.segments[2]
        got = solve_landmarks(running_spec, seg)
        assert got == pytest.approx([EXTREMUM_HI, 0.81, 1.0], abs=1e-9)

    def test_single_row_segment_is_two_landmarks(self):
        spec = make_spec("x + 5", 0.0, 1.0, row_gauge=4, scale=1.0)
        length = arclength_rows(spec, 0.0, 1.0)
        seg = Segment(0.0, 1.0, length, 1)
        assert solve_landmarks(spec, seg) == [0.0, 1.0]

    @staticmethod
    def assert_matches_reference(spec, prioritize_extrema):
        # build_plan reads each segment's leaf table where it trusts it;
        # solve_landmarks with no table has no crossings, and every step
        # makes the exact comparison
        plan = build_plan(spec, prioritize_extrema)
        for seg in plan.segments:
            assert solve_landmarks(spec, seg) == reference_landmarks(spec, seg)
        assert plan.landmarks == concatenated_reference(spec, plan)
        return plan

    def test_random_specs_match_reference_exactly(self):
        rng = random.Random(2024)
        for _ in range(12):
            spec = random_valid_spec(rng)
            self.assert_matches_reference(spec, prioritize_extrema=rng.random() < 0.5)

    @pytest.mark.parametrize("text, a, b, scale", [
        (RUNNING_TEXT, -3.0, 1.0, 9.0),          # 808 rows
        ("0.1*exp(3*x) + 1", 0.0, 2.0, 3.5),     # steep: |f'| up to 121; 889 rows
        ("5", 0.0, 30.0, 4.5),                   # flat: g is exactly 1; 844 rows
        ("5 + 0.000001*x", 0.0, 30.0, 4.5),      # nearly flat
        ("2 + sin(8*x)", 0.0, 6.0, 2.5),         # many slope changes; 496 rows
        ("2 + abs(x - 0.3)", 0.0, 1.0, 100.0),   # a kink inside; 884 rows
    ])
    def test_long_single_segments_match_reference_exactly(self, text, a, b, scale):
        self.assert_matches_reference(make_spec(text, a, b, scale=scale), False)

    @pytest.mark.parametrize("text, a, b, scale", [
        ("2 + sin(20*x)", 0.0, 10.0, 0.3),        # the ripple anchor; 255 rows
        (DEEP_TEXT, -4.0, 4.0, 0.5),              # the deep anchor; 75 rows
        ("1 + 0.001*tan(x)", 1.0, 1.5707935, 0.05),  # near a pole: |f'| up to 1.3e8
        # the enclosure of x^2 - 2*x + 1.01 reaches below 0 on wide boxes
        # around x = 1, so the one of f' stays undecided there
        ("2 + sqrt(x^2 - 2*x + 1.01)", 0.0, 2.0, 2.0),
        # the closed sphere, a gentle curve, with a box of f' per landmark
        ("sin(x)", 0.0, math.pi, 2.0),
    ])
    def test_specs_with_extrema_match_reference_exactly(self, text, a, b, scale):
        self.assert_matches_reference(make_spec(text, a, b, scale=scale), True)

    @pytest.mark.parametrize("case", ["3 + abs(x - 0.5)", "sqrt-abs-45"])
    def test_segments_with_no_crossings_match_reference_exactly(self, case, monkeypatch):
        # build_plan reads no leaf table on either spec, so every step of
        # its landmark search makes the exact comparison.  The kink of
        # 3 + abs(x - 0.5) is the extremum, a segment end, so the box of f'
        # on each segment is undecided (1,008 rows); the box of each
        # landmark decides but at the kink.  Of the corpus spec's two
        # segments (20 rows, exit 0), the box of the first is undecided,
        # and the second keeps no table: a leaf at the depth limit.
        if case.startswith("sqrt-abs"):
            args = _parse_args(next(argv for sid, _, argv in corpus_specs() if sid == case))
            spec = PatternSpec(parse(args["function"]), args["a"], args["b"],
                               args["stitch_gauge"], args["row_gauge"], args["scale"],
                               args["function"])
            extrema = args["prioritize_extrema"]
        else:
            spec, extrema = make_spec(case, -1.0, 2.0, scale=38.0), True
        crossings, found = [], calculus._crossings

        def spying(*args):
            result = found(*args)
            crossings.append(result[0])
            return result

        monkeypatch.setattr(calculus, "_crossings", spying)
        plan = self.assert_matches_reference(spec, extrema)
        assert [seg.row_count > 1 for seg in plan.segments] == [True, True]
        assert all(found is None for found in crossings)
        if not case.startswith("sqrt-abs"):
            assert plan.total_rows > 1000
            assert all(spec.curve.fp_box(seg.lo, seg.hi) is None for seg in plan.segments)
            boxes, fp_box = [], spec.curve.fp_box

            def recording(lo, hi):
                boxes.append(fp_box(lo, hi))
                return boxes[-1]

            spec.curve = spec.curve._replace(fp_box=recording)
            for seg in plan.segments:
                solve_landmarks(spec, seg)
            assert len(boxes) == plan.total_rows - 2 and boxes.count(None) == 1

    @pytest.mark.parametrize("text", [
        "2 + sin(20*x)",    # the step's first level passes its error test
        "2 + sin(200*x)",   # it fails it, and the step recurses into its halves
    ])
    def test_a_step_ties_where_adaptive_simpson_ties(self, text):
        # two rows on [0, 0.01]: the first step integrates [0, 0.005], and
        # the target is adaptive_simpson's arclength of it, in rows, or one
        # ulp more.  At the tie the step moves right and the landmark rounds
        # down to 0.0; one ulp above, it moves left and rounds up to 0.01.
        # A step whose float is an ulp off adaptive_simpson's moves one.
        spec = make_spec(text, 0.0, 1.0, scale=1.0)
        rows = spec.rows_per_unit * adaptive_simpson(spec.curve.fp, 0.0, 0.005)
        for target, landmark in ((rows, 0.0), (math.nextafter(rows, math.inf), 0.01)):
            assert solve_landmarks(spec, Segment(0.0, 0.01, 2 * target, 2))[1] == landmark

    @pytest.mark.parametrize("limit", ["QUAD_MAX_SPLITS", "QUAD_MAX_DEPTH"])
    def test_a_landmark_step_at_a_quadrature_limit_of_0(self, monkeypatch, limit):
        # two rows: the first step integrates [0, 0.5], which no bound
        # decides (f' changes sign there), and its first level fails; it
        # raises what adaptive_simpson raises on that interval
        spec = make_spec("2 + sin(8*x)", 0.0, 1.0)
        seg = Segment(0.0, 1.0, arclength_rows(spec, 0.0, 1.0), 2)
        monkeypatch.setattr(calculus, limit, 0)
        error = outcome(adaptive_simpson, spec.curve.fp, 0.0, 0.5)
        assert error[0] is QuadratureError and "[0.0, 0.5]" in error[1]
        assert outcome(solve_landmarks, spec, seg) == error

    def test_quadrature_is_at_least_the_skip_bound(self):
        # the lower bounds solve_landmarks uses to skip a bisection step:
        # the width anywhere, and the width times sqrt(1 + m*m) where the
        # enclosure of f' proves |f'| >= m > 0
        proved = 0
        for spec, lo, hi in skip_bound_intervals():
            got = adaptive_simpson(spec.curve.fp, lo, hi)
            assert got >= (hi - lo) * (1.0 - 1e-12)
            box = spec.curve.fp_box(lo, hi)
            m = 0.0 if box is None else max(box[0], -box[1], 0.0)
            if m > 0.0:
                proved += 1
                assert got >= (hi - lo) * math.sqrt(1.0 + m * m) * (1.0 - 1e-12)
        assert proved >= 1000

    def test_cost_per_landmark_does_not_grow_with_segment_length(self):
        # solve_landmarks with no table: every step makes the exact comparison
        def cost(scale):
            """(rows, f' calls per landmark, enclosures of f' per landmark)."""
            spec = make_spec(RUNNING_TEXT, -3.0, 1.0, scale=scale)
            (seg,) = build_plan(spec, prioritize_extrema=False).segments
            fp, fp_box = spec.curve.fp, spec.curve.fp_box
            calls = boxes = 0

            def counted(x):
                nonlocal calls
                calls += 1
                return fp(x)

            def counted_box(lo, hi):
                nonlocal boxes
                boxes += 1
                return fp_box(lo, hi)

            spec.curve = spec.curve._replace(fp=counted, fp_box=counted_box)
            solve_landmarks(spec, seg)
            landmarks = seg.row_count - 1
            return seg.row_count, calls / landmarks, boxes / landmarks

        rows, calls, boxes = cost(9.0)
        # measured: 18.76 calls of f' (3.75 integrating steps of 5 samples
        # at least) and 1.00 enclosures of f' per landmark; 15.0 calls with
        # g at xl carried from the step that moved xl there, 39 calls and
        # 7.8 integrating steps with the slope-1 skip alone, 339 calls with
        # a quadrature per step.  At most 4 integrating steps per landmark.
        assert rows >= 800
        assert calls <= 19 and boxes <= 1
        # 13.86 calls per landmark at 2,694 rows
        longer, longer_calls, longer_boxes = cost(30.0)
        assert longer >= 2600
        assert longer_calls <= calls and longer_boxes <= 1

    @pytest.mark.parametrize("text, a, b, scale, per_row", [
        # by the plain bisection: 81.5 per row with no quadrature tree, 25.8
        # with it (after each extremum f' = 0 at the segment start, so no
        # box decides the first landmark), 22.1 with each step's first
        # level inline and g at xl carried; 4.47 from the leaf tables
        ("2 + sin(20*x)", 0.0, 10.0, 0.3, 5.0),
        # 17.24 by the plain bisection, 13.80 with the first level inline
        # and g at xl carried; 1.63 from the leaf table, 1 of them the
        # sentinel
        (RUNNING_TEXT, -3.0, 1.0, 9.0, 2.0),
    ])
    def test_f_prime_calls_of_the_landmark_search(self, monkeypatch, text, a, b, scale, per_row):
        spec = make_spec(text, a, b, scale=scale)
        fp, solve = spec.curve.fp, calculus.solve_landmarks
        calls, inside = 0, False

        def counted(x):
            nonlocal calls
            calls += inside
            return fp(x)

        def landmarks(*args):
            nonlocal inside
            inside = True
            try:
                return solve(*args)
            finally:
                inside = False

        spec.curve = spec.curve._replace(fp=counted)
        monkeypatch.setattr(calculus, "solve_landmarks", landmarks)
        plan = build_plan(spec)
        assert calls / plan.total_rows <= per_row


class TestBuildPlan:
    def test_running_example_with_extrema(self, running_plan):
        assert running_plan.total_rows == 16
        assert [s.row_count for s in running_plan.segments] == SEGMENT_ROW_COUNTS
        assert len(running_plan.landmarks) == 17
        for got, expected in zip(running_plan.landmarks, LANDMARKS_EXTREMA):
            assert got == pytest.approx(expected, abs=0.0105)

    def test_running_example_even(self, running_plan_even):
        assert running_plan_even.total_rows == 16
        assert len(running_plan_even.segments) == 1
        assert len(running_plan_even.landmarks) == 17
        seg = running_plan_even.segments[0]
        assert seg.arclength_rows / seg.row_count == pytest.approx(1.010, abs=0.001)
        for got, expected in zip(running_plan_even.landmarks, LANDMARKS_EVEN):
            assert got == pytest.approx(expected, abs=0.0105)

    def test_landmark_count_invariant(self, running_plan, running_plan_even):
        for plan in (running_plan, running_plan_even):
            assert len(plan.landmarks) == plan.total_rows + 1
            assert plan.total_rows == sum(s.row_count for s in plan.segments)

    def test_landmarks_strictly_increase(self, running_plan, running_plan_even):
        for plan in (running_plan, running_plan_even):
            assert all(u < v for u, v in zip(plan.landmarks, plan.landmarks[1:]))
            assert plan.landmarks[0] == -3.0
            assert plan.landmarks[-1] == 1.0

    def test_extrema_appear_exactly_once(self, running_plan):
        hits_lo = [x for x in running_plan.landmarks if abs(x - EXTREMUM_LO) < 1e-9]
        hits_hi = [x for x in running_plan.landmarks if abs(x - EXTREMUM_HI) < 1e-9]
        assert len(hits_lo) == 1 and len(hits_hi) == 1

    def test_interior_landmarks_equally_spaced_in_arclength(
        self, running_spec, running_plan
    ):
        # Spacing within a segment is L/[L] row units.  Rounding each
        # landmark to 0.01 in x perturbs a step's arclength by up to about
        # 0.01 * sqrt(1 + f'(x)^2) * rows_per_unit, so the slack must scale
        # with the local integrand (a flat 0.02 rows is unattainable where
        # |f'| is large, e.g. near x = -3 here).
        deriv = running_spec.curve.fp
        for seg in running_plan.segments:
            pts = solve_landmarks(running_spec, seg)
            share = seg.arclength_rows / seg.row_count
            for u, v in zip(pts, pts[1:]):
                step = arclength_rows(running_spec, u, v)
                slope = max(math.hypot(1.0, deriv(u)), math.hypot(1.0, deriv(v)))
                slack = 0.011 * slope * running_spec.rows_per_unit + 0.001
                assert step == pytest.approx(share, abs=slack)

    def test_fprime_is_compiled_once_per_spec(self, monkeypatch):
        derived = []

        def differentiate(tree):
            derived.append(tree)
            return tree.derivative()

        monkeypatch.setattr(calculus, "differentiate", differentiate)
        spec = make_spec("2 + sin(3*x) + 0.25*x^2", 0.0, 4.0)
        build_plan(spec, prioritize_extrema=True)
        assert derived == [spec.func]

    def test_spec_with_a_curve_pickles(self):
        spec = make_spec("2 + sin(3*x)", 0.0, 4.0)
        plan = build_plan(spec)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and "curve" not in vars(copy)
        assert build_plan(copy) == plan

    def test_f_is_compiled_once_per_spec(self, monkeypatch):
        compiled = []

        def compile_expr(tree):
            compiled.append(tree)
            return expression.compile_expr(tree)

        monkeypatch.setattr(calculus, "compile_expr", compile_expr)
        spec = make_spec("2 + sin(3*x) + 0.25*x^2", 0.0, 4.0)
        plan = build_plan(spec, prioritize_extrema=True)
        render_pattern(spec, plan, shape_rows(spec, plan))  # row counts, closure checks
        render_svg(spec, plan)
        assert compiled == [spec.func, spec.func.derivative()]  # f and f', once

    def test_validates_spec(self):
        with pytest.raises(SpecValidationError):
            build_plan(make_spec("x", 1.0, 0.0))

    def test_heights_are_f_at_the_landmarks(self, running_spec, running_plan, running_plan_even):
        f = running_spec.curve.f
        for plan in (running_plan, running_plan_even):
            assert plan.heights == tuple(f(x) for x in plan.landmarks)

    def test_chords_count_only_the_spans_where_no_sign_jumps(self):
        # sign(x - 0.3) jumps inside the grid cell [1228, 1229] / 2**12, and
        # sign(x + 1) never does; the walk halves down to that cell, which
        # is the one piece not proven continuous.  It adds 0, and the flat
        # pieces on both sides add their widths, split at a cut or not.
        spec = make_spec("101 + 100*sign(x - 0.3) + sign(x + 1)", 0.0, 1.0, row_gauge=4, scale=1.0)
        pieces = []
        assert find_extrema(spec, pieces) == []  # f' is 0
        cell = 1 / 2**12
        assert pieces == [(0.0, 1228 * cell, True), (1228 * cell, 1229 * cell, False),
                          (1229 * cell, 1.0, True)]
        assert calculus._chord_rows(spec, pieces, []) == pytest.approx(1.0 - cell, rel=1e-15)
        assert calculus._chord_rows(spec, pieces, [0.4]) == pytest.approx(1.0 - cell, rel=1e-15)
        # a cut in the jump's cell splits it, and the part left of the jump,
        # where the enclosure of f exists, counts
        left = 0.2999 - 1228 * cell
        assert calculus._chord_rows(spec, pieces, [0.2999]) == pytest.approx(
            1.0 - cell + left, rel=1e-15)
        # the walk proves f continuous on the whole interval at once
        spec = make_spec("2 + sign(sin(x))", 0.5, 1.0, row_gauge=4, scale=1.0)
        pieces = []
        spec.validate(pieces)
        assert pieces == [(0.5, 1.0, True)]
        assert calculus._chord_rows(spec, pieces, []) == 0.5
        # sin has its zeros pi and 2*pi in [0.5, 7], inside the grid cells
        # 1664 and 3644 of 6.5 / 2**12; each adds 0
        spec = make_spec("2 + sign(sin(x))", 0.5, 7.0, row_gauge=4, scale=1.0)
        pieces = []
        spec.validate(pieces)
        cell = 6.5 / 2**12
        assert [(round((lo - 0.5) / cell), cont) for lo, _, cont in pieces] == [
            (0, True), (1664, False), (1665, True), (3644, False), (3645, True)]
        expected = 6.5 - 2 * cell
        assert calculus._chord_rows(spec, pieces, []) == pytest.approx(expected, rel=1e-15)

    def test_chords_never_pass_the_arclength(self):
        checked = 0
        for _, _, argv in fast_specs():
            args = _parse_args(argv)
            spec = make_spec(args["function"], args["a"], args["b"], args["stitch_gauge"],
                             args["row_gauge"], args["scale"])
            try:
                plan = build_plan(spec, args["prioritize_extrema"])
            except (SpecValidationError, QuadratureError, EvalDomainError):
                continue
            pieces = []
            if plan.prioritize_extrema:
                find_extrema(spec, pieces)
            else:
                spec.validate(pieces)
            cuts = [seg.lo for seg in plan.segments[1:]]
            arc = sum(seg.arclength_rows for seg in plan.segments)
            chords = calculus._chord_rows(spec, pieces, cuts)
            assert chords <= arc * (1 + calculus.CHORD_MARGIN), argv
            checked += 1
        assert checked >= 60

    def test_f_undefined_at_a_landmark_is_named(self):
        # 0.5 is a rounded landmark between the grid walk's points
        spec = make_spec("2 + 0*ln(abs(x - 0.5))", 0.0, 1.0003, 20, 20, 2.0)
        calls = count_f_calls(spec)
        with pytest.raises(SpecValidationError, match=r"^f is undefined at x=0\.5$") as got:
            build_plan(spec, prioritize_extrema=False)
        # the failed map names x; f is not taken there a second time
        assert calls.count(0.5) == 1 and calls[-1] == 0.5
        assert_named_by_compiled_f(got.value, 0.5, ValueError)

    def test_f_prime_undefined_in_a_landmark_step_is_named(self, monkeypatch):
        # f' is undefined at x = -0.7069 only: the segment's quadrature
        # misses that float, and a plain bisection step samples it
        # (tests/test_cli.py runs the same spec through the CLI)
        spec = make_spec("1.244 + abs(x - -0.7069)^0.986", -1.0, 1.0, 23, 17, 1.257)
        solve, searched = calculus.solve_landmarks, []

        def landmarks(*args):
            searched.append(args[1])
            return solve(*args)

        monkeypatch.setattr(calculus, "solve_landmarks", landmarks)
        with pytest.raises(EvalDomainError, match=r"^f' is undefined at x=-0\.7069$") as got:
            build_plan(spec, prioritize_extrema=False)
        assert len(searched) == 1
        assert_named_by_compiled_f(got.value, -0.7069, ValueError)

    @pytest.mark.parametrize("extrema", [True, False])
    def test_plan_of_zero_stitch_rows_is_refused(self, extrema):
        with pytest.raises(SpecValidationError, match="^every row would have 0 stitches;"):
            build_plan(make_spec("0.001", 0.0, 1.0, 22, 25, 1.0), prioritize_extrema=extrema)
