import math
import pickle
import random

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
    outcome,
    random_valid_spec,
    reference_extrema,
    reference_landmarks,
    reference_simpson,
    reference_validate,
    same_float,
)
from corpus import _draw as corpus_draw


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

    def test_undefined_function(self):
        # positive everywhere it is defined, but blows up at the x=0 sample
        with pytest.raises(SpecValidationError, match="f is"):
            make_spec("1/x^2", -1.0, 1.0).validate()

    def test_non_finite_derivative(self):
        big = "1" + "0" * 200
        with pytest.raises(SpecValidationError, match=r"^f' is not finite at x=0\.0$"):
            make_spec(f"{big}*({big}*x) + 1", 0.0, 1.0).validate()

    def test_gauge_types(self):
        with pytest.raises(SpecValidationError, match="stitch gauge"):
            PatternSpec(parse("x + 1"), 0.0, 1.0, 0, 25, 0.18, "x + 1").validate()
        with pytest.raises(SpecValidationError, match="scale"):
            PatternSpec(parse("x + 1"), 0.0, 1.0, 22, 25, -0.5, "x + 1").validate()


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

    @pytest.mark.parametrize("cls", ["complex-kink", "pole", "tan", "ln", "sign", "sqrt-abs"])
    def test_seeded_corpus_specs_match_the_point_by_point_walk(self, cls):
        # 21 of these 48 specs are rejected, none of the sqrt-abs ones
        rng = random.Random(f"walk:{cls}")
        for _ in range(8):
            spec = make_spec(*corpus_draw(cls, rng))
            assert outcome(find_extrema, spec) == outcome(reference_extrema, spec)
            assert outcome(spec.validate) == outcome(reference_validate, spec)

    def test_plan_evaluates_f_prime_at_no_x_twice(self, monkeypatch):
        # f(0) = 0 and f'(0) = 0 leave the ranges at 0 undecided.  The
        # quadratures, which sample some x more than once, get f' unrecorded.
        spec = make_spec("x^2", 0.0, 1.0)
        fp, xs = spec.curve.fp, []

        def recorded(x):
            xs.append(x)
            return fp(x)

        quadrature = calculus.adaptive_simpson
        monkeypatch.setattr(calculus, "adaptive_simpson", lambda _, *args: quadrature(fp, *args))
        spec.curve = spec.curve._replace(fp=recorded)
        build_plan(spec)
        assert xs and len(set(xs)) == len(xs)

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

    def test_depth_limit_intervals_share_one_allowance(self):
        # at max_depth=6 each unit step of the integrand leaves one interval
        # at the depth limit, with an error estimate of about 0.87*tol
        got = adaptive_simpson(integrand_steps(0.3), 0.0, 1.0, tol=1e-4, max_depth=6)
        assert got == pytest.approx(1.7, abs=0.01)
        with pytest.raises(QuadratureError):
            adaptive_simpson(integrand_steps(0.3, 0.8), 0.0, 1.0, tol=1e-4, max_depth=6)

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
    def assert_same(fp, *args):
        got = outcome(adaptive_simpson, fp, *args)
        expected = outcome(reference_simpson, arc_integrand(fp), *args)
        if isinstance(expected, float):
            assert isinstance(got, float) and same_float(got, expected)
        else:
            assert got == expected
        return got

    def test_seeded_intervals(self):
        for spec, lo, hi in skip_bound_intervals():
            self.assert_same(spec.curve.fp, lo, hi)

    def test_depth_limit_allowance(self):
        args = (0.0, 1.0, 1e-4, 6)
        assert isinstance(self.assert_same(integrand_steps(0.3), *args), float)
        assert self.assert_same(integrand_steps(0.3, 0.8), *args)[0] is QuadratureError
        assert self.assert_same(lambda x: 1.0 / abs(x - 1.0 / 3.0), 0.0, 1.0)[0] is (
            QuadratureError
        )

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
        assert self.assert_same(fp, 0.0, 3.0, 1e-12)[0] is QuadratureError
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
        assert got[0] is EvalDomainError and got[1].startswith("f' undefined at x=")

    def test_undefined_fprime_of_a_compiled_spec(self):
        # f' = 1/(2*sqrt(x - 0.25)) is undefined at and below 0.25
        fp = make_spec("sqrt(x - 0.25)", 0.25, 1.0).curve.fp
        assert self.assert_same(fp, 0.0, 1.0) == (EvalDomainError, "f' undefined at x=0.0")
        assert self.assert_same(fp, 0.25, 1.0)[0] is EvalDomainError
        assert isinstance(self.assert_same(fp, 0.3, 1.0), float)


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
        plan = build_plan(spec, prioritize_extrema)
        for seg in plan.segments:
            assert solve_landmarks(spec, seg) == reference_landmarks(spec, seg)

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
    ])
    def test_specs_with_extrema_match_reference_exactly(self, text, a, b, scale):
        self.assert_matches_reference(make_spec(text, a, b, scale=scale), True)

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

    def test_cost_per_landmark_does_not_grow_with_segment_length(self, monkeypatch):
        spec = make_spec(RUNNING_TEXT, -3.0, 1.0, scale=9.0)
        plan = build_plan(spec, prioritize_extrema=False)
        (seg,) = plan.segments
        assert seg.row_count >= 800
        fp = spec.curve.fp
        calls = quadratures = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return fp(x)

        def counted_simpson(*args):
            nonlocal quadratures
            quadratures += 1
            return adaptive_simpson(*args)

        spec.curve = spec.curve._replace(fp=counted)
        monkeypatch.setattr(calculus, "adaptive_simpson", counted_simpson)
        solve_landmarks(spec, seg)
        landmarks = seg.row_count - 1
        # measured: 18.5 calls of f' and 3.71 quadratures per landmark; 39
        # and 7.8 with the slope-1 skip alone, 339 with a quadrature per step
        assert calls / landmarks <= 22
        assert quadratures / landmarks <= 4.5


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
        # sign(x - 0.5) jumps in the second span only; sign(x + 1) never does
        spec = make_spec("101 + 100*sign(x - 0.5) + sign(x + 1)", 0.0, 1.0, row_gauge=4, scale=1.0)
        spans = [(0.0, 0.4), (0.4, 1.0)]
        assert calculus._chord_rows(spec, spans) == 0.4
        assert calculus._chord_rows(spec, spans[1:]) == 0.0
        # an argument the enclosure cannot keep off 0 counts as a jump
        spec = make_spec("2 + sign(sin(x))", 0.5, 1.0, row_gauge=4, scale=1.0)
        assert calculus._chord_rows(spec, [(0.5, 1.0)]) == 0.5
        spec = make_spec("2 + sign(sin(x))", 0.5, 7.0, row_gauge=4, scale=1.0)
        assert calculus._chord_rows(spec, [(0.5, 7.0)]) == 0.0

    def test_f_undefined_at_a_landmark_is_named(self):
        # 0.5 is a rounded landmark between the grid walk's points
        spec = make_spec("2 + 0*ln(abs(x - 0.5))", 0.0, 1.0003, 20, 20, 2.0)
        with pytest.raises(SpecValidationError, match=r"^f is undefined at x=0\.5$"):
            build_plan(spec, prioritize_extrema=False)

    @pytest.mark.parametrize("extrema", [True, False])
    def test_plan_of_zero_stitch_rows_is_refused(self, extrema):
        with pytest.raises(SpecValidationError, match="^every row would have 0 stitches;"):
            build_plan(make_spec("0.001", 0.0, 1.0, 22, 25, 1.0), prioritize_extrema=extrema)
