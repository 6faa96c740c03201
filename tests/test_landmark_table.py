"""Landmarks read off the segment quadrature's leaf table (calculus.solve_landmarks).

The table path must end every landmark's bracket where the plain bisection
does, which solve_landmarks runs when given no table: tests/landmark_diff.py
compares the two on the benchmark's anchors and on seeded draws.  The only
difference allowed is the stated fix for wide rows whose plain quadrature
aliases, each moved landmark checked with the Gauss-Legendre oracle.
"""

import math
import random
from fractions import Fraction

import pytest

from revcrochet import PatternSpec, build_plan, calculus, parse
from revcrochet.calculus import arclength_rows, adaptive_simpson
from revcrochet.cli import _parse_args

import landmark_diff
from stage_times import anchors

from conftest import RUNNING_TEXT, random_valid_spec


def make_spec(text, a, b, stitch_gauge=22, row_gauge=25, scale=0.18):
    return PatternSpec(parse(text), a, b, stitch_gauge, row_gauge, scale, text)


def spec_of(argv):
    args = _parse_args(argv)
    spec = make_spec(args["function"], args["a"], args["b"], args["stitch_gauge"],
                     args["row_gauge"], args["scale"])
    return spec, args["prioritize_extrema"]


def plain_plan(spec, prioritize_extrema=True):
    with landmark_diff.plain_bisection():
        return build_plan(spec, prioritize_extrema)


def tables_of(spec, plan):
    tables = []
    for seg in plan.segments:
        arclength_rows(spec, seg.lo, seg.hi, tables)
    return tables


def spy(monkeypatch, name):
    """Calls of calculus.<name>, recorded as (args, result)."""
    fn, calls = getattr(calculus, name), []

    def recording(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(calculus, name, recording)
    return calls


# The benchmark anchors, and rungs of the running example up to the row cap.
RUNGS = [*(argv for _, argv in anchors()),
         ["--function", RUNNING_TEXT, "--a=-3", "--b=1", "--stitch-gauge", "22",
          "--row-gauge", "25", "--scale=30"],
         ["--function", RUNNING_TEXT, "--a=-3", "--b=1", "--stitch-gauge", "1",
          "--row-gauge", "25", "--scale=111"]]


class TestDifferential:
    @pytest.mark.parametrize("argv", RUNGS, ids=[" ".join(a[1::2][:1] + a[-3:]) for a in RUNGS])
    def test_anchors_end_every_bracket_where_the_plain_bisection_does(self, argv, monkeypatch):
        spec, extrema = spec_of(argv)
        crossings = spy(monkeypatch, "_crossings")
        assert landmark_diff.same_brackets(spec, extrema)
        assert crossings and all(found is not None for _, (found, _) in crossings)

    def test_seeded_draws_give_the_plain_landmarks(self):
        # 240 draws of tests/landmark_diff.py, half with --no-extrema; draw
        # 337 differs by the stated fix, the oracle confirming the table
        rng = random.Random(landmark_diff.SEED)
        found = [line for i in range(240) if (line := landmark_diff.differ(
            *landmark_diff.draw(rng, i)))]
        assert found == []

    def test_the_stated_aliasing_fix(self):
        # the plain bisection's first steps integrate rows about 0.55 wide,
        # where the integrand's wiggle of period 0.105 aliases: landmarks 3
        # and 4 land 0.05 left of the cells that hold their targets
        spec = landmark_diff.make(*landmark_diff.STATED)
        table, plain = build_plan(spec), plain_plan(spec)
        assert table.landmarks[3:5] == (0.03, 0.59) and plain.landmarks[3:5] == (-0.02, 0.54)
        assert table.landmarks[:3] == plain.landmarks[:3]
        assert table.landmarks[5:] == plain.landmarks[5:]
        (seg,) = table.segments
        for i in (3, 4):
            assert landmark_diff.in_cell(spec, seg, i, table.landmarks[i])
            assert not landmark_diff.in_cell(spec, seg, i, plain.landmarks[i])
        assert landmark_diff.differ(spec, True) is None

    @pytest.mark.parametrize("margin", [1e-3, math.inf])
    def test_near_ties_make_the_plain_comparison(self, margin, monkeypatch):
        # with every step a near-tie, al is rebuilt along each run of left
        # moves and every step compares as the plain bisection does
        monkeypatch.setattr(calculus, "LANDMARK_MARGIN", margin)
        rebuilt = spy(monkeypatch, "_rebuilt")
        for text, a, b, scale, extrema in [(RUNNING_TEXT, -3.0, 1.0, 1.8, False),
                                           ("2 + sin(20*x)", 0.0, 10.0, 0.3, True)]:
            assert landmark_diff.same_brackets(make_spec(text, a, b, scale=scale), extrema)
        assert len(rebuilt) > 100


def boole_partial(samples, h, u):
    """Integral from -2 to u of the quartic through samples at -2..2, times h, exactly."""
    coefficients = [Fraction(0)] * 5
    for j, g in enumerate(samples):
        basis = [Fraction(1)]  # the Lagrange polynomial of node j - 2
        for m in range(5):
            if m != j:
                basis = [Fraction(0)] + basis  # times u
                for k in range(len(basis) - 1):
                    basis[k] -= (m - 2) * basis[k + 1]
                basis = [c / (j - m) for c in basis]
        coefficients = [c + Fraction(g) * b for c, b in zip(coefficients, basis)]
    u = Fraction(u)
    total = sum(c / (k + 1) * (u ** (k + 1) - Fraction(-2) ** (k + 1))
                for k, c in enumerate(coefficients))
    return total * Fraction(h)


class TestQuartic:
    @staticmethod
    def leaves():
        """(fp, lo, value, hi) of seeded leaves of anchor and random tables."""
        rng = random.Random(7)
        specs = [make_spec(RUNNING_TEXT, -3.0, 1.0, scale=9.0),
                 make_spec("2 + sin(20*x)", 0.0, 10.0, scale=0.3),
                 *(random_valid_spec(rng) for _ in range(4))]
        for spec in specs:
            plan = build_plan(spec)
            for table, _ in tables_of(spec, plan):
                for k in rng.sample(range(len(table) // 2), min(8, len(table) // 2)):
                    yield (spec.curve.fp, *table[2 * k:2 * k + 3])

    def test_a_leafs_quartic_integrates_to_its_boole_value(self):
        checked = 0
        for fp, lo, value, hi in self.leaves():
            mid = 0.5 * (lo + hi)
            xs = (lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi)
            samples = [math.sqrt(1.0 + d * d) for d in map(fp, xs)]
            exact = boole_partial(samples, 0.25 * (hi - lo), 2)
            assert abs(float(exact) - value) <= 4 * math.ulp(value)
            # the whole leaf's value is reached at its hi, to rounding
            (x,), _ = calculus._crossings(fp, [lo, value, hi], [value])
            assert abs(x - hi) <= 1e-12 * (hi - lo)
            checked += 1
        assert checked >= 40

    def test_the_crossing_solves_the_quartic(self):
        for fp, lo, value, hi in self.leaves():
            mid = 0.5 * (lo + hi)
            xs = (lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi)
            samples = [math.sqrt(1.0 + d * d) for d in map(fp, xs)]
            targets = [value * f for f in (0.013, 0.25, 0.5, 0.61, 0.999)]
            found, residuals = calculus._crossings(fp, [lo, value, hi], targets)
            assert len(found) == len(residuals) == 5
            assert found == sorted(found) and lo < found[0] and found[-1] < hi
            h = 0.25 * (hi - lo)
            # x is a float: the quartic moves by g(x) times half an ulp of x
            slack = 1e-13 * value + max(samples) * math.ulp(hi)
            for x, target in zip(found, targets):
                reached = boole_partial(samples, h, Fraction(x - lo) / Fraction(h) - 2)
                assert abs(float(reached) - target) <= slack


class TestTrust:
    """A segment whose table is not trusted takes the plain bisection."""

    @staticmethod
    def assert_plain(spec, extrema):
        plan = build_plan(spec, extrema)
        assert plan == plain_plan(spec, extrema)
        assert landmark_diff.same_brackets(spec, extrema)
        return plan

    def test_past_the_leaf_cap(self, monkeypatch):
        monkeypatch.setattr(calculus, "TABLE_LEAVES", 100)
        spec = make_spec(RUNNING_TEXT, -3.0, 1.0, scale=9.0)  # 134 leaves
        crossings = spy(monkeypatch, "_crossings")
        plan = self.assert_plain(spec, True)
        tables = tables_of(spec, plan)
        assert [table is None for table, _ in tables] == [False, True, False]
        assert len(crossings) == 4  # two segments, in the build_plan of each search

    def test_a_leaf_at_the_depth_limit(self, monkeypatch):
        # the cusp of f' at 0.3 leaves a leaf at the depth limit (see
        # tests/test_calculus.py::TestQuadratureTree::test_depth_limit_nodes_are_missing)
        spec = make_spec("2 + abs(x - 0.3)^1.05", 0.3, 1.0, scale=2.0)
        crossings = spy(monkeypatch, "_crossings")
        self.assert_plain(spec, True)
        assert crossings == []

    @pytest.mark.parametrize("text, a, b, extrema", [
        # the enclosure of x^2 - 2*x + 1.01 reaches below 0 on wide boxes
        ("2 + sqrt(x^2 - 2*x + 1.01)", 0.0, 2.0, True),
        # sign(x - 0.3), the derivative of abs, is undecided across 0.3
        ("2 + abs(x - 0.3)", 0.0, 1.0, False),
    ])
    def test_an_undecided_box_of_f_prime(self, monkeypatch, text, a, b, extrema):
        spec = make_spec(text, a, b, scale=2.0)
        plan = build_plan(spec, extrema)
        assert all(table is not None for table, _ in tables_of(spec, plan))
        assert all(spec.curve.fp_box(seg.lo, seg.hi) is None for seg in plan.segments)
        crossings = spy(monkeypatch, "_crossings")
        self.assert_plain(spec, extrema)
        assert crossings == []

    @pytest.mark.parametrize("text, a, b, gauges, scale, extrema, residual", [
        # the segment quadrature itself aliases (see CHANGES.md): L = 192.30
        # rows against 125.06 by the oracle, and 67 interior landmarks sit at b
        ("2 + sin(37.768*x)", -1.089, 4.24, (12, 17), 0.2291, False, 6.3),
        ("5 + 2.266*x - 0.038419*cos(50.665*x)", -1.749, 2.229, (20, 20), 0.7923, True, 1.4),
    ])
    def test_a_sentinel_that_disagrees(self, monkeypatch, text, a, b, gauges, scale, extrema,
                                       residual):
        spec = make_spec(text, a, b, *gauges, scale)
        crossings = spy(monkeypatch, "_crossings")
        self.assert_plain(spec, extrema)
        assert crossings and all(found is None for _, (found, _) in crossings)
        assert all(residuals[-1] > residual > calculus.TABLE_SENTINEL
                   for _, (_, residuals) in crossings)

    def test_no_sentinel_passes_a_threshold_of_0(self, monkeypatch):
        monkeypatch.setattr(calculus, "TABLE_SENTINEL", 0.0)
        crossings = spy(monkeypatch, "_crossings")
        self.assert_plain(make_spec(RUNNING_TEXT, -3.0, 1.0, scale=1.8), False)
        assert crossings and all(found is None for _, (found, _) in crossings)

    def test_an_undefined_f_prime_at_a_crossing(self):
        def fp(x):
            if x > 0.5:
                raise calculus.EvalDomainError(f"undefined at x={x!r}")
            return 0.0

        table = [0.0, adaptive_simpson(fp, 0.0, 0.4), 0.4, 0.6, 1.0]
        assert calculus._crossings(fp, table, [0.2, 0.3])[0] == pytest.approx([0.2, 0.3])
        assert calculus._crossings(fp, table, [0.2, 0.5])[0] is None
