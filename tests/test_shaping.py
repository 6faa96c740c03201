import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from revcrochet import (
    PatternSpec,
    build_plan,
    optimize_placement,
    parse,
    row_counts,
    shape_rows,
    shaping,
)

from conftest import (
    EXTREMUM_LO,
    RUNNING_TEXT,
    TABLE_STITCHES,
    brute_force_placement,
    circular_distance,
    d1,
    d2,
    placement_candidates,
    ratio_set,
    shift_keys,
)

ROW5_POSITIONS = (7, 11, 15, 19, 23, 27)  # chosen ops of the 29->35 row
ROW5_DENOM = 29

# the ten candidate layouts for the 35->41 row and their distances to the
# row above, k ascending (frozen reference data)
ROW6_TABLE = [
    (1, (1, 6, 11, 16, 21, 26), 0.05025, 0.06634),
    (2, (2, 7, 12, 17, 22, 27), 0.02167, 0.04729),
    (3, (3, 8, 13, 18, 23, 28), 0.00197, 0.03120),
    (4, (4, 9, 14, 19, 24, 29), 0.01576, 0.04253),
    (5, (5, 10, 15, 20, 25, 30), 0.04433, 0.06158),
    (6, (6, 11, 16, 21, 26, 31), 0.04532, 0.05764),
    (7, (7, 12, 17, 22, 27, 32), 0.01675, 0.02906),
    (8, (8, 13, 18, 23, 28, 33), 0.00197, 0.00739),
    (9, (9, 14, 19, 24, 29, 34), 0.01576, 0.02808),
    (10, (10, 15, 20, 25, 30, 35), 0.04433, 0.05665),
]


class TestStitchCount:
    """Stitch counts from the f values that build_plan takes at the landmarks."""

    def test_rounded_landmark(self, running_spec, running_plan):
        i = running_plan.landmarks.index(-2.84)
        assert running_plan.heights[i] == running_spec.curve.f(-2.84)
        assert row_counts(running_spec, running_plan)[i] == 18

    def test_at_local_extremum(self, running_spec, running_plan):
        i = min(range(len(running_plan.landmarks)),
                key=lambda j: abs(running_plan.landmarks[j] - EXTREMUM_LO))
        assert running_plan.landmarks[i] == pytest.approx(EXTREMUM_LO, abs=1e-8)
        assert running_plan.heights[i] == running_spec.curve.f(running_plan.landmarks[i])
        assert row_counts(running_spec, running_plan)[i] == 51

    def test_zero_radius(self):
        spec = PatternSpec(parse("sin(x)"), 0.0, math.pi, 22, 25, 2.0, "sin(x)")
        plan = build_plan(spec)
        assert (plan.landmarks[0], plan.heights[0]) == (0.0, 0.0)
        assert row_counts(spec, plan)[0] == 0


class TestRowCounts:
    def test_running_example_table(self, running_spec, running_plan):
        assert row_counts(running_spec, running_plan) == TABLE_STITCHES

    def test_constant_function(self):
        # [2*pi * 1 * (20/4) * 2] = [62.83] = 63 in every row
        spec = PatternSpec(parse("2"), 0.0, 1.0, 20, 8, 1.0, "2")
        plan = build_plan(spec)
        counts = row_counts(spec, plan)
        assert counts and all(c == 63 for c in counts)

    def test_monotone_function_gives_nondecreasing_counts(self):
        spec = PatternSpec(parse("x"), 1.0, 2.0, 22, 25, 0.4, "x")
        plan = build_plan(spec, prioritize_extrema=False)
        counts = row_counts(spec, plan)
        assert counts == sorted(counts)


class TestCircularDistance:
    def test_wraparound(self):
        assert circular_distance(0.05, 0.95) == pytest.approx(0.10)

    def test_identity(self):
        assert circular_distance(0.37, 0.37) == 0

    def test_exact_fractions(self):
        got = circular_distance(Fraction(7, 29), Fraction(10, 35))
        assert got == Fraction(9, 203)
        assert float(got) == pytest.approx(0.044335, abs=1e-5)

    def test_range(self):
        rng = random.Random(5)
        for _ in range(200):
            u, v = rng.random(), rng.random()
            assert 0 <= circular_distance(u, v) <= 0.5

    def test_mod_one_invariance(self):
        rng = random.Random(6)
        for _ in range(100):
            u, v = rng.random(), rng.random()
            assert circular_distance(u, v) == pytest.approx(circular_distance(u, v + 1.0))
            assert circular_distance(u, v) == pytest.approx(circular_distance(u + 1.0, v))


class TestDistances:
    def test_row6_table_values(self):
        prev = ratio_set(ROW5_POSITIONS, ROW5_DENOM)
        for _, positions, expected_d1, expected_d2 in ROW6_TABLE:
            cur = ratio_set(positions, 35)
            assert float(d1(prev, cur)) == pytest.approx(expected_d1, abs=1e-4)
            assert float(d2(prev, cur)) == pytest.approx(expected_d2, abs=1e-4)

    def test_shared_ratio_gives_zero_d1(self):
        prev = ratio_set((1, 2, 3), 6)
        assert d1(prev, prev) == 0

    def test_antipodal_singletons(self):
        assert d2([Fraction(1, 4)], [Fraction(3, 4)]) == Fraction(1, 2)

    def test_d1_le_d2(self):
        rng = random.Random(7)
        for _ in range(300):
            prev = sorted(rng.sample(range(1, 40), rng.randint(1, 6)))
            cur = sorted(rng.sample(range(1, 50), rng.randint(1, 6)))
            ps, cs = ratio_set(prev, 40), ratio_set(cur, 50)
            assert d1(ps, cs) <= d2(ps, cs)

    def test_d1_symmetric(self):
        rng = random.Random(8)
        for _ in range(100):
            ps = ratio_set(sorted(rng.sample(range(1, 30), 4)), 30)
            cs = ratio_set(sorted(rng.sample(range(1, 45), 5)), 45)
            assert d1(ps, cs) == d1(cs, ps)

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            d1([], [Fraction(1, 2)])
        with pytest.raises(ValueError):
            d2([Fraction(1, 2)], [])


class TestOptimizePlacement:
    def test_row6_selects_k1(self):
        row = optimize_placement(ROW5_POSITIONS, ROW5_DENOM, 35, 41)
        assert row.k == 1
        assert row.positions == (1, 6, 11, 16, 21, 26)
        assert row.op == "increase"
        assert (row.q, row.r) == (5, 5)

    def test_row2_selects_k1(self):
        # brute force over k in {1, 2}: k=2 lands every op on the row below
        row = optimize_placement((1, 2, 3, 4, 5, 6), 6, 12, 18)
        assert row.k == 1
        assert row.positions == (1, 3, 5, 7, 9, 11)

    def test_equal_counts_mean_no_shaping(self):
        row = optimize_placement((1, 3), 10, 24, 24)
        assert row.op == "none"
        assert row.positions == ()
        assert row.n_ops == 0

    def test_no_reference_row_uses_k1_default(self):
        row = optimize_placement((), 1, 24, 29)
        assert row.k == 1
        assert row.positions == (1, 5, 9, 13, 17)

    def test_steep_increase_signalled(self):
        row = optimize_placement((1, 2), 5, 5, 11)
        assert row.steep
        assert row.positions == ()
        assert row.op == "increase"

    def test_steep_decrease_signalled(self):
        row = optimize_placement((1, 2), 5, 11, 5)
        assert row.steep
        assert row.op == "decrease"

    def test_exact_doubling_is_workable(self):
        row = optimize_placement((), 1, 6, 12)
        assert not row.steep
        assert row.positions == (1, 2, 3, 4, 5, 6)

    def test_positions_fit_instruction_count(self):
        rng = random.Random(9)
        for _ in range(200):
            s_prev = rng.randint(4, 80)
            s_cur = rng.randint(max(4, (s_prev + 1) // 2), 2 * s_prev)
            prev = tuple(sorted(rng.sample(range(1, s_prev + 1), rng.randint(1, 4))))
            row = optimize_placement(prev, s_prev, s_prev, s_cur)
            if row.op == "none" or row.steep:
                continue
            low = min(s_prev, s_cur)
            assert low == row.q * row.n_ops + row.r
            assert 0 <= row.r < row.n_ops
            assert 1 <= row.k <= row.q + row.r
            assert row.positions == tuple(row.q * j + row.k for j in range(row.n_ops))
            assert max(row.positions) <= low

    def test_matches_brute_force_on_random_instances(self):
        # 1000 random (s_prev, s_cur, prev) instances, s values in [4, 80]
        rng = random.Random(4242)
        done = 0
        while done < 1000:
            s_prev = rng.randint(4, 80)
            s_cur = rng.randint(4, 80)
            n_ops = abs(s_cur - s_prev)
            if n_ops == 0 or n_ops > min(s_prev, s_cur):
                continue
            prev_denom = rng.randint(4, 80)
            prev = tuple(
                sorted(
                    rng.sample(range(1, prev_denom + 1), rng.randint(1, min(6, prev_denom)))
                )
            )
            row = optimize_placement(prev, prev_denom, s_prev, s_cur)
            bk, bpos = brute_force_placement(prev, prev_denom, s_prev, s_cur)
            assert (row.k, row.positions) == (bk, bpos)
            done += 1


class TestKernelMatchesOracle:
    """The integer kernel against brute_force_placement and the Fraction d1/d2."""

    @staticmethod
    def check(prev, prev_denom, s_prev, s_cur):
        row = optimize_placement(prev, prev_denom, s_prev, s_cur)
        assert (row.k, row.positions) == brute_force_placement(prev, prev_denom, s_prev, s_cur)
        return row

    def test_arbitrary_reference_subsets(self):
        # references are any subset of 1..D, not just remainder-method layouts
        rng = random.Random(2302)
        done = 0
        while done < 1500:
            s_prev, s_cur = rng.randint(1, 60), rng.randint(1, 60)
            if not 0 < abs(s_cur - s_prev) <= min(s_prev, s_cur):
                continue
            prev_denom = rng.randint(1, 60)
            size = rng.randint(1, prev_denom)
            prev = tuple(sorted(rng.sample(range(1, prev_denom + 1), size)))
            self.check(prev, prev_denom, s_prev, s_cur)
            done += 1

    def test_one_op_per_instruction(self):
        # n_ops == low: q = 1, r = 0, a single candidate
        row = self.check((2, 5), 7, 9, 18)
        assert (row.q, row.r, row.k) == (1, 0, 1)
        assert row.positions == tuple(range(1, 10))

    def test_single_op(self):
        for s_prev in range(2, 30):
            for prev in ((1,), (s_prev - 1,), (1, s_prev // 2)):
                self.check(prev, s_prev - 1, s_prev, s_prev - 1)
                self.check(prev, s_prev + 1, s_prev, s_prev + 1)

    def test_one_position_reference(self):
        for denom in range(1, 25):
            for p in range(1, denom + 1):
                self.check((p,), denom, 20, 27)

    def test_reference_at_denominator_wraps_to_zero(self):
        # position D is ratio 1, the same point as 0 on the circle
        got = placement_candidates((12,), 12, 12, 18)
        assert got[1][1][-1] == 12 and got[1][2] == 0  # k=2 puts an op on ratio 1
        assert got[0][2] == Fraction(1, 12)
        assert self.check((12,), 12, 12, 18).k == 1

    def test_ties_go_to_the_earliest_k(self):
        # a reference at every 1/6 leaves every shift of 3 ops on 6 at d1 = 0
        got = placement_candidates((1, 2, 3, 4, 5, 6), 6, 6, 9)
        assert {(dist1, dist2) for _, _, dist1, dist2 in got} == {(0, 0)}
        assert self.check((1, 2, 3, 4, 5, 6), 6, 6, 9).k == 1
        # k=2 and k=3 tie on the best nonzero score; the earlier one wins
        got = placement_candidates((1,), 3, 3, 4)
        assert [(dist1, dist2) for _, _, dist1, dist2 in got] == [
            (0, 0), (Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 3))
        ]
        assert self.check((1,), 3, 3, 4).k == 2

    def test_candidates_equal_fraction_definitions(self):
        rng = random.Random(2303)
        for _ in range(300):
            s_prev, s_cur = rng.randint(2, 40), rng.randint(2, 40)
            low = min(s_prev, s_cur)
            if not 0 < abs(s_cur - s_prev) <= low:
                continue
            prev_denom = rng.randint(1, 40)
            prev = tuple(sorted(rng.sample(range(1, prev_denom + 1), rng.randint(1, prev_denom))))
            ref = ratio_set(prev, prev_denom)
            for k, positions, dist1, dist2 in placement_candidates(prev, prev_denom, s_prev, s_cur):
                cur = ratio_set(positions, low)
                assert (dist1, dist2) == (d1(ref, cur), d2(ref, cur))
                assert isinstance(dist1, Fraction) and isinstance(dist2, Fraction)

    def test_candidates_need_a_reference(self):
        with pytest.raises(ValueError):
            placement_candidates((), 1, 24, 29)


def exhaustive_k(prev, prev_denom, s_prev, s_cur):
    """The earliest k with the largest key when every shift is scored."""
    keys = shift_keys(prev, prev_denom, min(s_prev, s_cur), abs(s_cur - s_prev))
    return keys.index(max(keys)) + 1


class TestBranchAndBound:
    """The gap search picks the k the exhaustive scorer does, on every row."""

    @staticmethod
    def check(prev, prev_denom, s_prev, s_cur):
        row = optimize_placement(prev, prev_denom, s_prev, s_cur)
        assert row.k == exhaustive_k(prev, prev_denom, s_prev, s_cur)
        return row

    @staticmethod
    def draw_row(rng):
        """(s_prev, s_cur) of a workable row with low up to a few thousand."""
        while True:
            low = rng.choice((rng.randint(1, 60), rng.randint(60, 4000)))
            n_ops = rng.choice((1, low, rng.randint(1, max(1, low // 20)), rng.randint(1, low)))
            if rng.random() < 0.5:
                return low, low + n_ops
            if n_ops < low:
                return low + n_ops, low

    def test_matches_exhaustive_on_random_subset_references(self):
        rng = random.Random(808)
        for _ in range(250):
            s_prev, s_cur = self.draw_row(rng)
            prev_denom = rng.randint(1, 4000)
            size = rng.randint(1, min(prev_denom, rng.choice((8, 200))))
            prev = tuple(sorted(rng.sample(range(1, prev_denom + 1), size)))
            self.check(prev, prev_denom, s_prev, s_cur)

    def test_matches_exhaustive_on_remainder_layouts(self):
        # references laid out by the remainder method, as shape_rows makes them
        rng = random.Random(809)
        for _ in range(250):
            s_prev, s_cur = self.draw_row(rng)
            prev_denom = rng.randint(1, 4000)
            ref_ops = rng.randint(1, prev_denom)
            q, r = divmod(prev_denom, ref_ops)
            k = rng.randint(1, q + r)
            self.check(tuple(range(k, k + q * ref_ops, q)), prev_denom, s_prev, s_cur)

    def test_edge_shapes(self):
        cases = [
            ((3, 7), 9, 40, 41),                    # n_ops = 1
            ((3, 7), 9, 41, 40),
            ((5,), 5, 1000, 1001),                  # n_ops = 1, reference at D
            ((2, 5), 7, 9, 18),                     # n_ops = low: q = 1, r = 0
            ((1, 4, 9), 11, 2000, 3999),            # q = 1, r > 0
            ((7, 12), 12, 48, 55),                  # r > 0, reference at D
            (tuple(range(1, 41)), 40, 20, 27),      # every entry of the table is 0
            ((1, 2, 3, 4, 5, 6), 6, 6, 9),          # all shifts tie at (0, 0)
            ((1,), 3, 3, 4),                        # k = 2 and k = 3 tie
            ((1, 3), 4, 4, 6),                      # symmetric reference: ties
        ]
        for case in cases:
            self.check(*case)
        assert optimize_placement((1, 2, 3, 4, 5, 6), 6, 6, 9).k == 1
        assert optimize_placement(tuple(range(1, 41)), 40, 20, 27).k == 1

    def test_single_candidate_builds_no_table(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("a row with q + r == 1 has nothing to search")

        monkeypatch.setattr(shaping, "_best_shift", no_search)
        row = optimize_placement((2, 5), 7, 9, 18)
        assert (row.q, row.r, row.k) == (1, 0, 1)
        assert row.positions == tuple(range(1, 10))

    def test_running_example_at_scale_9_matches_exhaustive(self):
        spec = PatternSpec(parse(RUNNING_TEXT), -3.0, 1.0, 22, 25, 9.0, RUNNING_TEXT)
        plan = build_plan(spec)
        assert plan.total_rows == 808
        rows = shape_rows(spec, plan)
        ref, ref_denom, searched = (), 1, 0
        for prev, row in zip(rows, rows[1:]):
            if not row.positions:
                continue
            if ref:
                assert row.k == exhaustive_k(ref, ref_denom, prev.stitches, row.stitches)
                searched += 1
            ref, ref_denom = row.positions, min(prev.stitches, row.stitches)
        assert searched > 300


class TestGapSearch:
    """The gap search against shift_keys on seeded rows of every shape."""

    @staticmethod
    def draw(rng, progression):
        """(ref, ref_denom, low, n_ops) of one row that has shifts to search."""
        while True:
            low = rng.choice((rng.randint(2, 40), rng.randint(2, 400), rng.randint(400, 3000)))
            few = rng.choice((1, rng.randint(1, max(1, low // 25))))
            many = rng.choice(((low + 1) // 2, rng.randint(1, low)))  # q small, r up to n - 1
            # many ops over a long row cost the oracle O(low**2)
            n_ops = many if rng.random() < (0.5 if low <= 400 else 0.02) else few
            q, r = divmod(low, n_ops)
            if q + r > 1:
                break
        ref_denom = rng.choice((rng.randint(1, 40), rng.randint(1, 3000), low, 2 * low))
        if progression:
            # laid out by the remainder method, as shape_rows makes them
            ref_ops = rng.choice(
                (1, rng.randint(1, ref_denom), rng.randint(1, max(1, ref_denom // 25)))
            )
            rq, rr = divmod(ref_denom, ref_ops)
            k = rng.randint(1, rq + rr)
            ref = tuple(range(k, k + rq * ref_ops, rq))
        else:
            size = rng.randint(1, min(ref_denom, rng.choice((1, 3, 30, 300))))
            ref = tuple(sorted(rng.sample(range(1, ref_denom + 1), size)))
        return ref, ref_denom, low, n_ops

    def test_matches_shift_keys_on_seeded_rows(self):
        rng = random.Random(1616)
        seen = Counter()
        for i in range(9000):
            ref, ref_denom, low, n_ops = self.draw(rng, progression=i % 2 == 0)
            keys = shift_keys(ref, ref_denom, low, n_ops)
            best = max(keys)
            assert shaping._best_shift(ref, ref_denom, low, n_ops) == keys.index(best) + 1
            q, r = divmod(low, n_ops)
            seen.update({
                "n' = 1": len(ref) == 1,
                "n = 1": n_ops == 1,
                "q = 1": q == 1,
                "r > 0": r > 0,
                "r' > 0": i % 2 == 0 and ref_denom % len(ref) > 0,
                "reference at D": ref[-1] == ref_denom,
                "best min 0": best[0] == 0,
                "3 shifts tie": best[0] > 0 and sum(key[0] == best[0] for key in keys) >= 3,
            })
        # every shape the search treats apart is drawn, and more than once
        assert min(seen.values()) >= 20, seen

    def test_running_example_at_scale_30_matches_shift_keys(self):
        spec = PatternSpec(parse(RUNNING_TEXT), -3.0, 1.0, 22, 25, 30.0, RUNNING_TEXT)
        plan = build_plan(spec)
        assert plan.total_rows == 2694
        rows = shape_rows(spec, plan)
        ref, ref_denom, searched = (), 1, 0
        for prev, row in zip(rows, rows[1:]):
            if not row.positions:
                continue
            if ref and row.q + row.r > 1:
                keys = shift_keys(ref, ref_denom, min(prev.stitches, row.stitches), row.n_ops)
                assert row.k == keys.index(max(keys)) + 1
                searched += 1
            ref, ref_denom = row.positions, min(prev.stitches, row.stitches)
        assert searched > 350

    def test_huge_row_needs_no_memory_per_stitch(self):
        # 7 ops over a million stitches against a 5-op reference row
        ref, ref_denom, low, n_ops = (3, 11, 19, 27, 35), 38, 1_000_000, 7
        keys = shift_keys(ref, ref_denom, low, n_ops)
        tracemalloc.start()
        try:
            k = shaping._best_shift(ref, ref_denom, low, n_ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k == keys.index(max(keys)) + 1
        assert peak < 1_000_000


class TestCandidates:
    def test_row6_candidates_match_table(self):
        got = placement_candidates(ROW5_POSITIONS, ROW5_DENOM, 35, 41)
        assert len(got) == 10
        for (k, positions, dist1, dist2), (ek, epos, ed1, ed2) in zip(got, ROW6_TABLE):
            assert k == ek
            assert positions == epos
            assert float(dist1) == pytest.approx(ed1, abs=1e-4)
            assert float(dist2) == pytest.approx(ed2, abs=1e-4)

    def test_candidate_ratios_are_exact_rationals(self):
        got = placement_candidates(ROW5_POSITIONS, ROW5_DENOM, 35, 41)
        for k, positions, dist1, dist2 in got:
            assert isinstance(dist1, Fraction) and isinstance(dist2, Fraction)
            assert ratio_set(positions, 35) == tuple(Fraction(p, 35) for p in positions)


class TestShapeRows:
    def test_running_example_k_sequence(self, running_rows):
        ks = [r.k for r in running_rows]
        assert ks == [None, 1, 1, 3, 2, 7, 1, 4, 13, 7, 5, 1, 4, 1, 3, 7, 2]

    def test_stitch_conservation(self, running_rows):
        for prev, cur in zip(running_rows, running_rows[1:]):
            if cur.op == "none" or cur.steep:
                continue
            n_sc = min(prev.stitches, cur.stitches) - cur.n_ops
            if cur.op == "increase":
                consumed = n_sc + cur.n_ops
                produced = n_sc + 2 * cur.n_ops
            else:
                consumed = n_sc + 2 * cur.n_ops
                produced = n_sc + cur.n_ops
            assert consumed == prev.stitches
            assert produced == cur.stitches

    def test_lookback_skips_plain_rows(self):
        # constant middle section: the reference row for the last increase
        # is the most recent row that had ops, not the plain row before it
        spec = PatternSpec(parse("2"), 0.0, 1.0, 20, 8, 1.0, "2")
        plan = build_plan(spec)
        counts = row_counts(spec, plan)
        assert all(c == 63 for c in counts)
        rows = shape_rows(spec, plan)
        assert all(r.op == "none" for r in rows[1:])

    def test_zero_endpoint_rows_are_dropped(self):
        spec = PatternSpec(parse("sin(x)"), 0.0, math.pi, 22, 25, 2.0, "sin(x)")
        plan = build_plan(spec)
        rows = shape_rows(spec, plan)
        assert rows[0].stitches > 0
        assert rows[-1].stitches > 0
        assert len(rows) == len(plan.landmarks) - 2
        assert not any(r.steep for r in rows)
