"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from revcrochet import (
    PatternSpec,
    arclength_rows,
    build_plan,
    optimize_placement,
    parse,
    render_pattern,
    row_counts,
    shape_rows,
)
from revcrochet.calculus import round_half_away
from revcrochet.expression import compile_expr

from conftest import (
    LANDMARKS_EVEN,
    LANDMARKS_EXTREMA,
    RUNNING_TEXT,
    SEGMENT_ROW_COUNTS,
    SEGMENT_ROW_LENGTHS,
    TABLE_STITCHES,
    brute_force_placement,
    golden,
    instruction_totals,
    placement_candidates,
    random_valid_spec,
    ratio_set,
)
from test_expression import random_tree

# 2-decimal landmark values compared at the stated 0.01 tolerance need a
# hair of slack for binary float representation (|-0.19 - -0.20| evaluates
# to 0.010000000000000009).
LANDMARK_TOL = 0.0105


def report(n, text):
    print(f"PASS: criterion {n} — {text}")


def fresh_running_spec():
    return PatternSpec(parse(RUNNING_TEXT), -3.0, 1.0, 22, 25, 0.18, source=RUNNING_TEXT)


def test_criterion_1_landmark_reproduction():
    spec = fresh_running_spec()
    t0 = time.perf_counter()
    plan_extrema = build_plan(spec, prioritize_extrema=True)
    plan_even = build_plan(spec, prioritize_extrema=False)
    elapsed = time.perf_counter() - t0

    assert len(plan_extrema.landmarks) == 17
    for got, expected in zip(plan_extrema.landmarks, LANDMARKS_EXTREMA):
        assert abs(got - expected) <= LANDMARK_TOL
    assert len(plan_even.landmarks) == 17
    for got, expected in zip(plan_even.landmarks, LANDMARKS_EVEN):
        assert abs(got - expected) <= LANDMARK_TOL
    assert elapsed < 1.0
    report(1, f"both 17-value landmark lists within ±0.01, built in {elapsed:.3f}s")


def test_criterion_2_segment_arclengths():
    spec = fresh_running_spec()
    plan = build_plan(spec, prioritize_extrema=True)
    lengths = [s.arclength_rows for s in plan.segments]
    for got, expected in zip(lengths, SEGMENT_ROW_LENGTHS):
        assert got == pytest.approx(expected, abs=0.005)
    assert sum(lengths) == pytest.approx(16.162, abs=0.01)
    assert [s.row_count for s in plan.segments] == SEGMENT_ROW_COUNTS

    # the scale note (0.15 vs 0.18 in the worked example) is documented
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    note = re.search(r"0\.15.{0,400}0\.18|0\.18.{0,400}0\.15", readme, re.S)
    assert note, "README must document the 0.15-vs-0.18 scale discrepancy"
    report(2, "segment rows 8.434/5.923/1.805 ±0.005, total 16.162 ±0.01, rounded 8/6/2")


def test_criterion_3_stitch_counts():
    spec = fresh_running_spec()
    plan = build_plan(spec, prioritize_extrema=True)
    assert row_counts(spec, plan) == TABLE_STITCHES
    report(3, "all 17 stitch counts match exactly")


def test_criterion_4_distance_table():
    prev_positions, prev_denom = (7, 11, 15, 19, 23, 27), 29
    candidates = placement_candidates(prev_positions, prev_denom, 35, 41)
    assert len(candidates) == 10

    expected = {  # k -> (ratio numerators over 35, d1, d2)
        1: ((1, 6, 11, 16, 21, 26), 0.05025, 0.06634),
        2: ((2, 7, 12, 17, 22, 27), 0.02167, 0.04729),
        3: ((3, 8, 13, 18, 23, 28), 0.00197, 0.03120),
        4: ((4, 9, 14, 19, 24, 29), 0.01576, 0.04253),
        5: ((5, 10, 15, 20, 25, 30), 0.04433, 0.06158),
        6: ((6, 11, 16, 21, 26, 31), 0.04532, 0.05764),
        7: ((7, 12, 17, 22, 27, 32), 0.01675, 0.02906),
        8: ((8, 13, 18, 23, 28, 33), 0.00197, 0.00739),
        9: ((9, 14, 19, 24, 29, 34), 0.01576, 0.02808),
        10: ((10, 15, 20, 25, 30, 35), 0.04433, 0.05665),
    }
    for k, positions, dist1, dist2 in candidates:
        epos, ed1, ed2 = expected[k]
        assert ratio_set(positions, 35) == tuple(Fraction(p, 35) for p in epos)
        assert float(dist1) == pytest.approx(ed1, abs=1e-4)
        assert float(dist2) == pytest.approx(ed2, abs=1e-4)

    chosen = optimize_placement(prev_positions, prev_denom, 35, 41)
    assert chosen.k == 1
    report(4, "all 10 candidate ratio sets exact, d1/d2 within ±1e-4, argmax k=1")


def test_criterion_5_full_pattern_golden():
    spec = fresh_running_spec()
    plan = build_plan(spec, prioritize_extrema=True)
    doc = render_pattern(spec, plan, shape_rows(spec, plan))
    got = [line.rstrip() for line in doc.to_text().rstrip("\n").split("\n")]
    expected = [line.rstrip() for line in golden("running_example.txt").rstrip("\n").split("\n")]
    assert got == expected
    assert got[0] == "Row 0: Chain 6. join work, and Sc6."
    assert got[-1] == "Tie off"
    report(5, "generated pattern is byte-identical to the reference listing")


def test_criterion_6_conservation_property_suite():
    rng = random.Random(8420251)
    specs_checked = 0
    rows_checked = 0
    attempts = 0
    while specs_checked < 500:
        attempts += 1
        assert attempts < 700, "spec generator is producing too many steep patterns"
        spec = random_valid_spec(rng)
        plan = build_plan(spec)
        rows = shape_rows(spec, plan)
        doc = render_pattern(spec, plan, rows)
        if doc.warnings:  # steep patterns are exercised by criterion 9
            continue
        specs_checked += 1

        ref_positions, ref_denom = (), 1
        for prev, cur in zip(doc.rows, doc.rows[1:]):
            consumed, produced = instruction_totals(cur.instruction)
            assert consumed == prev.stitches
            assert produced == cur.stitches
            n_tokens = _count_ops(cur.instruction)
            assert n_tokens == abs(cur.stitches - prev.stitches)

            if cur.op != "none":
                # the optimizer's pick equals the brute-force argmax
                bk, bpos = brute_force_placement(
                    ref_positions, ref_denom, prev.stitches, cur.stitches
                )
                assert (cur.k, tuple(cur.positions)) == (bk, bpos)
                if ref_positions:
                    # d1 <= d2 on every optimization step (every candidate k)
                    for _, _, dist1, dist2 in placement_candidates(
                        ref_positions, ref_denom, prev.stitches, cur.stitches
                    ):
                        assert dist1 <= dist2
                ref_positions = tuple(cur.positions)
                ref_denom = min(prev.stitches, cur.stitches)
            rows_checked += 1
    report(
        6,
        f"500 random specs, {rows_checked} rows: conservation, token counts, "
        "brute-force agreement, d1<=d2 all hold",
    )


def _count_ops(line):
    body = re.sub(r"^Row \d+: {1,2}", "", line.strip())
    body = re.sub(r" \(\d+ stitch(?:es)?\)$", "", body)
    total = 0
    for m in re.finditer(r"\*([^*]*)\* \((\d+) times\)|Inc|Dec", body):
        if m.group(2) is not None:
            total += len(re.findall(r"Inc|Dec", m.group(1))) * int(m.group(2))
        else:
            total += 1
    return total


def test_criterion_7_numerical_suite():
    # symbolic derivative vs central differences
    rng = random.Random(97531)
    grids_checked = 0
    for _ in range(50):
        tree = parse(random_tree(rng))
        f, deriv = compile_expr(tree), compile_expr(tree.derivative())
        for i in range(20):
            x = -2.0 + i * (4.0 / 19)
            try:
                sym = deriv(x)
                fd = (f(x + 1e-6) - f(x - 1e-6)) / 2e-6
            except Exception:
                continue
            if not math.isfinite(sym) or abs(sym) > 1e8:
                continue
            assert abs(sym - fd) <= 1e-5 * max(1.0, abs(sym))
            grids_checked += 1
    assert grids_checked > 600

    # arclength of the identity line has the closed form sqrt(2)*(b-a)*scale*R/4
    spec = PatternSpec(parse("x"), 0.0, 2.5, 22, 25, 0.18, source="x")
    expected = math.sqrt(2) * 2.5 * 0.18 * 25 / 4
    assert arclength_rows(spec, 0.0, 2.5) == pytest.approx(expected, abs=1e-9)

    # additivity at interior split points
    running = fresh_running_spec()
    whole = arclength_rows(running, -3.0, 1.0)
    rng2 = random.Random(13)
    for _ in range(8):
        c = rng2.uniform(-2.9, 0.9)
        parts = arclength_rows(running, -3.0, c) + arclength_rows(running, c, 1.0)
        assert parts == pytest.approx(whole, abs=1e-6)
    report(7, f"derivatives ({grids_checked} grid points), line arclength, additivity")


def test_criterion_8_closed_shape_behavior():
    spec = PatternSpec(parse("sin(x)"), 0.0, math.pi, 22, 25, 2.0, source="sin(x)")
    # oracle: the radius vanishes at both endpoints
    assert math.sin(0.0) == 0.0 and abs(math.sin(math.pi)) < 1e-12
    plan = build_plan(spec)
    doc = render_pattern(spec, plan, shape_rows(spec, plan))
    assert doc.closed_start and doc.closed_end and doc.stuffed
    assert "Stuff the shape with fiberfill before closing." in doc.finishing
    assert doc.rows[0].instruction.startswith("Row 0: Create a magic ring")

    open_spec = PatternSpec(
        parse("sin(x) + 10"), 0.0, math.pi, 22, 25, 0.3, source="sin(x) + 10"
    )
    open_plan = build_plan(open_spec)
    open_doc = render_pattern(open_spec, open_plan, shape_rows(open_spec, open_plan))
    assert not open_doc.closed_start and not open_doc.closed_end and not open_doc.stuffed
    assert open_doc.finishing == ("Tie off",)
    report(8, "sin(x) on [0, pi] closes and stuffs; sin(x)+10 stays open")


def test_criterion_9_steep_change_warning():
    spec = PatternSpec(parse("x^2 + 0.05"), 0.0, 1.0, 40, 10, 1.0, source="x^2 + 0.05")
    plan = build_plan(spec)

    # brute-force stitch-count oracle, straight from the formula
    factor = 2 * math.pi * 1.0 * 40 / 4
    oracle = [round_half_away(factor * (x * x + 0.05)) for x in plan.landmarks]
    violations = [
        i
        for i, (p, c) in enumerate(zip(oracle, oracle[1:]), start=1)
        if c > 2 * p or 2 * c < p
    ]
    assert violations, "test construction must actually double a row"

    doc = render_pattern(spec, plan, shape_rows(spec, plan))
    assert doc.warnings
    for row_index in violations:
        assert any(w.startswith(f"Row {row_index} ") for w in doc.warnings)
    assert doc.to_text().startswith("Note: Row ")

    # the documented remedy: add a constant large enough
    fixed = PatternSpec(parse("x^2 + 2.05"), 0.0, 1.0, 40, 10, 1.0, source="x^2 + 2.05")
    fixed_plan = build_plan(fixed)
    fixed_doc = render_pattern(fixed, fixed_plan, shape_rows(fixed, fixed_plan))
    assert fixed_doc.warnings == ()
    report(9, f"rows {violations} warned at the top; +2 constant removes all warnings")
