"""The work build_plan does on the benchmark's anchors, counted: a guard.

The calls of f' in each stage (walk, quadrature, landmarks), and the calls
of the enclosures f_box and fp_box, are pinned to their recorded values.
They repeat exactly on every run, machine and hash seed, so a change that
moves one changed the work itself: a box, a bisection decision or a
quadrature sample.  Such a change must name the reason in CHANGES.md and
record the new counts here; a change that only makes the same work cheaper
keeps every count.  The stages are tests/stage_times.py's, and the totals
are checked against build_plan itself.
"""

import pytest

from revcrochet import PatternSpec, build_plan, calculus, parse
from revcrochet.cli import _parse_args

from conftest import RUNNING_TEXT
from stage_times import COUNTED, anchors, call_counts, counting_curve, opcode_counts

# anchor: (f' calls, f_box calls, fp_box calls), each per stage in COUNTED
PINNED = {
    "running@9.0/svg": ((136, 539, 1318), (15, 0, 0), (43, 0, 3)),
    "deep@0.5/svg": ((1124, 4361, 324), (1, 0, 0), (151, 0, 21)),
    "running@1.8/svg/no-extrema": ((0, 681, 540), (15, 0, 0), (1, 0, 1)),
    "ripple@0.3/svg": ((3456, 17885, 1140), (1, 0, 0), (255, 0, 64)),
    "sphere@2.0/svg": ((52, 146, 352), (15, 0, 0), (15, 0, 3)),
}
ARGV = dict(anchors())


@pytest.mark.parametrize("name", PINNED)
def test_calls_per_stage_are_pinned(name):
    counts, _ = call_counts(_parse_args(ARGV[name]))
    got = tuple(tuple(counts[stage][i] for stage in COUNTED) for i in range(3))
    assert got == PINNED[name]
    assert all(sum(counts[stage]) == 0 for stage in counts if stage not in COUNTED)


@pytest.mark.parametrize("name", PINNED)
def test_build_plan_makes_the_pinned_calls(name):
    args = _parse_args(ARGV[name])
    spec = PatternSpec(parse(args["function"]), args["a"], args["b"], args["stitch_gauge"],
                       args["row_gauge"], args["scale"], args["function"])
    calls = [0, 0, 0]
    spec.curve = counting_curve(spec.curve, calls)
    build_plan(spec, args["prioritize_extrema"])
    assert tuple(calls) == tuple(sum(stages) for stages in PINNED[name])


@pytest.mark.parametrize("tables", ["leaf table", "tables withheld"])
def test_landmark_opcodes_per_row_do_not_grow_with_rows(tables, monkeypatch):
    # The running example at 161 and 808 rows (scale 1.8 and 9.0), SVG so
    # that nothing shapes.  With no leaf in any table, every step of the
    # landmark search makes the exact comparison.  Measured on CPython
    # 3.11, opcodes per row: 1,036 and 933 with the table, 2,813 and 2,276
    # with tables withheld.
    if tables == "tables withheld":
        monkeypatch.setattr(calculus, "TABLE_LEAVES", 0)
    per_row = []
    for scale in ("1.8", "9.0"):
        args = _parse_args(["--function", RUNNING_TEXT, "--a=-3", "--b=1", "--stitch-gauge",
                            "22", "--row-gauge", "25", f"--scale={scale}", "--format", "svg"])
        counts, _ = opcode_counts(args)
        _, plan = call_counts(args)
        per_row.append(counts["landmarks"][0] / plan.total_rows)
    assert per_row[1] <= 1.1 * per_row[0]
