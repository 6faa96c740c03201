"""Row counts, landmarks and stitch counts against an independent oracle: a report.

For each spec, gl_arclength (composite Gauss–Legendre on the compiled f',
tests/conftest.py) recomputes every segment's arclength L in rows and the
arclength A(x) accumulated from the segment's start at the edges of each
interior landmark's rounding cell.  round_landmark is monotone, so
landmark c of target T = i * L / row_count is right exactly when
A(lo_edge) < T <= A(hi_edge), with the cell's edges c -/+ 0.005.  The
report lists

- each segment whose rounded L differs from the plan's row count;
- each interior landmark outside its cell, with the cell that holds T;
- each decision within TIE rows of a tie: an L within TIE of a half, or
  a T within TIE of A at an edge of its landmark's cell;
- each stitch count 2*pi*scale*stitch_gauge/4*f(x) within TIE of a half,
  whose rounding rests on the last bit of libm.

It is a report, not a gate: it exits 0 whatever it finds.

    PYTHONPATH=src python tests/landmark_oracle.py             # every rung, SEEDED seeded specs
    PYTHONPATH=src python tests/landmark_oracle.py --rung 808  # the 808-row rung only

The rungs are the running example at the scales of the benchmark ladder,
with extrema, gauges 22/25.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time

from conftest import RUNNING_TEXT, gl_arclength, random_valid_spec

from revcrochet import PatternSpec, build_plan, parse
from revcrochet.calculus import round_half_away

TIE = 1e-9
RUNGS = {"16": 0.18, "161": 1.8, "808": 9.0, "2694": 30.0}
SEED = 17
SEEDED = 12  # seeded specs a run without --rung checks, half with --no-extrema


def check(spec: PatternSpec, prioritize_extrema: bool = True) -> list[str]:
    """One line per finding on the plan of spec, as the module docstring lists them."""
    plan = build_plan(spec, prioritize_extrema)
    fp, factor = spec.curve.fp, spec.rows_per_unit
    found = []
    start = 0  # index in plan.landmarks of the segment's first landmark
    for s, seg in enumerate(plan.segments):
        length = factor * gl_arclength(fp, seg.lo, seg.hi)
        rows = seg.row_count
        if max(1, round_half_away(length)) != rows:
            found.append(f"segment {s}: {rows} rows, oracle L = {length:.10f}")
        if abs(length - math.floor(length) - 0.5) <= TIE:
            found.append(f"segment {s}: L = {length!r} is within {TIE} of a half")
        reached = {}

        def arclength(x):
            """A(x) in rows, x clamped into the segment."""
            x = min(max(x, seg.lo), seg.hi)
            if x not in reached:
                reached[x] = factor * gl_arclength(fp, seg.lo, x) if x > seg.lo else 0.0
            return reached[x]

        for i in range(1, rows):
            target = i * length / rows
            c = plan.landmarks[start + i]
            k = round_half_away(c * 100.0)
            lo_a, hi_a = arclength((k - 0.5) / 100), arclength((k + 0.5) / 100)
            if not lo_a < target <= hi_a:
                right = k
                while target > arclength((right + 0.5) / 100):
                    right += 1
                while target <= arclength((right - 0.5) / 100):
                    right -= 1
                found.append(
                    f"segment {s} landmark {i}: {c:.2f}, oracle {right / 100:.2f} "
                    f"(T = {target:.4f}, A over the cell of {c:.2f}: {lo_a:.4f} .. {hi_a:.4f})"
                )
            gap = min(abs(target - lo_a), abs(target - hi_a))
            if gap <= TIE:
                found.append(f"segment {s} landmark {i}: {c:.2f} is {gap:.1e} rows from a tie")
        start += rows
    stitches_per_x = 2.0 * math.pi * spec.stitches_per_unit
    for x, y in zip(plan.landmarks, plan.heights):
        size = stitches_per_x * y
        if abs(size - math.floor(size) - 0.5) <= TIE:
            found.append(f"row at x = {x!r}: {size!r} stitches is within {TIE} of a half")
    return [f"{plan.total_rows} rows: " + line for line in found]


def specs(rungs, seeded):
    """(name, spec, prioritize_extrema) for the chosen rungs and seeded specs."""
    for rows in rungs:
        spec = PatternSpec(parse(RUNNING_TEXT), -3.0, 1.0, 22, 25, RUNGS[rows], RUNNING_TEXT)
        yield f"running@{RUNGS[rows]}", spec, True
    rng = random.Random(SEED)
    for n in range(seeded):
        spec = random_valid_spec(rng)
        yield f"seeded-{n} {spec.source!r} on [{spec.a}, {spec.b}]", spec, n % 2 == 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--rung", action="append", choices=list(RUNGS),
                   help="check only this rung of the running example (repeatable)")
    args = p.parse_args(argv)
    checked = findings = 0
    began = time.perf_counter()
    for name, spec, extrema in specs(args.rung or list(RUNGS), 0 if args.rung else SEEDED):
        lines = check(spec, extrema)
        checked += 1
        findings += len(lines)
        mode = "" if extrema else ", --no-extrema"
        print(f"{name}{mode}: {len(lines)} finding{'s' * (len(lines) != 1)}")
        for line in lines:
            print("  " + line)
    print(f"{checked} specs, {findings} findings, {time.perf_counter() - began:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
