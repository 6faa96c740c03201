"""The landmarks of the leaf table against the plain bisection: a differential guard.

build_plan places each segment's landmarks from its quadrature's leaf
table where calculus.solve_landmarks trusts the table.  Elsewhere, and
always when solve_landmarks is given no table, the segment has no
crossings and every step of its bisection makes the exact comparison: the
plain bisection.  Both must give the same plan, or raise the same
error, but for the stated fix: where the plain bisection's quadrature of
a wide step aliases the integrand's oscillation, its landmarks can fall
in the wrong 0.01 cell.  A plan that differs from the plain one in
landmarks alone passes only where the Gauss-Legendre oracle
(tests/conftest.py) puts every moved landmark of the table in the cell
that holds its target, and none of the plain ones; STATED pins the first
such spec found.  same_brackets, a finer guard for specs with no such
aliasing, compares the last bracket of every landmark before it is
rounded.

The draws mix three families, half of each with --no-extrema: the ripple
2 + sin(w*x) with w in [5, 40], the monotone c + s*x - (s*amp/w)*cos(w*x)
(f' = s*(1 + amp*sin(w*x)) > 0, amp < 1), whose small wiggles alias, and
tests/conftest.py's random_valid_spec.  It prints each spec that differs
other than by the stated fix, and exits 1 if one does.

    PYTHONPATH=src python tests/landmark_diff.py                    # 2,000 draws
    PYTHONPATH=src python tests/landmark_diff.py --draws 200 --seed 3
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from contextlib import contextmanager

from conftest import gl_arclength, random_valid_spec

from revcrochet import LandmarkPlan, PatternSpec, build_plan, calculus, parse
from revcrochet.calculus import round_half_away

SEED = 32
# (function, a, b, stitch gauge, row gauge, scale): the plain bisection puts
# landmarks 3 and 4 at -0.02 and 0.54, the table and the oracle at 0.03 and 0.59
STATED = ("5 + 1.108*x - 0.011272*cos(59.766*x)", -1.637, 1.153, 20, 20, 0.2219)


def make(text, a, b, stitch_gauge, row_gauge, scale):
    return PatternSpec(parse(text), a, b, stitch_gauge, row_gauge, scale, text)


def draw(rng: random.Random, i: int):
    """(spec, prioritize_extrema) of draw i: family i % 3, --no-extrema on odd i."""
    a = round(rng.uniform(-2.0, 0.0), 3)
    b = round(a + rng.uniform(1.0, 5.5), 3)
    gauges = rng.randint(8, 24), rng.randint(8, 24)
    scale = round(rng.uniform(0.1, 0.6), 4)
    family = i % 3
    if family == 0:
        spec = make(f"2 + sin({rng.uniform(5.0, 40.0):.3f}*x)", a, b, *gauges, scale)
    elif family == 1:
        c, s = rng.uniform(3.0, 6.0), rng.uniform(0.5, 3.0)
        amp, w = rng.uniform(0.05, 0.9), rng.uniform(5.0, 60.0)
        text = f"{c:.3f} + {s:.3f}*x - {s * amp / w:.6f}*cos({w:.3f}*x)"
        spec = make(text, a, b, *gauges, scale)
    else:
        spec = random_valid_spec(rng)
    return spec, i % 2 == 0


@contextmanager
def plain_bisection():
    """build_plan with every segment's landmarks by the plain bisection."""
    solve = calculus.solve_landmarks

    def plain(spec, seg, table=None):
        return solve(spec, seg)

    calculus.solve_landmarks = plain
    try:
        yield
    finally:
        calculus.solve_landmarks = solve


def outcome(spec, prioritize_extrema):
    try:
        return build_plan(spec, prioritize_extrema)
    except Exception as exc:  # noqa: BLE001 - the error is the result
        return type(exc), str(exc)


def run(spec, prioritize_extrema):
    """(build_plan's outcome, the unrounded midpoint of each interior landmark's last bracket)."""
    kept, round_landmark = [], calculus.round_landmark

    def keeping(x):
        kept.append(x)
        return round_landmark(x)

    calculus.round_landmark = keeping
    try:
        return outcome(spec, prioritize_extrema), kept
    finally:
        calculus.round_landmark = round_landmark


def same_brackets(spec, prioritize_extrema) -> bool:
    """Both searches end every landmark's bracket on the same floats, or raise alike."""
    table = run(spec, prioritize_extrema)
    with plain_bisection():
        return run(spec, prioritize_extrema) == table


def differ(spec, prioritize_extrema) -> str | None:
    """None where both searches give the same outcome, or differ only by the stated fix.

    The stated fix: plans that differ in landmarks alone, each landmark that
    differs lying in the cell of its target with the table and not with the
    plain bisection.
    """
    table = outcome(spec, prioritize_extrema)
    with plain_bisection():
        plain = outcome(spec, prioritize_extrema)
    if table == plain:
        return None
    flag = "" if prioritize_extrema else " --no-extrema"
    where = (f"{spec.source!r} on [{spec.a}, {spec.b}] gauges {spec.stitch_gauge}/"
             f"{spec.row_gauge} scale {spec.scale}{flag}")
    if not (isinstance(table, LandmarkPlan) and isinstance(plain, LandmarkPlan)
            and table._replace(landmarks=plain.landmarks, heights=plain.heights) == plain):
        return f"{where}: table {table!r:.300}, plain {plain!r:.300}"
    wrong, start = [], 0
    for seg in table.segments:
        for i in range(1, seg.row_count):
            x, y = table.landmarks[start + i], plain.landmarks[start + i]
            if x != y and not (in_cell(spec, seg, i, x) and not in_cell(spec, seg, i, y)):
                wrong.append((start + i, x, y))
        start += seg.row_count
    if not wrong:
        return None
    return f"{where}: landmarks (index, table, plain) the oracle does not confirm {wrong}"


def in_cell(spec, seg, i, x):
    """Landmark i of seg, at x, lies in the 0.01 cell that holds its target, by the oracle."""
    fp = spec.curve.fp
    target = i * gl_arclength(fp, seg.lo, seg.hi) / seg.row_count

    def reached(edge):
        edge = min(max(edge, seg.lo), seg.hi)
        return gl_arclength(fp, seg.lo, edge) if edge > seg.lo else 0.0

    k = round_half_away(x * 100.0)
    return reached((k - 0.5) / 100) < target <= reached((k + 0.5) / 100)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--draws", type=int, default=2000)
    p.add_argument("--seed", type=int, default=SEED)
    args = p.parse_args(argv)
    rng = random.Random(args.seed)
    began, found = time.perf_counter(), 0
    for i in range(args.draws):
        line = differ(*draw(rng, i))
        if line:
            found += 1
            print(f"draw {i}: {line}")
    line = differ(make(*STATED), True)
    if line:
        found += 1
        print(f"stated: {line}")
    print(f"{args.draws} draws and the stated spec: {found} differ other than by the stated fix,"
          f" {time.perf_counter() - began:.1f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
