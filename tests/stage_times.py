"""Wall time of each pipeline stage on the benchmark's anchor specs: a report.

For every anchor operation of perfbench/workloads.py (the operations whose
bytes are checked against a golden file or a recorded digest, not the
seeded, reject or defect ones), the stages of one revcrochet run are timed
one after another, as cli.run and calculus.build_plan run them:

    parse      expression.parse of the function text
    curve      PatternSpec.curve: differentiate, compile f and f', and
               their enclosures
    walk       find_extrema, or PatternSpec.validate with --no-extrema
    quadrature the chord bound and the segment arclength quadratures
    landmarks  solve_landmarks on each segment and f at every landmark
    shaping    shape_rows (text and JSON only)
    emit       render_pattern and the text or JSON writer, or render_svg

Each figure is the best of --repeat runs, in ms.  The plan the stages build
is checked once against build_plan's, so the stages cannot drift from the
package unseen.  A second table counts the calls of f' in the walk, the
quadrature and the landmarks stages of one more run, untimed, and the
landmark search's calls per row; counts repeat exactly from run to run.
It is a report, not a gate: it exits 0 whatever it measures, and 1 only
where that check fails.

    PYTHONPATH=src python tests/stage_times.py             # best of 10
    PYTHONPATH=src python tests/stage_times.py --repeat 50

workloads.py is compiled from its text; nothing is written under perfbench/.
"""

from __future__ import annotations

import argparse
import math
import sys
import types
from pathlib import Path
from time import perf_counter

from revcrochet import LandmarkPlan, PatternSpec, Segment, build_plan, parse, shape_rows
from revcrochet.calculus import (
    CHORD_MARGIN,
    MAX_ROWS,
    _chord_rows,
    arclength_rows,
    find_extrema,
    round_half_away,
    solve_landmarks,
)
from revcrochet.cli import _parse_args
from revcrochet.emit import render_json, render_pattern, render_svg

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
STAGES = ("parse", "curve", "walk", "quadrature", "landmarks", "shaping", "emit")
COUNTED = ("walk", "quadrature", "landmarks")  # the stages that call f'


def load_workloads():
    """perfbench/workloads.py as a module, compiled from its text: no bytecode is written."""
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    # dataclasses looks the defining module up in sys.modules
    sys.modules[module.__name__] = module
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)  # noqa: S102
    return module


def anchors():
    """(name, argv) of each distinct anchor operation, in workload order."""
    workloads = load_workloads()
    seen, found = set(), []
    for name in workloads.WORKLOADS:
        for op in workloads.build_ops(name, 0):
            if op.expect in (workloads.GOLDEN, workloads.REFERENCE) and op.argv not in seen:
                seen.add(op.argv)
                found.append((op.name, list(op.argv)))
    return found


def timed_run(args, fp_calls=None):
    """One run of args' spec, stage by stage: ({stage: seconds}, spec, plan).

    With a list fp_calls, [0], each call of f' adds 1 to it, and each
    stage's figure is its calls of f' in place of its seconds.
    """
    clock = perf_counter if fp_calls is None else lambda: fp_calls[0]
    t0 = clock()
    func = parse(args["function"])
    t1 = clock()
    spec = PatternSpec(func, args["a"], args["b"], args["stitch_gauge"], args["row_gauge"],
                       args["scale"], args["function"])
    spec.curve  # noqa: B018 - compiled on first read
    if fp_calls is not None:
        fp = spec.curve.fp

        def counted(x):
            fp_calls[0] += 1
            return fp(x)

        spec.curve = spec.curve._replace(fp=counted)
    t2 = clock()
    pieces, cuts = [], []
    if args["prioritize_extrema"]:
        cuts = find_extrema(spec, pieces)
    else:
        spec.validate(pieces)
    t3 = clock()
    bounds = [spec.a, *cuts, spec.b]
    spans = list(zip(bounds, bounds[1:]))
    if _chord_rows(spec, pieces, cuts) > (MAX_ROWS + 0.5 * len(spans)) * (1 + CHORD_MARGIN):
        raise ValueError("the chord bound passes MAX_ROWS")
    trees = []
    lengths = [arclength_rows(spec, lo, hi, trees) for lo, hi in spans]
    t4 = clock()
    segments = tuple(
        Segment(lo, hi, length, max(1, round_half_away(length)))
        for (lo, hi), length in zip(spans, lengths)
    )
    landmarks = []
    for seg, tree in zip(segments, trees):
        pts = solve_landmarks(spec, seg, tree)
        landmarks.extend(pts if not landmarks else pts[1:])
    heights = list(map(spec.curve.f, landmarks))
    plan = LandmarkPlan(segments, tuple(landmarks), sum(s.row_count for s in segments),
                        tuple(heights), args["prioritize_extrema"])
    t5 = clock()
    if args["format"] == "svg":
        t6 = t5
        render_svg(spec, plan)
    else:
        rows = shape_rows(spec, plan)
        t6 = clock()
        doc = render_pattern(spec, plan, rows)
        if args["format"] == "json":
            render_json(doc)
        else:
            doc.to_text()
    t7 = clock()
    marks = (t0, t1, t2, t3, t4, t5, t6, t7)
    return {stage: end - start for stage, start, end in zip(STAGES, marks, marks[1:])}, spec, plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeat", type=int, default=10, help="runs per anchor (default 10)")
    opts = parser.parse_args(argv)
    ops = anchors()
    width = max(len(name) for name, _ in ops)
    print(f"best of {opts.repeat} runs, ms; Python {sys.version.split()[0]}")
    print(f"{'anchor':<{width}}" + "".join(f"{stage:>11}" for stage in STAGES) + f"{'total':>11}")
    for name, op_argv in ops:
        args = _parse_args(op_argv)
        best = dict.fromkeys(STAGES, math.inf)
        for i in range(max(1, opts.repeat)):
            times, spec, plan = timed_run(args)
            if i == 0 and plan != build_plan(spec, args["prioritize_extrema"]):
                raise SystemExit(f"{name}: the stages built another plan than build_plan")
            for stage, seconds in times.items():
                best[stage] = min(best[stage], seconds)
        cells = [best[stage] * 1e3 for stage in STAGES]
        print(f"{name:<{width}}" + "".join(f"{ms:11.3f}" for ms in cells) + f"{sum(cells):11.3f}")
    print()
    print("calls of f' in one run, untimed")
    print(f"{'anchor':<{width}}" + "".join(f"{stage:>11}" for stage in COUNTED)
          + f"{'rows':>11}{'landmarks/row':>15}")
    for name, op_argv in ops:
        calls, _, plan = timed_run(_parse_args(op_argv), [0])
        print(f"{name:<{width}}" + "".join(f"{calls[stage]:11d}" for stage in COUNTED)
              + f"{plan.total_rows:11d}{calls['landmarks'] / plan.total_rows:15.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
