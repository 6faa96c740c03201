"""Wall time and work of each pipeline stage on the benchmark's anchor specs: a report.

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
package unseen.  A second table counts the calls of f', f_box and fp_box
(f' and the enclosures of f and f') in the walk, the quadrature and the
landmarks stages of one more run, untimed, and the landmark search's f'
calls per row, with the segments whose landmarks the leaf table places and
those with no crossings on a table, the steps that integrated to make the
exact comparison (on the table, the near-ties that no bound decided) and
the largest sentinel residual (see calculus.solve_landmarks).  --counts
prints only counts: that table, and the opcodes each stage executes in
one run traced by sys.settrace with f_trace_opcodes, with the opcodes
executed inside the enclosures per enclosure call.  Counts repeat
exactly from run to run and under any PYTHONHASHSEED; opcode counts
depend on the Python version.  It is a report, not a gate: it exits 0
whatever it measures, and 1 only where that check fails.

    PYTHONPATH=src python tests/stage_times.py             # best of 10
    PYTHONPATH=src python tests/stage_times.py --repeat 50
    PYTHONPATH=src python tests/stage_times.py --counts    # counts only

workloads.py is compiled from its text; nothing is written under perfbench/.
"""

from __future__ import annotations

import argparse
import math
import sys
import types
from pathlib import Path
from time import perf_counter

from revcrochet import LandmarkPlan, PatternSpec, Segment, build_plan, calculus, parse, shape_rows
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
from revcrochet.expression import compile_enclosure

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
STAGES = ("parse", "curve", "walk", "quadrature", "landmarks", "shaping", "emit")
COUNTED = ("walk", "quadrature", "landmarks")  # the stages that call f' and the enclosures


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


def counting_curve(curve, calls):
    """curve with f', f_box and fp_box wrapped so that each call adds 1 to calls[0], [1] or [2]."""

    def counted(fn, i):
        def call(*args):
            calls[i] += 1
            return fn(*args)

        return call

    return curve._replace(fp=counted(curve.fp, 0), f_box=counted(curve.f_box, 1),
                          fp_box=counted(curve.fp_box, 2))


def clock():
    return (perf_counter(),)


def timed_run(args, meter=clock, calls=None):
    """One run of args' spec, stage by stage: ({stage: figure}, spec, plan).

    meter() returns a tuple, and each stage's figure is the tuple of its
    items' changes across the stage: (seconds,) by default.  With a list
    calls of three counts, the run's f', f_box and fp_box count their
    calls in it (see counting_curve).
    """
    t0 = meter()
    func = parse(args["function"])
    t1 = meter()
    spec = PatternSpec(func, args["a"], args["b"], args["stitch_gauge"], args["row_gauge"],
                       args["scale"], args["function"])
    spec.curve  # noqa: B018 - compiled on first read
    if calls is not None:
        spec.curve = counting_curve(spec.curve, calls)
    t2 = meter()
    pieces, cuts = [], []
    if args["prioritize_extrema"]:
        cuts = find_extrema(spec, pieces)
    else:
        spec.validate(pieces)
    t3 = meter()
    bounds = [spec.a, *cuts, spec.b]
    spans = list(zip(bounds, bounds[1:]))
    if _chord_rows(spec, pieces, cuts) > (MAX_ROWS + 0.5 * len(spans)) * (1 + CHORD_MARGIN):
        raise ValueError("the chord bound passes MAX_ROWS")
    tables = []
    lengths = [arclength_rows(spec, lo, hi, tables) for lo, hi in spans]
    t4 = meter()
    segments = tuple(
        Segment(lo, hi, length, max(1, round_half_away(length)))
        for (lo, hi), length in zip(spans, lengths)
    )
    landmarks = []
    for seg, (table, _) in zip(segments, tables):
        pts = solve_landmarks(spec, seg, table)
        landmarks.extend(pts if not landmarks else pts[1:])
    heights = list(map(spec.curve.f, landmarks))
    plan = LandmarkPlan(segments, tuple(landmarks), sum(s.row_count for s in segments),
                        tuple(heights), args["prioritize_extrema"])
    t5 = meter()
    if args["format"] == "svg":
        t6 = t5
        render_svg(spec, plan)
    else:
        rows = shape_rows(spec, plan)
        t6 = meter()
        doc = render_pattern(spec, plan, rows)
        if args["format"] == "json":
            render_json(doc)
        else:
            doc.to_text()
    t7 = meter()
    marks = (t0, t1, t2, t3, t4, t5, t6, t7)
    figures = [tuple(e - s for e, s in zip(end, start)) for start, end in zip(marks, marks[1:])]
    return dict(zip(STAGES, figures)), spec, plan


def call_counts(args):
    """({stage: (f' calls, f_box calls, fp_box calls)}, plan) of one untimed run."""
    calls = [0, 0, 0]
    counts, _, plan = timed_run(args, lambda: tuple(calls), calls)
    return counts, plan


def table_counts(args):
    """Of one untimed run: (segments whose landmarks the leaf table places, segments
    with landmarks and no crossings, steps that integrated, largest sentinel residual)."""
    crossings, rebuilt = calculus._crossings, calculus._rebuilt
    seen, exact = [], [0]

    def spying(*args):
        result = crossings(*args)
        seen.append(result)
        return result

    def counting(*args):
        exact[0] += 1  # once before each step's quadrature
        return rebuilt(*args)

    calculus._crossings, calculus._rebuilt = spying, counting
    try:
        _, _, plan = timed_run(args)
    finally:
        calculus._crossings, calculus._rebuilt = crossings, rebuilt
    table = sum(found is not None for found, _ in seen)
    searched = sum(seg.row_count > 1 for seg in plan.segments)
    return table, searched - table, exact[0], max((max(r) for _, r in seen if r), default=0.0)


def opcode_counts(args):
    """({stage: (opcodes, opcodes inside enclosures)}, enclosure calls) of one traced run.

    Every frame of the run is traced.  A frame runs inside an enclosure
    when it is the one enclosure function compile_enclosure returns, or
    when its caller does.
    """
    box_code = compile_enclosure(parse("x")).__code__
    ops = [0, 0]

    def outside(frame, event, arg):
        if event == "opcode":
            ops[0] += 1
        return outside

    def inside(frame, event, arg):
        if event == "opcode":
            ops[0] += 1
            ops[1] += 1
        return inside

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        caller = frame.f_back
        if frame.f_code is box_code or (caller is not None and caller.f_trace is inside):
            return inside
        return outside

    sys.settrace(on_call)
    try:
        counts, _, _ = timed_run(args, lambda: tuple(ops))
    finally:
        sys.settrace(None)
    boxes = call_counts(args)[0]
    return counts, sum(boxes[stage][1] + boxes[stage][2] for stage in STAGES)


def print_call_counts(ops, width):
    print("calls of f', f_box and fp_box in one run, untimed (walk/quadrature/landmarks);")
    print("segments whose landmarks the leaf table places / with no crossings, steps that")
    print("integrated to make the exact comparison, and the largest sentinel residual")
    print(f"{'anchor':<{width}}{'fp':>22}{'f_box':>14}{'fp_box':>16}{'rows':>7}{'landmark fp/row':>17}"
          f"{'table/none':>13}{'exact':>6}{'residual':>10}")
    for name, op_argv in ops:
        args = _parse_args(op_argv)
        counts, plan = call_counts(args)
        cells = ["/".join(str(counts[stage][i]) for stage in COUNTED) for i in range(3)]
        table, none, exact, residual = table_counts(args)
        print(f"{name:<{width}}{cells[0]:>22}{cells[1]:>14}{cells[2]:>16}{plan.total_rows:7d}"
              f"{counts['landmarks'][0] / plan.total_rows:17.2f}{f'{table}/{none}':>13}{exact:6d}"
              f"{residual:10.1e}")


def print_opcode_counts(ops, width):
    print(f"opcodes executed in one traced run; Python {sys.version.split()[0]}")
    print(f"{'anchor':<{width}}" + "".join(f"{stage:>11}" for stage in STAGES)
          + f"{'total':>11}{'in boxes':>11}{'per box':>9}")
    for name, op_argv in ops:
        counts, boxes = opcode_counts(_parse_args(op_argv))
        cells = [counts[stage][0] for stage in STAGES]
        in_boxes = sum(counts[stage][1] for stage in STAGES)
        per_box = f"{in_boxes / boxes:9.1f}" if boxes else f"{'-':>9}"
        print(f"{name:<{width}}" + "".join(f"{n:11d}" for n in cells)
              + f"{sum(cells):11d}{in_boxes:11d}{per_box}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeat", type=int, default=10, help="runs per anchor (default 10)")
    parser.add_argument("--counts", action="store_true",
                        help="print only the call and opcode counts, no timings")
    opts = parser.parse_args(argv)
    ops = anchors()
    width = max(len(name) for name, _ in ops)
    if opts.counts:
        print_call_counts(ops, width)
        print()
        print_opcode_counts(ops, width)
        return 0
    print(f"best of {opts.repeat} runs, ms; Python {sys.version.split()[0]}")
    print(f"{'anchor':<{width}}" + "".join(f"{stage:>11}" for stage in STAGES) + f"{'total':>11}")
    for name, op_argv in ops:
        args = _parse_args(op_argv)
        best = dict.fromkeys(STAGES, math.inf)
        for i in range(max(1, opts.repeat)):
            times, spec, plan = timed_run(args)
            if i == 0 and plan != build_plan(spec, args["prioritize_extrema"]):
                raise SystemExit(f"{name}: the stages built another plan than build_plan")
            for stage, (seconds,) in times.items():
                best[stage] = min(best[stage], seconds)
        cells = [best[stage] * 1e3 for stage in STAGES]
        print(f"{name:<{width}}" + "".join(f"{ms:11.3f}" for ms in cells) + f"{sum(cells):11.3f}")
    print()
    print_call_counts(ops, width)
    return 0


if __name__ == "__main__":
    sys.exit(main())
