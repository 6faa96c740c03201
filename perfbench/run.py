#!/usr/bin/env python3
"""revcrochet benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from its src/.
Operations run one at a time, each after the previous one has finished,
in whole passes over the workload's list until S seconds have gone (at
least the workload's block of passes).  Outputs are checked after the
timed passes.  With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a separate
traced run, whose last traced pass's spans go to perfbench/spans-NAME.jsonl.
Metric names and units are the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import probe
from check import Checker, Outcome, digest, pattern_rows
from runner import Interpreter, calibration_s, call, clear_caches, speed
from workloads import DEFECT, WORKLOADS, build_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = str(HERE / "child.py")

SETUP_REPEATS = 15
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
LADDER_RUNGS = ("running@0.18/text", "running@0.5/text", "running@0.9/text", "running@1.8/text")


class Bench:
    def __init__(self, workload, seed):
        self.workload = workload
        self.in_process = WORKLOADS[workload].in_process
        self.block_passes = WORKLOADS[workload].block_passes
        self.ops = build_ops(workload, seed)
        self.interp = Interpreter(ROOT)
        self._cli = None

    @property
    def cli(self):
        """revcrochet.cli imported from this checkout's src/."""
        if self._cli is None:
            sys.path.insert(0, str(SRC))
            import revcrochet.cli

            if not Path(revcrochet.cli.__file__).resolve().is_relative_to(SRC):
                raise SystemExit(f"revcrochet was imported from {revcrochet.cli.__file__}")
            self._cli = revcrochet.cli
        return self._cli

    def in_process_call(self, argv):
        clear_caches()
        return call(self.cli.run, argv)

    def run_op(self, op, keep_out=False):
        if self.in_process:
            rc, out, err, seconds = self.in_process_call(op.argv)
        else:
            rc, out, err, seconds = self.interp.cli(op.argv)
        return outcome(rc, out, err, seconds, keep_out)

    def child(self, mode, argv):
        rc, out, err, seconds = self.interp.run([CHILD, mode, *argv])
        if rc != 0:
            raise RuntimeError(f"child.py {mode} exited {rc}: {err.strip()[-500:]}")
        return json.loads(out.splitlines()[-1]), seconds

    def setup_s(self):
        """Median time until a first operation can start, over fresh processes.

        Returns (at reference speed, raw) in seconds.  In-process workloads
        take the speed from a calibration inside the child, right after its
        operation; on cli-cold the child is bare, so calibrations in this
        process bracket it.
        """
        ref, raw = [], []
        for _ in range(SETUP_REPEATS):
            if self.in_process:
                env = self.child("setup", self.ops[0].argv)[0]
                seconds, factor = env["setup_s"], speed(env["calibration_s"], env["calibration_s"])
            else:
                before = calibration_s()
                rc, _, err, seconds = self.interp.run(["-c", "import revcrochet.cli"])
                if rc != 0:
                    raise RuntimeError(f"import revcrochet.cli failed: {err.strip()[-500:]}")
                factor = speed(before, calibration_s())
            ref.append(seconds * factor)
            raw.append(seconds)
        return statistics.median(ref), statistics.median(raw)

    def passes(self, seconds):
        """Whole timed passes until `seconds` have gone, outputs kept from the first.

        Each operation is bracketed by calibrations, which give its speed.
        """
        passes = []
        after = calibration_s()
        start = perf_counter()
        while len(passes) < self.block_passes or perf_counter() - start < seconds:
            outcomes = []
            for op in self.ops:
                before = after
                o = self.run_op(op, keep_out=not passes)
                after = calibration_s()
                outcomes.append(dataclasses.replace(o, speed=speed(before, after)))
            passes.append(outcomes)
        return passes

    def traced_pass(self):
        """One pass under the tracer: outcomes, per-layer sums, spans per operation."""
        outcomes, totals, spans = [], {}, []
        for op in self.ops:
            if self.in_process:
                clear_caches()
                tracer = probe.Tracer()
                root = tracer.wrap(self.cli.run, probe.ROOT_SPAN)
                with tracer.install():
                    rc, out, err, seconds = call(root, op.argv)
                op_spans, metrics, import_ms = tracer.spans, tracer.metrics(), 0.0
            else:
                env, _ = self.child("trace", op.argv)
                rc, out, err, seconds = env["rc"], env["out"], env["err"], env["seconds"]
                op_spans = env["spans"]
                metrics = probe.span_metrics(op_spans, env["counts"])
                import_ms = env["import_ms"]
            metrics["cli.import_ms"] = import_ms
            add_into(totals, metrics)
            outcomes.append(outcome(rc, out, err, seconds, keep_out=False))
            spans.append({"op": op.name, "spans": op_spans})
        return outcomes, totals, spans

    def untraced_seconds(self, plain):
        """Untraced operation time of a pass, timed as traced_pass times it.

        On cli-cold both sides are the in-child call, so harness imports and
        serialisation in child.py do not count as tracing overhead.
        """
        if self.in_process:
            return sum(o.seconds for o in plain)
        return sum(self.child("plain", op.argv)[0]["seconds"] for op in self.ops)

    def counts_pass(self):
        totals = {}
        for op in self.ops:
            if self.in_process:
                clear_caches()
                counter = probe.EvalCounter()
                with counter.install():
                    call(self.cli.run, op.argv)
                add_into(totals, counter.counts)
            else:
                add_into(totals, self.child("counts", op.argv)[0]["counts"])
        return totals

    def judge(self, passes):
        """Failure reasons, one entry per failed outcome, checked after timing.

        The first pass is checked in full; a later outcome fails with its
        operation, or on its own if its exit code, bytes or stderr differ.
        """
        def stdout_of(argv):
            return self.in_process_call(argv)[1]

        checker = Checker(ROOT, stdout_of)
        first = passes[0]
        verdicts = [checker.problem(op, o, rerun=stdout_of) for op, o in zip(self.ops, first)]
        failures = []
        for outcomes in passes:
            for op, o, o1, verdict in zip(self.ops, outcomes, first, verdicts):
                if verdict is None and (o.rc, o.digest, o.err) != (o1.rc, o1.digest, o1.err):
                    verdict = "differs from the first pass"
                if verdict is not None:
                    failures.append((op, verdict))
        return verdicts, failures


def outcome(rc, out, err, seconds, keep_out):
    return Outcome(rc, out if keep_out else None, err, seconds, digest(out), len(out.encode()))


def add_into(totals, values):
    for key, value in values.items():
        totals[key] = totals.get(key, 0) + value


def tail(passes, block):
    """(value, percentile) of the op_ms tail, over fixed blocks of passes.

    In each whole block of `block` passes, the latency with TAIL_BEYOND
    samples beyond it; the value is the median over blocks.  The block
    size, not the run's pass count, sets the rank, so the percentile and
    the operations near it stay the same when the program gets faster.
    """
    values = []
    for i in range(0, len(passes) - block + 1, block):
        ordered = sorted(ref_ms(o) for p in passes[i:i + block] for o in p)
        values.append(ordered[-TAIL_BEYOND - 1])
    n = block * len(passes[0])
    return statistics.median(values), 100.0 * (n - TAIL_BEYOND) / n


def provenance():
    lines = {p.name: len(p.read_text(encoding="utf-8").splitlines())
             for p in sorted((SRC / "revcrochet").glob("*.py"))}
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "src_lines": {**lines, "total": sum(lines.values())},
    }


def failure_summary(failures):
    return dict(Counter(f"{op.name}: {reason}" for op, reason in failures))


def correct_despite(failures):
    """True when every failure is a listed known defect."""
    return all(op.expect == DEFECT for op, _ in failures)


def raw_ms(o):
    return o.seconds * 1000.0


def ref_ms(o):
    return o.ref_ms


def rows_per_s(rows, passes, ms):
    return statistics.median(1000.0 * sum(rows) / sum(map(ms, p)) for p in passes)


def op_p50(passes, ms):
    # Per pass first: the median operation of every pass is the same one,
    # so speed changes between passes cannot swap it with a neighbour.
    return statistics.median(statistics.median(map(ms, p)) for p in passes)


def end_to_end_run(bench, seconds, units):
    """Times are scaled to the reference speed; raw ones go to the record."""
    setup_s, setup_raw_s = bench.setup_s()
    warm = bench.run_op(bench.ops[0])
    if warm.rc != 0:
        raise RuntimeError(f"warm-up operation {bench.ops[0].name} exited {warm.rc}: {warm.err}")
    passes = bench.passes(seconds)
    who = resource.RUSAGE_SELF if bench.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    verdicts, failures = bench.judge(passes)
    attempted = sum(len(p) for p in passes)
    rows = [pattern_rows(op, o.out) if v is None and o.rc == 0 else 0
            for op, o, v in zip(bench.ops, passes[0], verdicts)]
    tail_ms, tail_pct = tail(passes, bench.block_passes)
    per_op = {op.name: {"rows": r, "median_ms": statistics.median(ref_ms(p[i]) for p in passes),
                        "raw_median_ms": statistics.median(raw_ms(p[i]) for p in passes)}
              for i, (op, r) in enumerate(zip(bench.ops, rows))}
    values = {
        "setup_s": setup_s,
        "rows_per_s": rows_per_s(rows, passes, ref_ms),
        "op_ms.p50": op_p50(passes, ref_ms),
        "op_ms.tail": tail_ms,
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1.0 - len(failures) / attempted,
    }
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    record = {
        "workload": bench.workload,
        "loop": "closed, 1 client",
        "passes": len(passes),
        "operations_per_pass": len(bench.ops),
        "samples": attempted,
        "op_ms.tail_percentile": round(tail_pct, 2),
        "op_ms.tail_block_passes": bench.block_passes,
        "fail_rate": len(failures) / attempted,
        "failures": failure_summary(failures),
        "raw": {"setup_s": setup_raw_s, "rows_per_s": rows_per_s(rows, passes, raw_ms),
                "op_ms.p50": op_p50(passes, raw_ms)},
        "speed": {"median": statistics.median(o.speed for p in passes for o in p),
                  "min": min(o.speed for p in passes for o in p),
                  "max": max(o.speed for p in passes for o in p)},
        "per_op": per_op,
        "provenance": provenance(),
    }
    if bench.workload == "shaping-ladder":
        record["scaling"] = [{"rows": per_op[n]["rows"], "median_ms": per_op[n]["median_ms"]}
                             for n in LADDER_RUNGS]
    return correct_despite(failures), attempted, len(failures), metrics, record


def traced_run(bench, seconds, units):
    """Untraced and traced passes in pairs, then two evaluation-count passes."""
    interpreter_ms = 0.0
    if not bench.in_process:
        interpreter_ms = 1000.0 * statistics.median(
            bench.interp.run(["-c", "pass"])[3] for _ in range(SETUP_REPEATS))
    bench.run_op(bench.ops[0])
    plain_passes, traced_passes, per_pass, spans = [], [], [], None
    start = perf_counter()
    while not per_pass or perf_counter() - start < seconds / 2:
        plain = [bench.run_op(op, keep_out=not plain_passes) for op in bench.ops]
        traced, totals, spans = bench.traced_pass()
        plain_ms = sum(o.seconds for o in plain) * 1000.0
        totals.update({
            "cli.process_ms": plain_ms,
            "cli.interpreter_ms": interpreter_ms * len(bench.ops),
            "cli.exit_other": sum(o.rc not in (0, 2) for o in plain),
            "emit.bytes_out": sum(o.nbytes for o in plain),
            "trace.overhead_pct": 100.0 * (sum(o.seconds for o in traced)
                                           / bench.untraced_seconds(plain) - 1),
        })
        candidates = totals.get("shaping.candidates", 0)
        totals["shaping.us_per_candidate"] = (
            1000.0 * totals.get("shaping.optimize_ms", 0.0) / candidates if candidates else 0.0)
        plain_passes.append(plain)
        traced_passes.append(traced)
        per_pass.append(totals)
    counts = [bench.counts_pass(), bench.counts_pass()]

    # Traced outcomes are judged against the first untraced pass, so output
    # that tracing changes counts as a failure.
    _, failures = bench.judge(plain_passes + traced_passes)
    attempted = sum(len(p) for p in plain_passes + traced_passes)
    for totals in per_pass:
        totals.update(counts[0])
    metrics = {name: (statistics.median(p[name] for p in per_pass), unit)
               for name, unit in units.items()}
    layer_ms = {layer: metrics[f"{layer}.self_ms"][0] for layer in probe.LAYERS}
    spans_path = HERE / f"spans-{bench.workload}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for entry in spans:
            fh.write(json.dumps({"workload": bench.workload, **entry}) + "\n")
    record = {
        "workload": bench.workload,
        "traced_pairs": len(per_pass),
        "layer_share": {layer: ms / sum(layer_ms.values()) for layer, ms in layer_ms.items()},
        "counts_repeat": counts[0] == counts[1],
        "failures": failure_summary(failures),
        "spans": str(spans_path.relative_to(ROOT)),
        "provenance": provenance(),
    }
    correct = correct_despite(failures) and counts[0] == counts[1]
    return correct, attempted, len(failures), metrics, record


def run_all(args):
    """Every workload in its own process; prints each report and a summary."""
    results, ok = {}, True
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, encoding="utf-8")
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        results[workload] = json.loads(lines[-1])
        ok = ok and results[workload]["correct"]
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "revcrochet" / "cli.py").is_file():
        print(f"perfbench: no revcrochet sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # Byte-compile once, so every timed interpreter imports the package as an
    # installed one would, whatever the run before left behind.
    compileall.compile_dir(SRC / "revcrochet", quiet=1)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind, measure = ("per_layer", traced_run) if args.trace else ("end_to_end", end_to_end_run)
    units = {m["name"]: m["unit"] for m in declared[kind]}
    bench = Bench(args.workload, args.seed)
    correct, attempted, failed, metrics, record = measure(bench, args.seconds, units)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
