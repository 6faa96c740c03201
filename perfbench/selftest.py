"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that a seed always gives the same
operation list, and that the correctness gate counts a corrupted output
(one changed stitch count) and a traceback as failed operations.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys

from check import Checker, digest
from run import ROOT, Bench, correct_despite, outcome
from workloads import WORKLOADS, build_ops

TRACEBACK = 'Traceback (most recent call last):\n  File "x", line 1\nRecursionError\n'


def one_more_stitch(text):
    """text with its first stitch count raised by one."""
    m = re.search(r'\((\d+) stitches\)|"stitches": (\d+)', text)
    start, end = m.span(1) if m.group(1) else m.span(2)
    return text[:start] + str(int(text[start:end]) + 1) + text[end:]


def main():
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in declared["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json names every workload")

    for workload in WORKLOADS:
        ops = build_ops(workload, 7)
        expect(ops == build_ops(workload, 7), f"{workload}: seed 7 gives the same list twice")
        expect(ops != build_ops(workload, 8), f"{workload}: seeds 7 and 8 give different lists")
        expect(len({op.name for op in ops}) == len(ops), f"{workload}: operation names are unique")

    bench = Bench("cli-cold", 7)
    ops = {op.name: op for op in bench.ops}
    for name in ("running@0.18/text", "running@0.18/json", "seeded-0/text", "seeded-1/json"):
        op = ops[name]
        good = bench.run_op(op, keep_out=True)
        bad_out = one_more_stitch(good.out)
        bad = dataclasses.replace(good, out=bad_out, digest=digest(bad_out))
        bench.ops = [op]
        _, failures = bench.judge([[good]])
        expect(not failures, f"{name}: correct output passes")
        _, failures = bench.judge([[bad]])
        expect(len(failures) == 1, f"{name}: one changed stitch count fails")
        _, failures = bench.judge([[good], [bad]])
        expect(len(failures) == 1, f"{name}: a later pass with a changed stitch count fails")
        crashed = dataclasses.replace(good, err=TRACEBACK)
        _, failures = bench.judge([[crashed]])
        expect(len(failures) == 1 and not correct_despite(failures),
               f"{name}: a traceback fails and makes the run incorrect")

    # Without the rerun, the oracle and the text/JSON cross-check must still
    # catch the corruption on their own.
    checker = Checker(ROOT, lambda argv: bench.in_process_call(argv)[1])
    for name in ("seeded-0/text", "seeded-1/json"):
        good = bench.run_op(ops[name], keep_out=True)
        expect(checker.seeded_problem(ops[name], good.out, rerun=None) is None,
               f"{name}: the oracle accepts the program's shaping")
        expect(checker.seeded_problem(ops[name], one_more_stitch(good.out), rerun=None)
               is not None, f"{name}: the oracle rejects one changed stitch count")
    doc = json.loads(bench.run_op(ops["seeded-1/json"], keep_out=True).out)
    shaped = next(row for row in doc["rows"] if row["positions"] and row["q"] + row["r"] > 1)
    shaped["k"] = shaped["k"] % (shaped["q"] + shaped["r"]) + 1
    expect(checker.shaping_problem(doc["rows"]) is not None,
           "seeded-1/json: the oracle rejects a changed shift k")

    bench.ops = [ops["defect/1500-parens"]]
    _, failures = bench.judge([[outcome(1, "", TRACEBACK, 0.1, keep_out=True)]])
    expect(len(failures) == 1 and correct_despite(failures),
           "known defect: a traceback fails but leaves the run correct")
    _, failures = bench.judge([[outcome(2, "", "revcrochet: too deep\n", 0.1, keep_out=True)]])
    expect(not failures, "known defect: a one-line exit 2 passes")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
