"""Correctness gate: every operation's output against a golden file, a
recorded reference, the brute-force shaping oracle, or the exit-code rules.

Run `python3 perfbench/check.py --record` only on a commit whose pattern
bytes are correct by the repository's tests; it rewrites references.json
from the current program's output for every REFERENCE operation.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

from runner import call
from workloads import DEFECT, GOLDEN, REFERENCE, REJECT, SEEDED, WORKLOADS, build_ops

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


@dataclass
class Outcome:
    """One timed operation: exit code, captured streams, wall seconds.

    out is kept only where it will be checked; digest and nbytes describe
    it always.  speed scales seconds to the reference machine speed (see
    runner.speed); it is 1 where the operation was not calibrated.
    """

    rc: int
    out: str | None
    err: str
    seconds: float
    digest: str
    nbytes: int
    speed: float = 1.0

    @property
    def ref_ms(self) -> float:
        return self.seconds * self.speed * 1000.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def text_from_doc(doc) -> str:
    """The text pattern that a JSON pattern document describes."""
    lines = [f"Note: {w}" for w in doc["warnings"]]
    lines += [row["instruction"] for row in doc["rows"]]
    lines += doc["finishing"]
    return "\n".join(lines) + "\n"


def pattern_rows(op, out: str) -> int:
    """Pattern rows in a successful operation's output."""
    if op.fmt == "json":
        return len(json.loads(out)["rows"]) - 1
    if op.fmt == "svg":
        return out.count("<circle ") - 1
    return max(0, sum(1 for line in out.splitlines() if line.startswith("Row ")) - 1)


class Checker:
    def __init__(self, root: Path, run_json):
        """run_json(argv) -> the program's stdout for argv with --format json."""
        self.root = root
        self.run_json = run_json
        self.references = json.loads(REFERENCES.read_text(encoding="utf-8"))
        self._oracle = None

    def oracle(self):
        if self._oracle is None:
            path = self.root / "tests" / "conftest.py"
            spec = importlib.util.spec_from_file_location("perfbench_conftest", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            self._oracle = module.brute_force_placement
        return self._oracle

    def problem(self, op, o: Outcome, rerun=None) -> str | None:
        """Why the outcome is wrong, or None.  rerun(argv) -> stdout repeats it."""
        if "Traceback (most recent call last)" in o.err:
            return "traceback"
        if op.expect in (REJECT, DEFECT) and o.rc == 2:
            lines = o.err.splitlines()
            if o.out or len(lines) != 1 or not lines[0].startswith("revcrochet: "):
                return "exit 2 without exactly one 'revcrochet:' line"
            return None
        if op.expect == REJECT:
            return f"exit {o.rc}, expected 2"
        if o.rc != 0:
            return f"exit {o.rc}"
        if o.err:
            return "unexpected stderr"
        if op.expect == GOLDEN:
            path = self.root / "tests" / "golden" / op.golden
            if o.out != path.read_text(encoding="utf-8"):
                return f"differs from tests/golden/{op.golden}"
        elif op.expect == REFERENCE:
            ref = self.references.get(op.name)
            if ref is None or ref["argv"] != list(op.argv) or o.digest != ref["sha256"]:
                return "differs from the recorded reference"
        elif op.expect == SEEDED:
            return self.seeded_problem(op, o.out, rerun)
        elif op.expect == DEFECT and not o.out:
            return "exit 0 with empty output"
        return None

    def seeded_problem(self, op, out: str, rerun) -> str | None:
        if rerun is not None and rerun(op.argv) != out:
            return "same argv gave different bytes"
        argv = list(op.argv)
        if "--format" in argv:
            del argv[argv.index("--format"):argv.index("--format") + 2]
        doc_text = out if op.fmt == "json" else self.run_json(argv + ["--format", "json"])
        doc = json.loads(doc_text)
        bad = self.shaping_problem(doc["rows"])
        if bad:
            return bad
        if op.fmt == "text" and out != text_from_doc(doc):
            return "text does not match the JSON document"
        if op.fmt == "svg":
            try:
                svg = ET.fromstring(out)
            except ET.ParseError as exc:
                return f"SVG does not parse: {exc}"
            marks = [e for e in svg.iter() if e.tag.endswith("circle")]
            if len(marks) != len(doc["landmarks"]):
                return "SVG markers do not match the landmarks"
        return None

    def shaping_problem(self, rows) -> str | None:
        """Each shaped row's k and positions against the brute-force oracle."""
        brute = self.oracle()
        ref_positions, ref_denom = (), 1
        for prev, row in zip(rows, rows[1:]):
            s_prev, s_cur = prev["stitches"], row["stitches"]
            n_ops, low = abs(s_cur - s_prev), min(s_prev, s_cur)
            if row["n_ops"] != n_ops:
                return f"row {row['row']}: n_ops {row['n_ops']}, expected {n_ops}"
            if n_ops == 0 or n_ops > low:
                if row["positions"]:
                    return f"row {row['row']}: positions on an unshaped row"
                continue
            k, positions = brute(ref_positions, ref_denom, s_prev, s_cur)
            if row["k"] != k or tuple(row["positions"]) != positions:
                return f"row {row['row']}: k={row['k']}, oracle k={k}"
            ref_positions, ref_denom = positions, low
        return None


def record(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    from revcrochet.cli import run

    refs = {}
    for workload in WORKLOADS:
        for op in build_ops(workload, 0):
            if op.expect == REFERENCE and op.name not in refs:
                rc, out, err, _ = call(run, op.argv)
                if rc != 0:
                    raise SystemExit(f"{op.name} exited {rc}: {err}")
                refs[op.name] = {"sha256": digest(out), "rows": pattern_rows(op, out),
                                 "argv": list(op.argv)}
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/check.py --record")
    record(HERE.parent)
