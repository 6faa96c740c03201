"""Running one operation, in this process or as a child interpreter."""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import traceback
from time import perf_counter

OP_TIMEOUT_S = 60
CLI_MAIN = "from revcrochet.cli import main; main()"
CAL_POINTS = 1500
CAL_REF_S = 0.002  # calibration time of the reference machine figures are scaled to


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


def calibration_s():
    """Seconds a fixed pure-Python task takes now: the machine's speed.

    The task mixes what revcrochet spends its time on (small objects, float
    math, dict counting, a keyed sort, formatting).  It is fixed code
    outside revcrochet, so no change to the program can move it.
    """
    start = perf_counter()
    points = [_Point(i * 0.01, math.sin(i * 0.01)) for i in range(CAL_POINTS)]
    counts, acc = {}, 0.0
    for p in points:
        acc += math.hypot(p.x, p.y) + abs(p.y - 0.5) ** 1.5
        key = int(p.x * 13) % 31
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(points, key=lambda p: p.y)
    min((abs(a.y - b.y), i) for i, (a, b) in enumerate(zip(ordered, ordered[1:])))
    ",".join(f"{p.x:.3f}" for p in points[:500])
    return perf_counter() - start


def speed(before, after):
    """Factor that scales seconds measured between two calibrations to the
    reference machine, on which calibration_s() takes CAL_REF_S.

    The speed of a shared virtual CPU changes by a third within seconds and
    drifts over minutes, and every operation slows with it.  Bracketing an
    operation with this task tracked that drift: over three minutes the
    scaled latency of one operation spread 0.01-0.05 between 20-second
    windows, against 0.3-0.5 unscaled (a tight integer loop run only
    before the operation: 0.15-0.2).
    """
    return 2.0 * CAL_REF_S / (before + after)


def call(run_fn, argv):
    """run_fn(argv) with stdout and stderr captured: (rc, out, err, seconds).

    An exception that escapes becomes exit 1 with its traceback on stderr,
    as the interpreter would report it; formatting it is not timed.
    """
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run_fn(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # noqa: BLE001 - the operation's own failure, reported as such
        rc, escaped = 1, exc
    seconds = perf_counter() - start
    if escaped is not None:
        err.write("".join(traceback.format_exception(escaped)))
    return rc, out.getvalue(), err.getvalue(), seconds


def clear_caches():
    """Empty every functools cache a revcrochet module holds.

    calculus._arc_integrand caches the compiled f' by the value of the
    parsed tree, so a looped operation would reuse it where a `revcrochet`
    process never can.  Clearing before each operation keeps them equally cold.
    """
    for name, module in list(sys.modules.items()):
        if name == "revcrochet" or name.startswith("revcrochet."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Interpreter:
    """Starts `python3 ARGS...` on the checkout's src/, timed from outside."""

    def __init__(self, root):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, args, timeout=OP_TIMEOUT_S):
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *args], cwd=self.root, env=self.env,
                capture_output=True, encoding="utf-8", timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return -9, "", f"timed out after {timeout} s", perf_counter() - start
        return proc.returncode, proc.stdout, proc.stderr, perf_counter() - start

    def cli(self, argv):
        """One `revcrochet ARGV...` process, as the console script runs it."""
        return self.run(["-c", CLI_MAIN, *argv])
