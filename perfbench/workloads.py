"""Operation lists of the three benchmark workloads.

An operation is one revcrochet invocation, given as the argv the CLI
receives.  Each workload is a fixed list of anchor operations plus a few
operations built from specs drawn with the run's seed; the same workload
and seed always give the same list.  The program sees only the argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

RUNNING = "x^3 + 2*x^2 - 2*x + 4"
SPHERE = "sin(x)"
RIPPLE = "2 + sin(20*x)"
DEEP = "3 + sin(5*x)*cos(3*x) + exp(-x^2)*x^2"

# How an operation's result is checked (see check.py).
GOLDEN = "golden"        # bytes equal a golden file under tests/golden
REFERENCE = "reference"  # bytes equal the digest recorded in references.json
SEEDED = "seeded"        # shaping checked against the brute-force oracle
REJECT = "reject"        # exit 2 with one "revcrochet:" line on stderr
DEFECT = "defect"        # known defect: must end in exit 0 or 2, no traceback


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    expect: str
    golden: str | None = None

    @property
    def fmt(self) -> str:
        argv = list(self.argv)
        return argv[argv.index("--format") + 1] if "--format" in argv else "text"


def spec_argv(function, a, b, scale, fmt="text", extrema=True, stitch_gauge=22, row_gauge=25):
    argv = [
        "--function", function, f"--a={a!r}", f"--b={b!r}",
        "--stitch-gauge", str(stitch_gauge), "--row-gauge", str(row_gauge),
        f"--scale={scale!r}",
    ]
    if fmt != "text":
        argv += ["--format", fmt]
    if not extrema:
        argv.append("--no-extrema")
    return tuple(argv)


def running(scale, fmt="text", extrema=True):
    name = f"running@{scale}/{fmt}" + ("" if extrema else "/no-extrema")
    return Op(name, spec_argv(RUNNING, -3.0, 1.0, scale, fmt, extrema), REFERENCE)


def sphere(fmt="text", extrema=True):
    argv = spec_argv(SPHERE, 0.0, math.pi, 2.0, fmt, extrema)
    if fmt == "text" and extrema:
        return Op("sphere@2.0/text", argv, GOLDEN, "closed_sphere.txt")
    return Op(f"sphere@2.0/{fmt}" + ("" if extrema else "/no-extrema"), argv, REFERENCE)


MAX_SEEDED_STITCHES = 60


def random_spec_argv(rng: random.Random, target_rows: int, fmt: str):
    """A random valid spec of about target_rows rows.

    Same construction as random_valid_spec in tests/conftest.py: a cubic or
    a two-term trig base, lifted well above zero so consecutive stitch
    counts stay within single increases and decreases, with the scale
    picked from a crude arclength estimate.  Draws whose widest row would
    pass MAX_SEEDED_STITCHES are drawn again: shaping cost grows with the
    stitch count, and the seeded share of a workload should not swing its
    totals from one seed to the next.
    """
    while True:
        lo = round(rng.uniform(-1.5, 0.5), 4)
        hi = round(lo + rng.uniform(0.7, 2.0), 4)
        if rng.random() < 0.5:
            c = [round(rng.uniform(-s, s), 4) for s in (1.2, 1.2, 0.8)]
            text = f"{c[0]:.4f}*x + {c[1]:.4f}*x^2 + {c[2]:.4f}*x^3"

            def base(x, c=c):
                return c[0] * x + c[1] * x * x + c[2] * x**3
        else:
            amp1, amp2 = (round(rng.uniform(0.3, 1.1), 4) for _ in range(2))
            w1, w2 = (round(rng.uniform(0.5, 2.0), 4) for _ in range(2))
            text = f"{amp1:.4f}*sin({w1:.4f}*x) + {amp2:.4f}*cos({w2:.4f}*x)"

            def base(x, amp1=amp1, amp2=amp2, w1=w1, w2=w2):
                return amp1 * math.sin(w1 * x) + amp2 * math.cos(w2 * x)

        grid = [lo + i * (hi - lo) / 800 for i in range(801)]
        ys = [base(x) for x in grid]
        arc = sum(math.hypot(grid[i + 1] - grid[i], ys[i + 1] - ys[i]) for i in range(800))
        stitch_gauge = rng.randint(10, 28)
        row_gauge = rng.randint(8, 24)
        scale = max(round(target_rows * 4.0 / (row_gauge * arc), 4), 0.01)
        row_step = arc / target_rows
        per_unit = 2 * math.pi * scale * stitch_gauge / 4
        floor_f = max(1.6 * row_step, 7.0 / per_unit)
        shift = floor_f - min(ys) + rng.uniform(0.05, 0.6)
        if per_unit * (max(ys) + shift) <= MAX_SEEDED_STITCHES:
            return spec_argv(f"{text} + {shift:.4f}", lo, hi, scale, fmt,
                             stitch_gauge=stitch_gauge, row_gauge=row_gauge)


def seeded(rng, index, target_rows, fmt):
    return Op(f"seeded-{index}/{fmt}", random_spec_argv(rng, target_rows, fmt), SEEDED)


def shaping_ladder(rng):
    # The 808-row rung (scale 9.0) is left out: at the seed it shapes for
    # about 200 s, longer than a whole run may take.  Three closed spheres
    # of about equal cost sit at the median rank of a pass, so op_ms.p50
    # rests on nine samples of one size; they are spread through the pass
    # because the machine's speed can change within seconds.
    seeded_ops = [seeded(rng, i, rows, "text") for i, rows in enumerate((8, 12, 16))]
    return [
        Op("running@0.18/text", spec_argv(RUNNING, -3.0, 1.0, 0.18), GOLDEN,
           "running_example.txt"),
        sphere(), running(0.5), seeded_ops[0], running(0.9),
        sphere("json"), running(0.18, "json"), running(1.8),
        sphere(extrema=False), seeded_ops[1], running(0.5, extrema=False),
        Op("ripple@0.3/text", spec_argv(RIPPLE, 0.0, 10.0, 0.3), REFERENCE),
        seeded_ops[2],
    ]


def plan_svg(rng):
    # Three seeded specs against four anchors keep the median operation an
    # anchor, whatever the seed.
    return [
        running(9.0, "svg"),
        running(1.8, "svg", extrema=False),
        Op("ripple@0.3/svg", spec_argv(RIPPLE, 0.0, 10.0, 0.3, "svg"), REFERENCE),
        Op("deep@0.5/svg", spec_argv(DEEP, -4.0, 4.0, 0.5, "svg"), REFERENCE),
        *(seeded(rng, i, rows, "svg") for i, rows in enumerate((8, 12, 16))),
    ]


def cli_cold(rng):
    def other(name, function, a, b, expect, scale=0.5):
        return Op(name, spec_argv(function, a, b, scale), expect)

    return [
        Op("running@0.18/text", spec_argv(RUNNING, -3.0, 1.0, 0.18), GOLDEN,
           "running_example.txt"),
        running(0.18, "json"), running(0.18, "svg"),
        sphere(), sphere("json"), sphere("svg"),
        *(seeded(rng, i, rows, fmt) for i, (rows, fmt) in enumerate(
            ((16, "text"), (24, "json"), (48, "svg"), (32, "text"), (40, "json"), (24, "svg")))),
        other("reject/2x", "2x", 0.0, 1.0, REJECT),
        other("reject/negative", "x - 1", 0.0, 2.0, REJECT),
        other("reject/vertical-tangent", "sqrt(x)", 0.0, 2.0, REJECT),
        other("reject/a>=b", "x^2 + 1", 1.0, 1.0, REJECT),
        # Known defects; they stay in the list until fixed.
        other("defect/300-terms", "(" + "+".join(["x"] * 300) + ")/300 + 1", 0.0, 1.0, DEFECT),
        other("defect/1500-parens", "(" * 1500 + "x + 1" + ")" * 1500, 0.0, 1.0, DEFECT),
        other("defect/complex-derivative", "2 + (abs(x-0.5) - 0.0001)^1.5", 0.0, 1.0003,
              DEFECT),
    ]


@dataclass(frozen=True)
class Workload:
    build: object        # rng -> list[Op]
    in_process: bool     # False: one subprocess per operation
    # Passes a run makes at least, and the block of passes op_ms.tail is
    # taken over.  A fixed block fixes the tail's rank, so a faster program
    # that fits more passes into a run reports the same percentile of the
    # same operations.  Each lets every 20-second run at the first
    # benchmark commit complete at least two blocks, or one on the ladder,
    # and puts the rank at the middle sample of one operation.
    block_passes: int


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    "shaping-ladder": Workload(shaping_ladder, in_process=True, block_passes=3),
    "plan-svg": Workload(plan_svg, in_process=True, block_passes=20),
    "cli-cold": Workload(cli_cold, in_process=False, block_passes=3),
}


def build_ops(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload].build(random.Random(f"{workload}:{seed}"))
