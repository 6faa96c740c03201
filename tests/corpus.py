"""Seeded differential corpus: CLI results that must not change by accident.

Every spec the generator draws is run through `revcrochet.cli.run`; its
result is the exit code, the SHA-256 of stdout and the stderr text.
`corpus_expected.tsv` holds one recorded result per spec.  A change that
keeps every pattern byte keeps every line; a stated bug fix may change some,
and re-recording prints how many moved, per class and per exit-code
transition.

    PYTHONPATH=src python tests/corpus.py                    # check every spec
    PYTHONPATH=src python tests/corpus.py --record "REASON"  # re-record
    PYTHONPATH=src python tests/corpus.py --against REV      # compare with commit REV

`--record` needs the bug fix that justifies it; the reason and the change
counts are appended to the file's header.  Every spec must end in exit 0 (a
pattern) or 2 (a one-line diagnostic): any other exit code fails every mode
and is never recorded, and each such spec is listed.  `--against` checks REV
out with `git worktree add --detach` in a temporary directory, runs the
same specs against its src/ in a subprocess, and removes the worktree
again; it never re-records.  Each mode lists every changed spec with its old -> new exit
code and the first line of each stderr, and names the slowest spec: its
id, class, exit code and seconds in this process, the number a bound on
the time of every spec is checked against, and the peak resident memory of
this process; then the seconds of each class and of each output format
(text, json, svg) in this process.
tests/test_corpus.py runs the fast subset (the first FAST_PER_CLASS specs
of every class).
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SEED = 2026
PER_CLASS = 70
FAST_PER_CLASS = 6
EXPECTED = Path(__file__).with_name("corpus_expected.tsv")


def _f(v):
    return f"{v:.4f}"


def _draw(cls, rng):
    """(function, a, b) for one spec of class cls."""
    u = rng.uniform
    a = round(u(-2.0, 0.5), 3)
    b = round(a + u(0.5, 3.0), 3)
    d = round(u(a, b), 4)  # a feature point, usually inside [a, b]
    c = u(0.3, 3.0)
    if cls == "poly":
        k = [u(-1.0, 1.0) for _ in range(3)]
        text = f"{_f(c)} + {_f(k[0])}*x + {_f(k[1])}*x^2 + {_f(k[2])}*x^3"
    elif cls == "quartic":
        # a double root at d when the constant is 0: it touches zero inside
        text = f"{_f(u(0.1, 1.0))}*(x - {_f(d)})^2*(x^2 + {_f(u(0.0, 1.0))}) + {_f(rng.choice([0.0, c]))}"
    elif cls == "trig":
        text = (f"{_f(c + 1.5)} + {_f(u(0.2, 1.2))}*sin({_f(u(0.5, 4.0))}*x)"
                f" + {_f(u(0.1, 0.8))}*cos({_f(u(0.5, 4.0))}*x)")
    elif cls == "ripple":
        text = f"{_f(c + 1.0)} + {_f(u(0.2, 0.9))}*sin({_f(u(10.0, 40.0))}*x)"
    elif cls == "exp":
        text = rng.choice([
            f"{_f(c)} + {_f(u(0.1, 1.0))}*exp({_f(u(-2.0, 2.0))}*x)",
            f"{_f(c)} + exp(-(x - {_f(d)})^2*{_f(u(0.5, 8.0))})",
        ])
    elif cls == "abs-cusp":
        text = f"{_f(c + 1.0)} + abs(x - {_f(d)})^{_f(u(1.0, 1.1))}*sin({_f(u(1.0, 8.0))}*x)"
    elif cls == "sqrt-abs":
        text = f"{_f(c)} + {_f(u(0.2, 1.0))}*sqrt(abs(x - {_f(d)}))"
    elif cls == "ln":
        text = rng.choice([
            f"{_f(c)} + ln(x - {_f(a - u(-0.5, 1.0))})",
            f"{_f(c)} + ln(x^2 + {_f(u(0.01, 2.0))})",
        ])
    elif cls == "end-root":
        # zero at a, at b or at both ends: a closed shape
        w = b - a
        text = rng.choice([
            f"sin(pi*(x - {a})/{w!r})",
            f"{_f(u(0.2, 2.0))}*(x - {a})*({b} - x)",
            f"{_f(u(0.2, 2.0))}*(x - {a})^2 + {_f(rng.choice([0.0, c]))}",
        ])
    elif cls == "tan":
        text = f"{_f(c + 1.0)} + {_f(u(0.1, 0.5))}*tan({_f(u(0.2, 2.0))}*x)"
    elif cls == "pole":
        text = rng.choice([
            f"{_f(c)} + {_f(u(0.05, 0.5))}/(x - {_f(d)})",
            f"{_f(c)} + 1/((x - {_f(d)})^2 + {_f(u(0.001, 1.0))})",
        ])
    elif cls == "sign":
        text = rng.choice([
            f"{_f(c + 1.0)} + {_f(u(0.1, 0.9))}*sign(x - {_f(d)})",
            f"{_f(c)} + sign(x - {_f(d)})*(x - {_f(d)})^2",
        ])
    elif cls == "power":
        text = f"{_f(c)} + (x - {_f(d)})^{rng.choice(['2', '3', '1.5', '0.5', '2.5', _f(u(0.3, 3.0))])}"
    elif cls == "complex-kink":
        text = f"{_f(c + 1.0)} + (abs(x - {_f(d)}) - {_f(u(0.00005, 0.01))})^1.5"
    elif cls == "random-tree":
        text = f"{_f(c)} + {_tree(rng, 4)}"
    else:
        raise ValueError(cls)
    return text, a, b


def _tree(rng, depth):
    """Text of a random expression over the whole grammar, at most depth levels deep.

    One operand of each binary operation carries the depth, the other is
    shallower, as in the trees of tests/test_expression.py.
    """
    if depth == 1 or rng.random() < 0.1:
        kind = rng.random()
        if kind < 0.4:
            return "x"
        if kind < 0.5:
            return rng.choice(["pi", "e"])
        digits = rng.randint(0, 9)
        return f"{rng.uniform(0, 10) * 10.0 ** rng.randint(-8, 3):.{digits}f}"
    kind = rng.random()
    if kind < 0.15:
        return f"-({_tree(rng, depth - 1)})"
    if kind < 0.3:
        fn = rng.choice(["sin", "cos", "tan", "exp", "ln", "sqrt", "abs", "sign"])
        return f"{fn}({_tree(rng, depth - 1)})"
    deep, shallow = _tree(rng, depth - 1), _tree(rng, rng.randint(1, depth - 1))
    left, right = (deep, shallow) if rng.random() < 0.5 else (shallow, deep)
    return f"({left}{rng.choice('+-*/^')}{right})"


CLASSES = (
    "poly", "quartic", "trig", "ripple", "exp", "abs-cusp", "sqrt-abs", "ln",
    "end-root", "tan", "pole", "sign", "power", "complex-kink", "random-tree",
)


def specs():
    """(id, class, argv) for every spec, in a fixed order."""
    out = []
    for cls in CLASSES:
        rng = random.Random(f"corpus:{SEED}:{cls}")
        # random trees draw gauges, scales and --no-extrema as ROADMAP item 1's 800-tree run did
        low, top, no_extrema = (5, 3.0, 0.3) if cls == "random-tree" else (10, 1.5, 0.35)
        for i in range(PER_CLASS):
            text, a, b = _draw(cls, rng)
            argv = [
                "--function", text, f"--a={a!r}", f"--b={b!r}",
                "--stitch-gauge", str(rng.randint(low, 30)),
                "--row-gauge", str(rng.randint(low, 30)),
                f"--scale={round(rng.uniform(0.1, top), 3)!r}",
                "--format", rng.choice(("text", "json", "svg")),
            ]
            if rng.random() < no_extrema:
                argv.append("--no-extrema")
            out.append((f"{cls}-{i:02d}", cls, argv))
    return out


def fast_specs():
    return [s for s in specs() if int(s[0].rsplit("-", 1)[1]) < FAST_PER_CLASS]


def argv_digest(argv):
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()[:16]


def run_spec(argv):
    """(exit code, SHA-256 of stdout, stderr) of one in-process CLI run.

    An exception that escapes cli.run is exit 1 with its class and message
    as stderr, as the traceback's last line would show it.
    """
    from revcrochet.cli import run

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a traceback is a result here
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()


# Run in a subprocess by results_at: the specs arrive as JSON on stdin, and
# one result line per spec goes to stdout.
_RUN_SPECS = """\
import json, sys
from corpus import result_line, run_spec
for spec_id, cls, argv in json.load(sys.stdin):
    print(result_line(spec_id, cls, argv, run_spec(argv)))
"""


def results_at(rev, todo):
    """Result line of every spec in todo, by id, run against commit rev's src/.

    rev is checked out in a temporary git worktree, which is removed again.
    """
    root = Path(__file__).resolve().parent.parent
    git = ["git", "-C", str(root)]
    with tempfile.TemporaryDirectory(prefix="corpus-") as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run([*git, "worktree", "add", "--quiet", "--detach", str(tree), rev],
                       check=True)
        try:
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                [str(tree / "src"), str(Path(__file__).resolve().parent)]))
            out = subprocess.run([sys.executable, "-c", _RUN_SPECS], input=json.dumps(todo),
                                 capture_output=True, text=True, env=env, check=True).stdout
        finally:
            subprocess.run([*git, "worktree", "remove", "--force", str(tree)], check=True)
    return {line.split("\t", 1)[0]: line for line in out.splitlines()}


def result_line(spec_id, cls, argv, result):
    code, digest, err = result
    return "\t".join((spec_id, cls, argv_digest(argv), str(code), digest, repr(err)))


def read_expected(path=EXPECTED):
    """Header comment lines, and the recorded line of every spec id."""
    header, lines = [], {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            header.append(line)
        else:
            lines[line.split("\t", 1)[0]] = line
    return header, lines


def compare(expected, got):
    """Changed spec ids, counted per class and per exit-code transition."""
    changed, per_class, transitions = [], Counter(), Counter()
    for spec_id, line in got.items():
        old = expected.get(spec_id)
        if old == line:
            continue
        changed.append(spec_id)
        fields = line.split("\t")
        per_class[fields[1]] += 1
        before = old.split("\t")[3] if old else "new"
        transitions[f"{before} -> {fields[3]}"] += 1  # 2 -> 2: another message
    return changed, per_class, transitions


def moved_line(spec_id, old, new):
    """'id: exit A -> B, stdout same|changed, stderr OLD -> NEW' for a changed spec."""
    def fields(line):  # exit code, stdout sha256, first line of stderr
        f = line.split("\t") if line else ["", "", "", "new", "", "''"]
        return f[3], f[4], ast.literal_eval(f[5]).split("\n", 1)[0]

    (code0, out0, err0), (code1, out1, err1) = fields(old), fields(new)
    stdout = "same" if out0 == out1 else "changed"
    return f"  {spec_id}: exit {code0} -> {code1}, stdout {stdout}, stderr {err0!r} -> {err1!r}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--record", metavar="REASON", help="re-record, for this stated bug fix")
    mode.add_argument("--against", metavar="REV",
                      help="compare with the results of commit REV, not the recording")
    args = p.parse_args(argv)
    todo = specs()
    got, slowest, class_seconds, format_seconds, other = {}, (-1.0,), Counter(), Counter(), []
    for sid, cls, a in todo:
        start = time.perf_counter()
        result = run_spec(a)
        seconds = time.perf_counter() - start
        got[sid] = result_line(sid, cls, a, result)
        if result[0] not in (0, 2):
            first = result[2].split("\n", 1)[0]
            other.append(f"  {sid}: exit {result[0]}, stderr {first!r}")
        slowest = max(slowest, (seconds, sid, cls, result[0]))
        class_seconds[cls] += seconds
        format_seconds[a[a.index("--format") + 1]] += seconds
    if args.against:
        header, expected, source = [], results_at(args.against, todo), args.against
    else:
        header, expected = read_expected() if EXPECTED.exists() else ([], {})
        source = EXPECTED.name
    changed, per_class, transitions = compare(expected, got)
    print(f"{len(got)} specs, {len(changed)} differ from {source}")
    seconds, sid, cls, code = slowest
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"slowest: {sid} ({cls}), exit {code}, {seconds:.2f} s in-process;"
          f" peak RSS of this process {peak_mb:.1f} MB")
    print("seconds per class:", ", ".join(f"{k} {v:.2f}" for k, v in class_seconds.items()))
    print("seconds per format:",
          ", ".join(f"{k} {format_seconds[k]:.2f}" for k in ("text", "json", "svg")))
    for key, n in sorted(per_class.items()):
        print(f"  class {key}: {n}")
    for key, n in sorted(transitions.items()):
        print(f"  exit {key}: {n}")
    for sid in changed:
        print(moved_line(sid, expected.get(sid), got[sid]))
    if other:
        print(f"{len(other)} specs exit with neither 0 nor 2, so nothing is recorded:")
        print("\n".join(other))
        return 1
    if args.record:
        header = header or ["# id\tclass\targv digest\texit\tstdout sha256\tstderr"]
        classes = ", ".join(f"{k} {n}" for k, n in sorted(per_class.items()))
        exits = ", ".join(f"{k}: {n}" for k, n in sorted(transitions.items()))
        header.append(f"# {args.record}: {len(changed)} changed (by class: {classes}; by exit: {exits})")
        body = [got[sid] for sid, _, _ in specs()]
        EXPECTED.write_text("\n".join(header + body) + "\n", encoding="utf-8")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
