"""Seeded differential corpus: CLI results that must not change by accident.

Every spec the generator draws is run through `revcrochet.cli.run`; its
result is the exit code, the SHA-256 of stdout and the stderr text.
`corpus_expected.tsv` holds one recorded result per spec.  A change that
keeps every pattern byte keeps every line; a stated bug fix may change some,
and re-recording prints how many moved, per class and per exit-code
transition.

    PYTHONPATH=src python tests/corpus.py                    # check every spec
    PYTHONPATH=src python tests/corpus.py --record "REASON"  # re-record

`--record` needs the bug fix that justifies it; the reason and the change
counts are appended to the file's header.  tests/test_corpus.py runs the
fast subset (the first FAST_PER_CLASS specs of every class).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import random
import sys
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
    else:
        raise ValueError(cls)
    return text, a, b


CLASSES = (
    "poly", "quartic", "trig", "ripple", "exp", "abs-cusp", "sqrt-abs", "ln",
    "end-root", "tan", "pole", "sign", "power", "complex-kink",
)


def specs():
    """(id, class, argv) for every spec, in a fixed order."""
    out = []
    for cls in CLASSES:
        rng = random.Random(f"corpus:{SEED}:{cls}")
        for i in range(PER_CLASS):
            text, a, b = _draw(cls, rng)
            argv = [
                "--function", text, f"--a={a!r}", f"--b={b!r}",
                "--stitch-gauge", str(rng.randint(10, 30)),
                "--row-gauge", str(rng.randint(10, 30)),
                f"--scale={round(rng.uniform(0.1, 1.5), 3)!r}",
                "--format", rng.choice(("text", "json", "svg")),
            ]
            if rng.random() < 0.35:
                argv.append("--no-extrema")
            out.append((f"{cls}-{i:02d}", cls, argv))
    return out


def fast_specs():
    return [s for s in specs() if int(s[0].rsplit("-", 1)[1]) < FAST_PER_CLASS]


def argv_digest(argv):
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()[:16]


def run_spec(argv):
    """(exit code, SHA-256 of stdout, stderr) of one in-process CLI run.

    An exception that escapes cli.run is recorded as exit 1 with its class
    and message, as the traceback's last line would show it.
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


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--record", metavar="REASON", help="re-record, for this stated bug fix")
    args = p.parse_args(argv)
    todo = specs()
    got = {sid: result_line(sid, cls, a, run_spec(a)) for sid, cls, a in todo}
    header, expected = read_expected() if EXPECTED.exists() else ([], {})
    changed, per_class, transitions = compare(expected, got)
    print(f"{len(got)} specs, {len(changed)} differ from {EXPECTED.name}")
    for key, n in sorted(per_class.items()):
        print(f"  class {key}: {n}")
    for key, n in sorted(transitions.items()):
        print(f"  exit {key}: {n}")
    if args.record:
        header = header or ["# id\tclass\targv digest\texit\tstdout sha256\tstderr"]
        classes = ", ".join(f"{k} {n}" for k, n in sorted(per_class.items()))
        exits = ", ".join(f"{k}: {n}" for k, n in sorted(transitions.items()))
        header.append(f"# {args.record}: {len(changed)} changed (by class: {classes}; by exit: {exits})")
        body = [got[sid] for sid, _, _ in specs()]
        EXPECTED.write_text("\n".join(header + body) + "\n", encoding="utf-8")
        return 0
    for sid in changed[:20]:
        print(f"  {sid}: expected {expected.get(sid)!r}\n  {' ' * len(sid)}  got      {got[sid]!r}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
