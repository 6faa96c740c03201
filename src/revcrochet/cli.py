"""Command-line front end: six inputs in, a pattern out."""

from __future__ import annotations

import sys

from .calculus import PatternSpec, QuadratureError, build_plan
from .emit import render_json, render_pattern, render_svg
from .expression import MAX_DEPTH, parse
from .shaping import shape_rows

GRAMMAR_HELP = f"""\
expression grammar:
  infix notation in the variable x with + - * / ^ and parentheses;
  ^ is exponentiation (right-associative, binds tighter than unary minus);
  functions: sin cos tan exp ln sqrt abs sign, written like sin(x);
  constants: pi, e; numbers like 2, 0.18 (no exponent notation);
  multiplication must be explicit: write 2*x, not 2x;
  expressions nest at most {MAX_DEPTH} levels deep.

example:
  revcrochet --function "x^3 + 2*x^2 - 2*x + 4" --a -3 --b 1 \\
             --stitch-gauge 22 --row-gauge 25 --scale 0.18
"""


USAGE = """\
usage: revcrochet --function F --a A --b B --stitch-gauge N --row-gauge N --scale S
                  [--format text|json|svg] [--no-extrema] [--output PATH]

Generate a row-by-row crochet pattern for the surface obtained by revolving
f(x) about the x-axis over [a, b].
"""

# flag: (key of its value, conversion of the value or None for a switch,
# help text).  The keys are the attribute names of the argparse parser in
# tests/conftest.py, the oracle for this one.  A flag without a default is
# required.
_OPTIONS = {
    "--function": ("function", str, 'f(x), e.g. "x^2 + 1"'),
    "--a": ("a", float, "start of the interval, in units"),
    "--b": ("b", float, "end of the interval, in units"),
    "--stitch-gauge": ("stitch_gauge", int, "stitches per 4 inches of fabric"),
    "--row-gauge": ("row_gauge", int, "rows per 4 inches of fabric"),
    "--scale": ("scale", float, "inches per unit"),
    "--format": ("format", str, "output format (default: text)"),
    "--no-extrema": ("prioritize_extrema", None,
                     "space rows evenly over [a, b] instead of aligning rows to local extrema"),
    "--output": ("output", str, "write to this path instead of stdout"),
}
_DEFAULTS = {"format": "text", "prioritize_extrema": True, "output": None}
_FLAGS = (*_OPTIONS, "--help")


def _help() -> str:
    lines = [f"  {flag:<16}{text}" for flag, (_, _, text) in _OPTIONS.items()]
    lines.insert(0, f"  {'-h, --help':<16}show this help and exit")
    return f"{USAGE}\noptions:\n" + "\n".join(lines) + f"\n\n{GRAMMAR_HELP}"


def _is_negative_number(token: str) -> bool:
    # argparse's r"^-\d+$|^-\d*\.\d+$"; its $ also matches before a final newline
    whole, dot, frac = token[1:].removesuffix("\n").partition(".")
    return (whole.isdecimal() or bool(dot) and not whole) and (not dot or frac.isdecimal())


def _reading(token: str) -> tuple[str, str | None] | None:
    """How argparse read a token that comes before any "--".

    None for a value; else (flag, the value after "=" or None), where a
    unique prefix names its flag and flag "" is an unknown option.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token[1] == "-":
        name, eq, value = token.partition("=")
        found = [flag for flag in _FLAGS if flag.startswith(name)]
        if len(found) > 1:
            raise ValueError(f"ambiguous option: {name} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif token.startswith("-h"):
        # -hh is -h twice: argparse splits combined single-letter flags
        return "--help", token[2:].strip("h") or None
    if _is_negative_number(token) or " " in token:
        return None
    return "", None


def _parse_args(argv: list[str]) -> dict | None:
    """The options in argv, keyed as in _OPTIONS, or None for --help.

    argv is read as argparse read it: every token is classified first, so
    an ambiguous prefix anywhere fails, then options are taken left to
    right, so --help counts only if no option before it has failed.  A
    value that starts with "-" must be a negative number or hold a space.
    Raises ValueError with a one-line message.
    """
    cut = argv.index("--") if "--" in argv else len(argv)
    # "--" and all after it are stray: no positional arguments are taken
    readings = [_reading(t) for t in argv[:cut]] + [("", None)] * (len(argv) - cut)
    opts, stray, i = dict(_DEFAULTS), [], 0
    while i < len(argv):
        token, reading = argv[i], readings[i]
        i += 1
        if reading is None or not reading[0]:
            stray.append(token)
            continue
        flag, value = reading
        key, convert, _ = _OPTIONS.get(flag, (None, None, None))
        if convert is None:
            if value is not None:
                raise ValueError(f"argument {flag}: ignored explicit argument {value!r}")
            if key is None:  # --help
                return None
            opts[key] = False
            continue
        if value is None:
            if i == len(argv) or readings[i] is not None:
                raise ValueError(f"argument {flag}: expected one argument")
            value, i = argv[i], i + 1
        try:
            opts[key] = convert(value)
        except ValueError:
            kind = convert.__name__
            raise ValueError(f"argument {flag}: invalid {kind} value: {value!r}") from None
        if key == "format" and value not in ("text", "json", "svg"):
            raise ValueError(
                f"argument --format: invalid choice: {value!r} (choose from text, json, svg)"
            )
    missing = [flag for flag, opt in _OPTIONS.items() if opt[0] not in opts]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if stray:  # quoted, so that a token holding a newline keeps the message one line
        raise ValueError(f"unrecognized arguments: {' '.join(map(repr, stray))}")
    return opts


def run(argv: list[str] | None = None) -> int:
    """Run the pattern generator; returns the process exit code."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(_help())
            return 0
        func = parse(args["function"])
        spec = PatternSpec(
            func=func,
            a=args["a"],
            b=args["b"],
            stitch_gauge=args["stitch_gauge"],
            row_gauge=args["row_gauge"],
            scale=args["scale"],
            source=args["function"],
        )
        extrema = args["prioritize_extrema"]
        plan = build_plan(spec, prioritize_extrema=extrema)
        if args["format"] == "svg":
            out = render_svg(spec, plan)
        else:
            rows = shape_rows(spec, plan)
            doc = render_pattern(spec, plan, rows, prioritize_extrema=extrema)
            out = render_json(doc) if args["format"] == "json" else doc.to_text()
    # usage errors, ExpressionError and SpecValidationError are ValueErrors
    except (QuadratureError, ValueError) as exc:
        print(f"revcrochet: {exc}", file=sys.stderr)
        return 2

    path = args["output"]
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(out)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"revcrochet: cannot write {path}: {reason}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(out)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
