"""Command-line front end: six inputs in, a pattern out."""

from __future__ import annotations

import argparse
import sys

from .calculus import PatternSpec, QuadratureError, SpecValidationError, build_plan
from .emit import render_json, render_pattern, render_svg
from .expression import MAX_DEPTH, EvalDomainError, ExpressionError, parse
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


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="revcrochet",
        description=(
            "Generate a row-by-row crochet pattern for the surface obtained by "
            "revolving f(x) about the x-axis over [a, b]."
        ),
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--function", required=True, help="f(x), e.g. \"x^2 + 1\"")
    p.add_argument("--a", required=True, type=float, help="start of the interval, in units")
    p.add_argument("--b", required=True, type=float, help="end of the interval, in units")
    p.add_argument(
        "--stitch-gauge", required=True, type=int, help="stitches per 4 inches of fabric"
    )
    p.add_argument("--row-gauge", required=True, type=int, help="rows per 4 inches of fabric")
    p.add_argument("--scale", required=True, type=float, help="inches per unit")
    p.add_argument(
        "--format",
        choices=("text", "json", "svg"),
        default="text",
        help="output format (default: text)",
    )
    p.add_argument(
        "--no-extrema",
        dest="prioritize_extrema",
        action="store_false",
        help="space rows evenly over [a, b] instead of aligning rows to local extrema",
    )
    p.add_argument("--output", default=None, help="write to this path instead of stdout")
    return p


def run(argv: list[str] | None = None) -> int:
    """Run the pattern generator; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        func = parse(args.function)
        spec = PatternSpec(
            func=func,
            a=args.a,
            b=args.b,
            stitch_gauge=args.stitch_gauge,
            row_gauge=args.row_gauge,
            scale=args.scale,
            source=args.function,
        )
        plan = build_plan(spec, prioritize_extrema=args.prioritize_extrema)
        try:
            if args.format == "svg":
                out = render_svg(spec, plan)
            else:
                rows = shape_rows(spec, plan)
                doc = render_pattern(
                    spec, plan, rows, prioritize_extrema=args.prioritize_extrema
                )
                out = render_json(doc) if args.format == "json" else doc.to_text()
        except EvalDomainError as exc:
            # Past build_plan, only f itself is evaluated (stitch counts and
            # the plot), at points validation's grid may not have sampled.
            raise SpecValidationError(f"f is {exc}") from exc
    except (ExpressionError, SpecValidationError, QuadratureError, ValueError) as exc:
        print(f"revcrochet: {exc}", file=sys.stderr)
        return 2

    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(out)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"revcrochet: cannot write {args.output}: {reason}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(out)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
