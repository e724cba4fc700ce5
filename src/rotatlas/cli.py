"""Command-line interface.

Exit codes: 0 on verified success, 1 on verification failure, an exhausted
budget or a failed march check (`MarchError`), 2 on usage errors, on a
word letter outside 64 bits (an `OverflowError`: words are packed) and on
an output that cannot be written (an `OSError`, such as ``--out`` below a
regular file, raised here or in a `sweep` worker).  A reader that closes
stdout early, as ``| head`` does, ends the command quietly: `main` lets the
`BrokenPipeError` through, and the console script `entrypoint` exits 141
(128 + SIGPIPE, as a shell reports a process that SIGPIPE ended) with
nothing on stderr.  The ROTATLAS_OUT environment variable supplies a
default ``--out`` directory for ``partition`` and ``sweep``; ``diagram
--out`` names an SVG file and has no default, so `diagram` prints its SVG
whatever ROTATLAS_OUT says.  Output is
deterministic; there is no randomness anywhere in the package.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from itertools import islice

from . import report
from .constraints import interval_for_cycle
from .dynamics import DEFAULT_ORBIT_CAP, ParamSpec, detect_cycle
from .intervals import parse_rational
from .partition import BudgetExceeded, MarchError, compute_atlas, sweep, verify_atlas
from .tail import tail_of

_SIDES = {"exact": "exact", "plus": "plus_zero", "minus": "minus_zero"}


class _Parser(argparse.ArgumentParser):
    # Option values here are often negative rationals (-3/4) or words
    # (-1,1,2,1,-1); treat such tokens as values, never as flags.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d[\d/,\-]*$")


def _parse_word(text: str) -> tuple[int, ...]:
    cleaned = text.strip().strip("()")
    try:
        return tuple(int(part) for part in cleaned.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer word: {text!r}")


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _lambda(text: str) -> Fraction:
    # checked here, so the range error echoes the text and formats no huge value
    lam = parse_rational(text)
    if not -2 <= lam <= 2:
        raise argparse.ArgumentTypeError(f"lambda must lie in [-2,2], got {text!r}")
    return lam


def _add_point_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a0", type=int, required=True, help="first initial value")
    parser.add_argument("--a1", type=int, required=True, help="second initial value")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rotatlas",
        description="Exact partition of the rotation-parameter interval (-2,2) "
        "into intervals of constant cycle for an integer initial pair.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_out = os.environ.get("ROTATLAS_OUT")

    p = sub.add_parser("orbit", help="iterate one orbit to first return")
    _add_point_args(p)
    p.add_argument("--lambda", dest="lam", type=_lambda, required=True,
                   help="rotation parameter n or p/q")
    p.add_argument("--side", choices=sorted(_SIDES), default="exact",
                   help="exact parameter or one-sided limit")
    p.add_argument("--cap", type=int, default=DEFAULT_ORBIT_CAP, help="step cap")

    p = sub.add_parser("cycle-interval", help="parameter interval of a cycle word")
    p.add_argument("--word", type=_parse_word, required=True,
                   help='cycle word "b0,b1,...,bn-1"')

    p = sub.add_parser("tail", help="label and tail windows of an initial pair")
    _add_point_args(p)
    p.add_argument("--k-max", type=int, default=None,
                   help="largest window index to display (default: first 5)")

    p = sub.add_parser("partition", help="compute, verify and print one atlas")
    _add_point_args(p)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
    fmt.add_argument("--table", dest="fmt", action="store_const", const="table")
    p.add_argument("--out", default=default_out, help="directory for the JSON atlas")

    p = sub.add_parser("sweep", help="compute and verify atlases over a grid")
    p.add_argument("--max-m", type=int, required=True,
                   help="verify all pairs with max(|a0|,|a1|) <= m")
    p.add_argument("--out", default=default_out,
                   help="directory for per-pair atlas JSON and the CSV summary")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="processes that march pairs, this one included")
    p.add_argument("--format", dest="fmt", choices=["table", "csv"], default="table")

    p = sub.add_parser("diagram", help="emit an SVG number line of one atlas")
    _add_point_args(p)
    p.add_argument("--out", default=None, help="output SVG path (default: stdout)")

    return parser


def _cmd_orbit(args) -> int:
    spec = ParamSpec(_SIDES[args.side], args.lam)
    result = detect_cycle(spec, (args.a0, args.a1), args.cap)
    print(f"outcome: {result.outcome}")
    if result.outcome == "cycle":
        print(f"period {len(result.cycle)}: ({report.word_text(result.cycle)})")
    print(f"steps used: {result.steps_used}")
    print(f"largest |a_n|: {result.max_abs}")
    # cycle and diverged are definitive verdicts; only a cap is inconclusive
    return 0 if result.outcome != "cap_exceeded" else 1


def _cmd_cycle_interval(args) -> int:
    ival = interval_for_cycle(args.word)
    print(str(ival) if ival is not None else "infeasible")
    return 0


def _cmd_tail(args) -> int:
    tail = tail_of(args.a0, args.a1)
    shown = 5  # windows; a constant tail has one, whatever --k-max says
    if tail.k_start is not None and args.k_max is not None:
        shown = args.k_max - tail.k_start + 1
        if shown < 1:
            raise ValueError(
                f"--k-max {args.k_max} is below the first window index {tail.k_start} "
                f"of ({args.a0},{args.a1})"
            )
    print(f"label: {tail.label}")
    print(f"tail interval: {tail.interval}")
    for window, word in islice(tail.windows(), shown):
        print(f"  {str(window):>22} -> ({report.word_text(word)})")
    return 0


def _cmd_partition(args) -> int:
    atlas = compute_atlas(args.a0, args.a1)
    verdict = verify_atlas(atlas)
    # streamed entry by entry: the text of a large atlas is never held whole
    if args.fmt == "json":
        sys.stdout.writelines(report.atlas_json_chunks(atlas))
    else:
        for line in report.atlas_table_lines(atlas):
            print(line)
    if args.out:
        path = report.write_atlas_json(atlas, args.out)
        print(f"wrote {path}", file=sys.stderr)
    if not verdict.ok:
        print(f"verification FAILED: {verdict.failure}", file=sys.stderr)
        return 1
    print("verification passed", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    rep = sweep(args.max_m, jobs=args.jobs, out_dir=args.out)
    print(report.render_tables(rep, args.fmt), end="")
    if args.out:
        csv_path = report.write_sweep_csv(rep, args.out)
        print(f"wrote {csv_path}", file=sys.stderr)
    if not rep.all_verified:
        for p in rep.failures():
            print(f"FAILED ({p.a0},{p.a1}): {p.failure}", file=sys.stderr)
        return 1
    print(f"periodicity verified for all points up to {args.max_m}")
    return 0


def _cmd_diagram(args) -> int:
    atlas = compute_atlas(args.a0, args.a1)
    verdict = verify_atlas(atlas)
    if not verdict.ok:
        print(f"verification FAILED: {verdict.failure}", file=sys.stderr)
        return 1
    svg = report.emit_diagram(atlas)
    if args.out:
        report._write_atomically(args.out, [svg])
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(svg, end="")
    return 0


_COMMANDS = {
    "orbit": _cmd_orbit,
    "cycle-interval": _cmd_cycle_interval,
    "tail": _cmd_tail,
    "partition": _cmd_partition,
    "sweep": _cmd_sweep,
    "diagram": _cmd_diagram,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 1
    except MarchError as exc:
        print(f"march error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        raise  # a closed stdout is no unwritable output; `entrypoint` ends quietly
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's final flush
    except BrokenPipeError:
        # fd 1 now discards, so the final flush of what is left buffered succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)


if __name__ == "__main__":
    entrypoint()
