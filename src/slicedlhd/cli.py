"""Command line front end.

Three subcommands:

  generate   build a sliced design and write it as text
  validate   check a design file for whole-grid and per-slice stratification
  bench      run a benchmark config and report per-method RMSE

Exit codes: 0 success (and, for validate, all checks passed); 1 validation
failure; 2 bad arguments, bad config, or unparseable input; 3 output path
not writable.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .benchmark import ExperimentConfig, render_table, run_experiment, write_trace_csv
from .core import Design, RngStream, SliceSizes, levels_from_values
from .decorrelate import _swept, reduce_correlations
from .generate import generate_sliced_lhd
from .validate import validate_sliced

__all__ = ["main"]

_ENV_SEED = "SLICEDLHD_SEED"

# Cells the design writer formats at a time, as Python objects: this bounds
# its temporaries whatever the design's size.
_CHUNK = 1 << 16


def _parse_sizes(text: str) -> SliceSizes:
    try:
        parts = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be comma-separated integers: {text!r}")
    try:
        return SliceSizes(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _default_seed() -> int:
    raw = os.environ.get(_ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{_ENV_SEED} must be an integer: {raw!r}")


def _design_text(design: Design, seed: int, decorrelated: bool, fmt: str) -> str:
    sizes = design.sizes
    lines = [
        "# slicedlhd design",
        f"# sizes: {','.join(str(s) for s in sizes.sizes)}",
        f"# n: {design.n}",
        f"# dim: {design.p}",
        f"# seed: {seed}",
        f"# decorrelated: {'yes' if decorrelated else 'no'}",
        f"# slice rows: {','.join(f'{rows.start + 1}-{rows.stop}' for rows in sizes.rows)}",
        f"# format: {fmt}",
    ]
    if fmt == "levels":
        # Store the odd numerators 2a-1 of the midpoints (2a-1)/(2n); exact.
        cells, spec = 2 * levels_from_values(design.values, design.n) - 1, "%d"
    else:
        cells, spec = design.values, "%r"
    # One format of each chunk of rows: tolist() yields Python ints and
    # floats, whose %d and %r are the bytes of str(int(v)) and repr(float(v)).
    row = " ".join([spec] * design.p)
    step = max(1, _CHUNK // design.p)
    for start in range(0, design.n, step):
        chunk = cells[start:start + step]
        lines.append("\n".join([row] * len(chunk)) % tuple(chunk.ravel().tolist()))
    return "\n".join(lines) + "\n"


def _write_text(path: str | None, text: str) -> int:
    if path is None or path == "-":
        sys.stdout.write(text)
        return 0
    try:
        Path(path).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_generate(args) -> int:
    sizes: SliceSizes = args.sizes
    if args.seed is None:
        try:
            args.seed = _default_seed()
        except argparse.ArgumentTypeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    # Every argument check of generate, in the order they are reported.
    checks = (
        (args.dim < 1, "--dim must be >= 1"),
        (args.iterations < 1, "--iterations must be >= 1"),
        (args.seed < 0, "--seed must be >= 0"),
        (args.trace_out and not args.decorrelate, "--trace-out requires --decorrelate"),
        (args.decorrelate and args.dim < 2, "--decorrelate needs at least two dimensions"),
        (args.decorrelate and sizes.n < 2, "--decorrelate needs at least two runs"),
    )
    for failed, message in checks:
        if failed:
            print(f"error: {message}", file=sys.stderr)
            return 2
    design = generate_sliced_lhd(sizes, args.dim, RngStream(args.seed))
    # The trace costs a correlation per slice and iteration: only measured
    # when it is written.
    if args.trace_out:
        design, trace = reduce_correlations(design, iterations=args.iterations)
    elif args.decorrelate:
        design = _swept(design, args.iterations)
    rc = _write_text(args.output, _design_text(design, args.seed, args.decorrelate, args.format))
    if rc != 0:
        return rc
    if args.trace_out:
        try:
            write_trace_csv(trace, args.trace_out)
        except OSError as exc:
            print(f"error: cannot write {args.trace_out}: {exc}", file=sys.stderr)
            return 3
    return 0


def _parse_design_file(path: str, sizes: SliceSizes) -> Design:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    fmt = None
    data: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.startswith("format:"):
                fmt = body.split(":", 1)[1].strip()
            continue
        data.append((lineno, stripped))
    if not data:
        raise ValueError("no data rows")
    try:
        # One conversion of every token, as float() reads each; it fails on a
        # non-numeric token or on rows of unequal widths, and the pass below
        # names which.
        arr = np.array([line.split() for _, line in data], dtype=np.float64)
    except ValueError:
        for lineno, line in data:
            try:
                [float(tok) for tok in line.split()]
            except ValueError:
                raise ValueError(f"line {lineno}: not numeric: {line!r}")
        raise ValueError("rows have inconsistent widths")
    if fmt is None:
        # No header: integer-looking content is levels-format numerators.
        fmt = "levels" if np.all(arr == np.rint(arr)) and np.all(arr >= 1) else "values"
    if fmt == "levels":
        # Checked in floats, finiteness first, so inf, nan and 1e300 fail
        # here without a cast; every float of magnitude 2**53 or more is
        # an even integer, so the float test is exact.
        if not (np.all(np.isfinite(arr)) and np.all(arr == np.rint(arr))
                and np.all(arr % 2 == 1)):
            raise ValueError("levels format expects odd integer numerators")
        values = arr / (2.0 * sizes.n)
    elif fmt == "values":
        values = arr
    else:
        raise ValueError(f"unknown format: {fmt!r}")
    return Design(values=values, sizes=sizes)


def _cmd_validate(args) -> int:
    try:
        design = _parse_design_file(args.input, args.sizes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = validate_sliced(design)
    print(report.render())
    return 0 if report.all_pass else 1


def _cmd_bench(args) -> int:
    try:
        config = ExperimentConfig.from_path(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2
    if config.integrand == "custom":
        print("error: custom integrands are library-only", file=sys.stderr)
        return 2
    report = run_experiment(config)
    print(render_table([report]))
    print(f"replicates: {report.replicates}   true mean: {report.true_mean!r}")
    if args.output:
        return _write_text(args.output, report.to_json() + "\n")
    return 0


# Built once per process: parse_args leaves the parser as it was.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicedlhd",
        description="Sliced Latin hypercube designs with unequal batch sizes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct a sliced design")
    gen.add_argument("--sizes", type=_parse_sizes, required=True,
                     help="comma-separated slice sizes, e.g. 2,5,10")
    gen.add_argument("--dim", type=int, default=2, help="number of columns")
    gen.add_argument("--seed", type=int, default=None,
                     help=f"RNG seed (default: ${_ENV_SEED} or 0)")
    gen.add_argument("--decorrelate", action="store_true",
                     help="run the correlation-reduction sweep")
    gen.add_argument("--iterations", type=int, default=10,
                     help="sweep iterations (default 10)")
    gen.add_argument("--format", choices=("levels", "values"), default="levels",
                     help="levels: exact odd numerators; values: floats")
    gen.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    gen.add_argument("--trace-out", default=None,
                     help="write the rho_rms sweep trace as CSV (needs --decorrelate)")
    gen.set_defaults(func=_cmd_generate)

    val = sub.add_parser("validate", help="check stratification of a design file")
    val.add_argument("input", help="design file produced by generate")
    val.add_argument("--sizes", type=_parse_sizes, required=True,
                     help="slice sizes the file claims to realize")
    val.set_defaults(func=_cmd_validate)

    ben = sub.add_parser("bench", help="run a benchmark config")
    ben.add_argument("config", help="JSON experiment config")
    ben.add_argument("-o", "--output", default=None, help="JSON report file (- for stdout)")
    ben.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
