"""Command line front end.

Three subcommands:

  generate   build a sliced design and write it as text
  validate   check a design file for whole-grid and per-slice stratification
  bench      run a benchmark config and report per-method RMSE

Exit codes: 0 success (and, for validate, all checks passed); 1 validation
failure; 2 bad arguments, bad config, or unparseable input; 3 output path
not writable.

generate formats a design, and validate converts a design file's text, a
bounded piece at a time, so neither holds a Python object per cell.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .benchmark import ExperimentConfig, _trace_csv, render_table, run_experiment
from .core import Design, RngStream, SliceSizes, levels_from_values
from .decorrelate import _swept, reduce_correlations
from .generate import generate_sliced_lhd
from .validate import validate_sliced

__all__ = ["main"]

_ENV_SEED = "SLICEDLHD_SEED"

# Cells the design writer formats at a time, and about the characters the
# reader converts at a time, as Python objects: this bounds their
# temporaries whatever the design's size.
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


def _keep_contents(path: Path, flags: int) -> int:
    """open()'s opener for "w" without O_TRUNC: see _write_text."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_text(path: str | None, text: str) -> int:
    # An existing file is rewritten in place and then cut to length: ext4
    # flushes a file truncated to zero when it is closed, a stall on every
    # rewrite. Only a regular file can be cut (not /dev/null or a pipe).
    if path is None or path == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(Path(path), "w", opener=_keep_contents) as out:
            out.write(text)
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate()
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 3
    return 0


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: the same path, a link or a hard link."""
    with contextlib.suppress(OSError):  # samefile needs both files to exist
        return os.path.realpath(a) == os.path.realpath(b) or os.path.samefile(a, b)
    return False


def _cmd_generate(args) -> int:
    sizes: SliceSizes = args.sizes
    # The seed: --seed, else the environment's, else 0; None if not an integer.
    seed_name, seed, raw = "--seed", args.seed, None
    if seed is None:
        seed_name, raw = _ENV_SEED, os.environ.get(_ENV_SEED, "0")
        with contextlib.suppress(ValueError):
            seed = int(raw)
    # Every argument check of generate, in the order they are reported.
    checks = (
        (args.dim < 1, "--dim must be >= 1"),
        (args.iterations < 1, "--iterations must be >= 1"),
        (seed is None, f"{_ENV_SEED} must be an integer: {raw!r}"),
        (seed is not None and seed < 0, f"{seed_name} must be >= 0"),
        (args.trace_out is not None and not args.decorrelate,
         "--trace-out requires --decorrelate"),
        (args.trace_out == "-" and args.output in (None, "-"),
         "--trace-out - needs -o FILE: the design goes to stdout"),
        (args.trace_out not in (None, "-") and args.output not in (None, "-")
         and _same_file(args.output, args.trace_out),
         f"-o and --trace-out name the same file: {args.trace_out}"),
        (args.decorrelate and args.dim < 2, "--decorrelate needs at least two dimensions"),
        (args.decorrelate and sizes.n < 2, "--decorrelate needs at least two runs"),
    )
    for failed, message in checks:
        if failed:
            print(f"error: {message}", file=sys.stderr)
            return 2
    design = generate_sliced_lhd(sizes, args.dim, RngStream(seed))
    # The trace costs a correlation per slice and iteration: only measured
    # when it is written.
    if args.trace_out is not None:
        design, trace = reduce_correlations(design, iterations=args.iterations)
    elif args.decorrelate:
        design = _swept(design, args.iterations)
    rc = _write_text(args.output, _design_text(design, seed, args.decorrelate, args.format))
    if rc == 0 and args.trace_out is not None:
        rc = _write_text(args.trace_out, _trace_csv(trace))
    return rc


def _parse_design_file(path: str, sizes: SliceSizes) -> Design:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    fmt = None
    blocks: list[np.ndarray] = []
    ragged = False
    lineno = 0
    # The text is converted a piece of about _CHUNK characters at a time, each
    # cut just after a "\n": read_text has made "\r\n" and "\r" one, so the
    # pieces' lines are the file's lines.
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _CHUNK) + 1 or len(text)
        numbers: list[int] = []
        lines: list[str] = []
        for line in text[start:stop].splitlines():
            lineno += 1
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                body = stripped.lstrip("#").strip()
                if body.startswith("format:"):
                    fmt = body.split(":", 1)[1].strip()
                continue
            numbers.append(lineno)
            lines.append(stripped)
        start = stop
        if not lines:
            continue
        try:
            # One conversion of the piece, to float()'s value of each token
            # ("#" is a token, not a comment). It fails on a token float()
            # refuses, on some it reads (1_0, ٣) and on rows of unequal
            # widths; float() then reads each line and names a non-numeric
            # one. Unequal widths are reported at the end, after any such line.
            block = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            rows = []
            for n, line in zip(numbers, lines):
                try:
                    rows.append([float(tok) for tok in line.split()])
                except ValueError:
                    raise ValueError(f"line {n}: not numeric: {line!r}")
            if len(set(map(len, rows))) > 1:
                ragged = True
                continue
            block = np.array(rows)
        ragged = ragged or bool(blocks) and block.shape[1] != blocks[0].shape[1]
        blocks.append(block)
    if ragged:
        raise ValueError("rows have inconsistent widths")
    if not blocks:
        raise ValueError("no data rows")
    arr = np.concatenate(blocks)
    del text, blocks  # freed before the levels division copies arr
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


# Built once per process: parse_args leaves the parsers as they were.
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each command's own parser by command name."""
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
                     help="rho_rms sweep trace CSV file, - for stdout (needs --decorrelate)")
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
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        # A known command's arguments go straight to its parser, which the
        # full parser would hand them to after a scan of its own. Anything
        # else, extra arguments too, takes the full parse, so argparse's
        # usage lines and messages are its own.
        args, extras = None, True
        if argv and argv[0] in commands:
            args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if extras:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
