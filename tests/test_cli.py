import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicedlhd import (
    Design, ExperimentConfig, RngStream, SliceSizes, generate_sliced_lhd, levels_from_values,
    reduce_correlations, write_trace_csv,
)
from slicedlhd import cli, decorrelate
from slicedlhd.cli import _parse_design_file, main

from _goldens import COLUMN_NUMER_2_5_10


def run_cli(*argv):
    return main(list(argv))


def test_generate_validate_round_trip(tmp_path, capsys):
    out = tmp_path / "design.txt"
    assert run_cli("generate", "--sizes", "2,5,10", "--dim", "3",
                   "--seed", "7", "-o", str(out)) == 0
    text = out.read_text()
    assert text.startswith("# slicedlhd design")
    assert "# sizes: 2,5,10" in text
    assert "# slice rows: 1-2,3-7,8-17" in text
    assert run_cli("validate", str(out), "--sizes", "2,5,10") == 0
    captured = capsys.readouterr()
    assert "overall: all-pass" in captured.out


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    dim=st.integers(1, 5),
    seed=st.integers(0, 2**64),
    fmt=st.sampled_from(["levels", "values"]),
    decorrelate=st.booleans(),
    iterations=st.integers(1, 10),
)
@example(sizes=[1], dim=1, seed=0, fmt="levels", decorrelate=True, iterations=1)
@example(sizes=[2, 5, 10], dim=3, seed=7, fmt="values", decorrelate=True, iterations=10)
@example(sizes=[7, 1, 12, 5, 3, 9], dim=8, seed=18446744073709551621, fmt="values",
         decorrelate=True, iterations=10)
def test_generate_then_validate_round_trip_property(sizes, dim, seed, fmt, decorrelate, iterations):
    # generate writes what the library builds and validate passes it, in
    # either format; --decorrelate only where it is a valid request.
    decorrelate = decorrelate and dim >= 2 and sum(sizes) >= 2
    text = ",".join(map(str, sizes))
    argv = ["generate", "--sizes", text, "--dim", str(dim), "--seed", str(seed),
            "--format", fmt]
    if decorrelate:
        argv += ["--decorrelate", "--iterations", str(iterations)]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "design.txt")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run_cli(*argv, "-o", path) == 0
            assert run_cli("validate", path, "--sizes", text) == 0
        assert "overall: all-pass" in out.getvalue()
        parsed = _parse_design_file(path, SliceSizes(tuple(sizes)))
    design = generate_sliced_lhd(SliceSizes(tuple(sizes)), dim, RngStream(seed))
    if decorrelate:
        design, _ = reduce_correlations(design, iterations=iterations)
    assert np.array_equal(parsed.values, design.values)


def test_validate_exposes_wrong_slicing(tmp_path, capsys):
    out = tmp_path / "design.txt"
    run_cli("generate", "--sizes", "2,5,10", "--dim", "2", "--seed", "1",
            "-o", str(out))
    assert run_cli("validate", str(out), "--sizes", "5,2,10") == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_headerless_levels_file(tmp_path):
    # A bare column of odd numerators is accepted as levels format.
    path = tmp_path / "col.txt"
    path.write_text("\n".join(str(k) for k in COLUMN_NUMER_2_5_10) + "\n")
    assert run_cli("validate", str(path), "--sizes", "2,5,10") == 0


def test_values_format_round_trip(tmp_path):
    out = tmp_path / "vals.txt"
    assert run_cli("generate", "--sizes", "3,4", "--dim", "2", "--seed", "2",
                   "--format", "values", "-o", str(out)) == 0
    assert "# format: values" in out.read_text()
    assert run_cli("validate", str(out), "--sizes", "3,4") == 0


@pytest.mark.parametrize("fmt", ["levels", "values"])
def test_design_text_rows_equal_per_element_formatting(fmt):
    # Cells are formatted from tolist(): %d of a Python int and %r of a
    # Python float must give the bytes of str(int(v)) and repr(float(v)).
    # The values designs are jittered off the midpoints, so their reprs run
    # long; the one-run and one-column designs format one cell a row or one
    # row in all.
    for sizes, p in [((3, 7, 12), 4), ((1,), 1), ((2,), 1), ((1,), 3)]:
        design = generate_sliced_lhd(SliceSizes(sizes), p, RngStream(5))
        if fmt == "values":
            jitter = np.random.default_rng(2).uniform(-0.4, 0.4, design.values.shape)
            design = type(design)(design.values + jitter / design.n, design.sizes)
            want = [" ".join(repr(float(v)) for v in row) for row in design.values]
        else:
            levels = levels_from_values(design.values, design.n)
            want = [" ".join(str(int(v)) for v in row) for row in 2 * levels - 1]
        text = cli._design_text(design, 5, False, fmt)
        assert text.splitlines()[8:] == want
        assert text.endswith("\n") and text.count("\n") == 8 + design.n


def test_generate_decorrelate_with_trace(tmp_path):
    out = tmp_path / "design.txt"
    trace = tmp_path / "trace.csv"
    assert run_cli("generate", "--sizes", "6,7", "--dim", "3", "--seed", "4",
                   "--decorrelate", "-o", str(out),
                   "--trace-out", str(trace)) == 0
    assert "# decorrelated: yes" in out.read_text()
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iteration,whole,slice1,slice2"
    assert len(lines) == 12
    assert run_cli("validate", str(out), "--sizes", "6,7") == 0


@pytest.mark.parametrize("fmt", ["levels", "values"])
@pytest.mark.parametrize("sizes, p", [("6,7", 2), ("5,1,4", 2), ("1,9,1,12", 8), ("2,1", 8)])
def test_generate_decorrelate_writes_the_same_design_with_and_without_trace(tmp_path, fmt, sizes, p):
    # Without --trace-out the sweep measures no trace; the design file is
    # byte for byte the one written beside a trace. (5,1,4) at p = 2 holds
    # the exact residual tie that the two slope kernels order differently.
    argv = ["generate", "--sizes", sizes, "--dim", str(p), "--seed", "3",
            "--format", fmt, "--decorrelate"]
    traced, plain = tmp_path / "traced.txt", tmp_path / "plain.txt"
    assert run_cli(*argv, "-o", str(traced), "--trace-out", str(tmp_path / "t.csv")) == 0
    assert run_cli(*argv, "-o", str(plain)) == 0
    assert plain.read_bytes() == traced.read_bytes()


def test_generate_decorrelate_measures_no_trace_unless_asked(tmp_path, monkeypatch):
    # _rms is the trace's one measurement; the spy also sees the traced
    # run call it, so a renamed or bypassed _rms cannot pass unseen.
    calls = []
    rms = decorrelate._rms
    monkeypatch.setattr(decorrelate, "_rms", lambda m: calls.append(m) or rms(m))
    argv = ["generate", "--sizes", "2,5,10", "--dim", "3", "--decorrelate",
            "-o", str(tmp_path / "design.txt")]
    assert run_cli(*argv) == 0
    assert calls == []
    assert run_cli(*argv, "--trace-out", str(tmp_path / "t.csv")) == 0
    assert calls


def test_unwritable_trace_exits_3(tmp_path, capsys):
    # The design goes to stdout, then the trace path fails: one error line.
    target = tmp_path / "no-such-dir" / "t.csv"
    assert run_cli("generate", "--sizes", "2,5,10", "--dim", "3", "--decorrelate",
                   "--trace-out", str(target)) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("# slicedlhd design\n")
    assert captured.err == (f"error: cannot write {target}: "
                            f"[Errno 2] No such file or directory: '{target}'\n")


def test_empty_trace_path_exits_3(capsys):
    # An empty trace path is a path like any other, not "no trace": the
    # design is written, then the trace fails to write, as -o '' does.
    assert run_cli("generate", "--sizes", "2,5,10", "--dim", "3", "--decorrelate",
                   "--trace-out", "") == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("# slicedlhd design\n")
    assert captured.err == "error: cannot write : [Errno 21] Is a directory: '.'\n"


def test_trace_out_dash_prints_the_csv(tmp_path, capsys, monkeypatch):
    # "-" is stdout for the trace as for -o: the design goes to its file,
    # stdout holds exactly the CSV that write_trace_csv writes, and no file
    # named "-" is made.
    monkeypatch.chdir(tmp_path)
    assert run_cli("generate", "--sizes", "6,7", "--dim", "3", "--seed", "4",
                   "--decorrelate", "-o", "design.txt", "--trace-out", "-") == 0
    assert Path("design.txt").read_text().startswith("# slicedlhd design\n")
    assert not Path("-").exists()
    design = generate_sliced_lhd(SliceSizes((6, 7)), 3, RngStream(4))
    write_trace_csv(reduce_correlations(design, iterations=10)[1], "want.csv")
    captured = capsys.readouterr()
    assert captured.out == Path("want.csv").read_text()
    assert captured.err == ""


def test_trace_requires_decorrelate(tmp_path):
    assert run_cli("generate", "--sizes", "6,7", "--dim", "2",
                   "--trace-out", str(tmp_path / "t.csv")) == 2


def test_decorrelate_needs_two_runs(tmp_path, capsys):
    # A one-run design has nothing to correlate: a bad argument (exit 2),
    # not a validation failure (exit 1) or a traceback.
    out = tmp_path / "design.txt"
    assert run_cli("generate", "--sizes", "1", "--dim", "2", "--decorrelate",
                   "-o", str(out)) == 2
    assert capsys.readouterr().err == "error: --decorrelate needs at least two runs\n"
    assert not out.exists()
    assert run_cli("generate", "--sizes", "1", "--dim", "2", "-o", str(out)) == 0


def test_bad_arguments_exit_2(tmp_path, capsys):
    assert run_cli("generate", "--sizes", "0,5") == 2
    assert run_cli("generate", "--sizes", "abc") == 2
    assert run_cli("generate", "--sizes", "3,4", "--dim", "0") == 2
    assert run_cli("generate", "--sizes", "3,4", "--dim", "2",
                   "--decorrelate", "--iterations", "0") == 2
    assert run_cli("generate", "--sizes", "3,4", "--dim", "1",
                   "--decorrelate") == 2
    assert run_cli("nonsense") == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--dim", "0"], "--dim must be >= 1"),
        (["--iterations", "0", "--trace-out", "t.csv"], "--iterations must be >= 1"),
        (["--seed", "-1", "--dim", "1", "--decorrelate"], "--seed must be >= 0"),
        (["--trace-out", "t.csv"], "--trace-out requires --decorrelate"),
        (["--dim", "1", "--decorrelate"], "--decorrelate needs at least two dimensions"),
        (["--trace-out", ""], "--trace-out requires --decorrelate"),
    ],
)
def test_generate_argument_errors_exit_2_with_one_line(capsys, extra, message):
    # Each bad generate argument gives exit 2 and one line naming it; where
    # several are bad, the first of the checks above is reported.
    assert run_cli("generate", "--sizes", "3,4", *extra) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "env_seed, dim, message",
    [
        ("x", "0", "--dim must be >= 1"),
        ("-1", "0", "--dim must be >= 1"),
        ("x", "2", "SLICEDLHD_SEED must be an integer: 'x'"),
    ],
)
def test_env_seed_is_checked_at_the_seeds_place(capsys, monkeypatch, env_seed, dim, message):
    # A bad environment seed is reported at --seed's place in the checks,
    # so the first fault is the same wherever the seed came from.
    monkeypatch.setenv("SLICEDLHD_SEED", env_seed)
    assert run_cli("generate", "--sizes", "3,4", "--dim", dim) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("output", [[], ["-o", "-"]])
def test_trace_and_design_cannot_share_stdout(capsys, output):
    # The design and the trace CSV on one stream could not be read back:
    # exit 2 before either is written.
    assert run_cli("generate", "--sizes", "3,4", "--dim", "2", "--decorrelate",
                   *output, "--trace-out", "-") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --trace-out - needs -o FILE: the design goes to stdout\n"
    assert captured.out == ""


@pytest.mark.parametrize("trace", ["same.txt", "./same.txt", "link.txt", "hard.txt"])
def test_trace_and_design_cannot_share_a_file(tmp_path, monkeypatch, capsys, trace):
    # The trace CSV would overwrite the design: the same name, another
    # spelling of it, a symbolic link or a hard link to the design file is a
    # bad argument, and nothing is written.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.txt").symlink_to("same.txt")
    if trace == "hard.txt":
        (tmp_path / "same.txt").write_text("kept\n")
        (tmp_path / "hard.txt").hardlink_to("same.txt")
    assert run_cli("generate", "--sizes", "3,4", "--dim", "2", "--decorrelate",
                   "-o", "same.txt", "--trace-out", trace) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: -o and --trace-out name the same file: {trace}\n"
    assert captured.out == ""
    kept = trace == "hard.txt"
    assert (tmp_path / "same.txt").exists() == kept
    assert not kept or (tmp_path / "same.txt").read_text() == "kept\n"


def test_unparseable_design_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\nthree four\n")
    assert run_cli("validate", str(bad), "--sizes", "1,1") == 2
    short = tmp_path / "short.txt"
    short.write_text("1 3\n3 1\n")
    assert run_cli("validate", str(short), "--sizes", "2,5,10") == 2
    missing = tmp_path / "missing.txt"
    assert run_cli("validate", str(missing), "--sizes", "1,1") == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "token, value",
    [("1_0", 10.0), ("nan", np.nan), ("inf", np.inf), ("+3", 3.0), ("0x10", None)],
)
def test_design_file_tokens_read_as_float_reads_them(tmp_path, token, value):
    # Each token means what float() makes of it; one it rejects names its line.
    path = tmp_path / "design.txt"
    path.write_text(f"# format: values\n0.25 {token}\n0.75 0.5\n")
    if value is None:
        with pytest.raises(ValueError, match=f"^line 2: not numeric: '0.25 {token}'$"):
            _parse_design_file(str(path), SliceSizes((1, 1)))
    else:
        parsed = _parse_design_file(str(path), SliceSizes((1, 1)))
        assert np.array_equal(parsed.values, [[0.25, value], [0.75, 0.5]], equal_nan=True)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# format: values\n\n", "no data rows"),
        ("1 3\n3 one\n", "line 2: not numeric: '3 one'"),
        ("1 2 3\n4 5\n6 7 8 9\n", "rows have inconsistent widths"),
        ("1 2 3\nx\n4 5\n", "line 2: not numeric: 'x'"),
        ("1 3\n3 1\n", "design has 2 rows, sizes imply 3"),
        ("# format: grid\n1 3\n3 1\n5 5\n", "unknown format: 'grid'"),
        ("1 3 # note\n3 1\n5 5\n", "line 1: not numeric: '1 3 # note'"),
    ],
)
def test_design_file_errors_name_the_fault(tmp_path, text, message):
    path = tmp_path / "design.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _parse_design_file(str(path), SliceSizes((1, 2)))


def _read(path, sizes):
    # The parsed values, or the message of the error that refused the file.
    try:
        return _parse_design_file(str(path), SliceSizes(sizes)).values
    except ValueError as exc:
        return str(exc)


_LEVELS_1_2 = [[1 / 6, 0.5], [0.5, 1 / 6], [5 / 6, 5 / 6]]


@pytest.mark.parametrize(
    "data, sizes, want",
    [
        (b"1 3\n3 1 5\n5 5\n\f\n1 1\n3 x\n1 3\n", (1, 2), "line 7: not numeric: '3 x'"),
        (b"1 3\n3 1\n5 5\n1 3 5\n3 1 1\n", (2, 3), "rows have inconsistent widths"),
        (b"# format: levels\r\n1 3\r\n\r\n3 1\r\n", (1, 1), [[0.25, 0.75], [0.75, 0.25]]),
        (b"# format: values\r0.25 0.75\r0.75 0.25\r", (1, 1), [[0.25, 0.75], [0.75, 0.25]]),
        (b"1 3\f3 1\n\f5 5\f", (1, 2), _LEVELS_1_2),
        (b"0.25 0.75\n0.75 0.25\n# format: values\n", (1, 1), [[0.25, 0.75], [0.75, 0.25]]),
        (b"# format: levels\n1 3\n3 1\n5 5\n\n\n  \n\n", (1, 2), _LEVELS_1_2),
    ],
    ids=["non-numeric-after-ragged", "width-change-at-edge", "crlf", "cr", "formfeed",
         "format-after-data", "blank-tail"],
)
def test_design_file_read_in_pieces_reads_as_a_whole(tmp_path, monkeypatch, data, sizes, want):
    # Cut into pieces of a few characters, a file gives the design or the
    # message it gives in one piece: line numbers count across pieces, a
    # non-numeric line anywhere wins over unequal widths, and a format
    # header anywhere counts.
    path = tmp_path / "design.txt"
    path.write_bytes(data)
    for chunk in (cli._CHUNK, 1, 2, 3, 5, 8, 13):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        got = _read(path, sizes)
        if isinstance(want, str):
            assert got == want, chunk
        else:
            np.testing.assert_array_equal(got, want, err_msg=f"chunk={chunk}")


def _float_oracle(text, sizes):
    # Every data token converted with float(), line by line, read as the
    # file's format header says or, with none, as levels when every value is
    # an integer of at least 1: the values the reader should give, or its
    # message.
    rows = []
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                rows.append([float(tok) for tok in line.split()])
            except ValueError:
                return f"line {n}: not numeric: {line!r}"
    if len({len(row) for row in rows}) > 1:
        return "rows have inconsistent widths"
    if not rows:
        return "no data rows"
    arr = np.array(rows)
    header = re.match(r"# format: (\w+)\n", text)
    if header is None:
        levels = np.all(arr == np.rint(arr)) and np.all(arr >= 1)
    else:
        levels = header[1] == "levels"
    if levels:
        if not (np.all(np.isfinite(arr)) and np.all(arr == np.rint(arr))
                and np.all(arr % 2 == 1)):
            return "levels format expects odd integer numerators"
        arr = arr / (2.0 * sizes.n)
    try:
        return Design(arr, sizes).values
    except ValueError as exc:
        return str(exc)


# Odd numerators, mostly, and the spellings on which a conversion and float()
# could part: signs, -0, leading zeros, a 20-digit token, 2**53 + 1 (no float
# holds it), an underscore, an Arabic-Indic three, a decimal point.
_LEVEL_TOKENS = ["1", "3", "5", "7", "9", "11"] * 3 + [
    "+3", "-3", "-0", "007", "12345678901234567890", "9007199254740993", "1_0", "٣", "3.0",
]
# Overflow, nan and inf, bare points, hex, and "#" (a token, not a comment,
# after a line's first).
_VALUE_TOKENS = ["1e400", "nan", "-inf", ".5", "1.", "0x10", "#"]


@st.composite
def _design_texts(draw):
    # A levels, values or headerless file; in half of them a token may also
    # be a value token or the repr of any float. Rows of about one width,
    # tokens one space apart mostly, else a tab, two spaces, a no-break or
    # ideographic space, or a vertical tab (a line break to splitlines);
    # each line ends in \n, \r\n or a form feed.
    width = draw(st.integers(1, 4))
    text = draw(st.sampled_from(["# format: levels\n", "# format: values\n", ""]))
    token = st.sampled_from(_LEVEL_TOKENS)
    if draw(st.booleans()):
        token = st.sampled_from(_LEVEL_TOKENS + _VALUE_TOKENS) | st.floats().map(repr)
    for _ in range(draw(st.integers(0, 8))):
        w = draw(st.sampled_from([width] * 4 + [max(1, width - 1), width + 1]))
        tokens = draw(st.lists(token, min_size=w, max_size=w))
        for tok in tokens[:-1]:
            text += tok + draw(st.sampled_from([" "] * 6 + ["\t", "  ", "\xa0", "\u3000", "\v"]))
        text += tokens[-1] + draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\f"]))
    return text


@settings(max_examples=300, deadline=None)
@given(text=_design_texts())
@example(text="# format: levels\n1 3\n3 -\n")  # a lone sign
@example(text="# format: levels\n1 3\n- 3\n")  # a sign apart from its digits
@example(text="# format: levels\n1 3 5\n7  9\n")  # as many spaces, fewer tokens
@example(text="# format: levels\n1\t3 5\n7  9\n")  # a tab and a double space, even counts
def test_levels_file_integer_read_matches_float_read(text):
    # However it is spelled and cut into pieces, a levels, values or
    # headerless file gives the values, or the message, of float() on every
    # token.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "design.txt"
        path.write_bytes(text.encode())
        text = path.read_text()
        data_rows = sum(1 for line in text.splitlines() if line.strip()[:1] not in ("", "#"))
        sizes = SliceSizes((max(1, data_rows),))
        want = _float_oracle(text, sizes)
        for chunk in (1, 5, 13, cli._CHUNK):
            with mock.patch.object(cli, "_CHUNK", chunk):
                got = _read(path, sizes.sizes)
            if isinstance(want, str):
                assert got == want, chunk
            else:
                assert isinstance(got, np.ndarray), (chunk, got)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), chunk


@pytest.mark.parametrize(
    "header, bad",
    [("# format: levels\n", "inf"), ("# format: levels\n", "nan"),
     ("# format: levels\n", "1e300"), ("# format: levels\n", "-inf"),
     ("", "inf")],
    ids=["inf", "nan", "1e300", "-inf", "headerless-inf"],
)
def test_non_finite_or_huge_levels_exit_2_with_one_line(tmp_path, capsys, header, bad):
    # A header-less file holding inf reads as levels (inf == rint(inf)).
    # Either way the file fails with the one error line: no numpy cast
    # warning before it.
    path = tmp_path / "design.txt"
    path.write_text(f"{header}1 3\n3 1\n5 {bad}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("validate", str(path), "--sizes", "1,2") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: levels format expects odd integer numerators\n"
    assert captured.out == ""


def test_unwritable_output_exits_3(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "design.txt"
    assert run_cli("generate", "--sizes", "3,4", "--dim", "2",
                   "-o", str(target)) == 3
    capsys.readouterr()


def test_env_seed_default(tmp_path, monkeypatch):
    out_env = tmp_path / "env.txt"
    out_flag = tmp_path / "flag.txt"
    monkeypatch.setenv("SLICEDLHD_SEED", "123")
    assert run_cli("generate", "--sizes", "3,4", "--dim", "2",
                   "-o", str(out_env)) == 0
    assert "# seed: 123" in out_env.read_text()
    monkeypatch.delenv("SLICEDLHD_SEED")
    assert run_cli("generate", "--sizes", "3,4", "--dim", "2",
                   "--seed", "123", "-o", str(out_flag)) == 0
    assert out_env.read_text() == out_flag.read_text()
    monkeypatch.setenv("SLICEDLHD_SEED", "not-a-number")
    assert run_cli("generate", "--sizes", "3,4", "--dim", "2") == 2


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch):
    # main() reuses one parser. A --seed given in one call must not stay
    # for the next, which still reads SLICEDLHD_SEED.
    monkeypatch.setenv("SLICEDLHD_SEED", "123")
    flag, env = tmp_path / "flag.txt", tmp_path / "env.txt"
    assert run_cli("generate", "--sizes", "3,4", "--seed", "5", "-o", str(flag)) == 0
    assert run_cli("generate", "--sizes", "3,4", "-o", str(env)) == 0
    assert "# seed: 5\n" in flag.read_text()
    assert "# seed: 123\n" in env.read_text()
    assert cli._build_parser() is cli._build_parser()


_BENCH_CONFIG = {
    "integrand": "f2", "sizes": [9, 7, 6], "dim": 2,
    "methods": ["MLH"], "replicates": 5,
    "scenario": "all-complete", "seed": 11,
}


# Argument vectors for main: help, a missing or unknown command, an option
# before the command, extra arguments, abbreviations, --opt=value, "--",
# bad types and values, and the validate and bench errors. "design.txt" and
# "small.cfg" exist in the test's directory; "missing.cfg" does not.
_ARGV_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["-x"],
    ["nonsense"],
    ["gen", "--sizes", "3,4"],
    ["--", "generate", "--sizes", "3,4"],
    ["--seed", "3", "generate", "--sizes", "3,4"],
    ["generate"],
    ["generate", "-h"],
    ["generate", "--sizes", "3,4", "--help"],
    ["generate", "--sizes", "3,4", "--bogus"],
    ["generate", "--sizes", "3,4", "extra"],
    ["generate", "--sizes", "3,4", "--seed", "2", "--", "extra"],
    ["generate", "--sizes", "3,4", "--seed", "2", "--"],
    ["generate", "--", "--sizes", "3,4"],
    ["generate", "--sizes", "3,4", "--dec", "--iter", "2", "--se", "1"],
    ["generate", "--sizes=3,4", "--dim=3", "--seed=2", "--format=values"],
    ["generate", "--sizes", "3,4", "--d", "2"],
    ["generate", "--sizes", "3,4", "--dim", "x"],
    ["generate", "--sizes", "3,4", "--dim"],
    ["generate", "--sizes", "abc"],
    ["generate", "--sizes", "0,5"],
    ["generate", "--sizes", "3,4", "--format", "csv"],
    ["generate", "--sizes", "3,4", "--seed", "-1"],
    ["generate", "--sizes", "3,4", "--trace-out", "t.csv"],
    ["validate"],
    ["validate", "-h"],
    ["validate", "design.txt"],
    ["validate", "--sizes", "3,4"],
    ["validate", "design.txt", "design.txt", "--sizes", "3,4"],
    ["validate", "design.txt", "--sizes", "3,4", "--bogus"],
    ["validate", "design.txt", "--sizes", "4,3"],
    ["validate", "design.txt", "--sizes", "3,4"],
    ["validate", "--siz", "3,4", "design.txt"],
    ["validate", "missing.txt", "--sizes", "3,4"],
    ["bench"],
    ["bench", "-h"],
    ["bench", "small.cfg", "small.cfg"],
    ["bench", "small.cfg", "--output"],
    ["bench", "small.cfg", "--bogus"],
    ["bench", "missing.cfg"],
    ["bench", "small.cfg", "--out", "-"],
]


def _full_parse_main(argv) -> int:
    # main as it was before each command parsed its own arguments: every
    # argv through the full parser, which hands the command's part on.
    try:
        args = cli._build_parser()[0].parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return args.func(args)


@pytest.mark.parametrize("argv", _ARGV_CORPUS, ids=" ".join)
def test_main_reads_every_argv_as_the_full_parser_does(tmp_path, monkeypatch, capsys, argv):
    # Same exit code, stdout and stderr: argparse's usage lines and
    # messages, and the command's own output where the argv parses.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "small.cfg").write_text(json.dumps(_BENCH_CONFIG))
    assert run_cli("generate", "--sizes", "3,4", "--seed", "2", "-o", "design.txt") == 0
    capsys.readouterr()
    want_rc = _full_parse_main(argv)
    want = capsys.readouterr()
    assert main(argv) == want_rc
    assert capsys.readouterr() == want


@pytest.mark.parametrize("argv, rc", [
    (["generate", "--sizes", "3,4", "--seed", "2", "-o", "design.txt"], 0),
    (["generate", "--sizes=3,4", "--dec", "--iter", "2", "-o", "design.txt"], 0),
    (["validate", "design.txt", "--sizes", "3,4"], 0),
    (["bench", "missing.cfg"], 2),
])
def test_a_valid_command_argv_is_parsed_once(tmp_path, monkeypatch, argv, rc):
    # The command's own parser reads its arguments; the full parser, which
    # would scan the argv and then hand it on, is never asked.
    monkeypatch.chdir(tmp_path)
    assert run_cli("generate", "--sizes", "3,4", "-o", "design.txt") == 0
    parser, _ = cli._build_parser()

    def no_full_parse(*args, **kwargs):
        raise AssertionError("the full parser parsed a valid command argv")

    monkeypatch.setattr(parser, "parse_known_args", no_full_parse)
    assert main(argv) == rc


def test_main_reads_sys_argv_and_takes_a_tuple(monkeypatch, capsys):
    argv = ["generate", "--sizes", "3,4", "--dim", "3", "--seed", "9"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["slicedlhd", *argv])
    assert main() == 0
    assert capsys.readouterr().out == want
    assert main(tuple(argv)) == 0
    assert capsys.readouterr().out == want


def test_bench_rejects_replicates_past_the_stream_limit(tmp_path, capsys, monkeypatch):
    # More replicates than RngStream.generators can key is a bad config:
    # exit 2 and one line, before anything is drawn or allocated.
    def not_run(*args, **kwargs):
        raise AssertionError("run_experiment must not be called")

    monkeypatch.setattr(cli, "run_experiment", not_run)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(json.dumps({
        "integrand": "f2", "sizes": [9, 7, 6], "dim": 2,
        "methods": ["MLH"], "replicates": 2**32 + 1,
        "scenario": "all-complete", "seed": 20240817,
    }))
    assert run_cli("bench", str(cfg)) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: bad config: replicates must be <= 4294967296\n"
    assert captured.out == ""


def test_bench_smoke(tmp_path, capsys):
    cfg = {
        "integrand": "f2", "sizes": [9, 7, 6], "dim": 2,
        "methods": ["MLH", "SLH"], "replicates": 5,
        "scenario": "all-complete", "seed": 11,
    }
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(json.dumps(cfg))
    report_path = tmp_path / "report.json"
    assert run_cli("bench", str(cfg_path), "-o", str(report_path)) == 0
    out = capsys.readouterr().out
    assert "n/a" in out  # FSD column
    report = json.loads(report_path.read_text())
    assert set(report["rmse"]) == {"MLH", "SLH"}
    assert report["replicates"] == 5


def test_bench_report_to_stdout_follows_the_table(tmp_path, capsys, monkeypatch):
    # -o - prints the JSON report after the table, as generate -o - prints
    # its design; it writes no file named "-".
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(json.dumps(_BENCH_CONFIG))
    report_path = tmp_path / "report.json"
    assert run_cli("bench", str(cfg_path), "-o", str(report_path)) == 0
    table = capsys.readouterr().out
    assert run_cli("bench", str(cfg_path), "-o", "-") == 0
    captured = capsys.readouterr()
    assert captured.out == table + report_path.read_text()
    assert captured.err == ""
    assert not (tmp_path / "-").exists()


def test_bench_unwritable_report_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(json.dumps(_BENCH_CONFIG))
    target = tmp_path / "no-such-dir" / "report.json"
    assert run_cli("bench", str(cfg_path), "-o", str(target)) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1
    assert "true mean" in captured.out  # the table was printed before the write


def _output_argv(kind: str, path, tmp_path: Path) -> list[str]:
    """argv of a run that writes its `kind` of output to path."""
    if kind == "bench -o":
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(json.dumps(_BENCH_CONFIG))
        return ["bench", str(cfg_path), "-o", str(path)]
    argv = ["generate", "--sizes", "3,4", "--dim", "2", "--seed", "5"]
    if kind == "--trace-out":
        argv += ["--decorrelate", "-o", str(tmp_path / "design.txt")]
    return argv + [kind, str(path)]


_OUTPUT_KINDS = ["-o", "--trace-out", "bench -o"]


@pytest.mark.parametrize("kind", _OUTPUT_KINDS)
def test_a_shorter_output_over_a_longer_file_holds_a_fresh_write(tmp_path, capsys, kind):
    # An existing file is rewritten in place and cut to length: no byte of
    # the old, longer contents is left after the new ones.
    fresh, stale = tmp_path / "fresh.out", tmp_path / "stale.out"
    stale.write_text("9" * 100_000 + "\n")
    assert main(_output_argv(kind, fresh, tmp_path)) == 0
    assert main(_output_argv(kind, stale, tmp_path)) == 0
    assert stale.read_bytes() == fresh.read_bytes()
    assert 0 < len(fresh.read_bytes()) < 100_000
    assert capsys.readouterr().err == ""


def test_no_output_is_opened_with_o_trunc(tmp_path, capsys, monkeypatch):
    # Truncating a file to zero makes ext4 flush it on close: every output,
    # new or existing, is opened without O_TRUNC.
    paths = [tmp_path / f"out{i}" for i in range(len(_OUTPUT_KINDS))]
    paths[0].write_text("old")
    opened = {}
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        opened[os.fspath(path)] = flags
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    for kind, path in zip(_OUTPUT_KINDS, paths):
        assert main(_output_argv(kind, path, tmp_path)) == 0
    capsys.readouterr()
    assert {str(path) for path in paths} <= opened.keys()
    for path in paths:
        assert opened[str(path)] & os.O_TRUNC == 0
        assert path.stat().st_size > 0


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("kind", _OUTPUT_KINDS)
def test_output_to_dev_null_exits_0(tmp_path, capsys, kind):
    # A character device cannot be cut to length, and need not be.
    assert main(_output_argv(kind, "/dev/null", tmp_path)) == 0
    assert capsys.readouterr().err == ""


def test_output_through_a_hard_link_updates_both_names(tmp_path, capsys):
    fresh, name, link = tmp_path / "fresh.txt", tmp_path / "name.txt", tmp_path / "link.txt"
    name.write_text("9" * 10_000 + "\n")
    os.link(name, link)
    assert main(_output_argv("-o", fresh, tmp_path)) == 0
    assert main(_output_argv("-o", link, tmp_path)) == 0
    assert name.read_bytes() == link.read_bytes() == fresh.read_bytes()
    assert name.samefile(link)
    capsys.readouterr()


@pytest.mark.parametrize("where, reason", [
    ("no-such-dir/out", "[Errno 2] No such file or directory: '{path}'"),
    (".", "[Errno 21] Is a directory: '{path}'"),
    ("/dev/full", "[Errno 28] No space left on device"),
])
@pytest.mark.parametrize("kind", _OUTPUT_KINDS)
def test_unwritable_output_line_is_exact(tmp_path, capsys, kind, where, reason):
    # Every output kind reports an unwritable path in one line, byte for
    # byte the OSError that open() or the write gives, and exits 3. The
    # path is under tmp_path, tmp_path itself, or the absolute /dev/full.
    path = tmp_path / where
    if where == "/dev/full" and not path.exists():
        pytest.skip("no /dev/full")
    assert main(_output_argv(kind, path, tmp_path)) == 3
    assert capsys.readouterr().err == f"error: cannot write {path}: {reason.format(path=path)}\n"


def test_bench_rejects_bad_configs(tmp_path, capsys):
    fsd = tmp_path / "fsd.cfg"
    fsd.write_text(json.dumps({
        "integrand": "f2", "sizes": [9, 7, 6], "dim": 2,
        "methods": ["FSD"], "replicates": 5,
        "scenario": "all-complete", "seed": 11,
    }))
    assert run_cli("bench", str(fsd)) == 2
    assert "method unavailable" in capsys.readouterr().err
    garbled = tmp_path / "garbled.cfg"
    garbled.write_text("{not json")
    assert run_cli("bench", str(garbled)) == 2
    custom = tmp_path / "custom.cfg"
    custom.write_text(json.dumps({
        "integrand": "custom", "sizes": [3, 3], "dim": 2,
        "methods": ["MLH"], "replicates": 2,
        "scenario": "all-complete", "seed": 0,
    }))
    assert run_cli("bench", str(custom)) == 2
    assert run_cli("bench", str(tmp_path / "absent.cfg")) == 2
    capsys.readouterr()


def test_bench_rejects_an_f1_variant_off_f1(tmp_path, capsys):
    cfg = tmp_path / "variant.cfg"
    cfg.write_text(json.dumps({
        "integrand": "f2", "sizes": [9, 7, 6], "dim": 2,
        "methods": ["MLH"], "replicates": 5,
        "scenario": "all-complete", "seed": 11, "f1_variant": "x3",
    }))
    assert run_cli("bench", str(cfg)) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: bad config: f1_variant 'x3' applies only to integrand 'f1'\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "key, value, message",
    [
        pytest.param("replicates", 1.5, "replicates must be an integer, got 1.5",
                     id="replicates-1.5"),
        pytest.param("replicates", 10.0, "replicates must be an integer, got 10.0",
                     id="replicates-10.0"),
        pytest.param("sizes", [9, 7.9, 6], "slice sizes must be integers, got (9, 7.9, 6)",
                     id="sizes-value2"),
        pytest.param("seed", True, "seed must be an integer, got True", id="seed-True"),
        pytest.param("dim", False, "dim must be an integer, got False", id="dim-False"),
        pytest.param("methods", "MLH", "methods must be a list of method names, got 'MLH'",
                     id="methods-MLH"),
        pytest.param("colour", "blue", "unknown config key: 'colour'", id="colour-blue"),
    ],
)
def test_bench_rejects_loose_config_values(tmp_path, capsys, key, value, message):
    path = tmp_path / "loose.cfg"
    path.write_text(json.dumps({**_BENCH_CONFIG, key: value}))
    assert run_cli("bench", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bad config: {message}\n"
    assert captured.out == ""


# JSON values of every kind for the config table below: null, booleans,
# integers, floats integral or not, strings, and empty, flat, nested and
# mixed lists and objects.
_JSON_VALUES = [
    None, True, False, 0, 1, 2, -1, 2**33, 1.5, 2.0, 1e300, -1e300,
    "", "SLH", "f2", "all-complete", "one-slice-fails", "literal", "x3",
    [], [3, 2], [1.5], [True], [None], ["MLH"], ["MLH", "SLH"], [[3, 2]],
    [3, "2"], ["MLH", 1], {}, {"a": 1},
]
# The (key, JSON value) pairs of the table that make a valid config; the
# loose kinds (a bool or an integral float for an integer) are all rejected.
_ACCEPTED = {
    ("integrand", '"f2"'), ("sizes", "[3, 2]"), ("dim", "2"), ("methods", '["MLH"]'),
    ("methods", '["MLH", "SLH"]'), ("replicates", "1"), ("replicates", "2"),
    ("seed", "0"), ("seed", "1"), ("seed", "2"), ("seed", str(2**33)),
    ("scenario", '"all-complete"'), ("scenario", '"one-slice-fails"'),
    ("f1_variant", '"literal"'),
}
# What each key's error message must name.
_FIELD_NAMES = {"sizes": "size", "methods": "method", "f1_variant": "f1.variant"}


def _python_config(key, value) -> ExperimentConfig:
    """The config a Python caller builds with ``key`` set to ``value``."""
    kwargs = {**_BENCH_CONFIG, "sizes": SliceSizes((9, 7, 6)), key: value}
    if key == "sizes":
        kwargs["sizes"] = SliceSizes(value)
    return ExperimentConfig(**kwargs)


@pytest.mark.parametrize("key", [*_BENCH_CONFIG, "f1_variant"])
def test_config_table_one_validator_for_json_and_python(tmp_path, capsys, key):
    # One validator: for every JSON value of every key, from_json and a
    # Python-built config accept the same configs and reject the rest with
    # the same ValueError, which names the key; bench exits 2 with that
    # one line. No value reaches bench as a KeyError or a TypeError.
    path = tmp_path / "table.cfg"
    accepted = set()
    for value in _JSON_VALUES:
        path.write_text(json.dumps({**_BENCH_CONFIG, key: value}))
        try:
            expected = _python_config(key, value)
        except ValueError as exc:
            with pytest.raises(ValueError) as parsed:
                ExperimentConfig.from_path(path)
            assert str(parsed.value) == str(exc), value
            assert re.search(_FIELD_NAMES.get(key, key), str(exc)), (value, str(exc))
            assert run_cli("bench", str(path)) == 2, value
            captured = capsys.readouterr()
            assert captured.err == f"error: bad config: {exc}\n"
            assert captured.out == ""
        else:
            assert ExperimentConfig.from_path(path) == expected, value
            accepted.add((key, json.dumps(value)))
    assert accepted == {pair for pair in _ACCEPTED if pair[0] == key}
    # Every key but f1_variant is required.
    path.write_text(json.dumps({k: v for k, v in _BENCH_CONFIG.items() if k != key}))
    if key == "f1_variant":
        assert ExperimentConfig.from_path(path) == _python_config(key, "literal")
    else:
        assert run_cli("bench", str(path)) == 2
        assert capsys.readouterr().err == f"error: bad config: config missing key: {key}\n"


@pytest.mark.parametrize("methods", [[], ["CLH", "CLH"]])
def test_bench_rejects_empty_or_repeated_methods(tmp_path, capsys, methods):
    cfg = {
        "integrand": "f2", "sizes": [9, 7, 6], "dim": 2,
        "methods": methods, "replicates": 5,
        "scenario": "all-complete", "seed": 11,
    }
    path = tmp_path / "methods.cfg"
    path.write_text(json.dumps(cfg))
    assert run_cli("bench", str(path)) == 2
    captured = capsys.readouterr()
    assert "methods" in captured.err
    assert captured.out == ""


def test_negative_seeds_exit_2(tmp_path, capsys, monkeypatch):
    cfg = {
        "integrand": "f2", "sizes": [9, 7, 6], "dim": 2,
        "methods": ["MLH"], "replicates": 5,
        "scenario": "all-complete", "seed": -1,
    }
    path = tmp_path / "negative.cfg"
    path.write_text(json.dumps(cfg))
    assert run_cli("bench", str(path)) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert run_cli("generate", "--sizes", "3,4", "--dim", "2", "--seed", "-1") == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    # A negative seed from the environment names the variable, not a flag.
    monkeypatch.setenv("SLICEDLHD_SEED", "-5")
    assert run_cli("generate", "--sizes", "3,4", "--dim", "2") == 2
    assert capsys.readouterr().err == "error: SLICEDLHD_SEED must be >= 0\n"


def test_bundled_configs_parse(tmp_path):
    # The bundled configs drive the full-scale reference runs (the
    # acceptance suite re-asserts the cell values); here just pin their
    # shape and show a reduced-replicates copy runs end to end.
    from pathlib import Path
    from slicedlhd import ExperimentConfig

    root = Path(__file__).resolve().parents[1] / "configs"
    names = ["table1-f1.cfg", "table1-f1-failures.cfg",
             "table1-f2.cfg", "table1-f2-failures.cfg"]
    for name in names:
        cfg = ExperimentConfig.from_path(root / name)
        assert cfg.replicates == 10_000
        assert cfg.seed == 20240817
        assert set(cfg.methods) == {"RLH", "MLH", "CLH", "IMLH", "ICLH",
                                    "SLH", "CSLH"}
    f1 = ExperimentConfig.from_path(root / "table1-f1.cfg")
    assert f1.sizes == SliceSizes((17, 13, 11, 7))
    small = tmp_path / "small.cfg"
    small.write_text(json.dumps({
        "integrand": "f2", "sizes": [9, 7, 6], "dim": 2,
        "methods": ["SLH", "CSLH"], "replicates": 3,
        "scenario": "one-slice-fails", "seed": 20240817,
    }))
    assert run_cli("bench", str(small)) == 0


def test_console_script_entry_point(tmp_path):
    # The installed script wires to the same main().
    proc = subprocess.run(
        [sys.executable, "-m", "slicedlhd.cli", "generate",
         "--sizes", "2,3", "--dim", "2", "--seed", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# slicedlhd design")


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "generate" in capsys.readouterr().out
