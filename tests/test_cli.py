import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicedlhd import (
    ExperimentConfig, RngStream, SliceSizes, generate_sliced_lhd, levels_from_values,
    reduce_correlations,
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
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


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
    ],
)
def test_generate_argument_errors_exit_2_with_one_line(capsys, extra, message):
    # Each bad generate argument gives exit 2 and one line naming it; where
    # several are bad, the first of the checks above is reported.
    assert run_cli("generate", "--sizes", "3,4", *extra) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


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
    ],
)
def test_design_file_errors_name_the_fault(tmp_path, text, message):
    path = tmp_path / "design.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _parse_design_file(str(path), SliceSizes((1, 2)))


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
    monkeypatch.setenv("SLICEDLHD_SEED", "-5")
    assert run_cli("generate", "--sizes", "3,4", "--dim", "2") == 2
    assert "--seed must be >= 0" in capsys.readouterr().err


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
