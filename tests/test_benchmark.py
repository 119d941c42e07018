import dataclasses
import itertools
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicedlhd import (
    ExperimentConfig,
    RngStream,
    SliceSizes,
    eval_f1,
    eval_f2,
    level_midpoints,
    reduce_correlations,
    render_table,
    run_experiment,
    true_mean_f1,
    true_mean_f2,
    write_trace_csv,
    generate_sliced_lhd,
    partition_levels,
)
from slicedlhd import benchmark, core
from slicedlhd.benchmark import RmseReport, method_estimates
from slicedlhd.generate import method_blocks

from _monte_carlo import mc_mean
from _quadrature import f2_quadrature


def _config(**overrides):
    base = dict(
        integrand="f2",
        sizes=SliceSizes((9, 7, 6)),
        dim=2,
        methods=("MLH", "SLH"),
        replicates=8,
        scenario="all-complete",
        seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_eval_f1_goldens():
    assert eval_f1(np.ones(5)) == 0.0
    x = np.array([math.exp(-1), 1, 1, 1, 1])
    assert np.isclose(eval_f1(x), -1.0)
    assert np.isclose(eval_f1(x, variant="x3"), -1.0)
    # The literal form squares the second coordinate and skips the third.
    y = np.array([1, 0.5, 1, 1, 1])
    assert np.isclose(eval_f1(y), math.log(0.25))
    assert np.isclose(eval_f1(y, variant="x3"), math.log(0.5))
    z = np.array([1, 1, 0.5, 1, 1])
    assert eval_f1(z) == 0.0
    assert np.isclose(eval_f1(z, variant="x3"), math.log(0.5))


def test_eval_f1_input_checks():
    with pytest.raises(ValueError):
        eval_f1(np.ones(4))
    with pytest.raises(ValueError):
        eval_f1(np.array([0.0, 1, 1, 1, 1]))
    with pytest.raises(ValueError):
        eval_f1(np.array([1, 1, 1, 1, 1.5]))
    with pytest.raises(ValueError):
        eval_f1(np.ones(5), variant="quadratic")


def test_eval_f2_goldens():
    assert np.isclose(eval_f2(np.ones(2)), math.log(2.0))
    assert np.isclose(eval_f2(np.array([0.25, 0.25])), math.log(4.0))
    batch = eval_f2(np.array([[1.0, 1.0], [0.25, 0.25]]))
    assert np.allclose(batch, [math.log(2.0), math.log(4.0)])
    with pytest.raises(ValueError):
        eval_f2(np.ones(3))
    with pytest.raises(ValueError):
        eval_f2(np.array([0.5, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("f, dim", [(eval_f1, 5), (eval_f2, 2)], ids=["f1", "f2"])
def test_integrands_reject_non_finite_points(f, dim, bad):
    x = np.full((3, dim), 0.5)
    x[1, 0] = bad
    with pytest.raises(ValueError, match=r"coordinates must lie in \(0, 1\]$"):
        f(x)


def test_true_means():
    assert true_mean_f1() == -5.0
    # The stored f2 mean is the quadrature's float, which agrees with the
    # closed form 5/4 and is mesh-stable.
    fine = f2_quadrature(1e-11)
    assert true_mean_f2() == fine
    assert abs(true_mean_f2() - 1.25) < 1e-9
    assert abs(f2_quadrature(1e-9) - fine) < 1e-8


def test_mc_mean_cross_checks():
    est, se = mc_mean(eval_f2, 2, points=200_000, seed=5)
    assert se < 0.01
    assert abs(est - 1.25) < 4 * se
    est1, se1 = mc_mean(lambda x: eval_f1(x, variant="x3"), 5,
                        points=200_000, seed=6)
    assert abs(est1 + 5.0) < 4 * se1


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(points=0), "^points must be >= 1$"),
        (dict(points=-5), "^points must be >= 1$"),
        (dict(points=2.5), "^points must be an integer, got 2.5$"),
        (dict(chunk=0), "^chunk must be >= 1$"),
        (dict(chunk=-1), "^chunk must be >= 1$"),
        (dict(chunk=1.5), "^chunk must be an integer, got 1.5$"),
    ],
)
def test_mc_mean_rejects_bad_points_and_chunk(kwargs, message):
    # Unchecked, chunk=0 loops forever, points=0 divides by zero and
    # points=-5 returns (-0.0, 0.0); each is an error naming its argument.
    with pytest.raises(ValueError, match=message):
        mc_mean(eval_f2, 2, **kwargs)


@pytest.mark.parametrize(
    "dim, message",
    [
        (2.5, "^dim must be an integer, got 2.5$"),
        (True, "^dim must be an integer, got True$"),
        (0, "^dim must be >= 1$"),
        (-2, "^dim must be >= 1$"),
    ],
)
def test_mc_mean_rejects_bad_dim(dim, message):
    # Unchecked, dim=2.5 fails inside numpy without naming dim, and dim=0
    # reaches the integrand, which reports its own coordinate count.
    with pytest.raises(ValueError, match=message):
        mc_mean(eval_f2, dim, points=10)


_NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import slicedlhd
from slicedlhd import cli
assert slicedlhd.true_mean_f2() == float.fromhex("0x1.4000000000131p+0")
for path in sys.argv[1:]:
    assert cli.main(["bench", path]) == 0, path
"""


def test_no_runtime_path_imports_scipy(tmp_path):
    # The library, its f2 mean and `slicedlhd bench` on f2 in both
    # scenarios run with scipy unimportable: numpy is the only runtime
    # dependency.
    paths = []
    for scenario in ("all-complete", "one-slice-fails"):
        path = tmp_path / f"{scenario}.cfg"
        path.write_text(_config(
            methods=("RLH", "MLH", "CLH", "IMLH", "ICLH", "SLH", "CSLH"),
            sizes=SliceSizes((3, 2)), replicates=4, scenario=scenario,
        ).to_json())
        paths.append(str(path))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, *paths],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("true mean: 1.2500000000000677") == 2, proc.stdout


def test_config_json_round_trip(tmp_path):
    cfg = _config(methods=("RLH", "CSLH"), scenario="one-slice-fails")
    path = tmp_path / "exp.cfg"
    path.write_text(cfg.to_json())
    back = ExperimentConfig.from_path(path)
    assert back == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        _config(integrand="f3")
    with pytest.raises(ValueError):
        _config(integrand="f1")  # dim stays 2, f1 needs 5
    with pytest.raises(ValueError):
        _config(dim=5)  # f2 needs 2
    with pytest.raises(ValueError, match="^dim must be >= 1$"):
        _config(integrand="custom", dim=0)  # custom takes the configured dim
    with pytest.raises(ValueError):
        _config(methods=("MLH", "FSD"))
    with pytest.raises(ValueError):
        _config(methods=("XLH",))
    with pytest.raises(ValueError):
        _config(replicates=0)
    with pytest.raises(ValueError):
        _config(scenario="two-slices-fail")
    with pytest.raises(ValueError):
        _config(sizes=SliceSizes((22,)), scenario="one-slice-fails")
    with pytest.raises(ValueError):
        ExperimentConfig.from_json('{"integrand": "f2"}')
    with pytest.raises(ValueError):
        ExperimentConfig.from_json('[1, 2]')


def test_config_rejects_sizes_that_are_not_slice_sizes():
    with pytest.raises(ValueError, match=r"^sizes must be a SliceSizes, got \(2, 3\)"):
        _config(sizes=(2, 3))


@pytest.mark.parametrize(
    "key, value",
    [("seed", 1.5), ("replicates", 2.5), ("replicates", True), ("dim", 2.0), ("seed", None)],
)
def test_config_rejects_loose_values_at_construction(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be an integer"):
        _config(**{key: value})


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="^seed must be >= 0"):
        _config(seed=-1)
    assert _config(seed=0).seed == 0


def test_config_rejects_more_replicates_than_streams():
    # RngStream.generators keys at most 2**32 replicate streams.
    assert _config(replicates=2**32).replicates == 2**32
    with pytest.raises(ValueError, match=r"^replicates must be <= 4294967296$"):
        _config(replicates=2**32 + 1)


def test_config_accepts_numpy_integers():
    cfg = _config(dim=np.int64(2), replicates=np.int32(3), seed=np.uint8(7))
    assert (cfg.dim, cfg.replicates, cfg.seed) == (2, 3, 7)
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize(
    "methods, message",
    [((), "^methods must name at least one method$"),
     (("CLH", "CLH"), "^methods names 'CLH' more than once$"),
     (("SLH", "MLH", "SLH", "MLH"), "^methods names 'MLH', 'SLH' more than once$")],
)
def test_config_rejects_empty_or_repeated_methods(methods, message):
    with pytest.raises(ValueError, match=message):
        _config(methods=methods)


@pytest.mark.parametrize("methods", ["SLH", 5, [["SLH"]], ("SLH", 1)])
def test_config_rejects_methods_that_are_not_a_list_of_names(methods):
    # A string was split into its letters ("unknown method: 'S'"), and 5 or
    # a nested list raised a bare TypeError.
    message = f"methods must be a list of method names, got {methods!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _config(methods=methods)


def test_fsd_is_recognized_but_unavailable():
    with pytest.raises(ValueError, match="method unavailable"):
        _config(methods=("FSD",))


def test_report_round_trip_and_table():
    report = run_experiment(_config())
    back = RmseReport.from_json(report.to_json())
    assert back == report
    assert back.to_json() == report.to_json()
    table = render_table([report])
    assert "n/a" in table  # FSD column is always marked unavailable
    assert "MLH" in table and "SLH" in table
    parsed = json.loads(report.to_json())
    assert parsed["true_mean"] == report.true_mean
    assert set(parsed["rmse"]) == {"MLH", "SLH"}


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "report must be a JSON object"),
        ('{"sizes": 5}', "report missing key: integrand"),
        ('{"integrand": "f2"}', "report missing key: scenario"),
        ('{"integrand": "f2", "colour": 1}', "unknown report key: 'colour'"),
    ],
)
def test_report_from_json_names_the_bad_field(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RmseReport.from_json(text)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("sizes", 5, "slice sizes must be a tuple, a list or a 1-D integer array, got 5"),
        ("sizes", [3, 0], "slice sizes must be positive, got (3, 0)"),
        ("replicates", 1.5, "replicates must be an integer, got 1.5"),
        ("rmse", [0.1], "rmse must map method names to numbers, got [0.1]"),
        ("scenario", "nope", "unknown scenario: 'nope'"),
        ("replicates", -3, "replicates must be >= 1"),
        ("integrand", 7, "unknown integrand: 7"),
        ("f1_variant", "x3", "f1_variant 'x3' applies only to integrand 'f1'"),
        ("rmse", {"BOGUS": 0.1}, "unknown method: 'BOGUS'"),
        ("rmse", {"SLH": "x"}, "rmse of SLH must be a finite number, got 'x'"),
        ("rmse", {"SLH": True}, "rmse of SLH must be a finite number, got True"),
        ("rmse", {"SLH": None}, "rmse of SLH must be a finite number, got None"),
        ("rmse", {"MLH": 0.1, "SLH": -0.5}, "rmse of SLH must be >= 0, got -0.5"),
        ("true_mean", "abc", "true_mean must be a finite number, got 'abc'"),
        ("true_mean", False, "true_mean must be a finite number, got False"),
        ("true_mean", [1.0], "true_mean must be a finite number, got [1.0]"),
        ("rmse", {"MLH": float("nan")}, "rmse of MLH must be a finite number, got nan"),
        ("rmse", {"MLH": float("inf")}, "rmse of MLH must be a finite number, got inf"),
    ],
)
def test_report_from_json_checks_each_value(key, value, message):
    # The fields a report shares with its config (the rmse keys read as
    # method names) get the config's own messages. Each rmse value must be
    # a finite number >= 0, and the true mean a finite number.
    raw = json.loads(run_experiment(_config(replicates=2)).to_json())
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RmseReport.from_json(json.dumps({**raw, key: value}))


def test_custom_report_is_checked_as_a_custom_config():
    cfg = _config(integrand="custom", dim=3, methods=("SLH",), replicates=2)
    report = run_experiment(cfg, custom_integrand=lambda v: v.sum(axis=2),
                            custom_true_mean=1.5)
    assert RmseReport.from_json(report.to_json()) == report


def test_run_experiment_is_deterministic():
    a = run_experiment(_config(scenario="one-slice-fails", methods=("RLH", "CSLH")))
    b = run_experiment(_config(scenario="one-slice-fails", methods=("RLH", "CSLH")))
    assert a.rmse == b.rmse


_ALL_METHODS = ("RLH", "MLH", "CLH", "IMLH", "ICLH", "SLH", "CSLH")
_SCENARIOS = ("all-complete", "one-slice-fails")


def test_replicate_streams_are_prefix_stable():
    # Replicate r draws from its own stream, so extending the run must not
    # change earlier replicates, for any method's design, failure and
    # assignment streams.
    for method in _ALL_METHODS:
        for scenario in _SCENARIOS:
            short = method_estimates(method, _config(replicates=20, scenario=scenario))
            long = method_estimates(method, _config(replicates=60, scenario=scenario))
            assert np.array_equal(short, long[:20]), (method, scenario)


@pytest.mark.parametrize("scenario", _SCENARIOS)
@pytest.mark.parametrize("method", _ALL_METHODS)
def test_batched_streams_match_per_replicate_streams(monkeypatch, method, scenario):
    # The batched stream builder must draw what one SeedSequence + Philox
    # per (method, replicate, role) draws, through every method's path.
    cfg = _config(replicates=45, scenario=scenario)
    batched = method_estimates(method, cfg)

    def per_replicate(stream, *components):
        # Any row-major product of fixed and ranged components, one stream
        # at a time.
        axes = [c if isinstance(c, range) else (c,) for c in components]
        return (stream.split(*path).generator() for path in itertools.product(*axes))

    monkeypatch.setattr(RngStream, "generators", per_replicate)
    assert np.array_equal(batched, method_estimates(method, cfg))


def _reference_designs(method, cfg):
    # The benchmark's draw as one numpy call per (replicate, block, column):
    # RLH's column l is (permutation(n) + 1 - random(n)) / n, every other
    # method shuffles each block's midpoints column by column.
    code, grid, _ = benchmark._METHODS[method]
    n, p = cfg.sizes.n, cfg.dim
    blocks = method_blocks(grid, cfg.sizes)
    out = np.empty((cfg.replicates, n, p))
    for rows, mids in blocks:
        out[:, rows, :] = mids[:, None]
    reps = range(cfg.replicates)
    for r, gen in enumerate(RngStream(cfg.seed).generators(code, reps, benchmark._ROLE_DESIGN)):
        if method == "RLH":
            for l in range(p):
                perm = gen.permutation(n) + 1
                out[r, :, l] = (perm - gen.random(n)) / n
        else:
            for rows, _ in blocks:
                for l in range(p):
                    gen.shuffle(out[r, rows, l])
    return out


# Block sizes 2^k + 1 make numpy's masked bounded draw reject most often.
_BLOCK_SIZE = st.one_of(
    st.sampled_from((1, 2)),
    st.integers(1, 5).map(lambda k: 2**k),
    st.integers(1, 5).map(lambda k: 2**k + 1),
)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(_BLOCK_SIZE, min_size=1, max_size=4),
    p=st.integers(1, 8),
    R=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=[16, 1], p=8, R=40, seed=0)
@example(sizes=[1], p=1, R=1, seed=0)
def test_batch_designs_match_per_column_draws(sizes, p, R, seed):
    # One permuted call per block and RLH's in-place draw take exactly the
    # numbers, in exactly the order, of one call per column.
    cfg = _config(integrand="custom", sizes=SliceSizes(tuple(sizes)), dim=p,
                  replicates=R, seed=seed)
    for method in _ALL_METHODS:
        grid = benchmark._METHODS[method][1]
        got, _, _ = benchmark._draws(method, cfg, method_blocks(grid, cfg.sizes), range(R))
        assert np.array_equal(got, _reference_designs(method, cfg)), method


@pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 16, 17, 33, 64, 65, 70])
@pytest.mark.parametrize("p", [1, 2, 5, 9])
def test_permuted_along_rows_is_a_shuffle_per_column(m, p):
    # numpy's RNG algorithms may change between versions (NEP 19). The
    # benchmark's pinned draws rely on Generator.permuted(slab, axis=0,
    # out=slab) running shuffle's Fisher-Yates on each column in column
    # order, leaving the stream where those shuffles leave it.
    one = RngStream(m).split(p).generator()
    per_column = RngStream(m).split(p).generator()
    # A block of rows of one replicate, as _draws permutes it.
    batch = np.arange(3 * (m + 4) * p, dtype=np.float64).reshape(3, m + 4, p)
    slab = batch[1, 2:m + 2]
    want = slab.copy()
    one.permuted(slab, axis=0, out=slab)
    for l in range(p):
        per_column.shuffle(want[:, l])
    assert np.array_equal(slab, want)
    assert one.integers(2**63) == per_column.integers(2**63)


@pytest.mark.parametrize("n", [1, 2, 17, 33, 48])
def test_shuffled_levels_and_jitter_buffer_draw_as_permutation_and_random(n):
    # RLH's draw relies on the same equivalences: shuffling the levels
    # 1..n in place is permutation(n) + 1, and random(out=buf) is random(n).
    inplace = RngStream(n).generator()
    fresh = RngStream(n).generator()
    levels = np.arange(1.0, n + 1)
    buf = np.empty(n)
    inplace.shuffle(levels)
    inplace.random(out=buf)
    assert np.array_equal(levels, fresh.permutation(n) + 1)
    assert np.array_equal(buf, fresh.random(n))
    assert inplace.integers(2**63) == fresh.integers(2**63)


def _reference_estimates(method, cfg, F):
    # The failure step with the full-grid assignment as one gathered
    # permutation(n) per replicate; F is only read.
    R, n = F.shape
    if cfg.scenario == "all-complete":
        return F.mean(axis=1)
    code, grid, _ = benchmark._METHODS[method]
    sizes = np.asarray(cfg.sizes.sizes)
    rows, t = cfg.sizes.rows, cfg.sizes.t
    failure = RngStream(cfg.seed).generators(code, range(R), benchmark._ROLE_FAILURE)
    fail = np.fromiter((gen.integers(t) for gen in failure), dtype=np.int64, count=R)
    totals = F.sum(axis=1)
    if grid != "full":
        block_sums = np.stack([F[:, block].sum(axis=1) for block in rows], axis=1)
        dropped = block_sums[np.arange(R), fail]
    else:
        dropped = np.empty(R)
        assignment = RngStream(cfg.seed).generators(code, range(R), benchmark._ROLE_ASSIGNMENT)
        for r, gen in enumerate(assignment):
            perm = gen.permutation(n)
            j = fail[r]
            dropped[r] = F[r, perm[rows[j]]].sum()
    kept = n - sizes[fail]
    return (totals - dropped) / kept


def _mixed_integrand(exponent_step, layout):
    # Signed values of magnitude 1e-3..1e3 that vary with the design, so a
    # changed summation order or a wrong row moves the last bits; returned
    # C-ordered, Fortran-ordered or as a strided view.
    def integrand(V):
        R, n, _ = V.shape
        scale = 10.0 ** ((np.arange(n) * exponent_step) % 7 - 3)
        F = np.sin(13.0 * V).sum(axis=-1) * scale
        if layout == "fortran":
            return np.asfortranarray(F)
        if layout == "strided":
            return np.repeat(F, 2, axis=1)[:, ::2]
        return F
    return integrand


# numpy's pairwise sum switches at 8 and unrolls blocks of 128 values.
_GROUP_SIZE = st.one_of(
    st.sampled_from((1, 2, 7, 8, 9, 127, 128, 129)),
    st.integers(1, 40),
)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(_GROUP_SIZE, min_size=1, max_size=4),
    p=st.integers(1, 3),
    R=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    exponent_step=st.integers(1, 6),
    layout=st.sampled_from(("c", "fortran", "strided")),
)
@example(sizes=[129, 8], p=2, R=3, seed=0, exponent_step=3, layout="fortran")
@example(sizes=[7, 8, 9, 127, 128, 129], p=1, R=40, seed=5, exponent_step=1, layout="c")
@example(sizes=[1], p=1, R=1, seed=0, exponent_step=1, layout="c")
def test_failure_step_matches_gathered_assignment(sizes, p, R, seed, exponent_step, layout):
    # Gathering a full-grid replicate's values by its shuffled assignment
    # row and dropping a contiguous group gives exactly the estimate of
    # gathering the group through permutation(n) of a stream keyed on its
    # own, for every method. The oracle reads a C-ordered copy of the values
    # the integrand returned on the designs it was handed.
    integrand = _mixed_integrand(exponent_step, layout)
    base = _config(integrand="custom", sizes=SliceSizes(tuple(sizes)), dim=p,
                   replicates=R, seed=seed)
    scenarios = _SCENARIOS if len(sizes) > 1 else ("all-complete",)
    for method in _ALL_METHODS:
        for scenario in scenarios:
            cfg = dataclasses.replace(base, scenario=scenario)
            seen = []

            def spy(V):
                seen.append(np.array(integrand(V), order="C"))
                return integrand(V)

            got = method_estimates(method, cfg, spy)
            want = _reference_estimates(method, cfg, np.concatenate(seen))
            assert np.array_equal(got, want), (method, scenario)


def test_failure_step_over_several_chunks_matches_per_role_streams(monkeypatch):
    # A chunk keys its design, failure and assignment streams in one call;
    # over 3 chunks of 4 replicates and one of 2, every method's estimates
    # must equal the oracle's, which keys each role of all 14 replicates on
    # its own.
    integrand = _mixed_integrand(3, "c")
    cfg = _config(integrand="custom", sizes=SliceSizes((9, 7, 4)), dim=2,
                  replicates=14, scenario="one-slice-fails", seed=11)
    monkeypatch.setattr(benchmark, "_BUDGET", 4 * cfg.sizes.n * cfg.dim)
    for method in _ALL_METHODS:
        seen = []

        def spy(V):
            seen.append(np.array(integrand(V), order="C"))
            return integrand(V)

        got = method_estimates(method, cfg, spy)
        assert [len(F) for F in seen] == [4, 4, 4, 2], method
        assert np.array_equal(got, _reference_estimates(method, cfg, np.concatenate(seen))), method


@pytest.mark.parametrize("sizes", [(9, 7, 4), (129, 8), (100, 100, 100)])
def test_custom_estimates_do_not_depend_on_the_result_layout(sizes):
    # numpy sums the rows of a Fortran-ordered array one value after
    # another and those of a C-ordered one pairwise, which can differ in
    # the last bits. The same values returned C-ordered, Fortran-ordered or
    # as a strided view must give the same estimates, bit for bit.
    base = _config(integrand="custom", sizes=SliceSizes(sizes), dim=2, replicates=5, seed=4)
    for method in _ALL_METHODS:
        for scenario in _SCENARIOS:
            cfg = dataclasses.replace(base, scenario=scenario)
            c, fortran, strided = (
                method_estimates(method, cfg, _mixed_integrand(3, layout))
                for layout in ("c", "fortran", "strided")
            )
            assert np.array_equal(fortran, c), (method, scenario)
            assert np.array_equal(strided, c), (method, scenario)


@pytest.mark.parametrize("integrand, dim", [("f1", 5), ("f2", 2), ("custom", 3)])
def test_estimates_do_not_depend_on_the_chunk(monkeypatch, integrand, dim):
    # method_estimates draws, sweeps, evaluates and estimates one chunk of
    # replicates at a time, and every reduction runs along one replicate's
    # row. So R below, at and above a small chunk (a patched value budget),
    # and over two chunks, must give the one-chunk estimates bit for bit. A
    # custom integrand is called once per chunk, on that chunk's designs.
    chunk = 3
    sizes = SliceSizes((9, 7, 4))
    budget = chunk * sizes.n * dim + sizes.n * dim - 1  # just short of chunk + 1
    custom = _mixed_integrand(3, "c") if integrand == "custom" else None
    for R in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        base = _config(integrand=integrand, sizes=sizes, dim=dim, replicates=R)
        for method in _ALL_METHODS:
            for scenario in _SCENARIOS:
                cfg = dataclasses.replace(base, scenario=scenario)
                whole = method_estimates(method, cfg, custom)
                shapes = []

                def spy(V):
                    shapes.append(V.shape)
                    return custom(V)

                with monkeypatch.context() as patched:
                    patched.setattr(benchmark, "_BUDGET", budget)
                    chunked = method_estimates(method, cfg, spy if custom else None)
                assert np.array_equal(chunked, whole), (R, method, scenario)
                if custom:
                    want = [(min(chunk, R - first), sizes.n, dim) for first in range(0, R, chunk)]
                    assert shapes == want, (R, method, scenario)


@pytest.mark.parametrize(
    "sizes, p, R",
    [((48,), 5, 1024), ((257,), 8, 70), ((12, 12, 12, 12), 5, 1024),
     ((2, 9, 1), 2, 40), ((5000,), 20, 3), ((1, 1), 3, 7), ((9, 7, 6), 2, 1500)],
)
def test_chunks_tile_the_replicates_within_the_value_budget(monkeypatch, sizes, p, R):
    # method_estimates draws consecutive chunks that cover the R replicates
    # once, in order. A chunk holds at most _BUDGET values, unless one
    # replicate alone holds more, and at most _MAX_CHUNK replicates; every
    # chunk but the last would pass one of the two with one replicate more.
    # The last shape is capped at _MAX_CHUNK (1,024 + 476). Estimate r is
    # the mean of x1 * x2 over replicate r's design, so a chunk written to
    # the wrong replicates shows.
    cfg = _config(integrand="custom", sizes=SliceSizes(sizes), dim=p, methods=("MLH",),
                  replicates=R)
    row_values = cfg.sizes.n * p
    chunks = []
    draw = benchmark._draws

    def spy(method, cfg, blocks, reps):
        chunks.append(reps)
        return draw(method, cfg, blocks, reps)

    monkeypatch.setattr(benchmark, "_draws", spy)
    est = method_estimates("MLH", cfg, lambda V: V[:, :, 0] * V[:, :, 1])
    V, _, _ = draw("MLH", cfg, method_blocks("full", cfg.sizes), range(R))
    assert np.array_equal(est, (V[:, :, 0] * V[:, :, 1]).mean(axis=1))
    assert [r for reps in chunks for r in reps] == list(range(R))
    sizes = [len(reps) for reps in chunks]
    for m in sizes:
        assert m <= benchmark._MAX_CHUNK
        assert m == 1 or m * row_values <= benchmark._BUDGET
    for m in sizes[:-1]:
        assert m == benchmark._MAX_CHUNK or (m + 1) * row_values > benchmark._BUDGET


@pytest.mark.parametrize("method", ["RLH", "CLH"])
def test_method_estimates_memory_is_bounded_by_one_chunk(method):
    # Only the (R,) estimates grow with R: each chunk keys its own streams,
    # so at eight chunks the peak may pass the one-chunk peak by at most
    # one chunk's designs and 8 bytes a replicate. Holding the whole batch,
    # or keys for more replicates than the chunk, would pass it. CLH sweeps
    # and gathers its rows into computer groups, RLH has the largest draw.
    cfg = ExperimentConfig.from_path(_CONFIGS / "table1-f1-failures.cfg")
    chunk = benchmark._BUDGET // (cfg.sizes.n * cfg.dim)
    assert chunk == 273

    def peak(R):
        tracemalloc.start()
        try:
            method_estimates(method, dataclasses.replace(cfg, methods=(method,), replicates=R))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # warm any lazy state outside the measured calls
    one_chunk_designs = chunk * cfg.sizes.n * cfg.dim * 8
    assert peak(8 * chunk) - peak(chunk) <= one_chunk_designs + 8 * 8 * chunk


def test_each_chunk_keys_only_its_own_streams(monkeypatch):
    # Streams live for one chunk, and a chunk keys them in one vectorized
    # hash: every role of its replicates, in (replicate, role) order, and no
    # other stream. CLH in the failure scenario keys all three roles; at 600
    # replicates f1 runs in chunks of 273, 273 and 54, so 3 hashes.
    cfg = ExperimentConfig.from_path(_CONFIGS / "table1-f1-failures.cfg")
    cfg = dataclasses.replace(cfg, methods=("CLH",), replicates=600)
    keyed = []
    hash_keys = core._mix_words

    def spy(pool, steps, words):
        replicate_words, role_words = words
        keyed.append(list(zip(replicate_words.tolist(), role_words.tolist())))
        return hash_keys(pool, steps, words)

    monkeypatch.setattr(core, "_mix_words", spy)
    method_estimates("CLH", cfg)
    roles = (benchmark._ROLE_DESIGN, benchmark._ROLE_FAILURE, benchmark._ROLE_ASSIGNMENT)
    chunks = (range(0, 273), range(273, 546), range(546, 600))
    assert keyed == [list(itertools.product(reps, roles)) for reps in chunks]


def test_batch_sweep_memory_is_bounded_by_its_value_budget():
    # One CLH chunk of table1-f1-failures: 273 replicates of one 48-row,
    # 5-column block, at most benchmark._BUDGET values. The sweep holds a
    # few copies of its block: it peaks near 4 times the block's bytes, so
    # 4.5 times catches one more spent state held alive (near 5 times).
    cfg = ExperimentConfig.from_path(_CONFIGS / "table1-f1-failures.cfg")
    blocks = method_blocks(benchmark._METHODS["CLH"][1], cfg.sizes)
    V, _, _ = benchmark._draws("CLH", cfg, blocks, range(273))
    tracemalloc.start()
    try:
        benchmark._sweep_batch(V, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert V.size <= benchmark._BUDGET
    assert peak <= 2_358_720, peak  # 4.5 x 273 x 48 x 5 x 8 bytes


@pytest.mark.parametrize("method", ["MLH", "CLH"])
def test_chunks_of_a_large_design_hold_one_replicate(method):
    # A design of 4 x 4,000 runs in 5 columns holds 80,000 values, more than
    # the value budget, so each chunk is one replicate: 4 replicates peak no
    # higher than 1 replicate plus one design's bytes. Drawn in one chunk,
    # the 4 designs and their integrand temporaries would peak about four
    # times as high. MLH gathers its rows into computer groups, CLH sweeps.
    cfg = _config(integrand="f1", sizes=SliceSizes((4000,) * 4), dim=5,
                  methods=(method,), scenario="one-slice-fails")
    assert cfg.sizes.n * cfg.dim > benchmark._BUDGET

    def peak(R):
        tracemalloc.start()
        try:
            method_estimates(method, dataclasses.replace(cfg, replicates=R))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # warm any lazy state outside the measured calls
    one_design = cfg.sizes.n * cfg.dim * 8
    assert peak(4) <= peak(1) + one_design


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 33, 48, 65, 129, 257])
def test_shuffled_row_is_the_row_gathered_by_a_permutation(n):
    # numpy's RNG algorithms may change between versions (NEP 19). The
    # full-grid failure step relies on shuffle(row) drawing what
    # permutation(n) draws and leaving the row as row[permutation(n)], with
    # the stream left where permutation(n) leaves it: it shuffles a row of
    # 0..n-1 and gathers the values by it, the rows the pinned reports'
    # in-place shuffle of the values left.
    shuffled = RngStream(n).split(2).generator()
    fresh = RngStream(n).split(2).generator()
    F = np.linspace(-1.0, 1.0, 3 * n).reshape(3, n)
    want = F[1][fresh.permutation(n)]
    shuffled.shuffle(F[1])
    assert np.array_equal(F[1], want)
    assert shuffled.integers(2**63) == fresh.integers(2**63)


def test_custom_integrand_array_is_never_written():
    # The failure step only reads the integrand values; an integrand that
    # hands back the same cached array must find it as it left it, and
    # every method must see it unchanged.
    cfg = ExperimentConfig(
        integrand="custom", sizes=SliceSizes((5, 4, 3)), dim=2,
        methods=("RLH", "MLH", "CLH"), replicates=6,
        scenario="one-slice-fails", seed=2,
    )
    cached = np.linspace(0.0, 1.0, 6 * 12).reshape(6, 12)
    before = cached.copy()
    first = run_experiment(cfg, custom_integrand=lambda x: cached, custom_true_mean=0.5)
    assert np.array_equal(cached, before)
    again = run_experiment(cfg, custom_integrand=lambda x: before.copy(), custom_true_mean=0.5)
    assert first.rmse == again.rmse


# RMSE bits of each bundled config cut to 300 replicates, as float.hex,
# recorded with the gathered full-grid assignment (commit 6b37ce2). They
# cover f1 complete and f2 with one slice failing, besides the other two.
_CONFIGS = Path(__file__).resolve().parents[1] / "configs"
_RMSE_BITS_300 = {
    "table1-f1-failures": {
        "RLH": "0x1.86ac2b65d320cp-3", "MLH": "0x1.7b7fac1c48fedp-3",
        "CLH": "0x1.6ed3e4ea05783p-3", "IMLH": "0x1.2c735d6920e68p-3",
        "ICLH": "0x1.284ceb9577ed4p-3", "SLH": "0x1.513e525fcdc9ap-3",
        "CSLH": "0x1.5d266546e8acdp-3",
    },
    "table1-f1": {
        "RLH": "0x1.8aa93b2bb0528p-5", "MLH": "0x1.270087fd8f60bp-5",
        "CLH": "0x1.270087fd8f610p-5", "IMLH": "0x1.2475e15eb06adp-3",
        "ICLH": "0x1.2475e15eb06afp-3", "SLH": "0x1.270087fd8f611p-5",
        "CSLH": "0x1.270087fd8f611p-5",
    },
    "table1-f2-failures": {
        "RLH": "0x1.30b068f5f9023p-4", "MLH": "0x1.0981acf884b94p-4",
        "CLH": "0x1.0e9b3a3ce890cp-4", "IMLH": "0x1.4aec6df4f9a04p-5",
        "ICLH": "0x1.3be5082f1c3a5p-5", "SLH": "0x1.5769efeb78066p-5",
        "CSLH": "0x1.4a177ec758c67p-5",
    },
    "table1-f2": {
        "RLH": "0x1.fe1dfcc286285p-6", "MLH": "0x1.2792f01963265p-6",
        "CLH": "0x1.f0be15e0f55dep-7", "IMLH": "0x1.3c007239dcecfp-5",
        "ICLH": "0x1.38cb30961da46p-5", "SLH": "0x1.22a3a5070811cp-6",
        "CSLH": "0x1.f1108e147e1cep-7",
    },
}


@pytest.mark.parametrize("name", sorted(_RMSE_BITS_300))
def test_bundled_config_rmse_bits_at_300_replicates(name):
    cfg = ExperimentConfig.from_path(_CONFIGS / f"{name}.cfg")
    report = run_experiment(dataclasses.replace(cfg, replicates=300))
    assert {m: v.hex() for m, v in report.rmse.items()} == _RMSE_BITS_300[name]


def test_methods_draw_from_disjoint_streams():
    mlh = method_estimates("MLH", _config(replicates=20))
    slh = method_estimates("SLH", _config(replicates=20))
    assert not np.array_equal(mlh, slh)


def test_whole_grid_estimates_are_permutation_invariant():
    # Every column of an MLH or SLH design is a permutation of the same
    # grid, and both integrands are sums of per-coordinate terms, so the
    # complete-scenario estimate is the same for every replicate.
    cfg = _config(
        integrand="f1", dim=5, sizes=SliceSizes((17, 13, 11, 7)),
        methods=("MLH", "SLH"), replicates=10, f1_variant="x3",
    )
    n = 48
    grid_mean = np.log(level_midpoints(np.arange(1, n + 1), n)).mean()
    for method in ("MLH", "SLH"):
        est = method_estimates(method, cfg)
        assert np.allclose(est, est[0])
        assert np.isclose(est[0], 5.0 * grid_mean)
    # The literal variant reweights columns but not the pooled value.
    lit = method_estimates("SLH", _config(
        integrand="f1", dim=5, sizes=SliceSizes((17, 13, 11, 7)),
        methods=("SLH",), replicates=4, f1_variant="literal",
    ))
    assert np.isclose(lit[0], 5.0 * grid_mean)


def test_independent_blocks_estimate_matches_block_grids():
    # Under the separable integrand the pooled mean depends only on the
    # per-block column multisets: each block contributes n_j rows drawn
    # from its own n_j-level grid.
    sizes = SliceSizes((17, 13, 11, 7))
    cfg = _config(integrand="f1", dim=5, sizes=sizes,
                  methods=("IMLH",), replicates=6, f1_variant="x3")
    est = method_estimates("IMLH", cfg)
    expected = 0.0
    for nj in sizes.sizes:
        mids = level_midpoints(np.arange(1, nj + 1), nj)
        expected += nj * 5.0 * np.log(mids).mean()
    expected /= sizes.n
    assert np.allclose(est, est[0])
    assert np.isclose(est[0], expected)
    # f2 is not coordinate-separable, so there the estimates do vary.
    var_est = method_estimates("IMLH", _config(methods=("IMLH",), replicates=6))
    assert len(set(np.round(var_est, 12))) > 1


def test_constant_integrand_has_zero_rmse():
    cfg = ExperimentConfig(
        integrand="custom", sizes=SliceSizes((5, 4)), dim=3,
        methods=("RLH", "MLH", "CLH", "IMLH", "ICLH", "SLH", "CSLH"),
        replicates=12, scenario="one-slice-fails", seed=9,
    )
    const = 3.25
    report = run_experiment(
        cfg,
        custom_integrand=lambda x: np.full(x.shape[:-1], const),
        custom_true_mean=const,
    )
    assert all(v == 0.0 for v in report.rmse.values())
    assert report.true_mean == const


@pytest.mark.parametrize("scenario", _SCENARIOS)
def test_rmse_of_errors_whose_squares_overflow(scenario):
    # Errors of 1e200 square past the float range, and values of 1e308 sum
    # past it too, yet every mean and RMSE is representable: each is
    # returned with no RuntimeWarning, not refused as inf (or inf - inf).
    cfg = ExperimentConfig(
        integrand="custom", sizes=SliceSizes((3, 4)), dim=2, methods=_ALL_METHODS,
        replicates=5, scenario=scenario, seed=3,
    )
    for value in (1e200, 1e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_experiment(
                cfg, custom_integrand=lambda x: np.full(x.shape[:-1], value), custom_true_mean=0
            )
        for method, rmse in report.rmse.items():
            assert rmse == pytest.approx(value, rel=1e-15), (value, method)
    # An error of 2e308 is past the float range itself: the report refuses
    # its RMSE, after the warning of the overflowing subtraction.
    with pytest.warns(RuntimeWarning), pytest.raises(
        ValueError, match="^rmse of RLH must be a finite number, got inf$"
    ):
        run_experiment(
            cfg, custom_integrand=lambda x: np.full(x.shape[:-1], 1e308), custom_true_mean=-1e308
        )


def test_custom_integrand_requires_callable_and_mean():
    cfg = ExperimentConfig(
        integrand="custom", sizes=SliceSizes((3, 3)), dim=2,
        methods=("MLH",), replicates=2, scenario="all-complete", seed=1,
    )
    with pytest.raises(ValueError, match="^integrand 'custom' needs custom_true_mean$"):
        run_experiment(cfg, custom_integrand=lambda x: x[..., 0])
    with pytest.raises(ValueError, match="^integrand 'custom' needs custom_integrand$"):
        run_experiment(cfg, custom_true_mean=0.5)


def test_non_callable_custom_integrand_is_rejected_before_any_draw(monkeypatch):
    # It drew a chunk and then failed with "'int' object is not callable".
    cfg = _config(integrand="custom", sizes=SliceSizes((3, 3)), methods=("MLH",), replicates=2)
    drawn = []
    draw = benchmark._draws

    def spy(method, cfg, blocks, reps):
        drawn.append(reps)
        return draw(method, cfg, blocks, reps)

    monkeypatch.setattr(benchmark, "_draws", spy)
    with pytest.raises(ValueError, match="^custom_integrand must be callable, got 3$"):
        run_experiment(cfg, custom_integrand=3, custom_true_mean=0.5)
    with pytest.raises(ValueError, match="^custom_integrand must be callable, got 'x'$"):
        method_estimates("MLH", cfg, "x")
    assert drawn == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_custom_integrand_values_are_rejected(bad):
    # One NaN made the method's RMSE NaN with no error; f1 and f2 reject
    # points outside their domain, and a custom integrand is held to the same.
    cfg = _config(integrand="custom", sizes=SliceSizes((3, 3)), methods=("MLH", "SLH"),
                  replicates=4)

    def integrand(V):
        F = V[:, :, 0].copy()
        F[-1, 2] = bad
        return F

    message = "^custom_integrand returned a non-finite value for MLH$"
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg, custom_integrand=integrand, custom_true_mean=0.5)


@pytest.mark.parametrize("integrand, dim", [("f1", 5), ("f2", 2)])
def test_custom_arguments_are_rejected_for_built_in_integrands(integrand, dim):
    # Each was ignored: a custom mean on f2 returned f2's RMSE.
    cfg = _config(integrand=integrand, dim=dim, replicates=2)
    takes_no = f"^integrand '{integrand}' takes no "
    with pytest.raises(ValueError, match=takes_no + "custom_integrand$"):
        run_experiment(cfg, custom_integrand=lambda V: V[..., 0])
    with pytest.raises(ValueError, match=takes_no + "custom_integrand$"):
        method_estimates("MLH", cfg, lambda V: V[..., 0])
    with pytest.raises(ValueError, match=takes_no + "custom_true_mean$"):
        run_experiment(cfg, custom_true_mean=3.0)


@pytest.mark.parametrize("mean", [float("nan"), np.inf, -np.inf, "abc", "0.5", True, [0.5]])
def test_custom_true_mean_must_be_a_finite_real_number(mean):
    # A NaN mean gave NaN RMSEs, and "abc" failed in float() without naming
    # the argument; a numeric string is not parsed.
    cfg = _config(integrand="custom", methods=("MLH",), replicates=2)
    message = "^custom_true_mean must be a finite number, got " + re.escape(repr(mean)) + "$"
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg, custom_integrand=lambda V: V[..., 0], custom_true_mean=mean)


@pytest.mark.parametrize("mean", [0.5, 1, np.float32(0.5), np.int64(1)])
def test_custom_true_mean_accepts_real_numbers(mean):
    cfg = _config(integrand="custom", methods=("MLH",), replicates=2)
    report = run_experiment(cfg, custom_integrand=lambda V: V[..., 0], custom_true_mean=mean)
    assert report.true_mean == float(mean)
    assert type(report.true_mean) is float


@pytest.mark.parametrize("integrand, dim", [("f2", 2), ("custom", 3)])
def test_f1_variant_is_rejected_off_f1(integrand, dim):
    # f1_variant has no effect on another integrand, but the report would
    # echo it; only the default is accepted there.
    message = "^f1_variant 'x3' applies only to integrand 'f1'$"
    with pytest.raises(ValueError, match=message):
        _config(integrand=integrand, dim=dim, f1_variant="x3")
    assert _config(integrand=integrand, dim=dim, f1_variant="literal").f1_variant == "literal"
    assert _config(integrand="f1", dim=5, f1_variant="x3").f1_variant == "x3"


@pytest.mark.parametrize(
    "integrand, got",
    [(lambda x: 1.0, "()"),
     (lambda x: x[..., :1], "(4, 6, 1)"),
     (lambda x: x[..., 0].T, "(6, 4)")],
)
def test_custom_integrand_of_the_wrong_shape_is_named(integrand, got):
    cfg = ExperimentConfig(
        integrand="custom", sizes=SliceSizes((3, 3)), dim=2,
        methods=("MLH",), replicates=4, scenario="all-complete", seed=1,
    )
    want = r"must return shape \(4, 6\) \(replicates, runs\), got " + re.escape(got) + "$"
    with pytest.raises(ValueError, match=want):
        run_experiment(cfg, custom_integrand=integrand, custom_true_mean=0.5)


def test_one_slice_fails_drops_the_right_rows():
    # With a custom integrand that tags rows by slice membership, the
    # surviving mean identifies exactly which block was dropped.
    sizes = SliceSizes((2, 3))
    cfg = ExperimentConfig(
        integrand="custom", sizes=sizes, dim=2, methods=("SLH",),
        replicates=40, scenario="one-slice-fails", seed=3,
    )
    part = partition_levels(sizes)
    lows = part.group_midpoints(0)  # slice 1's values, per column

    def tag(x):
        # 1.0 for rows whose first coordinate belongs to slice 1, else 0.0.
        return np.isin(x[..., 0], lows).astype(np.float64)

    est = method_estimates("SLH", cfg, custom_integrand=tag)
    # If slice 1 fails: 0 tagged rows remain out of 3 -> 0; if slice 2
    # fails: 2 of 2 remain -> 1. Every estimate is one of these.
    assert set(np.round(est, 12)) <= {0.0, 1.0}
    assert {0.0, 1.0} == set(np.round(est, 12))  # both outcomes occur in 40 draws


def test_write_trace_csv_round_trip(tmp_path):
    sizes = SliceSizes((6, 7))
    d = generate_sliced_lhd(sizes, 3, RngStream(0))
    _, trace = reduce_correlations(d, iterations=10)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,whole,slice1,slice2"
    assert len(lines) == 12  # header + initial state + 10 iterations
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == trace.whole[0]
    assert float(lines[-1].split(",")[2]) == trace.per_slice[0][-1]
