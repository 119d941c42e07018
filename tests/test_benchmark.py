import json
import math
import re

import numpy as np
import pytest

from slicedlhd import (
    ExperimentConfig,
    RngStream,
    SliceSizes,
    eval_f1,
    eval_f2,
    level_midpoints,
    mc_mean,
    reduce_correlations,
    render_table,
    run_experiment,
    true_mean_f1,
    true_mean_f2,
    write_trace_csv,
    generate_sliced_lhd,
    partition_levels,
)
from slicedlhd import benchmark
from slicedlhd.benchmark import RmseReport, method_estimates


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


def test_true_means():
    assert true_mean_f1() == -5.0
    # Quadrature agrees with the closed form 5/4 and is mesh-stable.
    assert abs(true_mean_f2() - 1.25) < 1e-9
    assert abs(true_mean_f2(1e-9, 1e-9) - true_mean_f2(1e-11, 1e-11)) < 1e-8


def test_mc_mean_cross_checks():
    est, se = mc_mean(eval_f2, 2, points=200_000, seed=5)
    assert se < 0.01
    assert abs(est - 1.25) < 4 * se
    est1, se1 = mc_mean(lambda x: eval_f1(x, variant="x3"), 5,
                        points=200_000, seed=6)
    assert abs(est1 + 5.0) < 4 * se1


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


def test_fsd_is_recognized_but_unavailable():
    with pytest.raises(ValueError, match="method unavailable"):
        _config(methods=("FSD",))


def test_report_round_trip_and_table():
    report = run_experiment(_config())
    back = RmseReport.from_json(report.to_json())
    assert back == report
    table = render_table([report])
    assert "n/a" in table  # FSD column is always marked unavailable
    assert "MLH" in table and "SLH" in table
    parsed = json.loads(report.to_json())
    assert parsed["true_mean"] == report.true_mean
    assert set(parsed["rmse"]) == {"MLH", "SLH"}


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

    def per_replicate(code, cfg, role):
        base = RngStream(cfg.seed)
        return (base.split(code, r, role).generator() for r in range(cfg.replicates))

    monkeypatch.setattr(benchmark, "_generators", per_replicate)
    assert np.array_equal(batched, method_estimates(method, cfg))


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


def test_custom_integrand_requires_callable_and_mean():
    cfg = ExperimentConfig(
        integrand="custom", sizes=SliceSizes((3, 3)), dim=2,
        methods=("MLH",), replicates=2, scenario="all-complete", seed=1,
    )
    with pytest.raises(ValueError):
        run_experiment(cfg, custom_integrand=lambda x: x[..., 0])
    with pytest.raises(ValueError):
        run_experiment(cfg, custom_true_mean=0.5)


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
    part = partition_levels(sizes)
    d = generate_sliced_lhd(sizes, 3, RngStream(0), partition=part)
    _, trace = reduce_correlations(d, part, iterations=10)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,whole,slice1,slice2"
    assert len(lines) == 12  # header + initial state + 10 iterations
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == trace.whole[0]
    assert float(lines[-1].split(",")[2]) == trace.per_slice[0][-1]
