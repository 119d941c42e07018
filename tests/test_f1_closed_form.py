"""f1's RMSE in closed form.

f1 ("x3") is the sum of log x over a run's five coordinates, and every
column of a midpoint design holds each midpoint of its grid once, so the
mean over all runs is 5 * mean(log midpoints), whatever the permutations.
The sweep's rank restore keeps each column's values, so it moves nothing
but rounding. Every replicate then has the same error, and the RMSE is the
bias of the grid (f1's true mean is -5) at any replicate count. IMLH and
ICLH stack one grid per slice, each weighted by its run count n_j.

When one slice fails, each column of the kept runs holds the midpoints of
the other slices' level groups (SLH, CSLH) or own grids (IMLH, ICLH), so
the error is err_j, fixed by the failed slice j alone. Over R replicates
whose failure streams pick slice j c_j times, RMSE^2 = sum_j c_j err_j^2 / R.
"""

import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

from slicedlhd import (
    ExperimentConfig,
    RngStream,
    SliceSizes,
    level_midpoints,
    partition_levels,
    run_experiment,
)
from slicedlhd.benchmark import _METHODS, _ROLE_FAILURE

_CONFIGS = Path(__file__).resolve().parents[1] / "configs"
_CONFIG = _CONFIGS / "table1-f1.cfg"


def _grid_estimate(n):
    # f1's estimate from any n-run midpoint LHD.
    return 5 * np.mean(np.log(level_midpoints(np.arange(1, n + 1), n)))


def test_f1_complete_rmse_is_the_grid_bias():
    cfg = dataclasses.replace(ExperimentConfig.from_path(_CONFIG), replicates=3)
    rmse = run_experiment(cfg).rmse
    n, sizes = cfg.sizes.n, cfg.sizes.sizes
    full = abs(_grid_estimate(n) + 5)
    own = abs(sum(nj * _grid_estimate(nj) for nj in sizes) / n + 5)
    assert round(full, 6) == 0.036011 and round(own, 6) == 0.142803
    for method in ("MLH", "CLH", "SLH", "CSLH"):
        assert abs(rmse[method] - full) <= 1e-12, method
    for method in ("IMLH", "ICLH"):
        assert abs(rmse[method] - own) <= 1e-12, method


def _failure_errors(sizes, method):
    # err_j of each failed slice j: f1's estimate from the kept runs, + 5.
    n = sizes.n
    if _METHODS[method][1] == "sliced":
        grids = [level_midpoints(group, n) for group in partition_levels(sizes).groups]
    else:
        grids = [level_midpoints(np.arange(1, nj + 1), nj) for nj in sizes.sizes]
    logs = [np.log(grid).sum() for grid in grids]
    total = sum(logs)
    return np.array([5 * (total - logs[j]) / (n - nj) + 5 for j, nj in enumerate(sizes.sizes)])


def test_f1_failure_errors_per_slice():
    sizes = ExperimentConfig.from_path(_CONFIGS / "table1-f1-failures.cfg").sizes
    assert np.round(_failure_errors(sizes, "SLH"), 4).tolist() == [
        0.2979, 0.0782, -0.0535, -0.1172]
    assert np.round(_failure_errors(sizes, "IMLH"), 4).tolist() == [
        0.1656, 0.1468, 0.1389, 0.1256]


@pytest.mark.parametrize("replicates", [1, 37, 300])
def test_f1_one_slice_fails_rmse_is_the_failure_weighted_bias(replicates):
    cfg = dataclasses.replace(
        ExperimentConfig.from_path(_CONFIGS / "table1-f1-failures.cfg"),
        methods=("IMLH", "ICLH", "SLH", "CSLH"), replicates=replicates,
    )
    rmse = run_experiment(cfg).rmse
    for method in cfg.methods:
        streams = RngStream(cfg.seed).generators(
            _METHODS[method][0], range(replicates), _ROLE_FAILURE)
        counts = np.bincount([gen.integers(cfg.sizes.t) for gen in streams],
                             minlength=cfg.sizes.t)
        want = counts @ _failure_errors(cfg.sizes, method) ** 2 / replicates
        assert rmse[method] ** 2 == pytest.approx(want, rel=1e-12, abs=0), method


def test_f1_one_slice_fails_expected_rmse_over_slice_orderings():
    # The README's bound on the failing SLH / f1 / one-slice-fails cell:
    # with each slice equally likely to fail, the expected RMSE is
    # sqrt(mean_j err_j^2), fixed by the order of the slice sizes.
    def expected(order):
        return float(np.sqrt(np.mean(_failure_errors(SliceSizes(order), "SLH") ** 2)))

    assert round(expected((17, 13, 11, 7)), 5) == 0.16691
    values = [expected(order) for order in itertools.permutations((17, 13, 11, 7))]
    assert len(values) == 24
    assert (round(min(values), 4), round(max(values), 4)) == (0.1258, 0.1669)
    assert (round(min(values), 3), round(max(values), 3)) == (0.126, 0.167)
