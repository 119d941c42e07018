"""f1's complete-scenario RMSE in closed form.

f1 ("x3") is the sum of log x over a run's five coordinates, and every
column of a midpoint design holds each midpoint of its grid once, so the
mean over all runs is 5 * mean(log midpoints), whatever the permutations.
The sweep's rank restore keeps each column's values, so it moves nothing
but rounding. Every replicate then has the same error, and the RMSE is the
bias of the grid (f1's true mean is -5) at any replicate count. IMLH and
ICLH stack one grid per slice, each weighted by its run count n_j.
"""

import dataclasses
from pathlib import Path

import numpy as np

from slicedlhd import ExperimentConfig, level_midpoints, run_experiment

_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "table1-f1.cfg"


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
