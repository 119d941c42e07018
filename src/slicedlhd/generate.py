"""Design generators: the sliced construction plus the baseline families.

Generators only draw; sweeping a design is reduce_correlations. A midpoint
family is a list of row blocks, each permuting its own sorted midpoints (see
method_blocks); the benchmark draws and sweeps the same blocks. All
generators split their RngStream per (block, column), so adding columns or
slices never perturbs the draws of earlier ones and golden tests stay stable
across refactors. A design keys all its streams in one RngStream.generators
call, which draws what rng.split(j, l).generator() draws for each.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Design,
    LevelPartition,
    RngStream,
    SliceSizes,
    _as_integer,
    _as_slice_sizes,
    level_midpoints,
)
from .partition import partition_levels

__all__ = [
    "generate_sliced_lhd",
    "generate_randomized_lhd",
    "generate_independent_lhds",
]


def method_blocks(grid: str, sizes: SliceSizes) -> list[tuple[slice, np.ndarray]]:
    """The row blocks of a design family and the sorted midpoints each permutes.

    ``grid`` is "full" (all n rows on the n-level grid), "own" (slice j on
    its own n_j-level grid) or "sliced" (slice j on its partition group of
    the n-level grid).
    """
    _as_slice_sizes(sizes)
    if grid == "full":
        return [(slice(0, sizes.n), level_midpoints(np.arange(1, sizes.n + 1), sizes.n))]
    if grid == "own":
        mids = [level_midpoints(np.arange(1, nj + 1), nj) for nj in sizes.sizes]
    elif grid == "sliced":
        mids = map(partition_levels(sizes).group_midpoints, range(sizes.t))
    else:
        raise ValueError(f"unknown grid: {grid!r}")
    return list(zip(sizes.rows, mids))


def _midpoint_design(grid: str, sizes: SliceSizes, p: int, rng: RngStream) -> Design:
    """n x p design on method_blocks(grid, sizes); block j, column l permutes
    the block's midpoints under rng.split(j, l)."""
    p = _as_integer("p", p)
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    blocks = method_blocks(grid, sizes)
    values = np.empty((sizes.n, p), dtype=np.float64)
    gens = rng.generators(range(len(blocks)), range(p))
    for rows, mids in blocks:
        for l, gen in zip(range(p), gens):
            values[rows, l] = gen.permutation(mids)
    return Design(values, sizes)


def generate_sliced_lhd(
    sizes: SliceSizes,
    p: int,
    rng: RngStream,
    partition: LevelPartition | None = None,
) -> Design:
    """Sliced Latin hypercube design: n x p, slices of the given sizes.

    Each column is a permutation of the full midpoint grid
    {1/(2n), ..., (2n-1)/(2n)}, and slice j's rows are a Latin hypercube at
    slice j's own coarser resolution. Per slice j and column l the group
    G_j of partition_levels(sizes) is permuted under the split stream
    rng.split(j, l).

    ``partition`` is not used, as the groups are a pure function of
    ``sizes``. It is still accepted, and must be partition_levels(sizes),
    so that calls written for the earlier signature keep working; it is
    checked after ``p`` and ``sizes``.
    """
    design = _midpoint_design("sliced", sizes, p, rng)
    if partition is not None and partition != partition_levels(sizes):
        raise ValueError("partition is not the partition of these slice sizes")
    return design


def generate_randomized_lhd(n: int, p: int, rng: RngStream) -> Design:
    """Ordinary Latin hypercube: one point per bin, jittered within the bin.

    Entry (i, l) is (pi_l(i) - U_il)/n with pi_l a uniform permutation and
    U_il independent uniform(0,1), so values land in ((m-1)/n, m/n] rather
    than at midpoints.
    """
    n, p = _as_integer("n", n), _as_integer("p", p)
    if n < 1 or p < 1:
        raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    sizes = SliceSizes((n,))
    values = np.empty((n, p), dtype=np.float64)
    for l, gen in enumerate(rng.generators(0, range(p))):
        perm = gen.permutation(n) + 1
        jitter = gen.random(n)
        values[:, l] = (perm - jitter) / n
    return Design(values, sizes)


def generate_independent_lhds(sizes: SliceSizes, p: int, rng: RngStream) -> Design:
    """Stack t independently generated midpoint LHDs of sizes n_1..n_t.

    Block j lives on its own grid {(2i-1)/(2n_j)}; the stacked matrix is
    generally not a Latin hypercube on the combined n-level grid, only each
    slice block is one at its own resolution. reduce_correlations sweeps
    the stack, each block on its own grid.
    """
    return _midpoint_design("own", sizes, p, rng)
