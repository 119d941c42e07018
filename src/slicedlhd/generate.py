"""Design generators: the sliced construction plus the baseline families.

A midpoint family is a list of row blocks, each permuting its own sorted
midpoints (see method_blocks); the benchmark draws and sweeps the same
blocks. All generators split their RngStream per (block, column), so adding
columns or slices never perturbs the draws of earlier ones and golden tests
stay stable across refactors.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Design,
    LevelPartition,
    RngStream,
    SliceSizes,
    _as_integer,
    level_midpoints,
)
from .decorrelate import reduce_correlations
from .partition import partition_levels

__all__ = [
    "generate_sliced_lhd",
    "generate_midpoint_lhd",
    "generate_randomized_lhd",
    "generate_independent_lhds",
]


def slice_blocks(sizes: SliceSizes, mids) -> list[tuple[slice, np.ndarray]]:
    """Pair slice j's row range with the j-th entry of ``mids``, its sorted midpoints."""
    off = sizes.offsets()
    return [(slice(off[j], off[j + 1]), m) for j, m in enumerate(mids)]


def method_blocks(grid: str, sizes: SliceSizes) -> list[tuple[slice, np.ndarray]]:
    """The row blocks of a design family and the sorted midpoints each permutes.

    ``grid`` is "full" (all n rows on the n-level grid), "own" (slice j on
    its own n_j-level grid) or "sliced" (slice j on its partition group of
    the n-level grid).
    """
    if grid == "full":
        return [(slice(0, sizes.n), level_midpoints(np.arange(1, sizes.n + 1), sizes.n))]
    if grid == "own":
        return slice_blocks(
            sizes, [level_midpoints(np.arange(1, nj + 1), nj) for nj in sizes.sizes]
        )
    if grid == "sliced":
        return slice_blocks(sizes, map(partition_levels(sizes).group_midpoints, range(sizes.t)))
    raise ValueError(f"unknown grid: {grid!r}")


def _fill(blocks, n: int, p: int, rng: RngStream) -> np.ndarray:
    """n x p values; block j, column l permutes its midpoints under rng.split(j, l)."""
    values = np.empty((n, p), dtype=np.float64)
    for j, (rows, mids) in enumerate(blocks):
        for l in range(p):
            values[rows, l] = rng.split(j, l).generator().permutation(mids)
    return values


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
    so that calls written for the earlier signature keep working.
    """
    p = _as_integer("p", p)
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    if partition is not None and partition != partition_levels(sizes):
        raise ValueError("partition is not the partition of these slice sizes")
    return Design(_fill(method_blocks("sliced", sizes), sizes.n, p, rng), sizes)


def generate_midpoint_lhd(n: int, p: int, rng: RngStream) -> Design:
    """Single-slice design with each column a permutation of the n midpoints."""
    n, p = _as_integer("n", n), _as_integer("p", p)
    if n < 1 or p < 1:
        raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    sizes = SliceSizes((n,))
    return Design(_fill(method_blocks("full", sizes), n, p, rng), sizes)


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
    for l in range(p):
        gen = rng.split(0, l).generator()
        perm = gen.permutation(n) + 1
        jitter = gen.random(n)
        values[:, l] = (perm - jitter) / n
    return Design(values, sizes)


def generate_independent_lhds(
    sizes: SliceSizes,
    p: int,
    rng: RngStream,
    decorrelate: bool = False,
    iterations: int = 10,
) -> Design:
    """Stack t independently generated midpoint LHDs of sizes n_1..n_t.

    Block j lives on its own grid {(2i-1)/(2n_j)}; the stacked matrix is
    generally not a Latin hypercube on the combined n-level grid, only each
    slice block is one at its own resolution. With ``decorrelate`` set, the
    stack goes through the correlation-reduction sweep in one call, which
    sweeps each block on its own grid (for p >= 2; a single column or a
    single run has nothing to decorrelate).
    """
    p, iterations = _as_integer("p", p), _as_integer("iterations", iterations)
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    design = Design(_fill(method_blocks("own", sizes), sizes.n, p, rng), sizes)
    if decorrelate and p >= 2 and max(sizes.sizes) >= 2:
        design, _ = reduce_correlations(design, iterations=iterations)
    return design
