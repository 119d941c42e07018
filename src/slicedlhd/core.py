"""Shared domain types, splittable randomness, and exact integer arithmetic.

Everything downstream (partitioning, generation, decorrelation, benchmarking)
builds on the small vocabulary defined here: slice size vectors, level
partitions, design matrices, and a reproducible RNG stream that can be split
per (slice, column) or per (method, replicate) without aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SliceSizes",
    "LevelPartition",
    "Design",
    "RngStream",
    "ceil_div",
    "level_midpoints",
    "levels_from_values",
    "uniform_permutation",
]


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a/b for integers, no floating point involved.

    The stratum computations evaluate ceil(n_j * (i +- 1/2) / n) as
    ceil(n_j * (2i +- 1) / (2n)); this helper is the single place that
    ceiling division happens so there is no chance of an off-by-one from
    float rounding.
    """
    a = int(a)
    b = int(b)
    if b < 1:
        raise ValueError(f"ceil_div requires b >= 1, got {b}")
    if a < 0:
        raise ValueError(f"ceil_div requires a >= 0, got {a}")
    return -(-a // b)


def _is_integer(value) -> bool:
    """A Python or numpy integer; bool and float are rejected, never truncated."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def level_midpoints(levels, n: int) -> np.ndarray:
    """Map integer levels a in {1,...,n} to midpoints (2a-1)/(2n).

    A single division per entry, so every call site rounds identically and
    midpoint-exactness checks can compare values for strict equality.
    """
    arr = np.asarray(levels, dtype=np.int64)
    return (2.0 * arr - 1.0) / (2.0 * n)


@dataclass(frozen=True)
class SliceSizes:
    """The run-size vector (n_1, ..., n_t); total n is derived."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(self.sizes)
        if not all(map(_is_integer, sizes)):
            raise ValueError(f"slice sizes must be integers, got {sizes!r}")
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) == 0:
            raise ValueError("at least one slice size is required")
        if any(s < 1 for s in sizes):
            raise ValueError(f"slice sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def t(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def offsets(self) -> tuple[int, ...]:
        """Prefix sums (0, n_1, n_1+n_2, ..., n); delimits slice row blocks."""
        out = [0]
        for s in self.sizes:
            out.append(out[-1] + s)
        return tuple(out)


@dataclass(frozen=True)
class LevelPartition:
    """Groups G_1,...,G_t of levels {1,...,n}, each exposed sorted ascending."""

    groups: tuple[tuple[int, ...], ...]
    sizes: SliceSizes

    def __post_init__(self):
        groups = tuple(tuple(sorted(int(g) for g in grp)) for grp in self.groups)
        object.__setattr__(self, "groups", groups)
        if len(groups) != self.sizes.t:
            raise ValueError("group count does not match slice count")
        if tuple(len(g) for g in groups) != self.sizes.sizes:
            raise ValueError("group cardinalities do not match slice sizes")
        covered = sorted(g for grp in groups for g in grp)
        if covered != list(range(1, self.sizes.n + 1)):
            raise ValueError("groups must partition {1,...,n} exactly")

    def group_midpoints(self, j: int) -> np.ndarray:
        """Sorted midpoints of group j on the full n-level grid."""
        return level_midpoints(self.groups[j], self.sizes.n)


@dataclass
class Design:
    """An n x p design matrix with slice-block metadata.

    ``values`` rows are grouped by slice: rows offsets[j]..offsets[j+1]-1
    belong to slice j. No structural invariant is enforced here; the
    validator module checks stratification, and generators for stacked
    independent designs intentionally produce matrices that fail the
    whole-grid check.
    """

    values: np.ndarray
    sizes: SliceSizes

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("design values must be a 2-D matrix")
        if values.shape[0] != self.sizes.n:
            raise ValueError(
                f"design has {values.shape[0]} rows, sizes imply {self.sizes.n}"
            )
        self.values = values

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def slice_offsets(self) -> tuple[int, ...]:
        return self.sizes.offsets()

    def slice_block(self, j: int) -> np.ndarray:
        """View of slice j's rows (no copy)."""
        off = self.slice_offsets
        return self.values[off[j] : off[j + 1], :]

    def levels(self) -> np.ndarray:
        """Integer levels a with value == (2a-1)/(2n); only meaningful for
        designs on the full midpoint grid."""
        return levels_from_values(self.values, self.n)

    def copy(self) -> "Design":
        return Design(self.values.copy(), self.sizes)


def levels_from_values(values: np.ndarray, n: int) -> np.ndarray:
    """Nearest level a in {1,...,n} for each value, via a = round(v*n + 1/2)."""
    return np.rint(np.asarray(values) * n + 0.5).astype(np.int64)


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream.

    A stream is identified by (seed, path). ``split`` extends the path;
    distinct paths never alias because they map to distinct SeedSequence
    spawn keys. ``generator`` materializes a fresh counter-based generator,
    so the same stream always replays the same draws.
    """

    seed: int
    path: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "path", tuple(int(x) for x in self.path))
        if any(x < 0 for x in self.path):
            raise ValueError("stream path components must be nonnegative")

    def split(self, *components: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(int(c) for c in components))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


def uniform_permutation(m: int, rng: RngStream) -> np.ndarray:
    """A uniformly random permutation of {1, ..., m} drawn from ``rng``.

    Pure with respect to the stream: the same stream yields the same
    permutation. Callers wanting independent permutations split first.
    """
    if m < 1:
        raise ValueError(f"permutation length must be >= 1, got {m}")
    return rng.generator().permutation(m) + 1
