"""Shared domain types and splittable randomness.

Everything downstream (partitioning, generation, decorrelation, benchmarking)
builds on the small vocabulary defined here: slice size vectors, level
partitions, design matrices, the grid's one bin rule (``_bin_index``), and a
reproducible RNG stream that can be split per (slice, column) or per (method,
replicate) without aliasing.

A stream draws what numpy's own SeedSequence + Philox draw. For the streams
of a product of path components, such as one per (slice, column) of a design
or one per benchmark replicate, ``RngStream.generators`` lets SeedSequence
hash the seed and the fixed path prefix, then goes on with its hash in uint32
array arithmetic: every further word for all the streams and all four pool
lanes at once, and one Philox is re-keyed to each result. ``generator`` is
its one-stream case, so a SeedSequence is built in that one place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, takewhile

import numpy as np

__all__ = [
    "SliceSizes",
    "LevelPartition",
    "Design",
    "RngStream",
    "level_midpoints",
    "levels_from_values",
]


def _is_integer(value) -> bool:
    """A Python or numpy integer; bool and float are rejected, never truncated."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_integer(name: str, value) -> int:
    """``value`` as a Python int, or a ValueError naming ``name`` if it is not an integer."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def level_midpoints(levels, n: int) -> np.ndarray:
    """Map integer levels a in {1,...,n} to midpoints (2a-1)/(2n); any other
    level raises ValueError, never truncated or mapped off the grid.

    A single division per entry, so every call site rounds identically and
    midpoint-exactness checks can compare values for strict equality.
    """
    n = _as_integer("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    arr = np.asarray(levels)
    # asarray reads a bool among integers as 0 or 1, so a sequence's elements are typed first.
    bools = not isinstance(levels, np.ndarray) and {bool, np.bool_} & set(
        map(type, np.asarray(levels, dtype=object).flat))
    if bools or arr.size and not (arr.dtype.kind in "iu" and arr.min() >= 1 and arr.max() <= n):
        raise ValueError(f"levels must be integers in 1..{n}, got {levels!r}")
    return (2.0 * arr - 1.0) / (2.0 * n)


@dataclass(frozen=True)
class SliceSizes:
    """The run-size vector (n_1, ..., n_t); total n is derived."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.sizes, (tuple, list)) and not (
            isinstance(self.sizes, np.ndarray) and self.sizes.ndim == 1
        ):
            raise ValueError(
                f"slice sizes must be a tuple, a list or a 1-D integer array, got {self.sizes!r}"
            )
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

    @property
    def rows(self) -> tuple[slice, ...]:
        """Each slice's rows in order: slice j is rows n_1+...+n_{j-1} up to n_1+...+n_j."""
        stops = tuple(accumulate(self.sizes))
        return tuple(map(slice, (0,) + stops[:-1], stops))


def _as_slice_sizes(sizes) -> SliceSizes:
    """``sizes`` itself, or a ValueError naming it if it is not a SliceSizes."""
    if not isinstance(sizes, SliceSizes):
        raise ValueError(f"sizes must be a SliceSizes, got {sizes!r}")
    return sizes


@dataclass(frozen=True)
class LevelPartition:
    """Groups G_1,...,G_t of levels {1,...,n}, each exposed sorted ascending.

    A level must be a Python or numpy integer; bool, float and str are
    refused, never truncated or parsed.
    """

    groups: tuple[tuple[int, ...], ...]
    sizes: SliceSizes

    def __post_init__(self):
        sizes = _as_slice_sizes(self.sizes)
        groups = tuple(map(tuple, self.groups))
        if not set(map(type, chain.from_iterable(groups))) <= {int}:
            groups = tuple(tuple(_as_integer("level", g) for g in grp) for grp in groups)
        groups = tuple([tuple(sorted(grp)) for grp in groups])
        object.__setattr__(self, "groups", groups)
        if len(groups) != sizes.t:
            raise ValueError("group count does not match slice count")
        if tuple(map(len, groups)) != sizes.sizes:
            raise ValueError("group cardinalities do not match slice sizes")
        # The n levels cover 1..n iff they lie in 1..n (a sorted group's ends
        # bound it) and n of them differ, counted in O(n) by a bincount.
        n = sizes.n
        if not (all([1 <= grp[0] and grp[-1] <= n for grp in groups]) and n == np.count_nonzero(
                np.bincount(np.fromiter(chain.from_iterable(groups), np.int64, n)))):
            raise ValueError("groups must partition {1,...,n} exactly")

    def group_midpoints(self, j: int) -> np.ndarray:
        """Sorted midpoints of group j on the full n-level grid."""
        return level_midpoints(np.array(self.groups[j]), self.sizes.n)


@dataclass
class Design:
    """An n x p design matrix with slice-block metadata.

    ``values`` rows are grouped by slice: rows ``sizes.rows[j]`` belong to
    slice j. No structural invariant is enforced here; the
    validator module checks stratification, and generators for stacked
    independent designs intentionally produce matrices that fail the
    whole-grid check.
    """

    values: np.ndarray
    sizes: SliceSizes

    def __post_init__(self):
        _as_slice_sizes(self.sizes)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("design values must be a 2-D matrix")
        if values.shape[1] < 1:
            raise ValueError("design values must have at least one column")
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


_ABOVE_ONE = float(np.nextafter(1.0, 2.0))


def _bin_index(values: np.ndarray, k) -> np.ndarray:
    """The bin m in 0..k+1 of each entry against the float edges e(m) = m/k.

    x is in bin m iff e(m-1) < x <= e(m); entries at or below 0 are in bin
    0, and entries above 1 and NaN in bin k+1. e(m) is m/k correctly
    rounded, so an edge float closes its own bin (7/25 * 25 rounds to
    7.000000000000001, yet 7/25 is in bin 7) and any other float is binned
    by its own exact value. Entries are first clipped to [0, next float
    above 1], so no product overflows and the two outer bins come out of the
    rule itself. While k < 2**50 the product x*k is within far less than 1
    of the exact one, so m0 = ceil(x*k) is the bin or a neighbour of it;
    comparing x with m0/k and (m0-1)/k, which are the edge floats e(m0) and
    e(m0-1) themselves, moves it there. A midpoint (2a-1)/(2n) is binned
    exactly too: on an edge it is that edge's float, and off it it differs
    from every edge by at least 1/(2n*k), far more than an ulp while
    2n*k < 2**53.
    """
    x = np.fmax(np.fmin(values, _ABOVE_ONE), 0.0)  # fmin takes NaN to the top
    m = np.ceil(x * k)
    m += x > m / k
    m -= x <= (m - 1.0) / k
    return m.astype(np.intp)


def levels_from_values(values: np.ndarray, n: int) -> np.ndarray:
    """The level a in {1,...,n} of each value v in (0, 1]: its validator bin
    ((a-1)/n, a/n], so the midpoint (2a-1)/(2n) is level a. Any other value,
    NaN and infinity included, raises ValueError."""
    n = _as_integer("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    arr = np.asarray(values, dtype=np.float64)
    if not ((arr > 0.0) & (arr <= 1.0)).all():
        raise ValueError(f"values must lie in (0, 1], got {values!r}")
    return _bin_index(arr, n)


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream.

    A stream is identified by (seed, path). ``split`` extends the path;
    distinct paths never alias because they map to distinct SeedSequence
    spawn keys. ``generators(*c)`` yields the generators of every stream in
    a row-major product of path components, such as
    ``generators(range(t), range(p))``, keyed in one batched hash, and
    ``generator`` is its one-stream case, ``generators()``: a fresh
    counter-based generator, so the same stream always replays the same
    draws. The seed and every path component must be nonnegative integers.
    """

    seed: int
    path: tuple[int, ...] = field(default=())

    def __post_init__(self):
        seed = _as_integer("stream seed", self.seed)
        if seed < 0:
            raise ValueError(f"stream seed must be nonnegative, got {seed}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "path", _path_components(self.path))

    def split(self, *components: int) -> "RngStream":
        return RngStream(self.seed, self.path + components)

    def generator(self) -> np.random.Generator:
        return next(self.generators())

    def generators(self, *components):
        """The generator of ``self.split(*c)`` for each c in the row-major
        product of ``components``: an integer is fixed, and a range of step 1
        within [0, 2**32] varies.

        Draws what numpy's own SeedSequence + Philox draw on each stream,
        but keys them all in one vectorized SeedSequence hash and re-keys a
        single Philox for each. That one Generator is yielded every time:
        each is valid only until the next one is drawn.
        """
        fixed = tuple(takewhile(lambda c: not isinstance(c, range), components))
        prefix = self.path + _path_components(fixed)
        varying = iter(_product_words([c for c in components if isinstance(c, range)]))
        words = []
        for c in components[len(fixed):]:
            words += [next(varying)] if isinstance(c, range) else _words(*_path_components((c,)))
        # SeedSequence takes _POOL hash steps a word, the seed padded to _POOL words.
        steps = _POOL * (max(_POOL, len(_words(self.seed))) + sum(len(_words(c)) for c in prefix))
        seq = np.random.SeedSequence(self.seed, spawn_key=prefix)
        return _rekeyed(np.random.Philox(seq), _mix_words(seq.pool, steps, words))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool size 4.
_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _path_components(components) -> tuple[int, ...]:
    """Stream path components as Python ints; each must be a nonnegative integer."""
    out = tuple(_as_integer("stream path component", c) for c in components)
    if any(c < 0 for c in out):
        raise ValueError("stream path components must be nonnegative")
    return out


def _words(x: int) -> list[int]:
    """The uint32 words SeedSequence makes of a nonnegative int, low first; 0 is one word."""
    out = [x & _M32]
    x >>= 32
    while x:
        out.append(x & _M32)
        x >>= 32
    return out


def _product_words(ranges: list[range]) -> list[np.ndarray]:
    """Each range's word in every stream of the ranges' row-major product, as
    uint32 arrays; each must be a range of step 1 within [0, 2**32]."""
    for r in ranges:
        if not (r.step == 1 and 0 <= r.start and r.stop <= _M32 + 1):
            raise ValueError(
                f"stream path range must be a range of step 1 within [0, 2**32], got {r!r}"
            )
    shape = [len(r) for r in ranges]
    grid = np.indices(shape).reshape(len(shape), math.prod(shape))
    return [(row + r.start).astype(np.uint32) for r, row in zip(ranges, grid)]


# Each step works on uint32 arrays, whose arithmetic wraps mod 2**32; the
# Python-int constants, all below 2**32, stay uint32.
@functools.cache
def _lanes(steps: int, init: int = _INIT_A, mult: int = _MULT_A) -> np.ndarray:
    """The hash constants h of the _POOL hash steps from step ``steps`` and
    h * mult, as two read-only uint32 columns, one row a pool lane."""
    h = [init * pow(mult, steps + k, _M32 + 1) & _M32 for k in range(_POOL)]
    lanes = np.array([h, [c * mult & _M32 for c in h]], np.uint32)[:, :, None]
    lanes.flags.writeable = False
    return lanes


def _hashmix(value, lanes: np.ndarray) -> np.ndarray:
    value = (value ^ lanes[0]) * lanes[1]
    return value ^ value >> 16


def _mix_words(pool: np.ndarray, steps: int, words) -> np.ndarray:
    """Mix each word into every entry of SeedSequence's ``pool`` after its
    ``steps`` hash steps, as SeedSequence does past the pool size, then take
    ``generate_state(2, uint64)``: the (m, 2) Philox keys.

    A word is a Python int, shared by the m streams, or an (m,) uint32 array.
    The hash constants of a word's _POOL steps depend only on the step count
    (built once a count, _lanes); the steps run as one (_POOL, m) operation.
    """
    pool = pool[:, None]
    for j, w in enumerate(words):
        pool = _MIX_L * pool - _MIX_R * _hashmix(w, _lanes(steps + _POOL * j))
        pool ^= pool >> 16
    v = _hashmix(pool, _lanes(0, _INIT_B, _MULT_B)).astype(np.uint64)
    v[::2] |= v[1::2] << 32
    return v[::2].T


def _rekeyed(bitgen: np.random.Philox, keys: np.ndarray):
    """One Generator on a new ``bitgen``, re-keyed in turn to each Philox key in ``keys``."""
    # The state a new Philox starts in (counter 0, empty buffer), held in
    # lists, which the state setter reads faster than arrays.
    state = bitgen.state
    state["buffer"] = state["buffer"].tolist()
    keyed = state["state"]
    keyed["counter"] = keyed["counter"].tolist()
    gen = np.random.Generator(bitgen)
    for key in keys.tolist():
        keyed["key"] = key
        bitgen.state = state
        yield gen
