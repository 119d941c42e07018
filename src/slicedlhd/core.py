"""Shared domain types and splittable randomness.

Everything downstream (partitioning, generation, decorrelation, benchmarking)
builds on the small vocabulary defined here: slice size vectors, level
partitions, design matrices, and a reproducible RNG stream that can be split
per (slice, column) or per (method, replicate) without aliasing.

A stream's generator is numpy's own SeedSequence + Philox. For a run of
sibling streams, such as one per benchmark replicate, ``RngStream.generators``
reproduces SeedSequence's hash in uint32 array arithmetic: the seed and fixed
path words are hashed once, the replicate word and the words after it for a
whole range of replicates at once, and one Philox is re-keyed to each result.
It draws the same numbers as the per-stream path at a small part of its cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if not isinstance(self.sizes, SliceSizes):
            raise ValueError(f"sizes must be a SliceSizes, got {self.sizes!r}")
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

    def levels(self) -> np.ndarray:
        """Integer levels a with value == (2a-1)/(2n); only meaningful for
        designs on the full midpoint grid."""
        return levels_from_values(self.values, self.n)


def levels_from_values(values: np.ndarray, n: int) -> np.ndarray:
    """Nearest level a in {1,...,n} for each value, via a = round(v*n + 1/2)."""
    return np.rint(np.asarray(values) * n + 0.5).astype(np.int64)


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream.

    A stream is identified by (seed, path). ``split`` extends the path;
    distinct paths never alias because they map to distinct SeedSequence
    spawn keys. ``generator`` materializes a fresh counter-based generator,
    so the same stream always replays the same draws. ``generators`` yields
    the generators of a run of sibling streams, keyed in one batched hash.
    The seed and every path component must be nonnegative integers.
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
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def generators(self, head, replicates: range, tail=()):
        """The generator of ``self.split(*head, r, *tail)`` for each r in ``replicates``.

        ``replicates`` is a range of step 1 within [0, 2**32]. Draws what
        ``generator`` draws on each of those streams, but keys the whole range
        in one vectorized SeedSequence hash and re-keys a single Philox for
        each. That one Generator is yielded every time: each is valid only
        until the next one is drawn.
        """
        head = self.path + _path_components(head)
        tail = _path_components(tail)
        if not (isinstance(replicates, range) and replicates.step == 1
                and 0 <= replicates.start and replicates.stop <= _M32 + 1):
            raise ValueError(
                f"replicates must be a range of step 1 within [0, 2**32], got {replicates!r}"
            )
        return _rekeyed(*_seed_pool(self.seed, head), replicates, tail)


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


# Each step works on Python ints and on uint32 arrays alike: products are
# masked before they meet an array, and array arithmetic wraps mod 2**32.
def _hashmix(value, h, mult=_MULT_A):
    value = value ^ h
    h = h * mult & _M32
    value = value * h & _M32
    return value ^ value >> 16, h


def _mix(x, y):
    x = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return x ^ x >> 16


def _seed_pool(seed: int, head: tuple[int, ...]):
    """SeedSequence's pool and hash constant after the seed words and ``head``.

    The spawn key is never empty here (it holds the replicate), so the seed
    words are zero-padded to the pool size, as SeedSequence does.
    """
    words = _words(seed)
    words += [0] * (_POOL - len(words))
    pool, h = [], _INIT_A
    for w in words[:_POOL]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    return _mix_words(pool, h, words[_POOL:] + [w for c in head for w in _words(c)])


def _mix_words(pool, h, words):
    """Mix each word into every pool entry, as SeedSequence does past the pool size."""
    pool = list(pool)
    for w in words:
        for dst in range(_POOL):
            v, h = _hashmix(w, h)
            pool[dst] = _mix(pool[dst], v)
    return pool, h


def _philox_keys(pool, h, replicate_words: np.ndarray, tail) -> np.ndarray:
    """``generate_state(2, uint64)`` after each replicate word, then ``tail``: an (m, 2) array."""
    pool, _ = _mix_words(pool, h, [replicate_words] + [w for c in tail for w in _words(c)])
    out, h = [], _INIT_B
    for v in pool:
        v, h = _hashmix(v, h, _MULT_B)
        out.append(v.astype(np.uint64))
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)


def _rekeyed(pool, h, replicates: range, tail: tuple[int, ...]):
    """One Generator, re-keyed in turn to each replicate's key from ``_philox_keys``."""
    bitgen = np.random.Philox(0)
    # The state a new Philox starts in (counter 0, empty buffer), held in
    # lists, which the state setter reads faster than arrays.
    state = bitgen.state
    state["buffer"] = state["buffer"].tolist()
    keyed = state["state"]
    keyed["counter"] = keyed["counter"].tolist()
    gen = np.random.Generator(bitgen)
    words = np.arange(replicates.start, replicates.stop).astype(np.uint32)
    for key in _philox_keys(pool, h, words, tail).tolist():
        keyed["key"] = key
        bitgen.state = state
        yield gen
