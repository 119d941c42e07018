"""Greedy assignment of levels {1,...,n} to slice groups G_1,...,G_t.

Stratum s of slice k (s = 1..n_k) holds the fine levels u with
ceil(n_k(2u-1)/(2n)) = s, which are edge(s-1)+1, ..., edge(s) for
edge(s) = (2ns + n_k) // (2n_k), in exact integer arithmetic. Level edge(s)
closes stratum s.

The construction walks levels i = 1..n, keeping a sorted working set of
levels not yet assigned. Each stratum that level i closes, taken in
ascending slice order, hands its smallest working-set level to that slice's
group. Every working-set level is at most i = edge(s), so that level is
the first one above edge(s-1): a bisect, not a scan. The eligibility
guarantee (there is always such a level) is a proven property of the
construction; the code still checks it and aborts loudly if it ever fails,
because a failure can only mean an implementation bug.

The walk visits the n stratum closings, not the n levels: numpy sorts the
closings by (edge, slice) up front, at every n, and the levels up to each
edge join the working set as the walk reaches it. So the walk holds O(n)
integers in arrays and bounded chunks of Python lists. delta_sequence needs
no walk: it counts the edges at each level. The walk is one plain loop and
holds the one eligibility check; assignment_steps replays its closings.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .core import SliceSizes, LevelPartition, _as_slice_sizes

__all__ = [
    "DeltaSequence",
    "LevelStep",
    "delta_sequence",
    "assignment_steps",
    "partition_levels",
]

# The walk reads the sorted closings in Python lists of _CHUNK closings at a time.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class DeltaSequence:
    """Per-level counts of slices whose coarse stratum boundary closes at i."""

    deltas: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(int(d) for d in self.deltas))

    @property
    def total(self) -> int:
        return sum(self.deltas)


@dataclass(frozen=True)
class LevelStep:
    """Trace record for one level i of the greedy walk.

    ``assignments`` lists (slice_index, level) pairs in execution order,
    slice_index 0-based; ``working_set`` is the set state after the step.
    """

    i: int
    assignments: tuple[tuple[int, int], ...]
    working_set: tuple[int, ...]


def _edges(sizes: SliceSizes) -> tuple[np.ndarray, np.ndarray]:
    """edge(s-1) and edge(s) for every stratum s of every slice k, slice by
    slice."""
    n, nk = sizes.n, sizes.sizes
    each = np.repeat(nk, nk)
    below = 2 * n * (np.arange(n) - np.repeat((0,) + tuple(accumulate(nk))[:-1], nk))
    lo = (below + each) // (2 * each)
    below += 2 * n + each
    hi = below // (2 * each)
    return lo, hi


def _closings(sizes: SliceSizes):
    """(edge(s), k, edge(s-1)) for every stratum s of every slice k, in
    (edge(s), k) order."""
    n, nk = sizes.n, sizes.sizes
    lo, hi = _edges(sizes)
    # A stable sort of the edges keeps the slices in order at a shared edge.
    order = np.argsort(hi, kind="stable")
    hi, lo, k = hi[order], lo[order], np.repeat(np.arange(len(nk)), nk)[order]
    del order
    return chain.from_iterable(
        zip(hi[at:at + _CHUNK].tolist(), k[at:at + _CHUNK].tolist(), lo[at:at + _CHUNK].tolist())
        for at in range(0, n, _CHUNK)
    )


def _walk(sizes: SliceSizes) -> list[list[int]]:
    """Each slice's levels in the order its strata close: the closing at
    level i of a stratum of slice k hands k its level.

    One plain loop over the closings in (i, k) order. The working set is its
    sorted list of the levels up to i not yet handed out.
    """
    sizes = _as_slice_sizes(sizes)
    groups: list[list[int]] = [[] for _ in range(sizes.t)]
    working: list[int] = []  # stays sorted: extended in increasing order
    top = 0  # levels 1..top have joined the working set
    for i, k, lo in _closings(sizes):
        if i > top:
            working += range(top + 1, i + 1)
            top = i
        pos = bisect_right(working, lo)
        if pos == len(working):
            # Impossible by the eligibility guarantee; reaching this line
            # means the walk itself is wrong, so fail hard and loud.
            raise AssertionError(
                f"no eligible level for slice {k} at i={i} "
                f"(sizes={sizes.sizes}, working set={working})"
            )
        groups[k].append(working.pop(pos))
    return groups


def delta_sequence(sizes: SliceSizes) -> DeltaSequence:
    """delta_i = sum_j [ceil(n_j(i+1/2)/n) - ceil(n_j(i-1/2)/n)] for i=1..n.

    Each summand is 0 or 1, the deltas sum to n, and every prefix sum is
    at most i (assignments can never outpace the levels seen so far).
    delta_i counts the strata that level i closes: the edges equal to i.
    """
    _, hi = _edges(_as_slice_sizes(sizes))
    return DeltaSequence(np.bincount(hi, minlength=sizes.n + 1)[1:].tolist())


def assignment_steps(sizes: SliceSizes) -> list[LevelStep]:
    """Run the greedy walk, returning the full per-level trace."""
    handed = list(map(iter, _walk(sizes)))
    steps: list[LevelStep] = []
    working: list[int] = []
    for i, k, _ in _closings(sizes):
        while len(steps) < i:  # a level without a closing only joins the working set
            working.append(len(steps) + 1)
            steps.append(LevelStep(len(steps) + 1, (), tuple(working)))
        level = next(handed[k])
        working.remove(level)
        steps[-1] = LevelStep(i, steps[-1].assignments + ((k, level),), tuple(working))
    return steps


def partition_levels(sizes: SliceSizes) -> LevelPartition:
    """Deterministic partition of {1,...,n} into groups of the given sizes.

    Group j, restricted to its coarse grid, hits every stratum
    ((m-1)/n_j, m/n_j] exactly once; the LevelPartition constructor
    re-checks the cheap structural invariants.
    """
    return LevelPartition(_walk(sizes), sizes)
