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
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass

from .core import SliceSizes, LevelPartition, _as_slice_sizes

__all__ = [
    "DeltaSequence",
    "LevelStep",
    "delta_sequence",
    "assignment_steps",
    "partition_levels",
]


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


def _edges(n: int, nk: int, k: int):
    """(edge(s), k, edge(s-1)) for each stratum s = 1..n_k of slice k."""
    lo = 0
    for s in range(1, nk + 1):
        hi = (2 * n * s + nk) // (2 * nk)
        yield hi, k, lo
        lo = hi


def _closings(sizes: SliceSizes):
    """(i, k, edge(s-1)) for every stratum s of every slice k that level i
    closes, in (i, k) order; holds one pending stratum per slice."""
    return heapq.merge(*(_edges(sizes.n, nk, k) for k, nk in enumerate(sizes.sizes)))


def _walk(sizes: SliceSizes):
    """Yield (i, assignments, working set) after each level i = 1..n.

    ``assignments`` lists the (slice_index, level) pairs made at level i.
    The working set is the walk's own list, valid until the next level.
    """
    closings = _closings(_as_slice_sizes(sizes))
    closing = next(closings, None)
    working: list[int] = []  # stays sorted: appended in increasing order
    for i in range(1, sizes.n + 1):
        working.append(i)
        assigned: list[tuple[int, int]] = []
        while closing is not None and closing[0] == i:
            _, k, lo = closing
            pos = bisect_right(working, lo)
            if pos == len(working):
                # Impossible by the eligibility guarantee; reaching this line
                # means the walk itself is wrong, so fail hard and loud.
                raise AssertionError(
                    f"no eligible level for slice {k} at i={i} "
                    f"(sizes={sizes.sizes}, working set={working})"
                )
            assigned.append((k, working.pop(pos)))
            closing = next(closings, None)
        yield i, assigned, working


def delta_sequence(sizes: SliceSizes) -> DeltaSequence:
    """delta_i = sum_j [ceil(n_j(i+1/2)/n) - ceil(n_j(i-1/2)/n)] for i=1..n.

    Each summand is 0 or 1, the deltas sum to n, and every prefix sum is
    at most i (assignments can never outpace the levels seen so far).
    """
    return DeltaSequence(tuple(len(assigned) for _, assigned, _ in _walk(sizes)))


def assignment_steps(sizes: SliceSizes) -> list[LevelStep]:
    """Run the greedy walk, returning the full per-level trace."""
    return [LevelStep(i, tuple(assigned), tuple(working)) for i, assigned, working in _walk(sizes)]


def partition_levels(sizes: SliceSizes) -> LevelPartition:
    """Deterministic partition of {1,...,n} into groups of the given sizes.

    Group j, restricted to its coarse grid, hits every stratum
    ((m-1)/n_j, m/n_j] exactly once; the LevelPartition constructor
    re-checks the cheap structural invariants.
    """
    groups: list[list[int]] = [[] for _ in range(_as_slice_sizes(sizes).t)]
    for _, assigned, _ in _walk(sizes):
        for k, u in assigned:
            groups[k].append(u)
    return LevelPartition(tuple(tuple(g) for g in groups), sizes)
