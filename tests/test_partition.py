import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slicedlhd.partition as partition
from slicedlhd import (
    LevelStep,
    SliceSizes,
    assignment_steps,
    delta_sequence,
    partition_levels,
)

from _goldens import DELTA_2_5_10, GROUPS_2_5_10, SIZES_2_5_10


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a/b for integers a >= 0, b >= 1."""
    return -(-a // b)


def frozen_walk(sizes: SliceSizes) -> list[tuple[int, tuple, tuple]]:
    """The greedy walk as first written, kept as the oracle for the library's.

    For every (level, slice) pair it tests whether level i closes a stratum,
    ceil(n_k(2i+1)/(2n)) > ceil(n_k(2i-1)/(2n)), and then scans the sorted
    working set for the first level in that stratum. Returns (i, assignments,
    working set) per level.
    """
    n = sizes.n
    working: list[int] = []
    steps = []
    for i in range(1, n + 1):
        working.append(i)
        crossing = [
            k
            for k, nk in enumerate(sizes.sizes)
            if ceil_div(nk * (2 * i + 1), 2 * n) - ceil_div(nk * (2 * i - 1), 2 * n) == 1
        ]
        assigned = []
        for k in crossing:
            nk = sizes.sizes[k]
            target = ceil_div(nk * (2 * i - 1), 2 * n)
            pick = None
            for pos, u in enumerate(working):
                stratum = ceil_div(nk * (2 * u - 1), 2 * n)
                if stratum == target:
                    pick = pos
                    break
                if stratum > target:
                    break
            assert pick is not None
            assigned.append((k, working.pop(pick)))
        steps.append((i, tuple(assigned), tuple(working)))
    return steps


def test_walkthrough_partition_groups():
    part = partition_levels(SliceSizes(SIZES_2_5_10))
    assert part.groups == GROUPS_2_5_10


def test_walkthrough_delta_sequence():
    ds = delta_sequence(SliceSizes(SIZES_2_5_10))
    assert ds.deltas == DELTA_2_5_10
    assert ds.total == 17


def test_walkthrough_trace_replay():
    steps = assignment_steps(SliceSizes(SIZES_2_5_10))
    assert steps[0].assignments == ()
    assert steps[0].working_set == (1,)
    # At i=2 the coarsest slice closes its first stratum and takes level 1.
    assert steps[1].assignments == ((2, 1),)
    assert steps[1].working_set == (2,)
    # At i=3 two strata close; slices are served in ascending index order.
    assert steps[2].assignments == ((1, 2), (2, 3))
    assert steps[2].working_set == ()
    # The walk always ends with everything assigned.
    assert steps[-1].working_set == ()


def test_single_slice_is_identity():
    sizes = SliceSizes((9,))
    assert delta_sequence(sizes).deltas == (1,) * 9
    assert partition_levels(sizes).groups == (tuple(range(1, 10)),)


def test_all_singleton_slices():
    sizes = SliceSizes((1, 1, 1, 1))
    part = partition_levels(sizes)
    assert sorted(g for grp in part.groups for g in grp) == [1, 2, 3, 4]
    assert all(len(g) == 1 for g in part.groups)


def _check_partition_invariants(sizes: SliceSizes):
    n = sizes.n
    ds = delta_sequence(sizes)
    # The deltas pay out exactly n assignments, never ahead of the walk.
    assert ds.total == n
    prefix = 0
    for i, d in enumerate(ds.deltas, start=1):
        assert d >= 0
        prefix += d
        assert prefix <= i
    steps = assignment_steps(sizes)
    for step, d in zip(steps, ds.deltas):
        assert len(step.assignments) == d
    assert steps[-1].working_set == ()

    part = partition_levels(sizes)
    for j, nj in enumerate(sizes.sizes):
        # Group j hits every coarse stratum ((m-1)/n_j, m/n_j] exactly once.
        strata = sorted(ceil_div(nj * (2 * u - 1), 2 * n) for u in part.groups[j])
        assert strata == list(range(1, nj + 1))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8)
)
def test_partition_invariants_fuzz(sizes_list):
    _check_partition_invariants(SliceSizes(tuple(sizes_list)))


def test_partition_invariants_adversarial_sizes():
    for sizes in [
        (1, 40), (40, 1), (2, 3, 5, 7, 11, 13), (17, 13, 11, 7),
        (9, 7, 6), (6, 7), (1,) * 12, (39, 40), (1, 1, 38),
    ]:
        _check_partition_invariants(SliceSizes(sizes))


def test_partition_is_deterministic():
    a = partition_levels(SliceSizes((5, 8, 3)))
    b = partition_levels(SliceSizes((5, 8, 3)))
    assert a.groups == b.groups


def test_equal_slices_get_interleaved_levels():
    # With equal sizes every slice closes a stratum at the same levels, so
    # assignments rotate through slices in index order.
    part = partition_levels(SliceSizes((3, 3, 3)))
    flat = sorted(g for grp in part.groups for g in grp)
    assert flat == list(range(1, 10))
    for grp in part.groups:
        assert len(grp) == 3


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 97, 101, 211, 499, 997)

_WALK_SIZES = st.one_of(
    st.lists(st.integers(1, 30), min_size=1, max_size=16),  # many slices
    st.tuples(st.integers(1, 60), st.integers(1, 20)).map(lambda c: [c[0]] * c[1]),  # equal
    st.lists(st.sampled_from((1, 1, 1, 2, 3)), min_size=1, max_size=20),  # mostly ones
    st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=8),  # primes
    st.lists(st.integers(1, 1500), min_size=1, max_size=4),  # n up to a few thousand
)


@settings(max_examples=200, deadline=None)
@given(_WALK_SIZES)
# Many slices at n = 10^5, on numpy's sort; only its groups are compared, as
# its per-level trace would hold n working-set tuples.
@example([1000] * 100)
def test_walk_matches_frozen_oracle(sizes_list):
    sizes = SliceSizes(tuple(sizes_list))
    expected = frozen_walk(sizes)
    if sizes.n <= 10_000:
        assert assignment_steps(sizes) == [LevelStep(*step) for step in expected]
        assert delta_sequence(sizes).deltas == tuple(len(a) for _, a, _ in expected)
    groups = [[] for _ in sizes.sizes]
    for _, assigned, _ in expected:
        for k, u in assigned:
            groups[k].append(u)
    assert partition_levels(sizes).groups == tuple(tuple(sorted(g)) for g in groups)


def test_walk_raises_when_a_stratum_has_no_working_level(monkeypatch):
    # Level 1 closing a stratum that starts above level 1 leaves nothing to pick.
    monkeypatch.setattr(partition, "_closings", lambda sizes: iter([(1, 0, 1)]))
    with pytest.raises(
        AssertionError,
        match=r"^no eligible level for slice 0 at i=1 \(sizes=\(2, 3\), working set=\[1\]\)$",
    ):
        partition_levels(SliceSizes((2, 3)))


def _sorted_closings(sizes):
    # The oracle: Python's sort of every (edge(s), k, edge(s-1)) triple.
    n = sizes.n
    return sorted([((2 * n * s + m) // (2 * m), k, (2 * n * (s - 1) + m) // (2 * m))
                   for k, m in enumerate(sizes.sizes) for s in range(1, m + 1)])


@pytest.mark.parametrize(
    "sizes", [(1,), (3,), (2, 5, 10), (1,) * 99, (1,) * 100, (50, 49), (50, 50), (97, 3, 1),
              (17, 13, 11, 7) * 6, (1, 1500), (211, 2, 499, 997)],
)
def test_closings_sorted_by_python_and_by_numpy_agree(sizes):
    # numpy's stable argsort of the edges gives Python's sort of the triples.
    sizes = SliceSizes(sizes)
    by_numpy = list(partition._closings(sizes))
    assert by_numpy == _sorted_closings(sizes)
    assert len(by_numpy) == sizes.n
    assert all(type(v) is int for closing in by_numpy for v in closing)


def test_closings_match_the_python_sort_at_every_small_n():
    # One slice, one run a slice, a run and the rest, halves, and three
    # unequal slices, at every n up to 120.
    for n in range(1, 121):
        for shape in [(n,), (1,) * n, (1, n - 1), (n // 2, n - n // 2),
                      (n // 6, n // 3, n - n // 6 - n // 3)]:
            sizes = SliceSizes(tuple(m for m in shape if m))
            assert list(partition._closings(sizes)) == _sorted_closings(sizes), shape


def test_closings_are_read_in_chunks(monkeypatch):
    # A walk over several chunks gives the partition of one chunk.
    sizes = SliceSizes((61, 29, 10))
    whole = partition_levels(sizes)
    monkeypatch.setattr(partition, "_CHUNK", 7)
    assert partition_levels(sizes) == whole


@pytest.mark.parametrize("sizes", [(9,), (2, 5, 10), (17, 13, 11, 7), (1,) * 40, (1, 1500),
                                   (211, 2, 499, 997), (1000,) * 100])
def test_delta_sequence_counts_the_walks_closings_and_meets_its_closed_form(sizes):
    # delta_sequence counts the closing edges; the walk hands out one level
    # a closing, and the docstring's sum of ceilings is the closed form.
    sizes = SliceSizes(sizes)
    n = sizes.n
    walked = [0] * n
    for i, _, _, _ in partition._walk(sizes):
        walked[i - 1] += 1
    i = np.arange(1, n + 1)
    closed = sum(ceil_div(m * (2 * i + 1), 2 * n) - ceil_div(m * (2 * i - 1), 2 * n)
                 for m in sizes.sizes)
    deltas = delta_sequence(sizes).deltas
    assert deltas == tuple(walked) == tuple(closed.tolist())
    assert all(type(d) is int for d in deltas)
