import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicedlhd import (
    Design,
    LevelPartition,
    RngStream,
    SliceSizes,
    assignment_steps,
    delta_sequence,
    generate_independent_lhds,
    generate_randomized_lhd,
    generate_sliced_lhd,
    level_midpoints,
    levels_from_values,
    partition_levels,
)
from slicedlhd import core
from slicedlhd.generate import method_blocks


@pytest.mark.parametrize("n", [1, 2, 7, 17, 400])
def test_level_midpoints_roundtrip(n):
    levels = np.arange(1, n + 1)
    mids = level_midpoints(levels, n)
    assert np.all(mids > 0) and np.all(mids < 1)
    assert np.all(np.diff(mids) > 0)
    # Midpoint of bin a classifies back into bin a, and rounds back to a.
    assert np.array_equal(np.ceil(mids * n).astype(int), levels)
    assert np.array_equal(levels_from_values(mids, n), levels)


@pytest.mark.parametrize(
    "n, message",
    [(0, "^n must be >= 1, got 0$"), (-3, "^n must be >= 1, got -3$"),
     (2.0, "^n must be an integer"), (True, "^n must be an integer")],
)
def test_level_midpoints_reject_a_bad_grid_size(n, message):
    with pytest.raises(ValueError, match=message):
        level_midpoints([1, 2], n)


@pytest.mark.parametrize(
    "n, message",
    [(0, "^n must be >= 1, got 0$"), (-3, "^n must be >= 1, got -3$"),
     (2.5, "^n must be an integer"), ("4", "^n must be an integer")],
)
def test_levels_from_values_reject_a_bad_grid_size(n, message):
    with pytest.raises(ValueError, match=message):
        levels_from_values([0.25, 0.75], n)


def test_level_midpoints_reject_non_integer_levels():
    # 1.7 was truncated to level 1.
    with pytest.raises(ValueError, match=r"^levels must be integers in 1\.\.3, got \[1\.7, 2\]$"):
        level_midpoints([1.7, 2], 3)


@pytest.mark.parametrize(
    "levels",
    [[True, 2], (1, False), [np.True_, 2], [[1, 2], [3, True]], [True, True]],
    ids=["bool-first", "bool-last", "numpy-bool", "nested", "all-bool"],
)
def test_level_midpoints_reject_bool_levels(levels):
    # [True, 2] was read as levels 1 and 2 and gave [1/6, 1/2].
    with pytest.raises(ValueError, match=r"^levels must be integers in 1\.\.3, got "):
        level_midpoints(levels, 3)


@pytest.mark.parametrize("levels", [[0, 2], [1, 4], [-1]])
def test_level_midpoints_reject_levels_off_the_grid(levels):
    # [0, 4] at n = 3 gave -1/6 and 7/6.
    with pytest.raises(ValueError, match=r"^levels must be integers in 1\.\.3, got "):
        level_midpoints(levels, 3)


@pytest.mark.parametrize("value", [0.0, -1.0, 1.5, 2.0, np.nan, np.inf, -np.inf])
def test_levels_from_values_reject_values_outside_the_unit_interval(value):
    # NaN gave the int64 minimum and a RuntimeWarning (an error under the
    # test configuration); 2.0 and -1.0 gave levels 6 and -2 at n = 3.
    with pytest.raises(ValueError, match=r"^values must lie in \(0, 1\], got "):
        levels_from_values([0.5, value], 3)


@pytest.mark.parametrize("value, level", [(1.0, 3), (5e-324, 1), (1 / 6, 1), (5 / 6, 3)])
def test_levels_from_values_stay_in_one_to_n(value, level):
    # round(v*n + 1/2) gives 4 at v = 1.0 and 0 at the smallest float.
    assert levels_from_values([value], 3).tolist() == [level]


def _digitized(x, bins):
    # The oracle of the bin rule: a binary search of the float edges m/bins.
    return np.digitize(x, np.arange(bins + 1) / bins, right=True)


def _assert_bins_match_oracle(x, bins):
    x = np.asarray(x, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = core._bin_index(x, np.float64(bins))
    np.testing.assert_array_equal(got, _digitized(x, bins), err_msg=f"bins={bins}")


def test_bin_index_matches_digitize_on_every_edge_and_its_neighbours():
    for bins in range(1, 200):
        edges = np.arange(bins + 1) / bins
        _assert_bins_match_oracle(
            np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)]), bins
        )


def test_bin_index_matches_digitize_on_sampled_edges_at_large_bin_counts():
    rng = np.random.default_rng(20240817)
    for bins in (10**6 - 1, 10**6, 3 * 10**6 + 7):
        m = np.concatenate([np.arange(40), bins - np.arange(40), rng.integers(0, bins + 1, 4000)])
        edges = m / bins
        _assert_bins_match_oracle(
            np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)]), bins
        )


def test_bin_index_matches_digitize_outside_the_unit_interval():
    specials = [-0.0, 0.0, 5e-324, 1.0, np.nextafter(1.0, 2.0), 1e308, -1e308,
                np.inf, -np.inf, np.nan]
    for bins in (1, 2, 3, 7, 25, 10**6, 3 * 10**6 + 7):
        _assert_bins_match_oracle(specials, bins)


def _assert_levels_are_bins(x, n):
    # In (0, 1] a value's level is its bin, by the rule the validator bins by.
    x = np.asarray(x, dtype=np.float64)
    x = x[(x > 0.0) & (x <= 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = levels_from_values(x, n)
    np.testing.assert_array_equal(got, core._bin_index(x, np.float64(n)), err_msg=f"n={n}")
    np.testing.assert_array_equal(got, _digitized(x, n), err_msg=f"n={n}")


def test_levels_from_values_are_the_bins_on_every_edge_and_its_neighbours():
    for n in range(1, 200):
        edges = np.arange(n + 1) / n
        _assert_levels_are_bins(
            np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)]), n
        )


def test_levels_from_values_are_the_bins_on_sampled_edges_at_large_n():
    rng = np.random.default_rng(20240817)
    for n in (10**6 - 1, 10**6, 3 * 10**6 + 7):
        m = np.concatenate([np.arange(40), n - np.arange(40), rng.integers(0, n + 1, 4000)])
        edges = m / n
        _assert_levels_are_bins(
            np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)]), n
        )


@pytest.mark.parametrize(
    "n, value", [(2, 0.49999999999999994), (4, 0.24999999999999997), (5, 0.19999999999999998)]
)
def test_levels_from_values_keep_a_value_below_an_edge_in_its_bin(n, value):
    # The float below the edge 1/n lies in bin 1; round(v*n + 1/2) gave level 2.
    assert value == np.nextafter(1 / n, 0.0)
    assert levels_from_values([value], n).tolist() == [1]


def test_level_helpers_accept_empty_input():
    assert level_midpoints([], 3).shape == (0,)
    assert levels_from_values([], 3).shape == (0,)
    assert levels_from_values(np.empty((0, 2)), 3).shape == (0, 2)


def test_slice_sizes_basics():
    s = SliceSizes((2, 5, 10))
    assert s.t == 3
    assert s.n == 17
    assert s.rows == (slice(0, 2), slice(2, 7), slice(7, 17))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 20), min_size=1, max_size=8))
def test_slice_rows_tile_the_runs_in_order(sizes):
    # Slice j's rows follow slice j-1's, hold n_j runs, and together cover
    # range(n) once.
    s = SliceSizes(tuple(sizes))
    assert len(s.rows) == s.t
    assert [i for rows in s.rows for i in range(s.n)[rows]] == list(range(s.n))
    assert [len(range(s.n)[rows]) for rows in s.rows] == sizes


def test_slice_sizes_rejects_bad_input():
    with pytest.raises(ValueError):
        SliceSizes(())
    with pytest.raises(ValueError):
        SliceSizes((3, 0))
    with pytest.raises(ValueError):
        SliceSizes((3, -1))


@pytest.mark.parametrize("sizes", [(3.7, 3), (3.0, 3), (True, 3), ("3", 3), (None,)])
def test_slice_sizes_rejects_non_integers(sizes):
    with pytest.raises(ValueError, match="slice sizes must be integers"):
        SliceSizes(sizes)


def test_slice_sizes_accept_numpy_integers():
    s = SliceSizes((np.int64(3), np.int32(4), 5))
    assert s.sizes == (3, 4, 5)
    assert all(type(v) is int for v in s.sizes)
    for sizes in ([3, 4, 5], np.array([3, 4, 5]), np.array([3, 4, 5], dtype=np.uint8)):
        s = SliceSizes(sizes)
        assert s.sizes == (3, 4, 5)
        assert all(type(v) is int for v in s.sizes)


@pytest.mark.parametrize(
    "sizes",
    [5, np.int64(5), {3: 1, 4: 2}, {3, 4}, (s for s in (3, 4)), np.array([[3, 4]]), "34"],
    ids=["int", "numpy-int", "dict", "set", "generator", "2-D-array", "str"],
)
def test_slice_sizes_rejects_other_containers(sizes):
    # A dict would give its keys and a set or an iterator its own order; an
    # int is not iterable at all. Each is an error naming the slice sizes.
    with pytest.raises(ValueError, match=r"^slice sizes must be a tuple, a list or a 1-D integer array, got "):
        SliceSizes(sizes)


def test_level_partition_validates_cover():
    sizes = SliceSizes((2, 3))
    LevelPartition(((4, 1), (2, 3, 5)), sizes)  # ok, any order in
    with pytest.raises(ValueError):
        LevelPartition(((1, 2), (3, 4)), sizes)  # cardinality mismatch
    with pytest.raises(ValueError):
        LevelPartition(((1, 2), (2, 3, 4)), sizes)  # duplicate level
    with pytest.raises(ValueError):
        LevelPartition(((1, 2), (3, 4, 6)), sizes)  # not a cover of 1..5
    with pytest.raises(ValueError, match="^group count does not match slice count$"):
        LevelPartition(((1, 2, 3, 4, 5),), sizes)


@pytest.mark.parametrize(
    "groups, bad",
    [(((1.0, 2.9), (3,)), "1.0"), (((True, 2), (3,)), "True"), ((("2", 1), (3,)), "'2'"),
     (((1, np.float64(2.0)), (3,)), "np.float64(2.0)"), (((1, 2), (np.bool_(True),)), "np.True_")],
)
def test_level_partition_rejects_non_integer_levels(groups, bad):
    # Read as int, (1.0, 2.9) would be the group (1, 2) and True the level 1.
    with pytest.raises(ValueError, match=rf"^level must be an integer, got {re.escape(bad)}$"):
        LevelPartition(groups, SliceSizes((2, 1)))


def test_level_partition_takes_numpy_integer_levels_as_ints():
    part = LevelPartition(((np.int64(2), np.uint8(1)), (np.int32(3),)), SliceSizes((2, 1)))
    assert part.groups == ((1, 2), (3,))
    assert {type(u) for grp in part.groups for u in grp} == {int}


@pytest.mark.parametrize("groups", [((0, 1), (2,)), ((1, 2), (-3,)), ((1, 2), (2**70,))])
def test_level_partition_rejects_levels_off_one_to_n(groups):
    with pytest.raises(ValueError, match=r"^groups must partition \{1,...,n\} exactly$"):
        LevelPartition(groups, SliceSizes((2, 1)))


def test_level_partition_rejects_sizes_that_are_not_slice_sizes():
    with pytest.raises(ValueError, match=r"^sizes must be a SliceSizes, got \(2, 1\)$"):
        LevelPartition(((1, 2), (3,)), (2, 1))


def test_level_partition_sorts_groups():
    part = LevelPartition(((4, 1), (5, 2, 3)), SliceSizes((2, 3)))
    assert part.groups == ((1, 4), (2, 3, 5))
    assert np.allclose(part.group_midpoints(0), [1 / 10, 7 / 10])


def test_design_shape_checks():
    sizes = SliceSizes((2, 3))
    with pytest.raises(ValueError):
        Design(np.zeros((4, 2)), sizes)  # 4 rows, sizes imply 5
    with pytest.raises(ValueError):
        Design(np.zeros(5), sizes)  # not 2-D
    d = Design(np.arange(10, dtype=float).reshape(5, 2) / 10.0, sizes)
    assert d.n == 5 and d.p == 2
    assert [d.values[rows].tolist() for rows in d.sizes.rows] == [
        [[0.0, 0.1], [0.2, 0.3]], [[0.4, 0.5], [0.6, 0.7], [0.8, 0.9]]
    ]


def test_design_rejects_a_matrix_with_no_columns():
    # A design has a column to stratify: without one the validator's bins
    # had no shape to take, and it raised where it reports.
    with pytest.raises(ValueError, match="^design values must have at least one column$"):
        Design(np.empty((3, 0)), SliceSizes((3,)))


def test_design_rejects_sizes_that_are_not_slice_sizes():
    with pytest.raises(ValueError, match=r"^sizes must be a SliceSizes, got \(2,\)"):
        Design(np.zeros((2, 1)), sizes=(2,))


@pytest.mark.parametrize(
    "call",
    [
        partition_levels,
        delta_sequence,
        assignment_steps,
        lambda sizes: generate_sliced_lhd(sizes, 2, RngStream(0)),
        lambda sizes: generate_independent_lhds(sizes, 2, RngStream(0)),
    ],
    ids=["partition_levels", "delta_sequence", "assignment_steps",
         "generate_sliced_lhd", "generate_independent_lhds"],
)
def test_functions_of_slice_sizes_name_a_plain_tuple(call):
    # A plain tuple is named, as Design and ExperimentConfig name it, not
    # left to fail on a missing attribute.
    with pytest.raises(ValueError, match=r"^sizes must be a SliceSizes, got \(2, 3\)$"):
        call((2, 3))


def test_rng_stream_is_pure_and_splits():
    s = RngStream(42)
    a = s.split(1, 2).generator().random(4)
    b = s.split(1, 2).generator().random(4)
    assert np.array_equal(a, b)
    # split is associative over components
    assert s.split(1).split(2) == s.split(1, 2)
    # sibling paths give different draws
    c = s.split(1, 3).generator().random(4)
    assert not np.array_equal(a, c)
    # parent and child differ too
    d = s.split(1).generator().random(4)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        s.split(-1)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "1", None])
def test_rng_stream_rejects_non_integer_seeds(seed):
    with pytest.raises(ValueError, match="^stream seed must be an integer"):
        RngStream(seed)


@pytest.mark.parametrize("path", [(2.7,), (1, 2.0), (True,), ("3",)])
def test_rng_stream_rejects_non_integer_path_components(path):
    with pytest.raises(ValueError, match="^stream path component must be an integer"):
        RngStream(1, path)
    with pytest.raises(ValueError, match="^stream path component must be an integer"):
        RngStream(1).split(*path)


def test_rng_stream_rejects_negative_seed_at_construction():
    with pytest.raises(ValueError, match="^stream seed must be nonnegative"):
        RngStream(-1)


def test_rng_stream_accepts_numpy_integers():
    s = RngStream(np.int64(3), (np.uint8(2),)).split(np.int32(5))
    assert s == RngStream(3, (2, 5))
    assert type(s.seed) is int and all(type(c) is int for c in s.path)


def test_rng_stream_distinct_seeds_differ():
    a = RngStream(1).split(0).generator().random(8)
    b = RngStream(2).split(0).generator().random(8)
    assert not np.array_equal(a, b)


_words = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70))
# A varying component: a range of step 1 anywhere in [0, 2**32], ending at
# 2**32 at most; a few of them multiply to at most a few hundred streams.
_ranges = st.builds(
    lambda start, count: range(start, min(start + count, 2**32)),
    st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.just(2**32 - 3)),
    st.integers(0, 5),
)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.one_of(
        st.integers(0, 2**32 - 1),  # one word
        st.integers(2**32, 2**128 - 1),  # two to four words
        st.integers(2**128, 2**130),  # more words than the pool holds
    ),
    path=st.lists(_words, max_size=2),
    components=st.lists(st.one_of(_words, _ranges), max_size=4),
)
@example(seed=7, path=[], components=[3, range(2**32 - 5, 2**32), 1])
@example(seed=2**64 + 5, path=[2**40], components=[range(600)])
@example(seed=18446744073709551621, path=[], components=[range(6), range(8)])
@example(seed=1, path=[], components=[range(2), 2**33 + 1, range(3), range(2)])
# The step count after numpy's hash: a seed of more words than the pool
# holds, with a two-word fixed component before the first range; and a
# call with no range at all, which yields one stream.
@example(seed=2**130 + 9, path=[5], components=[2**40 + 3, range(4), 2])
@example(seed=11, path=[], components=[3, 2**40])
# Each word takes its own cached hash constants, one entry a step count:
# three ranges with an integer after a range, under a three-word seed.
@example(seed=2**80 + 7, path=[], components=[range(3), range(2), 5, range(4)])
@example(seed=2**95 + 1, path=[3], components=[range(2), 2**40 + 1, range(3), range(2)])
def test_batched_keys_match_seed_sequence(seed, path, components):
    # Each yielded generator's Philox holds exactly the state numpy's own
    # SeedSequence + Philox path gives: the key bit for bit, counter 0 and
    # an empty buffer. The streams are the row-major product of the
    # components; a range may sit anywhere, start anywhere and end at 2**32.
    streams = list(itertools.product(*[c if isinstance(c, range) else [c] for c in components]))
    base = RngStream(seed, tuple(path))
    states = [gen.bit_generator.state for gen in base.generators(*components)]
    assert len(states) == len(streams)
    for key, got in zip(streams, states):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path) + key)
        want = np.random.Philox(seq).state
        assert np.array_equal(got["state"]["key"], seq.generate_state(2, np.uint64))
        assert np.array_equal(got["state"]["counter"], want["state"]["counter"])
        assert np.array_equal(got["buffer"], want["buffer"])
        assert [got[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == [
            want[k] for k in ("buffer_pos", "has_uint32", "uinteger")
        ]


_BAD_RANGE = r"^stream path range must be a range of step 1 within \[0, 2\*\*32\], got "

_DRAWS = {
    "permutation-int": lambda gen: gen.permutation(23),
    "permutation-array": lambda gen: gen.permutation(level_midpoints(np.arange(1, 12), 11)),
    "random": lambda gen: gen.random(5),
    "integers": lambda gen: gen.integers(4, size=3),
}


@pytest.mark.parametrize("draw", sorted(_DRAWS))
@pytest.mark.parametrize("role", [0, 1, 2])
def test_batched_generators_draw_as_per_replicate_generators(draw, role):
    # Streams are counter-based, so a range keyed on its own, wherever it
    # starts, draws what each of its streams draws alone.
    seed, code, fn = 20240817_000123, 3, _DRAWS[draw]
    for replicates in (range(300), range(137, 300), range(299, 300), range(150, 150)):
        batched = [fn(gen) for gen in RngStream(seed).generators(code, replicates, role)]
        assert len(batched) == len(replicates)
        for r, got in zip(replicates, batched):
            want = fn(RngStream(seed).split(code, r, role).generator())
            assert np.array_equal(got, want)


def test_batched_generators_yield_nothing_for_zero_count():
    for replicates in (range(0), range(7, 7), range(9, 3), range(2**32, 2**32)):
        assert list(RngStream(5).generators(1, replicates, 2)) == []
    assert list(RngStream(5).generators(range(3), range(0), 2)) == []


@pytest.mark.parametrize(
    "head, count, tail, message",
    [
        ((2.7,), 3, (), "^stream path component must be an integer"),
        ((1,), 3, (True,), "^stream path component must be an integer"),
        ((-1,), 3, (), "^stream path components must be nonnegative"),
        ((1,), 3, (-2,), "^stream path components must be nonnegative"),
    ],
)
def test_batched_generators_reject_loose_inputs(head, count, tail, message):
    # Rejected when called, with the messages RngStream itself uses.
    with pytest.raises(ValueError, match=message):
        RngStream(1).generators(*head, range(count), *tail)


@pytest.mark.parametrize(
    "replicates, message",
    [
        pytest.param(2.0, "^stream path component must be an integer, got ", id="float"),
        pytest.param(True, "^stream path component must be an integer, got ", id="bool"),
        pytest.param([0, 1, 2], "^stream path component must be an integer, got ", id="list"),
        pytest.param(range(0, 6, 2), _BAD_RANGE, id="step-2"),
        pytest.param(range(-1, 3), _BAD_RANGE, id="negative-start"),
        pytest.param(range(0, 2**32 + 1), _BAD_RANGE, id="stop-past-2**32"),
    ],
)
def test_batched_generators_reject_a_bad_replicate_range(replicates, message):
    # A varying component is a range of step 1 within [0, 2**32], and any
    # other is an integer; anything else is rejected when called, naming
    # the value.
    with pytest.raises(ValueError, match=message + re.escape(repr(replicates)) + "$"):
        RngStream(1).generators(1, replicates, 2)
    with pytest.raises(ValueError, match=message + re.escape(repr(replicates)) + "$"):
        RngStream(1).generators(range(2), replicates)


def test_library_generators_draw_as_per_stream_generators():
    # Each library generator keys its (block, column) streams in one call;
    # it draws what each stream's own generator() draws.
    rng = RngStream(2**70 + 3, (4,))
    for sizes, p in [((2, 5, 10), 3), ((7, 1, 12, 5, 3, 9), 8), ((1,), 1)]:
        sizes = SliceSizes(sizes)
        for generate, grid in [(generate_sliced_lhd, "sliced"), (generate_independent_lhds, "own")]:
            want = np.empty((sizes.n, p))
            for j, (rows, mids) in enumerate(method_blocks(grid, sizes)):
                for l in range(p):
                    want[rows, l] = rng.split(j, l).generator().permutation(mids)
            assert np.array_equal(generate(sizes, p, rng).values, want)
        want = np.empty((sizes.n, p))
        for l in range(p):
            gen = rng.split(0, l).generator()
            want[:, l] = (gen.permutation(sizes.n) + 1 - gen.random(sizes.n)) / sizes.n
        assert np.array_equal(generate_randomized_lhd(sizes.n, p, rng).values, want)
