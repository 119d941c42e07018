import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicedlhd import (
    Design,
    RngStream,
    SliceSizes,
    generate_independent_lhds,
    generate_midpoint_lhd,
    generate_randomized_lhd,
    generate_sliced_lhd,
    is_lhd_column,
    level_midpoints,
    partition_levels,
    reduce_correlations,
    rms_correlation,
    validate_sliced,
)
from slicedlhd.generate import method_blocks

from _goldens import COLUMN_NUMER_2_5_10, GROUPS_2_5_10, PERMS_2_5_10, SIZES_2_5_10


def test_walkthrough_column_assembly(monkeypatch):
    # Pin the per-slice orderings and check the assembled column exactly.
    # The pinned orderings are level sequences; convert each to the 1-based
    # index permutation of its group, which every split stream's generator
    # then applies to the group's sorted midpoints.
    index_perm = {}
    for grp, perm in zip(GROUPS_2_5_10, PERMS_2_5_10):
        order = tuple(grp.index(level) + 1 for level in perm)
        index_perm[len(grp)] = np.asarray(order, dtype=np.int64)

    class Pinned:
        def permutation(self, mids):
            return mids[index_perm[mids.size] - 1]

    monkeypatch.setattr(RngStream, "generator", lambda self: Pinned())
    design = generate_sliced_lhd(SliceSizes(SIZES_2_5_10), 1, RngStream(0))
    expected = np.asarray(COLUMN_NUMER_2_5_10, dtype=np.float64) / 34.0
    assert np.array_equal(design.values[:, 0], expected)


def test_sliced_lhd_validates_all_pass():
    for sizes in [(2, 5, 10), (6, 7), (1, 4), (3, 3, 3), (17, 13, 11, 7)]:
        d = generate_sliced_lhd(SliceSizes(sizes), 3, RngStream(11))
        assert validate_sliced(d).all_pass


def test_sliced_lhd_single_run_slice():
    d = generate_sliced_lhd(SliceSizes((1,)), 2, RngStream(5))
    assert d.values.shape == (1, 2)
    assert np.array_equal(d.values, [[0.5, 0.5]])


def test_sliced_lhd_deterministic_and_seed_sensitive():
    sizes = SliceSizes((4, 6))
    a = generate_sliced_lhd(sizes, 3, RngStream(9))
    b = generate_sliced_lhd(sizes, 3, RngStream(9))
    c = generate_sliced_lhd(sizes, 3, RngStream(10))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sliced_lhd_columns_stable_under_dim_growth():
    # Streams split per (slice, column), so widening the design must not
    # perturb the columns already drawn.
    sizes = SliceSizes((5, 8))
    narrow = generate_sliced_lhd(sizes, 2, RngStream(3))
    wide = generate_sliced_lhd(sizes, 5, RngStream(3))
    assert np.array_equal(narrow.values, wide.values[:, :2])


def test_sliced_lhd_rejects_foreign_partition():
    # The partition argument is kept for calls written for the earlier
    # signature: partition_levels(sizes) changes nothing, any other is
    # rejected.
    sizes = SliceSizes((3, 4))
    part = partition_levels(sizes)
    same = generate_sliced_lhd(sizes, 2, RngStream(0), partition=part)
    assert np.array_equal(same.values, generate_sliced_lhd(sizes, 2, RngStream(0)).values)
    with pytest.raises(ValueError, match="^partition is not the partition"):
        generate_sliced_lhd(SliceSizes((4, 3)), 2, RngStream(0), partition=part)
    with pytest.raises(ValueError):
        generate_sliced_lhd(SliceSizes((3, 4)), 0, RngStream(0))


def test_midpoint_lhd_columns_are_midpoint_permutations():
    n = 9
    d = generate_midpoint_lhd(n, 4, RngStream(21))
    mids = level_midpoints(np.arange(1, n + 1), n)
    for l in range(4):
        assert np.array_equal(np.sort(d.values[:, l]), mids)
    assert validate_sliced(d).all_pass


def test_randomized_lhd_fills_bins_without_midpoints():
    n = 12
    d = generate_randomized_lhd(n, 3, RngStream(4))
    assert np.all(d.values > 0.0) and np.all(d.values <= 1.0)
    for l in range(3):
        assert is_lhd_column(d.values[:, l], n)
    # Jittered points essentially never all land on the midpoint grid.
    assert not validate_sliced(d).midpoints_exact


def test_independent_lhds_stratify_per_slice_only():
    d = generate_independent_lhds(SliceSizes((3, 4)), 2, RngStream(8))
    report = validate_sliced(d)
    assert all(all(row) for row in report.slice_ok)
    # Blocks live on their own grids, not the combined 7-level one.
    assert not report.midpoints_exact
    # With two equal binary slices the combined column always doubles bins.
    d22 = generate_independent_lhds(SliceSizes((2, 2)), 2, RngStream(8))
    r22 = validate_sliced(d22)
    assert not any(r22.column_ok)
    assert all(all(row) for row in r22.slice_ok)


def test_independent_lhds_decorrelate_flag_reduces_block_correlation():
    sizes = SliceSizes((9, 8))
    off = sizes.offsets()
    plain_sum = swept_sum = 0.0
    count = 0
    for seed in range(100):
        plain = generate_independent_lhds(sizes, 3, RngStream(seed))
        swept = generate_independent_lhds(sizes, 3, RngStream(seed), decorrelate=True)
        for j in range(sizes.t):
            plain_sum += rms_correlation(plain.values[off[j]:off[j + 1]])
            swept_sum += rms_correlation(swept.values[off[j]:off[j + 1]])
            count += 1
    assert swept_sum / count < plain_sum / count


def test_independent_lhds_keep_block_grids_under_decorrelation():
    sizes = SliceSizes((5, 6))
    off = sizes.offsets()
    d = generate_independent_lhds(sizes, 3, RngStream(2), decorrelate=True)
    for j, nj in enumerate(sizes.sizes):
        mids = level_midpoints(np.arange(1, nj + 1), nj)
        block = d.values[off[j]:off[j + 1]]
        for l in range(3):
            assert np.array_equal(np.sort(block[:, l]), mids)


def test_independent_lhds_decorrelate_skips_single_run_slices():
    # A one-run block has nothing to decorrelate; the other blocks are
    # swept on their own grids exactly as alone.
    sizes = SliceSizes((1, 5))
    plain = generate_independent_lhds(sizes, 3, RngStream(4))
    swept = generate_independent_lhds(sizes, 3, RngStream(4), decorrelate=True)
    assert np.array_equal(swept.values[:1], [[0.5, 0.5, 0.5]])
    own = SliceSizes((5,))
    ref, _ = reduce_correlations(Design(plain.values[1:], own))
    assert np.array_equal(swept.values[1:], ref.values)


def _per_block_independent_sweep(sizes, p, rng, iterations):
    # generate_independent_lhds(decorrelate=True) in its earlier form, kept
    # frozen as the oracle: each block of two or more runs swept alone, as
    # a one-slice design on its own grid.
    values = generate_independent_lhds(sizes, p, rng).values
    if p >= 2:
        for rows, mids in method_blocks("own", sizes):
            if mids.size < 2:
                continue
            own = SliceSizes((mids.size,))
            swept, _ = reduce_correlations(Design(values[rows], own), iterations=iterations)
            values[rows] = swept.values
    return values


# 1 is the unswept one-run block; 2**k - 1, 2**k and 2**k + 1 sit on either
# side of numpy's summation block sizes.
_SLICE_SIZES = st.one_of(
    st.sampled_from([1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65]), st.integers(1, 12)
)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(_SLICE_SIZES, min_size=1, max_size=5),
    p=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    iterations=st.integers(1, 10),
)
@example(sizes=[1, 1, 1], p=3, seed=0, iterations=10)
@example(sizes=[1], p=2, seed=0, iterations=1)
@example(sizes=[1, 6, 1, 3], p=3, seed=5, iterations=10)
@example(sizes=[65, 1, 17], p=6, seed=1, iterations=10)
def test_independent_lhds_sweep_in_one_call_equals_per_block_sweeps(sizes, p, seed, iterations):
    # Blocks are swept independently and a block at its fixed point maps to
    # itself, so one sweep of the whole stack equals sweeping each block
    # alone, bit for bit, one-run blocks and all-ones sizes included.
    sizes = SliceSizes(tuple(sizes))
    got = generate_independent_lhds(
        sizes, p, RngStream(seed), decorrelate=True, iterations=iterations
    )
    want = _per_block_independent_sweep(sizes, p, RngStream(seed), iterations)
    assert np.array_equal(got.values, want)


@pytest.mark.parametrize("sizes", [(2, 5, 10), (1, 4), (6,), (3, 1, 1, 7)])
def test_method_blocks_tile_the_rows_on_their_grids(sizes):
    sizes = SliceSizes(sizes)
    n = sizes.n
    full_grid = level_midpoints(np.arange(1, n + 1), n)
    for grid in ("full", "own", "sliced"):
        blocks = method_blocks(grid, sizes)
        assert np.array_equal(
            np.concatenate([np.arange(n)[rows] for rows, _ in blocks]), np.arange(n)
        )
        for rows, mids in blocks:
            assert mids.size == len(range(n)[rows])
    [(_, mids)] = method_blocks("full", sizes)
    assert np.array_equal(mids, full_grid)
    for (_, mids), nj in zip(method_blocks("own", sizes), sizes.sizes):
        assert np.array_equal(mids, level_midpoints(np.arange(1, nj + 1), nj))
    sliced = np.concatenate([mids for _, mids in method_blocks("sliced", sizes)])
    assert np.array_equal(np.sort(sliced), full_grid)
    with pytest.raises(ValueError, match="unknown grid"):
        method_blocks("half", sizes)


def test_midpoint_lhd_is_the_one_slice_sliced_lhd():
    for n, p, seed in [(1, 2, 0), (7, 3, 4), (30, 5, 9)]:
        single = generate_midpoint_lhd(n, p, RngStream(seed))
        sliced = generate_sliced_lhd(SliceSizes((n,)), p, RngStream(seed))
        assert single.sizes == sliced.sizes
        assert np.array_equal(single.values, sliced.values)


@pytest.mark.parametrize("p", [2.5, 2.0, True, "2"])
def test_generators_reject_non_integer_p(p):
    sizes, rng = SliceSizes((3, 4)), RngStream(1)
    for call in (
        lambda: generate_sliced_lhd(sizes, p, rng),
        lambda: generate_midpoint_lhd(7, p, rng),
        lambda: generate_randomized_lhd(7, p, rng),
        lambda: generate_independent_lhds(sizes, p, rng),
    ):
        with pytest.raises(ValueError, match="^p must be an integer"):
            call()


@pytest.mark.parametrize("n", [7.0, 6.5])
def test_single_slice_generators_reject_non_integer_n(n):
    for gen in (generate_midpoint_lhd, generate_randomized_lhd):
        with pytest.raises(ValueError, match="^n must be an integer"):
            gen(n, 2, RngStream(1))


@pytest.mark.parametrize("decorrelate", [False, True])
def test_independent_lhds_reject_non_integer_iterations(decorrelate):
    with pytest.raises(ValueError, match="^iterations must be an integer"):
        generate_independent_lhds(
            SliceSizes((3, 4)), 2, RngStream(1), decorrelate=decorrelate, iterations=2.5
        )


@pytest.mark.parametrize(
    "sizes, p, decorrelate, iterations",
    [
        ((3, 4), 1, True, 0),  # one column: no sweep runs
        ((1, 1), 2, True, -5),  # one-run slices: no sweep runs
        ((3, 4), 2, True, 0),
        ((3, 4), 2, False, 0),
    ],
)
def test_independent_lhds_reject_iterations_below_one(sizes, p, decorrelate, iterations):
    # Checked with p, whether or not a sweep runs.
    with pytest.raises(ValueError, match="^iterations must be >= 1$"):
        generate_independent_lhds(
            SliceSizes(sizes), p, RngStream(1), decorrelate=decorrelate, iterations=iterations
        )
