import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slicedlhd import (
    Design,
    ExperimentConfig,
    RngStream,
    SliceSizes,
    generate_independent_lhds,
    generate_randomized_lhd,
    generate_sliced_lhd,
    level_midpoints,
    levels_from_values,
    partition_levels,
    reduce_correlations,
    residualize,
    rms_correlation,
    validate_sliced,
)
from slicedlhd import benchmark, decorrelate
from slicedlhd.decorrelate import (
    _blas_dots,
    _einsum_dots,
    _rms,
    _slopes,
    _sweep_batch,
    _sweep_block,
    _swept,
)
from slicedlhd.generate import method_blocks

from _frozen_sweep import frozen_reduce_correlations, frozen_sweep_batch

from _goldens import (
    GROUPS_6_7,
    RESID_FIRST,
    RESID_STALE,
    SIZES_6_7,
    SWEEP_AFTER_FORWARD,
    SWEEP_FINAL,
    SWEEP_START,
)


def _sweep_design():
    sizes = SliceSizes(SIZES_6_7)
    return Design(SWEEP_START.copy(), sizes), partition_levels(sizes)


def test_walkthrough_partition_matches():
    _, part = _sweep_design()
    assert part.groups == GROUPS_6_7


def test_residualize_first_update_golden():
    block = SWEEP_START[:6]
    out = residualize(block[:, 0], block[:, 1])
    assert np.allclose(out, RESID_FIRST, atol=1e-3)
    # Residuals are exactly decorrelated from the covariate.
    assert abs(np.corrcoef(out, block[:, 1])[0, 1]) < 1e-12
    # The response mean is preserved.
    assert np.isclose(out.mean(), block[:, 0].mean())


def test_residualize_reads_pass_start_state():
    # Inside one pass every update reads the block as it stood when the
    # pass began, so the second update of column 1 regresses the ORIGINAL
    # column 1 on column 3 (not the already-updated column 1 on column 3).
    block = SWEEP_START[:6]
    out = residualize(block[:, 0], block[:, 2])
    assert np.allclose(out, RESID_STALE, atol=1e-3)
    chained = residualize(np.asarray(RESID_FIRST), block[:, 2])
    assert not np.allclose(chained, RESID_STALE, atol=1e-3)


def test_residualize_degenerate_inputs():
    one = np.array([0.4])
    assert np.array_equal(residualize(one, one), one)
    # A covariate of equal entries returns the response unchanged, although
    # three 0.7s centre to 1.1e-16 each: against [0.1, 0.2, 0.6] the general
    # path moved it by [1.4e-17, 2.8e-17, 0].
    for resp in (np.array([0.1, 0.9, 0.5]), np.array([0.1, 0.2, 0.6])):
        for const in (np.full(3, 0.5), np.full(3, 0.7)):
            out = residualize(resp, const)
            assert np.array_equal(out, resp)
            out[0] = -1.0  # a copy, not the input
            assert resp[0] == 0.1
    # Unequal entries whose centred squares underflow: the zero-denominator
    # return.
    tiny = np.array([1e-300, 2e-300, 1e-300])
    assert np.array_equal(residualize(resp, tiny), resp)
    with pytest.raises(ValueError):
        residualize(resp, np.array([0.1, 0.2]))


def test_rank_restore_golden():
    # The stale residual of column 1 ranks back onto slice 1's levels as the
    # first column of the post-restore matrix.
    out = rank_restore(np.asarray(RESID_STALE), GROUPS_6_7[0], 13)
    assert np.array_equal(out, SWEEP_AFTER_FORWARD[:6, 0])


def test_rank_restore_is_stable_on_ties():
    out = rank_restore(np.zeros(4), [7, 1, 5, 2], 8)
    # Constant input: positions keep their order, so sorted mids in place.
    assert np.array_equal(out, np.array([1, 3, 9, 13]) / 16.0)
    with pytest.raises(ValueError):
        rank_restore(np.zeros(3), [1, 2], 4)


def test_forward_pass_plus_restore_matches_golden():
    design, part = _sweep_design()
    values = design.values.copy()
    rows = design.sizes.rows
    p = design.p
    for j, grp in enumerate(part.groups):
        block = values[rows[j]]
        base = block.copy()
        for k in range(1, p):
            for l in range(k):
                block[:, l] = residualize(base[:, l], base[:, k])
        for l in range(p):
            block[:, l] = rank_restore(block[:, l], grp, design.n)
    assert np.array_equal(values, SWEEP_AFTER_FORWARD)


def test_ten_iterations_reach_golden_fixed_point():
    design, part = _sweep_design()
    out, trace = reduce_correlations(design, iterations=10)
    assert np.array_equal(out.values, SWEEP_FINAL)
    # The input design is untouched.
    assert np.array_equal(design.values, SWEEP_START)
    assert trace.iterations == 10
    assert len(trace.whole) == 11
    assert len(trace.per_slice) == 2
    assert all(len(row) == 11 for row in trace.per_slice)
    assert all(0.0 <= x <= 1.0 for x in trace.whole)
    # The sweep must actually help on this walkthrough.
    assert trace.whole[-1] < trace.whole[0]


def test_sweep_reduces_whole_design_correlation_on_average():
    sizes = SliceSizes((6, 7))
    before = after = 0.0
    for seed in range(100):
        d = generate_sliced_lhd(sizes, 3, RngStream(seed))
        out, trace = reduce_correlations(d, iterations=10)
        before += trace.whole[0]
        after += trace.whole[-1]
    assert after < before


def test_sweep_preserves_structure_fuzz():
    gen = np.random.Generator(np.random.Philox(77))
    for case in range(30):
        t = int(gen.integers(1, 5))
        sizes = SliceSizes(tuple(int(gen.integers(1, 9)) for _ in range(t)))
        if sizes.n < 2:
            continue
        p = int(gen.integers(2, 5))
        part = partition_levels(sizes)
        d = generate_sliced_lhd(sizes, p, RngStream(1000 + case))
        out, _ = reduce_correlations(d, iterations=3)
        assert validate_sliced(out).all_pass
        levels = levels_from_values(out.values, out.n)
        rows = sizes.rows
        for j in range(sizes.t):
            want = list(part.groups[j])
            for l in range(p):
                got = sorted(levels[rows[j], l].tolist())
                assert got == want


def _sweep_input(family, sizes, p, seed):
    # A design of each family cut into slices of ``sizes``. Only the sliced
    # family comes from a level partition: the independent family stacks
    # each slice's own grid, the jittered one holds no midpoints at all.
    rng = RngStream(seed)
    if family == "sliced":
        return generate_sliced_lhd(sizes, p, rng)
    if family == "independent":
        return generate_independent_lhds(sizes, p, rng)
    return Design(generate_randomized_lhd(sizes.n, p, rng).values, sizes)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["sliced", "independent", "jittered"]),
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=5).filter(lambda s: sum(s) >= 2),
    p=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    iterations=st.integers(1, 10),
)
@example(family="independent", sizes=[1, 6, 1], p=3, seed=0, iterations=10)
@example(family="jittered", sizes=[1, 1], p=2, seed=0, iterations=1)
def test_reduce_correlations_keeps_each_slice_level_multiset(family, sizes, p, seed, iterations):
    # Every column of every slice leaves the sweep holding exactly the
    # values it came in with, whatever made the design. So a sliced design
    # leaves on the full grid, holding its partition group's levels, and
    # stays sliced. A stack of one-run independent designs is constant,
    # which has no correlation to reduce.
    assume(family != "independent" or max(sizes) >= 2)
    sizes = SliceSizes(tuple(sizes))
    design = _sweep_input(family, sizes, p, seed)
    out, _ = reduce_correlations(design, iterations=iterations)
    rows = sizes.rows
    for j in range(sizes.t):
        got = np.sort(out.values[rows[j]], axis=0)
        assert np.array_equal(got, np.sort(design.values[rows[j]], axis=0)), j
    if family == "sliced":
        levels = levels_from_values(out.values, out.n)
        assert np.array_equal(out.values, level_midpoints(levels, out.n))
        for j, group in enumerate(partition_levels(sizes).groups):
            got = np.sort(levels[rows[j]], axis=0)
            assert np.array_equal(got, np.broadcast_to(np.asarray(group)[:, None], got.shape)), j


def test_sweep_handles_tiny_slices():
    sizes = SliceSizes((1, 1, 5))
    part = partition_levels(sizes)
    d = generate_sliced_lhd(sizes, 3, RngStream(0))
    out, trace = reduce_correlations(d, iterations=2)
    assert validate_sliced(out).all_pass
    # Single-row blocks cannot be correlated; their trace stays at zero.
    assert trace.per_slice[0] == (0.0,) * 3
    assert trace.per_slice[1] == (0.0,) * 3


def test_sweep_two_run_design():
    sizes = SliceSizes((2,))
    part = partition_levels(sizes)
    d = generate_sliced_lhd(sizes, 2, RngStream(0))
    out, trace = reduce_correlations(d, iterations=1)
    assert validate_sliced(out).all_pass
    # Two points are always perfectly correlated in magnitude.
    assert np.allclose(trace.whole, (1.0, 1.0))


_CONSTANT_MESSAGE = "^zero-variance column has undefined correlation$"


def test_constant_column_with_an_inexact_mean_is_rejected():
    # Three 0.1s have the mean 0.10000000000000002 and a std of 1.4e-17, not
    # 0: a std test let this column through, as 1.48e-16, and the sweep
    # swept it. Equal entries are the test.
    column = [[0.1, 0.2], [0.1, 0.5], [0.1, 0.3]]
    with pytest.raises(ValueError, match=_CONSTANT_MESSAGE):
        rms_correlation(column)
    # As a whole-design column, and as the column of a 3-row slice whose
    # design column is not constant.
    with pytest.raises(ValueError, match=_CONSTANT_MESSAGE):
        reduce_correlations(Design(np.array(column), SliceSizes((3,))))
    with pytest.raises(ValueError, match=_CONSTANT_MESSAGE):
        reduce_correlations(Design(np.array(column + [[0.7, 0.9]]), SliceSizes((3, 1))))


def rank_restore(values, group_levels, n):
    # The literal rank-restore step: the u-th smallest entry of values
    # becomes the u-th smallest midpoint (2g-1)/(2n) of the integer levels
    # group_levels, ties broken by position (stable sort).
    vals = np.asarray(values, dtype=np.float64)
    levels = np.sort(np.asarray(group_levels, dtype=np.int64))
    if vals.ndim != 1 or vals.size != levels.size:
        raise ValueError("values and group_levels must have equal length")
    out = np.empty_like(vals)
    out[np.argsort(vals, kind="stable")] = level_midpoints(levels, n)
    return out


def _literal_sweep(design, part, iterations):
    # reduce_correlations as the literal (k, l) loops of the module
    # docstring, every write made and every iteration run, with its trace.
    values = design.values.copy()
    p, n = design.p, design.n
    blocks = [values[rows] for rows in design.sizes.rows]

    def block_rms(block):
        return rms_correlation(block) if block.shape[0] > 1 else 0.0

    whole = [rms_correlation(values)]
    per_slice = [[block_rms(b)] for b in blocks]
    forward = [(k, l) for k in range(1, p) for l in range(k)]
    backward = [(k, l) for k in range(p - 2, -1, -1) for l in range(p - 1, k, -1)]
    for _ in range(iterations):
        for pairs in (forward, backward):
            for block in blocks:
                if block.shape[0] < 2:
                    continue
                base = block.copy()
                for k, l in pairs:
                    block[:, l] = residualize(base[:, l], base[:, k])
            for j, block in enumerate(blocks):
                for l in range(p):
                    block[:, l] = rank_restore(block[:, l], part.groups[j], n)
        whole.append(rms_correlation(values))
        for row, block in zip(per_slice, blocks):
            row.append(block_rms(block))
    return values, tuple(whole), tuple(map(tuple, per_slice))


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 60), min_size=1, max_size=6).filter(lambda s: sum(s) >= 2),
    p=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    first=st.integers(0, 200),
    iterations=st.integers(1, 10),
)
@example(sizes=[5, 1, 4], p=2, seed=3, first=97, iterations=10)
@example(sizes=[1, 6, 1], p=4, seed=0, first=0, iterations=10)
def test_reduce_correlations_equals_literal_loops(sizes, p, seed, first, iterations):
    # Computing only the surviving write per (pass, l) must leave values and
    # traces bit for bit as the literal loops leave them. The first example
    # is the known exact residual tie, the second has one-row slices.
    sizes = SliceSizes(tuple(sizes))
    part = partition_levels(sizes)
    design = generate_sliced_lhd(sizes, p, RngStream(seed).split(first))
    out, trace = reduce_correlations(design, iterations=iterations)
    values, whole, per_slice = _literal_sweep(design, part, iterations)
    assert np.array_equal(out.values, values)
    assert trace.whole == whole
    assert trace.per_slice == per_slice


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 60), min_size=1, max_size=6).filter(lambda s: sum(s) >= 2),
    p=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    first=st.integers(0, 200),
    iterations=st.integers(1, 10),
)
@example(sizes=[5, 1, 4], p=2, seed=3, first=97, iterations=10)
@example(sizes=[1, 6, 1], p=4, seed=0, first=0, iterations=10)
def test_swept_equals_reduce_correlations(sizes, p, seed, first, iterations):
    # The command line's trace-free sweep returns reduce_correlations'
    # design bit for bit. On the first example the batch sweep's einsum
    # slopes order an exact residual tie the other way, so the test fails
    # if _swept ever sweeps with them.
    design = generate_sliced_lhd(SliceSizes(tuple(sizes)), p, RngStream(seed).split(first))
    want = reduce_correlations(design, iterations=iterations)[0].values
    assert np.array_equal(_swept(design, iterations).values, want)
    if (sizes, p, seed, first) == ([5, 1, 4], 2, 3, 97):
        einsum = design.values.copy()
        rows = design.sizes.rows
        _sweep_batch(einsum[None], [(r, np.sort(einsum[r].T, axis=1)) for r in rows], iterations)
        assert not np.array_equal(einsum, want)


@pytest.mark.parametrize(
    "values, sizes, message",
    [
        ([[0.1, 0.2], [np.nan, 0.5], [0.3, 0.9]], (3,), "^matrix values must be finite$"),
        ([[0.1, 0.2], [0.1, 0.5], [0.1, 0.3]], (3,), _CONSTANT_MESSAGE),
        ([[0.1, 0.2], [0.1, 0.5], [0.1, 0.3], [0.7, 0.9]], (3, 1), _CONSTANT_MESSAGE),
        ([[0.1, 0.2]], (1,), "^need at least two rows to correlate$"),
        ([[0.1], [0.5]], (2,), "^need a matrix with at least two columns$"),
    ],
    ids=["nan", "constant-column", "constant-slice-column", "one-row", "one-column"],
)
def test_swept_raises_rms_correlations_messages(values, sizes, message):
    design = Design(np.array(values), SliceSizes(sizes))
    for sweep in (reduce_correlations, lambda d: _swept(d, 10)):
        with pytest.raises(ValueError, match=message):
            sweep(design)


def test_sweep_input_checks():
    design, _ = _sweep_design()
    with pytest.raises(ValueError):
        reduce_correlations(design, iterations=0)
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match="^iterations must be an integer"):
            reduce_correlations(design, iterations=bad)
    with pytest.raises(ValueError):
        reduce_correlations(Design(design.values[:, :1], design.sizes))
    with pytest.raises(ValueError, match="^zero-variance column has undefined correlation$"):
        reduce_correlations(Design(np.full((2, 2), 0.5), SliceSizes((1, 1))))
    for bad in (np.nan, np.inf, -np.inf):
        values = design.values.copy()
        values[4, 1] = bad
        with pytest.raises(ValueError, match="^matrix values must be finite$"):
            reduce_correlations(Design(values, design.sizes))


def test_partition_argument_is_checked_and_unused():
    # Still accepted for calls written for the earlier signature: the
    # design's own partition changes nothing, one of other slice sizes or
    # anything but a LevelPartition is rejected.
    design, part = _sweep_design()
    out, trace = reduce_correlations(design, part, iterations=10)
    assert np.array_equal(out.values, SWEEP_FINAL)
    assert trace == reduce_correlations(design)[1]
    with pytest.raises(ValueError, match="^partition slice sizes do not match the design$"):
        reduce_correlations(design, partition_levels(SliceSizes((7, 6))))
    for bad in ("x", GROUPS_6_7):
        with pytest.raises(ValueError, match="^partition must be a LevelPartition, got "):
            reduce_correlations(design, bad)


def test_rms_correlation_basics():
    m = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
    assert np.isclose(rms_correlation(m), 1.0)
    anti = np.array([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])
    assert np.isclose(rms_correlation(anti), 1.0)
    with pytest.raises(ValueError):
        rms_correlation(m[:, :1])
    with pytest.raises(ValueError):
        rms_correlation(m[:1])
    with pytest.raises(ValueError):
        rms_correlation(np.array([[0.1, 0.5], [0.1, 0.7]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rms_correlation_rejects_non_finite_values(bad):
    # Unchecked, a NaN came back as a NaN correlation without an error.
    with pytest.raises(ValueError, match="^matrix values must be finite$"):
        rms_correlation([[bad, 1.0], [2.0, 3.0], [1.0, 0.5]])


def _centred(block):
    # A sweep state (1, p, n_j) of ``block`` (n_j, p), centred as a pass does.
    state = block.T[None].copy()
    return state - np.add.reduce(state, axis=2, keepdims=True) / state.shape[2]


def test_slope_kernels_split_the_known_tie():
    # The one place the library and the batch sweep differ is the dot kernel
    # of the slopes. On the first forward pass of the first slice of sizes
    # (5,1,4), p = 2, RngStream(3).split(97), the BLAS dot gives exactly
    # -0.5 and the row-wise einsum one ulp nearer 0. That bit decides the order
    # of exactly tied residuals, so the two sweeps can return different
    # designs, and each kernel keeps its pinned outputs.
    design = generate_sliced_lhd(SliceSizes((5, 1, 4)), 2, RngStream(3).split(97))
    centred = _centred(design.values[:5])
    assert _slopes(_blas_dots(centred, 1), 1, slice(0, 1)).tolist() == [[-0.5]]
    assert _slopes(_einsum_dots(centred, 1), 1, slice(0, 1)).tolist() == [[-0.5 + 2.0**-54]]


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 4),
    n_j=st.integers(2, 60),
    p=st.integers(2, 8),
    covariate=st.sampled_from(["first", "last"]),
    constant=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_slope_kernels_agree_to_rounding(m, n_j, p, covariate, constant, seed):
    # Apart from their last bits the two kernels give the same slopes, and
    # both give 0 on a constant covariate, replicate by replicate.
    blocks = np.random.default_rng(seed).random((m, n_j, p))
    cov, responses = (0, slice(1, p)) if covariate == "first" else (p - 1, slice(0, p - 1))
    if constant:
        blocks[:, :, cov] = 0.25
    centred = np.concatenate([_centred(block) for block in blocks])
    blas = _slopes(_blas_dots(centred, cov), cov, responses)
    einsum = _slopes(_einsum_dots(centred, cov), cov, responses)
    assert blas.shape == einsum.shape == (m, p - 1)
    for i in range(m):
        cd = centred[i, cov]
        den = float(cd @ cd)
        if den == 0.0:
            assert not blas[i].any() and not einsum[i].any()
            continue
        bound = 1e-12 * np.linalg.norm(cd) * np.linalg.norm(centred[i, responses], axis=1) / den
        assert np.all(np.abs(blas[i] - einsum[i]) <= bound)


def _dot_cases():
    # (m, p, n_j): short rows, rows either side of the lengths where a dot
    # kernel's unrolled loops and blocks end, and long rows, each at m = 1,
    # 2 and 40; then one block the size of an n = 10^6 design's slices.
    sizes = [*range(2, 34), 127, 128, 129, 4095, 4096, 4097, 65537]
    yield from ((m, 3, n_j) for m in (1, 2, 40) for n_j in sizes)
    yield 1, 3, 250_000


@pytest.mark.parametrize("covariate", [0, 2], ids=["first", "last"])
def test_blas_dots_are_residualizes_dots_bit_for_bit(covariate):
    # The library kernel's one stacked matmul must give, for every row, the
    # bits of the 1-D dot ``cd @ row`` that residualize takes. A 2-D form
    # such as ``centred @ cd[..., None]`` runs a gemv and sums in another
    # order.
    rng = np.random.default_rng(covariate)
    for m, p, n_j in _dot_cases():
        centred = rng.random((m, p, n_j)) - 0.5
        got = _blas_dots(centred, covariate)
        want = [[float(centred[i, covariate] @ row) for row in centred[i]] for i in range(m)]
        assert got.shape == (m, p)
        assert got.tolist() == want, (
            f"(m, p, n_j) = {(m, p, n_j)}: _blas_dots differs from residualize's 1-D dots "
            "(a gemv form such as centred @ cd[..., None] does)"
        )


def test_batch_sweep_matches_reference_exactly():
    cases = [((2, 5, 10), 3), ((6, 7), 4), ((9, 7, 6), 2), ((4,), 3)]
    for sizes_tuple, p in cases:
        sizes = SliceSizes(sizes_tuple)
        designs = [
            generate_sliced_lhd(sizes, p, RngStream(seed))
            for seed in range(6)
        ]
        stacked = np.stack([d.values for d in designs])
        blocks = method_blocks("sliced", sizes)
        _sweep_batch(stacked, blocks, iterations=10)
        for r, d in enumerate(designs):
            ref, _ = reduce_correlations(d, iterations=10)
            assert np.array_equal(stacked[r], ref.values), (sizes_tuple, p, r)


def _reference_iteration(state, blocks):
    # One four-step iteration of the batch sweep in its earlier
    # column-by-column form, on state (m, n, p) in place, kept here frozen
    # as the oracle for _sweep_batch: per response column, on strided row
    # views of the whole batch. The einsum row reductions set the tie order
    # the pinned RMSE bits depend on, so the sweep must match this bit for
    # bit.
    p = state.shape[2]

    def resid_rows(resp, cov):
        cd = cov - cov.mean(axis=1, keepdims=True)
        rd = resp - resp.mean(axis=1, keepdims=True)
        den = np.einsum("ij,ij->i", cd, cd)
        num = np.einsum("ij,ij->i", cd, rd)
        slope = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        return resp - slope[:, None] * cd

    def residual_pass(covariate, responses):
        for rows, mids in blocks:
            if mids.size < 2:
                continue
            base = state[:, rows, :].copy()
            for l in responses:
                state[:, rows, l] = resid_rows(base[:, :, l], base[:, :, covariate])

    def restore():
        for rows, mids in blocks:
            block = state[:, rows, :]
            order = np.argsort(block, axis=1, kind="stable")
            np.put_along_axis(
                block, order, np.broadcast_to(mids[None, :, None], block.shape), axis=1
            )

    residual_pass(p - 1, range(p - 1))
    restore()
    residual_pass(0, range(1, p))
    restore()


def _unchunked_sweep(stacked, blocks, iterations):
    # The reference sweep without chunks or early exit: every replicate runs
    # every iteration, the whole batch at once.
    out = stacked.copy()
    for _ in range(iterations):
        _reference_iteration(out, blocks)
    return out


def _assert_chunked_sweep_is_exact(stacked, blocks, iterations):
    want = _unchunked_sweep(stacked, blocks, iterations)
    alone = [_sweep_batch(d[None].copy(), blocks, iterations)[0] for d in stacked]
    _sweep_batch(stacked, blocks, iterations=iterations)
    assert np.array_equal(stacked, want)
    assert np.array_equal(stacked, np.stack(alone))


def _draw(grid, sizes, p, stream):
    # One design on the rows and midpoints of method_blocks(grid, sizes).
    if grid == "full":
        return generate_sliced_lhd(SliceSizes((sizes.n,)), p, stream).values
    if grid == "own":
        return generate_independent_lhds(sizes, p, stream).values
    return generate_sliced_lhd(sizes, p, stream).values


# numpy sums up to 8 terms one by one, up to 128 in 8 unrolled partial sums
# and more by halving, so block sizes on either side of 8 and 128 take each
# summation path; 1 is the unswept single-run block.
_BLOCK_SIZES = st.one_of(
    st.sampled_from([1, 2, 7, 8, 9, 127, 128, 129, 130, 257]), st.integers(1, 40)
)


@settings(max_examples=80, deadline=None)
@given(
    grid=st.sampled_from(["full", "own", "sliced"]),
    sizes=st.lists(_BLOCK_SIZES, min_size=1, max_size=4).filter(lambda s: sum(s) >= 2),
    p=st.integers(2, 8),
    R=st.integers(1, 9),
    fixed=st.lists(st.booleans(), min_size=9, max_size=9),
    seed=st.integers(0, 2**32 - 1),
    first=st.integers(0, 200),
    iterations=st.integers(1, 10),
)
@example(grid="sliced", sizes=[5, 1, 4], p=2, R=1,
         fixed=[False] * 9, seed=3, first=97, iterations=10)
@example(grid="sliced", sizes=[6, 7], p=5, R=1,
         fixed=[False] * 9, seed=0, first=0, iterations=10)
@example(grid="full", sizes=[9, 7, 6], p=5, R=1,
         fixed=[False] * 9, seed=0, first=0, iterations=10)
def test_chunked_batch_sweep_equals_unchunked_sweep(
    grid, sizes, p, R, fixed, seed, first, iterations
):
    # The oracle is the frozen reference iteration, run unchunked. Replicate
    # r is the design of RngStream(seed).split(first + r), so the example is
    # the known exact residual tie: sizes (5,1,4), p = 2, split 97. The
    # batch must equal its replicates swept one at a time, as any chunk of
    # the benchmark's sweeps them. Some replicates start at a fixed point
    # (30 frozen-sweep iterations in), so they leave the active set after
    # their first iteration.
    sizes = SliceSizes(tuple(sizes))
    blocks = method_blocks(grid, sizes)
    stacked = np.stack([_draw(grid, sizes, p, RngStream(seed).split(first + r)) for r in range(R)])
    for r in range(R):
        if fixed[r % len(fixed)]:
            frozen_sweep_batch(stacked[r:r + 1], blocks, 30)
    _assert_chunked_sweep_is_exact(stacked, blocks, iterations)


@settings(max_examples=40, deadline=None)
@given(
    grid=st.sampled_from(["full", "own", "sliced"]),
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=5).filter(lambda s: sum(s) >= 2),
    p=st.integers(2, 8),
    R=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    iterations=st.integers(1, 10),
)
def test_batch_sweep_keeps_each_block_midpoint_multiset(grid, sizes, p, R, seed, iterations):
    # Rank restoration puts every swept block's midpoints back, each once,
    # in every column: the sweep never touches stratification.
    sizes = SliceSizes(tuple(sizes))
    blocks = method_blocks(grid, sizes)
    stacked = np.stack([_draw(grid, sizes, p, RngStream(seed).split(r)) for r in range(R)])
    _sweep_batch(stacked, blocks, iterations=iterations)
    for rows, mids in blocks:
        got = np.sort(stacked[:, rows, :], axis=1)
        assert np.array_equal(got, np.broadcast_to(mids[None, :, None], got.shape))


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    p=st.integers(2, 4),
    R=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=[1, 6, 1, 3], p=3, R=5, seed=5)
def test_one_sweep_over_own_grid_blocks_equals_per_block_sweeps(sizes, p, R, seed):
    # ICLH sweeps all its own-grid blocks in one call. Blocks are swept
    # independently and a block at its fixed point maps to itself, so this
    # equals sweeping each block's rows alone, single-run blocks included.
    sizes = SliceSizes(tuple(sizes))
    blocks = method_blocks("own", sizes)
    stacked = np.stack([
        generate_independent_lhds(sizes, p, RngStream(seed).split(r)).values for r in range(R)
    ])
    per_block = stacked.copy()
    for rows, mids in blocks:
        _sweep_batch(per_block[:, rows, :], [(slice(0, mids.size), mids)])
    _sweep_batch(stacked, blocks)
    assert np.array_equal(stacked, per_block)


# A few hundred replicates of the exact-tie sizes (5,1,4), p = 2: one call
# sweeps a batch of any size exactly, as each benchmark chunk relies on.
@pytest.mark.parametrize("R", [255, 256, 257])
def test_chunked_batch_sweep_is_exact_at_chunk_size(R):
    sizes = SliceSizes((5, 1, 4))
    stacked = np.stack([
        generate_sliced_lhd(sizes, 2, RngStream(3).split(r)).values
        for r in range(R)
    ])
    blocks = method_blocks("sliced", sizes)
    _assert_chunked_sweep_is_exact(stacked, blocks, iterations=10)


def test_sweep_of_a_fixed_point_changes_nothing():
    design, _ = _sweep_design()
    fixed = Design(SWEEP_FINAL.copy(), design.sizes)
    out, trace = reduce_correlations(fixed, iterations=5)
    assert np.array_equal(out.values, SWEEP_FINAL)
    assert trace.whole == (trace.whole[0],) * 6
    assert all(row == (row[0],) * 6 for row in trace.per_slice)
    stacked = np.stack([SWEEP_FINAL, SWEEP_START, SWEEP_FINAL])
    blocks = method_blocks("sliced", design.sizes)
    _sweep_batch(stacked, blocks, iterations=10)
    assert np.array_equal(stacked[0], SWEEP_FINAL)
    assert np.array_equal(stacked[1], SWEEP_FINAL)
    assert np.array_equal(stacked[2], SWEEP_FINAL)


def test_trace_repeats_its_tail_after_the_fixed_point():
    # The oracle recomputes every trace entry from the state reached by
    # one-iteration steps, so padding must equal what the sweep would
    # have measured had it kept iterating.
    design, part = _sweep_design()
    iterations = 15
    _, trace = reduce_correlations(design, iterations=iterations)
    assert trace.iterations == iterations
    assert len(trace.whole) == iterations + 1
    assert all(len(row) == iterations + 1 for row in trace.per_slice)
    rows = design.sizes.rows
    state = design
    for k in range(iterations + 1):
        if k:
            state, _ = reduce_correlations(state, iterations=1)
        assert trace.whole[k] == rms_correlation(state.values), k
        for j, row in enumerate(trace.per_slice):
            block = state.values[rows[j]]
            assert row[k] == (rms_correlation(block) if block.shape[0] > 1 else 0.0)
    fixed_at = next(
        k for k in range(1, iterations + 1) if trace.whole[k] == trace.whole[k - 1]
    )
    assert fixed_at < iterations
    assert trace.whole[fixed_at:] == (trace.whole[fixed_at],) * (iterations + 1 - fixed_at)


def test_trace_entries_hold_when_slices_stop_at_different_iterations():
    # Each slice drops out at its own fixed point and repeats its last
    # entry. The oracle recomputes every entry from the state reached by
    # one-iteration steps, as in test_trace_repeats_its_tail_after_the_fixed_point.
    sizes = SliceSizes((4, 9, 20))
    design = generate_sliced_lhd(sizes, 3, RngStream(3))
    iterations = 8
    _, trace = reduce_correlations(design, iterations=iterations)
    rows = design.sizes.rows
    states = [design.values]
    for _ in range(iterations):
        states.append(reduce_correlations(Design(states[-1], sizes), iterations=1)[0].values)
    for k, values in enumerate(states):
        assert trace.whole[k] == rms_correlation(values), k
        for j, row in enumerate(trace.per_slice):
            assert row[k] == rms_correlation(values[rows[j]]), (k, j)
    # The first iteration that leaves each slice unchanged: distinct, and
    # each within the run, so the per-slice stop is what the trace shows.
    stops = [
        next(k for k in range(1, iterations + 1)
             if np.array_equal(states[k][rows[j]], states[k - 1][rows[j]]))
        for j in range(sizes.t)
    ]
    assert len(set(stops)) == sizes.t


def test_sweep_block_returns_whether_a_replicate_still_moves():
    # A stack of the walkthrough's fixed point stops at once, in place; its
    # start still moves after one iteration.
    sizes = SliceSizes(SIZES_6_7)
    for rows, mids in method_blocks("sliced", sizes):
        dest = np.stack([SWEEP_FINAL[rows]] * 3)
        assert _sweep_block(dest, mids, 1, _einsum_dots) is False
        assert np.array_equal(dest, np.broadcast_to(SWEEP_FINAL[rows], dest.shape))
        dest = SWEEP_START[None, rows].copy()
        assert _sweep_block(dest, mids, 1, _blas_dots) is True
        assert not np.array_equal(dest[0], SWEEP_START[rows])
    # A batch whose replicates stop at different iterations: one call of k
    # iterations writes back each replicate as k one-iteration calls leave
    # it alone, and returns True while any of them has not yet stopped.
    # states[k] is a replicate after k one-iteration calls, up to the call
    # that returned False.
    sizes = SliceSizes((12,))
    (_, mids), = method_blocks("full", sizes)
    stacked = np.stack([_draw("full", sizes, 5, RngStream(4).split(r)) for r in range(8)])
    alone = []
    for design in stacked:
        states = [design[None]]
        moving = True
        while moving:
            states.append(states[-1].copy())
            moving = _sweep_block(states[-1], mids, 1, _einsum_dots)
        alone.append(states)
    stops = [len(states) - 1 for states in alone]
    assert len(set(stops)) > 2
    for k in range(1, max(stops) + 1):
        batch = stacked.copy()
        assert _sweep_block(batch, mids, k, _einsum_dots) is (k < max(stops)), k
        want = np.stack([states[min(k, len(states) - 1)][0] for states in alone])
        assert np.array_equal(batch, want), k
    # Swept to convergence, the batch is at its fixed point.
    assert _sweep_block(batch, mids, 1, _einsum_dots) is False
    assert np.array_equal(batch, want)


def _settled(block, targets, dots):
    # ``block`` (1, n_j, p) moved to its fixed point under ``dots``, by a
    # batch of two copies of it (or 30 iterations in, where it has none);
    # returns whether it is there.
    twice = np.concatenate([block] * 2)
    own = np.concatenate([targets] * 2) if targets.ndim == 3 else targets
    moving = _sweep_block(twice, own, 30, dots)
    block[0] = twice[0]
    return not moving


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 60), min_size=1, max_size=4),
    p=st.integers(2, 8),
    R=st.integers(2, 5),
    fixed=st.lists(st.booleans(), min_size=5, max_size=5),
    kind=st.sampled_from(["row", "columns", "own"]),
    dots=st.sampled_from([_blas_dots, _einsum_dots]),
    seed=st.integers(0, 2**32 - 1),
    first=st.integers(0, 200),
    iterations=st.sampled_from([1, 10]),
)
@example(sizes=[5, 1, 4], p=2, R=2, fixed=[False] * 5, kind="columns", dots=_blas_dots,
         seed=3, first=97, iterations=10)
@example(sizes=[5, 1, 4], p=2, R=2, fixed=[False] * 5, kind="columns", dots=_blas_dots,
         seed=3, first=97, iterations=1)
@example(sizes=[5, 1, 4], p=2, R=2, fixed=[False] * 5, kind="row", dots=_einsum_dots,
         seed=3, first=97, iterations=10)
@example(sizes=[6, 7], p=4, R=3, fixed=[True] * 5, kind="columns", dots=_blas_dots,
         seed=0, first=0, iterations=1)
@example(sizes=[6, 7], p=4, R=3, fixed=[True] * 5, kind="own", dots=_einsum_dots,
         seed=0, first=0, iterations=10)
def test_a_replicate_swept_alone_equals_it_swept_in_a_batch(sizes, p, R, fixed, kind, dots, seed,
                                                             first, iterations):
    # A block of one replicate is swept on its own (p, n_j) state, without
    # the batch's bookkeeping; it must leave each replicate, bit for bit, as
    # a batch of several does, under either dot kernel, for one iteration
    # (reduce_correlations' call) and for ten (_swept's). Its flag must say
    # whether it still moves: the batch moves iff some replicate does, and a
    # stack of two copies of a replicate as that replicate alone. The first
    # examples are the exact residual tie of the library kernel (slice 0 of
    # sizes (5, 1, 4), p = 2, RngStream(3).split(97)); a ``fixed`` replicate
    # starts at its own fixed point, so the one-replicate call stops after
    # its first backward pass.
    sizes = SliceSizes(tuple(sizes))
    stacked = np.stack([_draw("sliced", sizes, p, RngStream(seed).split(first + r))
                        for r in range(R)])
    for rows, mids in method_blocks("sliced", sizes):
        if mids.size < 2:
            continue
        if kind == "row":
            targets = [mids] * R
        elif kind == "columns":
            targets = [np.tile(mids, (p, 1))] * R
        else:  # each replicate its own columns: its block's, sorted
            targets = [np.sort(stacked[r, rows].T, axis=1)[None] for r in range(R)]
        blocks = stacked[:, rows, :].copy()
        settled = [fixed[r] and _settled(blocks[r:r + 1], targets[r], dots) for r in range(R)]
        batch = blocks.copy()
        batch_targets = np.concatenate(targets) if kind == "own" else targets[0]
        moves = _sweep_block(batch, batch_targets, iterations, dots)
        flags = []
        for r in range(R):
            alone = blocks[r:r + 1].copy()
            flags.append(_sweep_block(alone, targets[r], iterations, dots))
            assert alone[0].tobytes() == batch[r].tobytes(), (rows, r)
            twice = np.concatenate([blocks[r:r + 1]] * 2)
            two_targets = np.concatenate([targets[r]] * 2) if kind == "own" else targets[r]
            assert _sweep_block(twice, two_targets, iterations, dots) is flags[-1], (rows, r)
            if settled[r]:
                assert flags[-1] is False
        assert moves is any(flags), rows


def test_reduce_correlations_holds_no_sweep_state_between_iterations():
    # The sweep copies the design once and each slice's sorted columns once;
    # a slice's sweep states live only through its own call, and each trace
    # entry's _rms copies the design. So 4 iterations on 4 slices of 20,000
    # runs peak near 3.1 times the design's bytes. Keeping every live
    # slice's state from one iteration to the next adds one more copy of the
    # design, and peaks near 4.6 times.
    design = generate_sliced_lhd(SliceSizes((20000,) * 4), 3, RngStream(3))
    tracemalloc.start()
    try:
        reduce_correlations(design, iterations=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = design.values.nbytes
    assert peak < 4 * nbytes, peak / nbytes


_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name, R, want", [
    ("table1-f2", 320, {"CLH": 997, "ICLH": 2750, "CSLH": 2732}),
    ("table1-f1", 40, {"CLH": 256, "ICLH": 875, "CSLH": 853}),
])
def test_batch_sweep_stops_at_the_first_repeated_pass(monkeypatch, name, R, want):
    # A replicate leaves the batch at the first forward or backward pass
    # that repeats its own previous output. The counts are replicate-passes
    # (a pass over m replicates counts m) over the benchmark's draws.
    # Stopping only after a whole iteration that leaves a replicate as it
    # was gives the same designs, but 1,202 / 3,298 / 3,272 passes on f2 and
    # 274 / 936 / 920 on f1.
    passes = []
    residual_pass = decorrelate._residual_pass
    monkeypatch.setattr(decorrelate, "_residual_pass",
                        lambda state, *rest: passes.append(len(state)) or residual_pass(state, *rest))
    cfg = ExperimentConfig.from_path(_CONFIGS / f"{name}.cfg")
    got = {}
    for method in want:
        blocks = method_blocks(benchmark._METHODS[method][1], cfg.sizes)
        V, _, _ = benchmark._draws(method, cfg, blocks, range(R))
        passes.clear()
        _sweep_batch(V, blocks)
        got[method] = sum(passes)
    assert got == want


def _stable_order(out, rows, starts):
    # The oracle: numpy's stable argsort of every row, as flat indices.
    order = rows.argsort(axis=-1, kind="stable")
    order += starts
    return order


def _restore_case(rows):
    # (out, rows, starts) for rows (m, r, n_j) as the response rows 1..r of
    # an (m, r + 1, n_j) pass output, as a backward pass reads them.
    m, r, n_j = rows.shape
    out = np.random.default_rng(0).random((m, r + 1, n_j))
    out[:, 1:] = rows
    starts = np.arange(0, out.size, n_j).reshape(m, r + 1, 1)[:, 1:]
    return out, out[:, 1:], starts


def _assert_tie_checked_order_is_stable(rows, reorders=True):
    out, view, starts = _restore_case(np.asarray(rows, dtype=np.float64))
    want = _stable_order(out, view, starts)
    if reorders:
        # numpy's default sort alone would break the stable order here, so
        # the case needs the tie fallback.
        assert not np.array_equal(view.argsort(axis=-1) + starts, want)
    assert np.array_equal(decorrelate._tie_checked_order(out, view, starts), want)


@pytest.mark.parametrize("n_j", [7, 17, 48, 1000])
@pytest.mark.parametrize("piece", [None, 1, 200])
def test_tie_checked_order_is_stable_on_injected_ties(monkeypatch, n_j, piece):
    # Small integers stored as floats: nearly every row holds equal pairs.
    # The keys are checked a piece of whole replicates at a time, and a
    # piece smaller than one replicate is one replicate.
    if piece is not None:
        monkeypatch.setattr(decorrelate, "_TIE_PIECE", piece)
    rng = np.random.default_rng(n_j)
    _assert_tie_checked_order_is_stable(rng.integers(0, 5, (50, 4, n_j)))


def test_tie_checked_order_is_stable_on_signed_zeros():
    # +0.0 and -0.0 compare equal, so a row holding both is a tied row: the
    # stable order keeps them by position.
    rng = np.random.default_rng(1)
    rows = rng.random((40, 3, 64)) - 0.5
    zeros = rng.integers(0, 64, (40, 3, 6))
    np.put_along_axis(rows, zeros[..., :3], 0.0, axis=-1)
    np.put_along_axis(rows, zeros[..., 3:], -0.0, axis=-1)
    _assert_tie_checked_order_is_stable(rows)


@pytest.mark.parametrize("value", [0.0, -0.0, 0.5])
def test_tie_checked_order_is_stable_on_all_equal_rows(value):
    # numpy's default sort may keep an all-equal row in place; the rows are
    # tied either way.
    _assert_tie_checked_order_is_stable(np.full((30, 2, 48), value), reorders=False)


def test_tie_checked_order_sorts_again_only_the_tied_row(monkeypatch):
    # One tied row in the middle of a large call, in the second of its
    # three pieces of keys: it alone is sorted again, and the rows around it keep numpy's
    # default order (the one order of a row without an equal pair).
    rng = np.random.default_rng(2)
    rows = rng.random((100, 4, 48))
    rows[57, 2] = rng.integers(0, 3, 48)
    step = decorrelate._TIE_PIECE // (4 * 48)  # replicates a piece
    assert 57 // step == 1 and 100 > 2 * step
    stable_sorts = []
    argsort = np.ndarray.argsort

    class Rows(np.ndarray):
        def argsort(self, *args, **kwargs):
            if kwargs.get("kind") == "stable":
                stable_sorts.append(self.shape)
            return argsort(np.asarray(self), *args, **kwargs)

    out, view, starts = _restore_case(rows)
    want = _stable_order(out, view, starts)
    assert not np.array_equal(view.argsort(axis=-1) + starts, want)
    got = decorrelate._tie_checked_order(out, view.view(Rows), starts)
    assert np.array_equal(got, want)
    assert stable_sorts == [(1, 48)]
    # A call without a tie sorts nothing again.
    rows[57, 2] = rng.random(48)
    _assert_tie_checked_order_is_stable(rows, reorders=False)


def _pass_case(m, p, n_j, seed, dots):
    # A pass input whose covariate row (0) is constant, so its slopes are 0
    # and every residual row is its response row: small integers as
    # floats, full of ties.
    rng = np.random.default_rng(seed)
    state = rng.integers(0, 4, (m, p, n_j)).astype(np.float64)
    state[:, 0] = 0.5
    targets = np.broadcast_to(np.arange(n_j) / n_j, (p - 1, n_j))
    starts = np.arange(0, state.size, n_j).reshape(m, p, 1)[:, 1:]
    return state, (0, slice(1, p), targets, starts, dots)


def _calls_of_the_tie_check(monkeypatch):
    calls = []
    checked = decorrelate._tie_checked_order

    def spy(out, rows, starts):
        calls.append(rows.shape)
        return checked(out, rows, starts)

    monkeypatch.setattr(decorrelate, "_tie_checked_order", spy)
    return calls


def _rule_cases():
    row, call = decorrelate._LONG_ROW, decorrelate._LONG_CALL
    # (m, p, n_j): rows of L - 1, L and L + 1 values in a call of at least S,
    # then calls of S - 1 and S values; whether each takes the tie check.
    yield from (((-(-call // n_j), 2, n_j), n_j >= row) for n_j in (row - 1, row, row + 1))
    yield (1, 2, call - 1), False
    yield (1, 2, call), True


@pytest.mark.parametrize("dots", [_einsum_dots, _blas_dots], ids=["einsum", "blas"])
@pytest.mark.parametrize("shape, checked", list(_rule_cases()))
def test_residual_pass_takes_the_tie_check_by_its_rule_and_restores_stably(
    monkeypatch, shape, checked, dots
):
    # Either way, and under either kernel, the pass restores as the stable
    # argsort does. Its slopes are 0, so each response row is restored by
    # the stable order of its own input row.
    state, step = _pass_case(*shape, seed=sum(shape), dots=dots)
    calls = _calls_of_the_tie_check(monkeypatch)
    got = decorrelate._residual_pass(state, *step)
    assert calls == ([(shape[0], shape[1] - 1, shape[2])] if checked else [])
    want = state.copy()
    order = state[:, 1:].argsort(axis=-1, kind="stable")
    np.put_along_axis(want[:, 1:], order, step[2], axis=-1)
    assert np.array_equal(got, want)
    monkeypatch.setattr(decorrelate, "_tie_checked_order", _stable_order)
    monkeypatch.setattr(decorrelate, "_LONG_ROW", 0)
    monkeypatch.setattr(decorrelate, "_LONG_CALL", 0)
    assert np.array_equal(got, decorrelate._residual_pass(state, *step))


@pytest.mark.parametrize("n_j, p, checked", [
    (400, 4, True),      # 1,200 response values a pass, rows of 400
    (12, 87, True),      # rows of 12, the shortest the rule takes: 1,032 values
    (1024, 2, True),     # one row of 1,024 values
    (11, 100, False),    # rows of 11: 1,089 values, too short a row
    (1023, 2, False),    # too small a call
    (60, 8, False),      # the command line's largest slice: 420 values
])
def test_one_replicate_block_keeps_the_rank_restore_rule(monkeypatch, n_j, p, checked):
    # A block of one replicate is swept on its (p, n_j) state, and its rank
    # restore keeps the rule: rows of _LONG_ROW values or more, in passes of
    # _LONG_CALL response values or more, take _tie_checked_order, and a
    # command-line-sized block does not. Either way it restores as the
    # stable sort does, so every bit is the all-stable sweep's.
    design = generate_sliced_lhd(SliceSizes((n_j,)), p, RngStream(n_j * p)).values
    (_, mids), = method_blocks("full", SliceSizes((n_j,)))
    calls = _calls_of_the_tie_check(monkeypatch)
    got = design[None].copy()
    _sweep_block(got, mids, 3, _blas_dots)
    if checked:
        assert calls and all(len(shape) == 2 for shape in calls)
        assert all(shape[1] >= decorrelate._LONG_ROW for shape in calls)
        assert all(shape[0] * shape[1] >= decorrelate._LONG_CALL for shape in calls)
    else:
        assert calls == []
    monkeypatch.setattr(decorrelate, "_tie_checked_order", _stable_order)
    monkeypatch.setattr(decorrelate, "_LONG_ROW", 0)
    monkeypatch.setattr(decorrelate, "_LONG_CALL", 0)
    want = design[None].copy()
    _sweep_block(want, mids, 3, _blas_dots)
    assert np.array_equal(got, want)


def test_clh_block_takes_the_tie_check_and_cli_blocks_do_not(monkeypatch):
    # The benchmark's CLH block of 48 runs at 40 replicates (mc-f1-fail's
    # request) is sorted by the tie check. No block of one replicate at the
    # command line's largest sizes (6 slices of 60 runs, 8 columns: 420
    # response values a pass) reaches it.
    calls = _calls_of_the_tie_check(monkeypatch)
    cfg = ExperimentConfig.from_path(_CONFIGS / "table1-f1-failures.cfg")
    blocks = method_blocks(benchmark._METHODS["CLH"][1], cfg.sizes)
    V, _, _ = benchmark._draws("CLH", cfg, blocks, range(40))
    _sweep_batch(V, blocks)
    assert calls and calls[0] == (40, 4, 48)
    assert all(shape[2] == 48 for shape in calls)
    calls.clear()
    design = generate_sliced_lhd(SliceSizes((60,) * 6), 8, RngStream(5))
    reduce_correlations(design)
    _swept(design, 10)
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 300),
    p=st.integers(2, 8),
    kind=st.sampled_from(["midpoints", "tied", "jittered"]),
    start=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, p=2, kind="tied", start=0, seed=0)
def test_unchecked_rms_equals_rms_correlation(n, p, kind, start, seed):
    # _rms runs np.corrcoef's own steps without the checks: every bit must
    # match rms_correlation and np.corrcoef itself, on the rows of a larger
    # C-ordered array (the sweep's slice blocks) as on a whole array.
    rng = np.random.default_rng(seed)
    big = np.empty((start + n + 1, p))
    m = big[start:start + n]
    if kind == "tied":
        # Three values only, each column holding the lowest and the highest.
        m[...] = rng.choice([0.1, 0.5, 0.9], size=(n, p))
        m[0], m[-1] = 0.1, 0.9
    else:
        m[...] = (np.argsort(rng.random((n, p)), axis=0) + 0.5) / n
        if kind == "jittered":
            m += rng.uniform(-0.5, 0.5, (n, p)) / n
    corr = np.corrcoef(m, rowvar=False)
    want = float(np.sqrt(np.mean(corr[np.triu_indices(p, k=1)] ** 2)))
    assert _rms(m) == rms_correlation(m) == want
    assert _rms(m.copy()) == want


# Block sizes of 1 (never swept), 2 and either side of powers of two.
_EDGE_BLOCK_SIZES = st.one_of(
    st.sampled_from([1, 2, 3, 5, 7, 9, 15, 17, 31, 33, 63, 65, 127, 129, 255, 257]),
    st.integers(1, 40),
)


@settings(max_examples=60, deadline=None)
@given(
    grid=st.sampled_from(["full", "own", "sliced"]),
    sizes=st.lists(_EDGE_BLOCK_SIZES, min_size=1, max_size=3).filter(lambda s: sum(s) >= 2),
    p=st.integers(2, 8),
    R=st.integers(1, 12),
    fixed=st.lists(st.booleans(), min_size=12, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    iterations=st.integers(1, 10),
)
@example(grid="sliced", sizes=[5, 1, 4], p=2, R=1,
         fixed=[False] * 12, seed=3, iterations=10)
@example(grid="full", sizes=[257], p=8, R=70,
         fixed=[False, True, False] * 4, seed=1, iterations=10)
def test_batch_sweep_equals_frozen_sweep(grid, sizes, p, R, fixed, seed, iterations):
    # The oracle restores every column and runs every iteration in full.
    # Restoring only the written columns and the half-iteration stop must
    # each leave every bit as it was. The second example is a batch of
    # 143,920 values, more than a benchmark chunk ever holds. Replicates
    # marked ``fixed`` start at the oracle's fixed point (or 30 iterations
    # in, where it has none).
    sizes = SliceSizes(tuple(sizes))
    blocks = method_blocks(grid, sizes)
    stacked = np.stack([_draw(grid, sizes, p, RngStream(seed).split(r)) for r in range(R)])
    for r in range(R):
        if fixed[r % len(fixed)]:
            frozen_sweep_batch(stacked[r:r + 1], blocks, 30)
    want = frozen_sweep_batch(stacked.copy(), blocks, iterations)
    _sweep_batch(stacked, blocks, iterations)
    assert np.array_equal(stacked, want)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(_EDGE_BLOCK_SIZES, min_size=1, max_size=3).filter(lambda s: sum(s) >= 2),
    p=st.integers(2, 8),
    R=st.integers(1, 8),
    fixed=st.lists(st.booleans(), min_size=8, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    first=st.integers(0, 200),
    iterations=st.integers(1, 10),
)
@example(sizes=[5, 1, 4], p=2, R=1, fixed=[False] * 8, seed=3, first=97, iterations=10)
@example(sizes=[6, 7], p=4, R=3, fixed=[True, False] * 4, seed=0, first=0, iterations=10)
@example(sizes=[33], p=5, R=8, fixed=[False, True, True, False] * 2, seed=1, first=0,
         iterations=10)
def test_batch_sweep_with_own_targets_equals_each_grid_alone(sizes, p, R, fixed, seed, first,
                                                              iterations):
    # The benchmark's co-swept batch: R replicates of each grid whose blocks
    # cut the same rows (own and sliced; full too, when t = 1), stacked, each
    # restored onto its own grid's midpoints. Every replicate must come out
    # as the oracle sweeps its grid's batch alone, bit for bit. The first
    # example holds the design whose exact residual tie the two dot kernels
    # order differently (see test_swept_equals_reduce_correlations).
    # Replicates marked ``fixed`` start at the oracle's fixed point (or 30
    # iterations in), so they leave the stack, targets and all, at once.
    sizes = SliceSizes(tuple(sizes))
    grids = ("own", "sliced") + (("full",) if sizes.t == 1 else ())
    alone, blocks = [], []
    for grid in grids:
        blocks.append(method_blocks(grid, sizes))
        stacked = np.stack([_draw(grid, sizes, p, RngStream(seed).split(first + r))
                            for r in range(R)])
        for r in range(R):
            if fixed[r]:
                frozen_sweep_batch(stacked[r:r + 1], blocks[-1], 30)
        alone.append(stacked)
    want = np.concatenate([frozen_sweep_batch(a.copy(), b, iterations) for a, b in zip(alone, blocks)])
    batch = np.concatenate(alone)
    _sweep_batch(batch, benchmark._own_targets(blocks, R, p), iterations)
    assert np.array_equal(batch, want)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["sliced", "independent", "jittered"]),
    sizes=st.lists(_EDGE_BLOCK_SIZES, min_size=1, max_size=4).filter(lambda s: 2 <= sum(s) <= 300),
    p=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    first=st.integers(0, 200),
    iterations=st.integers(1, 10),
    fixed=st.booleans(),
)
@example(family="sliced", sizes=[5, 1, 4], p=2, seed=3, first=97, iterations=10, fixed=False)
@example(family="sliced", sizes=[6, 7], p=4, seed=0, first=0, iterations=10, fixed=True)
# Slices of 257 runs at p = 5: 1,028 response values a pass, on the tie check.
@example(family="sliced", sizes=[257, 33], p=5, seed=0, first=0, iterations=10, fixed=False)
@example(family="jittered", sizes=[257], p=5, seed=1, first=0, iterations=10, fixed=True)
def test_reduce_correlations_equals_frozen_sweep(family, sizes, p, seed, first, iterations, fixed):
    # The same three changes in the library sweep: the design and the
    # trace, padding included, as the oracle returns them. A ``fixed``
    # design starts where 30 oracle iterations leave it. A stack of one-run
    # independent designs is constant, which both sweeps reject (see
    # test_sweep_input_checks).
    assume(family != "independent" or max(sizes) >= 2)
    sizes = SliceSizes(tuple(sizes))
    design = _sweep_input(family, sizes, p, seed * 211 + first)
    if fixed:
        design = Design(frozen_reduce_correlations(design, 30)[0], sizes)
    values, want = frozen_reduce_correlations(design, iterations)
    out, trace = reduce_correlations(design, iterations=iterations)
    assert np.array_equal(out.values, values)
    assert (trace.whole, trace.per_slice) == (want.whole, want.per_slice)
