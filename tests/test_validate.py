import itertools
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicedlhd import (
    Design,
    RngStream,
    SliceSizes,
    generate_independent_lhds,
    generate_randomized_lhd,
    generate_sliced_lhd,
    level_midpoints,
    levels_from_values,
    partition_levels,
    validate_sliced,
)

from _goldens import COLUMN_NUMER_2_5_10


def _columns_ok(columns, bins):
    # Whole-grid verdicts on the one-slice design whose columns are these.
    return validate_sliced(Design(np.column_stack(columns), SliceSizes((bins,)))).column_ok


def test_column_ok_on_midpoint_grid():
    for n in (1, 2, 5, 17):
        mids = level_midpoints(np.arange(1, n + 1), n)
        assert _columns_ok([mids, mids[::-1]], n) == (True, True), n


def test_column_ok_walkthrough_column():
    col = np.asarray(COLUMN_NUMER_2_5_10, dtype=np.float64) / 34.0
    assert _columns_ok([col], 17) == (True,)


def test_column_ok_detects_collisions():
    assert _columns_ok([[0.1, 0.15, 0.9], [0.1, 0.5, 0.9]], 3) == (False, True)


def test_column_ok_range_guards():
    # 1.0 is the closed right edge of the last bin.
    columns = [[0.0, 0.5, 0.9], [-0.2, 0.5, 0.9], [0.1, 0.5, 1.0001], [0.2, 0.5, 1.0]]
    assert _columns_ok(columns, 3) == (False, False, False, True)


def test_column_ok_bin_edges_close_right():
    # m/bins sits in bin m, not bin m+1. In floats 7/25 * 25 is
    # 7.000000000000001, whose ceil is bin 8, so every edge column is checked.
    assert _columns_ok([[1 / 3, 2 / 3, 1.0]], 3) == (True,)
    for bins in range(1, 201):
        edges = np.arange(1, bins + 1) / bins
        assert _columns_ok([edges, edges[::-1]], bins) == (True, True), bins


def test_column_ok_fails_next_float_above_an_edge():
    # The next float above m/bins lies in bin m+1 as an exact rational, so
    # bin m is empty. Binned by the rounded product x * bins it would land
    # in bin m: the next float above 1/3, times 3, rounds to 1.0. Column m
    # of each design moves edge m+1 up.
    for bins in range(1, 201):
        columns = np.tile(np.arange(1, bins + 1) / bins, (bins, 1))
        diag = np.arange(bins)
        columns[diag, diag] = np.nextafter(columns[diag, diag], 2.0)
        assert _columns_ok(columns, bins) == (False,) * bins, bins


def test_validate_sliced_passes_construction():
    d = generate_sliced_lhd(SliceSizes((2, 5, 10)), 2, RngStream(0))
    report = validate_sliced(d)
    assert report.all_pass
    assert report.n == 17 and report.p == 2
    text = report.render()
    assert "overall: all-pass" in text
    assert "FAIL" not in text


def test_whole_grid_alone_is_not_enough():
    # Seven points that fill the 7-bin grid but cannot be split into valid
    # slices of sizes (1, 3, 3) no matter how rows are grouped.
    H = np.array([0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9])
    sizes = SliceSizes((1, 3, 3))
    assert _columns_ok([H], 7) == (True,)
    rows = set(range(7))
    arrangements = 0
    for first in itertools.combinations(rows, 1):
        rest = rows - set(first)
        for second in itertools.combinations(sorted(rest), 3):
            third = tuple(sorted(rest - set(second)))
            order = list(first) + list(second) + list(third)
            d = Design(H[order].reshape(-1, 1), sizes)
            report = validate_sliced(d)
            assert all(report.column_ok)
            assert not all(all(row) for row in report.slice_ok)
            arrangements += 1
    assert arrangements == 140


def test_validate_sliced_flags_broken_slice():
    d = generate_sliced_lhd(SliceSizes((2, 5, 10)), 2, RngStream(1))
    # Swapping a row across the slice boundary breaks per-slice coverage
    # while keeping the whole-grid property intact.
    vals = d.values.copy()
    vals[[0, 2]] = vals[[2, 0]]
    report = validate_sliced(Design(vals, d.sizes))
    assert all(report.column_ok)
    assert report.midpoints_exact
    assert not report.all_pass
    assert "FAIL" in report.render()


def test_validate_sliced_midpoint_exactness():
    sizes = SliceSizes((2, 3))
    mids = level_midpoints(np.arange(1, 6), 5)
    exact = Design(np.stack([mids, mids[::-1]], axis=1), sizes)
    assert validate_sliced(exact).midpoints_exact
    jittered = exact.values + 1e-6
    assert not validate_sliced(Design(jittered, sizes)).midpoints_exact
    # Wobble below the tolerance still counts as exact.
    tiny = exact.values + 1e-14
    assert validate_sliced(Design(tiny, sizes)).midpoints_exact


def test_validate_sliced_out_of_range_fails_loudly():
    sizes = SliceSizes((2,))
    d = Design(np.array([[0.25], [1.25]]), sizes)
    report = validate_sliced(d)
    assert not report.all_pass
    assert report.column_ok == (False,)


def test_column_ok_rejects_non_finite_entries():
    columns = [[np.nan, 0.75], [0.25, np.inf], [-np.inf, 0.75]]
    assert _columns_ok(columns, 2) == (False, False, False)


def test_validate_sliced_fails_nan_without_warning():
    sizes = SliceSizes((1, 1))
    d = Design(np.array([[np.nan, 0.25], [0.75, 0.75]]), sizes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_sliced(d)
    assert report.column_ok == (False, True)
    assert report.slice_ok == ((False, True), (True, True))
    assert not report.midpoints_exact


def test_validate_sliced_bins_midpoints_on_slice_edges_exactly():
    # n = 95: level 53's midpoint 105/190 is exactly 21/38, the right edge
    # of bin 21 of the 38-run slice, but in floats 105/190 * 38 rounds to
    # 21.000000000000004, whose ceil is bin 22.
    sizes = SliceSizes((50, 7, 38))
    assert np.ceil(level_midpoints(53, 95) * 38) == 22
    part = partition_levels(sizes)
    assert 53 in part.groups[2]
    for seed in range(3):
        d = generate_sliced_lhd(sizes, 2, RngStream(seed))
        assert validate_sliced(d).all_pass, seed


def _brute_force_fills(column, bins, n):
    # Does each right-closed bin ((m-1)/bins, m/bins] hold one entry,
    # counted in exact rationals? A float equal to a midpoint (2a-1)/(2n)
    # of the design's grid or to a bin edge m/bins stands for that rational,
    # any other float for its own exact value.
    named = {(2 * a - 1) / (2 * n): Fraction(2 * a - 1, 2 * n) for a in range(1, n + 1)}
    named.update({m / bins: Fraction(m, bins) for m in range(1, bins + 1)})
    counts = [0] * bins
    for x in column.tolist():
        if not 0.0 < x <= 1.0:  # NaN included
            continue
        v = named.get(x, Fraction(x))
        counts[next(m for m in range(bins) if v <= Fraction(m + 1, bins))] += 1
    return counts == [1] * bins


def _brute_force_exact(values, n):
    mids = [(2 * a - 1) / (2 * n) for a in range(1, n + 1)]
    return all(any(abs(x - m) <= 1e-12 for m in mids) for x in values.ravel().tolist())


def _constructed(family, sizes, p, rng):
    if family == "sliced":
        return generate_sliced_lhd(sizes, p, rng).values
    if family == "own":
        return generate_independent_lhds(sizes, p, rng).values
    return generate_randomized_lhd(sizes.n, p, rng).values


_MUTATIONS = (
    "swap", "shift", "edge", "beside edge", "edge column", "zero", "above one", "nan",
    "outer midpoint",
)


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(("sliced", "own", "randomized")),
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=4),
    p=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    mutations=st.lists(
        st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 2**16), st.integers(0, 2**16)),
        max_size=3,
    ),
)
@example(family="sliced", sizes=[25], p=1, seed=0, mutations=[("edge column", 0, 0)])
@example(family="sliced", sizes=[50, 7, 38], p=2, seed=1, mutations=[])
# 1/6, 1/2, 5/6 made 0.33333333333333337, 2/3, 5/6: bin 1 of 3 is empty.
@example(
    family="sliced", sizes=[3], p=1, seed=0, mutations=[("beside edge", 0, 3), ("edge", 1, 1)]
)
# -1/6: bin 0 of 3, whose midpoint by the formula (2m-1)/(2n) is -1/6 itself.
@example(family="sliced", sizes=[1, 2], p=1, seed=0, mutations=[("outer midpoint", 0, 0)])
def test_validate_sliced_agrees_with_brute_force_counter(family, sizes, p, seed, mutations):
    # Construction outputs and mutated copies, at entry (i, l) picked by u:
    # swapped with an entry of another slice, shifted one level, set to a
    # bin edge of the whole grid or of a slice or to the next float below
    # or above it, 0, above 1, NaN, or the midpoint -1/(2n) or (2n+1)/(2n)
    # of a bin outside (0, 1]; or column l set to a permutation of the edges
    # m/n. The examples are the 7/25 edge, the (50, 7, 38) midpoint on a
    # slice edge, the next float above 1/3 and the outer midpoint -1/6.
    sizes = SliceSizes(tuple(sizes))
    n = sizes.n
    values = _constructed(family, sizes, p, RngStream(seed))
    for kind, u, w in mutations:
        i, l = u % n, u // n % p
        x = values[i, l]
        if kind == "swap":
            own = next(range(n)[rows] for rows in sizes.rows if i in range(n)[rows])
            others = [k for k in range(n) if k not in own] or [i]
            k = others[w % len(others)]
            values[[i, k], l] = values[[k, i], l]
        elif kind == "shift" and 0.0 < x <= 1.0 and n > 1:
            a = int(levels_from_values(x, n))
            values[i, l] = level_midpoints(a + 1 if a < n else a - 1, n)
        elif kind in ("edge", "beside edge"):
            bins = ((n,) + sizes.sizes)[w % (sizes.t + 1)]
            edge = (w % bins + 1) / bins
            values[i, l] = edge if kind == "edge" else np.nextafter(edge, w // bins % 2 * 2.0)
        elif kind == "edge column":
            values[:, l] = np.random.default_rng(w).permutation(np.arange(1, n + 1)) / n
        elif kind in ("zero", "above one", "nan"):
            values[i, l] = {"zero": 0.0, "above one": np.nextafter(1.0, 2.0), "nan": np.nan}[kind]
        elif kind == "outer midpoint":
            values[i, l] = (2 * n + 1 if w % 2 else -1) / (2 * n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_sliced(Design(values, sizes))
    assert report.column_ok == tuple(_brute_force_fills(values[:, l], n, n) for l in range(p))
    assert report.slice_ok == tuple(
        tuple(_brute_force_fills(values[rows, l], nj, n) for l in range(p))
        for rows, nj in zip(sizes.rows, sizes.sizes)
    )
    assert report.midpoints_exact == _brute_force_exact(values, n)
