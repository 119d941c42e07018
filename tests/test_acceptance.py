"""Acceptance gate: every pinned behavioral requirement, at full scale.

Each test asserts one requirement at its stated tolerance, so a verbose run
reads as a one-line-per-requirement checklist. The benchmark requirements
replay the bundled reference RMSE table with 10,000 replicates.

Known discrepancies, kept deliberately red rather than papered over:

* The reference RMSE table pins seven cells. Three of them (single-design
  and sliced designs on the complete scenario of the five-dimensional
  integrand) are reproduced exactly or within tolerance. The other four
  (the sliced design under a failed slice on that integrand, and all three
  sliced-design cells of the two-dimensional integrand) cannot be produced
  by the pinned construction at the stated run sizes: the complete-scenario
  cells are bounded below by the deterministic bias of the midpoint grid at
  n = 22, and the failed-slice cells are fully determined by the level
  partition, which yields a different value than the reference. Those four
  tests fail and print the measured values. The README's
  "Reference-table discrepancies" section carries the analysis summary.

* The reference delta vector for the (2,5,10) walkthrough contains a typo
  (entry 14 printed as 1); the corrected vector is asserted, with the
  inconsistency of the printed variant demonstrated in the same test.
"""

import itertools
import time

import numpy as np
import pytest

from slicedlhd import (
    Design,
    ExperimentConfig,
    RngStream,
    SliceSizes,
    assignment_steps,
    delta_sequence,
    eval_f1,
    eval_f2,
    generate_sliced_lhd,
    levels_from_values,
    partition_levels,
    reduce_correlations,
    residualize,
    run_experiment,
    true_mean_f1,
    true_mean_f2,
    validate_sliced,
)

from _goldens import (
    COLUMN_NUMER_2_5_10,
    DELTA_2_5_10,
    GROUPS_2_5_10,
    PERMS_2_5_10,
    RESID_FIRST,
    SIZES_2_5_10,
    SIZES_6_7,
    SWEEP_AFTER_FORWARD,
    SWEEP_FINAL,
    SWEEP_START,
)
from _monte_carlo import mc_mean
from _quadrature import f2_quadrature

SEED = 20240817
REPLICATES = 10_000
F1_SIZES = (17, 13, 11, 7)
F2_SIZES = (9, 7, 6)

DISCREPANCY_NOTE = (
    "this reference cell is not reproducible from the pinned construction "
    "at the stated run sizes; see the 'Reference-table discrepancies' "
    "section of the README"
)


@pytest.fixture(scope="module")
def f1_rmse():
    """Reference-table runs for the 5-D integrand, both variants, both scenarios."""
    out = {}
    for variant in ("x3", "literal"):
        for scenario in ("all-complete", "one-slice-fails"):
            cfg = ExperimentConfig(
                integrand="f1", sizes=SliceSizes(F1_SIZES), dim=5,
                methods=("RLH", "MLH", "SLH"), replicates=REPLICATES,
                scenario=scenario, seed=SEED, f1_variant=variant,
            )
            out[(variant, scenario)] = run_experiment(cfg).rmse
    return out


@pytest.fixture(scope="module")
def f2_rmse():
    """Reference-table runs for the 2-D integrand, both scenarios."""
    out = {}
    for scenario in ("all-complete", "one-slice-fails"):
        cfg = ExperimentConfig(
            integrand="f2", sizes=SliceSizes(F2_SIZES), dim=2,
            methods=("MLH", "SLH", "CSLH"), replicates=REPLICATES,
            scenario=scenario, seed=SEED,
        )
        out[scenario] = run_experiment(cfg).rmse
    return out


def _assert_cell(measured: float, pinned: float, rel_tol: float, label: str):
    lo, hi = pinned * (1 - rel_tol), pinned * (1 + rel_tol)
    assert lo <= measured <= hi, (
        f"{label}: measured {measured:.4f}, pinned {pinned:.4f} "
        f"+/- {rel_tol:.0%}; {DISCREPANCY_NOTE}"
    )


def test_partition_walkthrough_exact():
    sizes = SliceSizes(SIZES_2_5_10)
    part = partition_levels(sizes)
    assert part.groups == GROUPS_2_5_10
    ds = delta_sequence(sizes)
    assert ds.deltas == DELTA_2_5_10
    # The reference statement prints entry 14 as 1, but that vector sums to
    # 16 while an exhaustive assignment of 17 levels needs deltas summing to
    # 17, and the groups pinned alongside it require two strata to close at
    # level 14. Demonstrate the printed variant is not self-consistent.
    printed = list(DELTA_2_5_10)
    printed[13] = 1
    assert sum(printed) != sizes.n
    # Timing: the walk is trivial at this size.
    partition_levels(sizes)  # warm caches
    best = min(
        _timed(lambda: partition_levels(sizes)) for _ in range(5)
    )
    assert best < 1e-3, f"partition took {best * 1e3:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_column_assembly_exact(monkeypatch):
    index_perm = {}
    for grp, perm in zip(GROUPS_2_5_10, PERMS_2_5_10):
        index_perm[len(grp)] = np.asarray(
            [grp.index(level) + 1 for level in perm], dtype=np.int64
        )

    class Pinned:  # each split stream's generator, permuting in the pinned order
        def permutation(self, mids):
            return mids[index_perm[mids.size] - 1]

    monkeypatch.setattr(RngStream, "generators", lambda self, *c: itertools.repeat(Pinned()))
    design = generate_sliced_lhd(SliceSizes(SIZES_2_5_10), 1, RngStream(0))
    expected = np.asarray(COLUMN_NUMER_2_5_10, dtype=np.float64) / 34.0
    assert np.array_equal(design.values[:, 0], expected)


def test_sweep_walkthrough_goldens():
    sizes = SliceSizes(SIZES_6_7)
    part = partition_levels(sizes)
    # First residual update of the walkthrough, within 1e-3.
    resid = residualize(SWEEP_START[:6, 0], SWEEP_START[:6, 1])
    assert np.allclose(resid, RESID_FIRST, atol=1e-3)
    # One forward pass plus restore hits the mid-sweep matrix exactly.
    design = Design(SWEEP_START.copy(), sizes)
    from test_decorrelate import rank_restore

    values = design.values.copy()
    rows = design.sizes.rows
    for j, grp in enumerate(part.groups):
        block = values[rows[j]]
        base = block.copy()
        for k in range(1, 3):
            for l in range(k):
                block[:, l] = residualize(base[:, l], base[:, k])
        for l in range(3):
            block[:, l] = rank_restore(block[:, l], grp, design.n)
    assert np.array_equal(
        levels_from_values(values, 13),
        levels_from_values(SWEEP_AFTER_FORWARD, 13),
    )
    # Ten full iterations land on the final matrix exactly.
    out, _ = reduce_correlations(design, iterations=10)
    assert np.array_equal(out.values, SWEEP_FINAL)


def test_eligibility_and_stratification_fuzz():
    # 1,000 fuzzed size vectors: construction always succeeds (the greedy
    # walk never runs out of eligible levels) and the result is a valid
    # sliced design at every resolution.
    gen = np.random.Generator(np.random.Philox(424242))
    t0 = time.perf_counter()
    for case in range(1000):
        t = int(gen.integers(1, 13))
        sizes = SliceSizes(tuple(int(gen.integers(1, 41)) for _ in range(t)))
        p = int(gen.integers(1, 9))
        design = generate_sliced_lhd(sizes, p, RngStream(case))
        assert validate_sliced(design).all_pass, (sizes.sizes, p, case)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"fuzz suite took {elapsed:.1f}s"


def test_sweep_structure_preservation_fuzz():
    # 200 fuzzed cases: decorrelation never moves a level out of its slice.
    gen = np.random.Generator(np.random.Philox(31337))
    for case in range(200):
        t = int(gen.integers(1, 6))
        sizes = SliceSizes(tuple(int(gen.integers(1, 15)) for _ in range(t)))
        if sizes.n < 2:
            continue
        p = int(gen.integers(2, 7))
        part = partition_levels(sizes)
        design = generate_sliced_lhd(sizes, p, RngStream(9000 + case))
        out, _ = reduce_correlations(design, iterations=10)
        assert validate_sliced(out).all_pass, (sizes.sizes, p, case)
        levels = levels_from_values(out.values, out.n)
        rows = sizes.rows
        for j in range(sizes.t):
            want = list(part.groups[j])
            for l in range(p):
                assert sorted(levels[rows[j], l].tolist()) == want


def test_sweep_reduces_mean_correlation():
    sizes = SliceSizes((6, 7))
    before = []
    after = []
    for seed in range(100):
        design = generate_sliced_lhd(sizes, 3, RngStream(seed))
        _, trace = reduce_correlations(design, iterations=10)
        before.append(trace.whole[0])
        after.append(trace.whole[-1])
    mean_before = float(np.mean(before))
    mean_after = float(np.mean(after))
    print(f"mean whole-design rho_rms: {mean_before:.4f} -> {mean_after:.4f}")
    assert mean_after < mean_before


def test_reference_rmse_f1_complete_cells(f1_rmse):
    cells = f1_rmse[("x3", "all-complete")]
    _assert_cell(cells["SLH"], 0.0360, 0.15, "SLH / f1 / all-complete")
    _assert_cell(cells["MLH"], 0.0360, 0.15, "MLH / f1 / all-complete")


def test_reference_rmse_f1_variant_recording(f1_rmse):
    # The randomized-LHD reference cell is run under both forms of the 5-D
    # integrand; the log records which one lands inside the band.
    pinned = 0.0487
    matches = []
    for variant in ("literal", "x3"):
        measured = f1_rmse[(variant, "all-complete")]["RLH"]
        inside = pinned * 0.85 <= measured <= pinned * 1.15
        print(f"RLH / f1 / all-complete, {variant} variant: "
              f"measured {measured:.4f} -> {'match' if inside else 'no match'}")
        if inside:
            matches.append(variant)
    assert matches, "neither integrand variant reproduces the RLH cell"


def test_reference_rmse_f1_slh_one_slice_fails(f1_rmse):
    _assert_cell(
        f1_rmse[("x3", "one-slice-fails")]["SLH"],
        0.0958, 0.15, "SLH / f1 / one-slice-fails",
    )


def test_reference_rmse_f2_slh_complete(f2_rmse):
    _assert_cell(
        f2_rmse["all-complete"]["SLH"], 0.0061, 0.15, "SLH / f2 / all-complete"
    )


def test_reference_rmse_f2_cslh_complete(f2_rmse):
    _assert_cell(
        f2_rmse["all-complete"]["CSLH"], 0.0042, 0.20, "CSLH / f2 / all-complete"
    )


def test_reference_rmse_f2_cslh_one_slice_fails(f2_rmse):
    _assert_cell(
        f2_rmse["one-slice-fails"]["CSLH"], 0.0075, 0.20,
        "CSLH / f2 / one-slice-fails",
    )


def test_reference_qualitative_orderings(f1_rmse, f2_rmse):
    # Sliced designs beat single designs when a slice fails...
    for variant in ("x3", "literal"):
        s2 = f1_rmse[(variant, "one-slice-fails")]
        assert s2["SLH"] < s2["MLH"], (variant, s2)
        assert s2["SLH"] < s2["RLH"], (variant, s2)
    s2 = f2_rmse["one-slice-fails"]
    assert s2["SLH"] < s2["MLH"], s2
    assert s2["CSLH"] < s2["MLH"], s2
    # ...and match them when every run completes (5-D integrand: the pooled
    # estimate is identical by permutation invariance).
    for variant in ("x3", "literal"):
        s1 = f1_rmse[(variant, "all-complete")]
        assert abs(s1["SLH"] - s1["MLH"]) <= 0.05 * s1["MLH"], (variant, s1)


def test_true_mean_oracles():
    # 5-D integrand: -5 in closed form for both variants, plain-MC agrees
    # within 3 standard errors at 10^7 points.
    assert true_mean_f1() == -5.0
    est, se = mc_mean(lambda x: eval_f1(x, variant="literal"), 5,
                      points=10**7, seed=101)
    print(f"mc f1 literal: {est:.6f} (se {se:.2e})")
    assert abs(est - (-5.0)) <= 3 * se
    est, se = mc_mean(lambda x: eval_f1(x, variant="x3"), 5,
                      points=10**7, seed=102)
    print(f"mc f1 x3: {est:.6f} (se {se:.2e})")
    assert abs(est - (-5.0)) <= 3 * se
    # 2-D integrand: the stored mean is the quadrature's float bit for bit,
    # the quadrature is stable to 1e-8 under tolerance refinement and agrees
    # with 5/4, and a plain-MC cross-check agrees.
    coarse = f2_quadrature(1e-9)
    fine = f2_quadrature(1e-11)
    print(f"quadrature f2: {fine:.10f} (refinement delta {abs(fine - coarse):.2e})")
    assert true_mean_f2() == fine
    assert abs(fine - coarse) <= 1e-8
    assert abs(fine - 1.25) <= 1e-9
    est, se = mc_mean(eval_f2, 2, points=10**6, seed=103)
    assert abs(est - fine) <= 3 * se
