"""Stratification checks for design matrices.

Two guarantees are checked, mirroring what the sliced construction promises:
whole-grid stratification (each column puts one point in each of the n bins
((m-1)/n, m/n]) and per-slice stratification (slice j's rows do the same at
the coarser n_j resolution), both by one rule: against the float bin edges.
A third flag records whether every entry sits exactly on the full midpoint
grid, which separates midpoint designs from jittered or stacked-independent
ones; it is read off the whole-grid bins.

All strata are checked in one O(n p) pass: each entry is binned at n and at
its slice's n_j, with no search, and marks its bin in one flat array of
k + 2 bins per (stratum, column). A stratum's k rows fill its k bins iff all
are marked, so the binning and counting calls do not grow with the slice
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Design

__all__ = ["ValidationReport", "validate_sliced"]

MIDPOINT_TOL = 1e-12

# Entries a step of the pass bins, each at n and at its slice's n_j: this
# bounds the pass's temporaries whatever the design's size.
_CHUNK = 1 << 16
_ABOVE_ONE = float(np.nextafter(1.0, 2.0))


def _bin_index(values: np.ndarray, k: np.ndarray) -> np.ndarray:
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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_sliced, one flag per check.

    ``column_ok[l]``: column l passes the whole-grid n-bin check.
    ``slice_ok[j][l]``: slice j, column l passes the n_j-bin check.
    ``midpoints_exact``: every entry equals some (2a-1)/(2n) within 1e-12.
    """

    column_ok: tuple[bool, ...]
    slice_ok: tuple[tuple[bool, ...], ...]
    midpoints_exact: bool
    n: int
    p: int
    sizes: tuple[int, ...]

    @property
    def all_pass(self) -> bool:
        return (
            all(self.column_ok)
            and all(all(row) for row in self.slice_ok)
            and self.midpoints_exact
        )

    def render(self) -> str:
        lines = [f"design: n={self.n} p={self.p} sizes={','.join(map(str, self.sizes))}"]
        for l, ok in enumerate(self.column_ok):
            lines.append(f"column {l + 1} whole-grid stratification: "
                         f"{'pass' if ok else 'FAIL'}")
        for j, row in enumerate(self.slice_ok):
            for l, ok in enumerate(row):
                lines.append(
                    f"slice {j + 1} column {l + 1} stratification: "
                    f"{'pass' if ok else 'FAIL'}"
                )
        lines.append(f"midpoint exactness: "
                     f"{'pass' if self.midpoints_exact else 'FAIL'}")
        lines.append(f"overall: {'all-pass' if self.all_pass else 'FAIL'}")
        return "\n".join(lines)


def validate_sliced(design: Design) -> ValidationReport:
    """Check both stratification guarantees plus midpoint exactness.

    Failures are reported, never raised; callers decide what a failure
    means (stacked independent designs are expected to fail the whole-grid
    and exactness checks while passing per-slice ones).
    """
    values = design.values
    n, p, sizes = design.n, design.p, design.sizes
    # Stratum 0 is the whole grid, stratum j+1 slice j; each has k rows and
    # k bins. Stratum s, column l owns the k_s + 2 flat bins from first[s, l],
    # the outer two for entries outside (0, 1]. Row r is in strata[0, r] = 0
    # and in its slice's, strata[1, r].
    k = np.array((n,) + sizes.sizes)
    width = np.repeat(k + 2, p)
    ends = np.cumsum(width)
    first, last = (ends - width).reshape(-1, p), (ends - 1).reshape(-1, p)
    strata = np.zeros((2, n), dtype=np.intp)
    for j, rows in enumerate(sizes.rows):
        strata[1, rows] = j + 1
    row_k = k[strata][..., None].astype(np.float64)
    hit = np.zeros(ends[-1], dtype=bool)
    exact = True
    step = max(1, _CHUNK // p)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        chunk = values[rows]
        bins = _bin_index(chunk, row_k[:, rows])
        hit[first[strata[:, rows]] + bins] = True
        # A midpoint lies 1/(2n) from every edge, so an exact entry is within
        # MIDPOINT_TOL of its grid bin's midpoint, (2m-1)/(2n) = (m-0.5)/n in
        # floats. Bins 0 and n+1 are checked below.
        exact = exact and bool((np.abs(chunk - (bins[0] - 0.5) / n) <= MIDPOINT_TOL).all())
    # An entry outside (0, 1] is never exact, not even at -1/(2n): it marks
    # bin 0 or n+1 of the whole grid.
    exact = exact and not (hit[first[0]] | hit[last[0]]).any()
    # A stratum's k rows fill its k bins iff every one is marked; so are the outer two.
    hit[first] = hit[last] = True
    ok = np.logical_and.reduceat(hit, first.ravel()).reshape(-1, p)
    return ValidationReport(
        column_ok=tuple(ok[0].tolist()),
        slice_ok=tuple(map(tuple, ok[1:].tolist())),
        midpoints_exact=exact,
        n=n,
        p=p,
        sizes=sizes.sizes,
    )
