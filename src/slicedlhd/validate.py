"""Stratification checks for design matrices.

Two guarantees are checked, mirroring what the sliced construction promises:
whole-grid stratification (each column puts one point in each of the n bins
((m-1)/n, m/n]) and per-slice stratification (slice j's rows do the same at
the coarser n_j resolution), both by one rule: core's ``_bin_index`` against
the float bin edges, which gives ``levels_from_values`` its levels too.
A third flag records whether every entry sits exactly on the full midpoint
grid, which separates midpoint designs from jittered or stacked-independent
ones; it is read off the whole-grid bins.

All strata are checked in one O(n p) pass: each entry is binned at n and at
its slice's n_j, with no search, and marks its bin in one flat array of
k + 2 bins per (stratum, column). A stratum's k rows fill its k bins iff all
are marked, so the binning and counting calls do not grow with the slice
count. A one-slice design's slice is the whole grid, so its entries are
binned once, and the slice's flags are the grid's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Design, _bin_index

__all__ = ["ValidationReport", "validate_sliced"]

MIDPOINT_TOL = 1e-12

# Entries a step of the pass bins, each at n and at its slice's n_j: this
# bounds the pass's temporaries whatever the design's size.
_CHUNK = 1 << 16


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
    # and in its slice's, strata[1, r]. One slice is stratum 0 itself.
    slices = sizes.sizes if sizes.t > 1 else ()
    k = np.array((n,) + slices)
    width = np.repeat(k + 2, p)
    ends = np.cumsum(width)
    first, last = (ends - width).reshape(-1, p), (ends - 1).reshape(-1, p)
    strata = np.zeros((2 if slices else 1, n), dtype=np.intp)
    for j, rows in enumerate(sizes.rows if slices else ()):
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
    # The last t strata are the slices: with one slice, the whole grid.
    return ValidationReport(
        column_ok=tuple(ok[0].tolist()),
        slice_ok=tuple(map(tuple, ok[-sizes.t:].tolist())),
        midpoints_exact=exact,
        n=n,
        p=p,
        sizes=sizes.sizes,
    )
