"""Stratification checks for design matrices.

Two guarantees are checked, mirroring what the sliced construction promises:
whole-grid stratification (each column puts one point in each of the n bins
((m-1)/n, m/n]) and per-slice stratification (slice j's rows do the same at
the coarser n_j resolution), both by one rule: against the float bin edges.
A third flag records whether every entry sits exactly on the full midpoint
grid, which separates midpoint designs from jittered or stacked-independent
ones; it is read off the whole-grid bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Design

__all__ = ["ValidationReport", "validate_sliced"]

MIDPOINT_TOL = 1e-12


def _bins(values: np.ndarray, bins: int) -> np.ndarray:
    """The bin m of each entry of ``values``, against the float edges m/bins.

    x is in bin m iff e(m-1) < x <= e(m), e(m) the float m/bins. e(m) is m/bins
    correctly rounded, so an edge float closes its own bin (7/25 * 25 rounds
    to 7.000000000000001, yet 7/25 is in bin 7) and any other float is binned
    by its own exact value. So is a midpoint (2a-1)/(2n): on an edge it is
    that edge's float, and off it it differs from every edge by at least
    1/(2n*bins), far more than an ulp while 2n*bins < 2**53. Entries outside
    (0, 1], NaN included, get bin 0 or bins+1.
    """
    return np.digitize(values, np.arange(bins + 1) / bins, right=True)


def _columns_fill_bins(idx: np.ndarray, bins: int) -> np.ndarray:
    """Per column of bin numbers ``idx``: does each of bins 1..bins hold one entry?"""
    want = np.arange(1, bins + 1)[:, None]
    return np.all(np.sort(idx, axis=0) == want, axis=0)


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
    n = design.n
    p = design.p

    grid = _bins(values, n)
    column_ok = tuple(_columns_fill_bins(grid, n).tolist())
    slice_ok = tuple(
        tuple(_columns_fill_bins(_bins(values[rows], nj), nj).tolist())
        for rows, nj in zip(design.sizes.rows, design.sizes.sizes)
    )
    # A midpoint lies 1/(2n) from every edge, so an exact entry is within
    # MIDPOINT_TOL of its own bin's midpoint. Bins 0 and n+1 hold the entries
    # outside (0, 1], which are never exact, not even at -1/(2n).
    mids = (2.0 * grid - 1.0) / (2.0 * n)
    on_grid = (grid >= 1) & (grid <= n)
    midpoints_exact = bool(np.all(on_grid & (np.abs(values - mids) <= MIDPOINT_TOL)))
    return ValidationReport(
        column_ok=column_ok,
        slice_ok=slice_ok,
        midpoints_exact=midpoints_exact,
        n=n,
        p=p,
        sizes=design.sizes.sizes,
    )
