"""Stratification checks for design matrices.

Two guarantees are checked, mirroring what the sliced construction promises:
whole-grid stratification (each column puts one point in each of the n bins
((m-1)/n, m/n]) and per-slice stratification (slice j's rows do the same at
the coarser n_j resolution), both by one rule: against the float bin edges.
A third flag records whether every entry sits exactly on the full midpoint
grid, which separates midpoint designs from jittered or stacked-independent
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Design, _as_integer, level_midpoints, levels_from_values

__all__ = ["ValidationReport", "is_lhd_column", "validate_sliced"]

MIDPOINT_TOL = 1e-12


def is_lhd_column(column, bins: int) -> bool:
    """True iff each bin ((m-1)/bins, m/bins], m=1..bins, holds one entry.

    Entries are binned against the float edges m/bins (see
    _columns_fill_bins). Out-of-range and non-finite entries fail the
    check rather than being clamped into a bin.
    """
    bins = _as_integer("bins", bins)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    col = np.asarray(column, dtype=np.float64)
    if col.ndim != 1:
        raise ValueError("column must be a 1-D vector")
    if col.size != bins:
        raise ValueError(f"column has {col.size} entries but bins={bins}")
    return bool(_columns_fill_bins(col[:, None], bins)[0])


def _columns_fill_bins(values: np.ndarray, bins: int) -> np.ndarray:
    """Per column of ``values``: does each of the ``bins`` bins hold one entry?

    x is in bin m iff e(m-1) < x <= e(m), e(m) the float m/bins. e(m) is m/bins
    correctly rounded, so an edge float closes its own bin (7/25 * 25 rounds
    to 7.000000000000001, yet 7/25 is in bin 7) and any other float is binned
    by its own exact value. So is a midpoint (2a-1)/(2n): on an edge it is
    that edge's float, and off it it differs from every edge by at least
    1/(2n*bins), far more than an ulp while 2n*bins < 2**53. Entries outside
    (0, 1], NaN included, get bin 0 or bins+1, which no column may hold.
    """
    idx = np.digitize(values, np.arange(bins + 1) / bins, right=True)
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

    column_ok = tuple(_columns_fill_bins(values, n).tolist())
    slice_ok = tuple(
        tuple(_columns_fill_bins(values[rows], nj).tolist())
        for rows, nj in zip(design.sizes.rows, design.sizes.sizes)
    )
    # Out-of-range entries and NaN, read as 1.0 to find a level, fail all the same.
    in_range = (values > 0.0) & (values <= 1.0)
    mids = level_midpoints(levels_from_values(np.where(in_range, values, 1.0), n), n)
    midpoints_exact = bool(np.all(np.abs(values - mids) <= MIDPOINT_TOL))
    return ValidationReport(
        column_ok=column_ok,
        slice_ok=slice_ok,
        midpoints_exact=midpoints_exact,
        n=n,
        p=p,
        sizes=design.sizes.sizes,
    )
