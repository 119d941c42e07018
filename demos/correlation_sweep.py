"""Show the correlation-reduction sweep on a (6, 7) design with 3 columns.

Run: python3 demos/correlation_sweep.py

Generates a sliced design, runs 10 sweep iterations, and prints the
rho_rms history for the whole design and for each slice, plus proof that
the slice-level stratification survived untouched: the sweep takes only the
design, and maps each slice column back onto the values it held.
"""

import numpy as np

from slicedlhd import (
    RngStream,
    SliceSizes,
    generate_sliced_lhd,
    reduce_correlations,
    validate_sliced,
)

sizes = SliceSizes((6, 7))
design = generate_sliced_lhd(sizes, 3, RngStream(7))

swept, trace = reduce_correlations(design, iterations=10)

print(f"design: n={design.n}, p={design.p}, slices {sizes.sizes}")
print()
print("rho_rms per iteration (0 = before the sweep):")
header = "  iter   whole " + " ".join(f"slice{j + 1:>2}" for j in range(sizes.t))
print(header)
for it in range(len(trace.whole)):
    cells = " ".join(f"{trace.per_slice[j][it]:7.4f}" for j in range(sizes.t))
    print(f"  {it:>4}  {trace.whole[it]:6.4f} {cells}")
print()

print(f"whole-design rho_rms: {trace.whole[0]:.4f} -> {trace.whole[-1]:.4f}")
print()

before = (design.values * 2 * design.n).astype(int)
after = (swept.values * 2 * design.n).astype(int)
print("levels before -> after (numerators of k/26):")
for r in range(design.n):
    marker = "|" if r == sizes.sizes[0] else " "
    print(f" {marker} {before[r]}  ->  {after[r]}")
print()
kept = all(
    np.array_equal(np.sort(design.values[rows], axis=0),
                   np.sort(swept.values[rows], axis=0))
    for rows in sizes.rows
)
print("each slice column kept its own values:", "yes" if kept else "NO")
print("validation after the sweep:",
      "all-pass" if validate_sliced(swept).all_pass else "FAIL")
