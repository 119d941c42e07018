"""Walk through the sliced construction for slice sizes (2, 5, 10).

Run: python3 demos/construction_walkthrough.py

Shows the per-level delta sequence, the greedy assignment trace, the
resulting level partition, one assembled design, and its validation report.
"""

import numpy as np

from slicedlhd import (
    RngStream,
    SliceSizes,
    assignment_steps,
    delta_sequence,
    generate_sliced_lhd,
    partition_levels,
    validate_sliced,
)

sizes = SliceSizes((2, 5, 10))
n = sizes.n

print(f"slice sizes: {sizes.sizes}  (t={sizes.t} slices, n={n} runs)")
print()

ds = delta_sequence(sizes)
print("delta sequence (how many coarse strata close at each fine level):")
print(" ", ds.deltas, f" sum={ds.total}")
print()

print("greedy walk: each closing stratum takes the smallest eligible level")
for step in assignment_steps(sizes):
    if step.assignments:
        what = ", ".join(f"slice {k + 1} <- level {u}" for k, u in step.assignments)
    else:
        what = "(no stratum closes)"
    held = ",".join(map(str, step.working_set)) or "-"
    print(f"  i={step.i:>2}: {what:<42} held back: {held}")
print()

part = partition_levels(sizes)
for j, grp in enumerate(part.groups):
    print(f"G_{j + 1} = {set(grp)}")
print()

# The generator derives these groups from the sizes itself.
design = generate_sliced_lhd(sizes, 3, RngStream(42))
print("one sampled 17x3 design (levels 2a-1 over 34):")
with np.printoptions(linewidth=100):
    print((design.values * 2 * n).astype(int))
print()
print(validate_sliced(design).render())
