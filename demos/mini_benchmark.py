"""Reduced-scale rerun of the variance-reduction benchmark.

Run: python3 demos/mini_benchmark.py [replicates]

Compares the design families on both integrands and both failure scenarios
with a small replicate count (default 500, a few seconds). The bundled
configs under configs/ run the same experiments at the full 10,000
replicates used in the README table.
"""

import sys
import time

from slicedlhd import ExperimentConfig, SliceSizes, render_table, run_experiment

replicates = int(sys.argv[1]) if len(sys.argv) > 1 else 500
methods = ("RLH", "MLH", "CLH", "IMLH", "ICLH", "SLH", "CSLH")

runs = [
    ("f1", SliceSizes((17, 13, 11, 7)), 5, "all-complete"),
    ("f1", SliceSizes((17, 13, 11, 7)), 5, "one-slice-fails"),
    ("f2", SliceSizes((9, 7, 6)), 2, "all-complete"),
    ("f2", SliceSizes((9, 7, 6)), 2, "one-slice-fails"),
]

t0 = time.time()
reports = []
for integrand, sizes, dim, scenario in runs:
    cfg = ExperimentConfig(
        integrand=integrand, sizes=sizes, dim=dim, methods=methods,
        replicates=replicates, scenario=scenario, seed=20240817,
        f1_variant="x3" if integrand == "f1" else "literal",
    )
    reports.append(run_experiment(cfg))
    print(f"{integrand} / {scenario}: done ({time.time() - t0:.1f}s)")

print()
print(f"RMSE over {replicates} replicates "
      f"(true means: f1 = {reports[0].true_mean}, f2 = {reports[2].true_mean:.6f})")
print()
print(render_table(reports))
