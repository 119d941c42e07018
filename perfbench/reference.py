"""A fixed reference kernel that times how fast this machine runs right now.

The benchmark shares its cores with other tenants, and their load changes
the speed of the same code by up to 2x within seconds. The kernel below
mixes, on fixed inputs and with numpy only, the operations that dominate
the library's requests: building Philox streams and drawing permutations
(design draw), the residualize and argsort rank-restore steps (sweep),
integer loops, and formatting and parsing a table of numbers in Python
(partition, design file format).
It never imports slicedlhd, so a change to the library cannot move it.

run.py times the kernel before and after every request and reports request
times scaled by NOMINAL_S / kernel time: the time the request would take
on this machine when the kernel runs in its uncontended NOMINAL_S.
"""

import time

import numpy as np

NOMINAL_S = 0.002

_DESIGNS = np.random.default_rng(0).random((40, 48, 5))
_MIDS = (2.0 * np.arange(1, 49) - 1.0) / 96.0


def _work():
    for r in range(6):
        seq = np.random.SeedSequence(entropy=7, spawn_key=(3, r, 0))
        gen = np.random.Generator(np.random.Philox(seq))
        for _ in range(5):
            gen.permutation(_MIDS)
    values = _DESIGNS.copy()
    base = values.copy()
    cd = base[:, :, 4] - base[:, :, 4].mean(axis=1, keepdims=True)
    den = np.einsum("ij,ij->i", cd, cd)
    for col in range(4):
        rd = base[:, :, col] - base[:, :, col].mean(axis=1, keepdims=True)
        values[:, :, col] = base[:, :, col] - (np.einsum("ij,ij->i", cd, rd) / den)[:, None] * cd
    order = np.argsort(values, axis=1, kind="stable")
    np.put_along_axis(values, order, np.broadcast_to(_MIDS[None, :, None], values.shape), axis=1)
    steps = sum(-(-(7 * (2 * i + 1)) // 190) + (7 * (2 * i - 1)) // 190 for i in range(1, 300))
    # Write and re-read a 180 x 8 levels table, as the design file format does.
    text = "\n".join(" ".join(str(v) for v in range(k, k + 8)) for k in range(1, 1441, 8))
    table = np.asarray([[float(tok) for tok in line.split()] for line in text.splitlines()])
    return steps, table


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
