"""Test-time oracle for the integrands' means: plain Monte Carlo.

The library's true means are exact (f1) or stored (f2, see _quadrature);
the tests cross-check both against this estimate and its standard error.
"""

import numpy as np

from slicedlhd import RngStream
from slicedlhd.core import _as_integer


def mc_mean(integrand, dim: int, points: int = 10_000_000, seed: int = 0,
            chunk: int = 1_000_000) -> tuple[float, float]:
    """Plain Monte Carlo mean and its standard error, for oracle cross-checks."""
    counts = {"dim": dim, "points": points, "chunk": chunk}
    for name, value in counts.items():
        if _as_integer(name, value) < 1:
            raise ValueError(f"{name} must be >= 1")
    dim, points, chunk = map(int, counts.values())
    gen = RngStream(seed).split(99).generator()
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < points:
        m = min(chunk, points - done)
        # Uniform on (0,1]: flip the half-open side so the integrands accept it.
        u = 1.0 - gen.random((m, dim))
        vals = integrand(u)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / points
    var = max(total_sq / points - mean * mean, 0.0)
    return mean, float(np.sqrt(var / points))
