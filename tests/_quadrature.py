"""Test-time oracle for f2's mean: scipy's adaptive quadrature.

The library stores the quadrature's float as a constant and never imports
scipy; the tests recompute it here. scipy is part of the test extra.
"""

import numpy as np
from scipy.integrate import dblquad


def f2_quadrature(eps: float) -> float:
    """Mean of f2 over the unit square by dblquad at epsabs = epsrel = eps."""
    val, _err = dblquad(
        lambda y, x: np.log(x ** -0.5 + y ** -0.5),
        0.0, 1.0, 0.0, 1.0,
        epsabs=eps, epsrel=eps,
    )
    return float(val)
