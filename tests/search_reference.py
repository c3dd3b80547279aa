"""Test reference for the scalar 1-D polish.

The library polishes every scalar search with numerics._brent_min.
This module keeps the golden-section search it replaced: golden_min
narrows [a, b] by golden steps until the bracket is no wider than
``width`` and returns the best point it evaluated.  It is not collected
as a test module; test_numerics.py imports it.
"""

import math
from typing import Callable

from growthcalc.numerics import GOLDEN_MAX_ITER, GOLDEN_WIDTH

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(
    f: Callable[[float], float], a: float, b: float, width: float = GOLDEN_WIDTH
) -> tuple[float, float]:
    """Golden-section minimization on [a, b] for a unimodal f."""
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    for _ in range(GOLDEN_MAX_ITER):
        if (b - a) <= width:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INV_PHI * (b - a)
            f2 = f(x2)
        if f1 < best_f:
            best_x, best_f = x1, f1
        if f2 < best_f:
            best_x, best_f = x2, f2
    return best_x, best_f
