"""Test references for the scalar 1-D searches.

The library polishes every scalar search with numerics._brent_min.
This module keeps the golden-section search it replaced: golden_min
narrows [a, b] by golden steps until the bracket is no wider than
``width`` and returns the best point it evaluated.

numerics.bracket_minimum runs every descent to one range-cap exit.
bracket_minimum here is the earlier form, with a separate exit for a
seed on the cap, a first step clipped to it and a doubling step onto
it; it makes the same probes in the same order and ends the same way.

It is not collected as a test module; test_numerics.py imports it.
"""

import math
from typing import Callable, Union

from growthcalc.numerics import (
    GOLDEN_MAX_ITER,
    GOLDEN_WIDTH,
    RANGE_CAP,
    Bracket,
    OptResult,
    _on_cap,
)

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


def bracket_minimum(f: Callable[[float], float], seed: float) -> Union[Bracket, OptResult]:
    """Expand from ``seed`` by unit steps, doubling, until a minimum is
    bracketed, with a range-cap exit at each place a descent can reach
    the cap."""
    x0 = min(max(seed, -RANGE_CAP), RANGE_CAP)
    f0 = f(x0)

    xr = min(x0 + 1.0, RANGE_CAP)
    xl = max(x0 - 1.0, -RANGE_CAP)
    fr = f(xr) if xr > x0 else math.inf
    fl = f(xl) if xl < x0 else math.inf

    if f0 <= fr and f0 <= fl:
        # a seed on the cap has nothing past it to rise
        if x0 == RANGE_CAP:
            return _on_cap(f, x0, xl, fl, f0)
        if x0 == -RANGE_CAP:
            return _on_cap(f, x0, xr, fr, f0)
        return Bracket(xl, xr, fl, fr, x0, f0)

    if fr < fl:
        direction, x_cur, f_cur = 1.0, xr, fr
    else:
        direction, x_cur, f_cur = -1.0, xl, fl
    cap = direction * RANGE_CAP
    if x_cur == cap:
        # the first step was clipped to the cap, still descending
        return _on_cap(f, x_cur, x0, f0, f_cur)

    x_prev, f_prev, step = x0, f0, 1.0
    while True:
        step *= 2.0
        x_next = min(max(x_cur + direction * step, -RANGE_CAP), RANGE_CAP)
        f_next = f(x_next)
        if f_next >= f_cur:
            a, b = (x_prev, x_next) if direction > 0 else (x_next, x_prev)
            fa, fb = (f_prev, f_next) if direction > 0 else (f_next, f_prev)
            return Bracket(a, b, fa, fb, x_cur, f_cur)
        if x_next == cap:
            return _on_cap(f, x_next, x_cur, f_cur, f_next)
        x_prev, f_prev, x_cur, f_cur = x_cur, f_cur, x_next, f_next
