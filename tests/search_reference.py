"""Test references for the scalar 1-D searches.

The library polishes every scalar search with numerics._brent_min.
This module keeps the golden-section search it replaced: golden_min
narrows [a, b] by golden steps until the bracket is no wider than
``width`` and returns the best point it evaluated.

numerics.bracket_minimum runs every descent to one range-cap exit.
bracket_minimum here is the earlier form, with a separate exit for a
seed on the cap, a first step clipped to it and a doubling step onto
it; it makes the same probes in the same order and ends the same way.

The library's scalar transform searches evaluate each seed once, and
the inverse transform's minimises one closure, negated in place.
dual_point, sup_log_f_rt and ell_point keep the objectives they
replaced: the dual's maximand G searched through maximize_concave_1d,
its seed walk reading phi anew at each test, the inverse transform's H
through a negating wrapper of minimize_convex_1d (maximize_concave_1d's
polish has no flat stop), and the transform's g reading u.phi_at on
every call.  Each returns the same floats as the library.

It is not collected as a test module; test_numerics.py and
test_legendre.py import it.
"""

import math
from typing import Callable, Union

from growthcalc import legendre
from growthcalc.numerics import (
    GOLDEN_MAX_ITER,
    GOLDEN_WIDTH,
    LOG_ZERO,
    RANGE_CAP,
    Bracket,
    LogScalar,
    OptResult,
    PreconditionViolated,
    _on_cap,
    maximize_concave_1d,
    minimize_convex_1d,
    safe_exp,
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


def dual_point(u, log_r: float) -> float:
    """legendre._dual_point with the maximand G searched through
    maximize_concave_1d, the seed walk's test re-reading phi."""
    if u.in_c_plus_log is False:
        raise PreconditionViolated(f"{u.name} is flagged outside the admissible growth class")
    if log_r == LOG_ZERO:  # no search: -log u(0), a zero as +0.0
        return 0.0 - legendre.ell(u, 0.0).log_ell.log
    sq = safe_exp(0.5 * log_r)

    def G(w: float) -> float:
        p = u.phi_at(2.0 * w)
        if not math.isfinite(p):
            return -math.inf
        return 2.0 * sq * safe_exp(w) - p

    floor = -math.inf if u.log_u0 is None else -u.log_u0

    def stuck(w: float) -> bool:
        g = G(w)
        return not math.isfinite(g) or (g < floor and g == -u.phi_at(2.0 * w))

    seed = 0.5 * log_r
    step = 1.0
    while stuck(seed) and seed > -RANGE_CAP:
        seed -= step
        step *= 2.0
    if not math.isfinite(G(seed)):
        raise PreconditionViolated(f"no representable region for the dual of {u.name}")
    return maximize_concave_1d(G, seed).fx


def sup_log_f_rt(f, log_r: float, lf0: float) -> float:
    """legendre._sup_log_f_rt with the maximand H searched through a
    negating wrapper of minimize_convex_1d."""

    def H(tau: float) -> float:
        t = safe_exp(tau)
        return float(f.log_f(t)) + t * log_r

    res = minimize_convex_1d(lambda tau: -H(tau), max(0.0, log_r))
    return max(-res.fx, lf0)


def ell_point(u, t: float, seed_x: float = 0.0) -> legendre.LegendrePoint:
    """legendre._ell_at with g reading u.phi_at on every call."""
    import numpy as np

    if t == 0.0 and u.increasing and u.defined_at_zero:
        return legendre.LegendrePoint(LogScalar(u.log_u0), 0.0, "lo")

    def g(x: float) -> float:
        return u.phi_at(x) - t * x

    def g_many(xs):
        if u.phi_vec is None:
            return np.array([u.phi_at(x) for x in xs.tolist()]) - t * xs
        vals = u.phi_many(xs) - t * xs
        for i in np.flatnonzero(np.isnan(vals)).tolist():
            vals[i] = g(float(xs[i]))
        return vals

    if u.log_exp_convex:
        res = minimize_convex_1d(g, seed_x)
        x, fx, boundary = res.x, res.fx, res.boundary
    else:
        x, fx, boundary = legendre._scan_minimize(g, g_many, min(u.x_max, RANGE_CAP))
    rho = 0.0 if (boundary == "lo" and x <= -RANGE_CAP + 1e-9) else math.exp(x)
    return legendre.LegendrePoint(LogScalar(fx), rho, boundary)
