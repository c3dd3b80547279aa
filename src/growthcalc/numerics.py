"""Log-domain arithmetic and robust 1-D search kernels.

Everything downstream stores magnitudes as natural logarithms so that
quantities like n**(2n) or exp(r**2) at r = 1e3 never leave IEEE range.
This module owns that convention: a :class:`LogScalar` is a magnitude,
``-inf`` encodes exact zero, and the optimizers/series summers work on
plain floats that are understood to live on the log scale.

Design rules baked in here:

* a series is summed from its stored log terms, all radii at once, and
  stops only where a geometric tail bound from the stored term ratios
  certifies the rest (sequences.sum_stored_series_batch; no uncertified
  truncation),
* 1-D minimization is bracket expansion by step doubling from a seed,
  then a Brent polish (parabolic steps, else golden ones) to an absolute
  bracket width of 1e-12 or, for a convex objective, until its value is
  flat to roundoff, capped at 300 steps,
* every search runs over a logarithmic variable, between the range
  cap -700 and a right end, the cap 700 unless the caller names an
  edge nearer, past which f is +inf (the dual of a function of bounded
  slope); a search that reaches an end brackets a minimum that a probe
  just inside it shows; else at an edge it returns the edge's value,
  flagged "hi", and at the cap a converged boundary limit, flagged, or
  raises :class:`NotBracketable`,
* reports render as strict RFC 8259 JSON: :func:`strict_json` writes
  every non-finite float as null.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

LOG_ZERO = float("-inf")

RANGE_CAP = 700.0
GOLDEN_WIDTH = 1e-12
GOLDEN_MAX_ITER = 300

# where a series sum stops when its caller names no rel_tol
DEFAULT_REL_TOL = 1e-9

# the golden step's share of the larger side, 1 - 1/phi
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

# the flat stop of a convex polish (_brent_min; legendre._brent_min_rows
# takes the first two): the values at the bracket ends within four ulps
# of the best value, split no worse than 1:8, on a bracket under log 2
_FLAT_ULPS = 4.0 * sys.float_info.epsilon
_FLAT_SPLIT = 8.0
_FLAT_WIDTH = math.log(2.0)


class GrowthCalcError(Exception):
    """Base class for kernel failures."""


class NoDecayCertificate(GrowthCalcError):
    """A series summation could not certify a convergent tail."""


class NotBracketable(GrowthCalcError):
    """A 1-D search escaped the representable range without converging."""


class PreconditionViolated(GrowthCalcError):
    """A documented caller-side precondition failed a cheap runtime check."""


def json_finite(obj):
    """obj with every non-finite float (in nested dicts, lists and
    tuples too) replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: json_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_finite(v) for v in obj]
    return obj


def strict_json(obj) -> str:
    """Strict RFC 8259 JSON with sorted keys: non-finite floats become null."""
    return json.dumps(json_finite(obj), sort_keys=True, allow_nan=False)


def safe_exp(x: float) -> float:
    """exp(x) that saturates to inf instead of raising OverflowError."""
    if x > 709.0:
        return math.inf
    return math.exp(x)


@dataclass(frozen=True, slots=True, order=True)
class LogScalar:
    """A nonnegative magnitude stored as its natural log.

    Ordering compares the stored logs, which is exactly the ordering of
    the magnitudes.
    """

    log: float

    @property
    def value(self) -> float:
        """The magnitude itself; overflows to inf past IEEE range."""
        return safe_exp(self.log)


class SeriesSum(NamedTuple):
    """Certified series value plus the truncation index actually used."""

    value: LogScalar
    terms_used: int


class Bracket(NamedTuple):
    """An interval certified to contain a minimizer.

    ``inner`` is a point strictly inside [lo, hi] with
    f(inner) <= min(f_lo, f_hi), which is what certifies the bracket.
    """

    lo: float
    hi: float
    f_lo: float
    f_hi: float
    inner: float
    f_inner: float


class OptResult(NamedTuple):
    """Result of a 1-D search.  ``boundary`` is None for an interior
    optimum, else "lo"/"hi" naming the end of the search range (a range
    cap, or the right edge of f's domain) where the optimum sits."""

    x: float
    fx: float
    boundary: Optional[str]


def _brent_min(
    f: Callable[[float], float],
    a: float,
    b: float,
    x: float,
    fx: float,
    fa: float,
    fb: float,
    width: float = GOLDEN_WIDTH,
    flat: bool = False,
) -> tuple[float, float]:
    """Brent's minimisation of a unimodal f on [a, b] from a point
    a <= x <= b with fx = f(x) <= fa = f(a), fb = f(b); an end value not
    at hand reads as +inf.

    The steps are those of legendre._brent_min_rows on one row, on plain
    floats: a parabolic step through the three best points x, w, v when
    its vertex lies inside the bracket and the step is under half the
    step before last, else a golden step into the larger side.  The ends
    start as w and v, so a certified bracket's first step is its
    parabola; with both end values +inf the first steps are golden.  A
    step shorter than tol = width / 3, or a vertex within 2 tol of an
    end, becomes a step of tol towards the larger side.  The kernel's
    relative step floor is left out.  The search stops at the first of
    the width rule b - a <= width, absolute; with ``flat`` set, the
    kernel's flat rule, max(f(a), f(b)) - f(x) <= delta =
    _FLAT_ULPS max(1, |f(x)|) with x splitting [a, b] no worse than
    1:8, on a bracket no wider than _FLAT_WIDTH = log 2; and
    GOLDEN_MAX_ITER steps.  For f convex the flat rule puts f(x) within
    8 delta of the minimum (the chord bound in _brent_min_rows); for f
    convex in e^x the chord runs in e^x, within 8 e^(b - a) delta <=
    16 delta.  Only a convex search sets it: a unimodal f (holo.norm_g's
    ray, function_equivalent's shift, _scan_minimize's candidates) has
    no chord bound and keeps the width rule alone.  Returns the best
    point found and its value (R. P. Brent, Algorithms for Minimization
    without Derivatives, 1973).
    """
    tol = width / 3.0
    w, fw, v, fv = (b, fb, a, fa) if fb <= fa else (a, fa, b, fb)
    d, e = 0.0, b - a
    for _ in range(GOLDEN_MAX_ITER):
        if b - a <= width:
            break
        lo, hi = a - x, b - x
        if flat and b - a <= _FLAT_WIDTH and _FLAT_SPLIT * min(-lo, hi) >= max(-lo, hi):
            if max(fa, fb) - fx <= _FLAT_ULPS * max(1.0, abs(fx)):
                break
        # the larger side's offset from x, and a tol step into it
        wide, to_mid = (hi, tol) if hi >= -lo else (lo, -tol)
        # the vertex of the parabola through x, w and v is x + num / den
        dw, gw, dv, gv = w - x, fw - fx, v - x, fv - fx
        num = 0.5 * (dw * dw * gv - dv * dv * gw)
        den = dw * gv - dv * gw
        # parabolic when the vertex lies inside, under half the step
        # before last (den * e != 0 here, so the division is safe)
        if tol < abs(e) and 2.0 * abs(num) < abs(den * e) and lo < num / den < hi:
            step = num / den
            if step - lo < 2.0 * tol or hi - step < 2.0 * tol:
                step = to_mid
            e, d = d, step
        else:
            e, d = wide, _INV_PHI2 * wide
        u = x + (d if abs(d) >= tol else to_mid)
        fu = f(u)
        # a tie moves x, as in the kernel, except one at +inf: it keeps
        # the left of the two points, as golden section did, so a search
        # that starts past a right edge of f's domain walks back into it
        if fu < fx or (fu == fx and (fu < math.inf or u < x)):
            if u > x:
                a, fa = x, fx
            else:
                b, fb = x, fx
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u > x:
                b, fb = u, fu
            else:
                a, fa = u, fu
            if fu <= fw:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == w:
                v, fv = u, fu
    return x, fx


def _on_cap(
    f: Callable[[float], float],
    x_cap: float,
    x_before: float,
    f_before: float,
    f_cap: float,
    edge: float = RANGE_CAP,
) -> Union[Bracket, OptResult]:
    """A descent from x_before reached an end of the search range: the
    cap -RANGE_CAP or the right end ``edge``.  A probe 1e-6 inside the
    end below f(end) and f(x_before) brackets a minimum between them.
    Else an edge short of the cap holds the minimum, f being +inf past
    it; the cap holds it once f has flattened out there, and f still
    falling at the cap is an escape."""
    right = x_cap == edge
    x_in = x_cap - 1e-6 if right else x_cap + 1e-6
    f_in = f(x_in)
    if f_in < f_cap and f_in <= f_before:
        (a, fa), (b, fb) = sorted([(x_before, f_before), (x_cap, f_cap)])
        return Bracket(a, b, fa, fb, x_in, f_in)
    if right and edge < RANGE_CAP:
        return OptResult(x_cap, f_cap, "hi")
    if not math.isinf(f_cap) and abs(f_cap - f_before) <= 1e-8 * (1.0 + abs(f_cap)):
        return OptResult(x_cap, f_cap, "hi" if right else "lo")
    raise NotBracketable(
        f"descent still active at range cap x={x_cap:+.6g} "
        f"(f went {f_before:.6g} -> {f_cap:.6g})"
    )


def bracket_minimum(
    f: Callable[[float], float],
    seed: float,
    f_seed: Optional[float] = None,
    edge: float = RANGE_CAP,
) -> Union[Bracket, OptResult]:
    """Expand from ``seed`` by unit steps, doubling, until a minimum is
    bracketed.  ``f_seed``, when given, is f(seed), which a caller that
    has already evaluated the seed passes to save the call.

    The search runs on [-RANGE_CAP, edge]: ``edge`` is the right end of
    f's domain, at most RANGE_CAP, past which f is +inf.  A seed past an
    end starts on it, and a seed on an end that its one neighbour does
    not undercut is a descent from that neighbour.  Every descent that
    ends on an end leaves through _on_cap, so no bracket reaches past
    it: a probe just inside the end brackets a minimum it shows; else
    an edge short of the cap is a boundary value, flagged "hi"; the cap
    is a flagged boundary value when f has flattened out there and
    :class:`NotBracketable` when it is still falling.  A search that
    stays inside the ends probes the points it probes without an edge.
    """
    x0 = min(max(seed, -RANGE_CAP), edge)
    f0 = f_seed if f_seed is not None and x0 == seed else f(x0)

    xr = min(x0 + 1.0, edge)
    xl = max(x0 - 1.0, -RANGE_CAP)
    fr = f(xr) if xr > x0 else math.inf
    fl = f(xl) if xl < x0 else math.inf

    if f0 <= fr and f0 <= fl:
        if -RANGE_CAP < x0 < edge:
            return Bracket(xl, xr, fl, fr, x0, f0)
        x_prev, f_prev = (xl, fl) if x0 == edge else (xr, fr)
        x_cur, f_cur = x0, f0
    else:
        x_prev, f_prev = x0, f0
        x_cur, f_cur = (xr, fr) if fr < fl else (xl, fl)
    direction, step = math.copysign(1.0, x_cur - x_prev), 1.0
    while -RANGE_CAP < x_cur < edge:
        step *= 2.0
        x_next = x_cur + direction * step
        if not -RANGE_CAP < x_next < edge:  # clipped to the end it heads for
            x_next = edge if direction > 0 else -RANGE_CAP
        f_next = f(x_next)
        if f_next >= f_cur:
            a, b = (x_prev, x_next) if direction > 0 else (x_next, x_prev)
            fa, fb = (f_prev, f_next) if direction > 0 else (f_next, f_prev)
            return Bracket(a, b, fa, fb, x_cur, f_cur)
        x_prev, f_prev, x_cur, f_cur = x_cur, f_cur, x_next, f_next
    return _on_cap(f, x_cur, x_prev, f_prev, f_cur, edge)


def minimize_convex_1d(
    f: Callable[[float], float],
    seed: float,
    f_seed: Optional[float] = None,
    edge: float = RANGE_CAP,
) -> OptResult:
    """Minimize a convex function of x, or of e^x, of one variable.

    Returns the interior minimizer found by bracketing plus a Brent
    polish from the bracket's inner point, or a flagged boundary result
    when the infimum is approached at the numeric range cap or sits on
    the right ``edge`` of f's domain (see bracket_minimum).  The polish
    stops on the width rule or the flat rule (_brent_min): the value is
    within 32 eps max(1, |f|) of the minimum of the computed f (64 eps
    for f convex in e^x), the minimizer to the span of a minimum flat
    to that level, as in legendre._brent_min_rows.  ``f_seed`` is f(seed)
    when the caller has it (see bracket_minimum).
    """
    got = bracket_minimum(f, seed, f_seed, edge)
    if isinstance(got, OptResult):
        return got
    x, fx = _brent_min(f, got.lo, got.hi, got.inner, got.f_inner, got.f_lo, got.f_hi, flat=True)
    return OptResult(x, fx, None)


def maximize_concave_1d(
    f: Callable[[float], float],
    seed: float,
    f_seed: Optional[float] = None,
    edge: float = RANGE_CAP,
) -> OptResult:
    """Maximize a concave (or unimodal) function: minimize_convex_1d's
    search of -f on [-RANGE_CAP, edge], its polish stopped by the width
    rule alone, for a maximand with more roundoff than the flat stop's
    four ulps: the dual's 2 sqrt(r) y - log u(y^2), a difference of two
    large terms, read 1.1e-13 relative low on a scaled ks(0.5) with the
    flat stop.  A search over t >= 0 runs in log t: the substitution
    keeps a concave maximand unimodal.

    A bracket whose three values are equal needs no polish (the flat
    rule at delta = 0): a concave f equal at a < x < b is constant on
    [a, b] and no higher outside it.  The dual of ks(1) at r = 1, whose
    maximand is 0 for every y, reads phi 3 times instead of 62.  Only
    the bracket the search hands over is read so: inside a polish the
    dual's maximand can repeat one value at three probes 1e-11 apart,
    600 ulps below its maximum (scaled ks(0.5) at log r = 191).
    """

    def neg(x: float) -> float:
        return -f(x)

    got = bracket_minimum(neg, seed, None if f_seed is None else -f_seed, edge)
    if isinstance(got, Bracket):
        x, fx = got.inner, got.f_inner
        if not got.f_lo == fx == got.f_hi:
            x, fx = _brent_min(neg, got.lo, got.hi, x, fx, got.f_lo, got.f_hi)
        got = OptResult(x, fx, None)
    return OptResult(got.x, -got.fx, got.boundary)


def geometric_grid(lo: float, hi: float, points: int) -> list[float]:
    """Geometrically spaced grid whose ends are lo and hi exactly; the
    interior points are exp of evenly spaced logs, where the ends would
    come back from exp(log x) off by an ulp or more."""
    if not (lo > 0.0 and hi > lo and points >= 2):
        raise ValueError("need 0 < lo < hi and points >= 2")
    la, lb = math.log(lo), math.log(hi)
    inner = [math.exp(la + (lb - la) * i / (points - 1)) for i in range(1, points - 1)]
    return [float(lo), *inner, float(hi)]
