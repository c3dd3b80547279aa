"""Legendre-transform calculus on growth functions.

For a growth function u the module computes the transform
ell_u(t) = inf_{r>0} u(r)/r^t, the inverse theta_f(r) = sup_t f(t) r^t,
the L-series sum ell_u(n) r^n, the sharp series with coefficients
1/(ell_u(n) n!^2), and the dual function u*(r) = sup_s e^{2 sqrt(rs)}/u(s).

Every search runs in logarithmic coordinates: ell minimizes
phi(x) - t x over x = log r, theta maximizes over log t, and the dual
maximizes over log sqrt(s).  The substitutions are monotone, so the
objectives stay unimodal wherever the originals are convex/concave, and
the searched variable stays representable even when the linear-scale
optimizer runs to 1e12.  Escapes past the numeric range raise
NotBracketable; dual_function converts that escape into the value
+infinity, which is what the supremum actually is there.  A dual whose
supremum escapes past some x has a right edge there, found once, at
its first escape (_dual_edge); its phi is +infinity past the edge
without a search, and every search over it stops at the edge
(_edge_search).

verify_suite packages the quantitative statements of the calculus as
named report generators.  Reports serialize with sorted keys so the
same arguments always produce the same bytes.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from math import exp
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .growthfn import GrowthFunction, UnreadParameter, make_growth_function
from .numerics import (
    GOLDEN_MAX_ITER,
    GOLDEN_WIDTH,
    LOG_ZERO,
    RANGE_CAP,
    LogScalar,
    NoDecayCertificate,
    NotBracketable,
    OptResult,
    PreconditionViolated,
    _FLAT_SPLIT,
    _FLAT_ULPS,
    _INV_PHI2,
    _brent_min,
    geometric_grid,
    json_finite,
    maximize_concave_1d,
    minimize_convex_1d,
    safe_exp,
    strict_json,
)
from .sequences import _log_factorials, doubling, sum_windowed_series


LOG2 = math.log(2.0)


class LegendrePoint(NamedTuple):
    """One transform value: log ell_u(t), the minimizer rho(t), and a
    boundary flag when the infimum sat on a domain edge."""

    log_ell: LogScalar
    rho: float
    boundary: Optional[str]


class TauBounds(NamedTuple):
    """One-sided logarithmic slopes r u'(r)/u(r) at a point."""

    tau_minus: float
    tau_plus: float


# --------------------------------------------------------------------------
# the transform


_SCAN_POINTS = 4096


def _scan_candidates(vals: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the finite scan samples that are no higher
    than either neighbour, where a non-finite or missing neighbour reads
    as +inf; the interior of a plateau (phi saturated) is left out, so
    its edges stay candidates."""
    finite = np.isfinite(vals)
    padded = np.concatenate([[math.inf], np.where(finite, vals, math.inf), [math.inf]])
    left, right = padded[:-2], padded[2:]
    plateau = (left == vals) & (vals == right)
    return np.flatnonzero(finite & (vals <= left) & (vals <= right) & ~plateau)


def _scan_minimize(
    g: Callable[[float], float],
    g_many: Callable[[np.ndarray], np.ndarray],
    x_hi: float,
):
    """Global scan + Brent refinement for a possibly multi-basin g on
    [-RANGE_CAP, x_hi].

    The 4096 samples come from one ``g_many`` call on the whole grid;
    _scan_candidates picks the local minima by array masks, and each is
    polished through the scalar g in ascending grid order by _brent_min,
    which starts from the candidate's sample and its neighbours' (a
    non-finite or missing neighbour reads as +inf, an end candidate is
    its bracket's end).  A minimum within one sample of the first or
    last finite sample is at that end, and one rule reads both ends: g
    flat there is a limit, g still falling at the range cap raises
    NotBracketable, and anything else (the evaluator stopped being
    finite) is an attained edge."""
    xs = np.linspace(-RANGE_CAP, x_hi, _SCAN_POINTS)
    vals = g_many(xs)
    finite = np.isfinite(vals)
    fin_idx = np.flatnonzero(finite)
    if fin_idx.size == 0:
        raise PreconditionViolated("objective has no finite values on the scan range")
    j_lo, j_hi = int(fin_idx[0]), int(fin_idx[-1])
    best_x, best_f = math.nan, math.inf
    last = len(xs) - 1
    padded = np.concatenate([[math.inf], np.where(finite, vals, math.inf), [math.inf]])
    for i in _scan_candidates(vals).tolist():
        a = float(xs[max(i - 1, 0)])
        b = float(xs[min(i + 1, last)])
        fa, fx, fb = padded[i : i + 3].tolist()
        x, fx = _brent_min(g, a, b, float(xs[i]), fx, fa, fb)
        if fx < best_f:
            best_x, best_f = x, fx
    spacing = float(xs[1] - xs[0])
    if best_x <= xs[j_lo] + spacing:
        side, name, sign, j, j_in = "lo", "left", -1.0, j_lo, min(j_lo + 1, j_hi)
    elif best_x >= xs[j_hi] - spacing:
        side, name, sign, j, j_in = "hi", "right", 1.0, j_hi, max(j_hi - 1, j_lo)
    else:
        return best_x, best_f, None
    flat = abs(float(vals[j]) - float(vals[j_in])) <= 1e-8 * (1.0 + abs(best_f))
    if not flat and sign * float(xs[j]) >= RANGE_CAP - 1e-9:
        raise NotBracketable(f"scan minimum still descending at the {name} range cap")
    return best_x, best_f, side


def _ell_at(u: GrowthFunction, t: float, seed_x: float = 0.0) -> LegendrePoint:
    if t < 0:
        raise ValueError("the transform needs t >= 0")
    if u.in_c_plus_log is False:
        raise PreconditionViolated(
            f"{u.name} is flagged outside the admissible growth class"
        )
    if t == 0.0 and u.increasing and u.defined_at_zero:
        # the infimum of an increasing u is its value at r = 0
        return LegendrePoint(LogScalar(u.log_u0), 0.0, "lo")

    phi_at = u.phi_at

    def g(x: float) -> float:
        return phi_at(x) - t * x

    def g_many(xs: np.ndarray) -> np.ndarray:
        if u.phi_vec is None:  # point by point: phi_at raises the first refusal
            return np.array([phi_at(x) for x in xs.tolist()]) - t * xs
        vals = u.phi_many(xs) - t * xs
        # phi_many reads NaN where phi refuses: phi_at raises the refusal,
        # at the first such sample, as a point-by-point scan did
        for i in np.flatnonzero(np.isnan(vals)).tolist():
            vals[i] = g(float(xs[i]))
        return vals

    if u.log_exp_convex:

        def point(edge: float, phi_at: Callable[[float], float]) -> OptResult:
            edge = min(edge, RANGE_CAP)
            return minimize_convex_1d(lambda x: phi_at(x) - t * x, seed_x, edge=edge)

        x, fx, boundary = _edge_search(u, point, phi_at)
    else:
        x, fx, boundary = _scan_minimize(g, g_many, min(u.x_max, RANGE_CAP))
    rho = 0.0 if (boundary == "lo" and x <= -RANGE_CAP + 1e-9) else math.exp(x)
    return LegendrePoint(LogScalar(fx), rho, boundary)


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal double
# the square root of the double epsilon: Brent's relative step floor
_SQRT_EPS = math.sqrt(_EPS)
# how far past x a golden step reaches, in lengths of the smaller side,
# once an end is flat: a flat probe there completes a 1:4 bracket
_FLAT_REACH = 4.0


def _brent_bracket(s: np.ndarray):
    """What _brent_min_rows' stop rules and golden step read off its
    state s: the offsets of a and b from x, the larger one, tol, twice
    the offset of the bracket's midpoint from x (its sign points to the
    larger side, where a golden step goes), the golden step's length and
    which rows still run.  Its other arrays are freed on return, which
    keeps the lockstep loop's peak memory down."""
    off = s[0:4:2] - s[4]  # a - x <= 0 <= b - x
    rise = s[1:4:2] - s[5]  # f(a) - f(x), f(b) - f(x)
    gap_lo = -off[0]
    wide, narrow = np.maximum(gap_lo, off[1]), np.minimum(gap_lo, off[1])
    tol1 = _SQRT_EPS * np.abs(s[4]) + GOLDEN_WIDTH / 3.0
    flat_ends = rise <= _FLAT_ULPS * np.maximum(s[14], np.abs(s[5]))
    flat = flat_ends[0] & flat_ends[1] & (_FLAT_SPLIT * narrow >= wide)
    run = (wide > 2.0 * tol1) > flat  # wide and not flat
    golden = _INV_PHI2 * wide
    np.minimum(golden, _FLAT_REACH * narrow, out=golden, where=flat_ends[0] | flat_ends[1])
    return off, wide, tol1, off[0] + off[1], golden, run


def _brent_vertex(s: np.ndarray) -> np.ndarray:
    """The step from x to the vertex of the parabola through x, w and v
    (NaN or +-inf where they are collinear or coincide)."""
    near = s[6:10].reshape(2, 2, -1) - s[4:6]  # w - x, fw - fx; v - x, fv - fx
    rq = near[:, 0] * near[::-1, 1]  # r = (x - w)(fx - fv), q = (x - v)(fx - fw)
    pq = near[:, 0] * rq
    step = (pq[1] - pq[0]) / (rq[1] - rq[0])
    step *= 0.5
    return step


def _brent_min_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    fx: np.ndarray,
    fa: np.ndarray,
    fb: np.ndarray,
    scale: np.ndarray | float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Brent's bounded minimisation on many rows in lockstep.

    Row k searches its bracket [a_k, b_k] from the inner point
    a_k < x_k < b_k, with f(x_k) = fx_k <= fa_k = f(a_k) and
    fb_k = f(b_k), by the steps of scipy's fminbound (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973): a parabolic
    step through the three best points when it lands inside the bracket
    and shrinks, else a golden step into the larger side; a step shorter
    than tol = sqrt(eps) |x| + GOLDEN_WIDTH / 3, or a vertex within
    2 tol of an end, becomes a step of tol towards the larger side.  The
    bracket ends start as the second and third best points, so the first
    step is the parabola through the bracket.  The best point x keeps
    f(x) <= f(a), f(b).

    A row stops at the first of three rules:

    * width: both ends lie within 2 tol of x, which is fminbound's
      |x - mid| <= 2 tol - (b - a)/2;
    * flat: max(f(a), f(b)) - f(x) <= delta =
      4 eps max(1, |f(x)|, scale_k) and x splits [a, b] no worse than
      1:8;
    * GOLDEN_MAX_ITER steps.

    The width rule alone cannot be met where f is flat to roundoff over
    more than 2 tol, as near a minimiser at x = 0, where tol is its
    floor GOLDEN_WIDTH / 3: the steps there wander on rounding noise.
    The flat rule stops such a row once its value is fixed.  Its
    certificate, for f convex on [a, b]: a minimiser z lies in [a, b]
    (f(x) <= f(a), f(b)), say in [a, x]; x lies between z and b, so
    f(x) <= ((b - x) f(z) + (x - z) f(b)) / (b - z), that is
    f(z) >= f(x) - (x - z)/(b - x) (f(b) - f(x)) >= f(x) - 8 delta, and
    likewise for z in [x, b].  The returned value is therefore within
    8 delta = 32 eps max(1, |f(x)|, scale_k) of the minimum of f, on
    top of the rounding of f itself.  delta is four ulps, the rounding
    of the few operations an objective like phi(x) - t x makes; a
    smaller delta would leave the roundoff-bound rows stepping, a larger
    one would loosen the bound.  ``scale`` (0 by default) is the size of
    the terms whose difference f is, where they are larger than f: the
    dual's maximand c y - psi(y) rounds to about 8 eps (|c y| + |psi|),
    above 4 eps |f|, so its rows pass |c y| + |psi| at the cell's
    centre, and the bound is then 32 eps of that scale, the maximand's
    own rounding.  The 1:8 split keeps the chord factor
    (x - z)/(b - x) at most 8.  Where f is convex in y = e^x rather than
    in x, the same chord runs in y, whose split is within a factor
    e^(b - a) of the split in x: the bound is 8 e^(b - a) delta.

    Once an end is flat to delta, a golden step reaches no further than
    _FLAT_REACH times the smaller side: a flat value there completes a
    1:4 bracket and a steeper one closes the larger side in, which
    golden steps alone shrink by 0.62 a step.  On the width rule the minimiser is fixed to 2 tol and the
    value to f'' (2 tol)^2 / 2; on the flat rule the minimiser is fixed
    to the bracket, flat to delta, so to about sqrt(eps) relative.

    Every operation is elementwise, so row k takes the path a one-row
    call takes.  ``f(rows, xs)`` evaluates row rows[j] at xs[j], once per
    step for every row still running; a row that stops is dropped from
    the state.  Returns the best points and their values.
    """
    # the state, one row per column: the bracket ends a, b, the best,
    # second and third best points x, w, v and the probe u (rows 0, 2,
    # ..., 10), each with its value in the row below, then the last step
    # d, the step before it e and the flat rule's floor max(1, scale)
    s = np.empty((15, len(x)))
    s[0], s[1], s[2], s[3], s[4], s[5] = a, fa, b, fb, x, fx
    s[14] = np.maximum(1.0, scale)
    lower = s[3] <= s[1]
    s[6:8] = np.where(lower, s[2:4], s[0:2])
    s[8:10] = np.where(lower, s[0:2], s[2:4])
    s[12], s[13] = 0.0, s[2] - s[0]
    rows = np.arange(s.shape[1])
    best = s[4:6].copy()
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(GOLDEN_MAX_ITER):
            off, wide, tol1, mid, golden, run = _brent_bracket(s)
            # a call with no rows stops here too, before any step
            if not (rows.size and run.all()):
                best[:, rows] = s[4:6]
                keep = np.flatnonzero(run)
                s, rows = s.take(keep, axis=1), rows[keep]
                if not rows.size:
                    break
                off, wide, tol1, mid, golden = (
                    v.take(keep, axis=-1) for v in (off, wide, tol1, mid, golden)
                )
            x, d, e = s[4], s[12], s[13]
            step = _brent_vertex(s)
            # the vertex's distance to the nearer end, negative outside
            inside = np.minimum(step - off[0], off[1] - step)
            parabolic = (np.maximum(2.0 * np.abs(step), tol1) < np.abs(e)) & (inside > 0.0)
            to_mid = np.copysign(tol1, mid)
            step = np.where(inside < 2.0 * tol1, to_mid, step)
            # only |e| is read: after a golden step, the larger side's length
            e = np.where(parabolic, d, wide)
            d = np.where(parabolic, step, np.copysign(golden, mid))
            np.add(x, np.where(np.abs(d) < tol1, to_mid, d), out=s[10])
            # free the step's arrays before f and the update make theirs
            del off, wide, mid, golden, step, inside, parabolic, to_mid
            s[11] = f(rows, s[10])
            better = s[11] <= s[5]
            # the probe replaces the end on its side when it is worse, the
            # best point's end on the far side when it is better
            new_end = np.where(better, s[4:6], s[10:12])
            move_a = better == (s[10] > x)
            s[0:2] = np.where(move_a, new_end, s[0:2])
            s[2:4] = np.where(move_a, s[2:4], new_end)
            # the probe ranks second or third unless it is the new best
            below = s[11] <= s[7:10:2]  # fu <= fw, fu <= fv
            second, third = below[0], below[1] | (s[8] == s[6])
            s[8:10] = np.where(better | second, s[6:8], np.where(third, s[10:12], s[8:10]))
            s[6:8] = np.where(better, s[4:6], np.where(second, s[10:12], s[6:8]))
            s[4:6] = np.where(better, s[10:12], s[4:6])
            s[12], s[13] = d, e
        else:
            best[:, rows] = s[4:6]
    return best[0], best[1]


class _Profile:
    """log ell_u(n), rho(n) and the boundary flag of one function for
    n < len(self), each array exactly the profile; the refusal that
    stopped its growth: the class and arguments of the error, None while
    it can still grow; the phi sample that its blocks and series bounds
    read (_profile_sample: all of phi, or for a dual only the grid
    points a cell has read) and the psi sample that its dual's lockstep
    search and edge estimate read (_dual_sample), each None until one
    reads it; the base u of a dual, whose psi sample locates the dual's
    cells, else None; and the right edge of its domain, which its
    searches stop at (_edge_search): +inf but for a dual, whose edge is
    None until one of its searches escapes (dual_function), with phi
    there, which every search that stops on the edge reads.  None of
    them holds the function itself or an error, whose traceback would
    keep the function alive through the cache's weak key."""

    def __init__(self, base: Optional[GrowthFunction] = None):
        self.log_ell, self.rho = np.empty(0), np.empty(0)
        self.boundary = np.empty(0, dtype=object)
        self.refusal = None
        self.sample = None
        self.dual_sample = None
        self.base = base
        self.edge: Optional[float] = math.inf if base is None else None
        self.edge_phi = None

    def __len__(self) -> int:
        return len(self.log_ell)

    def __getitem__(self, n: int) -> LegendrePoint:
        n = range(len(self))[n]
        return LegendrePoint(LogScalar(float(self.log_ell[n])), float(self.rho[n]), self.boundary[n])

    def extend(self, log_ell, rho, boundary) -> None:
        self.log_ell, self.rho = np.append(self.log_ell, log_ell), np.append(self.rho, rho)
        self.boundary = np.append(self.boundary, boundary)


_PROFILE_CACHE: "weakref.WeakKeyDictionary[GrowthFunction, _Profile]" = (
    weakref.WeakKeyDictionary()
)


def _profile_of(u: GrowthFunction) -> _Profile:
    """u's cached _Profile, an empty one on first use."""
    prof = _PROFILE_CACHE.get(u)
    if prof is None:
        prof = _PROFILE_CACHE[u] = _Profile()
    return prof


class _EdgeMet(Exception):
    """A search read +inf from a dual after a search of the dual found
    its edge: _edge_search runs it again, stopped at the edge."""


def _edge_search(u: GrowthFunction, search: Callable, read: Callable):
    """search(edge, read): a search whose objective reads u's phi
    through ``read`` (u.phi_at or u.phi_many) and stops at x = edge, the
    right edge of u's domain.

    The edge is +inf (no edge) for all but a dual, whose edge is unknown
    until the first of its searches to escape finds it (_dual_value).  A
    search over a dual with no edge yet reads through a wrapper that
    raises _EdgeMet at a +inf read once the edge is known, found by this
    read or an earlier one; the search then runs again from its start,
    stopped at the edge.  A search that meets no +inf runs once, as it
    runs over any other function."""
    # only dual_function's duals have a profile with an edge
    prof = _PROFILE_CACHE.get(u) if u.family == "dual" else None
    edge = math.inf if prof is None else prof.edge
    if edge is not None:
        return search(edge, read)

    def met(x):
        p = read(x)
        if prof.edge is not None and prof.edge < math.inf and np.any(p == math.inf):
            raise _EdgeMet
        return p

    try:
        return search(math.inf, met)
    except _EdgeMet:
        return search(prof.edge, read)


class _PhiSample(NamedTuple):
    """phi on the grid of _SCAN_POINTS points x on [-RANGE_CAP,
    min(x_max, RANGE_CAP)], NaN at a point not read yet; which points
    are read, None where phi was read on the whole grid at once; and the
    nondecreasing slopes that locate an order's cell, one a grid step."""

    x: np.ndarray
    phi: np.ndarray
    read: Optional[np.ndarray]
    slopes: np.ndarray


def _profile_sample(u: GrowthFunction) -> _PhiSample:
    """u's phi sample, taken at the first use and kept on its _Profile,
    which every _profile_block, _cap_gap's guard and _first_gap read.

    For most u it is one phi_many call on the whole grid, with the
    running maximum of phi's chord slopes.  A dual's phi is a nested
    search at every point, so its sample starts unread: its slopes are
    phi's own slope at each step's midpoint x, c y* / 2 with
    c = 2 e^(x/2) by the envelope theorem and y* the y_i of the base's
    psi cell where psi's chord slopes reach c, as _dual_lockstep takes
    it (Y. Lucet, Faster than the Fast Legendre Transform, 1997).  They
    locate a cell to within a step or two (_dual_cells)."""
    prof = _profile_of(u)
    if prof.sample is None:
        xs = np.linspace(-RANGE_CAP, min(u.x_max, RANGE_CAP), _SCAN_POINTS)
        if prof.base is None:
            ph, read = u.phi_many(xs), None
            with np.errstate(over="ignore", invalid="ignore"):
                slopes = np.fmax.accumulate(np.diff(ph) / np.diff(xs))
        else:
            S = _dual_sample(prof.base)
            ph, read = np.full(len(xs), math.nan), np.zeros(len(xs), dtype=bool)
            with np.errstate(over="ignore"):
                c = 2.0 * np.exp(0.25 * (xs[:-1] + xs[1:]))
                slopes = 0.5 * c * S.y[np.clip(np.searchsorted(S.slopes, c), 1, len(S.w) - 2)]
        prof.sample = _PhiSample(xs, ph, read, slopes)
    return prof.sample


# the offsets of a grid point's cell: the points before, at and after it
_CELL = np.array([[-1], [0], [1]])
# the offsets a dual's cell reads: its cell and the cells one step away
_NEAR = np.arange(-2, 3)[:, None]
# how many steps a cell located by a dual's estimated slopes may move
_CELL_MOVES = 4


def _dual_cells(u: GrowthFunction, S: _PhiSample, ts: np.ndarray, i: np.ndarray) -> np.ndarray:
    """The cells of the orders ts in a dual's sample S, from the cells i
    that its estimated slopes locate.  Each round reads phi, in one
    phi_many call kept on S, at the cells' points not read yet (in the
    first round one step past them too, so a first move reads nothing);
    then a cell whose first chord reaches t, or whose second does not,
    moves one step towards the neighbour with the lower g.  The chords
    are formed as a full sample forms them, so a cell that stops moving
    is the full sample's cell.  One still moving after _CELL_MOVES
    rounds is left to the certificate, NaN where it was not read."""
    last = len(S.x) - 2
    reach = _NEAR
    for _ in range(_CELL_MOVES):
        near = np.clip(i + reach, 0, last + 1)
        new = np.unique(near[~S.read[near]])
        if new.size:
            S.phi[new], S.read[new] = u.phi_many(S.x[new]), True
        at, reach = i + _CELL, _CELL
        with np.errstate(over="ignore", invalid="ignore"):
            chord = np.diff(S.phi[at], axis=0) / np.diff(S.x[at], axis=0)
        moved = np.clip(i - (chord[0] >= ts) + (chord[1] < ts), 1, last)
        if (moved == i).all():
            break
        i = moved
    return i


def _sample_cells(u: GrowthFunction, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cell of every order t in ts in u's phi sample: the interior
    grid index i of the first chord of phi whose slope reaches t (for a
    dual, _dual_cells), g(x) = phi(x) - t x at x_{i-1}, x_i and x_{i+1}
    (rows 0-2), and whether Bracket's certificate keeps
    [x_{i-1}, x_{i+1}] (see _profile_block)."""
    S = _profile_sample(u)
    i = np.clip(np.searchsorted(S.slopes, ts), 1, len(S.x) - 2)
    if S.read is not None:
        i = _dual_cells(u, S, ts, i)
    at = i + _CELL
    ph = S.phi[at]
    g = ph - ts * S.x[at]
    tie = g[1] - _FLAT_ULPS * np.maximum(1.0, np.abs(g[1]))
    kept = np.isfinite(ph).all(axis=0) & (tie <= g[0]) & (tie <= g[2])
    return i, g, kept


def _profile_block(u: GrowthFunction, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log ell and rho at the orders ts from the phi sample, for a
    (log, exp)-convex u with a vectorised phi.

    The first chord of the sample whose slope reaches t gives the
    interior grid point x_i where g(x) = phi(x) - t x stops falling
    (_sample_cells; a dual's sample reads phi only at those cells).  An
    order keeps [x_{i-1}, x_{i+1}] only
    under Bracket's certificate (the three values finite,
    g(x_i) <= g(x_{i-1}) + delta and g(x_i) <= g(x_{i+1}) + delta, with
    delta = _FLAT_ULPS max(1, |g(x_i)|) as in _brent_min_rows' flat
    stop); every kept order is then polished in lockstep from x_i, one
    phi_many call per step.  Orders without the certificate come back
    as NaN.  No (order x grid) matrix is formed.

    delta forgives a tie: where t equals a chord slope to roundoff (the
    minimizer mid-cell), g(x_i) can exceed a neighbour's by an ulp
    although the slopes place the minimizer z of the convex g in the
    bracket.  The polish keeps f(x) <= min(f(a), f(b)) + delta (a better
    probe becomes x) and z in [a, b] (a worse probe lies beyond x from
    z), so the flat stop's chord bound holds: if f(b) < f(x), z lies in
    [x, b] and f(z) >= f(x) - 8 (f(a) - f(x)) >= f(x) - 8 delta by the
    1:8 split.  The value is within 8 delta = 32 eps max(1, |log ell|)
    of the minimum, as for a strict bracket.
    """
    xs = _profile_sample(u)[0]
    i, g, kept = _sample_cells(u, ts)
    rows = np.flatnonzero(kept)
    t, i, g = ts[rows], i[rows], g[:, rows]
    x, fx = _brent_min_rows(
        lambda k, x: u.phi_many(x) - t[k] * x, xs[i - 1], xs[i + 1], xs[i], g[1], g[0], g[2]
    )
    log_ell, rho = np.full(len(ts), math.nan), np.full(len(ts), math.nan)
    log_ell[rows], rho[rows] = fx, np.exp(x)
    return log_ell, rho


# a block costs about 1-2.5 ms whatever its size: the phi sample and
# about ten lockstep steps (29 before the flat stop ended the t = 1
# row's tail), the sample about half of it for exp_2; on a fresh
# ks(0.5), exp, exp_2 and exp[r^2] the walk of one _ell_at per order
# (70-110 us each) was still faster below 20-32 orders
_BLOCK_MIN_ROWS = 24


def _in_blocks(u: GrowthFunction) -> bool:
    """Whether _profile_block serves u: a vectorised phi, flagged
    (log, exp)-convex."""
    return u.phi_vec is not None and bool(u.log_exp_convex)


def _warm_seed(rho: float) -> float:
    """log of the last minimizer (rho is increasing in t), else 0."""
    if 0.0 < rho < math.inf:
        return math.log(rho)
    return 0.0


def _grown_profile(u: GrowthFunction, n_max: int) -> _Profile:
    """u's cached integer profile, grown towards the orders 0..n_max and
    short of them only where an order refused.

    One rule grows it.  Order 0 of an empty profile goes through
    _ell_at, which checks the class precondition and the t = 0 case.
    When u has a vectorised phi and is flagged (log, exp)-convex and at
    least _BLOCK_MIN_ROWS orders are missing, one _profile_block runs
    over all of them; its Brent polish fixes log ell to roundoff and rho
    to about the square root of machine epsilon.  The orders are then
    taken in turn: the block's certified rows as they are, and each
    order it leaves, like every order of any other u, from _ell_at
    warm-started at the previous minimizer.  A block polishes each row
    on its own, so an order's value does not depend on which block
    built it, nor on which of its rows were polished with it.

    The first order whose _ell_at raises NoDecayCertificate or
    NotBracketable ends the growth for good: the orders before it stay
    cached and the profile records the refusal, so no later call
    searches that order again.  Other errors (the class precondition)
    pass through and record nothing.
    """
    prof = _profile_of(u)
    n = len(prof)
    if n > n_max or prof.refusal is not None:
        return prof
    orders = np.arange(n, n_max + 1, dtype=float)
    log_ell, rho = np.full(len(orders), math.nan), np.full(len(orders), math.nan)
    boundary = np.full(len(orders), None, dtype=object)
    end = 0  # the new orders before end are built; a refusal at end stops them
    try:
        if not n:
            p = _ell_at(u, 0.0)
            log_ell[0], rho[0], boundary[0], end = p.log_ell.log, p.rho, p.boundary, 1
        if len(orders) - end >= _BLOCK_MIN_ROWS and _in_blocks(u):
            log_ell[end:], rho[end:] = _profile_block(u, orders[end:])
        for end in np.flatnonzero(np.isnan(log_ell)):
            p = _ell_at(u, float(orders[end]), _warm_seed(rho[end - 1] if end else prof.rho[-1]))
            log_ell[end], rho[end], boundary[end] = p.log_ell.log, p.rho, p.boundary
        end = len(orders)
    except (NoDecayCertificate, NotBracketable) as exc:
        prof.refusal = (type(exc), exc.args)
    prof.extend(log_ell[:end], rho[:end], boundary[:end])
    return prof


def _integer_profile(u: GrowthFunction, n_max: int) -> _Profile:
    """_grown_profile holding at least the orders 0..n_max, else the
    error of the order that refused, raised anew."""
    prof = _grown_profile(u, n_max)
    if len(prof) <= n_max:
        cls, args = prof.refusal
        raise cls(*args)
    return prof


def ell(u: GrowthFunction, t: float) -> LegendrePoint:
    """The transform at one point: minimize phi(x) - t x over x = log r.

    Returns the log of the infimum, the minimizer rho(t) = e^x, and a
    flag when the infimum was attained or approached on a boundary.
    Integer t values are cached per function, since the series builders
    walk them densely; _grown_profile grows that cache in vectorised
    blocks for (log, exp)-convex functions with a vectorised phi.  One
    precision covers the blocks and the point search of a
    (log, exp)-convex u: both Brent polishes stop on their width rule
    or on the flat rule, so log ell is within
    32 eps max(1, |log ell|) of the minimum of the computed
    phi(x) - t x, which is convex there, and rho, the argmin of a
    minimum flat to that level, is fixed to within
    sqrt(64 eps max(1, |log ell|) / phi''(log rho)) relative: 1.2e-7
    where both are of order one, 5.5e-5 on log-square at t = 1300.5.
    The scan of any other u polishes to the 1e-12 bracket alone.  A
    NoDecayCertificate of the point search for a (log, exp)-convex u
    and t <= _SERIES_CAP is retried once from rho(floor(t)); if that
    fails too, the first refusal is raised.
    """
    t = float(t)
    if t < 0:
        raise ValueError("the transform needs t >= 0")
    # only small integers go through the cached walk: every float >= 2^52
    # is integral, and a search probing t ~ 1e15 must not build the
    # profile below it point by point
    if t.is_integer() and t <= _SERIES_CAP:
        return _integer_profile(u, int(t))[int(t)]
    try:
        return _ell_at(u, t)
    except NoDecayCertificate as exc:
        # a cold search from x = 0 can probe an L-series where it refuses
        if not (u.log_exp_convex and t <= _SERIES_CAP):
            raise
        n = int(t)
        try:
            return _ell_at(u, t, _warm_seed(float(_integer_profile(u, n).rho[n])))
        except (NoDecayCertificate, NotBracketable):
            raise exc from None


def tau_bounds(u: GrowthFunction, r: float) -> TauBounds:
    """One-sided slopes of phi at x = log r by Richardson-refined
    difference quotients; for convex phi these bracket the transform's
    active t interval at r."""
    if r <= 0:
        raise ValueError("tau bounds need r > 0")
    if u.log_exp_convex is False:
        raise PreconditionViolated(f"{u.name} is flagged non-convex in (log, exp)")
    x = math.log(r)
    h = 1e-4

    def left(hh: float) -> float:
        return (u.phi_at(x) - u.phi_at(x - hh)) / hh

    def right(hh: float) -> float:
        return (u.phi_at(x + hh) - u.phi_at(x)) / hh

    tm = 2.0 * left(h / 2.0) - left(h)
    tp = 2.0 * right(h / 2.0) - right(h)
    if tm > tp:
        # smooth point: the one-sided slopes agree and the extrapolation
        # noise decided the order; restore it
        tm, tp = tp, tm
    return TauBounds(tm, tp)


# --------------------------------------------------------------------------
# the inverse transform


@dataclass(frozen=True)
class LogConcaveProfile:
    """A positive profile t >= 0 -> f(t) given through log f, with an
    index t0 beyond which f is decreasing: asserted by the caller, or
    None, and then detected by admissibility_report from its samples.

    Only admissibility_report (and so theta_function) reads t0;
    inverse_legendre reads log f alone."""

    log_f: Callable[[float], float]
    t0: Optional[float] = 1.0
    name: str = "profile"


# admissibility_report's grid t = 0..T_HI and its relative tolerance
_ADMISSIBLE_T_HI = 200.0
_ADMISSIBLE_POINTS = 201
_ADMISSIBLE_TOL = 1e-8


def admissibility_report(f: LogConcaveProfile) -> dict:
    """Finite-evidence check of the three inverse-transform conditions:
    the t-th root heads to zero, f decreases beyond t0, and log f is
    concave on the grid.  The thresholds (final root value <= -1, a
    drop of at least 0.2 over the tail) are engineering choices; a
    profile that decays too gently to clear them reads as inadmissible
    even if its limit is genuinely zero.

    log f is sampled at t = 200 down to 0, so an ell_profile grows its
    integer orders to 200 in one block.  A t0 of None is taken as the
    last of the orders 0..60 where the samples still rise; the report
    records the t0 it used."""
    ts = np.linspace(0.0, _ADMISSIBLE_T_HI, _ADMISSIBLE_POINTS)
    # log_f is a scalar callable; the three tests reduce its samples in numpy
    vals = np.array([float(f.log_f(float(t))) for t in ts[::-1]])[::-1]
    t0 = f.t0 if f.t0 is not None else float(_detect_n0(vals[:61].tolist()))

    with np.errstate(invalid="ignore"):
        at = ts >= max(t0, 1.0)
        roots = vals[at] / ts[at]
        half = roots[len(roots) // 2 :]
        root_decreasing = bool(np.all(half[1:] <= half[:-1] + 1e-12))
        drop = float(half[0] - half[-1]) if len(half) >= 2 else 0.0
        decays = bool(root_decreasing and len(roots) and roots[-1] <= -1.0 and drop >= 0.2)

        tail = vals[ts >= t0]
        slack = _ADMISSIBLE_TOL * np.maximum(1.0, np.abs(tail[:-1]))
        decreasing = bool(np.all(tail[1:] <= tail[:-1] + slack))

        a, b, c = vals[:-2], vals[1:-1], vals[2:]
        scale = np.maximum(np.maximum(1.0, np.abs(a)), np.maximum(np.abs(b), np.abs(c)))
        # a NaN row is no violation: the worst ratio skips it
        worst = max(0.0, float(np.fmax.reduce((0.5 * (a + c) - b) / scale)))

    return {
        "decays": decays,
        "decreasing_beyond_t0": decreasing,
        "log_concave": bool(worst <= _ADMISSIBLE_TOL),
        "final_root": float(roots[-1]) if len(roots) else math.nan,
        "root_drop": drop,
        "concavity_violation": worst,
        "t0": t0,
        "t_hi": _ADMISSIBLE_T_HI,
    }


def _detect_n0(logs: Sequence[float]) -> int:
    """Smallest integer from which the stored transform values only
    fall (the last index where they still rise); recorded in reports
    because no a-priori bound exists for it."""
    n0 = 0
    for i in range(1, len(logs)):
        if logs[i] > logs[i - 1] + 1e-12:
            n0 = i
    return n0


def ell_profile(u: GrowthFunction) -> LogConcaveProfile:
    """The transform of u as an inverse-transform input, with t0 None:
    admissibility_report (and so theta_function) detects it from the
    integer orders 0..60 it samples.  inverse_legendre builds only the
    orders that its integer probes read."""
    return LogConcaveProfile(lambda t: ell(u, t).log_ell.log, None, f"ell[{u.name}]")


def _sup_log_f_rt(f: LogConcaveProfile, log_r: float, lf0: float) -> float:
    """sup over t >= 0 of log f(t) + t log r, searched in tau = log t."""
    log_f = f.log_f

    def neg_H(tau: float) -> float:
        t = math.inf if tau > 709.0 else exp(tau)
        return -(float(log_f(t)) + t * log_r)

    return max(-minimize_convex_1d(neg_H, max(0.0, log_r)).fx, lf0)


def inverse_legendre(f: LogConcaveProfile, r: float) -> LogScalar:
    """sup_{t>=0} f(t) r^t in the log domain.

    The maximand is concave in t for admissible f and stays unimodal
    under the log-t substitution, so bracketing and a Brent polish
    apply; a supremum still rising at the range cap raises
    NotBracketable, which signals that f decays too slowly for this r.
    """
    if r < 0:
        raise ValueError("the inverse transform needs r >= 0")
    lf0 = float(f.log_f(0.0))
    if r == 0.0:
        return LogScalar(lf0)  # 0^0 = 1: only the t = 0 term survives
    return LogScalar(_sup_log_f_rt(f, math.log(r), lf0))


def theta_function(f: LogConcaveProfile) -> GrowthFunction:
    """The inverse transform of f packaged as a growth function, once f
    passes admissibility_report.

    A supremum of the affine maps x -> log f(t) + t x is convex in x and
    nondecreasing (t >= 0), which fixes the hint flags.
    """
    rep = admissibility_report(f)
    if not (rep["decays"] and rep["decreasing_beyond_t0"] and rep["log_concave"]):
        raise PreconditionViolated(f"profile {f.name} failed admissibility: {rep}")
    lf0 = float(f.log_f(0.0))
    return GrowthFunction(
        lambda x: _sup_log_f_rt(f, x, lf0),
        name=f"theta[{f.name}]",
        family="theta",
        params={"base": f.name},
        log_u0=lf0,
        increasing=True,
        log_exp_convex=True,
        in_c_plus_log=True,
    )


# --------------------------------------------------------------------------
# series built on the integer profile

_SERIES_START = 64
_SERIES_CAP = 4096


def _coeff_logs(u: GrowthFunction, n: int, tag: str) -> np.ndarray:
    """log ell_u(k) for L_u ("l"), -log ell_u(k) - 2 log k! for L#_u ("sharp"), k = 0..n."""
    logs = _integer_profile(u, n).log_ell[: n + 1]
    if tag == "l":
        return logs.copy()
    return -logs - 2.0 * _log_factorials(n)


def _gap_bound(x: float, v: float, n: int, tag: str) -> float:
    """The lower bound on a window's last coefficient gap c_n - c_{n-1}
    that x, the log of a minimizer of order n for L ("l") or n - 1 for
    L# ("sharp"), gives: -x for L, x - 2 (log n! - log (n-1)!) for L#,
    less _cap_gap's roundoff margin, for |v| at least |log ell| there."""
    t = float(n) if tag == "l" else n - 1.0
    scale = 1.0 + abs(v) + 2.0 * t * abs(x)
    if tag == "l":
        return -x - 128.0 * _EPS * scale
    below, top = _log_factorials(n)[-2:].tolist()
    return x - 2.0 * (top - below) - 128.0 * _EPS * (scale + 2.0 * top)


def _cap_gap(u: GrowthFunction, cap: int, tag: str) -> Optional[float]:
    """A lower bound on the cap window's last coefficient gap
    c_cap - c_{cap-1}, less a roundoff margin, if growing u's profile to
    ``cap`` would be one block that keeps every order (no recorded
    refusal, at least _BLOCK_MIN_ROWS orders missing, _sample_cells'
    certificate on all of them); else None.

    log ell_u is concave in t, an infimum of the affine maps
    t -> log u(r) - t log r, so rho(t) bounds the neighbours of t:
    log ell_u(t -+ 1) <= log ell_u(t) +- log rho(t).  One _ell_at,
    seeded at the order's cell in the phi sample, gives -log rho(cap)
    for L and log rho(cap - 1) - 2 (log cap! - log (cap-1)!) for L#
    (_gap_bound); a search that refuses or ends on a boundary gives
    None.  Order cap - 1 cannot see order cap refuse, so the certificate
    stays (L# of log_square at cap 1398 would be NoDecayCertificate, not
    the growth's NotBracketable).  The guard and the blocks read one phi
    sample, kept on the profile.

    The margin: with G_s(x) the computed phi(x) - s x, v = G_t(x) at
    x = log rho(t) and s = t -+ 1, the block's value at t is at least
    min G_t >= v - 32 eps max(1, |v|) (the flat rule's certificate, or
    the width stop's g''(x) 1e-24 / 2, below it where g'' < 1.4e10;
    minimize_convex_1d stops on the first), at s within
    32 eps max(1, |v| + |x|) of min G_s <= G_s(x) = v +- x, all up to a
    few ulps of |v| + 2 t |x|, and the coefficients round by a few ulps
    of |v| + 2 log cap! (L# only).  128 eps (1 + |v| + 2 t |x|), plus
    256 eps log cap! for L#, covers them all.  The bound lies about half
    a second difference below the gap (-4.9e-4 against -2.4e-4 for L# of
    ks(1)); a radius in between takes the growth.
    """
    prof = _PROFILE_CACHE[u]
    if prof.refusal is not None or cap + 1 - len(prof) < _BLOCK_MIN_ROWS:
        return None
    i, _, kept = _sample_cells(u, np.arange(len(prof), cap + 1.0))
    if not kept.all():
        return None
    t, at = (float(cap), -1) if tag == "l" else (cap - 1.0, -2)
    try:
        p = _ell_at(u, t, float(_profile_sample(u)[0][i[at]]))
    except (NoDecayCertificate, NotBracketable):
        return None
    if p.boundary:
        return None
    return _gap_bound(math.log(p.rho), p.log_ell.log, cap, tag)


def _first_gap(u: GrowthFunction, n: int, tag: str) -> Optional[float]:
    """A lower bound on the last coefficient gap c_n - c_{n-1} of the
    window of orders 0..n from the phi sample, before the profile holds
    order n: None once it does, after a recorded refusal, for a u
    flagged outside the class (the window raises that before any
    sample), or without _sample_cells' certificate on the order's cell.

    The convex g = phi - t x of order n (L) or n - 1 (L#) has its
    minimizer in the cell [x_{i-1}, x_{i+1}], where a block's polish
    keeps it; widened by one grid step h for roundoff in the slopes, the
    cell holds a minimizer of the computed g.  The bound rests on that
    minimizer, not on the point a polish returns: the block and the
    walk's _ell_at both return a value within 32 eps max(1, |log ell|)
    of min g (see ell), wherever in a bracket flat to that level their
    point ends, and _gap_bound's margin covers it.  _gap_bound takes
    the cell's far end (x_{i+1} + h for L, x_{i-1} - h for L#) with
    |log ell| at most
    |g(x_i)| + max(g(x_{i-1}), g(x_{i+1})) - g(x_i) (the chords through
    the cell's ends bound g from below).  L# of ks(1) and power-exp 3
    refuse by it from r = 1.87 and 0.031, L of exp from r = 142.  The
    cell is _sample_cells' cell and the certificate is taken in floats:
    _sample_cells' arrays cost about 20 us more for one order, 2% of a
    cold answer from the first window.
    """
    prof = _profile_of(u)
    if len(prof) > n or prof.refusal is not None or u.in_c_plus_log is False:
        return None
    t = float(n) if tag == "l" else n - 1.0
    S = xs, ph, read, slopes = _profile_sample(u)
    i = min(max(int(slopes.searchsorted(t)), 1), len(xs) - 2)
    if read is not None:
        i = int(_dual_cells(u, S, np.array([t]), np.array([i]))[0])
    x3, p3 = xs[i - 1 : i + 2].tolist(), ph[i - 1 : i + 2].tolist()
    g_lo, g_in, g_hi = (p - t * x for p, x in zip(p3, x3))
    tie = g_in - _FLAT_ULPS * max(1.0, abs(g_in))
    if not (all(map(math.isfinite, p3)) and tie <= g_lo and tie <= g_hi):
        return None
    h = x3[1] - x3[0]
    x = x3[2] + h if tag == "l" else x3[0] - h
    return _gap_bound(x, abs(g_in) + max(g_lo, g_hi) - g_in, n, tag)


def _refused(gap: float, log_rs: np.ndarray) -> np.ndarray:
    """The radii with e^(gap + log r) >= 1, which a window whose last
    coefficient gap is at least ``gap`` cannot certify: its ratio
    bounds, suffix maxima, are at least that gap at every index."""
    return np.exp(np.minimum(gap + log_rs, 700.0)) >= 1.0


def _series_logs(
    u: GrowthFunction, log_rs, tag: str, rel_tol: Optional[float] = None, cap: int = _SERIES_CAP
) -> np.ndarray:
    """Certified logs of L_u ("l") or L#_u ("sharp") at every log r, NaN
    where the series refuses: sum_windowed_series over windows of the
    integer profile from 65 terms (at most ``cap``) up to ``cap`` terms,
    so a value does not depend on earlier calls.  Each window's
    coefficient logs are read afresh from the cached profile, as
    _log_power_factorial_sums builds its windows.  LOG_ZERO radii give
    the head coefficient.

    A u that _grown_profile builds in blocks reads the first window and
    then the cap window, and before each read a radius with
    e^(g + log r) >= 1 (_refused) skips it, for g a lower bound on the
    window's last gap from one order's minimizer: from its cell in the
    phi sample before the first window (_first_gap), from a point search
    before the cap window (_cap_gap), where a radius it decides is NaN
    without growing the profile.  Every other radius reads the window,
    so no value or refusal depends on a decision.  Any other u doubles
    its windows.  A window reads the profile only as far as it reaches,
    so past an order that refused it comes back short and is the last:
    a radius that needs the orders past it is NaN, and the other radii
    are answered.
    """
    log_rs = np.asarray(log_rs, dtype=float)
    out = np.full(log_rs.shape, math.nan)
    rest = log_rs != LOG_ZERO
    if not rest.all():
        out[~rest] = _coeff_logs(u, 0, tag)[0]
    first = min(_SERIES_START, cap)

    def window(n: int) -> np.ndarray:
        return _coeff_logs(u, min(n, len(_grown_profile(u, n)) - 1), tag)

    if not _in_blocks(u):
        out[rest] = sum_windowed_series(window, log_rs[rest], doubling(first, cap), rel_tol)
        return out
    read = rest
    if (gap := _first_gap(u, first, tag)) is not None:
        skip = rest & _refused(gap, log_rs)
        # order 0 first, as the window would build it: the cap decision
        # reads the profile from there, and a refused order 0 skips nothing
        if skip.any() and _grown_profile(u, 0).refusal is None:
            read = rest & ~skip
    out[read] = sum_windowed_series(window, log_rs[read], (first,), rel_tol)
    rest &= np.isnan(out)
    if rest.any() and (gap := _cap_gap(u, cap, tag)) is not None:
        rest &= ~_refused(gap, log_rs)
    if rest.any():
        out[rest] = sum_windowed_series(window, log_rs[rest], (cap,), rel_tol)
    return out


def _certified_logs(u: GrowthFunction, log_rs, tag: str, rel_tol=None, cap: int = _SERIES_CAP):
    """_series_logs, raising for the first radius in input order that
    the series refuses: the refusal recorded by a profile that stopped
    short of ``cap`` orders, NoDecayCertificate otherwise."""
    out = _series_logs(u, log_rs, tag, rel_tol, cap)
    refused = np.flatnonzero(np.isnan(out))
    if refused.size:
        if (prof := _PROFILE_CACHE[u]).refusal is not None and len(prof) <= cap:
            raise prof.refusal[0](*prof.refusal[1])
        raise NoDecayCertificate(
            f"series for {u.name} at log r = {float(np.ravel(log_rs)[refused[0]]):.6g} "
            f"showed no certified decay within {cap} terms"
        )
    return out


def l_function(u: GrowthFunction, log_r: float, rel_tol: Optional[float] = None) -> LogScalar:
    """The series sum_n ell_u(n) r^n, argument given as log r.

    The tail certificate is the largest stored term ratio from the
    stopping index on: the integer transform values are log-concave, so
    their ratios only fall.  A one-radius call of the batched kernel
    ``_series_logs`` (see there for the refusal from one order's
    minimizer); raises NoDecayCertificate where it refuses.
    """
    return LogScalar(float(_certified_logs(u, [float(log_r)], "l", rel_tol)[0]))


def l_sharp(u: GrowthFunction, log_r: float, rel_tol: Optional[float] = None) -> LogScalar:
    """The series sum_n r^n / (ell_u(n) n!^2), argument given as log r.

    A one-radius call of the batched kernel ``_series_logs``, with the
    same per-window certificate as l_function.
    """
    return LogScalar(float(_certified_logs(u, [float(log_r)], "sharp", rel_tol)[0]))


_SERIES_NAMES = {"l": ("L", "l-function"), "sharp": ("Lsharp", "l-sharp")}
# the series growth functions certify each value within this many terms
_GROWTH_TERMS_CAP = 512


def _series_growth_function(u: GrowthFunction, tag: str) -> GrowthFunction:
    """L_u ("l") or L#_u ("sharp") as a growth function; log u(0) is the
    head coefficient."""
    prefix, family = _SERIES_NAMES[tag]
    return GrowthFunction(
        phi=lambda x: float(_certified_logs(u, [x], tag, cap=_GROWTH_TERMS_CAP)[0]),
        phi_vec=lambda xs: _series_logs(u, xs, tag, cap=_GROWTH_TERMS_CAP),
        name=f"{prefix}[{u.name}]",
        family=family,
        params={"base": u.name},
        log_u0=float(_coeff_logs(u, 0, tag)[0]),
        increasing=True,
        log_exp_convex=True,
    )


def l_growth_function(u: GrowthFunction) -> GrowthFunction:
    """The L-series of u wrapped as a growth function.

    Evaluation certifies its own tail within _GROWTH_TERMS_CAP terms, so
    arguments far past the stored horizon raise NoDecayCertificate (NaN
    in phi_many) instead of returning a truncation.
    """
    return _series_growth_function(u, "l")


def l_sharp_growth_function(u: GrowthFunction) -> GrowthFunction:
    """The sharp series of u wrapped as a growth function."""
    return _series_growth_function(u, "sharp")


# --------------------------------------------------------------------------
# the dual function


def _dual_point(u: GrowthFunction, log_r: float) -> float:
    """log of sup_{s>0} e^{2 sqrt(rs)}/u(s), searched in w = log sqrt(s).

    The maximand 2 sqrt(r) y - log u(y^2) is concave in y = sqrt(s)
    whenever u is (log, x^2)-convex, and stays unimodal under the log
    substitution.  A u with a right edge x_e (a dual, _edge_search) has
    its search stop at w = x_e / 2, past which log u(y^2) is +inf.
    """
    if u.in_c_plus_log is False:
        raise PreconditionViolated(
            f"{u.name} is flagged outside the admissible growth class"
        )
    if log_r == LOG_ZERO:
        return 0.0 - ell(u, 0.0).log_ell.log  # a zero comes out +0.0
    c = 2.0 * safe_exp(0.5 * log_r)
    ceiling = math.inf if u.log_u0 is None else u.log_u0

    def search(edge: float, phi_at: Callable[[float], float]) -> float:
        def G(w: float) -> float:
            p = phi_at(2.0 * w)
            if not math.isfinite(p):
                # log u overflowed the double range: the denominator wins
                return -math.inf
            return c * (math.inf if w > 709.0 else exp(w)) - p

        # the seed walks down by doubling steps past an overflow, and past
        # a saturated phi: there 2 sqrt(r) y is lost in log u(y^2)'s
        # roundoff, so the search sees no slope; below the maximand's
        # s -> 0 limit -log u(0), its maximizer lies further down (the
        # maximand is unimodal)
        seed, step = min(0.5 * log_r, 0.5 * edge), 1.0
        while True:
            # G(seed), with phi at the seed kept for the saturation test
            p = phi_at(2.0 * seed)
            g_seed = -math.inf
            if math.isfinite(p):
                g_seed = c * (math.inf if seed > 709.0 else exp(seed)) - p
            stuck = not math.isfinite(g_seed) or (-g_seed > ceiling and -g_seed == p)
            if not (stuck and seed > -RANGE_CAP):
                break
            seed -= step
            step *= 2.0
        if not math.isfinite(g_seed):
            raise PreconditionViolated(f"no representable region for the dual of {u.name}")
        # -(-G) is G's own float, so a zero keeps its sign
        return maximize_concave_1d(G, seed, g_seed, min(0.5 * edge, RANGE_CAP)).fx

    return _edge_search(u, search, u.phi_at)


def dual(u: GrowthFunction, r: float) -> LogScalar:
    """log u*(r) where u*(r) = sup_{s>0} e^{2 sqrt(rs)}/u(s).

    Raises NotBracketable when the supremum escapes the numeric range,
    which is the finite-evidence signal that u grows too slowly in
    sqrt(r) for the dual to be finite at this r.
    """
    if r < 0:
        raise ValueError("the dual needs r >= 0")
    log_r = LOG_ZERO if r == 0.0 else math.log(r)
    return LogScalar(_dual_point(u, log_r))


def _bracket_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], seed: np.ndarray, edge: float = RANGE_CAP
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """numerics.bracket_minimum(f, seed, edge=edge) on many rows in
    lockstep: each row probes the same points, with the same doubling
    steps, ends of the range and stop rules, so row k ends where the
    one-row search ends.  ``f(rows, xs)`` evaluates row rows[j] at
    xs[j].  Each row keeps the descent state (prev, f_prev, cur, f_cur);
    the loop only doubles and brackets, and the rows whose descent ends
    on an end make numerics._on_cap's probe just inside it in one call
    after the loop.

    Returns (lo, hi, x, fx, end): end 0 is a Bracket [lo, hi] with inner
    point x, end 1 a boundary value at x, an edge short of the cap or a
    limit that flattened out at the cap, end 2 a descent still active at
    the cap (NotBracketable).
    """
    every = np.arange(len(seed))
    x0 = np.clip(seed, -RANGE_CAP, edge)
    xr, xl = np.minimum(x0 + 1.0, edge), np.maximum(x0 - 1.0, -RANGE_CAP)
    f0, fr, fl = np.split(f(np.tile(every, 3), np.concatenate([x0, xr, xl])), 3)
    fr, fl = np.where(xr > x0, fr, math.inf), np.where(xl < x0, fl, math.inf)
    at_once, up, right = (f0 <= fr) & (f0 <= fl), fr < fl, x0 == edge
    # a seed on an end that is not undercut descends from its one neighbour
    prev = np.where(at_once, np.where(right, xl, xr), x0)
    f_prev = np.where(at_once, np.where(right, fl, fr), f0)
    cur = np.where(at_once, x0, np.where(up, xr, xl))
    f_cur = np.where(at_once, f0, np.where(up, fr, fl))
    lo, hi, x, fx = xl, xr, x0.copy(), f0.copy()
    end = np.zeros(len(seed), dtype=int)
    live = np.flatnonzero(~at_once & (-RANGE_CAP < cur) & (cur < edge))
    step = 1.0
    while live.size:
        step *= 2.0
        nxt = np.clip(cur[live] + np.sign(cur[live] - prev[live]) * step, -RANGE_CAP, edge)
        f_nxt = f(live, nxt)
        rose = f_nxt >= f_cur[live]
        k = live[rose]
        lo[k], hi[k] = np.minimum(prev[k], nxt[rose]), np.maximum(prev[k], nxt[rose])
        x[k], fx[k] = cur[k], f_cur[k]
        k = live[~rose]
        prev[k], f_prev[k], cur[k], f_cur[k] = cur[k], f_cur[k], nxt[~rose], f_nxt[~rose]
        live = k[(-RANGE_CAP < cur[k]) & (cur[k] < edge)]
    # numerics._on_cap: a probe inside the end below both ends brackets a
    # minimum; else an edge holds it, and the cap once f has flattened out
    k = np.flatnonzero((cur == -RANGE_CAP) | (cur == edge))
    if k.size:
        x_cap, x_before, f_before, f_cap = cur[k], prev[k], f_prev[k], f_cur[k]
        at_edge = x_cap == edge
        x_in = np.where(at_edge, x_cap - 1e-6, x_cap + 1e-6)
        f_in = f(k, x_in)
        inside = (f_in < f_cap) & (f_in <= f_before)
        fin = np.isfinite(f_cap)  # only a finite f_cap can be flat: inf - inf is no gap
        flat = fin.copy()
        flat[fin] = np.abs(f_cap[fin] - f_before[fin]) <= 1e-8 * (1.0 + np.abs(f_cap[fin]))
        flat |= at_edge & (edge < RANGE_CAP)
        lo[k], hi[k] = np.minimum(x_before, x_cap), np.maximum(x_before, x_cap)
        x[k], fx[k] = np.where(inside, x_in, x_cap), np.where(inside, f_in, f_cap)
        end[k] = np.where(inside, 0, np.where(flat, 1, 2))
    return lo, hi, x, fx, end


class _DualSample(NamedTuple):
    """psi(y) = log u(y^2) on the w = log y grid of the dual's search,
    with the running maximum of its chord slopes in y and the running
    count of cells whose slope is NaN or falls below the one before by
    more than roundoff."""

    w: np.ndarray
    psi: np.ndarray
    y: np.ndarray
    slopes: np.ndarray
    breaks: np.ndarray


def _dual_sample(u: GrowthFunction) -> _DualSample:
    """The sample of u that its duals' vectorised phi and edge estimate
    read, taken at the first use and kept on u's _Profile."""
    prof = _profile_of(u)
    if prof.dual_sample is not None:
        return prof.dual_sample
    w = np.linspace(-RANGE_CAP, RANGE_CAP, _SCAN_POINTS)
    psi, y = u.phi_many(2.0 * w), np.exp(w)
    with np.errstate(over="ignore", invalid="ignore"):
        step = np.diff(psi)
        # psi = +inf past the double range continues it convexly
        s = np.where(psi[1:] == math.inf, math.inf, step / np.diff(y))
        # a step within roundoff of psi, or between subnormal values, is
        # noise: its slope cannot show a bend
        scale = np.maximum(np.abs(psi[1:]), np.abs(psi[:-1]))
        resolved = (np.abs(step) > 4.0 * _EPS * scale) & (scale >= _TINY)
    bad = np.isnan(s)
    bad[1:] |= (s[1:] < s[:-1]) & resolved[1:] & resolved[:-1]
    prof.dual_sample = _DualSample(
        w, psi, y, np.fmax.accumulate(s), np.concatenate([[0], np.cumsum(bad)])
    )
    return prof.dual_sample


# how close _dual_edge brackets the edge, relative to max(1, |x|): 4 ulps
_EDGE_ULPS = 4.0 * _EPS


def _dual_edge(u: GrowthFunction, x_esc: float) -> tuple[float, float]:
    """The right edge of u's dual below x_esc, where its search escaped:
    the largest x whose search (_dual_point) does not escape, to within
    4 ulps of max(1, |x|), and the dual's log there; or +inf, no edge,
    where the dual's value overflows first.

    The supremum of 2 sqrt(r) y - psi(y), psi(y) = log u(y^2), is finite
    while 2 sqrt(r) stays below the top slope of psi (R. T. Rockafellar,
    Convex Analysis, 1970, sec. 12), so the edge lies near
    x = 2 log(L/2), with L the top finite chord slope of u's dual
    sample where y >= 1.  Every chord slope of ks(1)'s psi(y) = 2y is 2
    exactly, so its estimate is x = 0.  Scalar duals confirm an
    estimate: its search holds and one 4 ulps above escapes.  Else the
    probes step on from the last one, in steps growing fourfold but
    never past the middle of the bracket [lo, hi] left, which then
    closes by bisection.  A dual value that overflows to +inf on the way
    is +inf past there anyway, so the dual gets no edge: ks(0.5)'s
    estimate is such a point.
    """
    S = _dual_sample(u)
    # chords where y >= 1 only: below, psi's steps can sink into its roundoff
    up = S.w >= 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = np.diff(S.psi[up]) / np.diff(S.y[up])
    top = np.fmax.reduce(np.where(np.isfinite(slopes), slopes, np.nan))
    x = 2.0 * math.log(0.5 * float(top)) if top > 0.0 else x_esc
    # a dual whose search escapes on the whole range is +inf from its cap
    (lo, at_lo), hi = (-RANGE_CAP, math.inf), x_esc
    x, step = min(max(x, lo), hi), _EDGE_ULPS * max(1.0, abs(x))
    while hi - lo > _EDGE_ULPS * max(1.0, abs(lo), abs(hi)):
        try:
            v = _dual_point(u, x)
            if v == math.inf:
                return math.inf, math.inf
            (lo, at_lo), x = (x, v), min(x + step, 0.5 * (x + hi))
        except NotBracketable:
            hi, x = x, max(x - step, 0.5 * (lo + x))
        step *= 4.0
    return lo, at_lo


def _dual_value(u: GrowthFunction, log_r: float, prof: _Profile) -> float:
    """log u*(r) for the dual of u whose _Profile is ``prof``: +inf past
    the dual's edge and the value found there on it, without a search,
    and +inf where the supremum escapes, the first escape finding the
    edge (_dual_edge)."""
    edge = prof.edge
    if edge is not None and log_r >= edge:
        return math.inf if log_r > edge else prof.edge_phi
    try:
        return _dual_point(u, log_r)
    except NotBracketable:
        if prof.edge is None:
            prof.edge, prof.edge_phi = _dual_edge(u, log_r)
        return math.inf


def _dual_lockstep(
    u: GrowthFunction, xs: np.ndarray, edge: float, read: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lockstep search of _dual_rows over the x = log r in xs, with
    phi of u read through ``read`` and stopped at u's right edge
    (_edge_search).  Returns the values, the rows that escaped and the
    rows left to the scalar search."""
    out = np.empty(len(xs))
    escaped = np.zeros(len(xs), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        c = 2.0 * np.where(0.5 * xs > 709.0, math.inf, np.exp(0.5 * xs))

        def psi_neg_g(k: np.ndarray, ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # phi at 2w and _dual_point's neg_G, -(a - b) to match its sign of zero
            p = read(2.0 * ws)
            return p, np.where(np.isfinite(p), -(c[k] * np.exp(ws) - p), math.inf)

        def neg_g(k: np.ndarray, ws: np.ndarray) -> np.ndarray:
            return psi_neg_g(k, ws)[1]

        ceiling = math.inf if u.log_u0 is None else u.log_u0

        def stuck(p: np.ndarray, g: np.ndarray) -> np.ndarray:
            # _dual_point's stuck: overflowed, or saturated below the s -> 0 limit
            return ~np.isfinite(g) | ((g > ceiling) & (g == p))

        # _dual_point's seed walk, down by doubling steps; each round reads
        # phi once, for the maximand and the saturation test
        seed = np.minimum(0.5 * xs, 0.5 * edge)
        p, g_seed = psi_neg_g(np.arange(len(xs)), seed)
        walk = np.flatnonzero(stuck(p, g_seed) & (seed > -RANGE_CAP))
        step = 1.0
        while walk.size:
            seed[walk] -= step
            step *= 2.0
            p, g_seed[walk] = psi_neg_g(walk, seed[walk])
            walk = walk[stuck(p, g_seed[walk]) & (seed[walk] > -RANGE_CAP)]
        scalar = ~np.isfinite(g_seed) | (xs == LOG_ZERO)
        rows = np.flatnonzero(~scalar)
        lo, hi, _, f_in, end = _bracket_rows(
            lambda k, ws: neg_g(rows[k], ws), seed[rows], min(0.5 * edge, RANGE_CAP)
        )
        out[rows] = np.where(end == 2, math.inf, -f_in)
        escaped[rows] = end == 2
        polish = (end == 0) & np.isfinite(f_in)
        rows, lo, hi = rows[polish], lo[polish], hi[polish]
        if rows.size:
            S = _dual_sample(u)
            last = len(S.w) - 2
            i = np.clip(np.searchsorted(S.slopes, c[rows]), 1, last)
            g = []
            for d in (-1, 0, 1):
                psi = S.psi[i + d]
                g.append(np.where(np.isfinite(psi), -(c[rows] * S.y[i + d] - psi), math.inf))
            # the cells from the bracket to the sample's cell, one more each side
            cells_lo = np.searchsorted(S.w, np.minimum(lo, S.w[i - 1]), "right") - 2
            cells_hi = np.searchsorted(S.w, np.maximum(hi, S.w[i + 1]))
            cells_lo, cells_hi = np.clip(cells_lo, 0, last), np.clip(cells_hi, 0, last)
            kept = (
                np.isfinite(g).all(axis=0) & (g[1] <= g[0]) & (g[1] <= g[2])
                & (S.breaks[cells_hi + 1] == S.breaks[cells_lo])
            )
            scalar[rows[~kept]] = True
            rows, i, g_in = rows[kept], i[kept], g[1][kept]
            base = S.w[i]
            _, fx = _brent_min_rows(
                lambda k, d: neg_g(rows[k], base[k] + d),
                S.w[i - 1] - base, S.w[i + 1] - base, np.zeros(len(rows)), g_in,
                g[0][kept], g[2][kept], c[rows] * S.y[i] + np.abs(S.psi[i]),
            )
            out[rows] = -fx
    return out, escaped, scalar


def _dual_rows(u: GrowthFunction, xs: np.ndarray, prof: _Profile) -> np.ndarray:
    """_dual_value at every x = log r, for a (log, x^2)-convex u with a
    vectorised phi, where ``prof`` is the dual's _Profile.

    x past the dual's edge is +inf without a search.  _dual_point's seed
    walk and _bracket_rows run the scalar search's bracketing in
    lockstep, so escapes, limits at the range cap, stops at u's own edge
    and +inf suprema come out as they do there, and the first escape
    finds the dual's edge from the lowest x that escaped.  A bracketed
    row is then polished under the sample's certificate: the chord
    slopes of psi, searched for c = 2 sqrt(r), give the grid cell
    [w_{i-1}, w_{i+1}] where c y - psi(y) stops rising.  The row keeps
    it when the inner value is finite and highest and psi's chord slopes
    rise on every cell from the bracket to the cell, so the maximand has
    one maximum there: the one the scalar search finds.  _brent_min_rows
    polishes the kept rows in the offset from w_i, so its step floor
    fixes the value to roundoff as the scalar search does.  The maximand
    is concave in y = e^w, so the flat stop's chord runs in y; the
    polish bracket spans two sample cells, 0.684 in w, under log 2, so
    the value is within 8 e^0.684 < 16 times delta of the maximum.
    delta is 4 eps max(1, |G|, |c y_i| + |psi(y_i)|), with y_i the
    cell's centre: the maximand is the difference of those two terms
    and rounds to about 8 eps of their size, so a flat stop at 4 eps |G|
    alone left the rows stepping on noise, 15-23 steps on ks(0.5) in
    thm42's block; the bound is 64 eps of the terms, their own rounding.
    Other rows go through _dual_value.  No (row x grid) matrix is formed.
    """
    shape = np.shape(xs)
    xs = np.ravel(np.asarray(xs, dtype=float))
    out = np.full(len(xs), math.inf)
    rows = np.arange(len(xs)) if prof.edge is None else np.flatnonzero(~(xs > prof.edge))
    if rows.size:
        vals, escaped, scalar = _edge_search(
            u, lambda edge, read: _dual_lockstep(u, xs[rows], edge, read), u.phi_many
        )
        out[rows] = vals
        if escaped.any() and prof.edge is None:
            prof.edge, prof.edge_phi = _dual_edge(u, float(xs[rows[escaped]].min()))
        for k in rows[scalar].tolist():
            out[k] = _dual_value(u, float(xs[k]), prof)
    return out.reshape(shape)


def dual_function(u: GrowthFunction) -> GrowthFunction:
    """The dual of u as a growth function, with escaping suprema mapped
    to +infinity.

    The dual is always increasing and (log, x^2)-convex -- its log at
    squared argument is a supremum of affine maps -- so the hint flags
    are unconditional.  When u has a vectorised phi and is flagged
    (log, x^2)-convex, the dual gets one too (_dual_rows).

    Where the supremum escapes, past the top slope of log u(y^2), the
    dual's effective domain ends (R. T. Rockafellar, Convex Analysis,
    1970, sec. 12): ks(1)'s dual is 1 on [0, 1] and +inf beyond.  The
    first evaluation that escapes finds that right edge (_dual_edge) and
    keeps it on the dual's _Profile; past it the dual is +inf without a
    search, and the dual's transform and its own dual stop their
    searches there (_edge_search), flagged "hi".  A dual that only
    overflows, or never meets +inf, finds no edge.
    """
    prof = _Profile(u)
    us = GrowthFunction(
        phi=lambda x: _dual_value(u, x, prof),
        phi_vec=(lambda xs: _dual_rows(u, xs, prof)) if u.phi_vec and u.log_x2_convex else None,
        name=f"dual[{u.name}]",
        family="dual",
        params={"base": u.name},
        log_u0=0.0 - ell(u, 0.0).log_ell.log,
        increasing=True,
        log_exp_convex=True,
        log_x2_convex=True,
        in_c_plus_log=True,
    )
    _PROFILE_CACHE[us] = prof
    return us


# --------------------------------------------------------------------------
# equivalence of functions


@dataclass(frozen=True)
class FunctionEquivalenceWitness:
    """Envelope constants with c1 u(a1 r) <= v(r) <= c2 u(a2 r) at every
    checked grid point, whose radii checked_range spans (from 0.0 when r =
    0 was checked); max_residual = log(c2/c1)."""

    c1: float
    a1: float
    c2: float
    a2: float
    checked_range: tuple[float, float]
    max_residual: float

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class FunctionEquivalenceCounterexample:
    """Evidence that no constants in the search box can work: the
    centered residual keeps growing across the tail of the range."""

    r: float
    spread: float
    searched_a: tuple[float, float]
    detail: str = ""

    @property
    def ok(self) -> bool:
        return False


_A_BOX = (2.0 ** -20, 2.0 ** 20)
# the shift search: a log grid of this many points over the box, then
# this many refinements around the best cell
_A_POINTS = 64
_A_REFINEMENTS = 2


def function_equivalent(
    u: GrowthFunction,
    v: GrowthFunction,
    r_range: tuple[float, float],
    points: int = 96,
) -> Union[FunctionEquivalenceWitness, FunctionEquivalenceCounterexample]:
    """Fit c1 u(a r) <= v(r) <= c2 u(a r) over the range, or reject.

    The shift a is searched on a log grid of _A_POINTS over the box
    [2^-20, 2^20], refined _A_REFINEMENTS times around the best cell and
    polished by _brent_min from the cell's golden point to a bracket of
    1e-9; the constants are then the exact envelope of
    log v(r) - log u(a r) on the grid, so the witness inequalities hold
    at every checked point by construction.  Each round reads u at all
    its shifts in one phi_many call; a refused or infinite value is not
    evaluable.  r = 0 joins the grid explicitly when both functions are
    defined there.  Rejection is evidence-based: if, at the best a, the
    centered residual still grows quarter over quarter at the range end,
    no constants can absorb it.
    """
    r_min, r_max = float(r_range[0]), float(r_range[1])
    if not (0.0 <= r_min < r_max):
        raise ValueError("need 0 <= r_min < r_max")
    lo = r_min if r_min > 0.0 else max(r_max * 1e-9, 1e-12)
    grid = geometric_grid(lo, r_max, points)
    include_zero = r_min == 0.0 and u.defined_at_zero and v.defined_at_zero
    d_zero = [v.log_at(0.0) - u.log_at(0.0)] if include_zero else []

    log_grid = np.array([math.log(r) for r in grid])
    log_v = v.phi_many(log_grid)
    need = max(8, points // 2)

    def residuals(las: list) -> np.ndarray:
        """log v - log u(e^la r) on the grid from one phi_many call, a row
        per la; NaN where either side is refused or not finite."""
        shifts = np.array([[math.log(math.exp(la))] for la in las])
        with np.errstate(invalid="ignore"):
            res = log_v - u.phi_many(log_grid + shifts)
        return np.where(np.isfinite(res), res, math.nan)

    def spread(res: np.ndarray) -> float:
        vals = np.append(res[~np.isnan(res)], d_zero)
        return float(vals.max() - vals.min()) if len(vals) >= need else math.inf

    la_lo, la_hi = math.log(_A_BOX[0]), math.log(_A_BOX[1])
    best_la, best_spread = 0.0, math.inf
    for _ in range(_A_REFINEMENTS + 1):
        las = np.linspace(la_lo, la_hi, _A_POINTS).tolist()
        for la, s in zip(las, map(spread, residuals(las))):
            if s < best_spread:
                best_la, best_spread = la, s
        half_cell = (la_hi - la_lo) / (_A_POINTS - 1)
        la_lo, la_hi = best_la - half_cell, best_la + half_cell
    if math.isfinite(best_spread):
        def shift_spread(la: float) -> float:
            return spread(residuals([la])[0])

        la = la_lo + _INV_PHI2 * (la_hi - la_lo)
        la, _ = _brent_min(
            shift_spread, la_lo, la_hi, la, shift_spread(la), math.inf, math.inf, width=1e-9
        )
        if shift_spread(la) <= best_spread:
            best_la = la

    best_a = math.exp(best_la)
    res = residuals([best_la])[0]
    finite = np.flatnonzero(~np.isnan(res))
    if len(finite) < need:
        raise PreconditionViolated(
            f"{v.name} vs {u.name}: too few evaluable grid points on the range"
        )
    all_d = res[finite].tolist() + d_zero
    med = sorted(all_d)[len(all_d) // 2]

    quarter = len(res) // 4
    dev = np.abs(res - med)  # NaN off the evaluable points, which fmax skips
    q_spans = [
        np.fmax.reduce(dev[q * quarter : (q + 1) * quarter if q < 3 else len(res)], initial=0.0)
        for q in range(4)
    ]
    if q_spans[3] > q_spans[2] + 2.0 and q_spans[2] > q_spans[1] + 2.0:
        tail = finite[-max(quarter, 1):]
        worst_r = grid[tail[np.argmax(dev[tail])]]
        return FunctionEquivalenceCounterexample(
            r=worst_r,
            spread=max(all_d) - min(all_d),
            searched_a=_A_BOX,
            detail="centered residual keeps growing across the range tail",
        )
    return FunctionEquivalenceWitness(
        c1=math.exp(min(all_d)),
        a1=best_a,
        c2=math.exp(max(all_d)),
        a2=best_a,
        checked_range=(0.0 if include_zero else grid[finite[0]], grid[finite[-1]]),
        max_residual=max(all_d) - min(all_d),
    )


# --------------------------------------------------------------------------
# verification suites


_TOL_IDENTITY = 1e-7
_TOL_INEQ = 1e-9


@dataclass(frozen=True)
class Check:
    """Outcome of one check of a quantitative statement: a named suite,
    or one of the embedding model's checks (holo).

    ``max_violation`` is the largest violation log lhs - log rhs over
    the points checked, so positive means violated (a NaN comparison
    ranks highest); ``witness`` describes the first point attaining it.
    ``rows`` keeps the per-point comparisons (x, lhs, rhs, slack =
    -violation, log scale) for tabular export; sampled checks keep none.
    The verdict is "pass" when max_violation <= the check's tolerance,
    "fail" otherwise, and "inconclusive" when nothing was checked.  The
    JSON dict stays summary-sized, carries the name as "suite", and
    renders every non-finite float as null.
    """

    name: str
    params: dict
    grid: dict
    max_violation: float
    witness: dict
    verdict: str
    rows: tuple = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return json_finite({
            "suite": self.name,
            "params": self.params,
            "grid": self.grid,
            "max_violation": self.max_violation,
            "witness": self.witness,
            "verdict": self.verdict,
        })

    def to_json(self) -> str:
        return strict_json(self.to_json_dict())


class _Rows:
    """Builds a Check: counts the points compared, keeps their rows
    {x, lhs, rhs, slack} with slack = -v, and lets the first point with
    the largest violation v name the witness."""

    def __init__(self):
        self.worst, self.witness, self.rows, self.checked = -math.inf, {}, [], 0

    def worse(self, v: float, witness: dict, count: int = 1) -> None:
        """count points whose largest violation is v, kept as no row."""
        if not self.checked or v > self.worst or (v != v and self.worst == self.worst):
            self.worst, self.witness = v, witness
        self.checked += count

    def add(self, x, lhs: float, rhs: float, v: float, /, **witness) -> None:
        # 0.0 - v, not -v: a zero slack comes out +0.0
        self.rows.append({"x": x, "lhs": lhs, "rhs": rhs, "slack": 0.0 - v})
        self.worse(v, witness)

    def ineq(self, x, lhs: float, rhs: float, /, **witness) -> None:
        """The row lhs <= rhs (log scale); a zero left side (-inf)
        violates nothing.  Its witness also records the slack."""
        v = lhs - rhs if lhs != -math.inf else -math.inf
        self.add(x, lhs, rhs, v, **witness, slack=0.0 - v)

    def check(self, name: str, params: dict, grid: dict, tol: float) -> Check:
        if not self.checked:
            verdict = "inconclusive"
        else:
            verdict = "pass" if self.worst <= tol else "fail"
        # + 0.0 writes a zero violation as +0.0: -0.0 - 0.0 is -0.0
        return Check(
            name, params, grid, float(self.worst) + 0.0, self.witness, verdict,
            tuple(self.rows),
        )


def _suite_u(params: Mapping, default_family: str, default_params: Mapping) -> GrowthFunction:
    family = params.get("family", default_family)
    kw = dict(default_params) if family == default_family else {}
    for key in ("beta", "a", "p"):
        if key in params:
            kw[key] = params[key]
    if "order" in params:
        kw["k"] = params["order"]
    try:
        return make_growth_function(family, kw)
    except UnreadParameter as exc:
        # named as the suite's parameter: order, not k
        raise UnreadParameter(family, "order" if exc.key == "k" else exc.key) from None


def _xlogx(n: float) -> float:
    return 0.0 if n == 0 else n * math.log(n)


def _suite_a4(params: dict) -> Check:
    n_max = int(params.get("n_max", 50))
    tol = float(params.get("tol", _TOL_INEQ))
    acc = _Rows()
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            rhs = _xlogx(n) + _xlogx(m) + (n + m) * LOG2
            acc.ineq(f"{n}:{m}", _xlogx(n + m), rhs, n=n, m=m)
    return acc.check("a4", {"n_max": n_max, "tol": tol}, {"n_max": n_max}, tol)


def _suite_stirling(params: dict) -> Check:
    n_max = int(params.get("n_max", 100))
    tol = float(params.get("tol", _TOL_INEQ))
    acc = _Rows()
    for n in range(n_max + 1):
        mid = n - _xlogx(n)  # log (e/n)^n with 0^0 = 1
        lg = math.lgamma(n + 1.0)
        acc.ineq(f"{n}/lower", 0.0 - lg, mid, n=n, side="lower")  # log 0! = 0 as +0.0
        acc.ineq(f"{n}/upper", mid, 1.0 + 0.5 * n * LOG2 - lg, n=n, side="upper")
    return acc.check("stirling", {"n_max": n_max, "tol": tol}, {"n_max": n_max}, tol)


def _suite_lem_a1(params: dict) -> Check:
    u = _suite_u(params, "ks", {"beta": 0.5})
    k = float(params.get("k", 2.0))
    n_max = int(params.get("n_max", 25))
    tol = float(params.get("tol", _TOL_INEQ))
    logs = _integer_profile(u, 2 * n_max).log_ell[: 2 * n_max + 1].tolist()
    acc = _Rows()
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            nm = logs[n] + logs[m]
            acc.ineq(f"{n}:{m}/doubling-upper", nm,
                     logs[0] + k * (n + m) * LOG2 + logs[n + m],
                     n=n, m=m, side="doubling-upper")
            acc.ineq(f"{n}:{m}/superadditive", logs[0] + logs[n + m], nm,
                     n=n, m=m, side="superadditive")
    return acc.check(
        "lem-a1",
        {"family": u.family, "name": u.name, "k": k, "n_max": n_max, "tol": tol},
        {"n_max": n_max},
        tol,
    )


def _geom_grid_params(params: dict, lo: float, hi: float, points: int):
    lo = float(params.get("r_min", lo))
    hi = float(params.get("r_max", hi))
    points = int(params.get("points", points))
    return geometric_grid(lo, hi, points), {"r_min": lo, "r_max": hi, "points": points}


def _suite_lem_a2(params: dict) -> Check:
    u = _suite_u(params, "ks", {"beta": 0.5})
    k = float(params.get("k", 2.0))
    tol = float(params.get("tol", _TOL_INEQ))
    grid, gdesc = _geom_grid_params(params, 1e-3, 100.0, 21)
    logs = _integer_profile(u, 1).log_ell[:2].tolist()
    shift = k * LOG2
    log_rs = [math.log(r) for r in grid]
    # L_u at r and at 2^k r for every r, in one batch in the loop's order
    sums = _certified_logs(u, [x for log_r in log_rs for x in (log_r, log_r + shift)], "l")
    acc = _Rows()
    for r, log_r, at_r, at_shift in zip(grid, log_rs, sums[::2].tolist(), sums[1::2].tolist()):
        acc.ineq(r, log_r + at_r, logs[0] - logs[1] + at_shift, r=r)
    return acc.check(
        "lem-a2", {"family": u.family, "name": u.name, "k": k, "tol": tol}, gdesc, tol
    )


def _suite_thm31_upper(params: dict) -> Check:
    u = _suite_u(params, "ks", {"beta": 0.5})
    tol = float(params.get("tol", _TOL_INEQ))
    a_list = [float(params["a"])] if "a" in params else [2.0, math.e, 4.0]
    grid, gdesc = _geom_grid_params(params, 1e-3, 50.0, 25)
    radii = [0.0] + grid
    # L_u is read once per radius; every dilation a compares against it
    lhs = _certified_logs(u, [LOG_ZERO if r == 0.0 else math.log(r) for r in radii], "l").tolist()
    acc = _Rows()
    for a in a_list:
        const = math.log(math.e * a / math.log(a))
        for r, lhs_r in zip(radii, lhs):
            acc.ineq(f"{r}/a={a}", lhs_r, const + u.log_at(a * r), r=r, a=a)
    return acc.check(
        "thm31-upper",
        {"family": u.family, "name": u.name, "a": a_list, "tol": tol},
        gdesc,
        tol,
    )


def _suite_thm31_lower(params: dict) -> Check:
    u = _suite_u(params, "ks", {"beta": 0.5})
    k = float(params.get("k", 2.0))
    tol = float(params.get("tol", _TOL_INEQ))
    grid, gdesc = _geom_grid_params(params, 1e-3, 50.0, 25)
    logs = _integer_profile(u, 60).log_ell[:61].tolist()
    n0 = _detect_n0(logs)
    log_u1 = u.log_at(1.0)
    log_c = max(log_u1 - logs[0], logs[0] - logs[1], log_u1 - logs[n0 + 1])
    shift = k * LOG2
    radii = [0.0] + grid
    sums = _certified_logs(
        u, [LOG_ZERO if r == 0.0 else math.log(r) + shift for r in radii], "l"
    ).tolist()
    acc = _Rows()
    for r, at_shift in zip(radii, sums):
        acc.ineq(r, u.log_at(r), log_c + at_shift, r=r)
    acc.witness.update({"n0": n0, "C": math.exp(log_c)})
    return acc.check(
        "thm31-lower", {"family": u.family, "name": u.name, "k": k, "tol": tol}, gdesc, tol
    )


def _suite_thm42(params: dict) -> Check:
    u = _suite_u(params, "exp", {})
    if u.log_x2_convex is False:
        raise PreconditionViolated(f"{u.name} is flagged non-convex in (log, x^2)")
    t_max = int(params.get("t_max", 30))
    tol = float(params.get("tol", _TOL_IDENTITY))
    us = dual_function(u)
    _integer_profile(us, t_max)  # one block, not one order per ell call
    acc = _Rows()
    ts = list(range(t_max + 1))
    for t in ts:
        lhs = ell(us, float(t)).log_ell.log
        rhs = 2.0 * t - ell(u, float(t)).log_ell.log - 2.0 * _xlogx(float(t))
        acc.add(t, lhs, rhs, abs(lhs - rhs), t=t, lhs=lhs, rhs=rhs)
    return acc.check(
        "thm42",
        {"family": u.family, "name": u.name, "t_max": t_max, "tol": tol},
        {"t": ts},
        tol,
    )


def _suite_thm43(params: dict) -> Check:
    u = _suite_u(params, "exp", {})
    r_max = float(params.get("r_max", 4.0))
    points = int(params.get("points", 48))
    tol = float(params.get("tol", 0.0))
    a = l_growth_function(dual_function(u))
    b = l_sharp_growth_function(u)
    res = function_equivalent(a, b, (0.0, r_max), points=points)
    acc = _Rows()
    if res.ok:
        acc.worse(0.0, {"c1": res.c1, "a1": res.a1, "c2": res.c2, "a2": res.a2,
                        "max_residual": res.max_residual})
    else:
        acc.worse(res.spread, {"r": res.r, "spread": res.spread, "detail": res.detail})
    return acc.check(
        "thm43",
        {"family": u.family, "name": u.name, "r_max": r_max, "tol": tol},
        {"r_min": 0.0, "r_max": r_max, "points": points},
        tol,
    )


def _suite_involution(params: dict) -> Check:
    u = _suite_u(params, "ks", {"beta": 1.0})
    tol = float(params.get("tol", 1e-6))
    grid, gdesc = _geom_grid_params(params, 1.0, 1e4, 40)
    uss = dual_function(dual_function(u))
    acc = _Rows()
    for r in grid:
        lhs, rhs = uss.log_at(r), u.log_at(r)
        v = abs(lhs - rhs)
        acc.add(r, lhs, rhs, v, r=r, deviation=v)
    return acc.check(
        "involution", {"family": u.family, "name": u.name, "tol": tol}, gdesc, tol
    )


def _log_power_factorial_sums(p: float, log_rs: Sequence[float]) -> np.ndarray:
    """log of sum_n r^n / n!^p at every log r, summed to 1e-12 relative
    with a certified tail by sum_windowed_series: the first 257 terms,
    the window doubled (up to 2^15 terms) for the radii it did not
    certify."""

    log_rs, sizes = np.asarray(log_rs, dtype=float), doubling(256, 1 << 15)
    sums = sum_windowed_series(lambda n: -p * _log_factorials(n), log_rs, sizes, 1e-12)
    if np.isnan(sums).any():
        raise NoDecayCertificate(
            f"series ended at index {1 << 15} before its tail was certified"
        )
    return sums


def _suite_ks_sandwich(params: dict) -> Check:
    beta = float(params.get("beta", 0.5))
    if not 0.0 <= beta < 1.0:
        raise ValueError("the sandwich needs 0 <= beta < 1")
    tol = float(params.get("tol", _TOL_INEQ))
    grid, gdesc = _geom_grid_params(params, 1e-2, 50.0, 33)
    log_rs = [math.log(r) for r in grid]
    minus = _log_power_factorial_sums(1.0 - beta, log_rs)
    plus = _log_power_factorial_sums(1.0 + beta, log_rs)
    acc = _Rows()
    for r, g_minus, g_plus in zip(grid, minus.tolist(), plus.tolist()):
        pw_minus = r ** (1.0 / (1.0 - beta))
        pw_plus = r ** (1.0 / (1.0 + beta))
        checks = (
            ("minus-lower", (1.0 - beta) * pw_minus, g_minus),
            (
                "minus-upper",
                g_minus,
                beta * LOG2 + (1.0 - beta) * 2.0 ** (beta / (1.0 - beta)) * pw_minus,
            ),
            (
                "plus-lower",
                -beta * LOG2 + (1.0 + beta) * 2.0 ** (-beta / (1.0 + beta)) * pw_plus,
                g_plus,
            ),
            ("plus-upper", g_plus, (1.0 + beta) * pw_plus),
        )
        for side, lhs, rhs in checks:
            acc.ineq(f"{r}/{side}", lhs, rhs, r=r, side=side)
    return acc.check("ks-sandwich", {"beta": beta, "tol": tol}, gdesc, tol)


def _suite_lem35(params: dict) -> Check:
    """Lemma 3.5: u is (log, x^k)-convex exactly when log ell_u(t) +
    k t log t is convex in t.  Each case compares classify_convexity's
    direct verdict with the sign of the second differences on a 60-point
    grid of t in [0.25, 25].  For a (log, exp)-convex u with a
    vectorised phi the grid's transform values come from one
    _profile_block, whose Brent polish fixes them to roundoff; a row it
    leaves uncertified, and every row of any other u, goes through ell.
    """
    from .growthfn import classify_convexity

    if "family" in params:
        cases = [(_suite_u(params, params["family"], {}), int(params.get("k", 2)))]
    else:
        cases = [
            (make_growth_function("exp", {}), 2),
            (make_growth_function("ks", {"beta": 0.5}), 2),
            (make_growth_function("power-exp", {"a": 3.0}), 2),
        ]
    t_lo, t_hi, points = 0.25, 25.0, 60
    threshold = 1e-8
    results = []
    acc = _Rows()
    for u, k in cases:
        direct = classify_convexity(u, "log-xk-convex", k=k).passes
        ts = np.linspace(t_lo, t_hi, points)
        log_ell = np.full(points, math.nan)
        if _in_blocks(u) and u.in_c_plus_log is not False:
            log_ell = _profile_block(u, ts)[0]
        vals = []
        for t, le in zip(ts.tolist(), log_ell.tolist()):
            if math.isnan(le):
                le = ell(u, t).log_ell.log
            vals.append(le + k * t * math.log(t))
        worst = -math.inf
        for i in range(1, points - 1):
            scale = max(1.0, abs(vals[i - 1]), abs(vals[i]), abs(vals[i + 1]))
            worst = max(worst, (2.0 * vals[i] - vals[i - 1] - vals[i + 1]) / scale)
        through_ell = worst <= threshold
        agree = direct == through_ell
        results.append(
            {
                "name": u.name,
                "k": k,
                "xk_convex": direct,
                "transform_weighted_log_convex": through_ell,
                "agree": agree,
            }
        )
        # a disagreement violates by 1
        acc.add(u.name, float(direct), float(through_ell), 0.0 if agree else 1.0)
    acc.witness = {"cases": results}
    tol = float(params.get("tol", 0.0))
    return acc.check(
        "lem35",
        {"cases": [c["name"] for c in results], "tol": tol},
        {"t_lo": t_lo, "t_hi": t_hi, "points": points},
        tol,
    )


# the parameters that every suite run on a growth function reads, and a
# radius grid's
_FN_KEYS = ("family", "beta", "a", "p", "order")
_GRID_KEYS = ("r_min", "r_max", "points")

# each suite and the parameters it reads besides tol; lem35 reads its
# function keys only together with "family" (without it, it runs its
# stock cases)
_SUITES = {
    "a4": (_suite_a4, ("n_max",)),
    "stirling": (_suite_stirling, ("n_max",)),
    "lem-a1": (_suite_lem_a1, ("k", "n_max", *_FN_KEYS)),
    "lem-a2": (_suite_lem_a2, ("k", *_GRID_KEYS, *_FN_KEYS)),
    "thm31-upper": (_suite_thm31_upper, (*_GRID_KEYS, *_FN_KEYS)),
    "thm31-lower": (_suite_thm31_lower, ("k", *_GRID_KEYS, *_FN_KEYS)),
    "thm42": (_suite_thm42, ("t_max", *_FN_KEYS)),
    "thm43": (_suite_thm43, ("r_max", "points", *_FN_KEYS)),
    "involution": (_suite_involution, (*_GRID_KEYS, *_FN_KEYS)),
    "ks-sandwich": (_suite_ks_sandwich, ("beta", *_GRID_KEYS)),
    "lem35": (_suite_lem35, ("k", *_FN_KEYS)),
}


def suite_tags() -> list[str]:
    """The registered verification suites, sorted."""
    return sorted(_SUITES)


def _suite_keys(suite: str, params: Mapping) -> frozenset:
    """The parameters ``suite`` reads when given ``params``: tol and its
    own keys.  ValueError for an unknown suite."""
    try:
        _, keys = _SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r}; known suites: {', '.join(suite_tags())}"
        ) from None
    if suite == "lem35" and "family" not in params:
        keys = ()
    return frozenset(("tol", *keys))


def verify_suite(suite: str, params: Optional[Mapping] = None) -> Check:
    """Run one named verification suite and return its Check record.

    Each suite evaluates both sides of its target statement at every
    grid point; the record carries the largest log-scale violation, the
    first point attaining it as witness, and the verdict.  Violations
    are findings, not exceptions.  A parameter that the suite does not
    read (_suite_keys) raises ValueError.
    """
    params = dict(params or {})
    unread = sorted(set(params) - _suite_keys(suite, params))
    if unread:
        raise ValueError(f"suite {suite} reads no {', '.join(unread)}")
    return _SUITES[suite][0](params)
