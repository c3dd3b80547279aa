"""Growth functions, their stable evaluation, and convexity classes.

A growth function u : [0, oo) -> (0, oo) is represented through the
canonical evaluator phi(x) = log u(e^x).  Every composed view used by
the calculus -- log u(r), log u(e^x), log u(x^k) -- derives from phi,
and every transform downstream is convex or concave in these
coordinates.

Three convexity classes matter:

    log-convex        log u(r)   convex in r
    (log, x^k)-convex log u(x^k) convex in x >= 0
    (log, exp)-convex log u(e^x) convex in x

each strictly weaker than the previous (log-convex implies
(log, x^k)-convex for every k >= 1, which implies (log, exp)-convex;
none of the reverse implications hold).  Classification is by midpoint
inequality on structured and seeded random triples; there is no
symbolic differentiation, so user closed forms stay black boxes.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .numerics import (
    LOG_ZERO,
    RANGE_CAP,
    NoDecayCertificate,
    NotBracketable,
    PreconditionViolated,
)
from .sequences import PositiveSequence, sum_stored_series


@dataclass(frozen=True)
class ProbeSpec:
    """Geometric probe range for classification and membership checks."""

    lo: float = 1e-6
    hi: float = 1e6
    points: int = 512
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.lo < self.hi):
            raise ValueError("probe range must satisfy 0 < lo < hi")
        if self.points < 8:
            raise ValueError("probe needs at least 8 points")


@dataclass(frozen=True, eq=False)
class GrowthFunction:
    """A positive growth function, evaluated through phi(x) = log u(e^x).

    log_u0 is log u(0) when u extends continuously to 0, else None.
    x_max marks where phi stops being finitely representable (iterated
    exponentials overflow the double range long before x = 700).  The
    convexity/monotonicity flags are trusted hints set by constructors;
    classify_convexity and check_increasing never consult them.

    phi_vec, when set, is phi over a whole numpy array: the closed-form
    constructors set it (equal to phi within a few ulp, saturating to
    +inf where phi does), scaled() composes it, and the dual of a
    (log, x^2)-convex function that has one carries one too (its
    lockstep search agrees with phi to about 1e-13, relative), and so do
    the L-series, whose batch gives NaN where phi raises
    NoDecayCertificate.  A wrapper of a user phi (from_phi is this class),
    from_series and thetas leave it unset.  phi_many and log_many use it,
    else a phi_at loop, and read a NoDecayCertificate or NotBracketable
    of phi_at as NaN either way.
    """

    phi: Callable[[float], float]
    name: str
    family: str = "user"
    params: Mapping[str, float] = field(default_factory=dict)
    log_u0: Optional[float] = None
    x_max: float = RANGE_CAP
    increasing: Optional[bool] = None
    log_exp_convex: Optional[bool] = None
    log_x2_convex: Optional[bool] = None
    in_c_plus_log: Optional[bool] = None
    phi_vec: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __repr__(self):
        return f"GrowthFunction({self.name})"

    @property
    def defined_at_zero(self) -> bool:
        return self.log_u0 is not None

    def phi_at(self, x: float) -> float:
        """log u(e^x); +inf past the representable range."""
        return float(self.phi(float(x)))

    def phi_many(self, xs) -> np.ndarray:
        """phi at every x of an array, NaN where phi refuses: one phi_vec
        call, else a phi_at call per point.  PreconditionViolated raises."""
        xs = np.asarray(xs, dtype=float)
        if self.phi_vec is None:
            phi_at, vals = self.phi_at, []
            for x in xs.ravel().tolist():
                try:
                    vals.append(phi_at(x))
                except (NoDecayCertificate, NotBracketable):
                    vals.append(math.nan)
            return np.array(vals, dtype=float).reshape(xs.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.asarray(self.phi_vec(xs), dtype=float)

    def log_value(self, log_r: float) -> float:
        """log u(r) given log r; accepts LOG_ZERO for r = 0."""
        if log_r == LOG_ZERO:
            if self.log_u0 is None:
                raise PreconditionViolated(f"{self.name} is not defined at r = 0")
            return self.log_u0
        return self.phi_at(log_r)

    def log_at(self, r: float) -> float:
        """log u(r) for r >= 0."""
        if r < 0:
            raise ValueError("growth functions live on r >= 0")
        return self.log_value(LOG_ZERO if r == 0.0 else math.log(r))

    def log_many(self, rs) -> np.ndarray:
        """log u(r) at every r >= 0 of an array, through phi_many;
        r = 0 gives log u(0) as in log_at."""
        rs = np.asarray(rs, dtype=float)
        if (rs < 0).any():
            raise ValueError("growth functions live on r >= 0")
        zero = rs == 0.0
        out = self.phi_many(np.log(np.where(zero, 1.0, rs)))
        if zero.any():
            out[zero] = self.log_value(LOG_ZERO)
        return out

    def scaled(self, c: float = 1.0, a: float = 1.0) -> "GrowthFunction":
        """The function r |-> c * u(a r)."""
        if c <= 0 or a <= 0:
            raise ValueError("scaling constants must be positive")
        log_c, log_a = math.log(c), math.log(a)
        base, base_vec = self.phi, self.phi_vec
        return replace(
            self,
            phi=lambda x: log_c + base(x + log_a),
            phi_vec=None if base_vec is None else (lambda xs: log_c + base_vec(xs + log_a)),
            name=f"{c:g}*{self.name}({a:g}r)",
            family="scaled",
            params={"c": c, "a": a, "base": self.name},
            log_u0=None if self.log_u0 is None else log_c + self.log_u0,
            x_max=self.x_max - log_a,
        )


# --------------------------------------------------------------------------
# constructors


# wraps a user log-evaluator x |-> log u(e^x): GrowthFunction itself, under
# the name that callers wrapping a plain phi use (phi and name in field
# order, everything else by keyword)
from_phi = GrowthFunction


def power_exp(a: float) -> GrowthFunction:
    """u(r) = exp[a r^(1/a)] for a > 0, so phi(x) = a e^(x/a).

    a = 1 is u = e^r.  log u is concave in r for a > 1 and convex for
    a <= 1, but phi is convex for every a, which is what the transform
    calculus needs.  log u(x^2) = a x^(2/a) is convex exactly when
    a <= 2, so that is where the (log, x^2) hint flips.
    """
    if a <= 0:
        raise ValueError("power_exp needs a > 0")
    return GrowthFunction(
        phi=lambda x, _a=a: _a * math.exp(min(x / _a, RANGE_CAP)),
        phi_vec=lambda xs, _a=a: _a * np.exp(np.minimum(xs / _a, RANGE_CAP)),
        name=f"exp[{a:g}r^(1/{a:g})]",
        family="power-exp",
        params={"a": a},
        log_u0=0.0,
        increasing=True,
        log_exp_convex=True,
        log_x2_convex=a <= 2.0,
        in_c_plus_log=True,
    )


def exponential() -> GrowthFunction:
    """u(r) = e^r."""
    u = power_exp(1.0)
    return replace(u, name="exp", family="exp", params={})


def ks_family(beta: float) -> GrowthFunction:
    """u(r) = exp[(1+beta) r^(1/(1+beta))] for beta > -1.

    beta = 0 is e^r; positive beta flattens the growth, negative beta
    sharpens it; the dual pairs beta with -beta.
    """
    if beta <= -1.0:
        raise ValueError("ks_family needs beta > -1")
    u = power_exp(1.0 + beta)
    return replace(u, name=f"ks(beta={beta:g})", family="ks", params={"beta": beta})


# the largest v with math.exp(v) finite; exp of anything above overflows
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def iterated_exp(k: int) -> GrowthFunction:
    """u = exp_k, the k-fold iterated exponential; phi(x) = exp_{k-1}(e^x).

    k = 1 is e^r, k = 2 is exp(e^r).  phi overflows the double range at
    x_max = log applied k-1 times to 709, so higher iterates live on a
    short x-window; evaluation saturates to +inf beyond it.
    """
    if k < 1:
        raise ValueError("iterated_exp needs k >= 1")

    def phi(x: float, _k: int = k) -> float:
        v = math.exp(x) if x < RANGE_CAP else math.inf
        for _ in range(_k - 1):
            if v > _LOG_FLOAT_MAX:
                return math.inf
            v = math.exp(v)
        return v

    def phi_vec(xs: np.ndarray, _k: int = k) -> np.ndarray:
        v = np.where(xs < RANGE_CAP, xs, math.inf)
        for _ in range(_k - 1):
            # the levels under the last one round exactly as phi's do:
            # the next exp multiplies their rounding error by their size
            inner = [math.inf if w > _LOG_FLOAT_MAX else math.exp(w) for w in v.ravel().tolist()]
            v = np.array(inner, dtype=float).reshape(v.shape)
        return np.where(v > _LOG_FLOAT_MAX, math.inf, np.exp(v))

    x_cap = 709.0
    for _ in range(k - 1):
        x_cap = math.log(x_cap)
    log_u0 = 0.0
    for _ in range(k - 1):
        log_u0 = math.exp(log_u0)  # exp_{k-1}(0)
    return GrowthFunction(
        phi=phi,
        phi_vec=phi_vec,
        name=f"exp_{k}",
        family="expk",
        params={"k": k},
        log_u0=log_u0,
        x_max=min(RANGE_CAP, x_cap),
        increasing=True,
        log_exp_convex=True,
        log_x2_convex=True,
        in_c_plus_log=True,
    )


def gaussian() -> GrowthFunction:
    """u(r) = exp(r^2), so phi(x) = e^(2x)."""
    return GrowthFunction(
        phi=lambda x: math.exp(min(2.0 * x, RANGE_CAP)),
        phi_vec=lambda xs: np.exp(np.minimum(2.0 * xs, RANGE_CAP)),
        name="exp[r^2]",
        family="gaussian",
        params={},
        log_u0=0.0,
        increasing=True,
        log_exp_convex=True,
        log_x2_convex=True,
        in_c_plus_log=True,
    )


def bump_example() -> GrowthFunction:
    """u(r) = exp[r^2 - r^3 + r^4]: (log, exp)-convex and increasing,
    but log u has an inflection pattern that makes it a useful probe."""

    def phi(x: float) -> float:
        if x > RANGE_CAP / 4:
            return math.inf
        e2, e3, e4 = math.exp(2 * x), math.exp(3 * x), math.exp(4 * x)
        return e2 - e3 + e4

    def phi_vec(xs: np.ndarray) -> np.ndarray:
        e2, e3, e4 = np.exp(2 * xs), np.exp(3 * xs), np.exp(4 * xs)
        return np.where(xs > RANGE_CAP / 4, math.inf, e2 - e3 + e4)

    return GrowthFunction(
        phi=phi,
        phi_vec=phi_vec,
        name="exp[r^2-r^3+r^4]",
        family="bump",
        params={},
        log_u0=0.0,
        increasing=True,
        log_exp_convex=True,
        log_x2_convex=True,
        in_c_plus_log=True,
    )


def log_square_example() -> GrowthFunction:
    """u(r) = exp[(log r)^2 - 2 log r] on (0, oo): (log, exp)-convex
    (phi(x) = x^2 - 2x) yet not increasing, and not defined at r = 0."""
    return GrowthFunction(
        phi=lambda x: x * x - 2.0 * x,
        phi_vec=lambda xs: xs * xs - 2.0 * xs,
        name="exp[(log r)^2-2log r]",
        family="log-square",
        params={},
        log_u0=None,
        increasing=False,
        log_exp_convex=True,
        log_x2_convex=False,
    )


def polynomial(p: float) -> GrowthFunction:
    """u(r) = (1+r)^p: grows slower than every exponential, the stock
    non-member of the growth classes."""
    if p <= 0:
        raise ValueError("polynomial needs p > 0")

    def phi(x: float, _p: float = p) -> float:
        if x > 50.0:
            return _p * x
        return _p * math.log1p(math.exp(x))

    def phi_vec(xs: np.ndarray, _p: float = p) -> np.ndarray:
        return np.where(xs > 50.0, _p * xs, _p * np.log1p(np.exp(np.minimum(xs, 50.0))))

    return GrowthFunction(
        phi=phi,
        phi_vec=phi_vec,
        name=f"(1+r)^{p:g}",
        family="polynomial",
        params={"p": p},
        log_u0=0.0,
        increasing=True,
        log_exp_convex=True,
        log_x2_convex=False,
        in_c_plus_log=False,
    )


def from_series(
    coeffs: Union[PositiveSequence, Sequence[float]], name: str = "series"
) -> GrowthFunction:
    """u(r) = sum u_n r^n from stored log-coefficients (log u_n, with
    LOG_ZERO for vanishing terms).

    Entire functions with nonnegative coefficients are automatically
    (log, exp)-convex and increasing; evaluation streams the series in
    the log domain and needs the stored ratios to certify the tail, to
    the default series tolerance, so sufficiently large r raises
    NoDecayCertificate rather than returning a silently truncated value.
    """
    params = {}
    if isinstance(coeffs, PositiveSequence):
        log_c = list(coeffs.log_alpha)
        params["n_max"] = coeffs.n_max
    else:
        log_c = [float(v) for v in coeffs]
    if not log_c:
        raise ValueError("series needs at least one coefficient")
    if all(v == LOG_ZERO for v in log_c):
        raise ValueError("series must be positive somewhere")

    def phi(x: float, _lc=tuple(log_c)) -> float:
        terms = [lc if lc == LOG_ZERO else lc + n * x for n, lc in enumerate(_lc)]
        return sum_stored_series(terms).value.log

    return GrowthFunction(
        phi=phi,
        name=name,
        family="series",
        params=params,
        log_u0=log_c[0] if log_c[0] != LOG_ZERO else None,
        increasing=True,
        log_exp_convex=True,
    )


# --------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ConvexityVerdict:
    """Outcome of a midpoint-convexity scan of one composed view.

    fail_point is (s1, s2, lam) in the coordinates of the composed
    function (r for log-convex, x for (log,exp), the k-th root variable
    for (log,x^k)); re-evaluating the midpoint inequality there
    reproduces the violation.
    """

    kind: str
    status: str  # "passes-on-grid" | "fails-at"
    fail_point: Optional[tuple[float, float, float]] = None
    checked_triples: int = 0
    margin: float = 0.0

    @property
    def passes(self) -> bool:
        return self.status == "passes-on-grid"


@dataclass(frozen=True)
class ProbeVerdict:
    """Finite-evidence verdict for monotonicity/membership probes."""

    status: str
    witness: dict

    @property
    def holds(self) -> bool:
        return self.status in ("increasing", "holds-up-to-range")


# relative slacks: of classify_convexity's midpoint test, and of the drop
# check_increasing forgives between grid points
_CONVEXITY_TOL = 1e-8
_INCREASING_TOL = 1e-9


# points of phi one probe block reads: 64 midpoint triples of
# classify_convexity, or 192 grid points of check_increasing
_PROBE_BLOCK = 192

def _probe_reader(u: GrowthFunction) -> Callable[[np.ndarray], np.ndarray]:
    """u.phi_many for the blocks of one probe.  A phi without phi_vec
    reads each distinct point once per reader, in the order the blocks
    first ask for it: a probe's triples share most of their points."""
    if u.phi_vec is not None:
        return u.phi_many
    seen: dict[float, float] = {}

    def read(xs: np.ndarray) -> np.ndarray:
        keys = xs.tolist()
        new = [x for x in dict.fromkeys(keys) if x not in seen]
        if new:
            seen.update(zip(new, u.phi_many(np.array(new)).tolist()))
        return np.array([seen[x] for x in keys])

    return read


def _composed_args(kind: str, k: int):
    """Return (to_x, positive_domain): the map from the composed
    function's argument to the x = log r at which phi is read, and
    whether that argument lives on (0, oo) rather than all of R."""
    if kind == "log-convex":
        # f(s) = log u(s), s in r-space
        return np.log, True
    if kind == "log-exp-convex":
        return (lambda s: s), False
    if kind == "log-xk-convex":
        if k < 1:
            raise ValueError("log-xk-convex needs k >= 1")
        # f(y) = log u(y^k)
        return (lambda y: k * np.log(y)), True
    raise ValueError(f"unknown convexity kind: {kind!r}")


def classify_convexity(
    u: GrowthFunction,
    kind: str,
    k: int = 2,
    probe: Optional[ProbeSpec] = None,
) -> ConvexityVerdict:
    """Midpoint-convexity verdict for one composed view of u.

    Tests f(lam*s1 + (1-lam)*s2) <= lam*f(s1) + (1-lam)*f(s2) plus
    _CONVEXITY_TOL * max(1, |values|) over structured triples (adjacent
    grid triples double as central second differences, plus wide pairs)
    and seeded random (pair, lam) draws -- at least 200 triples in range.
    Non-finite evaluations are skipped: they are out of numeric range,
    not counterexamples.  So are refused ones (a series whose tail does
    not certify there, a search that escapes the range); with fewer
    than 200 triples left the probe raises PreconditionViolated.

    The triples are built as arrays and read in their order, in blocks:
    each block's (s1, s2, midpoint) points go through one u.phi_many
    call, and numpy reduces the block to its finite triples, the first
    failing one and the worst margin.  A vectorised phi reads every
    triple in one block.  A phi without phi_vec reads 64 triples a
    block, so a fails-at verdict reads at most the rest of its block
    past the failing triple, and each distinct point once per call
    (_probe_reader), however many triples share it.
    """
    probe = probe or ProbeSpec()
    to_x, positive_domain = _composed_args(kind, k)

    if positive_domain:
        lo = probe.lo if kind != "log-xk-convex" else probe.lo ** (1.0 / k)
        hi = probe.hi if kind != "log-xk-convex" else probe.hi ** (1.0 / k)
        hi = min(hi, math.exp(min(u.x_max, RANGE_CAP) / (k if kind == "log-xk-convex" else 1)))
        grid = np.exp(np.linspace(math.log(lo), math.log(hi), probe.points))
    else:
        lo = max(math.log(probe.lo), -RANGE_CAP)
        hi = min(math.log(probe.hi), u.x_max)
        grid = np.linspace(lo, hi, probe.points)
    rng = np.random.default_rng(probe.seed)

    # central second differences, wide pairs, then the seeded random draws
    quarter = len(grid) // 4
    wide = np.arange(0, len(grid) - quarter, quarter // 2 or 1)
    n_random = max(200, probe.points // 2)
    idx = rng.integers(0, len(grid), size=(n_random, 2))
    lams = rng.uniform(0.05, 0.95, size=n_random)
    gi, gj = grid[idx[:, 0]], grid[idx[:, 1]]
    drawn = gi != gj
    s1 = np.concatenate([grid[:-2], grid[wide], np.minimum(gi, gj)[drawn]])
    s2 = np.concatenate([grid[2:], grid[wide + quarter], np.maximum(gi, gj)[drawn]])
    lam = np.concatenate([np.full(len(grid) - 2 + len(wide), 0.5), lams[drawn]])
    sm = lam * s1 + (1.0 - lam) * s2

    checked = 0
    worst = 0.0
    per_block = len(s1) if u.phi_vec is not None else _PROBE_BLOCK // 3
    read = _probe_reader(u)
    for at in range(0, len(s1), per_block):
        b = slice(at, at + per_block)
        # each triple's points in the order s1, s2, midpoint
        xs = to_x(np.stack([s1[b], s2[b], sm[b]], axis=1).ravel())
        f1, f2, fm = read(xs).reshape(-1, 3).T
        with np.errstate(over="ignore", invalid="ignore"):
            ok = np.isfinite(f1) & np.isfinite(f2) & np.isfinite(fm)
            scale = np.maximum(np.maximum(1.0, np.abs(f1)), np.maximum(np.abs(f2), np.abs(fm)))
            gap = fm - (lam[b] * f1 + (1.0 - lam[b]) * f2)
            fails = np.flatnonzero(ok & (gap > _CONVEXITY_TOL * scale))
            ratio = gap / scale
        if fails.size:
            j = int(fails[0])
            return ConvexityVerdict(
                kind=kind,
                status="fails-at",
                fail_point=(float(s1[at + j]), float(s2[at + j]), float(lam[at + j])),
                checked_triples=checked + int(np.count_nonzero(ok[: j + 1])),
                margin=float(ratio[j]),
            )
        checked += int(np.count_nonzero(ok))
        if ok.any():
            worst = max(worst, float(ratio[ok].max()))
    if checked < 200:
        raise PreconditionViolated(
            f"only {checked} finite triples in probe range for {u.name}/{kind}"
        )
    return ConvexityVerdict(kind=kind, status="passes-on-grid", checked_triples=checked, margin=worst)


def check_increasing(u: GrowthFunction, probe: Optional[ProbeSpec] = None) -> ProbeVerdict:
    """Scan phi on an increasing grid; report the first inversion.

    The grid is read in blocks of _PROBE_BLOCK points through u.phi_many
    and stops at its first non-finite value; numpy finds the first drop
    of a block against the point before it.
    A NaN where the scan stops is read again through phi_at, so a
    refusal there raises.

    (log, exp)-convex functions defined at r = 0 are automatically
    increasing, so a failure here on such a function would contradict a
    passing convexity verdict.
    """
    probe = probe or ProbeSpec()
    lo = max(math.log(probe.lo), -RANGE_CAP)
    hi = min(math.log(probe.hi), u.x_max)
    xs = np.linspace(lo, hi, probe.points)
    prev_x, prev_v = None, None
    if u.log_u0 is not None:
        prev_x, prev_v = LOG_ZERO, u.log_u0
    for at in range(0, len(xs), _PROBE_BLOCK):
        x = xs[at : at + _PROBE_BLOCK]
        v = u.phi_many(x)
        stop = np.flatnonzero(~np.isfinite(v))
        end = int(stop[0]) if stop.size else len(v)
        # each point against the one before it, the first against prev_v
        prev = np.concatenate([[math.nan if prev_v is None else prev_v], v[:end]])[:end]
        with np.errstate(invalid="ignore"):
            drops = np.flatnonzero(v[:end] < prev - _INCREASING_TOL * np.maximum(1.0, np.abs(prev)))
        if drops.size:
            j = int(drops[0])
            before = prev_x if j == 0 else float(x[j - 1])
            return ProbeVerdict(
                status="fails-at",
                witness={
                    "r": math.exp(float(x[j])),
                    "drop": float(prev[j] - v[j]),
                    "prev_r": 0.0 if before == LOG_ZERO else math.exp(before),
                },
            )
        if end < len(v):
            if np.isnan(v[end]):
                u.phi_at(float(x[end]))  # a refusal raises here, as the scan reaches it
            break
        prev_x, prev_v = float(x[-1]), float(v[-1])
    return ProbeVerdict(status="increasing", witness={"checked": int(probe.points)})


# thresholds the defining ratio must clear before finite evidence counts
C_PLUS_LOG_THRESHOLD = 1e3
C_PLUS_J_THRESHOLD = 1e2
C_PLUS_J_DEFAULT_HI = 1e18


def membership(
    u: GrowthFunction,
    cls: str,
    j: float = 1.0,
    probe: Optional[ProbeSpec] = None,
) -> ProbeVerdict:
    """Finite-evidence membership verdict for the growth classes.

    c-plus-log asks log u(r)/log r -> oo, c-plus-j asks
    log u(r)/r^j -> oo.  The ratio is sampled on a geometric tail; the
    verdict is holds-up-to-range when it rises past the class threshold
    (or overflows), fails when it has visibly plateaued below it, and
    inconclusive otherwise.  The thresholds are engineering choices --
    no finite probe proves a limit -- and are reported in the witness.
    """
    if cls == "c-plus-log":
        threshold, default_hi = C_PLUS_LOG_THRESHOLD, 1e6
        ratio = lambda x: u.phi_at(x) / x
        lo_floor = 2.0
    elif cls == "c-plus-j":
        if j <= 0:
            raise ValueError("c-plus-j needs j > 0")
        threshold, default_hi = C_PLUS_J_THRESHOLD, C_PLUS_J_DEFAULT_HI
        ratio = lambda x: u.phi_at(x) / math.exp(j * x) if j * x < RANGE_CAP else 0.0
        lo_floor = 1.0
    else:
        raise ValueError(f"unknown class: {cls!r}")
    probe = probe or ProbeSpec(lo=lo_floor, hi=default_hi, points=96)
    lo = math.log(max(probe.lo, lo_floor))
    hi = min(math.log(probe.hi), u.x_max)
    if hi <= lo:
        hi = lo + 1.0
    xs = np.linspace(lo, hi, probe.points)
    vals = []
    for x in xs:
        v = ratio(float(x))
        vals.append(v)
        if not math.isfinite(v):
            break
    witness = {"threshold": threshold, "r_hi": math.exp(float(xs[len(vals) - 1]))}
    if not math.isfinite(vals[-1]):
        # the function itself overflowed the double range: growth is
        # certainly super-threshold on the probed tail
        witness["ratio"] = math.inf
        return ProbeVerdict(status="holds-up-to-range", witness=witness)
    witness["ratio"] = vals[-1]
    tail = vals[max(0, 3 * len(vals) // 4) :]
    rising = vals[-1] > vals[len(vals) // 2] and all(
        b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(tail, tail[1:])
    )
    plateaued = abs(vals[-1] - tail[0]) <= 0.01 * max(1.0, abs(vals[-1]))
    if vals[-1] >= threshold and rising:
        return ProbeVerdict(status="holds-up-to-range", witness=witness)
    if vals[-1] < threshold and plateaued:
        return ProbeVerdict(status="fails", witness=witness)
    return ProbeVerdict(status="inconclusive", witness=witness)


# --------------------------------------------------------------------------
# registry


# family -> the parameters it reads
_FAMILY_PARAMS = {
    "exp": (), "exponential": (), "ks": ("beta",), "power-exp": ("a",), "expk": ("k",),
    "gaussian": (), "bump": (), "log-square": (), "polynomial": ("p",),
    "series": ("file", "log_coeffs", "name"),
}


class UnreadParameter(ValueError):
    """A parameter given to a family that does not read it."""

    def __init__(self, family: str, key: str):
        super().__init__(f"family {family!r} reads no parameter {key!r}")
        self.family, self.key = family, key


def make_growth_function(family: str, params: Optional[Mapping] = None) -> GrowthFunction:
    """Resolve a (family, params) pair to a GrowthFunction.  A parameter
    the family does not read raises UnreadParameter."""
    params = dict(params or {})
    if family not in _FAMILY_PARAMS:
        raise ValueError(f"unknown growth-function family: {family!r}")
    for key in params:
        if key not in _FAMILY_PARAMS[family]:
            raise UnreadParameter(family, key)
    if family in ("exp", "exponential"):
        return exponential()
    if family == "ks":
        return ks_family(float(params.get("beta", 0.0)))
    if family == "power-exp":
        if "a" not in params:
            raise ValueError("family 'power-exp' needs the parameter 'a'")
        return power_exp(float(params["a"]))
    if family == "expk":
        return iterated_exp(int(params.get("k", 2)))
    if family == "gaussian":
        return gaussian()
    if family == "bump":
        return bump_example()
    if family == "log-square":
        return log_square_example()
    if family == "series":
        if "file" in params:
            seq = PositiveSequence.load(params["file"])
            return from_series(seq, name=f"series:{params['file']}")
        if "log_coeffs" not in params:
            raise ValueError("family 'series' needs the parameter 'file' or 'log_coeffs'")
        return from_series(params["log_coeffs"], name=params.get("name", "series"))
    # the remaining family, polynomial
    return polynomial(float(params.get("p", 5.0)))


def load_registry(path: str) -> dict:
    """Read a registry config mapping names to {family, params}.

    JSON always works; TOML works on interpreters that ship tomllib.
    """
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError as exc:  # Python < 3.11
            raise ValueError(
                "TOML registry needs Python 3.11+; use the JSON form instead"
            ) from exc
        with open(path, "rb") as fh:
            raw = tomllib.load(fh)
    else:
        with open(path) as fh:
            raw = json.load(fh)
    out = {}
    for name, entry in raw.items():
        out[name] = make_growth_function(entry["family"], entry.get("params"))
    return out


def registered_examples() -> list[GrowthFunction]:
    """The stock instances exercised by the verification matrix."""
    return [
        exponential(),
        ks_family(0.25),
        ks_family(0.5),
        ks_family(1.0),
        iterated_exp(2),
        gaussian(),
        bump_example(),
        polynomial(5.0),
    ]
