"""Positive weight sequences and their classical growth conditions.

A sequence alpha(0), alpha(1), ... with alpha(n) > 0 is stored on the
log scale.  The module generates the two stock families (power-of-
factorial weights and Bell numbers of a given order), checks the named
conditions (A1), (A2), (A2~), (B1), (B1~), (B2), (B2~), (B3), (C1),
(C2), (C3) with finite-evidence verdicts -- (B1) and (B1~) through the
two exponential generating functions

    G_alpha(r)   = sum alpha(n)/n! r^n
    G_1/alpha(r) = sum 1/(n! alpha(n)) r^n

-- and fits
equivalence constants K1 c1^n a(n) <= b(n) <= K2 c2^n a(n) between two
sequences.

Bell numbers of order k are b_k(n) = n! [r^n] exp_k(r)/exp_k(0) for the
iterated exponential exp_1(r) = e^r, exp_{j+1}(r) = exp(exp_j(r)).  The
normalized iterates N_j = exp_j/exp_j(0) satisfy N_{j+1} =
exp(c_j (N_j - 1)) with c_j = exp_j(0), so the series is built by k-1
truncated exponential compositions.  Orders 1 and 2 are integers (order
2 from the Bell triangle) and stay exact; higher orders run the chain in
60-digit decimals because c_2 = e, c_3 = e^e, ... are irrational.
"""

from __future__ import annotations

import decimal
import itertools
import json
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .numerics import (
    LOG_ZERO,
    LogScalar,
    NoDecayCertificate,
    SeriesSum,
    default_rel_tol,
)

SEQ_SCHEMA = "growthcalc.seq/1"

CONDITIONS = ("A1", "A2", "A2t", "B1", "B1t", "B2", "B2t", "B3", "C1", "C2", "C3")

GEN_BELL_MAX_N = 200


_LOG_FACTORIALS = np.zeros(1)  # lgamma(k + 1) = log k! for k < len, grown on demand


def _log_factorials(n_max: int) -> np.ndarray:
    """log k! for k = 0..n_max, read from the one lgamma table that the
    weights, the condition checks and the series coefficients share."""
    global _LOG_FACTORIALS
    if len(_LOG_FACTORIALS) <= n_max:
        _LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(2 * n_max + 1)])
    return _LOG_FACTORIALS[: max(n_max + 1, 0)]


@dataclass(frozen=True)
class PositiveSequence:
    """A finite prefix alpha(0..N) of a positive sequence, log scale.

    ``exact`` carries the same values as exact rationals when the
    generator can produce them (Bell numbers), enabling exact condition
    checks.
    """

    family: str
    params: dict
    log_alpha: tuple[float, ...]
    exact: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        if not self.log_alpha:
            raise ValueError("sequence must have at least alpha(0)")
        if self.exact is not None and len(self.exact) != len(self.log_alpha):
            raise ValueError("exact values must align with log_alpha")

    def __len__(self) -> int:
        return len(self.log_alpha)

    @property
    def n_max(self) -> int:
        return len(self.log_alpha) - 1

    def to_json_dict(self) -> dict:
        return {
            "schema": SEQ_SCHEMA,
            "family": self.family,
            "params": self.params,
            "N": self.n_max,
            "log_alpha": list(self.log_alpha),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PositiveSequence":
        if data.get("schema") != SEQ_SCHEMA:
            raise ValueError(f"not a {SEQ_SCHEMA} document")
        log_alpha = tuple(float(x) for x in data["log_alpha"])
        if len(log_alpha) != int(data["N"]) + 1:
            raise ValueError("N does not match log_alpha length")
        return cls(str(data["family"]), dict(data.get("params", {})), log_alpha)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "PositiveSequence":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def gen_power_factorial(beta: float, n_max: int) -> PositiveSequence:
    """alpha(n) = (n!)**beta for 0 <= beta < 1."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("power-factorial weights need 0 <= beta < 1")
    log_alpha = tuple(beta * lf for lf in _log_factorials(n_max).tolist())
    exact = None
    if beta == 0.0:
        exact = tuple(Fraction(1) for _ in range(n_max + 1))
    return PositiveSequence("power-factorial", {"beta": beta}, log_alpha, exact)


def _series_exp(mult: Decimal, gamma: Sequence[Decimal]) -> list[Decimal]:
    """Taylor coefficients of exp(mult * (G - 1)) for a series G with
    G(0) = 1, in Decimal arithmetic at the caller's context precision,
    by the derivative recurrence n b_n = sum_{j=1..n} j mult g_j b_{n-j}:
    one stage of the order >= 3 Bell chain."""
    b = [Decimal(1)] + [Decimal(0)] * (len(gamma) - 1)
    for n in range(1, len(gamma)):
        acc = Decimal(0)
        for j in range(1, n + 1):
            acc += j * mult * gamma[j] * b[n - j]
        b[n] = acc / n
    return b


def _bell_integers(n_max: int) -> list[int]:
    """The classical Bell numbers B_0..B_n_max from the Bell triangle:
    each row starts with the last entry of the row above and adds that
    row's entries in turn, and B_n heads row n."""
    row, bells = [1], [1]
    for _ in range(n_max):
        row = list(itertools.accumulate(row, initial=row[-1]))
        bells.append(row[0])
    return bells


def gen_bell(order: int, n_max: int) -> PositiveSequence:
    """Bell numbers of the given order, normalized so that b(0) = 1.

    b(n) = n! [r^n] exp_k(r)/exp_k(0) for the k-fold iterated
    exponential.  order=1 gives b(n) = 1 (EGF e^r), order=2 the
    classical Bell numbers 1, 1, 2, 5, 15, 52, ..., built as Python
    integers from the Bell triangle (_bell_integers) and kept exact.
    From order 3 on the values are polynomials in e, e^e, ... with
    integer coefficients (b(1) = e, b(2) = e^2 + 2e at order 3); the
    chain of _series_exp stages runs in 60-digit decimal arithmetic,
    with one 60-digit ln per term.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0 <= n_max <= GEN_BELL_MAX_N:
        raise ValueError(f"n_max must be in [0, {GEN_BELL_MAX_N}]")
    if order <= 2:
        ints = [1] * (n_max + 1) if order == 1 else _bell_integers(n_max)
        exact = tuple(Fraction(b) for b in ints)
        log_alpha = tuple(math.log(b) for b in ints)
        return PositiveSequence("bell-order-k", {"k": order}, log_alpha, exact)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        gamma = [Decimal(1) / Decimal(math.factorial(n)) for n in range(n_max + 1)]
        mult = Decimal(1)
        for _ in range(order - 1):
            gamma = _series_exp(mult, gamma)
            mult = mult.exp()
        log_alpha = tuple(
            float((gamma[n] * math.factorial(n)).ln()) for n in range(n_max + 1)
        )
    return PositiveSequence("bell-order-k", {"k": order}, log_alpha)


def from_legendre(u, n_max: int) -> PositiveSequence:
    """Weights alpha(n) = 1/(n! ell_u(n)) built from a transform profile."""
    from . import legendre  # deferred: legendre depends on growthfn

    lf = _log_factorials(n_max).tolist()
    log_alpha = tuple(
        -lf[n] - legendre.ell(u, float(n)).log_ell.log for n in range(n_max + 1)
    )
    return PositiveSequence("from-legendre", {"source": getattr(u, "name", "?")}, log_alpha)


# cells (radii x stored terms) in one tile of the series kernel: 64
# radii of a 65-term window, one radius of a 4096-term window.  Each
# tile holds about ten temporaries of this size; a budget of 256 x 65
# cells raised a 37 MB worker's peak RSS by 1.3 MB, 64 x 65 by 0.5 MB,
# at about 2% more time per check (2-vCPU x86-64 guest, numpy 2.4).
_SERIES_CHUNK_CELLS = 64 * 65
# columns of a chunk's first tile when it holds many radii; the median
# radius of an embedding check certifies within 7 terms
_SERIES_FIRST_COLUMNS = 8


def stored_ratio_bounds(log_c: np.ndarray) -> np.ndarray:
    """At every index m, the log of the largest stored ratio
    c_{k+1}/c_k over k >= m.  Past the last stored gap the assumed
    nonincreasing ratios are bounded by the final observed one, so the
    last index repeats it; a lone coefficient bounds nothing.  Adding
    log r gives the tail certificate of sum c_k r^k."""
    if len(log_c) < 2:
        return np.full(len(log_c), math.inf)
    with np.errstate(invalid="ignore"):
        gaps = log_c[1:] - log_c[:-1]
    gaps[np.isnan(gaps)] = LOG_ZERO  # a zero after a zero: ratio 0
    suffix = np.maximum.accumulate(gaps[::-1])[::-1]
    return np.append(suffix, suffix[-1])


def sum_stored_series_batch(
    log_c: np.ndarray,
    ratio_bounds: np.ndarray,
    log_rs: np.ndarray,
    rel_tol: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified sums of c_k r^k at every log r (not LOG_ZERO), with
    ``ratio_bounds`` from stored_ratio_bounds(log_c).

    Row by row: log-sum-exp partial sums, stopped at the first index
    whose certificate q = ratio bound * r < 1 makes the geometric tail
    at most rel_tol times the running sum (or whose term is zero).
    Returns the sums, the terms used and which rows certified; a row
    that did not certify used every stored term, and its sum is the
    log-sum of all of them.

    Each chunk of radii walks the window in tiles of at most about
    _SERIES_CHUNK_CELLS cells, whose column count doubles while the
    cell budget allows it.  A row leaves once it certifies, and the
    rest carry their running sum into the next tile as its column 0, so
    np.logaddexp.accumulate takes the same steps as over the whole row:
    every result is bit-identical to summing all stored terms at once,
    and a call whose rows fit one tile (one radius, any window up to
    _SERIES_CHUNK_CELLS terms) makes a single pass."""
    log_rs = np.asarray(log_rs, dtype=float)
    log_tol = math.log(default_rel_tol() if rel_tol is None else rel_tol)
    n_terms = len(log_c)
    sums_out = np.full(len(log_rs), LOG_ZERO)
    used = np.full(len(log_rs), n_terms)
    done = np.zeros(len(log_rs), dtype=bool)
    if not n_terms:
        return sums_out, used, done
    k = np.arange(n_terms, dtype=float)
    rows = max(1, _SERIES_CHUNK_CELLS // min(n_terms, _SERIES_FIRST_COLUMNS))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(log_rs), rows):
            live = np.arange(lo, min(lo + rows, len(log_rs)))
            lr = log_rs[lo : lo + rows, None]
            carry = None
            start, width = 0, _SERIES_CHUNK_CELLS // len(live)
            while True:
                cols = slice(start, start + width)
                terms = log_c[cols] + k[cols] * lr
                # no LOG_ZERO carry into the first tile: logaddexp(-inf, x)
                # is x + 0.0, which turns a -0.0 head term into 0.0
                if carry is None:
                    sums = np.logaddexp.accumulate(terms, axis=1)
                else:
                    sums = np.logaddexp.accumulate(
                        np.concatenate([carry[:, None], terms], axis=1), axis=1
                    )[:, 1:]
                q = np.exp(np.minimum(ratio_bounds[cols] + lr, 700.0))
                tail = terms + np.log(q) - np.log1p(-q)
                stop = (q < 1.0) & (
                    (terms == LOG_ZERO) | ((sums > LOG_ZERO) & (tail <= log_tol + sums))
                )
                first = stop.argmax(axis=1)
                at = np.arange(len(live))
                hit = stop[at, first]
                # a row that has not certified holds its running sum, the
                # sum of every stored term once the window is done
                sums_out[live] = sums[at, np.where(hit, first, -1)]
                used[live] = np.where(hit, start + first + 1, n_terms)
                done[live] = hit
                start += width
                if start >= n_terms or hit.all():
                    break
                keep = ~hit
                live, lr, carry = live[keep], lr[keep], sums[keep, -1]
                width = min(2 * width, _SERIES_CHUNK_CELLS // len(live))
    return sums_out, used, done


def sum_windowed_series(
    window: Callable[[int], tuple], log_rs: np.ndarray, start: int, cap: int, rel_tol=None
) -> np.ndarray:
    """Certified sums at every log r (not LOG_ZERO) of a series whose
    window(n) gives c_0..c_n and their stored_ratio_bounds: every radius
    is summed on window(start), and those that do not certify move on to
    the doubled window, up to ``cap`` (a window at or past it is the
    last).  NaN where no window certified."""
    out = np.full(len(log_rs), math.nan)
    pending = np.arange(len(log_rs))
    n = start
    while pending.size:
        c, bounds = window(n)
        sums, _, done = sum_stored_series_batch(c, bounds, log_rs[pending], rel_tol)
        out[pending[done]] = sums[done]
        pending = pending[~done]
        if n >= cap:
            break
        n = min(2 * n, cap)
    return out


def sum_stored_series(log_terms: Sequence[float], rel_tol: Optional[float] = None) -> SeriesSum:
    """Certified sum of a stored, eventually log-concave positive series.

    The tail certificate at index n is the largest stored term ratio
    from n on; with eventually nonincreasing ratios (log-concave decay,
    which the generating function preconditions assert) this also bounds
    the unstored tail.  Raises NoDecayCertificate when the stored terms
    end before the bound certifies convergence.  The one-row case of
    sum_stored_series_batch (at r = 1).
    """
    c = np.asarray(log_terms, dtype=float)
    sums, used, done = sum_stored_series_batch(c, stored_ratio_bounds(c), [0.0], rel_tol)
    if not done[0]:
        raise NoDecayCertificate(
            f"series ended at index {len(c) - 1} before its tail was certified"
        )
    return SeriesSum(LogScalar(float(sums[0])), int(used[0]))


# --------------------------------------------------------------------------
# condition checks


@dataclass(frozen=True)
class ConditionVerdict:
    """Finite-evidence verdict for one named condition.

    status is "holds-up-to-N", "fails-at-index", or "inconclusive";
    witness carries the fitted constants or the failing index and
    margin.  A verdict never claims more than the checked range shows.
    """

    condition: str
    status: str
    n_checked: int
    witness: dict = field(default_factory=dict)
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.status == "holds-up-to-N"


_SLACK = 1e-12
# the smallest climb that _trend_is_rising counts, whatever the scale
_TREND_ABS_FLOOR = 1e-6


def _second_diff_check(values: Sequence[float], want: str) -> tuple[Optional[int], float]:
    """Log-concavity/convexity scan; returns (first failing n, worst margin)."""
    worst = -math.inf
    fail_at = None
    for n in range(len(values) - 2):
        d2 = values[n] + values[n + 2] - 2.0 * values[n + 1]
        margin = d2 if want == "concave" else -d2
        scale = max(1.0, abs(values[n]), abs(values[n + 1]), abs(values[n + 2]))
        if margin > worst:
            worst = margin
        if margin > _SLACK * scale and fail_at is None:
            fail_at = n
    return fail_at, worst


def _exact_second_diff_check(vals: Sequence[Fraction], want: str) -> Optional[int]:
    for n in range(len(vals) - 2):
        lhs = vals[n] * vals[n + 2]
        rhs = vals[n + 1] * vals[n + 1]
        bad = lhs > rhs if want == "concave" else lhs < rhs
        if bad:
            return n
    return None


def _trend_is_rising(values: Sequence[float], rel: float = 0.05) -> bool:
    """True when a quantity is still climbing materially near the end."""
    n = len(values)
    if n < 8:
        return False
    a, b, c = values[n // 4], values[n // 2], values[-1]
    return (c - b) > max(_TREND_ABS_FLOOR, rel * max(1.0, abs(b))) and (b - a) > _TREND_ABS_FLOOR


# the smallest N at which a condition has anything to check: a fitted
# constant needs one ratio, a root trend or a second difference three values
_SHORTEST_RANGE = {"A2": 2, "A2t": 2, "B2": 2, "B2t": 2, "B3": 2, "C1": 1, "C2": 1, "C3": 1}


def check_condition(
    seq: PositiveSequence,
    condition: str,
    search_cap: Optional[int] = None,
) -> ConditionVerdict:
    """Check one named condition on the stored range of the sequence.

    Limit-type conditions report finite evidence only: the computed
    quantity either behaves monotonically toward the claimed limit over
    the tail (holds-up-to-N), breaks an inequality at a specific index
    (fails-at-index), or trends the wrong way near the end of the range
    (inconclusive).  Constant-type conditions (A1, C1, C2, C3) report
    the smallest constant that works on the range and go inconclusive
    when that constant is still climbing at the end of the range.
    """
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; pick from {CONDITIONS}")
    N = seq.n_max if search_cap is None else min(seq.n_max, search_cap)
    if N < _SHORTEST_RANGE.get(condition, 0):
        return ConditionVerdict(condition, "inconclusive", N, {}, "range too short")
    la = seq.log_alpha[: N + 1]
    lf = _log_factorials(N).tolist()

    if condition == "A1":
        if abs(la[0]) > 1e-12:
            return ConditionVerdict("A1", "fails-at-index", N, {"index": 0}, "alpha(0) != 1")
        if N == 0:
            return ConditionVerdict("A1", "holds-up-to-N", N, {"sigma": 1.0, "inf_value": 1.0})
        s = [-la[n] / n for n in range(1, N + 1)]
        log_sigma = max(0.0, max(s))
        if _trend_is_rising(s):
            return ConditionVerdict(
                "A1", "inconclusive", N, {"sigma_so_far": math.exp(log_sigma)},
                "required sigma still growing at the end of the range",
            )
        inf_log = min(la[n] + n * log_sigma for n in range(N + 1))
        return ConditionVerdict(
            "A1", "holds-up-to-N", N,
            {"sigma": math.exp(log_sigma), "inf_value": math.exp(inf_log)},
        )

    if condition in ("A2", "A2t"):
        if condition == "A2":
            q = [(la[n] - lf[n]) / n for n in range(1, N + 1)]
        else:
            q = [(-la[n] - lf[n]) / n for n in range(1, N + 1)]
        tail = q[len(q) // 2 :]
        decreasing = all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        witness = {"root_at_N": math.exp(q[-1]), "root_at_mid": math.exp(q[len(q) // 2])}
        if decreasing:
            return ConditionVerdict(condition, "holds-up-to-N", N, witness)
        return ConditionVerdict(
            condition, "inconclusive", N, witness,
            "n-th roots not decreasing over the tail of the range",
        )

    if condition in ("B2", "B2t", "B3"):
        want = "concave" if condition in ("B2", "B2t") else "convex"
        if seq.exact is not None:
            if condition == "B2":
                vals = [seq.exact[n] / math.factorial(n) for n in range(N + 1)]
            elif condition == "B2t":
                vals = [Fraction(1) / (seq.exact[n] * math.factorial(n)) for n in range(N + 1)]
            else:
                vals = list(seq.exact[: N + 1])
            bad = _exact_second_diff_check(vals, want)
            if bad is None:
                return ConditionVerdict(condition, "holds-up-to-N", N, {"exact": True})
            return ConditionVerdict(
                condition, "fails-at-index", N, {"index": bad, "exact": True}
            )
        if condition == "B2":
            vals_f = [la[n] - lf[n] for n in range(N + 1)]
        elif condition == "B2t":
            vals_f = [-la[n] - lf[n] for n in range(N + 1)]
        else:
            vals_f = list(la)
        bad, worst = _second_diff_check(vals_f, want)
        if bad is None:
            return ConditionVerdict(condition, "holds-up-to-N", N, {"worst_margin": worst})
        return ConditionVerdict(
            condition, "fails-at-index", N, {"index": bad, "margin": worst}
        )

    if condition in ("C1", "C2", "C3"):
        if condition == "C1":
            def best_for(limit):
                return max(
                    (la[n] - la[m]) / m
                    for m in range(1, limit + 1)
                    for n in range(0, m + 1)
                )
        elif condition == "C2":
            def best_for(limit):
                return max(
                    (la[n + m] - la[n] - la[m]) / (n + m)
                    for n in range(0, limit + 1)
                    for m in range(0, limit + 1 - n)
                    if n + m >= 1
                )
        else:
            def best_for(limit):
                return max(
                    (la[n] + la[m] - la[n + m]) / (n + m)
                    for n in range(0, limit + 1)
                    for m in range(0, limit + 1 - n)
                    if n + m >= 1
                )

        log_c = best_for(N)
        key = {"C1": "c1", "C2": "c2", "C3": "c3"}[condition]
        if N >= 8:
            prefix = [best_for(N // 4), best_for(N // 2), log_c]
            if _trend_is_rising(prefix):
                return ConditionVerdict(
                    condition, "inconclusive", N,
                    {key + "_so_far": math.exp(log_c)},
                    "fitted constant still growing at the end of the range",
                )
        return ConditionVerdict(condition, "holds-up-to-N", N, {key: math.exp(log_c)})

    # B1 / B1t need the generating function and its transform
    from . import growthfn, legendre  # deferred to avoid an import cycle

    variant = "alpha" if condition == "B1" else "inverse"
    if variant == "alpha":
        log_c = [la[n] - lf[n] for n in range(N + 1)]
        sign = +1.0
    else:
        log_c = [-la[n] - lf[n] for n in range(N + 1)]
        sign = -1.0
    fn = growthfn.from_series(log_c, name=f"egf-{variant}")
    n_hi = max(2, (2 * N) // 3)  # keep clear of the stored truncation
    q = []
    for n in range(1, n_hi + 1):
        try:
            log_m = legendre.ell(fn, float(n)).log_ell.log
        except NoDecayCertificate:
            # the truncated series can no longer certify its tail at the
            # radii this index probes; stop at the evidence we have
            break
        q.append((lf[n] + sign * la[n] + log_m) / n)
    n_hi = len(q)
    if n_hi < 4:
        return ConditionVerdict(
            condition, "inconclusive", n_hi, {},
            "stored series too short to probe the transform",
        )
    running_sup = []
    cur = -math.inf
    for val in q:
        cur = max(cur, val)
        running_sup.append(cur)
    witness = {"limsup_bound": math.exp(running_sup[-1]), "n_used": n_hi}
    if _trend_is_rising(running_sup, rel=0.02):
        return ConditionVerdict(
            condition, "inconclusive", n_hi, witness,
            "running sup of the n-th roots still growing near the truncation",
        )
    return ConditionVerdict(condition, "holds-up-to-N", n_hi, witness)


# --------------------------------------------------------------------------
# sequence equivalence


@dataclass(frozen=True)
class SequenceEquivalenceWitness:
    """Constants with K1 c1^n a(n) <= b(n) <= K2 c2^n a(n) on the range."""

    K1: float
    c1: float
    K2: float
    c2: float
    n_checked: int

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class EquivalenceCounterexample:
    """Evidence that per-index log ratios drift without bound."""

    index: int
    log_ratio: float
    drift: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return False


def seq_equivalent(
    a: PositiveSequence,
    b: PositiveSequence,
) -> Union[SequenceEquivalenceWitness, EquivalenceCounterexample]:
    """Fit equivalence constants between two sequences, or reject.

    The geometric rates c1, c2 come from the envelope of the per-index
    slopes (1/n) log(b(n)/a(n)) over the tail half of the range; K1, K2
    are then the minimal prefactors making the bounds hold everywhere.
    Rejection is evidence-based: if the slope is still drifting by a
    constant per doubling of n at the end of the range, the log ratio
    grows without bound and no constants can exist.
    """
    N = min(a.n_max, b.n_max)
    if N < 1:
        raise ValueError("need at least indices 0 and 1")
    d = [b.log_alpha[n] - a.log_alpha[n] for n in range(N + 1)]
    s = [d[n] / n for n in range(1, N + 1)]

    if N >= 8:
        q1, q2, q3 = s[len(s) // 4], s[len(s) // 2], s[-1]
        drift_late, drift_early = q3 - q2, q2 - q1
        if abs(drift_late) > 0.25 and abs(drift_early) > 0.25 and drift_late * drift_early > 0:
            return EquivalenceCounterexample(
                index=N,
                log_ratio=d[N],
                drift=drift_late,
                detail="per-index slope of log(b/a) still drifting at the range end",
            )

    tail = s[len(s) // 2 :] if len(s) >= 2 else s
    log_c2 = max(tail)
    log_c1 = min(tail)
    log_K2 = max(d[n] - n * log_c2 for n in range(N + 1))
    log_K1 = min(d[n] - n * log_c1 for n in range(N + 1))
    return SequenceEquivalenceWitness(
        K1=math.exp(log_K1),
        c1=math.exp(log_c1),
        K2=math.exp(log_K2),
        c2=math.exp(log_c2),
        n_checked=N,
    )
