"""Test references for the stored-series sums.

The library sums stored series in one batched numpy kernel
(sequences.sum_stored_series_batch), which walks each chunk of radii
through the window in tiles.  This module keeps two references
for it: log_sum_exp_series sums a series one term at a time with a
running log-sum-exp and a caller-supplied geometric tail certificate,
and sum_stored_series_batch is the earlier one-pass kernel, which sums
every stored term of every radius at once (and gives a row that does
not certify the log of its first term).  It is not collected as a
test module; test_numerics.py and test_sequences.py import it.
"""

import math
from typing import Callable, Iterable, Optional, Union

import numpy as np

from growthcalc.numerics import (
    DEFAULT_REL_TOL,
    LOG_ZERO,
    LogScalar,
    NoDecayCertificate,
    SeriesSum,
)

SERIES_INDEX_CAP = 10 ** 6

LogLike = Union[float, LogScalar]


def logaddexp(a: float, b: float) -> float:
    """log(e**a + e**b) without leaving the log scale."""
    if a == LOG_ZERO:
        return b
    if b == LOG_ZERO:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _as_log(term: LogLike) -> float:
    if isinstance(term, LogScalar):
        return term.log
    return float(term)


def log_sum_exp_series(
    terms: Iterable[LogLike],
    rel_tol: Optional[float] = None,
    tail_certificate: Optional[Callable[[int], Optional[float]]] = None,
    index_cap: int = SERIES_INDEX_CAP,
) -> SeriesSum:
    """Sum a nonnegative series given by log-scale terms.

    ``tail_certificate(n)`` must return a bound q on every term ratio
    a_{m+1}/a_m for m >= n (magnitude scale), or None if no bound is
    known yet at index n.  Once q < 1 is available the tail after term n
    is at most a_n * q/(1-q); summation stops as soon as that bound drops
    below rel_tol times the running sum.

    A finite iterable with ``tail_certificate=None`` is summed exactly
    (the caller asserts the stream is the whole series).  If a
    certificate is supplied but never certifies convergence before the
    stream or ``index_cap`` runs out, :class:`NoDecayCertificate` is
    raised: the series gave no evidence of decay.
    """
    if rel_tol is None:
        rel_tol = DEFAULT_REL_TOL
    log_tol = math.log(rel_tol)
    log_sum = LOG_ZERO
    n = -1
    for n, term in enumerate(terms):
        if n > index_cap:
            raise NoDecayCertificate(
                f"series passed index cap {index_cap} without a certified tail"
            )
        t = _as_log(term)
        log_sum = logaddexp(log_sum, t)
        if tail_certificate is None:
            continue
        q = tail_certificate(n)
        if q is None or not 0.0 <= q < 1.0:
            continue
        if t == LOG_ZERO:
            return SeriesSum(LogScalar(log_sum), n + 1)
        log_tail = t + math.log(q) - math.log1p(-q) if q > 0.0 else LOG_ZERO
        if log_sum > LOG_ZERO and log_tail <= log_tol + log_sum:
            return SeriesSum(LogScalar(log_sum), n + 1)
    if tail_certificate is not None:
        raise NoDecayCertificate(
            f"series ended at index {n} before its tail was certified"
        )
    return SeriesSum(LogScalar(log_sum), n + 1)


# the one-pass kernel's chunk: 64 radii of a 65-term window at once
_SERIES_CHUNK_CELLS = 64 * 65


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
    that did not certify used every stored term."""
    log_rs = np.asarray(log_rs, dtype=float)
    log_tol = math.log(DEFAULT_REL_TOL if rel_tol is None else rel_tol)
    sums_out = np.full(len(log_rs), LOG_ZERO)
    used = np.full(len(log_rs), len(log_c))
    done = np.zeros(len(log_rs), dtype=bool)
    if not len(log_c):
        return sums_out, used, done
    k = np.arange(len(log_c), dtype=float)
    rows = max(1, _SERIES_CHUNK_CELLS // len(log_c))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(log_rs), rows):
            lr = log_rs[lo : lo + rows, None]
            terms = log_c + k * lr
            sums = np.logaddexp.accumulate(terms, axis=1)
            q = np.exp(np.minimum(ratio_bounds + lr, 700.0))
            tail = terms + np.log(q) - np.log1p(-q)
            stop = (q < 1.0) & (
                (terms == LOG_ZERO) | ((sums > LOG_ZERO) & (tail <= log_tol + sums))
            )
            first = stop.argmax(axis=1)
            at = np.arange(len(lr))
            hit = stop[at, first]
            sums_out[lo : lo + rows] = sums[at, first]
            used[lo : lo + rows] = np.where(hit, first + 1, len(log_c))
            done[lo : lo + rows] = hit
    return sums_out, used, done
