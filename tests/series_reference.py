"""Streamed log-sum-exp: the test reference for the stored-series sums.

The library sums stored series in one batched numpy kernel
(sequences.sum_stored_series_batch).  This module sums a series one term
at a time with a running log-sum-exp and a caller-supplied geometric tail
certificate, so the tests can compare the two.  It is not collected as a
test module; test_numerics.py and test_sequences.py import it.
"""

import math
from typing import Callable, Iterable, Optional, Union

from growthcalc.numerics import (
    LOG_ZERO,
    LogScalar,
    NoDecayCertificate,
    SeriesSum,
    default_rel_tol,
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
        rel_tol = default_rel_tol()
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
