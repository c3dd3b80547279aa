"""Kernel tests: log-domain arithmetic, certified series, 1-D searches.

Derived expectations are frozen from brute-force oracles defined at the
top of this file (dense grids and direct summation), independent of the
kernels under test.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthcalc import legendre
from growthcalc.growthfn import GrowthFunction, ks_family
from growthcalc.legendre import _brent_min_rows
from growthcalc.numerics import (
    LOG_ZERO,
    RANGE_CAP,
    Bracket,
    OptResult,
    GOLDEN_WIDTH,
    LogScalar,
    NoDecayCertificate,
    NotBracketable,
    _FLAT_ULPS,
    _INV_PHI2,
    _brent_min,
    bracket_minimum,
    geometric_grid,
    maximize_concave_1d,
    minimize_convex_1d,
)
from search_reference import bracket_minimum as reference_bracket_minimum
from search_reference import golden_min
from series_reference import log_sum_exp_series, logaddexp

RNG = np.random.default_rng(42)


# --------------------------------------------------------------------------
# oracles


def grid_min(f, lo, hi, points=2_000_001):
    """Dense-grid minimization, the reference for every 1-D search test."""
    xs = np.linspace(lo, hi, points)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmin(vals))
    return xs[i], vals[i]


def direct_log_sum(log_terms):
    m = max(log_terms)
    return m + math.log(sum(math.exp(t - m) for t in log_terms))


# frozen from the oracles above (and closed forms where exact):
MIN_EXP_MINUS_2X = 2.0 - 2.0 * math.log(2.0)        # f(x)=e^x-2x at x=log 2
SUM_E_OVER_N = 1.8840955903719716                    # log sum (e/n)^n, n>=0
SUP_PRODUCT_SPLIT = 0.5                              # sup x(1-x/2) on (0,2)


# --------------------------------------------------------------------------
# LogScalar


class TestLogScalar:
    def test_roundtrip_and_zero(self):
        x = LogScalar(math.log(7.5))
        assert math.isclose(x.value, 7.5, rel_tol=1e-15)
        assert LogScalar(LOG_ZERO).value == 0.0

    def test_ordering_matches_magnitudes(self):
        vals = [1e-12, 0.5, 1.0, 3.0, 1e40]
        scalars = [LogScalar(LOG_ZERO)] + [LogScalar(math.log(v)) for v in vals]
        assert scalars == sorted(scalars)
        assert LogScalar(LOG_ZERO) < LogScalar(math.log(1e-300))

    def test_huge_magnitudes_stay_finite_on_log_scale(self):
        # n**(4n) at n=300 is far beyond IEEE range
        n = 300.0
        y = LogScalar(4 * n * math.log(n))
        assert math.isfinite(y.log)
        assert y.value == math.inf


class TestLogAddExp:
    @given(st.floats(min_value=-50, max_value=50), st.floats(min_value=-50, max_value=50))
    @settings(max_examples=200, deadline=None)
    def test_add_commutative_and_dominates_max(self, la, lb):
        s1, s2 = logaddexp(la, lb), logaddexp(lb, la)
        assert math.isclose(s1, s2, rel_tol=0, abs_tol=1e-12)
        assert s1 >= max(la, lb) - 1e-12

    def test_against_numpy(self):
        for a, b in RNG.normal(0, 100, size=(200, 2)):
            assert math.isclose(logaddexp(a, b), np.logaddexp(a, b), rel_tol=1e-13)

    def test_identity_element(self):
        assert logaddexp(LOG_ZERO, 2.5) == 2.5
        assert logaddexp(2.5, LOG_ZERO) == 2.5
        assert logaddexp(LOG_ZERO, LOG_ZERO) == LOG_ZERO


# --------------------------------------------------------------------------
# series summation


class TestLogSumExpSeries:
    def test_exponential_series_sums_to_e(self):
        # terms 1/n!; ratio a_{n+1}/a_n = 1/(n+1), decreasing
        def terms():
            lt = 0.0
            for n in range(10_000):
                yield lt
                lt -= math.log(n + 1)

        got = log_sum_exp_series(terms(), rel_tol=1e-12, tail_certificate=lambda n: 1.0 / (n + 1))
        assert math.isclose(got.value.log, 1.0, rel_tol=0, abs_tol=1e-12)
        assert got.terms_used < 30

    def test_single_nonzero_term(self):
        terms = [math.log(5.0), LOG_ZERO, LOG_ZERO]
        got = log_sum_exp_series(iter(terms), rel_tol=1e-10, tail_certificate=lambda n: 0.5)
        assert math.isclose(got.value.log, math.log(5.0), abs_tol=1e-15)
        assert got.terms_used == 2  # stops right after the -inf term

    def test_e_over_n_series_matches_direct_sum(self):
        log_terms = [0.0] + [n * (1.0 - math.log(n)) for n in range(1, 200)]
        oracle = direct_log_sum(log_terms)
        assert math.isclose(oracle, SUM_E_OVER_N, abs_tol=1e-12)

        def cert(n):
            if n < 1:
                return None
            # ratio (e/(n+1))^(n+1) / (e/n)^n <= e/(n+1), decreasing in n
            q = math.e / (n + 1)
            return q if q < 1.0 else None

        got = log_sum_exp_series(iter(log_terms), rel_tol=1e-12, tail_certificate=cert)
        assert math.isclose(got.value.log, oracle, abs_tol=1e-10)
        assert 1.0 <= got.value.log <= 1.0 + math.sqrt(2.0)  # bracketing band

    def test_reordering_finite_prefix_invariance(self):
        logs = list(RNG.normal(0, 3, size=64))
        base = log_sum_exp_series(iter(logs)).value.log
        for _ in range(5):
            RNG.shuffle(logs)
            again = log_sum_exp_series(iter(logs)).value.log
            assert math.isclose(again, base, rel_tol=0, abs_tol=1e-11)

    def test_growing_terms_raise(self):
        with pytest.raises(NoDecayCertificate):
            log_sum_exp_series(
                (0.1 * n for n in range(10_000)),
                tail_certificate=lambda n: None,
            )

    def test_exhausted_stream_without_certificate_ok(self):
        got = log_sum_exp_series([math.log(2.0), math.log(3.0)])
        assert math.isclose(got.value.value, 5.0, rel_tol=1e-14)

    def test_exhausted_stream_with_failing_certificate_raises(self):
        with pytest.raises(NoDecayCertificate):
            log_sum_exp_series([0.0, 1.0, 2.0], tail_certificate=lambda n: 2.0)


# --------------------------------------------------------------------------
# minimization / maximization


class TestMinimizeConvex1d:
    def test_exp_minus_linear(self):
        oracle_x, oracle_f = grid_min(lambda x: math.exp(x) - 2 * x, -5, 5)
        res = minimize_convex_1d(lambda x: math.exp(x) - 2 * x, seed=0.0)
        assert res.boundary is None
        assert math.isclose(res.fx, MIN_EXP_MINUS_2X, abs_tol=1e-12)
        assert math.isclose(res.fx, oracle_f, abs_tol=1e-9)
        assert math.isclose(res.x, math.log(2.0), abs_tol=1e-7)

    def test_weighted_split_product(self):
        # sup over 0 < x < 2 of x * (1 - x/2), via minimizing the negative
        # log over the logit y = log(x / (2 - x)), which needs no clamp:
        # x = 2 / (1 + e^-y) and 1 - x/2 = 1 / (1 + e^y)
        def neg_log(y):
            return -(math.log(2.0) - math.log1p(math.exp(-y)) - math.log1p(math.exp(y)))

        res = minimize_convex_1d(neg_log, seed=math.log(0.5 / 1.5))
        assert math.isclose(math.exp(-res.fx), SUP_PRODUCT_SPLIT, rel_tol=1e-10)
        assert math.isclose(2.0 / (1.0 + math.exp(-res.x)), 1.0, abs_tol=1e-6)

    @pytest.mark.parametrize("seed", [0.0, 3.5, -2.0, RANGE_CAP, -RANGE_CAP, 1000.0])
    def test_a_given_seed_value_saves_its_call(self, seed):
        # f(seed) is read only when the seed is not clipped to the cap
        calls = []

        def f(x):
            calls.append(x)
            return (x - 1.0) ** 2

        want = minimize_convex_1d(f, seed)
        cold = len(calls)
        f_seed = f(seed)
        calls.clear()
        assert minimize_convex_1d(f, seed, f_seed) == want
        clipped = abs(seed) > RANGE_CAP
        assert len(calls) == cold - (not clipped)
        if clipped:  # the clipped seed's own value is not read
            assert minimize_convex_1d(f, seed, -math.inf) == want

    def test_monotone_increasing_gives_lo_boundary_limit(self):
        # f(x) = e^x decreases without an interior min as x -> -inf;
        # the limit 0 is returned flagged as a boundary value
        res = minimize_convex_1d(lambda x: math.exp(x), seed=0.0)
        assert res.boundary == "lo"
        assert abs(res.fx) < 1e-12

    def test_escaping_descent_raises(self):
        with pytest.raises(NotBracketable):
            minimize_convex_1d(lambda x: -x, seed=0.0)

    def test_min_below_random_probes(self):
        # minimizer contract: returned min is <= f at 1000 random points
        def f(x):
            return math.cosh(x - 0.7) + 0.1 * x * x

        res = minimize_convex_1d(f, seed=3.0)
        probes = RNG.uniform(-20, 20, size=1000)
        fmin = res.fx
        for p in probes:
            assert fmin <= f(p) + 1e-9 * (1 + abs(f(p)))

    def test_bracket_certifies_interior_point(self):
        got = bracket_minimum(lambda x: (x - 9.3) ** 2, seed=0.0)
        assert isinstance(got, Bracket)
        assert got.lo < got.inner < got.hi
        assert got.f_inner <= min(got.f_lo, got.f_hi)
        assert got.lo <= 9.3 <= got.hi


def polish_family(kind, c, p):
    """The objectives the polish is checked on against golden section,
    with their minimiser at c."""
    if kind == "quadratic":
        return lambda x: p * (x - c) ** 2
    if kind == "power":
        return lambda x: abs(x - c) ** p
    if kind == "expm1":
        # e^h - h with h = x - c, resolved to about 2 eps by expm1
        return lambda x: math.expm1(x - c) - (x - c)
    if kind == "exp":
        # the same in plain exp: flat to roundoff over about 1e-8
        return lambda x: math.exp(x - c) - (x - c)
    # a plateau at p with a +inf edge at c: every x <= c is a minimiser
    return lambda x: math.inf if x > c else p


def counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def polish_from_golden_point(f, a, b):
    """_brent_min as holo.norm_g and function_equivalent start it."""
    x = a + _INV_PHI2 * (b - a)
    return _brent_min(f, a, b, x, f(x), math.inf, math.inf)


class TestBrentPolish:
    """numerics._brent_min against the golden-section search it replaced
    (search_reference.golden_min) on the same interval: it ends within
    width of golden's minimiser where that is unique, at a value no
    higher than golden's plus 4 eps max(1, |f|), in no more
    evaluations.  A minimum flat to roundoff (the plain-exp family)
    fixes neither: there only the evaluation count is compared."""

    @given(
        st.sampled_from(["quadratic", "power", "expm1", "exp", "plateau"]),
        st.floats(min_value=-699.0, max_value=699.0),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=-3.0, max_value=1.5),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_golden_in_fewer_evaluations(self, kind, c, split, log_len, q):
        # p: the quadratic's curvature in [1e-3, 1e3], the power in
        # [1.5, 2.5], the plateau's level in [-1, 1]
        p = {"quadratic": 10.0 ** (6.0 * q - 3.0), "power": 1.5 + q}.get(kind, 2.0 * q - 1.0)
        f = polish_family(kind, c, p)
        length = 10.0 ** log_len
        a = c - split * length
        b = a + length
        g, g_calls = counted(f)
        xg, fg = golden_min(g, a, b)
        h, h_calls = counted(f)
        x, fx = polish_from_golden_point(h, a, b)
        assert a <= x <= b and fx == f(x)
        assert len(h_calls) <= len(g_calls)
        if kind != "exp":
            assert fx <= fg + 4.0 * np.finfo(float).eps * max(1.0, abs(fg))
        if kind == "plateau":
            assert x <= c
        elif kind != "exp":
            assert abs(x - xg) <= GOLDEN_WIDTH

    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    def test_minimum_of_higher_order(self, p):
        # at |x - c|^p, p > 2.5, parabolas through three points on one
        # side converge only linearly: the polish still ends where golden
        # does, at most about twice golden's evaluations
        rng = np.random.default_rng(int(p))
        draws = zip(rng.uniform(-699, 699, 50), rng.uniform(0.01, 0.99, 50),
                    10.0 ** rng.uniform(-3, 1.5, 50))
        for c, split, length in (map(float, draw) for draw in draws):
            f = polish_family("power", c, p)
            a = c - split * length
            g, g_calls = counted(f)
            xg, fg = golden_min(g, a, a + length)
            h, h_calls = counted(f)
            x, fx = polish_from_golden_point(h, a, a + length)
            assert abs(x - xg) <= GOLDEN_WIDTH and fx <= fg + 4.0 * np.finfo(float).eps
            assert len(h_calls) <= 2.5 * len(g_calls)

    def test_certified_bracket_starts_with_its_parabola(self):
        # a quadratic's parabola through the bracket is exact: the first
        # step lands on the minimiser, and two tol steps close the bracket
        f, calls = counted(lambda x: (x - 0.3) ** 2)
        x, fx = _brent_min(f, -1.0, 1.0, 0.0, f(0.0), f(-1.0), f(1.0))
        assert abs(x - 0.3) <= 1e-15 and fx <= 1e-30
        assert len(calls) - 3 <= 4

    def test_starts_past_a_right_edge_and_walks_back(self):
        # the golden point of [0, 10] sits at 3.82, past f's domain edge
        # at 1: a tie at +inf keeps the left point, as golden did
        f = lambda x: math.inf if x > 1.0 else (x - 0.5) ** 2
        x, fx = polish_from_golden_point(f, 0.0, 10.0)
        assert abs(x - 0.5) <= GOLDEN_WIDTH and fx == f(x)

    def test_ell_on_a_fresh_function_takes_few_phi_reads(self):
        # bracket_minimum's 5 reads plus the polish, which the flat stop
        # ends once the value is fixed; golden's polish of the same
        # bracket made 64, the width rule alone 29
        calls = []
        u = ks_family(0.5)
        w = GrowthFunction(phi=lambda x: calls.append(x) or u.phi(x), name="counted",
                           log_u0=u.log_u0, log_exp_convex=True)
        got = legendre.ell(w, 13.75)
        assert got.boundary is None and len(calls) <= 20
        assert math.isclose(got.log_ell.log, legendre.ell(u, 13.75).log_ell.log, abs_tol=1e-13)


def flat_delta(v):
    """The flat stop's delta at the value v."""
    return _FLAT_ULPS * max(1.0, abs(v))


class TestFlatStop:
    """minimize_convex_1d's polish stops on the width rule or on the flat
    rule of legendre._brent_min_rows, on a bracket no wider than log 2:
    its value lies within 8 delta of the minimum of an objective convex
    in x, 16 delta of one convex in e^x."""

    @given(
        st.sampled_from(["quadratic", "power", "expm1", "exp", "theta"]),
        st.floats(min_value=-690.0, max_value=690.0),
        st.floats(min_value=-40.0, max_value=40.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @example("exp", 322.74, 0.0, 0.0)  # the quantised slope beside a flat minimum
    @settings(max_examples=300, deadline=None)
    def test_value_within_sixteen_deltas_of_the_minimum(self, kind, c, offset, q):
        if kind == "theta":
            # t log t - c t in x = log t, as the inverse transform's
            # maximand: convex in t, not in x; minimum -e^(c-1) at x = c-1
            c = min(c, 30.0)
            f, want = (lambda x: math.exp(x) * (x - c)), -math.exp(c - 1.0)
        else:
            p = {"quadratic": 10.0 ** (6.0 * q - 3.0), "power": 1.5 + q}.get(kind, 0.0)
            f, want = polish_family(kind, c, p), 1.0 if kind == "exp" else 0.0
        seed = min(max(c + offset, -RANGE_CAP), RANGE_CAP)
        res = minimize_convex_1d(f, seed)
        assert res.boundary is None
        assert want - flat_delta(want) <= res.fx <= want + 16.0 * flat_delta(want)

    @pytest.mark.parametrize("c, split, length", [
        (-242.3871126268503, 0.49981438623853014, 0.006108503079295672),
        (442.42532315349695, 0.3092710069130224, 0.00938150964689701),
        (-591.8795381877579, 0.6910185994045565, 0.018111374732214774),
        (-497.0456093777586, 0.5006436998957859, 0.004962838068653175),
    ])
    def test_a_quantised_slope_beside_a_flat_minimum(self, c, split, length):
        # from the golden point with both end values +inf, as the
        # width-rule polishes start, these end 17, 14, 190 and 8 ulps high
        # (a quantised slope closes the bracket beside the minimum); from
        # a certified bracket, as minimize_convex_1d hands one over, the
        # flat polish ends within 8 delta
        f = polish_family("exp", c, 0.0)
        a = c - split * length
        b = a + length
        x = a + _INV_PHI2 * (b - a)
        assert f(x) <= min(f(a), f(b))
        _, fx = _brent_min(f, a, b, x, f(x), f(a), f(b), flat=True)
        assert fx <= 1.0 + 8.0 * flat_delta(1.0)

    @pytest.mark.parametrize("a, b, x, most", [(-0.3, 0.3, 0.01, 0), (-2.0, 2.0, 0.5, 8)])
    def test_the_flat_stop_waits_for_a_narrow_bracket(self, a, b, x, most):
        # f is 1.0 in floats everywhere: the flat polish stops once its
        # bracket is no wider than log 2, at once on [-0.3, 0.3]; the
        # width rule alone, as holo.norm_g and function_equivalent polish,
        # runs on to 1e-12
        f = lambda x: 1.0 + 1e-20 * x * x
        h, calls = counted(f)
        _brent_min(h, a, b, x, 1.0, 1.0, 1.0, flat=True)
        assert (len(calls) == 0) == (most == 0) and len(calls) <= most
        h, calls = counted(f)
        _brent_min(h, a, b, x, 1.0, 1.0, 1.0)
        assert len(calls) > 40


class TestRangeCap:
    """No bracket reaches past the range cap, whatever the seed."""

    def test_seed_on_the_cap_still_descending_raises(self):
        with pytest.raises(NotBracketable, match=r"x=\+700"):
            bracket_minimum(lambda x: -x, seed=RANGE_CAP)
        with pytest.raises(NotBracketable, match=r"x=-700"):
            bracket_minimum(lambda x: x, seed=-2.0 * RANGE_CAP)

    def test_first_step_clipped_to_the_cap_still_descending_raises(self):
        # the minimizer 705 sits past the cap; the old search returned
        # a bracket ending at the cap and a value at x = 700
        with pytest.raises(NotBracketable):
            minimize_convex_1d(lambda x: (x - 705.0) ** 2, seed=699.5)

    def test_flat_at_the_cap_is_a_flagged_limit(self):
        got = bracket_minimum(lambda x: math.exp(-x), seed=RANGE_CAP - 0.5)
        assert isinstance(got, OptResult)
        assert got.boundary == "hi" and got.x == RANGE_CAP

    def test_interior_minimum_next_to_the_cap_still_found(self):
        res = minimize_convex_1d(lambda x: (x - 698.7) ** 2, seed=699.5)
        assert res.boundary is None
        assert abs(res.x - 698.7) <= 1e-6

    @pytest.mark.parametrize("x_min, seed", [
        (651.25, 0.0),  # a doubling step jumps from 511 onto the cap
        (-651.25, 0.0),  # the same on the left
        (699.6, RANGE_CAP),  # a seed on the cap
        (699.8, 699.5),  # a first step clipped to the cap
    ])
    def test_interior_minimum_past_the_last_step_is_bracketed(self, x_min, seed):
        # f(cap) lies below the point before it, but a probe just inside the
        # cap lies lower still: the minimum is between them, not an escape
        got = bracket_minimum(lambda x: (x - x_min) ** 2, seed)
        assert isinstance(got, Bracket) and got.lo < x_min < got.hi
        assert abs(got.inner) == RANGE_CAP - 1e-6
        res = minimize_convex_1d(lambda x: (x - x_min) ** 2, seed)
        assert res.boundary is None and abs(res.x - x_min) <= 1e-6


class TestBracketRows:
    """legendre._bracket_rows, the lockstep bracketing of the vectorised
    dual, ends every row where bracket_minimum ends it."""

    # (f, seed): an interior bracket, a flat limit at the cap, a descent
    # still active at the cap, seeds on the cap (and past it), first
    # steps clipped to the cap
    ROWS = [
        (lambda x: (x - 9.3) ** 2, 0.0),
        (lambda x: math.cosh(x + 40.0), 3.0),
        (lambda x: math.exp(x), 0.0),
        # still falling at the cap, by 1.9e-9: within the flat rule's 1e-8
        (lambda x: 1e-11 * x, 0.0),
        (lambda x: -x, 0.0),
        (lambda x: x, 5.0),
        (lambda x: -x, RANGE_CAP),
        (lambda x: math.exp(-x), RANGE_CAP),
        (lambda x: math.exp(x), -2.0 * RANGE_CAP),
        (lambda x: (x - 705.0) ** 2, 699.5),
        (lambda x: math.exp(-x), 699.5),
        # minima that a probe just inside the cap brackets: past a doubling
        # step, on each side, from a seed on the cap and past a first step
        # clipped to it; and one on the cap itself, still an escape
        (lambda x: (x - 651.25) ** 2, 0.0),
        (lambda x: (x + 651.25) ** 2, 0.0),
        (lambda x: (x - 699.6) ** 2, RANGE_CAP),
        (lambda x: (x - 699.8) ** 2, 699.5),
        (lambda x: (x - RANGE_CAP) ** 2, 0.0),
    ]

    @staticmethod
    def _rows(rows):
        fs = [f for f, _ in rows]

        def f(k, xs):
            return np.array([fs[r](x) for r, x in zip(k, xs)])

        return legendre._bracket_rows(f, np.array([seed for _, seed in rows]))

    @staticmethod
    def _scalar(f, seed):
        """bracket_minimum's end as _bracket_rows reports it."""
        try:
            got = bracket_minimum(f, seed)
        except NotBracketable:
            return 2, None
        if isinstance(got, OptResult):
            return 1, (got.x, got.fx)
        return 0, (got.lo, got.hi, got.inner, got.f_inner)

    def test_each_row_ends_as_the_scalar_search(self):
        lo, hi, x, fx, end = self._rows(self.ROWS)
        ends = []
        for k, (f, seed) in enumerate(self.ROWS):
            kind, want = self._scalar(f, seed)
            ends.append(kind)
            assert end[k] == kind, k
            if kind == 0:
                assert (lo[k], hi[k], x[k], fx[k]) == want, k
            elif kind == 1:
                assert (x[k], fx[k]) == want, k
        # every case occurs
        assert ends == [0, 0, 1, 1, 2, 2, 2, 1, 1, 2, 1, 0, 0, 0, 0, 2]

    def test_rows_are_independent(self):
        together = self._rows(self.ROWS)
        for k, row in enumerate(self.ROWS):
            alone = self._rows([row])
            assert [v[k] for v in together] == [v[0] for v in alone], k


def _search_row(kind, c, s):
    """One row of the range-cap property tests: (x - c)^2, s e^{+-x},
    cosh(x - c) (+inf where it overflows), +-s x, or -s x up to c and
    +inf past it."""
    return {
        "square": lambda x: (x - c) ** 2,
        "exp": lambda x: s * math.exp(x),
        "exp-": lambda x: s * math.exp(-x),
        "cosh": lambda x: math.cosh(x - c) if abs(x - c) < 710.0 else math.inf,
        "slope": lambda x: s * x,
        "slope-": lambda x: -s * x,
        "wall": lambda x: math.inf if x > c else -s * x,
    }[kind]


def _search_end(search, f, seed):
    """(probes, end) of search(f, seed): the points f read, in order, and
    the result's fields or the NotBracketable message, as float hex."""
    probes = []

    def counted(x):
        probes.append(x.hex())
        return f(x)

    try:
        got = search(counted, seed)
    except NotBracketable as exc:
        return probes, ("NotBracketable", str(exc))
    return probes, (type(got).__name__,) + tuple(
        v.hex() if isinstance(v, float) else v for v in got
    )


class TestOneCapExit:
    """bracket_minimum, which leaves the range cap through one exit, and
    _bracket_rows, its lockstep form, end every row as the search with
    an exit per case (search_reference.bracket_minimum) does."""

    rows = st.lists(
        st.tuples(
            st.sampled_from(["square", "exp", "exp-", "cosh", "slope", "slope-", "wall"]),
            st.floats(-1500.0, 1500.0),
            st.floats(1e-12, 1e3),
            st.floats(-1500.0, 1500.0),
        ),
        min_size=1,
        max_size=6,
    )

    @given(rows)
    # near-cap ends that random draws seldom hit: a minimum a probe inside
    # the cap brackets from a seed on the cap and past a doubling step, a
    # flat limit past a first step clipped to the cap, a fall of 1.9e-8 to
    # the cap, just past the flat rule's 1e-8, and a seed past the cap
    # where f is +inf on both sides of the cap
    @example([("square", 699.6, 1.0, 700.0), ("square", -651.25, 1.0, 0.0),
              ("exp-", 0.0, 1.0, 699.5), ("slope-", 0.0, 1e-10, 0.0),
              ("wall", 600.0, 1.0, 800.0)])
    @settings(max_examples=40, deadline=None)
    def test_same_probes_and_ends_as_the_reference(self, rows):
        fs = [_search_row(kind, c, s) for kind, c, s, _ in rows]
        lo, hi, x, fx, end = legendre._bracket_rows(
            lambda k, xs: np.array([fs[r](v) for r, v in zip(k, xs)]),
            np.array([seed for *_, seed in rows]),
        )
        for k, (f, (*_, seed)) in enumerate(zip(fs, rows)):
            probes, got = _search_end(bracket_minimum, f, seed)
            assert (probes, got) == _search_end(reference_bracket_minimum, f, seed), k
            assert end[k] == ["Bracket", "OptResult", "NotBracketable"].index(got[0]), k
            row = [float(v).hex() for v in (lo[k], hi[k], x[k], fx[k])]
            if got[0] == "Bracket":  # lo, hi, f_lo, f_hi, inner, f_inner
                assert row == [got[1], got[2], got[5], got[6]], k
            elif got[0] == "OptResult":  # x, fx, boundary
                assert row[2:] == list(got[1:3]), k


class TestEdge:
    """A right edge short of the range cap, past which f is +inf: a
    descent still active there returns the edge's value, flagged "hi",
    and a search that stays inside it probes as it does without one."""

    @staticmethod
    def _wall(edge):
        return lambda x: math.inf if x > edge else -x

    @pytest.mark.parametrize("edge", [0.0, -3.25, 41.5])
    @pytest.mark.parametrize("seed", [0.0, 500.0])
    def test_active_descent_returns_the_edge(self, edge, seed):
        f = self._wall(edge)
        want = OptResult(edge, f(edge), "hi")
        assert bracket_minimum(f, seed, edge=edge) == want
        assert minimize_convex_1d(f, seed, edge=edge) == want
        got = maximize_concave_1d(lambda x: -f(x), seed, edge=edge)
        assert got == OptResult(edge, -f(edge), "hi")
        # without the edge the descent runs to the range cap and escapes
        with pytest.raises(NotBracketable):
            bracket_minimum(lambda x: -x, seed)

    def test_minimum_next_to_the_edge_is_bracketed(self):
        # a probe just inside the edge shows a minimum below both ends
        got = minimize_convex_1d(lambda x: (x - 4.9999993) ** 2, 0.0, edge=5.0)
        assert got.boundary is None and abs(got.x - 4.9999993) <= 1e-9

    @pytest.mark.parametrize("c", [-20.5, 3.7, 9.3])
    @pytest.mark.parametrize("edge", [15.0, 40.0])
    def test_interior_minimum_keeps_its_floats(self, c, edge):
        def f(x):
            return (x - c) ** 2

        def g(x):
            return -f(x)

        assert bracket_minimum(f, 0.0, edge=edge) == bracket_minimum(f, 0.0)
        assert minimize_convex_1d(f, 0.0, edge=edge) == minimize_convex_1d(f, 0.0)
        assert maximize_concave_1d(g, 0.0, edge=edge) == maximize_concave_1d(g, 0.0)

    def test_rows_end_as_the_scalar_search(self):
        edge = 2.5
        rows = [
            (self._wall(edge), 0.0),
            (self._wall(edge), 9.0),
            (lambda x: (x - 1.0) ** 2, 0.0),
            (lambda x: (x - 2.4999993) ** 2, 0.0),
            (lambda x: x, 0.0),
            (lambda x: math.exp(x), 0.0),
            (lambda x: -x, -RANGE_CAP),
        ]
        fs = [f for f, _ in rows]
        lo, hi, x, fx, end = legendre._bracket_rows(
            lambda k, xs: np.array([fs[r](v) for r, v in zip(k, xs)]),
            np.array([seed for _, seed in rows]),
            edge,
        )
        kinds = []
        for k, (f, seed) in enumerate(rows):
            try:
                got = bracket_minimum(f, seed, edge=edge)
            except NotBracketable:  # at the left cap
                kinds.append(2)
                assert end[k] == 2, k
                continue
            if isinstance(got, OptResult):
                kinds.append(1)
                assert (end[k], x[k], fx[k]) == (1, got.x, got.fx), k
            else:
                kinds.append(0)
                assert (end[k], lo[k], hi[k], x[k], fx[k]) == (
                    0, got.lo, got.hi, got.inner, got.f_inner), k
        assert kinds == [1, 1, 0, 0, 2, 1, 1]


class TestBrentMinRows:
    # (f, a, inner, b) with f(inner) <= f(a), f(b): smooth, kinked, flat
    # and +inf-edged rows
    ROWS = [
        (lambda x: (x - 0.3) ** 2, -1.0, 0.0, 1.0),
        (lambda x: math.exp(x) - 3.0 * x, 0.0, 1.0, 2.0),
        (lambda x: abs(x - 1.0), -4.0, 0.5, 9.0),
        (lambda x: 5.0, -1.0, 0.2, 1.0),
        (lambda x: math.cosh(x - 0.7) + 0.1 * x * x, -3.0, 0.0, 3.0),
        (lambda x: math.inf if x > 1.5 else (x - 1.2) ** 2, 0.0, 1.0, 2.0),
        (lambda x: max(-x, 2.0 * x), -1.0, 0.5, 2.0),
    ]

    @staticmethod
    def _call(rows):
        fs = [f for f, *_ in rows]
        a, x0, b = (np.array(col) for col in list(zip(*rows))[1:])
        def f(k, xs):
            return np.array([fs[r](x) for r, x in zip(k, xs)])

        every = np.arange(len(fs))
        return _brent_min_rows(f, a, b, x0, f(every, x0), f(every, a), f(every, b))

    def test_each_row_takes_its_one_row_path(self):
        xs, fx = self._call(self.ROWS)
        for k, row in enumerate(self.ROWS):
            x1, f1 = self._call([row])
            assert (xs[k], fx[k]) == (x1[0], f1[0]), k

    def test_stays_in_the_bracket_and_beats_the_inner_point(self):
        xs, fx = self._call(self.ROWS)
        for (f, a, x0, b), x, v in zip(self.ROWS, xs, fx):
            assert a <= x <= b
            assert v == f(x) and v <= f(x0)

    def test_finds_the_minimizers(self):
        xs, _ = self._call(self.ROWS)
        for k, want in [(0, 0.3), (1, math.log(3.0)), (2, 1.0), (5, 1.2), (6, 0.0)]:
            assert abs(xs[k] - want) <= 1e-6, k

    def test_evaluates_only_rows_still_running(self):
        seen = []

        def f(rows, xs):
            seen.append(len(rows))
            return (xs - 0.5) ** 2

        _brent_min_rows(
            f, np.array([0.0, 0.0]), np.array([1.0, 1e-12]),
            np.array([0.4, 5e-13]), np.array([0.01, 0.25]),
            np.array([0.25, 0.25]), np.array([0.25, 0.25]),
        )
        assert seen and set(seen) == {1}

    def test_no_rows_take_no_steps(self):
        # a profile block whose orders all lack a certified bracket (the
        # log_square orders past its range cap) polishes nothing
        seen = []
        empty = np.empty(0)
        xs, fx = _brent_min_rows(
            lambda rows, xs: seen.append(len(rows)) or xs, *[empty] * 6
        )
        assert seen == [] and xs.size == fx.size == 0

    @staticmethod
    def _block_calls(u, orders, monkeypatch):
        """The lockstep calls a profile block makes: (f, args, steps)."""
        calls = []

        def spy(f, *args):
            steps = []

            def counted(rows, xs):
                steps.append(len(rows))
                return f(rows, xs)

            calls.append((f, args, steps))
            return _brent_min_rows(counted, *args)

        monkeypatch.setattr(legendre, "_brent_min_rows", spy)
        legendre._profile_block(u, orders)
        monkeypatch.undo()
        return calls

    def test_profile_block_rows_take_their_one_row_paths(self, monkeypatch):
        (f, args, _), = self._block_calls(ks_family(1.0), np.arange(1.0, 65.0), monkeypatch)
        xs, fx = _brent_min_rows(f, *args)
        for k in range(len(xs)):
            one = [np.asarray(v)[k : k + 1] for v in args]
            x1, f1 = _brent_min_rows(lambda rows, x: f(rows + k, x), *one)
            assert (xs[k], fx[k]) == (x1[0], f1[0]), k

    def test_fresh_block_polishes_in_few_steps(self, monkeypatch):
        # the t = 1 row has its minimiser at x = 0, where the width rule's
        # floor is GOLDEN_WIDTH / 3 and f is flat to roundoff much wider:
        # it kept a one-row loop going for 29 steps before the flat stop
        (_, _, steps), = self._block_calls(ks_family(1.0), np.arange(1.0, 65.0), monkeypatch)
        assert len(steps) <= 12

    # convex rows whose value the flat stop fixes: (f, its minimum, a,
    # inner point, b); minimisers at 0, at +-1e-9 and at +-300, where the
    # width rule alone allows a step of sqrt(eps) * 300, and a shallow V
    # whose first bracket is flat to delta but split 1:999, with the
    # minimum about 280 delta below the inner point
    FLAT_ROWS = [
        (lambda x: 1.0 + 5e-13 * abs(x - 0.5), 1.0, 0.0, 1e-3, 1.0),
        (lambda x: math.exp(x) - x, 1.0, -1.0, 0.3, 2.0),
        (lambda x: math.exp(x - 1e-9) - (x - 1e-9), 1.0, -1.0, -0.2, 1.0),
        (lambda x: math.exp(x + 1e-9) - (x + 1e-9), 1.0, -1.5, 0.1, 1.0),
        (lambda x: math.cosh(x), 1.0, -2.0, 0.5, 1.0),
        (lambda x: 1.0 + 1e-6 * (x - 300.0) ** 2, 1.0, 299.0, 300.4, 302.0),
        (lambda x: 5e3 * math.cosh((x + 300.0) * 1e-3), 5e3, -303.0, -299.0, -298.0),
    ]

    def test_flat_stop_certificate(self):
        xs, fx = self._call([(f, a, x0, b) for f, _, a, x0, b in self.FLAT_ROWS])
        for k, (f, low, a, x0, b) in enumerate(self.FLAT_ROWS):
            delta = 4.0 * np.finfo(float).eps * max(1.0, abs(fx[k]))
            assert fx[k] == f(xs[k]), k
            assert abs(fx[k] - low) <= 8.0 * delta, k


def power_ratio(a):
    """tau -> log of a^t / t^(2t) at t = e^tau: the search over t > 0
    runs in log t, where it needs no clamp at t = 0."""
    def f(tau):
        t = math.exp(tau)
        return t * math.log(a) - 2.0 * t * tau

    return f


class TestMaximizeConcave1d:
    @pytest.mark.parametrize("a", [0.5, 1.0, 4.0, 100.0])
    def test_power_ratio_sup_closed_form(self, a):
        # sup_{t>0} a^t / t^(2t) = exp(2 sqrt(a) / e), checked on log scale
        res = maximize_concave_1d(power_ratio(a), seed=0.0)
        expected = 2.0 * math.sqrt(a) / math.e
        assert abs(res.fx - expected) <= 1e-8 * max(1.0, abs(expected))
        assert math.isclose(math.exp(res.x), math.sqrt(a) / math.e, rel_tol=1e-5)

    def test_boundary_sup_at_zero(self):
        # sup_{t>0} -t is approached as t -> 0: in tau = log t, a limit
        # flagged at the lower range cap, within e^-700 of the supremum 0
        res = maximize_concave_1d(lambda tau: -math.exp(tau), seed=math.log(5.0))
        assert res.boundary == "lo"
        assert res.x == -RANGE_CAP
        assert -math.exp(-RANGE_CAP) <= res.fx <= 0.0

    def test_seed_on_the_clamp_searches_inside_it(self):
        # a seed at t = e^-700, on the range cap, still finds the interior sup
        want = math.sqrt(0.5) / math.e
        for seed in (-RANGE_CAP, 0.0):
            res = maximize_concave_1d(power_ratio(0.5), seed=seed)
            assert res.boundary is None
            assert math.isclose(math.exp(res.x), want, rel_tol=1e-5)
            assert abs(res.fx - 2.0 * want) <= 1e-8


class TestGeometricGrid:
    def test_endpoints_and_monotone(self):
        g = geometric_grid(1e-3, 1e3, 64)
        assert math.isclose(g[0], 1e-3) and math.isclose(g[-1], 1e3)
        assert all(a < b for a, b in zip(g, g[1:]))

    @pytest.mark.parametrize("lo, hi, points", [
        (1e-3, 100.0, 21), (1.0, 1e4, 40), (5e-9, 5.0, 96), (1, 2, 2),
    ])
    def test_endpoints_are_exact(self, lo, hi, points):
        # exp(log hi) is 100.00000000000004, 10000.00000000001 and
        # 4.9999999999999964 for the first three; the ends are lo and hi
        g = geometric_grid(lo, hi, points)
        assert len(g) == points
        assert (g[0], g[-1]) == (lo, hi)
        assert all(type(x) is float for x in g)
        la, lb = math.log(lo), math.log(hi)
        assert g[1:-1] == [math.exp(la + (lb - la) * i / (points - 1))
                           for i in range(1, points - 1)]
