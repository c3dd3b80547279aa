"""Sequence generation, generating functions, conditions, equivalence.

Independent oracles back the Bell generator: a brute-force count of set
partitions (one recursion branch per partition), a Faa di Bruno style
exponential-of-series composition over integer partitions, and a
decimal-arithmetic oracle that carries the unnormalized exponential
tower exp_k(r) = c_k + T_k(r) and divides by the constant only at the
end.  All are implemented here, in the test, with no code shared with
the module under test.
"""

import decimal
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcalc.numerics import LOG_ZERO, NoDecayCertificate
from growthcalc.sequences import (
    GEN_BELL_MAX_N,
    ConditionVerdict,
    EquivalenceCounterexample,
    PositiveSequence,
    SequenceEquivalenceWitness,
    _log_factorials,
    _series_exp,
    check_condition,
    gen_bell,
    gen_power_factorial,
    seq_equivalent,
    stored_ratio_bounds,
    sum_stored_series,
    sum_stored_series_batch,
    sum_windowed_series,
)
from series_reference import log_sum_exp_series
from series_reference import sum_stored_series_batch as one_pass_batch

sys.setrecursionlimit(100_000)


# --------------------------------------------------------------------------
# oracles


def count_set_partitions(n):
    """Count partitions of {1..n} by enumerating restricted growth
    strings: every leaf of the recursion is exactly one partition."""
    if n == 0:
        return 1

    def rec(i, blocks):
        if i == n:
            return 1
        total = rec(i + 1, blocks + 1)  # element i+1 opens a new block
        for _ in range(blocks):  # or joins one existing block
            total += rec(i + 1, blocks)
        return total

    return rec(1, 1)


def _int_partitions(n, max_part=None):
    """Yield integer partitions of n as {part: multiplicity} dicts."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield {}
        return
    for p in range(min(n, max_part), 0, -1):
        for rest in _int_partitions(n - p, p):
            d = dict(rest)
            d[p] = d.get(p, 0) + 1
            yield d


def faa_di_bruno_exp(a):
    """Coefficients of exp(A) for A with A(0)=0, by summing over integer
    partitions: b_n = sum over partitions of n of prod a_j^m_j / m_j!.
    Works over Fraction or Decimal coefficients alike."""
    n_max = len(a) - 1
    one = type(a[0])(1)
    out = [one]
    for n in range(1, n_max + 1):
        acc = one - one
        for part in _int_partitions(n):
            term = one
            for j, m in part.items():
                term = term * a[j] ** m / math.factorial(m)
            acc += term
        out.append(acc)
    return out


def bell2_by_composition(n_max):
    """Exact composition oracle for the classical Bell numbers: one
    partition-sum exponential applied to e^r - 1."""
    coeffs = [Fraction(1, math.factorial(n)) for n in range(n_max + 1)]
    coeffs = faa_di_bruno_exp([Fraction(0)] + coeffs[1:])
    return [coeffs[n] * math.factorial(n) for n in range(n_max + 1)]


def bell_by_tower(order, n_max):
    """EGF composition oracle for Bell numbers of any order.

    Carries the unnormalized iterated exponential as a constant plus
    tail, exp_j(r) = c_j + T_j(r), using exp(c + T) = e^c exp(T), so
    exp_k(r)/exp_k(0) = exp(T_{k-1}) and b(n) = n! [r^n] exp(T_{k-1}).
    Partition-sum exponentials throughout; 45-digit decimals because
    c_2 = e, c_3 = e^e, ... are irrational.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 45
        c = Decimal(1)
        tail = [Decimal(0)] + [
            Decimal(1) / Decimal(math.factorial(n)) for n in range(1, n_max + 1)
        ]
        for _ in range(order - 2):
            c = c.exp()
            expt = faa_di_bruno_exp(tail)
            tail = [Decimal(0)] + [c * t for t in expt[1:]]
        coeffs = faa_di_bruno_exp(tail) if order >= 2 else [Decimal(1)] + tail[1:]
        return [
            float(coeffs[n] * math.factorial(n)) for n in range(n_max + 1)
        ]


def streamed_stored_sum(log_terms):
    """The stored-series rule streamed term by term: the certificate at
    index n is the largest stored ratio a_{m+1}/a_m over m >= n (a ratio
    out of a zero term is infinite, between zeros 0), the last gap's past
    the end of the stored terms."""
    ratios = []
    for a, b in zip(log_terms, log_terms[1:]):
        if a == LOG_ZERO:
            ratios.append(math.inf if b > LOG_ZERO else 0.0)
        else:
            ratios.append(math.exp(min(b - a, 700.0)))
    for m in range(len(ratios) - 2, -1, -1):
        ratios[m] = max(ratios[m], ratios[m + 1])

    def cert(n):
        if not ratios:
            return None
        q = ratios[min(n, len(ratios) - 1)]
        return q if q < 1.0 else None

    return log_sum_exp_series(iter(log_terms), tail_certificate=cert)


def manual_seq(log_alpha, family="manual", **params):
    return PositiveSequence(family, params, tuple(log_alpha))


# frozen oracle outputs (reproduced live by the oracles in the tests)
BELL2_THROUGH_12 = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]
# order 3: hand-derived closed forms in e (coefficients 1; 1,2; 1,6,5; 1,12,32,15)
E = math.e
BELL3_THROUGH_4 = [
    1.0,
    E,
    E**2 + 2 * E,
    E**3 + 6 * E**2 + 5 * E,
    E**4 + 12 * E**3 + 32 * E**2 + 15 * E,
]


# --------------------------------------------------------------------------
# generators


class TestGenerators:
    def test_power_factorial_exact_log(self):
        seq = gen_power_factorial(0.9, 20)
        oracle = 0.9 * math.log(math.factorial(20))  # exact integer, then log
        assert math.isclose(seq.log_alpha[20], oracle, rel_tol=1e-12)
        assert math.isclose(seq.log_alpha[20], 38.102054814678, rel_tol=1e-10)
        assert seq.log_alpha[0] == 0.0

    def test_log_factorials_are_one_lgamma_table(self):
        # one cached table serves every length, however far it has grown
        big = _log_factorials(300)
        assert big.tolist() == [math.lgamma(k + 1.0) for k in range(301)]
        assert _log_factorials(5).tolist() == big[:6].tolist()
        assert gen_power_factorial(0.5, 300).log_alpha[300] == 0.5 * math.lgamma(301.0)
        # a negative length reads no entry of the grown table
        assert _log_factorials(-3).size == 0
        with pytest.raises(ValueError):
            gen_power_factorial(0.5, -3)

    def test_power_factorial_domain(self):
        with pytest.raises(ValueError):
            gen_power_factorial(1.0, 10)
        with pytest.raises(ValueError):
            gen_power_factorial(-0.1, 10)

    def test_bell_order_1_is_all_ones(self):
        seq = gen_bell(1, 10)
        assert [int(v) for v in seq.exact] == [1] * 11
        assert all(x == 0.0 for x in seq.log_alpha)

    def test_bell_order_2_matches_set_partition_count(self):
        seq = gen_bell(2, 12)
        got = [int(v) for v in seq.exact]
        assert got == [count_set_partitions(n) for n in range(13)]
        assert got == BELL2_THROUGH_12

    def test_bell_order_2_matches_composition_oracle(self):
        seq = gen_bell(2, 25)
        assert list(seq.exact) == bell2_by_composition(25)

    def test_bell_orders_match_tower_oracle(self):
        for order in (1, 2, 3):
            seq = gen_bell(order, 25)
            oracle = bell_by_tower(order, 25)
            for n in range(26):
                assert math.isclose(
                    seq.log_alpha[n], math.log(oracle[n]), rel_tol=0, abs_tol=1e-11
                ), (order, n)

    def test_bell_order_3_small_values(self):
        seq = gen_bell(3, 4)
        got = [math.exp(x) for x in seq.log_alpha]
        for n in range(5):
            assert math.isclose(got[n], BELL3_THROUGH_4[n], rel_tol=1e-13)

    def test_bell_order_2_values_are_integers(self):
        seq = gen_bell(2, 60)
        assert all(v.denominator == 1 for v in seq.exact)
        assert math.isclose(
            seq.log_alpha[60],
            math.log(seq.exact[60].numerator),
            rel_tol=1e-13,
        )

    def test_bell_order_3_prefix_stable(self):
        # truncation order must not affect earlier coefficients
        assert gen_bell(3, 40).log_alpha[:26] == gen_bell(3, 25).log_alpha

    # the benchmark's Bell pool holds (3, 30) and (3, 40); orders 3 and 4
    # run to GEN_BELL_MAX_N without overflow (order 5's chain overflows)
    @pytest.mark.parametrize(
        "order, n_max", [(3, 30), (3, 40), (3, GEN_BELL_MAX_N), (4, GEN_BELL_MAX_N)]
    )
    def test_bell_logs_match_the_two_ln_form(self, order, n_max):
        # one 60-digit ln of b(n) = n! gamma_n gives the doubles that
        # ln gamma_n + ln n! gave, bit for bit
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            gamma = [Decimal(1) / Decimal(math.factorial(n)) for n in range(n_max + 1)]
            mult = Decimal(1)
            for _ in range(order - 1):
                gamma = _series_exp(mult, gamma)
                mult = mult.exp()
            want = tuple(
                float(gamma[n].ln() + Decimal(math.factorial(n)).ln())
                for n in range(n_max + 1)
            )
        assert gen_bell(order, n_max).log_alpha == want

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n_max", [0, 1, 2, 40, 200])
    def test_bell_orders_1_2_match_the_fraction_recurrence(self, order, n_max):
        # the exact-rational chain the integer Bell triangle replaced: the
        # EGF coefficients of e^r (order 1), then exp(e^r - 1) by the
        # derivative recurrence n b_n = sum_j j g_j b_{n-j} (order 2)
        coeffs = [Fraction(1, math.factorial(n)) for n in range(n_max + 1)]
        if order == 2:
            b = [Fraction(1)] + [Fraction(0)] * n_max
            for n in range(1, n_max + 1):
                b[n] = sum(j * coeffs[j] * b[n - j] for j in range(1, n + 1)) / n
            coeffs = b
        exact = tuple(c * math.factorial(n) for n, c in enumerate(coeffs))
        logs = tuple(math.log(v.numerator) - math.log(v.denominator) for v in exact)
        seq = gen_bell(order, n_max)
        assert seq.exact == exact
        assert all(type(v) is Fraction for v in seq.exact)
        assert seq.log_alpha == logs

    def test_bell_bounds(self):
        with pytest.raises(ValueError):
            gen_bell(0, 10)
        with pytest.raises(ValueError):
            gen_bell(2, 201)


# --------------------------------------------------------------------------
# generating functions


def egf_terms(seq, sign, log_r=0.0):
    """Logs of alpha(n)^sign r^n / n!, the terms of G_alpha (sign 1) or
    G_1/alpha (sign -1)."""
    return [sign * la - math.lgamma(n + 1.0) + n * log_r for n, la in enumerate(seq.log_alpha)]


class TestEgf:
    def test_alpha_variant_against_direct_sum(self):
        seq = gen_power_factorial(0.5, 200)
        direct = sum(
            math.exp(-0.5 * math.lgamma(n + 1)) for n in range(201)
        )  # sum (n!)^(beta-1) r^n at r=1
        got = sum_stored_series(egf_terms(seq, 1), rel_tol=1e-12)
        assert math.isclose(got.value.log, math.log(direct), rel_tol=0, abs_tol=1e-10)
        # sandwich band for this weight family at r=1
        assert math.exp(0.5) <= got.value.value <= math.sqrt(2.0) * math.e
        assert got.terms_used > 5

    def test_inverse_variant_against_direct_sum(self):
        seq = gen_power_factorial(0.5, 100)
        direct = sum(math.exp(-1.5 * math.lgamma(n + 1)) for n in range(101))
        got = sum_stored_series(egf_terms(seq, -1), rel_tol=1e-12)
        assert math.isclose(got.value.log, math.log(direct), abs_tol=1e-10)
        lo = 2 ** -0.5 * math.exp(1.5 * 2 ** (-1.0 / 3.0))
        hi = math.exp(1.5)
        assert lo <= got.value.value <= hi

    def test_insufficient_terms_raise(self):
        seq = gen_power_factorial(0.5, 15)
        with pytest.raises(NoDecayCertificate):
            sum_stored_series(egf_terms(seq, 1, math.log(1e3)))

    def test_stored_series_matches_brute_force(self):
        terms = [-0.5 * n * n + 2.0 * n for n in range(80)]
        m = max(terms)
        direct = m + math.log(sum(math.exp(t - m) for t in terms))
        got = sum_stored_series(terms, rel_tol=1e-11)
        assert math.isclose(got.value.log, direct, abs_tol=1e-9)
        assert got.terms_used < 80

    @given(
        st.lists(
            st.one_of(st.floats(min_value=-60.0, max_value=5.0), st.just(LOG_ZERO)),
            max_size=30,
        ),
        st.sampled_from([0.0, 0.5, 3.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_stored_series_matches_streamed_rule(self, logs, decay):
        terms = [v - decay * n * n for n, v in enumerate(logs)]
        try:
            want = streamed_stored_sum(terms)
        except NoDecayCertificate as exc:
            with pytest.raises(NoDecayCertificate, match=str(exc)):
                sum_stored_series(terms)
            return
        assert sum_stored_series(terms) == want


@st.composite
def stored_windows(draw):
    """Stored coefficient logs: 0-4096 terms, log-concave (sorted,
    falling gaps) or not, with up to three runs of zero coefficients."""
    n = draw(st.one_of(st.integers(0, 80), st.integers(0, 4096)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        gaps = np.sort(rng.normal(0.0, 2.0, n))[::-1]
        c = rng.normal(0.0, 5.0) + np.concatenate([[0.0], np.cumsum(gaps)[:-1]])[:n]
    else:
        c = rng.normal(0.0, 5.0, n)
    for at, length in draw(st.lists(
        st.tuples(st.integers(0, 4096), st.integers(1, 40)), max_size=3
    )):
        c[at : at + length] = LOG_ZERO
    return c


def radius_stopping_at(c, bounds, used, rel_tol):
    """A log r at which the one-pass kernel certifies after exactly
    ``used`` terms, found by bisection (more terms at larger r)."""
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        _, got, done = one_pass_batch(c, bounds, [mid], rel_tol)
        if done[0] and got[0] < used:
            lo = mid
        else:
            hi = mid
    return hi


class TestTiledSeriesKernel:
    """The library kernel walks each chunk of radii through the window
    in tiles, dropping rows as they certify; the one-pass kernel sums
    every stored term of every row at once.  Both take the same steps,
    so certified sums, terms used and certification flags agree bit for
    bit."""

    @staticmethod
    def assert_matches_one_pass(c, log_rs, rel_tol):
        bounds = stored_ratio_bounds(c)
        sums, used, done = sum_stored_series_batch(c, bounds, log_rs, rel_tol)
        want_sums, want_used, want_done = one_pass_batch(c, bounds, log_rs, rel_tol)
        assert np.array_equal(done, want_done)
        assert np.array_equal(used, want_used)
        assert np.array_equal(sums[done], want_sums[done], equal_nan=True)
        # a row that does not certify sums every stored term
        assert np.all(used[~done] == len(c))
        if len(c) and (~done).any():
            k = np.arange(len(c), dtype=float)
            with np.errstate(invalid="ignore"):
                full = np.logaddexp.accumulate(
                    c + k * np.asarray(log_rs)[~done, None], axis=1
                )[:, -1]
            assert np.array_equal(sums[~done], full, equal_nan=True)
        return used, done

    @given(
        stored_windows(),
        st.integers(1, 1500),
        st.integers(0, 2 ** 32 - 1),
        st.sampled_from([None, 1e-16, 1e-12, 1e-6, 0.5]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_one_pass_kernel(self, c, n_radii, seed, rel_tol):
        log_rs = np.random.default_rng(seed).uniform(-12.0, 6.0, n_radii)
        self.assert_matches_one_pass(c, log_rs, rel_tol)

    @pytest.mark.parametrize("rel_tol", [1e-16, 1e-12, 1e-6])
    def test_pinned_stopping_columns(self, rel_tol):
        # 1500 radii run in chunks of 520 (a first tile of 8 columns);
        # pinned rows certify at index 0, at the first tile's last
        # column, at the window's last index, and never
        c = -np.arange(65.0) ** 2
        bounds = stored_ratio_bounds(c)
        pins = [radius_stopping_at(c, bounds, used, rel_tol) for used in (1, 8, 65)]
        log_rs = np.linspace(-30.0, 180.0, 1500)
        log_rs[::7] = pins[0]
        log_rs[3::11] = pins[1]
        log_rs[5::13] = pins[2]
        log_rs[-1] = 200.0
        used, done = self.assert_matches_one_pass(c, log_rs, rel_tol)
        assert set(used[done].tolist()) >= {1, 8, 65}
        assert not done.all()

    def test_uncertified_row_sums_every_term(self):
        # rising terms never certify: the sum is that of all five terms
        c = np.array([0.0, 1.0, 2.5, 4.5, 7.0])
        sums, used, done = sum_stored_series_batch(c, stored_ratio_bounds(c), [0.0, 0.5])
        assert not done.any() and used.tolist() == [5, 5]
        for got, log_r in zip(sums, (0.0, 0.5)):
            want = math.log(sum(math.exp(ck + k * log_r) for k, ck in enumerate(c)))
            assert math.isclose(got, want, rel_tol=1e-14)
        assert round(float(sums[0]), 2) == 7.09

    def test_one_radius_of_a_long_window(self):
        c = -0.5 * np.arange(4096.0)
        self.assert_matches_one_pass(c, [0.25], 1e-12)
        self.assert_matches_one_pass(c, [0.75], 1e-12)


class TestWindowedSeries:
    """The one loop that doubles a stored window: each radius is summed
    on the first window that certifies it, and one that certifies on
    none comes back NaN."""

    @staticmethod
    def harmonic_windows():
        # sum r^n / (n + 1) = -log(1 - r) / r, radius 1
        reads = []

        def window(n):
            reads.append(n)
            c = -np.log(np.arange(1.0, n + 2.0))
            return c, stored_ratio_bounds(c)

        return window, reads

    def test_rows_move_to_doubled_windows_and_refuse_with_nan(self):
        window, reads = self.harmonic_windows()
        log_rs = np.array([-3.0, 0.0, -1.5])
        sums = sum_windowed_series(window, log_rs, 8, 64)
        assert reads == [8, 16, 32, 64]
        assert np.isnan(sums[1])
        for got, log_r in zip(sums[[0, 2]], log_rs[[0, 2]]):
            # certified to the default relative tolerance, 1e-9
            r = math.exp(log_r)
            assert abs(got - math.log(-math.log1p(-r) / r)) <= 2e-9
        # a certified row holds what the kernel gives on its window
        for n, row in ((8, 0), (16, 2)):
            c, bounds = window(n)
            want, _, done = sum_stored_series_batch(c, bounds, log_rs[[row]])
            assert done[0] and sums[row] == want[0]

    def test_nothing_certified_reads_to_the_cap(self):
        window, reads = self.harmonic_windows()
        sums = sum_windowed_series(window, np.array([0.0]), 8, 48)
        assert reads == [8, 16, 32, 48] and np.isnan(sums[0])

    def test_a_start_past_the_cap_reads_one_window(self):
        window, reads = self.harmonic_windows()
        sums = sum_windowed_series(window, np.array([0.0, -3.0]), 128, 64)
        assert reads == [128]
        assert np.isnan(sums[0]) and math.isfinite(sums[1])

    def test_no_radius_reads_no_window(self):
        window, reads = self.harmonic_windows()
        sums = sum_windowed_series(window, np.array([]), 8, 64)
        assert reads == [] and sums.size == 0


# --------------------------------------------------------------------------
# conditions


class TestConditionsOnStockFamilies:
    @pytest.mark.parametrize("order", [2, 3])
    def test_bell_passes_core_conditions(self, order):
        seq = gen_bell(order, 40)
        for cond in ("A1", "A2", "B2", "B2t", "B3", "C1", "C2", "C3"):
            verdict = check_condition(seq, cond)
            assert verdict.holds, (order, cond, verdict)

    def test_bell_constants(self):
        seq = gen_bell(2, 40)
        assert math.isclose(check_condition(seq, "A1").witness["sigma"], 1.0)
        assert math.isclose(check_condition(seq, "C1").witness["c1"], 1.0, abs_tol=1e-12)
        # log-convex with b(0)=1 makes the sequence supermultiplicative
        assert check_condition(seq, "C3").witness["c3"] <= 1.0 + 1e-12
        assert check_condition(seq, "C2").witness["c2"] <= 2.0 + 1e-12

    def test_power_factorial_conditions(self):
        seq = gen_power_factorial(0.5, 40)
        for cond in ("A1", "A2", "A2t", "B2", "B2t", "B3", "C1"):
            assert check_condition(seq, cond).holds, cond
        c2 = check_condition(seq, "C2").witness["c2"]
        assert c2 <= 2 ** 0.5 + 1e-12  # binomial^beta growth rate

    def test_constant_sequence(self):
        seq = gen_power_factorial(0.0, 30)
        v = check_condition(seq, "C3")
        assert v.holds and math.isclose(v.witness["c3"], 1.0, abs_tol=1e-12)

    def test_exact_checks_used_for_bell(self):
        seq = gen_bell(2, 40)
        assert check_condition(seq, "B2").witness.get("exact") is True
        assert check_condition(seq, "B3").witness.get("exact") is True


class TestConditionFailuresAndTrends:
    def test_log_concave_weights_fail_B3(self):
        seq = manual_seq([-(n * n) * 0.5 for n in range(20)])
        v = check_condition(seq, "B3")
        assert v.status == "fails-at-index"
        assert v.witness["index"] == 0

    def test_factorial_squared_fails_B2(self):
        lf = [math.lgamma(n + 1) for n in range(20)]
        seq = manual_seq([2.0 * lf[n] for n in range(20)])
        v = check_condition(seq, "B2")
        assert v.status == "fails-at-index"

    def test_decaying_weights_make_A1_inconclusive(self):
        seq = manual_seq([-math.lgamma(n + 1) for n in range(40)])
        assert check_condition(seq, "A1").status == "inconclusive"

    def test_fast_growth_makes_A2_inconclusive(self):
        seq = manual_seq([float(n * n) for n in range(40)])
        assert check_condition(seq, "A2").status == "inconclusive"

    @pytest.mark.parametrize("condition", ["B2", "B2t", "B3"])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("N", [0, 1])
    def test_no_second_difference_is_inconclusive(self, condition, exact, N):
        # fewer than three values hold no second difference: an empty
        # scan must not read as holds-up-to-N, on either path
        seq = gen_bell(2, 10) if exact else gen_power_factorial(0.5, 10)
        assert (seq.exact is not None) == exact
        v = check_condition(seq, condition, search_cap=N)
        assert (v.status, v.n_checked, v.detail) == ("inconclusive", N, "range too short")
        assert not v.holds

    @pytest.mark.parametrize("condition", ["B2", "B2t", "B3"])
    def test_three_values_are_checked(self, condition):
        v = check_condition(gen_power_factorial(0.5, 2), condition)
        assert v.status in ("holds-up-to-N", "fails-at-index")

    def test_alpha0_not_one_fails_A1(self):
        seq = manual_seq([math.log(2.0)] + [0.0] * 10)
        v = check_condition(seq, "A1")
        assert v.status == "fails-at-index" and v.witness["index"] == 0

    def test_unknown_condition(self):
        with pytest.raises(ValueError):
            check_condition(gen_bell(2, 5), "Z9")


class TestConditionImplications:
    """Structural implications between the conditions, checked on
    concrete families: log-convex weights give log-concave reciprocal
    EGF coefficients, and supermultiplicativity implies the comparison
    condition with a constant no larger."""

    @pytest.mark.parametrize(
        "seq",
        [gen_bell(2, 40), gen_bell(3, 40), gen_power_factorial(0.5, 40)],
        ids=["bell2", "bell3", "pf05"],
    )
    def test_B3_implies_B2t(self, seq):
        if check_condition(seq, "B3").holds:
            assert check_condition(seq, "B2t").holds

    @pytest.mark.parametrize(
        "seq",
        [gen_bell(2, 40), gen_bell(3, 40), gen_power_factorial(0.5, 40),
         manual_seq([n * math.log(2.0) for n in range(41)])],
        ids=["bell2", "bell3", "pf05", "geometric"],
    )
    def test_C3_implies_C1_when_weights_at_least_one(self, seq):
        assert min(seq.log_alpha) >= -1e-12
        v3 = check_condition(seq, "C3")
        v1 = check_condition(seq, "C1")
        if v3.holds:
            assert v1.holds
            assert v1.witness["c1"] <= max(1.0, v3.witness["c3"]) + 1e-9


# --------------------------------------------------------------------------
# equivalence


def _witness_is_valid(w, a, b, slack=1e-9):
    for n in range(min(a.n_max, b.n_max) + 1):
        la, lb = a.log_alpha[n], b.log_alpha[n]
        lo = math.log(w.K1) + n * math.log(w.c1) + la
        hi = math.log(w.K2) + n * math.log(w.c2) + la
        if not (lo <= lb + slack and lb <= hi + slack):
            return False
    return True


class TestSeqEquivalent:
    def test_identical_sequences(self):
        a = gen_bell(2, 30)
        w = seq_equivalent(a, a)
        assert isinstance(w, SequenceEquivalenceWitness)
        assert (w.K1, w.c1, w.K2, w.c2) == (1.0, 1.0, 1.0, 1.0)

    def test_scaled_dilated(self):
        a = gen_power_factorial(0.5, 40)
        b = manual_seq(
            [math.log(2.0) + n * math.log(3.0) + a.log_alpha[n] for n in range(41)]
        )
        w = seq_equivalent(a, b)
        assert w.ok and _witness_is_valid(w, a, b)
        assert 2.9 <= w.c1 <= w.c2 <= 3.2
        assert w.K2 <= 2.0 + 1e-9

    def test_stirling_pair(self):
        # a(n) = (n/e)^n vs b(n) = n!; the classical envelope is
        # (n/e)^n <= n! <= e sqrt(2)^n (n/e)^n, i.e. constants
        # (K1, c1) = (1, 1) and (K2, c2) = (e, sqrt 2)
        n_max = 40
        a = manual_seq([n * (math.log(n) - 1.0) if n else 0.0 for n in range(n_max + 1)])
        b = manual_seq([math.lgamma(n + 1) for n in range(n_max + 1)])
        for n in range(n_max + 1):
            d = b.log_alpha[n] - a.log_alpha[n]
            assert -1e-12 <= d <= 1.0 + 0.5 * n * math.log(2.0) + 1e-12
        # the fitted witness must be valid and at least as tight in the
        # growth rates, though it may trade a larger K2 for a smaller c2
        w = seq_equivalent(a, b)
        assert w.ok and _witness_is_valid(w, a, b)
        assert 1.0 - 1e-9 <= w.c1 and w.c2 <= math.sqrt(2.0) + 1e-9
        assert w.K1 >= 1.0 - 1e-9 and w.K2 <= 4.0

    def test_factorial_vs_constant_rejected(self):
        a = manual_seq([0.0] * 41)
        b = manual_seq([math.lgamma(n + 1) for n in range(41)])
        got = seq_equivalent(a, b)
        assert isinstance(got, EquivalenceCounterexample)
        assert not got.ok
        # and in the other direction too
        assert isinstance(seq_equivalent(b, a), EquivalenceCounterexample)

    @given(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0),
            min_size=9,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_reflexive_on_random_sequences(self, logs):
        seq = manual_seq(logs)
        w = seq_equivalent(seq, seq)
        assert w.ok
        assert (w.K1, w.c1, w.K2, w.c2) == (1.0, 1.0, 1.0, 1.0)


# --------------------------------------------------------------------------
# serialization


class TestSeqJson:
    def test_roundtrip(self, tmp_path):
        seq = gen_bell(2, 12)
        path = tmp_path / "bell2.json"
        seq.save(str(path))
        back = PositiveSequence.load(str(path))
        assert back.family == "bell-order-k"
        assert back.params == {"k": 2}
        assert back.log_alpha == seq.log_alpha

    def test_schema_field(self, tmp_path):
        seq = gen_power_factorial(0.25, 8)
        path = tmp_path / "pf.json"
        seq.save(str(path))
        data = json.loads(path.read_text())
        assert data["schema"] == "growthcalc.seq/1"
        assert data["N"] == 8
        assert len(data["log_alpha"]) == 9

    def test_reject_wrong_schema(self):
        with pytest.raises(ValueError):
            PositiveSequence.from_json_dict({"schema": "other/1", "N": 0, "log_alpha": [0.0]})

    def test_reject_bad_length(self):
        with pytest.raises(ValueError):
            PositiveSequence.from_json_dict(
                {"schema": "growthcalc.seq/1", "family": "x", "params": {}, "N": 3, "log_alpha": [0.0]}
            )
