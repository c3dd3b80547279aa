"""Growth-function evaluation, convexity classification, memberships.

The classifier oracle is analytic: for u(r) = exp[a r^(1/a)] the
composed views have closed-form second derivatives, so each verdict is
checked against the sign the calculus predicts, and every fails-at
triple is re-verified by hand at the reported point.
"""

import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcalc.numerics import (
    DEFAULT_REL_TOL,
    LOG_ZERO,
    RANGE_CAP,
    NoDecayCertificate,
    PreconditionViolated,
)
from growthcalc.growthfn import (
    GrowthFunction,
    ProbeSpec,
    UnreadParameter,
    bump_example,
    check_increasing,
    classify_convexity,
    exponential,
    from_phi,
    from_series,
    gaussian,
    iterated_exp,
    ks_family,
    load_registry,
    log_square_example,
    make_growth_function,
    membership,
    polynomial,
    power_exp,
    registered_examples,
)


def midpoint_gap(f, s1, s2, lam):
    """Recompute the midpoint-convexity residual at a reported triple."""
    fm = f(lam * s1 + (1 - lam) * s2)
    return fm - (lam * f(s1) + (1 - lam) * f(s2))


class TestEvalLog:
    def test_exponential_at_one(self):
        assert math.isclose(exponential().phi_at(0.0), 1.0)

    def test_power_exp_closed_form(self):
        # u = exp[2 sqrt r]: phi(log 9) = 2*sqrt(9) = 6
        u = ks_family(1.0)
        assert math.isclose(u.phi_at(math.log(9.0)), 6.0, rel_tol=1e-12)

    def test_iterated_exp_at_one(self):
        assert math.isclose(iterated_exp(2).phi_at(0.0), math.e, rel_tol=1e-12)

    def test_iterated_exp_one_is_exponential(self):
        u1, ue = iterated_exp(1), exponential()
        for x in (-3.0, 0.0, 2.5):
            assert math.isclose(u1.phi_at(x), ue.phi_at(x), rel_tol=1e-15)

    def test_overflow_saturates(self):
        assert iterated_exp(3).phi_at(5.0) == math.inf

    def test_overflow_saturates_at_the_double_range_edge(self):
        # exp overflows from log(DBL_MAX) ~ 709.78 on, below the old 710 guard
        u = iterated_exp(2)
        assert u.phi_at(math.log(709.9)) == math.inf
        assert u.phi_at(math.log(709.78)) == pytest.approx(math.exp(709.78), rel=1e-12)

    def test_log_value_at_zero(self):
        assert exponential().log_value(LOG_ZERO) == 0.0
        assert math.isclose(iterated_exp(2).log_value(LOG_ZERO), 1.0)
        with pytest.raises(PreconditionViolated):
            log_square_example().log_value(LOG_ZERO)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            exponential().log_at(-1.0)

    def test_scaled(self):
        u = ks_family(0.5)
        v = u.scaled(c=3.0, a=2.0)
        for x in (-1.0, 0.0, 4.0):
            want = math.log(3.0) + u.phi_at(x + math.log(2.0))
            assert math.isclose(v.phi_at(x), want, rel_tol=1e-14)
        assert math.isclose(v.log_u0, math.log(3.0))
        with pytest.raises(ValueError):
            u.scaled(c=-1.0)

    def test_series_backed_eval(self):
        # truncated e^r: 40 terms is plenty at r <= 5
        lc = [-math.lgamma(n + 1) for n in range(40)]
        u = from_series(lc, name="trunc-exp")
        for r in (0.5, 1.0, 5.0):
            assert math.isclose(u.log_at(r), r, rel_tol=1e-9)
        assert u.log_u0 == 0.0

    def test_series_backed_needs_decay(self):
        lc = [-math.lgamma(n + 1) for n in range(10)]
        u = from_series(lc)
        with pytest.raises(NoDecayCertificate):
            u.phi_at(math.log(50.0))

    def test_series_rejects_empty_and_zero(self):
        with pytest.raises(ValueError):
            from_series([])
        with pytest.raises(ValueError):
            from_series([LOG_ZERO, LOG_ZERO])

    def test_constructor_domains(self):
        with pytest.raises(ValueError):
            power_exp(0.0)
        with pytest.raises(ValueError):
            ks_family(-1.0)
        with pytest.raises(ValueError):
            iterated_exp(0)
        with pytest.raises(ValueError):
            polynomial(0.0)


# every constructor that sets the vectorised evaluator, scaled() included
VECTORISED = [
    exponential(),
    ks_family(0.5),
    ks_family(1.0),
    ks_family(-0.5),
    power_exp(3.0),
    gaussian(),
    iterated_exp(1),
    iterated_exp(2),
    iterated_exp(3),
    bump_example(),
    polynomial(5.0),
    log_square_example(),
    ks_family(0.5).scaled(c=3.0, a=2.0),
]


def _edges(u):
    """Points on and next to where each family's phi switches branch or
    saturates to +inf."""
    lfm = math.log(sys.float_info.max)
    marks = [0.0, 50.0, 175.0, 700.0, u.x_max, lfm, math.log(lfm), math.log(math.log(lfm))]
    marks += [a * 700.0 for a in (0.5, 1.0, 3.0)]  # power-exp's cap at x / a = 700
    out = []
    for m in marks:
        out += [m, np.nextafter(m, -np.inf), np.nextafter(m, np.inf)]
    return np.array(out)


class TestPhiMany:
    @pytest.mark.parametrize("u", VECTORISED, ids=lambda u: u.name)
    def test_matches_phi_at(self, u):
        rng = np.random.default_rng(0)
        xs = np.concatenate(
            [np.linspace(-800.0, 800.0, 16001), rng.uniform(-700.0, 700.0, 20000),
             np.linspace(-5.0, 5.0, 4001), _edges(u)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = u.phi_many(xs)
        want = np.array([u.phi_at(x) for x in xs])
        assert np.array_equal(got == math.inf, want == math.inf)
        assert not np.isnan(got).any() and not np.isnan(want).any()
        fin = np.isfinite(want)
        ulps = np.abs(got[fin] - want[fin]) / np.spacing(np.abs(want[fin]))
        if u.family == "bump":
            # phi = e^2x - e^3x + e^4x cancels, so phi_at itself is only
            # exact to the ulp of its largest term: count in that unit
            x = xs[fin]
            big = np.maximum(np.exp(2 * x), np.exp(4 * x))
            ulps = np.abs(got[fin] - want[fin]) / np.spacing(big)
        assert ulps.max() <= 2.0

    def test_fallback_is_a_phi_at_loop(self):
        u = from_phi(lambda x: x * x + 1.0, name="sq")
        assert u.phi_vec is None
        xs = np.array([[-2.0, 0.5], [3.0, 7.0]])
        assert np.array_equal(u.phi_many(xs), [[5.0, 1.25], [10.0, 50.0]])
        assert from_series([0.0, -1.0, -5.0]).phi_vec is None
        assert u.scaled(c=2.0).phi_vec is None

    def test_scaled_composes(self):
        u = exponential().scaled(c=2.0, a=3.0)
        xs = np.linspace(-10.0, 10.0, 41)
        want = math.log(2.0) + exponential().phi_many(xs + math.log(3.0))
        assert np.array_equal(u.phi_many(xs), want)

    def test_log_many_matches_log_at(self):
        rs = np.array([0.0, 1e-300, 0.3, 1.0, 17.0, 1e300])
        for u in (exponential(), ks_family(0.5), from_phi(lambda x: 2.0 * x, "lin", log_u0=-1.0)):
            want = [u.log_at(float(r)) for r in rs]
            np.testing.assert_allclose(u.log_many(rs), want, rtol=4.5e-16, atol=0.0)
        with pytest.raises(ValueError):
            exponential().log_many([1.0, -1.0])
        with pytest.raises(PreconditionViolated):
            log_square_example().log_many([0.0, 1.0])


class TestClassifier:
    def test_exponential_is_log_convex(self):
        assert classify_convexity(exponential(), "log-convex").passes

    def test_bump_is_log_exp_convex(self):
        assert classify_convexity(bump_example(), "log-exp-convex").passes

    def test_flat_power_fails_log_convex(self):
        # log u = 1.5 r^(2/3): second derivative 1.5*(2/3)*(-1/3) r^(-4/3) < 0
        u = ks_family(0.5)
        a = 1.5
        for r in (0.1, 1.0, 10.0):
            d2 = a * (1 / a) * ((1 / a) - 1) * r ** (1 / a - 2)
            assert d2 < 0
        v = classify_convexity(u, "log-convex")
        assert v.status == "fails-at"
        s1, s2, lam = v.fail_point
        gap = midpoint_gap(lambda s: u.log_at(s), s1, s2, lam)
        assert gap > 0  # the reported triple reproduces the violation

    def test_flat_power_is_log_exp_convex(self):
        assert classify_convexity(ks_family(0.5), "log-exp-convex").passes

    def test_xk_views_of_flat_power(self):
        # log u(x^k) = 1.5 x^(2k/3): convex iff 2k/3 >= 1
        u = ks_family(0.5)
        assert classify_convexity(u, "log-xk-convex", k=1).status == "fails-at"
        assert classify_convexity(u, "log-xk-convex", k=2).passes
        assert classify_convexity(u, "log-xk-convex", k=4).passes

    def test_steep_power_fails_x2_view(self):
        # a = 3: log u(x^2) = 3 x^(2/3), concave
        v = classify_convexity(power_exp(3.0), "log-xk-convex", k=2)
        assert v.status == "fails-at"
        assert classify_convexity(power_exp(3.0), "log-exp-convex").passes

    def test_log_square_is_log_exp_convex(self):
        assert classify_convexity(log_square_example(), "log-exp-convex").passes

    def test_iterated_exp_3_within_window(self):
        assert classify_convexity(iterated_exp(3), "log-exp-convex").passes
        assert classify_convexity(iterated_exp(3), "log-convex").passes

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            classify_convexity(exponential(), "convex-ish")

    def test_too_few_finite_triples(self):
        u = from_phi(
            lambda x: x * x if abs(x) < 1e-3 else math.inf,
            name="needle",
        )
        with pytest.raises(PreconditionViolated):
            classify_convexity(u, "log-exp-convex")

    def test_refused_evaluations_are_skipped(self):
        # the tail of this series certifies only below r ~ e^2, so the
        # top of the probe refuses; the verdict rests on the rest
        u = from_series([0.0, -38.0, -40.0])
        probe = ProbeSpec(lo=1e-4, hi=10.0, points=64)
        v = classify_convexity(u, "log-exp-convex", probe=probe)
        assert v.passes
        assert v.checked_triples == 249

    def test_mostly_refused_probe_raises(self):
        # logs [3, -30, 3] under -10 n^2 decay certify only below
        # r = e^-3, which leaves 84 triples of the probe
        lc = [v - 10.0 * n * n for n, v in enumerate([3.0, -30.0, 3.0])]
        probe = ProbeSpec(lo=1e-4, hi=10.0, points=64)
        with pytest.raises(PreconditionViolated, match="only 84 finite triples"):
            classify_convexity(from_series(lc), "log-exp-convex", probe=probe)

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            ProbeSpec(lo=1.0, hi=0.5)
        with pytest.raises(ValueError):
            ProbeSpec(points=4)

    def test_deterministic_given_seed(self):
        a = classify_convexity(gaussian(), "log-convex", probe=ProbeSpec(seed=7))
        b = classify_convexity(gaussian(), "log-convex", probe=ProbeSpec(seed=7))
        assert (a.status, a.checked_triples, a.margin) == (b.status, b.checked_triples, b.margin)


class TestImplicationChain:
    """log-convex => (log,x^k)-convex for k >= 1 => (log,exp)-convex,
    asserted as verdict implications on the registered families."""

    @pytest.mark.parametrize("u", registered_examples(), ids=lambda u: u.name)
    def test_chain(self, u):
        if not u.increasing:
            pytest.skip("chain asserted for increasing members")
        if classify_convexity(u, "log-convex").passes:
            for k in (1, 2, 4):
                assert classify_convexity(u, "log-xk-convex", k=k).passes, (u.name, k)
        if any(classify_convexity(u, "log-xk-convex", k=k).passes for k in (1, 2, 4)):
            assert classify_convexity(u, "log-exp-convex").passes, u.name

    @pytest.mark.parametrize("u", registered_examples(), ids=lambda u: u.name)
    def test_log_exp_convex_and_defined_at_zero_increasing(self, u):
        if u.defined_at_zero and classify_convexity(u, "log-exp-convex").passes:
            assert check_increasing(u).holds, u.name

    @given(
        st.lists(
            st.floats(min_value=-30.0, max_value=3.0),
            min_size=3,
            max_size=25,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_series_backed_always_log_exp_convex(self, logs):
        # superimpose fast decay, and cap the probe where the last stored
        # ratio q = r c_N / c_(N-1), which bounds the unstored tail, still
        # certifies it at index N: q <= 1/2 and 2 q t_N <= tol t_0, i.e.
        # r^(N+1) <= (tol / 2) c_0 c_(N-1) / c_N^2, so the tail
        # certifies on the whole probe
        lc = [v - 10.0 * n * n for n, v in enumerate(logs)]
        u = from_series(lc, name="random-series")
        n = len(lc) - 1
        log_hi = min(
            math.log(10.0),
            math.log(0.5) + lc[-2] - lc[-1],
            (math.log(0.5 * DEFAULT_REL_TOL) + lc[0] + lc[-2] - 2.0 * lc[-1]) / (n + 1),
        )
        probe = ProbeSpec(lo=1e-4, hi=math.exp(log_hi), points=64)
        assert classify_convexity(u, "log-exp-convex", probe=probe).passes

    def test_series_with_zero_coefficient(self):
        u = from_series([0.0, LOG_ZERO, -1.0, -20.0], name="gappy")
        direct = 1.0 + math.exp(-1.0) * 4.0 + math.exp(-20.0) * 8.0
        assert math.isclose(u.log_at(2.0), math.log(direct), rel_tol=1e-9)
        probe = ProbeSpec(lo=1e-4, hi=5.0, points=64)
        assert classify_convexity(u, "log-exp-convex", probe=probe).passes


class TestIncreasing:
    def test_exponential(self):
        assert check_increasing(exponential()).holds

    def test_iterated(self):
        assert check_increasing(iterated_exp(2)).holds

    def test_log_square_fails(self):
        v = check_increasing(log_square_example())
        assert v.status == "fails-at"
        # the recorded drop is re-checkable: u really decreases there
        u = log_square_example()
        r = v.witness["r"]
        assert u.log_at(r) < u.log_at(v.witness["prev_r"] or r / 2)


def loop_classify(u, kind, k=2, probe=None):
    """classify_convexity as a per-triple loop that reads every point
    through a one-point phi_many call (NaN where phi refuses)."""
    probe = probe or ProbeSpec()
    to_x = {"log-convex": np.log, "log-exp-convex": lambda s: s,
            "log-xk-convex": lambda y: k * np.log(y)}[kind]

    def f(s):
        return float(u.phi_many(to_x(np.array([s])))[0])

    if kind != "log-exp-convex":
        root = k if kind == "log-xk-convex" else 1
        lo, hi = probe.lo ** (1.0 / root), probe.hi ** (1.0 / root)
        hi = min(hi, math.exp(min(u.x_max, RANGE_CAP) / root))
        grid = np.exp(np.linspace(math.log(lo), math.log(hi), probe.points))
    else:
        lo = max(math.log(probe.lo), -RANGE_CAP)
        hi = min(math.log(probe.hi), u.x_max)
        grid = np.linspace(lo, hi, probe.points)
    rng = np.random.default_rng(probe.seed)
    triples = [(grid[i], grid[i + 2], 0.5) for i in range(len(grid) - 2)]
    quarter = len(grid) // 4
    for i in range(0, len(grid) - quarter, quarter // 2 or 1):
        triples.append((grid[i], grid[i + quarter], 0.5))
    n_random = max(200, probe.points // 2)
    idx = rng.integers(0, len(grid), size=(n_random, 2))
    lams = rng.uniform(0.05, 0.95, size=n_random)
    for (i, j), lam in zip(idx, lams):
        if grid[i] != grid[j]:
            triples.append((min(grid[i], grid[j]), max(grid[i], grid[j]), float(lam)))
    checked, worst = 0, 0.0
    for s1, s2, lam in triples:
        sm = lam * s1 + (1.0 - lam) * s2
        f1, f2, fm = f(s1), f(s2), f(sm)
        if not (math.isfinite(f1) and math.isfinite(f2) and math.isfinite(fm)):
            continue
        checked += 1
        scale = max(1.0, abs(f1), abs(f2), abs(fm))
        gap = fm - (lam * f1 + (1.0 - lam) * f2)
        worst = max(worst, gap / scale)
        if gap > 1e-8 * scale:
            return ("fails-at", checked, gap / scale, (float(s1), float(s2), float(lam)))
    if checked < 200:
        return ("too-few", checked)
    return ("passes-on-grid", checked, worst, None)


def loop_increasing(u):
    """check_increasing as a per-point loop through one-point phi_many
    calls; a NaN is read again through phi_at, which raises a refusal."""
    probe = ProbeSpec()
    xs = np.linspace(max(math.log(probe.lo), -RANGE_CAP), min(math.log(probe.hi), u.x_max),
                     probe.points)
    prev_x, prev_v = (LOG_ZERO, u.log_u0) if u.log_u0 is not None else (None, None)
    for x in xs:
        v = float(u.phi_many(np.array([x]))[0])
        if math.isnan(v):
            u.phi_at(float(x))
        if not math.isfinite(v):
            break
        if prev_v is not None and v < prev_v - 1e-9 * max(1.0, abs(prev_v)):
            return ("fails-at", {"r": math.exp(float(x)), "drop": prev_v - v,
                                 "prev_r": 0.0 if prev_x == LOG_ZERO else math.exp(prev_x)})
        prev_x, prev_v = float(x), v
    return ("increasing", {"checked": probe.points})


def verdict_tuple(v):
    if v.status == "fails-at":
        return (v.status, v.checked_triples, v.margin, v.fail_point)
    return (v.status, v.checked_triples, v.margin, None)


def refusing(vectorised, drop=False):
    """e^r up to r = e^3, refusing (NoDecayCertificate) past it; with
    ``drop``, phi falls by 1 past x = 1 first."""

    def phi(x):
        if x > 3.0:
            raise NoDecayCertificate(f"no certified decay at log r = {x:.6g}")
        return math.exp(x) - (1.0 if drop and x > 1.0 else 0.0)

    def phi_vec(xs):
        return np.where(xs > 3.0, math.nan, np.exp(xs) - np.where(drop & (xs > 1.0), 1.0, 0.0))

    return GrowthFunction(phi=phi, phi_vec=phi_vec if vectorised else None,
                          name=f"refusing[{vectorised},{drop}]", log_u0=0.0)


def unflagged(u):
    """u behind a plain phi: no phi_vec, so phi_many is a phi_at loop."""
    return from_phi(u.phi, name=f"plain[{u.name}]", log_u0=u.log_u0, x_max=u.x_max)


BENCHMARK_FAMILIES = [
    exponential(), ks_family(0.0), ks_family(0.25), ks_family(0.5), ks_family(1.0),
    power_exp(3.0), gaussian(), iterated_exp(2), bump_example(),
]
PROBED = (
    registered_examples() + BENCHMARK_FAMILIES
    + [log_square_example(), unflagged(power_exp(3.0)), unflagged(polynomial(5.0)),
       refusing(True), refusing(False), refusing(True, drop=True), refusing(False, drop=True)]
)


class TestProbeBlocks:
    """classify_convexity and check_increasing read their points in
    phi_many blocks and reduce them in numpy; a per-point loop over the
    same evaluator gives the same verdicts bit for bit."""

    @pytest.mark.parametrize("u", PROBED, ids=lambda u: u.name)
    @pytest.mark.parametrize("kind, k", [("log-convex", 2), ("log-exp-convex", 2),
                                         ("log-xk-convex", 2), ("log-xk-convex", 4)])
    def test_classify_matches_the_loop(self, u, kind, k):
        want = loop_classify(u, kind, k)
        if want[0] == "too-few":
            with pytest.raises(PreconditionViolated, match=f"only {want[1]} finite triples"):
                classify_convexity(u, kind, k=k)
            return
        assert verdict_tuple(classify_convexity(u, kind, k=k)) == want

    @pytest.mark.parametrize(
        "base, kind, points",
        [(exponential(), "log-exp-convex", 64), (ks_family(1.0), "log-xk-convex", 512)],
        ids=["exp", "ks1"],
    )
    def test_classify_a_dual_matches_the_loop(self, base, kind, points):
        from growthcalc.legendre import dual_function

        # the dual of ks(1) escapes to +inf for r > 1: those triples are skipped
        u = dual_function(base)
        assert u.phi_vec is not None
        probe = ProbeSpec(points=points)
        want = loop_classify(u, kind, probe=probe)
        assert verdict_tuple(classify_convexity(u, kind, probe=probe)) == want

    @pytest.mark.parametrize("u", PROBED, ids=lambda u: u.name)
    def test_increasing_matches_the_loop(self, u):
        try:
            want = loop_increasing(u)
        except NoDecayCertificate as exc:
            with pytest.raises(NoDecayCertificate, match=re.escape(str(exc))):
                check_increasing(u)
            return
        got = check_increasing(u)
        assert (got.status, got.witness) == want

    def test_a_scalar_phi_reads_each_point_once(self):
        # without a phi_vec the 771 triples of log-exp-convex share 968
        # distinct points; each block reading its own took 2,313 phi calls
        calls = []
        base = power_exp(0.5)
        u = from_phi(lambda x: calls.append(x) or base.phi(x), name="counted", log_u0=0.0)
        got = verdict_tuple(classify_convexity(u, "log-exp-convex"))
        assert len(calls) == len(set(calls)) == 968
        assert got == loop_classify(u, "log-exp-convex")

    def test_fails_at_reads_at_most_one_block(self):
        from growthcalc.growthfn import _PROBE_BLOCK

        calls = []
        base = power_exp(3.0)
        u = from_phi(lambda x: calls.append(x) or base.phi(x), name="counted", log_u0=0.0)
        v = classify_convexity(u, "log-xk-convex", k=2)
        assert v.status == "fails-at" and v.checked_triples == 1
        assert 3 <= len(calls) <= _PROBE_BLOCK
        assert verdict_tuple(v) == verdict_tuple(classify_convexity(base, "log-xk-convex", k=2))


class TestMembership:
    def test_exponential_in_c_plus_log(self):
        assert membership(exponential(), "c-plus-log").holds

    def test_exponential_in_c_plus_half(self):
        assert membership(exponential(), "c-plus-j", j=0.5).holds

    def test_polynomial_fails_c_plus_log(self):
        v = membership(polynomial(5.0), "c-plus-log")
        assert v.status == "fails"
        assert math.isclose(v.witness["ratio"], 5.0, rel_tol=1e-3)

    def test_flat_power_in_c_plus_half(self):
        assert membership(ks_family(0.5), "c-plus-j", j=0.5).holds

    def test_double_exp_in_c_plus_log(self):
        assert membership(iterated_exp(2), "c-plus-log").holds

    def test_sqrt_growth_not_in_c_plus_half(self):
        # u = exp[2 sqrt r]: log u / r^(1/2) = 2, a flat line
        v = membership(ks_family(1.0), "c-plus-j", j=0.5)
        assert v.status == "fails"
        assert math.isclose(v.witness["ratio"], 2.0, rel_tol=1e-9)

    def test_slow_growth_is_inconclusive(self):
        # phi = x^2 - 2x: phi / x = x - 2 still rises at r = 1e6, below the
        # threshold, so the probe shows neither growth past it nor a plateau
        v = membership(log_square_example(), "c-plus-log")
        assert v.status == "inconclusive"
        assert math.isclose(v.witness["ratio"], 11.815510557964274, rel_tol=1e-12)

    def test_overflow_on_the_probe_holds(self):
        # u = +inf past r = e^5: the probe stops at the first infinite ratio
        v = membership(from_phi(lambda x: math.inf if x > 5.0 else x * x, name="blowup"),
                       "c-plus-log")
        assert v.status == "holds-up-to-range" and v.witness["ratio"] == math.inf
        assert 5.0 < math.log(v.witness["r_hi"]) < 5.2

    def test_bad_class(self):
        with pytest.raises(ValueError):
            membership(exponential(), "c-minus")
        with pytest.raises(ValueError):
            membership(exponential(), "c-plus-j", j=0.0)


class TestRegistry:
    def test_make_by_family(self):
        assert make_growth_function("ks", {"beta": 0.5}).params["beta"] == 0.5
        assert make_growth_function("expk", {"k": 3}).params["k"] == 3
        assert make_growth_function("exp").name == "exp"
        with pytest.raises(ValueError):
            make_growth_function("mystery")

    @pytest.mark.parametrize("family, missing", [
        ("power-exp", "'a'"), ("series", "'file' or 'log_coeffs'"),
    ])
    def test_a_missing_parameter_is_named(self, family, missing):
        with pytest.raises(ValueError, match=f"needs the parameter {missing}$"):
            make_growth_function(family, {})

    @pytest.mark.parametrize("family, params, key", [
        ("exp", {"beta": 3.0}, "beta"), ("ks", {"beta": 0.5, "k": 2}, "k"),
        ("polynomial", {"a": 1.0}, "a"),
    ])
    def test_a_parameter_the_family_does_not_read_is_refused(self, family, params, key):
        with pytest.raises(UnreadParameter, match=f"^family '{family}' reads no parameter '{key}'$"):
            make_growth_function(family, params)

    def test_json_registry(self, tmp_path):
        cfg = {
            "mine": {"family": "ks", "params": {"beta": 0.25}},
            "double": {"family": "expk", "params": {"k": 2}},
        }
        path = tmp_path / "reg.json"
        path.write_text(json.dumps(cfg))
        reg = load_registry(str(path))
        assert set(reg) == {"mine", "double"}
        assert math.isclose(reg["mine"].phi_at(0.0), 1.25)

    def test_toml_registry(self, tmp_path):
        path = tmp_path / "reg.toml"
        path.write_text('[mine]\nfamily = "gaussian"\n')
        if sys.version_info >= (3, 11):
            assert load_registry(str(path))["mine"].family == "gaussian"
        else:
            with pytest.raises(ValueError):
                load_registry(str(path))

    def test_series_family_from_file(self, tmp_path):
        from growthcalc.sequences import gen_power_factorial

        seq = gen_power_factorial(0.5, 30)
        p = tmp_path / "seq.json"
        seq.save(str(p))
        u = make_growth_function("series", {"file": str(p)})
        # u(r) = sum sqrt(n!) r^n at small r; certified to the default
        # tolerance, so compare one order looser
        direct = sum(math.exp(0.5 * math.lgamma(n + 1)) * 0.1 ** n for n in range(31))
        assert math.isclose(u.log_at(0.1), math.log(direct), rel_tol=1e-8)

    def test_series_family_from_inline_coefficients(self):
        # the coefficients of e^r, 40 of them: log u(0.1) = 0.1 to the
        # default tolerance
        logs = [-math.lgamma(n + 1.0) for n in range(40)]
        u = make_growth_function("series", {"log_coeffs": logs, "name": "exp-series"})
        assert u.name == "exp-series" and u.family == "series"
        assert math.isclose(u.log_at(0.1), 0.1, rel_tol=1e-8)

    def test_registry_has_enough_families(self):
        fams = {u.family for u in registered_examples()}
        assert len(fams) >= 6
