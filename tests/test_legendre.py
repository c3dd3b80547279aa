"""Tests for the transform calculus: ell, tau, theta, series, duals."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growthcalc as gc
from growthcalc import legendre
from growthcalc.growthfn import (
    GrowthFunction,
    bump_example,
    exponential,
    from_phi,
    from_series,
    gaussian,
    iterated_exp,
    ks_family,
    log_square_example,
    make_growth_function,
    power_exp,
)
from growthcalc.numerics import (
    DEFAULT_REL_TOL,
    LOG_ZERO,
    LogScalar,
    NoDecayCertificate,
    NotBracketable,
    PreconditionViolated,
)
from growthcalc.sequences import (
    _log_factorials,
    gen_bell,
    stored_ratio_bounds,
    sum_stored_series,
    sum_stored_series_batch,
)
import search_reference


def power_exp_log_ell(a, t):
    """Closed form for the transform of exp(a r^(1/a)): a t (1 - log t)."""
    if t == 0.0:
        return 0.0
    return a * t * (1.0 - math.log(t))


def dense_log_ell(u, t, x_lo=-40.0, x_hi=40.0, n=400001):
    """Independent oracle: minimize log u(e^x) - t x on a dense grid."""
    xs = np.linspace(x_lo, x_hi, n)
    vals = np.array([u.phi_at(float(x)) - t * float(x) for x in xs])
    return float(np.min(vals[np.isfinite(vals)]))


def kink_function():
    # u(r) = max(r, r^2): slope 1 below r = 1, slope 2 above
    return from_phi(lambda x: max(x, 2.0 * x), name="kink", increasing=True)


class TestTransformClosedForms:
    def test_pinned_value_steepest_family(self):
        p = gc.ell(ks_family(1.0), 3.0)
        assert math.isclose(p.log_ell.log, 6.0 - 6.0 * math.log(3.0), rel_tol=1e-10)
        assert math.isclose(p.log_ell.value, 0.553400265422133, rel_tol=1e-10)
        assert math.isclose(p.rho, 9.0, rel_tol=1e-6)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0])
    def test_beta_family(self, beta):
        u = ks_family(beta)
        a = 1.0 + beta
        for t in [0.0, 0.5, 1.0, 2.0, 3.7, 10.0, 25.0]:
            want = power_exp_log_ell(a, t)
            got = gc.ell(u, t).log_ell.log
            assert abs(got - want) <= 1e-7 * max(1.0, abs(want))

    def test_exponential_values(self):
        u = exponential()
        for t in range(1, 7):
            assert math.isclose(
                gc.ell(u, float(t)).log_ell.value, (math.e / t) ** t, rel_tol=1e-9
            )

    def test_gaussian_values(self):
        u = gaussian()
        for t in [1.0, 2.0, 4.5, 8.0]:
            want = 0.5 * t - 0.5 * t * math.log(0.5 * t)
            assert math.isclose(gc.ell(u, t).log_ell.log, want, rel_tol=1e-9)

    def test_matches_dense_grid(self):
        cases = [(exponential(), 2.3), (ks_family(0.5), 7.7), (gaussian(), 3.1)]
        for u, t in cases:
            want = dense_log_ell(u, t)
            got = gc.ell(u, t).log_ell.log
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
            assert got <= want + 1e-12  # the oracle is an upper envelope

    def test_minimizer_attains_infimum(self):
        for u, t in [(exponential(), 4.2), (ks_family(0.5), 2.0), (gaussian(), 6.0)]:
            p = gc.ell(u, t)
            attained = u.log_at(p.rho) - t * math.log(p.rho)
            assert abs(attained - p.log_ell.log) <= 1e-8 * max(1.0, abs(attained))

    def test_minimizer_monotone_in_order(self):
        rhos = [gc.ell(exponential(), float(n)).rho for n in range(31)]
        assert all(b >= a - 1e-9 for a, b in zip(rhos, rhos[1:]))

    def test_order_zero_is_value_at_zero(self):
        p = gc.ell(exponential(), 0.0)
        assert p.log_ell.value == pytest.approx(1.0, abs=1e-12)
        assert p.rho == 0.0
        assert p.boundary == "lo"

    @given(
        c=st.floats(0.2, 5.0),
        log_a=st.floats(-2.3, 2.3),
        t=st.floats(0.0, 40.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_scaling_law(self, c, log_a, t):
        # the transform of c*u(a r) is c * a^t * ell_u(t)
        a = math.exp(log_a)
        v = exponential().scaled(c, a)
        want = math.log(c) + t * log_a + power_exp_log_ell(1.0, t)
        got = gc.ell(v, t).log_ell.log
        assert abs(got - want) <= 1e-7 * max(1.0, abs(want))

    def test_monotone_in_function(self):
        # u <= v pointwise forces ell_u <= ell_v
        u = exponential()
        v = from_phi(
            lambda x: math.exp(x) + math.exp(2.0 * x),
            name="exp-times-gaussian",
            log_u0=0.0,
            increasing=True,
            log_exp_convex=True,
        )
        for t in [0.0, 1.0, 2.5, 6.0, 12.0]:
            assert gc.ell(u, t).log_ell.log <= gc.ell(v, t).log_ell.log + 1e-9


def loop_candidates(vals):
    """The scan's candidate rule index by index, as a per-point loop."""
    finite = np.isfinite(vals)
    last = len(vals) - 1
    out = []
    for i in np.flatnonzero(finite):
        left_up = i == 0 or not finite[i - 1] or vals[i] <= vals[i - 1]
        right_up = i == last or not finite[i + 1] or vals[i] <= vals[i + 1]
        if not (left_up and right_up):
            continue
        if 0 < i < last and finite[i - 1] and finite[i + 1] and vals[i - 1] == vals[i] == vals[i + 1]:
            continue
        out.append(int(i))
    return out


# scan samples drawn from few levels so that ties and plateaus are common
scan_samples = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, -1.0, math.nan, math.inf, -math.inf]),
        st.floats(min_value=-3.0, max_value=3.0),
    ),
    min_size=1,
    max_size=40,
)


class TestTransformEdges:
    def test_nowhere_finite_phi_is_a_precondition(self):
        # no convexity hint: the scan finds no finite sample at all
        u = from_phi(lambda x: math.inf, name="infinite")
        with pytest.raises(PreconditionViolated, match="no finite values on the scan range"):
            legendre.ell(u, 1.5)

    def test_interior_minimum_past_a_step_to_the_cap(self):
        # x^2 - (2 + t) x has its minimizer (2 + t)/2 inside the range up to
        # t = 1398, where it sits on the cap: the doubling steps jump from
        # x = 511 onto the cap past it, and a probe just inside brackets it
        u = log_square_example()
        for t in (1300.5, 1397.5):
            got = legendre.ell(u, t)
            want = -((t + 2.0) ** 2) / 4.0
            assert got.boundary is None
            assert abs(got.log_ell.log - want) <= 1e-13 * abs(want), t
            # curvature 2 fixes the minimizer to about the root of an ulp
            x_tol = 4.0 * math.sqrt(np.spacing(abs(want)))
            assert abs(math.log(got.rho) - (t + 2.0) / 2.0) <= x_tol, t
        with pytest.raises(NotBracketable, match=r"x=\+700"):
            legendre.ell(u, 1398.5)

    def test_scan_refines_only_plateau_edges(self, monkeypatch):
        # exp[r^2]'s phi saturates at e^700 from x = 350 on, so phi - t x is
        # flat over half the scan grid; no plateau point inside is refined
        calls = []
        polish = legendre._brent_min
        monkeypatch.setattr(
            legendre, "_brent_min", lambda *a, **k: calls.append(a[1:]) or polish(*a, **k)
        )
        u = gaussian()
        scan = from_phi(u.phi, name="scan", log_u0=u.log_u0, x_max=u.x_max)
        got = legendre.ell(scan, 2.5)
        assert len(calls) <= 4
        # one ulp below 0x1.f1302919fafd5p-1, the value of the golden polish
        # and of the hinted bracket path ell(gaussian(), 2.5)
        assert got.log_ell.log == float.fromhex("0x1.f1302919fafd4p-1")

    @given(scan_samples)
    @settings(max_examples=300, deadline=None)
    def test_scan_candidates_match_the_loop(self, vals):
        vals = np.array(vals)
        assert legendre._scan_candidates(vals).tolist() == loop_candidates(vals)

    def test_scan_candidates_at_both_ends_and_plateaus(self):
        vals = np.array([0.0, 1.0, 2.0, 2.0, 2.0, 1.0, math.nan, 3.0, 3.0, -math.inf, 1.0, 0.5])
        assert legendre._scan_candidates(vals).tolist() == loop_candidates(vals) == [0, 5, 7, 8, 11]

    def test_scan_raises_the_refusal_phi_vec_reads_as_nan(self):
        # the L-series' phi_vec gives NaN where phi refuses; without a
        # convexity hint ell scans it and must raise the first refusal
        # on the grid, not skip it as a non-finite sample
        base = gc.l_growth_function(exponential())
        u = GrowthFunction(phi=base.phi, phi_vec=base.phi_vec, name=base.name,
                           log_u0=base.log_u0)
        first = None
        for x in np.linspace(-legendre.RANGE_CAP, legendre.RANGE_CAP, legendre._SCAN_POINTS):
            try:
                u.phi_at(float(x))
            except NoDecayCertificate as exc:
                first = str(exc)
                break
        assert first is not None
        with pytest.raises(NoDecayCertificate) as got:
            gc.ell(u, 2.0)
        assert str(got.value) == first

    def test_scan_without_phi_vec_stops_at_the_first_refusal(self):
        # a wrapper with no phi_vec is read in grid order, and the scan
        # raises phi's refusal at the first refused point, reading no
        # point past it (L# of ks(1) refuses from grid index 2048 on)
        base = gc.l_sharp_growth_function(ks_family(1.0))
        read = []

        def phi(x):
            read.append(x)
            return base.phi(x)

        w = from_phi(phi, name="counted", log_u0=base.log_u0, x_max=base.x_max)
        with pytest.raises(NoDecayCertificate) as got:
            gc.ell(w, 2.0)
        grid = np.linspace(-legendre.RANGE_CAP, min(w.x_max, legendre.RANGE_CAP),
                           legendre._SCAN_POINTS)
        assert read == grid[: len(read)].tolist() and len(read) == 2049
        with pytest.raises(NoDecayCertificate) as first:
            base.phi_at(read[-1])
        assert str(got.value) == str(first.value)

    @pytest.mark.parametrize("t", [10.5, 20.5])
    def test_series_order_between_integers_answers(self, t):
        # the cold bracket search from x = 0 probes x = 7, where the
        # L-series refuses; the retry starts at rho(floor(t)) instead
        u = gc.l_growth_function(exponential())
        got = gc.ell(u, t)
        below, above = gc.ell(u, math.floor(t)), gc.ell(u, math.ceil(t))
        assert above.log_ell.log < got.log_ell.log < below.log_ell.log
        assert below.rho < got.rho < above.rho
        x = math.log(got.rho)
        for dx in (-1e-3, 1e-3):
            assert u.phi_at(x + dx) - t * (x + dx) >= got.log_ell.log

    def test_series_order_retry_keeps_the_first_refusal(self):
        # phi refuses past x = 1, so the minimizer of every order above e
        # is out of reach: the retry fails too and the first refusal is
        # the one raised
        def phi(x):
            if x > 1.0:
                raise NoDecayCertificate(f"refused at {x:.17g}")
            return math.exp(x)

        u = from_phi(phi, name="cut", log_u0=1.0, increasing=True, log_exp_convex=True)
        with pytest.raises(NoDecayCertificate) as first:
            legendre._ell_at(u, 10.5)
        with pytest.raises(NoDecayCertificate) as got:
            gc.ell(u, 10.5)
        assert str(got.value) == str(first.value)

    def test_unflagged_series_order_is_not_retried(self, monkeypatch):
        # a wrapper that is not flagged (log, exp)-convex gets no retry from
        # rho(floor(t)): the cold search's refusal is raised as it is
        w = from_phi(gc.l_sharp_growth_function(ks_family(1.0)).phi, name="w")
        real, searched = legendre._ell_at, []

        def counted(u, t, seed_x=0.0):
            if u is w:
                searched.append((t, seed_x))
            return real(u, t, seed_x)

        monkeypatch.setattr(legendre, "_ell_at", counted)
        with pytest.raises(NoDecayCertificate, match="within 512 terms$"):
            gc.ell(w, 2.5)
        assert searched == [(2.5, 0.0)]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            gc.ell(exponential(), -0.5)

    def test_flagged_outside_class_refused(self):
        with pytest.raises(PreconditionViolated):
            gc.ell(make_growth_function("polynomial", {"p": 5.0}), 2.0)

    def test_slow_growth_escapes(self):
        # log u(r) ~ 5 log r: the infimum for t > 5 runs off to r = inf
        slow = from_phi(
            lambda x: 5.0 * math.log1p(math.exp(min(x, 700.0))),
            name="slow",
            log_u0=0.0,
            increasing=True,
            log_exp_convex=True,
        )
        want = 5.0 * math.log(5.0 / 3.0) + 2.0 * math.log(1.5)
        assert math.isclose(gc.ell(slow, 2.0).log_ell.log, want, rel_tol=1e-9)
        with pytest.raises(NotBracketable):
            gc.ell(slow, 6.0)

    def test_scan_path_kink(self):
        # no convexity hint: the grid scan must find the corner minimum
        u = kink_function()
        p = gc.ell(u, 1.5)
        assert abs(p.log_ell.log) <= 1e-9
        assert math.isclose(p.rho, 1.0, rel_tol=1e-6)
        with pytest.raises(NotBracketable):
            gc.ell(u, 0.5)  # u(0) = 0, so small orders drain to zero

    def test_scan_still_descending_at_the_right_cap_refuses(self):
        with pytest.raises(NotBracketable, match="descending at the right range cap"):
            gc.ell(from_phi(lambda x: -x, name="falling"), 0.0)

    def test_scan_flat_at_the_right_edge_is_a_hi_boundary(self):
        # e^-x flattens out at zero: the infimum is approached at r = inf
        p = gc.ell(from_phi(lambda x: math.exp(-x), name="decaying"), 0.0)
        assert p.boundary == "hi"
        assert 0.0 <= p.log_ell.log <= 1e-12

    def test_scan_edge_where_phi_stops_being_finite(self):
        # phi = -x up to x = 10 and +inf past it: at t = 0.5 the minimum
        # is the attained edge x = 10, where phi - t x = -15
        p = gc.ell(from_phi(lambda x: -x if x < 10.0 else math.inf, name="walled"), 0.5)
        assert p.boundary == "hi"
        assert abs(p.log_ell.log + 15.0) <= 1e-12 * 15.0

    def test_scan_path_matches_hinted_path(self):
        hinted = bump_example()
        unhinted = from_phi(hinted.phi_at, name="bump-unhinted")
        for t in [1.0, 2.5, 3.5]:
            a = gc.ell(hinted, t).log_ell.log
            b = gc.ell(unhinted, t).log_ell.log
            c = dense_log_ell(hinted, t)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))
            assert abs(a - c) <= 1e-6 * max(1.0, abs(a))


class TestTauBounds:
    def test_smooth_points_collapse(self):
        tb = gc.tau_bounds(exponential(), 5.0)
        assert tb.tau_minus == pytest.approx(5.0, abs=1e-6)
        assert tb.tau_plus == pytest.approx(5.0, abs=1e-6)
        tb = gc.tau_bounds(gaussian(), 2.0)
        assert tb.tau_minus == pytest.approx(8.0, abs=1e-6)
        assert tb.tau_plus == pytest.approx(8.0, abs=1e-6)

    def test_corner_splits(self):
        tb = gc.tau_bounds(kink_function(), 1.0)
        assert tb.tau_minus == pytest.approx(1.0, abs=1e-5)
        assert tb.tau_plus == pytest.approx(2.0, abs=1e-5)

    def test_interval_contains_attaining_orders(self):
        # if the infimum at order t is attained at rho, then t lies in
        # the slope interval at rho
        u = ks_family(0.5)
        for t in [1.0, 2.5, 7.0]:
            rho = gc.ell(u, t).rho
            tb = gc.tau_bounds(u, rho)
            assert tb.tau_minus - 1e-5 <= t <= tb.tau_plus + 1e-5

    def test_corner_interval_prices_the_transform(self):
        # between the one-sided slopes the infimum sits at the corner
        u = kink_function()
        for t in [1.1, 1.5, 1.9]:
            p = gc.ell(u, t)
            assert abs(p.log_ell.log) <= 1e-9
            assert math.isclose(p.rho, 1.0, rel_tol=1e-5)

    def test_flagged_nonconvex_refused(self):
        u = from_phi(lambda x: x * x - 2.0 * x, name="sq", log_exp_convex=False)
        with pytest.raises(PreconditionViolated):
            gc.tau_bounds(u, 1.0)


def log_concavity_violation(log_f):
    """Largest scaled amount by which a unit-spaced log f dips below a
    chord; nonpositive curvature keeps this at roundoff level."""
    worst = 0.0
    for f0, f1, f2 in zip(log_f, log_f[1:], log_f[2:]):
        scale = max(1.0, abs(f0), abs(f1), abs(f2))
        worst = max(worst, (0.5 * (f0 + f2) - f1) / scale)
    return worst


class TestLegendreProfile:
    def test_matches_pointwise(self):
        # the cached integer profile, warm-started and built in blocks,
        # against cold point searches
        u = ks_family(0.5)
        prof = legendre._integer_profile(u, 40)
        for t in [0, 1, 2, 3, 7, 12, 25, 40]:
            lv, rho = prof.log_ell[t], prof.rho[t]
            p = legendre._ell_at(u, float(t))
            assert abs(lv - p.log_ell.log) <= 1e-9 * max(1.0, abs(lv))
            assert abs(rho - p.rho) <= 1e-6 * max(1.0, rho)
        assert prof.boundary[0] == "lo"

    @pytest.mark.parametrize(
        "u",
        [exponential(), ks_family(0.25), ks_family(0.5), ks_family(1.0), gaussian(), iterated_exp(2)],
        ids=lambda u: u.name,
    )
    def test_log_concave_and_decaying(self, u):
        log_ell = legendre._integer_profile(u, 40).log_ell[:41].tolist()
        assert log_concavity_violation(log_ell) <= 1e-8
        # (1/t) log ell is nonincreasing over the tail half of the orders
        roots = [v / t for t, v in enumerate(log_ell) if t > 0]
        tail = roots[len(roots) // 2 :]
        assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))


def _scalar_walk(u, n_max):
    """The point-by-point integer profile: one warm-started _ell_at per
    order.  Returns the points and the refusal that ended the walk."""
    pts = []
    try:
        for n in range(n_max + 1):
            seed = legendre._warm_seed(pts[-1].rho if pts else 0.0)
            pts.append(legendre._ell_at(u, float(n), seed))
    except (NotBracketable, PreconditionViolated) as exc:
        return pts, exc
    return pts, None


def _count_calls(monkeypatch, *names, orders=False):
    """Wrap the named legendre functions to count their calls, or, with
    ``orders``, to record the order (second argument) of each."""
    seen = {name: [] if orders else 0 for name in names}
    for name in names:
        real = getattr(legendre, name)

        def counted(*args, _real=real, _name=name):
            if orders:
                seen[_name].append(args[1])
            else:
                seen[_name] += 1
            return _real(*args)

        monkeypatch.setattr(legendre, name, counted)
    return seen


def _count_samples(monkeypatch):
    """Count, per function name, the phi_many calls on a whole phi
    sample grid (_SCAN_POINTS points from -RANGE_CAP)."""
    seen = {}
    real = GrowthFunction.phi_many

    def counted(self, xs):
        xs = np.asarray(xs, dtype=float)
        if xs.shape == (legendre._SCAN_POINTS,) and xs[0] == -legendre.RANGE_CAP:
            seen[self.name] = seen.get(self.name, 0) + 1
        return real(self, xs)

    monkeypatch.setattr(GrowthFunction, "phi_many", counted)
    return seen


# fresh instances of every family with a vectorised phi (the profile is
# cached per instance)
BLOCK_FAMILIES = [
    ("exp", exponential),
    ("ks0.5", lambda: ks_family(0.5)),
    ("ks1", lambda: ks_family(1.0)),
    ("ks-0.5", lambda: ks_family(-0.5)),
    ("power-exp3", lambda: power_exp(3.0)),
    ("gaussian", gaussian),
    ("expk2", lambda: iterated_exp(2)),
    ("expk3", lambda: iterated_exp(3)),
    ("bump", bump_example),
    ("scaled", lambda: ks_family(0.5).scaled(c=3.0, a=2.0)),
]


def _assert_same_profile(got, want, rho_rel=1e-6):
    assert len(got) == len(want)
    for n, (p, q) in enumerate(zip(got, want)):
        a, b = p.log_ell.log, q.log_ell.log
        assert abs(a - b) <= 1e-13 * max(1.0, abs(b)), n
        assert abs(p.rho - q.rho) <= rho_rel * q.rho, n
        assert p.boundary == q.boundary, n


class TestProfileBlock:
    """The integer profile built in vectorised blocks against the
    point-by-point walk it replaces."""

    @pytest.mark.parametrize("make", [m for _, m in BLOCK_FAMILIES],
                             ids=[k for k, _ in BLOCK_FAMILIES])
    def test_matches_scalar_walk(self, make):
        u = make()
        want, exc = _scalar_walk(make(), 1024)
        assert exc is None
        _assert_same_profile(legendre._integer_profile(u, 1024), want)

    @pytest.mark.parametrize("make", [m for _, m in BLOCK_FAMILIES],
                             ids=[k for k, _ in BLOCK_FAMILIES])
    def test_every_order_certified(self, make):
        # the block, not the scalar fallback, built these profiles
        log_ell, rho = legendre._profile_block(make(), np.arange(1.0, 1025.0))
        assert not np.isnan(log_ell).any() and not np.isnan(rho).any()

    def test_grown_in_blocks_equals_grown_at_once(self):
        u, v = ks_family(0.5), ks_family(0.5)
        for n in (0, 1, 2, 9, 64, 65, 300, 1024):
            legendre._integer_profile(u, n)
        _assert_same_profile(
            legendre._integer_profile(u, 1024), legendre._integer_profile(v, 1024)
        )

    def test_log_square_past_its_range(self):
        # x^2 - (2 + t) x has its minimizer (2 + t)/2 past the range cap
        # from t = 1398 on: both paths refuse there, alike
        u = log_square_example()
        with pytest.raises(NotBracketable) as got:
            legendre._integer_profile(u, 2000)
        want, exc = _scalar_walk(log_square_example(), 2000)
        assert str(got.value) == str(exc)
        cached = legendre._PROFILE_CACHE[u]
        assert len(cached) == len(want) == 1398
        # the minimum of x^2 - (2 + t) x has curvature 2 while its value
        # grows as t^2 / 4, so its minimizer is fixed only to about the
        # square root of the value's ulp
        for p, q in zip(cached, want):
            assert abs(p.log_ell.log - q.log_ell.log) <= 1e-13 * max(1.0, abs(q.log_ell.log))
            x_tol = 4.0 * math.sqrt(np.spacing(abs(q.log_ell.log)))
            assert abs(math.log(p.rho) - math.log(q.rho)) <= max(1e-6, x_tol)
            assert p.boundary == q.boundary

    def test_mid_cell_ties_are_certified(self):
        # x^2 - (2 + t) x has its minimizer (2 + t)/2 mid-cell at t = 398,
        # 798, 878, 1038 and 1198, where g at the inner sample ties its
        # neighbour to roundoff: the block keeps them, within the derived
        # 8 delta of the point search
        u = log_square_example()
        log_ell, _ = legendre._profile_block(u, np.arange(65.0, 4097.0))
        assert not np.isnan(log_ell[: 1398 - 65]).any() and np.isnan(log_ell[1398 - 65 :]).all()
        for t in (398, 798, 878, 1038, 1198):
            want = legendre._ell_at(u, float(t)).log_ell.log
            delta = legendre._FLAT_ULPS * max(1.0, abs(want))
            assert abs(log_ell[t - 65] - want) <= 8.0 * delta, t

    def test_orders_a_block_leaves_cost_no_second_block(self, monkeypatch):
        # the block certifies no order of the dual of ks(1), whose phi jumps
        # to +inf: each order goes through _ell_at, after the one block
        w = gc.dual_function(ks_family(1.0))
        calls = []

        def counted(name):
            real = getattr(legendre, name)

            def call(u, *args):
                if u is w:  # not the base function's own searches
                    calls.append(name)
                return real(u, *args)

            return call

        for name in ("_profile_block", "_ell_at"):
            monkeypatch.setattr(legendre, name, counted(name))
        legendre._integer_profile(w, 60)
        assert calls.count("_profile_block") == 1 and calls.count("_ell_at") == 61

    def test_outside_the_class_refused_alike(self):
        u = make_growth_function("polynomial", {"p": 5.0})
        with pytest.raises(PreconditionViolated) as got:
            legendre._integer_profile(u, 100)
        _, exc = _scalar_walk(make_growth_function("polynomial", {"p": 5.0}), 100)
        assert str(got.value) == str(exc)
        assert len(legendre._PROFILE_CACHE[u]) == 0

    def test_series_growth_function_in_one_block(self, monkeypatch):
        # an L-series carries a phi_vec, so orders 1..40 of its profile
        # come from one block (the base function's profile grows too)
        blocks, block = [], legendre._profile_block
        monkeypatch.setattr(
            legendre, "_profile_block", lambda u, ts: blocks.append((u, len(ts))) or block(u, ts)
        )
        w = gc.l_growth_function(exponential())
        gc.ell(w, 40.0)
        assert [n for u, n in blocks if u is w] == [40]
        # against the warm-started point searches of the walk
        want, exc = _scalar_walk(gc.l_growth_function(exponential()), 40)
        assert exc is None
        for t, q in enumerate(want):
            got = gc.ell(w, float(t)).log_ell.log
            assert abs(got - q.log_ell.log) <= 1e-12 * abs(q.log_ell.log), t


class TestInverseTransform:
    def test_closed_form_maximum(self):
        # sup_t a^t / t^(2t) = exp(2 sqrt(a) / e)
        f = gc.LogConcaveProfile(
            log_f=lambda t: -2.0 * t * math.log(t) if t > 0 else 0.0,
            t0=1.0,
            name="t^-2t",
        )
        for a in [1.0, math.e ** 2, 10.0]:
            want = 2.0 * math.sqrt(a) / math.e
            got = gc.inverse_legendre(f, a).log
            assert abs(got - want) <= 1e-9 * max(1.0, want)
        ts = np.linspace(1e-9, 50.0, 2000001)
        oracle = float(np.max(ts * math.log(7.3) - 2.0 * ts * np.log(ts)))
        assert abs(gc.inverse_legendre(f, 7.3).log - oracle) <= 1e-9

    def test_zero_and_small_argument_clamp_to_head(self):
        f = gc.LogConcaveProfile(log_f=lambda t: math.log(5.0) - 3.0 * t, t0=0.0)
        assert gc.inverse_legendre(f, 0.0).value == pytest.approx(5.0)
        assert gc.inverse_legendre(f, 1e-12).value == pytest.approx(5.0, rel=1e-9)

    def test_escape_when_decay_too_slow(self):
        # f^(1/t) -> e^-2 > 0: the supremum blows up once log r > 2
        f = gc.LogConcaveProfile(log_f=lambda t: -2.0 * t, t0=0.0)
        with pytest.raises(NotBracketable):
            gc.inverse_legendre(f, math.exp(3.0))

    @pytest.mark.parametrize(
        "u,r_lo,r_hi",
        [
            (exponential(), 1e-3, 1e3),
            (ks_family(0.25), 1e-3, 1e3),
            (ks_family(0.5), 1e-3, 1e3),
            (gaussian(), 1e-3, 1e3),
            (iterated_exp(2), 0.1, 5.0),
        ],
        ids=lambda v: v.name if hasattr(v, "name") else str(v),
    )
    def test_round_trip_recovers_function(self, u, r_lo, r_hi):
        f = gc.ell_profile(u)
        for r in list(np.geomspace(r_lo, r_hi, 13)) + [0.0]:
            got = gc.inverse_legendre(f, float(r)).log
            want = u.log_at(float(r))
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    def test_round_trip_recovers_profile(self):
        f = gc.ell_profile(ks_family(0.5))
        th = gc.theta_function(f)
        for t in [0.5, 1.0, 2.0, 5.0, 9.5]:
            want = f.log_f(t)
            got = gc.ell(th, t).log_ell.log
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    def test_round_trip_synthetic_profile(self):
        f = gc.LogConcaveProfile(
            log_f=lambda t: -2.0 * t * math.log(t) if t > 0 else 0.0,
            t0=1.0,
            name="t^-2t",
        )
        th = gc.theta_function(f)
        got = gc.ell(th, 3.0).log_ell.log
        assert math.isclose(got, -6.0 * math.log(3.0), rel_tol=1e-9)


class TestAdmissibility:
    def test_transform_profiles_admissible(self):
        for u in [exponential(), ks_family(0.5), gaussian()]:
            rep = gc.admissibility_report(gc.ell_profile(u))
            assert rep["decays"] and rep["decreasing_beyond_t0"] and rep["log_concave"]

    def test_asserted_t0_is_echoed(self):
        f = gc.LogConcaveProfile(lambda t: -2.0 * t * math.log(t) if t > 0 else 0.0, 3, "t^-2t")
        rep = gc.admissibility_report(f)
        assert rep["t0"] == 3 and type(rep["t0"]) is int
        assert gc.ell_profile(exponential()).t0 is None  # not asserted

    def test_constant_root_rejected(self):
        f = gc.LogConcaveProfile(log_f=lambda t: -2.0 * t, t0=0.0, name="flat-root")
        rep = gc.admissibility_report(f)
        assert not rep["decays"]
        assert rep["log_concave"]
        with pytest.raises(PreconditionViolated):
            gc.theta_function(f)

    def test_wiggly_profile_rejected(self):
        f = gc.LogConcaveProfile(
            log_f=lambda t: -2.0 * t * math.log(t) + 0.5 * math.sin(3.0 * t)
            if t > 0
            else 0.0,
            t0=2.0,
            name="wiggle",
        )
        rep = gc.admissibility_report(f)
        assert not rep["log_concave"]
        with pytest.raises(PreconditionViolated):
            gc.theta_function(f)


class TestSeries:
    def test_value_at_zero_is_head_coefficient(self):
        assert gc.l_function(exponential(), LOG_ZERO).value == pytest.approx(1.0)
        assert gc.l_sharp(exponential(), LOG_ZERO).value == pytest.approx(1.0)

    @pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
    def test_matches_direct_sum(self, r):
        u = exponential()
        ns = np.arange(1, 400)
        terms = np.concatenate(([0.0], ns * (1.0 - np.log(ns)) + ns * math.log(r)))
        oracle = float(np.log(np.sum(np.exp(terms - np.max(terms)))) + np.max(terms))
        got = gc.l_function(u, math.log(r)).log
        assert abs(got - oracle) <= 1e-8 * max(1.0, abs(oracle))

    def test_a_scalar_phi_reads_doubling_windows(self):
        # the same exp without phi_vec: no blocks and no cap gap, so the
        # profile grows by point searches one doubled window at a time
        u = exponential()
        w = from_phi(u.phi, name="scalar-exp", log_u0=0.0, log_exp_convex=True)
        for r, orders in ((0.5, 65), (4.0, 65), (20.0, 65), (60.0, 129)):
            got, want = gc.l_function(w, math.log(r)).log, gc.l_function(u, math.log(r)).log
            assert abs(got - want) <= 1e-14 * abs(want), r
            assert len(legendre._PROFILE_CACHE[w]) == orders, r

    def test_sharp_matches_direct_sum(self):
        r = 0.8
        ns = np.arange(1, 200)
        lg = np.array([math.lgamma(n + 1.0) for n in ns])
        terms = np.concatenate(([0.0], ns * (np.log(ns) - 1.0) - 2.0 * lg + ns * math.log(r)))
        oracle = float(np.log(np.sum(np.exp(terms - np.max(terms)))) + np.max(terms))
        got = gc.l_sharp(exponential(), math.log(r)).log
        assert abs(got - oracle) <= 1e-8

    def test_beta_sandwich_at_unit_argument(self):
        # sum r^n / n!^(1+beta) brackets the L-series within explicit
        # constants; checked at beta = 1/2, r = 1
        beta = 0.5
        u = ks_family(beta)
        ns = np.arange(1, 200)
        lg = np.array([math.lgamma(n + 1.0) for n in ns])
        g_at = lambda lr: float(
            np.log1p(np.sum(np.exp(-(1.0 + beta) * lg + ns * lr)))
        )
        lower = g_at(0.0)
        upper = (1.0 + beta) + g_at(0.5 * (1.0 + beta) * math.log(2.0))
        got = gc.l_function(u, 0.0).log
        assert lower - 1e-9 <= got <= upper + 1e-9

    def test_wrapper_consistency(self):
        u = exponential()
        w = gc.l_growth_function(u)
        assert abs(w.log_at(2.0) - gc.l_function(u, math.log(2.0)).log) <= 1e-12
        assert w.log_u0 == gc.ell(u, 0.0).log_ell.log
        ws = gc.l_sharp_growth_function(u)
        assert abs(ws.log_at(0.8) - gc.l_sharp(u, math.log(0.8)).log) <= 1e-12

    def test_sharp_coefficient_band_steepest_family(self):
        # for the beta = 1 family the sharp coefficients sit between
        # 2^-n e^-2 and 1, exactly in logs
        u = ks_family(1.0)
        for n in range(201):
            closed = 2.0 * n * (math.log(n) - 1.0) - 2.0 * math.lgamma(n + 1.0) if n else 0.0
            assert closed <= 1e-12
            assert closed >= -(2.0 + n * math.log(2.0)) - 1e-12
            via_ell = -gc.ell(u, float(n)).log_ell.log - 2.0 * math.lgamma(n + 1.0)
            assert abs(via_ell - closed) <= 1e-7 * max(1.0, abs(closed))

    def test_growth_function_keeps_its_cap_after_a_wider_call(self):
        # l_function certifies log r = 7 within 4096 terms, past the growth
        # function's 512-term cap; the growth function must still refuse
        # there, with the same message
        u = exponential()
        w = gc.l_growth_function(u)
        with pytest.raises(NoDecayCertificate) as before:
            w.phi_at(7.0)
        gc.l_function(u, 7.0)
        with pytest.raises(NoDecayCertificate) as after:
            w.phi_at(7.0)
        assert str(after.value) == str(before.value)
        assert "within 512 terms" in str(before.value)

    def test_sharp_series_radius_boundary(self):
        # those coefficients decay like 1/n: radius 1, certified failure
        # at and beyond it
        u = ks_family(1.0)
        with pytest.raises(NoDecayCertificate):
            gc.l_sharp(u, 0.0)
        with pytest.raises(NoDecayCertificate):
            gc.l_sharp(u, math.log(2.0))

    def test_sharp_series_inside_radius(self):
        u = ks_family(1.0)
        ns = np.arange(1, 400)
        lg = np.array([math.lgamma(n + 1.0) for n in ns])
        log_coeff = 2.0 * ns * (np.log(ns) - 1.0) - 2.0 * lg
        for r in [0.1, 0.25, 0.45]:
            oracle = float(np.log1p(np.sum(np.exp(log_coeff + ns * math.log(r)))))
            got = gc.l_sharp(u, math.log(r)).log
            assert abs(got - oracle) <= 1e-8


def stored_sum(u, log_r, tag, n, doubling=True):
    """The per-radius reference: sum_stored_series on the terms
    c_k + k log r of the stored window of n + 1 profile coefficients,
    doubled up to 4096 until it certifies (without ``doubling``, the
    next window is the 4097 terms a function built in blocks reads).
    Returns the sum, the terms it used and the window; the head
    coefficient at r = 0."""
    while True:
        logs = [gc.ell(u, float(k)).log_ell.log for k in range(n + 1)]
        if tag == "sharp":
            logs = [-le - 2.0 * math.lgamma(k + 1.0) for k, le in enumerate(logs)]
        if log_r == LOG_ZERO:
            return logs[0], 1, n
        try:
            got = sum_stored_series([c + k * log_r for k, c in enumerate(logs)])
            return got.value.log, got.terms_used, n
        except NoDecayCertificate:
            if n >= 4096:
                raise
            n = min(2 * n, 4096) if doubling else 4096


def assert_same_sum(got, used, want, want_used):
    """The kernel certifies with the coefficient ratio bound plus log r,
    the reference with the ratio bound of the terms c_k + k log r.  The
    two are the same bound rounded differently (by about 1e-12 at large
    |k log r|), so the sums are equal exactly when both stop at the same
    index; on a near tie where they stop at different indices both are
    still certified to rel_tol of the full sum."""
    if used == want_used:
        assert got == want
    else:
        assert abs(got - want) <= 2.0 * DEFAULT_REL_TOL, (got, want)


def assert_kernel_matches(got, u, log_r, tag, n, doubling=True):
    want, want_used, n_ref = stored_sum(u, log_r, tag, n, doubling)
    if log_r == LOG_ZERO:
        assert got == want
        return
    c = legendre._coeff_logs(u, n_ref, tag)
    _, used, _ = sum_stored_series_batch(c, stored_ratio_bounds(c), [log_r])
    assert_same_sum(got, used[0], want, want_used)


KERNEL_EXP = exponential()
KERNEL_KS1 = ks_family(1.0)
radii = st.lists(
    st.one_of(st.floats(min_value=-40.0, max_value=5.5), st.just(LOG_ZERO)),
    min_size=1,
    max_size=8,
)


class TestSeriesKernel:
    """The batched kernel gives, radius by radius, what sum_stored_series
    gives on the same stored window: the same value whenever the two stop
    at the same index (see assert_same_sum)."""

    @given(radii)
    @settings(max_examples=40, deadline=None)
    def test_l_function_matches_stored_sum(self, log_rs):
        u = KERNEL_EXP
        for log_r in log_rs:
            assert_kernel_matches(gc.l_function(u, log_r).log, u, log_r, "l", 64)
        got = legendre._series_logs(u, log_rs, "l")
        for g, lr in zip(got, log_rs):
            assert_kernel_matches(g, u, lr, "l", 64)

    @given(radii)
    @settings(max_examples=40, deadline=None)
    def test_l_sharp_matches_stored_sum(self, log_rs):
        # L# of the beta = 1 family has radius 1: keep inside it
        log_rs = [min(lr, -0.05) for lr in log_rs]
        # both are built in blocks, so past 65 terms the kernel reads 4097:
        # the coefficient ratios of ks(1) rise, and a shorter window bounds
        # its tail by a smaller ratio
        for u in (KERNEL_EXP, KERNEL_KS1):
            for log_r in log_rs:
                assert_kernel_matches(gc.l_sharp(u, log_r).log, u, log_r, "sharp", 64, False)
            got = legendre._series_logs(u, log_rs, "sharp")
            for g, lr in zip(got, log_rs):
                assert_kernel_matches(g, u, lr, "sharp", 64, False)

    def test_rows_that_do_not_certify_move_to_a_doubled_window(self):
        u = exponential()
        log_rs = [0.0, 5.0, LOG_ZERO, 1.0]
        got = legendre._series_logs(u, log_rs, "l")
        assert len(legendre._PROFILE_CACHE[u]) > 65  # log r = 5 read past the first window
        for g, lr in zip(got, log_rs):
            assert_kernel_matches(g, u, lr, "l", 64)

    def test_divergent_sharp_series_keeps_its_refusal(self):
        u = ks_family(1.0)
        msg = "series for ks(beta=1) at log r = 0 showed no certified decay within 4096 terms"
        with pytest.raises(NoDecayCertificate, match=re.escape(msg)):
            gc.l_sharp(u, 0.0)
        # a batch gives NaN for each radius that does not certify, and its
        # refusing form names the first of them
        got = legendre._series_logs(u, [-1.0, 0.0, 0.5], "sharp")
        assert math.isfinite(got[0]) and np.isnan(got[1:]).all()
        with pytest.raises(NoDecayCertificate, match=re.escape(msg)):
            legendre._certified_logs(u, [-1.0, 0.0, 0.5], "sharp")

    @pytest.mark.parametrize("make", [
        lambda: gc.l_sharp_growth_function(ks_family(1.0)),
        lambda: from_phi(gc.l_sharp_growth_function(ks_family(1.0)).phi, name="plain"),
        lambda: from_series(gen_bell(2, 40)),
    ], ids=["l-sharp", "no-phi-vec", "bell-series"])
    def test_batched_phi_is_nan_exactly_where_phi_refuses(self, make):
        # L# of the beta = 1 family has radius 1, and 41 stored Bell
        # numbers certify only r < 0.06: radii on both sides of each
        w = make()
        xs = np.linspace(-4.0, 2.0, 13)
        got = w.phi_many(xs)
        refused = []
        for x, g in zip(xs, got):
            try:
                want = w.phi_at(x)
            except NoDecayCertificate:
                refused.append(x)
                assert np.isnan(g)
            else:
                assert g == want
        assert 0.0 < len(refused) < len(xs) and min(refused) <= 0.0

    def test_batched_phi_reads_a_plain_phi_once_per_point(self):
        # without a phi_vec, phi_many calls phi once per point, refused
        # points included
        w = gc.l_sharp_growth_function(ks_family(1.0))
        calls = []
        plain = from_phi(lambda x: calls.append(x) or w.phi(x), name="counted")
        got = plain.phi_many(np.linspace(-3.0, 1.0, 64))
        assert len(calls) == 64 and 0 < np.isnan(got).sum() < 64

    def test_batched_phi_lets_a_precondition_failure_through(self):
        def phi(x):
            raise PreconditionViolated("no phi here")

        with pytest.raises(PreconditionViolated, match="no phi here"):
            from_phi(phi, name="broken").phi_many(np.array([0.0, 1.0]))

    def test_a_series_value_does_not_depend_on_earlier_calls(self):
        # a wider call first grows the profile and reads wider windows; the
        # value at log r = -0.05 must still be the one a fresh function gives
        fresh = gc.l_sharp(ks_family(1.0), -0.05).log
        u = ks_family(1.0)
        gc.l_sharp(u, -0.005)
        assert gc.l_sharp(u, -0.05).log == fresh

    def test_a_cold_refusal_builds_no_block(self, monkeypatch):
        # r = 4 is past the radius 1 of L# of ks(1): the phi sample's cell
        # of order 63 bounds the first window's last gap and skips it, and
        # the minimizer of order 4095 refuses the cap window: no block, two
        # point searches (orders 0 and 4095), one phi sample, and the
        # profile holds order 0 alone
        calls = _count_calls(monkeypatch, "_profile_block", "_ell_at", orders=True)
        samples = _count_samples(monkeypatch)
        u = ks_family(1.0)
        msg = "series for ks(beta=1) at log r = 1.38629 showed no certified decay within 4096 terms"
        with pytest.raises(NoDecayCertificate, match=re.escape(msg)):
            gc.l_sharp(u, math.log(4.0))
        assert calls["_ell_at"] == [0.0, 4095.0] and calls["_profile_block"] == []
        assert samples == {u.name: 1} and len(legendre._PROFILE_CACHE[u]) == 1
        # a second refusal decides again on the kept sample: one point search
        with pytest.raises(NoDecayCertificate, match=re.escape(msg)):
            gc.l_sharp(u, math.log(4.0))
        assert calls["_ell_at"] == [0.0, 4095.0, 4095.0] and calls["_profile_block"] == []
        assert samples == {u.name: 1} and len(legendre._PROFILE_CACHE[u]) == 1

    def test_undecided_refusal_grows_the_profile_in_one_block(self, monkeypatch):
        # at r = 1 the bound from order 4095, -4.9e-4, leaves q < 1: the
        # profile grows to the cap in one block, and the full window refuses
        calls = _count_calls(monkeypatch, "_profile_block", "_ell_at", orders=True)
        u = ks_family(1.0)
        with pytest.raises(NoDecayCertificate):
            gc.l_sharp(u, 0.0)
        assert len(calls["_profile_block"]) == 2 and calls["_ell_at"] == [0.0, 4095.0]
        monkeypatch.undo()
        # the orders that began each doubled window's growth (one _ell_at
        # each) now come from the block
        want, _ = _scalar_walk(ks_family(1.0), 4096)
        prof = legendre._PROFILE_CACHE[u]
        assert len(prof) == 4097
        orders = (65, 129, 257, 513, 1025, 2049, 4096)
        _assert_same_profile([prof[n] for n in orders], [want[n] for n in orders])

    def test_grown_profile_keeps_only_certified_orders(self, monkeypatch):
        # the block certifies every order of log_square below 1398, where
        # its minimizer passes the range cap: the growth keeps that run and
        # sends only order 1398 to _ell_at, whose refusal it raises
        u = log_square_example()
        legendre._integer_profile(u, 64)
        seen = _count_calls(monkeypatch, "_ell_at", orders=True)
        with pytest.raises(NotBracketable):
            legendre._integer_profile(u, 4096)
        assert seen["_ell_at"] == [1398.0] and len(legendre._PROFILE_CACHE[u]) == 1398
        # a series reads those orders in one window; past them the recorded
        # refusal is raised again, and order 1398 is not searched again
        seen["_ell_at"].clear()
        assert math.isfinite(gc.l_function(u, 650.0).log)
        with pytest.raises(NotBracketable):
            gc.l_sharp(u, 0.0)  # diverges: it needs the orders past 1397
        assert seen["_ell_at"] == []

    def test_a_batch_answers_the_radii_before_a_refusal(self):
        # ell of 0.1 x^2 is -2.5 n^2 with the minimizer 5n, on the cap from
        # order 140: L at log r = 0 needs a few orders, at log r = 690 the
        # ones past 139, which a batch reads as NaN and one point refuses
        # with the walk's error
        def make():
            return from_phi(lambda x: 0.1 * x * x, phi_vec=lambda xs: 0.1 * xs * xs,
                            name="tenth-square", log_exp_convex=True, increasing=False)

        w = gc.l_growth_function(make())
        got = w.phi_many([0.0, 690.0])
        want = float(np.logaddexp.reduce(-2.5 * np.arange(140.0) ** 2))
        # certified to 1e-9 relative in the sum, so absolute in its log
        assert abs(got[0] - want) <= 1e-9 and np.isnan(got[1])
        _, exc = _scalar_walk(make(), 200)
        with pytest.raises(NotBracketable, match=re.escape(str(exc))):
            w.phi_at(690.0)
        # log_square's profile stops at order 1398: L at log r = 699 needs
        # the orders past it
        got = legendre._series_logs(log_square_example(), [0.0, 699.0], "l")
        n = np.arange(1398.0)
        assert abs(got[0] - float(np.logaddexp.reduce(-((n + 2.0) ** 2) / 4.0))) <= 1e-9
        assert np.isnan(got[1])

    def test_a_refused_order_is_not_searched_again(self, monkeypatch):
        u = log_square_example()
        prof = legendre._grown_profile(u, 4096)
        assert len(prof) == 1398 and prof.refusal[0] is NotBracketable
        seen = _count_calls(monkeypatch, "_ell_at", orders=True)
        with pytest.raises(NotBracketable, match=re.escape(prof.refusal[1][0])):
            gc.l_sharp(u, 0.0)
        with pytest.raises(NotBracketable, match=re.escape(prof.refusal[1][0])):
            gc.ell(u, 1398.0)
        assert seen["_ell_at"] == [] and legendre._grown_profile(u, 4096) is prof
        # the record holds the class and arguments, no error and no traceback
        assert all(not isinstance(a, BaseException) for a in prof.refusal[1])

    def test_cold_refusals_read_the_windows_the_bounds_leave_open(self, monkeypatch):
        # r = 4 is past the first window's bound and the cap's: no window;
        # r = 1.8 is inside the first bound (1.869), so it reads 65 terms
        # before the cap's bound refuses it; r = 1, which neither bound
        # decides, reads the cap window of 4097 terms as the second window,
        # with no doubled window in between
        calls = _count_calls(monkeypatch, "_profile_block", "_ell_at", orders=True)
        windows = _count_calls(monkeypatch, "_coeff_logs", orders=True)
        u = ks_family(1.0)
        with pytest.raises(NoDecayCertificate):
            gc.l_sharp(u, math.log(4.0))
        assert calls["_profile_block"] == [] and calls["_ell_at"] == [0.0, 4095.0]
        assert windows["_coeff_logs"] == [] and len(legendre._PROFILE_CACHE[u]) == 1
        with pytest.raises(NoDecayCertificate):
            gc.l_sharp(u, math.log(1.8))
        assert len(calls["_profile_block"]) == 1 and calls["_ell_at"] == [0.0] + [4095.0] * 2
        assert windows["_coeff_logs"] == [64] and len(legendre._PROFILE_CACHE[u]) == 65
        with pytest.raises(NoDecayCertificate):
            gc.l_sharp(u, 0.0)
        assert len(calls["_profile_block"]) == 2 and calls["_ell_at"] == [0.0] + [4095.0] * 3
        assert windows["_coeff_logs"] == [64, 64, 4096]

    def test_a_refused_order_leaves_its_certified_run_to_the_series(self):
        # L(r) = sum_n e^(-(n + 2)^2 / 4) r^n for log_square, whose profile
        # refuses at order 1398; about 1340 terms certify log r = 649.3
        log_r = math.log(1e282)
        n = np.arange(4097.0)
        want = float(np.logaddexp.reduce(-((n + 2.0) ** 2) / 4.0 + n * log_r))
        assert abs(gc.l_function(log_square_example(), log_r).log - want) <= 1e-9 * want

    @pytest.mark.parametrize("log_r", [100.0, 500.0, 650.0])
    @pytest.mark.parametrize("series", [gc.l_function, gc.l_sharp])
    def test_grown_profile_answers_as_the_walk(self, series, log_r, monkeypatch):
        # each call needs a window past 64 terms; L# of log_square
        # diverges, and L at log r = 650 needs terms past order 1398
        def outcome():
            try:
                return series(log_square_example(), log_r).log
            except (NotBracketable, NoDecayCertificate) as exc:
                return exc

        got = outcome()
        monkeypatch.setattr(legendre, "_BLOCK_MIN_ROWS", 10**9)  # walk every order
        want = outcome()
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @given(
        st.lists(
            st.one_of(st.floats(min_value=-50.0, max_value=5.0), st.just(LOG_ZERO)),
            min_size=2,
            max_size=12,
        ),
        st.floats(min_value=-5.0, max_value=3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_zero_coefficients_keep_their_meaning(self, logs, log_r):
        c = np.array(logs)
        terms = [ck + k * log_r for k, ck in enumerate(logs)]
        sums, used, done = sum_stored_series_batch(c, stored_ratio_bounds(c), [log_r])
        try:
            want = sum_stored_series(terms)
        except NoDecayCertificate:
            assert not done[0]
            return
        assert done[0]
        assert_same_sum(sums[0], used[0], want.value.log, want.terms_used)

    def test_zero_coefficient_between_terms(self):
        # 1 + 0 r + r^2/4 + r^3/64 + ...: the zero ratio after the head
        # certifies nothing, the ratio out of the zero is infinite
        logs = [0.0, LOG_ZERO] + [-k * k * math.log(2.0) for k in range(2, 12)]
        c = np.array(logs)
        terms = [ck + k * 0.5 for k, ck in enumerate(logs)]
        sums, used, done = sum_stored_series_batch(c, stored_ratio_bounds(c), [0.5])
        want = sum_stored_series(terms)
        assert done[0] and used[0] == want.terms_used and sums[0] == want.value.log


# fresh instances of the families whose series outcomes are checked
# against the full cap window (log_square's profile refuses at order
# 1398, so its last gap at the cap decides nothing)
GAP_FAMILIES = [
    ("exp", exponential),
    ("ks0.25", lambda: ks_family(0.25)),
    ("ks0.5", lambda: ks_family(0.5)),
    ("ks1", lambda: ks_family(1.0)),
    ("gaussian", gaussian),
    ("power-exp3", lambda: power_exp(3.0)),
    ("expk2", lambda: iterated_exp(2)),
    ("bump", bump_example),
    ("log-square", log_square_example),
]
GAP_RADII = [0.1, 0.5, 0.99, 1.0, 1.0003, 1.01, 2.0, 4.0, 16.0, 50.0, 1e10, 1e100, 1e282]


# the cap-gap families and two duals, whose phi is a search of its own
BOUND_FAMILIES = GAP_FAMILIES + [
    ("dual-exp", lambda: gc.dual_function(exponential())),
    ("dual-ks0.5", lambda: gc.dual_function(ks_family(0.5))),
]


def _last_gap(log_ell, cap, tag):
    """The last coefficient gap of a window whose orders end in log_ell
    at ``cap``, formed as _coeff_logs forms the window's coefficients."""
    c = log_ell[-2:] if tag == "l" else -log_ell[-2:] - 2.0 * _log_factorials(cap)[-2:]
    return float(c[1] - c[0])


def _full(make):
    """A fresh function whose profile was grown to the cap first, so every
    series reads the full cap window."""
    u = make()
    legendre._grown_profile(u, 4096)
    return u


def _outcome(series, u, log_r):
    """A series value as float bits, or its error's class and message."""
    try:
        return series(u, log_r).log.hex()
    except (NoDecayCertificate, NotBracketable) as exc:
        return type(exc), str(exc)


class TestCapGapRefusal:
    """A radius that the cap window's last gap refuses is decided without
    growing the profile, with exactly the outcome the full window gives."""

    @pytest.mark.parametrize("make", [m for _, m in GAP_FAMILIES],
                             ids=[k for k, _ in GAP_FAMILIES])
    def test_same_outcome_as_the_full_window(self, make):
        full, warm = _full(make), make()
        for r in GAP_RADII:
            for series in (gc.l_function, gc.l_sharp):
                want = _outcome(series, full, math.log(r))
                # cold, then warm on a function that has answered the radii
                # before it in both series (earlier radii may have grown
                # the profile)
                assert _outcome(series, make(), math.log(r)) == want, (series, r)
                assert _outcome(series, warm, math.log(r)) == want, (series, r)

    @pytest.mark.parametrize("series, make, r, decided", [
        # L# of ks(1): last gap -2.44e-4, bound from order 4095 -4.9e-4
        (gc.l_sharp, lambda: ks_family(1.0), 1.0, False),
        (gc.l_sharp, lambda: ks_family(1.0), 1.0003, False),
        (gc.l_sharp, lambda: ks_family(1.0), 1.001, True),
        (gc.l_function, exponential, 50.0, False),
        (gc.l_function, exponential, 1e10, True),
    ])
    def test_radii_that_straddle_the_decision(self, series, make, r, decided):
        # a decided radius leaves the profile short of the cap: 65 orders,
        # or 1 where the first window's bound decided it too (exp at 1e10)
        u = make()
        got = _outcome(series, u, math.log(r))
        assert got == _outcome(series, _full(make), math.log(r))
        assert (len(legendre._PROFILE_CACHE[u]) < 4097) == decided
        if decided:
            assert got[0] is NoDecayCertificate

    @pytest.mark.parametrize("make", [lambda: ks_family(1.0), log_square_example],
                             ids=["ks1", "log-square"])
    @pytest.mark.parametrize("tag", ["l", "sharp"])
    def test_growth_function_as_the_full_window(self, tag, make):
        # cap 512: the grid crosses the radius 1 of L# of ks(1), and the
        # radii where L needs more than 65 terms; log_square's full profile
        # refused at order 1398, past this cap, so a refusal here is
        # NoDecayCertificate all the same
        xs = np.concatenate([np.linspace(-3.0, 3.0, 25), [-3e-4, -1e-4, 1e-4, 3e-4, 8.0, 30.0]])
        fresh = legendre._series_growth_function(make(), tag)
        full = legendre._series_growth_function(_full(make), tag)
        got, want = fresh.phi_many(xs), full.phi_many(xs)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        # L# diverges past r = 1 for ks(1) and everywhere for log_square
        assert np.isnan(want).any() or tag == "l"
        # a second pass decides again on the profile the first one left
        assert [v.hex() for v in fresh.phi_many(xs)] == [v.hex() for v in want]
        for x in xs[np.isnan(want)]:
            for w in (full, legendre._series_growth_function(make(), tag)):
                with pytest.raises(NoDecayCertificate, match="within 512 terms"):
                    w.phi_at(x)

    def test_a_profile_near_the_cap_grows_as_before(self, monkeypatch):
        # 16 missing orders are walked by point searches, not one block: no
        # bound decides, and the profile grows to the cap
        u = ks_family(1.0)
        legendre._integer_profile(u, 4080)
        calls = _count_calls(monkeypatch, "_profile_sample", "_ell_at")
        with pytest.raises(NoDecayCertificate):
            gc.l_sharp(u, math.log(4.0))
        assert calls == {"_profile_sample": 0, "_ell_at": 16}
        assert len(legendre._PROFILE_CACHE[u]) == 4097

    @pytest.mark.parametrize("end", ["refuses", "on a boundary"])
    def test_an_undecided_point_search_takes_the_growth(self, monkeypatch, end):
        # the bound would refuse L# of ks(1) at r = 4 on 65 orders; without
        # it the radius takes the growth and the full window's answer
        real = legendre._ell_at

        def at_cap(u, t, seed_x=0.0):
            if t == 4095.0 and end == "refuses":
                raise NoDecayCertificate("the search below the cap refused")
            p = real(u, t, seed_x)
            return p._replace(boundary="upper") if t == 4095.0 else p

        monkeypatch.setattr(legendre, "_ell_at", at_cap)
        u, log_r = ks_family(1.0), math.log(4.0)
        got = _outcome(gc.l_sharp, u, log_r)
        assert len(legendre._PROFILE_CACHE[u]) == 4097
        monkeypatch.setattr(legendre, "_ell_at", real)
        assert got == _outcome(gc.l_sharp, _full(lambda: ks_family(1.0)), log_r)

    def test_a_recorded_refusal_takes_no_decision(self, monkeypatch):
        # a profile that stopped short is read as it is, and its refusal
        # raised; the last gap stands in only for a growth that can run
        u = ks_family(1.0)
        legendre._grown_profile(u, 64).refusal = (NotBracketable, ("stopped at order 65",))
        calls = _count_calls(monkeypatch, "_profile_sample", "_ell_at")
        with pytest.raises(NotBracketable, match="stopped at order 65"):
            gc.l_sharp(u, math.log(4.0))
        assert calls == {"_profile_sample": 0, "_ell_at": 0}

    def test_the_certificate_keeps_a_refusal_at_the_cap(self):
        # log_square's growth refuses at order 1398 and the search of order
        # 1397 ends inside the range: at cap 1398 the bound from it would
        # refuse L# everywhere, but the sample leaves order 1398 without a
        # bracket, so the growth runs and its refusal is raised
        log_rs = [0.0, 10.0]
        u = log_square_example()
        legendre._integer_profile(u, 64)
        assert legendre._ell_at(u, 1397.0).boundary is None
        with pytest.raises(NotBracketable) as cold:
            legendre._certified_logs(u, log_rs, "sharp", cap=1398)
        with pytest.raises(NotBracketable) as full:
            legendre._certified_logs(_full(log_square_example), log_rs, "sharp", cap=1398)
        assert str(cold.value) == str(full.value)

    @pytest.mark.parametrize("make", [m for _, m in BOUND_FAMILIES],
                             ids=[k for k, _ in BOUND_FAMILIES])
    @pytest.mark.parametrize("cap", [512, 4096])
    def test_point_searches_give_the_block_gap_within_the_margin(self, make, cap):
        # the bound refuses no radius that the block's last gap leaves open
        u = make()
        legendre._integer_profile(u, 64)
        log_ell, _ = legendre._profile_block(u, np.arange(65.0, cap + 1.0))
        for tag in ("l", "sharp"):
            bound = legendre._cap_gap(u, cap, tag)
            if np.isnan(log_ell[-2:]).any():
                # log_square's minimizer passes the range cap from order 1398
                assert make is log_square_example and cap == 4096 and bound is None
            else:
                assert bound <= _last_gap(log_ell, cap, tag)

    @given(
        st.integers(min_value=88, max_value=4096),
        st.sampled_from(["l", "sharp"]),
        st.sampled_from([m for _, m in BOUND_FAMILIES]),
        st.one_of(st.none(), st.tuples(*[st.floats(min_value=0.25, max_value=4.0)] * 2)),
    )
    @settings(max_examples=40, deadline=None)
    def test_the_bound_is_at_most_the_block_gap(self, cap, tag, make, scale):
        u = make() if scale is None else make().scaled(*scale)
        legendre._integer_profile(u, 64)
        bound = legendre._cap_gap(u, cap, tag)
        log_ell, _ = legendre._profile_block(u, np.arange(65.0, cap + 1.0))
        if bound is not None:
            assert bound <= _last_gap(log_ell, cap, tag)


class TestFirstWindowDecision:
    """A radius that the first window's last gap refuses, bounded from
    the phi sample's cell of one order, skips that window, with exactly
    the outcome the full window gives; the sample is taken once per
    function."""

    @pytest.mark.parametrize("series, make, r, decided, length", [
        # L# of ks(1): the first bound is -0.6255, so r = 1.869 decides;
        # the cap's bound refuses both radii
        (gc.l_sharp, lambda: ks_family(1.0), 1.8, False, 65),
        (gc.l_sharp, lambda: ks_family(1.0), 1.9, True, 1),
        # L# of power-exp 3: from r = 0.0309 on
        (gc.l_sharp, lambda: power_exp(3.0), 0.03, False, 65),
        (gc.l_sharp, lambda: power_exp(3.0), 0.032, True, 1),
        # L of exp: from r = 142.2 on; the cap window answers both radii
        (gc.l_function, exponential, 140.0, False, 4097),
        (gc.l_function, exponential, 145.0, True, 4097),
    ])
    def test_radii_that_straddle_the_first_bound(self, series, make, r, decided, length,
                                                 monkeypatch):
        u = make()
        windows = _count_calls(monkeypatch, "_coeff_logs", orders=True)
        got = _outcome(series, u, math.log(r))
        assert (64 not in windows["_coeff_logs"]) == decided
        assert len(legendre._PROFILE_CACHE[u]) == length
        monkeypatch.undo()
        assert got == _outcome(series, _full(make), math.log(r))

    @pytest.mark.parametrize("make", [m for _, m in BOUND_FAMILIES],
                             ids=[k for k, _ in BOUND_FAMILIES])
    def test_a_batch_is_decided_radius_by_radius(self, make):
        # the radii a bound decides and the ones it leaves come out as each
        # alone on a fresh function, and as the full window gives them
        log_rs = [math.log(r) for r in GAP_RADII] + [LOG_ZERO, -700.0, 700.0]
        full = _full(make)
        for tag in ("l", "sharp"):
            got = legendre._series_logs(make(), log_rs, tag)
            want = legendre._series_logs(full, log_rs, tag)
            alone = [legendre._series_logs(make(), [lr], tag)[0] for lr in log_rs]
            assert [v.hex() for v in got] == [v.hex() for v in want] == [v.hex() for v in alone]

    @given(
        st.integers(min_value=2, max_value=600),
        st.sampled_from(["l", "sharp"]),
        st.sampled_from([m for _, m in BOUND_FAMILIES]),
        st.one_of(st.none(), st.tuples(*[st.floats(min_value=0.25, max_value=4.0)] * 2)),
    )
    @settings(max_examples=40, deadline=None)
    def test_the_first_bound_is_at_most_the_window_gap(self, n, tag, make, scale):
        u = make() if scale is None else make().scaled(*scale)
        bound = legendre._first_gap(u, n, tag)
        log_ell = legendre._grown_profile(u, n).log_ell[: n + 1]
        if bound is not None and len(log_ell) == n + 1:
            assert bound <= _last_gap(log_ell, n, tag)

    def test_a_cold_cap_window_answer_samples_phi_once(self, monkeypatch):
        # r = 100 reads the first window, is left open by the cap's bound
        # and reads the cap window: two blocks and the guard on one sample
        calls = _count_calls(monkeypatch, "_profile_block")
        samples = _count_samples(monkeypatch)
        u = exponential()
        got = gc.l_function(u, math.log(100.0)).log
        assert calls == {"_profile_block": 2} and samples == {u.name: 1}
        assert len(legendre._PROFILE_CACHE[u]) == 4097
        monkeypatch.undo()
        assert got == gc.l_function(_full(exponential), math.log(100.0)).log

    def test_a_repeated_refusal_reads_no_new_sample(self, monkeypatch):
        u = power_exp(3.0)
        with pytest.raises(NoDecayCertificate):
            gc.l_sharp(u, math.log(0.5))
        sample = legendre._PROFILE_CACHE[u].sample
        samples = _count_samples(monkeypatch)
        for r in (0.5, 4.0, 16.0):
            with pytest.raises(NoDecayCertificate):
                gc.l_sharp(u, math.log(r))
        assert samples == {} and legendre._PROFILE_CACHE[u].sample is sample
        assert len(legendre._PROFILE_CACHE[u]) == 1

    def test_a_function_outside_the_class_raises_before_any_sample(self, monkeypatch):
        # the window raises the class precondition from order 0, as before
        # the decision, and no phi sample is taken
        samples = _count_samples(monkeypatch)
        u = from_phi(lambda x: math.exp(x), phi_vec=np.exp, name="flagged-out",
                     log_exp_convex=True, in_c_plus_log=False)
        with pytest.raises(PreconditionViolated, match="outside the admissible"):
            gc.l_sharp(u, math.log(4.0))
        assert samples == {}


class TestDual:
    def test_exponential_self_dual(self):
        u = exponential()
        assert gc.dual(u, 0.0).value == pytest.approx(1.0)
        for r in np.geomspace(0.01, 100.0, 9):
            assert abs(gc.dual(u, float(r)).log - r) <= 1e-9 * max(1.0, r)

    @pytest.mark.parametrize("beta", [0.25, 0.5])
    def test_beta_flip(self, beta):
        # the dual of exp((1+b) r^(1/(1+b))) is exp((1-b) r^(1/(1-b)))
        u = ks_family(beta)
        for r in np.geomspace(0.1, 30.0, 9):
            want = (1.0 - beta) * float(r) ** (1.0 / (1.0 - beta))
            got = gc.dual(u, float(r)).log
            assert abs(got - want) <= 1e-8 * max(1.0, want)

    @pytest.mark.parametrize("make", [exponential, lambda: ks_family(0.5), gaussian, bump_example])
    def test_a_zero_dual_at_the_origin_is_positive(self, make):
        # log u*(0) = -log u(0) = 0 for these: +0.0, as every other dual zero
        u = make()
        assert math.copysign(1.0, gc.dual(u, 0.0).log) == 1.0
        assert math.copysign(1.0, gc.dual_function(u).log_u0) == 1.0

    def test_steepest_family_cutoff(self):
        # for beta = 1 the dual is 1 up to r = 1 and infinite beyond
        u = ks_family(1.0)
        assert gc.dual(u, 0.5).value == pytest.approx(1.0, abs=1e-9)
        assert gc.dual(u, 1.0).value == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(NotBracketable):
            gc.dual(u, 2.0)

    def test_an_exactly_flat_maximand_stops_on_its_bracket(self, monkeypatch):
        # ks(1)'s maximand 2 y - 2 y is 0 for every y at r = 1: the search
        # stops on its first bracket, 3 reads of phi against 62 polishing it
        u, reads, real = ks_family(1.0), [], GrowthFunction.phi_at
        monkeypatch.setattr(GrowthFunction, "phi_at",
                            lambda self, x: reads.append(x) or real(self, x))
        assert gc.dual(u, 1.0).log == 0.0
        assert len(reads) <= 20

    def test_iterated_exponential_against_grid(self):
        u = iterated_exp(2)
        sq = math.sqrt(1e6)
        ws = np.linspace(-3.0, 3.28, 300001)
        vals = []
        for w in ws:
            p = u.phi_at(2.0 * float(w))
            vals.append(-math.inf if not math.isfinite(p) else 2.0 * sq * math.exp(float(w)) - p)
        oracle = max(vals)
        got = gc.dual(u, 1e6).log
        assert abs(got - oracle) <= 1e-6 * oracle

    def test_iterated_exponential_reference_shape(self):
        # the dual tracks 2 sqrt(r log sqrt(r)) from below, closing in
        # slowly as r grows
        u = iterated_exp(2)
        ratios = []
        for r in [1e2, 1e3, 1e4, 1e5, 1e6]:
            ref = 2.0 * math.sqrt(r * math.log(math.sqrt(r)))
            ratios.append(gc.dual(u, r).log / ref)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert 0.8 < ratios[-1] < 1.0

    def test_head_value_is_reciprocal_transform(self):
        for u in [exponential(), ks_family(0.5), gaussian()]:
            want = -gc.ell(u, 0.0).log_ell.log
            assert abs(gc.dual(u, 0.0).log - want) <= 1e-12

    @pytest.mark.parametrize("log_r", [360.0, 400.0, 600.0])
    @pytest.mark.parametrize("u,k", [(gaussian(), 1.0), (ks_family(-0.5), 0.5)],
                             ids=["gaussian", "ks-0.5"])
    def test_seed_on_a_saturated_phi(self, u, k, log_r):
        # log u(s) = k s^2 is held at k e^700 from s = e^350 on, where
        # 2 sqrt(r s) is lost in its roundoff: the seed s = r sits there.
        # The maximum of c y - k y^4 (c = 2 sqrt(r)) is 3/4 c (c/4k)^(1/3)
        c = 2.0 * math.exp(0.5 * log_r)
        want = 0.75 * c * (c / (4.0 * k)) ** (1.0 / 3.0)
        got = gc.dual(u, math.exp(log_r)).log
        assert got >= -u.log_u0  # the s -> 0 limit bounds every dual below
        assert abs(got - want) <= 1e-12 * want


class TestDualFunction:
    def test_escape_becomes_infinity(self):
        us = gc.dual_function(ks_family(1.0))
        assert us.phi_at(1.0) == math.inf
        assert abs(us.log_at(0.5)) <= 1e-9
        assert us.increasing and us.log_x2_convex and us.in_c_plus_log

    def test_transform_of_cutoff_dual_is_one(self):
        # the infimum sits on the dual's edge at r = 1, where the search stops
        us = gc.dual_function(ks_family(1.0))
        for n in range(31):
            p = gc.ell(us, float(n))
            assert abs(p.log_ell.log) <= 1e-12
            if n:
                assert p.boundary == "hi" and p.rho == 1.0

    def test_cutoff_dual_edge_is_found_once(self, monkeypatch):
        # ks(1)'s dual is 1 on [0, 1] and +inf beyond: its edge is x = 0
        u = ks_family(1.0)
        reads = []
        base = dataclasses.replace(u, phi=lambda x: reads.append(x) or u.phi(x))
        us = gc.dual_function(base)
        found = []
        dual_edge = legendre._dual_edge
        monkeypatch.setattr(
            legendre, "_dual_edge", lambda v, x: found.append(x) or dual_edge(v, x)
        )
        first = gc.ell(us, 2.5)
        edge = legendre._PROFILE_CACHE[us].edge
        assert len(found) == 1 and abs(edge) <= 4.0 * math.ulp(1.0)
        assert first == gc.ell(us, 2.5) and first.boundary == "hi"
        # past the edge the dual is +inf without reading u
        reads.clear()
        assert us.phi_at(1e-9) == math.inf and us.phi_many(np.array([0.5, 3.0]))[1] == math.inf
        assert not reads
        gc.ell(us, 7.25)
        gc.dual(us, 3.0)
        assert len(found) == 1 and legendre._PROFILE_CACHE[us].edge == edge

    def test_involution_on_steepest_family(self):
        u = ks_family(1.0)
        uss = gc.dual_function(gc.dual_function(u))
        for r in np.geomspace(1.0, 1e4, 15):
            want = u.log_at(float(r))
            assert abs(uss.log_at(float(r)) - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "u,r_lo,r_hi",
        [(exponential(), 0.1, 50.0), (ks_family(0.5), 0.1, 20.0)],
        ids=["exp", "ks05"],
    )
    def test_involution_smooth(self, u, r_lo, r_hi):
        uss = gc.dual_function(gc.dual_function(u))
        for r in np.geomspace(r_lo, r_hi, 11):
            want = u.log_at(float(r))
            assert abs(uss.log_at(float(r)) - want) <= 1e-6 * max(1.0, abs(want))

    def test_dual_transform_identity(self):
        # ell of the dual against e^(2t) / (ell_u(t) t^(2t))
        for u in [exponential(), ks_family(0.5)]:
            us = gc.dual_function(u)
            for t in range(1, 21):
                want = 2.0 * t - gc.ell(u, float(t)).log_ell.log - 2.0 * t * math.log(t)
                got = gc.ell(us, float(t)).log_ell.log
                assert abs(got - want) <= 1e-7 * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "make",
        [m for _, m in BLOCK_FAMILIES if m().log_x2_convex]
        + [lambda: gc.dual_function(ks_family(1.0)), lambda: gc.dual_function(exponential())],
        ids=[k for k, m in BLOCK_FAMILIES if m().log_x2_convex] + ["dual-ks1", "dual-exp"],
    )
    def test_vectorised_dual_matches_scalar(self, make):
        us = gc.dual_function(make())
        xs = np.linspace(-700.0, 700.0, 257)
        got = us.phi_many(xs)
        want = np.array([us.phi_at(float(x)) for x in xs])
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert not np.isnan(got).any()
        fin = np.isfinite(want)
        assert np.all(np.abs(got[fin] - want[fin]) <= 1e-13 * np.maximum(1.0, np.abs(want[fin])))

    @pytest.mark.parametrize("make", [gaussian, lambda: ks_family(-0.5)],
                             ids=["gaussian", "ks-0.5"])
    def test_vectorised_dual_past_saturation_stays_vectorised(self, make, monkeypatch):
        # seeds on the clamped part of phi walk down in lockstep, so no
        # row falls back to the scalar search
        scalar = []
        monkeypatch.setattr(legendre, "_dual_value", lambda u, x: scalar.append(x))
        got = gc.dual_function(make()).phi_many(np.linspace(-700.0, 700.0, 257))
        assert not scalar and np.isfinite(got[got.size // 2 :]).any()

    def test_dual_vectorised_only_over_a_vectorised_base(self):
        assert gc.dual_function(exponential()).phi_vec is not None
        assert gc.dual_function(from_phi(math.exp, name="e", log_x2_convex=True)).phi_vec is None
        assert gc.dual_function(power_exp(3.0)).phi_vec is None  # not (log, x^2)-convex

    @pytest.mark.parametrize("params", [
        {"family": "exp"}, {"family": "ks", "beta": 0.5}, {"family": "expk", "order": 2},
    ], ids=["exp", "ks", "expk2"])
    def test_dual_suite_verdicts(self, params):
        # verdicts of the suites that run on duals, with the vectorised dual
        assert gc.verify_suite("thm42", params).verdict == "pass"
        assert gc.verify_suite("thm43", params).verdict == "pass"

    def test_dual_is_x2_convex_by_probe(self):
        us = gc.dual_function(exponential())
        assert gc.classify_convexity(us, "log-xk-convex", k=2).passes

    def test_sharp_series_matches_dual_series(self):
        # for beta = 1 the dual transform values are 1, so the dual's
        # L-series is plainly geometric
        us = gc.dual_function(ks_family(1.0))
        for r in [0.1, 0.25, 0.45]:
            got = gc.l_function(us, math.log(r)).value
            assert math.isclose(got, 1.0 / (1.0 - r), rel_tol=1e-6)
            sharp = gc.l_sharp(ks_family(1.0), math.log(r)).value
            upper = math.e ** 2 * gc.l_sharp(ks_family(1.0), math.log(2.0 * r)).value
            assert sharp - 1e-9 <= got <= upper + 1e-9


def _full_sample_dual(make):
    """The dual of a fresh make(), its phi sample read on the whole grid
    at once, as a function without a base's psi sample takes it."""
    us = gc.dual_function(make())
    prof = legendre._PROFILE_CACHE[us]
    base, prof.base = prof.base, None
    legendre._profile_sample(us)
    prof.base = base
    assert prof.sample.read is None
    return us


# the duals whose profile blocks locate their cells from the base's psi sample
FILL_ON_READ_DUALS = [
    ("exp", exponential), ("ks0", lambda: ks_family(0.0)), ("ks0.25", lambda: ks_family(0.25)),
    ("ks0.5", lambda: ks_family(0.5)), ("gaussian", gaussian), ("expk2", lambda: iterated_exp(2)),
]


class TestDualProfileSample:
    """A dual's phi sample reads the dual only at the grid points its
    cells need, and its blocks come out as from the whole sample."""

    @pytest.mark.parametrize("n", [30, 60])
    @pytest.mark.parametrize("make", [m for _, m in FILL_ON_READ_DUALS],
                             ids=[k for k, _ in FILL_ON_READ_DUALS])
    def test_blocks_match_the_full_sample_bit_for_bit(self, make, n):
        got = legendre._integer_profile(gc.dual_function(make()), n)
        want = legendre._integer_profile(_full_sample_dual(make), n)
        assert [v.hex() for v in got.log_ell] == [v.hex() for v in want.log_ell]
        assert [v.hex() for v in got.rho] == [v.hex() for v in want.rho]
        assert list(got.boundary) == list(want.boundary)

    def test_the_block_reads_few_grid_points(self, monkeypatch):
        # 4096 points before; 15 now, in one phi_many call
        us = gc.dual_function(exponential())
        grid = np.linspace(-legendre.RANGE_CAP, legendre.RANGE_CAP, legendre._SCAN_POINTS)
        reads = []
        real = GrowthFunction.phi_many

        def counted(self, xs):
            if self is us:
                reads.append(int(np.isin(xs, grid).sum()))
            return real(self, xs)

        monkeypatch.setattr(GrowthFunction, "phi_many", counted)
        legendre._integer_profile(us, 30)
        assert 0 < sum(reads) <= 64
        assert sum(reads) == legendre._PROFILE_CACHE[us].sample.read.sum()

    def test_inner_polishes_stop_at_the_maximands_rounding(self, monkeypatch):
        # the dual rows' flat stop at 4 eps of |c y| + |psi|, the terms of
        # the maximand: ks(0.5)'s 30-order block took 204 inner lockstep
        # steps at 4 eps |G|, 133 now
        real, depth, steps = legendre._brent_min_rows, [0], {"inner": 0}

        def spy(f, *args):
            nested = depth[0] > 0
            depth[0] += 1

            def counted(k, x):
                steps["inner"] += nested
                return f(k, x)

            try:
                return real(counted, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(legendre, "_brent_min_rows", spy)
        legendre._integer_profile(gc.dual_function(ks_family(0.5)), 30)
        assert 0 < steps["inner"] <= 150


# the benchmark's growth functions: (family, params)
SEARCH_FAMILIES = [
    ("exp", {}), ("ks", {"beta": 0.0}), ("ks", {"beta": 0.25}), ("ks", {"beta": 0.5}),
    ("ks", {"beta": 1.0}), ("power-exp", {"a": 3.0}), ("gaussian", {}), ("expk", {"k": 2}),
    ("bump", {}),
]
THETA_PROFILES = [
    (lambda t: -2.0 * t * math.log(t) if t > 0 else 0.0, 1.0),
    (lambda t: -t * t, 0.0),
    (lambda t: 0.5 - 0.5 * t * t - 0.25 * t, 0.0),
]


def _hex_or_refusal(f, *args):
    """f(*args) as float.hex, or the refusal it raised."""
    try:
        got = f(*args)
    except (NotBracketable, NoDecayCertificate, PreconditionViolated) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, legendre.LegendrePoint):
        return got.log_ell.log.hex(), got.rho.hex(), got.boundary
    return (got.log if isinstance(got, LogScalar) else got).hex()


class TestSearchObjectives:
    """The transforms' scalar searches minimise one closure each, negated
    in place, and read each seed once; they return the floats of the
    objectives they replaced (search_reference), bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(SEARCH_FAMILIES),
        st.just(0.0) | st.floats(1e-4, 1e4),
        st.floats(0.05, 30.0).filter(lambda t: not t.is_integer()),
    )
    def test_transforms_equal_the_old_objectives(self, family, r, t):
        u = make_growth_function(*family)
        log_r = LOG_ZERO if r == 0.0 else math.log(r)
        assert _hex_or_refusal(gc.dual, u, r) == _hex_or_refusal(
            search_reference.dual_point, u, log_r
        )
        assert _hex_or_refusal(legendre._ell_at, u, t) == _hex_or_refusal(
            search_reference.ell_point, u, t
        )
        if r > 0.0:
            prof = gc.ell_profile(u)
            lf0 = float(prof.log_f(0.0))
            assert _hex_or_refusal(gc.inverse_legendre, prof, r) == _hex_or_refusal(
                search_reference.sup_log_f_rt, prof, log_r, lf0
            )

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(THETA_PROFILES), st.floats(-30.0, 30.0))
    def test_theta_transform_equals_the_old_objective(self, profile, x):
        f = gc.LogConcaveProfile(*profile)
        assert _hex_or_refusal(gc.theta_function(f).phi_at, x) == _hex_or_refusal(
            search_reference.sup_log_f_rt, f, x, float(f.log_f(0.0))
        )

    @pytest.mark.parametrize("family", SEARCH_FAMILIES[:5], ids=lambda f: str(f))
    def test_a_cold_dual_reads_phi_at_its_seed_once(self, family):
        calls = []
        u = make_growth_function(*family)
        w = GrowthFunction(phi=lambda x: calls.append(x) or u.phi(x), name="counted",
                           log_u0=u.log_u0, in_c_plus_log=u.in_c_plus_log)
        r = 0.5
        assert gc.dual(w, r).log == gc.dual(u, r).log
        assert calls.count(math.log(r)) == 1  # the seed is w = log(r) / 2

    @pytest.mark.parametrize("make", [exponential, lambda: ks_family(0.5),
                                      lambda: ks_family(1.0), gaussian],
                             ids=["exp", "ks0.5", "ks1", "gaussian"])
    def test_lockstep_dual_keeps_the_scalar_sign_of_zero(self, make):
        us = gc.dual_function(make())
        xs = np.concatenate([[0.0, -0.0], np.linspace(-700.0, 700.0, 65)])
        got = us.phi_many(xs)
        want = [us.phi_at(float(x)) for x in xs]
        assert [math.copysign(1.0, g) for g in got.tolist()] == [
            math.copysign(1.0, v) for v in want
        ]


# the seven families of the benchmark's inverse requests
INVERSE_FAMILIES = [
    ("exp", {}), ("ks", {"beta": 0.25}), ("ks", {"beta": 0.5}), ("ks", {"beta": 1.0}),
    ("gaussian", {}), ("expk", {"k": 2}), ("bump", {}),
]


def _eager_profile(u):
    """ell_profile with an asserted t0, detected from a block of the
    orders 0..60 built before log f is read."""
    t0 = legendre._detect_n0(legendre._integer_profile(u, 60).log_ell[:61].tolist())
    return gc.LogConcaveProfile(lambda t: gc.ell(u, t).log_ell.log, float(t0), f"ell[{u.name}]")


# the families of the inverse requests and power-exp 3, with the t0 that
# admissibility_report detects on their transforms
REPORT_FAMILIES = INVERSE_FAMILIES + [("power-exp", {"a": 3.0})]
REPORT_T0 = [1, 1, 1, 1, 2, 3, 3, 1]


class TestTransformProfileOnDemand:
    """ell_profile asserts no t0: an inverse request builds no profile
    block, and admissibility_report reads its samples from order 200
    down, so one block builds them and t0 comes from the orders 0..60."""

    @pytest.mark.parametrize("r", [0.01, 5.0])
    @pytest.mark.parametrize("family", INVERSE_FAMILIES, ids=lambda f: str(f))
    def test_an_inverse_request_builds_no_block(self, monkeypatch, family, r):
        u = make_growth_function(*family)
        calls = _count_calls(monkeypatch, "_profile_block")
        got = _hex_or_refusal(gc.inverse_legendre, gc.ell_profile(u), r)
        assert calls["_profile_block"] == 0
        assert len(legendre._PROFILE_CACHE[u]) < legendre._BLOCK_MIN_ROWS
        want = _hex_or_refusal(gc.inverse_legendre, _eager_profile(make_growth_function(*family)), r)
        assert got == want

    @pytest.mark.parametrize("family", REPORT_FAMILIES, ids=lambda f: str(f))
    def test_a_report_builds_one_block(self, monkeypatch, family):
        u = make_growth_function(*family)
        f = gc.ell_profile(u)
        assert u not in legendre._PROFILE_CACHE  # constructing builds nothing
        calls = _count_calls(monkeypatch, "_profile_block", "_ell_at")
        gc.admissibility_report(f)
        assert calls == {"_profile_block": 1, "_ell_at": 1}  # _ell_at for order 0

    @pytest.mark.parametrize("family, t0", zip(REPORT_FAMILIES, REPORT_T0),
                             ids=[str(f) for f in REPORT_FAMILIES])
    def test_a_report_detects_t0_from_orders_0_to_60(self, family, t0):
        block = legendre._integer_profile(make_growth_function(*family), 60)
        assert legendre._detect_n0(block.log_ell[:61].tolist()) == t0
        rep = gc.admissibility_report(gc.ell_profile(make_growth_function(*family)))
        assert rep["t0"] == t0 and type(rep["t0"]) is float

    @pytest.mark.parametrize("family", [("exp", {}), ("ks", {"beta": 0.5}), ("gaussian", {})],
                             ids=lambda f: str(f))
    def test_reports_and_theta_keep_the_eager_bits(self, family):
        lazy, eager = make_growth_function(*family), make_growth_function(*family)
        assert json.dumps(gc.admissibility_report(gc.ell_profile(lazy))) == json.dumps(
            gc.admissibility_report(_eager_profile(eager))
        )
        lazy, eager = make_growth_function(*family), make_growth_function(*family)
        th_lazy = gc.theta_function(gc.ell_profile(lazy))
        th_eager = gc.theta_function(_eager_profile(eager))
        for t in (0.5, 1.0, 2.0, 2.5, 7.25):
            assert _hex_or_refusal(gc.ell, th_lazy, t) == _hex_or_refusal(gc.ell, th_eager, t)

    @pytest.mark.parametrize("family", REPORT_FAMILIES, ids=lambda f: str(f))
    def test_a_report_agrees_with_an_ascending_walk(self, family):
        """Orders 61..200 from the block, not from a walk of one _ell_at
        each, move the report's roots by at most 4 ulps of the roots."""
        rep = gc.admissibility_report(gc.ell_profile(make_growth_function(*family)))
        u = make_growth_function(*family)
        walked = _eager_profile(u)  # orders 0..60 in a block, then one by one
        vals = [walked.log_f(float(t)) for t in range(201)]
        want = gc.admissibility_report(gc.LogConcaveProfile(lambda t: vals[int(t)], walked.t0))
        ulp = math.ulp(want["final_root"])
        for key in ("final_root", "root_drop", "concavity_violation"):
            assert abs(rep[key] - want[key]) <= 4 * ulp
        assert {k: v for k, v in rep.items() if type(v) is not float} == {
            k: v for k, v in want.items() if type(v) is not float
        }
        assert rep["t0"] == want["t0"]


class TestFunctionEquivalence:
    def test_recovers_exact_dilation(self):
        u = exponential()
        v = u.scaled(2.0, 3.0)
        res = gc.function_equivalent(u, v, (0.0, 10.0))
        assert res.ok
        assert res.a1 == pytest.approx(3.0, rel=1e-3)
        assert res.c1 == pytest.approx(2.0, rel=1e-3)
        assert res.c2 == pytest.approx(2.0, rel=1e-3)
        assert res.max_residual <= 1e-6

    def test_rejects_different_growth_order(self):
        res = gc.function_equivalent(exponential(), gaussian(), (0.0, 40.0))
        assert not res.ok
        assert res.spread > 100.0
        assert res.r > 1.0
        assert res.searched_a[0] < 1.0 < res.searched_a[1]

    def test_function_and_its_series_are_equivalent(self):
        u = ks_family(0.5)
        res = gc.function_equivalent(u, gc.l_growth_function(u), (0.0, 30.0))
        assert res.ok
        assert res.max_residual <= 2.0

    def test_batched_and_per_point_evaluations_agree(self):
        # the same L-function through its phi_vec and through a from_phi
        # wrapper of its phi, which has none: radii past the series' cap
        # are NaN on one path and refusals on the other
        u = ks_family(0.5)
        w = gc.l_growth_function(u)
        bare = from_phi(w.phi, name=w.name, log_u0=w.log_u0, increasing=True,
                        log_exp_convex=True)
        assert bare.phi_vec is None
        for pair in ((u, w), (w, u)):
            got = gc.function_equivalent(*pair, (0.0, 20.0), points=48)
            want = gc.function_equivalent(
                *(bare if f is w else f for f in pair), (0.0, 20.0), points=48
            )
            assert got.ok and want.ok
            for key in ("c1", "a1", "c2", "a2", "max_residual"):
                assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12)

    def test_too_few_evaluable_points_is_a_precondition(self):
        # v is finite only for x <= -20, below every radius of the grid
        v = from_phi(lambda x: x if x <= -20.0 else math.inf, name="low")
        with pytest.raises(PreconditionViolated, match="too few evaluable grid points"):
            gc.function_equivalent(exponential(), v, (0.0, 10.0))

    def test_checked_range_spans_the_radii_compared(self):
        # 41 stored Bell numbers certify only r < 0.06: 69 of the 96 grid
        # radii, and r = 0, where both functions are defined
        bell = from_series(gen_bell(2, 40))
        res = gc.function_equivalent(exponential(), bell, (0.0, 20.0))
        assert res.ok
        grid = legendre.geometric_grid(20.0 * 1e-9, 20.0, 96)
        evaluable = [r for r in grid if math.isfinite(bell.phi_many([math.log(r)])[0])]
        assert len(evaluable) == 69
        assert res.checked_range == (0.0, evaluable[-1])
        assert evaluable[-1] < 0.06
        # a grid that is evaluable throughout spans the range
        u = exponential()
        lo, hi = gc.function_equivalent(u, u.scaled(2.0), (1.0, 10.0)).checked_range
        assert lo == pytest.approx(1.0, rel=1e-14) and hi == pytest.approx(10.0, rel=1e-14)

    def test_series_upper_bound_with_explicit_constant(self):
        # L_u(r) <= (e*a/log a) u(a r) checked directly at a = e
        u = ks_family(0.5)
        for r in np.geomspace(1e-3, 50.0, 40):
            lhs = gc.l_function(u, math.log(float(r))).log
            assert lhs - 2.0 - u.log_at(math.e * float(r)) <= 1e-9

    def test_sequence_bridge(self):
        # equivalent weight sequences produce equivalent series functions
        u = ks_family(0.5)
        v = u.scaled(1.0, 2.0)
        wa = gc.seq_equivalent(gc.from_legendre(u, 40), gc.from_legendre(v, 40))
        assert wa.ok
        assert wa.c1 == pytest.approx(0.5, rel=1e-2)
        assert wa.c2 == pytest.approx(0.5, rel=1e-2)
        res = gc.function_equivalent(
            gc.l_sharp_growth_function(u), gc.l_sharp_growth_function(v), (0.0, 5.0)
        )
        assert res.ok

    @pytest.mark.parametrize("make", [lambda: ks_family(0.5), exponential,
                                      lambda: iterated_exp(2)], ids=["ks0.5", "exp", "exp_2"])
    def test_weights_read_the_profile_once(self, make, monkeypatch):
        # one profile read: order 0 through the point search, the other 60
        # orders from one block, which gives the weights of the
        # order-by-order walk to roundoff
        searches = []
        point = legendre._ell_at
        monkeypatch.setattr(
            legendre, "_ell_at", lambda *a, **k: searches.append(a[1]) or point(*a, **k)
        )
        u = make()
        seq = gc.from_legendre(u, 60)
        assert searches == [0.0]
        monkeypatch.undo()
        assert seq.log_alpha == tuple(
            (-_log_factorials(60) - legendre._integer_profile(u, 60).log_ell[:61]).tolist()
        )
        # ell on a fresh function, one order per call, grows its profile
        # one walk step at a time
        walk = make()
        for n in range(61):
            want = -math.lgamma(n + 1.0) - gc.ell(walk, float(n)).log_ell.log
            assert seq.log_alpha[n] == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_weight_condition_matches_profile_concavity(self):
        seq = gc.from_legendre(ks_family(0.5), 60)
        assert gc.check_condition(seq, "B2t").holds
        log_ell = legendre._integer_profile(ks_family(0.5), 60).log_ell[:61].tolist()
        assert log_concavity_violation(log_ell) <= 1e-8


class TestVerifySuites:
    @pytest.mark.parametrize("tag", gc.suite_tags())
    def test_default_suites_pass(self, tag):
        rep = gc.verify_suite(tag)
        assert rep.passed, rep.to_json()

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            gc.verify_suite("nope")

    def test_reports_are_deterministic(self):
        for tag in ["a4", "ks-sandwich", "thm42"]:
            one = gc.verify_suite(tag).to_json()
            two = gc.verify_suite(tag).to_json()
            assert one == two
            parsed = json.loads(one)
            assert parsed["suite"] == tag
            assert parsed["verdict"] == "pass"

    def test_parameter_overrides(self):
        rep = gc.verify_suite("thm42", {"family": "ks", "beta": 0.5})
        assert rep.passed
        rep = gc.verify_suite("lem35", {"family": "power-exp", "a": 3.0, "k": 2})
        assert rep.passed
        case = rep.witness["cases"][0]
        assert case["agree"] and not case["xk_convex"]

    def test_lem35_through_ell_matches_its_block(self, monkeypatch):
        # without blocks every grid point goes through ell: same verdicts
        block = gc.verify_suite("lem35")
        monkeypatch.setattr(legendre, "_in_blocks", lambda u: False)
        walk = gc.verify_suite("lem35")
        assert walk.to_json() == block.to_json() and walk.rows == block.rows

    @pytest.mark.parametrize("tag", ["a4", "stirling", "lem-a1"])
    def test_empty_grid_is_inconclusive(self, tag):
        rep = gc.verify_suite(tag, {"n_max": -1})
        assert rep.verdict == "inconclusive" and not rep.passed
        assert rep.to_json_dict()["max_violation"] is None

    def test_sandwich_tight_at_beta_zero(self):
        rep = gc.verify_suite("ks-sandwich", {"beta": 0.0})
        assert rep.passed

    # for each suite with rows, the x of the row its witness names
    WITNESS_X = {
        "a4": lambda w: f"{w['n']}:{w['m']}",
        "stirling": lambda w: f"{w['n']}/{w['side']}",
        "lem-a1": lambda w: f"{w['n']}:{w['m']}/{w['side']}",
        "lem-a2": lambda w: w["r"],
        "thm31-upper": lambda w: f"{w['r']}/a={w['a']}",
        "thm31-lower": lambda w: w["r"],
        "thm42": lambda w: w["t"],
        "involution": lambda w: w["r"],
        "ks-sandwich": lambda w: f"{w['r']}/{w['side']}",
    }

    @pytest.mark.parametrize(
        "tag, params",
        [pytest.param(tag, {}, id=tag) for tag in sorted(WITNESS_X) + ["lem35"]]
        + [pytest.param("stirling", {"tol": -1.0}, id="stirling-failing")],
    )
    def test_max_violation_and_witness_follow_the_rows(self, tag, params):
        rep = gc.verify_suite(tag, params)
        assert rep.rows
        violations = [-row["slack"] for row in rep.rows]
        assert rep.max_violation == max(violations)
        row = rep.rows[violations.index(max(violations))]  # the first maximum
        w = rep.witness
        if tag == "lem35":
            # the witness lists every case; the row's case agrees iff its slack is 0
            case = next(c for c in w["cases"] if c["name"] == row["x"])
            assert case["agree"] == (row["slack"] == 0.0)
        else:
            assert self.WITNESS_X[tag](w) == row["x"]
        if "slack" in w:
            assert w["slack"] == row["slack"]
        if "deviation" in w:
            assert w["deviation"] == -row["slack"]
        if tag == "thm42":
            assert (w["lhs"], w["rhs"]) == (row["lhs"], row["rhs"])

    @pytest.mark.parametrize("tag", ["thm31-upper", "thm31-lower", "lem-a2"])
    def test_series_suites_read_one_batch(self, monkeypatch, tag):
        seen = _count_calls(monkeypatch, "_certified_logs")
        rep = gc.verify_suite(tag)
        assert rep.passed
        assert seen["_certified_logs"] == 1

    def test_series_suite_batch_names_the_first_refused_radius(self):
        # past r ~ 1e3 L_exp needs more than 4096 terms; the batch must
        # refuse at the first radius the loop visits, r before 4 r
        params = {"family": "exp", "r_min": 1.0, "r_max": 1e4, "points": 9}
        grid = legendre.geometric_grid(1.0, 1e4, 9)
        want, u = None, exponential()
        for log_r in [x for r in grid for x in (math.log(r), math.log(r) + 2.0 * math.log(2.0))]:
            try:
                gc.l_function(u, log_r)
            except NoDecayCertificate as exc:
                want = str(exc)
                break
        assert want is not None
        with pytest.raises(NoDecayCertificate) as got:
            gc.verify_suite("lem-a2", params)
        assert str(got.value) == want

    def test_violations_are_findings_not_errors(self):
        rep = gc.verify_suite("stirling", {"tol": -1.0})
        assert rep.verdict == "fail"
        assert rep.max_violation > -1.0

    @pytest.mark.parametrize("tag, params, unread", [
        ("ks-sandwich", {"family": "gaussian", "points": 3}, "family"),
        ("a4", {"beta": 0.5, "n_max": 5}, "beta"),
        ("stirling", {"r_max": 3.0}, "r_max"),
        ("thm42", {"r_max": 3.0}, "r_max"),
        ("lem35", {"n_max": 3}, "n_max"),
        ("lem35", {"beta": 0.5}, "beta"),  # function keys only with a family
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_a_parameter_the_suite_does_not_read_raises(self, tag, params, unread):
        with pytest.raises(ValueError, match=f"^suite {tag} reads no {unread}$"):
            gc.verify_suite(tag, params)

    @pytest.mark.parametrize("tag", ["thm43", "lem35"])
    def test_tol_is_the_verdict_tolerance(self, tag):
        # both violate by 0.0 where they pass: a negative tolerance fails
        # them, and the report names the tolerance that decided it
        for tol, verdict in ((0.0, "pass"), (-1.0, "fail")):
            rep = gc.verify_suite(tag, {"tol": tol})
            assert (rep.verdict, rep.params["tol"]) == (verdict, tol)


def strict_loads(text):
    """json.loads that refuses the non-RFC constants NaN and +-Infinity."""

    def refuse(name):
        raise ValueError(f"non-RFC JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


# log-scale sides, infinities included (-inf is a zero magnitude)
SIDES = st.floats(allow_nan=False, min_value=-1e300, max_value=1e300) | st.sampled_from(
    [math.inf, -math.inf]
)


def first_worst(violations):
    """Index of the first row attaining the largest violation, NaN ranking
    highest; None for no rows."""
    if not violations:
        return None
    nans = [i for i, v in enumerate(violations) if v != v]
    return nans[0] if nans else violations.index(max(violations))


class TestCheckRecord:
    """The one check record and its builder, on arbitrary rows."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(SIDES, SIDES), max_size=12), st.floats(0.0, 1.0))
    def test_max_violation_and_witness_over_inequality_rows(self, pairs, tol):
        acc = legendre._Rows()
        for i, (lhs, rhs) in enumerate(pairs):
            acc.ineq(i, lhs, rhs, i=i)
        rec = acc.check("prop", {}, {}, tol)
        violations = [-row["slack"] for row in rec.rows]
        # a zero left side violates nothing, whatever the right side
        for (lhs, rhs), v in zip(pairs, violations):
            assert v == -math.inf if lhs == -math.inf else v == lhs - rhs or v != v
        k = first_worst(violations)
        if k is None:
            assert rec.max_violation == -math.inf and rec.witness == {}
            assert rec.verdict == "inconclusive"
        else:
            v = violations[k]
            assert rec.max_violation == v or (v != v and rec.max_violation != rec.max_violation)
            assert rec.witness["i"] == k
            assert rec.verdict == ("pass" if v <= tol else "fail")
        assert (rec.verdict == "inconclusive") == (not pairs)
        assert rec.passed == (rec.verdict == "pass")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SIDES, max_size=12))
    def test_witness_is_the_first_largest_row(self, violations):
        acc = legendre._Rows()
        for i, v in enumerate(violations):
            acc.add(i, 0.0, -v, v, i=i)
        rec = acc.check("prop", {}, {}, 0.0)
        assert [-row["slack"] for row in rec.rows] == violations
        k = first_worst(violations)
        if k is None:
            assert rec.verdict == "inconclusive" and rec.witness == {}
        else:
            assert rec.max_violation == max(violations)
            assert rec.witness == {"i": k}
            assert rec.verdict != "inconclusive"

    @pytest.mark.parametrize("lhs, rhs", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                                          (1.5, 1.5)])
    def test_a_zero_slack_and_violation_are_positive_zeros(self, lhs, rhs):
        acc = legendre._Rows()
        acc.ineq(0, lhs, rhs, i=0)
        rec = acc.check("prop", {}, {}, 0.0)
        zeros = (rec.max_violation, rec.rows[0]["slack"], rec.witness["slack"])
        assert [math.copysign(1.0, z) for z in zeros] == [1.0, 1.0, 1.0]

    def test_stirling_writes_no_negative_zero(self):
        rec = gc.verify_suite("stirling")
        floats = [rec.max_violation] + [row[k] for row in rec.rows for k in ("lhs", "rhs", "slack")]
        assert not any(z == 0.0 and math.copysign(1.0, z) < 0 for z in floats)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(SIDES, st.integers(1, 1000)), max_size=5))
    def test_counted_points_without_rows_are_checked(self, points):
        # a sampled check counts its points but keeps no rows: even a
        # -inf violation (every left side zero) is a verdict, not a gap
        acc = legendre._Rows()
        for v, count in points:
            acc.worse(v, {"v": v}, count)
        rec = acc.check("prop", {}, {}, 1e-9)
        assert rec.rows == ()
        assert (rec.verdict == "inconclusive") == (not points)
        if points:
            assert rec.max_violation == max(v for v, _ in points)
            assert rec.passed == (rec.max_violation <= 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(SIDES, SIDES), max_size=6),
        st.dictionaries(
            st.text(max_size=3),
            st.floats() | st.lists(st.floats(), max_size=3) | st.integers(),
            max_size=3,
        ),
    )
    def test_json_is_strict(self, pairs, extra):
        acc = legendre._Rows()
        for i, (lhs, rhs) in enumerate(pairs):
            acc.ineq(i, lhs, rhs, lhs=lhs, rhs=rhs)
        rec = acc.check("prop", {"extra": extra}, {"extra": extra}, 0.0)
        data = strict_loads(rec.to_json())
        assert data == rec.to_json_dict()
        assert data["suite"] == "prop" and data["verdict"] == rec.verdict
        mv = rec.max_violation
        assert data["max_violation"] == (mv if math.isfinite(mv) else None)
