import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcalc import ell, from_phi, make_growth_function
from growthcalc import holo
from growthcalc.growthfn import iterated_exp
from growthcalc.holo import (
    MAX_DEGREE,
    MAX_DIM,
    BoundParams,
    ChaosPolynomial,
    NuclearScale,
    chaos_eval,
    chaos_eval_batch,
    coeff_bound_check,
    coeff_norm,
    dyadic_scale,
    embedding_check_51,
    embedding_check_52,
    hs_norm,
    norm_g,
    norm_k,
    pointwise_bound_check,
    random_chaos,
    series_chain_check,
)
from growthcalc.numerics import PreconditionViolated

EXP = make_growth_function("exp")
KS05 = make_growth_function("ks", {"beta": 0.5})
SCALE = dyadic_scale(2)


class TestNuclearScale:
    def test_dyadic_defaults(self):
        assert SCALE.eigenvalues == (2.0, 4.0)
        assert SCALE.rho == 0.5
        assert SCALE.dim == 2
        assert dyadic_scale(3).eigenvalues == (2.0, 4.0, 8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NuclearScale(tuple(2.0**j for j in range(1, 10)), 0.5)
        with pytest.raises(ValueError):
            NuclearScale((2.0, 4.0), 1.5)
        with pytest.raises(ValueError):
            NuclearScale((4.0, 2.0), 0.5)
        with pytest.raises(ValueError):
            NuclearScale((1.5, 4.0), 0.5)

    def test_weighted_norm_hand_value(self):
        # |(3, 4)|_1 with weights (2, 4): sqrt(36 + 256)
        assert math.isclose(SCALE.weighted_norms(np.array([3, 4]), 1), math.sqrt(292.0))
        assert math.isclose(SCALE.weighted_norms(np.array([3, 4]), 0), 5.0)
        # level -1 divides by the weights
        assert math.isclose(
            SCALE.weighted_norms(np.array([2, 4]), -1), math.sqrt(1.0 + 1.0)
        )

    def test_norm_comparison_across_levels(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(50, 4)).view(complex)
        for row in xs:
            for p in range(3):
                for q in range(p + 1):
                    lhs = SCALE.weighted_norms(row, q)
                    rhs = SCALE.rho ** (p - q) * SCALE.weighted_norms(row, p)
                    assert lhs <= rhs * (1 + 1e-12)
            # the negative-side chain used by the norm-shift bound
            assert SCALE.weighted_norms(row, -2) <= (
                SCALE.rho * SCALE.weighted_norms(row, -1) * (1 + 1e-12)
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SCALE.weighted_norms(np.array([1.0, 2.0, 3.0]), 0)


class TestHsNorm:
    def test_hand_values(self):
        assert math.isclose(hs_norm(SCALE, 1, 0), math.sqrt(0.3125))
        assert math.isclose(hs_norm(SCALE, 2, 0), math.sqrt(1 / 16 + 1 / 256))
        assert math.isclose(hs_norm(SCALE, 1, 1), math.sqrt(2.0))

    def test_equal_levels_give_sqrt_dim(self):
        for d in (1, 3, 8):
            assert math.isclose(hs_norm(dyadic_scale(d), 5, 5), math.sqrt(d))

    def test_two_level_gap_is_contracting_even_at_max_dim(self):
        # the geometric tail keeps the two-level inclusion below 1/e
        assert hs_norm(dyadic_scale(8), 2, 0) < math.exp(-1.0)

    def test_requires_ordered_levels(self):
        with pytest.raises(ValueError):
            hs_norm(SCALE, 0, 1)

    def test_shift_invariance(self):
        assert math.isclose(hs_norm(SCALE, 3, 1), hs_norm(SCALE, 2, 0))


class TestChaosPolynomial:
    def test_eval_constant(self):
        F = ChaosPolynomial(2, 0, {(): 3.5 + 0j})
        assert chaos_eval(F, [9.0, 9.0]) == 3.5 + 0j

    def test_eval_linear(self):
        F = ChaosPolynomial(2, 1, {(0,): 1.0})
        assert chaos_eval(F, [3 + 1j, 5.0]) == 3 + 1j

    def test_eval_product_mode(self):
        # symmetric kernel of xi1*xi2 stores 1/2 at the sorted index;
        # the multiplicity restores the product
        F = ChaosPolynomial(2, 2, {(0, 1): 0.5})
        assert chaos_eval(F, [2.0, 3.0]) == 6.0 + 0j

    def test_eval_diagonal_mode(self):
        F = ChaosPolynomial(2, 2, {(1, 1): 1.0})
        assert chaos_eval(F, [0.0, 5.0]) == 25.0 + 0j

    def test_batch_matches_single(self):
        F = random_chaos(2, 4, seed=11)
        rng = np.random.default_rng(12)
        xs = rng.normal(size=(20, 4)).view(complex)
        batch = chaos_eval_batch(F, xs)
        singles = [chaos_eval(F, row) for row in xs]
        np.testing.assert_allclose(batch, singles, rtol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosPolynomial(2, 2, {(1, 0): 1.0})  # unsorted
        with pytest.raises(ValueError):
            ChaosPolynomial(2, 1, {(0, 1): 1.0})  # exceeds degree
        with pytest.raises(ValueError):
            ChaosPolynomial(2, 2, {(0, 2): 1.0})  # coordinate out of range
        with pytest.raises(ValueError):
            ChaosPolynomial(9, 1, {})
        with pytest.raises(ValueError):
            ChaosPolynomial(2, 11, {})

    def test_scaled_is_pointwise_multiple(self):
        F = random_chaos(2, 3, seed=4)
        G = F.scaled(2.0 - 1.0j)
        xi = [0.3 + 0.2j, -1.1 + 0.7j]
        assert np.isclose(chaos_eval(G, xi), (2.0 - 1.0j) * chaos_eval(F, xi))

    def test_json_round_trip(self, tmp_path):
        F = random_chaos(3, 4, seed=21)
        path = tmp_path / "chaos.json"
        F.save(path)
        data = json.loads(path.read_text())
        assert data["schema"] == "growthcalc.chaos/1"
        assert data["dim"] == 3 and data["N"] == 4
        G = ChaosPolynomial.load(path)
        assert G.coeffs == F.coeffs
        with pytest.raises(ValueError):
            ChaosPolynomial.from_json_dict({"schema": "other/1", "coeffs": []})

    def test_zero_polynomial(self):
        Z = ChaosPolynomial(2, 4, {})
        assert chaos_eval(Z, [1.0, 2.0]) == 0.0
        assert norm_k(Z, EXP, SCALE, 0) == 0.0
        assert norm_g(Z, EXP, SCALE, 0, seed=0).lower_bound == 0.0


class TestCoeffNorms:
    def test_level_zero_hand_values(self):
        F1 = ChaosPolynomial(2, 1, {(0,): 2.0})
        assert math.isclose(coeff_norm(F1, SCALE, 1, 0), 2.0)
        # two off-diagonal entries of 1/2 each: sqrt(2 * 1/4)
        F2 = ChaosPolynomial(2, 2, {(0, 1): 0.5})
        assert math.isclose(coeff_norm(F2, SCALE, 2, 0), math.sqrt(0.5))

    def test_weights_scale_per_coordinate(self):
        F = ChaosPolynomial(2, 1, {(0,): 1.0})
        assert math.isclose(coeff_norm(F, SCALE, 1, 1), 2.0)
        assert math.isclose(coeff_norm(F, SCALE, 1, 2), 4.0)
        assert math.isclose(coeff_norm(F, SCALE, 1, -1), 0.5)
        G = ChaosPolynomial(2, 2, {(0, 1): 0.5})
        # each factor picks up its own eigenvalue: sqrt(2)/2 * (2*4)^p
        assert math.isclose(coeff_norm(G, SCALE, 2, 1), math.sqrt(0.5) * 8.0)

    def test_norm_k_hand_values(self):
        const = ChaosPolynomial(2, 0, {(): 1.0})
        assert math.isclose(norm_k(const, EXP, SCALE, 0), 1.0)
        F1 = ChaosPolynomial(2, 1, {(0,): 2.0})
        assert math.isclose(norm_k(F1, EXP, SCALE, 0), 2.0 / math.sqrt(math.e))

    def test_norm_k_sums_degrees(self):
        F = ChaosPolynomial(2, 1, {(): 1.0, (0,): 2.0})
        expected = math.sqrt(1.0 + 4.0 / math.e)  # 1/ell(0) + 4/ell(1), ell(1)=e
        assert math.isclose(norm_k(F, EXP, SCALE, 0), expected)

    def test_zero_polynomial_reads_no_transform(self):
        # (1+r)^5 is refused at every order; a zero F reads none of them
        poly5 = make_growth_function("polynomial", {"p": 5.0})
        with pytest.raises(PreconditionViolated):
            norm_k(ChaosPolynomial(2, 1, {(0,): 1.0}), poly5, SCALE, 0)
        assert norm_k(ChaosPolynomial(2, 5, {}), poly5, SCALE, 0) == 0.0

    def test_norm_k_homogeneous(self):
        F = random_chaos(2, 4, seed=2)
        a = norm_k(F, KS05, SCALE, 1)
        b = norm_k(F.scaled(3.0j), KS05, SCALE, 1)
        assert math.isclose(b, 3.0 * a, rel_tol=1e-12)


def small_polynomial(dim, degree, seed, rng):
    """random_chaos when it has at most 300 monomials, else 40 monomials
    drawn from rng (duplicates merge)."""
    if math.comb(dim + degree, degree) <= 300:
        return random_chaos(dim, degree, seed=seed)
    return ChaosPolynomial(dim, degree, {
        tuple(sorted(rng.integers(0, dim, rng.integers(0, degree + 1)).tolist())):
            complex(*rng.normal(size=2))
        for _ in range(40)
    })


def monomial_coeff_norms(F, scale, p):
    """|f_n|_p^2 per degree, one monomial at a time: the count of
    distinct orderings of the index times |c|^2 times the product of
    its coordinates' lambda^(2p)."""
    total = [0.0] * (F.max_degree + 1)
    for idx, c in F.coeffs.items():
        orderings = math.factorial(len(idx))
        for j in set(idx):
            orderings //= math.factorial(idx.count(j))
        weight = math.prod(scale.eigenvalues[j] ** (2 * p) for j in idx)
        total[len(idx)] += orderings * abs(c) ** 2 * weight
    return [math.sqrt(t) for t in total]


class TestMonomialTable:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, MAX_DIM),
        st.integers(0, MAX_DEGREE),
        st.integers(-2, 2),
        st.integers(0, 2 ** 32 - 1),
        st.booleans(),
    )
    def test_coeff_norm_matches_monomial_sum(self, dim, degree, p, seed, dyadic):
        # every degree of the table's one bincount against a plain sum
        rng = np.random.default_rng(seed)
        F = small_polynomial(dim, degree, seed, rng)
        scale = dyadic_scale(dim) if dyadic else NuclearScale(
            tuple(np.cumsum(2.0 + rng.uniform(0.0, 1.5, dim)).tolist()), 0.5
        )
        want = monomial_coeff_norms(F, scale, p)
        for n in range(degree + 1):
            assert math.isclose(coeff_norm(F, scale, n, p), want[n], rel_tol=1e-13, abs_tol=0.0)
        assert coeff_norm(F, scale, degree + 1, p) == 0.0

    def test_fits_read_the_transform_that_ell_returns(self):
        # the K fit and the coefficient-bound rows read log ell_u(0..N)
        # from the profile array at once; ell answers one order at a time
        scale = dyadic_scale(3)
        F = random_chaos(3, 5, seed=7)
        for u in (EXP, KS05):
            logs = [ell(u, n).log_ell.log for n in range(6)]
            rep = pointwise_bound_check(F, u, scale, 2, n_samples=10, seed=0)
            want = max(coeff_norm(F, scale, n, 2) / math.exp(0.5 * logs[n]) for n in range(6))
            assert math.isclose(rep.params["K"], want, rel_tol=1e-14)
            rows = coeff_bound_check(F, u, scale, BoundParams(K=2.0, a=0.5, p=2, q=1)).rows
            assert [row["x"] for row in rows] == list(range(6))
            log_factor = math.log(0.5 * math.e ** 2 * hs_norm(scale, 2, 1) ** 2)
            for n, row in enumerate(rows):
                assert row["lhs"] == 2.0 * math.log(coeff_norm(F, scale, n, 1))
                want = 2.0 * math.log(2.0) + n * log_factor + logs[n]
                assert math.isclose(row["rhs"], want, rel_tol=1e-14)


def ray_and_point_values(F, dirs, radii):
    """F at s * dir for every direction and radius, from the rays'
    homogeneous parts and from chaos_eval_batch, with the sum of the
    monomials' magnitudes there; asserts the two agree to 1e-13 of it,
    the scale at which both evaluators round."""
    size = ChaosPolynomial(F.dim, F.max_degree, {k: abs(v) for k, v in F.coeffs.items()})
    ray = holo._ray_coeffs(F, dirs) @ radii ** np.arange(F.max_degree + 1)[:, None]
    points = (radii[None, :, None] * dirs[:, None, :]).reshape(-1, F.dim)
    point = chaos_eval_batch(F, points).reshape(ray.shape)
    bulk = chaos_eval_batch(size, np.abs(points)).real.reshape(ray.shape)
    assert np.all(np.abs(ray - point) <= 1e-13 * bulk)
    return ray, point, bulk


class TestNormG:
    def test_one_dim_calculus_oracle(self):
        # sup_x |c| x e^{-x^2/2} = |c|/sqrt(e) at x = 1
        scale1 = NuclearScale((2.0,), 0.5)
        F = ChaosPolynomial(1, 1, {(0,): 3.0})
        res = norm_g(F, EXP, scale1, 0, seed=1)
        truth = 3.0 / math.sqrt(math.e)
        assert res.lower_bound <= truth * (1 + 1e-9)
        assert math.isclose(res.lower_bound, truth, rel_tol=1e-6)
        assert math.isclose(abs(res.argsup[0]), 1.0, rel_tol=1e-3)

    def test_two_dim_linear_oracle(self):
        # Cauchy-Schwarz in the direction, then the same radial problem:
        # sup = ||(3, 4i)|| / sqrt(e) = 5/sqrt(e)
        F = ChaosPolynomial(2, 1, {(0,): 3.0, (1,): 4.0j})
        res = norm_g(F, EXP, SCALE, 0, seed=5)
        truth = 5.0 / math.sqrt(math.e)
        assert res.lower_bound <= truth * (1 + 1e-9)
        assert math.isclose(res.lower_bound, truth, rel_tol=1e-4)

    def test_constant_attained_at_origin(self):
        F = ChaosPolynomial(2, 0, {(): 2.5 + 0j})
        res = norm_g(F, EXP, SCALE, 1, seed=0)
        assert math.isclose(res.lower_bound, 2.5, rel_tol=1e-12)
        assert res.argsup == (0j, 0j)

    def test_homogeneous_under_scaling(self):
        F = random_chaos(2, 4, seed=9)
        a = norm_g(F, EXP, SCALE, 2, seed=3).lower_bound
        b = norm_g(F.scaled(4.0), EXP, SCALE, 2, seed=3).lower_bound
        assert math.isclose(b, 4.0 * a, rel_tol=1e-9)

    def test_deterministic_given_seed(self):
        F = random_chaos(2, 4, seed=13)
        r1 = norm_g(F, KS05, SCALE, 2, seed=42)
        r2 = norm_g(F, KS05, SCALE, 2, seed=42)
        assert r1.lower_bound == r2.lower_bound
        assert r1.argsup == r2.argsup

    def test_weight_level_matters(self):
        # heavier damping (smaller |xi|_{-p}) enlarges the sup
        F = random_chaos(2, 3, seed=23)
        g0 = norm_g(F, EXP, SCALE, 0, seed=1).lower_bound
        g2 = norm_g(F, EXP, SCALE, 2, seed=1).lower_bound
        assert g2 >= g0

    # (polynomial seed, weight, level, lower_bound, argsup), recorded
    # when the scan still evaluated one direction at a time
    PINNED = [
        (1017, EXP, 2, 191468.54596554718,
         (complex(-0.6110569255993538, 1.2197554953460432),
          complex(31.43409355071056, -0.0015155502040115352))),
        (3, KS05, 1, 1521.202174314024,
         (complex(-1.0562927252253518, 1.9097754872552273),
          complex(10.300460207618208, -1.7669240768319723))),
        (1001, EXP, 0, 9.683101744717396,
         (complex(0.9697829317787294, -0.2855323577927471),
          complex(1.4236470584464873, 0.8047758002660521))),
        (6, KS05, 2, 287079.36429634684,
         (complex(0.1860801604328321, 1.658550017465883),
          complex(44.6991316183481, 1.131650596301649))),
        (1005, EXP, 1, 819.1675486735302,
         (complex(-1.7051082999992657, -1.7380009481276446),
          complex(3.5427471956010486, -5.075140796100809))),
    ]

    @pytest.mark.parametrize("seed, u, p, lower_bound, argsup", PINNED)
    def test_pinned_results(self, seed, u, p, lower_bound, argsup):
        # the one-shot scan picks the same cell: the same direction, and
        # the polished radius and value agree.  The Brent polish maximizes
        # a flat function, so rounding-level changes in F's values move its
        # radius by up to ~sqrt(machine epsilon); the value moves ~1e-15.
        res = norm_g(random_chaos(2, 4, seed=seed), u, SCALE, p, seed=seed)
        assert math.isclose(res.lower_bound, lower_bound, rel_tol=1e-12)
        got, want = np.array(res.argsup), np.array(argsup)
        s_got, s_want = SCALE.weighted_norms(got, -p), SCALE.weighted_norms(want, -p)
        assert np.allclose(got / s_got, want / s_want, rtol=0.0, atol=1e-12)
        assert math.isclose(s_got, s_want, rel_tol=1e-6)

    def test_overflowing_scores_count_as_minus_infinity(self):
        # |F| = 1e300 |xi_1|^4 overflows at large radii where exp_2(s^2)
        # does too (score inf - inf = NaN), and F vanishes along xi_2
        # (score -inf); the sup sits on xi_1 at s^2 = W(4), W the
        # Lambert function, with log value log 1e300 + 2 log W - 2/W
        F = ChaosPolynomial(2, 4, {(0, 0, 0, 0): 1e300})
        res = norm_g(F, iterated_exp(2), SCALE, 0, seed=0)
        w = 1.2
        for _ in range(50):
            w -= (w * math.exp(w) - 4.0) / (math.exp(w) * (1.0 + w))
        truth = math.exp(math.log(1e300) + 2.0 * math.log(w) - 2.0 / w)
        assert math.isclose(res.lower_bound, truth, rel_tol=1e-9)
        assert math.isclose(abs(res.argsup[0]) ** 2, w, rel_tol=1e-6)
        assert res.argsup[1] == 0j

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, MAX_DIM),
        st.integers(0, MAX_DEGREE),
        st.integers(0, 2 ** 32 - 1),
        st.sampled_from([EXP, KS05]),
    )
    def test_ray_form_matches_point_evaluator(self, dim, degree, seed, u):
        # the scan scores F(s dir) = sum_n P_n(dir) s^n from the rays'
        # homogeneous parts; chaos_eval_batch multiplies out every point
        rng = np.random.default_rng(seed)
        F = small_polynomial(dim, degree, seed, rng)
        dirs = rng.normal(size=(6, 2 * dim)).view(complex)
        radii = np.geomspace(1e-3, 1e3, 128)
        ray, point, bulk = ray_and_point_values(F, dirs, radii)
        # so the scores agree wherever F does not nearly cancel
        half_log_u = 0.5 * u.log_many(radii ** 2)
        with np.errstate(divide="ignore"):
            got = np.log(np.abs(ray)) - half_log_u
            want = np.log(np.abs(point)) - half_log_u
        kept = np.isfinite(want) & (bulk <= 4.0 * np.abs(point))
        assert kept.any()
        assert np.all(
            np.abs(got - want)[kept] <= 1e-13 * np.maximum(1.0, np.abs(want[kept]))
        )

    def test_ray_blocks_may_split_a_degree(self, monkeypatch):
        # 84 monomials in blocks of 2 (cells 12 over degree 6): every
        # block adds its per-degree sums to the parts of earlier blocks
        monkeypatch.setattr(holo, "_RAY_CELLS", 12)
        F = random_chaos(3, 6, seed=4)
        dirs = np.random.default_rng(4).normal(size=(5, 6)).view(complex)
        ray_and_point_values(F, dirs, np.geomspace(1e-2, 1e2, 16))

    @pytest.mark.parametrize("dim, degree", [(1, 0), (2, 4), (MAX_DIM, MAX_DEGREE)])
    def test_zero_polynomial_has_zero_norm(self, dim, degree):
        F = ChaosPolynomial(dim, degree, {})
        res = norm_g(F, EXP, dyadic_scale(dim), 1, seed=0)
        assert res.lower_bound == 0.0


class TestCoeffBoundCheck:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            BoundParams(K=-1.0, a=1.0, p=1, q=0)
        with pytest.raises(ValueError):
            BoundParams(K=1.0, a=1.0, p=0, q=1)

    def test_constant_mode_exact(self):
        F = ChaosPolynomial(2, 0, {(): 1.0})
        rep = coeff_bound_check(F, EXP, SCALE, BoundParams(K=1.0, a=1.0, p=2, q=0))
        assert rep.passed
        # log scale: both sides are 1
        assert rep.rows[0]["lhs"] == 0.0 and rep.rows[0]["rhs"] == 0.0

    def test_small_k_reports_finding(self):
        F = ChaosPolynomial(2, 1, {(0,): 5.0})
        rep = coeff_bound_check(F, EXP, SCALE, BoundParams(K=0.01, a=1.0, p=2, q=0))
        assert not rep.passed
        assert any(row["slack"] < 0 for row in rep.rows)

    def test_population_with_inflated_sup(self):
        for seed in range(8):
            F = random_chaos(2, 4, seed=seed)
            for u in (EXP, KS05):
                g = norm_g(F, u, SCALE, 2, seed=seed).lower_bound
                rep = coeff_bound_check(
                    F, u, SCALE, BoundParams(K=1.05 * g, a=1.0, p=2, q=0)
                )
                assert rep.passed, rep.to_json_dict()

    def test_report_shape(self):
        F = random_chaos(2, 3, seed=1)
        rep = coeff_bound_check(F, EXP, SCALE, BoundParams(K=10.0, a=1.0, p=1, q=0))
        assert [row["x"] for row in rep.rows] == [0, 1, 2, 3]
        assert math.isclose(rep.params["hs"], math.sqrt(0.3125))
        json.dumps(rep.to_json_dict())


class TestEmbedding51:
    def test_requires_contracting_inclusion(self):
        F = random_chaos(2, 2, seed=0)
        with pytest.raises(PreconditionViolated):
            embedding_check_51(F, EXP, SCALE, 1, 0)

    def test_constant_polynomial(self):
        F = ChaosPolynomial(2, 0, {(): 1.0})
        rep = embedding_check_51(F, EXP, SCALE, 2, 0, seed=0)
        hs2 = 1 / 16 + 1 / 256
        expected_const = (1.0 - math.e**2 * hs2) ** -0.5
        assert math.isclose(rep.params["constant"], expected_const)
        (row,) = rep.rows  # log scale
        assert math.isclose(math.exp(row["lhs"]), 1.0)
        assert math.isclose(math.exp(row["rhs"]), expected_const * 1.05, rel_tol=1e-9)
        assert rep.passed

    def test_precomputed_sup_matches_internal(self):
        F = random_chaos(2, 4, seed=6)
        g = norm_g(F, EXP, SCALE, 2, seed=6).lower_bound
        a = embedding_check_51(F, EXP, SCALE, 2, 0, seed=6)
        b = embedding_check_51(F, EXP, SCALE, 2, 0, g_value=g)
        (ra,), (rb,) = a.rows, b.rows
        assert ra["lhs"] == rb["lhs"] and math.isclose(ra["rhs"], rb["rhs"], rel_tol=1e-12)

    def test_population(self):
        for seed in range(10):
            F = random_chaos(2, 4, seed=seed)
            for u in (EXP, KS05):
                rep = embedding_check_51(F, u, SCALE, 2, 0, seed=seed)
                assert rep.passed, rep.to_json_dict()
                assert rep.params["inflation"] == 1.05

    def test_report_serializes(self):
        F = random_chaos(2, 2, seed=3)
        rep = embedding_check_51(F, KS05, SCALE, 2, 0, seed=3)
        data = rep.to_json_dict()
        assert data["suite"] == "embedding-51"
        (row,) = rep.rows
        assert math.isclose(data["witness"]["slack"], row["rhs"] - row["lhs"])
        assert data["max_violation"] == -data["witness"]["slack"]
        json.dumps(data)


class TestEmbedding52:
    def test_requires_positive_level(self):
        F = random_chaos(2, 2, seed=0)
        with pytest.raises(ValueError):
            embedding_check_52(F, EXP, SCALE, 0)

    def test_refuses_non_convex_weight(self):
        F = random_chaos(2, 2, seed=0)
        bad = from_phi(
            lambda x: math.sqrt(1.0 + math.exp(x)),
            name="sqrt-growth",
            log_exp_convex=False,
        )
        with pytest.raises(PreconditionViolated):
            embedding_check_52(F, bad, SCALE, 1)

    def test_constant_pinned(self):
        F = ChaosPolynomial(2, 0, {(): 1.0})
        rep = embedding_check_52(F, EXP, SCALE, 1, seed=0)
        expected = math.sqrt(math.e) / math.sqrt(2 * 0.25 * math.log(2.0))
        assert math.isclose(rep.params["constant"], expected)
        assert rep.passed
        assert rep.params["lhs_is_lower_bound"] is True

    def test_population(self):
        for seed in range(10):
            F = random_chaos(2, 4, seed=seed)
            for u in (EXP, KS05):
                rep = embedding_check_52(F, u, SCALE, 1, seed=seed)
                assert rep.passed, rep.to_json_dict()


class TestPointwiseBounds:
    def test_zero_polynomial_trivially_passes(self):
        Z = ChaosPolynomial(2, 3, {})
        rep = pointwise_bound_check(Z, EXP, SCALE, 2, seed=0)
        assert rep.passed and rep.params["K"] == 0.0

    def test_fitted_constant_linear_mode(self):
        # K = |f_1|_p / sqrt(ell(1)); for e^r, ell(1) = e
        F = ChaosPolynomial(2, 1, {(0,): 1.0})
        rep = pointwise_bound_check(F, EXP, SCALE, 2, n_samples=50, seed=0)
        assert math.isclose(rep.params["K"], coeff_norm(F, SCALE, 1, 2) / math.sqrt(math.e))

    def test_constant_mode_slack_is_structural(self):
        # for F = c the direct bound has fixed headroom sqrt(2) e at xi=0
        F = ChaosPolynomial(2, 0, {(): 7.0})
        rep = pointwise_bound_check(F, EXP, SCALE, 1, n_samples=200, seed=1)
        assert rep.passed
        assert rep.witness["u"] <= -(0.5 * math.log(2.0) + 1.0) + 1e-12

    def test_population(self):
        for seed in range(6):
            F = random_chaos(2, 4, seed=seed)
            for u in (EXP, KS05):
                rep = pointwise_bound_check(F, u, SCALE, 2, n_samples=400, seed=seed)
                assert rep.passed, rep.to_json_dict()
                assert rep.witness["series"] <= 1e-9

    def test_series_bound_tighter_than_direct(self):
        # the series route is sharper: its slack can exceed the direct
        # route's but both stay nonpositive
        F = random_chaos(2, 4, seed=8)
        rep = pointwise_bound_check(F, EXP, SCALE, 2, n_samples=300, seed=8)
        assert rep.witness["u"] <= 1e-9 and rep.witness["series"] <= 1e-9

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_sample_set_is_refused(self, n):
        # no sample checked must not read as a pass, zero polynomial included
        for F in (random_chaos(2, 4, seed=1), ChaosPolynomial(2, 3, {})):
            with pytest.raises(ValueError, match="n_samples"):
                pointwise_bound_check(F, EXP, SCALE, 2, n_samples=n)


class TestSeriesChain:
    @pytest.mark.parametrize("u", [EXP, KS05], ids=["exp", "ks05"])
    def test_chain_holds(self, u):
        rep = series_chain_check(u, SCALE, 1, n_samples=200, seed=3)
        assert rep["passed"], rep
        assert rep["witness"]["shift"] <= 1e-9
        assert rep["witness"]["u"] <= 1e-9

    def test_requires_positive_level(self):
        with pytest.raises(ValueError):
            series_chain_check(EXP, SCALE, 0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_sample_set_is_refused(self, n):
        with pytest.raises(ValueError, match="n_samples"):
            series_chain_check(EXP, SCALE, 1, n_samples=n)

    def test_deeper_level(self):
        rep = series_chain_check(EXP, SCALE, 2, n_samples=100, seed=5)
        assert rep["passed"]


class TestZeroPolynomials:
    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(0, 4),
        st.integers(0, 10 ** 6),
        st.sampled_from([EXP, KS05]),
    )
    def test_zero_scaled_polynomials_pass_every_check(self, dim, degree, seed, u):
        # every comparison is 0 <= 0: a zero left side is a -inf violation,
        # not NaN, so each check passes with max_violation rendered null
        F = random_chaos(dim, degree, seed=seed).scaled(0.0)
        scale = dyadic_scale(dim)
        g = norm_g(F, u, scale, 2, seed=seed).lower_bound
        assert g == 0.0
        for rep in (
            embedding_check_51(F, u, scale, 2, 0, seed=seed, g_value=g),
            embedding_check_52(F, u, scale, 1, seed=seed),
            coeff_bound_check(F, u, scale, BoundParams(K=1.05 * g, a=1.0, p=2, q=0)),
            pointwise_bound_check(F, u, scale, 2, n_samples=30, seed=seed),
        ):
            assert rep.passed, rep.to_json()
            assert rep.max_violation == -math.inf
            assert json.loads(rep.to_json())["max_violation"] is None


class TestDeterminism:
    def test_random_chaos_reproducible(self):
        a = random_chaos(2, 4, seed=77)
        b = random_chaos(2, 4, seed=77)
        assert a.coeffs == b.coeffs
        c = random_chaos(2, 4, seed=78)
        assert a.coeffs != c.coeffs

    def test_reports_byte_identical(self):
        F = random_chaos(2, 4, seed=5)
        r1 = embedding_check_51(F, EXP, SCALE, 2, 0, seed=5)
        r2 = embedding_check_51(F, EXP, SCALE, 2, 0, seed=5)
        assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
            r2.to_json_dict(), sort_keys=True
        )
