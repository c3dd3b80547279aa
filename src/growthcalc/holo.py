"""Desk-scale model of growth bounds for holomorphic chaos expansions.

The infinite-dimensional picture is replaced by C^d with a diagonal
scale: level-p norms weight coordinate j by lambda_j^p, and the
inclusion between levels p >= q has Hilbert-Schmidt norm
(sum lambda_j^(-2(p-q)))^(1/2) exactly.  Polynomials
F(xi) = sum_n <f_n, xi^(x)n> with symmetric coefficient tensors stand
in for S-transform expansions; they are entire, so holomorphy is free.

Two norm families live on these polynomials: the coefficient norm
||F||_{u,p} = (sum |f_n|_p^2 / ell_u(n))^(1/2) and the growth norm
|||F|||_{u,p} = sup |F(xi)| u(|xi|_{-p}^2)^(-1/2).  The supremum is not
exactly computable, so norm_g returns a documented lower bound from a
seeded multistart search; every check that uses it records which
direction of the inequality that approximation favours.  Every check
builds a legendre.Check record: log scale, positive max_violation
means violated.  series_chain_check returns the record's JSON dict.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .growthfn import GrowthFunction
from .legendre import Check, _Rows, _certified_logs, _coeff_logs
from .numerics import _INV_PHI2, PreconditionViolated, _brent_min, safe_exp


MAX_DIM = 8
MAX_DEGREE = 10

_CHAOS_SCHEMA = "growthcalc.chaos/1"
_TOL = 1e-9
_DYADIC_RHO = 0.5  # rho of the default dyadic model


@dataclass(frozen=True)
class NuclearScale:
    """Diagonal scale on C^d: |xi|_p is the Euclidean norm of
    (lambda_j^p xi_j).  Eigenvalues are nondecreasing and at least
    1/rho, which makes |xi|_q <= rho^(p-q) |xi|_p for q <= p."""

    eigenvalues: tuple[float, ...]
    rho: float

    def __post_init__(self):
        lams = tuple(float(v) for v in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", lams)
        if not 1 <= len(lams) <= MAX_DIM:
            raise ValueError(f"dimension must be between 1 and {MAX_DIM}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if any(b < a for a, b in zip(lams, lams[1:])):
            raise ValueError("eigenvalues must be nondecreasing")
        if lams[0] < 1.0 / self.rho - 1e-12:
            raise ValueError("smallest eigenvalue must be at least 1/rho")

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def weights(self, p: int) -> np.ndarray:
        """The diagonal (lambda_j^p); p may be negative."""
        return np.array(self.eigenvalues, dtype=float) ** p

    def weighted_norms(self, xis: np.ndarray, p: int) -> np.ndarray:
        """|xi|_p of every point along the last axis."""
        return np.sqrt(np.sum((np.abs(xis) * self.weights(p)) ** 2, axis=-1))


def dyadic_scale(dim: int) -> NuclearScale:
    """The default model: lambda_j = 2^j (so lambda_1 = 1/rho = 2)."""
    return NuclearScale(tuple(2.0 ** j for j in range(1, dim + 1)), _DYADIC_RHO)


def hs_norm(scale: NuclearScale, p: int, q: int) -> float:
    """Hilbert-Schmidt norm of the inclusion from level p into level q:
    (sum_j lambda_j^(-2(p-q)))^(1/2); sqrt(d) when p = q."""
    if q > p:
        raise ValueError("need q <= p")
    return float(np.sqrt(np.sum(scale.weights(2 * (q - p)))))


def _multiplicity(idx: tuple[int, ...]) -> int:
    m = math.factorial(len(idx))
    for _, group in itertools.groupby(idx):
        m //= math.factorial(sum(1 for _ in group))
    return m


@dataclass(frozen=True)
class ChaosPolynomial:
    """F(xi) = sum_n <f_n, xi^(x)n> with symmetric kernels f_n.

    Each kernel is stored once per sorted multi-index (0-based
    coordinate positions) as the common tensor entry; the multinomial
    multiplicity is applied on evaluation and in norms.
    """

    dim: int
    max_degree: int
    coeffs: Mapping[tuple[int, ...], complex]

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension must be between 1 and {MAX_DIM}")
        if not 0 <= self.max_degree <= MAX_DEGREE:
            raise ValueError(f"degree must be between 0 and {MAX_DEGREE}")
        clean = {}
        for idx, c in dict(self.coeffs).items():
            idx = tuple(int(i) for i in idx)
            if idx != tuple(sorted(idx)):
                raise ValueError(f"multi-index {idx} is not sorted")
            if len(idx) > self.max_degree:
                raise ValueError(f"multi-index {idx} exceeds the stated degree")
            if idx and not 0 <= idx[0] <= idx[-1] < self.dim:
                raise ValueError(f"multi-index {idx} is out of range")
            clean[idx] = complex(c)
        object.__setattr__(self, "coeffs", clean)
        # the one monomial table, ordered by degree (then by index), as
        # arrays: positions padded to max_degree with the index dim (a
        # unit coordinate), degrees, multiplicity * coefficient for the
        # evaluators, and multiplicity * |coefficient|^2 for the norms
        table = sorted(clean.items(), key=lambda t: (len(t[0]), t[0]))
        mults = np.array([_multiplicity(idx) for idx, _ in table], dtype=float)
        pad = lambda idx: idx + (self.dim,) * (self.max_degree - len(idx))
        # Python's abs is libm's hypot; numpy's complex abs rounds otherwise
        with np.errstate(over="ignore"):  # a |c| above 1e154 squares to inf
            sizes = mults * np.array([abs(c) for _, c in table], dtype=float) ** 2
        object.__setattr__(self, "_rays", (
            np.array([pad(idx) for idx, _ in table], dtype=np.intp)
            .reshape(len(table), self.max_degree),
            np.array([len(idx) for idx, _ in table], dtype=np.intp),
            mults * np.array([c for _, c in table], dtype=complex),
            sizes,
        ))

    def scaled(self, c: complex) -> "ChaosPolynomial":
        return ChaosPolynomial(
            self.dim, self.max_degree, {k: c * v for k, v in self.coeffs.items()}
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": _CHAOS_SCHEMA,
            "dim": self.dim,
            "N": self.max_degree,
            "coeffs": [
                {
                    "degree": len(idx),
                    "index": list(idx),
                    "re": self.coeffs[idx].real,
                    "im": self.coeffs[idx].imag,
                }
                for idx in sorted(self.coeffs)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ChaosPolynomial":
        if data.get("schema") != _CHAOS_SCHEMA:
            raise ValueError(f"expected schema {_CHAOS_SCHEMA}")
        coeffs = {
            tuple(entry["index"]): complex(entry["re"], entry.get("im", 0.0))
            for entry in data["coeffs"]
        }
        return cls(int(data["dim"]), int(data["N"]), coeffs)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "ChaosPolynomial":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def chaos_eval_batch(F: ChaosPolynomial, xis: np.ndarray) -> np.ndarray:
    """Evaluate F at each row of an (m, d) complex array: one product
    of coordinates per monomial of the table, over all rows at once."""
    xis = np.asarray(xis, dtype=complex)
    if xis.ndim != 2 or xis.shape[1] != F.dim:
        raise ValueError(f"expected an (m, {F.dim}) array")
    positions, degrees, weights, _ = F._rays
    coords = np.ascontiguousarray(xis.T)
    out = np.zeros(len(xis), dtype=complex)
    for pos, n, mc in zip(positions.tolist(), degrees.tolist(), weights.tolist()):
        out += mc * np.prod(coords[pos[:n]], axis=0)
    return out


def chaos_eval(F: ChaosPolynomial, xi: Sequence[complex]) -> complex:
    """Evaluate F at one point of C^d: plain complex arithmetic over
    F.coeffs, not the monomial table, so it can check the evaluators
    that read the table."""
    v = np.asarray(xi, dtype=complex)
    if v.shape != (F.dim,):
        raise ValueError(f"expected a vector of dimension {F.dim}")
    v = v.tolist()
    total = 0j
    for idx, c in F.coeffs.items():
        prod = _multiplicity(idx) * c
        for j in idx:
            prod *= v[j]
        total += prod
    return total


def random_chaos(dim: int, max_degree: int, seed: int) -> ChaosPolynomial:
    """Seeded polynomial with independent complex-Gaussian entries."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for n in range(max_degree + 1):
        for idx in itertools.combinations_with_replacement(range(dim), n):
            re, im = rng.normal(size=2)
            coeffs[idx] = complex(re, im)
    return ChaosPolynomial(dim, max_degree, coeffs)


def _coeff_norms(F: ChaosPolynomial, scale: NuclearScale, p: int) -> np.ndarray:
    """|f_n|_p for n = 0..N from the monomial table: each monomial's
    multiplicity * |coefficient|^2 times the product of its level-p
    weights lambda_j^(2p), summed per degree."""
    if scale.dim != F.dim:
        raise ValueError("scale and polynomial dimensions differ")
    positions, degrees, _, sizes = F._rays
    w = np.append(scale.weights(2 * p), 1.0)
    terms = sizes * np.prod(w[positions], axis=1)
    return np.sqrt(np.bincount(degrees, terms, minlength=F.max_degree + 1))


def coeff_norm(F: ChaosPolynomial, scale: NuclearScale, n: int, p: int) -> float:
    """|f_n|_p: Euclidean norm of the degree-n kernel under the level-p
    weights, with multiplicities restoring the full symmetric tensor;
    0 for a degree F does not have."""
    return float(_coeff_norms(F, scale, p)[n]) if 0 <= n <= F.max_degree else 0.0


def norm_k(F: ChaosPolynomial, u: GrowthFunction, scale: NuclearScale, p: int) -> float:
    """The coefficient norm (sum_n |f_n|_p^2 / ell_u(n))^(1/2).  The
    transform is read only up to the highest nonzero kernel."""
    norms = _coeff_norms(F, scale, p)
    nonzero = np.flatnonzero(norms)
    if not nonzero.size:
        return 0.0
    log_ell = _coeff_logs(u, int(nonzero[-1]), "l")[nonzero]
    with np.errstate(over="ignore"):
        return math.sqrt(float(np.sum(norms[nonzero] ** 2 * np.exp(-log_ell))))


class GNormResult(NamedTuple):
    """Best found value of sup |F(xi)| u(|xi|_{-p}^2)^(-1/2); a lower
    bound of the true supremum."""

    lower_bound: float
    argsup: tuple[complex, ...]


# random directions of norm_g's first round, beside the d coordinate axes
_MULTISTART = 32
_RADIUS_POINTS = 128
_JITTER_ROUNDS = ((0.25, 16), (0.06, 16), (0.015, 16), (0.004, 16))


# monomial factors the ray evaluator gathers at once per direction
# (64 KB of complex values each)
_RAY_CELLS = 4096


def _ray_coeffs(F: ChaosPolynomial, dirs: np.ndarray) -> np.ndarray:
    """The homogeneous parts of F at each row of dirs: column n holds
    P_n(dir), so F(s dir) = sum_n P_n(dir) s^n along every ray.  One
    pass over the table's monomials in blocks: each monomial's product
    of coordinates, left to right, then a sum per degree."""
    positions, degrees, weights, _ = F._rays
    ext = np.concatenate([dirs, np.ones((len(dirs), 1))], axis=1)
    parts = np.zeros((len(dirs), F.max_degree + 1), dtype=complex)
    step = _RAY_CELLS // max(1, F.max_degree)
    for lo in range(0, len(weights), step):
        block = slice(lo, lo + step)
        terms = weights[block] * np.prod(ext[:, positions[block]], axis=2)
        starts = np.flatnonzero(np.diff(degrees[block], prepend=-1))
        parts[:, degrees[block][starts]] += np.add.reduceat(terms, starts, axis=1)
    return parts


def norm_g(
    F: ChaosPolynomial,
    u: GrowthFunction,
    scale: NuclearScale,
    p: int,
    seed: int = 0,
) -> GNormResult:
    """Multistart lower bound for the growth norm |||F|||_{u,p}.

    The coordinate axes and _MULTISTART random directions start the
    search, then rounds of jitter around the best direction refine it.
    Directions are drawn on the complex sphere, normalized in the
    level -p norm so every ray shares one weight profile.  Along a ray
    F is a polynomial in the radius s, so each round of rays is scored
    from its homogeneous parts: one pass over the monomials per round,
    then one product with the powers of a geometric radius grid.  The
    best cell is polished along its ray by Horner's rule on the same
    coefficients.  Deterministic for a fixed seed.  The returned value
    never exceeds the true supremum; how far below it lands depends on
    the landscape, which is why callers that need an upper proxy apply
    a recorded inflation factor.
    """
    if scale.dim != F.dim:
        raise ValueError("scale and polynomial dimensions differ")
    rng = np.random.default_rng(seed)
    d = F.dim
    w = scale.weights(-p)

    def normalize(dirs: np.ndarray) -> np.ndarray:
        norms = np.sqrt(np.sum((np.abs(dirs) * w) ** 2, axis=1))
        keep = norms > 0
        return dirs[keep] / norms[keep, None]

    radii = np.geomspace(1e-3, 1e3, _RADIUS_POINTS)
    powers = radii ** np.arange(F.max_degree + 1)[:, None]
    # one shared weight column: |s * dir|_{-p} = s for normalized dir
    half_log_u = 0.5 * u.log_many(radii ** 2)

    def scan(dirs: np.ndarray) -> tuple[float, np.ndarray, float, np.ndarray]:
        # every (direction, radius) cell from the rays' coefficients;
        # the flat argmax picks the first direction, then the first
        # radius, with the best score, and a NaN score counts as -inf
        coeffs = _ray_coeffs(F, dirs)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            score = np.log(np.abs(coeffs @ powers)) - half_log_u
        score[np.isnan(score)] = -math.inf
        i, j = np.unravel_index(int(np.argmax(score)), score.shape)
        return float(score[i, j]), dirs[i], float(radii[j]), coeffs[i]

    starts = [np.eye(d, dtype=complex), rng.normal(size=(_MULTISTART, 2 * d)).view(complex)]
    best_score, best_dir, best_s, best_coeffs = scan(normalize(np.concatenate(starts)))
    for sigma, count in _JITTER_ROUNDS:
        jitter = rng.normal(size=(count, 2 * d)).view(complex)
        cand = normalize(best_dir[None, :] + sigma * jitter)
        if cand.size:
            sc = scan(cand)
            if sc[0] > best_score:
                best_score, best_dir, best_s, best_coeffs = sc

    # Brent refinement of the radius along the best ray, from its
    # interval's golden point
    horner = best_coeffs[::-1].tolist()

    def along(log_s: float) -> float:
        s = math.exp(log_s)
        val = 0j
        for c in horner:
            val = val * s + c
        val = abs(val)
        if val == 0.0:
            return math.inf
        return -(math.log(val) - 0.5 * u.log_at(s * s))

    step = math.log(radii[1] / radii[0])
    lo, hi = math.log(best_s) - step, math.log(best_s) + step
    ls = lo + _INV_PHI2 * (hi - lo)
    ls, neg = _brent_min(along, lo, hi, ls, along(ls), math.inf, math.inf)
    if -neg > best_score:
        best_score, best_s = -neg, math.exp(ls)

    candidates = [(safe_exp(best_score), tuple(best_s * best_dir))]
    if u.defined_at_zero:
        candidates.append(
            (abs(F.coeffs.get((), 0j)) * safe_exp(-0.5 * u.log_u0), (0.0 + 0.0j,) * d)
        )
    value, arg = max(candidates, key=lambda t: t[0])
    return GNormResult(float(value), tuple(complex(z) for z in arg))


@dataclass(frozen=True)
class BoundParams:
    """Constants of a pointwise growth bound |F| <= K u(a |.|^2)^(1/2)
    held at level p, pushed down to level q."""

    K: float
    a: float
    p: int
    q: int

    def __post_init__(self):
        if self.K < 0 or self.a < 0:
            raise ValueError("K and a must be nonnegative")
        if self.q > self.p:
            raise ValueError("need q <= p")


def _log(x: float) -> float:
    """log x, with a zero magnitude at -inf."""
    return math.log(x) if x > 0.0 else -math.inf


def coeff_bound_check(
    F: ChaosPolynomial,
    u: GrowthFunction,
    scale: NuclearScale,
    params: BoundParams,
) -> Check:
    """Check the coefficient decay implied by a pointwise growth bound:
    |f_n|_q^2 <= K^2 (a e^2 HS^2)^n ell_u(n) at every degree n, one row
    per degree, log scale.

    The caller vouches for K (typically an inflated norm_g value, since
    only a lower bound of the true supremum is computable); violations
    are reported as findings, not raised.
    """
    hs = hs_norm(scale, params.p, params.q)
    factor = params.a * math.e ** 2 * hs ** 2
    norms = _coeff_norms(F, scale, params.q).tolist()
    log_ell = _coeff_logs(u, F.max_degree, "l").tolist()
    acc = _Rows()
    for n in range(F.max_degree + 1):
        lhs = 2.0 * _log(norms[n])
        rhs = 2.0 * _log(params.K) + _log(factor ** n) + log_ell[n]
        acc.ineq(n, lhs, rhs, n=n)
    return acc.check(
        "coeff-bound",
        {"K": params.K, "a": params.a, "p": params.p, "q": params.q, "hs": hs},
        {"n_max": F.max_degree},
        _TOL,
    )


def _one_comparison(name: str, x: str, lhs: float, rhs: float, params: dict) -> Check:
    """The record of the single comparison lhs <= rhs of two norms."""
    acc = _Rows()
    lhs, rhs = _log(lhs), _log(rhs)
    acc.ineq(x, lhs, rhs, lhs=lhs, rhs=rhs)
    return acc.check(name, params, {}, _TOL)


_INFLATION = 1.05


def embedding_check_51(
    F: ChaosPolynomial,
    u: GrowthFunction,
    scale: NuclearScale,
    p: int,
    q: int,
    seed: int = 0,
    g_value: Optional[float] = None,
) -> Check:
    """Coefficient norm at level q against the growth norm at level p:
    one row "p:q", log scale.

    Valid when the inclusion between the levels has HS norm at most
    1/e.  The right side rests on a lower bound of the supremum, so it
    is inflated by a recorded factor; a failure with the inflated value
    is a genuine finding, a pass means no violation was detectable.
    """
    hs = hs_norm(scale, p, q)
    if hs > math.exp(-1.0) + 1e-12:
        raise PreconditionViolated(
            f"HS norm {hs:.4f} between levels {p} and {q} exceeds 1/e"
        )
    constant = (1.0 - math.e ** 2 * hs ** 2) ** -0.5
    g = g_value if g_value is not None else norm_g(F, u, scale, p, seed).lower_bound
    return _one_comparison(
        "embedding-51", f"{p}:{q}", norm_k(F, u, scale, q), constant * _INFLATION * g,
        {"p": p, "q": q, "hs": hs, "constant": constant, "g_lower_bound": g,
         "inflation": _INFLATION},
    )


def embedding_check_52(
    F: ChaosPolynomial,
    u: GrowthFunction,
    scale: NuclearScale,
    p: int,
    seed: int = 0,
) -> Check:
    """Growth norm one level down against the coefficient norm at p:
    one row "p-1:p", log scale.

    The left side is the norm_g lower bound, which is the conservative
    side here: any reported violation is real, and the check cannot be
    fooled into failing by the approximation.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    if u.log_exp_convex is False:
        raise PreconditionViolated(f"{u.name} is flagged non-convex in (log, exp)")
    constant = math.sqrt(math.e) / math.sqrt(
        2.0 * scale.rho ** 2 * math.log(1.0 / scale.rho)
    )
    return _one_comparison(
        "embedding-52", f"{p - 1}:{p}",
        norm_g(F, u, scale, p - 1, seed).lower_bound,
        constant * norm_k(F, u, scale, p),
        {"p": p, "rho": scale.rho, "constant": constant, "lhs_is_lower_bound": True},
    )


def _sampled_check(name: str, params: dict, v: np.ndarray, sides: tuple, seed: int) -> Check:
    """The record of a sampled check from its (sides, samples) matrix of
    log-scale violations: the array maximum (NaN ranks highest), the
    first sample and side attaining it, and each side's maximum; the
    samples are kept as no rows."""
    i, j = divmod(int(np.argmax(v)), v.shape[1])
    witness = {"sample": j, "side": sides[i]}
    witness.update(zip(sides, v.max(axis=1).tolist()))
    acc = _Rows()
    acc.worse(float(v[i, j]), witness, v.shape[1])
    return acc.check(name, params, {"samples": v.shape[1], "seed": seed}, _TOL)


def _samples(dim: int, n_samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    sigmas = np.array([0.3, 1.0, 3.0])[np.arange(n_samples) % 3]
    return rng.normal(size=(n_samples, 2 * dim)).view(complex) * sigmas[:, None]


# the dilation a of the pointwise bound, recorded in its params
_POINTWISE_A = 1.0


def pointwise_bound_check(
    F: ChaosPolynomial,
    u: GrowthFunction,
    scale: NuclearScale,
    p: int,
    n_samples: int = 1000,
    seed: int = 0,
) -> Check:
    """Verify |F(xi)| <= sqrt(2) e K u(2 e a^2 |xi|^2)^(1/2) (side "u")
    and the intermediate |F(xi)| <= sqrt(2) K L_u(2 a^2 |xi|^2)^(1/2)
    (side "series") at seeded complex samples, with K fitted from the
    coefficients as the smallest constant with
    |f_n|_p <= K a^n ell_u(n)^(1/2).  A sample where F vanishes
    violates nothing, also when K = 0.  a is _POINTWISE_A.

    The fit reads every |f_n|_p and log ell_u(n) at once, and all
    samples are evaluated at once: one batch evaluation of F and one
    batched L_u call over every radius, whose tail certificate is built
    once per stored profile window rather than per radius."""
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    a = _POINTWISE_A
    half_log_ell = 0.5 * _coeff_logs(u, F.max_degree, "l")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        fit = _coeff_norms(F, scale, p) / (a ** np.arange(F.max_degree + 1) * np.exp(half_log_ell))
    # a NaN ratio (0/0) constrains nothing
    K = float(np.fmax.reduce(fit, initial=0.0))
    xis = _samples(F.dim, n_samples, seed)
    arg = 2.0 * a * a * scale.weighted_norms(xis, -p) ** 2
    log_k = _log(K)
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = np.log(np.abs(chaos_eval_batch(F, xis)))
        bounds = np.stack([
            0.5 * math.log(2.0) + 1.0 + log_k + 0.5 * u.log_many(math.e * arg),
            0.5 * math.log(2.0) + log_k + 0.5 * _certified_logs(u, np.log(arg), "l"),
        ])
        v = np.where(lhs == -math.inf, -math.inf, lhs - bounds)
    return _sampled_check(
        "pointwise", {"K": K, "a": a, "p": p}, v, ("u", "series"), seed
    )


def series_chain_check(
    u: GrowthFunction,
    scale: NuclearScale,
    p: int,
    n_samples: int = 200,
    seed: int = 0,
) -> dict:
    """Sampled check of the norm-shift chain: L_u at |xi|_{-p}^2 is at
    most L_u at rho^2 |xi|_{-p+1}^2 (link "shift"), which is at most
    e/(2 rho^2 log(1/rho)) u(|xi|_{-p+1}^2) (link "u").

    Both L_u arguments of every sample go through one batched call,
    whose tail certificate is built once per stored profile window.
    Returns the record's JSON dict with "passed" added."""
    if p < 1:
        raise ValueError("need p >= 1")
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    xis = _samples(scale.dim, n_samples, seed)
    rho = scale.rho
    const = 1.0 - math.log(2.0 * rho ** 2 * math.log(1.0 / rho))
    r_lo = scale.weighted_norms(xis, -p) ** 2
    r_hi = scale.weighted_norms(xis, -p + 1) ** 2
    # L_u at both arguments of every sample in one batch
    with np.errstate(divide="ignore"):
        first, mid = _certified_logs(
            u, np.log(np.concatenate([r_lo, rho ** 2 * r_hi])), "l"
        ).reshape(2, -1)
    last = const + u.log_many(r_hi)
    rec = _sampled_check(
        "series-chain", {"p": p, "rho": rho}, np.stack([first - mid, mid - last]),
        ("shift", "u"), seed,
    )
    return dict(rec.to_json_dict(), passed=rec.passed)
