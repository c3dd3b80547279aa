"""Command-line front end for the growth-function calculus.

Subcommands cover sequence generation and condition checking, growth
function evaluation and classification, the Legendre-type transforms
(ell, theta, dual, L, L#), equivalence testing, the named verification
suites, and the finite-dimensional embedding model.

Reports go to stdout as JSON (one object, sorted keys — byte-identical
for the same argv and seed), CSV (grid reports flattened to
x,lhs,rhs,slack rows), or indented text.  Exit codes: 0 success/pass,
1 verdict failure, counterexample, or numeric no-certificate, 2 usage
or input error.

At module level only the standard library and ``numerics`` (which loads
no numpy) are imported; each handler imports the library modules it
calls when it runs.  A ``--cache-dir`` replay therefore answers before
the numeric stack loads, and a computed answer loads only what its
command needs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Optional

from .numerics import (
    LOG_ZERO,
    BadTolerance,
    NoDecayCertificate,
    NotBracketable,
    PreconditionViolated,
    env_rel_tol,
    strict_json,
)

if TYPE_CHECKING:
    from .growthfn import GrowthFunction
    from .sequences import PositiveSequence

_KERNEL_ERRORS = (NoDecayCertificate, NotBracketable, PreconditionViolated)

# the suite tags and condition names the parser offers, spelled out so that
# building it imports no library module; tests pin them to
# legendre.suite_tags() and sequences.CONDITIONS
_SUITE_TAGS = ("a4", "involution", "ks-sandwich", "lem-a1", "lem-a2", "lem35",
               "stirling", "thm31-lower", "thm31-upper", "thm42", "thm43")
_CONDITIONS = ("A1", "A2", "A2t", "B1", "B1t", "B2", "B2t", "B3", "C1", "C2", "C3")

_EXP_CAP = 700.0


class _UsageError(Exception):
    """Input problem attributable to a specific flag; exits with 2."""


class _Result:
    def __init__(self, report: dict, exit_code: int = 0, rows=None):
        self.report = report
        self.exit_code = exit_code
        self.rows = rows or []


def _verdict_result(record, verdict: bool, **cli_keys) -> _Result:
    """A verdict record's report: its own fields, plus the keys the
    command adds (the verdict, the function's name, the kind checked);
    exit 0 when the record's verdict holds, else 1."""
    return _Result({**dataclasses.asdict(record), **cli_keys}, 0 if verdict else 1)


# ---------------------------------------------------------------------------
# function construction from flags


def _build_function(args, prefix: str = "") -> GrowthFunction:
    from .growthfn import load_registry, make_growth_function

    get = lambda name: getattr(args, prefix + name, None)
    registry = getattr(args, "registry", None)
    name = get("name")
    if name is not None:
        if registry is None:
            raise _UsageError(f"--{prefix.replace('_', '-')}name needs --registry")
        try:
            table = load_registry(registry)
        except (OSError, ValueError, KeyError) as exc:
            raise _UsageError(f"--registry: {exc}") from exc
        if name not in table:
            known = ", ".join(sorted(table))
            raise _UsageError(
                f"--{prefix.replace('_', '-')}name: {name!r} not in registry"
                f" (has: {known})"
            )
        return table[name]
    family = get("family")
    if family is None:
        raise _UsageError(f"--{prefix.replace('_', '-')}family is required")
    params = {}
    for key, flag in (("beta", "beta"), ("a", "a"), ("k", "k"), ("p", "power"),
                      ("file", "file")):
        val = get(flag)
        if val is not None:
            params[key] = val
    try:
        return make_growth_function(family, params)
    except (ValueError, OSError) as exc:
        raise _UsageError(f"--{prefix.replace('_', '-')}family: {exc}") from exc


def _add_function_flags(parser, prefix: str = ""):
    dash = prefix.replace("_", "-")
    parser.add_argument(
        f"--{dash}family",
        help="growth-function family: exp, ks, power-exp, expk, gaussian,"
        " bump, log-square, polynomial, series",
    )
    parser.add_argument(f"--{dash}beta", type=float, help="ks family shape")
    parser.add_argument(f"--{dash}a", type=float, help="power-exp exponent scale")
    parser.add_argument(f"--{dash}k", type=int, help="expk iteration count")
    parser.add_argument(f"--{dash}power", type=float, help="polynomial degree")
    parser.add_argument(f"--{dash}file", help="series family: stored sequence file")
    parser.add_argument(
        f"--{dash}name", help="registry entry name (with --registry)"
    )


def _build_sequence(args, prefix: str = "") -> PositiveSequence:
    from .sequences import (
        GEN_BELL_MAX_N, PositiveSequence, from_legendre, gen_bell, gen_power_factorial,
    )

    get = lambda name: getattr(args, prefix + name, None)
    path = get("file")
    if path is not None:
        try:
            return PositiveSequence.load(path)
        except (OSError, ValueError, KeyError) as exc:
            raise _UsageError(f"--{prefix.replace('_', '-')}file: {exc}") from exc
    family = get("family")
    n_max = get("n") if get("n") is not None else 25
    dash = prefix.replace("_", "-")
    if n_max < 0:
        raise _UsageError(f"--{dash}n must be nonnegative")
    if family == "bell":
        if n_max > GEN_BELL_MAX_N:
            raise _UsageError(f"--{dash}n must be at most {GEN_BELL_MAX_N} for bell")
        order = get("order") if get("order") is not None else 2
        if order < 1:
            raise _UsageError(f"--{dash}order must be at least 1")
        return gen_bell(order, n_max)
    if family == "power-factorial":
        beta = get("beta") if get("beta") is not None else 0.0
        if not 0.0 <= beta < 1.0:
            raise _UsageError(f"--{dash}beta must be in [0, 1)")
        return gen_power_factorial(beta, n_max)
    if family == "legendre":
        return from_legendre(_build_function(args, prefix + "fn_"), n_max)
    raise _UsageError(
        f"--{dash}family must be bell, power-factorial, or legendre"
        f" (got {family!r})"
    )


def _add_sequence_flags(parser, prefix: str = ""):
    dash = prefix.replace("_", "-")
    parser.add_argument(
        f"--{dash}family", help="sequence family: bell, power-factorial, legendre"
    )
    parser.add_argument(f"--{dash}order", type=int, help="bell order k")
    parser.add_argument(f"--{dash}beta", type=float, help="power-factorial exponent")
    parser.add_argument(f"--{dash}n", type=int, help="largest index to generate")
    parser.add_argument(f"--{dash}file", help="load a stored sequence instead")
    _add_function_flags(parser, prefix + "fn_")


def _seq_report(seq: PositiveSequence) -> dict:
    report = seq.to_json_dict()
    if seq.exact is not None and all(f.denominator == 1 for f in seq.exact):
        report["values"] = [int(f) for f in seq.exact]
    return report


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_seq_gen(args) -> _Result:
    seq = _build_sequence(args)
    if args.out:
        seq.save(args.out)
    report = _seq_report(seq)
    rows = [
        {"x": n, "lhs": la, "rhs": "", "slack": ""}
        for n, la in enumerate(report["log_alpha"])
    ]
    return _Result(report, 0, rows)


def _cmd_seq_check(args) -> _Result:
    from .sequences import check_condition

    if args.search_cap is not None and args.search_cap < 0:
        raise _UsageError("--search-cap must be nonnegative")
    seq = _build_sequence(args)
    verdict = check_condition(seq, args.condition, search_cap=args.search_cap)
    return _verdict_result(verdict, verdict.holds)


def _cmd_seq_equiv(args) -> _Result:
    from .sequences import seq_equivalent

    a = _build_sequence(args, "a_")
    b = _build_sequence(args, "b_")
    res = seq_equivalent(a, b)
    return _verdict_result(res, res.ok, equivalent=res.ok)


def _cmd_fn_classify(args) -> _Result:
    from .growthfn import check_increasing, classify_convexity, membership

    u = _build_function(args)
    if args.kind in ("increasing", "c-plus-log", "c-plus-j"):
        if args.kind == "c-plus-j" and not 0.0 < args.j < math.inf:
            raise _UsageError("--j must be a finite positive number")
        v = check_increasing(u) if args.kind == "increasing" else membership(u, args.kind, j=args.j)
        return _verdict_result(v, v.holds, name=u.name, kind=args.kind)
    if args.kind is not None:
        if args.kind == "log-xk-convex" and args.xk < 1:
            raise _UsageError("--xk must be at least 1")
        v = classify_convexity(u, args.kind, k=args.xk)
        return _verdict_result(v, v.passes, name=u.name)
    inc = check_increasing(u)
    lec = classify_convexity(u, "log-exp-convex")
    lx2 = classify_convexity(u, "log-xk-convex", k=2)
    mem = membership(u, "c-plus-log")
    report = {
        "name": u.name,
        "family": u.family,
        "increasing": inc.status,
        "log_exp_convex": lec.status,
        "log_x2_convex": lx2.status,
        "c_plus_log": mem.status,
        "declared": {
            "increasing": u.increasing,
            "log_exp_convex": u.log_exp_convex,
            "log_x2_convex": u.log_x2_convex,
            "in_c_plus_log": u.in_c_plus_log,
        },
    }
    return _Result(report, 0)


def _exp_or_none(log_v: float) -> Optional[float]:
    return math.exp(log_v) if log_v < _EXP_CAP else None


def _log_r(r: float) -> float:
    return math.log(r) if r > 0 else LOG_ZERO


def _at_fn_eval(u, r, args):
    log_u = u.log_at(r)
    report = {"name": u.name, "family": u.family, "r": r, "log_u": log_u,
              "u": _exp_or_none(log_u)}
    return report, log_u, "", ""


def _at_ell(u, t, args):
    from .legendre import ell

    point = ell(u, t)
    report = {"log_ell": point.log_ell.log, "rho": point.rho}
    if point.boundary is not None:
        report["boundary"] = point.boundary
    return report, point.log_ell.log, "", ""


def _at_dual(u, r, args):
    from .legendre import dual

    log_dual = dual(u, r).log
    return {"r": r, "log_dual": log_dual, "dual": _exp_or_none(log_dual)}, log_dual, "", ""


def _at_series(series: str, key: str, u, r, args):
    from . import legendre  # looked up per call: a tracer may wrap it

    log_s = getattr(legendre, series)(u, _log_r(r), rel_tol=args.rel_tol).log
    return {"r": r, key: log_s}, log_s, "", ""


def _at_theta(u, r, args):
    from .legendre import ell_profile, inverse_legendre

    log_theta = inverse_legendre(ell_profile(u), r).log
    log_u = u.log_at(r)
    report = {"r": r, "log_theta": log_theta, "log_u": log_u,
              "residual": log_theta - log_u}
    return report, log_theta, log_u, -abs(log_theta - log_u)


# one-point commands: (group, name, help, argument, takes --rel-tol,
# evaluation returning the report and the CSV row's lhs, rhs, slack)
_ONE_POINT = (
    ("fn", "eval", "evaluate u(r) in log scale", "r", False, _at_fn_eval),
    (None, "ell", "Legendre transform ell_u(t) = inf_r u(r)/r^t with its minimizer"
     " rho(t)", "t", False, _at_ell),
    (None, "dual", "dual function u*(r) = sup_s exp(2 sqrt(rs))/u(s)", "r", False,
     _at_dual),
    (None, "lfn", "L-function L_u(r) = sum_n ell_u(n) r^n", "r", True,
     functools.partial(_at_series, "l_function", "log_l")),
    (None, "lsharp", "L#-function: sum_n r^n/(ell_u(n) (n!)^2)", "r", True,
     functools.partial(_at_series, "l_sharp", "log_lsharp")),
    (None, "theta", "inverse transform theta at the transform of u: sup_t ell_u(t) r^t,"
     " which recovers u(r)", "r", False, _at_theta),
)


def _cmd_one_point(point: str, evaluate, args) -> _Result:
    u = _build_function(args)
    x = getattr(args, point)
    if x < 0:
        raise _UsageError(f"--{point} must be nonnegative")
    if not math.isfinite(x):
        raise _UsageError(f"--{point} must be finite")
    report, lhs, rhs, slack = evaluate(u, x, args)
    return _Result(report, 0, [{"x": x, "lhs": lhs, "rhs": rhs, "slack": slack}])


def _cmd_equiv(args) -> _Result:
    from .legendre import function_equivalent

    if not 0.0 <= args.r_min < math.inf:
        raise _UsageError("--r-min must be finite and nonnegative")
    if not args.r_min < args.r_max < math.inf:
        raise _UsageError("--r-max must be finite and above --r-min")
    if args.points < 2:
        raise _UsageError("--points must be at least 2")
    u = _build_function(args, "a_")
    v = _build_function(args, "b_")
    res = function_equivalent(u, v, (args.r_min, args.r_max), points=args.points)
    return _verdict_result(res, res.ok, equivalent=res.ok)


# the verify flags: (flag, suite parameter, type, help)
_VERIFY_PARAM_FLAGS = (
    ("nmax", "n_max", int, "largest index"),
    ("tmax", "t_max", int, "largest transform argument"),
    ("family", "family", None, "growth-function family override"),
    ("beta", "beta", float, None),
    ("k", "k", float, None),
    ("a", "a", float, None),
    ("order", "order", int, None),
    ("rmin", "r_min", float, None),
    ("rmax", "r_max", float, None),
    ("points", "points", int, None),
    ("tol", "tol", float, "tolerance override for the verdict (env GROWTHCALC_TOL)"),
)


def _cmd_verify(args) -> _Result:
    from .legendre import verify_suite

    given = {key: getattr(args, flag) for flag, key, _, _ in _VERIFY_PARAM_FLAGS}
    params = {key: val for key, val in given.items() if val is not None}
    try:
        report = verify_suite(args.suite, params)
    except ValueError as exc:
        raise _UsageError(f"--suite: {exc}") from exc
    return _Result(report.to_json_dict(), 0 if report.passed else 1,
                   list(report.rows))


def _cmd_holo_check(args) -> _Result:
    p, q = args.p, args.q
    if q >= p:
        raise _UsageError("--q must be below --p")
    # an empty population or sample set would check nothing and pass
    if args.count < 1 and not args.chaos_file:
        raise _UsageError("--count must be positive")
    if args.samples < 1:
        raise _UsageError("--samples must be positive")
    from .growthfn import make_growth_function
    from .holo import (
        MAX_DEGREE,
        MAX_DIM,
        BoundParams,
        ChaosPolynomial,
        coeff_bound_check,
        dyadic_scale,
        embedding_check_51,
        embedding_check_52,
        norm_g,
        pointwise_bound_check,
        random_chaos,
        series_chain_check,
    )

    if not 1 <= args.dim <= MAX_DIM:
        raise _UsageError(f"--dim must be between 1 and {MAX_DIM}")
    if not 0 <= args.degree <= MAX_DEGREE:
        raise _UsageError(f"--degree must be between 0 and {MAX_DEGREE}")
    u = _build_function(args) if args.family or args.name else make_growth_function("exp")
    scale = dyadic_scale(args.dim)
    if args.chaos_file:
        try:
            polys = [(args.chaos_file, ChaosPolynomial.load(args.chaos_file))]
        except (OSError, ValueError, KeyError) as exc:
            raise _UsageError(f"--chaos-file: {exc}") from exc
        if polys[0][1].dim != args.dim:
            raise _UsageError(f"--dim must be the --chaos-file dimension {polys[0][1].dim}")
    else:
        polys = [
            (args.seed + i, random_chaos(args.dim, args.degree, seed=args.seed + i))
            for i in range(args.count)
        ]
    dicts, rows = [], []
    for label, F in polys:
        seed = label if isinstance(label, int) else args.seed
        g = norm_g(F, u, scale, p, seed=seed).lower_bound
        for rec in (
            embedding_check_51(F, u, scale, p, q, seed=seed, g_value=g),
            embedding_check_52(F, u, scale, max(1, p - 1), seed=seed),
            coeff_bound_check(F, u, scale, BoundParams(K=1.05 * g, a=1.0, p=p, q=q)),
            pointwise_bound_check(F, u, scale, p, n_samples=args.samples, seed=seed),
        ):
            dicts.append(rec.to_json_dict())
            rows += [dict(row, x=f"{label}/{rec.name}/{row['x']}") for row in rec.rows]
    dicts.append(series_chain_check(u, scale, max(1, p - 1), seed=args.seed))
    # per check: passed = all, max_violation = max; a null max_violation
    # is -inf on a pass and +inf or NaN on a fail
    checks = {}
    for d in dicts:
        passed = d["verdict"] == "pass"
        v = d["max_violation"]
        v = v if v is not None else (-math.inf if passed else math.inf)
        entry = checks.setdefault(d["suite"], {"passed": True, "max_violation": -math.inf})
        entry["passed"] = entry["passed"] and passed
        entry["max_violation"] = max(entry["max_violation"], v)
    all_pass = all(entry["passed"] for entry in checks.values())
    report = {
        "model": {
            "dim": args.dim,
            "eigenvalues": list(scale.eigenvalues),
            "rho": scale.rho,
            "degree": args.degree,
        },
        "u": u.name,
        "count": len(polys),
        "levels": {"p": p, "q": q},
        "seed": args.seed,
        "samples": args.samples,
        "checks": checks,
        "passed": all_pass,
    }
    return _Result(report, 0 if all_pass else 1, rows)


# ---------------------------------------------------------------------------
# rendering, caching, dispatch


def _render(result: _Result, fmt: str) -> str:
    if fmt == "json":
        return strict_json(result.report) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "lhs", "rhs", "slack"])
        if result.rows:
            for row in result.rows:
                writer.writerow([row["x"], row["lhs"], row["rhs"], row["slack"]])
        else:
            for key in sorted(result.report):
                writer.writerow([key, strict_json(result.report[key]), "", ""])
        return buf.getvalue()
    lines = []
    for key in sorted(result.report):
        val = result.report[key]
        if isinstance(val, (dict, list, tuple)):
            val = strict_json(val)
        lines.append(f"{key}: {val}")
    return "\n".join(lines) + "\n"


def _source_hash() -> str:
    """sha256 over the package's own .py sources: editing any of them
    retires every cache entry written before the edit."""
    here = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                data = fh.read()
            digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def _series_files(registry: str, data: bytes) -> list:
    """The files that the registry's "series" entries load; none when
    the registry does not parse (its handler reports it)."""
    try:
        if registry.endswith(".toml"):
            import tomllib

            raw = tomllib.loads(data.decode())
        else:
            raw = json.loads(data)
        return [
            entry["params"]["file"]
            for entry in raw.values()
            if entry.get("family") == "series" and "file" in (entry.get("params") or {})
        ]
    except (ImportError, ValueError, TypeError, AttributeError, KeyError):
        return []


def _cache_key(args) -> Optional[str]:
    """sha256 over the parsed arguments, GROWTHCALC_TOL (the default
    tolerance of every series sum), the package sources and the bytes of
    every input file the call reads (--registry, the files its series
    entries load and each --*file flag); None when such a file cannot be
    read, so the call skips the cache and its handler reports the file."""
    payload = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "cache_dir") and v is not None
    }
    files = [(k, path) for k, path in payload.items() if k == "registry" or k.endswith("file")]
    inputs = {}
    for k, path in files:  # grows by the registry's series files
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        inputs[k] = hashlib.sha256(data).hexdigest()
        if k == "registry":
            files += [(f"registry:{name}", name) for name in _series_files(path, data)]
    blob = json.dumps({"args": payload, "inputs": inputs, "sources": _source_hash(),
                       "tol": env_rel_tol()}, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _replay(path: str) -> Optional[tuple[str, int]]:
    """The stored (output, exit code), or None when the entry is missing,
    unreadable, truncated or ill-typed: a miss, which rewrites it."""
    try:
        with open(path) as fh:
            stored = json.load(fh)
        output, code = stored["output"], stored["exit"]
    except (OSError, ValueError, TypeError, KeyError):
        return None
    if not isinstance(output, str) or type(code) is not int or code not in (0, 1):
        return None
    return output, code


def _store(path: str, output: str, code: int) -> None:
    """Write the entry to a temp file in the cache dir, then os.replace
    it into place: a concurrent reader sees no entry or a whole one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump({"output": output, "exit": code}, fh)
        os.replace(tmp, path)
    except OSError:
        # an unwritable cache costs a later call a recompute, not this
        # call its answer
        if os.path.exists(tmp):
            os.remove(tmp)


def _run_with_cache(args) -> tuple[str, int]:
    cache_dir = getattr(args, "cache_dir", None)
    key = None
    if cache_dir is not None and not getattr(args, "out", None):
        key = _cache_key(args)
    if key is not None:
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            raise _UsageError(f"--cache-dir {cache_dir!r} is not a usable directory: "
                              f"{exc.strerror or exc}") from exc
        path = os.path.join(cache_dir, key + ".json")
        stored = _replay(path)
        if stored is not None:
            return stored
    try:
        result, fmt = args.func(args), args.format
    except _KERNEL_ERRORS as exc:
        # a kernel refusal is a report like any other (always JSON, exit
        # 1) and is cached as one; usage errors propagate uncached
        result = _Result({"error": type(exc).__name__, "detail": str(exc)}, 1)
        fmt = "json"
    output = _render(result, fmt)
    if key is not None:
        _store(path, output, result.exit_code)
    return output, result.exit_code


def _common(parser, registry: bool = True):
    """Flags of every subcommand; --registry only where growth functions
    are built from flags (everywhere but verify)."""
    parser.add_argument(
        "--format", choices=("json", "csv", "pretty"), default="json",
        help="report rendering (default json)",
    )
    if registry:
        parser.add_argument("--registry", help="function registry file (JSON)")
    parser.add_argument("--cache-dir",
                        help="reuse reports when inputs hash-match")


def _sub(group, name: str, text: str):
    """Subparser whose one-line listing and own help page say the same
    thing: the object the subcommand computes."""
    return group.add_parser(name, help=text, description=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthcalc",
        description="Calculus of growth functions: Legendre-type transforms,"
        " duality, series functions, convexity classification, and"
        " verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = _sub(sub, "seq", "positive sequences alpha(n)")
    seq_sub = seq.add_subparsers(dest="subcommand", required=True)

    p = _sub(
        seq_sub, "gen",
        "generate a sequence: Bell numbers of order k, n!^beta, or"
        " Legendre transform weights 1/(n! ell_u(n))",
    )
    _add_sequence_flags(p)
    p.add_argument("--out", help="also save to this file")
    _common(p)
    p.set_defaults(func=_cmd_seq_gen)

    p = _sub(seq_sub, "check",
             "test a growth/regularity condition on a sequence")
    p.add_argument("--condition", required=True, choices=_CONDITIONS,
                   help="condition name")
    p.add_argument("--search-cap", type=int, help="constant-search budget")
    _add_sequence_flags(p)
    _common(p)
    p.set_defaults(func=_cmd_seq_check)

    p = _sub(seq_sub, "equiv",
             "decide K1 c1^n <= b(n)/a(n) <= K2 c2^n equivalence")
    _add_sequence_flags(p, "a_")
    _add_sequence_flags(p, "b_")
    _common(p)
    p.set_defaults(func=_cmd_seq_equiv)

    fn = _sub(sub, "fn", "growth functions u(r)")
    fn_sub = fn.add_subparsers(dest="subcommand", required=True)

    for group, name, text, point, rel_tol, evaluate in _ONE_POINT:
        p = _sub(fn_sub if group == "fn" else sub, name, text)
        _add_function_flags(p)
        p.add_argument(f"--{point}", type=float, required=True)
        if rel_tol:
            p.add_argument("--rel-tol", type=float, help="series tail tolerance")
        _common(p)
        p.set_defaults(func=functools.partial(_cmd_one_point, point, evaluate))

    p = _sub(
        fn_sub, "classify",
        "convexity/monotonicity panel: increasing, (log,exp)-convex,"
        " (log,x^k)-convex, growth-class membership",
    )
    _add_function_flags(p)
    p.add_argument(
        "--kind",
        choices=("increasing", "log-exp-convex", "log-xk-convex",
                 "c-plus-log", "c-plus-j"),
        help="check one property (exit 1 on failure) instead of the panel",
    )
    p.add_argument("--xk", type=int, default=2,
                   help="k for log-xk-convex")
    p.add_argument("--j", type=float, default=1.0, help="j for c-plus-j")
    _common(p)
    p.set_defaults(func=_cmd_fn_classify)

    p = _sub(
        sub, "equiv",
        "decide c1 u(a1 r) <= v(r) <= c2 u(a2 r) equivalence of two growth"
        " functions",
    )
    _add_function_flags(p, "a_")
    _add_function_flags(p, "b_")
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=96)
    _common(p)
    p.set_defaults(func=_cmd_equiv)

    p = _sub(
        sub, "verify",
        "named verification suites over inequalities and identities of the"
        " transform calculus",
    )
    p.add_argument("--suite", required=True,
                   help="suite tag: " + ", ".join(_SUITE_TAGS))
    for flag, _, kind, text in _VERIFY_PARAM_FLAGS:
        p.add_argument(f"--{flag}", type=kind, help=text)
    _common(p, registry=False)
    p.set_defaults(func=_cmd_verify)

    holo = _sub(
        sub, "holo",
        "finite-dimensional embedding model for chaos polynomials",
    )
    holo_sub = holo.add_subparsers(dest="subcommand", required=True)
    p = _sub(
        holo_sub, "check",
        "norm-embedding, coefficient-decay, and pointwise growth checks on"
        " seeded random chaos polynomials",
    )
    _add_function_flags(p)
    p.add_argument("--dim", type=int, default=2, help="model dimension")
    p.add_argument("--degree", type=int, default=4, help="chaos truncation")
    p.add_argument("--count", type=int, default=20, help="population size")
    p.add_argument("--p", type=int, default=2, help="upper norm level")
    p.add_argument("--q", type=int, default=0, help="lower norm level")
    p.add_argument("--samples", type=int, default=1000,
                   help="pointwise sample count")
    p.add_argument("--chaos-file", help="check one saved chaos polynomial")
    p.add_argument("--seed", type=int, default=0,
                   help="first polynomial seed; also seeds the searches and samples")
    _common(p)
    p.set_defaults(func=_cmd_holo_check)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        env_tol = env_rel_tol()
        if "tol" in vars(args) and args.tol is None:
            args.tol = env_tol
        for flag in ("tol", "rel_tol"):
            value = getattr(args, flag, None)
            if value is not None and not 0.0 < value < math.inf:
                raise _UsageError(f"--{flag.replace('_', '-')} must be a finite positive number")
        if getattr(args, "registry", None) is not None and not any(
            v is not None for k, v in vars(args).items() if k.endswith("name")
        ):
            raise _UsageError("--registry is read only with a --name flag")
        output, code = _run_with_cache(args)
    except (_UsageError, BadTolerance) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
