"""Inputs, requests and answer checks of the three benchmark workloads.

Every workload is a list of items built from the benchmark seed.  An item
is one request to growthcalc; ``run_item`` times the request alone and
then checks its answer, so checking never counts as request time.

The request parameters of ``transform-requests`` and ``cli-oneshot`` come
from fixed pools, so ``reference.json`` (written by ``make_reference.py``)
holds the answer for every request any seed can draw.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# label -> (family, params) for the growth functions the requests use
FAMILIES = {
    "exp": ("exp", {}),
    "ks0": ("ks", {"beta": 0.0}),
    "ks0.25": ("ks", {"beta": 0.25}),
    "ks0.5": ("ks", {"beta": 0.5}),
    "ks1": ("ks", {"beta": 1.0}),
    "power-exp3": ("power-exp", {"a": 3.0}),
    "gaussian": ("gaussian", {}),
    "expk2": ("expk", {"k": 2}),
    "bump": ("bump", {}),
}

# pools the seeded generators deal from; reference.json covers all of them
FAMILY_LABELS = tuple(FAMILIES)
T_POOL = (0.5, 1.5, 2.5, 3.5, 5.5, 7.25, 10.5, 13.75)
DUAL_R_POOL = (0.5, 2.0, 3.0, 10.0)
INVERSE_R_POOL = (0.01, 0.3, 2.0, 5.0)
IDENTITY_FAMILIES = ("ks0", "ks0.25", "ks0.5", "ks1", "expk2")
INVERSE_FAMILIES = ("exp", "ks0.25", "ks0.5", "ks1", "gaussian", "expk2", "bump")
# radii where L# diverges: the kernel grows a cold profile to its cap, then refuses
LSHARP_REFUSALS = (("ks1", 4.0), ("ks1", 16.0), ("power-exp3", 0.5), ("power-exp3", 4.0))
CLASSIFY_KINDS = (("log-exp-convex", 2), ("log-xk-convex", 2), ("log-convex", 2))
CLI_CLASSIFY_KINDS = CLASSIFY_KINDS[:2]  # fn classify --kind has no log-convex
BELL_POOL = ((2, 30), (2, 40), (3, 30), (3, 40))
CONDITIONS = ("A1", "A2", "B1", "B2", "C1", "C2")
THETA_PROFILES = ("t^-2t", "exp[-t^2]", "exp[-t^1.5]", "shifted-gauss")
THETA_T_POOL = (0.5, 2.0, 3.5, 9.5)
SUITES = (
    ("thm42", {"family": "exp"}),
    ("thm42", {"family": "ks", "beta": 0.5}),
    ("involution", {}),
    ("lem35", {}),
    ("ks-sandwich", {"beta": 0.25}),
    ("ks-sandwich", {"beta": 0.5}),
)
CLI_SUITES = (SUITES[0], SUITES[2], SUITES[3])  # thm42 on exp, involution, lem35

EMBED_POLYNOMIALS = 22  # a pass: 22 polynomials x 2 weights = 44 items
# a pass of transform-requests or cli-oneshot deals every suite of its pool
# once, so its cost barely moves with the seed
TRANSFORM_ROUNDS = 6  # a pass: 6 rounds of 11 requests
CLI_CYCLES = 3  # a pass: 3 cycles of 7 requests, plus replays
CLI_REPLAYS_PER_KIND = 1  # one request in four replays an earlier argv

TOL_IDENTITY = 1e-7  # acceptance 3: dual-transform identity, log scale
TOL_ROUND_TRIP = 1e-6  # acceptance 4
TOL_PATHS = 1e-7  # scan path against bracket path
TOL_VALUE = 1e-7  # reference values, acceptance 1


class Workload:
    """A named pass of items plus how a run samples and summarises it.

    A timed run repeats the pass until at least ``min_passes`` passes are
    done and ``--seconds`` have passed, stopping part way through a pass.  An item's latency is the median
    over the passes of its time at the reference speed (``speed.py``): the
    normalisation takes out the machine's slow stretches, and the median of
    repeats what is left of them.
    """

    def __init__(self, items, min_passes, sizes):
        self.items = items
        self.min_passes = min_passes
        self.sizes = sizes
        self.mix = {}
        for kind, _ in items:
            self.mix[kind] = self.mix.get(kind, 0) + 1


def run_passes(items, run_one, seconds, min_passes, label):
    """Closed loop over ``items``, one request at a time, pass after pass,
    with calibration samples (``speed.sample``) before every request and
    after the last: one, or about 3% of the request's previous time.

    ``run_one(i, pass_no)`` runs item i and returns (seconds, error name,
    failure reason).  Returns one row per item: its label, the median of
    its reference-speed times over all runs (``seconds``) and over the
    correct ones (``ok_seconds``), the measured median of the correct ones
    (``ok_measured``), the median calibration time of its runs, the number
    of runs and the failed runs' (error, reason).
    """
    speed.warm_up()
    cals, runs = [], []
    last = [0.0] * len(items)
    t_end = time.perf_counter() + seconds
    passes = 0
    while passes < min_passes or time.perf_counter() < t_end:
        for i in range(len(items)):
            if passes >= min_passes and time.perf_counter() >= t_end:
                break  # the last pass may stop part way
            cals.extend(speed.samples(speed.count_for(last[i])))
            start = time.perf_counter()
            dt, err, why = run_one(i, passes)
            last[i] = dt
            runs.append((i, len(cals) - 1, start, time.perf_counter(), dt, err, why))
        passes += 1
    cals.extend(speed.samples(speed.count_for(max(last))))
    per_item = [{"all": [], "ok": [], "measured": [], "cal": [], "failures": []} for _ in items]
    for i, before, start, end, dt, err, why in runs:
        cal_s = speed.local(cals, before, start, end)
        norm = dt * speed.factor(cal_s)
        acc = per_item[i]
        acc["all"].append(norm)
        acc["cal"].append(cal_s)
        if why is None:
            acc["ok"].append(norm)
            acc["measured"].append(dt)
        else:
            acc["failures"].append([err, why])
    median = statistics.median
    return [{"label": label(*item), "seconds": median(acc["all"]),
             "ok_seconds": median(acc["ok"]) if acc["ok"] else None,
             "ok_measured": median(acc["measured"]) if acc["measured"] else None,
             "cal_s": median(acc["cal"]), "runs": len(acc["all"]),
             "failures": acc["failures"]}
            for item, acc in zip(items, per_item)]


def fn(label):
    import growthcalc as gc

    family, params = FAMILIES[label]
    return gc.make_growth_function(family, params)


def request_key(kind, params):
    return json.dumps([kind, params], sort_keys=True)


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# request generators


class _Decks:
    """Deals each request slot's parameters from its own shuffled deck of
    the pool, reshuffled when empty, so every value of a pool comes up
    equally often and the cost of a run's mix barely depends on the seed."""

    def __init__(self, rng):
        self.rng = rng
        self.decks = {}

    def __call__(self, slot, pool):
        deck = self.decks.get(slot)
        if not deck:
            deck = self.decks[slot] = list(pool)
            self.rng.shuffle(deck)
        return deck.pop()


def _transform_cycle(deal):
    """One round of the transform-requests mix: every request type once,
    the divergent L# refusal twice, parameters dealt from the pools."""
    kind, k = deal("classify.kind", CLASSIFY_KINDS)
    bell_order, bell_n = deal("bell.size", BELL_POOL)
    suite, params = deal("suite", SUITES)
    refusals = [deal("lsharp", LSHARP_REFUSALS) for _ in range(2)]
    return [
        ("ell", {"fn": deal("ell.fn", FAMILY_LABELS), "t": deal("ell.t", T_POOL)}),
        ("ell-scan", {"fn": deal("scan.fn", FAMILY_LABELS), "t": deal("scan.t", T_POOL)}),
        ("ell-dual", {"fn": deal("ell-dual.fn", IDENTITY_FAMILIES),
                      "t": deal("ell-dual.t", T_POOL)}),
        ("dual", {"fn": deal("dual.fn", FAMILY_LABELS), "r": deal("dual.r", DUAL_R_POOL)}),
        ("inverse", {"fn": deal("inverse.fn", INVERSE_FAMILIES),
                     "r": deal("inverse.r", INVERSE_R_POOL)}),
        ("theta", {"profile": deal("theta.profile", THETA_PROFILES),
                   "t": deal("theta.t", THETA_T_POOL)}),
        *[("lsharp", {"fn": fam, "r": r}) for fam, r in refusals],
        ("classify", {"fn": deal("classify.fn", FAMILY_LABELS), "kind": kind, "k": k}),
        ("bell", {"order": bell_order, "n": bell_n, "condition": deal("bell.cond", CONDITIONS)}),
        ("suite", {"suite": suite, "params": params}),
    ]


def _cli_cycle(deal):
    """The CLI-expressible part of the transform mix (no scan-path
    wrappers, no dual-of-dual): ell, dual, theta round trip, L# refusal,
    one classifier kind, a Bell condition and a suite."""
    kind, k = deal("classify.kind", CLI_CLASSIFY_KINDS)
    bell_order, bell_n = deal("bell.size", BELL_POOL)
    suite, params = deal("suite", CLI_SUITES)
    fam_r, r_ref = deal("lsharp", LSHARP_REFUSALS)
    return [
        ("ell", {"fn": deal("ell.fn", FAMILY_LABELS), "t": deal("ell.t", T_POOL)}),
        ("dual", {"fn": deal("dual.fn", FAMILY_LABELS), "r": deal("dual.r", DUAL_R_POOL)}),
        ("inverse", {"fn": deal("inverse.fn", INVERSE_FAMILIES),
                     "r": deal("inverse.r", INVERSE_R_POOL)}),
        ("lsharp", {"fn": fam_r, "r": r_ref}),
        ("classify", {"fn": deal("classify.fn", FAMILY_LABELS), "kind": kind, "k": k}),
        ("bell", {"order": bell_order, "n": bell_n, "condition": deal("bell.cond", CONDITIONS)}),
        ("suite", {"suite": suite, "params": params}),
    ]


def build(name, seed):
    """The workload's items for this seed.  Needs growthcalc importable
    only for the library workloads."""
    rng = random.Random(seed)
    if name == "embedding-population":
        import growthcalc as gc

        scale = gc.dyadic_scale(2)
        weights = [fn("exp"), fn("ks0.5")]
        base = 1000 * seed
        items = []
        for poly_seed in range(base, base + EMBED_POLYNOMIALS):
            F = gc.random_chaos(2, 4, seed=poly_seed)
            for u in weights:
                items.append(("embed", {"seed": poly_seed, "F": F, "u": u, "scale": scale}))
        return Workload(
            items, 2,
            {"polynomials": EMBED_POLYNOMIALS, "dim": 2, "degree": 4,
             "weights": ["exp", "ks0.5"], "pointwise_samples": 1000,
             "chain_samples": 200, "poly_seeds": [base, base + EMBED_POLYNOMIALS - 1]},
        )
    if name == "transform-requests":
        deal = _Decks(rng)
        items = []
        for _ in range(TRANSFORM_ROUNDS):
            items.extend(_transform_cycle(deal))
        return Workload(
            items, 3,
            {"round": 11, "rounds": TRANSFORM_ROUNDS, "scan_points": 4096,
             "series_cap": 4096},
        )
    if name == "cli-oneshot":
        deal = _Decks(rng)
        firsts = [req for _ in range(CLI_CYCLES) for req in _cli_cycle(deal)]
        # replays: as many of every kind, each of a seeded earlier request of
        # that kind and placed at a seeded point after it
        after = [[] for _ in firsts]
        kinds = sorted({kind for kind, _ in firsts})
        for kind in kinds:
            for _ in range(CLI_REPLAYS_PER_KIND):
                i = rng.choice([i for i, (k, _) in enumerate(firsts) if k == kind])
                after[rng.randrange(i, len(firsts))].append(firsts[i])
        items = [req for first, replays in zip(firsts, after) for req in (first, *replays)]
        return Workload(
            items, 1,
            {"requests": len(items), "replays": CLI_REPLAYS_PER_KIND * len(kinds),
             "cache": "fresh --cache-dir per pass"},
        )
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# library requests and their checks


def _theta_profile(name):
    import growthcalc as gc

    logs = {
        "t^-2t": (lambda t: -2.0 * t * math.log(t) if t > 0 else 0.0, 1.0),
        "exp[-t^2]": (lambda t: -t * t, 0.0),
        "exp[-t^1.5]": (lambda t: -(t ** 1.5), 0.0),
        "shifted-gauss": (lambda t: 0.5 - 0.5 * t * t - 0.25 * t, 0.0),
    }
    log_f, t0 = logs[name]
    return gc.LogConcaveProfile(log_f, t0, name)


def compute(kind, p):
    """Run one library request; returns its answer as a JSON-able dict.
    Refusals propagate as exceptions."""
    import growthcalc as gc

    if kind == "embed":
        F, u, scale, s = p["F"], p["u"], p["scale"], p["seed"]
        g = gc.norm_g(F, u, scale, 2, seed=s)
        r51 = gc.embedding_check_51(F, u, scale, 2, 0, seed=s, g_value=g.lower_bound)
        r52 = gc.embedding_check_52(F, u, scale, 1, seed=s)
        cb = gc.coeff_bound_check(
            F, u, scale, gc.BoundParams(K=1.05 * g.lower_bound, a=1.0, p=2, q=0)
        )
        pw = gc.pointwise_bound_check(F, u, scale, 2, n_samples=1000, seed=s)
        chain = gc.series_chain_check(u, scale, 2, n_samples=200, seed=s)
        return {"passed": {"embedding_51": r51.passed, "embedding_52": r52.passed,
                           "coeff_bound": cb.passed, "pointwise": pw.passed,
                           "series_chain": bool(chain["passed"])}}
    if kind == "ell":
        pt = gc.ell(fn(p["fn"]), p["t"])
        return {"log_ell": pt.log_ell.log}
    if kind == "ell-scan":
        u = fn(p["fn"])
        # an unflagged wrapper: no convexity hint, so ell takes the scan path
        w = gc.from_phi(u.phi, name=f"scan[{u.name}]", log_u0=u.log_u0, x_max=u.x_max)
        return {"log_ell": gc.ell(w, p["t"]).log_ell.log}
    if kind == "ell-dual":
        return {"log_ell": gc.ell(gc.dual_function(fn(p["fn"])), p["t"]).log_ell.log}
    if kind == "dual":
        return {"log_dual": gc.dual(fn(p["fn"]), p["r"]).log}
    if kind == "inverse":
        return {"log_theta": gc.inverse_legendre(gc.ell_profile(fn(p["fn"])), p["r"]).log}
    if kind == "theta":
        th = gc.theta_function(_theta_profile(p["profile"]))
        return {"log_ell": gc.ell(th, p["t"]).log_ell.log}
    if kind == "lsharp":
        return {"log_lsharp": gc.l_sharp(fn(p["fn"]), math.log(p["r"])).log}
    if kind == "classify":
        v = gc.classify_convexity(fn(p["fn"]), p["kind"], k=p["k"])
        return {"status": v.status}
    if kind == "bell":
        seq = gc.gen_bell(p["order"], p["n"])
        return {"status": gc.check_condition(seq, p["condition"]).status}
    if kind == "suite":
        rep = gc.verify_suite(p["suite"], p["params"])
        return {"verdict": rep.verdict, "max_violation": rep.max_violation}
    raise ValueError(f"unknown request kind {kind!r}")


def _close(got, want, tol):
    return (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= tol * max(1.0, abs(want)))


def check(kind, p, answer, reference):
    """None when the answer is right, else a short reason.

    Independent oracles first (the identities need no stored answer), then
    the reference answer at the acceptance tolerance.
    """
    import growthcalc as gc

    if kind == "embed":
        bad = sorted(k for k, ok in answer["passed"].items() if not ok)
        return f"checks failed: {', '.join(bad)}" if bad else None
    if kind == "suite":
        if answer["verdict"] != "pass":
            return f"verdict {answer['verdict']}"
        return None
    if kind == "ell-scan":
        bracket = gc.ell(fn(p["fn"]), p["t"]).log_ell.log
        if not _close(answer["log_ell"], bracket, TOL_PATHS):
            return f"scan path {answer['log_ell']!r} vs bracket path {bracket!r}"
        return None
    if kind == "ell-dual":
        t = p["t"]
        rhs = 2.0 * t - gc.ell(fn(p["fn"]), t).log_ell.log - 2.0 * t * math.log(t)
        if not _close(answer["log_ell"], rhs, TOL_IDENTITY):
            return f"dual-transform identity: {answer['log_ell']!r} vs {rhs!r}"
        return None
    if kind == "inverse":
        want = fn(p["fn"]).log_at(p["r"])
        if not _close(answer["log_theta"], want, TOL_ROUND_TRIP):
            return f"round trip: {answer['log_theta']!r} vs log u = {want!r}"
        return None
    if kind == "theta":
        want = _theta_profile(p["profile"]).log_f(p["t"])
        if not _close(answer["log_ell"], want, TOL_ROUND_TRIP):
            return f"round trip: {answer['log_ell']!r} vs log f = {want!r}"
        return None
    return match_reference(kind, p, answer, None, reference)


def match_reference(kind, p, answer, error, reference):
    """Compare an answer (or a refusal's error name) with reference.json."""
    want = reference["answers"].get(request_key(kind, p))
    if want is None:
        return "no reference answer for this request"
    if "error" in want or error is not None:
        if want.get("error") != error:
            got = error or "an answer"
            return f"expected {want.get('error') or 'an answer'}, got {got}"
        return None
    for key, value in want.items():
        got = answer.get(key)
        if isinstance(value, float):
            if not _close(got, value, TOL_VALUE):
                return f"{key} = {got!r}, reference {value!r}"
        elif got != value:
            return f"{key} = {got!r}, reference {value!r}"
    return None


def run_item(kind, p, reference):
    """Time one library request, then check it.

    Returns (seconds, error name or None, failure reason or None).  An
    exception is a failure unless the reference records exactly that
    refusal for this request.
    """
    from growthcalc import GrowthCalcError

    t0 = time.perf_counter()
    try:
        answer = compute(kind, p)
    except GrowthCalcError as exc:
        dt = time.perf_counter() - t0
        name = type(exc).__name__
        return dt, name, match_reference(kind, p, None, name, reference)
    except Exception as exc:  # an uncaught program error is a counted failure
        dt = time.perf_counter() - t0
        return dt, type(exc).__name__, f"uncaught {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return dt, None, check(kind, p, answer, reference)


def item_label(kind, p):
    shown = {k: v for k, v in p.items() if k not in ("F", "u", "scale")}
    if kind == "embed":
        shown["u"] = p["u"].name
    return f"{kind} {json.dumps(shown, sort_keys=True)}"


# ---------------------------------------------------------------------------
# the command-line rendering of a request


def _fn_flags(label):
    family, params = FAMILIES[label]
    out = ["--family", family]
    for key, flag in (("beta", "--beta"), ("a", "--a"), ("k", "--k")):
        if key in params:
            out += [flag, repr(params[key])]
    return out


def cli_argv(kind, p):
    if kind == "ell":
        return ["ell", *_fn_flags(p["fn"]), "--t", repr(p["t"])]
    if kind == "dual":
        return ["dual", *_fn_flags(p["fn"]), "--r", repr(p["r"])]
    if kind == "inverse":
        return ["theta", *_fn_flags(p["fn"]), "--r", repr(p["r"])]
    if kind == "lsharp":
        return ["lsharp", *_fn_flags(p["fn"]), "--r", repr(p["r"])]
    if kind == "classify":
        return ["fn", "classify", *_fn_flags(p["fn"]), "--kind", p["kind"], "--xk", str(p["k"])]
    if kind == "bell":
        return ["seq", "check", "--family", "bell", "--order", str(p["order"]),
                "--n", str(p["n"]), "--condition", p["condition"]]
    if kind == "suite":
        argv = ["verify", "--suite", p["suite"]]
        for key, value in sorted(p["params"].items()):
            argv += [f"--{key}", str(value)]
        return argv
    raise ValueError(f"{kind} has no command-line form")


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-RFC JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


# the report field a CLI answer is compared on, and the verdict that exits 0
_CLI_ANSWER_KEYS = {"ell": "log_ell", "dual": "log_dual", "lsharp": "log_lsharp",
                    "classify": "status", "bell": "status"}
_CLI_PASSING = {"classify": "passes-on-grid", "bell": "holds-up-to-N"}


def check_cli(kind, p, code, stdout, reference):
    """None when a one-shot CLI answer is right, else a short reason."""
    try:
        report = _strict_json(stdout)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    if not isinstance(report, dict):
        return "stdout is not a JSON object"
    if "error" in report:
        if code != 1:
            return f"refusal exited {code}, expected 1"
        return match_reference(kind, p, None, report["error"], reference)
    want_code = 0
    if kind == "inverse":
        if not _close(report.get("log_theta"), report.get("log_u"), TOL_ROUND_TRIP):
            return f"round trip: {report.get('log_theta')!r} vs log u = {report.get('log_u')!r}"
    elif kind == "suite":
        if report.get("verdict") != "pass":
            return f"verdict {report.get('verdict')!r}"
    else:
        key = _CLI_ANSWER_KEYS[kind]
        answer = {key: report.get(key)}
        if kind in _CLI_PASSING and answer[key] != _CLI_PASSING[kind]:
            want_code = 1
        why = match_reference(kind, p, answer, None, reference)
        if why:
            return why
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    return None
