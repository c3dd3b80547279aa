"""Regenerate perfbench/reference.json: the answer to every request the
transform-requests and cli-oneshot generators can draw that no independent
oracle checks, computed by the current growthcalc.

    PYTHONPATH=src python3 perfbench/make_reference.py

It also runs every oracle-checked request in the pools once and lists the
ones whose check fails, so a pool never hides a wrong answer.  Regenerate
only when a change is meant to alter answers, and say so with the change.
"""

import itertools
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as w  # noqa: E402
from growthcalc import GrowthCalcError  # noqa: E402


def pool():
    """(kind, params, checked by an oracle?) for every drawable request."""
    fams = list(w.FAMILIES)
    for f, t in itertools.product(fams, w.T_POOL):
        yield "ell", {"fn": f, "t": t}, False
        yield "ell-scan", {"fn": f, "t": t}, True
    for f, t in itertools.product(w.IDENTITY_FAMILIES, w.T_POOL):
        yield "ell-dual", {"fn": f, "t": t}, True
    for f, r in itertools.product(fams, w.DUAL_R_POOL):
        yield "dual", {"fn": f, "r": r}, False
    for f, r in itertools.product(w.INVERSE_FAMILIES, w.INVERSE_R_POOL):
        yield "inverse", {"fn": f, "r": r}, True
    for prof, t in itertools.product(w.THETA_PROFILES, w.THETA_T_POOL):
        yield "theta", {"profile": prof, "t": t}, True
    for f, r in w.LSHARP_REFUSALS:
        yield "lsharp", {"fn": f, "r": r}, False
    for f, (kind, k) in itertools.product(fams, w.CLASSIFY_KINDS):
        yield "classify", {"fn": f, "kind": kind, "k": k}, False
    for (order, n), cond in itertools.product(w.BELL_POOL, w.CONDITIONS):
        yield "bell", {"order": order, "n": n, "condition": cond}, False
    for suite, params in w.SUITES:
        yield "suite", {"suite": suite, "params": params}, True


def main():
    answers, bad = {}, []
    for kind, params, oracle in pool():
        if oracle:
            _, err, why = w.run_item(kind, params, {"answers": {}})
            if why:
                bad.append((kind, params, err, why))
            continue
        try:
            answers[w.request_key(kind, params)] = w.compute(kind, params)
        except GrowthCalcError as exc:
            answers[w.request_key(kind, params)] = {"error": type(exc).__name__}
    with open(w.REFERENCE_PATH, "w") as fh:
        json.dump({"answers": answers}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(answers)} reference answers written to {w.REFERENCE_PATH}")
    for kind, params, err, why in bad:
        print(f"oracle check fails: {kind} {json.dumps(params)}: {err}: {why}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
