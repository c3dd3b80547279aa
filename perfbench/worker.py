"""One library workload in a fresh interpreter; started by run.py.

Prints ``ready`` once growthcalc is imported and the inputs are built (the
parent times set-up up to that line), then one JSON line with the items it
ran.  With ``--setup-only`` it exits right after ``ready``.

With ``--trace 1`` it runs one pass of the items untraced, then installs
the tracer and runs the same pass again, so the per-layer numbers and the
tracing overhead come from identical work.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402


def run(wl, reference, seconds, min_passes, tracer=None):
    """Passes over the workload's items; with a tracer, each row also gets
    the counter deltas of its (single) traced run."""
    layers = {}

    def run_one(i, _pass):
        kind, p = wl.items[i]
        before = tracer.snapshot() if tracer else None
        out = workloads.run_item(kind, p, reference)
        if tracer:
            after = tracer.snapshot()
            layers[i] = {k: after[k] - before[k] for k in after}
        return out

    rows = workloads.run_passes(wl.items, run_one, seconds, min_passes, workloads.item_label)
    for i, layer in layers.items():
        rows[i]["layer"] = layer
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args()

    import growthcalc  # noqa: F401  (set-up includes the import)

    wl = workloads.build(args.workload, args.seed)
    reference = workloads.load_reference()
    print("ready", flush=True)
    if args.setup_only:
        return

    out = {"sizes": wl.sizes, "mix": wl.mix}
    if not args.trace:
        out["rows"] = run(wl, reference, args.seconds, wl.min_passes)
    else:
        out["plain_rows"] = run(wl, reference, 0.0, 1)
        tracer = tracing.Tracer()
        tracer.install()
        out["rows"] = run(wl, reference, 0.0, 1, tracer)
        out["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    import numpy

    out["numpy"] = numpy.__version__
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
