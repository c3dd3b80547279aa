"""Spans and counters around the calls into growthcalc's layers.

``Tracer.install`` replaces the traced functions in every growthcalc module
that holds them, including names a module imported with ``from ... import``
(``holo.l_function``, ``legendre.sum_stored_series``), and wraps
``GrowthFunction.phi_at``.  Only the traced run installs it; the timed runs
call the program untouched.

A span is (id, parent id, name, start, end).  Spans stay in memory and are
written out by ``write_spans`` after the run; self time is kept per name as
the span's duration minus the time of its child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

# module -> public functions that get a span
SPANNED = {
    "numerics": ("minimize_convex_1d", "maximize_concave_1d"),
    "sequences": ("sum_stored_series", "gen_bell", "check_condition"),
    "growthfn": ("classify_convexity",),
    "legendre": ("ell", "dual", "l_function", "l_sharp", "inverse_legendre",
                 "verify_suite"),
    "holo": ("chaos_eval_batch", "norm_g", "norm_k", "embedding_check_52",
             "pointwise_bound_check", "series_chain_check"),
    "cli": ("main",),
}
MODULES = ("numerics", "growthfn", "legendre", "sequences", "holo", "cli")

# phi_at of these families runs a search or a series per call: a span each.
# Closed-form families are counted only.
SPANNED_PHI = ("dual", "l-function", "l-sharp", "theta")
DUAL_SPANS = ("growthfn.phi_at.dual", "legendre.dual")

SPAN_CAP = 200_000  # spans kept for the span file; counters see every call


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.stack = []  # frames: [span id, name id, child seconds]
        self.next_id = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.dual_ids = set()
        self.in_dual = 0  # dual spans open on the stack

    def _nid(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            if name in DUAL_SPANS:
                self.dual_ids.add(nid)
        return nid

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name; returns fn's result."""
        nid = self._nid(name)
        sid = self.next_id
        self.next_id += 1
        stack = self.stack
        parent = stack[-1][0] if stack else -1
        frame = [sid, nid, 0.0]
        stack.append(frame)
        is_dual = nid in self.dual_ids
        self.in_dual += is_dual
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if not getattr(exc, "_perfbench_seen", False):
                # count each refusal once, where it was raised
                exc._perfbench_seen = True
                self.counts[f"raised.{type(exc).__name__}"] += 1
            raise
        finally:
            t1 = time.perf_counter()
            self.in_dual -= is_dual
            stack.pop()
            dur = t1 - t0
            self.calls[nid] += 1
            self.self_s[nid] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            if len(self.span_id) < SPAN_CAP:
                self.span_id.append(sid)
                self.span_parent.append(parent)
                self.span_name.append(nid)
                self.span_start.append(t0)
                self.span_end.append(t1)
            else:
                self.dropped += 1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        span = self.span
        if name == "sequences.sum_stored_series":
            from growthcalc.numerics import NoDecayCertificate

            counts = self.counts

            def wrapper(log_terms, *args, **kwargs):
                counts["terms_stored"] += len(log_terms)
                try:
                    out = span(name, fn, log_terms, *args, **kwargs)
                except NoDecayCertificate:
                    counts["no_decay"] += 1
                    raise
                counts["terms_used"] += out.terms_used
                return out
        elif name == "holo.chaos_eval_batch":
            counts = self.counts

            def wrapper(F, xis, *args, **kwargs):
                counts["chaos_points"] += len(xis)
                return span(name, fn, F, xis, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_phi_at(self, phi_at):
        span, counts = self.span, self.counts

        def wrapper(u, x):
            family = u.family
            if family in SPANNED_PHI:
                return span(f"growthfn.phi_at.{family}", phi_at, u, x)
            counts["phi_at"] += 1
            if self.in_dual:
                # a closed-form phi evaluated by a dual's maximand
                counts["phi_at.under_dual"] += 1
            return phi_at(u, x)

        wrapper.__wrapped__ = phi_at
        return wrapper

    def install(self):
        """Replace the traced functions in every growthcalc module (the
        package namespace included) that holds a reference to them."""
        import importlib

        import growthcalc

        mods = {m: importlib.import_module(f"growthcalc.{m}") for m in MODULES}
        replace = {}
        for mod_name, fnames in SPANNED.items():
            for fname in fnames:
                orig = getattr(mods[mod_name], fname)
                replace[id(orig)] = self._wrap(f"{mod_name}.{fname}", orig)
        for mod in [growthcalc, *mods.values()]:
            for attr, value in list(vars(mod).items()):
                wrapped = replace.get(id(value))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)
        gf = mods["growthfn"].GrowthFunction
        gf.phi_at = self._wrap_phi_at(gf.phi_at)

    # -- results -----------------------------------------------------------

    def summary(self):
        """JSON-able totals: per span name [calls, self seconds], counters."""
        return {
            "spans": {name: [self.calls[nid], self.self_s[nid]]
                      for nid, name in enumerate(self.names)},
            "counts": dict(self.counts),
        }

    def snapshot(self):
        """The counters a per-item breakdown shows."""
        series = self.name_ids.get("sequences.sum_stored_series")
        return {
            "phi_at": self.counts["phi_at"],
            "phi_at.under_dual": self.counts["phi_at.under_dual"],
            "sum_stored_series": self.calls[series] if series is not None else 0,
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(f"# {len(self.span_id)} spans kept, {self.dropped} past the cap of {SPAN_CAP}\n")
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[i]}\t{self.span_parent[i]}\t{names[self.span_name[i]]}"
                    f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit, better, how to read it off the merged totals)

def _calls(span):
    return lambda m: m["spans"].get(span, (0, 0.0))[0]


def _self(span):
    return lambda m: m["spans"].get(span, (0, 0.0))[1]


def _count(name):
    return lambda m: m["counts"].get(name, 0)


def _useful(m):
    stored = m["counts"].get("terms_stored", 0)
    return m["counts"].get("terms_used", 0) / stored if stored else 0.0


_SPAN_METRICS = (
    # span name, whether its call count is reported too
    ("sequences.sum_stored_series", True),
    ("legendre.l_function", True),
    ("legendre.l_sharp", True),
    ("growthfn.phi_at.l-function", True),
    ("growthfn.phi_at.l-sharp", True),
    ("growthfn.phi_at.dual", True),
    ("growthfn.phi_at.theta", True),
    ("numerics.maximize_concave_1d", True),
    ("numerics.minimize_convex_1d", True),
    ("legendre.dual", True),
    ("legendre.ell", True),
    ("legendre.inverse_legendre", True),
    ("legendre.verify_suite", False),
    ("holo.chaos_eval_batch", True),
    ("holo.norm_g", False),
    ("holo.norm_k", False),
    ("holo.embedding_check_52", False),
    ("holo.pointwise_bound_check", False),
    ("holo.series_chain_check", False),
    ("growthfn.classify_convexity", False),
    ("sequences.gen_bell", False),
    ("sequences.check_condition", False),
    ("cli.main", False),
)

PER_ITEM = []  # (metric, unit, better, reader): totals divided by traced items
for _span, _with_calls in _SPAN_METRICS:
    if _with_calls:
        PER_ITEM.append((f"{_span}.calls", "1/item", "lower", _calls(_span)))
    PER_ITEM.append((f"{_span}.self_s", "s/item", "lower", _self(_span)))
PER_ITEM += [
    ("sequences.sum_stored_series.terms_stored", "1/item", "lower", _count("terms_stored")),
    ("sequences.sum_stored_series.terms_used", "1/item", "lower", _count("terms_used")),
    ("sequences.sum_stored_series.no_decay", "1/item", "lower", _count("no_decay")),
    ("growthfn.phi_at.calls", "1/item", "lower", _count("phi_at")),
    ("growthfn.phi_at.under_dual", "1/item", "lower", _count("phi_at.under_dual")),
    ("numerics.not_bracketable", "1/item", "lower", _count("raised.NotBracketable")),
    ("holo.chaos_eval_batch.points", "1/item", "lower", _count("chaos_points")),
]

# (metric, unit, better) of every per-layer metric, in output order
PER_LAYER = [m[:3] for m in PER_ITEM] + [
    ("sequences.sum_stored_series.useful_ratio", "ratio", "higher"),
    ("cli.import_s", "s/item", "lower"),
    ("cli.cache.hit_ratio", "ratio", "higher"),
    ("cli.output_bytes", "B/item", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.items", "count", "higher"),
]


def per_layer(merged, items, overhead, cli):
    """Every per-layer metric: totals over the traced items, per item."""
    out = {}
    for name, unit, _, read in PER_ITEM:
        out[name] = (read(merged) / items, unit)
    out["sequences.sum_stored_series.useful_ratio"] = (_useful(merged), "ratio")
    cli = cli or {"import_s": 0.0, "hits": 0, "output_bytes": 0}
    out["cli.import_s"] = (cli["import_s"] / items, "s/item")
    out["cli.cache.hit_ratio"] = (cli["hits"] / items, "ratio")
    out["cli.output_bytes"] = (cli["output_bytes"] / items, "B/item")
    out["trace.overhead"] = (overhead, "ratio")
    out["trace.items"] = (items, "count")
    return out


def print_report(merged, metrics, items, traced_s, plain_s):
    print(f"traced {items} items: {traced_s:.3f} s traced vs {plain_s:.3f} s untraced "
          f"(overhead x{traced_s / plain_s:.3f})")
    ranked = sorted(merged["spans"].items(), key=lambda kv: -kv[1][1])
    print("self time by span (share of traced item time):")
    for name, (calls, self_s) in ranked[:12]:
        print(f"  {name:<36}{calls:>12} calls {self_s:>10.3f} s  {100 * self_s / traced_s:5.1f}%")
    print(f"{'metric':<44}{'value':>14}  unit")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44}{value:>14.6g}  {unit}")
