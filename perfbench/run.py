"""growthcalc benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (growthcalc's sources under ``src/``).
Workloads: embedding-population, transform-requests and cli-oneshot;
``perfbench/NOTES.md`` says why each exists and what each metric stands
for.

Every workload is a closed loop with one caller and no think time, in a
fresh child interpreter with BLAS/OpenMP pinned to one thread.  A run
repeats the workload's pass of items for ``--seconds`` (and at least the
workload's minimum number of passes), reports every time at the reference
speed of ``speed.py`` (the measured times are printed beside them), checks
every answer, prints a table and, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones from a traced
rerun of one pass.  Exits 2 without a result when the sources are
missing, 1 when a child process fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import selectors
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("embedding-population", "transform-requests", "cli-oneshot")
SETUP_SAMPLES = 7  # fresh set-up-only interpreters per run
TAIL_BEYOND = 10  # item_tail_ms: the percentile with this many items beyond it
CHILD_TIMEOUT = 150.0
CLI_TIMEOUT = 30.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("GROWTHCALC_TOL", None)  # answers are checked at the default tolerance
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every child
    return env


def git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# child processes


def _read_until(proc, deadline, one_line=False):
    """Read the child's stdout to EOF (or one line) by the deadline."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    buf = b""
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not sel.select(left):
                raise BenchError(f"child {proc.args[1:3]} timed out")
            data = os.read(proc.stdout.fileno(), 65536)
            if not data:
                return buf
            buf += data
            if one_line and b"\n" in buf:
                return buf
    finally:
        sel.close()


def _reap(proc):
    """Wait for the child; returns (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _stop(proc):
    if proc.returncode is None:
        proc.kill()
        proc.wait()


def worker(workload, seed, seconds=0.0, trace=0, setup_only=False, spans=None):
    """Run perfbench/worker.py; returns (set-up seconds, JSON result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        deadline = t0 + CHILD_TIMEOUT
        head = _read_until(proc, deadline, one_line=True)
        setup = time.perf_counter() - t0
        first, _, rest = head.partition(b"\n")
        if first.strip() != b"ready":
            raise BenchError(f"worker did not get ready: {head[-300:]!r}")
        rest += _read_until(proc, deadline)
        code, _ = _reap(proc)
    finally:
        _stop(proc)
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker exited {code}")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.decode().strip().splitlines()[-1])


def setup_sample(workload, seed):
    """One set-up-only interpreter: (reference-speed seconds, measured
    seconds, calibration seconds), the calibration being the median of
    three samples taken right before it and three right after."""
    before = speed.samples(3)
    measured = worker(workload, seed, setup_only=True)[0]
    cal_s = statistics.median(s for _, s in before + speed.samples(3))
    return measured * speed.factor(cal_s), measured, cal_s


def run_cli(argv, traced, report_path, err_path):
    """One growthcalc command-line process; returns (seconds, exit code,
    stdout bytes, peak RSS MB, last stderr line)."""
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), report_path, *argv]
    else:
        cmd = [sys.executable, "-m", "growthcalc.cli", *argv]
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        try:
            out = _read_until(proc, t0 + CLI_TIMEOUT)
            code, rss = _reap(proc)
        finally:
            _stop(proc)
            proc.stdout.close()
        seconds = time.perf_counter() - t0
    with open(err_path, "rb") as err:
        lines = err.read().decode(errors="replace").strip().splitlines()
    return seconds, code, out, rss, lines[-1] if lines else ""


def cli_run(wl, reference, work_dir, seconds, min_passes, traced=False):
    """The cli-oneshot closed loop: one process per request, in order, each
    pass with a fresh cache directory so that every pass replays the same
    cache misses and hits.  Returns (rows, peak RSS MB, traced reports)."""
    rss, layers, first_output = 0.0, [], {}
    report_path = os.path.join(work_dir, "trace.json")
    err_path = os.path.join(work_dir, "stderr.txt")

    def run_one(i, pass_no):
        nonlocal rss
        kind, p = wl.items[i]
        argv = workloads.cli_argv(kind, p) + [
            "--cache-dir", os.path.join(work_dir, f"cache-{pass_no}")]
        if traced and os.path.exists(report_path):
            os.remove(report_path)
        dt, code, out, child_rss, err_line = run_cli(argv, traced, report_path, err_path)
        rss = max(rss, child_rss)
        why = workloads.check_cli(kind, p, code, out.decode(errors="replace"), reference)
        key = " ".join(argv)
        if first_output.setdefault(key, out) != out:
            why = why or "cache replay differs from its first render"
        if traced:
            with open(report_path) as fh:
                layers.append(dict(json.load(fh), output_bytes=len(out)))
        error = (err_line.split(":")[0] if err_line else f"exit {code}") if why else None
        return dt, error, why

    def label(kind, p):
        return "cli " + " ".join(workloads.cli_argv(kind, p))

    rows = workloads.run_passes(wl.items, run_one, seconds, min_passes, label)
    return rows, rss, layers


# ---------------------------------------------------------------------------
# metrics


def tail(sorted_values):
    """The value at the highest percentile with ``TAIL_BEYOND`` values
    beyond it (the smallest value when there are too few): (value,
    percentile, values beyond it)."""
    n = len(sorted_values)
    rank = max(1, n - TAIL_BEYOND)
    return sorted_values[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(rows, setups, rss):
    """The end-to-end metrics (times at the reference speed) and a note for
    each, the measured times among them."""
    ok = sorted(r["ok_seconds"] for r in rows if r["ok_seconds"] is not None)
    if not ok:
        raise BenchError("no item was answered correctly")
    measured = sorted(r["ok_measured"] for r in rows if r["ok_measured"] is not None)
    attempted = sum(r["runs"] for r in rows)
    failed = sum(len(r["failures"]) for r in rows)
    busy = sum(r["seconds"] for r in rows)
    tail_s, tail_pct, beyond = tail(ok)
    runs = sorted(r["runs"] for r in rows)
    runs = f"{runs[0]}" if runs[0] == runs[-1] else f"{runs[0]}-{runs[-1]}"
    cal_ms = 1e3 * statistics.median(r["cal_s"] for r in rows)
    setup_s = statistics.median(s for s, _, _ in setups)
    metrics = {
        "items_per_s": (len(ok) / busy, "1/s"),
        "item_p50_ms": (1e3 * statistics.median(ok), "ms"),
        "item_tail_ms": (1e3 * tail_s, "ms"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {
        "items_per_s": f"{len(ok)} answered items in {busy:.2f} s, each the median of its {runs} runs",
        "item_p50_ms": f"over {len(ok)} answered items, each the median of its {runs} runs; "
                       f"measured {1e3 * statistics.median(measured):.4g}",
        "item_tail_ms": f"p{tail_pct:.4g} of the same, {beyond} items beyond it; "
                        f"measured {1e3 * tail(measured)[0]:.4g}",
        "ok_frac": f"fail_frac {failed / attempted:.4f} = {failed} failed / {attempted} attempted",
        "setup_s": f"median of {len(setups)} fresh interpreters; "
                   f"measured {statistics.median(m for _, m, _ in setups):.4g}",
    }
    speed_note = (f"calibration kernel: median {cal_ms:.4g} ms next to the items, "
                  f"{1e3 * statistics.median(c for _, _, c in setups):.4g} ms next to set-up; "
                  f"times below are at its reference {1e3 * speed.REFERENCE_S:g} ms")
    return metrics, notes, speed_note


def merge_layers(summaries):
    spans, counts = {}, {}
    for s in summaries:
        for name, (calls, self_s) in s["spans"].items():
            c, t = spans.get(name, (0, 0.0))
            spans[name] = (c + calls, t + self_s)
        for name, value in s["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "growthcalc", "__init__.py")):
        print(f"error: no growthcalc sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(workloads.REFERENCE_PATH):
        print("error: perfbench/reference.json is missing", file=sys.stderr)
        return 2
    load = os.getloadavg()
    # one CPU for this process and every child it starts: the calibration
    # samples then see the CPU the timed work runs on
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    compileall.compile_dir(SRC, quiet=2)  # the build: byte-code once per checkout
    os.makedirs(OUT, exist_ok=True)
    reference = workloads.load_reference()

    # half the set-up samples before the timed loop and half after it, so
    # the median spans the run rather than its first second
    speed.warm_up()
    setups = [setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES // 2)]
    spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv")
    trace = None
    if args.workload == "cli-oneshot":
        wl = workloads.build(args.workload, args.seed)
        result = {"sizes": wl.sizes, "mix": wl.mix}
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            if not args.trace:
                rows, rss, _ = cli_run(wl, reference, tmp, args.seconds, wl.min_passes)
            else:
                plain, rss, _ = cli_run(wl, reference, tmp, 0.0, 1)
                traced_dir = os.path.join(tmp, "traced")
                os.makedirs(traced_dir)
                rows, _, layers = cli_run(wl, reference, traced_dir, 0.0, 1, traced=True)
                trace = {
                    "merged": merge_layers([x["summary"] for x in layers]),
                    "plain": plain,
                    "cli": {
                        "import_s": sum(x["import_s"] for x in layers),
                        "hits": sum(x["cache_hit"] for x in layers),
                        "output_bytes": sum(x["output_bytes"] for x in layers),
                    },
                }
        numpy_version = metadata.version("numpy")
    else:
        _, result = worker(args.workload, args.seed, args.seconds, args.trace,
                               spans=spans_path if args.trace else None)
        rows, rss = result["rows"], result["peak_rss_mb"]
        numpy_version = result["numpy"]
        if args.trace:
            trace = {"merged": merge_layers([result["trace"]]),
                     "plain": result["plain_rows"], "cli": None}

    setups += [setup_sample(args.workload, args.seed)
               for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]

    print(f"growthcalc benchmark  workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"provenance: git {git_sha()}  Python {sys.version.split()[0]}  numpy {numpy_version}  "
          f"nproc {os.cpu_count()}  loadavg {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}")
    print(f"inputs: {json.dumps(result['sizes'], sort_keys=True)}")
    print(f"request mix of one pass: {json.dumps(result['mix'], sort_keys=True)}")

    checked = rows + (trace["plain"] if trace else [])
    attempted = sum(r["runs"] for r in checked)
    failures = [(r["label"], err, why) for r in checked for err, why in r["failures"]]
    if not args.trace:
        metrics, notes, speed_note = end_to_end(rows, setups, rss)
        print(speed_note)
        print(f"{'metric':<16}{'value':>14}  {'unit':<9}note")
        for name, (value, unit) in metrics.items():
            print(f"{name:<16}{value:>14.6g}  {unit:<9}{notes.get(name, '')}")
    else:
        n = len(rows)
        traced_s = sum(r["seconds"] for r in rows)
        plain_s = sum(r["seconds"] for r in trace["plain"])
        metrics = tracing.per_layer(trace["merged"], n, traced_s / plain_s, trace["cli"])
        tracing.print_report(trace["merged"], metrics, n, traced_s, plain_s)
        for r in rows[:8]:
            if r.get("layer"):
                print(f"  per item: {r['label']}: {json.dumps(r['layer'], sort_keys=True)}")
    print(f"failed runs: {len(failures)} of {attempted} attempted")
    for f in failures:
        print(f"  [FAILED] {f[0]}: {f[1] or 'wrong answer'}: {f[2]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
