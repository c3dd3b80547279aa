"""One traced growthcalc command-line call, for cli-oneshot's traced run.

    python3 perfbench/cli_child.py REPORT.json ARGV...

Times ``import growthcalc.cli``, installs the tracer, runs ``cli.main``
on ARGV exactly as ``python -m growthcalc.cli`` would, and writes the
span totals, the import time and whether the answer was replayed from the
cache to REPORT.json, also when the call raises.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main():
    report_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import growthcalc.cli as cli

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    rendered, served = [], []
    render, run_with_cache = cli._render, cli._run_with_cache

    def counted_render(*args):
        rendered.append(1)  # only a cache miss renders
        return render(*args)

    def counted_run(args):
        out = run_with_cache(args)
        served.append(1)  # returned an answer, computed or replayed
        return out

    cli._render, cli._run_with_cache = counted_render, counted_run
    try:
        return cli.main(argv)
    finally:
        with open(report_path, "w") as fh:
            json.dump({"import_s": import_s, "summary": tracer.summary(),
                       "cache_hit": bool(served and not rendered)}, fh)


if __name__ == "__main__":
    sys.exit(main())
