"""Rewrite tests/golden/corpus.jsonl from tests/golden/argvs.txt.

    python tests/golden/make_corpus.py

Each argv runs in-process through ``growthcalc.cli.main`` from this
checkout's ``src/``, with the repo root as the working directory.  The
corpus's first line records the interpreter, numpy and libc versions the
outputs came from; every other line is one argv with its exit code,
stdout and stderr, sorted by argv.  The diff of the corpus after a
rewrite is the list of output bytes a change moved.
"""

import contextlib
import io
import json
import os
import platform
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CORPUS = HERE / "corpus.jsonl"
# writes the stored sequence that the argvs' --file flags read
INPUT = "seq gen --family bell --order 2 --n 40 --out tests/golden/inputs/bell-2-40.json"


def header() -> dict:
    """The versions that fix the bytes of a float: the corpus replays
    byte for byte only under the same ones."""
    import numpy

    return {"python": list(sys.version_info[:2]), "numpy": numpy.__version__,
            "libc": list(platform.libc_ver())}


def run(argv: str) -> dict:
    """One shell-quoted argv through cli.main, as the installed command
    runs it; argparse's SystemExit is its exit code."""
    from growthcalc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(shlex.split(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def argvs() -> list:
    lines = (HERE / "argvs.txt").read_text().splitlines()
    return sorted(line for line in lines if line.strip())


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    (HERE / "inputs").mkdir(exist_ok=True)
    if run(INPUT)["exit"] != 0:
        sys.exit(f"could not write the input: {INPUT}")
    lines = [header()] + [run(argv) for argv in argvs()]
    CORPUS.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))


if __name__ == "__main__":
    main()
