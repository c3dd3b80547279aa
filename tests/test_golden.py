"""Replay of the golden corpus of CLI outputs (tests/golden/corpus.jsonl).

Each recorded argv runs again in-process through ``cli.main``.  The exit
code and stderr must match exactly, no stderr may hold a traceback, and
every JSON stdout must be strict RFC 8259 JSON.  Under the interpreter,
numpy and libc of the corpus header, stdout must match byte for byte;
under others a series sum may stop a term earlier or later, so numbers
need only agree to 1e-9 (``rho`` to 1e-7, the accuracy ``ell`` gives
it where log ell and phi'' are of order one), while every key, string
and verdict still matches exactly.
"""

import argparse
import json
import math
import re
import shlex

import pytest

from golden import make_corpus
from growthcalc import cli

# a decimal or exponent number, as a CSV or text report prints it
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def load(path):
    header, *entries = [json.loads(line) for line in path.read_text().splitlines()]
    return header, entries


HEADER, ENTRIES = load(make_corpus.CORPUS)
EXACT = HEADER == make_corpus.header()


def _refuse(token):
    raise ValueError(f"non-RFC JSON constant {token}")


def _parse(stdout: str):
    """A JSON report as its value; a CSV or text report as its text
    pieces with the numbers between them read as floats."""
    if stdout.startswith("{"):
        return json.loads(stdout, parse_constant=_refuse)
    pieces = _NUMBER.split(stdout)
    pieces[1::2] = [float(p) for p in pieces[1::2]]
    return pieces


def _agree(want, got, key=None) -> bool:
    """Same keys, strings, booleans and nulls; numbers within 1e-9
    (1e-7 under a "rho" key), relative above 1 and absolute below."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and want.keys() == got.keys()
                and all(_agree(want[k], got[k], k) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(want) == len(got)
                and all(_agree(w, g, key) for w, g in zip(want, got)))
    numbers = [type(v) in (int, float) for v in (want, got)]
    if all(numbers):
        tol = 1e-7 if key == "rho" else 1e-9
        return math.isclose(want, got, rel_tol=tol, abs_tol=tol)
    return not any(numbers) and want == got


def check(want: dict, got: dict, exact: bool) -> None:
    """The replay rule: got is a fresh run of want's argv."""
    assert got["exit"] == want["exit"]
    assert "Traceback" not in got["stderr"]
    assert got["stderr"] == want["stderr"]
    report = _parse(got["stdout"])  # a non-RFC constant raises here
    if exact:
        assert got["stdout"] == want["stdout"]
    else:
        assert _agree(_parse(want["stdout"]), report)


@pytest.mark.parametrize("want", ENTRIES, ids=[e["argv"] for e in ENTRIES])
def test_replay(want, monkeypatch):
    monkeypatch.chdir(make_corpus.ROOT)
    check(want, make_corpus.run(want["argv"]), EXACT)


def test_corpus_records_each_argv_once():
    argvs = make_corpus.argvs()
    assert [e["argv"] for e in ENTRIES] == argvs == sorted(set(argvs))


def _leaves(parser, path=()) -> dict:
    """The leaf subcommands under parser: their names' tuple -> parser."""
    subs = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {path: parser}
    return {leaf: p for name, sub in subs[0].items()
            for leaf, p in _leaves(sub, path + (name,)).items()}


def _choices(parser, dest: str) -> tuple:
    (action,) = [a for a in parser._actions if a.dest == dest]
    return tuple(action.choices)


def _answers(entry) -> bool:
    """A report: no usage error (exit 2) and no kernel refusal."""
    out = entry["stdout"]
    refused = out.startswith("{") and json.loads(out).keys() == {"error", "detail"}
    return entry["exit"] in (0, 1) and not refused


def test_corpus_answers_every_subcommand_kind_and_format():
    """Every leaf subcommand, every fn classify --kind, the panel (no
    --kind) and every --format has an entry that answers."""
    parser = cli.build_parser()
    leaves = _leaves(parser)
    classify = leaves["fn", "classify"]
    want = ({("command", leaf) for leaf in leaves}
            | {("kind", kind) for kind in (None, *_choices(classify, "kind"))}
            | {("format", fmt) for fmt in _choices(classify, "format")})
    have = set()
    for entry in filter(_answers, ENTRIES):
        args = parser.parse_args(shlex.split(entry["argv"]))
        leaf = tuple(filter(None, (args.command, getattr(args, "subcommand", None))))
        have |= {("command", leaf), ("format", args.format)}
        if leaf == ("fn", "classify"):
            have.add(("kind", args.kind))
    assert want - have == set()


def _scale(factor):
    """An edit that multiplies a report's log_l by factor."""
    return lambda out: re.sub(r'"log_l": ([^,]+)',
                              lambda m: f'"log_l": {float(m[1]) * factor!r}', out)


@pytest.mark.parametrize("argv, field, edit, passes", [
    ("lfn --family exp --r 50", "stdout", _scale(1 + 1e-12), True),
    ("lfn --family exp --r 50", "stdout", _scale(1 + 1e-6), False),
    ("lfn --family exp --r 50", "stdout", lambda out: out.replace("50.0", "NaN"), False),
    ("lfn --family exp --r 50", "stdout", lambda out: out.replace("50.0", "Infinity"), False),
    ("lfn --family exp --r 50", "exit", lambda code: 1, False),
    ("verify --suite a4", "stdout", lambda out: out.replace('"pass"', '"fail"'), False),
    ("lfn --family ks --beta 0.5 --r 2 --format csv", "stdout",
     lambda out: out.replace("2.0,", "2.000000000001,"), True),
], ids=["1e-12", "1e-6", "NaN", "Infinity", "exit", "verdict", "csv-1e-12"])
def test_tolerance_mode(tmp_path, argv, field, edit, passes):
    """Tolerance mode against a copy of the corpus with one field edited,
    read as a run on another libm: its entry is checked against the
    recorded one."""
    copy = tmp_path / "corpus.jsonl"
    edited = [HEADER] + [dict(e, **{field: edit(e[field])}) if e["argv"] == argv else e
                         for e in ENTRIES]
    copy.write_text("".join(json.dumps(line) + "\n" for line in edited))
    (got,) = [e for e in load(copy)[1] if e["argv"] == argv]
    (want,) = [e for e in ENTRIES if e["argv"] == argv]
    assert got != want
    if passes:
        check(want, got, exact=False)
    else:
        with pytest.raises((AssertionError, ValueError)):
            check(want, got, exact=False)
