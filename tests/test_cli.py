import csv
import io
import json
import math
import os
from dataclasses import asdict
from pathlib import Path

import pytest

from growthcalc import cli, legendre
from growthcalc.cli import main
from growthcalc.growthfn import (
    check_increasing, classify_convexity, make_growth_function, membership,
)
from growthcalc.legendre import FunctionEquivalenceCounterexample, function_equivalent
from growthcalc.numerics import strict_json
from growthcalc.sequences import check_condition, gen_bell, gen_power_factorial, seq_equivalent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def strict_loads(text):
    """json.loads that refuses the non-RFC constants NaN and +-Infinity."""

    def refuse(name):
        raise ValueError(f"non-RFC JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


class TestDocumentedExamples:
    def test_ell_unit_weight(self, capsys):
        code, report = run_json(
            capsys, "ell", "--family", "ks", "--beta", "0", "--t", "1"
        )
        assert code == 0
        assert math.isclose(report["log_ell"], 1.0, abs_tol=1e-9)
        assert math.isclose(report["rho"], 1.0, abs_tol=1e-6)

    def test_seq_gen_bell(self, capsys):
        code, report = run_json(
            capsys, "seq", "gen", "--family", "bell", "--order", "2", "--n", "5"
        )
        assert code == 0
        assert report["values"] == [1, 1, 2, 5, 15, 52]

    def test_verify_core_suite(self, capsys):
        code, report = run_json(capsys, "verify", "--suite", "a4", "--nmax", "50")
        assert code == 0
        assert report["verdict"] == "pass"


class TestSeq:
    def test_gen_constant_weights(self, capsys):
        code, report = run_json(
            capsys, "seq", "gen", "--family", "power-factorial", "--beta", "0",
            "--n", "4",
        )
        assert code == 0
        assert report["values"] == [1, 1, 1, 1, 1]

    def test_gen_from_transform(self, capsys):
        code, report = run_json(
            capsys, "seq", "gen", "--family", "legendre",
            "--fn-family", "exp", "--n", "4",
        )
        assert code == 0
        # alpha(n) = 1/(n! ell(n)); log ell(n) = n - n log n for e^r
        expected = -math.lgamma(3.0) - (2.0 - 2.0 * math.log(2.0))
        assert math.isclose(report["log_alpha"][2], expected, rel_tol=1e-9)

    def test_gen_saves_file(self, capsys, tmp_path):
        path = tmp_path / "bell3.json"
        code, report = run_json(
            capsys, "seq", "gen", "--family", "bell", "--order", "3",
            "--n", "6", "--out", str(path),
        )
        assert code == 0
        stored = json.loads(path.read_text())
        assert stored["schema"] == "growthcalc.seq/1"
        assert stored["log_alpha"] == report["log_alpha"]

    def test_check_holds(self, capsys):
        code, report = run_json(
            capsys, "seq", "check", "--condition", "B3", "--family", "bell",
            "--order", "2", "--n", "30",
        )
        assert code == 0
        assert report["status"] == "holds-up-to-N"

    def test_check_inconclusive_exits_nonzero(self, capsys):
        code, report = run_json(
            capsys, "seq", "check", "--condition", "B1", "--family", "bell",
            "--order", "2", "--n", "40",
        )
        assert code == 1
        assert report["status"] == "inconclusive"

    @pytest.mark.parametrize("argv", [
        ("--condition", "B2", "--family", "bell", "--n", "10", "--search-cap", "1"),
        ("--condition", "B2t", "--family", "power-factorial", "--beta", "0.5", "--n", "0"),
    ])
    def test_check_on_a_too_short_range_is_inconclusive(self, capsys, argv):
        # a range with no second difference must not read as holds-up-to-N
        code, report = run_json(capsys, "seq", "check", *argv)
        assert code == 1
        assert (report["status"], report["detail"]) == ("inconclusive", "range too short")

    def test_check_from_file(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        run(capsys, "seq", "gen", "--family", "bell", "--order", "2",
            "--n", "20", "--out", str(path))
        code, report = run_json(
            capsys, "seq", "check", "--condition", "A1", "--file", str(path)
        )
        assert code == 0
        assert report["status"] == "holds-up-to-N"

    def test_equiv_witness(self, capsys):
        code, report = run_json(
            capsys, "seq", "equiv",
            "--a-family", "bell", "--a-order", "2", "--a-n", "25",
            "--b-family", "bell", "--b-order", "2", "--b-n", "25",
        )
        assert code == 0
        assert report["equivalent"] is True
        assert report["c1"] <= 1.0 <= report["c2"]

    def test_equiv_counterexample(self, capsys):
        code, report = run_json(
            capsys, "seq", "equiv",
            "--a-family", "bell", "--a-order", "2", "--a-n", "30",
            "--b-family", "power-factorial", "--b-beta", "0", "--b-n", "30",
        )
        assert code == 1
        assert report["equivalent"] is False

    def test_equiv_on_a_short_range_names_the_shorter_sequence(self, capsys, tmp_path):
        # the corpus holds --a-n at N = 0 and 7, and the verdict at N = 8
        path = tmp_path / "short.json"
        gen_bell(2, 7).save(path)
        for a, flag in ((("--a-family", "bell", "--a-n", "40"), "--b-n"),
                        (("--a-file", str(path)), "--a-file")):
            code, out, err = run(capsys, "seq", "equiv", *a, "--b-family", "bell", "--b-n", "7")
            assert (code, out) == (2, "")
            assert err == (f"error: {flag}: the shorter sequence ends at n = 7;"
                           " a verdict needs it through n = 8\n")

    @pytest.mark.parametrize("argv, flag, family", [
        (("gen", "--family", "bell", "--beta", "0.5", "--n", "3"), "--beta", "bell"),
        (("gen", "--family", "power-factorial", "--order", "3"), "--order", "power-factorial"),
        (("gen", "--family", "bell", "--fn-family", "exp"), "--fn-family", "bell"),
        (("check", "--condition", "A1", "--family", "legendre", "--fn-family", "exp",
          "--order", "2"), "--order", "legendre"),
        (("equiv", "--a-family", "bell", "--a-beta", "0.5", "--b-family", "bell"),
         "--a-beta", "bell"),
        (("equiv", "--a-family", "bell", "--b-family", "power-factorial", "--b-fn-beta", "1"),
         "--b-fn-beta", "power-factorial"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_a_flag_the_family_does_not_read_is_a_usage_error(self, capsys, argv, flag, family):
        # these answered for the family as if the flag were absent
        code, out, err = run(capsys, "seq", *argv)
        assert (code, out, err) == (2, "", f"error: {flag}: family {family!r} does not read it\n")

    @pytest.mark.parametrize("flags", [
        ("--order", "3"), ("--family", "bell"), ("--n", "10"), ("--fn-family", "exp"),
    ], ids=lambda v: v[0])
    def test_a_stored_sequence_takes_no_family_flags(self, capsys, tmp_path, flags):
        path = tmp_path / "seq.json"
        gen_bell(2, 20).save(path)
        for prefix, argv in (("--", ("check", "--condition", "A1", "--file", str(path))),
                             ("--a-", ("equiv", "--a-file", str(path), "--b-family", "bell"))):
            flag = prefix + flags[0][2:]
            code, out, err = run(capsys, "seq", *argv, flag, flags[1])
            assert (code, out) == (2, "")
            assert err == f"error: {flag}: a stored sequence fixes its own parameters\n"

    def test_gen_rejects_bad_beta(self, capsys):
        code, _, err = run(
            capsys, "seq", "gen", "--family", "power-factorial",
            "--beta", "1.5", "--n", "5",
        )
        assert code == 2
        assert "--beta" in err


class TestFn:
    def test_eval(self, capsys):
        code, report = run_json(
            capsys, "fn", "eval", "--family", "power-exp", "--a", "2",
            "--r", "9",
        )
        assert code == 0
        assert math.isclose(report["log_u"], 6.0, rel_tol=1e-12)
        assert math.isclose(report["u"], math.exp(6.0), rel_tol=1e-12)

    def test_eval_overflow_reports_log_only(self, capsys):
        code, report = run_json(
            capsys, "fn", "eval", "--family", "exp", "--r", "1e6"
        )
        assert code == 0
        assert math.isclose(report["log_u"], 1e6, rel_tol=1e-12)
        assert report["u"] is None

    def test_eval_infinite_log_renders_null(self, capsys):
        # exp_3 at r = 100 is past the double range: log u is +inf
        code, out, _ = run(
            capsys, "fn", "eval", "--family", "expk", "--k", "3", "--r", "100"
        )
        assert code == 0
        report = strict_loads(out)
        assert report["log_u"] is None and report["u"] is None
        assert report["name"] == "exp_3"

    def test_classify_panel(self, capsys):
        code, report = run_json(capsys, "fn", "classify", "--family", "bump")
        assert code == 0
        assert report["increasing"] == "increasing"
        assert report["log_exp_convex"] == "passes-on-grid"
        assert report["declared"]["in_c_plus_log"] is True

    def test_classify_single_kind_failure(self, capsys):
        code, report = run_json(
            capsys, "fn", "classify", "--family", "log-square",
            "--kind", "increasing",
        )
        assert code == 1
        assert report["status"] == "fails-at"

    def test_classify_xk_kind(self, capsys):
        code, report = run_json(
            capsys, "fn", "classify", "--family", "power-exp", "--a", "3",
            "--kind", "log-xk-convex", "--xk", "2",
        )
        assert code == 1
        assert report["kind"] == "log-xk-convex"

    def test_registry_lookup(self, capsys, tmp_path):
        reg = tmp_path / "registry.json"
        reg.write_text(json.dumps(
            {"mine": {"family": "ks", "params": {"beta": 0.5}}}
        ))
        code, report = run_json(
            capsys, "fn", "eval", "--name", "mine", "--registry", str(reg),
            "--r", "1",
        )
        assert code == 0
        assert math.isclose(report["log_u"], 1.5, rel_tol=1e-12)

    def test_registry_missing_name(self, capsys, tmp_path):
        reg = tmp_path / "registry.json"
        reg.write_text(json.dumps({"mine": {"family": "exp"}}))
        code, _, err = run(
            capsys, "fn", "eval", "--name", "other", "--registry", str(reg),
            "--r", "1",
        )
        assert code == 2
        assert "--name" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "fn", "eval", "--family", "nope", "--r", "1")
        assert code == 2
        assert "--family" in err


class TestTransforms:
    def test_ell_order_zero(self, capsys):
        code, report = run_json(capsys, "ell", "--family", "exp", "--t", "0")
        assert code == 0
        assert report["log_ell"] == 0.0
        assert report["rho"] == 0.0
        assert report["boundary"] == "lo"

    def test_ell_negative_t_is_usage_error(self, capsys):
        code, _, err = run(capsys, "ell", "--family", "exp", "--t", "-1")
        assert code == 2
        assert "--t" in err

    def test_dual_self_dual(self, capsys):
        code, report = run_json(capsys, "dual", "--family", "exp", "--r", "4")
        assert code == 0
        assert math.isclose(report["log_dual"], 4.0, rel_tol=1e-9)

    def test_dual_escape_surfaces_kernel_error(self, capsys):
        code, report = run_json(
            capsys, "dual", "--family", "ks", "--beta", "1.0", "--r", "2"
        )
        assert code == 1
        assert report["error"] == "NotBracketable"

    def test_lfn_at_zero(self, capsys):
        code, report = run_json(capsys, "lfn", "--family", "exp", "--r", "0")
        assert code == 0
        assert report["log_l"] == 0.0

    def test_lsharp_outside_radius(self, capsys):
        code, report = run_json(
            capsys, "lsharp", "--family", "ks", "--beta", "1.0", "--r", "2"
        )
        assert code == 1
        assert report["error"] == "NoDecayCertificate"

    def test_theta_round_trip_residual(self, capsys):
        code, report = run_json(
            capsys, "theta", "--family", "ks", "--beta", "0.5", "--r", "3"
        )
        assert code == 0
        assert abs(report["residual"]) < 1e-9

    def test_equiv_witness(self, capsys):
        code, report = run_json(
            capsys, "equiv", "--a-family", "exp", "--b-family", "exp",
            "--r-max", "5",
        )
        assert code == 0
        assert math.isclose(report["c1"], 1.0, rel_tol=1e-6)
        assert math.isclose(report["a1"], 1.0, rel_tol=1e-6)

    def test_equiv_counterexample(self, capsys):
        code, report = run_json(
            capsys, "equiv", "--a-family", "exp", "--b-family", "gaussian",
            "--r-max", "40",
        )
        assert code == 1
        assert report["equivalent"] is False


def _fn(family, **params):
    return make_growth_function(family, params)


# (argv, the record the command reports, its verdict property, the keys
# the CLI adds to the record's fields)
VERDICT_CASES = [
    (("seq", "check", "--condition", "B3", "--family", "bell", "--n", "30"),
     lambda: check_condition(gen_bell(2, 30), "B3"), "holds", {}),
    (("seq", "check", "--condition", "B2", "--family", "bell", "--n", "10",
      "--search-cap", "1"),
     lambda: check_condition(gen_bell(2, 10), "B2", search_cap=1), "holds", {}),
    (("seq", "equiv", "--a-family", "bell", "--a-n", "25", "--b-family", "bell",
      "--b-n", "25"),
     lambda: seq_equivalent(gen_bell(2, 25), gen_bell(2, 25)), "ok", {"equivalent": True}),
    (("seq", "equiv", "--a-family", "bell", "--a-n", "30", "--b-family",
      "power-factorial", "--b-beta", "0", "--b-n", "30"),
     lambda: seq_equivalent(gen_bell(2, 30), gen_power_factorial(0.0, 30)), "ok",
     {"equivalent": False}),
    (("fn", "classify", "--family", "exp", "--kind", "increasing"),
     lambda: check_increasing(_fn("exp")), "holds", {"name": "exp", "kind": "increasing"}),
    (("fn", "classify", "--family", "log-square", "--kind", "increasing"),
     lambda: check_increasing(_fn("log-square")), "holds",
     {"name": _fn("log-square").name, "kind": "increasing"}),
    (("fn", "classify", "--family", "gaussian", "--kind", "c-plus-log"),
     lambda: membership(_fn("gaussian"), "c-plus-log"), "holds",
     {"name": _fn("gaussian").name, "kind": "c-plus-log"}),
    (("fn", "classify", "--family", "polynomial", "--power", "2", "--kind", "c-plus-log"),
     lambda: membership(_fn("polynomial", p=2.0), "c-plus-log"), "holds",
     {"name": _fn("polynomial", p=2.0).name, "kind": "c-plus-log"}),
    (("fn", "classify", "--family", "power-exp", "--a", "2", "--kind", "log-xk-convex"),
     lambda: classify_convexity(_fn("power-exp", a=2.0), "log-xk-convex", k=2), "passes",
     {"name": _fn("power-exp", a=2.0).name}),
    (("fn", "classify", "--family", "power-exp", "--a", "3", "--kind", "log-xk-convex"),
     lambda: classify_convexity(_fn("power-exp", a=3.0), "log-xk-convex", k=2), "passes",
     {"name": _fn("power-exp", a=3.0).name}),
    (("equiv", "--a-family", "exp", "--b-family", "exp", "--r-max", "5"),
     lambda: function_equivalent(_fn("exp"), _fn("exp"), (0.0, 5.0)), "ok",
     {"equivalent": True}),
    (("equiv", "--a-family", "exp", "--b-family", "gaussian", "--r-max", "40"),
     lambda: function_equivalent(_fn("exp"), _fn("gaussian"), (0.0, 40.0)), "ok",
     {"equivalent": False}),
]


@pytest.mark.parametrize("argv, record, verdict, cli_keys", VERDICT_CASES,
                         ids=[" ".join(case[0]) for case in VERDICT_CASES])
def test_a_verdict_report_is_its_record(capsys, argv, record, verdict, cli_keys):
    # every field of the record, and only the CLI's own keys besides
    rec = record()
    code, out, _ = run(capsys, *argv)
    assert strict_loads(out) == json.loads(strict_json({**asdict(rec), **cli_keys}))
    assert code == (0 if getattr(rec, verdict) else 1)


class TestVerify:
    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == 2
        assert "--suite" in err

    def test_thm43_reports_a_counterexample(self, capsys, monkeypatch):
        # no stock family makes the fit fail, so the record is stood in
        fail = FunctionEquivalenceCounterexample(
            r=3.5, spread=7.25, searched_a=(0.5, 2.0), detail="residual keeps growing")
        monkeypatch.setattr(legendre, "function_equivalent", lambda *a, **k: fail)
        code, report = run_json(capsys, "verify", "--suite", "thm43")
        assert code == 1 and report["verdict"] == "fail"
        assert report["witness"] == {"r": 3.5, "spread": 7.25, "detail": "residual keeps growing"}
        assert report["max_violation"] == 7.25

    def test_pass_and_report_shape(self, capsys):
        code, report = run_json(capsys, "verify", "--suite", "thm42")
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["max_violation"] < 1e-7

    def test_tolerance_override_binds(self, capsys):
        code, report = run_json(
            capsys, "verify", "--suite", "thm42", "--tol", "1e-20"
        )
        assert code == 1
        assert report["verdict"] == "fail"

    def test_empty_grid_is_not_a_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "a4", "--nmax", "-1")
        assert code == 1
        report = strict_loads(out)
        assert report["verdict"] == "inconclusive"
        assert report["max_violation"] is None

    def test_nonpositive_tolerance_rejected(self, capsys):
        code, _, err = run(
            capsys, "verify", "--suite", "thm42", "--tol", "-1"
        )
        assert code == 2
        assert "--tol" in err

    @pytest.mark.parametrize("argv, flag", [
        (("ks-sandwich", "--family", "gaussian", "--points", "3"), "--family"),
        (("a4", "--beta", "0.5", "--nmax", "5"), "--beta"),
        (("stirling", "--rmax", "3"), "--rmax"),
        (("lem35", "--tol", "1e-3", "--nmax", "3"), "--nmax"),
        (("lem35", "--beta", "0.5"), "--beta"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_a_flag_the_suite_does_not_read_is_a_usage_error(self, capsys, argv, flag):
        # these ran the suite without the flag and passed; lem35 reads
        # the function flags only with --family
        code, out, err = run(capsys, "verify", "--suite", *argv)
        why = " without --family" if argv[-2:] == ("--beta", "0.5") else ""
        assert (code, out, err) == (2, "", f"error: {flag}: suite {argv[0]} does not read it{why}\n")

    @pytest.mark.parametrize("argv, flag, family", [
        (("verify", "--suite", "thm42", "--beta", "0.5"), "--beta", "exp"),
        (("verify", "--suite", "lem35", "--family", "ks", "--order", "3"), "--order", "ks"),
        (("fn", "eval", "--family", "exp", "--beta", "3", "--r", "2"), "--beta", "exp"),
        (("holo", "check", "--beta", "3", "--count", "1"), "--beta", "exp"),
        (("equiv", "--a-family", "ks", "--a-k", "2", "--b-family", "exp"), "--a-k", "ks"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_a_parameter_the_family_does_not_read_is_a_usage_error(
        self, capsys, argv, flag, family
    ):
        # these answered for the family as if the flag were absent
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {flag}: family {family!r} does not read it\n")

    def test_a_registry_entry_takes_no_parameter_flags(self, capsys, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps({"mine": {"family": "ks", "params": {"beta": 0.25}}}))
        code, out, err = run(capsys, "fn", "eval", "--name", "mine", "--registry", str(path),
                             "--beta", "0.5", "--r", "2")
        assert (code, out) == (2, "")
        assert err == "error: --beta: a registry entry fixes its own parameters\n"

    def test_family_override(self, capsys):
        code, report = run_json(
            capsys, "verify", "--suite", "thm42", "--family", "ks",
            "--beta", "0.5",
        )
        assert code == 0
        assert report["params"]["family"] == "ks"


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "involution"),
    ("verify", "--suite", "thm42"),
    ("lfn", "--family", "exp", "--r", "3"),
], ids=" ".join)
def test_no_environment_variable_sets_a_tolerance(capsys, monkeypatch, argv):
    # every series sum stops at DEFAULT_REL_TOL and every suite judges at
    # its own tolerance unless a flag says otherwise
    monkeypatch.delenv("GROWTHCALC_TOL", raising=False)
    unset = run(capsys, *argv)
    for raw in ("1e-12", "1e-2", "abc"):
        monkeypatch.setenv("GROWTHCALC_TOL", raw)
        assert run(capsys, *argv) == unset, raw


class TestHolo:
    def test_population_check(self, capsys):
        code, report = run_json(
            capsys, "holo", "check", "--count", "3", "--family", "ks",
            "--beta", "0.5",
        )
        assert code == 0
        assert report["passed"] is True
        assert set(report["checks"]) == {
            "embedding-51", "embedding-52", "coeff-bound", "pointwise",
            "series-chain",
        }

    def test_checks_share_one_sign_and_scale(self, capsys):
        argv = ("holo", "check", "--count", "2", "--family", "ks", "--beta", "0.5")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        checks = strict_loads(out)["checks"]
        for entry in checks.values():
            # log lhs - log rhs, positive = violated: every check passed
            assert set(entry) == {"max_violation", "passed"}
            assert entry["passed"] and entry["max_violation"] <= 1e-9
        # the CSV rows are the records' log-scale rows, one sign: slack = -violation
        code, out, _ = run(capsys, *argv, "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "x,lhs,rhs,slack"
        xs = [line.split(",")[0] for line in lines[1:]]
        assert xs[:3] == ["0/embedding-51/2:0", "0/embedding-52/0:1", "0/coeff-bound/0"]
        worst = max(-float(line.split(",")[3]) for line in lines[1:]
                    if "/embedding-51/" in line)
        assert worst == checks["embedding-51"]["max_violation"]

    def test_single_file(self, capsys, tmp_path):
        from growthcalc.holo import random_chaos

        path = tmp_path / "chaos.json"
        random_chaos(2, 4, seed=3).save(path)
        code, report = run_json(
            capsys, "holo", "check", "--chaos-file", str(path)
        )
        assert code == 0
        assert report["count"] == 1

    def test_zero_polynomial_renders_strict_json(self, capsys, tmp_path):
        from growthcalc.holo import random_chaos

        path = tmp_path / "zero.json"
        random_chaos(2, 4, seed=3).scaled(0.0).save(path)
        argv = ("holo", "check", "--chaos-file", str(path))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        # no sample has a nonzero value, so the worst violation stays -inf
        assert strict_loads(out)["checks"]["pointwise"]["max_violation"] is None
        code, out, _ = run(capsys, *argv, "--format", "pretty")
        checks = next(line for line in out.splitlines() if line.startswith("checks: "))
        assert strict_loads(checks[len("checks: "):])["pointwise"]["max_violation"] is None

    def test_bad_levels(self, capsys):
        code, _, err = run(
            capsys, "holo", "check", "--p", "1", "--q", "1", "--count", "1"
        )
        assert code == 2
        assert "--q" in err

    @pytest.mark.parametrize("flags, named", [
        (("--count", "0"), "--count"),
        (("--count", "-1"), "--count"),
        (("--count", "1", "--samples", "0"), "--samples"),
    ])
    def test_empty_population_or_sample_set_is_a_usage_error(
        self, capsys, flags, named
    ):
        # checking nothing must not print "passed": true
        code, out, err = run(capsys, "holo", "check", *flags)
        assert (code, out) == (2, "")
        assert named in err

    def test_chaos_file_needs_no_count(self, capsys, tmp_path):
        from growthcalc.holo import random_chaos

        path = tmp_path / "chaos.json"
        random_chaos(2, 4, seed=3).save(path)
        code, report = run_json(
            capsys, "holo", "check", "--chaos-file", str(path), "--count", "0"
        )
        assert (code, report["count"]) == (0, 1)


class TestFormatsAndCache:
    def test_csv_grid(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "lem-a2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,lhs,rhs,slack"
        assert len(lines) == 22  # 21 grid points + header
        first = lines[1].split(",")
        assert float(first[3]) > 0  # positive slack on a passing suite

    def test_csv_scalar_report(self, capsys):
        code, out, _ = run(
            capsys, "ell", "--family", "exp", "--t", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,lhs,rhs,slack"
        assert len(lines) == 2

    def test_csv_report_without_rows(self, capsys):
        # a report with no rows lists its keys as key,value rows, each
        # value as strict JSON
        argv = ("seq", "check", "--condition", "B3", "--family", "bell", "--n", "30")
        _, report = run_json(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and rows[0] == ["x", "lhs", "rhs", "slack"]
        assert rows[1:] == [[key, strict_json(report[key]), "", ""] for key in sorted(report)]

    def test_pretty(self, capsys):
        code, out, _ = run(
            capsys, "ell", "--family", "exp", "--t", "3", "--format", "pretty"
        )
        assert code == 0
        assert "log_ell:" in out

    @pytest.mark.parametrize("argv, line", [
        (("equiv", "--a-family", "exp", "--b-family", "exp", "--r-max", "5"),
         "checked_range: [0.0, 5.0]"),
        (("fn", "classify", "--family", "power-exp", "--a", "3", "--kind", "log-xk-convex"),
         "fail_point: [0.0010000000000000002, 0.001055561073061772, 0.5]"),
    ])
    def test_pretty_renders_tuples_as_json(self, capsys, argv, line):
        # a record's tuple field prints as the JSON list of the json
        # report, not as a Python tuple
        _, report = run_json(capsys, *argv)
        _, out, _ = run(capsys, *argv, "--format", "pretty")
        assert line in out.splitlines()
        key, value = line.split(": ", 1)
        assert strict_loads(value) == report[key]

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "holo", "check", "--count", "2", "--seed", "7")
        _, out2, _ = run(capsys, "holo", "check", "--count", "2", "--seed", "7")
        assert out1 == out2

    def test_cache_replay(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ("verify", "--suite", "lem-a2", "--cache-dir", str(cache))
        code1, out1, _ = run(capsys, *args)
        assert len(list(cache.iterdir())) == 1
        code2, out2, _ = run(capsys, *args)
        assert (code1, out1) == (code2, out2)
        assert len(list(cache.iterdir())) == 1
        # a fresh run without the cache produces the same bytes
        code3, out3, _ = run(capsys, "verify", "--suite", "lem-a2")
        assert (code1, out1) == (code3, out3)

    def test_cache_distinguishes_formats(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        run(capsys, "ell", "--family", "exp", "--t", "2",
            "--cache-dir", str(cache))
        run(capsys, "ell", "--family", "exp", "--t", "2", "--format", "csv",
            "--cache-dir", str(cache))
        assert len(list(cache.iterdir())) == 2

    def test_cache_preserves_exit_code(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ("verify", "--suite", "thm42", "--tol", "1e-20",
                "--cache-dir", str(cache))
        code1, _, _ = run(capsys, *args)
        code2, _, _ = run(capsys, *args)
        assert code1 == code2 == 1


class TestUsage:
    def test_missing_subcommand_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ell", "--family", "exp"])
        assert exc.value.code == 2
        assert "--t" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [("--tol", "1e-6"), ("--seed", "3")])
    def test_tol_and_seed_only_where_they_are_read(self, capsys, flag):
        # --tol is read by verify alone and --seed by holo check alone
        with pytest.raises(SystemExit) as exc:
            main(["ell", "--family", "exp", "--t", "1", *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag[0] in captured.err

    def test_registry_is_not_offered_on_verify(self, capsys):
        # verify builds no growth function from flags
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "a4", "--nmax", "2",
                  "--registry", "/nonexistent/reg.json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --registry" in captured.err

    @pytest.mark.parametrize("argv", [
        ("seq", "gen", "--family", "bell", "--n", "3"),
        ("ell", "--family", "exp", "--t", "1"),
    ], ids=["seq-gen", "ell"])
    def test_registry_without_a_name_is_refused(self, capsys, argv):
        # the registry is read only to look up a --name
        code, out, err = run(capsys, *argv, "--registry", "/nonexistent/reg.json")
        assert (code, out) == (2, "")
        assert "--registry is read only with a --name flag" in err

    def test_registry_names_a_sequence_weight(self, capsys, tmp_path):
        reg = tmp_path / "registry.json"
        reg.write_text(json.dumps({"w": {"family": "ks", "params": {"beta": 0.5}}}))
        code, report = run_json(
            capsys, "seq", "gen", "--family", "legendre", "--fn-name", "w",
            "--registry", str(reg), "--n", "3",
        )
        assert code == 0 and len(report["log_alpha"]) == 4

    def test_help_names_the_object(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ell", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "Legendre transform" in out


EQUIV = ("equiv", "--a-family", "exp", "--b-family", "exp")


class TestBadFlags:
    """A bad flag value is an exit-2 usage error that names the flag,
    never a traceback or an answer."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", [
        ("fn", "eval", "--r"), ("ell", "--t"), ("dual", "--r"), ("lfn", "--r"),
        ("lsharp", "--r"), ("theta", "--r"),
    ], ids=lambda c: c[-2])
    def test_one_point_argument_must_be_finite(self, capsys, command, value):
        # lfn at r = nan answered with the r = 0 value, exit 0
        *cmd, flag = command
        code, out, err = run(capsys, *cmd, "--family", "exp", flag, value)
        assert (code, out, err) == (2, "", f"error: {flag} must be finite\n")

    @pytest.mark.parametrize("argv, flag", [
        (("fn", "eval", "--family", "power-exp", "--r", "2"), "--family"),
        (("ell", "--family", "series", "--t", "1"), "--family"),
        (("equiv", "--a-family", "power-exp", "--b-family", "exp"), "--a-family"),
        (("seq", "gen", "--family", "legendre", "--fn-family", "power-exp", "--n", "3"),
         "--fn-family"),
        (("verify", "--suite", "thm42", "--family", "power-exp"), "--suite"),
        (("holo", "check", "--family", "series", "--count", "1"), "--family"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_a_family_without_its_parameter_is_a_usage_error(self, capsys, argv, flag):
        # these ended in a KeyError traceback
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag}: family ") and err.count("\n") == 1
        assert "needs the parameter" in err

    def test_usage_text_ignores_the_terminal_width(self, capsys, monkeypatch):
        # argparse wraps its usage text at COLUMNS unless given a width
        errs = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as exc:
                main(["ell", "--family", "exp"])
            assert exc.value.code == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and "required: --t" in errs[0]

    @pytest.mark.parametrize("argv, flag", [
        (EQUIV + ("--r-min", "5", "--r-max", "1"), "--r-max"),
        (EQUIV + ("--r-max", "nan"), "--r-max"),
        (EQUIV + ("--r-max", "inf"), "--r-max"),
        (EQUIV + ("--r-min", "-1"), "--r-min"),
        (EQUIV + ("--r-min", "nan"), "--r-min"),
        (EQUIV + ("--points", "1"), "--points"),
        (("holo", "check", "--dim", "0"), "--dim"),
        (("holo", "check", "--dim", "9"), "--dim"),
        (("holo", "check", "--degree", "99"), "--degree"),
        (("holo", "check", "--degree", "-1"), "--degree"),
        (("fn", "classify", "--family", "exp", "--kind", "log-xk-convex", "--xk", "0"), "--xk"),
        (("fn", "classify", "--family", "exp", "--kind", "c-plus-j", "--j", "0"), "--j"),
        (("fn", "classify", "--family", "exp", "--kind", "c-plus-j", "--j", "nan"), "--j"),
        (("lfn", "--family", "exp", "--r", "1", "--rel-tol", "0"), "--rel-tol"),
        (("lfn", "--family", "exp", "--r", "1", "--rel-tol", "-1"), "--rel-tol"),
        (("lfn", "--family", "exp", "--r", "1", "--rel-tol", "nan"), "--rel-tol"),
        (("lsharp", "--family", "exp", "--r", "1", "--rel-tol", "0"), "--rel-tol"),
        (("lsharp", "--family", "exp", "--r", "1", "--rel-tol", "-1"), "--rel-tol"),
        (("seq", "check", "--condition", "A1", "--family", "bell", "--search-cap", "-1"),
         "--search-cap"),
        (("seq", "gen", "--family", "power-factorial", "--n", "-3"), "--n"),
        (("seq", "gen", "--family", "bell", "--n", "500"), "--n"),
        (("seq", "equiv", "--a-family", "bell", "--a-n", "-1", "--b-family", "bell"), "--a-n"),
        (("seq", "equiv", "--a-family", "bell", "--b-family", "bell", "--b-n", "201"), "--b-n"),
        (("seq", "gen", "--family", "bell", "--order", "0"), "--order"),
        (("seq", "gen", "--family", "bell", "--order", "6", "--n", "10"), "--order"),
        (("seq", "check", "--family", "bell", "--order", "7", "--n", "10",
          "--condition", "A1"), "--order"),
        (("seq", "equiv", "--a-family", "bell", "--b-family", "bell", "--b-order", "6"),
         "--b-order"),
        (("seq", "gen", "--family", "power-factorial", "--beta", "2"), "--beta"),
        (("seq", "equiv", "--a-family", "bell", "--a-order", "0", "--b-family", "bell"),
         "--a-order"),
        (("seq", "equiv", "--a-family", "bell", "--b-family", "power-factorial",
          "--b-beta", "nan"), "--b-beta"),
        (("verify", "--suite", "a4", "--tol", "nan"), "--tol"),
        (("verify", "--suite", "a4", "--tol", "inf"), "--tol"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_bad_value_is_a_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1

    def test_chaos_file_dimension_must_match(self, capsys, tmp_path):
        from growthcalc.holo import random_chaos

        path = tmp_path / "chaos.json"
        random_chaos(2, 4, seed=3).save(path)
        code, out, err = run(capsys, "holo", "check", "--chaos-file", str(path), "--dim", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: --dim ")


def cache_entries(cache):
    return sorted(cache.iterdir()) if cache.exists() else []


class TestCacheIntegrity:
    ELL = ("ell", "--family", "ks", "--beta", "0.5", "--t", "2.5")

    @pytest.mark.parametrize("damage", [
        lambda raw: raw[: len(raw) // 2],
        lambda raw: b"",
        lambda raw: b"\xff\xfe\x00",
        lambda raw: b"[]",
        lambda raw: b'{"output": 3, "exit": 0}',
        lambda raw: b'{"output": "x\\n", "exit": "0"}',
        lambda raw: b'{"output": "x\\n"}',
    ], ids=["truncated", "empty", "binary", "list", "output-type", "exit-type",
            "no-exit"])
    def test_corrupt_entry_is_a_miss_and_rewritten(self, capsys, tmp_path, damage):
        cache = tmp_path / "cache"
        fresh = run(capsys, *self.ELL)
        run(capsys, *self.ELL, "--cache-dir", str(cache))
        (entry,) = cache_entries(cache)
        entry.write_bytes(damage(entry.read_bytes()))
        assert run(capsys, *self.ELL, "--cache-dir", str(cache)) == fresh
        assert cache_entries(cache) == [entry]
        assert json.loads(entry.read_text()) == {"output": fresh[1], "exit": fresh[0]}

    def test_entry_under_other_sources_is_not_replayed(
        self, capsys, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        argv = (*self.ELL, "--cache-dir", str(cache))
        code, out, _ = run(capsys, *argv)
        (entry,) = cache_entries(cache)
        entry.write_text(json.dumps({"output": "stale\n", "exit": 0}))
        assert run(capsys, *argv)[1] == "stale\n"  # same sources: replayed
        monkeypatch.setattr(cli, "_source_hash", lambda: "0" * 64)
        assert run(capsys, *argv)[:2] == (code, out)
        assert len(cache_entries(cache)) == 2

    def test_source_hash_covers_every_module(self, tmp_path, monkeypatch):
        here = os.path.dirname(os.path.abspath(cli.__file__))
        real = cli._source_hash()
        copies = [name for name in os.listdir(here) if name.endswith(".py")]
        for name in copies:
            (tmp_path / name).write_bytes(Path(here, name).read_bytes())
        monkeypatch.setattr(cli, "__file__", str(tmp_path / "cli.py"))
        assert cli._source_hash() == real
        (tmp_path / "notes.txt").write_text("not a source")
        assert cli._source_hash() == real
        seen = {real}
        for name in sorted(copies):
            with open(tmp_path / name, "a") as fh:
                fh.write("\n")
            seen.add(cli._source_hash())
        assert len(seen) == len(copies) + 1

    @pytest.mark.parametrize("kind", ["chaos-file", "registry", "file", "a-file"])
    def test_input_file_bytes_are_in_the_key(self, capsys, tmp_path, kind):
        from growthcalc.holo import random_chaos
        from growthcalc.sequences import gen_bell, gen_power_factorial

        path = tmp_path / "input.json"
        versions = {
            "chaos-file": [lambda s=s: random_chaos(2, 4, seed=s).save(path)
                           for s in (3, 4)],
            "registry": [
                lambda b=b: path.write_text(json.dumps(
                    {"w": {"family": "ks", "params": {"beta": b}}}))
                for b in (0.5, 1.0)
            ],
            "file": [lambda b=b: gen_power_factorial(b, 40).save(path)
                     for b in (0.0, 0.5)],
            "a-file": [lambda k=k: gen_bell(k, 20).save(path) for k in (2, 3)],
        }[kind]
        argv = {
            "chaos-file": ("holo", "check", "--chaos-file", str(path),
                           "--samples", "20"),
            "registry": ("ell", "--registry", str(path), "--name", "w", "--t", "2"),
            "file": ("fn", "eval", "--family", "series", "--file", str(path),
                     "--r", "0.1"),
            "a-file": ("seq", "equiv", "--a-file", str(path), "--b-family", "bell",
                       "--b-order", "2", "--b-n", "20"),
        }[kind]
        cache = str(tmp_path / "cache")
        outputs = []
        for write in versions:
            write()
            cached = run(capsys, *argv, "--cache-dir", cache)
            assert cached == run(capsys, *argv)
            outputs.append(cached)
        assert outputs[0] != outputs[1]

    def test_series_file_of_a_registry_entry_is_in_the_key(
        self, capsys, tmp_path, monkeypatch
    ):
        from growthcalc.sequences import gen_power_factorial

        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.json").write_text(json.dumps(
            {"w": {"family": "series", "params": {"file": "s.json"}}}))
        argv = ("fn", "eval", "--registry", "r.json", "--name", "w", "--r", "0.1")
        outputs = []
        for beta in (0.0, 0.5):
            gen_power_factorial(beta, 40).save("s.json")
            cached = run(capsys, *argv, "--cache-dir", "c")
            assert cached == run(capsys, *argv)
            outputs.append(cached)
        assert outputs[0] != outputs[1]

    def test_cache_dir_naming_a_file_is_a_usage_error(self, capsys, tmp_path):
        taken = tmp_path / "F"
        taken.write_text("not a directory")
        code, out, err = run(capsys, "ell", "--family", "exp", "--t", "1",
                             "--cache-dir", str(taken))
        assert (code, out) == (2, "")
        assert str(taken) in err and "--cache-dir" in err
        assert taken.read_text() == "not a directory"

    def test_unreadable_input_file_skips_the_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code, out, err = run(
            capsys, "ell", "--registry", str(tmp_path / "missing.json"),
            "--name", "w", "--t", "2", "--cache-dir", str(cache),
        )
        assert (code, out) == (2, "")
        assert "--registry" in err
        assert cache_entries(cache) == []

    def test_usage_error_is_not_cached(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = ("ell", "--family", "nope", "--t", "1", "--cache-dir", str(cache))
        assert run(capsys, *argv)[0] == 2
        assert cache_entries(cache) == []

    def test_refusal_replays_byte_identically(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        argv = ("lsharp", "--family", "ks", "--beta", "1.0", "--r", "2",
                "--format", "csv")
        fresh = run(capsys, *argv)
        assert fresh[0] == 1
        assert json.loads(fresh[1])["error"] == "NoDecayCertificate"
        assert run(capsys, *argv, "--cache-dir", str(cache)) == fresh
        assert len(cache_entries(cache)) == 1
        renders = []
        render = cli._render
        monkeypatch.setattr(cli, "_render", lambda *a: renders.append(a) or render(*a))
        assert run(capsys, *argv, "--cache-dir", str(cache)) == fresh
        assert renders == []  # replayed, not recomputed


class TestParser:
    def test_parser_tuples_match_the_library(self):
        from growthcalc.legendre import suite_tags
        from growthcalc.sequences import CONDITIONS

        assert cli._SUITE_TAGS == tuple(suite_tags())
        assert cli._CONDITIONS == tuple(CONDITIONS)
