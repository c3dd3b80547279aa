"""Lazy loading: ``import growthcalc`` loads no submodule, every public
name resolves to its defining module's object, and a CLI cache replay
answers without the numeric stack.  Every name the benchmark's tracer
wraps exists."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import growthcalc
from growthcalc.cli import main

SUBMODULES = ("cli", "growthfn", "holo", "legendre", "numerics", "sequences")
LIBRARY = ("growthcalc.growthfn", "growthcalc.holo", "growthcalc.legendre",
           "growthcalc.sequences", "numpy")
RUN_CLI = "import sys\nfrom growthcalc.cli import main\ncode = main(sys.argv[1:])\n"


def child(script, *argv):
    """Run script (which may set ``code``) in a fresh interpreter on these
    sources: (exit code, stdout, sorted sys.modules at its end)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(growthcalc.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script += (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
        "sys.exit(globals().get('code', 0))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return done.returncode, done.stdout, json.loads(done.stderr.splitlines()[-1])


def loaded(modules):
    return [m for m in LIBRARY if m in modules]


def test_import_loads_no_submodule():
    _, _, modules = child("import growthcalc")
    assert "numpy" not in modules
    assert [m for m in modules if m.startswith("growthcalc.")] == []


def test_first_use_of_a_name_loads_its_module():
    _, _, modules = child("import growthcalc\ngrowthcalc.ell")
    assert loaded(modules) == ["growthcalc.growthfn", "growthcalc.legendre",
                               "growthcalc.sequences", "numpy"]


def test_cli_cache_hit_loads_no_numeric_stack(capsys, tmp_path):
    argv = ("ell", "--family", "ks", "--beta", "0.5", "--t", "2.5",
            "--cache-dir", str(tmp_path / "cache"))
    code = main(list(argv))
    out = capsys.readouterr().out
    child_code, child_out, modules = child(RUN_CLI, *argv)
    assert (child_code, child_out) == (code, out)
    assert loaded(modules) == []


def test_cli_miss_loads_only_what_its_command_needs(tmp_path):
    code, out, modules = child(
        RUN_CLI, "ell", "--family", "exp", "--t", "2", "--cache-dir", str(tmp_path)
    )
    assert code == 0 and json.loads(out)["rho"] > 0
    assert loaded(modules) == ["growthcalc.growthfn", "growthcalc.legendre",
                               "growthcalc.sequences", "numpy"]


def test_every_public_name_is_the_defining_modules_object():
    assert growthcalc.__all__ == sorted(set(growthcalc.__all__))
    for name in growthcalc.__all__:
        obj = getattr(growthcalc, name)
        module = obj.__module__
        assert module.startswith("growthcalc."), name
        assert getattr(importlib.import_module(module), name) is obj, name


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from growthcalc import *", scope)
    assert {n for n in scope if n != "__builtins__"} == set(growthcalc.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve(name):
    assert getattr(growthcalc, name) is importlib.import_module(f"growthcalc.{name}")


def test_dir_lists_the_namespace():
    listed = set(dir(growthcalc))
    assert {*growthcalc.__all__, *SUBMODULES, "__version__"} <= listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        growthcalc.no_such_name
    assert not hasattr(growthcalc, "_brent_min_rows")


def test_every_name_the_traced_benchmark_wraps_exists():
    # perfbench/tracing.py wraps these by name: a missing one breaks the
    # benchmark's traced run
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.SPANNED.items():
        assert module in tracing.MODULES
        mod = importlib.import_module(f"growthcalc.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"growthcalc.{module}.{name}"
    assert callable(importlib.import_module("growthcalc.growthfn").GrowthFunction.phi_at)
