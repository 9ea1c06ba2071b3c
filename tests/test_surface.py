"""The library surface: every name ``spinorflow.__all__`` lists and every
module of the package as an attribute of it, every
function the benchmark's tracer wraps (``perfbench/tracing.py`` ``TARGETS``,
whose ``Tracer.install`` fails on a missing name), and README's Library
example all resolve and run."""

import functools
import importlib
import os
import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest

import spinorflow

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_resolves():
    # each name is its home module's, bound on first access and by import *
    assert len(set(spinorflow.__all__)) == len(spinorflow.__all__)
    namespace = {}
    exec("from spinorflow import *", namespace)
    assert set(spinorflow.__all__) <= set(namespace)
    assert not set(spinorflow._HOMES) & set(spinorflow.__all__)
    for home, names in spinorflow._HOMES.items():
        module = importlib.import_module("spinorflow." + home)
        # a module resolves as an attribute before any of its names is used
        assert spinorflow.__getattr__(home) is getattr(spinorflow, home) is module
        for name in names:
            assert getattr(spinorflow, name) is getattr(module, name) \
                is namespace[name], name
            # a class or function is defined in its home
            assert getattr(namespace[name], "__module__", module.__name__) \
                == module.__name__, name
    with pytest.raises(AttributeError,
                       match="^module 'spinorflow' has no attribute 'no_such_name'$"):
        spinorflow.no_such_name
    # README's spelling, in a fresh interpreter that has loaded no module yet
    code = "import spinorflow; assert callable(spinorflow.numeric.uncertified)"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def _tracer_targets():
    """``TARGETS`` of ``perfbench/tracing.py``, executed from its source so
    that nothing is imported into, or written under, ``perfbench/``."""
    path = ROOT / "perfbench" / "tracing.py"
    module = types.ModuleType("tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module.TARGETS


@pytest.mark.parametrize("span, modname, attr", _tracer_targets(),
                         ids=[t[0] for t in _tracer_targets()])
def test_every_traced_name_resolves(span, modname, attr):
    owner = importlib.import_module("spinorflow." + modname)
    assert callable(functools.reduce(getattr, attr.split("."), owner)), span


def test_the_readme_library_example_runs(capsys):
    runpy.run_path(str(ROOT / "tools" / "readme_example.py"))
    # the last line is the identity residual, which its comment gives as 0.0
    assert float(capsys.readouterr().out.splitlines()[-1]) <= 1e-14
