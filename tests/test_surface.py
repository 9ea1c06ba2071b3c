"""The library surface: every name ``spinorflow.__all__`` lists, every
function the benchmark's tracer wraps (``perfbench/tracing.py`` ``TARGETS``,
whose ``Tracer.install`` fails on a missing name), and README's Library
example all resolve and run."""

import functools
import importlib
import runpy
import types
from pathlib import Path

import pytest

import spinorflow

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_resolves():
    assert len(set(spinorflow.__all__)) == len(spinorflow.__all__)
    for name in spinorflow.__all__:
        getattr(spinorflow, name)


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
