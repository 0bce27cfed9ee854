"""The benchmark's span tracer still fits the package.

``perfbench/tracing.py`` wraps package functions and methods by name.  A
refactor that renames or removes one of them fails here, not in a traced
benchmark run.  The test only reads ``perfbench/``.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import heavytail

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    # tracing.py imports its sibling metrics.py as a top-level module.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "metrics"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("tracing")
    for name in ("tracing", "metrics"):
        sys.modules.pop(name, None)


def package_bindings(tracing):
    """Every binding the tracer may rebind: (holder, attribute) -> object."""
    import heavytail.cli  # noqa: F401  (the tracer loads it too)

    modules = [m for n, m in sys.modules.items() if n == "heavytail" or n.startswith("heavytail.")]
    out = {}
    for _, attr, *_ in tracing._TARGETS:
        for module in modules:
            if attr in module.__dict__:
                out[(module, attr)] = module.__dict__[attr]
    for modname, clsname, methods in tracing._METHOD_TARGETS:
        cls = getattr(sys.modules[modname], clsname)
        for method in methods:
            out[(cls, method)] = cls.__dict__[method]
    return out


def test_targets_resolve_and_originals_come_back(tracing):
    for modname, attr, *_ in tracing._TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    for modname, clsname, methods in tracing._METHOD_TARGETS:
        cls = getattr(importlib.import_module(modname), clsname)
        for method in methods:
            assert callable(cls.__dict__.get(method)), (clsname, method)

    before = package_bindings(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for modname, attr, *_ in tracing._TARGETS:
            wrapped = getattr(sys.modules[modname], attr)
            assert wrapped.__wrapped__ is before[(sys.modules[modname], attr)], attr
        # A two-tail density still reaches W through the rebound name.
        dist = heavytail.LambertWDist(heavytail.Gaussian(0.0, 1.0), (0.1, 0.5))
        dist.logpdf(np.linspace(-3.0, 3.0, 7))
        names = [span[1] for span in tracer.spans]
        assert names[0] == "LambertWDist.logpdf" and "lambert_w0" in names
    finally:
        tracer.uninstall()
    after = package_bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
