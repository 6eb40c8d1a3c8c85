"""The benchmark's contract with the package: every name that
`perfbench/workloads.py` and `perfbench/tracer.py` read from ddlkit must
exist, so that a rename in `src/` fails here rather than only when the
benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

import ddlkit
import ddlkit.cli  # noqa: F401  (the tracer wraps the CLI module too)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_builds_warms_up_and_checks_its_inputs(name):
    wl = workloads.WORKLOADS[name](PERFBENCH.parent, ddlkit)
    wl.build(7)
    assert wl.inputs
    wl.warmup()
    for inp in wl.inputs[:5]:
        assert wl.check(inp, wl.run(inp)), inp


def _namespaces():
    return [ddlkit] + [sys.modules[f"ddlkit.{name}"] for name in (
        "syntax", "model", "checker", "search", "hol", "henkin", "export",
        "cli")]


def test_the_tracer_wraps_and_restores_every_traced_name():
    before = [dict(vars(ns)) for ns in _namespaces()]
    t = tracer.Tracer()
    try:
        t.install(ddlkit)
        wrapped = {(ns.__name__, attr) for ns, attr, _ in t._restore}
        # every spanned function is wrapped in its own module
        for mod, fn, _span in tracer.SPANNED:
            assert (f"ddlkit.{mod}", fn) in wrapped, (mod, fn)
        assert ("ddlkit.model", "enumerate_models") in wrapped
        assert ("ddlkit.henkin", "enumerate_domain") in wrapped
    finally:
        t.uninstall()
    after = [dict(vars(ns)) for ns in _namespaces()]
    for old, new in zip(before, after):
        assert new.keys() == old.keys()
        assert all(new[k] is old[k] for k in old)
