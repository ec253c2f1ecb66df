"""The benchmark in ``perfbench/`` drives the library through its workload
module; one item of each workload, run as the benchmark runs it, keeps a
library change that breaks one of those calls from passing the tests."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    # nothing is written under perfbench/, not even bytecode
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return _load("workloads", monkeypatch), _load("tracing", monkeypatch)


def test_first_item_of_each_workload_runs(perfbench):
    workloads, tracing = perfbench
    assert set(workloads.WORKLOADS) == {"mc-order10", "tarry-order6", "links-census", "corrections"}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(1)
        item = next(iter(wl.pass_items(0)))
        out = wl.run(item, tracing.Forward)
        assert wl.check(item, out) in (False, True), name
        assert all(isinstance(key, str) for key in wl.keys(item, out)), name
        counts = Counter()
        wl.measure(item, out, tracing.Forward, counts, workloads.Tally())
        assert counts, name
