"""The benchmark in ``perfbench/`` drives the library through its workload
module; one item of each workload, run as the benchmark runs it, keeps a
library change that breaks one of those calls from passing the tests."""

import hashlib
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


# The first pass of each workload at seed 7, hashed as ``Digest`` in
# perfbench/run.py hashes it: each item's input key and output key, one line
# each, in two SHA-256 digests cut to 16 hex digits.  The benchmark prints
# the same two digests; a library change that keeps every answer keeps them.
SEED7_DIGESTS = {
    "mc-order10": ("057bc24524306a67", "db2f0811fd2d79cb"),
    "tarry-order6": ("c3072f516143153d", "3ac5b214cbbad1d7"),
    "links-census": ("0efdf5c5f713a4dc", "210a0f25a7f7ceae"),
    "corrections": ("5d7acac4987d6c42", "8eb6a8c6d44a706d"),
}


@pytest.mark.parametrize("name", sorted(SEED7_DIGESTS))
def test_first_pass_digests_at_seed_7(perfbench, name):
    workloads, tracing = perfbench
    wl = workloads.WORKLOADS[name](7)
    inputs, outputs = hashlib.sha256(), hashlib.sha256()
    for item in wl.pass_items(0):
        out = wl.run(item, tracing.Forward)
        wl.check(item, out)
        key_in, key_out = wl.keys(item, out)
        inputs.update(key_in.encode() + b"\n")
        outputs.update(key_out.encode() + b"\n")
    wl.end_pass()
    assert (inputs.hexdigest()[:16], outputs.hexdigest()[:16]) == SEED7_DIGESTS[name]
