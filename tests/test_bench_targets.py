"""The benchmark patches polyreg names from outside the package; each must exist.

``bench/spans.py`` wraps every entry of ``TARGETS`` and ``bench/run.py``'s
``Probe`` wraps ``minimize`` and every entry of ``Probe.KEPT``.  A name that
no longer resolves makes every benchmark run fail at install, so trimming the
API fails here first.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    """``spans`` and ``run`` imported from bench/, leaving no trace behind."""
    names = ("spans", "run", "workloads")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    sys.path.insert(0, str(BENCH))
    bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    try:
        yield importlib.import_module("spans"), importlib.import_module("run")
    finally:
        sys.dont_write_bytecode = bytecode
        sys.path.remove(str(BENCH))
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def resolve(target):
    module = importlib.import_module(target[0])
    if len(target) == 2:
        return getattr(module, target[1])
    return getattr(module, target[1]).__dict__[target[2]]


def test_span_targets_resolve(bench_modules):
    spans, _ = bench_modules
    assert spans.TARGETS
    for name, target in spans.TARGETS:
        assert callable(resolve(target)), name


def test_probe_targets_resolve(bench_modules):
    _, run = bench_modules
    assert run.Probe.KEPT
    for target in run.Probe.KEPT + (("polyreg.solver", "minimize"),):
        assert callable(resolve(target)), target
