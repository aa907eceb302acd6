"""The benchmark patches polyreg names from outside the package; each must exist.

``bench/spans.py`` wraps every entry of ``TARGETS`` and ``bench/run.py``'s
``Probe`` wraps ``minimize`` and every entry of ``Probe.KEPT``.  A name that
no longer resolves makes every benchmark run fail at install, so trimming the
API fails here first.
"""

import dataclasses
import importlib
import inspect
import json
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


# What ``Probe``, ``evaluate`` and ``gate_problems`` in bench/run.py read from
# the results of the calls they hook.  A missing attribute fails every run of
# the workload that reads it (rates-32 reads RateRow.wallclock for its
# level_s), so it too must fail here first.
READ_BY_EVALUATE = {
    ("polyreg.rates", "RateRow"): ("delta", "d_poly", "converged", "exact", "wallclock"),
    ("polyreg.rates", "RateReport"): ("rows", "d_poly_fit", "residual_fit", "d_poly_monotone"),
    ("polyreg.rates", "SlopeFit"): ("slope",),
    ("polyreg.bregman", "SubgradientReport"): ("trials", "violations"),
    ("polyreg.solver", "MinimizeResult"): ("u_min", "iterations", "evaluations"),
}


@pytest.mark.parametrize("target", sorted(READ_BY_EVALUATE), ids=lambda t: t[1])
def test_attributes_read_by_evaluate_exist(bench_modules, target):
    _, run = bench_modules
    cls = resolve(target)
    present = {f.name for f in dataclasses.fields(cls)} | set(dir(cls))
    source = "".join(inspect.getsource(fn) for fn in (run.Probe, run.evaluate,
                                                      run.gate_problems))
    for name in READ_BY_EVALUATE[target]:
        assert f".{name}" in source, f"bench/run.py no longer reads {name}"
        assert name in present, f"{target[1]}.{name} is gone"


def test_every_solve_goes_through_the_probe_hook(monkeypatch, tmp_path):
    # The probe reads adm_gap_max from what solve_multi_start returns and
    # useful_start_ratio as its calls per minimize call; both keep their
    # meaning only while every level solve is one hooked call of one minimize.
    from polyreg import rates, solver
    from polyreg.cli import main
    from polyreg.config import build_experiment, load_config

    calls = {"hook": 0, "minimize": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(rates, "solve_multi_start", counting("hook", rates.solve_multi_start))
    monkeypatch.setattr(solver, "minimize", counting("minimize", solver.minimize))
    overlay = {"grid": {"nx": 12, "ny": 12},
               "experiment": {"levels": 3, "fit_levels": 3, "seeds": [0, 1]},
               "solver": {"max_iter": 20}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overlay))

    report = rates.run_rates(build_experiment(load_config(str(config))))
    assert len(report.rows) == 3 * 2 + 1
    assert calls == {"hook": len(report.rows), "minimize": len(report.rows)}

    calls.update(hook=0, minimize=0)
    main(["register", "--config", str(config), "--delta", "0.05",
          "--out", str(tmp_path / "reg")])
    assert calls == {"hook": 1, "minimize": 1}


def test_a_laddered_register_hooks_the_fine_solve_alone(monkeypatch, tmp_path):
    # From 128 nodes per axis register first solves coarse levels, each one
    # minimize call outside the hook, so adm_gap_max still reads the fine
    # field alone and useful_start_ratio reads 1 of 1 + len(ladder).
    from polyreg import rates, solver
    from polyreg.cli import main

    hooked, minimized = [], []

    def keeping(results, fn):
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            results.append(result)
            return result
        return kept

    monkeypatch.setattr(rates, "solve_multi_start", keeping(hooked, rates.solve_multi_start))
    monkeypatch.setattr(solver, "minimize", keeping(minimized, solver.minimize))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"nx": 128, "ny": 128},
                                  "solver": {"max_iter": 2}}))
    main(["register", "--config", str(config), "--delta", "0.0125",
          "--out", str(tmp_path / "reg")])
    assert len(hooked) == 1
    assert len(minimized) == 1 + len(rates.coarse_sizes(128, 128))
    assert [r.u_min.grid.nx for r in minimized] == [16, 32, 64, 128]
    assert hooked[0] is minimized[-1]
