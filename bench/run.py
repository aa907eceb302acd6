"""polyreg benchmark: the rates sweep, a 128^2 register solve and the certificate protocol.

One run executes one workload, in this process, by calling the ``polyreg``
command line entry point (single caller, closed loop, no added threads):

    python3 bench/run.py --workload rates-32 --seed 0 --seconds 15 --trace 0

The solver workloads solve one fixed problem (noise seed 0, or
``--noise-seed``); ``--seed`` sets the certificate trials (see workloads.py).
It first measures set-up (import in fresh interpreters, then config load and
object building, several times), then repeats the workload's command on the
same input until ``--seconds`` have passed (at least once) and reports the
median.  ``--trace 1`` adds one traced repetition and reports per-layer
numbers instead of the end-to-end ones.  Every repetition's outputs are
checked; a failed check sets ``"correct": false`` and is printed.  The last
line of standard output is the result as JSON; the full record, with the
environment, lands in ``.bench_run/results/``.

    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
        every timed workload, each in its own process, as one table
    python3 bench/run.py --smoke
        every timed workload at 16^2, untraced and traced: the self-check
    python3 bench/run.py --workload rates-default --seconds 0
        the north-star sweep on the default 64^2 config (about 100 s)

The benchmark builds nothing: it imports ``polyreg`` from ``src/`` of the
checkout it sits in and exits with code 2 when that tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from workloads import (ROOT, SMOKE_GRID, SRC, WORK_DIR, WORKLOADS, config_overrides,
                       find_reference, load_reference, require_source)

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Layers reported with calls, median ms per call and self time.
CALL_LAYERS = (
    "minors.all_minors", "minors.pull_back",
    "integrands.value", "integrands.gradient",
    "fields.energy", "fields.energy_with_gradient", "fields.pairing",
    "fields.random_smooth_field",
    "registration.sample", "registration.sample_with_gradient", "registration.warp",
    "registration.data_term", "registration.admissibility_gap",
    "solver.objective", "solver.objective_and_gradient",
    "bregman.bregman_poly",
)
# Single numbers per traced run: (name, unit).
TRACE_TOTALS = (
    ("solver.self_s", "s"), ("solver.evals_per_iter", "count"),
    ("solver.ms_per_iter", "ms"), ("solver.useful_start_ratio", "ratio"),
    ("bregman.verify_subgradient.s", "s"), ("rates.level_s", "s"),
    ("rates.precheck_s", "s"), ("config.build_experiment_s", "s"),
    ("io.save_field_s", "s"), ("io.save_pgm_s", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead_s", "s"),
    ("solver_iters", "count"), ("objective_evals", "count"),
    ("d_poly_err", "ratio"), ("adm_gap_max", "length"), ("fail_rate", "ratio"),
)
CALL_STATS = (("calls", "count"), ("median_ms", "ms"), ("self_s", "s"))

IMPORT_PROBE = ("import time; t = time.perf_counter(); import polyreg.cli; "
                "print(time.perf_counter() - t)")
SETUP_REPEATS = 11
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
GATE = (0.8, 1.2)


@dataclass
class Unit:
    """One execution of a workload's command and what its outputs showed."""

    wall: float
    attempted: int
    failed: int
    iters: int = 0
    evals: int = 0
    minimize_calls: int = 0
    kept_solves: int = 0
    d_poly_err: float | None = None
    adm_gap_max: float = 0.0
    level_s: float = 0.0
    digest: str | None = None
    problems: list = field(default_factory=list)

    def counts(self):
        return (self.attempted, self.failed, self.iters, self.evals, self.minimize_calls)


class Probe:
    """Counters at the solver and sweep boundaries; cheap enough for timed runs."""

    KEPT = (("polyreg.solver", "solve_multi_start"), ("polyreg.rates", "run_rates"),
            ("polyreg.bregman", "verify_subgradient"))

    def __init__(self):
        self.iters = self.evals = self.minimize_calls = 0
        self.returned = {name: [] for _, name in self.KEPT}
        self._undo = []

    def install(self):
        from spans import replace

        replace(("polyreg.solver", "minimize"), self._count, self._undo)
        for target in self.KEPT:
            replace(target, functools.partial(self._keep, self.returned[target[1]]),
                    self._undo)

    def uninstall(self):
        from spans import restore

        restore(self._undo)

    def _count(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.minimize_calls += 1
            self.iters += result.iterations
            self.evals += result.evaluations
            return result
        return counted

    @staticmethod
    def _keep(results, fn):
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            results.append(result)
            return result
        return kept


def _median(values):
    return float(statistics.median(values))


def _sha256_files(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def source_digest():
    """Hash of the polyreg source: names the code in checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "polyreg").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure_setup(workload, cfg_path):
    """Import (median over fresh interpreters) plus config load and build (median)."""
    from polyreg.config import build_experiment, build_grid, build_integrand, load_config

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    imports = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        imports.append(float(done.stdout.strip().splitlines()[-1]))
    builds = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        cfg = load_config(cfg_path)
        if workload.solves:
            build_experiment(cfg)
        else:
            build_grid(cfg)
            build_integrand(cfg)
        builds.append(perf_counter() - started)
    return _median(imports) + _median(builds)


def run_unit(workload, cfg_path, out_dir, grid, noise_seed, reference, tracer=None):
    from polyreg import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    if workload.command == "rates":
        argv = ["rates", "--config", cfg_path, "--out", os.path.join(out_dir, "report.csv")]
    elif workload.command == "register":
        argv = ["register", "--config", cfg_path, "--delta", repr(workload.delta),
                "--out", out_dir]
    else:
        argv = ["verify-subgradient", "--config", cfg_path]
    probe = Probe()
    probe.install()
    if tracer is not None:
        tracer.install()
    error = None
    try:
        with open(os.path.join(out_dir, "stdout.log"), "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log):
            started = perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # reported as a failed operation, never dropped
                code, error = None, traceback.format_exc()
            wall = perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
        probe.uninstall()
    return evaluate(workload, probe, code, error, wall, out_dir, grid, noise_seed, reference)


def evaluate(workload, probe, code, error, wall, out_dir, grid, noise_seed, reference):
    """Check the unit's outputs and collect its counts (untimed, untraced)."""
    from polyreg.registration import admissibility_gap

    kept = probe.returned["solve_multi_start"]
    unit = Unit(wall=wall, attempted=1, failed=0, iters=probe.iters, evals=probe.evals,
                minimize_calls=probe.minimize_calls, kept_solves=len(kept))
    if kept:
        unit.adm_gap_max = max(admissibility_gap(r.u_min) for r in kept)
    if error is not None:
        unit.failed = unit.attempted
        unit.problems.append("raised " + error.strip().splitlines()[-1])
        return unit

    if workload.command == "verify-subgradient":
        reports = probe.returned["verify_subgradient"]
        unit.attempted = sum(r.trials for r in reports)
        unit.failed = sum(r.violations for r in reports)
        if unit.failed or code != 0:
            unit.problems.append(f"{unit.failed} certificate violations (exit code {code})")
        return unit

    if workload.command == "register":
        summary_path = os.path.join(out_dir, "summary.json")
        summary = {}
        if os.path.isfile(summary_path):
            with open(summary_path, encoding="ascii") as fh:
                summary = json.load(fh)
        numbers = [v for v in summary.values() if isinstance(v, (int, float))]
        unit.failed = int(code != 0)
        if code != 0:
            unit.problems.append(f"register exited with code {code}")
        if not numbers or not all(math.isfinite(v) for v in numbers):
            unit.problems.append("summary.json missing or not finite")
            return unit
        rows = [(summary["delta"], summary["d_poly"])]
    else:
        report = probe.returned["run_rates"][-1]
        unit.attempted = len(report.rows)
        unit.failed = sum(not r.converged for r in report.rows)
        if unit.failed:
            unit.problems.append(f"{unit.failed} of {unit.attempted} level solves "
                                 "did not converge")
        unit.level_s = _median([r.wallclock for r in report.rows])
        rows = [(r.delta, r.d_poly) for r in report.rows if not r.exact]
        stem = os.path.join(out_dir, "report")
        unit.digest = _sha256_files([stem + ".csv", stem + "_slopes.json"])
        if workload.name == "rates-default" and grid == workload.grid:
            unit.problems += gate_problems(report)
        if not all(math.isfinite(d) for _, d in rows):
            unit.problems.append("non-finite D_poly in the report")

    ref = find_reference(reference, workload.command, grid, noise_seed)
    if ref is not None:
        if ref["deltas"] != [float(d) for d, _ in rows]:
            unit.problems.append("reference table does not match the run's noise levels")
        else:
            unit.d_poly_err = max(abs(d - r) / r for (_, d), r in zip(rows, ref["d_poly"]))
    return unit


def gate_problems(report):
    """Criterion-9 slope gates, as the acceptance suite applies them."""
    problems = []
    if report.d_poly_fit is None or report.residual_fit is None:
        return ["slope fit missing"]
    d_slope, r_slope = report.d_poly_fit.slope, report.residual_fit.slope
    superlinear = d_slope > GATE[1] and report.d_poly_monotone
    if not (GATE[0] <= d_slope <= GATE[1] or superlinear):
        problems.append(f"distance slope {d_slope:.4f} outside {list(GATE)}")
    if not GATE[0] <= r_slope <= GATE[1]:
        problems.append(f"residual slope {r_slope:.4f} outside {list(GATE)}")
    return problems


def check_digest(store_path, key, digest):
    """Report files must be byte-identical across runs of the same source."""
    store = {}
    if os.path.isfile(store_path):
        with open(store_path, encoding="utf-8") as fh:
            store = json.load(fh)
    if key in store:
        return [] if store[key] == digest else ["report files differ from an earlier run "
                                                "of the same source"]
    store[key] = digest
    with open(store_path, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    return []


def environment():
    import numpy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "platform": platform.platform()}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = None
    env["blas_threads_env"] = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), None)
        caches = {}
        for index in sorted(os.listdir("/sys/devices/system/cpu/cpu0/cache")):
            base = os.path.join("/sys/devices/system/cpu/cpu0/cache", index)
            if not os.path.isfile(os.path.join(base, "size")):
                continue
            with open(os.path.join(base, "level")) as lv, open(os.path.join(base, "type")) as tp, \
                    open(os.path.join(base, "size")) as sz:
                caches[f"L{lv.read().strip()} {tp.read().strip()}"] = sz.read().strip()
        env["caches"] = caches
        with open("/proc/loadavg", encoding="ascii") as fh:
            env["loadavg"] = [float(v) for v in fh.read().split()[:3]]
    except OSError:
        pass
    env["git_sha"] = env["git_dirty"] = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            env["git_sha"] = head.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    env["source_sha256"] = source_digest()
    return env


def run_workload(name, seed, seconds, trace, grid=None, noise_seed=0):
    workload = WORKLOADS[name]
    grid = int(grid or workload.grid)
    stem = f"{name}-g{grid}-seed{seed}-noise{noise_seed}"
    run_dir = WORK_DIR / f"{stem}-trace{trace}-{os.getpid()}"
    results_dir = WORK_DIR / "results"
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    cfg_path = str(run_dir / "config.json")
    with open(cfg_path, "w", encoding="ascii") as fh:
        json.dump(config_overrides(workload, seed, grid, noise_seed), fh)

    try:
        setup_s = measure_setup(workload, cfg_path)
        reference = load_reference()
        out_dir = str(run_dir / "out")
        units = []
        started = perf_counter()
        while not units or perf_counter() - started < seconds:
            units.append(run_unit(workload, cfg_path, out_dir, grid, noise_seed, reference))
        traced = tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()
            traced = run_unit(workload, cfg_path, out_dir, grid, noise_seed, reference,
                              tracer)
            tracer.save(results_dir / f"{stem}-spans.npz")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    everything = units + ([traced] if traced else [])
    problems = sorted({p for u in everything for p in u.problems})
    if len({u.counts() for u in everything}) > 1:
        problems.append("counts differ between repetitions of the same input"
                        + (" (traced and untraced)" if traced else ""))
    digests = {u.digest for u in everything}
    if len(digests) > 1:
        problems.append("report files differ between repetitions of the same input")
    elif None not in digests:
        # BLAS thread count sets the reduction order, hence the report's last bits.
        threads = [os.cpu_count()] + [os.environ.get(v) for v in BLAS_THREAD_VARS]
        key = f"{source_digest()}:{threads}:{name}:{grid}:{noise_seed}"
        problems += check_digest(WORK_DIR / "report_digests.json", key, digests.pop())

    wall_s = _median([u.wall for u in units])
    last = everything[-1]
    attempted = sum(u.attempted for u in everything)
    failed = sum(u.failed for u in everything)
    result = {
        "workload": name, "grid": grid, "seed": seed, "seconds": seconds,
        "noise_seed": noise_seed if workload.solves else None,
        "repetitions": len(units), "unit_walls_s": [u.wall for u in units],
        "solver_iters": last.iters, "objective_evals": last.evals,
        "d_poly_err": last.d_poly_err, "adm_gap_max": last.adm_gap_max,
        "fail_rate": failed / attempted, "problems": problems,
        "environment": environment(),
    }
    if trace:
        table = tracer.table()
        result["layers"] = table
        result["trace"] = {"traced_wall_s": traced.wall, "untraced_wall_s": wall_s,
                           "coverage": tracer.top_level_seconds() / traced.wall,
                           "overhead_s": traced.wall - wall_s}
        metrics = per_layer_metrics(table, traced, result)
    else:
        values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: (values[name], unit_name) for name, unit_name in END_TO_END}
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["correct"] = not problems
    with open(results_dir / f"{stem}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print_report(result)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": result["metrics"]}


def per_layer_metrics(table, unit, result):
    metrics = {f"{layer}.{stat}": (table[layer][stat], unit_name)
               for layer in CALL_LAYERS for stat, unit_name in CALL_STATS}
    minimize = table["solver.minimize"]
    totals = {
        "solver.self_s": minimize["self_s"],
        "solver.evals_per_iter": unit.evals / unit.iters if unit.iters else 0.0,
        "solver.ms_per_iter": minimize["total_s"] * 1e3 / unit.iters if unit.iters else 0.0,
        "solver.useful_start_ratio": (unit.kept_solves / unit.minimize_calls
                                      if unit.minimize_calls else 0.0),
        "bregman.verify_subgradient.s": table["bregman.verify_subgradient"]["total_s"],
        "rates.level_s": unit.level_s,
        "rates.precheck_s": table["rates.precheck"]["total_s"],
        "config.build_experiment_s": table["config.build_experiment"]["total_s"],
        "io.save_field_s": table["io.save_field"]["total_s"],
        "io.save_pgm_s": table["io.save_pgm"]["total_s"],
        "trace.coverage": result["trace"]["coverage"],
        "trace.overhead_s": result["trace"]["overhead_s"],
        "solver_iters": unit.iters,
        "objective_evals": unit.evals,
        "d_poly_err": unit.d_poly_err if unit.d_poly_err is not None else 0.0,
        "adm_gap_max": unit.adm_gap_max,
        "fail_rate": result["fail_rate"],
    }
    metrics.update({name: (totals[name], unit_name) for name, unit_name in TRACE_TOTALS})
    return metrics


def print_report(result):
    env = result["environment"]
    seeds = (f"noise seed {result['noise_seed']}" if result["noise_seed"] is not None
             else f"seed {result['seed']}")
    print(f"{result['workload']} at {result['grid']}x{result['grid']}, {seeds}: "
          f"{result['repetitions']} untraced repetition(s) "
          f"{[round(w, 3) for w in result['unit_walls_s']]} s")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, {env.get('blas')}, "
          f"{env['nproc']} cpus {env.get('cpu')}, load {env.get('loadavg')}, "
          f"git {env['git_sha']} dirty={env['git_dirty']}")
    d_err = result["d_poly_err"]
    print(f"solver_iters {result['solver_iters']}  objective_evals {result['objective_evals']}  "
          f"d_poly_err {'n/a (no reference)' if d_err is None else f'{d_err:.6g}'}  "
          f"adm_gap_max {result['adm_gap_max']:.6g}  fail_rate {result['fail_rate']:.6g}")
    if "layers" in result:
        print(f"{'layer':36s} {'calls':>8s} {'median ms':>10s} {'p99 ms':>9s} {'self s':>9s}")
        for layer, row in sorted(result["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            p99 = "-" if row["p99_ms"] is None else f"{row['p99_ms']:.4f}"
            print(f"{layer:36s} {row['calls']:8d} {row['median_ms']:10.4f} {p99:>9s} "
                  f"{row['self_s']:9.3f}")
        tr = result["trace"]
        print(f"trace coverage {tr['coverage']:.3f}, overhead {tr['overhead_s']:.3f} s "
              f"(traced {tr['traced_wall_s']:.3f} s, untraced {tr['untraced_wall_s']:.3f} s)")
    else:
        for name, m in result["metrics"].items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")


def run_all(seed, seconds, traces, grid, noise_seed):
    """Every timed workload in its own process; checks the result line's shape."""
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else None
    ok = True
    for trace in traces:
        for name in (n for n, w in WORKLOADS.items() if w.timed):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                    "--noise-seed", str(noise_seed)]
            if grid:
                argv += ["--grid", str(grid)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name}: no result (exit code {done.returncode})\n{done.stderr}")
                ok = False
                continue
            shape = result_shape_problems(result, trace, spec)
            print(f"== {name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                if line.startswith("CHECK FAILED"):
                    print("   " + line)
            for metric, m in result["metrics"].items():
                print(f"   {metric:40s} {m['value']:.6g} {m['unit']}")
            for problem in shape:
                print(f"   BAD RESULT: {problem}")
            ok = ok and done.returncode == 0 and result["correct"] and not shape
    print("all workloads correct" if ok else "SOME WORKLOADS FAILED")
    return 0 if ok else 1


def result_shape_problems(result, trace, spec):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    if spec is not None:
        listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        if sorted(listed) != sorted(result.get("metrics", {})):
            problems.append("metric names differ from BENCHMARK.json")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every timed workload")
    which.add_argument("--smoke", action="store_true",
                       help=f"every timed workload at {SMOKE_GRID}^2, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", type=int, default=None,
                        help="grid size instead of the workload's own")
    parser.add_argument("--noise-seed", type=int, default=0,
                        help="noise seed of the solver workloads (--seed varies the "
                             "certificate trials only)")
    args = parser.parse_args(argv)
    require_source()
    if args.smoke:
        return run_all(args.seed, 0.0, (0, 1), SMOKE_GRID, args.noise_seed)
    if args.all:
        return run_all(args.seed, args.seconds, (args.trace,), args.grid, args.noise_seed)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.grid,
                          args.noise_seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
