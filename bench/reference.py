"""Recipe for the tight-tolerance D_poly reference table (reference.json).

Each solver workload's problems are solved again with ``tol = 1e-9``, one
start and an iteration budget large enough that every solve stops on its
tolerance test.  The D_poly of those solutions is the reference against which
the benchmark reports ``d_poly_err``.  Entries are keyed by subcommand, grid,
noise seed and noise levels; the benchmark refuses an entry whose levels do
not match its run.

Run from the repository root, for example:

    python3 bench/reference.py --workload rates-32 --seeds 0 1 2
    python3 bench/reference.py --workload register-128 --grid 16 --seeds 0

New entries replace old ones with the same key; the rest of the table stays.
"""

from __future__ import annotations

import argparse
import json
import time

from workloads import REFERENCE_PATH, WORKLOADS, config_overrides, load_reference, require_source

TOL = 1e-9
MAX_ITER = 200_000


def _config(workload, noise_seed, grid):
    from polyreg.config import load_config

    cfg = load_config()
    for section, values in config_overrides(workload, 0, grid, noise_seed).items():
        cfg[section].update(values)
    cfg["solver"].update({"tol": TOL, "starts": 1, "max_iter": MAX_ITER})
    cfg["experiment"]["exact_row"] = False
    return cfg


def rates_reference(cfg):
    from polyreg.config import build_experiment
    from polyreg.rates import run_rates

    report = run_rates(build_experiment(cfg))
    return [(r.delta, r.d_poly, r.iterations, r.converged) for r in report.rows]


def register_reference(cfg, delta):
    from polyreg.bregman import bregman_poly
    from polyreg.config import build_experiment
    from polyreg.fields import identity_field
    from polyreg.rates import choose_alpha
    from polyreg.registration import add_noise
    from polyreg.solver import TikhonovProblem, minimize

    exp = build_experiment(cfg)
    q = exp.forward.q
    seed = exp.seeds[0]
    sample = add_noise(exp.forward.exact_data, delta, q, seed)
    alpha = choose_alpha(delta, q, exp.alpha0, exp.epsilon,
                         beta2=exp.source_params.beta2)
    problem = TikhonovProblem(exp.integrand, exp.forward.reference, sample, q, alpha,
                              identity_field(exp.u_dagger.grid))
    result = minimize(problem, tol=TOL, max_iter=MAX_ITER, memory=exp.solver_memory)
    d_poly = bregman_poly(exp.integrand, result.u_min, exp.u_dagger, exp.w)
    return [(sample.delta, d_poly, result.iterations, result.converged)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in WORKLOADS.values() if w.solves])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0], help="noise seeds")
    parser.add_argument("--grid", type=int, default=None,
                        help="grid size instead of the workload's own")
    args = parser.parse_args(argv)
    require_source()

    workload = WORKLOADS[args.workload]
    grid = args.grid or workload.grid
    entries = load_reference()
    for seed in args.seeds:
        started = time.perf_counter()
        cfg = _config(workload, seed, grid)
        if workload.command == "rates":
            rows = rates_reference(cfg)
        else:
            rows = register_reference(cfg, workload.delta)
        if not all(converged for *_, converged in rows):
            raise SystemExit(f"seed {seed}: a solve ran out of its {MAX_ITER} iterations")
        entry = {
            "command": workload.command, "nx": grid, "ny": grid,
            "seed": seed,
            "deltas": [float(d) for d, *_ in rows],
            "d_poly": [float(v) for _, v, *_ in rows],
            "iterations": [int(it) for _, _, it, _ in rows],
        }
        key = (entry["command"], grid, entry["seed"])
        entries = [e for e in entries if (e["command"], e["nx"], e["seed"]) != key]
        entries.append(entry)
        entries.sort(key=lambda e: (e["command"], e["nx"], e["seed"]))
        with open(REFERENCE_PATH, "w", encoding="ascii") as fh:
            json.dump({"recipe": {"tol": TOL, "starts": 1, "max_iter": MAX_ITER},
                       "entries": entries}, fh, indent=1)
            fh.write("\n")
        print(f"{workload.command} {grid}x{grid} seed {entry['seed']}: "
              f"d_poly {entry['d_poly']} in {time.perf_counter() - started:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
