"""Command line entry point.

Subcommands:
  check-gradient      finite-difference checks of every built-in density
  register            one regularized solve at a given noise level
  rates               full noise sweep with CSV report and fitted slopes
  verify-subgradient  sampled certificate protocol at several base points
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import io as pio
from .bregman import poly_subgradient, verify_subgradient, zero_subgradient
from .config import build_experiment, build_grid, build_integrand, load_config
from .fields import (
    Grid,
    energy,
    energy_with_gradient,
    identity_field,
    random_smooth_field,
)
from .integrands import detsq_energy, pq_energy, rotation_energy
from .rates import coarse_to_fine_start, run_rates, solve_level
from .registration import rotation_field, warp


def _noise_level(text) -> float:
    delta = float(text)
    if not (math.isfinite(delta) and delta >= 0):
        raise argparse.ArgumentTypeError(
            f"noise level must be a finite number >= 0, got {text!r}")
    return delta


def _leaves_domain(gap, grid, what) -> bool:
    """Warn on stderr when ``what`` leaves the domain by more than one cell
    width (``max(grid.spacing)``); returns whether it did."""
    cell = max(grid.spacing)
    if gap <= cell:
        return False
    print(f"warning: {what} leaves the domain by {gap:.3g}, "
          f"more than one cell width ({cell:.3g})", file=sys.stderr)
    return True


def cmd_check_gradient(args) -> int:
    from .minors import all_minors, apply_minors_gradient, minors_gradient

    cfg = load_config(args.config)
    grid = Grid(((-1.0, 1.0), (-1.0, 1.0)), 12, 12)
    densities = [
        rotation_energy(cfg["integrand"]["p"]),
        pq_energy(4.0, 2.0),
        detsq_energy(),
    ]
    failures = 0
    h = 1e-5

    def record(label, worst):
        nonlocal failures
        status = "PASS" if worst < 1e-6 else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{label}: max rel err {worst:.3e} {status}")

    rng = np.random.default_rng(404)
    worst = 0.0
    for n in (2, 3):
        for _ in range(40):
            a = rng.uniform(-2, 2, (n, n))
            direction = rng.uniform(-1, 1, (n, n))
            exact = apply_minors_gradient(minors_gradient(a), direction)
            fd = (all_minors(a + h * direction) - all_minors(a - h * direction)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(exact - fd) / np.maximum(np.abs(fd), 1.0))))
    record("minors-jacobian", worst)

    for F in densities:
        worst = 0.0
        for _ in range(40):
            xi = rng.uniform(-2, 2, F.layout.tau)
            g = F.gradient(None, None, xi)[2]
            direction = rng.uniform(-1, 1, F.layout.tau)
            fd = (F.value(None, None, xi + h * direction)
                  - F.value(None, None, xi - h * direction)) / (2 * h)
            worst = max(worst, abs(np.dot(g, direction) - fd) / max(1.0, abs(fd)))
        record(f"density-gradient {F.name}", worst)

    for F in densities:
        worst = 0.0
        for k in range(5):
            u = random_smooth_field(grid, seed=[303, k], amplitude=0.6)
            g = energy_with_gradient(u, F)[1]
            for d in range(3):
                phi = random_smooth_field(grid, seed=[909, k, d], amplitude=1.0)
                plus = energy(u.with_values(u.values + h * phi.values), F)
                minus = energy(u.with_values(u.values - h * phi.values), F)
                fd = (plus - minus) / (2.0 * h)
                exact = float(np.sum(g * phi.values))
                worst = max(worst, abs(fd - exact) / max(1e-12, abs(fd)))
        record(f"energy-gradient {F.name}", worst)
    return 1 if failures else 0


# The RateRow fields that ``register`` writes to summary.json.
_SUMMARY_FIELDS = ("delta", "alpha", "seed", "objective", "iterations", "converged",
                   "stop_reason", "grad_sup", "energy", "d_poly", "admissibility_gap")


def cmd_register(args) -> int:
    cfg = load_config(args.config)
    exp = build_experiment(cfg)
    seed = exp.seeds[0]
    start, ladder = coarse_to_fine_start(exp, args.delta, seed, lambda nx, ny: (
        build_experiment(dict(cfg, grid=dict(cfg["grid"], nx=nx, ny=ny)))))
    row, u_min = solve_level(exp, args.delta, seed, start)
    os.makedirs(args.out, exist_ok=True)
    pio.save_field(os.path.join(args.out, "deformation.csv"), u_min)
    pio.save_pgm(os.path.join(args.out, "warped.pgm"), warp(exp.forward.reference, u_min))
    with open(os.path.join(args.out, "summary.json"), "w", encoding="ascii") as fh:
        json.dump({key: getattr(row, key) for key in _SUMMARY_FIELDS}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    metric = "scalar" if row.metric_shift is None else f"H1 with shift {row.metric_shift:.3g}"
    coarse = ", ".join(f"{nx}x{ny}: {iterations}" for nx, ny, iterations in ladder)
    if coarse:
        coarse = f", started from coarse solves {coarse} iterations"
    print(f"objective {row.objective!r} after {row.iterations} iterations "
          f"(converged: {row.converged}, stopped on {row.stop_reason}, "
          f"initial metric {metric}{coarse})")
    if _leaves_domain(row.admissibility_gap, u_min.grid, "the field"):
        return 1
    return 0 if row.converged else 1


def cmd_rates(args) -> int:
    cfg = load_config(args.config)
    exp = build_experiment(cfg)
    report = run_rates(exp)
    report.write_csv(args.out)
    slopes_path = os.path.splitext(args.out)[0] + "_slopes.json" \
        if not args.slopes else args.slopes
    report.write_slopes(slopes_path)
    for line in report.warnings:
        print(f"warning: {line}")
    for row in report.rows:
        _leaves_domain(row.admissibility_gap, exp.u_dagger.grid,
                       f"the row at delta {row.delta!r} (seed {row.seed})")
    if report.d_poly_fit is not None:
        print(f"distance slope {report.d_poly_fit.slope:.4f} "
              f"(r2 {report.d_poly_fit.r2:.4f})")
    if report.residual_fit is not None:
        print(f"residual slope {report.residual_fit.slope:.4f} "
              f"(r2 {report.residual_fit.r2:.4f})")
    print(f"report written to {args.out}")
    return 0


def cmd_verify_subgradient(args) -> int:
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    integrand = build_integrand(cfg)
    vcfg = cfg["verify"]
    trials, seed, radius = vcfg["trials"], vcfg["seed"], vcfg["radius"]

    # (label, base field, certificate builder); each certificate is built in turn
    rotation = rotation_field(cfg["experiment"]["theta"], grid)
    certificates = [("rotation", rotation, poly_subgradient),
                    ("identity", identity_field(grid), poly_subgradient)]
    for k in range(3):
        certificates.append((f"random-{k}",
                             random_smooth_field(grid, seed=[515, k], amplitude=0.5),
                             poly_subgradient))
    if cfg["experiment"]["subgradient"] == "zero":
        certificates.append(("rotation (zero functional)", rotation, zero_subgradient))

    total_violations = 0
    for label, base, build in certificates:
        w = build(integrand, base)
        report = verify_subgradient(integrand, w, trials=trials, seed=seed, radius=radius)
        total_violations += report.violations
        print(f"certificate at {label}: {report.violations} violations, "
              f"worst gap {report.worst_gap:.3e}")
        if args.out and label == "rotation":
            pio.save_subgradient(args.out, w, protocol={
                "trials": trials,
                "radius": radius,
                "seed": seed,
                "violations": report.violations,
            })
    return 1 if total_violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polyreg",
        description="Polyconvex-regularized registration and rate experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-gradient", help="finite-difference gradient suite")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_check_gradient)

    p = sub.add_parser("register", help="single regularized solve")
    p.add_argument("--config", default=None)
    p.add_argument("--delta", type=_noise_level, required=True,
                   help="noise level; 0 solves the exact, unregularized problem")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("rates", help="noise sweep with rate fitting")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--slopes", default=None)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("verify-subgradient", help="sampled certificate protocol")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_subgradient)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
