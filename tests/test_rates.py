import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from polyreg import (
    ForwardModel,
    Grid,
    RateExperiment,
    SourceConditionParams,
    blob_image,
    bregman_poly,
    choose_alpha,
    disk_mask,
    energy,
    fit_slope,
    geometric_levels,
    random_blobs,
    rotation_energy,
    rotation_field,
    run_rates,
    warp,
    zero_subgradient,
)
from polyreg import rates
from polyreg.config import build_experiment, load_config
from polyreg.rates import coarse_sizes, coarse_to_fine_start, solve_level


class TestChooseAlpha:
    def test_power_rule_above_one(self):
        assert choose_alpha(0.01, 2.0, 0.1) == pytest.approx(0.001, rel=1e-14)

    def test_exponent_rule_at_one(self):
        assert choose_alpha(0.04, 1.0, 1.0, epsilon=0.5) == pytest.approx(0.2, rel=1e-14)

    def test_halving_at_q_two(self):
        a1 = choose_alpha(0.08, 2.0, 0.3)
        a2 = choose_alpha(0.04, 2.0, 0.3)
        assert a2 == pytest.approx(a1 / 2, rel=1e-14)

    def test_flat_rule_needsSafeguard(self):
        with pytest.raises(ValueError):
            choose_alpha(0.1, 1.0, 0.5, epsilon=0.0)
        with pytest.raises(ValueError):
            choose_alpha(0.1, 1.0, 3.0, epsilon=0.0, beta2=1.0)  # product >= 1
        assert choose_alpha(0.1, 1.0, 0.5, epsilon=0.0, beta2=1.0) == 0.5

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            choose_alpha(0.0, 2.0, 0.1)
        with pytest.raises(ValueError):
            choose_alpha(0.1, 0.5, 0.1)
        with pytest.raises(ValueError):
            choose_alpha(0.1, 1.0, 0.1, epsilon=1.0)


class TestFitSlope:
    def test_exact_linear_law(self):
        deltas = [0.4 * 2.0 ** (-k) for k in range(6)]
        fit = fit_slope([(d, 3.7 * d) for d in deltas])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_quadratic_law(self):
        deltas = [0.4 * 2.0 ** (-k) for k in range(6)]
        fit = fit_slope([(d, 0.2 * d * d) for d in deltas])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_noisy_law_within_band(self, rng):
        deltas = [0.4 * 2.0 ** (-k) for k in range(8)]
        rows = [(d, d * (1.0 + 0.01 * rng.uniform(-1, 1))) for d in deltas]
        fit = fit_slope(rows)
        assert 0.95 <= fit.slope <= 1.05

    def test_insufficient_rows(self):
        with pytest.raises(ValueError):
            fit_slope([(0.1, 1.0), (0.05, 0.5)])
        with pytest.raises(ValueError):
            fit_slope([(0.1, 1.0), (0.05, 0.5), (0.025, -1.0)])  # nonpositive dropped

    def test_intercept_recovers_constant(self):
        deltas = [0.4 * 2.0 ** (-k) for k in range(5)]
        fit = fit_slope([(d, 5.0 * d) for d in deltas])
        assert np.exp(fit.intercept) == pytest.approx(5.0, rel=1e-10)


class TestGeometricLevels:
    def test_ladder(self):
        assert geometric_levels(0.2, 3) == [0.1, 0.05, 0.025]
        with pytest.raises(ValueError):
            geometric_levels(0.2, 0)


def small_experiment(grid, **overrides):
    F = rotation_energy(4.0)
    reference = blob_image(grid, random_blobs(7))
    u_dagger = rotation_field(np.pi / 6, grid)
    forward = ForwardModel(reference, warp(reference, u_dagger), 2.0)
    w = zero_subgradient(F, u_dagger)
    params = SourceConditionParams(beta1=0.5, beta2=1.0,
                                   rho=10 * 0.05 * w.base_energy, alpha_bar=0.05)
    kwargs = dict(
        integrand=F, forward=forward, u_dagger=u_dagger, w=w,
        deltas=geometric_levels(0.2, 4), alpha0=0.05, epsilon=0.5,
        seeds=(0,), source_params=params,
        solver_tol=1e-4, solver_max_iter=4000, solver_memory=10,
        fit_levels=4, exact_row=True,
    )
    kwargs.update(overrides)
    return RateExperiment(**kwargs)


@pytest.fixture(scope="module")
def sweep():
    """The 20 x 20 sweep's experiment, its report, and the ``(delta, result)``
    of every level solve, kept by a wrapper around ``rates.solve_level``."""
    base = Grid(((-1.0, 1.0), (-1.0, 1.0)), 20, 20)
    exp = small_experiment(base.with_mask(disk_mask(base, radius=1.0)))
    solves = []

    def keeping(experiment, delta, seed, warm_start=None, **kwargs):
        sample, alpha, result = solve_level(experiment, delta, seed, warm_start, **kwargs)
        solves.append((delta, result))
        return sample, alpha, result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rates, "solve_level", keeping)
        return exp, run_rates(exp), solves


@pytest.fixture(scope="module")
def report(sweep):
    return sweep[1]


class TestRunRates:

    def test_row_structure(self, report):
        levels = [r for r in report.rows if not r.exact]
        assert len(levels) == 4
        deltas = [r.delta for r in levels]
        assert deltas == sorted(deltas, reverse=True)
        for r in levels:
            assert r.alpha == pytest.approx(0.05 * r.delta, rel=1e-12)
            assert r.d_poly >= -1e-10
            assert r.residual >= 0.0

    def test_distances_decrease_with_noise(self, report):
        levels = [r for r in report.rows if not r.exact and r.converged]
        assert len(levels) == 4
        ds = [r.d_poly for r in levels]
        assert all(a >= b for a, b in zip(ds, ds[1:]))

    def test_energies_approach_minimum(self, sweep):
        # regularized energies decrease toward the exact-solution energy
        exp, _, solves = sweep
        levels = [result for delta, result in solves if delta > 0 and result.converged]
        assert len(levels) == 4
        energies = [energy(result.u_min, exp.integrand) for result in levels]
        floor = min(energies)
        assert all(a >= b * (1 - 0.05) for a, b in zip(energies, energies[1:]))
        assert energies[-1] == pytest.approx(floor, rel=0.05)

    def test_exact_row_near_zero(self, report):
        exact_rows = [r for r in report.rows if r.exact]
        assert len(exact_rows) == 1
        assert exact_rows[0].delta == 0.0
        assert exact_rows[0].residual < 1e-2
        assert 0.0 <= exact_rows[0].d_poly < 5e-2

    def test_exact_row_excluded_from_fit(self, report):
        if report.d_poly_fit is not None:
            assert 0.0 not in report.d_poly_fit.deltas

    def test_csv_schema_and_determinism(self, report):
        text = report.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "delta,alpha,seed,D_poly,residual,objective,iters,converged"
        assert len(lines) == 1 + len(report.rows)
        first = lines[1].split(",")
        assert len(first) == 8
        assert first[7] in ("true", "false")
        # floats round-trip
        assert float(first[0]) == report.rows[0].delta

    def test_slopes_dict_structure(self, report):
        d = report.slopes_dict()
        assert set(d) == {
            "d_poly", "residual", "d_poly_full_range", "residual_full_range",
            "d_poly_monotone", "excluded_rows", "warnings",
        }

    @pytest.mark.parametrize("bad", [0.0, -0.05, float("nan")])
    def test_non_positive_noise_level_rejected(self, bad):
        from polyreg import Grid, disk_mask

        base = Grid(((-1.0, 1.0), (-1.0, 1.0)), 8, 8)
        exp = small_experiment(base.with_mask(disk_mask(base)), deltas=[0.1, bad])
        with pytest.raises(ValueError, match="noise levels must be positive"):
            run_rates(exp)

    def test_precheck_rejects_bad_certificate(self):
        from polyreg import Grid, PolySubgradient, disk_mask

        base = Grid(((-1.0, 1.0), (-1.0, 1.0)), 16, 16)
        grid = base.with_mask(disk_mask(base, radius=1.0))
        exp = small_experiment(grid)
        broken_v2 = exp.w.v2.copy()
        broken_v2[4, 4, 0] += 1.0
        exp.w = PolySubgradient(exp.w.u0, exp.w.u1, broken_v2,
                                exp.w.base_point, exp.w.base_energy)
        with pytest.raises(ValueError):
            run_rates(exp)


class TestSolveLevel:
    def test_warm_start_is_used(self):
        from polyreg import Grid, disk_mask

        base = Grid(((-1.0, 1.0), (-1.0, 1.0)), 16, 16)
        exp = small_experiment(base.with_mask(disk_mask(base, radius=1.0)),
                               solver_tol=1e-6, solver_max_iter=200)
        _, _, good = solve_level(exp, 0.01, 10)
        # with a zero budget, the warm start is returned as is
        frozen_exp = dataclasses.replace(exp, solver_max_iter=0)
        _, _, frozen = solve_level(frozen_exp, 0.01, 10, good.u_min)
        assert np.array_equal(frozen.u_min.values, good.u_min.values)
        # and with budget it can only improve on the warm objective
        _, _, warm = solve_level(exp, 0.01, 10, good.u_min)
        assert warm.objective <= good.objective + 1e-14


class TestCoarseToFine:
    def test_ladder_halves_down_to_16_nodes_from_128(self):
        assert coarse_sizes(128, 128) == [(16, 16), (32, 32), (64, 64)]
        assert coarse_sizes(200, 130) == [(25, 16), (50, 32), (100, 65)]
        assert coarse_sizes(129, 1000) == [(16, 125), (32, 250), (64, 500)]
        assert coarse_sizes(127, 127) == coarse_sizes(64, 64) == []
        assert coarse_sizes(127, 4096) == []

    def test_no_ladder_below_128_nodes_per_axis(self):
        built = []
        exp = build_experiment(load_config())
        assert coarse_to_fine_start(exp, 0.0125, 0, built.append) == (None, [])
        assert built == []

    @pytest.mark.filterwarnings("ignore:rotation field on a domain")
    def test_no_ladder_for_a_csv_mask(self, tmp_path):
        # a cells mask loaded from CSV has no coarse version
        from oracles import write_mask_csv

        mask_path = tmp_path / "mask.csv"
        write_mask_csv(mask_path, disk_mask(Grid(((-1.0, 1.0), (-1.0, 1.0)), 128, 128)))
        cfg = load_config()
        cfg["grid"].update(nx=128, ny=128)
        cfg["mask"].update(type="csv", path=str(mask_path))
        cfg["experiment"]["theta"] = 0.0  # u_dagger stays inside
        built = []
        exp = build_experiment(cfg)
        assert exp.u_dagger.grid.mask.kind == "cells"
        assert coarse_to_fine_start(exp, 0.0125, 0, built.append) == (None, [])
        assert built == []

    def test_prolonged_start_at_infinite_energy_falls_back_to_the_identity(
            self, monkeypatch):
        # A density with a wall at det <= 0, and coarse solves that end
        # folded: every prolonged field has infinite energy, which would
        # fail TikhonovProblem's feasibility check.
        from test_cell_kernel import wall_energy

        from polyreg import solver
        from polyreg.solver import MinimizeResult

        def walled(n_x, n_y):
            cfg = load_config()
            cfg["grid"].update(nx=n_x, ny=n_y)
            return dataclasses.replace(build_experiment(cfg), integrand=wall_energy())

        starts = []

        def folding(problem, **kwargs):
            start = problem.initial
            starts.append(start)
            folded = start.with_values(start.grid.node_points[..., ::-1])
            return MinimizeResult(folded, 0.0, 1, 0.0, 1, "gradient")

        monkeypatch.setattr(solver, "minimize", folding)
        start, ladder = coarse_to_fine_start(walled(128, 128), 0.0125, 0, walled)
        assert start is None
        assert ladder == [(16, 16, 1), (32, 32, 1), (64, 64, 1)]
        assert all(np.array_equal(u.values, u.grid.node_points) for u in starts)


@pytest.mark.parametrize("n", [16, 32])
def test_noise_free_row_is_the_regularized_minimizer(n):
    # On the default config u_dagger minimizes the misfit (to 0) and the
    # rotation energy, so at the smallest level's weight it is the noise-free
    # row's exact minimizer and the row's D_poly is the solver's own error.
    cfg = load_config()
    cfg["grid"].update(nx=n, ny=n)
    report = run_rates(build_experiment(cfg))
    *levels, exact = report.rows
    assert exact.exact and exact.delta == 0.0
    assert exact.alpha == min(levels, key=lambda r: r.delta).alpha > 0.0
    assert exact.converged
    assert 0.0 <= exact.d_poly < 1e-5


REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


@pytest.mark.parametrize("noise_seed", [0, 1])
def test_default_solver_matches_reference_distances(noise_seed):
    # The 32 x 32 sweep with the default solver settings must report the
    # D_poly of the regularized minimizer: within 1 % of a tight-tolerance
    # solve at every level, not a value set by where the solver stopped.
    with open(REFERENCE, encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    entry = next(e for e in entries
                 if (e["command"], e["nx"], e["ny"], e["seed"]) == ("rates", 32, 32, noise_seed))
    cfg = load_config()
    cfg["grid"].update(nx=32, ny=32)
    cfg["experiment"].update(seeds=[noise_seed], exact_row=False)
    report = run_rates(build_experiment(cfg))
    assert [r.delta for r in report.rows] == entry["deltas"]
    for row, want in zip(report.rows, entry["d_poly"]):
        assert row.converged
        assert abs(row.d_poly - want) <= 0.01 * want, (row.delta, row.d_poly, want)


def test_h1_metric_solve_matches_reference_distance():
    # The cold first level of the default 64 x 64 sweep is a solve where the
    # regularizer dominates at grid scale, so it runs with the H1 initial
    # metric; its D_poly must still be that of the regularized minimizer.
    with open(REFERENCE, encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    entry = next(e for e in entries
                 if (e["command"], e["nx"], e["ny"], e["seed"]) == ("rates", 64, 64, 0))
    cfg = load_config()
    cfg["grid"].update(nx=64, ny=64)
    exp = build_experiment(cfg)
    assert entry["deltas"][0] == 0.05
    _, _, result = solve_level(exp, 0.05, 0)
    assert result.converged
    assert 0.0 < result.metric_shift <= 1.0
    d_poly = bregman_poly(exp.integrand, result.u_min, exp.u_dagger, exp.w)
    want = entry["d_poly"][0]
    assert abs(d_poly - want) <= 0.01 * want, (d_poly, want)
