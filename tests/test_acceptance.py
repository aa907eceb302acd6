"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The rate experiment (criterion 9) solves the full-size problem and
dominates the runtime; everything else finishes in seconds.
"""

import json
import time

import numpy as np
import pytest

import polyreg as pr
from polyreg.cli import main as cli_main
from polyreg.config import build_experiment, load_config

from oracles import brute_force_minors, density_from, relative_error


def announce(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def rotation_matrix(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@pytest.fixture(scope="module")
def square_grid():
    return pr.Grid(((0.0, 1.0), (0.0, 1.0)), 12, 12)


@pytest.fixture(scope="module")
def experiment_grid():
    base = pr.Grid(((-1.0, 1.0), (-1.0, 1.0)), 64, 64)
    return base.with_mask(pr.disk_mask(base, radius=1.0))


def test_criterion_1_minors_oracle(rng):
    started = time.perf_counter()
    worst = 0.0
    for shape in ((2, 2), (3, 3)):
        for _ in range(1000):
            a = rng.uniform(-2.0, 2.0, shape)
            oracle = brute_force_minors(a)
            worst = max(worst, float(np.max(relative_error(pr.all_minors(a), oracle))))
            block = pr.minor_block(a, 2)
            start = shape[0] * shape[1]
            worst = max(worst, float(np.max(
                relative_error(block, oracle[start:start + block.size]))))
    elapsed = time.perf_counter() - started
    assert worst < 1e-14
    assert elapsed < 1.0
    announce(1, f"minors match brute force, worst rel err {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_gradient_checks():
    started = time.perf_counter()
    grid = pr.Grid(((0.0, 1.0), (0.0, 1.0)), 16, 16)
    h = 1e-5
    worst = 0.0
    for F in (pr.rotation_energy(4.0), pr.pq_energy(4.0, 2.0), pr.detsq_energy()):
        for k in range(20):
            u = pr.random_smooth_field(grid, seed=[1010, k], amplitude=0.7)
            grad = pr.energy_with_gradient(u, F)[1]
            for d in range(3):
                phi = pr.random_smooth_field(grid, seed=[2020, k, d], amplitude=1.0)
                plus = pr.energy(u.with_values(u.values + h * phi.values), F)
                minus = pr.energy(u.with_values(u.values - h * phi.values), F)
                fd = (plus - minus) / (2.0 * h)
                exact = float(np.sum(grad * phi.values))
                worst = max(worst, abs(exact - fd) / max(1e-12, abs(fd)))
    elapsed = time.perf_counter() - started
    assert worst < 1e-6
    assert elapsed < 30.0
    announce(2, f"gradients match central differences, worst rel err {worst:.2e}, "
                f"{elapsed:.1f} s")


def test_criterion_3_convexity_certificates():
    reports = {}
    for F in (pr.rotation_energy(4.0), pr.pq_energy(4.0, 2.0), pr.detsq_energy()):
        reports[F.name] = pr.check_convexity(F, samples=10_000, seed=41, tol=1e-10)
        assert reports[F.name].violations == 0, F.name

    layout = pr.MinorsLayout(2, 2)
    control = pr.Integrand(
        layout, "planted-nonconvex", density_from(
            lambda x, u, xi: -xi[..., 4] ** 2,
            lambda x, u, xi: (np.zeros(xi.shape[:-1] + (2,)), np.zeros_like(xi)),
        ),
    )
    bad = pr.check_convexity(control, samples=10_000, seed=41, tol=1e-10)
    assert bad.violations > 0
    announce(3, "all built-ins convex over 1e4 samples, planted control caught "
                f"({bad.violations} violations)")


def test_criterion_4_coercivity():
    report = pr.check_coercivity(pr.rotation_energy(4.0), p=4.0,
                                 samples=100_000, seed=17)
    assert report.c_reference == pytest.approx(0.5)
    assert report.violations_at_c == 0
    assert report.c_estimate >= 0.5
    announce(4, f"rotation density >= 0.5 |A|^4 on 1e5 samples, "
                f"sampled constant {report.c_estimate:.4f}")


def test_criterion_5_rotation_minimality(rng):
    F = pr.rotation_energy(4.0)
    floor = 2.0 + 4.0

    a = rng.uniform(-3.0, 3.0, (10_000, 2, 2))
    values = F.value(None, None, pr.all_minors(a))
    assert np.min(values) >= floor - 1e-12

    worst_eq = 0.0
    for theta in rng.uniform(-np.pi, np.pi, 100):
        val = F.value(None, None, pr.all_minors(rotation_matrix(theta)))
        worst_eq = max(worst_eq, abs(val - floor))
    assert worst_eq <= 1e-12

    worst_inv = 0.0
    for _ in range(100):
        m = rng.uniform(-3.0, 3.0, (2, 2))
        q1 = rotation_matrix(rng.uniform(0, 2 * np.pi))
        q2 = rotation_matrix(rng.uniform(0, 2 * np.pi))
        base = F.value(None, None, pr.all_minors(m))
        moved = F.value(None, None, pr.all_minors(q1 @ m @ q2))
        worst_inv = max(worst_inv, float(relative_error(moved, base)))
    assert worst_inv < 1e-12
    announce(5, f"minimum 2+p attained only on rotations (equality gap "
                f"{worst_eq:.1e}, invariance {worst_inv:.1e})")


def test_criterion_6_subgradient_certificates(square_grid):
    base_points = [
        pr.identity_field(square_grid),
        pr.field_from_function(
            square_grid,
            lambda p: np.stack([1.2 * p[..., 0], 0.8 * p[..., 1]], axis=-1)),
        pr.random_smooth_field(square_grid, seed=[3030, 0], amplitude=0.5),
        pr.random_smooth_field(square_grid, seed=[3030, 1], amplitude=0.5),
        pr.random_smooth_field(square_grid, seed=[3030, 2], amplitude=0.5),
    ]
    for F in (pr.rotation_energy(4.0), pr.pq_energy(4.0, 2.0), pr.detsq_energy()):
        for base in base_points:
            w = pr.poly_subgradient(F, base)
            report = pr.verify_subgradient(F, w, trials=1000, seed=97, radius=0.5)
            assert report.violations == 0, (F.name, report)

    F = pr.detsq_energy()
    w = pr.poly_subgradient(F, base_points[0])
    v2 = w.v2.copy()
    v2[5, 5, 0] += 1.0
    broken = pr.PolySubgradient(w.u0, w.u1, v2, w.base_point, w.base_energy)
    bad = pr.verify_subgradient(F, broken, trials=1000, seed=97, radius=0.5)
    assert bad.violations > 0
    announce(6, "certificates verified at 5 base points per density "
                f"(1000 trials each); perturbed certificate caught "
                f"({bad.violations} violations)")


def test_criterion_7_bregman_identities(square_grid):
    F = pr.detsq_energy()

    u = pr.random_smooth_field(square_grid, seed=4040, amplitude=0.6)
    w = pr.poly_subgradient(F, u)
    assert abs(pr.bregman_poly(F, u, u, w)) <= 1e-12

    worst_gap = 0.0
    for k in range(1000):
        v = pr.random_smooth_field(square_grid, seed=[5050, k], amplitude=1.0)
        worst_gap = min(worst_gap, pr.bregman_poly(F, v, u, w))
    assert worst_gap >= -1e-8

    area = square_grid.cell_area
    act = square_grid.active_cells
    worst_rel = 0.0
    for k in range(50):
        ua = pr.random_smooth_field(square_grid, seed=[6060, k], amplitude=0.8)
        va = pr.random_smooth_field(square_grid, seed=[7070, k], amplitude=0.8)
        wa = pr.poly_subgradient(F, ua)
        ju, jv = ua.jacobians, va.jacobians
        det_u = ju[..., 0, 0] * ju[..., 1, 1] - ju[..., 0, 1] * ju[..., 1, 0]
        det_v = jv[..., 0, 0] * jv[..., 1, 1] - jv[..., 0, 1] * jv[..., 1, 0]
        oracle = area * float(np.sum(((det_v - det_u)[act]) ** 2))
        got = pr.bregman_poly(F, va, ua, wa)
        worst_rel = max(worst_rel, abs(got - oracle) / max(1e-30, abs(oracle)))
    assert worst_rel < 1e-10
    announce(7, f"reflexivity, nonnegativity (worst gap {worst_gap:.1e}) and "
                f"closed form (rel err {worst_rel:.1e}) all hold")


def test_criterion_8_source_condition(experiment_grid):
    F = pr.rotation_energy(4.0)
    reference = pr.blob_image(experiment_grid, pr.random_blobs(7))
    u_dagger = pr.rotation_field(np.pi / 6, experiment_grid)
    forward = pr.ForwardModel(reference, pr.warp(reference, u_dagger), 2.0)
    w0 = pr.zero_subgradient(F, u_dagger)
    params = pr.SourceConditionParams(beta1=0.5, beta2=1.0,
                                      rho=10 * 0.05 * w0.base_energy,
                                      alpha_bar=0.05)
    params.check_sublevel(w0.base_energy)

    worst = -np.inf
    kept = 0
    for k in range(1000):
        trial_rng = np.random.default_rng([8080, k])
        theta = trial_rng.uniform(-np.pi, np.pi)
        shrink = trial_rng.uniform(0.85, 0.98)
        bump = pr.random_smooth_field(experiment_grid, rng=trial_rng, amplitude=0.015)
        u = pr.MatrixField(
            experiment_grid,
            shrink * pr.rotation_field(theta, experiment_grid).values + bump.values,
        )
        objective = forward.residual_norm(u) ** 2 \
            + params.alpha_bar * pr.energy(u, F)
        if objective > params.rho:
            continue  # outside the sublevel set the condition is not claimed
        kept += 1
        resid = pr.source_condition_residual(F, forward, w0, u_dagger, u, params)
        worst = max(worst, resid)
        assert resid <= 0.0
    assert kept >= 900  # the sampler stays inside the sublevel set
    announce(8, f"source condition holds at {kept} sampled admissible fields "
                f"(worst residual {worst:.3e})")


@pytest.mark.slow
def test_criterion_9_rate_experiment():
    started = time.perf_counter()
    exp = build_experiment(load_config())
    report = pr.run_rates(exp)
    elapsed = time.perf_counter() - started

    assert report.d_poly_fit is not None and report.residual_fit is not None
    d_slope = report.d_poly_fit.slope
    r_slope = report.residual_fit.slope
    superlinear = d_slope > 1.2 and report.d_poly_monotone
    assert (0.8 <= d_slope <= 1.2) or superlinear, report.slopes_dict()
    assert 0.8 <= r_slope <= 1.2, report.slopes_dict()
    assert elapsed < 600.0
    note = " (superlinear, passes with warning)" if superlinear else ""
    announce(9, f"distance slope {d_slope:.3f}{note}, residual slope "
                f"{r_slope:.3f}, runtime {elapsed:.0f} s")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "grid": {"nx": 20, "ny": 20},
        "experiment": {"levels": 3, "fit_levels": 3, "delta0": 0.1, "seeds": [0, 1]},
        "solver": {"tol": 1e-6, "max_iter": 800},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_main(["rates", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["rates", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    announce(10, f"two sweep runs produced byte-identical reports ({len(b1)} bytes)")
