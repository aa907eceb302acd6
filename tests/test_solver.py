import functools
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polyreg import (
    Grid,
    InfiniteEnergyError,
    MatrixField,
    TikhonovProblem,
    add_noise,
    blob_image,
    data_term,
    detsq_energy,
    disk_mask,
    energy,
    identity_field,
    minimize,
    random_blobs,
    random_smooth_field,
    rotation_energy,
    rotation_field,
    solve_multi_start,
    warp,
)


def small_problem(seed=4, n=16):
    """Noisy n x n disk problem started at the identity."""
    base = Grid(((-1.0, 1.0), (-1.0, 1.0)), n, n)
    grid = base.with_mask(disk_mask(base, radius=1.0))
    reference = blob_image(grid, random_blobs(7))
    exact = warp(reference, rotation_field(np.pi / 6, grid))
    sample = add_noise(exact, 0.05, 2.0, seed=seed)
    return TikhonovProblem(rotation_energy(4.0), reference, sample, 2.0, 0.01,
                           identity_field(grid))


class CallLog:
    """Wraps a problem's two objective methods and logs each call in order
    as ``(kind, point)``, kind "value" or "value+grad"."""

    def __init__(self, problem, monkeypatch):
        self.calls = []
        objective = problem.objective
        objective_and_gradient = problem.objective_and_gradient

        def logged_objective(u):
            self.calls.append(("value", u.values.copy()))
            return objective(u)

        def logged_objective_and_gradient(u):
            self.calls.append(("value+grad", u.values.copy()))
            return objective_and_gradient(u)

        monkeypatch.setattr(problem, "objective", logged_objective)
        monkeypatch.setattr(problem, "objective_and_gradient",
                            logged_objective_and_gradient)


@pytest.fixture
def setup(disk_grid):
    F = rotation_energy(4.0)
    reference = blob_image(disk_grid, random_blobs(7))
    u_dagger = rotation_field(np.pi / 6, disk_grid)
    exact = warp(reference, u_dagger)
    return F, reference, u_dagger, exact


class TestProblem:
    def test_objective_decomposition(self, disk_grid, setup):
        F, reference, u_dagger, exact = setup
        sample = add_noise(exact, 0.05, 2.0, seed=1)
        problem = TikhonovProblem(F, reference, sample, 2.0, 0.01,
                                  identity_field(disk_grid))
        u = random_smooth_field(disk_grid, seed=2, amplitude=0.3)
        want = data_term(warp(reference, u), sample.image, 2.0) \
            + 0.01 * energy(u, F).value
        assert problem.objective(u) == pytest.approx(want, rel=1e-14)

    def test_gradient_matches_central_differences(self, disk_grid, setup):
        F, reference, u_dagger, exact = setup
        sample = add_noise(exact, 0.02, 2.0, seed=3)
        problem = TikhonovProblem(F, reference, sample, 2.0, 0.005,
                                  identity_field(disk_grid))
        h = 1e-6
        for k in range(8):
            u = u_dagger.with_values(
                0.9 * u_dagger.values
                + random_smooth_field(disk_grid, seed=[21, k], amplitude=0.02).values
            )
            val, grad = problem.objective_and_gradient(u)
            assert val == pytest.approx(problem.objective(u), rel=1e-12)
            phi = random_smooth_field(disk_grid, seed=[22, k], amplitude=1.0)
            plus = problem.objective(u.with_values(u.values + h * phi.values))
            minus = problem.objective(u.with_values(u.values - h * phi.values))
            fd = (plus - minus) / (2 * h)
            exact_dd = float(np.sum(grad * phi.values))
            assert abs(exact_dd - fd) / max(1e-6, abs(fd)) < 2e-5

    def test_parameter_guards(self, disk_grid, setup):
        F, reference, u_dagger, exact = setup
        sample = add_noise(exact, 0.05, 2.0, seed=1)
        with pytest.raises(ValueError):
            TikhonovProblem(F, reference, sample, 0.5, 0.01, identity_field(disk_grid))
        with pytest.raises(ValueError):
            TikhonovProblem(F, reference, sample, 2.0, -0.1, identity_field(disk_grid))

    def test_data_on_another_grid_or_mask_rejected(self, disk_grid, setup):
        F, reference, u_dagger, exact = setup
        sample = add_noise(exact, 0.05, 2.0, seed=1)
        unmasked = Grid(disk_grid.bounds, disk_grid.nx, disk_grid.ny)
        finer = Grid(disk_grid.bounds, disk_grid.nx + 1, disk_grid.ny)
        for grid in (unmasked, finer.with_mask(disk_mask(finer, radius=1.0))):
            with pytest.raises(ValueError, match="different grids or masks"):
                TikhonovProblem(F, reference, sample, 2.0, 0.01, identity_field(grid))


class TestMinimize:
    def test_converges_immediately_at_exact_minimizer(self, disk_grid, setup):
        # exact data, started at the exact solution: zero gradient at once
        F, reference, u_dagger, exact = setup
        sample = add_noise(exact, 0.0, 2.0, seed=0)
        problem = TikhonovProblem(F, reference, sample, 2.0, 0.01, u_dagger)
        result = minimize(problem, tol=1e-8, max_iter=50)
        assert result.converged
        assert result.stop_reason == "gradient"  # predicted decrease below rounding
        assert result.iterations == 0
        assert result.objective == pytest.approx(
            0.01 * energy(u_dagger, F).value, rel=1e-12
        )

    def test_monotone_descent(self, disk_grid, setup):
        F, reference, u_dagger, exact = setup
        sample = add_noise(exact, 0.1, 2.0, seed=5)
        problem = TikhonovProblem(F, reference, sample, 2.0, 0.01,
                                  identity_field(disk_grid))
        values = [problem.objective(identity_field(disk_grid))]
        u = identity_field(disk_grid)
        for _ in range(6):
            restarted = TikhonovProblem(F, reference, sample, 2.0, 0.01, u)
            result = minimize(restarted, tol=1e-12, max_iter=25)
            values.append(result.objective)
            u = result.u_min
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_large_alpha_limit_reaches_energy_floor(self, disk_grid, setup):
        # overwhelming regularization: the energy approaches its minimum level
        F, reference, u_dagger, exact = setup
        sample = add_noise(exact, 0.05, 2.0, seed=6)
        problem = TikhonovProblem(F, reference, sample, 2.0, 1e6,
                                  identity_field(disk_grid))
        result = minimize(problem, tol=1e-7, max_iter=300)
        density = energy(result.u_min, F).value / disk_grid.domain_measure
        assert density == pytest.approx(6.0, rel=1e-3)

    def test_smooth_surrogate_recovers_identity(self, disk_grid):
        # identity-warp data with a tiny perturbation start: the solve falls
        # back to the identity within tight uniform distance (the weight is
        # small enough that the regularizer barely displaces the minimizer)
        F = detsq_energy()
        reference = blob_image(disk_grid, random_blobs(3))
        sample = add_noise(reference, 0.0, 2.0, seed=0)
        bump = random_smooth_field(disk_grid, seed=77, amplitude=1e-5)
        start = MatrixField(disk_grid, disk_grid.node_points + bump.values)
        problem = TikhonovProblem(F, reference, sample, 2.0, 1e-12, start)
        result = minimize(problem, tol=1e-12, max_iter=600)
        err = np.max(np.abs(result.u_min.values - disk_grid.node_points))
        assert err < 1e-4

    def test_iteration_budget_flag(self, disk_grid, setup):
        F, reference, u_dagger, exact = setup
        sample = add_noise(exact, 0.1, 2.0, seed=7)
        problem = TikhonovProblem(F, reference, sample, 2.0, 0.01,
                                  identity_field(disk_grid))
        result = minimize(problem, tol=1e-14, max_iter=3)
        assert not result.converged
        assert result.stop_reason == "budget"
        assert result.iterations == 3

    def test_relative_gradient_stop(self, disk_grid, setup):
        F, reference, u_dagger, exact = setup
        sample = add_noise(exact, 0.1, 2.0, seed=7)
        problem = TikhonovProblem(F, reference, sample, 2.0, 0.01,
                                  identity_field(disk_grid))
        _, g0 = problem.objective_and_gradient(problem.initial)
        result = minimize(problem, tol=0.1, max_iter=500)
        assert result.converged
        assert result.stop_reason == "gradient"
        assert 0 < result.iterations < 500
        assert result.grad_sup <= 0.1 * np.max(np.abs(g0))

    def test_small_decrease_stop(self):
        # the gradient stalls far above 1e-14 of its start, so the
        # decrease window ends the solve
        result = minimize(small_problem(seed=0), tol=1e-14, max_iter=5000)
        assert result.converged
        assert result.stop_reason == "small-decrease"
        assert result.iterations < 5000

    def test_line_search_stall(self, monkeypatch):
        # every trial point has infinite energy: no step decreases the objective
        problem = small_problem()
        start = problem.objective_and_gradient(problem.initial)
        served = []

        def start_only(u):
            if served:
                raise InfiniteEnergyError("energy is not finite; gradient undefined")
            served.append(u)
            return start

        monkeypatch.setattr(problem, "objective", lambda u: np.inf)
        monkeypatch.setattr(problem, "objective_and_gradient", start_only)
        result = minimize(problem, tol=1e-9, max_iter=50)
        assert not result.converged
        assert result.stop_reason == "line-search-stall"
        assert result.iterations == 0
        assert np.array_equal(result.u_min.values, problem.initial.values)

    def test_deterministic(self, disk_grid, setup):
        F, reference, u_dagger, exact = setup
        sample = add_noise(exact, 0.05, 2.0, seed=8)
        problem = TikhonovProblem(F, reference, sample, 2.0, 0.01,
                                  identity_field(disk_grid))
        a = minimize(problem, tol=1e-6, max_iter=40)
        b = minimize(problem, tol=1e-6, max_iter=40)
        assert np.array_equal(a.u_min.values, b.u_min.values)
        assert a.objective == b.objective

    def test_trajectory_matches_the_replaced_assembly(self, monkeypatch):
        # The cell kernel is bit-identical to the assembly it replaced, so a
        # solve through either takes the same steps.  A kernel change that
        # only moves rounding fails here, whatever the host.
        import oracles
        from polyreg import fields, solver

        kernel = minimize(small_problem(), max_iter=400)
        for module in (fields, solver):
            monkeypatch.setattr(module, "energy", oracles.assembly_energy)
            monkeypatch.setattr(module, "energy_with_gradient",
                                oracles.assembly_energy_with_gradient)
        assembly = minimize(small_problem(), max_iter=400)
        assert kernel.iterations == assembly.iterations > 50
        assert kernel.evaluations == assembly.evaluations
        assert kernel.objective.hex() == assembly.objective.hex()
        assert np.array_equal(kernel.u_min.values, assembly.u_min.values)


# Prints a short 72 x 72 solve: its iterations, objective bits and iterate hash.
_SOLVE_72 = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from test_solver import small_problem
from polyreg import minimize
result = minimize(small_problem(n=72), max_iter=15)
print(result.iterations, result.objective.hex(),
      hashlib.sha256(result.u_min.values.tobytes()).hexdigest())
"""


class TestInnerProducts:
    def test_solve_does_not_depend_on_blas_threads(self):
        # 72^2 nodes carry 10,368 unknowns, more than the 10,000 entries above
        # which OpenBLAS splits one dot product across its threads.
        import polyreg

        src = str(Path(polyreg.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", _SOLVE_72, tests], env=env,
                                 capture_output=True, text=True, timeout=600)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0].split()[0] == "15"
        assert outputs[0] == outputs[1]

    def test_dot_is_np_dot_up_to_one_block_then_blocks_left_to_right(self):
        from polyreg.solver import _DOT_BLOCK, _blocked_dot

        assert _DOT_BLOCK == 8192  # 2 * 64^2: no solve up to 64 x 64 changes
        a, b = np.random.default_rng(5).standard_normal((2, 4 * _DOT_BLOCK + 3))
        for n in range(_DOT_BLOCK + 1):
            assert _blocked_dot(a[:n], b[:n]).hex() == np.dot(a[:n], b[:n]).hex()
        for n in (_DOT_BLOCK + 1, 2 * _DOT_BLOCK, 2 * _DOT_BLOCK + 1, 33282, a.size):
            blocks = [np.dot(a[k:min(k + _DOT_BLOCK, n)], b[k:min(k + _DOT_BLOCK, n)])
                      for k in range(0, n, _DOT_BLOCK)]
            want = functools.reduce(operator.add, blocks)
            assert _blocked_dot(a[:n], b[:n]).hex() == want.hex()


class TestMultiStart:
    def test_best_objective_wins(self, disk_grid, setup):
        F, reference, u_dagger, exact = setup
        sample = add_noise(exact, 0.05, 2.0, seed=9)
        problem = TikhonovProblem(F, reference, sample, 2.0, 0.005,
                                  identity_field(disk_grid))
        multi = solve_multi_start(problem, tol=1e-6, max_iter=150, starts=3, seed=1)
        single = minimize(problem, tol=1e-6, max_iter=150)
        assert multi.objective <= single.objective + 1e-12

    def test_warm_start_is_used(self, disk_grid, setup):
        F, reference, u_dagger, exact = setup
        sample = add_noise(exact, 0.01, 2.0, seed=10)
        problem = TikhonovProblem(F, reference, sample, 2.0, 0.001,
                                  identity_field(disk_grid))
        good = solve_multi_start(problem, tol=1e-6, max_iter=200, starts=3, seed=1)
        # with a single start and a zero budget, the warm start is returned as is
        frozen = solve_multi_start(problem, tol=1e-6, max_iter=0, starts=1, seed=1,
                                   warm_start=good.u_min)
        assert np.array_equal(frozen.u_min.values, good.u_min.values)
        # and with budget it can only improve on the warm objective
        warm = solve_multi_start(problem, tol=1e-6, max_iter=200, starts=1, seed=1,
                                 warm_start=good.u_min)
        assert warm.objective <= good.objective + 1e-14


class TestFirstTrialReuse:
    def test_value_only_calls_follow_rejected_first_trials(self, monkeypatch):
        # the witness check is made by the constructor, before the log starts
        problem = small_problem()
        log = CallLog(problem, monkeypatch)
        result = minimize(problem, tol=1e-9, max_iter=100)
        kinds = [kind for kind, _ in log.calls]
        assert result.evaluations == len(log.calls)
        assert kinds[0] == "value+grad"
        assert "value" in kinds  # some first trials were rejected
        # a value-only call right after a value+grad trial at t halves the
        # step from an earlier gradient point x: it lies at (x + t) / 2, so
        # that trial was a rejected first trial, not the current iterate
        grad_points = []
        for (kind, point), (prev_kind, prev) in zip(log.calls[1:], log.calls):
            if prev_kind == "value+grad":
                grad_points.append(prev)
            if kind == "value" and prev_kind == "value+grad":
                midpoints = [0.5 * (x + prev) for x in grad_points[:-1]]
                assert any(np.allclose(point, m, rtol=0.0, atol=1e-12) for m in midpoints)
        # every iteration makes at least its first trial with a gradient
        assert kinds.count("value+grad") >= 1 + result.iterations
        assert result.evaluations < 2 * result.iterations

    def test_infinite_energy_at_first_trial_shrinks_step(self, monkeypatch):
        problem = small_problem()
        log = CallLog(problem, monkeypatch)
        logged = problem.objective_and_gradient

        def blows_up_once(u):
            result = logged(u)
            if len(log.calls) == 2:  # the first trial of the first line search
                raise InfiniteEnergyError("energy is not finite; gradient undefined")
            return result

        monkeypatch.setattr(problem, "objective_and_gradient", blows_up_once)
        result = minimize(problem, tol=1e-9, max_iter=20)
        kinds = [kind for kind, _ in log.calls]
        assert kinds[:3] == ["value+grad", "value+grad", "value"]
        start, trial, shorter = (point for _, point in log.calls[:3])
        assert np.allclose(shorter, 0.5 * (start + trial), rtol=0.0, atol=1e-12)
        assert result.iterations == 20
        assert result.evaluations == len(log.calls)
        assert np.isfinite(result.objective)
        assert result.objective < problem.objective(problem.initial)
