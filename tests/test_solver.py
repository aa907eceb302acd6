import functools
import hashlib
import json
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
    ScalarImage,
    TikhonovProblem,
    add_noise,
    blob_image,
    bregman_poly,
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
    warp,
    zero_subgradient,
)
from polyreg.registration import prolong


def small_problem(seed=4, n=16, delta=0.05, alpha=0.01, initial=None):
    """Noisy n x n disk problem started at the identity, or at ``initial``."""
    base = Grid(((-1.0, 1.0), (-1.0, 1.0)), n, n)
    grid = base.with_mask(disk_mask(base, radius=1.0))
    reference = blob_image(grid, random_blobs(7))
    exact = warp(reference, rotation_field(np.pi / 6, grid))
    sample = add_noise(exact, delta, 2.0, seed=seed)
    return TikhonovProblem(rotation_energy(4.0), reference, sample, 2.0, alpha,
                           identity_field(grid) if initial is None else initial)


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
            + 0.01 * energy(u, F)
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

    def test_start_at_infinite_energy_has_no_witness(self):
        from test_cell_kernel import wall_energy

        problem = small_problem()
        grid = problem.initial.grid
        folded = MatrixField(grid, grid.node_points[..., ::-1])  # det = -1 in every cell
        posed = (problem.reference, problem.data, 2.0)
        with pytest.raises(ValueError, match="no feasible witness"):
            TikhonovProblem(wall_energy(), *posed, 0.01, folded)
        TikhonovProblem(wall_energy(), *posed, 0.0, folded)  # no energy term, no wall


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
            0.01 * energy(u_dagger, F), rel=1e-12
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
        density = energy(result.u_min, F) / disk_grid.domain_measure
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
        # little noise and a small weight leave a low objective floor, so the
        # predicted-decrease test (relative to |f|) comes late and the
        # sup-norm test ends this cold solve
        F, reference, u_dagger, exact = setup
        sample = add_noise(exact, 0.01, 2.0, seed=7)
        problem = TikhonovProblem(F, reference, sample, 2.0, 1e-3,
                                  identity_field(disk_grid))
        _, g0 = problem.objective_and_gradient(problem.initial)
        result = minimize(problem, tol=0.01, max_iter=500)
        assert result.converged
        assert result.stop_reason == "gradient"
        assert 0 < result.iterations < 500
        assert result.grad_sup <= 0.01 * np.max(np.abs(g0))

    def test_predicted_decrease_ends_a_warm_solve(self):
        # Two levels of a noise ladder, the second started where the first
        # ended.  That warm start has a small gradient, so tol * g_sup(x0) is
        # out of reach and the predicted decrease -g.d below tol**2 * |f|
        # ends the solve.  A tight solve from the same start runs through the
        # same iterates, so it can only go on longer and lower.
        tol = 3e-5
        cold = minimize(small_problem(delta=0.1, alpha=0.02), tol=tol, max_iter=4000)
        warm = small_problem(initial=cold.u_min)
        _, g0 = warm.objective_and_gradient(warm.initial)
        result = minimize(warm, tol=tol, max_iter=4000)
        tight = minimize(warm, tol=1e-9, max_iter=4000)
        assert result.stop_reason == "gradient"
        assert result.grad_sup > tol * np.max(np.abs(g0))
        assert 0 < result.iterations < tight.iterations
        assert 0 <= result.objective - tight.objective <= 1e-6 * abs(tight.objective)

    def test_rough_start_stops_where_the_cold_solve_does(self):
        # A loose 32 x 32 solve prolonged to 128 x 128 starts with a gradient
        # 26 times the identity's.  Measured against that start alone, the
        # sup-norm test ended the solve after 81 iterations, 0.86 % in D_poly
        # from the cold solve; against the identity's it ends beside it.
        def problem(n, initial=None):
            return small_problem(seed=0, n=n, delta=0.0125, alpha=0.05 * 0.0125,
                                 initial=initial)

        def d_poly(result):
            grid = result.u_min.grid
            F, u_dagger = rotation_energy(4.0), rotation_field(np.pi / 6, grid)
            return bregman_poly(F, result.u_min, u_dagger, zero_subgradient(F, u_dagger))

        coarse = minimize(problem(32), tol=1e-3, max_iter=4000)
        fine = problem(128)
        rough = problem(128, initial=prolong(coarse.u_min, fine.initial.grid))
        _, g_rough = rough.objective_and_gradient(rough.initial)
        _, g_identity = fine.objective_and_gradient(fine.initial)
        assert np.max(np.abs(g_rough)) > 20 * np.max(np.abs(g_identity))
        cold = minimize(fine, tol=3e-5, max_iter=4000)
        result = minimize(rough, tol=3e-5, max_iter=4000)
        assert result.stop_reason == "gradient"
        assert abs(d_poly(result) - d_poly(cold)) <= 1e-3 * d_poly(cold)
        assert abs(result.objective - cold.objective) <= 1e-6 * cold.objective

    def test_identity_gradient_is_one_more_evaluation(self, monkeypatch):
        first = minimize(small_problem(), tol=1e-3, max_iter=50)
        warm = small_problem(initial=first.u_min)
        log = CallLog(warm, monkeypatch)
        result = minimize(warm, tol=1e-3, max_iter=50)
        assert result.evaluations == len(log.calls)
        assert np.array_equal(log.calls[1][1], warm.initial.grid.node_points)

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

    def test_failed_quasi_newton_search_stops_the_solve(self, monkeypatch):
        # After the first step every trial has infinite energy, so the search
        # along the first quasi-Newton direction fails and the solve stops
        # there, without searching again along the negative gradient.
        from polyreg import solver

        problem = small_problem()
        evaluate = problem.objective_and_gradient
        calls, searches = [], []
        backtrack = solver._backtrack

        def infinite_after_the_first_search(u):
            calls.append(u)
            if searches:
                raise InfiniteEnergyError("energy is not finite; gradient undefined")
            return evaluate(u)

        def logged(value_and_grad, x, f, d, gtd):
            first = len(calls)
            out = backtrack(value_and_grad, x, f, d, gtd)
            searches.append((d.copy(), len(calls) - first, out))
            return out

        monkeypatch.setattr(problem, "objective_and_gradient", infinite_after_the_first_search)
        monkeypatch.setattr(solver, "_backtrack", logged)
        result = minimize(problem, tol=1e-9, max_iter=50)
        assert result.stop_reason == "line-search-stall"
        assert not result.converged
        assert result.iterations == 1
        assert len(searches) == 2
        (_, first_trials, (x1, f1, g1, _)), (d, trials, failed) = searches
        assert failed == (None, None, None, trials)
        assert trials == sum(1 for k in range(100) if 0.5 ** k > 1e-20)  # step down to 1e-20
        assert result.evaluations == len(calls) == 1 + first_trials + trials
        assert np.array_equal(result.u_min.values.ravel(), x1)
        assert result.objective == f1
        cosine = -np.dot(d, g1) / (np.linalg.norm(d) * np.linalg.norm(g1))
        assert 0.0 < cosine < 1.0 - 1e-6  # a quasi-Newton direction, not -g

    def test_ascent_direction_empties_the_memory(self, monkeypatch):
        # The third quasi-Newton direction is turned uphill: the solve forgets
        # its pairs, searches along the scaled gradient instead and builds the
        # memory again from the next pair, never increasing the objective.
        from polyreg import solver

        problem = small_problem()
        direction, backtrack = solver._CompactMemory.direction, solver._backtrack
        stored, searches = [], []

        def uphill_third(self, pg):
            stored.append(self.stored)
            d = direction(self, pg)
            return -d if len(stored) == 3 else d

        def logged(value_and_grad, x, f, d, gtd):
            out = backtrack(value_and_grad, x, f, d, gtd)
            searches.append((x.copy(), f, d.copy(), out[1]))
            return out

        monkeypatch.setattr(solver._CompactMemory, "direction", uphill_third)
        monkeypatch.setattr(solver, "_backtrack", logged)
        result = minimize(problem, tol=1e-9, max_iter=6)
        assert result.iterations == 6
        assert stored == [1, 2, 3, 1, 2]
        x, _, d, _ = searches[3]
        u = problem.initial.with_values(x.reshape(problem.initial.values.shape))
        g = problem.objective_and_gradient(u)[1].ravel()
        assert np.array_equal(d, -g / max(1.0, np.max(np.abs(g))))
        assert all(f_new <= f for _, f, _, f_new in searches)

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

    def test_trajectory_matches_the_replaced_hot_path(self, monkeypatch):
        # Every layer of one evaluation through its old, allocating form: the
        # two-index warp, the assembly and the separate rotation value and
        # gradient formulas.  The in-place forms perform the same operations
        # in the same order.
        import oracles
        from polyreg import fields, solver
        from polyreg.integrands import Integrand
        from polyreg.minors import MinorsLayout
        from polyreg.registration import ScalarImage

        fast = minimize(small_problem(), max_iter=400)
        for module in (fields, solver):
            monkeypatch.setattr(module, "energy", oracles.assembly_energy)
            monkeypatch.setattr(module, "energy_with_gradient",
                                oracles.assembly_energy_with_gradient)
        monkeypatch.setattr(ScalarImage, "_interpolate", oracles.interpolate_reference)
        problem = small_problem()
        problem.integrand = Integrand(MinorsLayout(2, 2), "rotation", oracles.density_from(
            lambda x, u, xi: oracles.rotation_value_reference(xi, 4.0),
            lambda x, u, xi: oracles.rotation_gradient_reference(xi, 4.0)))
        old = minimize(problem, max_iter=400)
        assert fast.iterations == old.iterations > 50
        assert fast.evaluations == old.evaluations
        assert fast.objective.hex() == old.objective.hex()
        assert np.array_equal(fast.u_min.values, old.u_min.values)


def _posed(n, masked, seed=4):
    """A fresh n x n problem, on the unit disk or (unmasked) the whole box;
    the two kinds also differ in their reference image."""
    base = Grid(((-1.0, 1.0), (-1.0, 1.0)), n, n)
    grid = base.with_mask(disk_mask(base, radius=1.0)) if masked else base
    reference = blob_image(grid, random_blobs(7 if masked else 9))
    sample = add_noise(blob_image(grid, random_blobs(8)), 0.05, 2.0, seed=seed)
    return TikhonovProblem(rotation_energy(4.0), reference, sample, 2.0, 0.01,
                           identity_field(grid))


def _field(problem, seed):
    grid = problem.initial.grid
    bump = random_smooth_field(grid, seed=seed, amplitude=0.05)
    return MatrixField(grid, grid.node_points + bump.values)


# Prints, for one kind of problem, the objective bits, gradient hash and
# value-only objective bits at each field seed, every call made on a newly
# built problem in this new interpreter.
_FRESH_CALLS = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from test_solver import _field, _posed
n, masked = int(sys.argv[2]), sys.argv[3] == "disk"
out = {}
for seed in sys.argv[4:]:
    problem = _posed(n, masked)
    u = _field(problem, int(seed))
    value, grad = problem.objective_and_gradient(u)
    out[seed] = [value.hex(), hashlib.sha256(grad.tobytes()).hexdigest(),
                 _posed(n, masked).objective(u).hex()]
print(json.dumps(out))
"""


def _run_python(script, *args, **env):
    """Standard output of ``script`` in a new interpreter that imports this
    polyreg and these tests, with ``args`` and the variables ``env`` added."""
    import polyreg

    src = str(Path(polyreg.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script, tests, *map(str, args)],
                         env=dict(os.environ, PYTHONPATH=path, **env),
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    return run.stdout


class TestNoStateSurvivesACall:
    """The objective's buffers live for one call: calls interleaved across
    grids, masks, images and fields give the bytes of the same call on a
    newly built problem in a new interpreter, where no earlier call ran."""

    @staticmethod
    def _fresh(n, masked, seeds):
        return json.loads(_run_python(_FRESH_CALLS, n, "disk" if masked else "box", *seeds))

    @staticmethod
    def _check(problem, seed, want):
        u = _field(problem, seed)
        value, grad = problem.objective_and_gradient(u)
        assert [value.hex(), hashlib.sha256(grad.tobytes()).hexdigest()] == want[:2]
        assert problem.objective(u).hex() == want[2]

    def test_problems_on_different_grids_and_masks(self):
        # the 20^2 box shares the disk's node shape, not its cells or images
        kinds = {"disk": (20, True), "box": (24, False), "small box": (20, False)}
        problems = {k: _posed(*kind) for k, kind in kinds.items()}
        fresh = {k: self._fresh(*kind, [1, 2, 3]) for k, kind in kinds.items()}
        order = ["disk", "box", "disk", "small box", "box", "disk", "small box"]
        for turn in range(2):
            for i, kind in enumerate(order):
                seed = 1 + (i + turn) % 3
                self._check(problems[kind], seed, fresh[kind][str(seed)])

    def test_two_fields_of_one_problem(self):
        problem = _posed(20, True)
        fresh = self._fresh(20, True, [5, 6])
        for _ in range(2):
            for seed in (5, 6):
                self._check(problem, seed, fresh[str(seed)])

    def test_a_returned_gradient_is_not_reused(self):
        problem = _posed(20, True)
        u, v = _field(problem, 5), _field(problem, 6)
        _, first = problem.objective_and_gradient(u)
        kept = first.copy()
        problem.objective_and_gradient(v)
        assert first.tobytes() == kept.tobytes()


# Prints two short 72 x 72 solves, with the H1 metric and with the scalar
# one: their iterations, metric shift, objective bits and iterate hash.
_SOLVE_72 = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from test_solver import small_problem
from polyreg import minimize
for alpha in (0.01, 0.0):
    result = minimize(small_problem(n=72, alpha=alpha), max_iter=15, memory=10)
    print(result.iterations, result.metric_shift, result.objective.hex(),
          hashlib.sha256(result.u_min.values.tobytes()).hexdigest())
"""


class TestInnerProducts:
    def test_solve_does_not_depend_on_blas_threads(self):
        # 72^2 nodes carry 10,368 unknowns, more than the 10,000 entries above
        # which OpenBLAS splits one dot product or matrix-vector product
        # across its threads.  One solve runs with the H1 metric, so its
        # matmuls are covered too; the other with the scalar metric.  Both
        # store more pairs than their memory, so the pair ring wraps.
        outputs = [_run_python(_SOLVE_72, OPENBLAS_NUM_THREADS=threads)
                   for threads in ("1", "2")]
        h1, scalar = (line.split() for line in outputs[0].splitlines())
        assert h1[0] == "15"
        assert 0.1 < float(h1[1]) < 0.3
        assert scalar[:2] == ["15", "None"]
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

    def test_products_are_matmuls_over_column_slices(self):
        from polyreg.solver import _DOT_BLOCK, _blocked_combination, _blocked_product

        rng = np.random.default_rng(6)
        rows = rng.standard_normal((24, 4 * _DOT_BLOCK + 3))
        v, c = rng.standard_normal(rows.shape[1]), rng.standard_normal(24)
        for n in (1, 2048, _DOT_BLOCK, _DOT_BLOCK + 1, 4 * _DOT_BLOCK, v.size):
            a = rows[:, :n]
            slices = [slice(k, min(k + _DOT_BLOCK, n)) for k in range(0, n, _DOT_BLOCK)]
            want = functools.reduce(operator.add, [a[:, s] @ v[s] for s in slices])
            assert _blocked_product(a, v[:n]).tobytes() == want.tobytes()
            want = np.concatenate([c @ a[:, s] for s in slices])
            assert _blocked_combination(a, c).tobytes() == want.tobytes()


def _neumann_laplacian(n):
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    lap[0, 0] = lap[-1, -1] = 1.0
    return lap


class TestH1Metric:
    def test_apply_is_a_dense_solve_per_component(self):
        from polyreg.solver import H1Metric

        base = Grid(((-1.0, 1.0), (-0.5, 1.0)), 9, 7)
        grid = base.with_mask(disk_mask(base, radius=0.8))
        shift = 0.3
        system = (np.kron(_neumann_laplacian(9), np.eye(7))
                  + np.kron(np.eye(9), _neumann_laplacian(7)) + shift * np.eye(63))
        v = np.random.default_rng(3).standard_normal((9, 7, 2))
        before = v.copy()
        applied = H1Metric(grid, shift).apply(v.ravel()).reshape(9, 7, 2)
        assert np.array_equal(v, before)
        for k in range(2):
            want = np.linalg.solve(system, v[..., k].ravel()).reshape(9, 7)
            np.testing.assert_allclose(applied[..., k], want, rtol=0, atol=1e-13)

    def test_shift_from_the_problem(self):
        from polyreg.solver import metric_shift

        problem = small_problem(n=72)
        grid = problem.initial.grid
        _, image_grad = problem.reference.sample_with_gradient(grid.node_points)
        mbar = np.mean(np.sum(image_grad ** 2, axis=-1)[grid.nodes_in_domain])
        assert metric_shift(problem) == mbar * grid.cell_area / problem.alpha
        assert 0.1 < metric_shift(problem) < 0.3

    def test_scalar_metric_without_regularization_flat_image_or_large_shift(self):
        from polyreg.solver import metric_shift

        assert metric_shift(small_problem(n=72, alpha=0.0)) is None
        flat = small_problem(n=72)
        flat.reference = ScalarImage(flat.reference.grid, np.ones(flat.reference.grid.node_shape))
        assert metric_shift(flat) is None
        coarse = small_problem()  # 16 x 16: the misfit dominates each cell, c > 1
        assert metric_shift(coarse) is None
        coarse.alpha *= 100.0
        assert 0.0 < metric_shift(coarse) <= 1.0

    def test_one_apply_per_iteration(self, monkeypatch):
        from polyreg.solver import H1Metric

        applied = []
        apply = H1Metric.apply

        def counted(self, v):
            applied.append(v.size)
            return apply(self, v)

        monkeypatch.setattr(H1Metric, "apply", counted)
        result = minimize(small_problem(n=72), max_iter=15)
        assert result.metric_shift is not None
        assert result.iterations == 15
        assert len(applied) == 1 + result.iterations  # at the start and after each step

    def test_result_names_the_metric_and_inactive_nodes_stay(self):
        problem = small_problem(n=72)
        result = minimize(problem, max_iter=15)
        assert result.metric_shift == pytest.approx(0.18, abs=0.05)
        assert minimize(small_problem(), max_iter=15).metric_shift is None
        # nodes without an active cell do not enter the objective; the
        # metric's direction leaves them at their start
        grid = problem.initial.grid
        seen = np.zeros(grid.nx * grid.ny, dtype=bool)
        seen[grid.active_corners.ravel()] = True
        unseen = ~seen.reshape(grid.node_shape)
        assert unseen.any()
        moved = result.u_min.values != problem.initial.values
        assert moved[~unseen].any() and not moved[unseen].any()


def _inverse_bfgs(h0, pairs):
    """Dense inverse-BFGS matrix built from ``h0`` by the pairs, oldest first:
    ``H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T``."""
    h = h0
    for s, y, rho in pairs:
        v = np.eye(s.size) - rho * np.outer(y, s)
        h = v.T @ h @ v + rho * np.outer(s, s)
    return h


def _dense_p_tilde(grid, shift):
    """Dense ``M P M`` of the H1 metric on ``grid``, unknowns ordered (x node,
    y node, component), with the metric's ``moving`` mask ``M``."""
    from polyreg.solver import H1Metric

    nx, ny = grid.node_shape
    laplacian = (np.kron(_neumann_laplacian(nx), np.eye(ny))
                 + np.kron(np.eye(nx), _neumann_laplacian(ny)))
    p = np.kron(np.linalg.inv(laplacian + shift * np.eye(nx * ny)), np.eye(2))
    moving = H1Metric(grid, shift).moving
    return moving[:, None] * p * moving[None, :], moving


class TestLbfgsDirection:
    """The compact direction against the dense inverse-BFGS recursion."""

    @staticmethod
    def _check_directions(hessian, p_tilde, memory, steps, reject, seed):
        """Drives ``_CompactMemory`` through ``steps`` steps of length 1/2
        along its own directions on the quadratic with ``hessian``; at step
        ``reject`` the curvature is negative, so the pair is rejected.  Each
        direction must equal ``-H g`` of the dense recursion over the newest
        ``memory`` accepted pairs from ``gamma * p_tilde`` (``None``: the
        identity, with ``z = y``).  Returns the number of accepted pairs."""
        from polyreg.solver import _CompactMemory

        n = hessian.shape[0]
        precondition = (lambda v: v) if p_tilde is None else (lambda v: p_tilde @ v)
        h0 = np.eye(n) if p_tilde is None else p_tilde
        rng = np.random.default_rng(seed)
        g = hessian @ rng.standard_normal(n)
        pg = precondition(g)
        memory_ = _CompactMemory(n, memory)
        accepted = []  # (s, y, 1 / s.y), oldest first
        for k in range(steps):
            if accepted:
                s, y, _ = accepted[-1]
                gamma = np.dot(s, y) / np.dot(y, precondition(y))
                want = -_inverse_bfgs(gamma * h0, accepted[-memory:]) @ g
                d = memory_.direction(pg)
                np.testing.assert_allclose(d, want, rtol=1e-12)
            else:
                d = -g
            s = 0.5 * d
            y = (-1.0 if k == reject else 1.0) * hessian @ s
            g_new = g + y
            pg_new = precondition(g_new)
            memory_.update(s, y, y if p_tilde is None else pg_new - pg, g_new)
            if k != reject:
                accepted.append((s, y, 1.0 / np.dot(s, y)))
            assert memory_.stored == min(memory, len(accepted))
            g, pg = g_new, pg_new
        return len(accepted)

    def test_compact_direction_is_the_dense_recursion_from_gamma_i(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((40, 40))
        hessian = a @ a.T / 40 + np.eye(40)
        # 8 pairs through a memory of 5: the ring wraps, before and after the
        # rejected pair
        assert self._check_directions(hessian, None, 5, 9, reject=6, seed=1) == 8

    def test_compact_direction_is_the_dense_recursion_from_the_h1_metric(self):
        base = Grid(((-1.0, 1.0), (-0.5, 1.0)), 9, 7)
        grid = base.with_mask(disk_mask(base, radius=0.8))
        p_tilde, moving = _dense_p_tilde(grid, 0.3)
        assert not moving.all()
        # Every solver gradient is 0 at the unknowns of nodes without an active
        # cell, where M is; so is every g and y here: the Hessian acts on the
        # moving unknowns only.
        a = np.random.default_rng(2).standard_normal((126, 126))
        hessian = moving[:, None] * (a @ a.T / 126 + np.eye(126)) * moving[None, :]
        assert self._check_directions(hessian, p_tilde, 4, 8, reject=5, seed=2) == 7

    def test_minimize_reads_the_newest_memory_pairs(self, monkeypatch):
        from polyreg import solver

        memory = 3
        starts, handed = [], []
        backtrack, direction = solver._backtrack, solver._CompactMemory.direction

        def logged_backtrack(value_and_grad, x, f, d, gtd):
            starts.append(x.copy())
            return backtrack(value_and_grad, x, f, d, gtd)

        def logged_direction(self, pg):
            handed.append((len(starts), [self.rows[2 * i].copy() for i in self.order]))
            return direction(self, pg)

        monkeypatch.setattr(solver, "_backtrack", logged_backtrack)
        monkeypatch.setattr(solver._CompactMemory, "direction", logged_direction)
        result = minimize(small_problem(), tol=1e-9, max_iter=12, memory=memory)
        assert result.iterations == 12
        iterates = starts + [result.u_min.values.ravel()]
        steps = [b - a for a, b in zip(iterates, iterates[1:])]
        # from the second iteration on, iteration k gets the steps before it
        assert [k for k, _ in handed] == list(range(1, 12))
        for k, stored in handed:
            assert len(stored) == min(memory, k)
            for s, step in zip(stored, steps[k - len(stored):k]):
                assert np.array_equal(s, step)


class TestLineSearchTrials:
    """Every line-search trial is one value+gradient call, and the accepted
    trial's gradient serves the next iteration."""

    @staticmethod
    def _solve(problem, monkeypatch, **kwargs):
        """``minimize`` with its calls logged; returns the result, the log and,
        per line search, (x, d, its calls, whether a step was accepted)."""
        from polyreg import solver

        # the witness check is made by the constructor, before the log starts
        log = CallLog(problem, monkeypatch)
        searches = []
        backtrack = solver._backtrack

        def logged(value_and_grad, x, f, d, gtd):
            first = len(log.calls)
            out = backtrack(value_and_grad, x, f, d, gtd)
            searches.append((x.copy(), d.copy(), log.calls[first:], out[0] is not None))
            return out

        monkeypatch.setattr(solver, "_backtrack", logged)
        return minimize(problem, **kwargs), log, searches

    def test_every_call_is_value_and_gradient(self, monkeypatch):
        result, log, searches = self._solve(small_problem(), monkeypatch,
                                            tol=1e-9, max_iter=100)
        assert {kind for kind, _ in log.calls} == {"value+grad"}
        assert result.evaluations == len(log.calls)
        assert len(searches) == result.iterations
        assert result.evaluations > 1 + result.iterations  # some unit steps were rejected
        assert result.evaluations < 2 * result.iterations

    def test_rejected_unit_step_retries_at_the_midpoint(self, monkeypatch):
        problem = small_problem()
        _, _, searches = self._solve(problem, monkeypatch, tol=1e-9, max_iter=100)
        shape = problem.initial.values.shape
        retried = [search for search in searches if len(search[2]) > 1]
        assert retried
        for x, d, calls, _ in retried:
            start = x.reshape(shape)
            trial, shorter = calls[0][1], calls[1][1]
            assert np.allclose(shorter, 0.5 * (start + trial), rtol=0.0, atol=1e-12)
            for k, (_, point) in enumerate(calls):
                assert np.array_equal(point, (x + 0.5 ** k * d).reshape(shape))

    def test_no_call_follows_an_accepted_short_step(self, monkeypatch):
        _, log, searches = self._solve(small_problem(), monkeypatch, tol=1e-9, max_iter=100)
        assert any(accepted and len(calls) > 1 for _, _, calls, accepted in searches)
        # the start, then the line searches' trials and nothing in between:
        # the next iteration starts from the accepted trial's own gradient
        trials = [point for _, _, calls, _ in searches for _, point in calls]
        assert len(log.calls) == 1 + len(trials)
        assert all(np.array_equal(a, b) for (_, a), b in zip(log.calls[1:], trials))

    def test_infinite_energy_at_first_trial_halves_step(self, monkeypatch):
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
        assert {kind for kind, _ in log.calls} == {"value+grad"}
        start, trial, shorter = (point for _, point in log.calls[:3])
        assert np.allclose(shorter, 0.5 * (start + trial), rtol=0.0, atol=1e-12)
        assert result.iterations == 20
        assert result.evaluations == len(log.calls)
        assert np.isfinite(result.objective)
        assert result.objective < problem.objective(problem.initial)
