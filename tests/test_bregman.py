import os
import threading
import time

import numpy as np
import pytest

from polyreg import (
    ForwardModel,
    Integrand,
    InfiniteEnergyError,
    MinorsLayout,
    PolySubgradient,
    SourceConditionParams,
    SubgradientReport,
    blob_image,
    bregman_poly,
    detsq_energy,
    energy,
    field_from_function,
    identity_field,
    poly_subgradient,
    pq_energy,
    random_blobs,
    random_smooth_field,
    rotation_energy,
    rotation_field,
    source_condition_residual,
    verify_subgradient,
    warp,
    zero_subgradient,
)

from oracles import density_from, random_smooth_field_reference


def grad_sq_gradient(x, u, xi):
    g = np.zeros_like(xi)
    g[..., :4] = 2.0 * xi[..., :4]
    return np.zeros(xi.shape[:-1] + (2,)), g


def quadratic_gradient_density():
    """|A|^2 on the order-1 block: convex with a purely classical certificate."""

    def value_fn(x, u, xi):
        return np.sum(xi[..., :4] ** 2, axis=-1)

    return Integrand(MinorsLayout(2, 2), "grad-sq", density_from(value_fn, grad_sq_gradient))


def wall_density():
    """det^2 where det > 0 and +inf elsewhere: convex, with effective domain det > 0."""

    def grad_fn(x, u, xi):
        g = np.zeros_like(xi)
        g[..., 4] = 2.0 * xi[..., 4]
        return np.zeros(xi.shape[:-1] + (2,)), g

    return Integrand(
        MinorsLayout(2, 2), "wall", density_from(
            lambda x, u, xi: np.where(xi[..., 4] > 0, xi[..., 4] ** 2, np.inf), grad_fn,
        ),
    )


def verify_subgradient_reference(F, w, trials, seed, radius, tol=1e-8,
                                 field=random_smooth_field_reference):
    """The sampled certificate protocol with one ``bregman_poly`` call per trial
    and, by default, the full-grid field formula.  Returns the report and the
    number of trials skipped at infinite energy."""
    u = w.base_point
    worst, violations, skipped = np.inf, 0, 0
    for t in range(trials):
        trial_rng = np.random.default_rng([seed, t])
        r = radius * 10.0 ** trial_rng.uniform(-3.0, 0.0)
        if t % 8 == 7:
            r = 10.0 * radius * trial_rng.uniform(0.5, 1.0)
        phi = field(u.grid, rng=trial_rng, amplitude=1.0)
        try:
            gap = bregman_poly(F, u.with_values(u.values + r * phi), u, w)
        except InfiniteEnergyError:
            skipped += 1
            continue
        worst = min(worst, gap)
        violations += int(gap < -tol)
    worst = float(worst) if np.isfinite(worst) else 0.0
    return SubgradientReport(trials, violations, worst, tol), skipped


def broken_detsq_certificate(grid):
    """The det-square certificate at the identity with one higher-minor slot
    shifted by 1: no longer a subgradient."""
    w = poly_subgradient(detsq_energy(), identity_field(grid))
    v2 = w.v2.copy()
    v2[3, 4, 0] += 1.0
    return PolySubgradient(w.u0, w.u1, v2, w.base_point, w.base_energy)


def stretch_field(grid, sx, sy):
    return field_from_function(
        grid, lambda p: np.stack([sx * p[..., 0], sy * p[..., 1]], axis=-1)
    )


class TestPolySubgradient:
    def test_detsq_at_identity(self, unit_grid):
        w = poly_subgradient(detsq_energy(), identity_field(unit_grid))
        assert np.all(w.u0 == 0.0)
        assert np.all(w.u1 == 0.0)
        assert np.allclose(w.v2, 2.0, atol=0.0)  # density slope 2 * det = 2
        assert w.base_energy == pytest.approx(1.0, abs=1e-14)

    def test_pq_at_identity(self, unit_grid):
        w = poly_subgradient(pq_energy(4.0, 2.0), identity_field(unit_grid))
        assert np.allclose(w.u1, 2.0 * np.eye(2), atol=1e-14)
        assert np.allclose(w.v2, 1.0, atol=1e-14)

    def test_shape_validation(self, unit_grid):
        base = identity_field(unit_grid)
        with pytest.raises(ValueError):
            PolySubgradient(
                np.zeros((2, 2, 2)), np.zeros(unit_grid.cell_shape + (2, 2)),
                np.zeros(unit_grid.cell_shape + (1,)), base, 0.0,
            )

    def test_unbounded_gradient_rejected(self, unit_grid):
        from polyreg import UnboundedGradientError

        layout = MinorsLayout(2, 2)

        def bad_grad(x, u, xi):
            g = np.zeros_like(xi)
            g[..., 4] = np.inf
            return np.zeros(xi.shape[:-1] + (2,)), g

        F = Integrand(layout, "steep", density_from(lambda x, u, xi: xi[..., 4] ** 2, bad_grad))
        with pytest.raises(UnboundedGradientError):
            poly_subgradient(F, identity_field(unit_grid))


class TestBregmanPoly:
    def test_reflexivity(self, unit_grid):
        for make in (detsq_energy, lambda: pq_energy(4.0, 2.0), lambda: rotation_energy(4.0)):
            F = make()
            u = random_smooth_field(unit_grid, seed=8, amplitude=0.5)
            w = poly_subgradient(F, u)
            assert abs(bregman_poly(F, u, u, w)) < 1e-12

    def test_detsq_closed_form(self, unit_grid):
        # base identity, comparison diag(2, 1): 4 - 1 - 2 (2 - 1) = 1
        F = detsq_energy()
        u = identity_field(unit_grid)
        w = poly_subgradient(F, u)
        v = stretch_field(unit_grid, 2.0, 1.0)
        assert bregman_poly(F, v, u, w) == pytest.approx(1.0, rel=1e-12)

    def test_detsq_closed_form_random_pairs(self, unit_grid):
        # D = integral of (det grad v - det grad u)^2 for the det-square density
        F = detsq_energy()
        area = unit_grid.cell_area
        act = unit_grid.active_cells
        for k in range(50):
            u = random_smooth_field(unit_grid, seed=[100, k], amplitude=0.8)
            v = random_smooth_field(unit_grid, seed=[200, k], amplitude=0.8)
            w = poly_subgradient(F, u)
            det_u = u.jacobians[..., 0, 0] * u.jacobians[..., 1, 1] \
                - u.jacobians[..., 0, 1] * u.jacobians[..., 1, 0]
            det_v = v.jacobians[..., 0, 0] * v.jacobians[..., 1, 1] \
                - v.jacobians[..., 0, 1] * v.jacobians[..., 1, 0]
            oracle = area * np.sum(((det_v - det_u)[act]) ** 2)
            got = bregman_poly(F, v, u, w)
            assert abs(got - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_nonnegativity_sampled(self, unit_grid):
        F = pq_energy(4.0, 2.0)
        u = random_smooth_field(unit_grid, seed=31, amplitude=0.4)
        w = poly_subgradient(F, u)
        for k in range(200):
            v = random_smooth_field(unit_grid, seed=[300, k], amplitude=1.0)
            assert bregman_poly(F, v, u, w) >= -1e-8

    def test_rotation_zero_certificate(self, disk_grid):
        # at a rotation the zero functional certifies: D = R(v) - R(rotation) >= 0
        F = rotation_energy(4.0)
        u = rotation_field(0.6, disk_grid)
        w0 = zero_subgradient(F, u)
        for k in range(50):
            v = random_smooth_field(disk_grid, seed=[400, k], amplitude=1.0)
            d = bregman_poly(F, v, u, w0)
            assert d >= -1e-10
            assert d == pytest.approx(
                energy(v, F) - energy(u, F), rel=1e-12, abs=1e-12
            )

    def test_infinite_energy_raises(self, unit_grid):
        F = wall_density()
        u = identity_field(unit_grid)
        w = zero_subgradient(F, u)
        flipped = stretch_field(unit_grid, -1.0, 1.0)
        with pytest.raises(InfiniteEnergyError):
            bregman_poly(F, flipped, u, w)


class TestBregmanClassical:
    """``bregman_poly`` with a ``v2 = 0`` certificate: the classical distance."""

    def test_quadratic_density_exact_quadratic_distance(self, unit_grid):
        # |A|^2 density: D = integral of |grad v - grad u|^2, exactly
        F = quadratic_gradient_density()
        area = unit_grid.cell_area
        act = unit_grid.active_cells
        for k in range(25):
            u = random_smooth_field(unit_grid, seed=[500, k], amplitude=0.7)
            v = random_smooth_field(unit_grid, seed=[600, k], amplitude=0.7)
            w = poly_subgradient(F, u)
            assert not np.any(w.v2)
            oracle = area * np.sum(((v.jacobians - u.jacobians)[act]) ** 2)
            got = bregman_poly(F, v, u, w)
            assert abs(got - oracle) <= 1e-10 * max(1.0, oracle)

    def test_reflexivity(self, unit_grid):
        F = quadratic_gradient_density()
        u = random_smooth_field(unit_grid, seed=53)
        w = poly_subgradient(F, u)
        assert bregman_poly(F, u, u, w) == 0.0


class TestVerifySubgradient:
    @pytest.mark.parametrize("make_f", [detsq_energy, lambda: pq_energy(4.0, 2.0),
                                        lambda: rotation_energy(4.0)])
    def test_built_in_certificates_pass(self, make_f, unit_grid):
        F = make_f()
        base = random_smooth_field(unit_grid, seed=61, amplitude=0.5)
        w = poly_subgradient(F, base)
        report = verify_subgradient(F, w, trials=300, seed=7, radius=0.5)
        assert report.violations == 0
        assert report.worst_gap >= -1e-8

    def test_perturbed_certificate_fails(self, unit_grid):
        F = detsq_energy()
        broken = broken_detsq_certificate(unit_grid)
        report = verify_subgradient(F, broken, trials=300, seed=7, radius=0.5)
        assert report.violations > 0
        assert report.worst_gap < -1e-8

    def test_zero_trials_vacuous(self, unit_grid):
        F = detsq_energy()
        w = poly_subgradient(F, identity_field(unit_grid))
        report = verify_subgradient(F, w, trials=0, seed=7)
        assert report.trials == 0 and report.violations == 0

    def test_deterministic_in_seed(self, unit_grid):
        F = pq_energy(4.0, 2.0)
        w = poly_subgradient(F, identity_field(unit_grid))
        a = verify_subgradient(F, w, trials=64, seed=9)
        b = verify_subgradient(F, w, trials=64, seed=9)
        assert a == b

    @pytest.mark.parametrize("radius", [0.0, -0.5, float("nan"), float("inf")])
    def test_bad_radius_rejected(self, unit_grid, radius):
        F = detsq_energy()
        w = poly_subgradient(F, identity_field(unit_grid))
        with pytest.raises(ValueError, match="radius"):
            verify_subgradient(F, w, trials=8, seed=9, radius=radius)

    @staticmethod
    def assert_matches_reference(F, w, trials, seed, radius,
                                 field=random_smooth_field_reference):
        report = verify_subgradient(F, w, trials=trials, seed=seed, radius=radius)
        ref, skipped = verify_subgradient_reference(F, w, trials, seed, radius, field=field)
        assert (report.trials, report.violations) == (ref.trials, ref.violations)
        assert report.worst_gap.hex() == ref.worst_gap.hex()
        assert report.tolerance == ref.tolerance
        return report, skipped

    def test_valid_certificate_matches_per_trial_reference(self, disk_grid):
        F = rotation_energy(4.0)
        w = poly_subgradient(F, random_smooth_field(disk_grid, seed=62, amplitude=0.5))
        report, skipped = self.assert_matches_reference(F, w, 64, 7, 0.5)
        assert report.violations == 0 and skipped == 0

    def test_broken_certificate_matches_per_trial_reference(self, unit_grid):
        report, _ = self.assert_matches_reference(
            detsq_energy(), broken_detsq_certificate(unit_grid), 64, 7, 0.5)
        assert report.violations > 0

    def test_skipped_trials_match_per_trial_reference(self, unit_grid):
        F = wall_density()
        w = poly_subgradient(F, identity_field(unit_grid))
        report, skipped = self.assert_matches_reference(F, w, 64, 7, 5.0)
        assert 0 < skipped < 64
        assert report.violations == 0


class ChildTrialError(Exception):
    """Raised by a density evaluated outside the test's process."""


class TwoArgumentError(Exception):
    """Pickles, but cannot be rebuilt from its pickle."""

    def __init__(self, where, what):
        super().__init__(f"{what} in {where}")


def density_raising_outside(pid, error=lambda: ChildTrialError("density evaluated in a fork")):
    """The quadratic gradient density, raising ``error()`` once evaluated in a
    process other than ``pid``: the base-point pass runs, forked trials fail."""

    def value_fn(x, u, xi):
        if os.getpid() != pid:
            raise error()
        return np.sum(xi[..., :4] ** 2, axis=-1)

    return Integrand(MinorsLayout(2, 2), "grad-sq", density_from(value_fn, grad_sq_gradient))


def serial_field(grid, rng, amplitude):
    """``random_smooth_field``'s values.  The full-grid formula rounds the
    field differently by about 1e-15, which moves the last bits of some
    single gaps (trial 0 at seed 7 among them)."""
    return random_smooth_field(grid, rng=rng, amplitude=amplitude).values


class TestTrialSplit:
    """The trials run in two processes; the report must equal the serial
    per-trial protocol's bit for bit, on either side of the split."""

    @pytest.mark.parametrize("trials", [1, 2, 9, 16])
    def test_valid_certificate_matches_reference_at_split_boundaries(self, disk_grid, trials):
        F = rotation_energy(4.0)
        w = poly_subgradient(F, random_smooth_field(disk_grid, seed=62, amplitude=0.5))
        report, skipped = TestVerifySubgradient.assert_matches_reference(
            F, w, trials, 7, 0.5, field=serial_field)
        assert report.violations == 0 and skipped == 0

    @pytest.mark.parametrize("trials", [1, 2, 9, 16])
    def test_broken_certificate_matches_reference_at_split_boundaries(self, unit_grid, trials):
        TestVerifySubgradient.assert_matches_reference(
            detsq_energy(), broken_detsq_certificate(unit_grid), trials, 7, 0.5,
            field=serial_field)

    def test_skipped_trials_match_reference_at_odd_count(self, unit_grid):
        F = wall_density()
        w = poly_subgradient(F, identity_field(unit_grid))
        _, skipped = TestVerifySubgradient.assert_matches_reference(
            F, w, 15, 7, 5.0, field=serial_field)
        assert 0 < skipped < 15

    def test_child_exception_raised_in_parent(self, unit_grid):
        F = density_raising_outside(os.getpid())
        w = poly_subgradient(F, identity_field(unit_grid))
        with pytest.raises(ChildTrialError, match="density evaluated in a fork"):
            verify_subgradient(F, w, trials=16, seed=7)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_exception_that_cannot_be_rebuilt_names_its_type(self, unit_grid):
        F = density_raising_outside(
            os.getpid(), error=lambda: TwoArgumentError("a fork", "density evaluated"))
        w = poly_subgradient(F, identity_field(unit_grid))
        with pytest.raises(RuntimeError, match="TwoArgumentError: density evaluated in a fork"):
            verify_subgradient(F, w, trials=4, seed=7)

    def test_child_dying_without_result_raises(self, unit_grid):
        F = density_raising_outside(os.getpid(), error=lambda: os._exit(3))
        w = poly_subgradient(F, identity_field(unit_grid))
        with pytest.raises(RuntimeError, match="without a result .exit code 3"):
            verify_subgradient(F, w, trials=4, seed=7)

    def test_parent_exception_kills_and_reaps_child(self, unit_grid, monkeypatch):
        import polyreg.bregman as bregman

        parent = os.getpid()

        def slow_in_child_failing_in_parent(*args, **kwargs):
            if os.getpid() == parent:
                raise ChildTrialError("raised in the parent's half")
            time.sleep(20.0)
            raise ChildTrialError("the child was not killed")

        monkeypatch.setattr(bregman, "random_smooth_field", slow_in_child_failing_in_parent)
        F = detsq_energy()
        w = poly_subgradient(F, identity_field(unit_grid))
        start = time.perf_counter()
        with pytest.raises(ChildTrialError, match="parent's half"):
            verify_subgradient(F, w, trials=16, seed=7)
        assert time.perf_counter() - start < 10.0  # the sleeping child was killed
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_without_fork_trials_run_in_process(self, unit_grid, monkeypatch):
        F = density_raising_outside(os.getpid())
        w = poly_subgradient(F, identity_field(unit_grid))
        monkeypatch.delattr(os, "fork")
        assert verify_subgradient(F, w, trials=16, seed=7).violations == 0

    def test_with_other_threads_running_trials_run_in_process(self, unit_grid):
        F = density_raising_outside(os.getpid())
        w = poly_subgradient(F, identity_field(unit_grid))
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30.0,))
        other.start()
        try:
            report = verify_subgradient(F, w, trials=16, seed=7)
        finally:
            release.set()
            other.join(timeout=30.0)
        assert not other.is_alive()
        assert report.violations == 0


class TestSourceCondition:
    def setup_problem(self, disk_grid):
        F = rotation_energy(4.0)
        reference = blob_image(disk_grid, random_blobs(7))
        u_dagger = rotation_field(np.pi / 6, disk_grid)
        forward = ForwardModel(reference, warp(reference, u_dagger), 2.0)
        w0 = zero_subgradient(F, u_dagger)
        params = SourceConditionParams(beta1=0.5, beta2=1.0, rho=1e3, alpha_bar=0.05)
        return F, forward, u_dagger, w0, params

    def test_zero_certificate_always_holds(self, disk_grid):
        F, forward, u_dagger, w0, params = self.setup_problem(disk_grid)
        for k in range(50):
            bump = random_smooth_field(disk_grid, seed=[700, k], amplitude=0.04)
            u = u_dagger.with_values(0.95 * u_dagger.values + bump.values)
            resid = source_condition_residual(F, forward, w0, u_dagger, u, params)
            assert resid <= 1e-12

    def test_exact_solution_gives_zero(self, disk_grid):
        F, forward, u_dagger, w0, params = self.setup_problem(disk_grid)
        resid = source_condition_residual(F, forward, w0, u_dagger, u_dagger, params)
        assert resid == 0.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SourceConditionParams(beta1=1.0, beta2=1.0, rho=1.0, alpha_bar=1.0)
        with pytest.raises(ValueError):
            SourceConditionParams(beta1=0.5, beta2=-1.0, rho=1.0, alpha_bar=1.0)
        params = SourceConditionParams(beta1=0.5, beta2=1.0, rho=1.0, alpha_bar=1.0)
        with pytest.raises(ValueError):
            params.check_sublevel(2.0)
        params.check_sublevel(0.5)
