import functools

import numpy as np
import pytest

from polyreg import (
    Integrand,
    MinorsLayout,
    all_minors,
    check_coercivity,
    check_convexity,
    detsq_energy,
    pq_energy,
    rotation_energy,
)

from oracles import (
    density_from,
    detsq_gradient_reference,
    detsq_value_reference,
    pq_gradient_reference,
    pq_value_reference,
    relative_error,
    rotation_gradient_reference,
    rotation_value_reference,
    schatten_gradient_reference,
    singular_values_reference,
)


def rotation_matrix(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def nonconvex_control():
    """Negative of the determinant-square density, for negative controls."""
    layout = MinorsLayout(2, 2)

    def value_fn(x, u, xi):
        return -xi[..., 4] ** 2

    def grad_fn(x, u, xi):
        g = np.zeros_like(xi)
        g[..., 4] = -2.0 * xi[..., 4]
        return np.zeros(xi.shape[:-1] + (2,)), g

    return Integrand(layout, "nonconvex-control", density_from(value_fn, grad_fn))


class TestRotationEnergy:
    def test_exponent_guard(self):
        with pytest.raises(ValueError):
            rotation_energy(2.0)
        with pytest.raises(ValueError):
            rotation_energy(1.5)

    def test_identity_value(self):
        F = rotation_energy(4.0)
        assert F.value(None, None, all_minors(np.eye(2))) == pytest.approx(6.0, abs=1e-14)

    def test_zero_matrix_value(self):
        F = rotation_energy(4.0)
        # direct evaluation: both singular values vanish, det slot 0
        assert F.value(None, None, np.zeros(5)) == pytest.approx(4.0 * np.e, rel=1e-14)

    def test_rotations_hit_identity_value(self, rng):
        F = rotation_energy(4.0)
        for theta in rng.uniform(-np.pi, np.pi, 50):
            val = F.value(None, None, all_minors(rotation_matrix(theta)))
            assert abs(val - 6.0) <= 1e-12

    def test_singular_value_term_matches_lapack(self, rng):
        # value - p exp(1 - det) is lam1^p + lam2^p of the order-1 block; the
        # subtraction itself may lose a few ulps of the full value
        p = 4.0
        F = rotation_energy(p)
        a = rng.uniform(-3, 3, (300, 2, 2))
        xi = all_minors(a)
        value = F.value(None, None, xi)
        got = value - p * np.exp(1.0 - xi[:, 4])
        expected = np.sum(singular_values_reference(a) ** p, axis=-1)
        slack = 4.0 * np.finfo(float).eps * value
        assert np.all(np.abs(got - expected) <= 1e-12 * expected + slack)

    def test_minimality_over_random_matrices(self, rng):
        F = rotation_energy(4.0)
        a = rng.uniform(-3, 3, (10_000, 2, 2))
        vals = F.value(None, None, all_minors(a))
        assert np.min(vals) >= 6.0 - 1e-12

    def test_two_sided_rotation_invariance(self, rng):
        F = rotation_energy(4.0)
        for _ in range(200):
            a = rng.uniform(-3, 3, (2, 2))
            q1 = rotation_matrix(rng.uniform(0, 2 * np.pi))
            q2 = rotation_matrix(rng.uniform(0, 2 * np.pi))
            base = F.value(None, None, all_minors(a))
            moved = F.value(None, None, all_minors(q1 @ a @ q2))
            assert relative_error(moved, base) < 1e-12

    def test_gradient_matches_central_differences(self, rng):
        F = rotation_energy(4.0)
        h = 1e-5
        for _ in range(100):
            xi = rng.uniform(-2, 2, 5)
            _, _, g = F.gradient(None, None, xi)
            direction = rng.uniform(-1, 1, 5)
            fd = (F.value(None, None, xi + h * direction)
                  - F.value(None, None, xi - h * direction)) / (2 * h)
            assert abs(np.dot(g, direction) - fd) / max(1.0, abs(fd)) < 1e-6

    def test_matrix_gradient_vanishes_at_rotations(self, rng):
        # the composed density f(A) = F(all_minors(A)) is critical on rotations
        from polyreg import minors_gradient, pull_back

        F = rotation_energy(4.0)
        for theta in rng.uniform(-np.pi, np.pi, 20):
            r = rotation_matrix(theta)
            _, _, g = F.gradient(None, None, all_minors(r))
            df_da = pull_back(minors_gradient(r), g)
            assert np.max(np.abs(df_da)) < 1e-12

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    def test_closed_form_gradient_matches_svd_oracle(self, rng, p):
        F = rotation_energy(p)
        a = rng.uniform(-3, 3, (2000, 2, 2))
        xi = all_minors(a)
        _, g_u, g = F.gradient(None, None, xi)
        want = schatten_gradient_reference(a, p).reshape(-1, 4)
        err = np.max(np.abs(g[:, :4] - want), axis=1) / np.max(np.abs(want), axis=1)
        assert np.max(err) <= 1e-12
        assert np.array_equal(g[:, 4], -p * np.exp(1.0 - xi[:, 4]))
        assert not np.any(g_u)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    def test_closed_form_gradient_at_degenerate_points(self, p):
        # zero matrix (big = small = 0), scaled rotations (small = 0),
        # reflections (big = 0) and rank one (lam2 = 0, big = small)
        F = rotation_energy(p)
        theta = 0.7
        c, s = np.cos(theta), np.sin(theta)
        a = np.array([
            np.zeros((2, 2)),
            rotation_matrix(theta),
            2.5 * rotation_matrix(-2.0),
            np.diag([1.0, -1.0]),
            3.0 * np.array([[c, s], [s, -c]]),
            np.outer([1.0, 2.0], [3.0, -1.0]),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
        ])
        _, _, g = F.gradient(None, None, all_minors(a))
        assert np.all(np.isfinite(g))
        assert np.array_equal(g[0, :4], np.zeros(4))
        want = schatten_gradient_reference(a, p).reshape(-1, 4)
        scale = np.maximum(np.max(np.abs(want), axis=1), 1.0)
        err = np.max(np.abs(g[:, :4] - want), axis=1) / scale
        assert np.max(err) <= 1e-12

    def test_declared_coercivity_constant(self):
        assert rotation_energy(4.0).coercivity_constant == pytest.approx(0.5)


class TestPqEnergy:
    def test_exponent_guards(self):
        with pytest.raises(ValueError):
            pq_energy(2.0, 2.0)  # p must exceed n = 2
        with pytest.raises(ValueError):
            pq_energy(4.0, 1.0)

    def test_identity_value(self):
        # |I|^2 = 2 so |I|^4 = 4: 4/4 + 1/2 = 1.5
        F = pq_energy(4.0, 2.0)
        assert F.value(None, None, all_minors(np.eye(2))) == pytest.approx(1.5, abs=1e-14)

    def test_zero_value_and_gradient(self):
        F = pq_energy(4.0, 2.0)
        assert F.value(None, None, np.zeros(5)) == 0.0
        _, gu, gxi = F.gradient(None, None, np.zeros(5))
        assert gu is None and np.all(gxi == 0.0)

    def test_gradient_formula_at_identity(self):
        F = pq_energy(4.0, 2.0)
        _, _, g = F.gradient(None, None, all_minors(np.eye(2)))
        # |I|^(p-2) I has Frobenius-norm-squared 2, so the diagonal is 2
        assert np.allclose(g[:4], [2.0, 0.0, 0.0, 2.0])
        assert g[4] == 1.0

    def test_gradient_matches_central_differences(self, rng):
        F = pq_energy(4.0, 2.0)
        h = 1e-5
        for _ in range(100):
            xi = rng.uniform(-2, 2, 5)
            _, _, g = F.gradient(None, None, xi)
            direction = rng.uniform(-1, 1, 5)
            fd = (F.value(None, None, xi + h * direction)
                  - F.value(None, None, xi - h * direction)) / (2 * h)
            assert abs(np.dot(g, direction) - fd) / max(1.0, abs(fd)) < 1e-6

    def test_three_dimensional_layout(self, rng):
        F = pq_energy(4.0, 2.0, n=3)
        assert F.layout.tau == 19
        a = rng.uniform(-1, 1, (3, 3))
        xi = all_minors(a)
        fro = np.sqrt(np.sum(a * a))
        det = xi[-1]
        assert F.value(None, None, xi) == pytest.approx(fro**4 / 4 + det**2 / 2, rel=1e-12)
        _, _, g = F.gradient(None, None, xi)
        assert np.all(g[9:18] == 0.0)


class TestDetsqEnergy:
    def test_values_and_gradients(self):
        F = detsq_energy()
        xi = np.zeros(5)
        for d, want_val, want_grad in [(1.0, 1.0, 2.0), (0.0, 0.0, 0.0), (-3.0, 9.0, -6.0)]:
            xi[4] = d
            assert F.value(None, None, xi) == want_val
            _, _, g = F.gradient(None, None, xi)
            assert g[4] == want_grad
            assert np.all(g[:4] == 0.0)


class TestConvexity:
    def test_builtins_have_no_violations(self):
        for F in (rotation_energy(4.0), pq_energy(4.0, 2.0), detsq_energy()):
            report = check_convexity(F, samples=10_000, seed=5)
            assert report.violations == 0, F.name

    def test_nonconvex_control_fails(self):
        report = check_convexity(nonconvex_control(), samples=10_000, seed=5)
        assert report.violations > 0
        assert report.worst_gap > 0

    def test_sample_guard(self):
        with pytest.raises(ValueError):
            check_convexity(detsq_energy(), samples=0, seed=1)


class TestCoercivity:
    def test_rotation_energy_half_bound(self):
        report = check_coercivity(rotation_energy(4.0), p=4.0, samples=100_000, seed=3)
        assert report.c_reference == pytest.approx(0.5)
        assert report.violations_at_c == 0
        assert report.c_estimate >= 0.5

    def test_pq_energy_bound(self):
        report = check_coercivity(pq_energy(4.0, 2.0), p=4.0, samples=20_000, seed=3)
        assert report.c_reference == pytest.approx(0.25)
        assert report.violations_at_c == 0

    def test_zero_matrix_boundary_case(self):
        F = pq_energy(4.0, 2.0)
        assert F.value(None, None, np.zeros(5)) >= 0.25 * 0.0

    def test_power_mean_bound_directly(self, rng):
        # lam1^4 + lam2^4 >= 0.5 (lam1^2 + lam2^2)^2, the analytic route
        lam = rng.uniform(0, 5, (1000, 2))
        lhs = np.sum(lam**4, axis=1)
        rhs = 0.5 * np.sum(lam**2, axis=1) ** 2
        assert np.all(lhs >= rhs - 1e-9 * np.maximum(rhs, 1.0))


class TestSubgradientInequality:
    def test_pointwise_convexity_inequality(self, rng):
        # F(eta) >= F(zeta) + g(zeta) . (eta - zeta) for convex densities
        for F in (rotation_energy(4.0), pq_energy(4.0, 2.0), detsq_energy()):
            zeta = rng.uniform(-2, 2, (500, 5))
            eta = rng.uniform(-2, 2, (500, 5))
            f_zeta = F.value(None, None, zeta)
            f_eta = F.value(None, None, eta)
            _, _, g = F.gradient(None, None, zeta)
            lower = f_zeta + np.sum(g * (eta - zeta), axis=-1)
            assert np.min(f_eta - lower) > -1e-10, F.name


class TestInterface:
    def test_slot_length_checked(self):
        F = detsq_energy()
        with pytest.raises(ValueError):
            F.value(None, None, np.zeros(4))

    def test_autonomous_density_ignores_position(self, rng):
        F = rotation_energy(3.5)
        xi = rng.uniform(-1, 1, 5)
        v1 = F.value(np.zeros(2), np.zeros(2), xi)
        v2 = F.value(np.ones(2), 5.0 * np.ones(2), xi)
        assert v1 == v2

    def test_value_at_matrix_composition(self, rng):
        F = pq_energy(4.0, 2.0)
        a = rng.uniform(-1, 1, (7, 2, 2))
        assert np.array_equal(F.value_at_matrix(a), F.value(None, None, all_minors(a)))


def _edge_slots():
    """2 x 2 slots where the rotation split or the barrier degenerates."""
    c, s = np.cos(0.7), np.sin(0.7)
    return np.array([
        [c, -s, s, c, 1.0],               # pure rotation: small = 0
        [c, s, s, -c, -1.0],              # pure reflection: big = 0
        [1.0, 0.0, 0.0, 0.0, 0.0],        # big == small
        [0.0, 0.0, 0.0, 0.0, 0.0],        # big == small == 0
        [0.3, -0.2, 0.5, 1.1, -1000.0],   # exp(1 - d) overflows
    ])


@pytest.mark.parametrize("F, value_ref, grad_ref", [
    (rotation_energy(2.5), functools.partial(rotation_value_reference, p=2.5),
     functools.partial(rotation_gradient_reference, p=2.5)),
    (rotation_energy(4.0), functools.partial(rotation_value_reference, p=4.0),
     functools.partial(rotation_gradient_reference, p=4.0)),
    (pq_energy(4.0, 2.0), functools.partial(pq_value_reference, p=4.0, q=2.0, n=2),
     functools.partial(pq_gradient_reference, p=4.0, q=2.0, n=2)),
    (pq_energy(3.0, 1.5), functools.partial(pq_value_reference, p=3.0, q=1.5, n=2),
     functools.partial(pq_gradient_reference, p=3.0, q=1.5, n=2)),
    (pq_energy(4.0, 2.0, n=3), functools.partial(pq_value_reference, p=4.0, q=2.0, n=3),
     functools.partial(pq_gradient_reference, p=4.0, q=2.0, n=3)),
    (detsq_energy(), detsq_value_reference, detsq_gradient_reference),
], ids=["rotation-2.5", "rotation-4", "pq-4-2", "pq-3-1.5", "pq-3x3", "detsq"])
def test_one_pass_density_equals_two_function_reference(F, value_ref, grad_ref):
    # each built-in computes value and gradient in one function; both must
    # equal the separate value and gradient formulas bit for bit
    rng = np.random.default_rng(5)
    batches = [rng.uniform(-3.0, 3.0, (500, F.layout.tau))]
    if F.layout.tau == 5:
        batches.append(_edge_slots())
    for xi in batches:
        value = F.value(None, None, xi)
        dens, g_u, g_xi = F.gradient(None, None, xi)
        want_u, want_xi = grad_ref(xi)
        assert np.array_equal(value, value_ref(xi))
        assert np.array_equal(dens, value)
        assert np.array_equal(g_u, want_u)
        assert np.array_equal(g_xi, want_xi)
