import numpy as np
import pytest

from polyreg import (
    MinorsLayout,
    all_minors,
    apply_minors_gradient,
    higher_minors,
    minor_block,
    minors_gradient,
)

from oracles import brute_force_minors, relative_error


class TestLayout:
    def test_block_counts_by_binomials(self):
        lay = MinorsLayout(2, 2)
        assert lay.sigma == (4, 1)
        assert lay.tau == 5
        assert lay.tau2 == 1

        lay = MinorsLayout(3, 3)
        assert lay.sigma == (9, 9, 1)
        assert lay.tau == 19
        assert lay.tau2 == 10

    def test_rectangular_and_degenerate_layouts(self):
        assert MinorsLayout(2, 3).tau == 6 + 3
        assert MinorsLayout(1, 3).tau == 3
        assert MinorsLayout(1, 3).tau2 == 0

    def test_order_one_block_is_matrix_size(self):
        for N in (1, 2, 3):
            for n in (1, 2, 3):
                assert MinorsLayout(N, n).sigma[0] == N * n

    def test_unsupported_dimensions_rejected(self):
        with pytest.raises(ValueError):
            MinorsLayout(4, 2)
        with pytest.raises(ValueError):
            MinorsLayout(2, 0)

    def test_block_slices_partition(self):
        lay = MinorsLayout(3, 3)
        stops = []
        for s in (1, 2, 3):
            sl = lay.block_slice(s)
            stops.append((sl.start, sl.stop))
        assert stops == [(0, 9), (9, 18), (18, 19)]


class TestMinorBlock:
    def test_order_one_is_row_major_flatten(self, rng):
        a = rng.uniform(-2, 2, (3, 3))
        assert np.array_equal(minor_block(a, 1), a.reshape(-1))

    def test_identity_pattern_order_two(self):
        block = minor_block(np.eye(3), 2)
        assert np.array_equal(block, np.eye(3).reshape(-1))

    def test_out_of_range_order(self):
        with pytest.raises(ValueError):
            minor_block(np.eye(2), 3)
        with pytest.raises(ValueError):
            minor_block(np.eye(2), 0)

    def test_matches_brute_force_order_two(self, rng):
        a = rng.uniform(-2, 2, (3, 3))
        oracle = brute_force_minors(a)[9:18]
        assert np.max(relative_error(minor_block(a, 2), oracle)) < 1e-14


class TestAllMinors:
    def test_identity_2x2(self):
        assert np.array_equal(all_minors(np.eye(2)), [1, 0, 0, 1, 1])

    def test_explicit_2x2(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(all_minors(a), [1, 2, 3, 4, -2])

    def test_zero_matrix(self):
        assert np.array_equal(all_minors(np.zeros((3, 3))), np.zeros(19))

    def test_brute_force_oracle_2x2_and_3x3(self, rng):
        for shape in ((2, 2), (3, 3), (2, 3), (3, 2)):
            for _ in range(250):
                a = rng.uniform(-2, 2, shape)
                err = relative_error(all_minors(a), brute_force_minors(a))
                assert np.max(err) < 1e-14

    def test_batched_equals_loop(self, rng):
        a = rng.uniform(-2, 2, (40, 3, 3))
        batched = all_minors(a)
        for k in range(40):
            assert np.array_equal(batched[k], all_minors(a[k]))

    def test_determinant_is_multiplicative(self, rng):
        for n in (2, 3):
            for _ in range(100):
                a = rng.uniform(-2, 2, (n, n))
                b = rng.uniform(-2, 2, (n, n))
                det_ab = all_minors(a @ b)[-1]
                det_a, det_b = all_minors(a)[-1], all_minors(b)[-1]
                assert relative_error(det_ab, det_a * det_b) < 1e-12


class TestHigherMinors:
    def test_identity_2x2(self):
        assert np.array_equal(higher_minors(np.eye(2)), [1.0])

    def test_diag_2x2(self):
        assert np.array_equal(higher_minors(np.diag([2.0, 1.0])), [2.0])

    def test_one_row_matrix_empty(self):
        assert higher_minors(np.array([[1.0, 2.0, 3.0]])).shape == (0,)

    def test_consistent_with_all_minors(self, rng):
        a = rng.uniform(-2, 2, (3, 3))
        assert np.array_equal(higher_minors(a), all_minors(a)[9:])


class TestMinorsGradient:
    def test_det_row_is_cofactor_at_identity(self):
        g = minors_gradient(np.eye(2))
        assert np.array_equal(g[-1], np.eye(2))

    def test_det_row_is_cofactor_generic(self, rng):
        a = rng.uniform(-2, 2, (2, 2))
        cof = np.array([[a[1, 1], -a[1, 0]], [-a[0, 1], a[0, 0]]])
        assert np.array_equal(minors_gradient(a)[-1], cof)

    def test_directional_matches_central_differences(self, rng):
        h = 1e-5
        for n in (2, 3):
            for _ in range(50):
                a = rng.uniform(-2, 2, (n, n))
                direction = rng.uniform(-1, 1, (n, n))
                exact = apply_minors_gradient(minors_gradient(a), direction)
                fd = (all_minors(a + h * direction) - all_minors(a - h * direction)) / (2 * h)
                scale = np.maximum(np.abs(fd), 1.0)
                assert np.max(np.abs(exact - fd) / scale) < 1e-6

    def test_order_two_block_at_identity_3x3(self):
        h = 1e-6
        a = np.eye(3)
        direction = np.arange(9.0).reshape(3, 3) / 10.0
        exact = apply_minors_gradient(minors_gradient(a), direction)[9:18]
        fd = (all_minors(a + h * direction) - all_minors(a - h * direction))[9:18] / (2 * h)
        assert np.max(np.abs(exact - fd)) < 1e-6

    def test_gradient_of_linear_block_is_constant(self, rng):
        a = rng.uniform(-2, 2, (2, 3))
        g = minors_gradient(a)
        for k in range(6):
            expected = np.zeros((2, 3))
            expected[k // 3, k % 3] = 1.0
            assert np.array_equal(g[k], expected)
