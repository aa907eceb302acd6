import numpy as np
import pytest

from polyreg import (
    DomainViolationError,
    ForwardModel,
    Grid,
    ScalarImage,
    add_noise,
    admissibility_gap,
    blob_image,
    data_term,
    field_from_function,
    identity_field,
    lq_norm,
    random_blobs,
    rotation_field,
    warp,
)


class TestScalarImage:
    def test_reproduces_node_samples(self, unit_grid, rng):
        samples = rng.uniform(0, 1, unit_grid.node_shape)
        img = ScalarImage(unit_grid, samples)
        assert np.array_equal(img.sample(unit_grid.node_points), samples)

    def test_affine_reproduction(self, unit_grid, rng):
        pts = unit_grid.node_points
        img = ScalarImage(unit_grid, 2.0 * pts[..., 0] - 0.5 * pts[..., 1] + 0.25)
        query = rng.uniform(0, 1, (50, 2))
        expected = 2.0 * query[:, 0] - 0.5 * query[:, 1] + 0.25
        assert np.max(np.abs(img.sample(query) - expected)) < 1e-13

    def test_values_stay_in_stencil_hull(self, unit_grid, rng):
        samples = rng.uniform(0, 1, unit_grid.node_shape)
        img = ScalarImage(unit_grid, samples)
        query = rng.uniform(-0.5, 1.5, (500, 2))
        vals = img.sample(query)
        assert np.all(vals >= samples.min() - 1e-12)
        assert np.all(vals <= samples.max() + 1e-12)

    def test_clamp_extension_is_constant_outside(self, unit_grid):
        pts = unit_grid.node_points
        img = ScalarImage(unit_grid, pts[..., 0])
        assert img.sample(np.array([2.0, 0.5])) == 1.0
        assert img.sample(np.array([-1.0, 0.5])) == 0.0

    def test_gradient_matches_interpolant(self, unit_grid, rng):
        samples = rng.uniform(0, 1, unit_grid.node_shape)
        img = ScalarImage(unit_grid, samples)
        query = rng.uniform(0.1, 0.9, (100, 2))
        _, grads = img.sample_with_gradient(query)
        h = 1e-7
        for k in range(0, 100, 7):
            p = query[k]
            fdx = (img.sample(p + [h, 0]) - img.sample(p - [h, 0])) / (2 * h)
            fdy = (img.sample(p + [0, h]) - img.sample(p - [0, h])) / (2 * h)
            assert abs(grads[k, 0] - fdx) < 1e-6
            assert abs(grads[k, 1] - fdy) < 1e-6

    def test_gradient_zero_when_clamped(self, unit_grid, rng):
        img = ScalarImage(unit_grid, rng.uniform(0, 1, unit_grid.node_shape))
        _, grads = img.sample_with_gradient(np.array([[5.0, 0.5], [0.5, -3.0]]))
        assert grads[0, 0] == 0.0
        assert grads[1, 1] == 0.0


def _equal_bytes(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestWarpMatchesTwoIndexGathers:
    """``sample`` and ``sample_with_gradient`` read one stencil cell by flat
    index; they equal the eight two-index gathers of the plain formula byte
    for byte, on every kind of point and point-array shape."""

    GRID = Grid(((-1.0, 1.0), (-0.5, 2.0)), 7, 5)

    @classmethod
    def _points(cls, rng):
        g = cls.GRID
        (a1, b1), (a2, b2) = g.bounds
        nodes = g.node_points
        return {
            "nodes": nodes.reshape(-1, 2),
            "interior": rng.uniform([a1, a2], [b1, b2], (200, 2)),
            "clamped": rng.uniform([a1 - 2, a2 - 2], [b1 + 2, b2 + 2], (200, 2)),
            "far edge i": np.stack([np.full(9, b1), np.linspace(a2, b2, 9)], axis=-1),
            "far edge j": np.stack([np.linspace(a1, b1, 9), np.full(9, b2)], axis=-1),
            "far corner": np.array([[b1, b2], [b1 + 1.0, b2 + 1.0], [b1, b2 + 3.0]]),
            "beyond far edges": np.array([[b1 + 0.3, 0.1], [0.2, b2 + 0.7], [b1 + 5, a2],
                                          [a1, b2 + 5], [a1 - 1, b2 + 1], [b1 + 1, a2 - 1]]),
            "snapped": (nodes * (1.0 + 1e-14)).reshape(-1, 2),
            "single point": np.array([0.3, 0.7]),
            "single far corner": np.array([b1, b2]),
            "grid shaped": nodes + rng.uniform(-0.2, 0.2, nodes.shape),
        }

    @pytest.mark.parametrize("kind", [
        "nodes", "interior", "clamped", "far edge i", "far edge j", "far corner",
        "beyond far edges", "snapped", "single point", "single far corner", "grid shaped"])
    def test_sample_and_gradient(self, kind, rng):
        import oracles

        img = ScalarImage(self.GRID, rng.standard_normal(self.GRID.node_shape))
        pts = self._points(rng)[kind]
        _equal_bytes(img.sample(pts), oracles.interpolate_reference(img, pts, False))
        vals, grads = img.sample_with_gradient(pts)
        want_vals, want_grads = oracles.interpolate_reference(img, pts, True)
        _equal_bytes(vals, want_vals)
        _equal_bytes(grads, want_grads)

    @pytest.mark.parametrize("pts", [
        [np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan],
        [[0.1, 0.2], [np.nan, 0.5], [0.3, 0.4]]])
    def test_nan_coordinates_raise_as_the_gathers_do(self, pts, rng):
        import oracles

        # ny = 6 is even: a NaN cast to an index, times ny, wraps to 0
        grid = Grid(((-1.0, 1.0), (-0.5, 2.0)), 7, 6)
        img = ScalarImage(grid, rng.standard_normal(grid.node_shape))
        pts = np.array(pts)
        for gradient in (False, True):
            with np.errstate(invalid="ignore"), pytest.raises(IndexError):
                oracles.interpolate_reference(img, pts, gradient)
        with pytest.raises(IndexError):
            img.sample(pts)
        with pytest.raises(IndexError):
            img.sample_with_gradient(pts)

    def test_snapped_points_hit_nodes(self, rng):
        img = ScalarImage(self.GRID, rng.standard_normal(self.GRID.node_shape))
        nodes = self.GRID.node_points
        assert np.array_equal(img.sample(nodes * (1.0 + 1e-14)), img.samples)

    def test_two_node_axes(self, rng):
        import oracles

        grid = Grid(((0.0, 1.0), (0.0, 3.0)), 2, 2)
        img = ScalarImage(grid, rng.standard_normal((2, 2)))
        pts = rng.uniform(-0.5, 3.5, (4, 5, 2))
        pts[0] = [1.0, 3.0]
        vals, grads = img.sample_with_gradient(pts)
        want_vals, want_grads = oracles.interpolate_reference(img, pts, True)
        _equal_bytes(vals, want_vals)
        _equal_bytes(grads, want_grads)


class TestWarp:
    def test_identity_is_node_exact(self, disk_grid, rng):
        img = ScalarImage(disk_grid, rng.uniform(0, 1, disk_grid.node_shape))
        out = warp(img, identity_field(disk_grid))
        assert np.array_equal(out.samples, img.samples)

    def test_constant_image_stays_constant(self, disk_grid):
        img = ScalarImage(disk_grid, np.full(disk_grid.node_shape, 3.25))
        u = rotation_field(0.4, disk_grid)
        assert np.all(warp(img, u).samples == 3.25)

    def test_affine_image_mirror(self, unit_grid):
        pts = unit_grid.node_points
        img = ScalarImage(unit_grid, pts[..., 0])
        u = field_from_function(
            unit_grid, lambda p: np.stack([1.0 - p[..., 0], p[..., 1]], axis=-1)
        )
        assert np.max(np.abs(warp(img, u).samples - (1.0 - pts[..., 0]))) < 1e-13

    def test_strict_mode_flags_escapes(self, disk_grid, rng):
        img = ScalarImage(disk_grid, rng.uniform(0, 1, disk_grid.node_shape))
        u = field_from_function(disk_grid, lambda p: 1.5 * p)  # pushes outside
        with pytest.raises(DomainViolationError) as err:
            warp(img, u, strict=True)
        assert err.value.distance > 0
        warp(img, u)  # clamped mode stays silent

    def test_rotations_always_admissible_on_disk(self, disk_grid, rng):
        img = ScalarImage(disk_grid, rng.uniform(0, 1, disk_grid.node_shape))
        for theta in rng.uniform(-np.pi, np.pi, 25):
            warp(img, rotation_field(theta, disk_grid), strict=True)
            assert admissibility_gap(rotation_field(theta, disk_grid)) == 0.0


class TestDataTerm:
    def test_exact_match_is_zero(self, disk_grid, rng):
        img = ScalarImage(disk_grid, rng.uniform(0, 1, disk_grid.node_shape))
        assert data_term(img, img, 2.0) == 0.0

    def test_unit_difference_unit_square(self, unit_grid):
        a = ScalarImage(unit_grid, np.ones(unit_grid.node_shape))
        b = ScalarImage(unit_grid, np.zeros(unit_grid.node_shape))
        assert data_term(a, b, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_half_area_mask(self):
        base = Grid(((0.0, 1.0), (0.0, 1.0)), 9, 9)
        from polyreg import CellMask

        half = np.zeros(base.cell_shape, dtype=bool)
        half[:4, :] = True  # exactly half the cells
        g = base.with_mask(CellMask(half))
        a = ScalarImage(g, np.full(g.node_shape, 2.0))
        b = ScalarImage(g, np.zeros(g.node_shape))
        assert data_term(a, b, 2.0) == pytest.approx(4.0 * 0.5, rel=1e-14)

    def test_exponent_guard(self, unit_grid):
        img = ScalarImage(unit_grid, np.zeros(unit_grid.node_shape))
        with pytest.raises(ValueError):
            data_term(img, img, 0.5)

    def test_grid_mismatch_guard(self, unit_grid, disk_grid):
        a = ScalarImage(unit_grid, np.zeros(unit_grid.node_shape))
        b = ScalarImage(disk_grid, np.zeros(disk_grid.node_shape))
        with pytest.raises(ValueError):
            data_term(a, b, 2.0)


class TestRotationField:
    def test_zero_angle_is_identity(self, disk_grid):
        u = rotation_field(0.0, disk_grid)
        assert np.array_equal(u.values, disk_grid.node_points)

    def test_quarter_turn(self, disk_grid):
        u = rotation_field(np.pi / 2, disk_grid)
        pts = disk_grid.node_points
        assert np.allclose(u.values[..., 0], -pts[..., 1], atol=1e-15)
        assert np.allclose(u.values[..., 1], pts[..., 0], atol=1e-15)

    def test_jacobians_exactly_rotation(self, disk_grid):
        theta = 1.1
        u = rotation_field(theta, disk_grid)
        r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert np.max(np.abs(u.jacobians - r)) < 1e-13

    def test_warns_off_disk(self, unit_grid):
        with pytest.warns(UserWarning):
            rotation_field(0.3, unit_grid)


class TestAddNoise:
    def test_zero_level_returns_exact(self, disk_grid, rng):
        img = ScalarImage(disk_grid, rng.uniform(0, 1, disk_grid.node_shape))
        sample = add_noise(img, 0.0, 2.0, seed=4)
        assert sample.image is img
        assert sample.delta == 0.0

    def test_norm_hits_level_exactly(self, disk_grid, rng):
        img = ScalarImage(disk_grid, rng.uniform(0, 1, disk_grid.node_shape))
        for k, delta in enumerate(rng.uniform(1e-4, 1.0, 100)):
            q = float(rng.choice([1.0, 2.0, 3.0]))
            sample = add_noise(img, delta, q, seed=k)
            noise = ScalarImage(disk_grid, sample.image.samples - img.samples)
            assert abs(lq_norm(noise, q) - delta) <= 1e-12 * delta

    def test_deterministic_in_seed(self, disk_grid, rng):
        img = ScalarImage(disk_grid, rng.uniform(0, 1, disk_grid.node_shape))
        a = add_noise(img, 0.3, 2.0, seed=11)
        b = add_noise(img, 0.3, 2.0, seed=11)
        c = add_noise(img, 0.3, 2.0, seed=12)
        assert np.array_equal(a.image.samples, b.image.samples)
        assert not np.array_equal(a.image.samples, c.image.samples)

    def test_negative_level_rejected(self, disk_grid):
        img = ScalarImage(disk_grid, np.zeros(disk_grid.node_shape))
        with pytest.raises(ValueError):
            add_noise(img, -0.1, 2.0, seed=0)


class TestGroundTruthPipeline:
    def test_exact_solution_consistency(self, disk_grid):
        img = blob_image(disk_grid, random_blobs(7))
        u = rotation_field(np.pi / 6, disk_grid)
        exact = warp(img, u, strict=True)
        assert data_term(warp(img, u), exact, 2.0) == 0.0

    def test_forward_model_residual(self, disk_grid):
        img = blob_image(disk_grid, random_blobs(7))
        u = rotation_field(np.pi / 6, disk_grid)
        fwd = ForwardModel(img, warp(img, u), 2.0)
        assert fwd.residual_norm(u) == 0.0
        assert fwd.residual_norm(identity_field(disk_grid)) > 0.0

    def test_blob_image_resolved(self, disk_grid):
        img = blob_image(disk_grid, random_blobs(7))
        lo, hi = img.min_max()
        assert hi > lo  # non-degenerate
        assert hi <= 3.0  # three bumps with amplitude at most one
