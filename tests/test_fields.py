import tracemalloc

import numpy as np
import pytest

from polyreg import (
    CellMask,
    Grid,
    InfiniteEnergyError,
    Integrand,
    MatrixField,
    MinorsLayout,
    all_minors,
    detsq_energy,
    disk_mask,
    energy,
    energy_with_gradient,
    field_from_function,
    identity_field,
    minors_gradient,
    pairing,
    pq_energy,
    pull_back,
    random_smooth_field,
    rotation_energy,
)
from polyreg.bregman import PolySubgradient, zero_subgradient
from polyreg.fields import _density_pass
from polyreg.registration import admissibility_gap

from oracles import density_from, domain_measure, random_smooth_field_reference
from test_solver import _run_python


def rotation_matrix(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def constant_covector(grid, u0=None, u1=None, v2=None, base=None, F=None):
    """Subgradient-shaped covector with constant fields, for pairing tests."""
    base = base if base is not None else identity_field(grid)
    F = F if F is not None else detsq_energy()
    w = zero_subgradient(F, base)
    u0_arr = np.zeros(grid.node_shape + (2,)) if u0 is None else np.tile(u0, grid.node_shape + (1,))
    u1_arr = np.zeros(grid.cell_shape + (2, 2)) if u1 is None else np.tile(u1, grid.cell_shape + (1, 1))
    v2_arr = np.zeros(grid.cell_shape + (1,)) if v2 is None else np.tile(v2, grid.cell_shape + (1,))
    return PolySubgradient(u0_arr, u1_arr, v2_arr, base_point=base, base_energy=w.base_energy)


class TestGrid:
    def test_spacing_and_positions(self):
        g = Grid(((0.0, 1.0), (0.0, 2.0)), 5, 3)
        assert g.spacing == (0.25, 1.0)
        assert np.array_equal(g.node_points[2, 1], [0.5, 1.0])
        assert g.cell_area == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(((0.0, 0.0), (0.0, 1.0)), 4, 4)
        with pytest.raises(ValueError):
            Grid(((0.0, 1.0), (0.0, 1.0)), 1, 4)

    def test_disk_mask_measure_close_to_area(self):
        base = Grid(((-1.0, 1.0), (-1.0, 1.0)), 64, 64)
        g = base.with_mask(disk_mask(base, radius=1.0))
        assert abs(domain_measure(g) - np.pi) < 0.05

    def test_disk_membership_and_distance(self):
        base = Grid(((-1.0, 1.0), (-1.0, 1.0)), 16, 16)
        g = base.with_mask(disk_mask(base, radius=1.0))
        assert g.distance_outside(np.array([0.5, 0.0])) == 0.0
        assert g.distance_outside(np.array([2.0, 0.0])) == pytest.approx(1.0)
        assert g.diameter == 2.0

    @pytest.mark.parametrize("radius", [-1.0, 0.0, float("nan"), float("inf")])
    def test_disk_mask_rejects_bad_radius(self, radius):
        base = Grid(((-1.0, 1.0), (-1.0, 1.0)), 16, 16)
        with pytest.raises(ValueError, match="radius"):
            disk_mask(base, radius=radius)

    @staticmethod
    def data_mask_grid(n):
        """Disk-shaped mask that has lost its provenance, as if loaded from CSV."""
        base = Grid(((-1.0, 1.0), (-1.0, 1.0)), n, n)
        return base.with_mask(CellMask(disk_mask(base, radius=0.9).active))

    @staticmethod
    def dense_distance(g, p, block=64):
        """Distance from each point to every active closed cell, minimized per
        point; ``block`` points at a time bound the temporaries."""
        centers = g.cell_centers[g.mask.active]
        h1, h2 = g.spacing
        flat = p.reshape(-1, 2)
        out = np.empty(len(flat))
        with np.errstate(invalid="ignore"):
            for s in range(0, len(flat), block):
                f = flat[s:s + block]
                dx = np.maximum(np.abs(f[:, None, 0] - centers[None, :, 0]) - 0.5 * h1, 0.0)
                dy = np.maximum(np.abs(f[:, None, 1] - centers[None, :, 1]) - 0.5 * h2, 0.0)
                out[s:s + block] = np.hypot(dx, dy).min(axis=1)
        return out.reshape(p.shape[:-1])

    def test_data_mask_distance_equals_dense_formula(self, rng):
        g = self.data_mask_grid(32)
        pts = rng.uniform(-1.5, 1.5, (40, 30, 2))
        nodes = g.node_points
        # Nodes, cell centres and edge midpoints sit on the cell-lookup
        # boundaries; outer nodes and non-finite points leave the box.
        edges = np.stack(np.broadcast_arrays(nodes[:, :1, 0], g.cell_centers[:1, :, 1]), -1)
        special = np.array([[np.nan, 0.0], [0.0, np.nan], [np.inf, 0.0], [-np.inf, 0.0],
                            [0.0, np.inf], [np.inf, -np.inf], [-1.0, -1.0], [1.0, 1.0]])
        for p in (pts, nodes, g.cell_centers, edges, special):
            with np.errstate(invalid="ignore"):
                assert np.array_equal(g.distance_outside(p), self.dense_distance(g, p),
                                      equal_nan=True)

    def test_data_mask_distance_memory_bounded(self):
        # The stretched field moves about half the domain nodes out of the
        # mask, so thousands of points search every active cell.
        u = identity_field(self.data_mask_grid(128))
        stretched = MatrixField(u.grid, 1.5 * u.values)
        tracemalloc.start()
        try:
            gap = admissibility_gap(u)
            stretched_gap = admissibility_gap(stretched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap < 1e-12
        assert 0.4 < stretched_gap < 0.5
        assert peak < 64 * 2**20

    def test_data_mask_distance_at_256(self, rng):
        # about 41,000 active cells: the identity stays inside in bounded
        # memory, and random points still equal the dense formula
        g = self.data_mask_grid(256)
        u = identity_field(g)
        tracemalloc.start()
        try:
            gap = admissibility_gap(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap < 1e-12
        assert peak < 64 * 2**20
        pts = rng.uniform(-1.2, 1.2, (300, 2))
        assert np.array_equal(g.distance_outside(pts), self.dense_distance(g, pts))


class TestDiscreteJacobian:
    def test_identity_field(self, unit_grid):
        u = identity_field(unit_grid)
        assert np.allclose(u.jacobians, np.eye(2), atol=0.0)

    def test_affine_exactness_rotation(self, unit_grid):
        r = rotation_matrix(np.pi / 4)
        u = field_from_function(unit_grid, lambda p: p @ r.T)
        assert np.max(np.abs(u.jacobians - r)) < 1e-14

    def test_quadratic_exact_at_cell_centers(self, unit_grid):
        # forward differences of x^2 average to the exact derivative at centers
        u = field_from_function(
            unit_grid, lambda p: np.stack([p[..., 0] ** 2, np.zeros_like(p[..., 0])], axis=-1)
        )
        centers = unit_grid.cell_centers
        assert np.max(np.abs(u.jacobians[..., 0, 0] - 2 * centers[..., 0])) < 1e-13

    def test_cubic_error_second_order(self):
        # on x^3 the stencil error at centers is h^2 / 4
        errors = []
        for n in (9, 17, 33):
            g = Grid(((0.0, 1.0), (0.0, 1.0)), n, n)
            u = field_from_function(
                g, lambda p: np.stack([p[..., 0] ** 3, np.zeros_like(p[..., 0])], axis=-1)
            )
            exact = 3 * g.cell_centers[..., 0] ** 2
            errors.append(np.max(np.abs(u.jacobians[..., 0, 0] - exact)))
        orders = [np.log2(errors[k] / errors[k + 1]) for k in range(2)]
        assert min(orders) > 1.9

    def test_recompute_is_bit_stable(self, unit_grid, rng):
        u = random_smooth_field(unit_grid, seed=1)
        assert np.array_equal(u.jacobians, u.with_values(u.values).jacobians)


class TestEnergy:
    def test_detsq_identity_unit_square(self, unit_grid):
        u, F = identity_field(unit_grid), detsq_energy()
        value = energy(u, F)
        assert value == pytest.approx(1.0, abs=1e-14)
        assert type(value) is float
        dens = _density_pass(u, F, gradient=False)[1]
        assert value == unit_grid.cell_area * np.sum(dens)

    def test_detsq_diagonal_stretch(self, unit_grid):
        u = field_from_function(
            unit_grid, lambda p: np.stack([2.0 * p[..., 0], p[..., 1]], axis=-1)
        )
        assert energy(u, detsq_energy()) == pytest.approx(4.0, rel=1e-14)

    def test_rotation_energy_on_disk(self, disk_grid):
        from polyreg import rotation_field

        u = rotation_field(0.7, disk_grid)
        value = energy(u, rotation_energy(4.0))
        assert value == pytest.approx(6.0 * domain_measure(disk_grid), rel=1e-13)

    def test_affine_density_is_exact(self, unit_grid, rng):
        # constant density integrates to density * measure exactly
        a = rng.uniform(-1, 1, (2, 2))
        u = field_from_function(unit_grid, lambda p: p @ a.T)
        F = pq_energy(4.0, 2.0)
        expected = F.value(None, None, all_minors(a)) * 1.0
        assert energy(u, F) == pytest.approx(expected, rel=1e-12)

    def test_infinite_density_propagates(self, unit_grid):
        layout = MinorsLayout(2, 2)
        F = Integrand(
            layout, "wall", density_from(
                lambda x, u, xi: np.where(xi[..., 4] > 0, xi[..., 4], np.inf),
                lambda x, u, xi: (np.zeros(xi.shape[:-1] + (2,)), np.zeros_like(xi)),
            ),
        )
        u = field_from_function(unit_grid, lambda p: -p)  # det = 1 > 0, fine
        assert np.isfinite(energy(u, F))
        flipped = field_from_function(
            unit_grid, lambda p: np.stack([p[..., 1], p[..., 0]], axis=-1)
        )  # det = -1
        assert energy(flipped, F) == np.inf
        with pytest.raises(InfiniteEnergyError):
            energy_with_gradient(flipped, F)

    def test_masked_cells_do_not_contribute(self):
        base = Grid(((0.0, 1.0), (0.0, 1.0)), 5, 5)
        half = np.zeros(base.cell_shape, dtype=bool)
        half[:2, :] = True
        from polyreg import CellMask

        g = base.with_mask(CellMask(half))
        u, F = identity_field(g), detsq_energy()
        assert energy(u, F) == pytest.approx(domain_measure(g), rel=1e-14)
        # densities cover the active cells only
        assert len(_density_pass(u, F, gradient=False)[1]) == np.sum(half)

    def test_refinement_second_order(self):
        # Richardson order estimate on a fixed smooth non-affine field
        def fn(p):
            return np.stack(
                [np.sin(p[..., 0] + 0.3 * p[..., 1]), p[..., 1] + 0.2 * np.cos(p[..., 0])],
                axis=-1,
            )

        F = detsq_energy()
        values = []
        for n in (9, 17, 33):
            g = Grid(((0.0, 1.0), (0.0, 1.0)), n, n)
            values.append(energy(field_from_function(g, fn), F))
        order = np.log2(abs(values[0] - values[1]) / abs(values[1] - values[2]))
        assert order > 1.9


def minors_assembled_gradient(u, F):
    """Nodal gradient of an autonomous density's energy through the general
    minors Jacobian: pull the slot gradient back with ``minors_gradient`` and
    scatter it with the transposed difference stencil."""
    grid = u.grid
    act = grid.active_cells
    jc = u.jacobians[act]
    _, _, g_xi = F.gradient(None, None, all_minors(jc))
    df_dA = pull_back(minors_gradient(jc), g_xi)
    h1, h2 = grid.spacing
    gx = np.zeros(grid.cell_shape + (2,))
    gy = np.zeros(grid.cell_shape + (2,))
    gx[act] = grid.cell_area * df_dA[..., :, 0] / (2.0 * h1)
    gy[act] = grid.cell_area * df_dA[..., :, 1] / (2.0 * h2)
    grad = np.zeros_like(u.values)
    grad[:-1, :-1] += -gx - gy
    grad[1:, :-1] += gx - gy
    grad[:-1, 1:] += -gx + gy
    grad[1:, 1:] += gx + gy
    return grad


class TestEnergyGradient:
    def test_hand_assembled_3x3_detsq_at_identity(self):
        g = Grid(((0.0, 1.0), (0.0, 1.0)), 3, 3)
        u = identity_field(g)
        grad = energy_with_gradient(u, detsq_energy())[1]
        # hand assembly: every cell has density gradient 2 * cofactor(I) = 2I
        area = g.cell_area
        h1, h2 = g.spacing
        expected = np.zeros((3, 3, 2))
        for ci in range(2):
            for cj in range(2):
                gx = area * np.array([2.0, 0.0]) / (2 * h1)
                gy = area * np.array([0.0, 2.0]) / (2 * h2)
                expected[ci, cj] += -gx - gy
                expected[ci + 1, cj] += gx - gy
                expected[ci, cj + 1] += -gx + gy
                expected[ci + 1, cj + 1] += gx + gy
        assert np.allclose(grad, expected, atol=1e-15)
        assert np.allclose(grad[1, 1], 0.0)  # interior node cancels

    @pytest.mark.parametrize("make_f", [detsq_energy, lambda: pq_energy(4.0, 2.0),
                                        lambda: rotation_energy(4.0)])
    def test_directional_derivative_matches_fd(self, make_f, rng):
        F = make_f()
        g = Grid(((0.0, 1.0), (0.0, 1.0)), 16, 16)
        h = 1e-5
        for k in range(20):
            u = random_smooth_field(g, seed=[42, k], amplitude=0.7)
            grad = energy_with_gradient(u, F)[1]
            phi = random_smooth_field(g, seed=[77, k], amplitude=1.0)
            plus = energy(u.with_values(u.values + h * phi.values), F)
            minus = energy(u.with_values(u.values - h * phi.values), F)
            fd = (plus - minus) / (2 * h)
            exact = float(np.sum(grad * phi.values))
            assert abs(exact - fd) / max(1.0, abs(fd)) < 1e-6

    def test_rotation_field_is_discrete_critical_point(self, disk_grid):
        from polyreg import rotation_field

        u = rotation_field(np.pi / 5, disk_grid)
        grad = energy_with_gradient(u, rotation_energy(4.0))[1]
        for k in range(5):
            phi = random_smooth_field(disk_grid, seed=[5, k], amplitude=1.0)
            assert abs(float(np.sum(grad * phi.values))) < 1e-8

    @pytest.mark.parametrize("make_f", [detsq_energy, lambda: pq_energy(4.0, 2.0),
                                        lambda: rotation_energy(4.0)])
    def test_cofactor_chain_rule_matches_minors_oracle(self, make_f, disk_grid):
        F = make_f()
        for k in range(4):
            u = random_smooth_field(disk_grid, seed=[31, k], amplitude=0.8)
            grad = energy_with_gradient(u, F)[1]
            expected = minors_assembled_gradient(u, F)
            assert np.max(np.abs(grad - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_energy_with_gradient_consistent(self, unit_grid):
        u = random_smooth_field(unit_grid, seed=9, amplitude=0.5)
        F = pq_energy(4.0, 2.0)
        assert energy_with_gradient(u, F)[0] == energy(u, F)
        assert np.array_equal(_density_pass(u, F, gradient=True)[1],
                              _density_pass(u, F, gradient=False)[1])


class TestPairing:
    def test_zero_functional(self, unit_grid, rng):
        w = constant_covector(unit_grid)
        u = random_smooth_field(unit_grid, seed=2)
        assert pairing(w, u) == 0.0

    def test_det_slot_weight(self, unit_grid):
        # v2 = 2 on the det slot against the identity: 2 * integral of det = 2
        w = constant_covector(unit_grid, v2=np.array([2.0]))
        assert pairing(w, identity_field(unit_grid)) == pytest.approx(2.0, rel=1e-14)

    def test_node_covector_integrates_first_component(self, unit_grid):
        # u0 = (1, 0) against the identity integrates x over the unit square
        w = constant_covector(unit_grid, u0=np.array([1.0, 0.0]))
        assert pairing(w, identity_field(unit_grid)) == pytest.approx(0.5, rel=1e-13)

    def test_jacobian_covector(self, unit_grid):
        w = constant_covector(unit_grid, u1=np.eye(2))
        assert pairing(w, identity_field(unit_grid)) == pytest.approx(2.0, rel=1e-14)

    def test_layout_mismatch_raises(self, unit_grid, disk_grid):
        w = constant_covector(unit_grid)
        u = identity_field(disk_grid)
        with pytest.raises(ValueError):
            pairing(w, u)


class TestFieldBasics:
    def test_values_are_copied(self, unit_grid):
        vals = np.zeros(unit_grid.node_shape + (2,))
        u = MatrixField(unit_grid, vals)
        vals[0, 0, 0] = 99.0
        assert u.values[0, 0, 0] == 0.0

    def test_shape_guard(self, unit_grid):
        with pytest.raises(ValueError):
            MatrixField(unit_grid, np.zeros((3, 3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, unit_grid, bad):
        vals = unit_grid.node_points.copy()
        vals[3, 4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            MatrixField(unit_grid, vals)

    def test_random_smooth_field_deterministic(self, unit_grid):
        a = random_smooth_field(unit_grid, seed=123)
        b = random_smooth_field(unit_grid, seed=123)
        assert np.array_equal(a.values, b.values)

    def test_cell_center_values_linear_exact(self, unit_grid):
        # the centres are the corner means of the (affine) node points
        (a1, _), (a2, _) = unit_grid.bounds
        h1, h2 = unit_grid.spacing
        i, j = np.indices(unit_grid.cell_shape)
        centers = unit_grid.cell_centers
        assert np.allclose(centers[..., 0], a1 + (i + 0.5) * h1, atol=1e-14)
        assert np.allclose(centers[..., 1], a2 + (j + 0.5) * h2, atol=1e-14)


# Prints the peak entry and the hash of a 256 x 256 random field's bytes.
_FIELD_256 = """
import hashlib
from polyreg import Grid, random_smooth_field
phi = random_smooth_field(Grid(((-1.0, 1.0), (-1.0, 1.0)), 256, 256), seed=[16, 256])
print(abs(phi.values).max().hex(), hashlib.sha256(phi.values.tobytes()).hexdigest())
"""


class TestRandomSmoothField:
    BOUNDS = (((-1.0, 1.0), (-1.0, 1.0)), ((-0.3, 2.7), (1.1, 1.9)))

    @staticmethod
    def grids(nx, ny):
        for bounds in TestRandomSmoothField.BOUNDS:
            bare = Grid(bounds, nx, ny)
            yield bare
            (a1, b1), (a2, b2) = bounds
            center = (0.5 * (a1 + b1) + 0.1, 0.5 * (a2 + b2) - 0.05)
            yield bare.with_mask(disk_mask(bare, center=center, radius=0.4))

    @pytest.mark.parametrize("nx, ny", [(2, 2), (17, 33), (64, 64), (129, 129)])
    @pytest.mark.parametrize("modes", [1, 3, 4])
    def test_equals_full_grid_formula(self, nx, ny, modes):
        for k, grid in enumerate(self.grids(nx, ny)):
            got = random_smooth_field(grid, seed=[nx, modes, k], amplitude=0.7, modes=modes)
            ref = random_smooth_field_reference(grid, seed=[nx, modes, k], amplitude=0.7,
                                                modes=modes)
            # the separable products round differently from the term-by-term
            # sum: about 1e-15 of the amplitude at most
            assert np.max(np.abs(got.values - ref)) <= 1e-14 * 0.7

    def test_passed_generator_left_in_reference_state(self):
        grid = Grid(self.BOUNDS[1], 17, 33)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = random_smooth_field(grid, rng=rng, amplitude=2.0)
        ref = random_smooth_field_reference(grid, rng=ref_rng, amplitude=2.0)
        assert np.max(np.abs(got.values - ref)) <= 1e-14 * 2.0
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("nx, ny", [(2, 2), (17, 33), (129, 129)])
    def test_same_bytes_for_the_same_seed(self, nx, ny):
        for k, grid in enumerate(self.grids(nx, ny)):
            first = random_smooth_field(grid, seed=[nx, k], amplitude=0.7).values.tobytes()
            for _ in range(3):
                again = random_smooth_field(grid, seed=[nx, k], amplitude=0.7)
                assert again.values.tobytes() == first
            passed = random_smooth_field(grid, rng=np.random.default_rng([nx, k]), amplitude=0.7)
            assert passed.values.tobytes() == first

    def test_does_not_depend_on_blas_threads(self):
        # At 256 x 256 the second product of each component takes 256 * 6 * 256
        # = 393,216 multiply-adds, more than OpenBLAS runs on one thread.
        outputs = [_run_python(_FIELD_256, OPENBLAS_NUM_THREADS=threads)
                   for threads in ("1", "2")]
        assert len(outputs[0].split()) == 2
        assert outputs[0] == outputs[1]
