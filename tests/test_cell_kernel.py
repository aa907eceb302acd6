"""The fused 2 x 2 cell kernel of ``polyreg.fields`` against the assembly it
replaced (``oracles.assembly_*``): every value, active-cell density, gradient
and pairing must agree bit for bit, so solver trajectories cannot move."""

import numpy as np
import pytest

from polyreg import (
    CellMask,
    Grid,
    InfiniteEnergyError,
    Integrand,
    MinorsLayout,
    PolySubgradient,
    UnboundedGradientError,
    detsq_energy,
    disk_mask,
    energy,
    energy_with_gradient,
    field_from_function,
    full_mask,
    identity_field,
    pairing,
    poly_subgradient,
    pq_energy,
    random_smooth_field,
    rotation_energy,
)
from polyreg.fields import _density_pass, _energy_and_pairing, _pairing_operands

from oracles import (
    assembly_densities,
    assembly_energy,
    assembly_energy_with_gradient,
    assembly_pairing,
    density_from,
    jacobian_stack,
)

# nx != ny, so a transposed index would show
BASE = Grid(((-1.0, 1.0), (-1.0, 0.8)), 19, 14)


def make_grid(kind):
    if kind == "none":
        return BASE
    if kind == "box":
        return BASE.with_mask(full_mask(BASE))
    if kind == "disk":
        return BASE.with_mask(disk_mask(BASE, center=(0.1, -0.1), radius=0.8))
    rng = np.random.default_rng(5)
    return BASE.with_mask(CellMask(rng.uniform(size=BASE.cell_shape) < 0.6, kind="cells"))


def make_field(kind, grid):
    if kind == "identity":
        return identity_field(grid)
    if kind == "rotation":
        c, s = np.cos(0.7), np.sin(0.7)
        return field_from_function(grid, lambda p: p @ np.array([[c, -s], [s, c]]).T)
    phi = random_smooth_field(grid, seed=[13, 2], amplitude=0.3)
    return identity_field(grid).with_values(grid.node_points + phi.values)


INTEGRANDS = {
    "rotation": lambda: rotation_energy(4.0),
    "pq": lambda: pq_energy(4.0, 2.0),
    "detsq": detsq_energy,
}
MASKS = ("none", "box", "disk", "cells")
FIELDS = ("identity", "rotation", "random")


@pytest.mark.parametrize("mask", MASKS)
def test_flat_index_follows_the_boolean_mask(mask):
    grid = make_grid(mask)
    act = grid.active_cells
    idx = grid.active_index
    probe = np.arange(act.size, dtype=float).reshape(act.shape)
    assert np.array_equal(probe.reshape(-1)[idx], probe[act])
    assert np.array_equal(grid.active_centers, grid.cell_centers[act])
    nodes = np.arange(grid.nx * grid.ny).reshape(grid.node_shape)
    corners = [nodes[:-1, :-1], nodes[1:, :-1], nodes[:-1, 1:], nodes[1:, 1:]]
    assert np.array_equal(grid.active_corners, np.stack([c[act] for c in corners]))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_energy_and_gradient_equal_the_assembly(name, mask, field):
    F = INTEGRANDS[name]()
    u = make_field(field, make_grid(mask))
    value, grad = energy_with_gradient(u, F)
    ref, ref_grad = assembly_energy_with_gradient(u, F)
    assert type(value) is float
    assert value == ref
    assert np.array_equal(grad, ref_grad)
    assert energy(u, F) == assembly_energy(u, F)
    # each active cell's density, from the value pass and the gradient pass
    ref_dens = assembly_densities(u, F)
    for gradient in (False, True):
        assert np.array_equal(_density_pass(u, F, gradient)[1], ref_dens)


@pytest.mark.parametrize("mask", MASKS)
def test_jacobians_equal_the_stack(mask):
    u = make_field("random", make_grid(mask))
    assert np.array_equal(u.jacobians, jacobian_stack(u))


def random_covector(u, seed):
    """Certificate-shaped covector with every block nonzero."""
    rng = np.random.default_rng(seed)
    grid = u.grid
    return PolySubgradient(rng.standard_normal(grid.node_shape + (2,)),
                           rng.standard_normal(grid.cell_shape + (2, 2)),
                           rng.standard_normal(grid.cell_shape + (1,)),
                           base_point=u, base_energy=0.0)


@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("name", sorted(INTEGRANDS) + ["random"])
def test_pairing_equals_the_assembly(name, mask):
    grid = make_grid(mask)
    u = make_field("random", grid)
    if name == "random":
        w = random_covector(u, seed=3)
    else:
        w = poly_subgradient(INTEGRANDS[name](), u)
    for k in range(3):
        phi = random_smooth_field(grid, seed=[17, k], amplitude=0.5)
        v = u.with_values(u.values + phi.values)
        assert pairing(w, v) == assembly_pairing(w, v)


@pytest.mark.parametrize("amplitude", [0.3, 1e100])
@pytest.mark.parametrize("mask", ("box", "disk"))
@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_one_pass_energy_and_pairing_equal_the_two_calls(name, mask, amplitude):
    # amplitude 1e100 overflows every density to inf; the pairing stays finite
    F = INTEGRANDS[name]()
    grid = make_grid(mask)
    u = make_field("random", grid)
    w = poly_subgradient(F, u)
    operands = _pairing_operands(w, u)
    for k in range(3):
        phi = random_smooth_field(grid, seed=[19, k], amplitude=amplitude)
        v = u.with_values(u.values + phi.values)
        value, paired = _energy_and_pairing(v, F, operands)
        assert type(value) is float and type(paired) is float
        assert value.hex() == energy(v, F).hex()
        assert paired.hex() == pairing(w, v).hex()
        assert np.isfinite(value) == (amplitude < 1.0)


def test_pairing_rejects_a_field_on_another_mask():
    w = poly_subgradient(detsq_energy(), make_field("random", make_grid("disk")))
    with pytest.raises(ValueError, match="cell masks"):
        pairing(w, make_field("random", make_grid("cells")))


def test_pairing_accepts_an_equal_mask_on_another_grid():
    grid = make_grid("disk")
    w = poly_subgradient(detsq_energy(), make_field("random", grid))
    twin = BASE.with_mask(CellMask(grid.active_cells.copy(), kind="cells"))
    u = make_field("random", twin)
    assert pairing(w, u) == assembly_pairing(w, u)


def wall_energy():
    """Density with an infinite wall at det <= 0 and a zero gradient."""
    return Integrand(
        MinorsLayout(2, 2), "wall", density_from(
            lambda x, u, xi: np.where(xi[..., 4] > 0, xi[..., 4], np.inf),
            lambda x, u, xi: (np.zeros(xi.shape[:-1] + (2,)), np.zeros_like(xi)),
        ),
    )


@pytest.mark.parametrize("mask", MASKS)
def test_wall_density_raises_like_the_assembly(mask):
    grid = make_grid(mask)
    flipped = field_from_function(grid, lambda p: p[..., ::-1])  # det = -1
    assert energy(flipped, wall_energy()) == np.inf
    assert assembly_energy(flipped, wall_energy()) == np.inf
    for assemble in (energy_with_gradient, assembly_energy_with_gradient):
        with pytest.raises(InfiniteEnergyError):
            assemble(flipped, wall_energy())


@pytest.mark.parametrize("mask", MASKS)
def test_unbounded_gradient_raises_like_the_assembly(mask):
    F = Integrand(
        MinorsLayout(2, 2), "spike", density_from(
            lambda x, u, xi: xi[..., 4] ** 2,
            lambda x, u, xi: (np.zeros(xi.shape[:-1] + (2,)), np.full(xi.shape, np.inf)),
        ),
    )
    u = make_field("random", make_grid(mask))
    for assemble in (energy_with_gradient, assembly_energy_with_gradient):
        with pytest.raises(UnboundedGradientError):
            assemble(u, F)


@pytest.mark.parametrize("mask", MASKS)
def test_position_and_value_arguments_equal_the_assembly(mask):
    # a density that reads x and u: the kernel's cell centers and centre values
    # are the assembly's, and the direct u gradient is scattered the same way
    F = Integrand(
        MinorsLayout(2, 2), "spatial", density_from(
            lambda x, u, xi: xi[..., 4] ** 2 * (1.0 + x[..., 0] ** 2) + np.sum(u * u, axis=-1),
            lambda x, u, xi: (2.0 * u, np.concatenate(
                [np.zeros(xi.shape[:-1] + (4,)),
                 (2.0 * xi[..., 4] * (1.0 + x[..., 0] ** 2))[..., None]], axis=-1)),
        ),
    )
    u = make_field("random", make_grid(mask))
    value, grad = energy_with_gradient(u, F)
    ref, ref_grad = assembly_energy_with_gradient(u, F)
    assert value == ref
    assert np.array_equal(grad, ref_grad)
