"""The hot path of one objective evaluation against its frozen form
(``oracles.frozen_*``): the cell kernel, the rotation density, the gradient
pull-back, the bilinear interpolation, the misfit quadrature and the
objective they make up must give the same bytes, on box, disk and cell-list
masks, at misfit exponents 1.5 and 2 and with and without the energy term."""

import numpy as np
import pytest

from polyreg import (
    CellMask,
    Grid,
    Integrand,
    MinorsLayout,
    NoisySample,
    ScalarImage,
    TikhonovProblem,
    blob_image,
    disk_mask,
    energy_with_gradient,
    full_mask,
    identity_field,
    poly_subgradient,
    pq_energy,
    random_blobs,
    random_smooth_field,
    rotation_energy,
)
from polyreg.fields import _energy_and_pairing, _pairing_operands
from polyreg.registration import _misfit

from oracles import (
    frozen_energy_and_pairing,
    frozen_energy_with_gradient,
    frozen_interpolate,
    frozen_misfit,
    frozen_objective_and_gradient,
    frozen_rotation_density,
)

# nx != ny, so a transposed index would show
BASE = Grid(((-1.0, 1.0), (-1.0, 0.8)), 19, 14)
MASKS = ("box", "disk", "cells")
P = 4.0


def make_grid(kind):
    if kind == "box":
        return BASE.with_mask(full_mask(BASE))
    if kind == "disk":
        return BASE.with_mask(disk_mask(BASE, center=(0.1, -0.1), radius=0.8))
    rng = np.random.default_rng(5)
    return BASE.with_mask(CellMask(rng.uniform(size=BASE.cell_shape) < 0.6, kind="cells"))


def frozen_rotation(p):
    return Integrand(MinorsLayout(2, 2), "rotation",
                     lambda x, u, xi, gradient: frozen_rotation_density(xi, p, gradient))


def fields_on(grid):
    """The identity (every point on a node, the last row and column on the far
    edges), a smooth field inside, and one pushed past the bounds (clamped)."""
    ident = identity_field(grid)
    phi = random_smooth_field(grid, seed=11, amplitude=0.08)
    return [ident, ident.with_values(ident.values + phi.values),
            ident.with_values(1.15 * ident.values + phi.values)]


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
@pytest.mark.parametrize("gradient", [False, True])
def test_rotation_density_equals_frozen(shape, gradient):
    rng = np.random.default_rng(3)
    xi = rng.uniform(-2.0, 2.0, size=shape + (5,))
    if shape:
        xi.reshape(-1, 5)[0, :4] = 0.0  # big = small = 0
        xi.reshape(-1, 5)[-1, :4] = (1.0, 0.0, 0.0, 1.0)  # small = 0
    got = rotation_energy(P)._density(None, None, xi, gradient)
    want = frozen_rotation_density(xi, P, gradient)
    if gradient:
        assert got[1] is None
        assert same_bytes(got[0], want[0]) and same_bytes(got[2], want[2])
    else:
        assert same_bytes(got, want)


@pytest.mark.parametrize("mask", MASKS)
def test_energy_with_gradient_equals_frozen(mask):
    grid = make_grid(mask)
    for u in fields_on(grid):
        for F, frozen in ((rotation_energy(P), frozen_rotation(P)),
                          (pq_energy(3.0, 2.0), pq_energy(3.0, 2.0))):
            value, grad = energy_with_gradient(u, F)
            want_value, want_grad = frozen_energy_with_gradient(u, frozen)
            assert same_bytes(value, want_value) and same_bytes(grad, want_grad)


@pytest.mark.parametrize("mask", MASKS)
def test_energy_and_pairing_equals_frozen(mask):
    grid = make_grid(mask)
    F = rotation_energy(P)
    w = poly_subgradient(F, random_smooth_field(grid, seed=2, amplitude=0.3))
    for v in fields_on(grid):
        operands = _pairing_operands(w, v)
        got = _energy_and_pairing(v, F, operands)
        want = frozen_energy_and_pairing(v, frozen_rotation(P), operands)
        assert all(same_bytes(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("mask", MASKS)
def test_sample_with_gradient_equals_frozen(mask):
    grid = make_grid(mask)
    image = blob_image(grid, random_blobs(7))
    (a1, b1), (a2, b2) = grid.bounds
    corners = [[a1, a2], [b1, a2], [a1, b2], [b1, b2], [b1, 0.1], [0.2, b2],
               [b1 + 0.3, 0.1], [0.2, a2 - 1.0], [b1 + 1.0, b2 + 1.0], [a1 - 2.0, 0.0]]
    queries = [u.values for u in fields_on(grid)] + [np.array(corners), np.array([b1, b2])]
    for points in queries:
        got = image.sample_with_gradient(points)
        want = frozen_interpolate(image, points, gradient=True)
        assert all(same_bytes(a, b) for a, b in zip(got, want))
        assert same_bytes(image.sample(points), frozen_interpolate(image, points, False))


@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("q", [1.5, 2.0])
@pytest.mark.parametrize("alpha", [0.0, 0.01])
def test_objective_and_gradient_equals_frozen(mask, q, alpha):
    grid = make_grid(mask)
    reference = blob_image(grid, random_blobs(7))
    noisy = reference.samples + 0.01 * np.random.default_rng(4).standard_normal(grid.node_shape)
    data = NoisySample(image=ScalarImage(grid, noisy), delta=0.01, seed=4)
    problem = TikhonovProblem(rotation_energy(P), reference, data, q, alpha,
                              identity_field(grid))
    for u in fields_on(grid):
        value, grad = problem.objective_and_gradient(u)
        want_value, want_grad = frozen_objective_and_gradient(problem, u, frozen_rotation(P))
        assert same_bytes(value, want_value) and same_bytes(grad, want_grad)


def signed_zero_density(x, u, xi, gradient):
    """Zero density whose slot gradient is -0.0 in every entry: the pull-back
    then mixes 0.0 and -0.0, whose sums depend on what each node is added to."""
    value = np.zeros(xi.shape[:-1])
    return (value, None, np.full(xi.shape, -0.0)) if gradient else value


@pytest.mark.parametrize("mask", MASKS)
def test_signed_zeros_reach_the_corners_as_in_the_frozen_sums(mask):
    grid = make_grid(mask)
    F = Integrand(MinorsLayout(2, 2), "signed-zero", signed_zero_density)
    for u in fields_on(grid) + [identity_field(grid).with_values(-identity_field(grid).values)]:
        value, grad = energy_with_gradient(u, F)
        want_value, want_grad = frozen_energy_with_gradient(u, F)
        assert same_bytes(value, want_value) and same_bytes(grad, want_grad)
    rows = np.arange(grid.nx)[:, None] % 2 == 1
    for diff in (np.full(grid.node_shape, -0.0), np.repeat(np.where(rows, -0.0, 0.0), grid.ny, axis=1)):
        for q in (1.5, 2.0):
            value, slope = _misfit(grid, diff, q, gradient=True)
            want_value, want_slope = frozen_misfit(grid, diff, q, gradient=True)
            assert same_bytes(value, want_value) and same_bytes(slope, want_slope)
