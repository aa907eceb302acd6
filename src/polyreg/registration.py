"""Image warping forward operator, data misfit, ground truth and noise.

The forward operator sends a deformation u to the deformed reference image,
sampled with bilinear interpolation at the displaced nodes.  Sample points
are clamped to the bounding rectangle, which keeps the objective finite for
arbitrary solver iterates; the hard constraint that the deformation keep the
domain inside itself is enforced separately through ``warp(..., strict=True)``
on final, reported solutions.

Interpolation reads the four samples of one stencil cell by flat index,
shared by the value and the gradient, and computes in place into buffers of
the call; the value's corners are picked so that on a far edge its stencil
collapses onto that edge.  The result is the nested bilinear formula bit for
bit.  A NaN coordinate raises ``IndexError``, as the two-index gathers of
that formula do.

Images are plain nodal sample arrays; synthetic test images are sums of a
few Gaussian bumps so that warping stays well resolved on modest grids.
Noise is rescaled after drawing so that its quadrature norm matches the
requested level exactly, and is deterministic in the seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fields import MatrixField, cell_center_values

# warp(strict=True): how far a node may land outside, as a fraction of the
# domain's diameter.
_STRICT_TOL = 1e-9
# random_blobs: bump count, radius of the disk of centers, width and amplitude ranges.
_BLOB_COUNT = 3
_BLOB_SPREAD = 0.55
_BLOB_WIDTHS = (0.18, 0.42)
_BLOB_AMPLITUDES = (0.6, 1.0)


class DomainViolationError(ValueError):
    """A deformation moved a domain node outside the closed domain."""

    def __init__(self, node, distance, tolerance):
        self.node = node
        self.distance = distance
        self.tolerance = tolerance
        super().__init__(
            f"node {node} maps {distance:.3e} outside the domain "
            f"(tolerance {tolerance:.3e})"
        )


class ScalarImage:
    """Nodal image samples with bilinear interpolation.

    Interpolation clamps query points to the bounding rectangle, reproduces
    node samples exactly, and keeps every value inside the hull of its four
    stencil samples.
    """

    def __init__(self, grid, samples):
        samples = np.array(samples, dtype=float)
        if samples.shape != grid.node_shape:
            raise ValueError(
                f"sample shape {samples.shape} does not match grid {grid.node_shape}"
            )
        self.grid = grid
        self.samples = samples

    @staticmethod
    def _axis_coords(coords, origin, spacing, count):
        # Grid coordinates with near-integer values snapped, so node queries
        # hit nodes exactly despite the (x - a) / h round trip.  Returns the
        # lower node index, the fraction past it and whether the coordinate
        # lay inside before clamping.
        t = (coords - origin) / spacing
        nearest = np.rint(t)
        t = np.where(np.abs(t - nearest) <= 1e-12 * np.maximum(1.0, np.abs(t)), nearest, t)
        inside = (t >= 0.0) & (t <= count - 1.0)
        t = np.clip(t, 0.0, count - 1.0)
        i0 = t.astype(int)
        return i0, t - i0, inside

    def sample(self, points) -> np.ndarray:
        return self._interpolate(points, gradient=False)

    def sample_with_gradient(self, points):
        """Values and spatial gradient of the clamped interpolant.

        The gradient is taken with respect to the unclamped query point, so
        it vanishes in coordinates that were clamped; on the far boundary it
        is the one-sided derivative.
        """
        return self._interpolate(points, gradient=True)

    def _interpolate(self, points, gradient):
        # The stencil cell is anchored one cell in from the far boundary.  On
        # a far edge the value reads that edge's samples twice, as the plain
        # formula's clamped upper index does.
        pts = np.asarray(points, dtype=float)
        shape = pts.shape[:-1]
        pts = pts.reshape(-1, 2)
        if np.isnan(pts).any():
            # a NaN cast to an index would wrap into the flat sample array
            raise IndexError("cannot sample an image at NaN coordinates")
        nx, ny = self.grid.nx, self.grid.ny
        (a1, _), (a2, _) = self.grid.bounds
        h1, h2 = self.grid.spacing
        i0, f1, in1 = self._axis_coords(pts[:, 0], a1, h1, nx)
        j0, f2, in2 = self._axis_coords(pts[:, 1], a2, h2, ny)
        on_i, on_j = i0 == nx - 1, j0 == ny - 1
        k = np.minimum(i0, nx - 2)
        k *= ny
        k += np.minimum(j0, ny - 2)
        flat = self.samples.ravel()
        s00, s10 = flat.take(k), flat[ny:].take(k)
        s01, s11 = flat[1:].take(k), flat[ny + 1:].take(k)
        c10 = np.where(on_j, s11, s10)
        c01 = np.where(on_i, s11, s01)
        c00 = np.where(on_i, c10, np.where(on_j, s01, s00))
        # nested linear interpolation: exact on node queries and constants
        vals = c10 - c00
        vals *= f1
        vals += c00
        v1 = s11 - c01
        v1 *= f1
        v1 += c01
        v1 -= vals
        v1 *= f2
        vals += v1
        vals = vals.reshape(shape)[()]  # a scalar for a single point
        if not gradient:
            return vals
        # the derivative stencil's fractions: 1 on a far edge
        f1 += on_i
        f2 += on_j
        grad = np.empty(pts.shape)
        w = np.subtract(1, f2)
        g = s10 - s00
        g *= w
        t = s11 - s01
        t *= f2
        g += t
        g /= h1
        g *= in1
        grad[:, 0] = g
        np.subtract(1, f1, out=w)
        np.subtract(s01, s00, out=g)
        g *= w
        np.subtract(s11, s10, out=t)
        t *= f1
        g += t
        g /= h2
        g *= in2
        grad[:, 1] = g
        return vals, grad.reshape(shape + (2,))

    def min_max(self):
        return float(np.min(self.samples)), float(np.max(self.samples))


@dataclass(frozen=True)
class NoisySample:
    """A perturbed image whose quadrature-norm distance to the exact one is
    ``delta`` by construction."""

    image: ScalarImage
    delta: float
    seed: int


def warp(reference, u, strict=False) -> ScalarImage:
    """Deformed reference image: sample ``reference`` at the displaced nodes.

    With ``strict=True``, nodes that belong to the domain and land farther
    than ``_STRICT_TOL * diameter`` outside the closed domain raise
    ``DomainViolationError`` carrying the worst offender.  Without it,
    samples are clamped to the bounding rectangle, the standard surrogate
    during optimization.
    """
    grid = u.grid
    if strict:
        inside = grid.nodes_in_domain
        dist = grid.distance_outside(u.values[inside])
        tol = _STRICT_TOL * grid.diameter
        if dist.size and np.max(dist) > tol:
            flat = int(np.argmax(dist))
            node_idx = tuple(int(i) for i in np.argwhere(inside)[flat])
            raise DomainViolationError(node_idx, float(np.max(dist)), tol)
    return ScalarImage(grid, reference.sample(u.values))


def prolong(u, grid) -> MatrixField:
    """Bilinear prolongation of the field ``u`` onto the nodes of ``grid``,
    a grid over the same bounds.

    The displacement ``u - id`` is interpolated per component as a
    ``ScalarImage`` and added to the identity of ``grid``, so an affine field
    comes back exactly up to rounding, and the identity bit for bit.
    """
    points = grid.node_points
    shift = u.values - u.grid.node_points
    values = np.stack([points[..., k] + ScalarImage(u.grid, shift[..., k]).sample(points)
                       for k in range(2)], axis=-1)
    return MatrixField(grid, values)


def admissibility_gap(u) -> float:
    """Worst distance by which a domain node leaves the closed domain."""
    inside = u.grid.nodes_in_domain
    dist = u.grid.distance_outside(u.values[inside])
    return float(np.max(dist)) if dist.size else 0.0


def _check_same_geometry(a, b):
    ga, gb = a.grid, b.grid
    same = (ga.bounds == gb.bounds and ga.nx == gb.nx and ga.ny == gb.ny
            and np.array_equal(ga.active_cells, gb.active_cells))
    if not same:
        raise ValueError("images live on different grids or masks")


def data_term(warped, target, q) -> float:
    """Misfit ``||warped - target||^q`` by midpoint quadrature over active
    cells (cell value = mean of the four corner samples)."""
    q = float(q)
    if q < 1:
        raise ValueError(f"misfit exponent must be >= 1, got {q}")
    _check_same_geometry(warped, target)
    grid = warped.grid
    diff = cell_center_values(warped.samples - target.samples).reshape(-1)[grid.active_index]
    return float(grid.cell_area * np.sum(np.abs(diff) ** q))


def lq_norm(image, q) -> float:
    """Quadrature norm of an image against zero."""
    grid = image.grid
    vals = cell_center_values(image.samples).reshape(-1)[grid.active_index]
    return float((grid.cell_area * np.sum(np.abs(vals) ** q)) ** (1.0 / q))


def rotation_field(theta, grid) -> MatrixField:
    """Rigid rotation of the plane about the origin, sampled at the nodes.

    Cell Jacobians equal the rotation matrix exactly (the field is affine).
    A warning is recorded when the grid's mask is not an origin-centered
    disk, since only then is the domain guaranteed to stay inside itself.
    """
    if not grid.mask.is_centered_disk():
        warnings.warn(
            "rotation field on a domain that is not an origin-centered disk; "
            "admissibility is not guaranteed",
            stacklevel=2,
        )
    pts = grid.node_points
    c, s = np.cos(theta), np.sin(theta)
    values = np.stack(
        [c * pts[..., 0] - s * pts[..., 1], s * pts[..., 0] + c * pts[..., 1]],
        axis=-1,
    )
    return MatrixField(grid, values)


def add_noise(exact, delta, q, seed) -> NoisySample:
    """Perturb an image by rescaled Gaussian node noise.

    Standard normal perturbations are drawn per node and then scaled so the
    quadrature norm of the perturbation equals ``delta`` exactly, making the
    noise level of the returned sample exact rather than an upper bound.
    Deterministic in ``seed``.
    """
    delta = float(delta)
    if delta < 0:
        raise ValueError("noise level must be nonnegative")
    if delta == 0.0:
        return NoisySample(image=exact, delta=0.0, seed=int(seed))
    rng = np.random.default_rng(seed)
    pert = rng.standard_normal(exact.samples.shape)
    scale = delta / lq_norm(ScalarImage(exact.grid, pert), q)
    return NoisySample(
        image=ScalarImage(exact.grid, exact.samples + scale * pert),
        delta=delta,
        seed=int(seed),
    )


def blob_image(grid, blobs) -> ScalarImage:
    """Sum of isotropic Gaussian bumps; rows are (amplitude, cx, cy, width)."""
    pts = grid.node_points
    out = np.zeros(grid.node_shape)
    for amp, cx, cy, width in blobs:
        r2 = (pts[..., 0] - cx) ** 2 + (pts[..., 1] - cy) ** 2
        out += amp * np.exp(-r2 / (2.0 * width * width))
    return ScalarImage(grid, out)


def random_blobs(seed):
    """Deterministic bump parameters: centers spread over a disk around the
    origin, widths broad enough to stay resolved on a 64 x 64 grid."""
    rng = np.random.default_rng(seed)
    blobs = []
    for _ in range(_BLOB_COUNT):
        radius = _BLOB_SPREAD * np.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * np.pi)
        blobs.append([
            rng.uniform(*_BLOB_AMPLITUDES),
            radius * np.cos(angle),
            radius * np.sin(angle),
            rng.uniform(*_BLOB_WIDTHS),
        ])
    return blobs


@dataclass(frozen=True)
class ForwardModel:
    """Bundle of reference image, exact data and misfit exponent, enough to
    evaluate residual norms of candidate deformations."""

    reference: ScalarImage
    exact_data: ScalarImage
    q: float

    def residual_norm(self, u) -> float:
        return data_term(warp(self.reference, u), self.exact_data, self.q) ** (1.0 / self.q)
