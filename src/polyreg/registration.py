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

from .fields import MatrixField, _cell_means, _corner_sums

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

    def _axis_coords(self, pts):
        # Grid coordinates with near-integer values snapped, so node queries
        # hit nodes exactly despite the (x - a) / h round trip, one row per
        # axis.  Returns the lower node index, the fraction past it, whether
        # the coordinate lay inside before clamping and whether it is on the
        # far edge after, and the (2, 1) column of spacings.
        grid = self.grid
        (a1, _), (a2, _) = grid.bounds
        (h1, h2), nx, ny = grid.spacing, grid.nx, grid.ny
        origin, spacing, last = np.array([[[a1], [a2]], [[h1], [h2]], [[nx - 1.0], [ny - 1.0]]])
        t = np.empty((2, len(pts)))
        np.subtract(pts.T, origin, out=t)
        t /= spacing
        nearest = np.rint(t)
        off = np.subtract(t, nearest)
        np.abs(off, out=off)
        tol = np.abs(t)
        np.maximum(1.0, tol, out=tol)
        np.multiply(1e-12, tol, out=tol)
        np.copyto(t, nearest, where=off <= tol)
        inside = t >= 0.0
        inside &= t <= last
        t.clip(0.0, last, out=t)
        on_edge = t == last
        i0 = t.astype(int)
        t -= i0
        return i0, t, inside, on_edge, spacing

    def sample(self, points) -> np.ndarray:
        return self._interpolate(points, gradient=False)

    def sample_with_gradient(self, points):
        """Values and spatial gradient of the clamped interpolant.

        The gradient is taken with respect to the unclamped query point, so
        it vanishes in coordinates that were clamped; on the far boundary it
        is the one-sided derivative.  It is stored component-major: the
        transpose of a C-ordered (2, n) array of its two components.
        """
        return self._interpolate(points, gradient=True)

    def _interpolate(self, points, gradient):
        # The stencil cell is anchored one cell in from the far boundary.  On
        # a far edge the value reads that edge's samples twice, as the plain
        # formula's clamped upper index does.  Both axes and both terms of
        # each step share one (2, n) call.
        pts = np.asarray(points, dtype=float)
        shape = pts.shape[:-1]
        pts = pts.reshape(-1, 2)
        if np.isnan(pts).any():
            # a NaN cast to an index would wrap into the flat sample array
            raise IndexError("cannot sample an image at NaN coordinates")
        ny = self.grid.ny
        i0, frac, inside, on, spacing = self._axis_coords(pts)
        on_i, on_j = on
        cell = np.subtract(i0, on, out=i0)  # min(i0, count - 2)
        k = cell[0] * ny
        k += cell[1]
        # s00, s10, s01, s11 at the stencil cell's corners
        flat = self.samples.ravel()
        s = np.empty((4, len(k)))
        for row, offset in enumerate((0, ny, 1, ny + 1)):
            flat[offset:].take(k, out=s[row])
        # the value's corners c00, c10, c01 and s11: collapsed on a far edge
        c = s.copy()
        np.copyto(c[1:3], s[3], where=on[::-1])
        np.copyto(c[0], s[2], where=on_j)
        np.copyto(c[0], c[1], where=on_i)
        # nested linear interpolation: exact on node queries and constants
        v = np.subtract(c[1::2], c[0::2])  # along axis 0 at j0 and at j0 + 1
        v *= frac[0]
        v += c[0::2]
        vals, v1 = v
        v1 -= vals
        v1 *= frac[1]
        vals += v1
        vals = vals.reshape(shape)[()]  # a scalar for a single point
        if not gradient:
            return vals
        # the derivative stencil's fractions (f1, f2): 1 on a far edge
        frac += on
        g = np.subtract(s[1:3], s[0])  # s10 - s00, s01 - s00
        g *= np.subtract(1, frac[::-1])
        t = np.subtract(s[3], s[2:0:-1])  # s11 - s01, s11 - s10
        t *= frac[::-1]
        g += t
        g /= spacing
        g *= inside
        # component-major: the transpose of the (2, n) rows
        return vals, g.T.reshape(shape + (2,))

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


def _misfit(grid, diff, q, gradient=False):
    """Cell area times ``sum |d|^q``, ``d`` the mean of nodal ``diff`` over
    each active cell; with ``gradient``, also its derivative in ``diff``."""
    d = _cell_means(grid, diff)
    size = np.abs(d)
    value = grid.cell_area * (size ** q).sum()
    if not gradient:
        return value
    # d|d|^q/dd = q |d|^(q-1) sign(d); each cell spreads 1/4 to its corners.
    np.sign(d, out=d)
    d *= grid.cell_area * q / 4.0
    size **= q - 1.0
    d *= size
    return value, _corner_sums(grid, d)


def data_term(warped, target, q) -> float:
    """Misfit ``||warped - target||^q`` by midpoint quadrature over active
    cells (cell value = mean of the four corner samples)."""
    q = float(q)
    if q < 1:
        raise ValueError(f"misfit exponent must be >= 1, got {q}")
    _check_same_geometry(warped, target)
    return float(_misfit(warped.grid, warped.samples - target.samples, q))


def lq_norm(image, q) -> float:
    """Quadrature norm of an image against zero."""
    return float(_misfit(image.grid, image.samples, q) ** (1.0 / q))


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
