"""Vector fields on regular grids: Jacobians, quadrature, energies, gradients.

A field u lives on the nodes of a rectangular grid; its discrete Jacobian is
a 2 x 2 matrix per cell, computed from the bilinear (per-cell) interpolant of
the nodal values, which makes it exact for affine fields.  Integral energies

    R(u) = sum over active cells of  |cell| * F(x_c, u_c, xi_c)

use one-point midpoint quadrature per cell: x_c is the cell center, u_c the
mean of the four corner values, and xi_c the minors slots of the cell
Jacobian J_c: its four entries J00, J01, J10, J11 (row-major, as
:func:`polyreg.minors.all_minors` orders them) and det J_c.

One fused kernel serves every energy, gradient and pairing.  The grid caches
the flat index of its active cells and the four corner nodes of each; the
kernel gathers the field at those corners in one take and writes the centre
value and the five slots of every active cell straight from the two
difference stencils, with no Jacobian stack and no boolean gathers.  The
slots equal ``all_minors`` of the cell Jacobian bit for bit (same operations
in the same order), so ``all_minors`` remains the reference calculus.
``energy`` returns R(u) as a float, the sum of the active cells' densities;
``_energy_and_pairing`` returns it with a certificate's pairing from one
kernel pass, for the sampled certificate checks.
``energy_with_gradient`` returns R(u) with the exact gradient of the discrete
sum with respect to the nodal values: each cell's slot gradient is pulled back
through the cofactor of J entry by entry and scattered to the corner nodes by
the transpose of the difference stencil.

Kernel and pull-back compute into a few buffers allocated per call and
updated in place, with the operations and operands of the plain expressions.
No buffer outlives its call, so every function here stays pure.  The
buffers are slot-major: the kernel's ``uc`` and ``xi`` are the transposes
of C-ordered (2, k) and (5, k) arrays, one contiguous row per slot, and the
rotation density returns its ``g_xi`` the same way, so each stencil,
density step and pull-back step is one numpy call over whole rows rather
than one per component over strided columns.  They keep the (k, 2) and
(k, 5) shapes of the ``Integrand`` contract; what is summed (densities,
pairing products) is summed from C-ordered arrays in the order of the
plain expressions.

``_cell_means`` (nodes to cells) and ``_corner_sums`` (cells to nodes) are
the one home of the grid's flat corner layout: each cell sits at its (i, j)
corner node, so every corner term is one slice of the flat nodes.  The
misfit, the certificates and the grid's own centres and node marker move
values through these two; only the pull-back's signed corner sums slice the
flat nodes themselves.

Non-rectangular domains are handled by a cell mask; inactive cells contribute
nothing to energies, gradients or pairings.  Summation always runs over the
same flat cell order, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .minors import MinorsLayout


# Entries of each (points x cells) temporary in Grid.distance_outside: 4 MB of floats.
_DISTANCE_BLOCK = 1 << 19
_LAYOUT_2X2 = MinorsLayout(2, 2)  # the only layout the grid calculus supports
# Multiply-adds per matmul block: OpenBLAS runs a dgemm of at most
# 65536 * GEMM_MULTITHREAD_THRESHOLD (4 by default) of them on one thread.
_GEMM_BLOCK = 2 ** 18


class InfiniteEnergyError(ValueError):
    """Raised when a gradient or distance is requested at infinite energy."""


class UnboundedGradientError(ValueError):
    """Raised when an integrand gradient contains non-finite entries."""


class CellMask:
    """Active-cell indicator over a grid, with optional geometric provenance.

    ``kind`` records what region the mask discretizes: ``"box"`` (the whole
    rectangle), ``"disk"`` (center + radius), or ``"cells"`` for masks loaded
    from data, whose geometry is just the union of their active cells.  The
    provenance matters for admissibility: membership and outside-distance
    queries use the exact shape when one is known, so e.g. rotating a disk
    never counts as leaving it.
    """

    def __init__(self, active, kind="cells", center=None, radius=None):
        self.active = np.asarray(active, dtype=bool)
        if self.active.ndim != 2:
            raise ValueError("cell mask must be a 2-d array")
        self.kind = kind
        self.center = None if center is None else (float(center[0]), float(center[1]))
        self.radius = None if radius is None else float(radius)

    def is_centered_disk(self) -> bool:
        """Whether the mask is a disk about the origin, to within 1e-12."""
        return (
            self.kind == "disk"
            and self.center is not None
            and abs(self.center[0]) <= 1e-12
            and abs(self.center[1]) <= 1e-12
        )


def full_mask(grid) -> CellMask:
    return CellMask(np.ones(grid.cell_shape, dtype=bool), kind="box")


def disk_mask(grid, center=(0.0, 0.0), radius=1.0) -> CellMask:
    """Mask whose active cells are those with center inside the disk.
    ``radius`` must be finite and positive."""
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    centers = grid.cell_centers
    r2 = (centers[..., 0] - center[0]) ** 2 + (centers[..., 1] - center[1]) ** 2
    return CellMask(r2 <= radius * radius, kind="disk", center=center, radius=radius)


@dataclass(frozen=True, eq=False)
class Grid:
    """Regular node grid over an axis-aligned rectangle.

    ``bounds`` is ((a1, b1), (a2, b2)); node (i, j) sits at
    (a1 + i * h1, a2 + j * h2).  Node arrays have shape (nx, ny, ...),
    cell arrays (nx - 1, ny - 1, ...).  A cell mask restricts the integration
    domain; a grid built without one gets the whole box (``full_mask``).
    """

    bounds: tuple
    nx: int
    ny: int
    mask: CellMask | None = None

    def __post_init__(self):
        (a1, b1), (a2, b2) = self.bounds
        if not (b1 > a1 and b2 > a2):
            raise ValueError(f"degenerate bounds {self.bounds}")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need at least two nodes per axis")
        if self.mask is None:
            object.__setattr__(self, "mask", full_mask(self))
        elif self.mask.active.shape != self.cell_shape:
            raise ValueError(
                f"mask shape {self.mask.active.shape} does not match cells {self.cell_shape}"
            )

    @cached_property
    def spacing(self):
        (a1, b1), (a2, b2) = self.bounds
        return ((b1 - a1) / (self.nx - 1), (b2 - a2) / (self.ny - 1))

    @property
    def node_shape(self):
        return (self.nx, self.ny)

    @property
    def cell_shape(self):
        return (self.nx - 1, self.ny - 1)

    @cached_property
    def cell_area(self) -> float:
        h1, h2 = self.spacing
        return h1 * h2

    @cached_property
    def node_points(self) -> np.ndarray:
        (a1, _), (a2, _) = self.bounds
        h1, h2 = self.spacing
        x = a1 + h1 * np.arange(self.nx)
        y = a2 + h2 * np.arange(self.ny)
        return np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1)

    @cached_property
    def cell_centers(self) -> np.ndarray:
        low = _corner_nodes(self, np.arange((self.nx - 1) * (self.ny - 1)))[0]
        return _cell_means(self, self.node_points, low).reshape(self.cell_shape + (2,))

    @cached_property
    def active_cells(self) -> np.ndarray:
        return self.mask.active

    @cached_property
    def active_index(self) -> np.ndarray:
        """Flat (row-major) indices of the active cells, in the order of a
        boolean gather with ``active_cells``."""
        return _read_only(np.flatnonzero(self.active_cells))

    @cached_property
    def active_centers(self) -> np.ndarray:
        """Centers of the active cells, shape (n_active, 2)."""
        return _read_only(self.cell_centers.reshape(-1, 2)[self.active_index])

    @cached_property
    def active_corners(self) -> np.ndarray:
        """Flat node indices of the corners of each active cell, shape
        (4, n_active), corners in the order (i, j), (i+1, j), (i, j+1),
        (i+1, j+1)."""
        return _read_only(_corner_nodes(self, self.active_index))

    @property
    def diameter(self) -> float:
        if self.mask.kind == "disk":
            return 2.0 * self.mask.radius
        (a1, b1), (a2, b2) = self.bounds
        return float(np.hypot(b1 - a1, b2 - a2))

    def with_mask(self, mask) -> "Grid":
        return Grid(self.bounds, self.nx, self.ny, mask)

    @cached_property
    def nodes_in_domain(self) -> np.ndarray:
        """Boolean (nx, ny) marker of nodes belonging to the domain."""
        if self.mask.kind == "box":
            return np.ones(self.node_shape, dtype=bool)
        if self.mask.kind == "disk":
            pts = self.node_points
            cx, cy = self.mask.center
            r2 = (pts[..., 0] - cx) ** 2 + (pts[..., 1] - cy) ** 2
            return r2 <= self.mask.radius ** 2 * (1.0 + 1e-12)
        return _corner_sums(self, np.ones(len(self.active_index))) > 0

    def distance_outside(self, points) -> np.ndarray:
        """Euclidean distance from each point to the (masked) closed domain."""
        pts = np.asarray(points, dtype=float)
        if self.mask.kind == "disk":
            cx, cy = self.mask.center
            r = np.hypot(pts[..., 0] - cx, pts[..., 1] - cy)
            return np.maximum(r - self.mask.radius, 0.0)
        (a1, b1), (a2, b2) = self.bounds
        dx = np.maximum(np.maximum(a1 - pts[..., 0], pts[..., 0] - b1), 0.0)
        dy = np.maximum(np.maximum(a2 - pts[..., 1], pts[..., 1] - b2), 0.0)
        box_dist = np.hypot(dx, dy)
        if self.mask.kind == "box":
            return box_dist
        # Generic mask: distance to the union of active closed cells.  Every
        # distance is >= 0, so a point at distance 0.0 from one of the <= 4
        # active cells that can hold it (found from its coordinates) has the
        # minimum over all cells, bit for bit; only the other points search
        # every active cell.
        active = self.mask.active
        flat = pts.reshape(-1, 2)
        nodes = self.node_points
        i = np.searchsorted(nodes[:, 0, 0], flat[:, 0])
        j = np.searchsorted(nodes[0, :, 1], flat[:, 1])
        touching = np.zeros(len(flat), dtype=bool)
        for di in (1, 0):
            for dj in (1, 0):
                ci = np.clip(i - di, 0, self.nx - 2)
                cj = np.clip(j - dj, 0, self.ny - 2)
                near = self._cell_distance(flat, self.cell_centers[ci, cj])
                touching |= active[ci, cj] & (near == 0.0)
        out = np.zeros(len(flat))
        rest = np.flatnonzero(~touching)
        # One block of points at a time; each point's row is reduced whole, so
        # the result does not depend on the block size.
        centers = self.cell_centers[active]
        step = max(1, _DISTANCE_BLOCK // max(len(centers), 1))
        for s in range(0, len(rest), step):
            block = rest[s:s + step]
            out[block] = self._cell_distance(flat[block, None], centers[None]).min(axis=1)
        return out.reshape(pts.shape[:-1])

    def _cell_distance(self, points, centers):
        """Distance from ``points`` to the closed cells at ``centers`` (both
        (..., 2), broadcast together)."""
        h1, h2 = self.spacing
        dx = np.maximum(np.abs(points[..., 0] - centers[..., 0]) - 0.5 * h1, 0.0)
        dy = np.maximum(np.abs(points[..., 1] - centers[..., 1]) - 0.5 * h2, 0.0)
        return np.hypot(dx, dy)


def _read_only(a):
    a.flags.writeable = False
    return a


def _corner_nodes(grid, cells):
    """Flat node indices of the four corners of the cells with flat indices
    ``cells``, shape (4, len(cells)), ordered as in ``Grid.active_corners``."""
    low = cells + cells // (grid.ny - 1)
    return np.stack([low, low + grid.ny, low + 1, low + grid.ny + 1])


def _cell_means(grid, nodal, low=None):
    """Mean of the four corner values of each active cell, in
    ``Grid.active_index`` order, for ``nodal`` of shape (nx, ny, ...);
    ``low`` names other cells by the flat index of their (i, j) corner node.
    The means of the rows that start no cell are computed, never gathered."""
    ny = grid.ny
    v = nodal.reshape((-1,) + nodal.shape[2:])
    mean = np.add(v[:-ny - 1], v[ny:-1])
    mean += v[1:-ny]
    mean += v[ny + 1:]
    mean = mean.take(grid.active_corners[0] if low is None else low, axis=0)
    mean *= 0.25
    return mean


def _corner_sums(grid, cell_values):
    """Each active cell's value (rows of ``cell_values``, in
    ``Grid.active_index`` order) added onto its four corner nodes, shape
    (nx, ny, ...), bit for bit as four 2-d sums over the cells.

    The slices also reach the rows that start no cell (the last node row
    and column, and the wrap from one row's end to the next row's start).
    Those rows hold 0.0, which changes nothing: a node sum starts at
    0.0 + c, so it is never -0.0, and x + 0.0 is x otherwise."""
    ny = grid.ny
    cells = np.zeros((grid.nx * ny,) + cell_values.shape[1:])
    cells[grid.active_corners[0]] = cell_values
    sums = np.add(0.0, cells)
    sums[ny:] += cells[:-ny]
    sums[1:] += cells[:-1]
    sums[ny + 1:] += cells[:-ny - 1]
    return sums.reshape(grid.node_shape + cell_values.shape[1:])


class MatrixField:
    """Deformation field on a grid: one 2-vector per node, with the cell
    Jacobians cached on first use.

    Values are copied on construction and treated as immutable; derive
    modified fields with ``with_values``.  They must be finite.
    """

    def __init__(self, grid, values):
        values = np.array(values, dtype=float)
        if values.shape != grid.node_shape + (2,):
            raise ValueError(
                f"values shape {values.shape} does not match grid {grid.node_shape} + (2,)"
            )
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite; got NaN or infinite entries")
        self.grid = grid
        self.values = values

    @cached_property
    def jacobians(self) -> np.ndarray:
        """Cell-centered Jacobians, shape (nx-1, ny-1, 2, 2).

        Entry [..., a, b] is the derivative of component a along axis b,
        taken as the mean of the two forward differences across the cell;
        this is the gradient of the bilinear interpolant at the cell center,
        so affine fields are reproduced exactly.  The entries are the first
        four slots of the cell kernel over every cell.
        """
        grid = self.grid
        corners = _corner_nodes(grid, np.arange(grid.cell_shape[0] * grid.cell_shape[1]))
        xi = _cell_slots(self, corners)[1]
        return xi[:, :4].reshape(grid.cell_shape + (2, 2))

    def with_values(self, values) -> "MatrixField":
        return MatrixField(self.grid, values)


def _cell_slots(u, corners):
    """The cell kernel: centre values and 2 x 2 minors slots of ``u`` on the
    cells whose corner nodes are ``corners`` (see ``Grid.active_corners``).

    Returns ``(uc, xi)`` of shapes (k, 2) and (k, 5): ``uc`` is the mean of
    the four corner values, and ``xi`` holds J00, J01, J10, J11 and
    J00 * J11 - J01 * J10, where J[a, b] is the derivative of component a
    along axis b, the mean of the two forward differences across the cell.
    Both are slot-major: the transposes of C-ordered (2, k) and (5, k)
    arrays, so each slot is one contiguous row.
    """
    h1, h2 = u.grid.spacing
    n = corners.shape[1]
    # (k, 2) blocks of the four corners; each stencil runs once on both
    # components and lands transposed in the slot rows
    c00, c10, c01, c11 = u.values.reshape(-1, 2).take(corners, axis=0)
    uc = np.empty((2, n))
    xi = np.empty((5, n))
    t = np.add(c00, c10)
    t += c01
    t += c11
    np.multiply(0.25, t.T, out=uc)
    np.subtract(c10, c00, out=t)
    t += c11
    t -= c01
    np.divide(t.T, 2.0 * h1, out=xi[0:4:2])
    np.subtract(c01, c00, out=t)
    t += c11
    t -= c10
    np.divide(t.T, 2.0 * h2, out=xi[1:4:2])
    np.multiply(xi[0], xi[3], out=xi[4])
    det = np.multiply(xi[1], xi[2], out=t.reshape(-1)[:n])
    xi[4] -= det
    return uc.T, xi.T


def _density_pass(u, F, gradient, slots=None):
    """Densities of ``F`` along ``u`` and, with ``gradient``, their slot gradients.

    The one pass over the active cells behind ``energy``, ``energy_with_gradient``,
    ``_energy_and_pairing`` and the certificates of :mod:`polyreg.bregman`, with
    one call of ``F``.  ``slots`` is ``_cell_slots`` of ``u`` on the active
    cells when the caller already has it.  Returns ``(xi, dens, value, g_u,
    g_xi)``: ``xi`` the (n_active, 5) slots of ``_cell_slots``, ``dens`` the
    density of each active cell in ``Grid.active_index`` order, ``value`` the
    energy ``cell_area * sum(dens)`` (``inf`` whenever a density is); the two
    gradients are None without ``gradient``.  A gradient requires finite
    energy and is checked finite, in that order.  ``g_u`` may be None: the
    density has no direct u dependence.
    """
    if F.layout != _LAYOUT_2X2:
        raise ValueError("grid calculus supports 2 x 2 gradient layouts only")
    grid = u.grid
    xc = grid.active_centers
    uc, xi = _cell_slots(u, grid.active_corners) if slots is None else slots
    with np.errstate(over="ignore"):
        if gradient:
            dens, g_u, g_xi = F.gradient(xc, uc, xi)
        else:
            dens, g_u, g_xi = F.value(xc, uc, xi), None, None
    dens = np.asarray(dens, dtype=float)
    value = float(grid.cell_area * dens.sum())
    if gradient:
        if not math.isfinite(value):
            raise InfiniteEnergyError("energy is not finite; gradient undefined")
        if not ((g_u is None or np.isfinite(g_u).all()) and np.isfinite(g_xi).all()):
            raise UnboundedGradientError("integrand gradient has non-finite entries")
    return xi, dens, value, g_u, g_xi


def energy(u, F) -> float:
    """Midpoint-rule energy R(u) of ``u`` under integrand ``F``: the sum over
    active cells of ``cell_area`` times the density, ``inf`` if any density is."""
    return _density_pass(u, F, gradient=False)[2]


def energy_with_gradient(u, F):
    """``(R(u), gradient)``: the energy of :func:`energy` and its exact gradient
    w.r.t. the nodal values, in one pass.

    The gradient is shaped like ``u.values``.  Per active cell, the slot
    gradient ``(g_A, g_det)`` of ``F`` maps to the matrix gradient
    ``g_A + g_det * cof(J)``, with ``cof(J) = [[J11, -J10], [-J01, J00]]`` the
    derivative of det J, entry by entry on the slots of ``_cell_slots``.
    The transposed difference stencil distributes it onto the four corner
    nodes; the direct dependence on u (integrands with a u argument) is
    averaged onto the corners.
    """
    xi, _, value, g_u, g_xi = _density_pass(u, F, gradient=True)
    grid = u.grid
    area = grid.cell_area
    h1, h2 = grid.spacing
    # Row e of t: entry e = (a, b) (row-major) of each cell's matrix gradient
    # g_A + sign * g_det * (cofactor slot), times the weight area / (2 h) of
    # the stencil along axis b, computed in one buffer (negating exactly,
    # then adding, equals subtracting bit for bit).  Scattered into the
    # columns of cell-major rows, entries (a, 0) are gx and (a, 1) gy.
    xs, gs = xi.T, g_xi.T
    t = np.multiply(gs[4], xs[3::-1])
    t[1:3] *= -1
    t += gs[:4]
    t *= area
    t[0::2] /= 2.0 * h1
    t[1::2] /= 2.0 * h2
    # Each cell's entries sit in the row of its (i, j) corner node, so each
    # corner sum below is one slice of the flat nodes, and the rows that
    # start no cell hold 0.0 and change nothing, as in ``_corner_sums``
    # (x - 0.0 is x as x + 0.0 is).
    cells = np.zeros((grid.nx * grid.ny, 4))
    low = grid.active_corners[0]
    for e in range(4):  # four 1-d scatters beat one of (k, 4) rows
        cells[:, e][low] = t[e]
    gx, gy = cells[:, 0::2], cells[:, 1::2]

    # Corner weights (-1, -1), (1, -1), (-1, 1), (1, 1) on (gx, gy), added in
    # that order; subtracting gx + gy equals adding -gx - gy bit for bit.
    row = 2 * grid.ny  # one node row of the flat gradient
    total = np.add(gx, gy).reshape(-1)
    grad = np.subtract(0.0, total)
    diff = np.subtract(gx, gy).reshape(-1)
    grad[row:] += diff[:-row]
    grad[2:] -= diff[:-2]
    grad[row + 2:] += total[:-row - 2]
    grad = grad.reshape(u.values.shape)

    if g_u is not None and np.any(g_u):
        grad += _corner_sums(grid, (area / 4.0) * g_u)
    return value, grad


def pairing(w, u) -> float:
    """Action of a subgradient-like functional on a field.

    Quadrature over active cells of

        u0_c . u_c  +  u1_c : J_c  +  v2_c . det(J_c)

    where u0 is sampled at cell centers (mean of its four corner values)
    and u_c likewise.  Linear in u through the first two terms; the last is
    polynomial through the determinant, the one higher minor of a 2 x 2
    Jacobian.  ``w.active_values`` supplies u0_c, u1_c and v2_c over the
    active cells of ``w``'s base grid, which must have the mask of ``u``'s.
    """
    operands = _pairing_operands(w, u)
    uc, xi = _cell_slots(u, u.grid.active_corners)
    return _pairing_sum(operands, uc, xi, u.grid.cell_area)


def _pairing_operands(w, u):
    """``w.active_values``, once ``w`` is checked to pair with fields on
    ``u``'s grid (or any grid of the same shape and mask)."""
    grid = u.grid
    if w.u0.shape != u.values.shape:
        raise ValueError("node covector shape does not match the field")
    if w.u1.shape[:2] != grid.cell_shape or w.v2.shape[:2] != grid.cell_shape:
        raise ValueError("cell covector shapes do not match the grid")
    base = w.base_point.grid
    if base is not grid and not np.array_equal(base.active_cells, grid.active_cells):
        raise ValueError("covector and field have different cell masks")
    return w.active_values


def _pairing_sum(operands, uc, xi, area):
    """The pairing's quadrature from the certificate's active-cell operands
    and the kernel's ``(uc, xi)``.  Each product fills a C-ordered (k, width)
    buffer along the slot-major rows of ``uc`` and ``xi``, so its sum runs in
    the order of the plain product of (k, width) arrays."""
    u0c, u1c, v2c = operands
    terms = np.empty(u0c.shape)
    np.multiply(u0c.T, uc.T, out=terms.T)
    total = terms.sum()
    terms = np.empty(u1c.shape)
    np.multiply(u1c.T, xi[:, :4].T, out=terms.T)
    total += terms.sum()
    total += np.sum(v2c * xi[:, 4:])
    return float(area * total)


def _energy_and_pairing(v, F, operands):
    """``(energy(v, F), pairing(w, v))`` bit for bit from one pass of the cell
    kernel, ``operands`` being ``_pairing_operands(w, v)``: the checks run
    once per grid, not once per field."""
    uc, xi = _cell_slots(v, v.grid.active_corners)
    value = _density_pass(v, F, gradient=False, slots=(uc, xi))[2]
    return value, _pairing_sum(operands, uc, xi, v.grid.cell_area)


def identity_field(grid) -> MatrixField:
    return MatrixField(grid, grid.node_points)


def field_from_function(grid, fn) -> MatrixField:
    """Sample a callable ``fn(points) -> (..., 2)`` at the grid nodes."""
    return MatrixField(grid, fn(grid.node_points))


def random_smooth_field(grid, seed=None, rng=None, amplitude=1.0, modes=3) -> MatrixField:
    """Deterministic random field built from a few low-order trig modes.

    Each component is the sum over ``kx, ky < modes`` of

        c0 sin(pi (kx+1) s) sin(pi (ky+1) t) + c1 sin(pi (kx+1) s) cos(pi ky t)
      + c2 cos(pi kx s) sin(pi (ky+1) t)     + c3 cos(pi kx s) cos(pi ky t)

    with (s, t) the node position scaled to [0, 1]^2 and the four
    coefficients drawn from ``rng`` (or a generator seeded with ``seed``),
    component by component, ``kx`` before ``ky``; the result is scaled so
    its sup norm equals ``amplitude``.  Smooth by construction, hence
    resolution-independent in character.

    The sum is separable: with ``Bs`` and ``Bt`` the (2 modes x n) tables
    of the sines and cosines over s and t, and ``C`` the matrix of one
    component's coefficients (sine rows before cosine rows, likewise the
    columns), the component is ``Bs^T C Bt``.  The two products run through
    ``_serial_matmul``, so the field does not depend on the BLAS thread
    count; it matches the term-by-term sum to rounding (a few ulps of the
    sup norm), not bit for bit.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    (a1, b1), (a2, b2) = grid.bounds
    pts = grid.node_points
    k = np.arange(modes)[:, None]
    s = (pts[:, 0, 0] - a1) / (b1 - a1)
    t = (pts[0, :, 1] - a2) / (b2 - a2)
    bs = np.concatenate([np.sin(np.pi * (k + 1) * s), np.cos(np.pi * k * s)])
    bt = np.concatenate([np.sin(np.pi * (k + 1) * t), np.cos(np.pi * k * t)])
    # c[comp, kx, ky, 2 p + q]: p picks sin/cos over s, q sin/cos over t
    c = rng.standard_normal((2, modes, modes, 4)).reshape(2, modes, modes, 2, 2)
    coef = c.transpose(0, 3, 1, 4, 2).reshape(2, 2 * modes, 2 * modes)
    values = np.empty(grid.node_shape + (2,))
    for comp in range(2):
        values[..., comp] = _serial_matmul(_serial_matmul(bs.T, coef[comp]), bt)
    peak = np.max(np.abs(values))
    if peak > 0:
        values *= amplitude / peak
    return MatrixField(grid, values)


def _serial_matmul(a, b):
    """``a @ b`` for 2-d arrays, one ``np.matmul`` per block of rows of
    ``a``, each block at most ``_GEMM_BLOCK`` multiply-adds, so that each
    runs on the calling thread."""
    rows = max(1, _GEMM_BLOCK // b.size)
    out = np.empty((a.shape[0], b.shape[1]))
    for i in range(0, a.shape[0], rows):
        np.matmul(a[i:i + rows], b, out=out[i:i + rows])
    return out
