"""Independent reference computations used by the test suite.

These deliberately avoid the library's own code paths: determinants come
from a recursive first-row expansion over explicitly enumerated index
subsets, directional derivatives from central differences, and quadratic
distances from direct expansion.

The ``assembly_*`` functions are the energy, gradient and pairing assembly
the fused cell kernel of :mod:`polyreg.fields` replaced: a (cells, 2, 2)
Jacobian stack from full-grid difference stencils, boolean gathers with the
cell mask, the general ``all_minors`` and a (cells, 2, 2) cofactor pull-back
scattered back through the mask.  The kernel performs the same floating-point
operations in the same order, so the two agree bit for bit.

``cell_center_values`` and ``scatter_to_corners`` are the node-to-cell mean
and its transpose over full 2-d arrays, the form the library's transfers had
before they became slices of the flat nodes; every library transfer equals
them bit for bit.

``interpolate_reference`` is the bilinear warp as eight two-index gathers,
the form ``ScalarImage`` had before it read one stencil cell by flat index;
``sample`` and ``sample_with_gradient`` equal it bit for bit.

The ``*_value_reference`` and ``*_gradient_reference`` functions are the
built-in densities as separate value and gradient formulas, the form they had
before each became one function computing both; the one-pass densities equal
them bit for bit.
"""

import itertools

import numpy as np

from polyreg.fields import InfiniteEnergyError, UnboundedGradientError
from polyreg.minors import all_minors


def det_recursive(rows):
    """Determinant of a square matrix given as a list of row lists, by
    recursive cofactor expansion along the first row.  Plain Python floats:
    the same IEEE double operations as numpy scalars, without their overhead."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0.0
    sign = 1.0
    for j, head in enumerate(rows[0]):
        sub = [row[:j] + row[j + 1:] for row in rows[1:]]
        total = total + sign * head * det_recursive(sub)
        sign = -sign
    return total


def brute_force_minors(a):
    """Every minor of ``a`` in block order: orders ascending, subset pairs
    lexicographic with the row subset slower."""
    N, n = a.shape
    entries = np.asarray(a, dtype=float).tolist()
    out = []
    for s in range(1, min(N, n) + 1):
        for rows in itertools.combinations(range(N), s):
            for cols in itertools.combinations(range(n), s):
                out.append(det_recursive([[entries[i][j] for j in cols] for i in rows]))
    return np.asarray(out)


def relative_error(value, reference, floor=1e-30):
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return np.abs(value - reference) / np.maximum(np.abs(reference), floor)


def central_difference(fn, x, direction, h=1e-5):
    """Directional derivative of a scalar function by central differences."""
    return (fn(x + h * direction) - fn(x - h * direction)) / (2.0 * h)


def cell_center_values(node_values):
    """Mean of the four corner values per cell over the full (nx, ny, ...)
    node array: the 2-d form of the library's node-to-cell transfer."""
    v = np.asarray(node_values, dtype=float)
    return 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])


def scatter_to_corners(cell_values, node_shape):
    """Transpose of ``cell_center_values`` without the 1/4 weight: adds each
    value of a full (nx-1, ny-1, ...) cell array onto its four corner nodes."""
    c = np.asarray(cell_values, dtype=float)
    out = np.zeros(node_shape + c.shape[2:], dtype=float)
    out[:-1, :-1] += c
    out[1:, :-1] += c
    out[:-1, 1:] += c
    out[1:, 1:] += c
    return out


def domain_measure(grid):
    """Quadrature measure of the masked domain: the cell area times the
    number of active cells."""
    return grid.cell_area * float(np.sum(grid.active_cells))


def write_mask_csv(path, mask):
    """The cell-mask CSV that ``polyreg.io.load_mask`` reads, one row of 0/1
    entries per i index; no command writes one."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        for row in mask.active.astype(int):
            fh.write(",".join(str(v) for v in row) + "\n")


def singular_values_reference(a):
    """Singular values straight from LAPACK, descending."""
    return np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)


def schatten_gradient_reference(a, p):
    """Gradient of ``lam1^p + lam2^p`` over stacked matrices through a full
    LAPACK SVD: ``p * U diag(lam^(p-1)) V^T``."""
    uu, lam, vt = np.linalg.svd(np.asarray(a, dtype=float))
    return p * np.einsum("...ik,...k,...kj->...ij", uu, lam ** (p - 1.0), vt)


def random_smooth_field_reference(grid, seed=None, rng=None, amplitude=1.0, modes=3):
    """Node values of ``fields.random_smooth_field`` by the full-grid formula:
    every sine and cosine evaluated at every node, terms summed in draw order."""
    if rng is None:
        rng = np.random.default_rng(seed)
    (a1, b1), (a2, b2) = grid.bounds
    pts = grid.node_points
    s = (pts[..., 0] - a1) / (b1 - a1)
    t = (pts[..., 1] - a2) / (b2 - a2)
    values = np.zeros(grid.node_shape + (2,))
    for comp in range(2):
        acc = np.zeros(grid.node_shape)
        for kx in range(modes):
            for ky in range(modes):
                c = rng.standard_normal(4)
                acc += c[0] * np.sin(np.pi * (kx + 1) * s) * np.sin(np.pi * (ky + 1) * t)
                acc += c[1] * np.sin(np.pi * (kx + 1) * s) * np.cos(np.pi * ky * t)
                acc += c[2] * np.cos(np.pi * kx * s) * np.sin(np.pi * (ky + 1) * t)
                acc += c[3] * np.cos(np.pi * kx * s) * np.cos(np.pi * ky * t)
        values[..., comp] = acc
    peak = np.max(np.abs(values))
    if peak > 0:
        values *= amplitude / peak
    return values


def jacobian_stack(u):
    """Cell Jacobians (nx-1, ny-1, 2, 2) from full-grid difference stencils."""
    v = u.values
    h1, h2 = u.grid.spacing
    d1 = (v[1:, :-1] - v[:-1, :-1] + v[1:, 1:] - v[:-1, 1:]) / (2.0 * h1)
    d2 = (v[:-1, 1:] - v[:-1, :-1] + v[1:, 1:] - v[1:, :-1]) / (2.0 * h2)
    return np.stack([d1, d2], axis=-1)


def _assembly_cells(u):
    grid = u.grid
    act = grid.active_cells
    return (act, grid.cell_centers[act], cell_center_values(u.values)[act],
            jacobian_stack(u)[act])


def _assembly_pass(u, F, gradient):
    grid = u.grid
    act, xc, uc, jc = _assembly_cells(u)
    xi = all_minors(jc)
    with np.errstate(over="ignore"):
        dens = np.asarray(F.value(xc, uc, xi), dtype=float)
    value = float(grid.cell_area * np.sum(dens))
    if not gradient:
        return act, jc, dens, value, None, None
    if not np.isfinite(value):
        raise InfiniteEnergyError("energy is not finite; gradient undefined")
    _, g_u, g_xi = F.gradient(xc, uc, xi)
    if not ((g_u is None or np.all(np.isfinite(g_u))) and np.all(np.isfinite(g_xi))):
        raise UnboundedGradientError("integrand gradient has non-finite entries")
    return act, jc, dens, value, g_u, g_xi


def assembly_densities(u, F):
    """Density of each active cell through the Jacobian stack and
    ``all_minors``, in the order of a boolean gather with the cell mask."""
    return _assembly_pass(u, F, gradient=False)[2]


def assembly_energy(u, F):
    """``fields.energy`` through the Jacobian stack and ``all_minors``."""
    return _assembly_pass(u, F, gradient=False)[3]


def assembly_energy_with_gradient(u, F):
    """``fields.energy_with_gradient`` through the Jacobian stack, ``all_minors``
    and a (cells, 2, 2) cofactor pull-back scattered through the mask."""
    act, jc, _, value, g_u, g_xi = _assembly_pass(u, F, gradient=True)
    grid = u.grid
    cof = np.stack([jc[:, 1, 1], -jc[:, 1, 0], -jc[:, 0, 1], jc[:, 0, 0]], axis=-1)
    df_dA = (g_xi[:, :4] + g_xi[:, 4:] * cof).reshape(-1, 2, 2)

    area = grid.cell_area
    h1, h2 = grid.spacing
    gx = np.zeros(grid.cell_shape + (2,))
    gy = np.zeros(grid.cell_shape + (2,))
    gx[act] = area * df_dA[..., :, 0] / (2.0 * h1)
    gy[act] = area * df_dA[..., :, 1] / (2.0 * h2)

    grad = np.zeros_like(u.values)
    grad[:-1, :-1] += -gx - gy
    grad[1:, :-1] += gx - gy
    grad[:-1, 1:] += -gx + gy
    grad[1:, 1:] += gx + gy

    if g_u is not None and np.any(g_u):
        gu_cells = np.zeros(grid.cell_shape + (2,))
        gu_cells[act] = (area / 4.0) * g_u
        grad += scatter_to_corners(gu_cells, grid.node_shape)
    return value, grad


def assembly_pairing(w, u):
    """``fields.pairing`` with the certificate gathered through the mask on
    every call and the determinant from the last slot of ``all_minors``."""
    act, _, uc, jc = _assembly_cells(u)
    u0c = cell_center_values(w.u0)[act]
    total = np.sum(u0c * uc)
    total += np.sum(w.u1[act] * jc)
    total += np.sum(w.v2[act] * all_minors(jc)[..., 4:])
    return float(u.grid.cell_area * total)


def assembly_node_average(u, F):
    """``poly_subgradient``'s ``u0``: each node's mean of the direct u
    gradient over its active cells, from scatters of full cell arrays."""
    act, _, _, _, g_u, _ = _assembly_pass(u, F, gradient=True)
    grid = u.grid
    gu_cells = np.zeros(grid.cell_shape + (2,))
    gu_cells[act] = g_u
    counts = scatter_to_corners(act.astype(float), grid.node_shape)
    summed = scatter_to_corners(gu_cells, grid.node_shape)
    return np.where(counts[..., None] > 0, summed / np.maximum(counts, 1.0)[..., None], 0.0)


def _axis_coords_reference(coords, origin, spacing, count):
    t = (coords - origin) / spacing
    nearest = np.rint(t)
    t = np.where(np.abs(t - nearest) <= 1e-12 * np.maximum(1.0, np.abs(t)), nearest, t)
    inside = (t >= 0.0) & (t <= count - 1.0)
    t = np.clip(t, 0.0, count - 1.0)
    i0 = t.astype(int)
    return i0, np.minimum(i0 + 1, count - 1), t - i0, inside


def interpolate_reference(image, points, gradient):
    """``image.sample(points)``, or with ``gradient`` ``sample_with_gradient``,
    from two-index gathers at the clamped lower and upper nodes."""
    grid = image.grid
    pts = np.asarray(points, dtype=float)
    i0, i1, f1, in1 = _axis_coords_reference(
        pts[..., 0], grid.bounds[0][0], grid.spacing[0], grid.nx)
    j0, j1, f2, in2 = _axis_coords_reference(
        pts[..., 1], grid.bounds[1][0], grid.spacing[1], grid.ny)
    s = image.samples
    v0 = s[i0, j0] + f1 * (s[i1, j0] - s[i0, j0])
    v1 = s[i0, j1] + f1 * (s[i1, j1] - s[i0, j1])
    vals = v0 + f2 * (v1 - v0)
    if not gradient:
        return vals
    gi = np.minimum(i0, grid.nx - 2)
    gj = np.minimum(j0, grid.ny - 2)
    g1 = f1 + (i0 - gi)
    g2 = f2 + (j0 - gj)
    s00, s10 = s[gi, gj], s[gi + 1, gj]
    s01, s11 = s[gi, gj + 1], s[gi + 1, gj + 1]
    h1, h2 = grid.spacing
    gx = (((1 - g2) * (s10 - s00) + g2 * (s11 - s01)) / h1) * in1
    gy = (((1 - g1) * (s01 - s00) + g1 * (s11 - s10)) / h2) * in2
    return vals, np.stack([gx, gy], axis=-1)


def density_from(value_fn, grad_fn):
    """One ``density(x, u, xi, gradient)`` callable for ``Integrand`` from a
    value function and a gradient function returning ``(g_u, g_xi)``."""

    def density(x, u, xi, gradient):
        value = value_fn(x, u, xi)
        return (value, *grad_fn(x, u, xi)) if gradient else value

    return density


# ``xi`` has slots (a00, a01, a10, a11, ..., d); every gradient reference
# returns (g_u, g_xi), with g_u None as for the autonomous built-ins.

def _rotation_split_reference(xi):
    a00, a01, a10, a11 = xi[..., 0], xi[..., 1], xi[..., 2], xi[..., 3]
    hs = 0.5 * (a00 + a11)
    hd = 0.5 * (a00 - a11)
    hk = 0.5 * (a10 - a01)
    hy = 0.5 * (a10 + a01)
    return hs, hd, hk, hy, np.hypot(hs, hk), np.hypot(hd, hy)


def rotation_value_reference(xi, p):
    big, small = _rotation_split_reference(xi)[4:]
    with np.errstate(over="ignore"):
        return (big + small) ** p + np.abs(big - small) ** p + p * np.exp(1.0 - xi[..., 4])


def rotation_gradient_reference(xi, p):
    hs, hd, hk, hy, big, small = _rotation_split_reference(xi)
    gap = big - small
    top = (big + small) ** (p - 1.0)
    low = np.sign(gap) * np.abs(gap) ** (p - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        by_big = np.where(big > 0, p * (top + low) / big, 0.0)
        by_small = np.where(small > 0, p * (top - low) / small, 0.0)
    g_xi = np.zeros_like(xi)
    gs, gd = 0.5 * by_big * hs, 0.5 * by_small * hd
    gk, gy = 0.5 * by_big * hk, 0.5 * by_small * hy
    g_xi[..., 0] = gs + gd
    g_xi[..., 1] = gy - gk
    g_xi[..., 2] = gk + gy
    g_xi[..., 3] = gs - gd
    with np.errstate(over="ignore"):
        g_xi[..., 4] = -p * np.exp(1.0 - xi[..., 4])
    return None, g_xi


def _quartic_split_reference(xi):
    hs, hd, hk, hy = _rotation_split_reference(xi)[:4]
    return hs, hd, hk, hy, hs * hs + hk * hk, hd * hd + hy * hy


def quartic_rotation_value_reference(xi):
    """``rotation_value_reference(xi, 4.0)`` as the polynomial
    ``2 (B^2 + 6 B C + C^2) + 4 exp(1 - d)`` in ``B = big**2``, ``C = small**2``,
    with the larger of the two factored out."""
    with np.errstate(over="ignore"):
        big2, small2 = _quartic_split_reference(xi)[4:]
        hi, lo = np.maximum(big2, small2), np.minimum(big2, small2)
        return 2.0 * (hi * (hi + 6.0 * lo) + lo * lo) + 4.0 * np.exp(1.0 - xi[..., 4])


def quartic_rotation_gradient_reference(xi):
    """``rotation_gradient_reference(xi, 4.0)`` with ``dS/d big / big =
    8 (B + 3 C)`` and ``dS/d small / small = 8 (3 B + C)``."""
    hs, hd, hk, hy, big2, small2 = _quartic_split_reference(xi)
    by_big = 4.0 * (big2 + 3.0 * small2)
    by_small = 4.0 * (3.0 * big2 + small2)
    g_xi = np.zeros_like(xi)
    gs, gd = by_big * hs, by_small * hd
    gk, gy = by_big * hk, by_small * hy
    g_xi[..., 0] = gs + gd
    g_xi[..., 1] = gy - gk
    g_xi[..., 2] = gk + gy
    g_xi[..., 3] = gs - gd
    with np.errstate(over="ignore"):
        g_xi[..., 4] = -4.0 * np.exp(1.0 - xi[..., 4])
    return None, g_xi


def pq_value_reference(xi, p, q, n):
    a = xi[..., :n * n].reshape(xi.shape[:-1] + (n, n))
    fro2 = np.sum(a * a, axis=(-2, -1))
    return fro2 ** (p / 2.0) / p + np.abs(xi[..., -1]) ** q / q


def pq_gradient_reference(xi, p, q, n):
    a = xi[..., :n * n].reshape(xi.shape[:-1] + (n, n))
    fro2 = np.sum(a * a, axis=(-2, -1))
    g_xi = np.zeros_like(xi)
    scale = fro2 ** ((p - 2.0) / 2.0)
    g_xi[..., :n * n] = (scale[..., None, None] * a).reshape(xi.shape[:-1] + (n * n,))
    d = xi[..., -1]
    g_xi[..., -1] = np.sign(d) * np.abs(d) ** (q - 1.0)
    return None, g_xi


def detsq_value_reference(xi):
    return xi[..., 4] ** 2


def detsq_gradient_reference(xi):
    g_xi = np.zeros_like(xi)
    g_xi[..., 4] = 2.0 * xi[..., 4]
    return None, g_xi


# Frozen hot path.  The ``frozen_*`` functions below are the cell kernel, the
# rotation density, the gradient pull-back, the bilinear interpolation and the
# misfit quadrature as they stood before the per-call numpy work of each was
# cut down (stencils per component on (k, 2) corner gathers, a 4-step pull-back
# loop, ``np.clip`` and ``np.where`` in the interpolation), with the p = 4
# closed form of the rotation density in the same one-part-per-array style.
# The library must equal them bit for bit: the same operations on the same
# operands in the same order, only fewer and longer numpy calls.

def frozen_cell_slots(u, corners):
    """``fields._cell_slots``: ``(uc, xi)`` of shapes (k, 2) and (k, 5)."""
    h1, h2 = u.grid.spacing
    n = corners.shape[1]
    corner_values = u.values.reshape(-1, 2).take(corners, axis=0)
    uc = np.empty((n, 2))
    xi = np.empty((n, 5))
    t = np.empty(n)
    for a in range(2):
        c00, c10, c01, c11 = corner_values[..., a]
        np.add(c00, c10, out=t)
        t += c01
        t += c11
        np.multiply(0.25, t, out=uc[:, a])
        np.subtract(c10, c00, out=t)
        t += c11
        t -= c01
        np.divide(t, 2.0 * h1, out=xi[:, 2 * a])
        np.subtract(c01, c00, out=t)
        t += c11
        t -= c10
        np.divide(t, 2.0 * h2, out=xi[:, 2 * a + 1])
    np.multiply(xi[:, 0], xi[:, 3], out=xi[:, 4])
    np.multiply(xi[:, 1], xi[:, 2], out=t)
    xi[:, 4] -= t
    return uc, xi


def frozen_rotation_density(xi, p, gradient):
    """``integrands.rotation_energy(p)``'s density on slots of any leading
    shape: the value, or ``(value, None, g_xi)``."""
    shape = xi.shape[:-1]
    flat = xi.reshape(-1, 5)
    a = flat[:, :4].reshape(-1, 2, 2)
    d = flat[:, -1]
    hs = 0.5 * (a[..., 0, 0] + a[..., 1, 1])
    hd = 0.5 * (a[..., 0, 0] - a[..., 1, 1])
    hk = 0.5 * (a[..., 1, 0] - a[..., 0, 1])
    hy = 0.5 * (a[..., 1, 0] + a[..., 0, 1])
    big, small = np.hypot(hs, hk), np.hypot(hd, hy)
    lam1 = big + small
    gap = big - small
    with np.errstate(over="ignore"):
        wall = np.subtract(1.0, d)
        np.exp(wall, out=wall)
        value = lam1 ** p
        t = np.abs(gap)
        t **= p
        value += t
        np.multiply(p, wall, out=t)
        value += t
    if not gradient:
        return value.reshape(shape)[()]
    top = lam1
    top **= p - 1.0
    low = np.abs(gap, out=t)
    low **= p - 1.0
    low *= np.sign(gap, out=gap)
    with np.errstate(divide="ignore", invalid="ignore"):
        by_big = np.add(top, low, out=gap)
        by_big *= p
        by_big /= big
        by_small = np.subtract(top, low, out=top)
        by_small *= p
        by_small /= small
    np.copyto(by_big, 0.0, where=~(big > 0))
    np.copyto(by_small, 0.0, where=~(small > 0))
    by_big *= 0.5
    by_small *= 0.5
    hs *= by_big
    hk *= by_big
    hd *= by_small
    hy *= by_small
    g_xi = np.empty((len(value), 5))
    np.add(hs, hd, out=g_xi[:, 0])
    np.subtract(hy, hk, out=g_xi[:, 1])
    np.add(hk, hy, out=g_xi[:, 2])
    np.subtract(hs, hd, out=g_xi[:, 3])
    np.multiply(-p, wall, out=g_xi[:, 4])
    return value.reshape(shape)[()], None, g_xi.reshape(xi.shape)


def frozen_quartic_rotation_density(xi, gradient):
    """``integrands.rotation_energy(4.0)``'s closed form on slots of any
    leading shape, one part per array: the value, or ``(value, None, g_xi)``."""
    shape = xi.shape[:-1]
    flat = xi.reshape(-1, 5)
    a = flat[:, :4].reshape(-1, 2, 2)
    d = flat[:, -1]
    hs = 0.5 * (a[..., 0, 0] + a[..., 1, 1])
    hd = 0.5 * (a[..., 0, 0] - a[..., 1, 1])
    hk = 0.5 * (a[..., 1, 0] - a[..., 0, 1])
    hy = 0.5 * (a[..., 1, 0] + a[..., 0, 1])
    with np.errstate(over="ignore"):
        big2 = hs * hs
        big2 += hk * hk
        small2 = hd * hd
        small2 += hy * hy
        hi, lo = np.maximum(big2, small2), np.minimum(big2, small2)
        value = np.multiply(6.0, lo)
        value += hi
        value *= hi
        lo *= lo
        value += lo
        value *= 2.0
        wall = np.subtract(1.0, d)
        np.exp(wall, out=wall)
        value += np.multiply(4.0, wall)
    if not gradient:
        return value.reshape(shape)[()]
    by_big = np.multiply(3.0, small2)
    by_big += big2
    by_big *= 4.0
    by_small = np.multiply(3.0, big2)
    by_small += small2
    by_small *= 4.0
    hs *= by_big
    hk *= by_big
    hd *= by_small
    hy *= by_small
    g_xi = np.empty((len(value), 5))
    np.add(hs, hd, out=g_xi[:, 0])
    np.subtract(hy, hk, out=g_xi[:, 1])
    np.add(hk, hy, out=g_xi[:, 2])
    np.subtract(hs, hd, out=g_xi[:, 3])
    np.multiply(-4.0, wall, out=g_xi[:, 4])
    return value.reshape(shape)[()], None, g_xi.reshape(xi.shape)


def _frozen_density_pass(u, F, gradient, slots=None):
    grid = u.grid
    xc = grid.active_centers
    uc, xi = frozen_cell_slots(u, grid.active_corners) if slots is None else slots
    with np.errstate(over="ignore"):
        if gradient:
            dens, g_u, g_xi = F.gradient(xc, uc, xi)
        else:
            dens, g_u, g_xi = F.value(xc, uc, xi), None, None
    dens = np.asarray(dens, dtype=float)
    value = float(grid.cell_area * np.sum(dens))
    if gradient:
        if not np.isfinite(value):
            raise InfiniteEnergyError("energy is not finite; gradient undefined")
        if not ((g_u is None or np.all(np.isfinite(g_u))) and np.all(np.isfinite(g_xi))):
            raise UnboundedGradientError("integrand gradient has non-finite entries")
    return xi, dens, value, g_u, g_xi


def frozen_energy_with_gradient(u, F):
    """``fields.energy_with_gradient`` with the 4-step cofactor pull-back."""
    xi, _, value, g_u, g_xi = _frozen_density_pass(u, F, gradient=True)
    grid = u.grid
    idx = grid.active_index
    area = grid.cell_area
    h1, h2 = grid.spacing
    g_det = g_xi[:, 4]
    gx = np.zeros((grid.cell_shape[0] * grid.cell_shape[1], 2))
    gy = np.zeros_like(gx)
    t = np.empty(len(idx))
    for out, entry, sign, slot, h in ((gx[:, 0], 0, 1, 3, h1), (gy[:, 0], 1, -1, 2, h2),
                                      (gx[:, 1], 2, -1, 1, h1), (gy[:, 1], 3, 1, 0, h2)):
        np.multiply(g_det, xi[:, slot], out=t)
        t *= sign
        t += g_xi[:, entry]
        t *= area
        t /= 2.0 * h
        out[idx] = t
    gx = gx.reshape(grid.cell_shape + (2,))
    gy = gy.reshape(grid.cell_shape + (2,))
    grad = np.zeros_like(u.values)
    t = np.add(gx, gy)
    grad[:-1, :-1] -= t
    np.subtract(gx, gy, out=t)
    grad[1:, :-1] += t
    grad[:-1, 1:] -= t
    np.add(gx, gy, out=t)
    grad[1:, 1:] += t
    if g_u is not None and np.any(g_u):
        gu_cells = np.zeros(grid.cell_shape + (2,))
        gu_cells.reshape(-1, 2)[idx] = (area / 4.0) * g_u
        grad += scatter_to_corners(gu_cells, grid.node_shape)
    return value, grad


def frozen_energy_and_pairing(v, F, operands):
    """``fields._energy_and_pairing`` on the frozen kernel."""
    uc, xi = frozen_cell_slots(v, v.grid.active_corners)
    value = _frozen_density_pass(v, F, gradient=False, slots=(uc, xi))[2]
    u0c, u1c, v2c = operands
    total = np.sum(u0c * uc)
    total += np.sum(u1c * xi[:, :4])
    total += np.sum(v2c * xi[:, 4:])
    return value, float(v.grid.cell_area * total)


def _frozen_axis_coords(coords, origin, spacing, count):
    t = (coords - origin) / spacing
    nearest = np.rint(t)
    t = np.where(np.abs(t - nearest) <= 1e-12 * np.maximum(1.0, np.abs(t)), nearest, t)
    inside = (t >= 0.0) & (t <= count - 1.0)
    t = np.clip(t, 0.0, count - 1.0)
    i0 = t.astype(int)
    return i0, t - i0, inside


def frozen_interpolate(image, points, gradient):
    """``ScalarImage._interpolate``: values, or ``(values, gradient)``."""
    pts = np.asarray(points, dtype=float)
    shape = pts.shape[:-1]
    pts = pts.reshape(-1, 2)
    if np.isnan(pts).any():
        raise IndexError("cannot sample an image at NaN coordinates")
    nx, ny = image.grid.nx, image.grid.ny
    (a1, _), (a2, _) = image.grid.bounds
    h1, h2 = image.grid.spacing
    i0, f1, in1 = _frozen_axis_coords(pts[:, 0], a1, h1, nx)
    j0, f2, in2 = _frozen_axis_coords(pts[:, 1], a2, h2, ny)
    on_i, on_j = i0 == nx - 1, j0 == ny - 1
    k = np.minimum(i0, nx - 2)
    k *= ny
    k += np.minimum(j0, ny - 2)
    flat = image.samples.ravel()
    s00, s10 = flat.take(k), flat[ny:].take(k)
    s01, s11 = flat[1:].take(k), flat[ny + 1:].take(k)
    c10 = np.where(on_j, s11, s10)
    c01 = np.where(on_i, s11, s01)
    c00 = np.where(on_i, c10, np.where(on_j, s01, s00))
    vals = c10 - c00
    vals *= f1
    vals += c00
    v1 = s11 - c01
    v1 *= f1
    v1 += c01
    v1 -= vals
    v1 *= f2
    vals += v1
    vals = vals.reshape(shape)[()]
    if not gradient:
        return vals
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


def frozen_misfit(grid, diff, q, gradient=False):
    """``registration._misfit``: the value, or ``(value, nodal slope)``."""
    idx = grid.active_index
    d = cell_center_values(diff).reshape(-1)[idx]
    value = grid.cell_area * np.sum(np.abs(d) ** q)
    if not gradient:
        return value
    slope = np.zeros(grid.cell_shape)
    slope.reshape(-1)[idx] = grid.cell_area * q / 4.0 * np.sign(d) * np.abs(d) ** (q - 1.0)
    return value, scatter_to_corners(slope, grid.node_shape)


def frozen_objective_and_gradient(problem, u, F):
    """``TikhonovProblem.objective_and_gradient`` on the frozen stages, with
    ``F`` standing in for ``problem.integrand``."""
    if problem.alpha > 0:
        reg_value, energy_grad = frozen_energy_with_gradient(u, F)
    warped, grad = frozen_interpolate(problem.reference, u.values, gradient=True)
    value, slope = frozen_misfit(u.grid, warped - problem.data.image.samples, problem.q,
                                 gradient=True)
    value = float(value)
    grad *= slope[..., None]
    if problem.alpha > 0:
        value += problem.alpha * reg_value
        energy_grad *= problem.alpha
        grad += energy_grad
    return value, grad
