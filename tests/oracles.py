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

from polyreg.fields import (
    InfiniteEnergyError,
    UnboundedGradientError,
    cell_center_values,
    scatter_to_corners,
)
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
