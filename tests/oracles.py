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
"""

import itertools

import numpy as np

from polyreg.fields import (
    EnergyValue,
    InfiniteEnergyError,
    UnboundedGradientError,
    cell_center_values,
    scatter_to_corners,
)
from polyreg.minors import all_minors, higher_minors


def det_recursive(m):
    """Determinant by recursive cofactor expansion along the first row."""
    k = m.shape[0]
    if k == 1:
        return m[0, 0]
    total = 0.0
    sign = 1.0
    for j in range(k):
        sub = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total = total + sign * m[0, j] * det_recursive(sub)
        sign = -sign
    return total


def brute_force_minors(a):
    """Every minor of ``a`` in block order: orders ascending, subset pairs
    lexicographic with the row subset slower."""
    N, n = a.shape
    out = []
    for s in range(1, min(N, n) + 1):
        for rows in itertools.combinations(range(N), s):
            for cols in itertools.combinations(range(n), s):
                out.append(det_recursive(a[np.ix_(rows, cols)]))
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
    densities = np.zeros(grid.cell_shape)
    densities[act] = dens
    ev = EnergyValue(value=float(grid.cell_area * np.sum(dens)), densities=densities)
    if not gradient:
        return act, jc, ev, None, None
    if not np.isfinite(ev.value):
        raise InfiniteEnergyError("energy is not finite; gradient undefined")
    g_u, g_xi = F.gradient(xc, uc, xi)
    if not (np.all(np.isfinite(g_u)) and np.all(np.isfinite(g_xi))):
        raise UnboundedGradientError("integrand gradient has non-finite entries")
    return act, jc, ev, g_u, g_xi


def assembly_energy(u, F):
    """``fields.energy`` through the Jacobian stack and ``all_minors``."""
    return _assembly_pass(u, F, gradient=False)[2]


def assembly_energy_with_gradient(u, F):
    """``fields.energy_with_gradient`` through the Jacobian stack, ``all_minors``
    and a (cells, 2, 2) cofactor pull-back scattered through the mask."""
    act, jc, ev, g_u, g_xi = _assembly_pass(u, F, gradient=True)
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

    if np.any(g_u):
        gu_cells = np.zeros(grid.cell_shape + (2,))
        gu_cells[act] = (area / 4.0) * g_u
        grad += scatter_to_corners(gu_cells, grid.node_shape)
    return ev, grad


def assembly_pairing(w, u):
    """``fields.pairing`` with the certificate gathered through the mask on
    every call and the determinant from ``higher_minors``."""
    act, _, uc, jc = _assembly_cells(u)
    u0c = cell_center_values(w.u0)[act]
    total = np.sum(u0c * uc)
    total += np.sum(w.u1[act] * jc)
    total += np.sum(w.v2[act] * higher_minors(jc))
    return float(u.grid.cell_area * total)
