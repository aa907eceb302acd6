"""Independent reference computations used by the test suite.

These deliberately avoid the library's own code paths: determinants come
from a recursive first-row expansion over explicitly enumerated index
subsets, directional derivatives from central differences, and quadratic
distances from direct expansion.
"""

import itertools

import numpy as np


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
