"""Exact minors of small matrices, collected into a single slot vector.

``MinorsLayout`` fixes how the minors of an N x n matrix are ordered inside a
flat vector; the functions below compute the vector and its derivative:

* ``minor_block(a, s)``    all s x s minors of ``a`` (one block),
* ``all_minors(a)``        every minor, orders 1..min(N, n), concatenated,
* ``higher_minors(a)``     the same with the order-1 block dropped,
* ``minors_gradient(a)``   exact Jacobian of ``all_minors`` at ``a``.

Determinants are expanded in closed form (cofactor expansion along the first
row), so the gradients are closed-form as well and results are reproducible
bit for bit.  Matrices larger than 3 in either dimension are rejected rather
than approximated.

Every function accepts stacked input: ``a`` may have shape ``(..., N, n)``
and the minor axis is appended last.  All operations are pure functions on
value-semantic inputs and safe to call concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

_MAX_DIM = 3


@lru_cache(maxsize=None)
def _index_subsets(m, s):
    """Lexicographically ordered s-element subsets of range(m)."""
    return tuple(itertools.combinations(range(m), s))


@lru_cache(maxsize=None)
def _subset_pairs(N, n, s):
    """(row subset, column subset) pairs, row subset as the outer index."""
    return tuple(
        (rows, cols)
        for rows in _index_subsets(N, s)
        for cols in _index_subsets(n, s)
    )


@dataclass(frozen=True)
class MinorsLayout:
    """Slot bookkeeping for the vector of all minors of an N x n matrix.

    Minors are grouped by order s = 1..min(N, n).  Block s holds one entry
    per (row subset, column subset) pair; subsets are enumerated
    lexicographically with the row subset as the slower index.  The order-1
    block therefore coincides with the row-major flattening of the matrix,
    and for square matrices the very last slot is the determinant.
    """

    N: int
    n: int

    def __post_init__(self):
        if self.N < 1 or self.n < 1:
            raise ValueError(f"matrix dimensions must be >= 1, got {self.N} x {self.n}")
        if self.N > _MAX_DIM or self.n > _MAX_DIM:
            raise ValueError(
                f"dimensions above {_MAX_DIM} are not supported, got {self.N} x {self.n}"
            )

    @property
    def max_order(self) -> int:
        return min(self.N, self.n)

    def check_order(self, s) -> None:
        if not 1 <= s <= self.max_order:
            raise ValueError(f"minor order {s} outside 1..{self.max_order}")

    def block_size(self, s) -> int:
        """Number of s x s minors, C(N, s) * C(n, s)."""
        self.check_order(s)
        return comb(self.N, s) * comb(self.n, s)

    @cached_property
    def sigma(self):
        """Block sizes for s = 1..max_order."""
        return tuple(self.block_size(s) for s in range(1, self.max_order + 1))

    @cached_property
    def tau(self) -> int:
        """Total number of slots."""
        return sum(self.sigma)

    @property
    def tau2(self) -> int:
        """Slot count once the order-1 block is dropped."""
        return self.tau - self.N * self.n

    def block_slice(self, s) -> slice:
        self.check_order(s)
        start = sum(self.block_size(r) for r in range(1, s))
        return slice(start, start + self.block_size(s))


def _as_matrix_stack(a):
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise ValueError("expected an array with at least two dimensions")
    return MinorsLayout(a.shape[-2], a.shape[-1]), a


def _submatrix_det(a, rows, cols):
    """det of a[..., rows, cols], cofactor expansion along the first row."""
    s = len(rows)
    if s == 1:
        return a[..., rows[0], cols[0]]
    if s == 2:
        i0, i1 = rows
        j0, j1 = cols
        return a[..., i0, j0] * a[..., i1, j1] - a[..., i0, j1] * a[..., i1, j0]
    i0, i1, i2 = rows
    j0, j1, j2 = cols
    c0 = a[..., i1, j1] * a[..., i2, j2] - a[..., i1, j2] * a[..., i2, j1]
    c1 = a[..., i1, j0] * a[..., i2, j2] - a[..., i1, j2] * a[..., i2, j0]
    c2 = a[..., i1, j0] * a[..., i2, j1] - a[..., i1, j1] * a[..., i2, j0]
    return a[..., i0, j0] * c0 - a[..., i0, j1] * c1 + a[..., i0, j2] * c2


def minor_block(a, s):
    """All s x s minors of ``a``, shape ``(..., C(N,s) * C(n,s))``.

    Entry for (row subset I, column subset J) is the determinant of the
    submatrix a[I, J]; subset pairs are ordered as in ``MinorsLayout``.
    """
    layout, a = _as_matrix_stack(a)
    layout.check_order(s)
    if s == 1:
        return a.reshape(a.shape[:-2] + (layout.N * layout.n,)).copy()
    pairs = _subset_pairs(layout.N, layout.n, s)
    return np.stack([_submatrix_det(a, r, c) for r, c in pairs], axis=-1)


def all_minors(a):
    """Concatenation of the minor blocks of orders 1..min(N, n)."""
    layout, a = _as_matrix_stack(a)
    blocks = [minor_block(a, s) for s in range(1, layout.max_order + 1)]
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate(blocks, axis=-1)


def higher_minors(a):
    """Minor vector without the order-1 block (empty when min(N, n) == 1)."""
    layout, a = _as_matrix_stack(a)
    return all_minors(a)[..., layout.N * layout.n:]


def minors_gradient(a):
    """Jacobian of ``all_minors`` at ``a``, shape ``(..., tau, N, n)``.

    Row k holds the gradient of slot k with respect to the matrix entries.
    For a square matrix the final row is the cofactor matrix of ``a``.
    """
    layout, a = _as_matrix_stack(a)
    N, n = layout.N, layout.n
    out = np.zeros(a.shape[:-2] + (layout.tau, N, n))
    k = 0
    for s in range(1, layout.max_order + 1):
        for rows, cols in _subset_pairs(N, n, s):
            _write_minor_gradient(a, rows, cols, out[..., k, :, :])
            k += 1
    return out


def _write_minor_gradient(a, rows, cols, out):
    # Gradient of det(a[rows, cols]) w.r.t. the full matrix: the cofactor
    # matrix of the submatrix, scattered to the (rows, cols) positions.
    s = len(rows)
    if s == 1:
        out[..., rows[0], cols[0]] = 1.0
        return
    if s == 2:
        i0, i1 = rows
        j0, j1 = cols
        out[..., i0, j0] = a[..., i1, j1]
        out[..., i0, j1] = -a[..., i1, j0]
        out[..., i1, j0] = -a[..., i0, j1]
        out[..., i1, j1] = a[..., i0, j0]
        return
    for p in range(3):
        comp_rows = tuple(rows[r] for r in range(3) if r != p)
        for q in range(3):
            comp_cols = tuple(cols[c] for c in range(3) if c != q)
            sign = 1.0 if (p + q) % 2 == 0 else -1.0
            out[..., rows[p], cols[q]] = sign * _submatrix_det(a, comp_rows, comp_cols)


def apply_minors_gradient(gradient, h):
    """Directional derivative of ``all_minors``: contract ``(..., tau, N, n)``
    against a direction ``(..., N, n)``, yielding ``(..., tau)``."""
    return np.einsum("...kij,...ij->...k", gradient, np.asarray(h, dtype=float))


def pull_back(gradient, weights):
    """Transpose application of the minors Jacobian.

    Maps slot weights ``(..., tau)`` to matrix space ``(..., N, n)``; this is
    the chain-rule factor that turns a gradient in minors coordinates into a
    gradient with respect to the matrix itself.
    """
    return np.einsum("...k,...kij->...ij", np.asarray(weights, dtype=float), gradient)
