"""Energy densities on minors coordinates, with exact gradients.

An ``Integrand`` is a nonnegative density ``F(x, u, xi)`` where ``xi`` is a
minors slot vector (see :mod:`polyreg.minors`).  Composing with the minors
map gives the matrix-space density ``f(A) = F(x, u, all_minors(A))``, which
is polyconvex whenever ``F`` is convex in ``xi``.

Three built-in densities are provided:

* ``rotation_energy(p)``   sum of p-th powers of the singular values of the
  order-1 block plus ``p * exp(1 - d)`` on the determinant slot.  Minimal
  exactly on plane rotations, invariant under rotations acting on either
  side, and coercive with constant ``2**(1 - p/2)``.
* ``pq_energy(p, q)``      ``|A|^p / p + |d|^q / q`` (Frobenius norm).
* ``detsq_energy()``       the square of the determinant slot.

Each density is one function ``density(x, u, xi, gradient)`` returning the
density, or with ``gradient`` the density and both gradients from one pass.
All built-ins are autonomous (they ignore ``x`` and ``u``) and return None
for the ``u`` gradient; the interface still carries both arguments so
spatially varying densities fit the same contract.  ``value`` and
``gradient`` are vectorized over leading axes, and integrands are immutable
after construction, so evaluation is pure and concurrently callable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .minors import MinorsLayout, all_minors


class Integrand:
    """Density on minors coordinates together with its gradient.

    Parameters
    ----------
    layout : MinorsLayout
        Matrix dimensions the density is defined for.
    name : str
        Identifier used in configs and reports.
    density : callable
        ``density(x, u, xi, gradient)``: for ``xi`` of shape ``(..., tau)``
        the density, shape ``(...)``, nonnegative wherever finite and ``inf``
        outside the effective domain; with ``gradient`` true, ``(density,
        g_u, g_xi)`` from one pass, the gradients of shapes ``(..., N)`` and
        ``(..., tau)`` and defined wherever the density is finite; ``g_u``
        may be None when the density does not depend on ``u`` directly.
    params : dict, optional
        Dimensionless parameters (exponents etc.) recorded as metadata.
    coercivity_constant : float, optional
        Analytic constant c with ``value(all_minors(A)) >= c * |A|^p``,
        if one is known.
    """

    def __init__(self, layout, name, density, params=None, coercivity_constant=None):
        self.layout = layout
        self.name = str(name)
        self.params = dict(params or {})
        self.coercivity_constant = coercivity_constant
        self._density = density

    def __repr__(self):
        return f"Integrand({self.name!r}, params={self.params})"

    def value(self, x, u, xi):
        return self._density(x, u, self._slots(xi), False)

    def gradient(self, x, u, xi):
        """``(density, g_u, g_xi)`` at the slots ``xi``, in one pass."""
        return self._density(x, u, self._slots(xi), True)

    def value_at_matrix(self, a):
        """Composed matrix-space density, ``value`` after the minors map."""
        return self.value(None, None, all_minors(a))

    def _slots(self, xi):
        xi = np.asarray(xi, dtype=float)
        if xi.shape[-1:] != (self.layout.tau,):
            raise ValueError(
                f"slot vector has trailing size {xi.shape[-1:]}, "
                f"expected {self.layout.tau}"
            )
        return xi


def _rotation_split(a):
    """Rotation/reflection split of stacked 2 x 2 matrices, closed form.

    With the half sum, half difference, half skew and half sym parts
    ``hs, hd, hk, hy`` of the entries, ``a`` is a scaled rotation with
    parameters ``(hs, hk)`` plus a scaled reflection with ``(hd, hy)``, and
    its singular values are ``big + small`` and ``|big - small|`` for
    ``big = hypot(hs, hk)`` and ``small = hypot(hd, hy)``.  Exact (to
    rounding) even at repeated singular values, where LAPACK-based routines
    may lose the symmetry.  Returns ``(hs, hd, hk, hy, big, small)``.
    """
    hs = 0.5 * (a[..., 0, 0] + a[..., 1, 1])
    hd = 0.5 * (a[..., 0, 0] - a[..., 1, 1])
    hk = 0.5 * (a[..., 1, 0] - a[..., 0, 1])
    hy = 0.5 * (a[..., 1, 0] + a[..., 0, 1])
    return hs, hd, hk, hy, np.hypot(hs, hk), np.hypot(hd, hy)


def _split_order1_det(xi, layout):
    n2 = layout.N * layout.n
    a = xi[..., :n2].reshape(xi.shape[:-1] + (layout.N, layout.n))
    return a, xi[..., -1]


def rotation_energy(p) -> Integrand:
    """Rotation-minimal density for 2 x 2 gradients.

    ``F(xi) = lam1^p + lam2^p + p * exp(1 - d)`` where lam1, lam2 are the
    singular values of the order-1 block of ``xi`` and ``d`` is the
    determinant slot.  Convex in ``xi`` (each term is convex in its own
    variables) and equal to ``2 + p`` exactly when the block is a rotation
    and ``d = 1``.  Requires ``p > 2``.

    The gradient of the singular-value term comes from the same closed-form
    split as the value (see ``_rotation_split``): with ``S = lam1^p + lam2^p``,
    ``lam1 = big + small`` and ``lam2 = |big - small|``, the chain rule runs
    through ``d big = (hs dhs + hk dhk) / big`` and
    ``d small = (hd dhd + hy dhy) / small``.  At ``big = 0`` (``small = 0``)
    the factor ``dS/d big`` (``dS/d small``) is exactly 0 for ``p > 2``, so
    that term is set to 0; the result equals ``p * U diag(lam^(p-1)) V^T``
    from an SVD, which is well defined at repeated singular values.  The
    density computes in place on buffers of the call, reusing the split's
    ``hs, hd, hk, hy`` as the gradient factors.
    """
    p = float(p)
    if p <= 2:
        raise ValueError(f"exponent must exceed 2, got p={p}")
    layout = MinorsLayout(2, 2)

    def density(x, u, xi, gradient):
        # One row of slots per matrix, so every step below can run in place.
        shape = xi.shape[:-1]
        a, d = _split_order1_det(xi.reshape(-1, layout.tau), layout)
        hs, hd, hk, hy, big, small = _rotation_split(a)
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
        # top = lam1^(p-1) and low = sign(gap) |gap|^(p-1)
        top = lam1
        top **= p - 1.0
        low = np.abs(gap, out=t)
        low **= p - 1.0
        low *= np.sign(gap, out=gap)
        # dS/d big / big and dS/d small / small; 0 where big or small vanish
        with np.errstate(divide="ignore", invalid="ignore"):
            by_big = np.add(top, low, out=gap)
            by_big *= p
            by_big /= big
            by_small = np.subtract(top, low, out=top)
            by_small *= p
            by_small /= small
        np.copyto(by_big, 0.0, where=~(big > 0))
        np.copyto(by_small, 0.0, where=~(small > 0))
        del big, small, low, t  # room for g_xi
        # d(hs, hd, hk, hy) / d(a00, a01, a10, a11) is 1/2 times a sign pattern
        by_big *= 0.5
        by_small *= 0.5
        hs *= by_big
        hk *= by_big
        hd *= by_small
        hy *= by_small
        g_xi = np.empty((len(value), layout.tau))
        np.add(hs, hd, out=g_xi[:, 0])
        np.subtract(hy, hk, out=g_xi[:, 1])
        np.add(hk, hy, out=g_xi[:, 2])
        np.subtract(hs, hd, out=g_xi[:, 3])
        np.multiply(-p, wall, out=g_xi[:, 4])
        return value.reshape(shape)[()], None, g_xi.reshape(xi.shape)

    return Integrand(
        layout, "rotation", density,
        params={"p": p},
        coercivity_constant=2.0 ** (1.0 - p / 2.0),
    )


def pq_energy(p, q, n=2) -> Integrand:
    """``|A|^p / p + |d|^q / q`` on square layouts, Frobenius norm on the
    order-1 block and the determinant slot ``d``.  Requires ``p > n`` and
    ``q > 1``; the gradient is ``(|A|^(p-2) A, |d|^(q-2) d)`` and any
    intermediate minor blocks (n = 3) receive zero weight."""
    p, q = float(p), float(q)
    n = int(n)
    if not p > n:
        raise ValueError(f"need p > n, got p={p}, n={n}")
    if not q > 1:
        raise ValueError(f"need q > 1, got q={q}")
    layout = MinorsLayout(n, n)
    n2 = n * n

    def density(x, u, xi, gradient):
        a, d = _split_order1_det(xi, layout)
        fro2 = np.sum(a * a, axis=(-2, -1))
        value = fro2 ** (p / 2.0) / p + np.abs(d) ** q / q
        if not gradient:
            return value
        g_xi = np.zeros_like(xi)
        scale = fro2 ** ((p - 2.0) / 2.0)
        g_xi[..., :n2] = (scale[..., None, None] * a).reshape(xi.shape[:-1] + (n2,))
        g_xi[..., -1] = np.sign(d) * np.abs(d) ** (q - 1.0)
        return value, None, g_xi

    return Integrand(
        layout, "pq", density,
        params={"p": p, "q": q, "n": n},
        coercivity_constant=1.0 / p,
    )


def detsq_energy() -> Integrand:
    """Square of the determinant slot for 2 x 2 gradients."""

    def density(x, u, xi, gradient):
        value = xi[..., 4] ** 2
        if not gradient:
            return value
        g_xi = np.zeros_like(xi)
        g_xi[..., 4] = 2.0 * xi[..., 4]
        return value, None, g_xi

    return Integrand(MinorsLayout(2, 2), "detsq", density, params={})


@dataclass(frozen=True)
class ConvexityReport:
    samples: int
    violations: int
    worst_gap: float
    tolerance: float


def check_convexity(F, samples, seed, tol=1e-10, box=3.0) -> ConvexityReport:
    """Midpoint-style convexity probe of ``F`` in its slot argument.

    Draws ``samples`` random triples (xi1, xi2, t) with slot entries uniform
    in ``[-box, box]`` and t uniform in (0, 1), and counts how often

        F(t xi1 + (1-t) xi2) > t F(xi1) + (1-t) F(xi2) + tol.

    Slots are sampled freely: no consistency between the order-1 block and
    the higher minors is imposed, since convexity is required in the free
    slot variable.  Triples with a non-finite value are skipped.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    tau = F.layout.tau
    xi1 = rng.uniform(-box, box, size=(samples, tau))
    xi2 = rng.uniform(-box, box, size=(samples, tau))
    t = rng.uniform(0.0, 1.0, size=samples)
    f1 = F.value(None, None, xi1)
    f2 = F.value(None, None, xi2)
    fm = F.value(None, None, t[:, None] * xi1 + (1.0 - t[:, None]) * xi2)
    gap = fm - (t * f1 + (1.0 - t) * f2)
    usable = np.isfinite(f1) & np.isfinite(f2) & np.isfinite(fm)
    gap = np.where(usable, gap, -np.inf)
    return ConvexityReport(
        samples=samples,
        violations=int(np.sum(gap > tol)),
        worst_gap=float(np.max(gap)),
        tolerance=tol,
    )


@dataclass(frozen=True)
class CoercivityReport:
    samples: int
    c_estimate: float
    c_reference: float | None
    violations_at_c: int


def check_coercivity(F, p, samples, seed, c=None, box=3.0) -> CoercivityReport:
    """Estimate the largest c with ``F(all_minors(A)) >= c |A|^p``.

    Random matrices with entries uniform in ``[-box, box]`` give a sampled
    lower envelope of the ratio ``F / |A|^p``; ``c_estimate`` is its minimum.
    ``violations_at_c`` counts samples falling strictly below the reference
    bound ``c`` (the integrand's declared constant by default).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    p = float(p)
    rng = np.random.default_rng(seed)
    layout = F.layout
    a = rng.uniform(-box, box, size=(samples, layout.N, layout.n))
    vals = F.value(None, None, all_minors(a))
    norm_p = np.sum(a * a, axis=(-2, -1)) ** (p / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(norm_p > 0, vals / norm_p, np.inf)
    c_ref = F.coercivity_constant if c is None else float(c)
    violations = 0 if c_ref is None else int(np.sum(vals < c_ref * norm_p))
    return CoercivityReport(
        samples=samples,
        c_estimate=float(np.min(ratios)),
        c_reference=c_ref,
        violations_at_c=violations,
    )
