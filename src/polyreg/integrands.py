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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .minors import MinorsLayout, all_minors

# Half-width of the box that check_convexity and check_coercivity sample from.
_PROBE_BOX = 3.0


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
    coercivity_constant : float, optional
        Analytic constant c with ``value(all_minors(A)) >= c * |A|^p``,
        if one is known.
    """

    def __init__(self, layout, name, density, coercivity_constant=None):
        self.layout = layout
        self.name = str(name)
        self.coercivity_constant = coercivity_constant
        self._density = density

    def value(self, x, u, xi):
        return self._density(x, u, self._slots(xi), False)

    def gradient(self, x, u, xi):
        """``(density, g_u, g_xi)`` at the slots ``xi``, in one pass."""
        return self._density(x, u, self._slots(xi), True)

    def _slots(self, xi):
        xi = np.asarray(xi, dtype=float)
        if xi.shape[-1:] != (self.layout.tau,):
            raise ValueError(
                f"slot vector has trailing size {xi.shape[-1:]}, "
                f"expected {self.layout.tau}"
            )
        return xi


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
    and ``d = 1``.  Requires a finite ``p > 2``.

    The singular values come in closed form.  With the half sum, half
    difference, half skew and half sym parts ``hs, hd, hk, hy`` of the
    block's entries, the block is a scaled rotation with parameters
    ``(hs, hk)`` plus a scaled reflection with ``(hd, hy)``, and its singular
    values are ``lam1 = big + small`` and ``lam2 = |big - small|`` for
    ``big = hypot(hs, hk)`` and ``small = hypot(hd, hy)``: exact (to
    rounding) even at repeated singular values, where LAPACK-based routines
    may lose the symmetry.  The gradient of ``S = lam1^p + lam2^p`` runs
    through ``d big = (hs dhs + hk dhk) / big`` and
    ``d small = (hd dhd + hy dhy) / small``; the result equals
    ``p * U diag(lam^(p-1)) V^T`` from an SVD, which is well defined at
    repeated singular values.

    At ``p = 4`` (the default) ``S`` is a polynomial in ``B = big**2`` and
    ``C = small**2``: ``S = 2 (B^2 + 6 B C + C^2)``, evaluated as
    ``2 (hi (hi + 6 lo) + lo^2)`` with ``hi, lo`` the larger and smaller of
    ``B, C`` so that an overflowed ``B`` next to ``C = 0`` gives ``inf``, not
    ``inf * 0``; ``dS/d big / big = 8 (B + 3 C)`` and
    ``dS/d small / small = 8 (3 B + C)``.  No square root, power or division
    runs.  Any other ``p`` takes the singular-value path, where at
    ``big = 0`` (``small = 0``) the factor ``dS/d big`` (``dS/d small``) is
    exactly 0 for ``p > 2``, so that term is set to 0.

    The density computes in place on slot-major buffers of the call: the
    four parts are the rows ``hs, hk, hd, hy`` of one (4, k) array, the
    ``big`` and ``small`` rows (or their squares) and everything paired with
    them share one (2, k) array each, so each step is one numpy call over
    both, and ``g_xi`` is the transpose of a (5, k) array, like the slots of
    :mod:`polyreg.fields`.  Every entry sees the operations of the separate
    per-part formulas, in their order.
    """
    p = float(p)
    if not (math.isfinite(p) and p > 2):
        raise ValueError(f"exponent must be finite and exceed 2, got p={p}")
    layout = MinorsLayout(2, 2)
    spectrum = _quartic_spectrum if p == 4.0 else functools.partial(_singular_spectrum, p)

    def density(x, u, xi, gradient):
        shape = xi.shape[:-1]
        slots = xi.reshape(-1, layout.tau).T  # rows a00, a01, a10, a11, d
        d = slots[4]
        n = len(d)
        # h = (hs, hk, hd, hy): sums and differences of (a00, a10) with
        # (a11, a01), halved
        h = np.empty((4, n))
        np.add(slots[0:3:2], slots[3:0:-2], out=h[0:4:3])
        np.subtract(slots[0:3:2], slots[3:0:-2], out=h[2:0:-1])
        h *= 0.5
        value, by = spectrum(h, gradient)
        with np.errstate(over="ignore"):
            wall = np.subtract(1.0, d)
            np.exp(wall, out=wall)
            value += np.multiply(p, wall)
        if not gradient:
            return value.reshape(shape)[()]
        # d(hs, hd, hk, hy) / d(a00, a01, a10, a11) is 1/2 times a sign pattern,
        # folded into by
        pairs = h.reshape(2, 2, n)  # (hs, hk) and (hd, hy)
        pairs *= by[:, None]
        g_xi = np.empty((layout.tau, n))
        np.add(h[0:2], h[2:4], out=g_xi[0:3:2])  # hs + hd, hk + hy
        np.subtract(h[0:4:3], h[2:0:-1], out=g_xi[3:0:-2])  # hs - hd, hy - hk
        np.multiply(-p, wall, out=g_xi[4])
        return value.reshape(shape)[()], None, g_xi.T.reshape(xi.shape)

    return Integrand(layout, "rotation", density, coercivity_constant=2.0 ** (1.0 - p / 2.0))


def _quartic_spectrum(h, gradient):
    """``lam1^4 + lam2^4`` of the blocks with parts ``h`` and, with
    ``gradient``, half of ``(dS/d big / big, dS/d small / small)``, shape (2, k)."""
    with np.errstate(over="ignore"):
        sq = np.multiply(h, h)
        bc = np.add(sq[0::2], sq[1::2])  # big**2, small**2
        lo = np.minimum(bc[0], bc[1])
        value = np.maximum(bc[0], bc[1])  # hi, then 2 (hi (hi + 6 lo) + lo^2)
        t = np.multiply(6.0, lo)
        t += value
        value *= t
        lo *= lo
        value += lo
        value *= 2.0
    if not gradient:
        return value, None
    by = np.multiply(bc[::-1], 3.0)
    by += bc
    by *= 4.0
    return value, by


def _singular_spectrum(p, h, gradient):
    """``lam1^p + lam2^p`` of the blocks with parts ``h`` and, with
    ``gradient``, half of ``(dS/d big / big, dS/d small / small)``, shape (2, k)."""
    n = h.shape[1]
    bs = np.hypot(h[0::2], h[1::2])  # big, small
    big, small = bs
    lam = np.empty((2, n))  # lam1 and |big - small|, then their powers p - 1
    np.add(big, small, out=lam[0])
    gap = big - small
    with np.errstate(over="ignore"):
        np.abs(gap, out=lam[1])
        value = lam ** p
        value = np.add(value[0], value[1], out=value[0])
    if not gradient:
        return value, None
    lam **= p - 1.0
    top, low = lam
    low *= np.sign(gap, out=gap)
    # dS/d big / big and dS/d small / small; 0 where big or small vanish
    by = np.empty((2, n))
    np.add(top, low, out=by[0])
    np.subtract(top, low, out=by[1])
    by *= p
    with np.errstate(divide="ignore", invalid="ignore"):
        by /= bs
    np.copyto(by, 0.0, where=~(bs > 0))
    by *= 0.5
    return value, by


def pq_energy(p, q, n=2) -> Integrand:
    """``|A|^p / p + |d|^q / q`` on square layouts, Frobenius norm on the
    order-1 block and the determinant slot ``d``.  Requires finite ``p > n``
    and ``q > 1``; the gradient is ``(|A|^(p-2) A, |d|^(q-2) d)`` and any
    intermediate minor blocks (n = 3) receive zero weight."""
    p, q = float(p), float(q)
    n = int(n)
    if not (math.isfinite(p) and p > n):
        raise ValueError(f"need a finite p > n, got p={p}, n={n}")
    if not (math.isfinite(q) and q > 1):
        raise ValueError(f"need a finite q > 1, got q={q}")
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

    return Integrand(layout, "pq", density, coercivity_constant=1.0 / p)


def detsq_energy() -> Integrand:
    """Square of the determinant slot for 2 x 2 gradients."""

    def density(x, u, xi, gradient):
        value = xi[..., 4] ** 2
        if not gradient:
            return value
        g_xi = np.zeros_like(xi)
        g_xi[..., 4] = 2.0 * xi[..., 4]
        return value, None, g_xi

    return Integrand(MinorsLayout(2, 2), "detsq", density)


@dataclass(frozen=True)
class ConvexityReport:
    samples: int
    violations: int
    worst_gap: float
    tolerance: float


def check_convexity(F, samples, seed, tol=1e-10) -> ConvexityReport:
    """Midpoint-style convexity probe of ``F`` in its slot argument.

    Draws ``samples`` random triples (xi1, xi2, t) with slot entries uniform
    in ``[-3, 3]`` (``_PROBE_BOX``) and t uniform in (0, 1), and counts how often

        F(t xi1 + (1-t) xi2) > t F(xi1) + (1-t) F(xi2) + tol.

    Slots are sampled freely: no consistency between the order-1 block and
    the higher minors is imposed, since convexity is required in the free
    slot variable.  Triples with a non-finite value are skipped.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    tau = F.layout.tau
    xi1 = rng.uniform(-_PROBE_BOX, _PROBE_BOX, size=(samples, tau))
    xi2 = rng.uniform(-_PROBE_BOX, _PROBE_BOX, size=(samples, tau))
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


def check_coercivity(F, p, samples, seed, c=None) -> CoercivityReport:
    """Estimate the largest c with ``F(all_minors(A)) >= c |A|^p``.

    Random matrices with entries uniform in ``[-3, 3]`` (``_PROBE_BOX``) give a
    sampled lower envelope of the ratio ``F / |A|^p``; ``c_estimate`` is its
    minimum.  ``violations_at_c`` counts samples falling strictly below the
    reference bound ``c`` (the integrand's declared constant by default).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    p = float(p)
    rng = np.random.default_rng(seed)
    layout = F.layout
    a = rng.uniform(-_PROBE_BOX, _PROBE_BOX, size=(samples, layout.N, layout.n))
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
