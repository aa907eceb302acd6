"""Minimization of the regularized registration objective.

The objective is the data misfit ``||reference(u) - data||^q``, the
reference image sampled at the displaced nodes (clamped to the bounding
rectangle) against the noisy data by the midpoint quadrature of
``registration._misfit``, plus, when ``alpha > 0``, ``alpha * energy(u)``.
``objective`` and ``objective_and_gradient`` share that quadrature, so they
return the same value bit for bit.  Minimization uses a limited-memory
quasi-Newton method (L-BFGS in the compact form of Byrd, Nocedal & Schnabel
over the newest ``memory`` secant pairs) with a backtracking line search
enforcing the Armijo sufficient-decrease condition, so accepted iterates
never increase the objective.

A solve stops for one of four reasons (``MinimizeResult.stop_reason``),
following the relative tests of Nocedal & Wright, *Numerical Optimization*,
ch. 3 and 7:

* ``gradient``: the gradient sup norm has fallen to ``tol`` times the
  smaller of its values at the start and at the identity.  The nodal
  gradient carries the cell area and a factor that shrinks with the noise
  level; both cancel in this ratio, so the test fires at the same relative
  accuracy on every mesh.  The identity's value makes the test independent
  of the start: a rough start, such as a coarse solve prolonged to a finer
  grid, can have a gradient a thousand times the identity's, and ``tol``
  times that can end such a solve far from the minimizer.  A start other
  than the identity costs one more evaluation for it.  The same
  reason is given when the predicted decrease ``-g.d`` of the next
  quasi-Newton direction is at most ``max(tol**2, eps) * |f|``.  Near a
  minimizer ``-g.d`` is about twice the gap ``f - f*``, quadratic in the
  error where the sup norm is linear, so ``tol**2`` asks for about the same
  accuracy; and it does not depend on the start, so it also ends warm
  starts, whose small initial gradient puts ``tol * g_sup(x0)`` out of
  reach.  Before the first curvature pair (and after a quasi-Newton
  direction that does not descend, which empties the memory) the direction
  is the scaled gradient, whose ``-g.d`` carries the cell area; there the
  threshold is rounding, ``eps * |f|``, below which no line search makes
  progress (an exact minimizer is one such start).  The sup-norm test stays for
  objectives whose floor is 0, where no test relative to ``|f|`` can fire.
* ``small-decrease``: the relative objective decrease, scaled by
  ``max(1, |f|)``, stayed below ``_DECREASE_RTOL`` for five consecutive
  iterations.  On the registration problems the gradient often stalls well
  above ``tol`` times its start while the objective stops moving; this test
  ends such a solve.
* ``line-search-stall``: no step along the search direction gave
  sufficient decrease.
* ``budget``: ``max_iter`` iterations ran out first.

The first two count as converged.

Every line-search trial is evaluated with value and gradient together, so
the accepted trial's gradient serves the next iteration and each trial costs
one evaluation.  Infinite energy at a trial rejects it.

The inverse-BFGS matrix is built from the scalar metric ``gamma * I``, with
``gamma = s.y / y.y`` of the newest pair, unless the regularizer dominates at
grid scale.  On fine grids the Hessian of the polyconvex energy behaves like
``alpha`` times a nodal Laplacian, which no scalar preconditions; so, as in
FAIR (Modersitzki 2009) and in Burger, Modersitzki & Ruthotto (SIAM J. Sci.
Comput. 35, 2013), it is then built from ``gamma * P~`` with
``P~ = M P M``, ``P = (L + c I)^-1`` on each component (``H1Metric``), ``L``
the Neumann 5-point graph Laplacian of the node grid and ``M`` the 0/1 mask
of the unknowns at nodes that touch an active cell (``H1Metric.moving``).
Nodes that touch no active cell carry no gradient, so ``P~ g = M P g`` on
every gradient, and every direction is 0 there: those nodes stay where they
start, as they do under the scalar metric.  The shift
``c = mbar * h1 * h2 / alpha`` compares the misfit's curvature per cell,
``mbar`` being the mean of ``|grad I_ref|^2`` over the domain nodes, with
the regularizer's; the metric is used when ``0 < c <= 1``
(``metric_shift``), and ``MinimizeResult.metric_shift`` reports the ``c``
used.  Where the misfit dominates the metric does not pay: forced on the
default 32 x 32 sweep (noise seed 0, c from 3.9 to 246), it takes 2,734
iterations against 2,814 without, but its solves take 1.18 to 1.27 s
against 1.09 to 1.25 s (three alternating runs each, 2-vCPU Xeon), each
iteration paying for an apply.  A cold 128 x 128 solve at the default
weight (c about 0.9) takes half the iterations with it.

The direction comes from the compact form of the inverse-BFGS matrix
(``_CompactMemory``).  Each iteration applies the metric once, to the new
gradient (``z = P~ g_new - P~ g`` and ``gamma = s.y / y.z`` need no second
apply), and passes twice over the stored pairs: one product with ``g_new``
and one combination for the direction.

Everything is deterministic: no randomness enters a solve, and all
reductions run in fixed order.  The solver's inner products run in fixed
``_DOT_BLOCK``-entry slices, summed left to right, each slice one ``np.dot``.
The product of the pair rows with a vector and their combination run in
``_DOT_BLOCK``-column slices, each one ``np.matmul`` (a BLAS matrix-vector
product); the product's slices are summed left to right, and the
combination's are disjoint parts of its result.  OpenBLAS splits only longer products (over 10,000 entries, or
columns of a matrix-vector product) across its threads, and such a split
changes both the cost and the rounding with the thread count; so with
OpenBLAS every slice runs on the calling thread and a solve's result does
not depend on the BLAS thread count or the host's cores.  A BLAS that
threads shorter products would not keep that promise.  Up to
``_DOT_BLOCK`` unknowns (a 64 x 64 grid) every inner product is one plain
``np.dot`` of the whole arrays and every product one ``np.matmul``.  The H1
metric's matmuls run through ``fields._serial_matmul``, in row blocks of at
most ``fields._GEMM_BLOCK`` multiply-adds, each one ``np.matmul``, which
OpenBLAS also runs on the calling thread; threaded, one 64 x 64 apply took
6 to 32 ms instead of 0.14 ms on a shared 2-core host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    InfiniteEnergyError,
    MatrixField,
    _serial_matmul,
    energy,
    energy_with_gradient,
)
from .registration import _check_same_geometry, _misfit

_ARMIJO = 1e-4
_SHRINK = 0.5
_DECREASE_WINDOW = 5
_DECREASE_RTOL = 1e-12  # relative decrease that counts as no progress
_CONVERGED = ("gradient", "small-decrease")
# Entries per inner-product slice, and columns per slice of the pair rows'
# products.  It assumes that the BLAS runs a ddot of at most 10,000 entries,
# and a dgemv of at most 10,000 columns, on one thread, as OpenBLAS does
# (checked with OpenBLAS 0.3.31 on a 2-core host: with 2 threads, a gemv of
# 1 to 24 rows by 8192 to 10,000 columns used no second core, took as long
# as with 1 thread and gave the same bits; from 10,001 columns on, many row
# counts used both cores); a BLAS that threads shorter ones makes solves
# above 8192 unknowns depend on its thread count again.
_DOT_BLOCK = 8192


def _blocked_dot(a, b):
    """``a . b`` for 1-d arrays, as ``np.dot`` over ``_DOT_BLOCK``-entry
    slices summed strictly left to right; equal to ``np.dot(a, b)`` when
    the arrays fit in one slice, and then just that."""
    if a.size <= _DOT_BLOCK:
        return np.dot(a, b)
    total = np.dot(a[:_DOT_BLOCK], b[:_DOT_BLOCK])
    for i in range(_DOT_BLOCK, a.size, _DOT_BLOCK):
        total += np.dot(a[i:i + _DOT_BLOCK], b[i:i + _DOT_BLOCK])
    return total


def _blocked_product(a, v):
    """``a @ v`` for a 2-d ``a`` and 1-d ``v``, as one ``np.matmul`` per
    ``_DOT_BLOCK``-column slice of ``a``, summed strictly left to right."""
    if v.size <= _DOT_BLOCK:
        return a @ v
    total = a[:, :_DOT_BLOCK] @ v[:_DOT_BLOCK]
    for i in range(_DOT_BLOCK, v.size, _DOT_BLOCK):
        total += a[:, i:i + _DOT_BLOCK] @ v[i:i + _DOT_BLOCK]
    return total


def _blocked_combination(a, c):
    """``c @ a`` for a 2-d ``a`` and 1-d ``c``, as one ``np.matmul`` per
    ``_DOT_BLOCK``-column slice of ``a``."""
    if a.shape[1] <= _DOT_BLOCK:
        return c @ a
    out = np.empty(a.shape[1])
    for i in range(0, a.shape[1], _DOT_BLOCK):
        np.matmul(c, a[:, i:i + _DOT_BLOCK], out=out[i:i + _DOT_BLOCK])
    return out


class TikhonovProblem:
    """Data misfit plus regularization at a fixed noise sample.

    Parameters
    ----------
    integrand : Integrand
        Regularization density.
    reference : ScalarImage
        Image deformed by the forward operator.
    data : NoisySample
        Target image with its noise level.
    q : float
        Misfit exponent (>= 1).
    alpha : float
        Regularization weight (>= 0; zero turns off the energy term).
    initial : MatrixField
        Starting field; must have finite objective, which witnesses that
        the feasible set is nonempty.
    """

    def __init__(self, integrand, reference, data, q, alpha, initial):
        if q < 1:
            raise ValueError(f"misfit exponent must be >= 1, got {q}")
        if alpha < 0:
            raise ValueError(f"regularization weight must be >= 0, got {alpha}")
        _check_same_geometry(initial, data.image)
        self.integrand = integrand
        self.reference = reference
        self.data = data
        self.q = float(q)
        self.alpha = float(alpha)
        self.initial = initial
        witness = self.objective(initial)
        if not np.isfinite(witness):
            raise ValueError("initial field has infinite objective; no feasible witness")

    def objective(self, u) -> float:
        diff = self.reference.sample(u.values) - self.data.image.samples
        value = float(_misfit(u.grid, diff, self.q))
        if self.alpha > 0:
            value += self.alpha * energy(u, self.integrand)
        return value

    def objective_and_gradient(self, u):
        """Objective at ``u`` and its nodal gradient.

        The energy pass runs first, before any misfit array exists: at 128²
        its peak then fits in the heap space the previous call freed, where
        after the warp it grew the heap for glibc to trim again.  The terms
        are summed misfit first, as in ``objective``.
        """
        if self.alpha > 0:
            reg_value, energy_grad = energy_with_gradient(u, self.integrand)
        warped, image_grad = self.reference.sample_with_gradient(u.values)
        value, slope = _misfit(u.grid, warped - self.data.image.samples, self.q, gradient=True)
        value = float(value)
        # the image gradient's component rows times the slope, interleaved
        # into the nodal layout as they are written
        grad = np.empty_like(u.values)
        np.multiply(image_grad.reshape(-1, 2).T, slope.reshape(-1), out=grad.reshape(-1, 2).T)
        if self.alpha > 0:
            value += self.alpha * reg_value
            energy_grad *= self.alpha
            grad += energy_grad
        return value, grad


@dataclass
class MinimizeResult:
    u_min: MatrixField
    objective: float
    iterations: int
    grad_sup: float
    evaluations: int  # value+gradient objective calls
    stop_reason: str  # gradient, small-decrease, line-search-stall or budget
    metric_shift: float | None = None  # c of the H1 initial metric; None: scalar

    @property
    def converged(self) -> bool:
        return self.stop_reason in _CONVERGED


def _neumann_eigenbasis(n):
    """Orthonormal eigenvectors (columns) and eigenvalues of the Neumann
    graph Laplacian of a path of ``n`` nodes, ``tridiag(-1, 2, -1)`` with
    1 in both corners: the cosine basis ``cos(pi k (i + 1/2) / n)`` with
    eigenvalue ``2 - 2 cos(pi k / n)``."""
    k = np.arange(n)
    basis = np.cos(np.pi * np.outer(k + 0.5, k) / n) * np.sqrt(2.0 / n)
    basis[:, 0] = np.sqrt(1.0 / n)
    return basis, 2.0 - 2.0 * np.cos(np.pi * k / n)


class H1Metric:
    """``P = (L + c I)^-1`` on both components of a nodal (nx, ny, 2) field,
    with ``L = L_x (x) I + I (x) L_y`` the Neumann 5-point graph Laplacian of
    the node grid.

    ``apply`` works in the closed-form cosine eigenbasis of ``L``: one
    matmul per axis into it, a division by ``lambda_i + lambda_j + c``, and
    one per axis back, the two components batched into each matmul.
    """

    def __init__(self, grid, shift):
        self.node_shape = grid.node_shape
        self.vx, lx = _neumann_eigenbasis(grid.nx)
        self.vy, ly = _neumann_eigenbasis(grid.ny)
        self.vx_t, self.vy_t = self.vx.T.copy(), self.vy.T.copy()
        self.inverse = 1.0 / (lx[:, None] + ly[None, :] + shift)
        # 1 at the unknowns of nodes with an active cell, 0 at the rest, which
        # the objective does not see: a direction leaves those where they are
        corners = np.zeros(grid.node_shape)
        corners.reshape(-1)[grid.active_corners.ravel()] = 1.0
        self.moving = np.repeat(corners.reshape(-1), 2)

    def apply(self, v):
        """``P v`` for the flat (nx * ny * 2) array ``v``; returns a new array."""
        nx, ny = self.node_shape
        # Index order of each result: v is [i, j, k] (x node, y node,
        # component); l and m number the x and y eigenvectors.
        a = _serial_matmul(v.reshape(nx, 2 * ny).T, self.vx)  # [j, k, l]
        a = _serial_matmul(a.reshape(ny, 2 * nx).T, self.vy)  # [k, l, m]
        a.reshape(2, nx, ny)[...] *= self.inverse
        a = _serial_matmul(a, self.vy_t)  # [k, l, j]
        a = a.reshape(2, nx, ny).transpose(2, 0, 1).reshape(2 * ny, nx)  # [j, k, l]
        return _serial_matmul(a, self.vx_t).T.ravel()  # [i, j, k]


def metric_shift(problem):
    """Shift ``c = mbar * h1 * h2 / alpha`` of the H1 initial metric for
    ``problem`` when it lies in (0, 1], else None: the scalar metric (see the
    module docstring)."""
    if problem.alpha <= 0:
        return None
    grid = problem.initial.grid
    _, image_grad = problem.reference.sample_with_gradient(grid.node_points)
    mbar = float(np.mean(np.sum(image_grad ** 2, axis=-1)[grid.nodes_in_domain]))
    shift = mbar * grid.cell_area / problem.alpha
    return shift if 0.0 < shift <= 1.0 else None


class _CompactMemory:
    """The newest ``memory`` curvature pairs in the compact form of Byrd,
    Nocedal & Schnabel (*Math. Prog.* 63, 1994; Nocedal & Wright,
    *Numerical Optimization*, section 7.2), and the inverse-BFGS direction
    they give from the initial metric ``gamma * P~``.

    ``rows`` is one (2 * memory, n) ring: rows ``2 i`` and ``2 i + 1`` hold
    ``s_i`` and ``z_i = P~ y_i`` of slot ``i``.  The small arrays are in
    oldest-first order: ``sy[i] = s_i . y_i``, ``yz[i, j] = y_i . z_j`` and
    ``r_inv``, the inverse of ``R``, the upper triangle of ``S Y^T``; the
    lower triangle of ``r_inv`` stays 0.  ``products`` holds
    ``(s_i . g, z_i . g)`` at the current gradient ``g``, oldest first.  With
    ``a = S g``, ``b = Z g`` and ``p = r_inv a`` the direction is

        ``d = -(gamma P~ g + S^T c1 + Z^T c2)``,
        ``c1 = r_inv^T (diag(sy) p + gamma (yz p - b))``, ``c2 = -gamma p``:

    one ``P~ g`` and one pass over ``rows``.  ``R`` enters only through its
    diagonal and ``r_inv``.  A new pair's column of ``R`` and of ``yz`` is
    the difference of ``products`` across its step (``z_i . y = y_i . z``,
    ``P~`` being symmetric), so only ``s.y``, ``s.s``, ``y.y`` and ``y.z`` of
    the new pair are inner products of length n.
    """

    def __init__(self, n, memory):
        self.memory = memory
        self.rows = np.zeros((2 * memory, n))
        self.sy = np.zeros(memory)
        self.yz = np.zeros((memory, memory))
        self.r_inv = np.zeros((memory, memory))
        self.gamma = None  # s.y / y.z of the newest stored pair
        self.clear()

    def clear(self):
        """Forget every pair; the next one goes to slot 0."""
        self.stored = 0
        self.newest = -1  # slot of the newest pair
        self.order = np.arange(0)  # slots, oldest first
        self.products = np.zeros((0, 2))

    def _products(self, g):
        k = self.stored
        return _blocked_product(self.rows[:2 * k], g).reshape(k, 2)[self.order]

    def direction(self, pg):
        """``-H g`` at the gradient ``g`` of the last ``update`` (or of the
        start), with ``pg = P~ g``; at least one pair must be stored."""
        k, gamma = self.stored, self.gamma
        r_inv = self.r_inv[:k, :k]
        a, b = self.products[:, 0], self.products[:, 1]
        p = r_inv @ a
        c1 = (self.sy[:k] * p + gamma * (self.yz[:k, :k] @ p - b)) @ r_inv
        coef = np.empty((k, 2))  # -c1 and -c2, in ring order
        coef[self.order, 0] = -c1
        coef[self.order, 1] = gamma * p
        d = _blocked_combination(self.rows[:2 * k], coef.reshape(-1))
        d -= gamma * pg
        return d

    def update(self, s, y, z, g):
        """Store the pair ``(s, y)``, ``z = P~ y``, unless it fails the
        curvature test, then take the products at the new gradient ``g``."""
        sy = _blocked_dot(s, y)
        yy = _blocked_dot(y, y)
        # sqrt(v . v) is bit-identical to np.linalg.norm of a 1-d float array.
        if not sy > 1e-12 * math.sqrt(_blocked_dot(s, s)) * math.sqrt(yy):
            self.products = self._products(g)
            return
        yz = yy if z is y else _blocked_dot(y, z)
        self.gamma = sy / yz
        k, before = self.stored, self.products
        if k == self.memory:  # the oldest pair leaves
            self.sy[:-1] = self.sy[1:]
            self.yz[:-1, :-1] = self.yz[1:, 1:]
            self.r_inv[:-1, :-1] = self.r_inv[1:, 1:]
            k, before = k - 1, before[1:]
        slot = (self.newest + 1) % self.memory
        self.rows[2 * slot] = s
        self.rows[2 * slot + 1] = z
        self.newest, self.stored = slot, k + 1
        self.order = np.arange(slot - k, slot + 1) % self.memory
        self.products = self._products(g)
        column = self.products[:k] - before  # (s_i . y, z_i . y)
        self.sy[k] = sy
        self.yz[:k, k] = self.yz[k, :k] = column[:, 1]
        self.yz[k, k] = yz
        self.r_inv[:k, k] = self.r_inv[:k, :k] @ column[:, 0] / -sy
        self.r_inv[k, k] = 1.0 / sy


def minimize(problem, tol=3e-5, max_iter=500, memory=10) -> MinimizeResult:
    """Quasi-Newton descent on the regularized objective from ``problem.initial``.

    ``tol`` is relative: the solve stops on ``gradient`` once the gradient
    sup norm is at most ``tol`` times the smaller of its values at the start
    and at the identity, or once the predicted decrease of a quasi-Newton
    step is at most ``tol**2`` times ``|f|``.  Returns the last accepted
    iterate, which has the lowest objective seen, with the reason the solve
    stopped (see the module docstring).
    """
    grid = problem.initial.grid
    shape = problem.initial.values.shape

    def value_and_grad(x):
        # every trial point is a new array that the solver never writes to again
        f, g = problem.objective_and_gradient(MatrixField._on(grid, x.reshape(shape)))
        return f, g.ravel()

    x = problem.initial.values.ravel().copy()
    f, g = value_and_grad(x)
    evals = 1
    g_sup = float(np.abs(g).max()) if g.size else 0.0
    g_stop = tol * g_sup
    if g.size and not np.array_equal(x, grid.node_points.ravel()):
        # not the identity: a rough start's large gradient must not set the test
        g_stop = min(g_stop, tol * float(np.abs(value_and_grad(grid.node_points)[1]).max()))
        evals += 1
    rounding = np.finfo(float).eps
    decrease_stop = max(tol ** 2, rounding)  # relative to |f|, once a pair is stored

    shift = metric_shift(problem)
    metric = None if shift is None else H1Metric(grid, shift)

    def precondition(v):
        """``P~ v = M P M v`` for a gradient ``v``, which is 0 where ``M``
        is 0; ``v`` itself under the scalar metric."""
        return v if metric is None else metric.moving * metric.apply(v)

    pg = precondition(g)
    pairs = _CompactMemory(g.size, memory)
    small_decreases = 0  # consecutive iterations below _DECREASE_RTOL
    iterations = 0

    while True:
        if g_sup <= g_stop:
            reason = "gradient"
            break
        if small_decreases == _DECREASE_WINDOW:
            reason = "small-decrease"
            break
        if iterations >= max_iter:
            reason = "budget"
            break

        if pairs.stored:
            d = pairs.direction(pg)
            gtd = float(_blocked_dot(g, d))
            if gtd >= 0.0:  # not a descent direction: start the memory afresh
                pairs.clear()
        if not pairs.stored:
            d = -g / max(1.0, g_sup)
            gtd = float(_blocked_dot(g, d))
        if -gtd <= (decrease_stop if pairs.stored else rounding) * abs(f):
            reason = "gradient"  # predicted decrease below tol**2 (rounding) of f
            break

        x_new, f_new, g_new, ls_evals = _backtrack(value_and_grad, x, f, d, gtd)
        evals += ls_evals
        if x_new is None:
            reason = "line-search-stall"
            break

        pg_new = precondition(g_new)
        y = g_new - g
        pairs.update(x_new - x, y, y if metric is None else pg_new - pg, g_new)

        decrease = (f - f_new) / max(1.0, abs(f_new))
        small_decreases = small_decreases + 1 if decrease < _DECREASE_RTOL else 0
        x, f, g, pg = x_new, f_new, g_new, pg_new
        g_sup = float(np.abs(g).max())
        iterations += 1

    return MinimizeResult(
        u_min=MatrixField(grid, x.reshape(shape)),
        objective=float(f),
        iterations=iterations,
        grad_sup=g_sup,
        evaluations=evals,
        stop_reason=reason,
        metric_shift=shift,
    )


def _backtrack(value_and_grad, x, f, d, gtd):
    """Armijo backtracking along ``d``, with ``gtd`` the slope ``g . d`` at
    ``x``; returns (point, value, gradient, evaluations).

    Every trial ``x + step * d`` is evaluated with ``value_and_grad``; the
    point is the accepted trial, returned with its gradient, or None when no
    step gave sufficient decrease.  A trial at infinite energy is rejected;
    an ``UnboundedGradientError`` propagates.
    """
    step = 1.0
    evals = 0
    while step > 1e-20:
        x_try = x + d if step == 1.0 else x + step * d  # 1.0 * d is d, bit for bit
        evals += 1
        try:
            f_try, g_try = value_and_grad(x_try)
        except InfiniteEnergyError:
            f_try = math.inf
        if math.isfinite(f_try) and f_try <= f + _ARMIJO * step * gtd:
            return x_try, f_try, g_try, evals
        step *= _SHRINK
    return None, None, None, evals


def solve_multi_start(problem, tol, max_iter, memory) -> MinimizeResult:
    """``minimize`` from ``problem.initial``: the one call every level solve of
    ``rates.solve_level`` goes through.

    It is the benchmark's hook for counting the kept solves, until the
    benchmark reads the ``RateRow`` of ``rates.solve_level`` (ROADMAP item 1b).
    """
    return minimize(problem, tol=tol, max_iter=max_iter, memory=memory)
