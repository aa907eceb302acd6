"""Minimization of the regularized registration objective.

The objective is the clamped-warp data misfit plus ``alpha`` times the
regularization energy.  Minimization uses a limited-memory quasi-Newton
method (two-loop recursion over secant pairs) with a backtracking line
search enforcing the Armijo sufficient-decrease condition, so accepted
iterates never increase the objective.

A solve stops for one of four reasons (``MinimizeResult.stop_reason``),
following the relative tests of Nocedal & Wright, *Numerical Optimization*,
ch. 3 and 7:

* ``gradient``: the gradient sup norm has fallen to ``tol`` times its value
  at the solve's own start.  The nodal gradient carries the cell area and a
  factor that shrinks with the noise level; both cancel in this ratio, so
  the test fires at the same relative accuracy on every mesh.  The same
  reason is given when the predicted decrease ``-g.d`` of the next
  quasi-Newton direction is at most ``max(tol**2, eps) * |f|``.  Near a
  minimizer ``-g.d`` is about twice the gap ``f - f*``, quadratic in the
  error where the sup norm is linear, so ``tol**2`` asks for about the same
  accuracy; and it does not depend on the start, so it also ends warm
  starts, whose small initial gradient puts ``tol * g_sup(x0)`` out of
  reach.  Before the first curvature pair the direction is the scaled
  gradient, whose ``-g.d`` carries the cell area; there the threshold is
  rounding, ``eps * |f|``, below which no line search makes progress (an
  exact minimizer is one such start).  The sup-norm test stays for
  objectives whose floor is 0, where no test relative to ``|f|`` can fire.
* ``small-decrease``: the relative objective decrease, scaled by
  ``max(1, |f|)``, stayed below ``_DECREASE_RTOL`` for five consecutive
  iterations.  On the registration problems the gradient often stalls well
  above ``tol`` times its start while the objective stops moving; this test
  ends such a solve.
* ``line-search-stall``: no step along the quasi-Newton direction or along
  the negative gradient gave sufficient decrease.
* ``budget``: ``max_iter`` iterations ran out first.

The first two count as converged.

Every line-search trial is evaluated with value and gradient together, so
the accepted trial's gradient serves the next iteration and each trial costs
one evaluation.  Infinite energy at a trial rejects it.

Everything is deterministic: no randomness enters a solve, and all
reductions run in fixed order.  The solver's inner products run in fixed
``_DOT_BLOCK``-entry slices, summed left to right, each slice one ``np.dot``.
OpenBLAS splits only longer products (over 10,000 entries) across its
threads, and such a split changes both the cost and the rounding with the
thread count; so with OpenBLAS every slice runs on the calling thread and a
solve's result does not depend on the BLAS thread count or the host's cores.
A BLAS that threads shorter dot products would not keep that promise.  Up to
``_DOT_BLOCK`` unknowns (a 64 x 64 grid) every inner product is one plain
``np.dot`` of the whole arrays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .fields import (
    InfiniteEnergyError,
    MatrixField,
    cell_center_values,
    energy,
    energy_with_gradient,
    identity_field,
    random_smooth_field,
    scatter_to_corners,
)
from .registration import _check_same_geometry

_ARMIJO = 1e-4
_SHRINK = 0.5
_DECREASE_WINDOW = 5
_DECREASE_RTOL = 1e-12  # relative decrease that counts as no progress
_START_PERTURBATION = 0.02  # sup norm of the bump on the third multi-start field
_CONVERGED = ("gradient", "small-decrease")
# Entries per inner-product slice.  It assumes that the BLAS runs a ddot of
# at most 10,000 entries on one thread, as OpenBLAS does (checked with
# OpenBLAS 0.3.31); a BLAS that threads shorter ones makes solves above
# 8192 unknowns depend on its thread count again.
_DOT_BLOCK = 8192


def _blocked_dot(a, b):
    """``a . b`` for 1-d arrays, as ``np.dot`` over ``_DOT_BLOCK``-entry
    slices summed strictly left to right; equal to ``np.dot(a, b)`` when
    the arrays fit in one slice."""
    total = np.dot(a[:_DOT_BLOCK], b[:_DOT_BLOCK])
    for i in range(_DOT_BLOCK, a.size, _DOT_BLOCK):
        total += np.dot(a[i:i + _DOT_BLOCK], b[i:i + _DOT_BLOCK])
    return total


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
        return self._evaluate(u, gradient=False)

    def objective_and_gradient(self, u):
        return self._evaluate(u, gradient=True)

    def _evaluate(self, u, gradient):
        """Objective at ``u``, with ``gradient`` also its nodal gradient; the misfit
        is ``data_term(warp(reference, u), data.image, q)`` on the initial grid.

        With the gradient, the energy pass runs first, before any misfit array
        exists: at 128² its peak then fits in the heap space the previous call
        freed, where after the warp it grew the heap for glibc to trim again.
        The terms are summed misfit first either way.
        """
        grid = u.grid
        idx = grid.active_index
        if gradient and self.alpha > 0:
            reg_value, energy_grad = energy_with_gradient(u, self.integrand)
        if gradient:
            warped, img_grad = self.reference.sample_with_gradient(u.values)
        else:
            warped = self.reference.sample(u.values)
        diff_c = cell_center_values(warped - self.data.image.samples).reshape(-1)[idx]
        value = float(grid.cell_area * np.sum(np.abs(diff_c) ** self.q))
        if not gradient:
            if self.alpha > 0:
                value += self.alpha * energy(u, self.integrand)
            return value
        # d|d|^q/dd = q |d|^(q-1) sign(d); each cell spreads 1/4 to its corners.
        slope = np.zeros(grid.cell_shape)
        slope.reshape(-1)[idx] = (
            grid.cell_area * self.q / 4.0
            * np.sign(diff_c) * np.abs(diff_c) ** (self.q - 1.0)
        )
        grad = img_grad
        grad *= scatter_to_corners(slope, grid.node_shape)[..., None]
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

    @property
    def converged(self) -> bool:
        return self.stop_reason in _CONVERGED


def _lbfgs_direction(g, s_hist, y_hist, rho_hist, gamma):
    """Two-loop recursion over at least one stored pair; ``gamma`` is
    ``s.y / y.y`` of the newest pair, the scale of the initial metric."""
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * _blocked_dot(s, q)
        alphas.append(a)
        q -= a * y
    q *= gamma
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        b = rho * _blocked_dot(y, q)
        q += (a - b) * s
    return -q


def minimize(problem, tol=3e-5, max_iter=500, memory=10) -> MinimizeResult:
    """Quasi-Newton descent on the regularized objective from ``problem.initial``.

    ``tol`` is relative: the solve stops on ``gradient`` once the gradient
    sup norm is at most ``tol`` times its value at the start, or once the
    predicted decrease of a quasi-Newton step is at most ``tol**2`` times
    ``|f|``.  Returns the last accepted iterate, which has the lowest
    objective seen, with the reason the solve stopped (see the module
    docstring).
    """
    grid = problem.initial.grid
    shape = problem.initial.values.shape

    def value_and_grad(x):
        f, g = problem.objective_and_gradient(MatrixField(grid, x.reshape(shape)))
        return f, g.ravel()

    x = problem.initial.values.ravel().copy()
    f, g = value_and_grad(x)
    evals = 1
    g_sup = float(np.max(np.abs(g))) if g.size else 0.0
    g_stop = tol * g_sup
    rounding = np.finfo(float).eps
    decrease_stop = max(tol ** 2, rounding)  # relative to |f|, once a pair is stored

    s_hist, y_hist, rho_hist = [], [], []
    gamma = None  # s.y / y.y of the newest stored pair
    recent = deque(maxlen=_DECREASE_WINDOW)
    iterations = 0

    while True:
        if g_sup <= g_stop:
            reason = "gradient"
            break
        if len(recent) == _DECREASE_WINDOW and max(recent) < _DECREASE_RTOL:
            reason = "small-decrease"
            break
        if iterations >= max_iter:
            reason = "budget"
            break

        if s_hist:
            d = _lbfgs_direction(g, s_hist, y_hist, rho_hist, gamma)
            gtd = _blocked_dot(g, d)
            if gtd >= 0.0:  # not a descent direction
                d = -g
                gtd = _blocked_dot(g, d)
        else:
            d = -g / max(1.0, g_sup)
            gtd = _blocked_dot(g, d)
        if -gtd <= (decrease_stop if s_hist else rounding) * abs(f):
            reason = "gradient"  # predicted decrease below tol**2 (rounding) of f
            break

        x_new, f_new, g_new, ls_evals = _backtrack(value_and_grad, x, f, d, gtd)
        evals += ls_evals
        if x_new is None and not np.array_equal(d, -g):
            d = -g
            x_new, f_new, g_new, ls_evals = _backtrack(
                value_and_grad, x, f, d, _blocked_dot(g, d))
            evals += ls_evals
        if x_new is None:
            reason = "line-search-stall"  # no decrease along the gradient either
            break

        s = x_new - x
        y = g_new - g
        sy = _blocked_dot(s, y)
        yy = _blocked_dot(y, y)
        # sqrt(v . v) is bit-identical to np.linalg.norm of a 1-d float array.
        if sy > 1e-12 * np.sqrt(_blocked_dot(s, s)) * np.sqrt(yy):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            gamma = sy / yy
            if len(s_hist) > memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)

        recent.append((f - f_new) / max(1.0, abs(f_new)))
        x, f, g = x_new, f_new, g_new
        g_sup = float(np.max(np.abs(g)))
        iterations += 1

    return MinimizeResult(
        u_min=MatrixField(grid, x.reshape(shape)),
        objective=float(f),
        iterations=iterations,
        grad_sup=g_sup,
        evaluations=evals,
        stop_reason=reason,
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
        x_try = x + step * d
        evals += 1
        try:
            f_try, g_try = value_and_grad(x_try)
        except InfiniteEnergyError:
            f_try = np.inf
        if np.isfinite(f_try) and f_try <= f + _ARMIJO * step * gtd:
            return x_try, f_try, g_try, evals
        step *= _SHRINK
    return None, None, None, evals


def solve_multi_start(problem, tol=3e-5, max_iter=500, memory=10, starts=3,
                      seed=0, warm_start=None) -> MinimizeResult:
    """Run ``minimize`` from up to three starting fields and keep the best.

    Starts, in order: the warm start (when given), the identity field, and
    the identity plus a small seeded smooth perturbation.  Each start poses
    ``problem`` anew, so it must have a finite objective like any initial
    field, and each solve measures its relative ``tol`` against the gradient
    at its own start.  Ties in the final objective resolve in favor of the
    earlier start, so results are deterministic.  With ``starts=1`` this is
    one ``minimize`` call from the warm start, or from the identity when
    there is none, as in the sweep's default configuration.  Only the kept
    starts are built; the perturbed one draws from its own seeded generator,
    so skipping it moves no other draw.
    """
    grid = problem.initial.grid
    candidates = []
    if warm_start is not None:
        candidates.append(warm_start)
    candidates.append(identity_field(grid))
    if len(candidates) < starts:
        bump = random_smooth_field(grid, seed=[int(seed), 977], amplitude=_START_PERTURBATION)
        candidates.append(MatrixField(grid, grid.node_points + bump.values))
    candidates = candidates[:max(1, starts)]

    best = None
    for start in candidates:
        posed = TikhonovProblem(problem.integrand, problem.reference, problem.data,
                                problem.q, problem.alpha, start)
        result = minimize(posed, tol=tol, max_iter=max_iter, memory=memory)
        if best is None or result.objective < best.objective:
            best = result
    return best
