"""Noise-level sweep: parameter choice, rate measurement, slope fitting.

A rate experiment solves the regularized registration problem across a
geometric ladder of noise levels, with the regularization weight tied to the
noise by an a-priori rule (``alpha0 * delta**(q-1)`` for q > 1), and records
the generalized Bregman distance to the exact solution together with the
data residual.  Least-squares slopes of log-distance against log-noise then
estimate the observed convergence order; a slope near one matches the
predicted linear rate, and steeper slopes with monotone distances are
reported as superlinear rather than as failures.

Levels run from the largest noise downward, one solve each, so each can
warm-start from its predecessor; the first starts from the identity.  The
noise-free exact row warm-starts from the last level at the smallest level's
weight, so it too is a regularized minimizer (for the default rotation
density and zero certificate, the exact solution itself).  With fixed seeds
the sweep is fully deterministic and two runs produce byte-identical reports.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .bregman import bregman_poly, source_condition_residual, verify_subgradient
from .fields import energy, identity_field, random_smooth_field
from .registration import add_noise, admissibility_gap, data_term, warp
from .solver import TikhonovProblem, solve_multi_start

# Certificate sampling that every sweep runs before its first solve.
_PRECHECK_TRIALS = 24
_PRECHECK_RADIUS = 0.25
_PRECHECK_SEED = 2024


def choose_alpha(delta, q, alpha0, epsilon=0.5, beta2=None) -> float:
    """A-priori regularization weight for noise level ``delta``.

    For q > 1 the rule is ``alpha0 * delta**(q-1)``; for q = 1 it is
    ``alpha0 * delta**epsilon`` with ``epsilon`` in [0, 1), where the flat
    choice ``epsilon = 0`` additionally requires ``0 < alpha0 * beta2 < 1``.
    """
    delta = float(delta)
    q = float(q)
    if delta <= 0:
        raise ValueError("noise level must be positive")
    if q < 1:
        raise ValueError("misfit exponent must be >= 1")
    if q > 1:
        return float(alpha0) * delta ** (q - 1.0)
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    if epsilon == 0.0:
        if beta2 is None or not 0.0 < alpha0 * beta2 < 1.0:
            raise ValueError(
                "flat rule (q = 1, epsilon = 0) requires 0 < alpha0 * beta2 < 1"
            )
    return float(alpha0) * delta ** epsilon


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r2: float
    deltas: tuple


def fit_slope(rows) -> SlopeFit:
    """Ordinary least squares on (log delta, log value).

    ``rows`` is a sequence of (delta, value) pairs; values must be positive
    and at least three are required.
    """
    pts = [(float(d), float(v)) for d, v in rows if v > 0]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 positive rows to fit, got {len(pts)}")
    x = np.log([d for d, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - np.mean(y)
    ss_tot = float(np.dot(total, total))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.dot(resid, resid)) / ss_tot
    return SlopeFit(float(slope), float(intercept), r2, tuple(d for d, _ in pts))


@dataclass(frozen=True)
class RateRow:
    delta: float
    alpha: float
    seed: int
    d_poly: float
    residual: float
    objective: float
    iterations: int
    converged: bool
    energy: float
    wallclock: float
    admissibility_gap: float  # how far the solution leaves the domain
    exact: bool = False


@dataclass
class RateReport:
    rows: list
    d_poly_fit: SlopeFit | None
    residual_fit: SlopeFit | None
    d_poly_fit_full: SlopeFit | None
    residual_fit_full: SlopeFit | None
    d_poly_monotone: bool
    warnings: list = field(default_factory=list)
    excluded_rows: int = 0

    def to_csv_text(self) -> str:
        lines = ["delta,alpha,seed,D_poly,residual,objective,iters,converged"]
        for r in self.rows:
            lines.append(
                f"{float(r.delta)!r},{float(r.alpha)!r},{r.seed},"
                f"{float(r.d_poly)!r},{float(r.residual)!r},{float(r.objective)!r},"
                f"{r.iterations},{'true' if r.converged else 'false'}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(self.to_csv_text())

    def slopes_dict(self) -> dict:
        def unpack(fit):
            if fit is None:
                return None
            return {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "r2": fit.r2,
                "deltas": list(fit.deltas),
            }

        return {
            "d_poly": unpack(self.d_poly_fit),
            "residual": unpack(self.residual_fit),
            "d_poly_full_range": unpack(self.d_poly_fit_full),
            "residual_full_range": unpack(self.residual_fit_full),
            "d_poly_monotone": self.d_poly_monotone,
            "excluded_rows": self.excluded_rows,
            "warnings": list(self.warnings),
        }

    def write_slopes(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.slopes_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass
class RateExperiment:
    """Everything needed to sweep the noise ladder.

    ``deltas`` are the positive noise levels (any order; the sweep runs them
    descending).  ``w`` is the certificate at the exact solution
    ``u_dagger``.  The fit uses the ``fit_levels`` smallest levels.  When
    ``exact_row`` is set, a final noise-free solve at the smallest level's
    weight is appended as a sanity row, excluded from all fits.  Before the
    first solve the sweep samples the certificate inequality, and the source
    condition when ``source_params`` is given, and stops on a violation.
    """

    integrand: object
    forward: object              # ForwardModel: reference, exact data, q
    u_dagger: object
    w: object
    deltas: list
    alpha0: float
    epsilon: float = 0.5
    seeds: tuple = (0,)
    source_params: object = None
    solver_tol: float = 3e-5
    solver_max_iter: int = 4000
    solver_memory: int = 12
    fit_levels: int = 4
    exact_row: bool = True


def _precheck(exp) -> None:
    report = verify_subgradient(
        exp.integrand, exp.w, trials=_PRECHECK_TRIALS,
        seed=_PRECHECK_SEED, radius=_PRECHECK_RADIUS,
    )
    if report.violations:
        raise ValueError(
            f"certificate failed sampling: {report.violations} violations, "
            f"worst gap {report.worst_gap:.3e}"
        )
    if exp.source_params is not None:
        exp.source_params.check_sublevel(exp.w.base_energy)
        grid = exp.u_dagger.grid
        for t in range(8):
            rng = np.random.default_rng([_PRECHECK_SEED, 61, t])
            probe = random_smooth_field(grid, rng=rng, amplitude=0.05)
            u = exp.u_dagger.with_values(0.95 * exp.u_dagger.values + probe.values)
            resid = source_condition_residual(
                exp.integrand, exp.forward, exp.w, exp.u_dagger, u, exp.source_params
            )
            if resid > 1e-9:
                raise ValueError(f"source condition violated at a probe: {resid:.3e}")


def solve_level(exp, delta, seed, warm_start=None, *, weight_delta=None):
    """One regularized solve at noise level ``delta``.

    Draws the noisy data with ``seed``, picks the weight by the a-priori
    rule at ``weight_delta`` (default ``delta``; ``alpha = 0`` at zero: the
    exact, unregularized solve) and solves once from ``warm_start``, or from
    the identity when there is none.  Returns ``(sample, alpha, result)``.
    """
    q = exp.forward.q
    sample = add_noise(exp.forward.exact_data, delta, q, seed)
    weight_delta = delta if weight_delta is None else weight_delta
    alpha = 0.0
    if weight_delta > 0:
        alpha = choose_alpha(
            weight_delta, q, exp.alpha0, exp.epsilon,
            beta2=None if exp.source_params is None else exp.source_params.beta2,
        )
    start = identity_field(exp.u_dagger.grid) if warm_start is None else warm_start
    problem = TikhonovProblem(exp.integrand, exp.forward.reference, sample, q, alpha, start)
    result = solve_multi_start(problem, tol=exp.solver_tol, max_iter=exp.solver_max_iter,
                               memory=exp.solver_memory)
    return sample, alpha, result


def run_rates(exp) -> RateReport:
    """Execute the sweep and fit the observed convergence orders.

    Rows from non-converged solves are kept in the report but flagged and
    excluded from the fits; fits are attempted whenever at least three
    usable rows remain.
    """
    levels = sorted(set(float(d) for d in exp.deltas), reverse=True)
    if not all(d > 0 for d in levels):
        raise ValueError(f"noise levels must be positive, got {levels}")
    _precheck(exp)
    rows = []
    warm = None
    for delta in levels:
        best_of_level = None
        for seed in exp.seeds:
            started = time.perf_counter()
            sample, alpha, result = solve_level(exp, delta, seed, warm)
            rows.append(_make_row(exp, sample, alpha, seed, result, started))
            if best_of_level is None or result.objective < best_of_level.objective:
                best_of_level = result
        warm = best_of_level.u_min

    if exp.exact_row:
        started = time.perf_counter()
        seed = exp.seeds[0]
        sample, alpha, result = solve_level(exp, 0.0, seed, warm, weight_delta=levels[-1])
        rows.append(_make_row(exp, sample, alpha, seed, result, started, exact=True))

    return _assemble_report(exp, rows)


def _make_row(exp, sample, alpha, seed, result, started, exact=False) -> RateRow:
    dist = bregman_poly(exp.integrand, result.u_min, exp.u_dagger, exp.w)
    residual = data_term(
        warp(exp.forward.reference, result.u_min), sample.image, exp.forward.q
    ) ** (1.0 / exp.forward.q)
    return RateRow(
        delta=sample.delta,
        alpha=float(alpha),
        seed=int(seed),
        d_poly=float(dist),
        residual=float(residual),
        objective=float(result.objective),
        iterations=result.iterations,
        converged=result.converged,
        energy=energy(result.u_min, exp.integrand),
        wallclock=time.perf_counter() - started,
        admissibility_gap=admissibility_gap(result.u_min),
        exact=exact,
    )


def _assemble_report(exp, rows) -> RateReport:
    usable = [r for r in rows if not r.exact and r.converged]
    excluded = sum(1 for r in rows if not r.exact and not r.converged)
    warnings = []
    if excluded:
        warnings.append(f"{excluded} non-converged rows excluded from fits")

    levels = sorted(set(r.delta for r in usable))
    fit_deltas = set(levels[:exp.fit_levels])
    window = [r for r in usable if r.delta in fit_deltas]

    def try_fit(selected, key, label):
        pairs = [(r.delta, getattr(r, key)) for r in selected]
        try:
            return fit_slope(pairs)
        except ValueError as err:
            warnings.append(f"{label}: {err}")
            return None

    d_fit = try_fit(window, "d_poly", "distance fit")
    r_fit = try_fit(window, "residual", "residual fit")
    d_full = try_fit(usable, "d_poly", "distance fit (full range)")
    r_full = try_fit(usable, "residual", "residual fit (full range)")

    means = [np.mean([r.d_poly for r in usable if r.delta == lv]) for lv in levels]
    monotone = all(a <= b * (1.0 + 1e-9) for a, b in zip(means, means[1:]))
    if d_fit is not None and d_fit.slope > 1.2 and monotone:
        warnings.append(
            f"distance slope {d_fit.slope:.3f} exceeds 1.2 with monotone values: "
            "superlinear decay, consistent with the linear-rate bound"
        )
    return RateReport(
        rows=rows,
        d_poly_fit=d_fit,
        residual_fit=r_fit,
        d_poly_fit_full=d_full,
        residual_fit_full=r_full,
        d_poly_monotone=monotone,
        warnings=warnings,
        excluded_rows=excluded,
    )


def geometric_levels(delta0, k_min=1, k_max=7) -> list:
    """Noise ladder ``delta0 * 2**(-k)`` for k = k_min..k_max."""
    if k_max < k_min:
        raise ValueError("empty level range")
    return [float(delta0) * 2.0 ** (-k) for k in range(k_min, k_max + 1)]
