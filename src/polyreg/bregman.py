"""Subgradient certificates and generalized Bregman distances.

For energies with a convex density on minors coordinates, the pointwise
density gradient at a base field defines a functional

    w(u) = <u0, u> + <u1, grad u> + <v2, higher minors of grad u>

that satisfies R(v) >= R(u) + w(v) - w(u) for every field v.  The associated
generalized Bregman distance

    D(v; u) = R(v) - R(u) - w(v) + w(u)

is then nonnegative and vanishes at v = u.  When v2 is identically zero the
functional is linear in u and D reduces to the classical Bregman distance:
``bregman_poly`` with such a certificate is that distance.

On the discrete side the certificate inequality is inherited cell by cell
from convexity of the density, provided the pairing uses exactly the same
cell quantities as the energy quadrature; ``poly_subgradient`` and
``pairing`` are built to match in this way.

Certificates cannot be proved over all fields numerically, so
``verify_subgradient`` samples the inequality on randomized smooth
perturbations with deterministic per-trial seeds and reports violations.
The trials are independent and the report keeps only their leftmost
minimum gap and a count, so a large check runs its trials in two processes
(this one and one forked child, each taking half) and still reports the
serial loop's bits.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (
    InfiniteEnergyError,
    MatrixField,
    _cell_means,
    _corner_sums,
    _density_pass,
    _energy_and_pairing,
    _pairing_operands,
    energy,
    random_smooth_field,
)

# Bregman gaps below minus this count as certificate violations.
_VIOLATION_TOL = 1e-8
# Trials times active cells from which a check's trials run in two processes.
# Below it the fork and the child's start cost more than the half they take:
# in medians of 7 alternating calls on a 2-vCPU Xeon, forking lost at 150K
# (32 x 32 and 64 x 64), lost or won at 200K by turns of the host's load and
# won from 250K on (at 625K, the 64 x 64 default, 38 ms against 65 ms).
_SPLIT_MIN_WORK = 200_000


@dataclass(frozen=True)
class PolySubgradient:
    """Certificate data for a generalized subgradient at ``base_point``.

    ``u0`` acts on the field itself (per node), ``u1`` on its Jacobian and
    ``v2`` on the higher minors of the Jacobian (both per cell).  With
    ``v2 == 0`` the functional is an ordinary dual element.
    """

    u0: np.ndarray
    u1: np.ndarray
    v2: np.ndarray
    base_point: MatrixField
    base_energy: float

    def __post_init__(self):
        grid = self.base_point.grid
        object.__setattr__(self, "u0", np.asarray(self.u0, dtype=float))
        object.__setattr__(self, "u1", np.asarray(self.u1, dtype=float))
        object.__setattr__(self, "v2", np.asarray(self.v2, dtype=float))
        if self.u0.shape != grid.node_shape + (2,):
            raise ValueError("u0 must hold one 2-vector per node")
        if self.u1.shape != grid.cell_shape + (2, 2):
            raise ValueError("u1 must hold one 2 x 2 matrix per cell")
        if self.v2.shape[:2] != grid.cell_shape:
            raise ValueError("v2 must hold one slot block per cell")

    @cached_property
    def active_values(self):
        """``u0`` at the active cell centers, ``u1`` flattened to 4 entries
        and ``v2``, each gathered over the active cells of the base grid:
        the fixed operands of every :func:`pairing` with this certificate."""
        grid = self.base_point.grid
        idx = grid.active_index
        return (
            _cell_means(grid, self.u0),
            self.u1.reshape(-1, 4)[idx],
            self.v2.reshape(-1, self.v2.shape[-1])[idx],
        )


@dataclass(frozen=True)
class SourceConditionParams:
    """Constants of the variational source condition.

    ``beta1`` must lie in [0, 1); ``beta2``, ``rho`` and ``alpha_bar`` must
    be finite and positive, and the sublevel-set restriction requires
    ``alpha_bar * R(minimizer) < rho``.
    """

    beta1: float
    beta2: float
    rho: float
    alpha_bar: float

    def __post_init__(self):
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must lie in [0, 1), got {self.beta1}")
        if not all(np.isfinite(v) and v > 0 for v in (self.beta2, self.rho, self.alpha_bar)):
            raise ValueError("beta2, rho and alpha_bar must be finite and positive, got "
                             f"{self.beta2}, {self.rho}, {self.alpha_bar}")

    def check_sublevel(self, minimizer_energy) -> None:
        if not self.alpha_bar * minimizer_energy < self.rho:
            raise ValueError(
                f"alpha_bar * R = {self.alpha_bar * minimizer_energy} "
                f"is not below rho = {self.rho}"
            )


def poly_subgradient(F, u) -> PolySubgradient:
    """Certificate built from the density gradient along the base field.

    Per active cell the slot gradient of ``F`` splits into the order-1 block
    (acting on the Jacobian) and the higher-minor block; the direct u part
    is averaged onto the nodes.  Requires finite energy and finite gradient
    fields; either failure raises.
    """
    _, _, base_energy, g_u, g_xi = _density_pass(u, F, gradient=True)
    grid = u.grid
    idx = grid.active_index
    layout = F.layout
    n2 = layout.N * layout.n
    u1 = np.zeros(grid.cell_shape + (2, 2))
    u1.reshape(-1, n2)[idx] = g_xi[:, :n2]
    v2 = np.zeros(grid.cell_shape + (layout.tau2,))
    v2.reshape(-1, layout.tau2)[idx] = g_xi[:, n2:]

    if g_u is None:  # no direct u dependence
        u0 = np.zeros(grid.node_shape + (2,))
    else:
        counts = _corner_sums(grid, np.ones(len(idx)))
        summed = _corner_sums(grid, g_u)
        u0 = np.where(counts[..., None] > 0, summed / np.maximum(counts, 1.0)[..., None], 0.0)
    return PolySubgradient(u0, u1, v2, base_point=u, base_energy=base_energy)


def zero_subgradient(F, u) -> PolySubgradient:
    """The zero functional as a certificate, valid wherever ``u`` is a global
    minimizer of the energy."""
    base_energy = energy(u, F)
    if not np.isfinite(base_energy):
        raise InfiniteEnergyError("cannot certify at infinite energy")
    grid = u.grid
    return PolySubgradient(
        u0=np.zeros(grid.node_shape + (2,)),
        u1=np.zeros(grid.cell_shape + (2, 2)),
        v2=np.zeros(grid.cell_shape + (F.layout.tau2,)),
        base_point=u,
        base_energy=base_energy,
    )


def bregman_poly(F, v, u, w) -> float:
    """Generalized Bregman distance R(v) - R(u) - w(v) + w(u).

    R and w of each field come from one pass of the cell kernel, equal to
    :func:`energy` and :func:`pairing` bit for bit.
    """
    return _bregman_and_pairings(F, v, u, w)[0]


def _bregman_and_pairings(F, v, u, w):
    """``(bregman_poly(F, v, u, w), w(v), w(u))``, one kernel pass per field."""
    rv, wv = _energy_and_pairing(v, F, _pairing_operands(w, v))
    ru, wu = _energy_and_pairing(u, F, _pairing_operands(w, u))
    if not (np.isfinite(rv) and np.isfinite(ru)):
        raise InfiniteEnergyError("Bregman distance undefined at infinite energy")
    return rv - ru - wv + wu, wv, wu


@dataclass(frozen=True)
class SubgradientReport:
    trials: int
    violations: int
    worst_gap: float
    tolerance: float


def _trial_gaps(F, u, operands, ru, wu, seed, radius, start, stop):
    """``(worst, violations)`` over trials ``[start, stop)``: the leftmost
    minimum of the finite-energy Bregman gaps (``inf`` if there is none)
    and the number of gaps below ``-_VIOLATION_TOL``."""
    worst = np.inf
    violations = 0
    for t in range(start, stop):
        trial_rng = np.random.default_rng([int(seed), t])
        r = radius * 10.0 ** trial_rng.uniform(-3.0, 0.0)
        if t % 8 == 7:
            r = 10.0 * radius * trial_rng.uniform(0.5, 1.0)
        phi = random_smooth_field(u.grid, rng=trial_rng, amplitude=1.0)
        v = u.with_values(u.values + r * phi.values)
        rv, wv = _energy_and_pairing(v, F, operands)
        if not np.isfinite(rv):
            continue
        gap = rv - ru - wv + wu
        worst = min(worst, gap)
        if gap < -_VIOLATION_TOL:
            violations += 1
    return worst, violations


def _run_forked_child(write_fd, run):
    """In the forked child: send ``(True, run())`` or ``(False, exception)``
    through ``write_fd`` and leave with ``os._exit``, never returning into
    the parent's stack.  An exception that would not survive the trip is
    sent as a ``RuntimeError`` naming its type and message."""
    code = 1
    try:
        try:
            payload = pickle.dumps((True, run()))
        except BaseException as exc:  # forwarded to the parent, which raises it
            try:
                payload = pickle.dumps((False, exc))
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps(
                    (False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _split_in_two_processes(run, trials):
    """``run(start, stop)`` over ``[0, trials)`` as ``run(0, trials // 2)``
    here and ``run(trials // 2, trials)`` in one forked child, combined as
    the serial loop would: leftmost minimum (this half first, so ties, and
    ``-0.0`` against ``0.0``, keep the earlier trial) and summed counts.
    The child is always reaped, and killed first if this half raises; an
    exception from the child is raised here.  Without ``os.fork``, or with
    other threads running (forking them is unsafe), all trials run here."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return run(0, trials)
    half = trials // 2
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            pid = os.fork()
        except OSError:
            os.close(write_fd)
            raise
        if pid == 0:
            _run_forked_child(write_fd, lambda: run(half, trials))
        os.close(write_fd)
        try:
            head_worst, head_violations = run(0, half)
            message = pipe.read()
        except BaseException:
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
    if not message:
        raise RuntimeError("the certificate trial process ended without a result "
                           f"(exit code {os.waitstatus_to_exitcode(status)})")
    ok, tail = pickle.loads(message)
    if not ok:
        raise tail
    tail_worst, tail_violations = tail
    return min(head_worst, tail_worst), head_violations + tail_violations


def verify_subgradient(F, w, trials, seed, radius=0.5) -> SubgradientReport:
    """Sampled check of the certificate inequality at ``w.base_point``.

    Each trial perturbs the base field by a random smooth field whose size
    is drawn log-uniformly from ``[radius / 1000, radius]`` (small radii
    expose broken linear terms, large ones the far field; every eighth
    probe uses ten times the radius) and evaluates the Bregman gap; gaps
    below ``-_VIOLATION_TOL`` count as violations.  Per-trial seeds derive
    deterministically from ``seed``, so trials are order-independent and
    reproducible.  Perturbations leaving the effective domain satisfy the
    inequality trivially and are skipped, as are all trials when the base
    energy is infinite.  ``radius`` must be finite and positive.

    R(u) and w(u) at the fixed base point are evaluated once, and the
    certificate is checked against the base grid once; each trial then
    costs one random field and one pass of the cell kernel, which gives
    both R(v) and w(v).  The gap is :func:`bregman_poly`'s expression on
    the same values, so reports equal those of calling it per trial bit for
    bit.

    After the base-point pass, a check of at least ``_SPLIT_MIN_WORK``
    trials times active cells runs its trials in two processes: this one
    takes ``[0, trials // 2)`` and one forked child ``[trials // 2,
    trials)``; a smaller one runs them all here.  Each trial draws from its
    own seed, and the halves combine as the serial loop does (the leftmost
    minimum gap, this half first, and the summed violation count), so the
    report cannot change.  An exception in either half is raised here, and
    no child outlives the call.  The child's work is invisible to tracing
    in this process: a traced run counts only this half's
    ``integrands.value`` and ``fields.random_smooth_field`` calls.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if trials == 0:
        return SubgradientReport(0, 0, 0.0, _VIOLATION_TOL)
    u = w.base_point
    operands = _pairing_operands(w, u)
    ru, wu = _energy_and_pairing(u, F, operands)
    if not np.isfinite(ru):
        return SubgradientReport(trials, 0, 0.0, _VIOLATION_TOL)

    def run(start, stop):
        return _trial_gaps(F, u, operands, ru, wu, seed, radius, start, stop)

    if trials * len(u.grid.active_index) < _SPLIT_MIN_WORK:
        worst, violations = run(0, trials)
    else:
        worst, violations = _split_in_two_processes(run, trials)
    if not np.isfinite(worst):
        worst = 0.0
    return SubgradientReport(trials, violations, float(worst), _VIOLATION_TOL)


def source_condition_residual(F, forward, w, u_dagger, u, params) -> float:
    """Left minus right side of the variational source condition at ``u``:

        w(u_dagger) - w(u) <= beta1 * D(u; u_dagger) + beta2 * ||K(u) - exact||

    Nonpositive return values mean the condition holds at ``u``.
    """
    dist, w_u, w_dagger = _bregman_and_pairings(F, u, u_dagger, w)
    rhs = params.beta1 * dist + params.beta2 * forward.residual_norm(u)
    return w_dagger - w_u - rhs
