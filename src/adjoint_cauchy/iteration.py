"""Steepest descent on the inner boundary trace.

One iteration solves the primary mixed problem at the current trace guess,
measures the outer-circle misfit against the Dirichlet measurement,
solves the adjoint problem driven by twice the misfit, and steps the
guess against the recovered gradient:

    omega_{k+1} = omega_k - rho_k * grad_k .

Both backends expose the same three operations and prepare a per-mode
response once, at construction, so that each solve is an ``rfft``, a
product per mode and an ``irfft``. The finite element one works on a mesh
and reads its responses off the stiffness stencils; the spectral one takes
them from the closed-form series solution as arrays of modes 0..M in
``rfft`` layout, for the three maps it needs (Dirichlet data to outer
trace, Neumann data to outer trace, Neumann data to the gradient on the
inner circle), and is exact up to the analysis band.
Each iteration costs exactly one primary and one adjoint solve, so a run
of k iterations books k + 1 primary and k adjoint solves; line-search
trials are counted separately so solver budgets of different step
strategies can be compared. ``run`` asks every rule for its step with one
``strategy.step`` call and hands it ``line(beta)``, which solves for the
functional at omega - beta*grad. A fixed rule never calls it; ``Armijo``
calls it once per trial. If the last trial was taken at the step the rule
returns, it has solved the primary problem at the next iterate, so that
solve is kept and booked as the next iterate's primary solve; every other
trial counts as a line-search solve.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from . import steps as step_rules
from .boundary import (
    BoundaryFunction,
    BoundaryRing,
    boundary_norm,
    is_count,
    ring_mass_apply,
    rings_compatible,
)
from .fem import FourierSolver, normal_flux, solve_mixed_bvp, trace
from .fourier import band_coefficients, band_samples
from .mesh import AnnulusMesh
from .spectral import DEFAULT_BAND_CAP, solve_series

__all__ = [
    "CauchyData",
    "SolveCounters",
    "IterationRecord",
    "StopRule",
    "RunResult",
    "DivergenceError",
    "FemBackend",
    "SpectralBackend",
    "run",
    "write_history_csv",
]

# Consecutive functional increases tolerated before a run is declared
# divergent. A rule's planned rises (the steps of a mode sweep, which may
# raise the functional by design) are not counted.
DIVERGENCE_PATIENCE = 5


class DivergenceError(RuntimeError):
    """The functional kept increasing; the step size exceeds the stable range."""

    def __init__(self, message: str, history: list[IterationRecord]):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class CauchyData:
    """Measured Dirichlet trace and Neumann flux on the outer circle."""

    u_bar: BoundaryFunction
    q_bar: BoundaryFunction

    def __post_init__(self):
        if self.u_bar.ring.side != "outer":
            raise ValueError("Cauchy data lives on the outer ring")
        if not rings_compatible(self.u_bar.ring, self.q_bar.ring):
            raise ValueError("Dirichlet and Neumann data must share one ring")
        for name in ("u_bar", "q_bar"):
            if not np.isfinite(getattr(self, name).values).all():
                raise ValueError(f"Cauchy data {name} has a non-finite value")


@dataclass
class SolveCounters:
    """Running totals of direct solves spent by one descent run."""

    primary: int = 0
    adjoint: int = 0
    line_search: int = 0

    @property
    def total(self) -> int:
        return self.primary + self.adjoint + self.line_search


@dataclass(frozen=True)
class IterationRecord:
    """State of the run after evaluating iterate k.

    ``rho`` and ``grad_norm`` are NaN on a terminal record where the run
    stopped before stepping; the solve counters are cumulative. Record k
    counts k + 1 primary solves, one per iterate so far, and the rejected
    line-search trials of steps 0..k. A trial taken at step k's ``rho``
    (``Armijo``'s accepted one) is iterate k + 1's primary solve, so
    record k + 1 counts it, not record k.
    """

    k: int
    j_value: float
    grad_norm: float
    rho: float
    primary_solves: int
    adjoint_solves: int
    line_search_solves: int


@dataclass(frozen=True)
class StopRule:
    """Stopping thresholds: functional value, gradient norm, iteration cap."""

    j_tol: float = 1e-5
    grad_eps: float = 1e-12
    max_iters: int = 200

    def __post_init__(self):
        if not self.j_tol > 0.0:
            raise ValueError("j_tol must be positive")
        if not self.grad_eps > 0.0:
            raise ValueError("grad_eps must be positive")
        if not is_count(self.max_iters) or self.max_iters < 1:
            raise ValueError(f"max_iters must be a whole number >= 1, got {self.max_iters!r}")


@dataclass
class RunResult:
    history: list[IterationRecord]
    omega: BoundaryFunction
    converged: bool
    reason: str
    counters: SolveCounters
    iterations: int

    @property
    def final_j(self) -> float:
        return self.history[-1].j_value


@runtime_checkable
class Backend(Protocol):
    r_inner: float
    r_outer: float
    inner_ring: BoundaryRing
    outer_ring: BoundaryRing

    def solve_primary(
        self, omega: BoundaryFunction, q_bar: BoundaryFunction
    ) -> BoundaryFunction: ...

    def solve_adjoint(self, neumann: BoundaryFunction) -> BoundaryFunction: ...

    def functional(self, v_trace: BoundaryFunction, u_bar: BoundaryFunction) -> float: ...


class FemBackend:
    """Finite element solves on a fixed annulus mesh.

    The ``FourierSolver``, which holds the per-mode responses and the
    inner-ring flux rows, is prepared once, at construction; everything
    else is recomputed per call, so instances are safe to share between
    concurrent runs.
    """

    def __init__(self, mesh: AnnulusMesh):
        self.solver = FourierSolver(mesh)
        self.inner_ring = mesh.inner_ring
        self.outer_ring = mesh.outer_ring
        self.r_inner = mesh.spec.r_inner
        self.r_outer = mesh.spec.r_outer

    def solve_primary(
        self, omega: BoundaryFunction, q_bar: BoundaryFunction
    ) -> BoundaryFunction:
        return trace(solve_mixed_bvp(self.solver, q_bar, omega), self.outer_ring)

    def solve_adjoint(self, neumann: BoundaryFunction) -> BoundaryFunction:
        """Descent gradient: minus the inner-ring flux of the adjoint field."""
        field_ = solve_mixed_bvp(self.solver, neumann, BoundaryFunction.zeros(self.inner_ring))
        return BoundaryFunction(self.inner_ring, -normal_flux(field_, self.solver).values)

    def functional(self, v_trace: BoundaryFunction, u_bar: BoundaryFunction) -> float:
        """Piecewise-linear boundary quadrature of |v - u_bar|^2.

        Uses the same ring mass as the Neumann load, so the adjoint
        gradient differentiates exactly this discrete value. An overflow
        gives a non-finite value silently; ``run`` raises on it.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            misfit = v_trace.values - u_bar.values
            return float(misfit @ ring_mass_apply(self.outer_ring, misfit))


class SpectralBackend:
    """Fourier-space solves on nominal rings of equispaced nodes.

    At construction, ``solve_series`` is run once on unit coefficients to
    get, for modes ``0..max_mode`` in ``rfft`` layout, the outer trace of
    unit Dirichlet data (``dirichlet_trace``) and of unit Neumann data
    (``neumann_trace``), and the inner radial derivative of unit Neumann
    data (``neumann_gradient``). A solve is then a product per mode between
    ``band_coefficients`` and ``band_samples``. Data must live on the
    backend's own rings.
    """

    def __init__(
        self,
        r_inner: float,
        r_outer: float,
        n_angular: int = 160,
        max_mode: int = DEFAULT_BAND_CAP,
    ):
        if not (0.0 < r_inner < r_outer):
            raise ValueError("radii must satisfy 0 < r_inner < r_outer")
        if not is_count(max_mode) or max_mode < 0:
            raise ValueError(f"max_mode must be a whole number >= 0, got {max_mode!r}")
        self.r_inner = r_inner
        self.r_outer = r_outer
        self.max_mode = min(max_mode, (n_angular - 1) // 2)
        self.inner_ring = BoundaryRing("inner", r_inner, n_angular)
        self.outer_ring = BoundaryRing("outer", r_outer, n_angular)

        ones, zeros = np.ones(self.max_mode + 1), np.zeros(self.max_mode + 1)
        from_dirichlet = solve_series(zeros, ones, r_inner, r_outer)
        from_neumann = solve_series(ones, zeros, r_inner, r_outer)
        self.dirichlet_trace = from_dirichlet.trace(r_outer)
        self.neumann_trace = from_neumann.trace(r_outer)
        # gradient = -d/dn on the inner circle = +d/dr there
        self.neumann_gradient = from_neumann.radial_derivative(r_inner)

    def _require_ring(self, f: BoundaryFunction, ring: BoundaryRing) -> None:
        if not rings_compatible(f.ring, ring):
            raise ValueError(f"data must live on the backend's {ring.side} ring")

    def solve_primary(
        self, omega: BoundaryFunction, q_bar: BoundaryFunction
    ) -> BoundaryFunction:
        self._require_ring(omega, self.inner_ring)
        self._require_ring(q_bar, self.outer_ring)
        modes = self.dirichlet_trace * band_coefficients(omega.values, self.max_mode)
        modes += self.neumann_trace * band_coefficients(q_bar.values, self.max_mode)
        return BoundaryFunction(self.outer_ring, band_samples(modes, self.outer_ring.size))

    def solve_adjoint(self, neumann: BoundaryFunction) -> BoundaryFunction:
        # the driver 2(v - u_bar) is band-limited up to roundoff noise;
        # unresolvable user data is already diagnosed by solve_primary
        self._require_ring(neumann, self.outer_ring)
        modes = self.neumann_gradient * band_coefficients(
            neumann.values, self.max_mode, warn_tail=False
        )
        return BoundaryFunction(self.inner_ring, band_samples(modes, self.inner_ring.size))

    def functional(self, v_trace: BoundaryFunction, u_bar: BoundaryFunction) -> float:
        """Squared L2 norm over the outer circle of the misfit's band,
        2*pi*R * (|a_0|^2 + 2 * sum_{j >= 1} |a_j|^2). An overflow gives a
        non-finite value silently; ``run`` raises on it."""
        self._require_ring(v_trace, self.outer_ring)
        self._require_ring(u_bar, self.outer_ring)
        with np.errstate(over="ignore", invalid="ignore"):
            # near convergence the misfit is pure roundoff, so skip the tail warning
            misfit = band_coefficients(
                v_trace.values - u_bar.values, self.max_mode, warn_tail=False
            )
            power = np.abs(misfit) ** 2
            return float(2.0 * math.pi * self.r_outer * (power[0] + 2.0 * power[1:].sum()))


def run(
    backend: Backend,
    data: CauchyData,
    strategy: step_rules.StepStrategy,
    stop: StopRule = StopRule(),
    omega0: BoundaryFunction | None = None,
) -> RunResult:
    """Drive the descent iteration until a stop rule fires.

    Starts from ``omega0``, which must be finite (zero trace by default).
    Every iterate gets one history record with cumulative solve counts;
    the terminal record carries NaN for the step and, unless the gradient
    threshold fired, for the gradient norm. Hitting ``max_iters`` returns a
    result flagged not converged rather than raising; a functional that is
    not finite, or that keeps increasing past the rule's planned rises,
    raises ``DivergenceError``.
    """
    if not rings_compatible(data.u_bar.ring, backend.outer_ring):
        raise ValueError("Cauchy data does not match the backend's outer ring")
    if omega0 is None:
        omega = BoundaryFunction.zeros(backend.inner_ring)
    else:
        if not rings_compatible(omega0.ring, backend.inner_ring):
            raise ValueError("omega0 does not match the backend's inner ring")
        if not np.isfinite(omega0.values).all():
            raise ValueError("omega0 has a non-finite value")
        omega = omega0.copy()

    counters = SolveCounters()
    history: list[IterationRecord] = []
    previous_j = math.inf
    increases = 0
    iterations = 0
    converged = False
    reason = "max_iters"
    # (J, outer trace) of omega when a line trial has already solved it
    evaluation = None

    for k in range(stop.max_iters + 1):
        if evaluation is None:
            v_trace = backend.solve_primary(omega, data.q_bar)
            evaluation = backend.functional(v_trace, data.u_bar), v_trace
        counters.primary += 1
        j_value, v_trace = evaluation

        if not math.isfinite(j_value):
            raise DivergenceError(
                f"functional is not finite at iteration {k} (J = {j_value}); "
                "the iterates overflowed",
                history,
            )
        # iterate k is the result of step k - 1
        if j_value > previous_j and k > strategy.planned_rises:
            increases += 1
            if increases >= DIVERGENCE_PATIENCE:
                raise DivergenceError(
                    f"functional increased for {increases} consecutive iterations "
                    f"(J = {j_value:.6e}); the step size exceeds the stable range",
                    history,
                )
        else:
            increases = 0
        previous_j = j_value

        if j_value < stop.j_tol:
            history.append(_record(k, j_value, math.nan, math.nan, counters))
            converged, reason = True, "j_tol"
            break
        if k == stop.max_iters:
            history.append(_record(k, j_value, math.nan, math.nan, counters))
            break

        grad = backend.solve_adjoint(2.0 * (v_trace - data.u_bar))
        counters.adjoint += 1
        grad_norm = boundary_norm(grad)
        if grad_norm < stop.grad_eps:
            history.append(_record(k, j_value, grad_norm, math.nan, counters))
            converged, reason = True, "grad_eps"
            break

        trials = []  # (beta, omega - beta*grad, (J, outer trace)) per line call

        def line(beta: float) -> float:
            candidate = omega - beta * grad
            v_trial = backend.solve_primary(candidate, data.q_bar)
            j_trial = backend.functional(v_trial, data.u_bar)
            trials.append((beta, candidate, (j_trial, v_trial)))
            return j_trial

        rho = strategy.step(k, line, j_value, grad_norm**2, backend.r_inner, backend.r_outer)
        if trials and trials[-1][0] == rho:
            _, omega, evaluation = trials.pop()
        else:
            omega, evaluation = omega - rho * grad, None
        counters.line_search += len(trials)
        history.append(_record(k, j_value, grad_norm, rho, counters))
        iterations += 1

    return RunResult(history, omega, converged, reason, counters, iterations)


def _record(
    k: int, j_value: float, grad_norm: float, rho: float, counters: SolveCounters
) -> IterationRecord:
    return IterationRecord(
        k=k,
        j_value=j_value,
        grad_norm=grad_norm,
        rho=rho,
        primary_solves=counters.primary,
        adjoint_solves=counters.adjoint,
        line_search_solves=counters.line_search,
    )


def write_history_csv(history: list[IterationRecord], path: str | Path) -> Path:
    """Dump iteration records with full-precision floats."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k", "J", "grad_norm", "rho", "primary_solves", "adjoint_solves", "line_search_solves"]
        )
        for rec in history:
            writer.writerow(
                [
                    rec.k,
                    format(rec.j_value, ".17g"),
                    format(rec.grad_norm, ".17g"),
                    format(rec.rho, ".17g"),
                    rec.primary_solves,
                    rec.adjoint_solves,
                    rec.line_search_solves,
                ]
            )
    return path
