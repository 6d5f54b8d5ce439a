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
them from the closed-form series solution, for the three maps it needs
(Dirichlet data to outer trace, Neumann data to outer trace, Neumann data
to the gradient on the inner circle), and is exact up to the analysis band.
Each main-path iteration costs exactly one primary and one adjoint solve;
line-search trials are counted separately so solver budgets of different
step strategies can be compared. ``run`` asks a fixed-step rule for its
``step_size``; an ``Armijo`` rule instead gets its step from
``steps.armijo_step``, whose trials are extra primary solves.
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
    make_ring,
    ring_mass_apply,
    rings_compatible,
)
from .fem import (
    FourierSolver,
    assemble_stiffness,
    flux_rows,
    normal_flux,
    solve_mixed_bvp,
    trace,
)
from .fourier import band_coefficients, band_samples
from .mesh import AnnulusMesh
from .spectral import DEFAULT_BAND_CAP, FourierBoundary, solve_series

__all__ = [
    "CauchyData",
    "SolveCounters",
    "IterationRecord",
    "StopRule",
    "RunResult",
    "DivergenceError",
    "FemBackend",
    "SpectralBackend",
    "evaluate_functional",
    "gradient",
    "run",
    "write_history_csv",
]

# Consecutive functional increases tolerated before a non-line-search run
# is declared divergent.
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
    stopped before stepping; the solve counters are cumulative.
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
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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

    The stiffness stencils are assembled, and from them the direct solver
    and the inner-ring rows that recover the flux are prepared once, at
    construction; everything else is recomputed per call, so instances are
    safe to share between concurrent runs.
    """

    def __init__(self, mesh: AnnulusMesh):
        self.mesh = mesh
        stencils = assemble_stiffness(mesh)
        self.solver = FourierSolver(mesh, stencils)
        self.inner_rows = flux_rows(mesh, stencils)
        self.inner_ring = mesh.inner_ring
        self.outer_ring = mesh.outer_ring
        self.r_inner = mesh.spec.r_inner
        self.r_outer = mesh.spec.r_outer

    def solve_primary(
        self, omega: BoundaryFunction, q_bar: BoundaryFunction
    ) -> BoundaryFunction:
        field_ = solve_mixed_bvp(self.mesh, q_bar, omega, solver=self.solver)
        return trace(field_, self.outer_ring)

    def solve_adjoint(self, neumann: BoundaryFunction) -> BoundaryFunction:
        """Descent gradient: minus the inner-ring flux of the adjoint field."""
        field_ = solve_mixed_bvp(
            self.mesh,
            neumann,
            BoundaryFunction.zeros(self.inner_ring),
            solver=self.solver,
        )
        flux = normal_flux(field_, self.mesh, inner_rows=self.inner_rows)
        return BoundaryFunction(self.inner_ring, -flux.values)

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
        if max_mode < 0:
            raise ValueError("max_mode must be nonnegative")
        self.r_inner = r_inner
        self.r_outer = r_outer
        self.max_mode = min(max_mode, (n_angular - 1) // 2)
        self.inner_ring = make_ring("inner", r_inner, n_angular)
        self.outer_ring = make_ring("outer", r_outer, n_angular)

        modes = range(self.max_mode + 1)
        from_dirichlet = solve_series(
            FourierBoundary.zero(r_outer),
            FourierBoundary(dict.fromkeys(modes, 1.0), r_inner),
            r_inner,
            r_outer,
        )
        from_neumann = solve_series(
            FourierBoundary(dict.fromkeys(modes, 1.0), r_outer),
            FourierBoundary.zero(r_inner),
            r_inner,
            r_outer,
        )

        def per_mode(c: FourierBoundary) -> np.ndarray:
            return np.array([c.get(j) for j in modes])

        self.dirichlet_trace = per_mode(from_dirichlet.trace(r_outer))
        self.neumann_trace = per_mode(from_neumann.trace(r_outer))
        # gradient = -d/dn on the inner circle = +d/dr there
        self.neumann_gradient = per_mode(from_neumann.radial_derivative(r_inner))

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


def evaluate_functional(
    backend: Backend,
    omega: BoundaryFunction,
    data: CauchyData,
    counters: SolveCounters | None = None,
) -> tuple[float, BoundaryFunction]:
    """Misfit functional at ``omega`` and the outer trace that produced it.

    Costs one primary solve, booked on ``counters`` when given.
    """
    v_trace = backend.solve_primary(omega, data.q_bar)
    if counters is not None:
        counters.primary += 1
    return backend.functional(v_trace, data.u_bar), v_trace


def gradient(
    backend: Backend,
    v_trace: BoundaryFunction,
    data: CauchyData,
    counters: SolveCounters | None = None,
) -> BoundaryFunction:
    """Descent gradient from an already computed outer trace.

    Costs one adjoint solve, driven by twice the misfit.
    """
    grad = backend.solve_adjoint(2.0 * (v_trace - data.u_bar))
    if counters is not None:
        counters.adjoint += 1
    return grad


def run(
    backend: Backend,
    data: CauchyData,
    strategy: step_rules.StepStrategy,
    stop: StopRule = StopRule(),
    omega0: BoundaryFunction | None = None,
) -> RunResult:
    """Drive the descent iteration until a stop rule fires.

    Starts from ``omega0`` (zero trace by default). Every iterate gets one
    history record with cumulative solve counts; the terminal record
    carries NaN for the step and, unless the gradient threshold fired,
    for the gradient norm. Hitting ``max_iters`` returns a result flagged
    not converged rather than raising; a functional that is not finite, or
    that keeps increasing under a fixed-step strategy, raises
    ``DivergenceError``.
    """
    if not rings_compatible(data.u_bar.ring, backend.outer_ring):
        raise ValueError("Cauchy data does not match the backend's outer ring")
    if omega0 is None:
        omega = BoundaryFunction.zeros(backend.inner_ring)
    else:
        if not rings_compatible(omega0.ring, backend.inner_ring):
            raise ValueError("omega0 does not match the backend's inner ring")
        omega = omega0.copy()

    counters = SolveCounters()
    history: list[IterationRecord] = []
    line_search = isinstance(strategy, step_rules.Armijo)
    previous_j = math.inf
    increases = 0
    iterations = 0
    converged = False
    reason = "max_iters"

    for k in range(stop.max_iters + 1):
        j_value, v_trace = evaluate_functional(backend, omega, data, counters)

        if not math.isfinite(j_value):
            raise DivergenceError(
                f"functional is not finite at iteration {k} (J = {j_value}); "
                "the iterates overflowed",
                history,
            )
        if j_value > previous_j:
            increases += 1
            if not line_search and increases >= DIVERGENCE_PATIENCE:
                raise DivergenceError(
                    f"functional increased for {increases} consecutive iterations "
                    f"(J = {j_value:.6e}); the step size exceeds the stable range",
                    history,
                )
        else:
            increases = 0
        previous_j = j_value

        if j_value < stop.j_tol:
            history.append(
                _record(k, j_value, math.nan, math.nan, counters)
            )
            converged, reason = True, "j_tol"
            break
        if k == stop.max_iters:
            history.append(_record(k, j_value, math.nan, math.nan, counters))
            break

        grad = gradient(backend, v_trace, data, counters)
        grad_norm = boundary_norm(grad)
        if grad_norm < stop.grad_eps:
            history.append(_record(k, j_value, grad_norm, math.nan, counters))
            converged, reason = True, "grad_eps"
            break

        if line_search:

            def evaluate(beta: float) -> float:
                candidate_trace = backend.solve_primary(omega - beta * grad, data.q_bar)
                counters.line_search += 1
                return backend.functional(candidate_trace, data.u_bar)

            rho, _ = step_rules.armijo_step(
                evaluate, j_value, grad_norm**2, strategy.xi, strategy.tau
            )
        else:
            rho = strategy.step_size(k, backend.r_inner, backend.r_outer)
        omega = omega - rho * grad
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
