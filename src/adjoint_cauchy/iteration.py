"""Steepest descent on the inner boundary trace.

One iteration solves the primary mixed problem at the current trace guess,
measures the outer-circle misfit against the Dirichlet measurement,
solves the adjoint problem driven by twice the misfit, and steps the
guess against the recovered gradient:

    omega_{k+1} = omega_k - rho_k * grad_k .

The loop knows a discretisation only through the ``Backend`` protocol:
two rings, a node weight and three operations. The backends
live in ``fem`` and ``spectral``, and this module imports neither.
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

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import steps as step_rules
from .boundary import BoundaryFunction, BoundaryRing, is_count

__all__ = [
    "CauchyData",
    "SolveCounters",
    "IterationRecord",
    "StopRule",
    "RunResult",
    "DivergenceError",
    "run",
]

# Consecutive functional increases tolerated before a run is declared
# divergent. A rule's planned rises (the steps of a mode sweep, which may
# raise the functional by design) are not counted.
DIVERGENCE_PATIENCE = 5


def _finite_square_norm(values: np.ndarray) -> bool:
    """The rule for data, a start and every iterate of a run: a finite
    square norm keeps every sum a solve forms finite. An overflow is the
    answer here, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return math.isfinite(values @ values)


class DivergenceError(RuntimeError):
    """The functional kept increasing; the step size exceeds the stable range."""

    def __init__(self, message: str, history: list[IterationRecord]):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class CauchyData:
    """Measured Dirichlet trace and Neumann flux on the outer circle, each
    with a finite square norm."""

    u_bar: BoundaryFunction
    q_bar: BoundaryFunction

    def __post_init__(self):
        if self.u_bar.ring.side != "outer":
            raise ValueError("Cauchy data lives on the outer ring")
        if self.u_bar.ring != self.q_bar.ring:
            raise ValueError("Dirichlet and Neumann data must share one ring")
        for name in ("u_bar", "q_bar"):
            if not _finite_square_norm(getattr(self, name).values):
                raise ValueError(f"Cauchy data {name} has a non-finite square norm")


@dataclass(frozen=True)
class SolveCounters:
    """Totals of direct solves spent by one descent run."""

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
        if not 0.0 < self.j_tol < math.inf:
            raise ValueError("j_tol must be positive and finite")
        if not 0.0 < self.grad_eps < math.inf:
            raise ValueError("grad_eps must be positive and finite")
        if not is_count(self.max_iters) or self.max_iters < 1:
            raise ValueError(f"max_iters must be a whole number >= 1, got {self.max_iters!r}")


@dataclass
class RunResult:
    """A finished run: its records, its last iterate and its stop reason;
    everything else is read off them."""

    history: list[IterationRecord]
    omega: BoundaryFunction
    reason: str

    @property
    def converged(self) -> bool:
        return self.reason != "max_iters"

    @property
    def iterations(self) -> int:
        return len(self.history) - 1

    @property
    def counters(self) -> SolveCounters:
        last = self.history[-1]
        return SolveCounters(last.primary_solves, last.adjoint_solves, last.line_search_solves)

    @property
    def final_j(self) -> float:
        return self.history[-1].j_value


class Backend(Protocol):
    """What ``run`` needs of a discretisation.

    ``solve_primary`` maps an inner Dirichlet trace and the outer Neumann
    data to the outer trace, ``solve_adjoint`` maps outer Neumann data to
    the descent gradient on the inner ring, and ``functional`` measures a
    misfit on the outer ring. Each checks that its data live on the
    backend's rings, which carry the radii. In the inner-ring quadrature
    of node weight ``inner_weight`` the gradient is the Riesz gradient.
    """

    inner_ring: BoundaryRing
    outer_ring: BoundaryRing
    inner_weight: float

    def solve_primary(
        self, omega: BoundaryFunction, q_bar: BoundaryFunction
    ) -> BoundaryFunction: ...

    def solve_adjoint(self, neumann: BoundaryFunction) -> BoundaryFunction: ...

    def functional(self, v_trace: BoundaryFunction, u_bar: BoundaryFunction) -> float: ...


# an overflow in a run gives a non-finite value, which ``run`` checks for;
# numpy's warning would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def run(
    backend: Backend,
    data: CauchyData,
    strategy: step_rules.StepStrategy,
    stop: StopRule = StopRule(),
    omega0: BoundaryFunction | None = None,
) -> RunResult:
    """Drive the descent iteration until a stop rule fires.

    Starts from ``omega0``, whose square norm must be finite (zero trace by
    default).
    Every iterate gets one history record with cumulative solve counts;
    the terminal record carries NaN for the step and, unless the gradient
    threshold fired, for the gradient norm. Hitting ``max_iters`` returns a
    result flagged not converged rather than raising; a step to an iterate
    whose norm is not finite, a functional that is not finite, or one that
    keeps increasing past the rule's planned rises raises
    ``DivergenceError``, and no overflow warns.
    """
    if data.u_bar.ring != backend.outer_ring:
        raise ValueError("Cauchy data does not match the backend's outer ring")
    if omega0 is None:
        omega = BoundaryFunction.zeros(backend.inner_ring)
    else:
        if omega0.ring != backend.inner_ring:
            raise ValueError("omega0 does not match the backend's inner ring")
        if not _finite_square_norm(omega0.values):
            raise ValueError("omega0 has a non-finite square norm")
        omega = omega0.copy()

    radii = backend.inner_ring.radius, backend.outer_ring.radius
    primary = adjoint = line_search = 0
    history: list[IterationRecord] = []
    previous_j = math.inf
    increases = 0
    # (J, outer trace) of omega when a line trial has already solved it
    evaluation = None

    for k in range(stop.max_iters + 1):
        if evaluation is None:
            v_trace = backend.solve_primary(omega, data.q_bar)
            evaluation = backend.functional(v_trace, data.u_bar), v_trace
        primary += 1
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

        if j_value < stop.j_tol or k == stop.max_iters:
            grad_norm = math.nan
            reason = "j_tol" if j_value < stop.j_tol else "max_iters"
            break

        grad = backend.solve_adjoint(2.0 * (v_trace - data.u_bar))
        adjoint += 1
        grad_norm = math.sqrt(backend.inner_weight * float(np.dot(grad.values, grad.values)))
        if grad_norm < stop.grad_eps:
            reason = "grad_eps"
            break

        trials = []  # (beta, omega - beta*grad, (J, outer trace)) per line call

        def line(beta: float) -> float:
            candidate = omega - beta * grad
            v_trial = backend.solve_primary(candidate, data.q_bar)
            j_trial = backend.functional(v_trial, data.u_bar)
            trials.append((beta, candidate, (j_trial, v_trial)))
            return j_trial

        rho = strategy.step(k, line, j_value, grad_norm**2, *radii)
        if trials and trials[-1][0] == rho:
            _, omega, evaluation = trials.pop()
        else:
            omega, evaluation = omega - rho * grad, None
        line_search += len(trials)
        history.append(IterationRecord(k, j_value, grad_norm, rho, primary, adjoint, line_search))
        if not _finite_square_norm(omega.values):
            raise DivergenceError(
                f"the norm of iterate {k + 1} is not finite (step {rho:.6e}); "
                "the iterates overflowed",
                history,
            )

    # the terminal record: the run stopped before stepping
    history.append(IterationRecord(k, j_value, grad_norm, math.nan, primary, adjoint, line_search))
    return RunResult(history, omega, reason)
