"""Step size strategies for the boundary descent iteration.

Five interchangeable ``StepStrategy`` rules; ``run`` asks each for the
step of iteration k with one ``step`` call. Four fix their steps in
advance and answer ``step_size(k, r_inner, r_outer)``:

* ``Constant``: one fixed step.
* ``OptimalTwoMode``: the constant step 2 / (C_M + C_N) that minimizes the
  worst-case contraction over a band of error modes.
* ``ModeSweep``: rho_k = 1 / C_m visiting each band mode once, which in
  exact arithmetic removes one error mode per iteration; after the band is
  exhausted it falls back to a tail step.
* ``ExplicitSchedule``: a literal step list with the same kind of tail.

The fifth, ``Armijo``, depends on the functional along the descent ray,
so its ``step`` runs ``armijo_step``: backtracking with the sufficient
decrease test J(omega - beta*grad) <= J - xi*beta*||grad||^2, starting at
beta = 1.

C_m is the per-mode gradient factor of the annulus, strictly decreasing
in m, so 1 / C_m grows with the mode index and a "descending" sweep
(high modes first) applies the largest steps first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .spectral import DEFAULT_BAND_CAP, _require_band, gradient_factor

__all__ = [
    "Constant",
    "Armijo",
    "OptimalTwoMode",
    "ModeSweep",
    "ExplicitSchedule",
    "StepStrategy",
    "StepUnderflowError",
    "MAX_BACKTRACKS",
    "armijo_step",
    "optimal_step",
    "default_tail_rho",
]

MAX_BACKTRACKS = 60


class StepUnderflowError(RuntimeError):
    """Armijo backtracking hit the halving cap without an acceptable step."""


class StepStrategy:
    """A step rule. ``planned_rises`` counts the leading steps that may
    raise the functional by design, which ``run``'s divergence guard skips."""

    planned_rises = 0

    def step(self, k, line, j_value, grad_norm_sq, r_inner, r_outer) -> float:
        """Step of iteration k at functional ``j_value``. ``line(beta)``
        returns the functional at omega - beta*grad, one primary solve per
        call; if the last call was at the returned step, that solve is the
        next iterate's. A fixed rule ignores it and answers ``step_size``."""
        return self.step_size(k, r_inner, r_outer)


@dataclass(frozen=True)
class Constant(StepStrategy):
    rho: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError("constant step size must be positive")

    def step_size(self, k: int, r_inner: float, r_outer: float) -> float:
        return self.rho


@dataclass(frozen=True)
class Armijo(StepStrategy):
    xi: float = 1.0 / 3.0
    tau: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.xi < 0.5:
            raise ValueError("Armijo slope fraction must lie in (0, 1/2)")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("Armijo shrink factor must lie in (0, 1)")

    def step(self, k, line, j_value, grad_norm_sq, r_inner, r_outer) -> float:
        """The accepted trial, which is the last ``line`` call."""
        return armijo_step(line, j_value, grad_norm_sq, self.xi, self.tau)[0]


@dataclass(frozen=True)
class OptimalTwoMode(StepStrategy):
    mode_min: int
    mode_max: int

    def __post_init__(self):
        _require_band(self.mode_min, self.mode_max)

    def step_size(self, k: int, r_inner: float, r_outer: float) -> float:
        return optimal_step(self.mode_min, self.mode_max, r_inner, r_outer)[0]


@dataclass(frozen=True)
class ModeSweep(StepStrategy):
    mode_min: int
    mode_max: int
    direction: str = "descending"
    tail_rho: float | None = None

    def __post_init__(self):
        _require_band(self.mode_min, self.mode_max)
        if self.direction not in ("ascending", "descending"):
            raise ValueError("direction must be 'ascending' or 'descending'")
        if self.tail_rho is not None and not self.tail_rho > 0.0:
            raise ValueError("tail step size must be positive")

    @property
    def planned_rises(self) -> int:
        """Number of sweep steps, one per band mode; each may raise J."""
        return self.mode_max - self.mode_min + 1

    def step_size(self, k: int, r_inner: float, r_outer: float) -> float:
        """Step of sweep iteration ``k``.

        For k = 0 .. mode_max - mode_min the step is the exact reciprocal of
        one band mode's gradient factor, visiting modes upward or downward;
        afterwards the tail step (``default_tail_rho`` unless given) is used.
        """
        if k >= self.planned_rises:
            return self.tail_rho or default_tail_rho(r_inner, r_outer)
        mode = self.mode_min + k if self.direction == "ascending" else self.mode_max - k
        return 1.0 / gradient_factor(mode, r_inner, r_outer)


@dataclass(frozen=True)
class ExplicitSchedule(StepStrategy):
    rhos: tuple[float, ...]
    tail_rho: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "rhos", tuple(float(r) for r in self.rhos))
        if not self.rhos:
            raise ValueError("schedule needs at least one step")
        if any(not r > 0.0 for r in self.rhos):
            raise ValueError("scheduled step sizes must be positive")
        if self.tail_rho is not None and not self.tail_rho > 0.0:
            raise ValueError("tail step size must be positive")

    def step_size(self, k: int, r_inner: float, r_outer: float) -> float:
        """The ``k``-th listed step, then the tail step as in ``ModeSweep``."""
        if k >= len(self.rhos):
            return self.tail_rho or default_tail_rho(r_inner, r_outer)
        return self.rhos[k]


def armijo_step(
    evaluate: Callable[[float], float],
    j_value: float,
    grad_norm_sq: float,
    xi: float = 1.0 / 3.0,
    tau: float = 0.5,
) -> tuple[float, int]:
    """Backtracking line search for one descent step.

    ``evaluate(beta)`` must return the functional at the trial iterate
    omega - beta*grad. Returns the first beta = tau^m satisfying
    J(beta) <= j_value - xi*beta*grad_norm_sq together with the number of
    evaluations spent. Raises ``StepUnderflowError`` after
    ``MAX_BACKTRACKS`` halvings.
    """
    beta = 1.0
    for m in range(MAX_BACKTRACKS + 1):
        trial = evaluate(beta)
        if trial <= j_value - xi * beta * grad_norm_sq:
            return beta, m + 1
        beta *= tau
    raise StepUnderflowError(
        f"step size underflow: no acceptable step after {MAX_BACKTRACKS} halvings "
        f"(last trial beta = {beta / tau:.3e})"
    )


def optimal_step(
    mode_min: int, mode_max: int, r_inner: float, r_outer: float
) -> tuple[float, float]:
    """Best constant step for a band of error modes and its contraction.

    Balancing the two edge modes gives rho = 2 / (C_min + C_max) and the
    per-step contraction delta = (C_min - C_max) / (C_min + C_max); a
    single-mode band yields delta = 0, one-step convergence.
    """
    _require_band(mode_min, mode_max)
    c_lo = gradient_factor(mode_min, r_inner, r_outer)
    c_hi = gradient_factor(mode_max, r_inner, r_outer)
    rho = 2.0 / (c_lo + c_hi)
    delta = (c_lo - c_hi) / (c_lo + c_hi)
    return rho, delta


def default_tail_rho(r_inner: float, r_outer: float) -> float:
    """Tail step once a sweep or schedule has run out of steps.

    The optimal two-mode step for the widest tracked band [0, cap]; the
    cap mode's factor is negligible, so this is essentially 2 / C_0 =
    r_inner / r_outer.
    """
    return optimal_step(0, DEFAULT_BAND_CAP, r_inner, r_outer)[0]
