"""Classical optimisers for the hybrid loop.

The paper uses gradient-free COBYLA with 200+ iterations (Sec. 4.3.2, 5.2);
:class:`CobylaOptimizer` wraps :func:`scipy.optimize.minimize` with that
method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from repro.exceptions import VQEError


@dataclass
class OptimizerResult:
    """Outcome of a classical optimisation run."""

    optimal_parameters: np.ndarray
    optimal_value: float
    iterations: int
    history: list[float] = field(default_factory=list)

    @property
    def lowest_value(self) -> float:
        """Minimum objective value observed during optimisation."""
        return min(self.history) if self.history else self.optimal_value

    @property
    def highest_value(self) -> float:
        """Maximum objective value observed during optimisation."""
        return max(self.history) if self.history else self.optimal_value


class CobylaOptimizer:
    """COBYLA wrapper with evaluation-history tracking."""

    def __init__(self, max_iterations: int = 200, rhobeg: float = 0.8, tol: float = 1e-4):
        if max_iterations <= 0:
            raise VQEError(f"max_iterations must be positive, got {max_iterations}")
        self.max_iterations = int(max_iterations)
        self.rhobeg = float(rhobeg)
        self.tol = float(tol)

    def minimize(self, objective: Callable[[np.ndarray], float], x0: np.ndarray) -> OptimizerResult:
        """Minimise ``objective`` starting from ``x0``."""
        history: list[float] = []
        best_x = np.array(x0, dtype=float)
        best_val = np.inf

        def wrapped(x: np.ndarray) -> float:
            nonlocal best_x, best_val
            value = float(objective(np.asarray(x, dtype=float)))
            history.append(value)
            if value < best_val:
                best_val = value
                best_x = np.array(x, dtype=float)
            return value

        result = minimize(
            wrapped,
            np.asarray(x0, dtype=float),
            method="COBYLA",
            options={"maxiter": self.max_iterations, "rhobeg": self.rhobeg, "tol": self.tol},
        )
        # Prefer the best point seen over scipy's final iterate: with a noisy
        # (shot-sampled) objective the last iterate is not necessarily best.
        final_x = best_x if best_val <= float(result.fun) else np.asarray(result.x, dtype=float)
        final_val = min(best_val, float(result.fun))
        return OptimizerResult(
            optimal_parameters=final_x,
            optimal_value=final_val,
            iterations=len(history),
            history=history,
        )
