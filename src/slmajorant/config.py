"""Solver configuration shared by the extremal solvers, oracle and CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .measures import ParameterError

__all__ = ["SolverConfig"]


def is_finite_real(val) -> bool:
    """True for a finite int or float; bool is a subclass of int, but true
    is no real number."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an int past the float range
        return False


@dataclass(frozen=True)
class SolverConfig:
    grid_n: int = 4096
    tol_eigen: float = 1e-10
    tol_res: float = 1e-6
    max_iter: int = 500
    k_atoms: int = 1
    output_dir: Path = field(default_factory=lambda: Path("."))

    def __post_init__(self):
        for name in ("grid_n", "max_iter", "k_atoms"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, int):  # true is no count
                raise ParameterError(f"{name} must be an integer, got {val!r}")
        for name in ("tol_eigen", "tol_res"):
            val = getattr(self, name)
            if not (is_finite_real(val) and val > 0.0):
                raise ParameterError(
                    f"{name} must be a positive finite real number, got {val!r}")
        if self.grid_n < 16:
            raise ParameterError("grid_n must be at least 16")
        if self.max_iter < 1:
            raise ParameterError("max_iter must be positive")
        if self.k_atoms < 1:
            raise ParameterError("k_atoms must be a positive integer")
        object.__setattr__(self, "output_dir", Path(self.output_dir))
