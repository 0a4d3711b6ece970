"""Solver configuration shared by the extremal solvers, oracle and CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .measures import ParameterError

__all__ = ["SolverConfig"]


@dataclass(frozen=True)
class SolverConfig:
    grid_n: int = 4096
    tol_eigen: float = 1e-10
    tol_res: float = 1e-6
    max_iter: int = 500
    k_atoms: int = 1
    output_dir: Path = field(default_factory=lambda: Path("."))

    def __post_init__(self):
        if self.grid_n < 16:
            raise ParameterError("grid_n must be at least 16")
        for name in ("tol_eigen", "tol_res"):
            if not (getattr(self, name) > 0.0):
                raise ParameterError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ParameterError("max_iter must be positive")
        if self.k_atoms < 1:
            raise ParameterError("k_atoms must be a positive integer")
        object.__setattr__(self, "output_dir", Path(self.output_dir))
