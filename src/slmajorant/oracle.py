"""Independent brute-force maximization of the ground eigenvalue.

Certifies the extremal module at desk scale by a different route:
projected super-gradient ascent on the cell values for gamma > 1 (the
ascent direction is the tangent part of the Hellmann-Feynman gradient,
the per-cell mass of the squared ground state), and an exhaustive
single-atom position scan for gamma = 1.  A concave objective over a
convex feasible set makes any stationary point global, so the reported
KKT residual quantifies how certified the answer is.

The route differs, the steps do not: the ground solve, the single-atom
solve and scan, and the golden-section search are the extremal module's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import extremal
from .config import SolverConfig
from .eigensolver import ShootingSolution
from .extremal import POS_TOL, _atom_lam, _atom_scan, _golden_max, _ground
from .measures import ParameterError, Potential, Weight, potential_to_dict

__all__ = ["OracleResult", "brute_force_max", "atom_grid_search"]

MAX_CELLS = 256
MAX_GRID_POINTS = 10_000
ARMIJO = 0.1
MAX_HALVINGS = 30
KKT_STOP = 1e-9
STALL_KKT = 1e-3


@dataclass(frozen=True)
class OracleResult:
    M_hat: float
    q_hat: Potential
    iterations: int
    kkt_residual: float
    stalled: bool = False
    scan: tuple[tuple[float, float], ...] = ()

    def to_dict(self) -> dict:
        return {
            "M_hat": self.M_hat,
            "q_hat": potential_to_dict(self.q_hat),
            "iterations": self.iterations,
            "kkt_residual": self.kkt_residual,
            "stalled": self.stalled,
        }


def _tangent(grad, cell_r, gamma, dens) -> np.ndarray:
    """Component of the cell gradient grad orthogonal to the constraint
    gradient gamma r q^(gamma-1) at the cell values dens (least squares);
    it vanishes at a KKT point."""
    cgrad = gamma * cell_r * dens ** (gamma - 1.0)
    denom = float(np.dot(cgrad, cgrad))
    mu = float(np.dot(grad, cgrad)) / denom if denom > 0 else 0.0
    return grad - mu * cgrad


def _project(dens: np.ndarray, cell_r: np.ndarray, gamma: float) -> np.ndarray:
    """Clip to the nonnegative cone, then rescale onto the constraint set.

    The constraint integral is positively homogeneous of degree gamma, so
    q / s**(1/gamma) lands exactly on the boundary when the value is s > 1.
    """
    dens = np.maximum(dens, 0.0)
    s = float(np.dot(cell_r, dens**gamma))
    if s > 1.0:
        dens = dens * s ** (-1.0 / gamma)
    return dens


def brute_force_max(
    w: Weight, gamma: float, n_cells: int, cfg: SolverConfig | None = None
) -> OracleResult:
    """Projected gradient ascent on the cell values of a piecewise-constant
    potential, at most n_cells <= 256 cells.

    The ascent direction is the tangent part of the exact eigenvalue
    gradient (per-cell mass of y^2), and its norm relative to the
    gradient's is the KKT residual; steps use Armijo backtracking on the
    eigenvalue itself, and the feasible projection is exact scalar
    rescaling plus clipping.  The run
    is deterministic; no randomized multi-start is needed because the
    objective is concave over a convex set.
    """
    cfg = cfg or SolverConfig()
    if not (gamma > 1.0):
        raise ParameterError("the brute-force oracle requires gamma > 1")
    if not (1 <= n_cells <= MAX_CELLS):
        raise ParameterError(f"n_cells must lie in [1, {MAX_CELLS}]")
    tol = min(cfg.tol_eigen, 1e-12)
    edges = np.arange(n_cells + 1) / n_cells
    cell_r = w.cell_pow_integrals(edges)
    dens = np.full(n_cells, float(np.sum(cell_r)) ** (-1.0 / gamma))

    pot = Potential(n_cells, dens)
    lam = _ground(pot, tol)
    grad = ShootingSolution(pot, lam).cell_square_masses(edges)
    step = 1.0 / float(np.max(grad))
    # ascent along the tangent component of the eigenvalue gradient;
    # stepping along the raw gradient stalls on the radial-stationary set
    # (gradient parallel to q), which is the KKT set only at gamma = 2
    # under a constant weight
    tangent = _tangent(grad, cell_r, gamma, dens)
    stalled = False
    flat_streak = 0
    for it in range(cfg.max_iter):   # SolverConfig keeps max_iter >= 1
        iterations = it + 1
        accepted = False
        gain = 0.0
        for halving in range(MAX_HALVINGS):
            trial = _project(dens + step * tangent, cell_r, gamma)
            predicted = float(np.dot(grad, trial - dens))
            if predicted <= 0.0:
                step *= 0.5
                continue
            pot_t = Potential(n_cells, trial)
            lam_t = _ground(pot_t, tol, lam)
            gain = lam_t - lam
            if gain >= ARMIJO * predicted:
                dens, lam, pot = trial, lam_t, pot_t
                grad = ShootingSolution(pot, lam).cell_square_masses(edges)
                if halving == 0:
                    step *= 2.0
                accepted = True
                break
            step *= 0.5
        tangent = _tangent(grad, cell_r, gamma, dens)
        kkt = float(np.linalg.norm(tangent) / np.linalg.norm(grad))
        if not accepted:
            stalled = kkt > STALL_KKT
            break
        if kkt < KKT_STOP:
            break
        flat_streak = flat_streak + 1 if gain < 1e-13 * lam else 0
        if flat_streak >= 3:
            break
    return OracleResult(
        M_hat=lam,
        q_hat=pot,
        iterations=iterations,
        kkt_residual=kkt,
        stalled=stalled,
    )


def atom_grid_search(
    w: Weight, grid_points: int, cfg: SolverConfig | None = None
) -> OracleResult:
    """Exhaustive scan of the single-atom ground eigenvalue.

    Each candidate position carries the saturating mass 1/r(zeta); the best
    scan point is refined by one golden-section pass.  The KKT residual is
    a normalized central difference of the eigenvalue at the refined
    position (stationarity check).
    """
    cfg = cfg or SolverConfig()
    if not (1 <= grid_points <= MAX_GRID_POINTS):
        raise ParameterError(f"grid_points must lie in [1, {MAX_GRID_POINTS}]")
    tol = cfg.tol_eigen
    zs = (np.arange(grid_points) + 1.0) / (grid_points + 1.0)
    lams = np.array(_atom_scan(w, zs.tolist(), tol))
    best = int(np.argmax(lams))
    lo = zs[max(best - 1, 0)]
    hi = zs[min(best + 1, grid_points - 1)]
    evals = grid_points + 2   # the scan and the central difference

    def refine(z):
        nonlocal evals
        evals += 1
        return _atom_lam(w, z, tol, lams[best])

    z_hat, m_hat = _golden_max(refine, float(lo), float(hi), POS_TOL * 0.25)
    if lams[best] > m_hat:
        z_hat, m_hat = float(zs[best]), float(lams[best])
    fd_step = max(10.0 * POS_TOL, 1e-6)
    deriv = (_atom_lam(w, z_hat + fd_step, tol, m_hat)
             - _atom_lam(w, z_hat - fd_step, tol, m_hat)) / (2.0 * fd_step)
    kkt = abs(deriv) * fd_step / m_hat
    q_hat = extremal._atom_potential(w, [z_hat], [1.0], cfg.grid_n)
    return OracleResult(
        M_hat=m_hat,
        q_hat=q_hat,
        iterations=evals,
        kkt_residual=kkt,
        stalled=False,
        scan=tuple((float(z), float(l)) for z, l in zip(zs, lams)),
    )
