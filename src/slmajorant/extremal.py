"""Maximization of the ground Dirichlet eigenvalue over the potential ball.

For gamma > 1 the unique maximizer is the fixed point of the best-response
map Phi(y) = (y^2/r)^(1/(gamma-1)) / normalization, which simultaneously
is the conditional-gradient direction of the concave objective; a damped
iteration q <- (1 - tau) q + tau Phi(y) climbs while tau is small enough.
tau halves at each drop of the eigenvalue, so the climb is monotone only
down to DAMPING_FLOOR: on large balls and for gamma near 1 the eigenvalue
still drops there, and such a drop ends the iteration, non-converged.

For gamma = 1 the characterization says that q is supported where y^2/r
is largest.  The extremal is of density type: on its support [a, b] the
eigenfunction is y = sqrt(c r), so q = lambda + (sqrt r)''/sqrt r there,
and q = 0 outside, where y is a sine.  ``solve_measure_gamma_eq1`` builds
this measure from C^1 matching at a and b plus the saturated constraint,
for constant and power weights.

``solve_extremal_gamma_eq1`` is a finite-atom surrogate for any weight:
atom positions by coordinate ascent with golden-section line searches,
mass shares by projected gradient on the simplex, with the weighted total
mass saturating the constraint at every step.  It gives a lower bound on
the supremum, never the extremal itself: a positive point mass forces an
upward derivative kink in the eigenfunction, so an atom can never sit
exactly at a maximizer of y^2/r, and the characterization defect of a
finite-atom potential stays bounded away from zero for smooth weights.
The defect shrinks only as the atom count grows toward the density-type
limit.

Each outer step is written once: ``_ground`` (a cold or a warm ground
solve of a potential, whose long fused mesh keeps its last scans for the
shooting after), ``_saturating_atoms`` and ``_atom_potential``
(atoms of saturating mass, and their potential), ``_atom_ground`` (the
ground solve of such atoms: a warm one sweeps the one-run mesh that
``_propagate.run_mesh`` builds from the atoms, and builds no potential),
``_atom_lam`` and
``_atom_scan`` (one saturating atom's ground solve, and a warm scan of
those), ``_golden_max`` (the golden-section line search),
``_best_response`` (the gamma > 1 best response and its distance from
the iterate) and ``_report``.  The ``oracle`` module calls ``_ground``,
``_atom_potential``, ``_atom_lam``, ``_atom_scan`` and ``_golden_max``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._propagate import keep_scans, run_mesh
from .config import SolverConfig
from .eigensolver import (
    EigenPair,
    ShootingSolution,
    _brent,
    _eigenvalue_warm,
    eigenfunction,
    eigenvalue,
    pencil_form,
)
from .measures import (
    ConstantWeight,
    DomainError,
    InvalidPotentialError,
    ParameterError,
    Potential,
    PowerWeight,
    Weight,
    constraint_value,
    potential_to_dict,
    _cell_index,
    _common_densities,
    _merge_atoms,
    _ordered_sum,
)

__all__ = [
    "ExtremalReport",
    "PerturbationSpec",
    "solve_extremal_gamma_gt1",
    "solve_extremal_gamma_eq1",
    "solve_measure_gamma_eq1",
    "characterization_residual",
    "directional_derivative",
    "perturbation_path",
]

DAMPING = 0.5             # initial tau of the gamma > 1 iteration
TOL_OUTER = 1e-8          # relative eigenvalue change that stops an outer loop
POS_TOL = 1e-6            # atom position tolerance of the k-atom solver
DAMPING_FLOOR = 1.0 / 16.0
ATOM_SCAN_POINTS = 129
ATOM_MARGIN = 1.0 / 64.0  # atom search region [margin, 1 - margin]
PRUNE_SHARE = 1e-12
PROBE_POINTS = 2049       # dense first probe of _sup_y2_over_r
ZOOM_POINTS = 33          # points per zoom round of _sup_y2_over_r


@dataclass(frozen=True)
class ExtremalReport:
    """Outcome of an extremal solve."""

    M: float
    q_hat: Potential
    ground_state: EigenPair
    residual: float
    constraint: float
    trace: tuple[tuple[int, float, float], ...]
    converged: bool

    def to_dict(self) -> dict:
        return {
            "M": self.M,
            "q_hat": potential_to_dict(self.q_hat),
            "ground_state": self.ground_state.to_dict(),
            "residual": self.residual,
            "constraint": self.constraint,
            "trace": [[it, lam, res] for it, lam, res in self.trace],
            "converged": self.converged,
        }


@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbation path data: q_eps = ((1-eps) base + eps direction)/(1+alpha eps).

    The weight is carried along because the admissible range of alpha
    depends on it: alpha must strictly exceed the weighted pairing of the
    direction with base**(gamma-1), minus one.
    """

    base: Potential
    direction: Potential
    alpha: float
    weight: Weight


# ---------------------------------------------------------------------------
# shared pieces


def _char_map(
    log_r, gamma: float, cell_r: np.ndarray, ymid: np.ndarray
) -> np.ndarray:
    """Best-response density: (y^2/r)^(1/(gamma-1)), normalized so the
    discrete constraint integral equals one exactly.  Evaluated in log
    space so that gamma close to 1 cannot overflow; log_r is log r at the
    cell midpoints, taken once per solve."""
    s = (2.0 * np.log(np.maximum(ymid, 1e-300)) - log_r) / (gamma - 1.0)
    s -= s.max()
    u = np.exp(s)
    d_hat = float(np.dot(cell_r, u**gamma))
    return u * d_hat ** (-1.0 / gamma)


def _best_response(log_r, gamma, sol, mids, cell_r, q) -> tuple[np.ndarray, float]:
    """Best response v to the eigenfunction of sol, and the relative
    weighted-L^gamma distance from the cell values q to it; log_r is
    log r at mids."""
    v = _char_map(log_r, gamma, cell_r, sol.values(mids))
    num = float(np.dot(cell_r, np.abs(q - v) ** gamma)) ** (1.0 / gamma)
    den = float(np.dot(cell_r, q**gamma)) ** (1.0 / gamma)
    return v, num / den


def _warn(msg: str, *args) -> None:
    """Log a WARNING on the slmajorant logger."""
    # logging is imported on this rare path only: importing the package
    # would otherwise load it, about 0.45 MB and 10 ms
    import logging

    logging.getLogger("slmajorant").warning(msg, *args)


def _ground(pot: Potential, tol: float, guess: float | None = None) -> float:
    """Ground eigenvalue of pot: a cold solve, or a warm one from guess.
    Each caller shoots at the answer next (the gamma > 1 iteration and the
    oracle's steps), so a long fused mesh keeps the scans of the solve's
    last two sweeps for that shooting (keep_scans)."""
    keep_scans(*pot.fused_mesh[1:])
    if guess is None:
        return eigenvalue(pot, 0, tol)
    return _eigenvalue_warm(pot.fused_mesh, pot.phase_memo, 0, tol, guess)


def _report(w, gamma, q_hat, pair, residual, trace, converged) -> ExtremalReport:
    return ExtremalReport(pair.lam, q_hat, pair, residual,
                          constraint_value(w, gamma, q_hat), tuple(trace), converged)


def _weight_precheck(w: Weight, gamma: float) -> None:
    # the normalization integral of the best response must converge:
    # y vanishes linearly at the endpoints, so power exponents must stay
    # below 3*gamma - 1; at gamma = 1 that is 2, below which y^2/r stays
    # bounded near the endpoints for the gamma = 1 sup
    if isinstance(w, PowerWeight):
        lim = 3.0 * gamma - 1.0
        if w.alpha >= lim or w.beta >= lim:
            raise ParameterError(
                f"power weight exponents must be < 3*gamma-1 = {lim} "
                f"for the characterization integral to converge"
            )


# ---------------------------------------------------------------------------
# gamma > 1: damped fixed-point iteration


def solve_extremal_gamma_gt1(
    w: Weight, gamma: float, cfg: SolverConfig | None = None
) -> ExtremalReport:
    """Extremal potential and majorant for gamma > 1.

    Iterates q <- (1 - tau) q + tau Phi(y) from the constraint-normalized
    constant potential; tau starts at 1/2 and halves whenever the ground
    eigenvalue drops (floor 1/16).  Stops when the eigenvalue is stationary
    to TOL_OUTER (relative) and the characterization residual -- the
    relative distance between q and Phi(y) in the weighted L^gamma norm --
    is below tol_res.  The report is converged only if the loop stopped so
    and the residual of the snapped answer is below tol_res too.

    A drop of the eigenvalue while tau is already at the floor also ends
    the loop, unless that iterate meets the stopping test: the damping
    can no longer make the iteration climb.  The trace keeps that
    iterate, the answer is snapped as after max_iter and is not
    converged, and a WARNING on the slmajorant logger gives the
    iteration, the eigenvalue and the residual.
    """
    cfg = cfg or SolverConfig()
    if not (gamma > 1.0):
        raise ParameterError("this solver requires gamma > 1")
    _weight_precheck(w, gamma)
    n = cfg.grid_n
    mids = (np.arange(n) + 0.5) / n
    cell_r = w.cell_pow_integrals(np.arange(n + 1) / n)
    log_r = np.log(w(mids))
    q = np.full(n, float(np.sum(cell_r)) ** (-1.0 / gamma))

    tau = DAMPING
    lam_prev = None
    trace: list[tuple[int, float, float]] = []
    converged = False
    for k in range(cfg.max_iter):
        pot = Potential(n, q)
        lam = _ground(pot, cfg.tol_eigen, lam_prev)
        v, res = _best_response(log_r, gamma, ShootingSolution(pot, lam), mids,
                                cell_r, q)
        trace.append((k, lam, res))
        if lam_prev is not None:
            if abs(lam - lam_prev) < TOL_OUTER * lam and res < cfg.tol_res:
                converged = True
                break
            if lam < lam_prev - 1e-12 * max(lam, 1.0):
                if tau == DAMPING_FLOOR:
                    _warn("gamma > 1 iteration stops at iteration %d: lambda "
                          "dropped to %r at the damping floor (residual %r)",
                          k, lam, res)
                    break
                tau = max(tau / 2.0, DAMPING_FLOOR)
        lam_prev = lam
        q = (1.0 - tau) * q + tau * v

    # snap to the exact best response: its constraint integral is one by
    # construction, but its own residual can exceed the last iterate's,
    # which the converged flag reports
    q_hat = Potential(n, v)
    lam = _ground(q_hat, cfg.tol_eigen, lam)
    _, res = _best_response(log_r, gamma, ShootingSolution(q_hat, lam), mids,
                            cell_r, v)
    trace.append((len(trace), lam, res))
    return _report(w, gamma, q_hat, eigenfunction(q_hat, lam, 0), res, trace,
                   converged and res < cfg.tol_res)


# ---------------------------------------------------------------------------
# gamma = 1: atom placement


def _golden_max(f, a: float, b: float, tol: float):
    """Golden-section maximization on [a, b]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    x1 = a + invphi2 * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = a + invphi2 * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _saturating_atoms(w, zs, shares) -> list[tuple[float, float]]:
    """Atoms at zs with the saturating masses share / r(z), zero shares
    dropped.  The solves pass Python floats: a weight on a numpy scalar
    gives the same value at about twice the cost."""
    return [(z, s / w(z)) for z, s in zip(zs, shares) if s > 0.0]


def _atom_potential(w, zs, shares, grid_n=16) -> Potential:
    """The potential of _saturating_atoms on grid_n cells of density 0."""
    return Potential.from_atoms(_saturating_atoms(w, zs, shares), grid_n)


def _atom_ground(atoms, tol: float, guess: float | None = None) -> float:
    """Ground eigenvalue of Potential.from_atoms(atoms): a cold solve of
    that potential, or a warm one from guess on its fused mesh, built from
    the atoms alone.  The warm solve checks and merges the atoms as the
    potential would (_merge_atoms), sweeps run_mesh's one run of density 0
    with a phase memo of its own, and builds no potential."""
    if guess is None:
        return eigenvalue(Potential.from_atoms(atoms), 0, tol)
    return _eigenvalue_warm(run_mesh(0.0, _merge_atoms(atoms)), {}, 0, tol, guess)


def _atom_lam(w: Weight, z: float, tol: float, guess: float | None = None) -> float:
    """Ground eigenvalue of one saturating atom at z: mass 1/r(z)."""
    return _atom_ground(_saturating_atoms(w, [z], [1.0]), tol, guess)


def _atom_scan(w: Weight, zs: list[float], tol: float) -> list[float]:
    """Single-atom ground eigenvalues at the Python floats zs, each solve
    warm from the one before."""
    lams: list[float] = []
    for z in zs:
        lams.append(_atom_lam(w, z, tol, lams[-1] if lams else None))
    return lams


_PROBE_DELTA = 1e-6   # the probe stays this far inside (0, 1)
_PROBE = np.linspace(_PROBE_DELTA, 1.0 - _PROBE_DELTA, PROBE_POINTS)
_PROBE.setflags(write=False)


def _sup_y2_over_r(w: Weight, sol: ShootingSolution):
    """Supremum of y^2 / r over (0, 1) and where it is attained: a dense
    probe of PROBE_POINTS points (built once), then zoom rounds of
    ZOOM_POINTS points on the bracket around each round's best point, each
    about 16 times narrower, down to 1e-12; the best value seen wins."""
    delta = _PROBE_DELTA
    xs = np.union1d(_PROBE, np.clip(sol.breakpoints[1:-1], delta, 1.0 - delta))
    x_star, v_star = 0.0, -math.inf
    while True:
        vals = sol.values(xs) ** 2 / w(xs)
        i = int(np.argmax(vals))
        if vals[i] > v_star:
            x_star, v_star = float(xs[i]), float(vals[i])
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
        if hi - lo <= 1e-12:
            return x_star, v_star
        xs = np.linspace(lo, hi, ZOOM_POINTS)


def solve_extremal_gamma_eq1(
    w: Weight, k_atoms: int, cfg: SolverConfig | None = None
) -> ExtremalReport:
    """Best k-atom potential for the gamma = 1 ball: a lower bound on the
    supremum, not the extremal (use ``solve_measure_gamma_eq1`` for that).

    Positions move one at a time to the golden-section maximizer of the
    ground eigenvalue inside their bracket (initial brackets from a coarse
    scan of single-atom eigenvalues); mass shares follow projected-gradient
    steps on the simplex, so the weighted total mass stays exactly one.
    Convergence means positions and eigenvalue have stabilized.  The
    characterization residual is reported as-is; it stays bounded away
    from zero for every finite atom count (see the module note).
    """
    cfg = cfg or SolverConfig()
    if k_atoms < 1:
        raise ParameterError("k_atoms must be a positive integer")
    _weight_precheck(w, 1.0)
    lo, hi = ATOM_MARGIN, 1.0 - ATOM_MARGIN

    # coarse scan of the single-atom eigenvalue
    scan_z = np.linspace(lo, hi, ATOM_SCAN_POINTS)
    scan_lam = np.array(_atom_scan(w, scan_z.tolist(), cfg.tol_eigen))

    # initial positions: interior local maxima of the scan, best first
    maxima = [
        i
        for i in range(1, len(scan_z) - 1)
        if scan_lam[i] >= scan_lam[i - 1] and scan_lam[i] >= scan_lam[i + 1]
    ]
    maxima.sort(key=lambda i: -scan_lam[i])
    positions = [float(scan_z[i]) for i in maxima[:k_atoms]]
    if len(positions) < k_atoms:
        order = np.argsort(-scan_lam)
        for i in order:
            z = float(scan_z[i])
            if all(abs(z - p) > 4.0 * (hi - lo) / ATOM_SCAN_POINTS for p in positions):
                positions.append(z)
            if len(positions) == k_atoms:
                break
    positions.sort()
    zs = np.asarray(positions)
    shares = np.full(len(zs), 1.0 / len(zs))

    def lam_of(z_arr, s_arr, warm=None):
        return _atom_ground(_saturating_atoms(w, z_arr.tolist(), s_arr.tolist()),
                            cfg.tol_eigen, warm)

    lam = lam_of(zs, shares)
    trace: list[tuple[int, float, float]] = []
    converged = False
    for sweep in range(cfg.max_iter):
        lam_start = lam
        max_move = 0.0
        # positions, one coordinate at a time
        for j in range(len(zs)):
            left = lo if j == 0 else 0.5 * (zs[j - 1] + zs[j]) + POS_TOL
            right = hi if j == len(zs) - 1 else 0.5 * (zs[j] + zs[j + 1]) - POS_TOL
            if right <= left:
                continue

            def f(z, j=j):
                trial = zs.copy()
                trial[j] = z
                return lam_of(trial, shares, warm=lam)

            z_new, lam_new = _golden_max(f, left, right, 0.25 * POS_TOL)
            if lam_new > lam:
                max_move = max(max_move, abs(z_new - zs[j]))
                zs[j] = z_new
                lam = lam_new
        # mass shares by projected gradient with backtracking
        if len(zs) > 1:
            pot = _atom_potential(w, zs, shares)
            sol = ShootingSolution(pot, lam)
            grad = sol.values(zs) ** 2 / w(zs)
            step = 1.0 / max(float(np.max(np.abs(grad))), 1e-30)
            for _ in range(24):
                trial = _simplex_project(shares + step * grad)
                lam_t = lam_of(zs, trial, warm=lam)
                if lam_t > lam:
                    shares = trial
                    lam = lam_t
                    break
                step /= 2.0
        # prune share-starved atoms
        keep = shares > PRUNE_SHARE
        if not np.all(keep):
            warnings.warn(
                f"pruning {int(np.sum(~keep))} atom(s) with negligible mass",
                stacklevel=2,
            )
            zs = zs[keep]
            shares = shares[keep] / float(np.sum(shares[keep]))
            lam = lam_of(zs, shares)
        pot = _atom_potential(w, zs, shares)
        res = _eq1_defect(w, pot, ShootingSolution(pot, lam))
        trace.append((sweep, lam, res))
        if max_move < POS_TOL and abs(lam - lam_start) < TOL_OUTER * lam:
            converged = True
            break

    q_hat = _atom_potential(w, zs, shares, grid_n=cfg.grid_n)
    return _report(w, 1.0, q_hat, eigenfunction(q_hat, lam, 0), trace[-1][2],
                   trace, converged)


def _eq1_defect(w: Weight, q: Potential, sol: ShootingSolution) -> float:
    """gamma = 1 characterization defect: normalized gap between the
    supremum of y^2/r and the pairing of q with y^2."""
    _, sup = _sup_y2_over_r(w, sol)
    return abs(sup - sol.pair(q)) / sup


# ---------------------------------------------------------------------------
# gamma = 1: density-type extremal measure

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
SUPPORT_SCAN_POINTS = 257


def _sqrt_weight_logder(w: Weight):
    """s'/s and s''/s for s = sqrt(r), as vectorized callables.

    For r = x^alpha (1-x)^beta, s'/s = alpha/(2x) - beta/(2(1-x)) and
    s''/s = (s'/s)' + (s'/s)^2; for x(1-x) this is -1/(4 r^2).
    """
    if isinstance(w, ConstantWeight):
        return np.zeros_like, np.zeros_like
    if not isinstance(w, PowerWeight):
        raise ParameterError(
            "the measure solver supports constant and power weights only"
        )
    _weight_precheck(w, 1.0)
    al, be = w.alpha, w.beta

    def d1(x):
        return 0.5 * al / x - 0.5 * be / (1.0 - x)

    def d2(x):
        return d1(x) ** 2 - 0.5 * al / x**2 - 0.5 * be / (1.0 - x) ** 2

    return d1, d2


def _first_sign_drop(f, hi: float) -> float:
    """Smallest root in (0, hi) at which f turns from positive to
    nonpositive, located by a scan and refined by Brent's method."""
    xs = np.linspace(0.0, hi, SUPPORT_SCAN_POINTS)[1:-1]
    fx = f(xs)
    drops = np.nonzero((fx[:-1] > 0.0) & (fx[1:] <= 0.0))[0]
    if not drops.size:
        raise DomainError("no C^1 matching point for the support edge")
    i = int(drops[0])
    return _brent(f, xs[i], xs[i + 1], xtol=1e-15, rtol=8.9e-16)


def _measure_support(d1, lam: float) -> tuple[float, float]:
    """Support [a, b] of the extremal measure at eigenvalue lam.

    Left of a, y = sin(k x) with k = sqrt(lam); C^1 matching with
    y = sqrt(c r) gives k cot(k a) = s'/s(a), and symmetrically
    -k cot(k (1-b)) = s'/s(b).  The logarithmic derivative of y^2/r is
    twice the matching defect, so the first root in from each end is the
    one below which y^2/r keeps rising to its plateau.
    """
    k = math.sqrt(lam)
    a = _first_sign_drop(lambda x: k / np.tan(k * x) - d1(x), math.pi / k)
    u = _first_sign_drop(lambda u: k / np.tan(k * u) + d1(1.0 - u), math.pi / k)
    return a, 1.0 - u


def _support_cell_masses(w, d2, edges, lam, a, b):
    """Per-cell integrals of r q over the cells clipped to [a, b] (8-point
    Gauss-Legendre on each piece), and q at the quadrature nodes."""
    lo = np.clip(edges[:-1], a, b)
    half = 0.5 * (np.clip(edges[1:], a, b) - lo)
    x = (lo + half)[:, None] + half[:, None] * _GL_X
    qx = lam + d2(x)
    return half * ((w(x) * qx) @ _GL_W), qx


def solve_measure_gamma_eq1(
    w: Weight, cfg: SolverConfig | None = None
) -> ExtremalReport:
    """Extremal measure and majorant for the gamma = 1 ball.

    Follows the characterization: on the support [a, b] the eigenfunction
    is y = sqrt(c r), so q = lambda + (sqrt r)''/sqrt r there, and q = 0
    outside.  For fixed lambda, C^1 matching fixes a and b; lambda is the
    root of the saturated constraint, integral of r q over [a, b] = 1.
    The returned q_hat carries on each of cfg.grid_n cells the r-weighted
    average of q, so its constraint value is one, and M is its ground
    eigenvalue: the majorant attained by an admissible potential, hence a
    lower bound on the continuum supremum that converges as the grid is
    refined.  There is no outer iteration, so converged is always true.

    Supports constant weights and power weights with exponents below 2;
    other weights raise ParameterError.  DomainError is raised when the
    ansatz fails: no admissible root, q < 0 on the support, or y^2/r
    larger off the support than on it.
    """
    cfg = cfg or SolverConfig()
    d1, d2 = _sqrt_weight_logder(w)
    n = cfg.grid_n
    edges = np.arange(n + 1) / n

    def masses(lam):
        a, b = _measure_support(d1, lam)
        # crossed matching points mean an empty support: all masses zero
        m, qx = _support_cell_masses(w, d2, edges, lam, a, max(a, b))
        return m, qx, a, b

    def excess(lam):
        return float(np.sum(masses(lam)[0])) - 1.0

    lo = math.pi**2 * (1.0 + 1e-9)
    if excess(lo) >= 0.0:
        raise DomainError("constraint saturated below the free eigenvalue")
    hi = 2.0 * lo
    for _ in range(60):
        if excess(hi) > 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise DomainError("no eigenvalue saturates the constraint")
    lam = _brent(excess, lo, hi, xtol=1e-13, rtol=8.9e-16)
    m, qx, a, b = masses(lam)
    if abs(float(np.sum(m)) - 1.0) > 1e-10:
        raise DomainError("the constraint has no continuous root in lambda")
    if float(np.min(qx)) < 0.0:
        raise DomainError("the density-type extremal would be negative")
    k = math.sqrt(lam)
    left = np.linspace(0.0, a, SUPPORT_SCAN_POINTS)[1:]
    right = np.linspace(b, 1.0, SUPPORT_SCAN_POINTS)[:-1]
    # y^2/r off the support, relative to its plateau value at the edge
    off = np.concatenate((
        np.sin(k * left) ** 2 / w(left) / (np.sin(k * a) ** 2 / w(a)),
        np.sin(k * (1.0 - right)) ** 2 / w(right)
        / (np.sin(k * (1.0 - b)) ** 2 / w(b)),
    ))
    if float(np.max(off)) > 1.0 + 1e-9:
        raise DomainError("y^2/r is larger off the support than on it")

    q_hat = Potential(n, m / w.cell_pow_integrals(edges))
    M = eigenvalue(q_hat, 0, cfg.tol_eigen)
    pair = eigenfunction(q_hat, M, 0)
    res = characterization_residual(w, 1.0, q_hat, pair)
    return _report(w, 1.0, q_hat, pair, res, [(0, M, res)], True)


# ---------------------------------------------------------------------------
# characterization residual (both regimes)


def characterization_residual(
    w: Weight, gamma: float, q: Potential, y: EigenPair
) -> float:
    """Defect of the extremality characterization at (q, y).

    gamma > 1: relative weighted-L^gamma distance between q and the
    normalized best response built from y.  gamma = 1: normalized gap
    between the supremum of y^2/r and the pairing of the measure with y^2.
    Zero characterizes the extremal potential.
    """
    if gamma < 1.0:
        raise ParameterError("gamma must be >= 1")
    if not abs(pencil_form(q, y.lam, y)) <= 1e-6 * max(1.0, abs(y.lam)):
        raise DomainError("eigenpair does not belong to this potential")
    sol = ShootingSolution(q, y.lam)
    if gamma > 1.0:
        if q.atoms:
            raise InvalidPotentialError(
                "the gamma > 1 characterization applies to atom-free q"
            )
        cell_r = w.cell_pow_integrals(q.edges())
        mids = q.midpoints()
        return _best_response(np.log(w(mids)), gamma, sol, mids, cell_r, q.density)[1]
    return _eq1_defect(w, q, sol)


# ---------------------------------------------------------------------------
# perturbation derivatives


def alpha_lower_bound(w: Weight, gamma: float, base: Potential, p: Potential) -> float:
    """Admissibility threshold: weighted pairing of p with base**(gamma-1),
    minus one.  At gamma = 1 this is the constraint value of p minus one."""
    if gamma == 1.0:
        return constraint_value(w, 1.0, p) - 1.0
    edges = np.union1d(base.edges(), p.edges())
    mids = 0.5 * (edges[:-1] + edges[1:])
    # the right-open cell of each piece, as Potential.density_at places it
    pv = p.density[_cell_index(p.edges(), mids)]
    bv = base.density[_cell_index(base.edges(), mids)]
    keep = pv != 0.0
    # Python's pow, not numpy's, so a constant weight gives the same bits
    # as a per-piece loop
    bpow = np.array([v ** (gamma - 1.0) for v in bv[keep].tolist()])
    cell_r = w.cell_pow_integrals(edges)
    total = _ordered_sum(pv[keep] * bpow * cell_r[keep])
    for pos, mass in p.atoms:
        total += mass * float(w(pos)) * base.density_at(pos) ** (gamma - 1.0)
    return total - 1.0


def directional_derivative(spec: PerturbationSpec, gamma: float) -> float:
    """First-order change of the ground eigenvalue along the perturbation
    path at eps = 0: the pairing of p - (alpha+1) q with y^2 for gamma > 1,
    and of p - q with y^2 for gamma = 1 (where alpha is fixed to 0)."""
    if gamma < 1.0:
        raise ParameterError("gamma must be >= 1")
    if gamma == 1.0:
        if spec.alpha != 0.0:
            raise ParameterError("the gamma = 1 path uses alpha = 0")
    else:
        # equality is admitted up to roundoff: the ball is closed, and the
        # stationary path (direction = base, alpha = 0) sits exactly there
        bound = alpha_lower_bound(spec.weight, gamma, spec.base, spec.direction)
        if spec.alpha < bound - 1e-12:
            raise ParameterError(
                f"alpha = {spec.alpha} must not fall below {bound}"
            )
    lam = eigenvalue(spec.base, 0, 1e-13)
    sol = ShootingSolution(spec.base, lam)
    pair_p = sol.pair(spec.direction)
    pair_q = sol.pair(spec.base)
    if gamma == 1.0:
        return pair_p - pair_q
    return pair_p - (spec.alpha + 1.0) * pair_q


def perturbation_path(spec: PerturbationSpec, eps: float) -> Potential:
    """Potential on the path ((1-eps) base + eps p) / (1 + alpha eps)."""
    if 1.0 + spec.alpha * eps <= 0.0:
        raise ParameterError("path parameter leaves the admissible range")
    n, d_base, d_p = _common_densities(spec.base, spec.direction)
    scale = 1.0 / (1.0 + spec.alpha * eps)
    dens = ((1.0 - eps) * d_base + eps * d_p) * scale
    atoms = [(pos, (1.0 - eps) * m * scale) for pos, m in spec.base.atoms]
    atoms += [(pos, eps * m * scale) for pos, m in spec.direction.atoms]
    atoms = [(pos, m) for pos, m in atoms if m != 0.0]
    return Potential(n, dens, tuple(atoms))
