"""Dirichlet eigenvalues and eigenfunctions of -y'' + q y = lam y.

Propagation is exact per cell (closed-form transfer matrices for constant
q - lam, derivative jumps at atoms), so eigenvalues are accurate to the
root-finder tolerance: the Pruefer angle theta(1; lam) is strictly
increasing in lam and equals (n+1)*pi exactly at the n-th eigenvalue.
Brackets come from the computable spectral upper bound, which guarantees
bisection can never fail; the bracket is asserted on every solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import _propagate as prop
from .measures import DomainError, ParameterError, Potential, seminorm

__all__ = [
    "InternalSolverError",
    "EigenPair",
    "ShootingSolution",
    "prufer_phase",
    "eigenvalue",
    "eigenfunction",
    "energy_form",
    "pencil_form",
    "upper_bound",
    "gap_lower_bound",
]

PI = math.pi
PI2 = math.pi**2
MAX_INDEX = 32  # higher indices are out of contract


class InternalSolverError(RuntimeError):
    """An internal invariant of the solver failed (bracket, zero count)."""


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue and normalized eigenfunction sampled on the node mesh.

    xs are the grid nodes plus atom positions; ys the eigenfunction values
    there (mean-square normalized to 1); dys_left / dys_right the one-sided
    derivatives, which differ only at atoms where y' jumps by mass * y.
    """

    n: int
    lam: float
    xs: np.ndarray
    ys: np.ndarray
    dys_left: np.ndarray
    dys_right: np.ndarray

    def __post_init__(self):
        if self.lam < PI2 - 1e-9:
            raise InternalSolverError(
                f"eigenvalue {self.lam} below the trivial bound pi^2"
            )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "lambda": self.lam,
            "x": [float(v) for v in self.xs],
            "y": [float(v) for v in self.ys],
            "dy": [float(v) for v in self.dys_right],
        }


# ---------------------------------------------------------------------------
# shooting solution: propagate once, evaluate anywhere


def _shoot(lens, qs, masses, lam: float):
    """propagate's boundary arrays plus (seg, ref): the y**2 mass of each
    segment times exp(-2 * ref), ref being the largest log-scale."""
    y_b, dy_arr, dy_dep, logsc = prop.propagate(lens, qs, masses, lam)
    icc, ics, iss, ils = prop.sq_integrals(qs - lam, lens)
    expo = logsc[:-1] + ils
    ref = float(np.max(expo))
    seg = prop.seg_sq(y_b[:-1], dy_dep[:-1], icc, ics, iss) * np.exp(
        2.0 * (expo - ref)
    )
    return y_b, dy_arr, dy_dep, logsc, seg, ref


class ShootingSolution:
    """Solution of the shooting problem y(0)=0, y'(0)=1 at a fixed lam,
    normalized to unit L2 norm, evaluable anywhere on [0, 1] in closed form.
    """

    def __init__(self, q: Potential, lam: float):
        self.q = q
        self.lam = float(lam)
        self._xs, lens, self._qs, masses = prop.build_segments(
            q.grid_n, q.density, q.atoms
        )
        self._y, _, self._dy_dep, self._ls, seg, self._ref = _shoot(
            lens, self._qs, masses, lam
        )
        self._cum_sq = np.concatenate(([0.0], np.cumsum(seg)))
        total = self._cum_sq[-1]
        if not (total > 0.0 and math.isfinite(total)):
            raise InternalSolverError("degenerate shooting solution norm")
        self._norm = math.sqrt(total)

    # -- helpers -----------------------------------------------------------

    def _locate(self, x: np.ndarray, side: str) -> tuple[np.ndarray, np.ndarray]:
        sd = "right" if side == "right" else "left"
        j = np.searchsorted(self._xs, x, side=sd) - 1
        j = np.clip(j, 0, len(self._qs) - 1)
        t = x - self._xs[j]
        return j, t

    def values(self, points, side: str = "right") -> np.ndarray:
        """Normalized eigenfunction values; side matters only at atoms
        (y itself is continuous, so both sides agree)."""
        x = np.atleast_1d(np.asarray(points, dtype=float))
        j, t = self._locate(x, side)
        d = self._qs[j] - self.lam
        c, s, ls = prop.cs_arrays(d, t)
        raw = self._y[j] * c + self._dy_dep[j] * s
        scale = np.exp(self._ls[j] + ls - self._ref)
        return raw * scale / self._norm

    def square_mass(self, a: float, b: float) -> float:
        """Integral of the normalized y**2 over [a, b]."""
        acc = self._cum_indefinite(np.asarray([a, b]))
        return float(acc[1] - acc[0])

    def cell_square_masses(self, edges) -> np.ndarray:
        """Integrals of the normalized y**2 between consecutive edges."""
        acc = self._cum_indefinite(np.asarray(edges, dtype=float))
        return np.diff(acc)

    def pair(self, v: Potential) -> float:
        """Pairing of the measure v with the normalized y**2: the cell
        masses of its density plus each atom's mass times y**2 there."""
        total = float(np.dot(v.density, self.cell_square_masses(v.edges())))
        for pos, mass in v.atoms:
            total += mass * float(self.values([pos])[0]) ** 2
        return total

    def _cum_indefinite(self, x: np.ndarray) -> np.ndarray:
        j, t = self._locate(x, "right")
        icc, ics, iss, ils = prop.sq_integrals(self._qs[j] - self.lam, t)
        part = prop.seg_sq(self._y[j], self._dy_dep[j], icc, ics, iss) * np.exp(
            2.0 * (self._ls[j] + ils - self._ref)
        )
        return (self._cum_sq[j] + part) / (self._norm**2)

    @property
    def breakpoints(self) -> np.ndarray:
        """Segment boundaries of the propagation mesh."""
        return self._xs


# ---------------------------------------------------------------------------
# phase and eigenvalues


def _phase_fn(q: Potential):
    _, lens, qs, masses = prop.build_segments(q.grid_n, q.density, q.atoms)
    return lambda lam: prop.phase(lens, qs, masses, lam)


def prufer_phase(q: Potential, lam: float) -> float:
    """Continuously unwound Pruefer angle theta(1; lam) of the shooting
    solution; strictly increasing in lam, equal to (n+1)*pi at lambda_n."""
    return _phase_fn(q)(lam)


def _bracket(q: Potential, n: int):
    """Phase function, its target (n+1)*pi at lambda_n, and the global
    bracket: the free-particle eigenvalue (a lower bound since q >= 0)
    and the computable spectral upper bound."""
    lo = PI2 * (n + 1) ** 2 * (1.0 - 1e-12)
    return _phase_fn(q), (n + 1) * PI, lo, upper_bound(q, n)


def _root(theta, target: float, lo: float, hi: float, tol: float) -> float:
    rtol = max(tol, 4.0 * np.finfo(float).eps)
    return float(brentq(lambda lam: theta(lam) - target, lo, hi,
                        rtol=rtol, xtol=1e-15))


def eigenvalue(q: Potential, n: int = 0, tol: float = 1e-10) -> float:
    """n-th Dirichlet eigenvalue by bisection + secant polish on the phase.

    The bracket is [pi^2 (n+1)^2 (1 - 1e-12), upper_bound(q, n)]; the lower
    end is the free-particle eigenvalue (a lower bound since q >= 0), the
    upper end the computable spectral bound, so bracketing never fails.
    """
    if n < 0 or n > MAX_INDEX:
        raise ParameterError(f"eigenvalue index must lie in [0, {MAX_INDEX}]")
    if not (tol > 0.0):
        raise ParameterError("tolerance must be positive")
    theta, target, lo, hi = _bracket(q, n)
    g_lo = theta(lo) - target
    g_hi = theta(hi) - target
    if not (g_lo <= 0.0 <= g_hi):
        raise InternalSolverError(
            f"phase bracket violated: theta({lo})={g_lo + target}, "
            f"theta({hi})={g_hi + target}, target={target}"
        )
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    return _root(theta, target, lo, hi, tol)


def _eigenvalue_warm(q: Potential, n: int, tol: float, guess: float) -> float:
    """Eigenvalue solve with a bracket grown around a previous value; after
    80 fruitless expansions it falls back to the cold solve."""
    theta, target, lo_glob, hi_glob = _bracket(q, n)
    w = max(1e-6 * abs(guess), 1e-9)
    for _ in range(80):
        lo = max(guess - w, lo_glob)
        hi = min(guess + w, hi_glob)
        if theta(lo) - target <= 0.0 <= theta(hi) - target:
            return _root(theta, target, lo, hi, tol)
        w *= 4.0
    return eigenvalue(q, n, tol)


def eigenfunction(q: Potential, lam: float, n: int) -> EigenPair:
    """Normalized eigenfunction for an eigenvalue produced by eigenvalue().

    Samples live on the grid nodes plus atom positions, computed by the
    same transfer matrices as the phase and normalized with exact per-cell
    integrals of the closed-form solution.
    """
    theta = prufer_phase(q, lam)
    if abs(theta - (n + 1) * PI) > 1e-2:
        raise InternalSolverError(
            f"lambda={lam} is not the index-{n} eigenvalue "
            f"(phase {theta} vs {(n + 1) * PI})"
        )
    xs, lens, qs, masses = prop.node_mesh(q.grid_n, q.density, q.atoms)
    y_b, dy_arr, dy_dep, logsc, seg, ref = _shoot(lens, qs, masses, lam)
    norm = math.sqrt(float(np.sum(seg)))
    scale = np.exp(logsc - ref) / norm
    return EigenPair(
        n=n,
        lam=float(lam),
        xs=xs,
        ys=y_b * scale,
        dys_left=dy_arr * scale,
        dys_right=dy_dep * scale,
    )


# ---------------------------------------------------------------------------
# quadratic forms


def _check_grid_samples(q: Potential, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (q.grid_n + 1,):
        raise DomainError(
            f"samples must live on the potential grid nodes "
            f"({q.grid_n + 1} values), got shape {y.shape}"
        )
    tol = 1e-9 * (float(np.max(np.abs(y))) + 1.0)
    if abs(y[0]) > tol or abs(y[-1]) > tol:
        raise DomainError("samples must vanish at both endpoints")
    return y


def _pl_product_mass(q: Potential, y: np.ndarray, z: np.ndarray) -> float:
    """Exact integral of the product of two piecewise-linear interpolants."""
    h = q.h
    ya, yb = y[:-1], y[1:]
    za, zb = z[:-1], z[1:]
    return float(np.sum(2 * ya * za + ya * zb + yb * za + 2 * yb * zb) * h / 6.0)


def _pl_value(q: Potential, y: np.ndarray, x: float) -> float:
    return float(np.interp(x, q.edges(), y))


def energy_form(q: Potential, y, z) -> float:
    """Bilinear energy form: integral of y'z' plus the pairing of q with yz.

    y and z are node samples on the potential's grid, interpreted as
    piecewise-linear interpolants (derivatives are the per-cell finite
    differences); both must vanish at the endpoints.
    """
    y = _check_grid_samples(q, y)
    z = _check_grid_samples(q, z)
    h = q.h
    kinetic = float(np.sum(np.diff(y) * np.diff(z)) / h)
    ya, yb = y[:-1], y[1:]
    za, zb = z[:-1], z[1:]
    cell_mass = (2 * ya * za + ya * zb + yb * za + 2 * yb * zb) * h / 6.0
    potential = float(np.dot(q.density, cell_mass))
    for pos, mass in q.atoms:
        potential += mass * _pl_value(q, y, pos) * _pl_value(q, z, pos)
    return kinetic + potential


def pencil_form(q: Potential, lam: float, y) -> float:
    """Pencil quadratic form: energy_form(q, y, y) - lam * ||y||^2.

    Accepts raw node samples (finite-difference convention, residual
    O(grid^-2) at an eigenpair) or an EigenPair, for which the form is
    assembled from the closed-form per-segment integrals and vanishes to
    root-finder accuracy at the eigenvalue.
    """
    if isinstance(y, EigenPair):
        return _pencil_exact(q, lam, y)
    y = _check_grid_samples(q, y)
    return energy_form(q, y, y) - lam * _pl_product_mass(q, y, y)


def _pencil_exact(q: Potential, lam: float, pair: EigenPair) -> float:
    xs, lens, qs, masses = prop.node_mesh(q.grid_n, q.density, q.atoms)
    if not np.array_equal(pair.xs, xs):
        raise DomainError("eigenpair is not sampled on this potential's node mesh")
    d = qs - lam
    icc, ics, iss, _ = prop.sq_integrals(d, lens)
    y0 = pair.ys[:-1]
    dy0 = pair.dys_right[:-1]
    mass = prop.seg_sq(y0, dy0, icc, ics, iss)
    deriv = prop.seg_sq(dy0, d * y0, icc, ics, iss)  # y' = dy0 c + d y0 s
    energy = float(np.sum(deriv + qs * mass))
    total_mass = float(np.sum(mass))
    atom_term = float(np.dot(masses, pair.ys[1:] ** 2))
    return energy + atom_term - lam * total_mass


# ---------------------------------------------------------------------------
# computable spectral bounds


def upper_bound(q: Potential, n: int) -> float:
    """Computable upper bound 4 pi^2 (n+1)^2 (1 + 2 ||q||_2) for lambda_n."""
    return 4.0 * PI2 * (n + 1) ** 2 * (1.0 + 2.0 * seminorm(q, 2))


def gap_lower_bound(q: Potential, n: int) -> tuple[float, int]:
    """Computable lower bound for the spectral gap lambda_{n+1} - lambda_n.

    Picks the smallest integer ell > 5 + n + 2 ||q||_2 and returns
    (2**-ell * exp(-2**(-ell/2) * ||q||_{ell+1}), ell).  Valid for
    continuous compactly supported potentials; callers should only assert
    it for atom-free q.
    """
    ell = int(math.floor(5.0 + n + 2.0 * seminorm(q, 2))) + 1
    bound = 2.0 ** (-ell) * math.exp(-(2.0 ** (-ell / 2.0)) * seminorm(q, ell + 1))
    return bound, ell
