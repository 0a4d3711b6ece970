"""Dirichlet eigenvalues and eigenfunctions of -y'' + q y = lam y.

Propagation is exact per cell (closed-form transfer matrices for constant
q - lam, derivative jumps at atoms), so eigenvalues are accurate to the
root-finder tolerance: the Pruefer angle theta(1; lam) is strictly
increasing in lam and equals (n+1)*pi exactly at the n-th eigenvalue.
Brackets come from the computable spectral upper bound, which guarantees
the root is bracketed; the bracket is asserted on every solve, and Brent's
method (_brent) finds the root inside it.  No lam is swept twice on one
potential (see _gap_fn).

The outer loops warm-start from a previous eigenvalue (_eigenvalue_warm):
a bracket grows around the guess by a factor of 4 per step, and a secant
through two of its ends predicts the step that first brackets the root.
That relies on the computed phase being monotone across bracket ends at
least 3e-6 |guess| apart; Brent's method then gets the bracket a
step-by-step search would give it.  The bracket needs no upper bound:
theta(1; lam) grows without bound in lam, and the lower end stops at the
free-particle eigenvalue, which every eigenvalue lies above.

On the short atom meshes of the gamma = 1 solvers a sweep costs a few
microseconds, so a solve's own work is kept to what its sweeps need.  A
warm solve decides its first bracket step inline, reads each bracket
end's gap once and hands the ends' gaps to Brent's method, which calls
the gap only inside the bracket: besides its sweeps, one of the 17k
warm solves of an atoms-eq1 bench pass costs about 5.5 microseconds of
Python (Xeon, 2 CPUs) for the bracket search, Brent's steps and the
phase memo together, against about 2.6 per sweep.  A solve sweeps a
potential's fused mesh as build_segments gives it (tuples of floats below
the scan's length), and the phase values live in one dict, the
potential's phase_memo.  The warm solve takes only a mesh and
a phase dict, so the warm gamma = 1 atom solves, which build the mesh
from their atoms (_propagate.run_mesh), build no Potential.
ShootingSolution propagates the same mesh as is, and makes arrays only
of the breakpoints and densities it indexes.  A solve given a list
(``_scans``) leaves there the (lam, scan) of its last two sweeps of a
long mesh, one of which is at the eigenvalue it returns: _Solved holds
the eigenvalue and that list, the record extremal._ground gives the
sites that shoot at each answer.  ShootingSolution built on the record
reads the scan at its eigenvalue instead of scanning again, and the
scans go with the record.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _propagate as prop
from .measures import DomainError, ParameterError, Potential, _cell_index, seminorm

__all__ = [
    "InternalSolverError",
    "EigenPair",
    "ShootingSolution",
    "eigenvalue",
    "eigenfunction",
    "pencil_form",
    "upper_bound",
    "gap_lower_bound",
]

PI = math.pi
PI2 = math.pi**2
EPS = math.ulp(1.0)
MAX_INDEX = 32  # higher indices are out of contract
EIGEN_WINDOW = 1e-9  # eigenfunction's relative window for a steep phase


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
        if not (self.lam >= PI2 - 1e-9):   # NaN fails too
            raise InternalSolverError(
                f"eigenvalue {self.lam} below the trivial bound pi^2"
            )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "lambda": self.lam,
            "x": self.xs.tolist(),
            "y": self.ys.tolist(),
            "dy": self.dys_right.tolist(),
        }


class _Solved(NamedTuple):
    """An eigen-solve's record: its eigenvalue, and the list in which the
    solve left the (lam, scan) of its last two sweeps of a long mesh
    (prop.phase's scans), one of which is at lam unless the solve ended
    on a phase read from the memo."""

    lam: float
    scans: list


# ---------------------------------------------------------------------------
# shooting solution: propagate once, evaluate anywhere


def _shoot(lens, qs, masses, lam: float, scan=None):
    """propagate's boundary arrays plus (seg, ref): the y**2 mass of each
    segment times exp(-2 * ref), ref being the largest log-scale.  The
    mesh comes in any form propagate takes.  scan is the long mesh's
    prop._scan at lam where a solve's record has it: propagate and
    sq_integrals then read its states and basis values, and no scan or
    cs_arrays runs here."""
    y_b, dy_arr, dy_dep, logsc = prop.propagate(lens, qs, masses, lam, scan)
    basis = None if scan is None else (scan[4], scan[5], scan[3])
    icc, ics, iss, ils = prop.sq_integrals(np.subtract(qs, lam), lens, basis)
    expo = logsc[:-1] + ils
    ref = float(np.max(expo))
    seg = prop.seg_sq(y_b[:-1], dy_dep[:-1], icc, ics, iss) * np.exp(
        2.0 * (expo - ref)
    )
    return y_b, dy_arr, dy_dep, logsc, seg, ref


class ShootingSolution:
    """Solution of the shooting problem y(0)=0, y'(0)=1 at a fixed lam,
    normalized to unit L2 norm, evaluable anywhere on [0, 1] in closed form.
    DomainError if lam is not finite, or lies so far below the potential
    (about -1e205 for q = 0) that the integral of y**2 underflows.

    It propagates q's fused mesh.  lam may also be the record of a solve
    of q (_Solved, which extremal._ground returns): on a long mesh the
    shooting then reads the scan the solve kept at its eigenvalue, the
    same floats a new scan would give.
    """

    def __init__(self, q: Potential, lam: float):
        lam, scans = lam if isinstance(lam, _Solved) else (lam, ())
        self.lam = lam = _check_lam(lam)
        scan = next((sc for lam_k, sc in scans if lam_k == lam), None)
        xs, lens, qs, masses = q.fused_mesh
        self._xs, self._qs = np.asarray(xs), np.asarray(qs)
        self._y, _, self._dy_dep, self._ls, seg, self._ref = _shoot(
            lens, qs, masses, lam, scan
        )
        self._cum_sq = np.concatenate(([0.0], np.cumsum(seg)))
        total = self._cum_sq[-1]
        if 0.0 <= total < sys.float_info.min:   # 0 or subnormal
            # y(x) is not 0, so its y**2 integral underflowed: every
            # segment has q - lam so large that y ~ y' / sqrt(q - lam)
            raise DomainError(
                f"lambda={lam!r} lies too far below the potential: the "
                f"shooting solution's y**2 integral underflows")
        if not (total > 0.0 and math.isfinite(total)):
            raise InternalSolverError("degenerate shooting solution norm")
        self._norm = math.sqrt(total)

    # -- helpers -----------------------------------------------------------

    def _locate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # segment whose right-open span holds x; y is continuous, so at a
        # breakpoint either neighbour gives the same value
        j = _cell_index(self._xs, x)
        return j, x - self._xs[j]

    def values(self, points) -> np.ndarray:
        """Normalized eigenfunction values."""
        x = np.atleast_1d(np.asarray(points, dtype=float))
        j, t = self._locate(x)
        d = self._qs[j] - self.lam
        c, s, ls = prop.cs_arrays(d, t)
        raw = self._y[j] * c + self._dy_dep[j] * s
        scale = np.exp(self._ls[j] + ls - self._ref)
        return raw * scale / self._norm

    def square_mass(self, a: float, b: float) -> float:
        """Integral of the normalized y**2 over [a, b]."""
        return float(self.cell_square_masses([a, b])[0])

    def cell_square_masses(self, edges) -> np.ndarray:
        """Integrals of the normalized y**2 between consecutive edges."""
        acc = self._cum_indefinite(np.asarray(edges, dtype=float))
        return np.diff(acc)

    def pair(self, v: Potential) -> float:
        """Pairing of the measure v with the normalized y**2: the cell
        masses of its density plus each atom's mass times y**2 there."""
        total = float(np.dot(v.density, self.cell_square_masses(v.edges())))
        if v.atoms:
            ys = self.values([pos for pos, _ in v.atoms]).tolist()
            for (_, mass), y in zip(v.atoms, ys):
                total += mass * y**2
        return total

    def _cum_indefinite(self, x: np.ndarray) -> np.ndarray:
        j, t = self._locate(x)
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


def _check_lam(lam) -> float:
    """lam as a float, or DomainError; prop.phase, the hot loop, skips it."""
    if not math.isfinite(lam := float(lam)):
        raise DomainError(f"spectral parameter lambda={lam!r} is not finite")
    return lam


def _check_index(n: int) -> None:
    """ParameterError unless n is an int (a bool is not) in [0, MAX_INDEX]."""
    if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
            or not 0 <= n <= MAX_INDEX):
        raise ParameterError(
            f"eigenvalue index must lie in [0, {MAX_INDEX}] and be an int, not {n!r}")


def _gap_fn(mesh: tuple, memo: dict, n: int, scans: list | None = None):
    """g(lam) = theta(1; lam) - (n+1)*pi on a fused mesh, with theta read
    from the mesh's phase memo (a potential's fused_mesh and phase_memo)
    when lam has been swept on it, so that no lam is swept twice: not by
    one solve (the bracket search sweeps the ends it hands to Brent's
    method), nor by eigenfunction checking the answer of a solve on the
    same potential.  The sweeps of a long mesh keep their last two scans
    in scans, where given.  prop.phase is looked up here, once per solve,
    so that a wrapper installed on it before the solve sees every sweep."""
    _, lens, qs, masses = mesh
    target = (n + 1) * PI
    phase, get = prop.phase, memo.get

    def g(lam: float) -> float:
        theta = get(lam)
        if theta is None:
            theta = memo[lam] = phase(lens, qs, masses, lam, scans)
        return theta - target

    return g


def _lower_end(n: int) -> float:
    """The free-particle eigenvalue, a lower bound since q >= 0."""
    return PI2 * (n + 1) ** 2 * (1.0 - 1e-12)


def _nan_value(x: float) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; "
                      "solver cannot continue.")


def _brent(f, a: float, b: float, xtol: float, rtol: float,
           maxiter: int = 100, fa: float | None = None,
           fb: float | None = None) -> float:
    """Root of f in [a, b] by Brent's method (Brent, *Algorithms for
    Minimization Without Derivatives*, 1973, ch. 4).

    A line-for-line port of scipy's brentq.c: the same iterates, so the
    same root, bit for bit, and the same errors -- ValueError for a NaN
    value or for ends of the same sign, RuntimeError after maxiter steps.
    It stops when f is 0 or the half-bracket is below (xtol + rtol |x|)/2.
    fa and fb are f(a) and f(b) where the caller has them (the warm
    solve's bracket search does); f is then called only inside.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = float(f(xpre)) if fa is None else fa
    if fpre != fpre:
        raise _nan_value(xpre)
    fcur = float(f(xcur)) if fb is None else fb
    if fcur != fcur:
        raise _nan_value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        abis = abs(sbis)
        if fcur == 0.0 or abis < delta:
            return xcur
        aspre = abs(spre)
        if aspre > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:    # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:               # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre))
            lim = 3.0 * abis - delta
            if aspre < lim:
                lim = aspre
            if 2.0 * abs(stry) < lim:    # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            raise _nan_value(xcur)
    raise RuntimeError(
        f"Failed to converge after {maxiter} iterations, value is {xcur!r}")


def _root(g, lo: float, hi: float, tol: float, g_lo: float | None = None,
          g_hi: float | None = None) -> float:
    return _brent(g, lo, hi, xtol=1e-15, rtol=max(tol, 4.0 * EPS), fa=g_lo, fb=g_hi)


def _check_bracket(g, n: int, lo: float, hi: float) -> None:
    """InternalSolverError unless g(lo) <= 0 <= g(hi), with hi swept only
    once lo passes (a NaN fails).  The cold solve checks its bracket so;
    a warm solve calls it only where its lower end fails at the
    free-particle bound, to raise the same error."""
    g_lo = g(lo)
    if not (g_lo <= 0.0 <= g(hi)):
        target = (n + 1) * PI
        raise InternalSolverError(
            f"phase bracket violated: theta({lo})={g_lo + target}, "
            f"theta({hi})={g(hi) + target}, target={target}")


def eigenvalue(q: Potential, n: int = 0, tol: float = 1e-10, *,
               _scans: list | None = None) -> float:
    """n-th Dirichlet eigenvalue: Brent's method on the phase gap.

    The bracket is [pi^2 (n+1)^2 (1 - 1e-12), upper_bound(q, n)]; the lower
    end is the free-particle eigenvalue (a lower bound since q >= 0), the
    upper end the computable spectral bound, so bracketing never fails.
    n must be an int in [0, MAX_INDEX] and 0 < tol < inf (ParameterError).
    _scans is private to extremal._ground, whose solve record it fills
    (see _gap_fn).
    """
    _check_index(n)
    if not (0.0 < tol < math.inf):
        raise ParameterError("tolerance must be positive and finite")
    g = _gap_fn(q.fused_mesh, q.phase_memo, n, _scans)
    lo, hi = _lower_end(n), upper_bound(q, n)
    _check_bracket(g, n, lo, hi)
    return _root(g, lo, hi, tol)


def _eigenvalue_warm(mesh: tuple, memo: dict, n: int, tol: float,
                     guess: float, scans: list | None = None) -> float:
    """Eigenvalue solve with a bracket grown around a previous value.

    The solve sweeps mesh, a potential's fused mesh in the form phase
    sweeps, reads and fills memo, a dict of its phases, and keeps the
    last two scans of a long mesh in scans, where given (see _gap_fn).

    Step k brackets [max(guess - w_k, lower end), guess + w_k], with
    w_k = max(1e-6 |guess|, 1e-9) * 4**k, and Brent's method gets the
    first step whose ends both pass (g <= 0 below, g >= 0 above).  Some
    step passes: theta(1; lam) grows without bound in lam, and the lower
    end reaches the free-particle bound, which passes, within about
    log4(1e6) = 10 steps.  A lower end that fails there raises the cold
    solve's InternalSolverError (_check_bracket), and a guess that is not
    finite raises ParameterError before any sweep.

    The first passing step is found without sweeping every step.  Step 0's
    ends show which end binds: the upper one when the lower one passes,
    else the lower one.  A secant through two ends that a step-by-step
    search sweeps anyway (step 0's two ends, or the lower ends of steps 0
    and 1) predicts where g crosses 0, and so the step K whose binding end
    first passes.  Sweeping the binding end of step K - 1 and seeing it
    fail shows that no earlier step passes.  A prediction that falls short
    walks up one step at a time, which sweeps no more than the
    step-by-step search; one that overshoots bisects between the steps
    known to fail and to pass, which costs its own check and
    ceil(log2(K)) sweeps, where the step-by-step search sweeps at least
    one.  This assumes that the computed phase is monotone across
    bracket ends at least 3 w_0 apart (no two distinct ends on one side
    are closer); then the step found is the step-by-step search's.  Both
    ends of that step are swept before Brent's method, which needs them
    anyway; if one of them contradicts the assumption, the search steps
    on from there.
    A numpy scalar guess is taken as a float, so that the sweeps run in
    Python float arithmetic.

    On the 2-4 segment atom meshes a sweep is about 2.6 microseconds and a
    solve makes about 7, so the Python around them counts.  Step 0, where
    the outer loops end up once they converge, is decided with no helper
    call; each end's gap is read once, and the two ends of the step found
    go to Brent's method with their gaps, so no end is read twice.  Besides
    its sweeps a solve then costs about 5.5 microseconds (module docstring).
    """
    guess = float(guess)
    if not math.isfinite(guess):
        raise ParameterError(f"warm-start guess {guess!r} is not finite")
    g = _gap_fn(mesh, memo, n, scans)
    lo_glob = _lower_end(n)
    w0 = max(1e-6 * abs(guess), 1e-9)
    lo, hi = max(guess - w0, lo_glob), guess + w0
    g_lo = g(lo)
    upper = g_lo <= 0.0   # the lower end passes, so the upper end binds
    if upper:
        g_hi = g(hi)
        if g_hi >= 0.0:   # step 0 brackets the root
            return _root(g, lo, hi, tol, g_lo, g_hi)
        # the binding end fails at step `fail` and passes at step `ok`
        # (its gap g_ok), None until a step is known to pass; x1 is the
        # second end swept, step 0's upper end
        fail, ok, x1, g_x1 = 0, None, hi, g_hi
    else:
        # the second end swept: step 1's lower end, which passes like any
        # lower end at lo_glob (where the step's check raises if it fails)
        x1 = max(guess - 4.0 * w0, lo_glob)   # exact: w_1 = w_0 * 4
        g_x1 = g(x1)
        if g_x1 <= 0.0 or x1 == lo_glob:
            ok, g_ok = 1, g_x1
        else:
            fail, ok = 1, None
    if ok is None:
        # A secant through step 0's lower end and the second end predicts
        # where g crosses 0, and so the first step that passes; the search
        # starts a step below it, so that the walk up sweeps it next
        k = fail + 1
        dx = x1 - lo
        slope = (g_x1 - g_lo) / dx if dx else 0.0
        if slope > 0.0:
            reach = abs(max(x1 - g_x1 / slope, lo_glob) - guess) / w0
            if 1.0 < reach < math.inf:
                k = max(k, math.ceil(math.log(reach, 4.0)) - 1)
        while ok is None or ok - fail > 1:
            w = w0 * 4.0**k     # exact: the same float as k products by 4
            if upper:
                g_end = g(guess + w)
                passed = g_end >= 0.0
            else:
                end = max(guess - w, lo_glob)
                g_end = g(end)
                passed = g_end <= 0.0 or end == lo_glob
            if passed:
                ok, g_ok = k, g_end
            else:
                fail = k
            # walk up while no step is known to pass, else bisect
            k = fail + 1 if ok is None else (fail + ok) // 2
    # step ok: its binding end's gap is g_ok; check its other end, and
    # step on while an end contradicts the monotone phase
    while True:
        w = w0 * 4.0**ok
        lo, hi = max(guess - w, lo_glob), guess + w
        g_lo = g(lo) if upper or g_ok is None else g_ok
        if g_lo <= 0.0:
            g_hi = g_ok if upper and g_ok is not None else g(hi)
            if g_hi >= 0.0:
                return _root(g, lo, hi, tol, g_lo, g_hi)
        elif lo == lo_glob:
            _check_bracket(g, n, lo, hi)   # raises
        ok, g_ok = ok + 1, None


def eigenfunction(q: Potential, lam: float, n: int) -> EigenPair:
    """Normalized eigenfunction for an eigenvalue produced by eigenvalue().

    Samples live on the grid nodes plus atom positions, computed by the
    same transfer matrices as the phase and normalized with exact per-cell
    integrals of the closed-form solution.

    lam must put the phase within 1e-2 of (n+1)*pi, or else the phase must
    cross (n+1)*pi within a relative 1e-9 of lam: next to a barrier that
    forward shooting meets late, the phase climbs by about pi in a window
    narrower than the root-finder tolerance.  n must lie in [0, MAX_INDEX]
    (ParameterError) and lam be finite (DomainError).
    """
    _check_index(n)
    _check_lam(lam)
    g = _gap_fn(q.fused_mesh, q.phase_memo, n)
    gap = g(lam)
    if abs(gap) > 1e-2 and not (
        g(lam * (1.0 - EIGEN_WINDOW)) <= 0.0 <= g(lam * (1.0 + EIGEN_WINDOW))
    ):
        raise InternalSolverError(
            f"lambda={lam} is not the index-{n} eigenvalue "
            f"(phase - (n+1) pi = {gap})"
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


def pencil_form(q: Potential, lam: float, pair: EigenPair) -> float:
    """Pencil quadratic form: the integral of y'**2 plus the pairing of q
    with y**2, minus lam * ||y||**2, for the eigenfunction of pair.

    The form is assembled from the closed-form per-segment integrals on
    q's node mesh and vanishes to root-finder accuracy at the eigenvalue.
    TypeError if pair is not an EigenPair, DomainError if it is sampled
    on another mesh.
    """
    if not isinstance(pair, EigenPair):
        raise TypeError(
            f"pencil_form takes an EigenPair, not {type(pair).__name__}")
    xs, lens, qs, masses = prop.node_mesh(q.grid_n, q.density, q.atoms)
    if not np.array_equal(pair.xs, xs):
        raise DomainError("eigenpair is not sampled on this potential's node mesh")
    d = qs - lam
    icc, ics, iss, ils = prop.sq_integrals(d, lens)
    # the basis integrals are scaled by exp(-2 ils); scale the states to match
    scale = np.exp(ils)
    y0 = pair.ys[:-1] * scale
    dy0 = pair.dys_right[:-1] * scale
    mass = prop.seg_sq(y0, dy0, icc, ics, iss)
    deriv = prop.seg_sq(dy0, d * y0, icc, ics, iss)  # y' = dy0 c + d y0 s
    energy = float(np.sum(deriv + qs * mass))
    total_mass = float(np.sum(mass))
    atom_term = float(np.dot(masses, pair.ys[1:] ** 2))
    return energy + atom_term - lam * total_mass


# ---------------------------------------------------------------------------
# computable spectral bounds


def upper_bound(q: Potential, n: int) -> float:
    """Computable upper bound 4 pi^2 (n+1)^2 (1 + 2 ||q||_2) for lambda_n.
    n must be an int in [0, MAX_INDEX] (ParameterError)."""
    _check_index(n)
    return 4.0 * PI2 * (n + 1) ** 2 * (1.0 + 2.0 * q.seminorm_2)


def gap_lower_bound(q: Potential, n: int) -> tuple[float, int]:
    """Computable lower bound for the spectral gap lambda_{n+1} - lambda_n.

    Picks the smallest integer ell > 5 + n + 2 ||q||_2 and returns
    (2**-ell * exp(-2**(-ell/2) * ||q||_{ell+1}), ell).  Valid for
    continuous compactly supported potentials; callers should only assert
    it for atom-free q.  n must be an int in [0, MAX_INDEX]
    (ParameterError).
    """
    _check_index(n)
    ell = int(math.floor(5.0 + n + 2.0 * q.seminorm_2)) + 1
    bound = 2.0 ** (-ell) * math.exp(-(2.0 ** (-ell / 2.0)) * seminorm(q, ell + 1))
    return bound, ell
