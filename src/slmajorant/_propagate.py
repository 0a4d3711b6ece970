"""Exact transfer-matrix propagation for -y'' + q y = lam y.

On a segment where q - lam =: d is constant the solution basis is

    c(t) = cos(omega t) / cosh(kappa t),   s(t) = sin(omega t)/omega or
    sinh(kappa t)/kappa,                   omega = sqrt(-d), kappa = sqrt(d),

so one 2x2 multiply advances (y, y') across a whole segment with no
discretization error.  Atoms apply the derivative jump y' += m * y.  The
state is renormalized after every segment and the accumulated log-scale is
tracked separately, so arbitrarily large potentials cannot overflow.

The Pruefer angle theta = atan2(y, y') is unwound continuously: on
oscillatory segments the rescaled angle atan2(omega*y, y') advances
linearly by omega * len (exact for constant coefficients), while on
non-oscillatory segments the solution has at most one zero, counted from
the sign change of y.  A zero landing exactly on a segment boundary is
counted once, in the segment it terminates.

One mesh: node_mesh cuts [0, 1] at the nodes j / grid_n and the atoms and
places each piece in its right-open cell by searchsorted on those nodes;
build_segments fuses its runs of equal density for the phase sweep.
"""

from __future__ import annotations

import math

import numpy as np

TAYLOR_CUT = 1e-8   # |q - lam| below this uses the 4-term series branch
BIG_ARG = 40.0      # kappa * t beyond this switches to exp-scaled transfer

_PI = math.pi


# ---------------------------------------------------------------------------
# segment mesh


def build_segments(grid_n, density, atoms):
    """Fused mesh for the phase sweep: maximal runs of equal density,
    split at atoms.

    Returns (xs, lens, qs, masses) like node_mesh, whose breakpoints
    include these.  A loop, since atom potentials fuse to 2-4 segments.
    """
    dens = np.asarray(density, dtype=float)
    xs = [0.0]
    lens: list[float] = []
    qs: list[float] = []
    masses: list[float] = []
    ev = 0
    i = 0
    while i < grid_n:
        j = i + 1
        while j < grid_n and dens[j] == dens[i]:
            j += 1
        run_end = j / grid_n
        qv = float(dens[i])
        # split at atoms up to run_end; a Potential's atoms are ascending,
        # distinct and inside (0, 1), so each lies past xs[-1]
        while ev < len(atoms) and atoms[ev][0] <= run_end:
            pos, mass = atoms[ev]
            lens.append(pos - xs[-1])
            xs.append(pos)
            qs.append(qv)
            masses.append(mass)
            ev += 1
        if run_end > xs[-1]:
            lens.append(run_end - xs[-1])
            xs.append(run_end)
            qs.append(qv)
            masses.append(0.0)
        i = j
    return (
        np.asarray(xs, dtype=float),
        np.asarray(lens, dtype=float),
        np.asarray(qs, dtype=float),
        np.asarray(masses, dtype=float),
    )


def node_mesh(grid_n, density, atoms):
    """Per-node mesh: every grid node j / grid_n and atom position is a
    breakpoint, and each piece takes the density of its right-open cell.

    Returns (xs, lens, qs, masses) with xs of length nseg + 1 and masses[i]
    the atom mass at xs[i + 1].
    """
    edges = np.arange(grid_n + 1) / grid_n
    pos = np.array([p for p, _ in atoms])
    xs = np.union1d(edges, pos)
    masses = np.zeros(len(xs))
    for p, m in atoms:
        masses[int(np.searchsorted(xs, p))] += m
    lens = xs[1:] - xs[:-1]
    idx = np.searchsorted(edges, xs[:-1], side="right") - 1
    qs = np.asarray(density, dtype=float)[idx]
    return xs, lens, qs, masses[1:]


# ---------------------------------------------------------------------------
# basis values


def cs_scalar(d: float, t: float) -> tuple[float, float, float]:
    """(c, s, log_scale) with true values c*exp(log_scale), s*exp(log_scale)."""
    if t == 0.0:
        return 1.0, 0.0, 0.0
    x = d * t * t
    if abs(x) < TAYLOR_CUT:
        c = 1.0 + x * (0.5 + x * (1.0 / 24.0 + x / 720.0))
        s = t * (1.0 + x * (1.0 / 6.0 + x * (1.0 / 120.0 + x / 5040.0)))
        return c, s, 0.0
    if d < 0.0:
        om = math.sqrt(-d)
        return math.cos(om * t), math.sin(om * t) / om, 0.0
    k = math.sqrt(d)
    kt = k * t
    if kt <= BIG_ARG:
        return math.cosh(kt), math.sinh(kt) / k, 0.0
    e = math.exp(-2.0 * kt)
    return 0.5 * (1.0 + e), 0.5 * (1.0 - e) / k, kt


def cs_arrays(d: np.ndarray, t: np.ndarray):
    """Vectorized cs_scalar; returns (c, s, log_scale) arrays."""
    d = np.asarray(d, dtype=float)
    t = np.asarray(t, dtype=float)
    x = d * t * t
    c = np.empty_like(x)
    s = np.empty_like(x)
    ls = np.zeros_like(x)

    tiny = np.abs(x) < TAYLOR_CUT
    osc = (~tiny) & (d < 0.0)
    hyp = (~tiny) & (d >= 0.0)

    xt = x[tiny]
    c[tiny] = 1.0 + xt * (0.5 + xt * (1.0 / 24.0 + xt / 720.0))
    s[tiny] = t[tiny] * (
        1.0 + xt * (1.0 / 6.0 + xt * (1.0 / 120.0 + xt / 5040.0))
    )

    om = np.sqrt(-d[osc])
    c[osc] = np.cos(om * t[osc])
    s[osc] = np.sin(om * t[osc]) / om

    k = np.sqrt(d[hyp])
    kt = k * t[hyp]
    small = kt <= BIG_ARG
    ch = np.empty_like(kt)
    sh = np.empty_like(kt)
    lsh = np.zeros_like(kt)
    ch[small] = np.cosh(kt[small])
    sh[small] = np.sinh(kt[small]) / k[small]
    e = np.exp(-2.0 * kt[~small])
    ch[~small] = 0.5 * (1.0 + e)
    sh[~small] = 0.5 * (1.0 - e) / k[~small]
    lsh[~small] = kt[~small]
    c[hyp] = ch
    s[hyp] = sh
    ls[hyp] = lsh
    return c, s, ls


_ISS_COEFF = None


def _iss_series_coeff(nterms: int = 10) -> np.ndarray:
    # integral of s(t)^2 over [0, len] = len^3 * sum_k coeff[k] * (d len^2)^k
    global _ISS_COEFF
    if _ISS_COEFF is None or len(_ISS_COEFF) < nterms:
        co = []
        for n in range(nterms):
            cn = sum(
                1.0
                / (math.factorial(2 * k + 1) * math.factorial(2 * (n - k) + 1))
                for k in range(n + 1)
            )
            co.append(cn / (2 * n + 3))
        _ISS_COEFF = np.asarray(co)
    return _ISS_COEFF


def sq_integrals(d: np.ndarray, t: np.ndarray):
    """Integrals over [0, t] of c^2, c*s, s^2 for the basis of y'' = d*y.

    Returned as (Icc, Ics, Iss, log_scale): true integrals are the returned
    values times exp(2 * log_scale).  Identities used:
      (s c)' = c^2 + d s^2,   c^2 - d s^2 = 1
    give Icc = (t + s c)/2 and Iss = (s c - t)/(2 d); the latter switches to
    a series in d t^2 when cancellation would bite.
    """
    d = np.asarray(d, dtype=float)
    t = np.asarray(t, dtype=float)
    c, s, ls = cs_arrays(d, t)
    x = d * t * t
    big = ls > 0.0
    te = np.where(big, t * np.exp(-2.0 * ls), t)  # t scaled like c*s
    sc = s * c
    icc = 0.5 * (te + sc)
    ics = 0.5 * s * s
    iss = np.empty_like(sc)
    series = np.abs(x) < 1e-3
    with np.errstate(divide="ignore", invalid="ignore"):
        iss_exact = (sc - te) / (2.0 * d)
    co = _iss_series_coeff()
    xs = x[series]
    acc = np.zeros_like(xs)
    for ck in co[::-1]:
        acc = acc * xs + ck
    iss[series] = (t[series] ** 3) * acc
    iss[~series] = iss_exact[~series]
    return icc, ics, iss, ls


def seg_sq(y0, dy0, icc, ics, iss):
    """Integral of y**2 over a segment that starts at state (y0, dy0),
    given the basis integrals of sq_integrals (same scale convention)."""
    return y0 * y0 * icc + 2.0 * y0 * dy0 * ics + dy0 * dy0 * iss


# ---------------------------------------------------------------------------
# phase


def _frac_angle(y: float, dy: float) -> float:
    if y == 0.0:
        return 0.0
    a = math.atan2(y, dy)
    if a < 0.0:
        a += _PI
    return a


def phase(lens, qs, masses, lam: float) -> float:
    """Continuously unwound Pruefer angle theta(1; lam) for y(0)=0, y'(0)=1."""
    y = 0.0
    dy = 1.0
    theta = 0.0
    n = len(lens)
    lens_l = lens.tolist()
    qs_l = qs.tolist()
    ms_l = masses.tolist()
    for i in range(n):
        t = lens_l[i]
        if t > 0.0:
            d = qs_l[i] - lam
            if d < -TAYLOR_CUT and abs(d) * t * t >= TAYLOR_CUT:
                om = math.sqrt(-d)
                delta0 = math.atan2(om * y, dy) - math.atan2(y, dy)
                c = math.cos(om * t)
                s = math.sin(om * t) / om
                y1 = c * y + s * dy
                dy1 = d * s * y + c * dy
                delta1 = math.atan2(om * y1, dy1) - math.atan2(y1, dy1)
                theta += delta0 + om * t - delta1
            else:
                c, s, _ = cs_scalar(d, t)
                y1 = c * y + s * dy
                dy1 = d * s * y + c * dy
                z = 0
                if y != 0.0 and (y1 == 0.0 or (y > 0.0) != (y1 > 0.0)):
                    z = 1
                theta += z * _PI + _frac_angle(y1, dy1) - _frac_angle(y, dy)
            y, dy = y1, dy1
        m = ms_l[i]
        if m != 0.0 and y != 0.0:
            dy_new = dy + m * y
            theta += _frac_angle(y, dy_new) - _frac_angle(y, dy)
            dy = dy_new
        r = math.hypot(y, dy)
        if r != 0.0:
            y /= r
            dy /= r
    return theta


# ---------------------------------------------------------------------------
# full state propagation


def propagate(lens, qs, masses, lam: float):
    """March (y, y') across all segments with per-boundary renormalization.

    Returns (y_b, dy_arr, dy_dep, logscale): boundary arrays of length
    nseg + 1.  True values at boundary j are exp(logscale[j]) times the
    stored ones; dy_arr is the arriving derivative (left limit), dy_dep the
    departing one (after an atom jump, if any).
    """
    n = len(lens)
    y_b = np.zeros(n + 1)
    dy_arr = np.zeros(n + 1)
    dy_dep = np.zeros(n + 1)
    logsc = np.zeros(n + 1)
    y = 0.0
    dy = 1.0
    ls = 0.0
    y_b[0] = y
    dy_arr[0] = dy
    dy_dep[0] = dy
    lens_l = lens.tolist()
    qs_l = qs.tolist()
    ms_l = masses.tolist()
    for i in range(n):
        t = lens_l[i]
        d = qs_l[i] - lam
        c, s, sc = cs_scalar(d, t)
        y1 = c * y + s * dy
        dy1 = d * s * y + c * dy
        ls += sc
        r = math.hypot(y1, dy1)
        if r != 0.0:
            y1 /= r
            dy1 /= r
            ls += math.log(r)
        y_b[i + 1] = y1
        dy_arr[i + 1] = dy1
        m = ms_l[i]
        if m != 0.0:
            dy1 = dy1 + m * y1
        dy_dep[i + 1] = dy1
        logsc[i + 1] = ls
        y, dy = y1, dy1
    return y_b, dy_arr, dy_dep, logsc
