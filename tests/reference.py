"""Reference implementations kept as test oracles.

These are the straightforward forms of code the library now runs in a
faster shape: the eigen-solve loops that sweep every bracket end and
brentq value afresh and compute the spectral upper bound on every solve,
the warm solve's one-sided bracket search that walks one step at a time
(with its sweep count, to compare the library's predicted step with),
the per-piece loops for an antiderivative and its integrals and for the
perturbation threshold ``alpha_lower_bound``, the three mesh builders
one vectorized builder replaced (a cell loop and a run-end pass for the
fused mesh, a union of nodes and atoms for the node mesh), and the
CLI's value-by-value JSON and CSV writers.  The library's versions must return
the same floats (and the same bytes), bit for bit, except that
``alpha_lower_bound`` on a power weight sums the same terms from a
vectorized integral and agrees to rounding.  The golden-section
supremum of y**2 / r is kept as an oracle for the vectorized zoom, which
agrees with it to the 1e-12 bracket both stop at, not bit for bit.

The scalar propagation loop is kept as it was before propagate took
the fused mesh's tuples: it reads arrays and stores each state into a
preallocated array, and propagate must give the same floats.

The long-mesh sweep is kept as it was before it stopped paying for
padding and masked gathers: the prefix scan over the mesh padded with
identities to the next power of two, cs_arrays with every branch taken
through a boolean mask, sq_integrals with the series for the integral
of s**2 scattered through a mask, and the scan phase with the angle of
every boundary in [0, pi).  _scan's four arrays, cs_arrays' three,
sq_integrals' four and the phase must be the same floats.

The right-open cell lookup is kept in the form Potential.density_at had
before every cell lookup shared measures._cell_index: floor x * n, then
correct by one against the node values i / n, then clip to the grid.
_cell_index and density_at must give the same cell.

The gamma = 1 atom solves are kept in the form they had before their
per-call costs were cut, and must give the same floats: the scalar phase
loop that calls a per-angle helper on every segment (and skips a segment
of length 0), the atom potential built from numpy scalars, its fused mesh
taken from the cell loop's arrays, one Potential per solve, solved by the
reference solves, and the zoom supremum with its probe grid built on
every call.  Every reference solve sweeps the cell loop's mesh, never one
the library built.  Both scalar loops step through cs_scalar_ref,
the five-branch basis as phase's loop once had it inlined, so a change to
the library's cs_scalar shows against them.

The gamma > 1 iteration is kept as it was before it stopped at a lambda
drop at the damping floor: it runs to max_iter.  On a run that never
drops at the floor the library's report must be the same, field for
field; on one that does, the library's trace must be this one's up to
that drop.
"""

import json
import math

import numpy as np
from scipy.optimize import brentq

from slmajorant import _propagate as prop
from slmajorant.eigensolver import (MAX_INDEX, InternalSolverError, ShootingSolution,
                                    eigenfunction)
from slmajorant.cli import _fmt_float
from slmajorant.extremal import (DAMPING, DAMPING_FLOOR, TOL_OUTER, _best_response,
                                  _golden_max, _ground, _report)
from slmajorant.measures import ParameterError, Potential, PrimitiveFn, primitive

PI = math.pi
PI2 = math.pi**2


def primitive_ref(q) -> np.ndarray:
    """Q(x-) at each node_mesh breakpoint, one piece at a time."""
    xs, lens, slopes, masses = prop.node_mesh(q.grid_n, q.density, q.atoms)
    jumps = np.concatenate(([0.0], masses))
    left = np.zeros(len(xs))
    for j in range(len(xs) - 1):
        left[j + 1] = left[j] + jumps[j] + slopes[j] * lens[j]
    return left


def fuse_loop_ref(grid_n, density, atoms):
    """build_segments one cell at a time: grow each run of equal density,
    split it at the atoms up to its end, then close it."""
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


def fuse_runs_ref(grid_n, density, atoms):
    """build_segments from the run ends: each piece takes the density of
    the run whose end is the first at or past its right end."""
    dens = np.asarray(density, dtype=float)
    cut = np.flatnonzero(dens[1:] != dens[:-1]) + 1   # first cell of a run
    ends = np.append(cut, grid_n) / grid_n
    xs, qs = ends, dens[np.append(0, cut)]
    masses = np.zeros(len(ends))
    if atoms:
        pos, mass = np.array(atoms).T
        xs = np.union1d(ends, pos)
        qs = qs[np.searchsorted(ends, xs)]
        masses = np.zeros(len(xs))
        masses[np.searchsorted(xs, pos)] = mass
    xs = np.concatenate(([0.0], xs))
    return xs, xs[1:] - xs[:-1], qs, masses


def node_mesh_ref(grid_n, density, atoms):
    """node_mesh from the union of the nodes and the atoms, each piece
    placed by the right-open cell of its left end."""
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


def cell_index_ref(grid_n: int, x: float) -> int:
    """Right-open cell of the uniform grid holding x, by flooring x * n
    and comparing x with the node values i / n; clipped to the grid."""
    n = grid_n
    i = int(x * n)
    if x < i / n:
        i -= 1
    elif x >= (i + 1) / n:
        i += 1
    return min(max(i, 0), n - 1)


def sup_y2_over_r_ref(w, sol, probes: int = 2049):
    """Supremum of y**2 / r: dense probe plus golden-section refinement of
    the bracket around the probe's best point, to 1e-12."""
    delta = 1e-6
    grid = np.linspace(delta, 1.0 - delta, probes)
    xs = np.union1d(grid, np.clip(sol.breakpoints[1:-1], delta, 1.0 - delta))
    vals = sol.values(xs) ** 2 / w(xs)
    i = int(np.argmax(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, len(xs) - 1)]

    def f(x):
        return float(sol.values([x])[0] ** 2 / w(x))

    x_star, v_star = _golden_max(f, float(lo), float(hi), 1e-12)
    if vals[i] > v_star:
        return float(xs[i]), float(vals[i])
    return x_star, v_star


def alpha_lower_bound_loop(w, gamma: float, base, p) -> float:
    """alpha_lower_bound for gamma > 1, one piece of the union grid at a
    time, each piece's integral read from one cell_pow_integrals call."""
    edges = np.union1d(base.edges(), p.edges())
    cell_r = w.cell_pow_integrals(edges).tolist()
    total = 0.0
    for a, b, r_ab in zip(edges[:-1], edges[1:], cell_r):
        x = 0.5 * (a + b)
        pv = p.density_at(x)
        if pv == 0.0:
            continue
        total += pv * base.density_at(x) ** (gamma - 1.0) * r_ab
    for pos, mass in p.atoms:
        total += mass * float(w(pos)) * base.density_at(pos) ** (gamma - 1.0)
    return total - 1.0


def integrals_loop(p: PrimitiveFn, a: float, b: float) -> tuple[float, float]:
    """(integral of Q, integral of Q**2) over [a, b], one piece at a time."""
    i1 = 0.0
    i2 = 0.0
    right = p.right
    for j in range(len(p.xs) - 1):
        lo = max(a, float(p.xs[j]))
        hi = min(b, float(p.xs[j + 1]))
        if hi <= lo:
            continue
        va = right[j] + p.slopes[j] * (lo - p.xs[j])
        vb = right[j] + p.slopes[j] * (hi - p.xs[j])
        ln = hi - lo
        i1 += 0.5 * (va + vb) * ln
        i2 += ln * (va * va + va * vb + vb * vb) / 3.0
    return i1, i2


def seminorm_ref(q, ell: int) -> float:
    a = 2.0 ** (-ell)
    b = 1.0 - a
    i1, i2 = integrals_loop(primitive(q), a, b)
    length = b - a
    var = i2 - i1 * i1 / length
    return math.sqrt(max(var, 0.0))


def upper_bound_ref(q, n: int) -> float:
    return 4.0 * PI2 * (n + 1) ** 2 * (1.0 + 2.0 * seminorm_ref(q, 2))


def _phase_fn(q):
    # the cell loop's mesh, so that no reference solve sweeps a mesh the
    # library built
    _, lens, qs, masses = fused_mesh_ref(q)
    return lambda lam: prop.phase(lens, qs, masses, lam)


def _bracket(q, n: int):
    lo = PI2 * (n + 1) ** 2 * (1.0 - 1e-12)
    return _phase_fn(q), (n + 1) * PI, lo, upper_bound_ref(q, n)


def _root(theta, target: float, lo: float, hi: float, tol: float) -> float:
    rtol = max(tol, 4.0 * np.finfo(float).eps)
    return float(brentq(lambda lam: theta(lam) - target, lo, hi,
                        rtol=rtol, xtol=1e-15))


def eigenvalue_ref(q, n: int = 0, tol: float = 1e-10) -> float:
    """Cold solve: full bracket, both ends swept, then brentq."""
    if n < 0 or n > MAX_INDEX:
        raise ParameterError(f"eigenvalue index must lie in [0, {MAX_INDEX}]")
    if not (tol > 0.0):
        raise ParameterError("tolerance must be positive")
    theta, target, lo, hi = _bracket(q, n)
    g_lo = theta(lo) - target
    g_hi = theta(hi) - target
    if not (g_lo <= 0.0 <= g_hi):
        raise InternalSolverError("phase bracket violated")
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    return _root(theta, target, lo, hi, tol)


def eigenvalue_warm_ref(q, n: int, tol: float, guess: float) -> float:
    """Warm solve: both ends swept at every step of the growing bracket,
    whose lower end stops at the free-particle bound and whose upper end
    grows without bound.  A lower end that fails at that bound violates
    the bracket."""
    theta, target = _phase_fn(q), (n + 1) * PI
    lo_glob = PI2 * (n + 1) ** 2 * (1.0 - 1e-12)
    w = max(1e-6 * abs(guess), 1e-9)
    while True:
        lo, hi = max(guess - w, lo_glob), guess + w
        g_lo = theta(lo) - target
        if g_lo <= 0.0 <= theta(hi) - target:
            return _root(theta, target, lo, hi, tol)
        if g_lo > 0.0 and lo == lo_glob:
            raise InternalSolverError("phase bracket violated")
        w *= 4.0


def eigenvalue_warm_one_sided_ref(q, n: int, tol: float,
                                  guess: float) -> tuple[float, int]:
    """Warm solve by the one-sided step-by-step rule, which swept one
    bracket end per step: the lower end until it passes, then only the
    upper end, and the lower end again at the step where the upper end
    passes.  The bracket is eigenvalue_warm_ref's.  Every lam is swept
    once; returns lambda and the sweep count."""
    theta, target = _phase_fn(q), (n + 1) * PI
    lo_glob = PI2 * (n + 1) ** 2 * (1.0 - 1e-12)
    seen: dict[float, float] = {}
    sweeps = 0

    def g(lam: float) -> float:
        nonlocal sweeps
        v = seen.get(lam)
        if v is None:
            sweeps += 1
            v = seen[lam] = theta(lam) - target
        return v

    guess = float(guess)
    w = max(1e-6 * abs(guess), 1e-9)
    lo_ok = False
    while True:
        lo, hi = max(guess - w, lo_glob), guess + w
        if not lo_ok:
            lo_ok = g(lo) <= 0.0
            if not lo_ok and lo == lo_glob:
                raise InternalSolverError("phase bracket violated")
        if lo_ok and g(hi) >= 0.0:
            if g(lo) <= 0.0:
                rtol = max(tol, 4.0 * np.finfo(float).eps)
                return float(brentq(g, lo, hi, rtol=rtol, xtol=1e-15)), sweeps
            lo_ok = False
        w *= 4.0


def dumps_deterministic_ref(obj, indent: int = 0) -> str:
    """JSON with sorted keys and 17-digit floats, one value at a time."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  "{k}": {dumps_deterministic_ref(obj[k], indent + 2).lstrip()}'
            for k in sorted(obj)
        )
        return f"{pad}{{\n{items}\n{pad}}}" if obj else f"{pad}{{}}"
    if isinstance(obj, (list, tuple)):
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            body = ", ".join(dumps_deterministic_ref(v).strip() for v in obj)
            return f"{pad}[{body}]"
        items = ",\n".join(dumps_deterministic_ref(v, indent + 2) for v in obj)
        return f"{pad}[\n{items}\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return f"{pad}{'true' if obj else 'false'}"
    if obj is None:
        return f"{pad}null"
    if isinstance(obj, (int, np.integer)):
        return f"{pad}{int(obj)}"
    if isinstance(obj, (float, np.floating)):
        return f"{pad}{_fmt_float(float(obj))}"
    if isinstance(obj, str):
        return pad + json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def csv_text_ref(header, rows) -> str:
    """The CLI's CSV file contents, one cell at a time."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (bool, np.bool_)):
                cells.append("true" if v else "false")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(_fmt_float(float(v)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cs_scalar_ref(d: float, t: float) -> tuple[float, float, float]:
    """cs_scalar's (c, s, log_scale) on its five branches, written out as
    phase's loop had them inlined, so that the reference loops do not
    read the library's basis."""
    x = d * t * t
    if -prop.TAYLOR_CUT < x < prop.TAYLOR_CUT:
        c = 1.0 + x * (0.5 + x * (1.0 / 24.0 + x / 720.0))
        s = t * (1.0 + x * (1.0 / 6.0 + x * (1.0 / 120.0 + x / 5040.0)))
        return c, s, 0.0
    if d < 0.0:
        om = math.sqrt(-d)
        return math.cos(om * t), math.sin(om * t) / om, 0.0
    k = math.sqrt(d)
    kt = k * t
    if kt <= prop.BIG_ARG:
        return math.cosh(kt), math.sinh(kt) / k, 0.0
    e = math.exp(-2.0 * kt)
    return 0.5 * (1.0 + e), 0.5 * (1.0 - e) / k, kt


def _frac_angle_ref(y: float, dy: float) -> float:
    if y == 0.0:
        return 0.0
    a = math.atan2(y, dy)
    if a < 0.0:
        a += PI
    return a


def phase_loop_ref(lens, qs, masses, lam: float) -> float:
    """theta(1; lam) one segment at a time, through cs_scalar_ref and a
    per-angle helper."""
    if isinstance(lens, np.ndarray):
        lens, qs, masses = lens.tolist(), qs.tolist(), masses.tolist()
    y = 0.0
    dy = 1.0
    theta = 0.0
    for t, qv, m in zip(lens, qs, masses):
        if t > 0.0:
            d = qv - lam
            if d < -prop.TAYLOR_CUT and abs(d) * t * t >= prop.TAYLOR_CUT:
                om = math.sqrt(-d)
                delta0 = math.atan2(om * y, dy) - math.atan2(y, dy)
                c = math.cos(om * t)
                s = math.sin(om * t) / om
                y1 = c * y + s * dy
                dy1 = d * s * y + c * dy
                delta1 = math.atan2(om * y1, dy1) - math.atan2(y1, dy1)
                theta += delta0 + om * t - delta1
            else:
                c, s, _ = cs_scalar_ref(d, t)
                y1 = c * y + s * dy
                dy1 = d * s * y + c * dy
                z = 0
                if y != 0.0 and (y1 == 0.0 or (y > 0.0) != (y1 > 0.0)):
                    z = 1
                theta += z * PI + _frac_angle_ref(y1, dy1) - _frac_angle_ref(y, dy)
            y, dy = y1, dy1
        if m != 0.0 and y != 0.0:
            dy_new = dy + m * y
            theta += _frac_angle_ref(y, dy_new) - _frac_angle_ref(y, dy)
            dy = dy_new
        r = math.hypot(y, dy)
        if r != 0.0:
            y /= r
            dy /= r
    return theta


def propagate_loop_ref(lens, qs, masses, lam: float):
    """propagate's boundary arrays one segment at a time through
    cs_scalar_ref, each value stored into a preallocated array; lens, qs and
    masses are arrays."""
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
        c, s, sc = cs_scalar_ref(d, t)
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


def atom_potential_ref(w, zs, shares, grid_n=16):
    """The k-atom potential with the weight evaluated on numpy scalars."""
    atoms = tuple(
        (z, s / float(w(z))) for z, s in zip(np.asarray(zs), np.asarray(shares))
        if s > 0.0
    )
    return Potential.from_atoms(atoms, grid_n)


def atom_ground_ref(atoms, tol: float, guess=None) -> float:
    """The gamma = 1 atom solve as it was, one Potential per solve: the
    reference cold or warm ground solve of Potential.from_atoms(atoms)."""
    q = Potential.from_atoms(atoms)
    if guess is None:
        return eigenvalue_ref(q, 0, tol)
    return eigenvalue_warm_ref(q, 0, tol, guess)


def fused_mesh_ref(q):
    """q's fused mesh (xs, lens, qs, masses) from the cell loop's arrays,
    in the form phase sweeps: tuples of floats below SCAN_MIN_SEGMENTS
    segments, arrays from there on.  As a property on Potential it routes
    every sweep and ShootingSolution through the cell loop."""
    mesh = fuse_loop_ref(q.grid_n, q.density, q.atoms)
    if len(mesh[1]) < prop.SCAN_MIN_SEGMENTS:
        return tuple(tuple(v.tolist()) for v in mesh)
    return mesh


def sup_y2_over_r_zoom_ref(w, sol, probes: int = 2049, zoom: int = 33):
    """Supremum of y**2 / r: dense probe, then np.linspace zoom rounds
    around each round's best point down to 1e-12; the best value wins."""
    delta = 1e-6
    grid = np.linspace(delta, 1.0 - delta, probes)
    xs = np.union1d(grid, np.clip(sol.breakpoints[1:-1], delta, 1.0 - delta))
    x_star, v_star = 0.0, -math.inf
    while True:
        vals = sol.values(xs) ** 2 / w(xs)
        i = int(np.argmax(vals))
        if vals[i] > v_star:
            x_star, v_star = float(xs[i]), float(vals[i])
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
        if hi - lo <= 1e-12:
            return x_star, v_star
        xs = np.linspace(lo, hi, zoom)


# ---------------------------------------------------------------------------
# the long-mesh sweep with its power-of-two padding and masked gathers


def cs_arrays_ref(d: np.ndarray, t: np.ndarray):
    """cs_arrays with every branch gathered and scattered through a mask."""
    d = np.asarray(d, dtype=float)
    t = np.asarray(t, dtype=float)
    x = d * t * t
    c = np.empty_like(x)
    s = np.empty_like(x)
    ls = np.zeros_like(x)

    tiny = np.abs(x) < prop.TAYLOR_CUT
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
    small = kt <= prop.BIG_ARG
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


def sq_integrals_ref(d: np.ndarray, t: np.ndarray, basis=None):
    """sq_integrals with the series for the integral of s**2 gathered and
    scattered through a mask.  A basis passed in is not read: the basis
    values are computed afresh."""
    d = np.asarray(d, dtype=float)
    t = np.asarray(t, dtype=float)
    c, s, ls = cs_arrays_ref(d, t)
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
    xs = x[series]
    acc = np.zeros_like(xs)
    for ck in prop._ISS_COEFF[::-1]:
        acc = acc * xs + ck
    iss[series] = (t[series] ** 3) * acc
    iss[~series] = iss_exact[~series]
    return icc, ics, iss, ls


def scan_ref(lens, qs, masses, lam: float):
    """_scan on the mesh padded with identities to a power of two, and the
    basis values it was built from."""
    n = len(lens)
    d = qs - lam
    c, s, ls = cs_arrays_ref(d, lens)
    m = np.concatenate(([0.0], masses[:-1]))
    size = 1 << (n - 1).bit_length()   # padded with identities
    blk = np.zeros((2, 2, size))
    blk[0, 0, n:] = blk[1, 1, n:] = 1.0
    blk[0, 0, :n] = c + s * m
    blk[0, 1, :n] = s
    blk[1, 0, :n] = d * s + c * m
    blk[1, 1, :n] = c
    expo = np.zeros(size, dtype=np.int64)
    levels = []
    while blk.shape[2] > prop._SCAN_TOP:
        levels.append((blk, expo))
        left, right = blk[:, :, 0::2], blk[:, :, 1::2]
        prod = (right[:, :, None, :] * left[None, :, :, :]).sum(axis=1)
        _, e = np.frexp(np.abs(prod).max(axis=(0, 1)))
        blk = np.ldexp(prod, -e)
        expo = expo[0::2] + expo[1::2] + e
    y, dy, x = 0.0, 1.0, 0
    top = [[], [], []]
    for (p00, p01, p10, p11), e in zip(blk.reshape(4, -1).T.tolist(), expo.tolist()):
        top[0].append(y)
        top[1].append(dy)
        top[2].append(x)
        y, dy = p00 * y + p01 * dy, p10 * y + p11 * dy
        _, j = math.frexp(max(abs(y), abs(dy)))
        y, dy, x = math.ldexp(y, -j), math.ldexp(dy, -j), x + e + j
    state = np.array(top[:2])
    sx = np.array(top[2], dtype=np.int64)
    for blk, expo in reversed(levels):
        v = (blk[:, :, 0::2] * state[None, :, :]).sum(axis=1)
        _, j = np.frexp(np.abs(v).max(axis=0))
        nxt = np.empty((2, 2 * state.shape[1]))
        nxt[:, 0::2] = state
        nxt[:, 1::2] = np.ldexp(v, -j)
        nx = np.empty(2 * len(sx), dtype=np.int64)
        nx[0::2] = sx
        nx[1::2] = sx + expo[0::2] + j
        state, sx = nxt, nx
    y_b = np.append(state[0], y)[: n + 1]
    dy_b = np.append(state[1], dy)[: n + 1]
    return y_b, dy_b, np.append(sx, x)[: n + 1], ls, c, s


def _frac_angles_arrays_ref(y, dy):
    """atan2(y, dy) of each state, taken in [0, pi), and 0 where y = 0."""
    a = np.arctan2(y, dy)
    a[a < 0.0] += PI
    a[y == 0.0] = 0.0
    return a


def phase_scan_ref(lens, qs, masses, lam: float) -> float:
    """_phase_scan with the angles of every boundary in [0, pi) and the
    oscillatory increments gathered through a mask."""
    y, dy_arr = scan_ref(lens, qs, masses, lam)[:2]
    dy_dep = dy_arr.copy()
    dy_dep[1:] += masses * y[1:]
    d = qs - lam
    y0, dy0, y1, dy1 = y[:-1], dy_dep[:-1], y[1:], dy_arr[1:]
    f_arr = _frac_angles_arrays_ref(y, dy_arr)
    f_dep = f_arr.copy()
    jump = np.flatnonzero(masses) + 1
    f_dep[jump] = _frac_angles_arrays_ref(y[jump], dy_dep[jump])
    # non-oscillatory rule: at most one zero, counted from the sign change
    z = (y0 != 0.0) & ((y1 == 0.0) | ((y0 > 0.0) != (y1 > 0.0)))
    inc = z * PI + f_arr[1:] - f_dep[:-1]
    # oscillatory rule: the scaled angle atan2(om y, y') advances by om t
    osc = np.flatnonzero((d < -prop.TAYLOR_CUT)
                         & (np.abs(d) * lens * lens >= prop.TAYLOR_CUT))
    om = np.sqrt(-d[osc])
    ya, da, yb, db = y0[osc], dy0[osc], y1[osc], dy1[osc]
    inc[osc] = (np.arctan2(om * ya, da) - np.arctan2(ya, da)) + om * lens[osc] - (
        np.arctan2(om * yb, db) - np.arctan2(yb, db)
    )
    # atom jumps turn the angle at fixed y
    return float(np.sum(inc) + np.sum(f_dep[jump] - f_arr[jump]))


def solve_extremal_gamma_gt1_ref(w, gamma: float, cfg):
    """solve_extremal_gamma_gt1's damped iteration run to cfg.max_iter:
    a drop of lambda at the damping floor only keeps tau there."""
    n = cfg.grid_n
    edges = np.arange(n + 1) / n
    mids = (np.arange(n) + 0.5) / n
    cell_r = w.cell_pow_integrals(edges)
    log_r = np.log(w(mids))
    q = np.full(n, float(np.sum(cell_r)) ** (-1.0 / gamma))
    tau = DAMPING
    lam_prev = None
    trace = []
    converged = False
    for k in range(cfg.max_iter):
        pot = Potential(n, q)
        lam = _ground(pot, cfg.tol_eigen, lam_prev)
        v, res = _best_response(log_r, gamma, ShootingSolution(pot, lam), mids, cell_r, q)
        trace.append((k, lam, res))
        if lam_prev is not None:
            if lam < lam_prev - 1e-12 * max(lam, 1.0):
                tau = max(tau / 2.0, DAMPING_FLOOR)
            if abs(lam - lam_prev) < TOL_OUTER * lam and res < cfg.tol_res:
                converged = True
                break
        lam_prev = lam
        q = (1.0 - tau) * q + tau * v
    q_hat = Potential(n, v)
    lam = _ground(q_hat, cfg.tol_eigen, lam)
    _, res = _best_response(log_r, gamma, ShootingSolution(q_hat, lam), mids, cell_r, v)
    trace.append((len(trace), lam, res))
    return _report(w, gamma, q_hat, eigenfunction(q_hat, lam, 0), res, trace,
                   converged and res < cfg.tol_res)
